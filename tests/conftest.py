"""Shared arrangement corpus for the test suite.

Plain builder functions rather than fixtures so tests can call them with
custom weights.  Everything here is deterministic: the "random" M=3
arrangement is generated from a fixed seed and validated once at import
time.
"""

import random
from fractions import Fraction

from aomoto_lab.arrangement import AffineForm, WeightedArrangement
from aomoto_lab.svmap import build_arrangement

F = Fraction

ACCEPTANCE_POINTS = (F(-1, 2), F(0), F(1, 2), F(1))


def two_points(weights=(F(1, 2), F(1, 3))):
    """M=1, hyperplanes t-1 and t+1."""
    forms = [AffineForm(F(-1), (F(1),)), AffineForm(F(1), (F(1),))]
    return WeightedArrangement(1, forms, list(weights))


def crossing_lines(weights=(F(2), F(3)), coloring=None):
    """M=2, coordinate axes t1 and t2."""
    forms = [AffineForm(F(0), (F(1), F(0))), AffineForm(F(0), (F(0), F(1)))]
    return WeightedArrangement(2, forms, list(weights), coloring=coloring)


def triple_concurrent(weights=(F(1, 2), F(1, 3), F(1, 5))):
    """M=2, three lines through the origin (a codim-2 triple point)."""
    forms = [
        AffineForm(F(0), (F(1), F(0))),
        AffineForm(F(0), (F(0), F(1))),
        AffineForm(F(0), (F(1), F(-1))),
    ]
    return WeightedArrangement(2, forms, list(weights))


def parallel_mix(weights=(F(1), F(1, 2), F(1, 3), F(1, 5))):
    """M=2 with a parallel pair, a transversal and an affine line."""
    forms = [
        AffineForm(F(0), (F(1), F(0))),
        AffineForm(F(-1), (F(1), F(0))),
        AffineForm(F(0), (F(0), F(1))),
        AffineForm(F(-3), (F(1), F(1))),
    ]
    return WeightedArrangement(2, forms, list(weights))


def sl2_four_point(kappa=7, points=ACCEPTANCE_POINTS):
    """The discriminantal arrangement of four sl2 doublets (M=2, r=9)."""
    return build_arrangement([1, 1, 1, 1], list(points), kappa=kappa)


def random_m3(seed=20240817, size=6):
    """A seeded 6-hyperplane arrangement in M=3 with small rational data."""
    rng = random.Random(seed)
    forms = []
    while len(forms) < size:
        gradient = tuple(F(rng.randint(-3, 3)) for _ in range(3))
        if all(g == 0 for g in gradient):
            continue
        candidate = AffineForm(F(rng.randint(-4, 4)), gradient)
        if any(candidate.proportional_to(f) for f in forms):
            continue
        forms.append(candidate)
    weights = []
    while len(weights) < size:
        num = rng.randint(-5, 5)
        if num == 0:
            continue
        weights.append(F(num, rng.randint(1, 5)))
    return WeightedArrangement(3, forms, weights)


def corpus():
    """At least five structurally different arrangements for property suites."""
    return [
        two_points(),
        crossing_lines(),
        triple_concurrent(),
        parallel_mix(),
        sl2_four_point(kappa=7),
        random_m3(),
    ]


# one summary line per acceptance criterion, printed after the run so the
# lines survive output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
