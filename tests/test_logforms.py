"""Exterior calculus kernels, the boundary identity, and top-form expansion."""

import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm, prod

import pytest

from aomoto_lab import logforms
from aomoto_lab.aomoto import AomotoSpace, monomials
from aomoto_lab.arrangement import (
    AffineForm, WeightedArrangement, intersection_lattice,
)
from aomoto_lab.errors import NotInSpan, OnHyperplane
from aomoto_lab.exactfield import RatFuncKappa, random_point_avoiding
from aomoto_lab.logforms import (
    ExteriorElement,
    _merge_sign,
    coordinate_functions,
    difference_form,
    eval_dlog,
    expand_top_form,
    grundlegend_control,
    monomial_value,
    verify_grundlegend,
)
from aomoto_lab.svmap import build_arrangement

from arrangements import (
    ACCEPTANCE_POINTS, corpus, crossing_lines, parallel_mix, random_m3,
    sl2_four_point, two_points,
)

F = Fraction


def doubled_form(form, dimension, copy):
    """The form acting on the first (copy=0) or second (copy=1) factor of x x y."""
    pad = [Fraction(0)] * dimension
    grad = list(form.gradient) + pad if copy == 0 else pad + list(form.gradient)
    return AffineForm(form.constant, tuple(grad))


def test_merge_sign_parity():
    assert _merge_sign((0,), (1,)) == (1, (0, 1))
    assert _merge_sign((1,), (0,)) == (-1, (0, 1))
    assert _merge_sign((2,), (0, 1)) == (1, (0, 1, 2))
    assert _merge_sign((1, 3), (0, 2)) == (-1, (0, 1, 2, 3))
    assert _merge_sign((), (0, 1)) == (1, (0, 1))


def test_exterior_algebra_rules():
    dx = ExteriorElement(3, {(0,): F(1)})
    dy = ExteriorElement(3, {(1,): F(1)})
    dz = ExteriorElement(3, {(2,): F(1)})
    assert dx.wedge(dy) + dy.wedge(dx) == ExteriorElement(3)
    assert dx.wedge(dx).is_zero()
    assert dx.wedge(dy).wedge(dz) == dx.wedge(dy.wedge(dz))
    mixed = dx.scale(F(2)) + dy.scale(F(-3))
    assert mixed.wedge(dz).terms == {(0, 2): F(2), (1, 2): F(-3)}
    one = ExteriorElement.one(3)
    assert one.wedge(mixed) == mixed
    assert (mixed - mixed).is_zero()


def test_eval_dlog_values_and_guard():
    form = AffineForm(F(-1), (F(1), F(2)))  # t1 + 2 t2 - 1
    elem = eval_dlog(form, (F(2), F(1)))
    assert elem.terms == {(0,): F(1, 3), (1,): F(2, 3)}
    with pytest.raises(OnHyperplane):
        eval_dlog(form, (F(1), F(0)))


def test_doubled_and_difference_forms():
    form = AffineForm(F(5), (F(1), F(-2)))
    first = doubled_form(form, 2, 0)
    second = doubled_form(form, 2, 1)
    assert first.gradient == (F(1), F(-2), F(0), F(0))
    assert second.gradient == (F(0), F(0), F(1), F(-2))
    assert first.constant == F(5) and second.constant == F(5)
    diff = difference_form(form)
    xy = (F(3), F(1), F(7), F(2))
    assert diff.evaluate(xy) == form.evaluate(xy[:2]) - form.evaluate(xy[2:])


def test_eta_difference_by_hand():
    arr = two_points()  # weights 1/2, 1/3 on t - 1, t + 1
    x, y = F(3), F(5)
    got = _reference_eta(arr, (x, y))
    expect = {
        (0,): F(1, 2) / (x - 1) + F(1, 3) / (x + 1),
        (1,): -(F(1, 2) / (y - 1) + F(1, 3) / (y + 1)),
    }
    assert got.terms == expect


def test_kernel_form_values():
    arr = two_points()
    x, y = F(3), F(5)
    assert _subset_S_b(arr, 0, (x, y)) == ExteriorElement.one(2)
    got = _subset_S_b(arr, 1, (x, y))
    coeff = F(1, 2) / ((x - 1) * (y - 1)) + F(1, 3) / ((x + 1) * (y + 1))
    assert got.terms == {(0, 1): coeff}


def test_kernel_form_swap_antisymmetry():
    # exchanging the two copies relabels covectors j <-> j + M and flips
    # each dlog pair, so S^(b) picks up (-1)^b on top of the relabeling
    arr = crossing_lines()
    M = arr.dimension
    xy = (F(2), F(5), F(3), F(7))
    yx = xy[M:] + xy[:M]
    for b in range(M + 1):
        before = _subset_S_b(arr, b, xy)
        after = _subset_S_b(arr, b, yx)
        relabeled = {}
        for subset, coeff in before.terms.items():
            moved = [(j + M) % (2 * M) for j in subset]
            sign = 1
            order = sorted(range(len(moved)), key=lambda i: moved[i])
            for i in range(len(order)):
                for j in range(i + 1, len(order)):
                    if order[i] > order[j]:
                        sign = -sign
            relabeled[tuple(sorted(moved))] = coeff * sign * (-1) ** b
        assert after.terms == relabeled, b


def test_boundary_identity_on_corpus():
    cases = [two_points(), crossing_lines(), sl2_four_point(), random_m3()]
    for arr in cases:
        coords = coordinate_functions(arr.dimension)
        for k in range(1, arr.dimension + 1):
            assert verify_grundlegend(arr, coords, k, num_points=3, seed=11), (
                arr.dimension,
                k,
            )
    with pytest.raises(ValueError):
        verify_grundlegend(two_points(), coordinate_functions(1), 2)


def test_boundary_identity_control_detects_mismatch():
    for arr in [two_points(), crossing_lines(), random_m3()]:
        coords = coordinate_functions(arr.dimension)
        assert grundlegend_control(arr, coords, seed=5)


def _subset_S_b(arr, b, xy):
    """S^(b) as the sum over b-subsets of prod a_i dlog f_i(x) ^ dlog f_i(y)."""
    M = arr.dimension
    total = ExteriorElement(2 * M)
    for subset in combinations(range(arr.size), b):
        term = ExteriorElement.one(2 * M)
        for i in subset:
            dx = eval_dlog(doubled_form(arr.forms[i], M, 0), xy)
            dy = eval_dlog(doubled_form(arr.forms[i], M, 1), xy)
            term = term.wedge(dx.wedge(dy)).scale(arr.weights[i])
        total = total + term
    return total


def _reference_eta(arr, xy):
    M = arr.dimension
    total = ExteriorElement(2 * M)
    for form, weight in zip(arr.forms, arr.weights):
        dx = eval_dlog(doubled_form(form, M, 0), xy)
        dy = eval_dlog(doubled_form(form, M, 1), xy)
        total = total + (dx - dy).scale(weight)
    return total


def _reference_sides(arr, rhs_arr, F_list, k, xy):
    """Both sides of the boundary identity from the subset sums.

    The left side is built from arr, the right side from rhs_arr.
    """
    M = arr.dimension

    def mixed(a, qs):
        out = _subset_S_b(a, M - len(qs), xy)
        for q in qs:
            out = out.wedge(eval_dlog(difference_form(F_list[q]), xy))
        return out

    lhs = ExteriorElement(2 * M)
    for j in range(k):
        omitted = [q for q in range(k) if q != j]
        lhs = lhs + mixed(arr, omitted).scale(1 if j % 2 == 0 else -1)
    return lhs, _reference_eta(rhs_arr, xy).wedge(mixed(rhs_arr, range(k)))


POWER_FORM_CASES = [
    *(pytest.param(arr, id=f"corpus{i}") for i, arr in enumerate(corpus())),
    pytest.param(build_arrangement([2, 1, 1, 2], ACCEPTANCE_POINTS,
                                   kappa=7), id="sl2-2112"),
    # kappa left symbolic: RatFuncKappa weights
    pytest.param(build_arrangement([1, 1, 1, 1], ACCEPTANCE_POINTS),
                 id="symbolic-1111"),
    pytest.param(build_arrangement([2, 1, 1], ACCEPTANCE_POINTS[:3]),
                 id="symbolic-211"),
]


def _primitive_scale(form):
    """The s for which s * form has coprime integer coefficients."""
    coeffs = (form.constant, *form.gradient)
    den = lcm(*(c.denominator for c in coeffs))
    return F(den, gcd(*(int(c * den) for c in coeffs)))


def _scale_factor(arr, weight_lists, F_list, k, xy):
    """C = (W P)^(b+1) (b+1)! Q^k, worked out from the AffineForms."""
    M = arr.dimension
    b = M - k
    W = lcm(*(w.denominator for ws in weight_lists for w in ws
              if not isinstance(w, RatFuncKappa)))
    P = prod(_primitive_scale(f) * f.evaluate(pt)
             for f in arr.forms for pt in (xy[:M], xy[M:]))
    Q = prod(_primitive_scale(d) * d.evaluate(xy)
             for d in (difference_form(F_list[q]) for q in range(k)))
    return (W * P) ** (b + 1) * factorial(b + 1) * Q ** k


@pytest.mark.parametrize("arr", POWER_FORM_CASES)
def test_power_form_matches_subset_sum(arr, monkeypatch):
    # the integer sides, built from powers of W P Omega, that
    # verify_grundlegend and grundlegend_control build at their own
    # sample points against C times the ones built from the subset sums
    M = arr.dimension
    coords = coordinate_functions(M)
    built = []
    sides = logforms._scaled_sides

    def recording(lhs_forms, rhs_forms, differences, k, xy):
        out = sides(lhs_forms, rhs_forms, differences, k, xy)
        built.append((k, xy, out))
        return out

    monkeypatch.setattr(logforms, "_scaled_sides", recording)
    for k in range(1, M + 1):
        assert verify_grundlegend(arr, coords, k, num_points=2, seed=k)
    checked = len(built)
    assert grundlegend_control(arr, coords, seed=3)
    assert checked == 2 * M and len(built) == checked + 1
    shifted = [arr.weights[0] + F(1, 5), *arr.weights[1:]]
    perturbed = WeightedArrangement(M, arr.forms, shifted)
    symbolic = isinstance(arr.zero, RatFuncKappa)
    for n, (k, xy, got) in enumerate(built):
        rhs_arr = arr if n < checked else perturbed
        weight_lists = [arr.weights] + ([shifted] if n == checked else [])
        C = _scale_factor(arr, weight_lists, coords, k, xy)
        expect = _reference_sides(arr, rhs_arr, coords, k, xy)
        for side, ref in zip(got, expect):
            assert side.terms == ref.scale(C).terms, n
            assert symbolic or all(type(c) is int for c in side.terms.values())


@pytest.mark.parametrize("arr", [
    sl2_four_point(),
    build_arrangement([2, 1, 1], [F(-7, 3), F(1, 2), F(5, 4)], kappa=F(-9, 4)),
    random_m3(),
])
def test_kernel_draws_the_points_of_the_affine_sampler(arr, monkeypatch):
    # the kernel decides admissibility on primitive integer forms; a
    # small bound makes many draws land on a hyperplane or a slice, so
    # every rejection must match the one on the rational forms
    M = arr.dimension
    coords = coordinate_functions(M)
    drawn = []
    sides = logforms._scaled_sides

    def recording(lhs_forms, rhs_forms, differences, k, xy):
        drawn.append(xy)
        return sides(lhs_forms, rhs_forms, differences, k, xy)

    monkeypatch.setattr(logforms, "_scaled_sides", recording)
    bound, seed = 4, 17
    expected = []
    for k in range(1, M + 1):
        avoid = ([doubled_form(f, M, 0) for f in arr.forms]
                 + [doubled_form(f, M, 1) for f in arr.forms]
                 + [difference_form(coords[q]) for q in range(k)])
        rng = random.Random(seed)
        expected += [random_point_avoiding(avoid, bound=bound,
                                           seed=rng.randrange(2**32),
                                           dimension=2 * M)
                     for _ in range(3)]
        assert verify_grundlegend(arr, coords, k, num_points=3, seed=seed,
                                  bound=bound)
    expected.append(random_point_avoiding(avoid, bound=bound, seed=seed,
                                          dimension=2 * M))
    assert grundlegend_control(arr, coords, seed=seed, bound=bound)
    assert drawn == expected
    assert all(type(c) is int for xy in drawn for c in xy)


def test_monomial_value_examples():
    arr = two_points()
    assert monomial_value(arr, (0,), (F(3),)) == F(1, 2)
    cross = crossing_lines()
    assert monomial_value(cross, (0, 1), (F(2), F(3))) == F(1, 6)
    with pytest.raises(OnHyperplane):
        monomial_value(arr, (0,), (F(1),))


def test_expand_top_form_round_trips():
    for arr in [two_points(), crossing_lines(), parallel_mix(), random_m3()]:
        M = arr.dimension
        lattice = intersection_lattice(arr)
        space = AomotoSpace(arr, lattice, M)
        mons = monomials(arr.size, M)
        coeffs = [F(i + 1, i + 2) for i in range(len(mons))]

        def evaluator(pt, coeffs=coeffs, arr=arr, mons=mons):
            return sum(
                c * monomial_value(arr, sub, pt) for c, sub in zip(coeffs, mons)
            )

        got = expand_top_form(arr, lattice, evaluator, seed=3, space=space)
        want = space.representative(space.normal_form(enumerate(coeffs)))
        assert list(got) == list(want), arr.dimension


def test_expand_top_form_rejects_non_logarithmic():
    arr = two_points()
    lattice = intersection_lattice(arr)
    with pytest.raises(NotInSpan):
        expand_top_form(arr, lattice, lambda pt: F(1), seed=2)
