"""Seeded request generators for the benchmark workloads.

Traffic comes in rounds.  A round is a fixed mix of requests (which
commands, which weight shapes), so runs of any length and any seed see
the same mix; the seed only chooses the values inside it: marked points,
kappa, levels, loop pairs and sampling seeds.  A ``kz-monodromy`` round
is a single request, because one takes seconds, and its kappa alternates
between rounds.  Round ``i`` of seed ``s`` is generated from its own
string-seeded generator, so it is the same list whatever other rounds
are drawn and in whatever process.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

# sl2 highest weights with an invariant in their tensor product and two
# integration variables (sum of weights 4).  Three marked weights of sum
# 6 already take minutes per request on the unmodified code.
SHAPES = ((1, 1, 1, 1), (2, 1, 1), (2, 2))

POINT_NUMERATOR = 40
POINT_DENOMINATOR = 12
KZ_PRECISION = 128
KZ_LOOP_POINTS = (2, 3, 4)
KZ_ORACLE_KAPPA = "3/1"


@dataclass(frozen=True)
class Request:
    """One call of ``aomoto_lab.cli.run``; ``label`` names its class in the mix."""

    command: str
    config: dict
    label: str


def _rat(value):
    return f"{value.numerator}/{value.denominator}"


def _points(rng, count):
    seen = set()
    while len(seen) < count:
        seen.add(Fraction(rng.randint(-POINT_NUMERATOR, POINT_NUMERATOR),
                          rng.randint(1, POINT_DENOMINATOR)))
    points = sorted(seen)
    rng.shuffle(points)
    return [_rat(p) for p in points]


def _kappa(rng, max_num, max_den, min_abs=Fraction(0)):
    while True:
        den = rng.randint(1, max_den)
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, max_num * den), den)
        if abs(value) >= min_abs:
            return _rat(value)


def _shape_label(command, weights, extra=""):
    return f"{command}{extra}[{','.join(map(str, weights))}]"


def _exact_egregium(rng, _index):
    for weights in SHAPES:
        points = _points(rng, len(weights))
        kappa = _kappa(rng, 12, 6)
        top = max(weights)
        levels = sorted(rng.sample(range(top, top + 5), 2))
        sample_seed = rng.randrange(2**31)
        base = {"weights": list(weights), "points": points}
        yield Request("invariants", {**base, "levels": levels},
                      _shape_label("invariants", weights))
        yield Request("verify-forms", {**base, "kappa": kappa, "seed": sample_seed},
                      _shape_label("verify-forms", weights))
        yield Request("egregium", {**base, "kappa": kappa, "seed": sample_seed},
                      _shape_label("egregium", weights))


def _symbolic_cohomology(rng, _index):
    for weights in SHAPES:
        base = {"weights": list(weights), "points": _points(rng, len(weights))}
        yield Request("aomoto", dict(base), _shape_label("aomoto", weights))
        for chi in (False, True):
            yield Request("image", {**base, "chi": chi},
                          _shape_label("image", weights, "-chi" if chi else ""))


def _kz_monodromy(rng, index):
    # Even rounds run at kappa = 3, where the commutator is unipotent and
    # the closed-form sections are flat; odd rounds at a seeded kappa.
    # All run at KZ_PRECISION: a 256-bit request takes about 22 s, so a
    # run would hold too few requests for a steady median.
    if index % 2 == 0:
        kappa, label = KZ_ORACLE_KAPPA, "kz-kappa3"
    else:
        kappa, label = _kappa(rng, 8, 3, min_abs=Fraction(1)), "kz-seeded"
    config = {
        "kappa": kappa,
        "loop": sorted(rng.sample(KZ_LOOP_POINTS, 2)),
        "precision_bits": KZ_PRECISION,
        "seed": rng.randrange(1000),
    }
    yield Request("kz", config, label)


WORKLOADS = {
    "exact-egregium": _exact_egregium,
    "symbolic-cohomology": _symbolic_cohomology,
    "kz-monodromy": _kz_monodromy,
}


def make_round(workload, seed, index):
    """The requests of round ``index`` of a workload under ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return list(WORKLOADS[workload](rng, index))


def warmup_requests(workload, seed):
    """Untimed requests that load lazily built state before timing starts.

    The exact workloads send their round restricted to the smallest
    shape; the kz workload sends nothing, because its requests do not
    get faster after the first.
    """
    if workload == "kz-monodromy":
        return []
    smallest = _shape_label("", SHAPES[-1])
    return [r for r in make_round(workload, seed, "warmup")
            if r.label.endswith(smallest)]
