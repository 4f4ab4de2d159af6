"""Connection coefficients, parallel transport, monodromy, flat sections."""

import random
from fractions import Fraction
from itertools import permutations

import mpmath
import pytest
import sympy

from aomoto_lab.errors import (
    BranchCut,
    DuplicatePoints,
    PrecisionLoss,
    StepUnderflow,
    ZeroKappa,
)
from aomoto_lab import cli, kz, linalg
from aomoto_lab.kz import (
    ContourPath,
    KzSystem,
    casimir_matrices,
    eigenvalues_2x2,
    flat_section_residual,
    hyp2f1,
    pochhammer_monodromy,
    simple_loop_monodromy,
    transport,
)
from oracles import diagonalizability_report, loop_channels

F = Fraction

POINTS = (F(-1, 2), F(0), F(1, 2), F(1))

OMEGA_EXPECTED = {
    (0, 1): [[F(1, 2), F(-1)], [F(0), F(-3, 2)]],
    (0, 2): [[F(-3, 2), F(0)], [F(-1), F(1, 2)]],
    (0, 3): [[F(-1, 2), F(1)], [F(1), F(-1, 2)]],
    (1, 2): [[F(-1, 2), F(1)], [F(1), F(-1, 2)]],
    (1, 3): [[F(-3, 2), F(0)], [F(-1), F(1, 2)]],
    (2, 3): [[F(1, 2), F(-1)], [F(0), F(-3, 2)]],
}


def _dist(a, b):
    return max(
        abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def _identity_dist(mat):
    d = len(mat)
    return max(
        abs(mat[r][c] - (1 if r == c else 0)) for r in range(d) for c in range(d)
    )


def test_casimir_matrices_four_doublets():
    got = casimir_matrices()
    assert got == OMEGA_EXPECTED


def test_casimir_matrices_are_fresh_copies():
    got = casimir_matrices()
    got[(0, 1)][0][0] = F(99)
    got[(0, 2)].append([F(0), F(0)])
    del got[(2, 3)]
    assert casimir_matrices() == OMEGA_EXPECTED
    assert casimir_matrices([1, 1, 1, 1]) == OMEGA_EXPECTED


def test_casimir_sum_is_minus_total_quadratic():
    # the full Casimir acts by zero on coinvariants, so the pair operators
    # sum to minus half the sum of the one-site Casimir eigenvalues
    got = casimir_matrices()
    total = [[sum(got[k][r][c] for k in got) for c in range(2)] for r in range(2)]
    assert total == [[F(-3), F(0)], [F(0), F(-3)]]
    pair = casimir_matrices((1, 1))
    assert pair == {(0, 1): [[F(-3, 2)]]}


def test_kz_system_guards():
    with pytest.raises(ZeroKappa):
        KzSystem(POINTS, 0)
    with pytest.raises(DuplicatePoints):
        KzSystem((0, 0, 1, 2), 3)
    # distinct exact points are distinct even where their floats coincide
    KzSystem((F(0), F(1, 10**400), F(1), F(2)), 3)
    # one weight per point, four doublets by default
    with pytest.raises(ValueError):
        KzSystem((0, 1, 2, 3, 4), 3)
    assert KzSystem((0, 1, 2, 3, 4, 5), 3, weights=(1,) * 6).d == 5
    sys = KzSystem(POINTS, 3)
    with pytest.raises(ValueError):
        sys.omega(2, 2)
    assert sys.omega(3, 1) == OMEGA_EXPECTED[(1, 3)]


def test_connection_at_matches_rational_arithmetic():
    sys = KzSystem(POINTS, 3)
    with mpmath.workprec(sys.precision_bits):
        z = [kz._to_mpc(p) for p in POINTS]
        got = kz._connection_at(kz._mpc_omegas(sys), z, 0,
                                1 / kz._to_mpc(sys.kappa))
    expected = [[F(0), F(0)], [F(0), F(0)]]
    for k in range(1, 4):
        dz = POINTS[0] - POINTS[k]
        om = OMEGA_EXPECTED[(0, k)]
        for r in range(2):
            for c in range(2):
                expected[r][c] += F(1, 3) * om[r][c] / dz
    with mpmath.workprec(300):
        for r in range(2):
            for c in range(2):
                ref = mpmath.mpf(expected[r][c].numerator) / mpmath.mpf(
                    expected[r][c].denominator
                )
                assert abs(got[r][c] - ref) < mpmath.mpf("1e-25")


@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (2, 1, 1, 2), (2, 2, 2, 2)],
                         ids=["1111", "2112", "2222"])
def test_casimir_matrices_satisfy_the_infinitesimal_braid_relations(weights):
    # [Omega_ij, Omega_ik + Omega_jk] = 0 and [Omega_ij, Omega_kl] = 0 for
    # distinct i, j, k, l: the connection is flat at every kappa (Kohno,
    # Ann. Inst. Fourier 37, 1987)
    matrices = casimir_matrices(weights)

    def om(i, j):
        return matrices[(min(i, j), max(i, j))]

    def commutes(a, b):
        return linalg.matmul(a, b) == linalg.matmul(b, a)

    # the relations do not hold because all the Omegas commute
    assert not commutes(om(0, 1), om(0, 2))
    for i, j, k in permutations(range(len(weights)), 3):
        total = [[u + v for u, v in zip(ru, rv)]
                 for ru, rv in zip(om(i, k), om(j, k))]
        assert commutes(om(i, j), total), (i, j, k)
    for i, j, k, l in permutations(range(len(weights)), 4):
        assert commutes(om(i, j), om(k, l)), (i, j, k, l)


def is_loop(path):
    return abs(path.waypoints[0] - path.waypoints[-1]) < 1e-12


def test_contour_path_basics():
    path = ContourPath([0, 0, 1 + 1j, 1 + 1j, 2])
    assert path.waypoints == [0, (1 + 1j), 2]
    assert not is_loop(path)
    assert path.reversed().waypoints == [2, (1 + 1j), 0]
    circle = ContourPath.circle(0, 0.25)
    assert is_loop(circle)
    assert len(circle.waypoints) >= 19
    assert 0.24 < circle.min_distance([0]) <= 0.2501
    loop = ContourPath.loop_around(-0.5, 0.0)
    assert is_loop(loop)
    with pytest.raises(ValueError):
        ContourPath([0, 1]).concat(ContourPath([5, 6]))
    joined = ContourPath([0, 1]).concat(ContourPath([1, 2]))
    assert joined.waypoints == [0, 1, 2]


def test_transport_trivial_and_reversible():
    sys = KzSystem(POINTS, 3, precision_bits=96)
    single = transport(sys, ContourPath([-0.5]))
    assert _identity_dist(single) == 0
    path = ContourPath([-0.5, -0.5 - 0.6j, 0.3 - 0.6j])
    forward = transport(sys, path)
    back = transport(sys, path.reversed())
    prod = [
        [sum(back[r][i] * forward[i][c] for i in range(2)) for c in range(2)]
        for r in range(2)
    ]
    assert _identity_dist(prod) < mpmath.mpf("1e-12")
    contractible = transport(sys, ContourPath.circle(-0.5, 0.2))
    assert _identity_dist(contractible) < mpmath.mpf("1e-12")


def test_transport_keep_out():
    sys = KzSystem(POINTS, 3, precision_bits=96)
    with pytest.raises(StepUnderflow):
        transport(sys, ContourPath([-0.5, 0.5]))


def test_simple_loop_determinant_residue():
    # det of the transport around one puncture is exp(-2 pi i tr(Omega) / kappa)
    sys = KzSystem(POINTS, 3, precision_bits=96)
    mono = simple_loop_monodromy(sys, 1)
    det = mono[0][0] * mono[1][1] - mono[0][1] * mono[1][0]
    expected = mpmath.exp(2j * mpmath.pi / 3)  # tr Omega_12 = -1, kappa = 3
    assert abs(det - expected) < mpmath.mpf("1e-12")


@pytest.mark.parametrize("kappa", [F(3), F(4), F(5, 2), F(-7, 3)])
def test_simple_loop_trace_and_det_at_every_kappa(kappa):
    # the counterclockwise loop of z_1 around z_j is conjugate to
    # exp(-2 pi i Omega_1j / kappa), and Omega_1j has the eigenvalues 1/2
    # and -3/2 on coinvariants; the three loops share one system, so the
    # later ones take their legs out of the base from the segment memo
    bits = 64
    sys = KzSystem(POINTS, kappa, precision_bits=bits)
    with mpmath.workprec(bits + 64):
        k = mpmath.mpf(kappa.numerator) / kappa.denominator
        trace = mpmath.exp(-1j * mpmath.pi / k) + mpmath.exp(3j * mpmath.pi / k)
        det = mpmath.exp(2j * mpmath.pi / k)
    tol = mpmath.mpf(2) ** -(bits // 2)
    for j in (1, 2, 3):
        (a, b), (c, d) = sys.omega(0, j)
        assert (a + d, a * d - b * c) == (F(1, 2) - F(3, 2), F(1, 2) * F(-3, 2))
        mono = simple_loop_monodromy(sys, j)
        with mpmath.workprec(bits + 64):
            got_trace = mono[0][0] + mono[1][1]
            got_det = mono[0][0] * mono[1][1] - mono[0][1] * mono[1][0]
            assert abs(got_trace - trace) < tol, j
            assert abs(got_det - det) < tol, j


# An oracle that does not use the transport: the spectra of loops around
# one or two punctures from Clebsch-Gordan channels (tests/oracles.py).
# At kappa +-1 and +-2 the exponents of four doublets differ by an
# integer, and the Frobenius circles have divisors that vanish.

ORACLE_KAPPAS = [F(3), F(4), F(5, 2), F(-7, 3), F(1), F(2), F(-1), F(-2)]
LOOP_PAIRS = [(1, 2), (1, 3), (2, 3)]


def _mpf(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _channel_power_trace(channels, kappa, power):
    """sum of mult * exp(-2 pi i power lambda / kappa) over the channels."""
    return sum(mult * mpmath.expjpi(-2 * power * _mpf(lam / kappa))
               for lam, mult in channels)


def _trace(mat):
    return sum(mat[i][i] for i in range(len(mat)))


@pytest.mark.parametrize("weights, kappa, bits", [
    *(((1, 1, 1, 1), kappa, 128) for kappa in ORACLE_KAPPAS[:6]),
    ((2, 1, 1, 2), F(-7, 3), 64), ((2, 2, 2, 2), F(5, 2), 64),
    ((2, 2, 2, 2), F(2), 64),
    # after the others, whose ids stay those they had before -1 and -2
    *(((1, 1, 1, 1), kappa, 128) for kappa in ORACLE_KAPPAS[6:]),
    # integer exponent gaps of d = 3
    ((2, 1, 1, 2), F(1), 64),
])
def test_pair_loops_match_the_clebsch_gordan_channels(weights, kappa, bits):
    # T_q T_p is a loop of z_1 around {z_p, z_q}, conjugate to
    # exp(-2 pi i (Omega_1p + Omega_1q) / kappa): its power traces
    # tr (T_q T_p)^k, k = 1..d, are the channel sums
    sys = KzSystem(POINTS, kappa, weights=weights, precision_bits=bits)
    loops = {j: simple_loop_monodromy(sys, j) for j in (1, 2, 3)}
    with mpmath.workprec(bits + 64):
        bound = mpmath.mpf(2) ** -(bits // 2 - 6)
        for p, q in LOOP_PAIRS:
            channels = loop_channels(weights, (p, q))
            assert sum(mult for _, mult in channels) == sys.d
            pair = kz._mat_mul(loops[q], loops[p])
            power = pair
            for k in range(1, sys.d + 1):
                expected = _channel_power_trace(channels, kappa, k)
                assert abs(_trace(power) - expected) < bound, (p, q, k)
                power = kz._mat_mul(pair, power)


def _fricke_trace(kappa, p, q):
    """tr of the commutator of the loops around p and q, from the channels.

    For 2x2 A and B of determinant 1, tr[A, B] = x^2 + y^2 + z^2 - xyz - 2
    with x = tr A, y = tr B, z = tr AB (Goldman, Handbook of Teichmueller
    Theory II, 2009); the channels give the traces and determinants of
    T_p, T_q and T_q T_p, and a commutator is unchanged by scaling.
    """
    def normalized_trace(cluster, root):
        channels = loop_channels((1, 1, 1, 1), cluster)
        return _channel_power_trace(channels, kappa, 1) / root

    # a square root of each loop's determinant exp(-2 pi i tr / kappa)
    roots = [mpmath.expjpi(-_mpf(sum(
        lam * mult for lam, mult in loop_channels((1, 1, 1, 1), (j,))
    ) / kappa)) for j in (p, q)]
    x = normalized_trace((p,), roots[0])
    y = normalized_trace((q,), roots[1])
    z = normalized_trace((p, q), roots[0] * roots[1])
    return x * x + y * y + z * z - x * y * z - 2


@pytest.mark.parametrize("kappa", ORACLE_KAPPAS)
def test_commutator_trace_matches_the_fricke_identity(kappa):
    bits = 128
    sys = KzSystem(POINTS, kappa, precision_bits=bits)
    with mpmath.workprec(bits + 64):
        bound = mpmath.mpf(2) ** -(bits // 2 - 6)
        for p, q in LOOP_PAIRS:
            mono = pochhammer_monodromy(sys, p, q)
            assert abs(_trace(mono) - _fricke_trace(kappa, p, q)) < bound, \
                (p, q)


@pytest.mark.parametrize("kappa, must_refuse", [
    (F(1, 2), False), (F(1, 5), False), (F(1, 10), False), (F(1, 20), True),
    (F(1, 50), True),
])
def test_small_kappa_is_refused_or_within_the_report_bound(kappa, must_refuse):
    # the way out grows more ill-conditioned as kappa shrinks, so the
    # conjugation by it can carry the transport's error far past tol; a
    # loop [2, 4] commutator is refused, or its trace is within the bound
    # a kz report gives it, twice its entries' 2^-(bits / 2) N
    bits = 128
    sys = KzSystem(POINTS, kappa, precision_bits=bits)
    try:
        mono = pochhammer_monodromy(sys, 1, 3)
    except PrecisionLoss as err:
        assert "can grow the transport's error" in str(err)
        return
    assert not must_refuse
    with mpmath.workprec(bits + 64):
        norm = max(mpmath.mpf(1), kz._mat_norm(mono))
        bound = 2 * mpmath.mpf(2) ** -(bits // 2) * norm
        assert abs(_trace(mono) - _fricke_trace(kappa, 1, 3)) < bound


def test_loop_error_growth_allows_the_report_guard_digits():
    # the refusal threshold is the factor by which a report's digits sit
    # above its error bound
    assert kz.MAX_LOOP_ERROR_GROWTH == 10**cli.KZ_GUARD_DIGITS


# A loop's circle comes from the Frobenius series at the puncture; the
# Taylor steps of transport around the circle's chord polygon check it.


def _chord_circle(sys, around, entry, tol):
    """Transport around the chord polygon of the radius-0.15 circle about a
    puncture, from entry back to entry: the polygon's own first and last
    vertices differ from entry by a rounding of the cosine."""
    chords = ContourPath.circle(complex(sys.points[around]), 0.15).waypoints
    return transport(sys, ContourPath([entry, *chords[1:-1], entry]), tol=tol)


@pytest.mark.parametrize("bits, tol_bits", [(64, 32), (128, 64), (256, 128),
                                            (1024, 900)])
def test_frobenius_circle_agrees_with_the_taylor_circle(bits, tol_bits,
                                                         monkeypatch):
    sys = KzSystem(POINTS, F(-7, 3), precision_bits=bits)
    with mpmath.workprec(bits + 64):
        tol = mpmath.mpf(2) ** -tol_bits
    for around in ((1, 2, 3) if bits < 1024 else (2,)):
        entry = complex(POINTS[around]) - 0.15j
        frobenius = kz._frobenius_circle(sys, around, entry, tol)
        taylor = _chord_circle(sys, around, entry, tol)
        with mpmath.workprec(bits + 64):
            assert _dist(frobenius, taylor) < tol, around
    if bits == 1024:
        # at |w| / rho = 0.3 the series takes about 520 terms to fall
        # below 2^-900, more than MAX_SERIES_TERMS: the cap scales
        monkeypatch.setattr(kz, "_term_cap", lambda bits: kz.MAX_SERIES_TERMS)
        with pytest.raises(PrecisionLoss, match="term cap"):
            kz._frobenius_circle(sys, 2, entry, tol)


def _log_part(sys, around):
    """The log part C~ of the Frobenius series of the circle about around."""
    logs = []
    series_sum = kz._series_sum

    def recorded(*args):
        logs.append(args[-1])
        return series_sum(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kz, "_series_sum", recorded)
        kz._frobenius_circle(sys, around, complex(sys.points[around]) - 0.15j,
                             None)
    return logs[0]


@pytest.mark.parametrize("weights, kappa, bits", [
    *(((1, 1, 1, 1), kappa, 128)
      for kappa in (F(1), F(-1), F(2), F(-2), F(32, 17), F(3))),
    *(((2, 2, 2, 2), kappa, 64) for kappa in (F(2), F(1), F(4, 3))),
    ((2, 1, 1, 2), F(1), 64), ((2, 1, 1, 2), F(2), 64),
    # 2 / kappa lies 2^-150 from 1: a divisor 2^-150 from 0
    ((1, 1, 1, 1), 2 / (1 + F(1, 2**150)), 64),
])
def test_resonant_frobenius_circle_agrees_with_the_taylor_circle(
        weights, kappa, bits):
    # exponent gaps that are integers, or near one, where the series has
    # a log part or terms of size 1 / delta
    sys = KzSystem(POINTS, kappa, weights=weights, precision_bits=bits)
    tol = kz._tolerance(sys, None)
    for around in (1, 2, 3):
        entry = complex(POINTS[around]) - 0.15j
        frobenius = kz._frobenius_circle(sys, around, entry, None)
        taylor = _chord_circle(sys, around, entry, None)
        with mpmath.workprec(bits + 64):
            assert _dist(frobenius, taylor) < tol, around


@pytest.mark.parametrize("weights, kappa, has_log", [
    ((1, 1, 1, 1), F(2), True), ((1, 1, 1, 1), F(-2), True),
    ((2, 2, 2, 2), F(2), True), ((2, 2, 2, 2), F(4, 3), True),
    ((2, 1, 1, 2), F(2), True),
    ((1, 1, 1, 1), F(1), False), ((1, 1, 1, 1), F(-1), False),
])
def test_resonant_circles_have_a_log_part(weights, kappa, has_log):
    # the log part C~ of some circle, found where a divisor vanishes, is
    # far from 0 in the resonant cases above, and 0 up to rounding where
    # its exact value is 0
    sys = KzSystem(POINTS, kappa, weights=weights, precision_bits=64)
    with mpmath.workprec(128):
        largest = max(abs(mpmath.mp.make_mpc(kz._to_libmp(x)))
                      for around in (1, 2, 3) for x in _log_part(sys, around))
    assert (largest > 1e-3) if has_log else (largest < 1e-30)


def _record_taylor_steps(monkeypatch):
    """A list that collects the arguments of every _taylor_step call."""
    steps = []
    taylor_step = kz._taylor_step

    def counted(*args):
        steps.append(args)
        return taylor_step(*args)

    monkeypatch.setattr(kz, "_taylor_step", counted)
    return steps


def _circle_steps(points, kappa, around, monkeypatch, fresh, bits=64):
    """Taylor steps a loop makes beyond those of its way out, each on a
    system that fresh builds with the segment memo emptied."""
    steps = _record_taylor_steps(monkeypatch)
    simple_loop_monodromy(fresh(points, kappa, precision_bits=bits), around)
    loop_steps = len(steps)
    steps.clear()
    way_out = ContourPath.way_out(complex(points[0]), complex(points[around]))
    transport(fresh(points, kappa, precision_bits=bits), way_out)
    return loop_steps - len(steps)


@pytest.mark.parametrize("kappa", [F(1), F(-1), F(2), F(-2), F(5, 2)])
def test_resonant_kappa_takes_the_frobenius_circle(kappa, monkeypatch,
                                                   fresh_kz_system):
    # the eigenvalues 1/(2 kappa) and -3/(2 kappa) of the residue differ
    # by 2 / kappa, an integer but at kappa = 5/2; no circle is left to
    # the Taylor steps
    assert _circle_steps(POINTS, kappa, 2, monkeypatch, fresh_kz_system) == 0


def test_wide_circle_is_entered_closer_to_its_puncture(monkeypatch,
                                                       fresh_kz_system):
    # the circle about 0 has radius 0.15 and a neighbour at 1/5, so the
    # way out ends at STEP_RATIO / 5 from 0; the loop is homotopic to the
    # chord polygon of radius 0.15.  The one about 1 has its neighbour at
    # 4/5 and keeps radius 0.15.
    points = (F(-1, 2), F(0), F(1, 5), F(1))
    bits = 64
    entries = []
    frobenius_circle = kz._frobenius_circle

    def recorded(sys, around, entry, tol):
        entries.append(entry)
        return frobenius_circle(sys, around, entry, tol)

    monkeypatch.setattr(kz, "_frobenius_circle", recorded)
    sys = KzSystem(points, F(3), precision_bits=bits)
    got = simple_loop_monodromy(sys, 1)
    assert abs(entries[0] + 1j * kz.STEP_RATIO / 5) < 1e-15
    expected = transport(sys, kz.simple_loop(sys, 1))
    with mpmath.workprec(bits + 64):
        norm = max(mpmath.mpf(1), kz._mat_norm(expected))
        assert _dist(got, expected) < mpmath.mpf(2) ** -(bits // 2) * norm
    assert _circle_steps(points, F(3), 3, monkeypatch, fresh_kz_system) == 0


def test_non_resonant_commutator_makes_few_taylor_steps(monkeypatch,
                                                        fresh_kz_system):
    # the way out of the base, shared, and the two legs below the
    # punctures: no circle and no way back is integrated by Taylor steps,
    # at resonant kappa too
    steps = _record_taylor_steps(monkeypatch)
    for kappa in ORACLE_KAPPAS:
        for p, q in LOOP_PAIRS:
            steps.clear()
            pochhammer_monodromy(
                fresh_kz_system(POINTS, kappa, precision_bits=128), p, q)
            assert len(steps) <= 20, (kappa, p, q)


@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (2, 1, 1, 2), (2, 2, 2, 2),
                                     (1,) * 6],
                         ids=["1111", "2112", "2222", "111111"])
def test_casimir_residues_have_a_rational_eigenbasis(weights):
    # every residue -Omega_1p / kappa diagonalizes over Q, with the
    # eigenvalues -lambda / kappa of the Clebsch-Gordan channels of the
    # pair, in ascending order
    matrices = casimir_matrices(weights)
    for p in range(1, len(weights)):
        omega = matrices[(0, p)]
        channels = loop_channels(weights, (p,))
        for kappa in (F(3), F(-7, 3)):
            values, basis = kz._rational_eigenbasis(omega, kappa)
            assert values == sorted(values)
            assert sorted(values) == sorted(
                -lam / kappa for lam, mult in channels for _ in range(mult))
            residue = [[-x / kappa for x in row] for row in omega]
            diag = [[values[r] if r == c else 0 for c in range(len(values))]
                    for r in range(len(values))]
            assert linalg.matmul(residue, basis) == linalg.matmul(basis, diag)
            assert linalg.rank(basis) == len(omega)


# The Taylor step on mpc objects.  The kernel must reproduce every rounded
# value of _ref_taylor_step, the partial-fraction recurrence it runs; the
# polynomial recurrence of _poly_taylor_step, which the transport ran
# before, checks it independently to within the tolerance.


def _ref_mat_mul(a, b):
    return [
        [sum((a[r][i] * b[i][c] for i in range(len(b))), mpmath.mpc(0))
         for c in range(len(b[0]))]
        for r in range(len(a))
    ]


def _ref_mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _ref_mat_scale(a, s):
    return [[s * x for x in row] for row in a]


def _ref_identity(d):
    return [[mpmath.mpc(1 if r == c else 0) for c in range(d)] for r in range(d)]


def _ref_zero(d):
    return [[mpmath.mpc(0) for _ in range(d)] for _ in range(d)]


def _ref_taylor_step(pos, h, punctures, omegas, minus_inv_kappa, d, tol):
    # W_k = (T_n - W_k) h / s_k and T_(n+1) = sum_k M_k W_k / (n + 1), with
    # M_k = -Omega_k / kappa and s_k the offset from puncture k
    m = [_ref_mat_scale(omega, minus_inv_kappa) for omega in omegas]
    ratios = [h / (pos - p) for p in punctures]
    partial = [_ref_zero(d) for _ in punctures]
    term = value = _ref_identity(d)
    quiet = 0
    for n in range(kz.MAX_SERIES_TERMS):
        partial = [[[(t - w) * g for t, w in zip(t_row, w_row)]
                    for t_row, w_row in zip(term, part)]
                   for part, g in zip(partial, ratios)]
        term = [[sum((m_k[r][i] * w[i][c]
                      for m_k, w in zip(m, partial) for i in range(d)),
                     mpmath.mpc(0)) * (mpmath.mpf(1) / (n + 1))
                 for c in range(d)] for r in range(d)]
        value = _ref_mat_add(value, term)
        if max(abs(x) for row in term for x in row) < tol / 4:
            quiet += 1
            if quiet >= 3:
                return value
        else:
            quiet = 0
    raise AssertionError("reference Taylor step did not converge")


def _ref_poly_from_roots(shifts):
    coeffs = [mpmath.mpc(1)]
    for s in shifts:
        nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * s
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def _poly_taylor_step(pos, h, punctures, omegas, minus_inv_kappa, d, tol,
                      cap):
    # the ODE multiplied through by q(w) = prod_k (w + s_k):
    # (s + 1) q_0 U_(s+1) = sum_i C_i U_(s-i)
    #                       - sum_(i>=1) (s + 1 - i) q_i U_(s+1-i)
    shifts = [pos - p for p in punctures]
    q = _ref_poly_from_roots(shifts)
    c_coeffs = [_ref_zero(d) for _ in range(len(punctures))]
    for k, omega in enumerate(omegas):
        partial = _ref_poly_from_roots(shifts[:k] + shifts[k + 1:])
        for i, coeff in enumerate(partial):
            c_coeffs[i] = _ref_mat_add(
                c_coeffs[i], _ref_mat_scale(omega, coeff * minus_inv_kappa)
            )
    terms = [_ref_identity(d)]
    value = _ref_identity(d)
    h_power = mpmath.mpc(1)
    quiet = 0
    for s in range(cap):
        acc = _ref_zero(d)
        for i, c_i in enumerate(c_coeffs):
            if i <= s:
                acc = _ref_mat_add(acc, _ref_mat_mul(c_i, terms[s - i]))
        for i in range(1, len(q)):
            if 0 <= s - i + 1 <= s:
                acc = _ref_mat_add(
                    acc, _ref_mat_scale(terms[s - i + 1], -q[i] * (s - i + 1))
                )
        nxt = _ref_mat_scale(acc, 1 / (q[0] * (s + 1)))
        terms.append(nxt)
        h_power *= h
        contribution = _ref_mat_scale(nxt, h_power)
        value = _ref_mat_add(value, contribution)
        if max(abs(x) for row in contribution for x in row) < tol / 4:
            quiet += 1
            if quiet >= 3:
                return value
        else:
            quiet = 0
    raise AssertionError("polynomial Taylor step did not converge")


def _random_steps(bits):
    """Ten seeded (pos, h, punctures, omegas, minus_inv_kappa) at bits + 64."""
    rng = random.Random(bits)
    sys = KzSystem(POINTS, 3, precision_bits=bits)
    steps = []
    for _ in range(10):
        kappa = F(rng.choice((-1, 1)) * rng.randint(1, 24), rng.randint(1, 3))
        moving = rng.randrange(4)
        with mpmath.workprec(bits + 64):
            punctures = [
                mpmath.mpc(mpmath.mpf(p.numerator) / p.denominator)
                for k, p in enumerate(POINTS) if k != moving
            ]
            omegas = [
                [[mpmath.mpc(mpmath.mpf(x.numerator) / x.denominator)
                  for x in row] for row in sys.omega(moving, k)]
                for k in range(4) if k != moving
            ]
            while True:
                pos = mpmath.mpc(rng.uniform(-1, 1.5), rng.uniform(-0.8, 0.8))
                rho = min(abs(pos - p) for p in punctures)
                if rho > 0.05:
                    break
            angle = mpmath.mpf(rng.uniform(0, 6.283))
            h = kz.STEP_RATIO * rho * rng.uniform(0.2, 1) * mpmath.expj(angle)
            minus_inv_kappa = mpmath.mpc(-1) / (
                mpmath.mpf(kappa.numerator) / kappa.denominator
            )
        steps.append((pos, h, punctures, omegas, minus_inv_kappa))
    return steps


def _kernel_step(pos, h, punctures, omegas, minus_inv_kappa, tol, bits):
    """kz._taylor_step on the kernel values of mpc arguments, as mpc."""
    with mpmath.workprec(bits + 64):
        got = kz._taylor_step(
            [kz._from_libmp((pos - p)._mpc_) for p in punctures],
            kz._from_libmp(h._mpc_),
            [[[kz._from_libmp(x._mpc_) for x in row] for row in om]
             for om in omegas],
            kz._from_libmp(minus_inv_kappa._mpc_), (tol / 4)._mpf_,
            kz._term_cap(bits), mpmath.mp.prec,
        )
    return [[mpmath.mp.make_mpc(kz._to_libmp(x)) for x in row] for row in got]


@pytest.mark.parametrize("bits", [128, 256])
def test_taylor_step_is_bit_identical_to_the_object_recurrence(bits):
    tol = mpmath.mpf(2) ** (-(bits // 2))
    for trial, step in enumerate(_random_steps(bits)):
        with mpmath.workprec(bits + 64):
            expected = _ref_taylor_step(*step, 2, tol)
        # the step takes and returns kernel values
        got = _kernel_step(*step, tol, bits)
        assert [[x._mpc_ for x in row] for row in got] == \
            [[x._mpc_ for x in row] for row in expected], trial


@pytest.mark.parametrize("bits, tol_bits", [(128, 64), (256, 128),
                                            (1024, 900)])
def test_taylor_step_agrees_with_the_polynomial_recurrence(bits, tol_bits):
    with mpmath.workprec(bits + 64):
        tol = mpmath.mpf(2) ** -tol_bits
    if bits < 1024:
        steps = _random_steps(bits)
    else:
        # a full step, 0.38 of the way to the nearest puncture, needs
        # about 650 terms to fall below 2^-900
        with mpmath.workprec(bits + 64):
            punctures = [_ref_mpc(p) for p in POINTS[1:]]
            pos = mpmath.mpc(-0.5, -0.6)
            h = mpmath.mpc(kz.STEP_RATIO * abs(pos - punctures[0]))
            omegas = [[[_ref_mpc(x) for x in row]
                       for row in OMEGA_EXPECTED[(0, k)]] for k in (1, 2, 3)]
            steps = [(pos, h, punctures, omegas, _ref_mpc(F(-1, 3)))]
    for trial, step in enumerate(steps):
        with mpmath.workprec(bits + 64):
            expected = _poly_taylor_step(*step, 2, tol, kz._term_cap(bits))
        got = _kernel_step(*step, tol, bits)
        with mpmath.workprec(bits + 64):
            assert _dist(got, expected) < tol, trial


def _ref_mpc(x):
    if isinstance(x, Fraction):
        return mpmath.mpc(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator))
    return mpmath.mpc(complex(x).real, complex(x).imag)


def _ref_transport(sys, path, moving=0):
    punctures = [_ref_mpc(sys.points[k]) for k in range(sys.n) if k != moving]
    omegas = [[[_ref_mpc(x) for x in row] for row in sys.omega(moving, k)]
              for k in range(sys.n) if k != moving]
    with mpmath.workprec(sys.precision_bits + 64):
        tol = mpmath.mpf(2) ** (-(sys.precision_bits // 2))
        minus_inv_kappa = _ref_mpc(Fraction(-1, 1) / sys.kappa)
        total = _ref_identity(sys.d)
        for a, b in path.segments():
            pos, b = _ref_mpc(a), _ref_mpc(b)
            result = _ref_identity(sys.d)
            while abs(b - pos) != 0:
                remaining = b - pos
                hmax = kz.STEP_RATIO * min(abs(pos - p) for p in punctures)
                if abs(remaining) <= hmax:
                    h = remaining
                else:
                    h = remaining / abs(remaining) * hmax
                step = _ref_taylor_step(pos, h, punctures, omegas,
                                        minus_inv_kappa, sys.d, tol)
                result = _ref_mat_mul(step, result)
                pos = b if abs(remaining) <= hmax else pos + h
            total = _ref_mat_mul(result, total)
        return total


@pytest.mark.parametrize("kappa", [F(3), F(-7, 3)])
def test_transport_is_bit_identical_to_the_object_recurrence(kappa):
    # single steps agree bit for bit above; a whole loop also checks the
    # step products, and a rounding change in the higher Taylor terms
    # that one step's value absorbs shows here
    sys = KzSystem(POINTS, kappa, precision_bits=128)
    loop = kz.simple_loop(sys, 1)
    expected = _ref_transport(sys, loop)
    got = transport(sys, loop)
    assert [[x._mpc_ for x in row] for row in got] == \
        [[x._mpc_ for x in row] for row in expected]


# A Frobenius circle and a hyp2f1 step sum the Taylor step's recurrence
# with other data and divisors.  Each must reproduce every rounded value
# of _ref_series, the same recurrence on mpc objects; _poly_hyp_step, the
# polynomial recurrence that hyp2f1 ran before, checks the hyp2f1 step
# independently to within the tolerance, as _poly_taylor_step checks the
# Taylor step.


def _ref_series(h, shifts, m, exponents, tol, cap, log=None):
    """The terms T_1, T_2, ... of kz._series_terms, on mpc objects.

    m holds the M_k as mpc matrices; each 1 / (n + 1 + r_c - r_r) is
    rounded once from its exact value.  Where that divisor is 0, the
    entry of the log part C~ goes into log, a matrix.
    """
    d = len(exponents)
    ratios = [h / s for s in shifts]
    partial = [_ref_zero(d) for _ in shifts]
    terms = [_ref_identity(d)]
    quiet = 0
    for n in range(cap):
        partial = [[[(t - w) * g for t, w in zip(t_row, w_row)]
                    for t_row, w_row in zip(terms[n], part)]
                   for part, g in zip(partial, ratios)]
        term = []
        for r in range(d):
            row = []
            for c in range(d):
                acc = sum((m_k[r][i] * w[i][c]
                           for m_k, w in zip(m, partial) for i in range(d)),
                          mpmath.mpc(0))
                # the log terms T_(n+1-o) C~ of the orders o found so far
                for i in range(d):
                    order = exponents[i] - F(exponents[c])
                    if order.denominator == 1 and 1 <= order <= n:
                        acc -= terms[n + 1 - int(order)][r][i] * log[i][c]
                divisor = n + 1 + F(exponents[c]) - exponents[r]
                if divisor == 0:
                    log[r][c] = acc
                    row.append(mpmath.mpc(0))
                else:
                    q = 1 / divisor
                    row.append(acc * (mpmath.mpf(q.numerator) / q.denominator))
            term.append(row)
        terms.append(term)
        yield term
        if max(abs(x) for row in term for x in row) < tol:
            quiet += 1
            if quiet >= 3:
                return
        else:
            quiet = 0
    raise AssertionError("reference series did not converge")


def _ref_hyp_step(pos, h, poles, exps, tol, cap):
    grow = area = mpmath.mpc(1)
    terms = _ref_series(h, [pos - p for p in poles], [[[e]] for e in exps],
                        [0], tol, cap)
    for n, ((term,),) in enumerate(terms, 1):
        grow += term
        area += term * (mpmath.mpf(1) / (n + 1))
    return [grow, area * h]


def _poly_hyp_step(pos, h, poles, exps, tol, cap):
    # f'/f = C(w) / q(w) multiplied through by q(w) = prod_i (w + s_i),
    # with C(w) = sum_i e_i prod_(l != i) (w + s_l), for the coefficients
    # g_k of f / f(start) = sum_k g_k w^k:
    # (k + 1) q_0 g_(k+1) = sum_i C_i g_(k-i)
    #                       - sum_(i>=1) (k + 1 - i) q_i g_(k+1-i)
    shifts = [pos - p for p in poles]
    q = _ref_poly_from_roots(shifts)
    c_coeffs = [mpmath.mpc(0)] * (len(q) - 1)
    for i, e in enumerate(exps):
        partial = _ref_poly_from_roots(shifts[:i] + shifts[i + 1:])
        c_coeffs = [acc + e * x for acc, x in zip(c_coeffs, partial)]
    coeffs = [mpmath.mpc(1)]
    grow = area = mpmath.mpc(1)
    h_power = mpmath.mpc(1)
    quiet = 0
    for k in range(cap):
        acc = sum((c_coeffs[i] * coeffs[k - i]
                   for i in range(min(k + 1, len(c_coeffs)))), mpmath.mpc(0))
        acc -= sum(((k + 1 - i) * q[i] * coeffs[k + 1 - i]
                    for i in range(1, min(k + 1, len(q)))), mpmath.mpc(0))
        coeffs.append(acc / (q[0] * (k + 1)))
        h_power *= h
        term = coeffs[-1] * h_power
        grow += term
        area += term / (k + 2)
        if abs(term) < tol:
            quiet += 1
            if quiet >= 3:
                return [grow, area * h]
        else:
            quiet = 0
    raise AssertionError("polynomial hypergeometric step did not converge")


def _random_hyp_steps(bits):
    """Ten seeded (pos, h, poles, exps) of hyp2f1 steps at bits + 64."""
    rng = random.Random(bits + 1)
    steps = []
    for _ in range(10):
        u = rng.choice((F(0), F(2), F(-3), F(1, 2)))
        with mpmath.workprec(bits + 64):
            poles = [mpmath.mpc(0), mpmath.mpc(1)]
            if u:
                poles.append(1 / _ref_mpc(u))
            exps = [_ref_mpc(F(rng.randint(-9, 9), rng.randint(2, 7)))
                    for _ in poles]
            while True:
                pos = mpmath.mpc(rng.uniform(-1, 2), rng.uniform(-1, 1))
                rho = min(abs(pos - p) for p in poles)
                if rho > 0.05:
                    break
            angle = mpmath.mpf(rng.uniform(0, 6.283))
            h = kz.STEP_RATIO * rho * rng.uniform(0.2, 1) * mpmath.expj(angle)
        steps.append((pos, h, poles, exps))
    return steps


def _kernel_hyp_step(pos, h, poles, exps, tol, bits):
    """kz._hyp_step on the kernel values of mpc arguments, as mpc."""
    with mpmath.workprec(bits + 64):
        got = kz._hyp_step(
            [kz._from_libmp((pos - p)._mpc_) for p in poles],
            kz._from_libmp(h._mpc_),
            [kz._from_libmp(e._mpc_)[:2] for e in exps], tol._mpf_,
            kz._term_cap(bits), mpmath.mp.prec,
        )
    return [mpmath.mp.make_mpc(kz._to_libmp(x)) for x in got]


@pytest.mark.parametrize("bits", [128, 256])
def test_hyp_step_is_bit_identical_to_the_object_recurrence(bits):
    with mpmath.workprec(bits + 64):
        tol = mpmath.mpf(2) ** -(bits + 16)
    for trial, step in enumerate(_random_hyp_steps(bits)):
        got = _kernel_hyp_step(*step, tol, bits)
        with mpmath.workprec(bits + 64):
            expected = _ref_hyp_step(*step, tol, kz._term_cap(bits))
        assert [x._mpc_ for x in got] == [x._mpc_ for x in expected], trial


@pytest.mark.parametrize("bits", [128, 256, 1024])
def test_hyp_step_agrees_with_the_polynomial_recurrence(bits):
    with mpmath.workprec(bits + 64):
        tol = mpmath.mpf(2) ** -(bits + 16)
    for trial, step in enumerate(_random_hyp_steps(bits)):
        got = _kernel_hyp_step(*step, tol, bits)
        with mpmath.workprec(bits + 64):
            expected = _poly_hyp_step(*step, tol, kz._term_cap(bits))
            assert max(abs(x - y) for x, y in zip(got, expected)) \
                < mpmath.mpf(2) ** -bits, trial


def _ref_frobenius_circle(sys, around, entry, tol):
    """kz._frobenius_circle on mpc objects, for moving point 0.

    The conjugated M_k come from sympy's exact inverse of the eigenbasis.
    The series is summed by _ref_series; the conjugation by exp(2 pi i R)
    and exp(2 pi i C~) repeats kz's mpc arithmetic, at the 64 guard bits
    of exponents that are integers apart or at least 2^-64 from that.
    """
    others = [k for k in range(sys.n) if k not in (0, around)]
    minus_inv_kappa = -1 / sys.kappa
    r, s = kz._rational_eigenbasis(sys.omega(0, around), sys.kappa)
    s_inv = [[F(int(x.p), int(x.q)) for x in row]
             for row in sympy.Matrix(s).inv().tolist()]
    d = sys.d
    conj = []
    for k in others:
        m = [[x * minus_inv_kappa for x in row] for row in sys.omega(0, k)]
        conj.append([[sum(s_inv[a][i] * m[i][j] * s[j][b]
                          for i in range(d) for j in range(d))
                      for b in range(d)] for a in range(d)])
    with mpmath.workprec(sys.precision_bits + 64):
        center = _ref_mpc(sys.points[around])
        w = _ref_mpc(entry) - center
        shifts = [center - _ref_mpc(sys.points[k]) for k in others]
        m = [[[_ref_mpc(x) for x in row] for row in mat] for mat in conj]
        total = _ref_identity(d)
        log = _ref_zero(d)
        for term in _ref_series(w, shifts, m, r, tol / 4,
                                kz._term_cap(sys.precision_bits), log):
            total = _ref_mat_add(total, term)
        frame = _ref_mat_mul([[_ref_mpc(x) for x in row] for row in s], total)
        turns = [mpmath.expjpi(mpmath.mpf(2 * x.numerator) / x.denominator)
                 for x in r]
        # times exp(2 pi i C~), summed up to the power d - 1
        step = _ref_mat_scale(log, mpmath.mpc(0, 2 * mpmath.pi))
        power = turned = [[x * t for x, t in zip(row, turns)] for row in frame]
        for j in range(1, d):
            power = _ref_mat_scale(_ref_mat_mul(power, step), mpmath.mpf(1) / j)
            turned = _ref_mat_add(turned, power)
        return _ref_mat_mul(turned, kz._mat_inv(frame))


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("kappa", [F(3), F(-7, 3), F(5, 2), F(-5), F(2),
                                   F(-2)])
def test_frobenius_circle_is_bit_identical_to_the_object_recurrence(kappa,
                                                                     bits):
    # kappa +-2 have a vanishing divisor and a log part
    sys = KzSystem(POINTS, kappa, precision_bits=bits)
    with mpmath.workprec(bits + 64):
        tol = mpmath.mpf(2) ** -(bits // 2)
    for around in (1, 2, 3):
        entry = complex(POINTS[around]) - 0.15j
        got = kz._frobenius_circle(sys, around, entry, None)
        expected = _ref_frobenius_circle(sys, around, entry, tol)
        assert [[x._mpc_ for x in row] for row in got] == \
            [[x._mpc_ for x in row] for row in expected], around


def test_transport_meets_a_small_tolerance_at_the_largest_precision():
    # a 0.3 step about 0.38 of the way to the nearest puncture needs about
    # 650 terms to fall below 2^-900, beyond MAX_SERIES_TERMS itself; the
    # cap grows with the precision.  Halving the steps must agree.
    bits = cli.MAX_PRECISION_BITS
    a, b = complex(-0.5, -0.6), complex(-0.2, -0.6)
    with mpmath.workprec(bits + 64):
        tol = mpmath.mpf(2) ** -900
    one = transport(KzSystem(POINTS, 3, precision_bits=bits),
                    ContourPath([a, b]), tol=tol)
    halves = transport(KzSystem(POINTS, 3, precision_bits=bits),
                       ContourPath([a, (a + b) / 2, b]), tol=tol)
    with mpmath.workprec(bits + 64):
        assert max(abs(x - y) for row, other in zip(one, halves)
                   for x, y in zip(row, other)) < mpmath.mpf(2) ** -890


def test_transport_does_not_depend_on_the_callers_precision():
    # 1/3 and 9/14 are not dyadic, so a puncture rounded at the caller's
    # precision would move the result; fresh systems, so no call reuses
    # the other's segments
    points = (F(-1, 2), F(1, 3), F(9, 14), F(1))
    plain = simple_loop_monodromy(KzSystem(points, 3, precision_bits=64), 1)
    with mpmath.workprec(128):
        wide = simple_loop_monodromy(KzSystem(points, 3, precision_bits=64), 1)
    assert [[x._mpc_ for x in row] for row in plain] == \
        [[x._mpc_ for x in row] for row in wide]


def test_pochhammer_unipotent_at_kappa_three():
    sys = KzSystem(POINTS, 3, precision_bits=96)
    mono = pochhammer_monodromy(sys, 1, 3)
    eigs = eigenvalues_2x2(mono)
    assert all(abs(e - 1) < mpmath.mpf("1e-6") for e in eigs)
    assert _identity_dist(mono) > mpmath.mpf("1e-3")
    assert abs(mono[1][0]) > mpmath.mpf("1e-3")
    det = mono[0][0] * mono[1][1] - mono[0][1] * mono[1][0]
    assert abs(det - 1) < mpmath.mpf("1e-12")


def test_pochhammer_transports_the_shared_legs_once(monkeypatch,
                                                   fresh_kz_system):
    # the commutator is the one of two loops built on fresh systems, bit
    # for bit, with the legs to and from the base integrated once
    steps = []
    taylor_step = kz._taylor_step

    def counted(*args):
        steps.append(args)
        return taylor_step(*args)

    monkeypatch.setattr(kz, "_taylor_step", counted)
    kappa, bits = F(-7, 3), 96
    got = pochhammer_monodromy(
        fresh_kz_system(POINTS, kappa, precision_bits=bits), 1, 2)
    shared = len(steps)
    steps.clear()
    t_p = simple_loop_monodromy(
        fresh_kz_system(POINTS, kappa, precision_bits=bits), 1)
    t_q = simple_loop_monodromy(
        fresh_kz_system(POINTS, kappa, precision_bits=bits), 2)
    assert shared < len(steps)
    with mpmath.workprec(bits + 64):
        inv = kz._mat_inv
        expected = kz._mat_mul(inv(t_q), kz._mat_mul(inv(t_p), kz._mat_mul(t_q, t_p)))
    assert [[x._mpc_ for x in row] for row in got] == \
        [[x._mpc_ for x in row] for row in expected]


def _bits(mat):
    return [[x._mpc_ for x in row] for row in mat]


def test_a_second_system_on_the_same_data_integrates_nothing(
        monkeypatch, fresh_kz_system):
    # the segment memo outlives the system: a new system on the same data
    # finds every segment of the commutator integrated
    kappa, bits = F(-7, 3), 96
    first = pochhammer_monodromy(
        fresh_kz_system(POINTS, kappa, precision_bits=bits), 1, 3)
    steps = _record_taylor_steps(monkeypatch)
    second = pochhammer_monodromy(KzSystem(POINTS, kappa, precision_bits=bits),
                                  1, 3)
    assert steps == []
    assert _bits(second) == _bits(first)


@pytest.mark.parametrize("change", ["precision", "kappa", "weights", "tol",
                                    "point"])
def test_segment_memo_keys_on_every_input(change, fresh_kz_system):
    # after a transport on the base data, one changed input gives exactly
    # the transport that an empty memo gives, and not the base's.  The
    # base has dyadic points, kappa and tol, so that at 64 and 128 bits
    # the punctures, -1/kappa, the quarter tolerance and the term cap all
    # coincide: only the working precision tells the two apart.
    base = {"points": POINTS, "kappa": F(2), "weights": (1, 1, 1, 1),
            "bits": 64, "tol": mpmath.mpf(2) ** -20}
    changed = dict(base, **{
        "precision": {"bits": 128},
        "kappa": {"kappa": F(-7, 3)},
        "weights": {"weights": (2, 2, 2, 2)},
        "tol": {"tol": mpmath.mpf(2) ** -24},
        "point": {"points": (F(-1, 2), F(0), F(5, 8), F(1))},
    }[change])
    path = ContourPath.way_out(complex(POINTS[0]), complex(POINTS[3]))

    def run(data, build):
        sys = build(data["points"], data["kappa"], weights=data["weights"],
                    precision_bits=data["bits"])
        return _bits(transport(sys, path, tol=data["tol"]))

    before = run(base, fresh_kz_system)
    warm = run(changed, KzSystem)
    assert warm == run(changed, fresh_kz_system)
    assert warm != before


def test_pochhammer_near_identity_for_large_kappa():
    sys = KzSystem(POINTS, 10**6, precision_bits=96)
    mono = pochhammer_monodromy(sys, 1, 3)
    assert _identity_dist(mono) < mpmath.mpf("1e-4")


def test_flat_sections_and_controls():
    sys = KzSystem(POINTS, 3)
    zs = (
        complex(-0.5, 0.31),
        complex(0.17, -0.12),
        complex(0.55, 0.23),
        complex(1.1, -0.4),
    )
    assert flat_section_residual(sys, zs) < mpmath.mpf("1e-10")
    assert flat_section_residual(sys, zs, section="fv") < mpmath.mpf("1e-10")
    wrong = flat_section_residual(sys, zs, exponent=F(-1, 5))
    assert wrong > mpmath.mpf("1e-3")
    with pytest.raises(BranchCut):
        flat_section_residual(sys, (0, 1, 2, 3))
    with pytest.raises(DuplicatePoints):
        flat_section_residual(sys, (0, 0, 1j, 2))
    with pytest.raises(ValueError):
        flat_section_residual(sys, zs, section="nope")
    with pytest.raises(ValueError):
        flat_section_residual(sys, zs[:3])


@pytest.mark.parametrize("weights", [(2, 2, 2, 2), (1, 1, 2, 2)])
def test_flat_sections_refuse_other_than_four_doublets(weights):
    # (1, 1, 2, 2) has a two-dimensional coinvariant space like four
    # doublets, so the dimension alone does not tell them apart
    sys = KzSystem(POINTS, 3, weights=weights, precision_bits=64)
    zs = (complex(-0.5, 0.31), complex(0.17, -0.12),
          complex(0.55, 0.23), complex(1.1, -0.4))
    with pytest.raises(ValueError):
        flat_section_residual(sys, zs)
    with pytest.raises(ValueError):
        flat_section_residual(sys, zs, section="fv")


def test_eigen_reports():
    eigs = eigenvalues_2x2([[mpmath.mpc(2), mpmath.mpc(0)],
                            [mpmath.mpc(0), mpmath.mpc(3)]])
    assert sorted(float(abs(e)) for e in eigs) == [2.0, 3.0]
    shear = diagonalizability_report([[mpmath.mpc(1), mpmath.mpc(1)],
                                      [mpmath.mpc(0), mpmath.mpc(1)]])
    assert shear["condition"] == mpmath.inf
    scalar = diagonalizability_report([[mpmath.mpc(5), mpmath.mpc(0)],
                                       [mpmath.mpc(0), mpmath.mpc(5)]])
    assert scalar["condition"] == 1
    swap = diagonalizability_report([[mpmath.mpc(0), mpmath.mpc(1)],
                                     [mpmath.mpc(1), mpmath.mpc(0)]])
    assert swap["condition"] < mpmath.mpf("1.5")


def test_hypergeometric_contour_against_series():
    got = hyp2f1(F(1, 3), F(1, 5), F(7, 10), F(1, 2), precision_bits=128)
    with mpmath.workprec(160):
        ref = mpmath.hyp2f1(
            mpmath.mpf(1) / 3, mpmath.mpf(1) / 5, mpmath.mpf(7) / 10,
            mpmath.mpf(1) / 2,
        )
    assert abs(got - ref) < mpmath.mpf(2) ** -128


def test_hypergeometric_outside_unit_disc_closed_form():
    # with c = a the function is (1 - u)^(-b); at u = 2 the principal
    # branch gives (-1)^(1/3) = exp(i pi / 3), a value that does not come
    # from quadrature
    for bits in (128, 256):
        got = hyp2f1(F(1, 3), F(-1, 3), F(1, 3), 2, precision_bits=bits)
        with mpmath.workprec(bits + 64):
            expected = mpmath.exp(1j * mpmath.pi / 3)
            tol = mpmath.mpf(2) ** -bits
            assert abs(got - expected) < tol, bits
            assert abs(abs(got) - 1) < tol, bits


def test_hypergeometric_series_guard(monkeypatch):
    # a step whose series does not fall below 2^-(precision_bits + 16)
    # within the term cap is refused
    monkeypatch.setattr(kz, "MAX_SERIES_TERMS", 20)
    with pytest.raises(PrecisionLoss, match="term cap"):
        hyp2f1(F(1, 3), F(-1, 3), F(1, 3), 2, precision_bits=128)


def test_hypergeometric_at_the_largest_kz_precision():
    # a step's terms shrink about as STEP_RATIO^k, so 1024 bits takes
    # about 750 terms a step, beyond MAX_SERIES_TERMS itself; the cap
    # grows with the precision
    bits = cli.MAX_PRECISION_BITS
    got = hyp2f1(*cli._HYP2F1_ARGS, precision_bits=bits)
    with mpmath.workprec(bits + 64):
        expected = mpmath.exp(1j * mpmath.pi / 3)
        assert abs(got - expected) < mpmath.mpf(2) ** -bits


def test_hypergeometric_closure_guard(monkeypatch):
    # around one loop about t = 1 the integrand picks up exp(2 pi i (c-b)),
    # so it does not come back to its start value
    loop1 = ContourPath.loop_around(complex(0.5, -0.35), 1.0, radius=0.25,
                                    depth=0.35)
    monkeypatch.setattr(kz, "_pochhammer_contour", lambda: loop1)
    with pytest.raises(PrecisionLoss, match="close up"):
        hyp2f1(F(1, 3), F(-1, 3), F(1, 3), 2, precision_bits=128)


def test_hypergeometric_guards():
    with pytest.raises(ValueError):
        hyp2f1(F(1, 2), 1, F(3, 2), F(1, 3))
    with pytest.raises(ValueError):
        hyp2f1(F(1, 2), F(1, 3), F(4, 3), F(1, 3))


@pytest.mark.parametrize("args", [
    (complex(1, 1) / 3, F(1, 5), F(7, 10)),
    (mpmath.mpc(1, 1) / 3, F(1, 5), F(7, 10)),
    (F(1, 3), mpmath.mpc(0.2, 0), F(7, 10)),
    (F(1, 3), complex(0.2, 0.1), F(7, 10)),
    (F(1, 3), F(1, 5), complex(0.7, -0.5)),
])
def test_hypergeometric_refuses_non_real_parameters(args):
    # the series multiplies by the exponents b - 1, c - b - 1 and -a as
    # real scalars; a complex a used to be accepted, and a complex b or c
    # raised a raw TypeError
    with pytest.raises(ValueError, match="must be real"):
        hyp2f1(*args, F(1, 2), precision_bits=64)


@pytest.mark.parametrize("u", [F(11, 10), F(5), complex(0.8, 1.6),
                               complex(2, 1)])
def test_hypergeometric_refuses_a_pole_that_blocks_the_contour(u):
    # 1/u is 10/11 inside the loop about t = 1, 1/5 inside the loop about
    # t = 0, or 1/4 - i/2 or 2/5 - i/5 below [0, 1] between the loops'
    # legs, which cross it when the contour shrinks onto [0, 1]; the
    # contour would not give the closed form
    with pytest.raises(ValueError):
        hyp2f1(F(1, 3), F(-1, 3), F(1, 3), u, precision_bits=64)


@pytest.mark.parametrize("u", [F(3, 2), F(-3), complex(0.25, 1.5)])
def test_hypergeometric_pole_outside_the_loops(u):
    # with c = a the value is (1 - u)^(1/3) on the principal branch;
    # 1/u = 0.108 - 0.649i lies below the left leg
    got = hyp2f1(F(1, 3), F(-1, 3), F(1, 3), u, precision_bits=128)
    with mpmath.workprec(192):
        expected = mpmath.mpc(1 - _ref_mpc(u)) ** (mpmath.mpf(1) / 3)
        assert abs(got - expected) < mpmath.mpf(2) ** -128


# poles 1/u a little inside and a little outside each edge of the pentagon
# below [0, 1] that the loops' legs sweep
_LEG_REGION_EDGES = [
    (complex(0.28, -0.485), complex(0.22, -0.565)),  # the leg to t = 0
    (complex(0.72, -0.485), complex(0.78, -0.565)),  # the leg to t = 1
    (complex(0.04, -0.3), complex(-0.04, -0.3)),     # below t = 0
    (complex(0.5, -0.04), complex(0.5, 0.04)),       # [0, 1] itself
]


@pytest.mark.parametrize("inside, outside", _LEG_REGION_EDGES)
def test_hypergeometric_refuses_exactly_where_the_value_is_not_principal(
        inside, outside, monkeypatch):
    args = (F(1, 3), F(1, 5), F(7, 10))

    def principal(u):
        with mpmath.workprec(128):
            return mpmath.hyp2f1(*(_ref_mpc(x) for x in (*args, u)))

    got = hyp2f1(*args, 1 / outside, precision_bits=64)
    assert abs(got - principal(1 / outside)) < mpmath.mpf(2) ** -64
    with pytest.raises(ValueError):
        hyp2f1(*args, 1 / inside, precision_bits=64)
    monkeypatch.setattr(kz, "_pole_blocks_the_contour", lambda pole, path: False)
    got = hyp2f1(*args, 1 / inside, precision_bits=64)
    assert abs(got - principal(1 / inside)) > 1e-3


# ---------------------------------------------------------------------------
# hyp2f1 against an independent quadrature of the same contour integral


def _quad_chord(t0, t1, factors, exps, logs, precision_bits, depth=0):
    """Integral over one chord and the factors' logs at its end.

    Gauss-Legendre quadrature at 16 guard bits, with the branch of each
    factor continued from the chord's start by the principal log of
    its ratio; a chord over which a factor turns by more than 1.2
    radians is halved first.
    """
    w0, w1 = factors(t0), factors(t1)
    assert depth <= 24 and all(abs(w) != 0 for w in w0 + w1)
    if any(abs(mpmath.arg(x / y)) > 1.2 for x, y in zip(w1, w0)):
        mid = (t0 + t1) / 2
        first, logs = _quad_chord(t0, mid, factors, exps, logs,
                                  precision_bits, depth + 1)
        second, logs = _quad_chord(mid, t1, factors, exps, logs,
                                   precision_bits, depth + 1)
        return first + second, logs

    def integrand(t):
        return mpmath.exp(sum(
            e * (li + mpmath.log(wi / w0i))
            for e, wi, w0i, li in zip(exps, factors(t), w0, logs)
        ))

    with mpmath.workprec(precision_bits + 16):
        value, error = mpmath.quad(
            integrand, [t0, t1], method="gauss-legendre", error=True
        )
    assert error <= mpmath.mpf(2) ** -precision_bits
    return value, [li + mpmath.log(wi / w0i)
                   for li, wi, w0i in zip(logs, w1, w0)]


def _quad_hyp2f1(a, b, c, u, precision_bits):
    """The Euler contour integral of hyp2f1, chord by chord by quadrature."""
    with mpmath.workprec(precision_bits + 64):
        aa, bb, cc, uu = (_ref_mpc(x) for x in (a, b, c, u))
        exps = (bb - 1, cc - bb - 1, -aa)

        def factors(t):
            return (t, 1 - t, 1 - uu * t)

        path = kz._pochhammer_contour()
        logs = [mpmath.log(w) for w in factors(_ref_mpc(path.waypoints[0]))]
        total = mpmath.mpc(0)
        for t0, t1 in path.segments():
            value, logs = _quad_chord(_ref_mpc(t0), _ref_mpc(t1), factors,
                                      exps, logs, precision_bits)
            total += value
        denom = ((1 - mpmath.exp(2j * mpmath.pi * bb))
                 * (1 - mpmath.exp(2j * mpmath.pi * (cc - bb))))
        return (mpmath.gamma(cc) / (mpmath.gamma(bb) * mpmath.gamma(cc - bb))
                * total / denom)


def _oracle_cases():
    # seeded (a, b, c) with b and c - b at least 1/5 away from an integer
    # and c no pole of gamma; u is zero, negative, inside the unit disc,
    # and beyond 1, the self-test's side of the cut
    rng = random.Random(1517)

    def rational():
        den = rng.choice((3, 4, 5, 7))
        while True:
            x = F(rng.randint(-2 * den, 2 * den), den)
            if F(1, 5) <= x - (x.numerator // x.denominator) <= F(4, 5):
                return x

    cases = []
    for u in (F(0), -F(rng.randint(1, 5), rng.randint(2, 3)), F(1, 2), F(2)):
        a, b = rational(), rational()
        c = b + rational()
        while c.denominator == 1 and c <= 0:
            c = b + rational()
        cases.append((a, b, c, u))
    return cases


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("case", range(4))
def test_hypergeometric_contour_against_quadrature(case, bits):
    a, b, c, u = _oracle_cases()[case]
    got = hyp2f1(a, b, c, u, precision_bits=bits)
    ref = _quad_hyp2f1(a, b, c, u, bits)
    assert abs(got - ref) < mpmath.mpf(2) ** -bits, (a, b, c, u)
    if u < 1:
        with mpmath.workprec(bits + 64):
            series = mpmath.hyp2f1(*(_ref_mpc(x) for x in (a, b, c, u)))
        assert abs(got - series) < mpmath.mpf(2) ** -bits, (a, b, c, u)


def test_hypergeometric_does_not_call_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath.quad called")

    monkeypatch.setattr(mpmath, "quad", refuse)
    got = hyp2f1(F(1, 3), F(-1, 3), F(1, 3), 2, precision_bits=128)
    with mpmath.workprec(192):
        assert abs(got - mpmath.exp(1j * mpmath.pi / 3)) < mpmath.mpf(2) ** -128
