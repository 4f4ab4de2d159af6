"""Connection coefficients, parallel transport, monodromy, flat sections."""

from fractions import Fraction

import mpmath
import pytest

from aomoto_lab.errors import (
    BranchCut,
    CollidingPoints,
    PrecisionLoss,
    StepUnderflow,
    ZeroKappa,
)
from aomoto_lab.kz import (
    ContourPath,
    KzSystem,
    casimir_matrices,
    diagonalizability_report,
    eigenvalues_2x2,
    flat_section_residual,
    hyp2f1,
    kz_curvature,
    kz_rhs,
    pochhammer_monodromy,
    simple_loop_monodromy,
    transport,
)

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
    with pytest.raises(CollidingPoints):
        KzSystem((0, 0, 1, 2), 3)
    with pytest.raises(ValueError):
        KzSystem((0, 1, 2, 3, 4), 3, matrices=casimir_matrices())
    sys = KzSystem(POINTS, 3)
    with pytest.raises(ValueError):
        sys.omega(2, 2)
    assert sys.omega(3, 1) == OMEGA_EXPECTED[(1, 3)]


def test_kz_rhs_matches_rational_arithmetic():
    sys = KzSystem(POINTS, 3)
    got = kz_rhs(sys, POINTS, 0)
    expected = [[F(0), F(0)], [F(0), F(0)]]
    for k in range(1, 4):
        dz = POINTS[0] - POINTS[k]
        om = OMEGA_EXPECTED[(0, k)]
        for r in range(2):
            for c in range(2):
                expected[r][c] += F(-1, 3) * om[r][c] / dz
    with mpmath.workprec(300):
        for r in range(2):
            for c in range(2):
                ref = mpmath.mpf(expected[r][c].numerator) / mpmath.mpf(
                    expected[r][c].denominator
                )
                assert abs(got[r][c] - ref) < mpmath.mpf("1e-25")
    with pytest.raises(CollidingPoints):
        kz_rhs(sys, (0, 0, 1, 2), 0)


def test_contour_path_basics():
    path = ContourPath([0, 0, 1 + 1j, 1 + 1j, 2])
    assert path.waypoints == [0, (1 + 1j), 2]
    assert not path.is_loop()
    assert path.reversed().waypoints == [2, (1 + 1j), 0]
    circle = ContourPath.circle(0, 0.25)
    assert circle.is_loop()
    assert len(circle.waypoints) >= 19
    assert 0.24 < circle.min_distance([0]) <= 0.2501
    loop = ContourPath.loop_around(-0.5, 0.0)
    assert loop.is_loop()
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


def test_pochhammer_unipotent_at_kappa_three():
    sys = KzSystem(POINTS, 3, precision_bits=96)
    mono = pochhammer_monodromy(sys, 1, 3)
    eigs = eigenvalues_2x2(mono)
    assert all(abs(e - 1) < mpmath.mpf("1e-6") for e in eigs)
    assert _identity_dist(mono) > mpmath.mpf("1e-3")
    assert abs(mono[1][0]) > mpmath.mpf("1e-3")
    det = mono[0][0] * mono[1][1] - mono[0][1] * mono[1][0]
    assert abs(det - 1) < mpmath.mpf("1e-12")


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
    with pytest.raises(CollidingPoints):
        flat_section_residual(sys, (0, 0, 1j, 2))
    with pytest.raises(ValueError):
        flat_section_residual(sys, zs, section="nope")
    with pytest.raises(ValueError):
        flat_section_residual(sys, zs[:3])


def test_curvature_is_flat():
    sys = KzSystem(POINTS, 3)
    zs = (
        complex(0.3, 0.2),
        complex(1.1, -0.5),
        complex(-0.7, 0.9),
        complex(2.2, 0.1),
    )
    for pair in [(0, 1), (2, 3), (0, 3)]:
        curv = kz_curvature(sys, zs, *pair)
        assert max(abs(x) for row in curv for x in row) < mpmath.mpf("1e-9")


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
    assert abs(got - ref) < mpmath.mpf("1e-30")


def test_hypergeometric_outside_unit_disc_closed_form():
    # with c = a the function is (1 - u)^(-b); at u = 2 the principal
    # branch gives (-1)^(1/3) = exp(i pi / 3), a value that does not come
    # from quadrature
    for bits, tol in ((128, "1e-36"), (256, "1e-70")):
        got = hyp2f1(F(1, 3), F(-1, 3), F(1, 3), 2, precision_bits=bits)
        with mpmath.workprec(bits + 64):
            expected = mpmath.exp(1j * mpmath.pi / 3)
            assert abs(got - expected) < mpmath.mpf(tol), bits
            assert abs(abs(got) - 1) < mpmath.mpf(tol), bits


def test_hypergeometric_quadrature_guard(monkeypatch):
    # a chord whose error estimate exceeds 2^-precision_bits is refused
    def unconverged(f, interval, **kwargs):
        return mpmath.mpc(0), mpmath.mpf(2) ** -100

    monkeypatch.setattr(mpmath, "quad", unconverged)
    with pytest.raises(PrecisionLoss):
        hyp2f1(F(1, 3), F(-1, 3), F(1, 3), 2, precision_bits=128)


def test_hypergeometric_guards():
    with pytest.raises(ValueError):
        hyp2f1(F(1, 2), 1, F(3, 2), F(1, 3))
    with pytest.raises(ValueError):
        hyp2f1(F(1, 2), F(1, 3), F(4, 3), F(1, 3))
