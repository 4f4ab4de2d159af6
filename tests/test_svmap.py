"""Discriminantal arrangements, the rational vector v(t, z), and its classes."""

from fractions import Fraction
from itertools import permutations

import pytest

from aomoto_lab import linalg
from aomoto_lab.aomoto import AomotoComplex, AomotoSpace, chi_projector
from aomoto_lab.arrangement import intersection_lattice
from aomoto_lab.errors import DuplicatePoints, OnHyperplane, WeightMismatch
from aomoto_lab.exactfield import RatFuncKappa, specialize_kappa
from aomoto_lab.liealg import TensorSpace, invariant_functionals, sl2
from aomoto_lab.svmap import (
    _ordering_sum,
    build_arrangement,
    egregium_check,
    num_variables,
    omega_sv,
    sv_vector_eval,
)

F = Fraction

ACCEPTANCE_POINTS = (F(-1, 2), F(0), F(1, 2), F(1))


def test_num_variables():
    assert num_variables([1, 1]) == 1
    assert num_variables([1, 1, 1, 1]) == 2
    assert num_variables([2, 2, 2]) == 3
    assert num_variables([1, 1, 1, 1], mu=2) == 1
    with pytest.raises(WeightMismatch):
        num_variables([1])
    with pytest.raises(WeightMismatch):
        num_variables([1], mu=3)


def test_build_arrangement_two_representations():
    arr = build_arrangement(sl2(), [(1,), (1,)], (0, 1), kappa=7)
    assert arr.dimension == 1
    assert [f.constant for f in arr.forms] == [F(0), F(-1)]
    assert [f.gradient for f in arr.forms] == [(F(1),), (F(1),)]
    assert arr.weights == (F(1, 7), F(1, 7))
    assert arr.coloring == (0,)


def test_build_arrangement_four_representations():
    arr = build_arrangement(sl2(), [1, 1, 1, 1], ACCEPTANCE_POINTS, kappa=3)
    assert arr.dimension == 2
    assert arr.size == 9
    # variable-major point hyperplanes, then the diagonal
    for a in range(2):
        for i, z in enumerate(ACCEPTANCE_POINTS):
            form = arr.forms[4 * a + i]
            assert form.constant == -z
            assert form.gradient[a] == 1 and sum(map(abs, form.gradient)) == 1
            assert arr.weights[4 * a + i] == F(1, 3)
    assert arr.forms[8].gradient == (F(1), F(-1))
    assert arr.weights[8] == F(-2, 3)
    assert arr.coloring == (0, 0)


def test_build_arrangement_zero_weight_hyperplanes():
    dropped = build_arrangement(sl2(), [1, 1, 0], (0, 1, 2), kappa=3)
    assert dropped.size == 2
    assert all(f.constant in (F(0), F(-1)) for f in dropped.forms)
    kept = build_arrangement(
        sl2(), [1, 1, 0], (0, 1, 2), kappa=3, keep_zero_weights=True
    )
    assert kept.size == 3
    assert kept.weights[2] == 0


def test_build_arrangement_symbolic_kappa():
    arr = build_arrangement(sl2(), [1, 1, 1, 1], ACCEPTANCE_POINTS)
    assert all(isinstance(w, RatFuncKappa) for w in arr.weights)
    specialized = [specialize_kappa(w, F(7)) for w in arr.weights]
    numeric = build_arrangement(sl2(), [1, 1, 1, 1], ACCEPTANCE_POINTS, kappa=7)
    assert specialized == list(numeric.weights)


def test_build_arrangement_guards():
    with pytest.raises(DuplicatePoints):
        build_arrangement(sl2(), [1, 1], (2, 2), kappa=3)
    with pytest.raises(WeightMismatch):
        build_arrangement(sl2(), [1], (0,), kappa=3)
    with pytest.raises(WeightMismatch):
        build_arrangement(sl2(), [0, 0], (0, 1), kappa=3)
    with pytest.raises(ValueError):
        build_arrangement(sl2(), [1, 1], (0, 1, 2), kappa=3)


def test_ordering_sum_telescopes_to_product():
    # sum over orderings of 1/((u_1-u_2)...(u_{q-1}-u_q)(u_q-z)) is the
    # partial-fraction expansion of prod_i 1/(u_i - z)
    ts = (F(3), F(5), F(-2))
    z = F(1)
    for group in [(0,), (0, 1), (0, 1, 2)]:
        expected = F(1)
        for i in group:
            expected /= ts[i] - z
        assert _ordering_sum(ts, group, z) == expected
    with pytest.raises(OnHyperplane):
        _ordering_sum((F(1), F(1)), (0, 1), F(0))
    with pytest.raises(OnHyperplane):
        _ordering_sum((F(2),), (0,), F(2))


def test_sv_vector_one_variable():
    space = TensorSpace((1, 1))
    coeffs = sv_vector_eval(space, (F(5),), (F(0), F(1)))
    assert coeffs[space.index[(1, 0)]] == F(1, 5)
    assert coeffs[space.index[(0, 1)]] == F(1, 4)
    assert coeffs[space.index[(0, 0)]] == 0
    assert coeffs[space.index[(1, 1)]] == 0


def test_sv_vector_weight_and_guards():
    # v(t, z) lies in the weight space mu = sum m_i - 2 M exactly
    space = TensorSpace((1, 1, 1, 1))
    zs = ACCEPTANCE_POINTS
    coeffs = sv_vector_eval(space, (F(7), F(-3)), zs)
    h = space.total_action("h")
    mu = sum(space.ms) - 2 * 2
    for r in range(space.dim):
        assert sum(h[r][c] * coeffs[c] for c in range(space.dim)) == mu * coeffs[r]
    assert any(c != 0 for c in coeffs)
    with pytest.raises(OnHyperplane):
        sv_vector_eval(space, (F(0), F(3)), zs)
    with pytest.raises(ValueError):
        sv_vector_eval(space, (F(7),), (F(0), F(1)))
    # equal variable values only touch a diagonal when some point takes
    # two or more lowering operators
    deep = TensorSpace((2, 1, 1))
    with pytest.raises(OnHyperplane):
        sv_vector_eval(deep, (F(7), F(7)), (F(0), F(1), F(2)))


def test_sv_vector_single_point_is_divided_product():
    # with one marked point every assignment lands there, so the basis
    # coefficient at full depth is the product over variables of 1/(t_a - z)
    space = TensorSpace((4,))
    ts = (F(3), F(7))
    coeffs = sv_vector_eval(space, ts, (F(1),))
    expected = F(1)
    for t in ts:
        expected /= t - F(1)
    assert coeffs[space.index[(2,)]] == expected


def test_omega_sv_two_point_class():
    arr = build_arrangement(sl2(), [1, 1], (0, 1), kappa=7)
    lattice = intersection_lattice(arr)
    aspace = AomotoSpace(arr, lattice, 1)
    space = TensorSpace((1, 1))
    psi = invariant_functionals(space)[0]
    cls = omega_sv(arr, lattice, space, psi, (0, 1), aomoto_space=aspace)
    # psi(v) = psi_0 / (t - z_2) + psi_1 / (t - z_1) with zero-weight
    # basis order (0,1), (1,0) and form order t - z_1, t - z_2
    expected = aspace.reduce([psi[1], psi[0]])
    assert list(cls.rep) == list(expected)
    assert any(c != 0 for c in cls.rep)


def test_omega_sv_linear_in_psi():
    arr = build_arrangement(sl2(), [1, 1, 1, 1], ACCEPTANCE_POINTS, kappa=3)
    lattice = intersection_lattice(arr)
    aspace = AomotoSpace(arr, lattice, 2)
    space = TensorSpace((1, 1, 1, 1))
    psis = invariant_functionals(space)
    assert len(psis) == 2
    kwargs = dict(zs=ACCEPTANCE_POINTS, aomoto_space=aspace)
    a = omega_sv(arr, lattice, space, psis[0], **kwargs)
    b = omega_sv(arr, lattice, space, psis[1], **kwargs)
    summed = [x + y for x, y in zip(psis[0], psis[1])]
    c = omega_sv(arr, lattice, space, summed, **kwargs)
    assert list(c.rep) == [x + y for x, y in zip(a.rep, b.rep)]
    zero = omega_sv(arr, lattice, space, [F(0)] * len(psis[0]), **kwargs)
    assert all(x == 0 for x in zero.rep)


def test_omega_sv_classes_are_sign_isotypic():
    arr = build_arrangement(sl2(), [1, 1, 1, 1], ACCEPTANCE_POINTS, kappa=7)
    lattice = intersection_lattice(arr)
    quotient = AomotoComplex(arr, lattice).top_quotient()
    aspace = quotient.space
    proj = chi_projector(arr, 2)
    space = TensorSpace((1, 1, 1, 1))
    for psi in invariant_functionals(space):
        cls = omega_sv(
            arr, lattice, space, psi, ACCEPTANCE_POINTS, aomoto_space=aspace
        )
        rep = list(cls.rep)
        projected = [
            sum(proj[r][c] * rep[c] for c in range(len(rep)))
            for r in range(len(rep))
        ]
        assert quotient.coords(projected) == quotient.coords(rep)
        assert any(x != 0 for x in quotient.coords(rep))


def test_egregium_two_representations():
    report = egregium_check(sl2(), [(1,), (1,)], (0, 1), 7)
    assert report == {
        "invariants_dim": 1,
        "sv_rank": 1,
        "image_rank": 1,
        "subspaces_equal": True,
        "match": True,
    }


def test_egregium_four_representations():
    for kappa in (3, 7):
        report = egregium_check(sl2(), [1, 1, 1, 1], ACCEPTANCE_POINTS, kappa)
        assert report == {
            "invariants_dim": 2,
            "sv_rank": 2,
            "image_rank": 2,
            "subspaces_equal": True,
            "match": True,
        }, kappa
