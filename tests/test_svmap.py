"""Discriminantal arrangements, the rational vector v(t, z), and its classes."""

from fractions import Fraction
from itertools import permutations

import pytest

from aomoto_lab import linalg
from aomoto_lab.aomoto import AomotoComplex, AomotoSpace, chi_projector
from aomoto_lab.arrangement import (
    AffineForm, WeightedArrangement, intersection_lattice,
)
from aomoto_lab.errors import (
    DuplicatePoints, NotInSpan, OnHyperplane, WeightMismatch,
)
from aomoto_lab.exactfield import RatFuncKappa, random_point_avoiding
from aomoto_lab.liealg import TensorSpace, invariant_functionals
from aomoto_lab.logforms import expand_top_form, monomial_value
from aomoto_lab.svmap import (
    _ordering_sum,
    build_arrangement,
    egregium_check,
    num_variables,
    omega_sv,
    sv_vector_eval,
)
from oracles import specialize_kappa

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
    arr = build_arrangement([(1,), (1,)], (0, 1), kappa=7)
    assert arr.dimension == 1
    assert [f.constant for f in arr.forms] == [F(0), F(-1)]
    assert [f.gradient for f in arr.forms] == [(F(1),), (F(1),)]
    assert arr.weights == (F(1, 7), F(1, 7))
    assert arr.coloring == (0,)


def test_build_arrangement_four_representations():
    arr = build_arrangement([1, 1, 1, 1], ACCEPTANCE_POINTS, kappa=3)
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
    dropped = build_arrangement([1, 1, 0], (0, 1, 2), kappa=3)
    assert dropped.size == 2
    assert all(f.constant in (F(0), F(-1)) for f in dropped.forms)
    kept = build_arrangement([1, 1, 0], (0, 1, 2), kappa=3,
                             keep_zero_weights=True)
    assert kept.size == 3
    assert kept.weights[2] == 0


def test_build_arrangement_symbolic_kappa():
    arr = build_arrangement([1, 1, 1, 1], ACCEPTANCE_POINTS)
    assert all(isinstance(w, RatFuncKappa) for w in arr.weights)
    specialized = [specialize_kappa(w, F(7)) for w in arr.weights]
    numeric = build_arrangement([1, 1, 1, 1], ACCEPTANCE_POINTS, kappa=7)
    assert specialized == list(numeric.weights)


def test_build_arrangement_guards():
    with pytest.raises(DuplicatePoints):
        build_arrangement([1, 1], (2, 2), kappa=3)
    with pytest.raises(WeightMismatch):
        build_arrangement([1], (0,), kappa=3)
    with pytest.raises(WeightMismatch):
        build_arrangement([0, 0], (0, 1), kappa=3)
    with pytest.raises(ValueError):
        build_arrangement([1, 1], (0, 1, 2), kappa=3)


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
    mu = sum(space.ms) - 2 * 2
    h_of_v = space.total_act("h", dict(zip(space.basis, coeffs)))
    for b, c in zip(space.basis, coeffs):
        assert h_of_v.get(b, 0) == mu * c
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
    arr = build_arrangement([1, 1], (0, 1), kappa=7)
    lattice = intersection_lattice(arr)
    aspace = AomotoSpace(arr, lattice, 1)
    space = TensorSpace((1, 1))
    psi = invariant_functionals(space)[0]
    cls = omega_sv(arr, space, psi, (0, 1), aomoto_space=aspace)
    # psi(v) = psi_0 / (t - z_2) + psi_1 / (t - z_1) with zero-weight
    # basis order (0,1), (1,0) and form order t - z_1, t - z_2
    expected = aspace.representative(aspace.normal_form(enumerate([psi[1], psi[0]])))
    assert list(cls) == list(expected)
    assert any(c != 0 for c in cls)


def test_omega_sv_linear_in_psi():
    arr = build_arrangement([1, 1, 1, 1], ACCEPTANCE_POINTS, kappa=3)
    lattice = intersection_lattice(arr)
    aspace = AomotoSpace(arr, lattice, 2)
    space = TensorSpace((1, 1, 1, 1))
    psis = invariant_functionals(space)
    assert len(psis) == 2
    kwargs = dict(zs=ACCEPTANCE_POINTS, aomoto_space=aspace)
    a = omega_sv(arr, space, psis[0], **kwargs)
    b = omega_sv(arr, space, psis[1], **kwargs)
    summed = [x + y for x, y in zip(psis[0], psis[1])]
    c = omega_sv(arr, space, summed, **kwargs)
    assert list(c) == [x + y for x, y in zip(a, b)]
    zero = omega_sv(arr, space, [F(0)] * len(psis[0]), **kwargs)
    assert all(x == 0 for x in zero)


def test_omega_sv_classes_are_sign_isotypic():
    arr = build_arrangement([1, 1, 1, 1], ACCEPTANCE_POINTS, kappa=7)
    lattice = intersection_lattice(arr)
    quotient = AomotoComplex(arr, lattice).top_quotient()
    aspace = quotient.space
    proj = chi_projector(arr, 2)
    space = TensorSpace((1, 1, 1, 1))
    for psi in invariant_functionals(space):
        cls = omega_sv(
            arr, space, psi, ACCEPTANCE_POINTS, aomoto_space=aspace
        )
        rep = list(cls)
        projected = [
            sum(proj[r][c] * rep[c] for c in range(len(rep)))
            for r in range(len(rep))
        ]
        assert quotient.coords(enumerate(projected)) == quotient.coords(enumerate(rep))
        assert any(x != 0 for x in quotient.coords(enumerate(rep)))


def test_egregium_two_representations():
    report = egregium_check([(1,), (1,)], (0, 1), 7)
    assert report == {
        "invariants_dim": 1,
        "sv_rank": 1,
        "image_rank": 1,
        "subspaces_equal": True,
        "match": True,
    }


def test_egregium_four_representations():
    for kappa in (3, 7):
        report = egregium_check([1, 1, 1, 1], ACCEPTANCE_POINTS, kappa)
        assert report == {
            "invariants_dim": 2,
            "sv_rank": 2,
            "image_rank": 2,
            "subspaces_equal": True,
            "match": True,
        }, kappa


def _interpolated_class(arr, lattice, space, psi, zs, aomoto_space):
    """The class of psi(v) dt by sampling and solving, as an oracle."""
    zero = space.zero_weight_indices()

    def evaluator(point):
        values = sv_vector_eval(space, point, zs)
        return sum(p * values[z] for p, z in zip(psi, zero))

    return expand_top_form(arr, lattice, evaluator, seed=5, space=aomoto_space)


CHAIN_CASES = [
    ([1, 1], (F(0), F(1))),
    ([1, 1, 1, 1], ACCEPTANCE_POINTS),
    ([2, 1, 1], (F(-1, 3), F(1, 2), F(2))),
    ([2, 2], (F(-3, 4), F(5, 2))),
]


@pytest.mark.parametrize("kappa", [F(7), F(-5, 3)])
@pytest.mark.parametrize("weights, points", CHAIN_CASES)
def test_chain_classes_match_interpolation(weights, points, kappa):
    arr = build_arrangement(weights, points, kappa=kappa)
    lattice = intersection_lattice(arr)
    aspace = AomotoSpace(arr, lattice, arr.dimension)
    space = TensorSpace(weights)
    psis = invariant_functionals(space)
    assert psis
    for psi in psis:
        cls = omega_sv(arr, space, psi, points, aomoto_space=aspace)
        expected = _interpolated_class(arr, lattice, space, psi, points, aspace)
        assert cls == tuple(expected)
        assert any(c != 0 for c in cls)


def test_chain_classes_look_up_hyperplanes_by_form():
    # the hyperplanes in reverse order, with the diagonal stored as
    # t_2 - t_1 and one point form doubled: the chains must find them by
    # form, and dlog(c f) = dlog f leaves every sign alone
    weights, points = [2, 1, 1], (F(-1, 3), F(1, 2), F(2))
    arr = build_arrangement(weights, points, kappa=3)
    forms = [
        AffineForm(-f.constant, tuple(-g for g in f.gradient))
        if f.constant == 0 else f for f in arr.forms
    ]
    forms[0] = AffineForm(2 * forms[0].constant,
                          tuple(2 * g for g in forms[0].gradient))
    moved = WeightedArrangement(arr.dimension, forms[::-1], arr.weights[::-1],
                                coloring=arr.coloring)
    lattice = intersection_lattice(moved)
    aspace = AomotoSpace(moved, lattice, 2)
    space = TensorSpace(weights)
    for psi in invariant_functionals(space):
        cls = omega_sv(moved, space, psi, points, aomoto_space=aspace)
        expected = _interpolated_class(moved, lattice, space, psi, points, aspace)
        assert cls == tuple(expected)


def test_chain_classes_refuse_a_missing_hyperplane():
    # a weight-2 point takes two variables, so its chains need the diagonal
    points = (F(-1, 3), F(1, 2), F(2))
    arr = build_arrangement([2, 1, 1], points, kappa=3)
    no_diagonal = WeightedArrangement(arr.dimension, arr.forms[:-1],
                                      arr.weights[:-1], coloring=arr.coloring)
    lattice = intersection_lattice(no_diagonal)
    space = TensorSpace((2, 1, 1))
    psi = invariant_functionals(space)[0]
    with pytest.raises(NotInSpan, match="t_1 - t_2"):
        omega_sv(no_diagonal, space, psi, points,
                 AomotoSpace(no_diagonal, lattice, no_diagonal.dimension))


def test_chain_classes_three_variables_pointwise():
    # interpolation is far too slow an oracle at M=3, so the reduced
    # class is evaluated against psi(v) itself at fresh points
    weights = [2, 1, 1, 2]
    arr = build_arrangement(weights, ACCEPTANCE_POINTS, kappa=7)
    assert arr.dimension == 3
    lattice = intersection_lattice(arr)
    aspace = AomotoSpace(arr, lattice, 3)
    space = TensorSpace(weights)
    zero = space.zero_weight_indices()
    psis = invariant_functionals(space)
    assert len(psis) == 2
    for n, psi in enumerate(psis):
        rep = omega_sv(arr, space, psi, ACCEPTANCE_POINTS,
                       aomoto_space=aspace)
        assert any(c != 0 for c in rep)
        for k in range(3):
            pt = random_point_avoiding(arr.forms, seed=100 * n + k, dimension=3)
            values = sv_vector_eval(space, pt, ACCEPTANCE_POINTS)
            expected = sum(p * values[z] for p, z in zip(psi, zero))
            got = sum(c * monomial_value(arr, sub, pt)
                      for c, sub in zip(rep, aspace.monomials) if c)
            assert got == expected, (n, pt)
