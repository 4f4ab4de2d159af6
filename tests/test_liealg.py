"""sl2 tensor invariants, coinvariants and conformal block dimensions."""

import functools
import random
from fractions import Fraction
from itertools import product

import pytest

from aomoto_lab import kz, linalg
from aomoto_lab.cli import run
from aomoto_lab.errors import (
    DuplicatePoints,
    LevelViolation,
    UnsupportedAlgebra,
    WeightMismatch,
)
from aomoto_lab.liealg import (
    TensorSpace,
    conformal_block_dim,
    coinvariants_quotient,
    invariant_functionals,
    invariants_dim,
    zero_weight_dim,
)
from aomoto_lab.svmap import build_arrangement

F = Fraction


# ---------------------------------------------------------------------------
# Dense oracle: the whole-space matrix computations that the weight-0
# code replaced, kept here to check it.  They build dim V x dim V
# matrices from the formulas in the liealg docstring and share no code
# with TensorSpace.  The cached matrices are read, never modified.


def _dense_basis(ms):
    basis = list(product(*(range(m + 1) for m in ms)))
    return basis, {b: i for i, b in enumerate(basis)}


def _dense_small(op, m):
    out = [[F(0)] * (m + 1) for _ in range(m + 1)]
    for k in range(m + 1):
        if op == "e" and k > 0:
            out[k - 1][k] = F(k * (m - k + 1))
        elif op == "f" and k < m:
            out[k + 1][k] = F(1)
        elif op == "h":
            out[k][k] = F(m - 2 * k)
    return out


@functools.lru_cache(maxsize=None)
def _dense_on_factor(ms, op, factor):
    basis, index = _dense_basis(ms)
    small = _dense_small(op, ms[factor])
    out = [[F(0)] * len(basis) for _ in basis]
    for col, b in enumerate(basis):
        for krow in range(ms[factor] + 1):
            c = small[krow][b[factor]]
            if c != 0:
                out[index[b[:factor] + (krow,) + b[factor + 1:]]][col] = c
    return out


@functools.lru_cache(maxsize=None)
def _dense_total(ms, op):
    n = len(_dense_basis(ms)[0])
    out = [[F(0)] * n for _ in range(n)]
    for i in range(len(ms)):
        block = _dense_on_factor(ms, op, i)
        for r in range(n):
            for c in range(n):
                out[r][c] += block[r][c]
    return out


def _columns(mat):
    return [list(col) for col in zip(*mat)]


def _dense_g_span(ms):
    return [col for op in ("e", "f", "h") for col in _columns(_dense_total(ms, op))]


def _dense_conformal_block_dim(ms, level, points):
    n = len(_dense_basis(ms)[0])
    T = [[F(0)] * n for _ in range(n)]
    for i, z in enumerate(points):
        block = _dense_on_factor(ms, "e", i)
        for r in range(n):
            for c in range(n):
                T[r][c] += z * block[r][c]
    power = linalg.identity(n)
    for _ in range(level + 1):
        power = linalg.matmul(T, power)
        if not any(any(row) for row in power):
            break
    return n - linalg.rank(_dense_g_span(ms) + _columns(power))


def _dense_invariant_functionals(ms):
    basis, _ = _dense_basis(ms)
    weight = [sum(m - 2 * k for m, k in zip(ms, b)) for b in basis]
    zero = [i for i, w in enumerate(weight) if w == 0]
    e_mat, f_mat = _dense_total(ms, "e"), _dense_total(ms, "f")
    constraints = []
    for i, w in enumerate(weight):
        if w == -2:
            constraints.append([e_mat[z][i] for z in zero])
        elif w == 2:
            constraints.append([f_mat[z][i] for z in zero])
    return linalg.nullspace(constraints, len(zero))


def _unit(n, idx):
    return [F(1) if r == idx else F(0) for r in range(n)]


def _dense_coinvariants_quotient(ms):
    n = len(_dense_basis(ms)[0])
    g_basis, _ = linalg.rref(_dense_g_span(ms))
    chosen, current = [], list(g_basis)
    for idx in range(n):
        if linalg.rank(current + [_unit(n, idx)]) > len(current):
            chosen.append(idx)
            current.append(_unit(n, idx))
    # x = (g V part) + sum_k c_k unit_{chosen[k]}: c is the tail of mat^-1 x
    mat = [list(row) for row in zip(*(g_basis + [_unit(n, i) for i in chosen]))]
    inverse, _ = linalg.rref([row + _unit(n, r) for r, row in enumerate(mat)])
    return chosen, [row[n:] for row in inverse[len(g_basis):]]


def _dense_casimir_matrices(ms, chosen, projection):
    n = len(_dense_basis(ms)[0])
    out = {}
    for j in range(len(ms)):
        for k in range(j + 1, len(ms)):
            cols = []
            for idx in chosen:
                # Omega_jk unit = e^(j) f^(k) unit + f^(j) e^(k) unit + h h / 2
                image = [F(0)] * n
                for scale, a, b in ((1, "e", "f"), (1, "f", "e"), (F(1, 2), "h", "h")):
                    part = linalg.matvec(_dense_on_factor(ms, a, j), linalg.matvec(
                        _dense_on_factor(ms, b, k), _unit(n, idx)))
                    image = [x + scale * y for x, y in zip(image, part)]
                cols.append(linalg.matvec(projection, image))
            out[(j, k)] = [list(row) for row in zip(*cols)]
    return out


def _dense_vector(space, vec):
    out = [F(0)] * space.dim
    for b, c in vec.items():
        out[space.index[b]] += c
    return out


def test_sl2_pairings():
    # (m omega, theta) = m: a weight is admitted up to the level itself
    points = (F(0), F(1), F(3))
    assert conformal_block_dim([2, 1, 1], 2, points) == 1
    with pytest.raises(LevelViolation):
        conformal_block_dim([2, 1, 1], 1, points)
    # (m omega, alpha) = m and (alpha, alpha) = 2 weight the arrangement
    arr = build_arrangement([2, 1, 1], points, kappa=7)
    assert list(arr.weights) == [F(2, 7), F(1, 7), F(1, 7),
                                 F(2, 7), F(1, 7), F(1, 7), F(-2, 7)]


def test_sl2_commutation_relations():
    # [e, f] = h and [h, e] = 2 e on every basis vector, factor by factor
    for ms in [(1,), (2,), (3,), (2, 1)]:
        space = TensorSpace(ms)
        for b in space.basis:
            v = {b: F(1)}
            ef = _dense_vector(space, space.total_act("e", space.total_act("f", v)))
            fe = _dense_vector(space, space.total_act("f", space.total_act("e", v)))
            h = _dense_vector(space, space.total_act("h", v))
            assert [x - y for x, y in zip(ef, fe)] == h
            he = _dense_vector(space, space.total_act("h", space.total_act("e", v)))
            eh = _dense_vector(space, space.total_act("e", space.total_act("h", v)))
            e = _dense_vector(space, space.total_act("e", v))
            assert [x - y for x, y in zip(he, eh)] == [2 * x for x in e]


def test_tensor_space_weights_and_zero_weight_basis():
    space = TensorSpace((1, 1))
    assert space.dim == 4
    assert space.weight((0, 0)) == 2
    assert space.weight((1, 1)) == -2
    assert space.zero_weight_indices() == [space.index[(0, 1)], space.index[(1, 0)]]
    assert space.weight_basis(0) == [(0, 1), (1, 0)]
    assert space.weight_basis(-4) == []


def test_total_action_is_sum_of_factors():
    space = TensorSpace((1, 2))
    for op in ("e", "f", "h"):
        dense = _dense_total(space.ms, op)
        for col, b in enumerate(space.basis):
            total = _dense_vector(space, space.total_act(op, {b: F(1)}))
            parts = [_dense_vector(space, space.act(op, i, {b: F(1)})) for i in (0, 1)]
            assert total == [x + y for x, y in zip(*parts)]
            assert total == [row[col] for row in dense]


def test_zero_weight_dim_counts_the_weight_zero_basis():
    for ms in [(1,), (1, 1), (2, 1, 1), (3, 3, 1, 1), (1,) * 6, (2, 2, 2, 2), (5, 5, 5, 5)]:
        assert zero_weight_dim(ms) == len(TensorSpace(ms).weight_basis(0)), ms


def test_invariants_dim_examples():
    assert invariants_dim([(1,), (1,)]) == 1
    assert invariants_dim([1, 1, 1, 1]) == 2
    assert invariants_dim([2, 2, 2]) == 1
    assert invariants_dim([1]) == 0
    assert invariants_dim([1, 1, 1]) == 0
    assert invariants_dim([3, 1]) == 0
    assert invariants_dim([2, 2]) == 1


def test_invariants_dim_matches_invariant_vector_count():
    # independent route: the multiplicity of the trivial rep equals the
    # dimension of the simultaneous kernel of e, f and h on the product
    for ms in [(1, 1), (1, 1, 1, 1), (2, 2, 2), (2, 1, 1), (3, 3)]:
        space = TensorSpace(ms)
        rows = []
        for op in ("e", "f", "h"):
            rows.extend(_dense_total(ms, op))
        kernel = linalg.nullspace(rows, space.dim)
        assert len(kernel) == invariants_dim(list(ms)), ms


def test_invariant_functionals_kill_lowering_and_raising():
    for ms in [(1, 1), (1, 1, 1, 1), (2, 2, 2)]:
        space = TensorSpace(ms)
        zero = space.zero_weight_indices()
        funcs = invariant_functionals(space)
        assert len(funcs) == invariants_dim(list(ms))
        e = _dense_total(ms, "e")
        f = _dense_total(ms, "f")
        for psi in funcs:
            full = [F(0)] * space.dim
            for z, c in zip(zero, psi):
                full[z] = c
            for col in range(space.dim):
                assert sum(full[r] * e[r][col] for r in range(space.dim)) == 0
                assert sum(full[r] * f[r][col] for r in range(space.dim)) == 0


def test_coinvariants_match_invariants_dim():
    for ms in [(1, 1), (1, 1, 1, 1), (2, 2)]:
        space = TensorSpace(ms)
        chosen, projection = coinvariants_quotient(space)
        assert len(chosen) == invariants_dim(list(ms))
        # the projection annihilates every vector in g V
        e = _dense_total(ms, "e")
        for col in range(space.dim):
            vec = [e[r][col] for r in range(space.dim)]
            coords = [
                sum(projection[k][r] * vec[r] for r in range(space.dim))
                for k in range(len(chosen))
            ]
            assert all(c == 0 for c in coords)
        # and restricts to the identity on the chosen representatives
        for k, idx in enumerate(chosen):
            unit = [F(0)] * space.dim
            unit[idx] = F(1)
            coords = [
                sum(projection[j][r] * unit[r] for r in range(space.dim))
                for j in range(len(chosen))
            ]
            assert coords == [F(1) if j == k else F(0) for j in range(len(chosen))]


def test_conformal_block_dims_four_points():
    points = (F(-1, 2), F(0), F(1, 2), F(1))
    weights = [1, 1, 1, 1]
    assert conformal_block_dim(weights, 1, points) == 1
    assert conformal_block_dim(weights, 2, points) == 2
    assert conformal_block_dim(weights, 5, points) == 2


def test_conformal_block_errors():
    with pytest.raises(LevelViolation):
        conformal_block_dim([2, 2], 1, (0, 1))
    with pytest.raises(LevelViolation):
        conformal_block_dim([1, 1], 0, (0, 1))
    with pytest.raises(DuplicatePoints):
        conformal_block_dim([1, 1], 1, (3, 3))
    with pytest.raises(WeightMismatch):
        conformal_block_dim([1, 1, 1], 1, (0, 1))


def test_sl2_only_guards():
    # the config names the algebra, and only A1 gets past it
    for algebra in ({"type": "A", "rank": 2}, {"type": "B", "rank": 1}):
        with pytest.raises(UnsupportedAlgebra):
            run("invariants", {"weights": [1, 1], "algebra": algebra})
    with pytest.raises(WeightMismatch):
        invariants_dim([(1, 0)])
    with pytest.raises(WeightMismatch):
        invariants_dim([-1])


ORACLE_SHAPES = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (2, 1, 1, 2), (3, 3, 1, 1),
                 (1,) * 6, (2, 2, 2, 2)]


@pytest.mark.parametrize("ms", ORACLE_SHAPES, ids=lambda ms: "-".join(map(str, ms)))
def test_weight_zero_computations_match_the_dense_oracle(ms):
    rng = random.Random("oracle" + repr(ms))
    points = [F(p, rng.randint(1, 12)) for p in rng.sample(range(-40, 40), len(ms))]
    # where sum(ms) is large enough the two lowest levels have T rows;
    # sum(ms) // 2 + 1 never has any
    levels = sorted({max(ms), max(ms) + 1, sum(ms) // 2 + 1})
    for level in levels:
        assert (conformal_block_dim(list(ms), level, points)
                == _dense_conformal_block_dim(ms, level, points)), (level, points)
    space = TensorSpace(ms)
    assert invariant_functionals(space) == _dense_invariant_functionals(ms)
    chosen, projection = _dense_coinvariants_quotient(ms)
    assert coinvariants_quotient(space) == (chosen, projection)
    assert kz._casimir_matrices(ms) == _dense_casimir_matrices(ms, chosen, projection)

