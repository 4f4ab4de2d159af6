"""Exact elimination against test-local textbook references.

The references below multiply and subtract every entry, zero or not, and
pick the first nonzero pivot, so they share no shortcut with linalg.
Reduced row echelon form is unique, so any pivot order must agree.
"""

import random
from fractions import Fraction

from aomoto_lab import linalg
from aomoto_lab.exactfield import RatFuncKappa

F = Fraction


def naive_rref(matrix):
    rows = [list(r) for r in matrix]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pick = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        lead = rows[r][c]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def naive_reduce(vec, rref_rows, pivots):
    out = list(vec)
    for row, pc in zip(rref_rows, pivots):
        f = out[pc]
        out = [a - f * b for a, b in zip(out, row)]
    return out


def sparse_matrix(rng, nrows, ncols, density):
    return [
        [F(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < density else F(0)
         for _ in range(ncols)]
        for _ in range(nrows)
    ]


def seeded_cases(count=60):
    rng = random.Random(20261018)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        matrix = sparse_matrix(rng, nrows, ncols, rng.choice((0.15, 0.3, 0.6)))
        if rng.random() < 0.3:
            # a dependent row, so some ranks fall short of min(nrows, ncols)
            i, j = rng.randrange(nrows), rng.randrange(nrows)
            scale = F(rng.randint(-3, 3), rng.randint(1, 3))
            matrix.append([a + scale * b for a, b in zip(matrix[i], matrix[j])])
        yield rng, matrix


def test_rref_matches_naive_reference():
    for _, matrix in seeded_cases():
        assert linalg.rref(matrix) == naive_rref(matrix)


def test_reduce_mod_rowspace_matches_naive_reference():
    for rng, matrix in seeded_cases():
        rows, pivots = naive_rref(matrix)
        for vec in sparse_matrix(rng, 3, len(matrix[0]), 0.4):
            expected = naive_reduce(vec, rows, pivots)
            assert linalg.reduce_mod_rowspace(vec, rows, pivots) == expected
            assert all(expected[pc] == 0 for pc in pivots)


def test_nullspace_is_the_canonical_kernel():
    for _, matrix in seeded_cases():
        ncols = len(matrix[0])
        rows, pivots = naive_rref(matrix)
        free = [c for c in range(ncols) if c not in pivots]
        basis = linalg.nullspace(matrix, ncols)
        assert len(basis) == len(free)
        for fc, vec in zip(free, basis):
            assert [vec[c] for c in free] == [F(c == fc) for c in free]
            for row in matrix:
                assert sum((a * b for a, b in zip(row, vec)), F(0)) == 0


def test_all_zero_matvec_over_ratfunc_keeps_the_type():
    kappa = RatFuncKappa.kappa()
    zero = RatFuncKappa()
    cases = [
        ([[F(0), F(0)], [F(0), F(0)]], [kappa, 1 / kappa]),
        ([[F(1), F(-2)], [F(0), F(3)]], [zero, zero]),
        ([[zero, zero]], [kappa, zero]),
    ]
    for matrix, vec in cases:
        out = linalg.matvec(matrix, vec)
        assert len(out) == len(matrix)
        for value in out:
            assert isinstance(value, RatFuncKappa)
            assert value.to_json() == {"num": ["0/1"], "den": ["1/1"]}


def test_matvec_mixed_zero_pattern_over_ratfunc():
    kappa = RatFuncKappa.kappa()
    matrix = [[F(0), F(1, 2), F(0)], [F(-1), F(0), F(2)]]
    vec = [kappa, kappa * kappa, F(0)]
    expected = [
        sum((a * b for a, b in zip(row, vec)), RatFuncKappa()) for row in matrix
    ]
    assert linalg.matvec(matrix, vec) == expected
