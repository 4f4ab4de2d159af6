"""Exact elimination against textbook references.

The references (oracles.naive_rref and naive_reduce below) multiply and
subtract every entry, zero or not, and pick the first nonzero pivot
column by column, so they share no shortcut with linalg, which inserts
rows one at a time.  Reduced row echelon form is unique, so the two
orders must agree.
"""

import random
from fractions import Fraction

from aomoto_lab import linalg
from aomoto_lab.exactfield import RatFuncKappa
from oracles import naive_rref

F = Fraction


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


def ratfunc_cases(count=25):
    # entries of degree up to 2 over degree up to 1 in kappa, with zeros
    # and rational constants mixed in, and some dependent rows
    rng = random.Random(20261020)
    kappa = RatFuncKappa.kappa()

    def entry():
        roll = rng.random()
        if roll < 0.35:
            return RatFuncKappa()
        if roll < 0.5:
            return RatFuncKappa.constant(F(rng.randint(-5, 5), rng.randint(1, 3)))
        num = RatFuncKappa([F(rng.randint(-3, 3)) for _ in range(3)])
        return num / (kappa + rng.randint(1, 4)) if rng.random() < 0.4 else num

    for _ in range(count):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        matrix = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.4:
            i, j = rng.randrange(nrows), rng.randrange(nrows)
            scale = kappa - rng.randint(-2, 2)
            matrix.append([a + scale * b for a, b in zip(matrix[i], matrix[j])])
        yield matrix


def test_rref_over_ratfunc_matches_naive_reference():
    for matrix in ratfunc_cases():
        assert linalg.rref(matrix) == naive_rref(matrix)


def test_extend_grows_the_naive_echelon_one_row_at_a_time():
    cases = [m for _, m in seeded_cases()] + list(ratfunc_cases(10))
    for matrix in cases:
        rows, pivots = [], []
        for n, vec in enumerate(matrix, 1):
            before = set(pivots)
            lead = linalg.extend(rows, pivots, vec)
            want = naive_rref(matrix[:n])
            assert (rows, pivots) == want
            new = set(want[1]) - before
            assert lead == (new.pop() if new else None)


def test_extend_leaves_the_echelon_alone_on_a_dependent_vector():
    rows, pivots = linalg.rref([[F(1), F(2), F(0)], [F(0), F(0), F(3)]])
    echelon = ([list(r) for r in rows], list(pivots))
    assert linalg.extend(rows, pivots, [F(2), F(4), F(-5)]) is None
    assert linalg.extend(rows, pivots, [F(0)] * 3) is None
    assert (rows, pivots) == echelon
    assert linalg.extend(rows, pivots, [F(0), F(1), F(1)]) == 1
    assert pivots == [0, 1, 2]


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
