"""Exact dense linear algebra over an ordered-by-hand field.

Entries are fractions.Fraction or any field-like scalar supporting
+, -, *, / among themselves, multiplication by int, and truth testing
(a scalar is falsy exactly when it is zero).  No floating point is used
anywhere; ranks and kernels are therefore exact.  Matrices are plain
lists of row lists and are never mutated by callers' handles (every
function copies what it returns), except that extend grows the echelon
it is given in place.  Every echelon is built by extend, one row at a
time; the reduced form is unique, so the order rows come in does not
change it.

Work that is provably zero is skipped: elimination leaves an entry alone
where the pivot row is zero, and a dot product drops terms with a zero
factor, tested by truth value (cheap for RatFuncKappa, where == builds a
constant).  An all-zero dot product returns u[0] * v[0], a zero of the
promoted type, because a RatFuncKappa zero serializes unlike a Fraction.
"""

from bisect import bisect_left
from fractions import Fraction


def extend(rows, pivots, vec):
    """Insert vec into the reduced echelon form (rows, pivots), in place.

    vec is reduced modulo the rows, scaled to a leading 1 at its leftmost
    nonzero entry, that column is cleared from the other rows, and the
    new row goes in at its place in pivot order.  Returns the new pivot
    column, or None (leaving rows and pivots alone) when vec lies in the
    row space.
    """
    out = list(vec)
    for row, pc in zip(rows, pivots):
        f = out[pc]
        if f:
            out = [a - f * b if b else a for a, b in zip(out, row)]
    lead = next((c for c, v in enumerate(out) if v), None)
    if lead is None:
        return None
    inv = out[lead]
    out = [v / inv for v in out]
    for i, row in enumerate(rows):
        f = row[lead]
        if f:
            rows[i] = [a - f * b if b else a for a, b in zip(row, out)]
    at = bisect_left(pivots, lead)
    rows.insert(at, out)
    pivots.insert(at, lead)
    return lead


def rref(matrix):
    """Reduced row echelon form, built by extending by each row in turn.

    Returns (rows, pivots) with leading coefficient 1 in each pivot column
    and zeros above and below it.  pivots lists the pivot column indices
    in increasing order.
    """
    rows, pivots = [], []
    for vec in matrix:
        extend(rows, pivots, vec)
    return rows, pivots


def rank(matrix):
    return len(rref(matrix)[0])


def nullspace(matrix, ncols):
    """Basis of the right kernel of `matrix` (ncols columns), as row vectors."""
    rows, pivots = rref(matrix)
    return rref_kernel(rows, pivots, ncols, *_zero_one(matrix))


def rref_kernel(rows, pivots, ncols, zero, one):
    """Right kernel of the matrix whose reduced echelon form is (rows, pivots).

    The basis is the canonical one: one vector per free column, with a 1
    at the free column.
    """
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return basis


def _zero_one(matrix):
    for row in matrix:
        for v in row:
            return v * 0, v * 0 + 1
    return Fraction(0), Fraction(1)


def solve(matrix, rhs):
    """One exact solution of matrix * x = rhs with free variables set to 0.

    Returns None when the system is inconsistent.
    """
    if not matrix:
        if any(v != 0 for v in rhs):
            return None
        return []
    aug = [list(r) + [b] for r, b in zip(matrix, rhs)]
    rows, pivots = rref(aug)
    ncols = len(matrix[0])
    zero = rhs[0] * 0 if rhs else Fraction(0)
    for row in rows:
        if all(v == 0 for v in row[:ncols]) and row[ncols] != 0:
            return None
    x = [zero] * ncols
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = rows[i][ncols]
    return x


def reduce_mod_rowspace(vec, rref_rows, pivots):
    """Canonical representative of `vec` modulo the row space of an rref basis.

    Pivot coordinates of the result are zero; two vectors are congruent
    modulo the row space iff their reductions are equal.
    """
    out = list(vec)
    for row, pc in zip(rref_rows, pivots):
        f = out[pc]
        if f:
            out = [a - f * b if b else a for a, b in zip(out, row)]
    return out


def _dot(u, v):
    acc = None
    for a, b in zip(u, v):
        if a and b:
            acc = a * b if acc is None else acc + a * b
    if acc is None:
        return u[0] * v[0] if u and v else Fraction(0)
    return acc


def matvec(matrix, x):
    return [_dot(row, x) for row in matrix]


def matmul(a, b):
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[_dot(row, col) for col in bt] for row in a]
