"""Root data, sl2 representations, tensor invariants and conformal blocks.

Root data covers every simple Cartan type, enough for weight arithmetic:
the invariant form is normalized so the highest root theta satisfies
(theta, theta) = 2, weights are held in fundamental-weight coordinates,
and the dual involution -w0 acts through the diagram automorphism.

Representation-space computations (invariants, coinvariants, conformal
blocks) are implemented for sl2 only and raise UnsupportedAlgebra
otherwise.  The sl2 irrep of highest weight m uses the basis
w_0, ..., w_m with

    f w_k = w_{k+1},   e w_k = k (m - k + 1) w_{k-1},   h w_k = (m - 2k) w_k,

so all matrices are integral.  Conformal block dimensions at level l are
codimensions of g V + image of (sum_i z_i e^(i))^(l+1) inside the tensor
product.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import linalg
from .errors import (
    DuplicatePoints,
    LevelViolation,
    UnsupportedAlgebra,
    WeightMismatch,
)

_MARKS = {
    "A": lambda n: [1] * n,
    "B": lambda n: [1] + [2] * (n - 1),
    "C": lambda n: [2] * (n - 1) + [1],
    "D": lambda n: [1] + [2] * (n - 3) + [1, 1],
    "E": {6: [1, 2, 2, 3, 2, 1], 7: [2, 2, 3, 4, 3, 2, 1], 8: [2, 3, 4, 6, 5, 4, 3, 2]},
    "F": {4: [2, 3, 4, 2]},
    "G": {2: [3, 2]},
}

_DUAL_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": {6: 12, 7: 18, 8: 30},
    "F": {4: 9},
    "G": {2: 4},
}


def _cartan_matrix(letter, n):
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    if letter == "A":
        if n < 1:
            raise ValueError("type A needs rank >= 1")
        for i in range(n - 1):
            bond(i, i + 1)
    elif letter == "B":
        if n < 2:
            raise ValueError("type B needs rank >= 2")
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, aij=-2, aji=-1)
    elif letter == "C":
        if n < 2:
            raise ValueError("type C needs rank >= 2")
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, aij=-1, aji=-2)
    elif letter == "D":
        if n < 4:
            raise ValueError("type D needs rank >= 4")
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif letter == "E":
        if n not in (6, 7, 8):
            raise ValueError("type E needs rank 6, 7 or 8")
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif letter == "F":
        if n != 4:
            raise ValueError("type F needs rank 4")
        bond(0, 1)
        bond(1, 2, aij=-2, aji=-1)
        bond(2, 3)
    elif letter == "G":
        if n != 2:
            raise ValueError("type G needs rank 2")
        bond(0, 1, aij=-1, aji=-3)
    else:
        raise ValueError(f"unknown Cartan type {letter!r}")
    return A


def _root_norms(letter, n, cartan):
    # half squared lengths s_i with long roots normalized to s = 1;
    # fixed by symmetrizing the Cartan matrix: s_j A_ij = s_i A_ji
    s = [None] * n
    s[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i != j and cartan[i][j] != 0:
                    if s[i] is not None and s[j] is None:
                        s[j] = s[i] * cartan[j][i] / cartan[i][j]
                        changed = True
    top = max(s)
    return tuple(x / top for x in s)


class RootData:
    """Cartan matrix, invariant form and highest-root data for a simple type."""

    def __init__(self, letter, rank):
        letter = letter.upper()
        self.letter = letter
        self.rank = int(rank)
        self.cartan = tuple(tuple(row) for row in _cartan_matrix(letter, self.rank))
        self.root_norms = _root_norms(letter, self.rank, self.cartan)
        marks = _MARKS[letter]
        self.theta_marks = tuple(
            marks(self.rank) if callable(marks) else marks[self.rank]
        )
        dual = _DUAL_COXETER[letter]
        self.dual_coxeter = dual(self.rank) if callable(dual) else dual[self.rank]

    def simple_root_fund(self, j):
        """Fundamental-weight coordinates of the simple root alpha_j."""
        return tuple(Fraction(self.cartan[j][i]) for i in range(self.rank))

    def theta_fund(self):
        """Fundamental-weight coordinates of the highest root."""
        coords = [Fraction(0)] * self.rank
        for j, m in enumerate(self.theta_marks):
            for i in range(self.rank):
                coords[i] += m * self.cartan[j][i]
        return tuple(coords)

    def root_coords(self, weight):
        """Simple-root coordinates of a weight given in fundamental coordinates."""
        At = [[Fraction(self.cartan[j][i]) for j in range(self.rank)] for i in range(self.rank)]
        x = linalg.solve(At, [Fraction(c) for c in weight])
        if x is None:
            raise ValueError("Cartan matrix is singular; cannot happen for simple types")
        return tuple(x)

    def weight_pairing(self, lam, mu):
        """Invariant form (lam, mu), both in fundamental coordinates.

        Normalized so (theta, theta) = 2; concretely (omega_i, alpha_j)
        equals delta_ij times half the squared length of alpha_j.
        """
        x = self.root_coords(lam)
        return sum(
            xj * self.root_norms[j] * Fraction(mu[j]) for j, xj in enumerate(x)
        )

    def dual_weight(self, lam):
        """The weight of the dual representation, -w0 applied to lam."""
        lam = tuple(Fraction(c) for c in lam)
        n = self.rank
        if self.letter == "A" and n >= 2:
            return tuple(reversed(lam))
        if self.letter == "D" and n % 2 == 1:
            return lam[: n - 2] + (lam[n - 1], lam[n - 2])
        if self.letter == "E" and n == 6:
            return (lam[5], lam[1], lam[4], lam[3], lam[2], lam[0])
        return lam


def sl2():
    return RootData("A", 1)


# ---------------------------------------------------------------------------
# sl2 representations


def _require_sl2(root):
    if root.letter != "A" or root.rank != 1:
        raise UnsupportedAlgebra(
            f"only sl2 is supported here, got type {root.letter}{root.rank}"
        )


@dataclass(frozen=True)
class Sl2Rep:
    """The (m+1)-dimensional irrep with integral matrices in the w_k basis."""

    m: int

    @property
    def dim(self):
        return self.m + 1

    def matrix(self, op):
        n = self.dim
        out = [[Fraction(0)] * n for _ in range(n)]
        if op == "e":
            for k in range(1, n):
                out[k - 1][k] = Fraction(k * (self.m - k + 1))
        elif op == "f":
            for k in range(n - 1):
                out[k + 1][k] = Fraction(1)
        elif op == "h":
            for k in range(n):
                out[k][k] = Fraction(self.m - 2 * k)
        else:
            raise ValueError(f"unknown sl2 generator {op!r}")
        return out


class TensorSpace:
    """Tensor product of sl2 irreps; basis tuples (k_1, ..., k_n) in lex order."""

    def __init__(self, highest_weights):
        self.ms = tuple(int(m) for m in highest_weights)
        if any(m < 0 for m in self.ms):
            raise ValueError("highest weights must be nonnegative integers")
        self.factors = tuple(Sl2Rep(m) for m in self.ms)
        self.basis = list(product(*(range(m + 1) for m in self.ms)))
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)

    def weight(self, basis_tuple):
        return sum(m - 2 * k for m, k in zip(self.ms, basis_tuple))

    def zero_weight_indices(self):
        """Flat indices of the weight-0 product basis vectors, in lex order.

        This ordering is the documented coordinate convention for
        functionals on the zero-weight space.
        """
        return [i for i, b in enumerate(self.basis) if self.weight(b) == 0]

    def op_on_factor(self, op, factor):
        """Dense matrix of 1 x ... x op x ... x 1 acting on the given factor."""
        small = self.factors[factor].matrix(op)
        n = self.dim
        out = [[Fraction(0)] * n for _ in range(n)]
        for col, b in enumerate(self.basis):
            k = b[factor]
            for krow in range(self.ms[factor] + 1):
                c = small[krow][k]
                if c != 0:
                    target = b[:factor] + (krow,) + b[factor + 1 :]
                    out[self.index[target]][col] = c
        return out

    def total_action(self, op):
        """Matrix of the diagonal action sum_i op^(i)."""
        n = self.dim
        out = [[Fraction(0)] * n for _ in range(n)]
        for i in range(len(self.ms)):
            block = self.op_on_factor(op, i)
            for r in range(n):
                for c in range(n):
                    out[r][c] += block[r][c]
        return out


def invariants_dim(root, weights):
    """Multiplicity of the trivial representation in the tensor product.

    Computed by iterated Clebsch-Gordan decomposition of the highest
    weights (sl2 only; weights are fundamental coordinates, so each is a
    1-tuple or plain integer).
    """
    _require_sl2(root)
    ms = [_sl2_weight_int(w) for w in weights]
    counts = {0: 1}
    for m in ms:
        nxt = {}
        for j, mult in counts.items():
            for k in range(abs(j - m), j + m + 1, 2):
                nxt[k] = nxt.get(k, 0) + mult
        counts = nxt
    return counts.get(0, 0)


def _sl2_weight_int(w):
    if isinstance(w, (tuple, list)):
        if len(w) != 1:
            raise WeightMismatch("sl2 weights have a single fundamental coordinate")
        w = w[0]
    m = int(w)
    if m != w or m < 0:
        raise WeightMismatch("sl2 highest weights must be nonnegative integers")
    return m


def coinvariants_quotient(space):
    """Basis and projection for V / (e V + f V + h V).

    Picks quotient basis vectors greedily from the product basis in lex
    order; returns (indices, projection) where projection maps a vector
    of V to its coordinates on the chosen classes.
    """
    stacked = []
    for op in ("e", "f", "h"):
        mat = space.total_action(op)
        for col in range(space.dim):
            stacked.append([mat[r][col] for r in range(space.dim)])
    g_rref, g_pivots = linalg.rref(stacked)
    g_basis = [list(r) for r in g_rref]
    chosen = []
    current = list(g_basis)
    current_rank = len(g_basis)
    for idx in range(space.dim):
        unit = [Fraction(0)] * space.dim
        unit[idx] = Fraction(1)
        if linalg.rank(current + [unit]) > current_rank:
            chosen.append(idx)
            current.append(unit)
            current_rank += 1
    # coordinates: write x = (gV part) + sum c_k * unit_{chosen[k]}
    columns = [list(col) for col in g_basis] + [
        [Fraction(1) if r == idx else Fraction(0) for r in range(space.dim)]
        for idx in chosen
    ]
    mat = [list(row) for row in zip(*columns)]
    n_g = len(g_basis)
    projection = []
    inv_cols = []
    for r in range(space.dim):
        rhs = [Fraction(1) if i == r else Fraction(0) for i in range(space.dim)]
        sol = linalg.solve(mat, rhs)
        inv_cols.append(sol[n_g:])
    projection = [list(row) for row in zip(*inv_cols)]
    return chosen, projection


def conformal_block_dim(root, weights, level, points):
    """Dimension of the space of conformal blocks at the given level.

    Computed as dim of V / (g V + image of T^(level+1)) with
    T = sum_i z_i e^(i).  Raises LevelViolation when some weight exceeds
    the level and DuplicatePoints for coinciding points.
    """
    _require_sl2(root)
    level = int(level)
    if level < 1:
        raise LevelViolation("level must be a positive integer")
    ms = [_sl2_weight_int(w) for w in weights]
    theta = root.theta_fund()
    for m in ms:
        if root.weight_pairing((Fraction(m),), theta) > level:
            raise LevelViolation(f"weight {m} exceeds level {level}")
    pts = [Fraction(z) for z in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoints("marked points must be pairwise distinct")
    if len(pts) != len(ms):
        raise WeightMismatch("need exactly one marked point per weight")
    space = TensorSpace(ms)
    T = [[Fraction(0)] * space.dim for _ in range(space.dim)]
    for i, z in enumerate(pts):
        block = space.op_on_factor("e", i)
        for r in range(space.dim):
            for c in range(space.dim):
                T[r][c] += z * block[r][c]
    # T raises the weight, so it is nilpotent: once a power vanishes,
    # every higher one does too
    power = linalg.identity(space.dim)
    for _ in range(level + 1):
        power = linalg.matmul(T, power)
        if not any(any(row) for row in power):
            break
    span = []
    for op in ("e", "f", "h"):
        mat = space.total_action(op)
        for col in range(space.dim):
            span.append([mat[r][col] for r in range(space.dim)])
    for col in range(space.dim):
        span.append([power[r][col] for r in range(space.dim)])
    return space.dim - linalg.rank(span)


def dual_weights(root, weights):
    """Componentwise -w0 on a list of fundamental-coordinate weights."""
    return tuple(root.dual_weight(tuple(Fraction(c) for c in _as_tuple(w))) for w in weights)


def _as_tuple(w):
    if isinstance(w, (tuple, list)):
        return tuple(w)
    return (w,)


def invariant_functionals(space):
    """Basis of g-invariant functionals, as vectors on the zero-weight basis.

    A functional supported on weight 0 is invariant iff it kills e of the
    weight -2 vectors and f of the weight +2 vectors; the basis is the
    canonical echelon basis of that null space, in the documented
    zero-weight ordering.
    """
    zero = space.zero_weight_indices()
    constraints = []
    e_mat = space.total_action("e")
    f_mat = space.total_action("f")
    for i, b in enumerate(space.basis):
        wt = space.weight(b)
        if wt == -2:
            constraints.append([e_mat[z][i] for z in zero])
        elif wt == 2:
            constraints.append([f_mat[z][i] for z in zero])
    return linalg.nullspace(constraints, len(zero))
