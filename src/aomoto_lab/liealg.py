"""sl2 representations, tensor invariants and conformal blocks.

sl2 is the only algebra.  A highest weight is an integer m >= 0, the
multiple m omega of the fundamental weight; with the invariant form
normalized so that (alpha, alpha) = 2 for the simple root alpha = theta,
(m omega, theta) = m.  The irrep of highest weight m uses the basis
w_0, ..., w_m with

    f w_k = w_{k+1},   e w_k = k (m - k + 1) w_{k-1},   h w_k = (m - 2k) w_k,

so all actions are integral.  A tensor product acts on sparse vectors,
{basis tuple: coefficient}, one factor at a time.  Every space involved
is graded by weight and every nonzero weight space lies in h V, so all
the quotients are computed on the weight-0 space V_0 alone: coinvariants
are V_0 / e V_-2, and conformal blocks at level l are
V_0 / (e V_-2 + T^(l+1) V_-2(l+1)) with T = sum_i z_i e^(i)
(Feigin, Schechtman and Varchenko, 1994).  Inside V_0, f V_2 = e V_-2:
both are the weight-0 part of the nontrivial isotypic components.  Ranks
are exact, over Fraction.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import linalg
from .errors import (
    DuplicatePoints,
    LevelViolation,
    TooManyWeightVectors,
    WeightMismatch,
)

# conformal blocks refuse tensor products with more weight-0 basis vectors:
# at 141 (six weight-2 points at level 2) the dense V_0 rank takes 0.3 to
# 0.5 s of CPU on one core of a 2-vCPU x86-64 VM
MAX_ZERO_WEIGHT_DIM = 100


@dataclass(frozen=True)
class Sl2Rep:
    """The (m+1)-dimensional irrep with integral actions in the w_k basis."""

    m: int

    @property
    def dim(self):
        return self.m + 1

    def act(self, op, k):
        """(j, c) with op w_k = c w_j, or None when op w_k = 0."""
        if op == "e":
            return (k - 1, k * (self.m - k + 1)) if k else None
        if op == "f":
            return (k + 1, 1) if k < self.m else None
        if op == "h":
            return (k, self.m - 2 * k) if 2 * k != self.m else None
        raise ValueError(f"unknown sl2 generator {op!r}")


class TensorSpace:
    """Tensor product of sl2 irreps; basis tuples (k_1, ..., k_n) in lex order.

    Vectors are sparse: dicts {basis tuple: coefficient}.
    """

    def __init__(self, highest_weights):
        self.ms = tuple(int(m) for m in highest_weights)
        if any(m < 0 for m in self.ms):
            raise ValueError("highest weights must be nonnegative integers")
        self.factors = tuple(Sl2Rep(m) for m in self.ms)
        self.basis = list(product(*(range(m + 1) for m in self.ms)))
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._weight_spaces = {}
        for b in self.basis:
            self._weight_spaces.setdefault(self.weight(b), []).append(b)

    def weight(self, basis_tuple):
        return sum(m - 2 * k for m, k in zip(self.ms, basis_tuple))

    def weight_basis(self, wt):
        """Basis tuples of weight wt in lex order; empty if wt is not a weight."""
        return self._weight_spaces.get(wt, [])

    def zero_weight_indices(self):
        """Flat indices of the weight-0 product basis vectors, in lex order.

        This ordering is the documented coordinate convention for
        functionals on the zero-weight space.
        """
        return [self.index[b] for b in self.weight_basis(0)]

    def act(self, op, factor, vec):
        """1 x ... x op x ... x 1, op on the given factor, applied to vec."""
        rep = self.factors[factor]
        out = {}
        for b, c in vec.items():
            hit = rep.act(op, b[factor])
            if hit is not None:
                target = b[:factor] + (hit[0],) + b[factor + 1 :]
                out[target] = out.get(target, 0) + hit[1] * c
        return out

    def total_act(self, op, vec, scales=None):
        """sum_i s_i op^(i) applied to vec, with s_i = 1 unless scales are given."""
        out = {}
        for i in range(len(self.ms)):
            s = 1 if scales is None else scales[i]
            for b, c in self.act(op, i, vec).items():
                out[b] = out.get(b, 0) + s * c
        return out


def zero_weight_dim(ms):
    """dim V_0 of the tensor product, counted from the highest weights alone.

    The weight-0 basis tuples are those with k_1 + ... + k_n = sum(m)/2,
    counted by a running-window product of the factors' ranges.
    """
    total = sum(ms)
    if total % 2:
        return 0
    half = total // 2
    counts = [1] + [0] * half
    for m in ms:
        window = 0
        nxt = []
        for d in range(half + 1):
            window += counts[d]
            if d > m:
                window -= counts[d - m - 1]
            nxt.append(window)
        counts = nxt
    return counts[half]


def invariants_dim(weights):
    """Multiplicity of the trivial representation in the tensor product.

    Computed by iterated Clebsch-Gordan decomposition of the highest
    weights, each a plain integer or a 1-tuple.
    """
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


def _coords(position, vec):
    """Dense Fraction coordinates of a sparse vector on a weight basis."""
    row = [Fraction(0)] * len(position)
    for b, c in vec.items():
        row[position[b]] += c
    return row


def _zero_weight_relations(space):
    """The weight-0 basis, its positions, and the rows spanning (g V)_0.

    The rows are e(b) for b of weight -2, in lex order of b, in V_0
    coordinates.  h kills V_0, and f V_2 = e V_-2 inside V_0: in a
    finite-dimensional module both are the weight-0 part of the
    nontrivial isotypic components.  So rows f(b) for b of weight +2
    would change no rank, kernel or chosen class.
    """
    zero = space.weight_basis(0)
    position = {b: i for i, b in enumerate(zero)}
    rows = [_coords(position, space.total_act("e", {b: 1}))
            for b in space.weight_basis(-2)]
    return zero, position, rows


def coinvariants_quotient(space):
    """Basis and projection for V / (e V + f V + h V).

    Picks quotient basis vectors greedily from the product basis in lex
    order; returns (indices, projection) where projection maps a vector
    of V to its coordinates on the chosen classes.  Every nonzero weight
    space lies in h V, so only weight-0 vectors are chosen and the other
    projection columns are zero.  A weight-0 basis vector is skipped
    exactly when it is the last nonzero entry of some vector of (g V)_0,
    so the skipped ones are the pivots of the echelon form taken with
    columns reversed, and each pivot row gives that vector's coordinates.
    """
    zero, _, rows = _zero_weight_relations(space)
    n = len(zero)
    rev, rev_pivots = linalg.rref([row[::-1] for row in rows])
    skipped = {n - 1 - p: row[::-1] for p, row in zip(rev_pivots, rev)}
    kept = [i for i in range(n) if i not in skipped]
    chosen = [space.index[zero[i]] for i in kept]
    projection = [[Fraction(0)] * space.dim for _ in kept]
    for k, idx in enumerate(chosen):
        projection[k][idx] = Fraction(1)
    # b_p = (row in g V) - sum_k row[kept_k] b_{kept_k}
    for p, row in skipped.items():
        col = space.index[zero[p]]
        for k, i in enumerate(kept):
            projection[k][col] = -row[i]
    return chosen, projection


def conformal_block_dim(weights, level, points):
    """Dimension of the space of conformal blocks at the given level.

    The blocks are V / (g V + image of T^(level+1)) with
    T = sum_i z_i e^(i).  Every space here is graded by weight and every
    nonzero weight space lies in h V, so the quotient is

        V_0 / (e V_-2 + T^(level+1) V_-2(level+1)),

    and its dimension is dim V_0 minus the rank of those rows in V_0
    coordinates.  When V_-2(level+1) is empty, that is when
    level >= sum(m) / 2, there are no T rows and the blocks are the
    coinvariants, counted by invariants_dim with no elimination.
    Raises LevelViolation when some weight exceeds the level,
    DuplicatePoints for coinciding points, and TooManyWeightVectors when
    dim V_0 exceeds MAX_ZERO_WEIGHT_DIM.
    """
    level = int(level)
    if level < 1:
        raise LevelViolation("level must be a positive integer")
    ms = [_sl2_weight_int(w) for w in weights]
    for m in ms:
        if m > level:  # (m omega, theta) = m
            raise LevelViolation(f"weight {m} exceeds level {level}")
    pts = [Fraction(z) for z in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoints("marked points must be pairwise distinct")
    if len(pts) != len(ms):
        raise WeightMismatch("need exactly one marked point per weight")
    size = zero_weight_dim(ms)
    if size > MAX_ZERO_WEIGHT_DIM:
        raise TooManyWeightVectors(
            f"weights {ms} give {size} weight-0 basis vectors, above the "
            f"budget of {MAX_ZERO_WEIGHT_DIM}"
        )
    if 2 * (level + 1) > sum(ms):
        return invariants_dim(ms)
    space = TensorSpace(ms)
    zero, position, rows = _zero_weight_relations(space)
    for b in space.weight_basis(-2 * (level + 1)):
        vec = {b: Fraction(1)}
        for _ in range(level + 1):
            vec = space.total_act("e", vec, scales=pts)
        rows.append(_coords(position, vec))
    return len(zero) - linalg.rank(rows)


def invariant_functionals(space):
    """Basis of g-invariant functionals, as vectors on the zero-weight basis.

    A functional supported on weight 0 is invariant iff it kills e of the
    weight -2 vectors (and so f of the weight +2 vectors, which span the
    same subspace of V_0); the basis is the canonical echelon basis of
    that null space, in the documented zero-weight ordering.
    """
    zero, _, rows = _zero_weight_relations(space)
    return linalg.nullspace(rows, len(zero))
