"""The twisted logarithmic complex of a weighted arrangement.

Degree p of the complex is spanned by wedge monomials
dlog f_{i_1} ^ ... ^ dlog f_{i_p} over increasing index subsets.  The
monomials satisfy linear relations; the quotient by those relations is
recovered exactly as the row space of the pairing matrix against flags,
so ranks never rely on floating point.  The differential is left wedge
with eta = sum_i a_i dlog f_i, and the top cohomology is the cokernel
of the differential in top degree.

The weight-diagonal map sends a functional tau on top-degree classes to
the class of sum_I (prod_{i in I} a_i) tau(e_I) e_I.  Restricted to
functionals annihilating the image of the differential (and composed
with the sign-character projector when the arrangement carries a
coloring), its image inside the top cohomology is the object the rest
of the package compares against tensor invariants.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .arrangement import color_group, perm_sign
from .errors import BasisMismatch
from .flags import enumerate_flags, phi


def monomials(size, p):
    """Increasing p-subsets of hyperplane indices, in lexicographic order."""
    return list(combinations(range(size), p))


def insertion_sign(subset, j):
    """Sign of moving dlog f_j from the front into its sorted slot of subset."""
    k = sum(1 for i in subset if i < j)
    return -1 if k % 2 else 1


def pairing_matrix(arrangement, lattice, p):
    """Matrix of duality functionals: rows = monomials, columns = raw flags.

    Entries lie in {-1, 0, +1}; the rank equals the dimension of the
    degree-p logarithmic subalgebra and matches the Mobius count.
    """
    flags = enumerate_flags(lattice, p)
    rows = []
    for subset in monomials(arrangement.size, p):
        values = phi(arrangement, lattice, subset, flags=flags)
        rows.append([Fraction(v) for v in values])
    return rows


def differential(arrangement, p, vector):
    """Left wedge with eta on monomial coefficients, degree p -> p + 1.

    Refuses top-degree input: the complex ends at the dimension.
    """
    if p >= arrangement.dimension:
        raise ValueError("differential is undefined in top degree")
    if len(vector) != len(monomials(arrangement.size, p)):
        raise BasisMismatch(f"expected {len(monomials(arrangement.size, p))} coefficients")
    out_monomials = monomials(arrangement.size, p + 1)
    out_index = {m: k for k, m in enumerate(out_monomials)}
    out = [_zero(arrangement)] * len(out_monomials)
    for subset, c in zip(monomials(arrangement.size, p), vector):
        if c == 0:
            continue
        for j in range(arrangement.size):
            if j in subset:
                continue
            target = tuple(sorted(subset + (j,)))
            out[out_index[target]] = out[out_index[target]] + (
                arrangement.weights[j] * c * insertion_sign(subset, j)
            )
    return out


def _zero(arrangement):
    return arrangement.weights[0] * 0


def weight_product(arrangement, subset):
    acc = arrangement.weights[0] * 0 + 1
    for i in subset:
        acc = acc * arrangement.weights[i]
    return acc


class AomotoSpace:
    """Degree-p monomial space together with its relation kernel.

    The kernel of the flag pairing is stored in reduced echelon form;
    reduce() maps monomial coefficient vectors to the canonical
    representative with zero pivot coordinates, and coords() extracts
    quotient coordinates on the free (non-pivot) monomials.
    """

    def __init__(self, arrangement, lattice, p):
        self.arrangement = arrangement
        self.p = p
        self.monomials = monomials(arrangement.size, p)
        self.pairing = pairing_matrix(arrangement, lattice, p)
        transposed = [list(col) for col in zip(*self.pairing)] if self.pairing else []
        kernel = linalg.nullspace(transposed, len(self.monomials))
        self.kernel_rref, self.kernel_pivots = linalg.rref(kernel)
        self.free = [
            k for k in range(len(self.monomials)) if k not in set(self.kernel_pivots)
        ]
        self.dim = len(self.free)

    def reduce(self, vector):
        return linalg.reduce_mod_rowspace(vector, self.kernel_rref, self.kernel_pivots)

    def coords(self, vector):
        red = self.reduce(vector)
        return [red[k] for k in self.free]

    def basis_subsets(self):
        return [self.monomials[k] for k in self.free]


class AomotoComplex:
    """Lazy bundle of all degrees of the complex with induced differentials."""

    def __init__(self, arrangement, lattice):
        self.arrangement = arrangement
        self.lattice = lattice
        self._spaces = {}
        self._diffs = {}

    def space(self, p):
        if p not in self._spaces:
            self._spaces[p] = AomotoSpace(self.arrangement, self.lattice, p)
        return self._spaces[p]

    def differential_matrix(self, p):
        """Quotient matrix of wedge-with-eta from degree p to p + 1 (columns = basis)."""
        if p not in self._diffs:
            src, dst = self.space(p), self.space(p + 1)
            cols = []
            for k in src.free:
                vec = [_zero(self.arrangement)] * len(src.monomials)
                vec[k] = vec[k] + 1
                cols.append(dst.coords(differential(self.arrangement, p, vec)))
            self._diffs[p] = [list(row) for row in zip(*cols)] if cols else []
        return self._diffs[p]

    def cohomology_dim(self, p):
        M = self.arrangement.dimension
        if p < 0 or p > M:
            raise ValueError("degree outside the complex")
        rank_in = 0
        if p > 0:
            d_prev = self.differential_matrix(p - 1)
            rank_in = linalg.rank(d_prev)
        if p == M:
            return self.space(M).dim - rank_in
        d_here = self.differential_matrix(p)
        dim_ker = self.space(p).dim - linalg.rank(d_here)
        return dim_ker - rank_in


def cohomology_dim(arrangement, lattice, p):
    """dim H^p of the twisted complex; top degree is monomials modulo image."""
    return AomotoComplex(arrangement, lattice).cohomology_dim(p)


def chi_projector(arrangement, p):
    """Matrix of the sign-isotypic projector on degree-p monomials.

    Averages sign(sigma) times the signed permutation action of the
    coloring-preserving coordinate permutations.  Requires a coloring.
    """
    group = color_group(arrangement)
    mons = monomials(arrangement.size, p)
    index = {m: k for k, m in enumerate(mons)}
    n = len(mons)
    P = [[Fraction(0)] * n for _ in range(n)]
    scale = Fraction(1, len(group))
    for g in group:
        for col, subset in enumerate(mons):
            moved = [g.form_perm[i] for i in subset]
            order = tuple(sorted(range(len(moved)), key=lambda s: moved[s]))
            target = tuple(sorted(moved))
            if len(set(target)) != len(target):
                raise AssertionError("group element collapsed a monomial")
            row = index[target]
            P[row][col] += scale * g.sign * perm_sign(order)
    return P


class TopQuotient:
    """Top cohomology as monomial space modulo (relations + image of eta-wedge)."""

    def __init__(self, arrangement, lattice, space=None):
        M = arrangement.dimension
        self.space = space if space is not None else AomotoSpace(arrangement, lattice, M)
        below = monomials(arrangement.size, M - 1)
        image_rows = []
        for k in range(len(below)):
            vec = [_zero(arrangement)] * len(below)
            vec[k] = vec[k] + 1
            image_rows.append(differential(arrangement, M - 1, vec))
        combined = [list(r) for r in self.space.kernel_rref] + image_rows
        self.rref, self.pivots = linalg.rref(combined)
        self.free = [
            k for k in range(len(self.space.monomials)) if k not in set(self.pivots)
        ]
        self.dim = len(self.free)

    def reduce(self, vector):
        return linalg.reduce_mod_rowspace(vector, self.rref, self.pivots)

    def coords(self, vector):
        red = self.reduce(vector)
        return [red[k] for k in self.free]


@dataclass(frozen=True)
class CohomologyClass:
    """A top-cohomology class, stored as its canonical reduced representative."""

    degree: int
    rep: tuple

    def is_zero(self):
        return all(c == 0 for c in self.rep)


def dual_functional_space(arrangement, lattice, quotient=None):
    """Basis of functionals on top-degree classes annihilating the eta-image.

    Functionals are coefficient vectors tau over top monomials with
    tau(relations) = 0 and tau(eta ^ anything) = 0, that is the kernel of
    the relations-plus-image matrix that TopQuotient row-reduces.  The
    basis is read off the quotient's own reduced echelon form: one vector
    per free monomial, with a 1 there, as linalg.nullspace would give.
    """
    if quotient is None:
        quotient = TopQuotient(arrangement, lattice)
    zero = _zero(arrangement)
    return linalg.rref_kernel(quotient.rref, quotient.pivots,
                              len(quotient.space.monomials), zero, zero + 1)


def shapovalov_image(arrangement, lattice, use_chi=False, quotient=None):
    """Rank and basis of the weight-diagonal image inside top cohomology.

    Runs over the admissible functionals tau of dual_functional_space, in
    order, applies the diagonal map tau |-> sum_I (prod weights over I)
    tau_I e_I, optionally pre- and post-composes with the sign projector,
    and reduces into the top quotient.  An image is kept when it is
    independent of those kept before it, tested incrementally: its
    remainder modulo a running echelon basis of the kept images is
    nonzero, and that remainder, scaled to a leading 1, joins the basis.
    Returns (rank, list of CohomologyClass).
    """
    M = arrangement.dimension
    if quotient is None:
        quotient = TopQuotient(arrangement, lattice)
    taus = dual_functional_space(arrangement, lattice, quotient=quotient)
    mons = monomials(arrangement.size, M)
    diag = [weight_product(arrangement, subset) for subset in mons]
    projector = chi_projector(arrangement, M) if use_chi else None
    if projector is not None:
        transposed = [list(row) for row in zip(*projector)]
    basis = []
    echelon, pivots = [], []
    for tau in taus:
        if projector is not None:
            tau = linalg.matvec(transposed, tau)
        s = [d * t for d, t in zip(diag, tau)]
        if projector is not None:
            s = linalg.matvec(projector, s)
        red = quotient.reduce(s)
        rest = linalg.reduce_mod_rowspace(red, echelon, pivots)
        lead = next((k for k, v in enumerate(rest) if v), None)
        if lead is not None:
            echelon.append([v / rest[lead] for v in rest])
            pivots.append(lead)
            basis.append(CohomologyClass(M, tuple(red)))
    return len(basis), basis


def chi_fixed_dim(arrangement, lattice):
    """Dimension of the sign-isotypic part of the top cohomology."""
    quotient = TopQuotient(arrangement, lattice)
    projector = chi_projector(arrangement, arrangement.dimension)
    cols = []
    for k in quotient.free:
        vec = [Fraction(0)] * len(quotient.space.monomials)
        vec[k] = Fraction(1)
        cols.append(quotient.coords(linalg.matvec(projector, vec)))
    return linalg.rank(cols)
