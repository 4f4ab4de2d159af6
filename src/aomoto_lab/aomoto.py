"""The twisted logarithmic complex of a weighted arrangement.

Degree p of the complex is spanned by wedge monomials
dlog f_{i_1} ^ ... ^ dlog f_{i_p} over increasing index subsets.  The
monomials satisfy the Orlik-Solomon relations.  Each monomial's normal
form in the no-broken-circuit (nbc) basis is read off the intersection
lattice with integer coefficients, so nothing is eliminated and ranks
never rely on floating point.  The relations equal the left kernel of
the pairing of monomials with the flags of the lattice (flags.phi),
which the tests keep as the oracle.  Every reduction goes through
AomotoSpace.normal_form, which maps sparse (monomial, coefficient)
terms to nbc coordinates.  The differential is left wedge with
eta = sum_i a_i dlog f_i, and the top cohomology is the cokernel of the
differential in top degree.

An AomotoComplex owns one TopQuotient, the top monomials modulo the
relations and the image of eta-wedge.  It holds one echelon, in nbc
coordinates: the image is the column space of the degree M-1 quotient
differential, an a_{M-1} x a_M matrix, and the relations stay normal
forms, so no reduction runs over all C(n, M - 1) or C(n, M) monomials.
The rank it finds serves the cohomology dimensions too.

The weight-diagonal map sends a functional tau on top-degree classes to
the class of sum_I (prod_{i in I} a_i) tau(e_I) e_I.  Restricted to
functionals annihilating the image of the differential (and composed
with the sign-character projector when the arrangement carries a
coloring), its image inside the top cohomology is the object the rest
of the package compares against tensor invariants.

Weights w * r_i with rational r_i leave the relations, the image of
eta-wedge and the admissible functionals as at w = 1, and scale the
diagonal map by w^M.  So symbolic weights that rational_split splits
run over Fraction on the r_i, and their classes are scaled afterwards.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from . import linalg
from .arrangement import color_group, perm_sign
from .errors import TooManyMonomials
from .exactfield import RatFuncKappa

# Cost budget on the top-degree monomial count C(size, M).  Six sl2
# doublets (21 hyperplanes in 3 variables, 1330 monomials) fit; five
# weight-2 points (35 hyperplanes in 5 variables, 324632) would run for
# hours.
MAX_TOP_MONOMIALS = 2000
# The budget where the complex runs on RatFuncKappa weights, which
# rational_split cannot scale to rationals.  An image request with chi on
# weights w_i + (i mod 3) takes, in CPU seconds on one core of a 2-vCPU
# x86-64 VM: 0.5 at 36 monomials, 2.0 at 78, 4.8 at 84 (3 variables),
# 9.9 at 105, 23 at 136, 25 at 220 and 317 at 455.
MAX_SYMBOLIC_TOP_MONOMIALS = 80


def monomials(size, p):
    """Increasing p-subsets of hyperplane indices, in lexicographic order."""
    return list(combinations(range(size), p))


def check_top_size(arrangement, budget=MAX_TOP_MONOMIALS):
    """Refuse an arrangement with more than budget top monomials."""
    count = comb(arrangement.size, arrangement.dimension)
    if count > budget:
        raise TooManyMonomials(
            f"{arrangement.size} hyperplanes in {arrangement.dimension} variables "
            f"give {count} top-degree monomials, above the budget of {budget}"
        )


def rational_split(arrangement):
    """(w, the arrangement on weights w_i / w) when those are all rational.

    w is the first nonzero weight.  None when no weight is a RatFuncKappa,
    when every weight is zero, or when some w_i / w is not constant.
    """
    weights = arrangement.weights
    w = next((x for x in weights if x), None)
    if w is None or not isinstance(arrangement.zero, RatFuncKappa):
        return None
    ratios = [_constant_ratio(x, w) for x in weights]
    if None in ratios:
        return None
    return w, type(arrangement)(arrangement.dimension, arrangement.forms,
                                ratios, coloring=arrangement.coloring)


def _constant_ratio(x, w):
    """x / w as a Fraction when it is constant, else None; w is nonzero.

    Both sides are reduced with a monic denominator, so x / w is a
    constant c exactly when x is zero, or when the denominators agree and
    x.num = c * w.num.  No polynomial gcd is taken.
    """
    if not isinstance(x, RatFuncKappa):
        x = RatFuncKappa.constant(x)
    if not isinstance(w, RatFuncKappa):
        w = RatFuncKappa.constant(w)
    if not x:
        return Fraction(0)
    if x.den != w.den or len(x.num) != len(w.num):
        return None
    c = x.num[-1] / w.num[-1]
    return c if all(a == c * b for a, b in zip(x.num, w.num)) else None


def insertion_sign(subset, j):
    """Sign of moving dlog f_j from the front into its sorted slot of subset."""
    k = sum(1 for i in subset if i < j)
    return -1 if k % 2 else 1


def weight_product(arrangement, subset):
    acc = arrangement.zero + 1
    for i in subset:
        acc = acc * arrangement.weights[i]
    return acc


class AomotoSpace:
    """Degree-p monomial space together with its relations.

    Relations are no-broken-circuit normal forms, read off the lattice
    with no elimination (Orlik & Terao, Arrangements of Hyperplanes,
    ch. 3).  Walk a monomial S = (s_1 < ... < s_p) through lattice.meet:
    if the walk fails, the hyperplanes are dependent or do not meet and
    e_S is zero.  Otherwise let X_i be the prefix edge of s_1..s_i.  S
    is nbc (free) when max(defining(X_i)) = s_i at every i.  If not,
    take the first i with c = max(defining(X_i)) > s_i: the circuit
    D = (s_1, ..., s_i, c) meets, so its boundary is a relation, and it
    writes e_{s_1..s_i} as a signed sum of the e_{D - s_j}, j <= i.
    Wedged with the rest of S, every term is later in lex order, so the
    normal forms fill in decreasing lex order with integer coefficients.

    normal_forms[k] maps free monomial indices to the integer
    coefficients of NF(e_{monomials[k]}).  The rows e_S - NF(S), one per
    non-free S (kernel_pivots), are the reduced echelon form of the
    relations and span the left kernel of the flag pairing, which the
    tests keep as the oracle; they are never stored as dense rows.
    normal_form() maps (monomial index, coefficient) terms to nbc
    coordinates, one per free monomial, and representative() writes nbc
    coordinates back as the canonical monomial vector, zero at the
    kernel pivots.
    """

    def __init__(self, arrangement, lattice, p):
        self.arrangement = arrangement
        self.p = p
        self.monomials = monomials(arrangement.size, p)
        self.index = {m: k for k, m in enumerate(self.monomials)}
        top = [max(edge.defining, default=-1) for edge in lattice.edges]
        self.normal_forms = [None] * len(self.monomials)
        for k in range(len(self.monomials) - 1, -1, -1):
            self.normal_forms[k] = self._normal_form(lattice, top, k)
        self.free, self.kernel_pivots = [], []
        for k, nf in enumerate(self.normal_forms):
            (self.free if nf == {k: 1} else self.kernel_pivots).append(k)
        self.dim = len(self.free)

    def _normal_form(self, lattice, top, k):
        subset = self.monomials[k]
        edge = 0
        for i, s in enumerate(subset):
            edge = lattice.meet(edge, s)
            if edge is None:
                return {}
            c = top[edge]
            if c > s:
                break
        else:
            return {k: 1}
        # e_{s_0..s_i} = sum_j (-1)^(i+j) e_{D - s_j} with D = s_0..s_i, c,
        # then c moves past the entries of the rest of S below it
        rest = subset[i + 1:]
        if c in rest:
            return {}
        sign = (-1) ** (i + sum(1 for r in rest if r < c))
        out = {}
        for j in range(i + 1):
            target = tuple(sorted(subset[:j] + subset[j + 1:] + (c,)))
            for col, v in self.normal_forms[self.index[target]].items():
                out[col] = out.get(col, 0) + (sign if j % 2 == 0 else -sign) * v
        return {col: v for col, v in out.items() if v}

    def normal_form(self, terms):
        """nbc coordinates of sum c NF(e_k) over the (k, c) pairs of terms.

        Coordinate j belongs to the free monomial free[j].  Terms may repeat
        a monomial, and zero coefficients are skipped.  A coordinate that no
        term reaches is the arrangement's zero; the others are sums of the
        given coefficients and keep their type.
        """
        acc = {}
        for k, c in terms:
            if c:
                for col, v in self.normal_forms[k].items():
                    x = c if v == 1 else c * v
                    acc[col] = acc[col] + x if col in acc else x
        zero = self.arrangement.zero
        return [acc.get(k, zero) for k in self.free]

    def representative(self, coords):
        """The canonical monomial vector with these nbc coordinates: zero off free."""
        out = [self.arrangement.zero] * len(self.monomials)
        for k, v in zip(self.free, coords):
            out[k] = v
        return out


class AomotoComplex:
    """Lazy bundle of all degrees of the complex with induced differentials.

    The complex owns its top quotient (top_quotient), and the rank of the
    last differential is read off that quotient's reduction.
    """

    def __init__(self, arrangement, lattice):
        self.arrangement = arrangement
        self.lattice = lattice
        self._spaces = {}
        self._diffs = {}
        self._top = None

    def space(self, p):
        if p not in self._spaces:
            self._spaces[p] = AomotoSpace(self.arrangement, self.lattice, p)
        return self._spaces[p]

    def differential_matrix(self, p):
        """Quotient matrix of wedge-with-eta from degree p to p + 1 (columns = basis)."""
        if p not in self._diffs:
            src, dst = self.space(p), self.space(p + 1)
            # promoted once, so every entry has the arrangement's scalar type
            weights = [self.arrangement.zero + w for w in self.arrangement.weights]
            cols = []
            for k in src.free:
                # eta ^ e_S = sum_j a_j (insertion sign) e_{S + j}
                subset = src.monomials[k]
                cols.append(dst.normal_form(
                    (dst.index[tuple(sorted(subset + (j,)))],
                     w * insertion_sign(subset, j))
                    for j, w in enumerate(weights) if j not in subset))
            self._diffs[p] = [list(row) for row in zip(*cols)] if cols else []
        return self._diffs[p]

    def top_quotient(self):
        """The top cohomology of this complex, built once and shared."""
        if self._top is None:
            self._top = TopQuotient(self)
        return self._top

    def _rank(self, p):
        if p == self.arrangement.dimension - 1:
            return len(self.top_quotient().image)
        return linalg.rank(self.differential_matrix(p))

    def cohomology_dim(self, p):
        M = self.arrangement.dimension
        if p < 0 or p > M:
            raise ValueError("degree outside the complex")
        rank_in = self._rank(p - 1) if p > 0 else 0
        if p == M:
            return self.space(M).dim - rank_in
        return self.space(p).dim - self._rank(p) - rank_in


def _chi_columns(arrangement, p):
    """The sign-isotypic projector on degree-p monomials, column by column.

    Column k lists the (row, coefficient) pairs of its nonzero entries in
    increasing row order: the average of sign(sigma) times the signed
    permutation action over the coloring-preserving coordinate
    permutations, so a column has at most |G| entries.  Requires a
    coloring.
    """
    group = color_group(arrangement)
    mons = monomials(arrangement.size, p)
    index = {m: k for k, m in enumerate(mons)}
    columns = [{} for _ in mons]
    scale = Fraction(1, len(group))
    for g in group:
        for col, subset in enumerate(mons):
            moved = [g.form_perm[i] for i in subset]
            order = tuple(sorted(range(len(moved)), key=lambda s: moved[s]))
            target = tuple(sorted(moved))
            if len(set(target)) != len(target):
                raise AssertionError("group element collapsed a monomial")
            row = index[target]
            entry = columns[col].get(row, Fraction(0))
            columns[col][row] = entry + scale * g.sign * perm_sign(order)
    return [sorted((r, c) for r, c in column.items() if c) for column in columns]


def chi_projector(arrangement, p):
    """Dense matrix of the sign-isotypic projector on degree-p monomials."""
    columns = _chi_columns(arrangement, p)
    P = [[Fraction(0)] * len(columns) for _ in columns]
    for col, entries in enumerate(columns):
        for row, c in entries:
            P[row][col] = c
    return P


def _chi_apply(columns, vector):
    """The projector applied to a coefficient vector, from its sparse columns.

    The projector is symmetric: each signed permutation matrix is
    orthogonal and g, g^-1 carry the same sign, so this is also the
    transpose applied to a functional.
    """
    out = [vector[0] * 0] * len(vector)
    for col, v in enumerate(vector):
        if v:
            for row, c in columns[col]:
                out[row] = out[row] + c * v
    return out


class TopQuotient:
    """Top cohomology as monomial space modulo (relations + image of eta-wedge).

    Held in nbc coordinates: modulo the relations, the image of eta-wedge
    is the column space of differential_matrix(M-1), an a_{M-1} x a_M
    matrix on the free top monomials, and its transpose row-reduced is
    the one echelon kept (image, on a_M columns).  The relations live
    only as space.normal_forms.  nbc_pivots and nbc_free split the nbc
    coordinates into the pivots of the image and the rest; free lists the
    top monomials of nbc_free.  coords() takes the normal form of its
    terms, reduces it modulo the image and keeps the entries at nbc_free,
    the quotient coordinates; representative() writes quotient
    coordinates back as the canonical monomial vector, nonzero only at
    free.
    """

    def __init__(self, cx):
        M = cx.arrangement.dimension
        self.space = cx.space(M)
        below = cx.differential_matrix(M - 1)
        self.image, self.nbc_pivots = linalg.rref([list(col) for col in zip(*below)])
        pivot_set = set(self.nbc_pivots)
        self.nbc_free = [j for j in range(self.space.dim) if j not in pivot_set]
        self.free = [self.space.free[j] for j in self.nbc_free]
        self.dim = len(self.free)

    def coords(self, terms):
        """Quotient coordinates of the class of sum c e_k."""
        red = linalg.reduce_mod_rowspace(self.space.normal_form(terms), self.image,
                                         self.nbc_pivots)
        return [red[j] for j in self.nbc_free]

    def representative(self, coords):
        """The canonical representative of the class with these quotient coordinates."""
        out = [self.space.arrangement.zero] * len(self.space.monomials)
        for k, v in zip(self.free, coords):
            out[k] = v
        return out


def dual_functional_space(quotient):
    """Basis of functionals on top-degree classes annihilating the eta-image.

    Functionals are coefficient vectors tau over top monomials with
    tau(relations) = 0 and tau(eta ^ anything) = 0.  On the free top
    monomials they are the kernel of the image echelon, read off it with
    one vector per quotient.free monomial and a 1 there, as
    linalg.nullspace would give; every other monomial I then takes
    tau(e_I) = sum_U NF(I)_U tau(U), each nonzero tau(U) scattered into
    the monomials whose normal form holds U.
    """
    space = quotient.space
    zero = space.arrangement.zero
    holders = {u: [] for u in space.free}
    for k, nf in enumerate(space.normal_forms):
        for u, v in nf.items():
            holders[u].append((k, v))
    taus = []
    for t in linalg.rref_kernel(quotient.image, quotient.nbc_pivots, space.dim,
                                zero, zero + 1):
        tau = [zero] * len(space.monomials)
        for u, x in zip(space.free, t):
            if x:
                for k, v in holders[u]:
                    tau[k] = tau[k] + x * v
        taus.append(tau)
    return taus


def shapovalov_image(quotient, use_chi=False):
    """Rank and basis of the weight-diagonal image inside top cohomology.

    Runs over the admissible functionals tau of dual_functional_space, in
    order, applies the diagonal map tau |-> sum_I (prod weights over I)
    tau_I e_I, optionally pre- and post-composes with the sign projector
    P (applied once, from its sparse columns, since P D P = D P), and
    reduces into the top quotient.
    An image is kept when it is independent of those kept before it,
    tested incrementally on quotient coordinates: linalg.extend grows a
    running echelon of the kept images by it, or finds it in their span.
    Returns (rank, classes), each class a tuple, the canonical
    representative.
    """
    space = quotient.space
    taus = dual_functional_space(quotient)
    diag = [weight_product(space.arrangement, subset) for subset in space.monomials]
    columns = _chi_columns(space.arrangement, space.p) if use_chi else None
    basis = []
    echelon, pivots = [], []
    for tau in taus:
        if columns is not None:
            # P D P tau = D P tau: the diagonal map commutes with the
            # signed permutations, and P is idempotent
            tau = _chi_apply(columns, tau)
        coords = quotient.coords((k, d * t)
                                 for k, (d, t) in enumerate(zip(diag, tau)) if t)
        if linalg.extend(echelon, pivots, coords) is not None:
            basis.append(tuple(quotient.representative(coords)))
    return len(basis), basis


def chi_fixed_dim(quotient):
    """Dimension of the sign-isotypic part of the top cohomology."""
    columns = _chi_columns(quotient.space.arrangement, quotient.space.p)
    return linalg.rank([quotient.coords(columns[k]) for k in quotient.free])
