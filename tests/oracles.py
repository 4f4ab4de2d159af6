"""Test oracles that no request runs.

The Schechtman-Varchenko side of the top cohomology: pairing_matrix
pairs the wedge monomials with the flags of the intersection lattice,
and its left kernel is the span of the Orlik-Solomon relations that
AomotoSpace reads off as nbc normal forms.  flag_relations spans the
relations of the flag space, and contravariant_form is the
quasi-classical form on flags.  specialize_kappa evaluates a symbolic
weight at a rational kappa.

Checks of the kz layer that do not go through the transport:
loop_channels predicts the spectrum of a loop of the moving point around
a cluster of punctures from Clebsch-Gordan counts alone, with no linear
algebra.  diagonalizability_report measures how far a 2x2 monodromy is
from defective.

naive_rref is the textbook Gauss-Jordan elimination, column by column,
that the exact linear algebra and the intersection lattice are checked
against.
"""

from fractions import Fraction
from itertools import combinations, permutations

import mpmath

from aomoto_lab.aomoto import monomials
from aomoto_lab.arrangement import perm_sign
from aomoto_lab.errors import AomotoLabError, ZeroKappa
from aomoto_lab.flags import enumerate_flags, flag_of_tuple, phi
from aomoto_lab.kz import _mat_norm, eigenvalues_2x2


class PoleAtKappa(AomotoLabError):
    """A rational function in kappa was evaluated at a pole."""


def naive_rref(matrix):
    """Reduced row echelon form (rows, pivots), column by column.

    Every entry is updated, zero or not, and each pivot is the first
    nonzero entry of its column below the rows already placed.
    """
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


def pairing_matrix(arrangement, lattice, p):
    """Matrix of duality functionals: rows = monomials, columns = raw flags.

    Entries lie in {-1, 0, +1}; the rank equals the dimension of the
    degree-p logarithmic subalgebra and matches the Mobius count.  Its
    left kernel is the span of the relations, so it is the oracle for
    AomotoSpace.
    """
    flags = enumerate_flags(lattice, p)
    rows = []
    for subset in monomials(arrangement.size, p):
        values = phi(arrangement, lattice, subset, flags=flags)
        rows.append([Fraction(v) for v in values])
    return rows


def flag_relations(lattice, p):
    """Relation vectors over the raw flags of length p.

    One vector per (interior gap position i, gapped chain): coefficient 1
    on every flag completing the chain, 0 elsewhere.  Empty for p <= 1.
    """
    flags = enumerate_flags(lattice, p)
    index = {f: k for k, f in enumerate(flags)}
    relations = []
    for i in range(1, p):
        groups = {}
        for f in flags:
            gapped = f[:i] + f[i + 1 :]
            groups.setdefault(gapped, []).append(index[f])
        for gapped in sorted(groups):
            vec = [0] * len(flags)
            for k in groups[gapped]:
                vec[k] = 1
            relations.append(tuple(vec))
    return relations


def contravariant_form(arrangement, lattice, p):
    """Gram matrix of the quasi-classical form on raw flags of length p.

    Entry (F, G) sums, over unordered p-subsets of hyperplanes adjacent
    to both flags, the weight product times sign(sigma_F) * sign(sigma_G)
    for the unique orderings realizing F and G.  The form's 1/p!
    normalization cancels against the p! orderings of each subset, so
    the sum runs over unordered subsets.
    """
    flags = enumerate_flags(lattice, p)
    index = {f: k for k, f in enumerate(flags)}
    n = len(flags)
    zero = arrangement.zero
    gram = [[zero for _ in range(n)] for _ in range(n)]
    for subset in combinations(range(arrangement.size), p):
        weight = zero + 1
        for i in subset:
            weight = weight * arrangement.weights[i]
        realized = {}
        for sigma in permutations(range(p)):
            flag = flag_of_tuple(lattice, [subset[s] for s in sigma])
            if flag is None:
                continue
            k = index[flag]
            if k in realized:
                raise AssertionError("two orderings of one subset realize the same flag")
            realized[k] = perm_sign(sigma)
        for kf, sf in realized.items():
            for kg, sg in realized.items():
                gram[kf][kg] = gram[kf][kg] + weight * (sf * sg)
    return gram


def _peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def specialize_kappa(value, kappa):
    """Evaluate a scalar at a concrete nonzero rational kappa.

    Fractions pass through unchanged.  Raises ZeroKappa for kappa = 0 and
    PoleAtKappa when the denominator vanishes at kappa.
    """
    kappa = Fraction(kappa)
    if kappa == 0:
        raise ZeroKappa("weights are defined only for nonzero kappa")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    den = _peval(value.den, kappa)
    if den == 0:
        raise PoleAtKappa(f"denominator vanishes at kappa = {kappa}")
    return _peval(value.num, kappa) / den


def _decompose(weights):
    """Multiplicity of each highest weight in the product of sl2 irreducibles."""
    counts = {0: 1}
    for m in weights:
        nxt = {}
        for j, mult in counts.items():
            for k in range(abs(j - m), j + m + 1, 2):
                nxt[k] = nxt.get(k, 0) + mult
        counts = nxt
    return counts


def _casimir(m):
    return Fraction(m * (m + 2), 2)


def loop_channels(weights, cluster):
    """Eigenvalues of sum_(k in cluster) Omega_0k on coinvariants, with
    multiplicities, as a sorted list of (lambda, multiplicity).

    Point 0 is the moving one.  The Casimir of a product is the sum of
    the factors' Casimirs plus twice the two-site operators between
    them, and the Casimir acts on V_m as c(m) = m(m + 2) / 2.  So the sum
    acts on the channel (j, J), with V_j in the product of the cluster's
    factors and V_J in V_(m_0) x V_j, as (c(J) - c(m_0) - c(j)) / 2.  The
    channel's multiplicity is that of V_j times the number of invariants
    of V_J with the remaining factors (Drinfeld-Kohno; Kohno, Ann. Inst.
    Fourier 37, 1987): a loop of point 0 around the cluster has the
    monodromy spectrum exp(-2 pi i lambda / kappa).
    """
    m0 = weights[0]
    inner = _decompose([weights[k] for k in cluster])
    outer = _decompose([m for k, m in enumerate(weights)
                        if k != 0 and k not in cluster])
    out = {}
    for j, mult_j in inner.items():
        for big in range(abs(m0 - j), m0 + j + 1, 2):
            mult = mult_j * outer.get(big, 0)
            if mult:
                lam = (_casimir(big) - _casimir(m0) - _casimir(j)) / 2
                out[lam] = out.get(lam, 0) + mult
    return sorted(out.items())


def diagonalizability_report(mat):
    """Eigenvalues, their separation, and the eigenvector condition number.

    For a 2x2 matrix with distinct eigenvalues the condition number is
    1/|det| of the matrix of normalized eigenvectors; near-defective
    matrices blow it up.  A multiple eigenvalue reports infinity unless
    the matrix is (numerically) scalar.
    """
    eigs = eigenvalues_2x2(mat)
    sep = abs(eigs[0] - eigs[1])
    scale = max(mpmath.mpf(1), _mat_norm(mat))
    if sep < mpmath.mpf("1e-40") * scale:
        off = max(abs(mat[0][1]), abs(mat[1][0]),
                  abs(mat[0][0] - mat[1][1]))
        cond = mpmath.inf if off > mpmath.mpf("1e-30") * scale else mpmath.mpf(1)
        return {"eigenvalues": eigs, "separation": sep, "condition": cond}
    vecs = []
    for lam in eigs:
        shifted = [[mat[0][0] - lam, mat[0][1]], [mat[1][0], mat[1][1] - lam]]
        if abs(shifted[0][0]) + abs(shifted[0][1]) >= \
           abs(shifted[1][0]) + abs(shifted[1][1]):
            row = shifted[0]
        else:
            row = shifted[1]
        vec = [-row[1], row[0]]
        norm = mpmath.sqrt(abs(vec[0]) ** 2 + abs(vec[1]) ** 2)
        vecs.append([vec[0] / norm, vec[1] / norm])
    det = vecs[0][0] * vecs[1][1] - vecs[0][1] * vecs[1][0]
    cond = mpmath.inf if det == 0 else 1 / abs(det)
    return {"eigenvalues": eigs, "separation": sep, "condition": cond}
