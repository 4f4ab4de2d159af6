"""Test oracles that no request runs: checks of the kz layer that do not
go through the transport.

loop_channels predicts the spectrum of a loop of the moving point around
a cluster of punctures from Clebsch-Gordan counts alone, with no linear
algebra.  diagonalizability_report measures how far a 2x2 monodromy is
from defective.
"""

from fractions import Fraction

import mpmath

from aomoto_lab.kz import _mat_norm, eigenvalues_2x2


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
