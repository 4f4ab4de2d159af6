"""From tensor functionals to top forms on the discriminantal arrangement.

For sl2 representations with highest weights m_1..m_n placed at distinct
points z_1..z_n, the weight space of weight mu = sum m_i - 2M is reached
by M lowering operators.  The matching arrangement lives in M variables
t_1..t_M and consists of the hyperplanes t_a = z_i with weight m_i/kappa
and the diagonals t_a = t_b with weight -2/kappa.  (All ranks and
subspaces computed downstream are invariant under negating every weight
at once, so the global sign is a convention; this one makes eta the
logarithmic differential of the master function written with the
representation weights in the numerator.)

The rational vector

    v(t, z) = sum over assignments of the variables to the points of
              (x) f^{q_i} v_i  *  sum over orderings u_1..u_q of the
              variables at z_i of 1 / ((u_1-u_2)...(u_{q-1}-u_q)(u_q-z_i))

has weight mu, and pairing it with a functional psi on the weight space
gives the coefficient of a logarithmic top form, psi(v) dt_1..dt_M.

That form is read off as wedge monomials, with no sampling (Schechtman
& Varchenko, Invent. Math. 106, 1991).  Each chain of factors
u_1-u_2, ..., u_{q-1}-u_q, u_q-z_i picks one hyperplane per factor, and
in the variable order u_1..u_q their gradients are unitriangular.  So
the product of the chains over all points is sign(variable order)
times the wedge of their dlogs, and sorting the hyperplanes gives one
more sign.  Each factor is found in the arrangement by its key
(arrangement.AffineForm.key), which is the same for every nonzero
multiple of a form, so t_b - t_a finds the stored t_a - t_b with no
sign, because dlog(c f) = dlog f.  This lets the span of the classes be
compared with the weight-diagonal image inside top cohomology.
"""

import functools
from fractions import Fraction
from itertools import permutations, product

from . import linalg
from .aomoto import AomotoComplex, check_top_size, shapovalov_image
from .arrangement import (
    AffineForm, WeightedArrangement, intersection_lattice, perm_sign,
)
from .errors import DuplicatePoints, NotInSpan, OnHyperplane, WeightMismatch
from .exactfield import RatFuncKappa
from .liealg import (
    TensorSpace, _sl2_weight_int, invariant_functionals, invariants_dim,
)


def _as_fraction_points(points):
    pts = [Fraction(z) if not isinstance(z, Fraction) else z for z in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoints("marked points must be pairwise distinct")
    return pts


def num_variables(weights, mu=0):
    """Number of lowering steps from sum of highest weights down to mu."""
    total = sum(_sl2_weight_int(w) for w in weights)
    gap = total - _sl2_weight_int(mu) if mu else total
    if gap < 0 or gap % 2:
        raise WeightMismatch(
            f"weight {mu} is not reachable from highest weight {total}"
        )
    return gap // 2


def build_arrangement(weights, points, kappa=None, keep_zero_weights=False):
    """The weighted arrangement attached to sl2 data at distinct points,
    in the M variables that lower the highest weight to weight 0.

    Forms come in variable-major order: first t_1 - z_1, ..., t_1 - z_n,
    then the same for t_2, ..., and finally the diagonals t_a - t_b for
    a < b in lexicographic order.  Point hyperplanes carry
    (m_i omega, alpha) / kappa = m_i / kappa, diagonals carry
    -(alpha, alpha) / kappa = -2 / kappa.  A point hyperplane of weight
    zero (m_i = 0) contributes nothing to eta or to the diagonal map, so
    it is omitted unless keep_zero_weights is set.
    With kappa=None the weights stay symbolic as rational functions of
    kappa.  All coordinates share one color, so the full symmetric group
    acts.
    """
    ms = [_sl2_weight_int(w) for w in weights]
    zs = _as_fraction_points(points)
    if len(zs) != len(ms):
        raise ValueError("one marked point is needed per representation")
    M = num_variables(ms)
    if M == 0:
        raise WeightMismatch("no integration variables at this weight")
    if kappa is None:
        inv_kappa = 1 / RatFuncKappa.kappa()
    else:
        inv_kappa = 1 / Fraction(kappa)
    pair_weight = Fraction(-2) * inv_kappa
    forms = []
    form_weights = []
    for a in range(M):
        for i, z in enumerate(zs):
            w = Fraction(ms[i]) * inv_kappa
            if w == 0 and not keep_zero_weights:
                continue
            grad = [Fraction(0)] * M
            grad[a] = Fraction(1)
            forms.append(AffineForm(-z, tuple(grad)))
            form_weights.append(w)
    for a in range(M):
        for b in range(a + 1, M):
            grad = [Fraction(0)] * M
            grad[a] = Fraction(1)
            grad[b] = Fraction(-1)
            forms.append(AffineForm(0, tuple(grad)))
            form_weights.append(pair_weight)
    return WeightedArrangement(M, forms, form_weights, coloring=(0,) * M)


def _ordering_sum(ts, group, z):
    """Sum over orderings of 1/((u_1-u_2)...(u_{q-1}-u_q)(u_q-z))."""
    if not group:
        return Fraction(1)
    total = Fraction(0)
    for order in permutations(group):
        denom = Fraction(1)
        for s, t in zip(order, order[1:]):
            diff = ts[s] - ts[t]
            if diff == 0:
                raise OnHyperplane("evaluation point lies on a diagonal")
            denom *= diff
        last = ts[order[-1]] - z
        if last == 0:
            raise OnHyperplane("evaluation point lies on a marked-point hyperplane")
        total += 1 / denom / last
    return total


def sv_vector_eval(space, ts, zs):
    """Coefficients of v(t, z) on the product basis of the tensor space.

    ts are the M variable values, zs the marked points.  Only basis
    vectors with total lowering depth M receive a nonzero coefficient.
    """
    zs = _as_fraction_points(zs)
    if len(zs) != len(space.ms):
        raise ValueError("one marked point is needed per factor")
    ts = [Fraction(t) if not isinstance(t, Fraction) else t for t in ts]
    M = len(ts)
    coeffs = [Fraction(0)] * space.dim
    for assignment in product(range(len(zs)), repeat=M):
        depths = [0] * len(zs)
        for target in assignment:
            depths[target] += 1
        if any(d > m for d, m in zip(depths, space.ms)):
            continue
        factor = Fraction(1)
        for i, z in enumerate(zs):
            group = [a for a in range(M) if assignment[a] == i]
            factor *= _ordering_sum(ts, group, z)
            if factor == 0:
                break
        coeffs[space.index[tuple(depths)]] += factor
    return coeffs


def _form_lookup(arr):
    """Index of the hyperplane t_a - z (or t_a - t_b) in arr.forms.

    Reads arr.index by the key of the form, which is the same for every
    nonzero multiple of it, and dlog(c f) = dlog f.
    """
    @functools.cache
    def lookup(a, b=None, z=Fraction(0)):
        grad = [0] * arr.dimension
        grad[a] = 1
        if b is not None:
            grad[b] = -1
        k = arr.index.get(AffineForm(-z, grad).key)
        if k is None:
            name = f"t_{a + 1} - t_{b + 1}" if b is not None else f"t_{a + 1} - {z}"
            raise NotInSpan(f"the arrangement has no hyperplane {name}")
        return k

    return lookup


def omega_sv(arr, space, psi, zs, aomoto_space):
    """Top-cohomology class of psi(v(t, z)) dt_1..dt_M, from dlog chains.

    psi is a coefficient vector on the zero-weight basis (the documented
    lex ordering).  Every chain term of v with a nonzero psi coefficient
    adds that coefficient times its two signs (module docstring) to one
    wedge monomial.  The result is the canonical monomial representative
    modulo the relations of aomoto_space, the top-degree AomotoSpace of
    arr, as a tuple.  Raises NotInSpan when a chain needs a hyperplane
    that arr lacks.
    """
    zs = _as_fraction_points(zs)
    M = arr.dimension
    lookup = _form_lookup(arr)
    psi_at = {
        space.basis[z]: p for p, z in zip(psi, space.zero_weight_indices()) if p
    }
    terms = []
    for assignment in product(range(len(zs)), repeat=M):
        groups = [[a for a in range(M) if assignment[a] == i]
                  for i in range(len(zs))]
        coeff = psi_at.get(tuple(len(g) for g in groups))
        if coeff is None:
            continue
        for orders in product(*(permutations(g) for g in groups)):
            variables = []
            chain = []
            for i, order in enumerate(orders):
                variables += order
                chain += [lookup(s, t) for s, t in zip(order, order[1:])]
                if order:
                    chain.append(lookup(order[-1], z=zs[i]))
            sign = perm_sign(variables) * perm_sign(chain)
            terms.append((aomoto_space.index[tuple(sorted(chain))], sign * coeff))
    return tuple(aomoto_space.representative(aomoto_space.normal_form(terms)))


def sv_classes(weights, points, kappa):
    """The class of every invariant functional in top cohomology.

    Builds the arrangement of the sl2 data, its lattice and top quotient,
    and omega_sv of each functional of invariant_functionals.  Returns
    (quotient, functionals, classes, rows), rows being the classes'
    coordinates in the quotient.
    """
    space = TensorSpace([_sl2_weight_int(w) for w in weights])
    arr = build_arrangement(weights, points, kappa=kappa)
    check_top_size(arr)
    lattice = intersection_lattice(arr)
    quotient = AomotoComplex(arr, lattice).top_quotient()
    psis = invariant_functionals(space)
    classes = [omega_sv(arr, space, psi, points, quotient.space)
               for psi in psis]
    rows = [quotient.coords(enumerate(cls)) for cls in classes]
    return quotient, psis, classes, rows


def egregium_check(weights, points, kappa):
    """Compare tensor invariants with both realizations in top cohomology.

    Returns a dict with the invariant dimension, the rank of the span of
    the rational top forms, the rank of the sign-projected weight-diagonal
    image, whether those two subspaces of top cohomology coincide exactly,
    and the overall verdict.
    """
    quotient, _, _, sv_rows = sv_classes(weights, points, kappa)
    inv_dim = invariants_dim(weights)
    image_rank, image_classes = shapovalov_image(quotient, use_chi=True)
    image_rows = [quotient.coords(enumerate(cls)) for cls in image_classes]
    sv_rank = linalg.rank(sv_rows)
    # two row spaces are equal iff both ranks equal the rank of the union
    same = sv_rank == image_rank == linalg.rank(sv_rows + image_rows)
    return {
        "invariants_dim": inv_dim,
        "sv_rank": sv_rank,
        "image_rank": image_rank,
        "subspaces_equal": same,
        "match": inv_dim == sv_rank == image_rank and same,
    }
