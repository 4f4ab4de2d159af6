"""Pointwise exterior calculus with exact coefficients.

Differential forms built from dlog factors are rational in the point, so
identities between them can be certified by exact evaluation at random
integer points: a nonzero rational alternating form cannot vanish at
generic sample points, and equality at several independently drawn
points is decisive for fixed-degree rational identities.

The doubled space carries covectors dx_1..dx_M, dy_1..dy_M (indices
0..M-1 for the first copy, M..2M-1 for the second).  With the 2-forms
omega_i = dlog f_i(x) ^ dlog f_i(y) and Omega = sum_i a_i omega_i, the
kernel forms

    S^(b)(x, y)   = sum over b-subsets I of  prod_{i in I} a_i omega_i
                  = Omega^b / b!
    S_{q_1..q_w}  = S^(M - w) ^ wedge_j dlog (F_{q_j}(x) - F_{q_j}(y))

satisfy the boundary identity

    sum_{j=1}^k (-1)^(j+1) S_{q_1.. q_j-hat ..q_k}
        = (eta(x) - eta(y)) ^ S_{q_1..q_k},     1 <= k <= M,

which verify_grundlegend checks at sampled points.

The two expressions for S^(b) agree for any scalar type: the omega_i have
even degree, so they commute, and each squares to zero.  The package
builds S^(b) as powers of Omega; the subset sum is the tests' oracle.

expand_top_form writes a top form given only by its values in the
wedge-monomial basis, by exact interpolation.  The package builds its
own classes without sampling; the tests use it as an independent oracle
for them.
"""

import random
from fractions import Fraction
from functools import reduce

from . import linalg
from .aomoto import AomotoSpace, monomials
from .arrangement import AffineForm, WeightedArrangement
from .errors import NotInSpan, OnDiagonalSlice, OnHyperplane
from .exactfield import random_point_avoiding


class ExteriorElement:
    """An alternating form with scalar coefficients on n covectors.

    terms maps increasing index tuples to nonzero coefficients; the
    empty tuple is the scalar (degree-0) part.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for subset, coeff in terms.items():
                if coeff != 0:
                    self.terms[tuple(subset)] = coeff

    @classmethod
    def one(cls, n):
        return cls(n, {(): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("mixing exterior algebras of different rank")
        out = dict(self.terms)
        for subset, coeff in other.terms.items():
            acc = out.get(subset, 0) + coeff
            if acc == 0:
                out.pop(subset, None)
            else:
                out[subset] = acc
        return ExteriorElement(self.n, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor):
        return ExteriorElement(
            self.n, {s: factor * c for s, c in self.terms.items()}
        )

    def wedge(self, other):
        if self.n != other.n:
            raise ValueError("mixing exterior algebras of different rank")
        out = {}
        for sa, ca in self.terms.items():
            for sb, cb in other.terms.items():
                if set(sa) & set(sb):
                    continue
                sign, merged = _merge_sign(sa, sb)
                coeff = ca * cb * sign
                acc = out.get(merged, 0) + coeff
                if acc == 0:
                    out.pop(merged, None)
                else:
                    out[merged] = acc
        return ExteriorElement(self.n, out)

    def __eq__(self, other):
        if not isinstance(other, ExteriorElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        return f"ExteriorElement(n={self.n}, terms={self.terms!r})"


def _merge_sign(a, b):
    """Sign for sorting the concatenation of two increasing disjoint tuples."""
    inversions = 0
    for x in a:
        for y in b:
            if y < x:
                inversions += 1
    return (-1 if inversions % 2 else 1), tuple(sorted(a + b))


def eval_dlog(form, point, n=None, shift=0):
    """dlog of an affine form at a point, as a degree-1 exterior element.

    It has n covectors (default len(point)), the form's from index shift
    on, so eval_dlog(f, y, 2 * M, M) is dlog f(y) on the doubled space.
    """
    value = form.evaluate(point)
    if value == 0:
        raise OnHyperplane(f"point lies on the hyperplane of {form}")
    return ExteriorElement(
        len(point) if n is None else n,
        {(shift + j,): g / value for j, g in enumerate(form.gradient) if g != 0},
    )


def doubled_form(form, dimension, copy):
    """The form acting on the first (copy=0) or second (copy=1) factor of x x y."""
    pad = [Fraction(0)] * dimension
    grad = list(form.gradient) + pad if copy == 0 else pad + list(form.gradient)
    return AffineForm(form.constant, tuple(grad))


def difference_form(form, dimension):
    """F(x) - F(y) as an affine form on the doubled space."""
    grad = list(form.gradient) + [-g for g in form.gradient]
    return AffineForm(0, tuple(grad))


def _kernel_forms(arr, xy, top):
    """eta(x) - eta(y) and S^(0), ..., S^(top) at xy, from one dlog pass."""
    M = arr.dimension
    eta = omega = ExteriorElement(2 * M)
    for form, weight in zip(arr.forms, arr.weights):
        first = eval_dlog(form, xy[:M], 2 * M)
        second = eval_dlog(form, xy[M:], 2 * M, M)
        eta = eta + (first - second).scale(weight)
        omega = omega + first.wedge(second).scale(weight)
    powers = [ExteriorElement.one(2 * M)]
    for b in range(1, top + 1):
        powers.append(powers[-1].wedge(omega).scale(Fraction(1, b)))
    return eta, powers


def _difference_dlogs(F_list, q_indices, dimension, xy):
    """dlog (F_q(x) - F_q(y)) for each q; OnDiagonalSlice where it vanishes."""
    out = []
    for q in q_indices:
        diff = difference_form(F_list[q], dimension)
        if diff.evaluate(xy) == 0:
            raise OnDiagonalSlice(f"F_{q} takes equal values on both copies")
        out.append(eval_dlog(diff, xy))
    return out


def eval_eta_difference(arr, xy):
    """eta(x) - eta(y) on the doubled space, evaluated at xy."""
    return _kernel_forms(arr, xy, 0)[0]


def eval_S_b(arr, b, xy):
    """The degree-2b kernel form S^(b) = Omega^b / b! at a doubled point.

    The omega_i are 2-forms, so they commute and square to zero, and
    Omega^b is b! times the sum over b-subsets of prod a_i omega_i.
    """
    if not 0 <= b <= arr.dimension:
        raise ValueError("b must lie between 0 and the dimension")
    return _kernel_forms(arr, xy, b)[1][b]


def eval_S_mixed(arr, F_list, q_indices, xy):
    """The mixed form S_{q_1..q_w} evaluated at a doubled point.

    q_indices picks comparison functions out of F_list; w = len(q_indices)
    and the kernel part has b = M - w.  Raises OnDiagonalSlice when some
    F_q takes equal values on the two copies.
    """
    M = arr.dimension
    if len(q_indices) > M:
        raise ValueError("more comparison indices than the dimension allows")
    kernel = eval_S_b(arr, M - len(q_indices), xy)
    return reduce(ExteriorElement.wedge,
                  _difference_dlogs(F_list, q_indices, M, xy), kernel)


def _sampling_forms(arr, F_list, upto):
    M = arr.dimension
    forms = [doubled_form(f, M, 0) for f in arr.forms]
    forms += [doubled_form(f, M, 1) for f in arr.forms]
    forms += [difference_form(F_list[q], M) for q in range(upto)]
    return forms


def _boundary_sides(arr, rhs_arr, F_list, k, xy, forms=None):
    """Both sides of the boundary identity for F_1..F_k at a doubled point.

    The right side is built from rhs_arr: arr itself, or the control's
    arrangement with a perturbed weight.  forms, when given, is
    _kernel_forms(arr, xy, top) for some top >= M - k + 1.
    """
    M = arr.dimension
    eta, kernels = forms or _kernel_forms(arr, xy, M - k + 1)
    upper, lower = kernels[M - k + 1], kernels[M - k]
    if rhs_arr is not arr:
        eta, kernels = _kernel_forms(rhs_arr, xy, M - k)
        lower = kernels[M - k]
    diffs = _difference_dlogs(F_list, range(k), M, xy)
    lhs = ExteriorElement(2 * M)
    for j in range(k):
        term = reduce(ExteriorElement.wedge, diffs[:j] + diffs[j + 1:], upper)
        lhs = lhs + term.scale(1 if j % 2 == 0 else -1)
    return lhs, eta.wedge(reduce(ExteriorElement.wedge, diffs, lower))


def verify_grundlegend(arr, F_list, k, num_points=5, seed=0, bound=10**6,
                       kernels=None):
    """Check the boundary identity for the first k comparison functions.

    Samples num_points doubled integer points away from all hyperplanes
    and diagonal slices, then compares both sides exactly.  Returns True
    iff the identity holds at every sampled point.

    kernels maps a doubled point to eta and S^(0..M) there.  The calls
    for k = 1..M with one seed mostly draw the same points, so passing
    them one dict builds the kernel forms once per distinct point.
    """
    if not 1 <= k <= arr.dimension:
        raise ValueError("k must lie between 1 and the dimension")
    if kernels is None:
        kernels = {}
    avoid = _sampling_forms(arr, F_list, k)
    rng = random.Random(seed)
    for _ in range(num_points):
        xy = random_point_avoiding(
            avoid, bound=bound, seed=rng.randrange(2**32), dimension=2 * arr.dimension
        )
        if xy not in kernels:
            kernels[xy] = _kernel_forms(arr, xy, arr.dimension)
        lhs, rhs = _boundary_sides(arr, arr, F_list, k, xy, kernels[xy])
        if lhs != rhs:
            return False
    return True


def grundlegend_control(arr, F_list, k=None, seed=0, bound=10**6):
    """Mismatched-weight control for the boundary identity.

    Evaluates the left side with the given weights and the right side
    with one weight perturbed; returns True when the mismatch is
    detected (the two sides differ at a sampled point).  A checker that
    cannot fail this control would be vacuous.
    """
    if k is None:
        k = arr.dimension
    perturbed = WeightedArrangement(
        arr.dimension,
        arr.forms,
        [w + Fraction(1, 5) if i == 0 else w for i, w in enumerate(arr.weights)],
        coloring=arr.coloring,
    )
    xy = random_point_avoiding(
        _sampling_forms(arr, F_list, k), bound=bound, seed=seed,
        dimension=2 * arr.dimension,
    )
    lhs, rhs = _boundary_sides(arr, perturbed, F_list, k, xy)
    return lhs != rhs


def coordinate_functions(dimension):
    """The default comparison functions: the coordinates t_1, ..., t_M."""
    return [
        AffineForm(0, tuple(Fraction(1 if j == b else 0) for j in range(dimension)))
        for b in range(dimension)
    ]


def monomial_value(arr, subset, point):
    """Coefficient of dt_1 ^ ... ^ dt_M in a top wedge monomial at a point."""
    M = arr.dimension
    top = reduce(ExteriorElement.wedge,
                 [eval_dlog(arr.forms[i], point) for i in subset],
                 ExteriorElement.one(M))
    return top.terms.get(tuple(range(M)), Fraction(0))


def expand_top_form(arr, lattice, evaluator, seed=0, bound=10**6, extra_avoid=(),
                    certification=3, space=None):
    """Coefficients of a top form in the wedge monomial basis.

    evaluator(point) must return the exact coefficient of dt_1..dt_M at
    the point.  Solves an interpolation system on dim + certification
    sampled points, reduces the solution to the canonical representative
    modulo monomial relations, and re-verifies at certification fresh
    points.  Raises NotInSpan when no logarithmic expansion exists.
    The tests use it as the oracle for svmap.omega_sv.
    """
    M = arr.dimension
    if space is None:
        space = AomotoSpace(arr, lattice, M)
    mons = monomials(arr.size, M)
    avoid = list(arr.forms) + list(extra_avoid)
    rng = random.Random(seed)

    def sample():
        return random_point_avoiding(
            avoid, bound=bound, seed=rng.randrange(2**32), dimension=M
        )

    for attempt in range(3):
        n_points = space.dim + certification + attempt * space.dim
        points = [sample() for _ in range(n_points)]
        rows = [[monomial_value(arr, sub, pt) for sub in mons] for pt in points]
        rhs = [evaluator(pt) for pt in points]
        solution = linalg.solve(rows, rhs)
        if solution is None:
            continue
        fresh = [sample() for _ in range(certification)]
        good = all(
            sum(c * monomial_value(arr, sub, pt) for c, sub in zip(solution, mons))
            == evaluator(pt)
            for pt in fresh
        )
        if good:
            return tuple(space.reduce(solution))
    raise NotInSpan("evaluator is not a combination of logarithmic monomials")
