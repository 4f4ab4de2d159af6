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

It checks it on integers.  dlog f does not change when f is scaled, so
each form f_i and each F_q is replaced by its primitive integer
multiple, and at an integer point every value v is an int.  Let W be
the lcm of the weights' denominators, A_i = W a_i, P the product of the
values of all f_i at x and at y, Q that of the values of
F_q(x) - F_q(y) for q <= k, b = M - k, and g_i(x), g_i(y) the gradient
of f_i as a covector on either copy.  Then

    W P (eta(x) - eta(y)) = sum_i A_i (P/v_i(x) g_i(x) - P/v_i(y) g_i(y)),
    W P Omega             = sum_i A_i P/(v_i(x) v_i(y)) g_i(x) ^ g_i(y),
    Q dlog (F_q(x) - F_q(y)) = Q/d_q (g_q(x) - g_q(y)),  d_q its value,

all with integer coefficients, and both sides of the identity times
the nonzero integer C = (W P)^(b+1) (b+1)! Q^k are

    Q sum_j (-1)^(j+1) (W P Omega)^(b+1) ^ wedge_{q != j} Q dlog(..)_q
    (b+1) W P (eta(x) - eta(y)) ^ (W P Omega)^b ^ wedge_q Q dlog(..)_q,

so comparing these decides the identity exactly, without a division.
Symbolic (RatFuncKappa) weights enter as they are: W takes the
denominators of the rational weights only, and is 1 when there are none.

The two expressions for S^(b) agree for any scalar type: the omega_i have
even degree, so they commute, and each squares to zero.  The integer
sides build S^(b) as powers of W P Omega; the subset sum times C is the
tests' oracle for them.

expand_top_form writes a top form given only by its values in the
wedge-monomial basis, by exact interpolation.  The package builds its
own classes without sampling; the tests use it as an independent oracle
for them.
"""

import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from operator import mul

from . import linalg
from .aomoto import AomotoSpace, monomials
from .arrangement import AffineForm
from .errors import NotInSpan, OnHyperplane
from .exactfield import RatFuncKappa, random_point_avoiding


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
            used = set(sa)
            for sb, cb in other.terms.items():
                if not used.isdisjoint(sb):
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


def eval_dlog(form, point):
    """dlog of an affine form at a point, as a degree-1 exterior element
    on len(point) covectors."""
    value = form.evaluate(point)
    if value == 0:
        raise OnHyperplane(f"point lies on the hyperplane of {form}")
    return ExteriorElement(
        len(point),
        {(j,): g / value for j, g in enumerate(form.gradient) if g != 0},
    )


def difference_form(form):
    """F(x) - F(y) as an affine form on the doubled space."""
    grad = list(form.gradient) + [-g for g in form.gradient]
    return AffineForm(0, tuple(grad))


class IntegerForm:
    """An affine form with integer coefficients, evaluated at integer points."""

    __slots__ = ("constant", "gradient")

    def __init__(self, constant, gradient):
        self.constant = constant
        self.gradient = gradient

    @classmethod
    def primitive(cls, form):
        """The AffineForm's primitive integer multiple, which has the same dlog."""
        coeffs = (form.constant, *form.gradient)
        scale = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        common = gcd(*ints)
        return cls(ints[0] // common, tuple(c // common for c in ints[1:]))

    def evaluate(self, point):
        return self.constant + sum(map(mul, self.gradient, point))


class BoundaryKernel:
    """The integer data that the boundary-identity checks of one request share.

    forms are the primitive integer multiples of the arrangement's forms,
    avoid their copies on x and on y in the doubled space, differences
    the primitive forms of F_q(x) - F_q(y), and scaled the weights
    A_i = W a_i.  points maps a doubled point to the scaled kernel forms
    there (see _scaled_kernel_forms), built once.
    """

    def __init__(self, arr, F_list):
        M = arr.dimension
        pad = (0,) * M
        self.dimension = M
        self.forms = [IntegerForm.primitive(f) for f in arr.forms]
        self.avoid = ([IntegerForm(f.constant, f.gradient + pad) for f in self.forms]
                      + [IntegerForm(f.constant, pad + f.gradient) for f in self.forms])
        self.differences = [IntegerForm.primitive(difference_form(F))
                            for F in F_list]
        (self.scaled,) = _scaled_weights(arr.weights)
        self.points = {}

    def sample(self, k, seed, bound):
        """A doubled integer point off every hyperplane and the first k slices."""
        return random_point_avoiding(
            self.avoid + self.differences[:k], bound=bound, seed=seed,
            dimension=2 * self.dimension,
        )

    def at(self, xy):
        if xy not in self.points:
            self.points[xy] = _scaled_kernel_forms(
                self.forms, self.scaled, xy, self.dimension)
        return self.points[xy]


def _scaled_weights(*weight_lists):
    """Each list times W, the lcm of every rational weight's denominator.

    Rational weights become ints; RatFuncKappa weights are kept as they
    are times W.
    """
    W = lcm(*(w.denominator for ws in weight_lists for w in ws
              if not isinstance(w, RatFuncKappa)))
    return [[w * W if isinstance(w, RatFuncKappa) else int(w * W) for w in ws]
            for ws in weight_lists]


def _scaled_kernel_forms(forms, weights, xy, top):
    """W P (eta(x) - eta(y)) and (W P Omega)^0..top at an integer point.

    forms are IntegerForms on one copy, weights the scaled A_i, and P
    the product of the forms' values at x and at y.
    """
    M = len(xy) // 2
    x, y = xy[:M], xy[M:]
    vx = [f.evaluate(x) for f in forms]
    vy = [f.evaluate(y) for f in forms]
    P = prod(vx) * prod(vy)
    eta, omega = {}, {}
    for f, a, u, v in zip(forms, weights, vx, vy):
        ax, ay, axy = a * (P // u), a * (P // v), a * (P // (u * v))
        for j, g in enumerate(f.gradient):
            if not g:
                continue
            eta[(j,)] = eta.get((j,), 0) + ax * g
            eta[(M + j,)] = eta.get((M + j,), 0) - ay * g
            for l, h in enumerate(f.gradient):
                if h:
                    key = (j, M + l)
                    omega[key] = omega.get(key, 0) + axy * g * h
    omega = ExteriorElement(2 * M, omega)
    powers = [ExteriorElement(2 * M, {(): 1})]
    for _ in range(top):
        powers.append(powers[-1].wedge(omega))
    return ExteriorElement(2 * M, eta), powers


def _scaled_sides(lhs_forms, rhs_forms, differences, k, xy):
    """Both sides of the boundary identity for F_1..F_k at xy, times C.

    lhs_forms and rhs_forms are _scaled_kernel_forms at xy, with one W,
    for the weights of the left and of the right side.  C is
    (W P)^(b+1) (b+1)! Q^k, with b = M - k and Q the product of the
    values of the k difference forms (see the module docstring).
    """
    b = len(xy) // 2 - k
    values = [d.evaluate(xy) for d in differences[:k]]
    Q = prod(values)
    deltas = [
        ExteriorElement(len(xy), {(j,): Q // u * g
                                  for j, g in enumerate(d.gradient) if g})
        for d, u in zip(differences, values)
    ]
    upper = lhs_forms[1][b + 1]
    eta, lower = rhs_forms[0], rhs_forms[1][b]
    lhs = ExteriorElement(len(xy))
    for j in range(k):
        term = reduce(ExteriorElement.wedge, deltas[:j] + deltas[j + 1:], upper)
        lhs = lhs + term if j % 2 == 0 else lhs - term
    rhs = eta.wedge(reduce(ExteriorElement.wedge, deltas, lower)).scale(b + 1)
    return lhs.scale(Q), rhs


def verify_grundlegend(arr, F_list, k, num_points=5, seed=0, bound=10**6,
                       kernel=None):
    """Check the boundary identity for the first k comparison functions.

    Samples num_points doubled integer points away from all hyperplanes
    and diagonal slices, then compares both sides, scaled to integers,
    exactly.  Returns True iff the identity holds at every sampled point.

    kernel is the BoundaryKernel of arr and F_list.  The calls for
    k = 1..M with one seed mostly draw the same points, so passing them
    one kernel builds the kernel forms once per distinct point.
    """
    if not 1 <= k <= arr.dimension:
        raise ValueError("k must lie between 1 and the dimension")
    if kernel is None:
        kernel = BoundaryKernel(arr, F_list)
    rng = random.Random(seed)
    for _ in range(num_points):
        xy = kernel.sample(k, rng.randrange(2**32), bound)
        forms = kernel.at(xy)
        lhs, rhs = _scaled_sides(forms, forms, kernel.differences, k, xy)
        if lhs != rhs:
            return False
    return True


def grundlegend_control(arr, F_list, seed=0, bound=10**6, kernel=None):
    """Mismatched-weight control for the boundary identity at k = M.

    Evaluates the left side with the given weights and the right side
    with weight 0 raised by 1/5; returns True when the mismatch is
    detected (the two sides differ at a sampled point).  A checker that
    cannot fail this control would be vacuous.  kernel is as for
    verify_grundlegend.
    """
    if kernel is None:
        kernel = BoundaryKernel(arr, F_list)
    M = arr.dimension
    perturbed = [w + Fraction(1, 5) if i == 0 else w
                 for i, w in enumerate(arr.weights)]
    weights, shifted = _scaled_weights(arr.weights, perturbed)
    xy = kernel.sample(M, seed, bound)
    # at k = M, b = 0: the left side takes Omega^1, the right side Omega^0
    lhs, rhs = _scaled_sides(
        _scaled_kernel_forms(kernel.forms, weights, xy, 1),
        _scaled_kernel_forms(kernel.forms, shifted, xy, 0),
        kernel.differences, M, xy,
    )
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


def expand_top_form(arr, lattice, evaluator, seed=0, bound=10**6, space=None):
    """Coefficients of a top form in the wedge monomial basis.

    evaluator(point) must return the exact coefficient of dt_1..dt_M at
    the point.  Solves an interpolation system on dim + 3 sampled points
    off the hyperplanes, reduces the solution to the canonical
    representative modulo monomial relations, and re-verifies at 3 fresh
    points.  Raises NotInSpan when no logarithmic expansion exists.
    The tests use it as the oracle for svmap.omega_sv.
    """
    M = arr.dimension
    if space is None:
        space = AomotoSpace(arr, lattice, M)
    mons = monomials(arr.size, M)
    rng = random.Random(seed)
    certification = 3

    def sample():
        return random_point_avoiding(
            arr.forms, bound=bound, seed=rng.randrange(2**32), dimension=M
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
            return tuple(space.representative(space.normal_form(enumerate(solution))))
    raise NotInSpan("evaluator is not a combination of logarithmic monomials")
