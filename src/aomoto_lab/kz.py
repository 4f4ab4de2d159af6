"""The sl2 KZ connection: transport, monodromy, and flat sections.

A KzSystem places sl2 irreducibles of highest weights m_1, ..., m_n at
distinct points z_1, ..., z_n (four doublets by default), and the
connection acts on the coinvariants of their tensor product, a space of
dimension d with the basis that liealg.coinvariants_quotient chooses.
For four doublets d = 2, with basis {[v], [w]}, v = v1 x v1 x v2 x v2
and w = v1 x v2 x v1 x v2 (lowered vectors in slots 3,4 resp. 2,4); the
closed-form flat sections are for that case only.  A horizontal section
satisfies

    (d/dz_j + (1/kappa) sum_{k != j} Omega_{jk} / (z_j - z_k)) u = 0,

so the evolution matrix in z_j is minus the connection matrix that
_connection_at builds.  The connection is flat at every kappa, because
the Omegas satisfy the infinitesimal braid relations
[Omega_ij, Omega_ik + Omega_jk] = 0 and [Omega_ij, Omega_kl] = 0 (Kohno,
Ann. Inst. Fourier 37, 1987); the tests check these exactly on
casimir_matrices.

Transport moves z_1 along a piecewise-linear path while the other
points stay put, integrating with Taylor series recentered at each step:
the series radius equals the distance to the nearest puncture and the
step stays well inside it, so the truncation error is controlled by a
geometric tail.  The process keeps each segment's transport in one memo,
keyed on the segment and the system's own values (see transport).  A
loop around one puncture is the way out from its base, a circle about
the puncture and the way back, so its monodromy is the circle's
conjugated by the transport along the way out (see
MAX_LOOP_ERROR_GROWTH for when that is refused).  The process keeps
each loop's monodromy in a second memo, keyed on the loop and the
system's own values (see simple_loop_monodromy), so a repeated loop is
neither transported nor circled again.  Every circle comes
from the Frobenius series of the solution at the puncture, whose local
exponents are exact rationals, read off the Clebsch-Gordan channels of
the pair (see _rational_eigenbasis), with log terms where two of them
differ by an integer (see _frobenius_circle).  hyp2f1 walks its contour with
the transport's step rule, on the scalar equation its integrand solves.
A Taylor step, a Frobenius circle and a hyp2f1 step expand one local
series, on the partial-fraction form of the equation: one first-order
recurrence per puncture (see _series_terms).

Floating arithmetic runs through mpmath at the system's precision,
except that the series and the step products run on an integer kernel:
a real number is an integer mantissa and a binary exponent, and each
complex sum or product is formed exactly from those integers and
rounded once to the precision, to nearest with ties to even.  That is
how libmp's mpc_add and mpc_mul round the same exact expressions, and
the kernel copies the one shortcut libmp takes for addends far apart
(see _far_addends), so every value is bit-identical to the same
recurrence on mpc objects; only additions of an exact zero are left
out.  The quotients h / s_k of a series stay libmp calls (mpc_div), and
so does the size test of a term where the exponents of its entries do
not decide it.  tests/test_kz_kernel.py checks the kernel operations
against libmp value for value, and the bit-identity tests of
tests/test_kz.py check Taylor steps, hyp2f1 steps, Frobenius circles and
whole loops against the recurrence on mpc objects.
"""

import functools
import math
import numbers
from fractions import Fraction

import mpmath
from mpmath.libmp import from_man_exp, from_rational, mpc_abs, mpc_div, mpf_lt

from . import linalg
from .errors import (
    BranchCut, DuplicatePoints, LoopEnclosesPuncture, PrecisionLoss,
    StepUnderflow, ZeroKappa,
)
from .exactfield import DEFAULT_PRECISION_BITS
from .liealg import TensorSpace, coinvariants_quotient

KEEP_OUT_RADIUS = 0.01
STEP_RATIO = 0.38
# The shape of every loop of z_1 around a puncture (simple_loop): a
# circle of this radius about it, reached from the base along legs this
# far below the base and the puncture (ContourPath.way_out).
LOOP_RADIUS = 0.15
LOOP_DEPTH = 0.6
MAX_SERIES_TERMS = 400
# A loop's monodromy M = L^-1 C L can carry the transport's errors of L
# and C, relative to their norms, into an error |L| |L^-1| |C| / |M| times
# larger relative to |M|.  A kz report prints its numbers 10^4
# (cli.KZ_GUARD_DIGITS decades) above a bound of tol times the matrix
# norm, so a larger growth is refused with PrecisionLoss.
MAX_LOOP_ERROR_GROWTH = 10**4
# Most entries each kz memo keeps, those used last: segment transports
# (see _segment_transport) and loop monodromies (see _loop_monodromy).
# For four doublets, key included, a segment entry takes about 1.5 KB at
# 128 bits and 2.5 KB at 1024 bits (tracemalloc over 200 one-segment
# transports, CPython 3.11), and a loop entry 2.0 KB and 3.2 KB (what
# emptying the memo frees, over 120 loops); a kz-monodromy traffic of
# 1100 requests meets about 390 distinct segments, and of 1000 requests
# about 165 distinct loops.
KZ_MEMO_SIZE = 1024


def casimir_matrices(weights=(1, 1, 1, 1)):
    """Two-site Casimir operators on the coinvariant basis, one per pair.

    Omega_{jk} acts as e^(j) f^(k) + f^(j) e^(k) + (1/2) h^(j) h^(k) on
    the tensor product, then is projected to the coinvariant quotient
    basis.  Returns a dict keyed by (j, k) with j < k, entries rational.
    The matrices are built once per weights tuple; every call gets its
    own copy, so a caller may modify the result.
    """
    return {
        pair: [list(row) for row in mat]
        for pair, mat in _casimir_matrices(tuple(weights)).items()
    }


@functools.lru_cache(maxsize=16)
def _casimir_matrices(weights):
    space = TensorSpace(weights)
    chosen, projection = coinvariants_quotient(space)
    n = len(space.ms)
    out = {}
    for j in range(n):
        for k in range(j + 1, n):
            cols = []
            for idx in chosen:
                image = _omega(space, j, k, {space.basis[idx]: Fraction(1)})
                cols.append([
                    sum((row[space.index[b]] * c for b, c in image.items()),
                        Fraction(0))
                    for row in projection
                ])
            out[(j, k)] = [list(row) for row in zip(*cols)]
    return out


def _omega(space, j, k, vec):
    """e^(j) f^(k) + f^(j) e^(k) + (1/2) h^(j) h^(k) applied to a sparse vector."""
    out = {}
    for a, b, scale in (("e", "f", 1), ("f", "e", 1), ("h", "h", Fraction(1, 2))):
        for t, c in space.act(a, j, space.act(b, k, vec)).items():
            out[t] = out.get(t, 0) + scale * c
    return out


class KzSystem:
    """Marked points with sl2 highest weights, kappa, and the Casimir
    matrices of the weights (see casimir_matrices), one per pair of points.

    A system keeps no transport: segment transports and loop monodromies
    live in the process memos of _segment_transport and _loop_monodromy,
    keyed on the values, not on the system.  Neither reads the system's
    matrices, which are the caller's copy.
    """

    def __init__(self, points, kappa, weights=(1, 1, 1, 1),
                 precision_bits=DEFAULT_PRECISION_BITS):
        if kappa == 0:
            raise ZeroKappa("kappa must be nonzero")
        self.kappa = Fraction(kappa)
        self.points = list(points)
        if len(set(self.points)) != len(self.points):
            raise DuplicatePoints("marked points must be pairwise distinct")
        self.n = len(self.points)
        self.weights = tuple(weights)
        if len(self.weights) != self.n:
            raise ValueError("one weight is needed per point")
        self.matrices = casimir_matrices(weights)
        self.d = len(next(iter(self.matrices.values())))
        self.precision_bits = precision_bits

    def omega(self, j, k):
        if j == k:
            raise ValueError("Casimir operators pair distinct factors")
        return self.matrices[(min(j, k), max(j, k))]


# ---------------------------------------------------------------------------
# small dense complex matrices as lists of mpmath numbers


def _to_mpc(x):
    if isinstance(x, Fraction):
        return mpmath.mpc(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator))
    if isinstance(x, complex):
        return mpmath.mpc(x.real, x.imag)
    return mpmath.mpc(x)


def _frac_matrix(mat):
    return [[_to_mpc(entry) for entry in row] for row in mat]


def _mat_identity(d):
    return [[mpmath.mpc(1 if r == c else 0) for c in range(d)] for r in range(d)]


def _mat_zero(d):
    return [[mpmath.mpc(0) for _ in range(d)] for _ in range(d)]


def _mat_mul(a, b):
    d = len(a)
    m = len(b[0])
    return [
        [sum((a[r][i] * b[i][c] for i in range(len(b))), mpmath.mpc(0))
         for c in range(m)]
        for r in range(d)
    ]


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_scale(a, s):
    return [[s * x for x in row] for row in a]


def _mat_norm(a):
    return max(abs(x) for row in a for x in row)


def _mat_vec(a, v):
    return [sum((row[i] * v[i] for i in range(len(v))), mpmath.mpc(0)) for row in a]


def _mat_inv(a):
    d = len(a)
    work = [list(row) + [mpmath.mpc(1 if r == c else 0) for c in range(d)]
            for r, row in enumerate(a)]
    for col in range(d):
        pivot = max(range(col, d), key=lambda r: abs(work[r][col]))
        if abs(work[pivot][col]) == 0:
            raise PrecisionLoss("singular matrix in inversion")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(d):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[d:] for row in work]


# ---------------------------------------------------------------------------
# paths


class ContourPath:
    """Piecewise-linear path for the moving coordinate z_1.

    Waypoints are complex numbers; consecutive duplicates are dropped.
    Circles are entered as chord polygons fine enough (20 degrees per
    chord) to stay homotopic to the smooth circle outside the keep-out
    radius of the punctures.
    """

    def __init__(self, waypoints):
        pts = [complex(w) for w in waypoints]
        cleaned = []
        for p in pts:
            if not cleaned or abs(p - cleaned[-1]) > 1e-15:
                cleaned.append(p)
        if not cleaned:
            raise ValueError("a path needs at least one waypoint")
        self.waypoints = cleaned

    def segments(self):
        return list(zip(self.waypoints, self.waypoints[1:]))

    def reversed(self):
        return ContourPath(list(reversed(self.waypoints)))

    def concat(self, other):
        if abs(self.waypoints[-1] - other.waypoints[0]) > 1e-12:
            raise ValueError("paths do not share an endpoint")
        return ContourPath(self.waypoints + other.waypoints[1:])

    def min_distance(self, punctures):
        best = math.inf
        for a, b in self.segments():
            for p in punctures:
                best = min(best, _segment_distance(a, b, complex(p)))
        for p in punctures:
            best = min(best, abs(self.waypoints[0] - complex(p)))
        return best

    @classmethod
    def circle(cls, center, radius):
        """Closed counterclockwise polygon of 18 chords around center, from
        and back to center - i radius."""
        center = complex(center)
        angles = [math.radians(20 * s - 90) for s in range(19)]
        return cls([center + radius * complex(math.cos(a), math.sin(a))
                    for a in angles])

    @classmethod
    def way_out(cls, base, center, radius=LOOP_RADIUS, depth=LOOP_DEPTH):
        """From base down by depth, across to below center, and up to the
        entry point center - i radius of the circle about center."""
        base = complex(base)
        center = complex(center)
        return cls([base, complex(base.real, base.imag - depth),
                    complex(center.real, center.imag - depth),
                    center - 1j * radius])

    @classmethod
    def loop_around(cls, base, center, radius=LOOP_RADIUS, depth=LOOP_DEPTH):
        """Loop from base around center, routed through the lower half-plane:
        the way out, the circle from its entry point, and the way back."""
        out = cls.way_out(base, center, radius=radius, depth=depth)
        return out.concat(cls.circle(center, radius)).concat(out.reversed())


def _segment_distance(a, b, p):
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0:
        return abs(p - a)
    t = ((p - a) * ab.conjugate()).real / denom
    t = max(0.0, min(1.0, t))
    return abs(p - (a + t * ab))


# ---------------------------------------------------------------------------
# transport


def transport(sys, path, tol=None):
    """Fundamental solution along the path of z_1.

    The other points stay at their system values.  Steps are Taylor
    expansions of the solution recentered along each segment; each step
    length is at most STEP_RATIO times the distance to the nearest
    puncture, and raises StepUnderflow inside the keep-out radius.  The
    step matrices and their products run on the integer kernel (see the
    module docstring), where every sum and product is the exact value
    rounded once, as mpc arithmetic rounds it at the same precision, and
    the result becomes mpc once, here.  Each segment's transport comes
    from the process-wide memo of _segment_transport, keyed on the
    system's own values (the other points, the weights, kappa, the
    quarter tolerance and the precision) and the segment's endpoints, so
    a leg that two paths share (the first leg of the way out of the base
    of a commutator's two loops), or that an earlier request with the
    same data integrated, is integrated once; the products run in the
    same order either way.
    """
    with mpmath.workprec(sys.precision_bits + 64):
        quarter_tol = (_tolerance(sys, tol) / 4)._mpf_
        total = _identity(sys.d)
        for a, b in path.segments():
            segment = _segment_transport(a, b, tuple(sys.points[1:]),
                                         sys.weights, sys.kappa, quarter_tol,
                                         sys.precision_bits)
            total = _kmat_mul(segment, total, mpmath.mp.prec)
        return [[mpmath.mp.make_mpc(_to_libmp(x)) for x in row] for row in total]


def _tolerance(sys, tol):
    """tol as an mpf, 2^-(precision_bits / 2) by default."""
    if tol is None:
        return mpmath.mpf(2) ** (-(sys.precision_bits // 2))
    tol = mpmath.mpf(tol)
    if not tol > 0:
        raise ValueError("tol must be positive")
    return tol


@functools.lru_cache(maxsize=KZ_MEMO_SIZE)
def _segment_transport(a, b, punctures, weights, kappa, quarter_tol,
                       precision_bits):
    """The kernel transport from a to b, a tuple of rows, memoized.

    a and b are complex, quarter_tol is a libmp mpf and the rest are the
    system's own values.  The memo keys on these, which determine
    everything the integration reads, so a hit returns what a miss
    computes.  A miss converts the punctures, the Omegas and -1/kappa at
    precision_bits + 64, whatever the caller's precision.
    """
    with mpmath.workprec(precision_bits + 64):
        prec = mpmath.mp.prec
        centers = [_to_mpc(z) for z in punctures]
        matrices = _casimir_matrices(weights)
        omegas = [[[_from_libmp(x._mpc_) for x in row]
                   for row in _frac_matrix(matrices[(0, k)])]
                  for k in range(1, len(weights))]
        minus_inv_kappa = _from_libmp(_to_mpc(-1 / kappa)._mpc_)
        cap = _term_cap(precision_bits)
        result = _identity(len(omegas[0]))
        for shifts, h in _steps(_to_mpc(a), _to_mpc(b), centers):
            step = _taylor_step([_from_libmp(s._mpc_) for s in shifts],
                                _from_libmp(h._mpc_), omegas, minus_inv_kappa,
                                quarter_tol, cap, prec)
            result = _kmat_mul(step, result, prec)
    return tuple(map(tuple, result))


def _steps(a, b, punctures):
    """(offsets from the punctures, length) of each Taylor step from a to b.

    A step is at most STEP_RATIO times the distance to the nearest
    puncture, and one that would start inside the keep-out radius raises
    StepUnderflow.
    """
    pos = a
    while True:
        remaining = b - pos
        if abs(remaining) == 0:
            return
        shifts = [pos - p for p in punctures]
        rho = min(abs(s) for s in shifts)
        if rho <= KEEP_OUT_RADIUS:
            raise StepUnderflow(
                f"path point {complex(pos)} is inside the keep-out radius"
            )
        hmax = STEP_RATIO * rho
        if abs(remaining) <= hmax:
            yield shifts, remaining
            return
        h = remaining / abs(remaining) * hmax
        yield shifts, h
        pos = pos + h


# The series kernel.  A real number is an integer mantissa m and an
# exponent e, the value m * 2**e, and a complex number is the flat tuple
# (m_re, e_re, m_im, e_im).  A sum or product is formed exactly from the
# integers and rounded once to prec bits, to nearest with ties to even,
# which is how libmp rounds mpc_add, mpc_mul and mpc_mul_int, up to one
# shortcut that _cmul copies (see _far_addends): so each value is the one
# the libmp call gives.  The rounding is written out in _cadd
# and _cmul, which run in the innermost loop.  A series' offsets and
# length enter from libmp tuples once per series; the transport's
# matrices enter and leave once per transport.

_ONE = (1, 0, 0, 0)
_ZERO = (0, 0, 0, 0)


def _from_libmp(z):
    (rs, rm, re, _), (js, jm, je, _) = z
    return (-rm if rs else rm), re, (-jm if js else jm), je


def _to_libmp(x):
    m, e, k, f = x
    return from_man_exp(m, e), from_man_exp(k, f)


def _cadd(x, y, prec):
    """x + y as mpc_add gives it, for x and y rounded to prec bits."""
    p, ep, q, eq = x
    u, eu, v, ev = y
    if ep > eu:
        m, e = (p << (ep - eu)) + u, eu
    else:
        m, e = p + (u << (eu - ep)), ep
    n = m.bit_length() - prec
    if n > 0:
        # m >> (n - 1) rounds toward minus infinity for either sign, so
        # its last bit is the first dropped bit and the mask below holds
        # the others
        t = m >> (n - 1)
        m = (t >> 1) + 1 if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)) \
            else t >> 1
        e += n
    if eq > ev:
        k, f = (q << (eq - ev)) + v, ev
    else:
        k, f = q + (v << (ev - eq)), eq
    n = k.bit_length() - prec
    if n > 0:
        t = k >> (n - 1)
        k = (t >> 1) + 1 if t & 1 and (t & 2 or k & ((1 << (n - 1)) - 1)) \
            else t >> 1
        f += n
    return m, e, k, f


def _cmul(x, y, prec):
    """x * y as mpc_mul gives it: each part's two exact products, rounded once."""
    a, ea, b, eb = x
    c, ec, d, ed = y
    p, ep, q, eq = a * c, ea + ec, -(b * d), eb + ed
    if p and q:
        gap = p.bit_length() + ep - q.bit_length() - eq
        if gap > prec + 4 or -gap > prec + 4:
            p, ep, q, eq = _far_addends(p, ep, q, eq, gap, prec)
    if ep > eq:
        m, e = (p << (ep - eq)) + q, eq
    else:
        m, e = p + (q << (eq - ep)), ep
    n = m.bit_length() - prec
    if n > 0:
        t = m >> (n - 1)
        m = (t >> 1) + 1 if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)) \
            else t >> 1
        e += n
    p, ep, q, eq = a * d, ea + ed, b * c, eb + ec
    if p and q:
        gap = p.bit_length() + ep - q.bit_length() - eq
        if gap > prec + 4 or -gap > prec + 4:
            p, ep, q, eq = _far_addends(p, ep, q, eq, gap, prec)
    if ep > eq:
        k, f = (p << (ep - eq)) + q, eq
    else:
        k, f = p + (q << (eq - ep)), ep
    n = k.bit_length() - prec
    if n > 0:
        t = k >> (n - 1)
        k = (t >> 1) + 1 if t & 1 and (t & 2 or k & ((1 << (n - 1)) - 1)) \
            else t >> 1
        f += n
    return m, e, k, f


def _far_addends(p, ep, q, eq, gap, prec):
    """The addends libmp's mpf_add rounds in place of p 2^ep and q 2^eq.

    gap is how far the top bit of p lies above that of q, and exceeds
    prec + 4 either way.  Where, in addition, the exponents of the two
    addends written with odd mantissas differ by more than 100, mpf_add
    shifts the larger one up by prec + 4 bits and adds a unit of the
    smaller one's sign.  That rounds as the exact sum does when the
    larger addend fits in prec bits, so _cadd needs no such step, but
    not always when it is an exact product of two mantissas, as here.
    """
    offset = ep - eq + (p & -p).bit_length() - (q & -q).bit_length()
    if gap > 0 and offset > 100:
        return p << (prec + 4), ep - prec - 4, 1 if q > 0 else -1, ep - prec - 4
    if gap < 0 and offset < -100:
        return 1 if p > 0 else -1, eq - prec - 4, q << (prec + 4), eq - prec - 4
    return p, ep, q, eq


def _rmul(x, r, prec):
    """x * r for a real kernel value r = (c, ec), the value c 2^ec.

    Each part's one exact product is rounded once, as mpc_mul rounds it
    when the imaginary part of r is zero.
    """
    a, ea, b, eb = x
    c, ec = r
    m, e = a * c, ea + ec
    n = m.bit_length() - prec
    if n > 0:
        t = m >> (n - 1)
        m = (t >> 1) + 1 if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)) \
            else t >> 1
        e += n
    k, f = b * c, eb + ec
    n = k.bit_length() - prec
    if n > 0:
        t = k >> (n - 1)
        k = (t >> 1) + 1 if t & 1 and (t & 2 or k & ((1 << (n - 1)) - 1)) \
            else t >> 1
        f += n
    return m, e, k, f


def _term_cap(precision_bits):
    """The most series terms a Taylor step may take at this precision.

    MAX_SERIES_TERMS for each 256 bits: a step's terms shrink about as
    STEP_RATIO^k, so the terms needed grow with the bits asked for, about
    190 at 256 bits and 750 at 1024.
    """
    return MAX_SERIES_TERMS * max(256, precision_bits) // 256


def _identity(d):
    return [[_ONE if r == c else _ZERO for c in range(d)] for r in range(d)]


def _kmat_mul(a, b, prec):
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = _cmul(row[0], col[0], prec)
            for x, y in zip(row[1:], col[1:]):
                acc = _cadd(acc, _cmul(x, y, prec), prec)
            out_row.append(acc)
        out.append(out_row)
    return out


def _below(x, tol, tol_top, prec):
    """Whether mpc_abs(x) < tol, where 2**(tol_top - 1) <= tol < 2**tol_top.

    A part at or above 2**tol_top, or both parts below 2**(tol_top - 2),
    decide it without libmp: |x| is then at least 2**tol_top, or below
    2**(tol_top - 1.5), and mpc_abs rounds neither across tol.
    """
    m, e, k, f = x
    top = max(m.bit_length() + e if m else -math.inf,
              k.bit_length() + f if k else -math.inf)
    if top > tol_top:
        return False
    if top <= tol_top - 2:
        return True
    return mpf_lt(mpc_abs(_to_libmp(x), prec, "n"), tol)


def _rational(x, prec):
    """The Fraction x rounded to prec bits, as a real kernel value."""
    sign, man, exp, _ = from_rational(x.numerator, x.denominator, prec, "n")
    return (-man if sign else man), exp


@functools.lru_cache(maxsize=16)
def _reciprocals(count, prec, offset):
    """[0, 1/(1 + offset), ..., 1/(count + offset)], each rounded to prec
    bits, as real kernel values, and None for a zero divisor; offset is a
    Fraction or an int."""
    return [(0, 0)] + [_rational(Fraction(1) / (k + offset), prec)
                       if k + offset else None for k in range(1, count + 1)]


def _series_terms(shifts, h, rows, exponents, tol, cap, prec, log=None):
    """The terms T_1, T_2, ... of a local series solution, as kernel values.

    The solution U(x) = K(x) x^R x^C of x U' = (R + x sum_k M_k / (x + s_k)) U,
    for R = diag(exponents), has the holomorphic factor K = sum_n K_n x^n
    with K_0 = I, and a nilpotent log part C whose entries [r][c] are 0
    but where r_r - r_c is a positive integer (Coddington & Levinson,
    Theory of Ordinary Differential Equations, 1955, ch. 4).  Expanding
    each 1 / (x + s_k) about x = 0, the terms T_n = K_n h^n and the
    entries C~[r][c] = C[r][c] h^(r_r - r_c) obey

        W_(k,n) = (T_n - W_(k,n-1)) g_k,   g_k = h / s_k,   W_(k,-1) = 0,
        (n + 1 + r_c - r_r) T_(n+1)[r][c] = (sum_k M_k W_(k,n))[r][c]
            - sum_i T_(n+1-m)[r][i] C~[i][c]   over m = r_i - r_c in 1..n,

    where W_(k,n) = h^(n+1) sum_(j<=n) (-s_k)^-j K_(n-j) / s_k.  Where the
    divisor is 0, T_(n+1)[r][c] is 0 and the right-hand side is C~[r][c],
    which goes into the flat list log at entry r d + c; R = 0 has no such
    entry.  rows holds, per row r, the nonzero entries of the real M_k as
    (k, i, M_k[r][i]).  Each caller keeps |g_k| below 1, so each W
    recurrence contracts.  The terms stop after three in a row below tol
    (see _below), or raise PrecisionLoss after cap terms (see _term_cap).
    The arguments and the terms are kernel values, except tol, which is a
    libmp mpf, and the exponents, which are exact; each g_k is mpc_div's,
    and each 1 / (n + 1 + r_c - r_r) comes from _reciprocals.  A term is
    yielded flat, row after row, so T[r][c] is its entry r d + c.
    """
    d = len(rows)
    ratios = [_from_libmp(mpc_div(_to_libmp(h), _to_libmp(s), prec, "n"))
              for s in shifts]
    # per flat entry (r, c): the products (k, flat index of [i][c], M_k[r][i])
    # and the divisor table; per column c, the (i, r_i - r_c) of C~
    sums = [[(k, i * d + c, m) for k, i, m in row]
            for row in rows for c in range(d)]
    recips = [_reciprocals(cap + 1, prec, rc - rr)
              for rr in exponents for rc in exponents]
    orders = [[(i, int(ri - rc)) for i, ri in enumerate(exponents)
               if ri - rc >= 1 and (ri - rc) % 1 == 0] for rc in exponents]
    first = min((m for column in orders for _, m in column), default=cap + 1)
    tol_top = tol[2] + tol[3]
    terms = [[_ONE if r == c else _ZERO for r in range(d) for c in range(d)]]
    partial = [[_ZERO] * (d * d) for _ in shifts]
    quiet = 0
    for n in range(cap):
        partial = [[_cmul(_cadd(t, (-a, ea, -b, eb), prec), g, prec)
                    for t, (a, ea, b, eb) in zip(terms[n], w)]
                   for w, g in zip(partial, ratios)]
        plain = n + 1 < first
        term = []
        for products, recip in zip(sums, recips):
            acc = _ZERO
            for j, (k, x, m) in enumerate(products):
                y = _rmul(partial[k][x], m, prec)
                acc = _cadd(acc, y, prec) if j else y
            term.append(_rmul(acc, recip[n + 1], prec) if plain else acc)
        if not plain:
            for x, acc in enumerate(term):
                r, c = divmod(x, d)
                for i, m in orders[c]:
                    if m <= n:
                        a, ea, b, eb = _cmul(terms[n + 1 - m][r * d + i],
                                             log[i * d + c], prec)
                        acc = _cadd(acc, (-a, ea, -b, eb), prec)
                if recips[x][n + 1] is None:
                    log[x], term[x] = acc, _ZERO
                else:
                    term[x] = _rmul(acc, recips[x][n + 1], prec)
        terms.append(term)
        yield term
        if all(_below(x, tol, tol_top, prec) for x in term):
            quiet += 1
            if quiet >= 3:
                return
        else:
            quiet = 0
    raise PrecisionLoss("a local series did not converge within the term cap")


def _series_sum(shifts, h, rows, exponents, tol, cap, prec, log=None):
    """I + T_1 + T_2 + ... of _series_terms, as a kernel matrix."""
    d = len(rows)
    total = [_ONE if r == c else _ZERO for r in range(d) for c in range(d)]
    for term in _series_terms(shifts, h, rows, exponents, tol, cap, prec, log):
        total = [_cadd(x, y, prec) for x, y in zip(total, term)]
    return [total[r * d:(r + 1) * d] for r in range(d)]


def _taylor_step(shifts, h, omegas, minus_inv_kappa, quarter_tol, cap, prec):
    """Transport matrix over one step of length h.

    With w the displacement from the step's start, the evolution matrix
    is A(w) = sum_k M_k / (w + s_k), for s_k = shifts[k] and the real
    M_k = -Omega_k / kappa, so the step is the series of _series_terms
    with R = 0, where every divisor is n + 1.  The arguments and the
    result are kernel values, except quarter_tol, which is a libmp mpf.
    """
    d = len(omegas[0])
    # per row r, the nonzero entries of the M_k as (k, i, M_k[r][i])
    rows = [
        [(k, i, _cmul(omega[r][i], minus_inv_kappa, prec)[:2])
         for k, omega in enumerate(omegas) for i in range(d) if omega[r][i][0]]
        for r in range(d)
    ]
    return _series_sum(shifts, h, rows, [0] * d, quarter_tol, cap, prec)


def simple_loop(sys, around, base=None):
    """A loop of z_1 from base (default z_1) once counterclockwise around
    the puncture z_around, of radius LOOP_RADIUS and depth LOOP_DEPTH.

    Raises LoopEnclosesPuncture when another puncture lies within
    LOOP_RADIUS + KEEP_OUT_RADIUS of the circled one, where the circle
    would enclose it too or pass inside its keep-out radius.
    """
    if base is None:
        base = complex(sys.points[0])
    center = complex(sys.points[around])
    for k, point in enumerate(sys.points):
        if k not in (0, around) and \
                abs(complex(point) - center) <= LOOP_RADIUS + KEEP_OUT_RADIUS:
            raise LoopEnclosesPuncture(
                f"the radius-{LOOP_RADIUS} loop around point {around + 1} "
                f"({sys.points[around]}) would also enclose point {k + 1} "
                f"({point})"
            )
    return ContourPath.loop_around(base, center)


def simple_loop_monodromy(sys, around, base=None, tol=None):
    """Monodromy of z_1 along the counterclockwise loop around one puncture.

    The loop of simple_loop goes out from the base to the entry point of
    the circle, once around it, and back the way it came, so its
    monodromy is L^-1 C L, with L the transport along the way out and C
    the circle's, from the Frobenius series at the puncture (see
    _frobenius_circle).  The way out ends at radius min(LOOP_RADIUS,
    STEP_RATIO rho), rho the distance to the nearest other puncture, where
    the series converges as fast as a Taylor step; simple_loop keeps the
    other punctures beyond LOOP_RADIUS, so the loop is the same up to
    homotopy.
    Raises PrecisionLoss where the conjugation can grow the transport's
    error more than MAX_LOOP_ERROR_GROWTH times.  The monodromy comes
    from the process-wide memo of _loop_monodromy, keyed on the system's
    own values, so a loop that an earlier call computed is neither
    transported nor circled again; every call gets new mpc objects.
    """
    base = complex(sys.points[0] if base is None else base)
    rows = _loop_monodromy(tuple(sys.points), sys.weights, sys.kappa, around,
                           base, tol, sys.precision_bits)
    return [[mpmath.mp.make_mpc(x) for x in row] for row in rows]


@functools.lru_cache(maxsize=KZ_MEMO_SIZE)
def _loop_monodromy(points, weights, kappa, around, base, tol,
                    precision_bits):
    """The loop's monodromy as a tuple of rows of libmp mpc values, memoized.

    base is complex and tol is the caller's, as _tolerance reads it, or
    None; the rest are the system's own values.  The memo keys on these,
    which determine everything the loop reads, so a hit returns what a
    miss computes.  A miss builds its own system on them, whose Casimir
    matrices are those of _casimir_matrices, never the caller's, and
    stores the monodromy only once the growth guard has passed, so a
    refused loop raises again on every call.
    """
    sys = KzSystem(points, kappa, weights=weights,
                   precision_bits=precision_bits)
    loop = simple_loop(sys, around, base=base)
    center = complex(points[around])
    entry_radius = min([LOOP_RADIUS] + [
        STEP_RATIO * abs(complex(point) - center)
        for k, point in enumerate(points) if k not in (0, around)
    ])
    way_out = ContourPath.way_out(loop.waypoints[0], center,
                                  radius=entry_radius)
    out = transport(sys, way_out, tol=tol)
    circle = _frobenius_circle(sys, around, way_out.waypoints[-1], tol)
    with mpmath.workprec(precision_bits + 64):
        back = _mat_inv(out)
        monodromy = _mat_mul(back, _mat_mul(circle, out))
        growth = (_mat_norm(out) * _mat_norm(back) * _mat_norm(circle)
                  / _mat_norm(monodromy))
    if growth > MAX_LOOP_ERROR_GROWTH:
        raise PrecisionLoss(f"the loop around point {around + 1} can grow the "
                            f"transport's error {mpmath.nstr(growth, 3)} times")
    return tuple(tuple(x._mpc_ for x in row) for row in monodromy)


def _frobenius_circle(sys, around, entry, tol):
    """Transport of z_1 once counterclockwise around a puncture from entry.

    With x = z_1 - z_p for the puncture p = around, the system reads
    u' = (R / x + B(x)) u with R = -Omega_(0, p) / kappa (points indexed
    from 0, as in sys.omega) and B
    holomorphic for |x| < rho, the distance from z_p to the nearest
    other puncture.  With R = S diag(r) S^-1 (see _rational_eigenbasis),
    it has the fundamental solution S K(x) x^diag(r) x^C of _series_terms
    (the Frobenius method), with exponents r, h = w = entry - z_p,
    s_k = z_p - z_k over the other punctures k and
    M_k = S^-1 (-Omega_(0, k) / kappa) S, conjugated exactly.  Once
    around, x^diag(r) picks up exp(2 pi i diag(r)), which commutes with
    C, and x^C picks up exp(2 pi i C), so the circle is
    F exp(2 pi i diag(r)) exp(2 pi i C~) F^-1 with F = S K(w); the series
    stops below tol / 4.  The divisors n + 1 + r_c - r_r are exact until
    each reciprocal is rounded; one a distance delta from 0 makes terms
    of size about 1 / delta that cancel in the circle, so the circle runs
    at precision_bits + max(64, log2(1 / delta)), delta the smallest
    nonzero divisor.
    """
    others = [k for k in range(1, sys.n) if k != around]
    r, s = _rational_eigenbasis(sys.omega(0, around), sys.kappa,
                                sys.weights[0], sys.weights[around])
    minus_inv_kappa = -1 / sys.kappa
    moved = [[[x * minus_inv_kappa for x in row] for row in sys.omega(0, k)]
             for k in others]
    # the divisor nearest 0 in an entry is n + 1 - (r_r - r_c) for n + 1
    # the integer nearest r_r - r_c; one not below 1/2 costs no bits
    gaps = [b - a for a in r for b in r]
    delta = min((abs(g - round(g)) for g in gaps
                 if round(g) >= 1 and g != round(g)), default=1)
    with mpmath.workprec(sys.precision_bits
                         + max(64, (math.ceil(1 / delta) - 1).bit_length())):
        center = _to_mpc(sys.points[around])
        w = _to_mpc(entry) - center
        shifts = [center - _to_mpc(sys.points[k]) for k in others]
        d = sys.d
        # [S | M_k S ...] reduces to [I | S^-1 M_k S ...]
        reduced, _ = linalg.rref([
            s[j] + [sum(x * s[i][c] for i, x in enumerate(mat[j]))
                    for mat in moved for c in range(d)]
            for j in range(d)
        ])
        prec = mpmath.mp.prec
        rows = [
            [(k, i, _rational(x, prec)) for k in range(len(others))
             for i, x in enumerate(row[d * (k + 1):d * (k + 2)]) if x]
            for row in reduced
        ]
        log = [_ZERO] * (d * d)
        total = _series_sum(
            [_from_libmp(x._mpc_) for x in shifts], _from_libmp(w._mpc_),
            rows, r, (_tolerance(sys, tol) / 4)._mpf_,
            _term_cap(sys.precision_bits), prec, log)
        frame = _mat_mul(_frac_matrix(s), [
            [mpmath.mp.make_mpc(_to_libmp(x)) for x in row] for row in total
        ])
        turns = [mpmath.expjpi(mpmath.mpf(2 * x.numerator) / x.denominator)
                 for x in r]
        # times exp(2 pi i C~), a finite sum: C~ is strictly lower
        # triangular, since r ascends
        step = [[mpmath.mpc(0, 2 * mpmath.pi) * mpmath.mp.make_mpc(_to_libmp(x))
                 for x in log[j * d:(j + 1) * d]] for j in range(d)]
        power = turned = [[x * t for x, t in zip(row, turns)] for row in frame]
        for j in range(1, d):
            power = _mat_scale(_mat_mul(power, step), mpmath.mpf(1) / j)
            turned = _mat_add(turned, power)
        return _mat_mul(turned, _mat_inv(frame))


def _rational_eigenbasis(omega, kappa, m, n):
    """(r, S) with -omega / kappa = S diag(r) S^-1, r rational and ascending.

    omega is the Casimir matrix of two points of highest weights m and n,
    with Fraction entries.  It acts on the Clebsch-Gordan channel V_j of
    V_m x V_n, j = |m - n|, |m - n| + 2, ..., m + n, by the scalar
    lambda_j = (j(j + 2) - m(m + 2) - n(n + 2)) / 4 (see tests/oracles.py),
    so these are the only eigenvalues it can have: linalg.nullspace keeps
    each with its exact eigenvectors, and r = -lambda / kappa.  A Casimir
    residue has d of them.
    """
    values, columns = [], []
    for j in sorted(range(abs(m - n), m + n + 1, 2), reverse=kappa > 0):
        lam = Fraction(j * (j + 2) - m * (m + 2) - n * (n + 2), 4)
        shifted = [[x - lam if r == c else x for c, x in enumerate(row)]
                   for r, row in enumerate(omega)]
        for vec in linalg.nullspace(shifted, len(omega)):
            values.append(-lam / kappa)
            columns.append(vec)
    return values, [list(row) for row in zip(*columns)]


def pochhammer_monodromy(sys, p, q, base=None, tol=None):
    """Monodromy of z_1 along the commutator loop around punctures p and q.

    The loop runs around p, then q, then backwards around p, then q; the
    transport matrix is the corresponding commutator T_q^-1 T_p^-1 T_q T_p.
    Both loops leave the base along the same leg, which the segment memo
    of transport integrates once, and each returns along the inverse of
    its way out.  Each loop comes from the loop memo of
    simple_loop_monodromy, so a commutator that shares a loop with an
    earlier one computes only the other loop and the products.
    """
    t_p = simple_loop_monodromy(sys, p, base=base, tol=tol)
    t_q = simple_loop_monodromy(sys, q, base=base, tol=tol)
    with mpmath.workprec(sys.precision_bits + 64):
        return _mat_mul(
            _mat_inv(t_q), _mat_mul(_mat_inv(t_p), _mat_mul(t_q, t_p))
        )


# ---------------------------------------------------------------------------
# flat sections


_PHI_EXPONENT = Fraction(-1, 6)
_FV_EXPONENTS = {
    (0, 1): Fraction(-1, 2), (0, 2): Fraction(1, 2), (0, 3): Fraction(1, 2),
    (1, 2): Fraction(1, 2), (1, 3): Fraction(1, 2), (2, 3): Fraction(-1, 2),
}


def _check_branch(z):
    """Refuse coincident points and differences on the principal cut.

    z holds mpc or complex values; rounding keeps a difference's zeros
    and signs, so either kind gives the verdict of the exact values."""
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            diff = z[i] - z[j]
            if diff == 0:
                raise DuplicatePoints("flat sections need distinct points")
            if mpmath.im(diff) == 0 and mpmath.re(diff) <= 0:
                raise BranchCut(
                    f"difference z_{i + 1} - z_{j + 1} lies on the principal cut"
                )


def _phi_vector(zs):
    z1, z2, z3, z4 = zs
    return [(z1 - z3) * (z2 - z4), (z1 - z2) * (z3 - z4)]


def _phi_partials(zs):
    z1, z2, z3, z4 = zs
    return [
        [(z2 - z4), (z3 - z4)],
        [(z1 - z3), -(z3 - z4)],
        [-(z2 - z4), (z1 - z2)],
        [-(z1 - z3), -(z1 - z2)],
    ]


def flat_section_residual(sys, zs, exponent=_PHI_EXPONENT, section="phi"):
    """Largest connection residual of a candidate flat section at zs.

    section "phi": the vector ((z1-z3)(z2-z4), (z1-z2)(z3-z4)) times the
    product of all pairwise differences raised to the exponent.  The
    residual is normalized by the scalar prefactor, so it measures the
    identity and not the branch magnitude.  section "fv": the constant
    vector [v] times the fixed half-integer-exponent prefactor, tested in
    the quotient by the line spanned by the section of "phi".  Raises
    ValueError unless sys is four doublets (weights (1, 1, 1, 1)), and
    BranchCut when a pairwise difference lies on the principal cut.
    """
    if len(zs) != 4 or sys.weights != (1, 1, 1, 1):
        raise ValueError("flat sections are implemented for four doublets")
    if section not in ("phi", "fv"):
        raise ValueError("section must be 'phi' or 'fv'")
    with mpmath.workprec(sys.precision_bits):
        z = [_to_mpc(v) for v in zs]
        _check_branch(z)
        inv_kappa = 1 / _to_mpc(sys.kappa)
        omegas = _mpc_omegas(sys)
        phi = _phi_vector(z)
        worst = mpmath.mpf(0)
        if section == "phi":
            e = _to_mpc(exponent)
            partials = _phi_partials(z)
            for j in range(4):
                log_term = sum(
                    1 / (z[j] - z[k]) for k in range(4) if k != j
                )
                vec = [e * log_term * phi[r] + partials[j][r] for r in range(2)]
                conn = _connection_at(omegas, z, j, inv_kappa)
                extra = _mat_vec(conn, phi)
                residual = max(abs(vec[r] + extra[r]) for r in range(2))
                worst = max(worst, residual)
            return worst
        scale = max(abs(x) for x in phi)
        ell = [phi[1] / scale, -phi[0] / scale]
        v = [mpmath.mpc(1), mpmath.mpc(0)]
        exponents = {pair: _to_mpc(e) for pair, e in _FV_EXPONENTS.items()}
        for j in range(4):
            log_term = sum(
                exponents[(min(j, k), max(j, k))] / (z[j] - z[k])
                for k in range(4) if k != j
            )
            vec = [log_term * v[r] for r in range(2)]
            conn = _connection_at(omegas, z, j, inv_kappa)
            extra = _mat_vec(conn, v)
            residual = abs(
                ell[0] * (vec[0] + extra[0]) + ell[1] * (vec[1] + extra[1])
            )
            worst = max(worst, residual)
        return worst


def _mpc_omegas(sys):
    """The Casimir matrices of sys's weights as mpc matrices at the working
    precision, keyed by pair (j, k), j < k.

    The matrices are those of _casimir_matrices, converted once per
    weights and precision; every call gets its own dict of tuple rows.
    """
    return dict(_mpc_casimir_matrices(sys.weights, mpmath.mp.prec))


@functools.lru_cache(maxsize=16)
def _mpc_casimir_matrices(weights, prec):
    with mpmath.workprec(prec):
        return tuple((pair, tuple(map(tuple, _frac_matrix(mat))))
                     for pair, mat in _casimir_matrices(weights).items())


def _connection_at(omegas, z, j, inv_kappa):
    """The connection matrix sum_{k != j} Omega_jk * inv_kappa / (z_j - z_k),
    for the mpc Omegas of _mpc_omegas."""
    conn = _mat_zero(len(next(iter(omegas.values()))))
    for k in range(len(z)):
        if k != j:
            conn = _mat_add(
                conn,
                _mat_scale(omegas[(min(j, k), max(j, k))],
                           inv_kappa / (z[j] - z[k])),
            )
    return conn


# ---------------------------------------------------------------------------
# eigenvalues of 2x2 monodromies


def eigenvalues_2x2(mat):
    tr = mat[0][0] + mat[1][1]
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    disc = mpmath.sqrt(tr * tr - 4 * det)
    return [(tr + disc) / 2, (tr - disc) / 2]


# ---------------------------------------------------------------------------
# hypergeometric oracle by contour integration


_CONTOUR_RADIUS = 0.25
_CONTOUR_BASE = complex(0.5, -0.35)
_CONTOUR_DEPTH = 0.35


def _pochhammer_contour():
    """Waypoints of the double-commutator contour around t=0 and t=1.

    Based below the segment, with loops of radius _CONTOUR_RADIUS, so that
    the third singular point 1/u of the integrand (u = 2 puts it at 1/2)
    is neither approached nor encircled for the u that hyp2f1 accepts.
    """
    loop1 = ContourPath.loop_around(_CONTOUR_BASE, 1.0,
                                    radius=_CONTOUR_RADIUS,
                                    depth=_CONTOUR_DEPTH)
    loop0 = ContourPath.loop_around(_CONTOUR_BASE, 0.0,
                                    radius=_CONTOUR_RADIUS,
                                    depth=_CONTOUR_DEPTH)
    path = loop1.concat(loop0).concat(loop1.reversed()).concat(loop0.reversed())
    return path


def _pole_blocks_the_contour(pole, path):
    """Whether the pole 1/u keeps the contour from giving the principal value.

    It does inside a loop, within KEEP_OUT_RADIUS of the path, and below
    [0, 1] inside the pentagon 0, -d i, base - d i, 1 - d i, 1 (d the loop
    depth) that the loops' legs sweep when the contour shrinks onto
    [0, 1].  A pole on [0, 1] itself gives the value from below the cut.
    """
    if min(abs(pole), abs(pole - 1)) < _CONTOUR_RADIUS \
            or path.min_distance([pole]) <= KEEP_OUT_RADIUS:
        return True
    depth = 1j * _CONTOUR_DEPTH
    corners = [0, -depth, _CONTOUR_BASE - depth, 1 - depth, 1]
    # counterclockwise, so the inside is to the left of every edge
    return pole.imag < 0 and all(
        ((q - p).conjugate() * (pole - p)).imag >= 0
        for p, q in zip(corners, corners[1:] + corners[:1])
    )


def hyp2f1(a, b, c, u, precision_bits=DEFAULT_PRECISION_BITS):
    """Gauss hypergeometric value via the double-loop Euler contour.

    Integrates f(t) = t^(b-1) (1-t)^(c-b-1) (1-ut)^(-a) along a commutator
    contour around t = 0 and t = 1, then normalizes by gamma factors and
    the endpoint monodromy factors.  f is carried around the contour in
    steps of the transport's rule, on the integer kernel (see _hyp_step),
    which continue its branches analytically from their principal values
    at the start.  Needs a, b and c real (an int, Fraction or float),
    since the series multiplies by the exponents as real scalars, b and
    c - b nonintegral, and 1/u
    (u != 0) where the contour can shrink onto [0, 1] without crossing it
    (see _pole_blocks_the_contour), so that the value is the principal
    one; raises ValueError otherwise.  Raises PrecisionLoss if a step's
    series does not fall below 2^-(precision_bits + 16) within _term_cap
    terms, or if f does not come back to its start value around the
    contour to a relative 2^-(precision_bits // 4).
    """
    for name, val in (("a", a), ("b", b), ("c", c)):
        if not isinstance(val, (numbers.Rational, float)):
            raise ValueError(
                f"{name} must be real (an int, Fraction or float), not {val!r}"
            )
    for name, val in (("b", b), ("c-b", Fraction(c) - Fraction(b))):
        frac = Fraction(val)
        if frac.denominator == 1:
            raise ValueError(f"{name} must not be an integer for the contour")
    path = _pochhammer_contour()
    if u != 0 and _pole_blocks_the_contour(1 / complex(u), path):
        raise ValueError(
            f"the pole 1/u = {1 / complex(u)} keeps the contour from "
            "shrinking onto [0, 1]"
        )
    with mpmath.workprec(precision_bits + 64):
        aa, bb, cc, uu = (_to_mpc(x) for x in (a, b, c, u))
        start = _to_mpc(path.waypoints[0])
        exps = [bb - 1, cc - bb - 1, -aa]
        f_start = mpmath.exp(sum(
            e * mpmath.log(w)
            for e, w in zip(exps, (start, 1 - start, 1 - uu * start))
        ))
        # u = 0 drops the third factor, which is then 1
        poles = [mpmath.mpc(0), mpmath.mpc(1), *([1 / uu] if u != 0 else [])]
        kexps = [_from_libmp(e._mpc_)[:2] for e in exps[:len(poles)]]
        prec = mpmath.mp.prec
        tol = (mpmath.mpf(2) ** -(precision_bits + 16))._mpf_
        cap = _term_cap(precision_bits)
        value = _from_libmp(f_start._mpc_)
        total = _ZERO
        for seg_a, seg_b in path.segments():
            for shifts, h in _steps(_to_mpc(seg_a), _to_mpc(seg_b), poles):
                grow, area = _hyp_step(
                    [_from_libmp(s._mpc_) for s in shifts],
                    _from_libmp(h._mpc_), kexps, tol, cap, prec,
                )
                total = _cadd(total, _cmul(value, area, prec), prec)
                value = _cmul(value, grow, prec)
        drift = mpmath.mp.make_mpc(_to_libmp(value)) - f_start
        if abs(drift) > mpmath.mpf(2) ** (-(precision_bits // 4)) * abs(f_start):
            raise PrecisionLoss("the integrand did not close up around the contour")
        lam = mpmath.exp(2j * mpmath.pi * bb)
        mu = mpmath.exp(2j * mpmath.pi * (cc - bb))
        denom = (1 - lam) * (1 - mu)
        gamma_factor = mpmath.gamma(cc) / (
            mpmath.gamma(bb) * mpmath.gamma(cc - bb)
        )
        return gamma_factor * mpmath.mp.make_mpc(_to_libmp(total)) / denom


def _hyp_step(shifts, h, exps, tol, cap, prec):
    """f(end) / f(start) and the integral of f / f(start) over one step.

    With w the displacement from the step's start and s_i its offsets
    from the poles, f'/f = sum_i e_i / (w + s_i): the one-dimensional
    case of _series_terms, with R = 0 and M_i = e_i.  The step gives
    sum_n T_n and h sum_n T_n / (n + 1), T_0 = 1.  Arguments and results
    are kernel values, the e_i real ones, except tol, which is a libmp
    mpf.
    """
    recip = _reciprocals(cap + 1, prec, 0)
    rows = [[(i, 0, e) for i, e in enumerate(exps) if e[0]]]
    grow = area = _ONE
    terms = _series_terms(shifts, h, rows, [0], tol, cap, prec)
    for n, (term,) in enumerate(terms, 1):
        grow = _cadd(grow, term, prec)
        area = _cadd(area, _rmul(term, recip[n + 1], prec), prec)
    return grow, _cmul(area, h, prec)
