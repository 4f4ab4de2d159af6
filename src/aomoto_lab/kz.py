"""The four-point sl2 connection: transport, monodromy, and flat sections.

The connection acts on the two-dimensional coinvariant space of four
sl2 doublets with basis {[v], [w]}, v = v1 x v1 x v2 x v2 and
w = v1 x v2 x v1 x v2 (lowered vectors in slots 3,4 resp. 2,4).  A
horizontal section satisfies

    (d/dz_j + (1/kappa) sum_{k != j} Omega_{jk} / (z_j - z_k)) u = 0,

so the evolution matrix in z_j is minus the connection matrix that
_connection_at builds.  The connection is flat at every kappa, because
the Omegas satisfy the infinitesimal braid relations
[Omega_ij, Omega_ik + Omega_jk] = 0 and [Omega_ij, Omega_kl] = 0 (Kohno,
Ann. Inst. Fourier 37, 1987); the tests check these exactly on
casimir_matrices.

Transport moves one coordinate along a piecewise-linear path while the
others stay put, integrating with Taylor series recentered at each step:
the series radius equals the distance to the nearest puncture and the
step stays well inside it, so the truncation error is controlled by a
geometric tail.  A loop around one puncture is the way out from its
base, a circle about the puncture and the way back, so its monodromy is
the circle's conjugated by the transport along the way out (see
MAX_LOOP_ERROR_GROWTH for when that is refused).  The circle comes from
the Frobenius series of the solution at the puncture, whose local
exponents are exact rationals, and from Taylor steps only where the
exponents are resonant or do not diagonalize over the rationals, or
where the circle is too wide for the series (see _frobenius_circle).
hyp2f1 walks its contour with the transport's step rule, on the scalar
equation its integrand solves.  A Taylor step, a Frobenius circle and a
hyp2f1 step expand one local series, on the partial-fraction form of
the equation: one first-order recurrence per puncture (see
_series_terms).

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
    BranchCut, CollidingPoints, LoopEnclosesPuncture, PrecisionLoss,
    StepUnderflow, ZeroKappa,
)
from .exactfield import DEFAULT_PRECISION_BITS
from .liealg import TensorSpace, coinvariants_quotient

KEEP_OUT_RADIUS = 0.01
STEP_RATIO = 0.38
MAX_SERIES_TERMS = 400
# A loop's circle comes from the Frobenius series at its puncture (see
# _frobenius_circle) unless an eigenvalue difference of the residue lies
# within RESONANCE_GAP of a nonzero integer, where a divisor n + r_b - r_a
# of the recurrence comes near 0, or the circle's radius exceeds
# FROBENIUS_RADIUS_RATIO times the distance to the nearest other
# puncture, where the series terms would shrink more slowly than 2^-n.
RESONANCE_GAP = Fraction(1, 8)
FROBENIUS_RADIUS_RATIO = 0.5
# A loop's monodromy M = L^-1 C L can carry the transport's errors of L
# and C, relative to their norms, into an error |L| |L^-1| |C| / |M| times
# larger relative to |M|.  A kz report prints its numbers 10^4
# (cli.KZ_GUARD_DIGITS decades) above a bound of tol times the matrix
# norm, so a larger growth is refused with PrecisionLoss.
MAX_LOOP_ERROR_GROWTH = 10**4


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
    """Marked points, kappa, and the real Casimir matrices they act through.

    A system remembers every segment transport it has computed (see
    transport), so it is not to be modified after construction.
    """

    def __init__(self, points, kappa, matrices=None,
                 precision_bits=DEFAULT_PRECISION_BITS):
        if kappa == 0:
            raise ZeroKappa("kappa must be nonzero")
        self.kappa = Fraction(kappa)
        self.points = list(points)
        if len(set(self.points)) != len(self.points):
            raise CollidingPoints("marked points must be pairwise distinct")
        self.matrices = matrices if matrices is not None else casimir_matrices()
        self.n = len(self.points)
        if len(self.matrices) != self.n * (self.n - 1) // 2:
            raise ValueError("one Casimir matrix is needed per pair of points")
        if any(x.imag for m in self.matrices.values() for row in m for x in row):
            raise ValueError("the Casimir matrices must be real")
        self.d = len(next(iter(self.matrices.values())))
        self.precision_bits = precision_bits
        self.segment_transports = {}

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
    """Piecewise-linear path for one moving coordinate.

    Waypoints are complex numbers; consecutive duplicates are dropped.
    Circles are entered as chord polygons fine enough (at most 20 degrees
    per chord) to stay homotopic to the smooth circle outside the
    keep-out radius of the punctures.
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

    def is_loop(self):
        return abs(self.waypoints[0] - self.waypoints[-1]) < 1e-12

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
    def circle(cls, center, radius, start_angle=-90.0, turns=1,
               max_chord_degrees=20.0):
        """Closed chord polygon around center, counterclockwise if turns > 0."""
        center = complex(center)
        total = 360.0 * turns
        steps = max(1, math.ceil(abs(total) / max_chord_degrees))
        pts = [
            center + radius * complex(
                math.cos(math.radians(start_angle + total * s / steps)),
                math.sin(math.radians(start_angle + total * s / steps)),
            )
            for s in range(steps + 1)
        ]
        return cls(pts)

    @classmethod
    def way_out(cls, base, center, radius=0.15, depth=0.6):
        """From base down by depth, across to below center, and up to the
        entry point center - i radius of the circle about center."""
        base = complex(base)
        center = complex(center)
        return cls([base, complex(base.real, base.imag - depth),
                    complex(center.real, center.imag - depth),
                    center - 1j * radius])

    @classmethod
    def loop_around(cls, base, center, radius=0.15, depth=0.6):
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


def transport(sys, path, tol=None, moving=0):
    """Fundamental solution along the path for the moving coordinate.

    The other coordinates stay at their system values.  Steps are Taylor
    expansions of the solution recentered along each segment; each step
    length is at most STEP_RATIO times the distance to the nearest
    puncture, and raises StepUnderflow inside the keep-out radius.  The
    step matrices and their products run on the integer kernel (see the
    module docstring), where every sum and product is the exact value
    rounded once, as mpc arithmetic rounds it at the same precision.  The
    Omegas and -1/kappa become kernel values once, here, and the result
    becomes mpc once, here.  Each segment's
    transport is kept in sys.segment_transports, keyed on everything it
    depends on besides the system itself, so a leg that two paths share
    (the first leg of the way out of the base of a commutator's two
    loops) is integrated once; the products run in the same order either
    way.
    """
    with mpmath.workprec(sys.precision_bits + 64):
        # converted here, so the result does not depend on the caller's
        # precision
        punctures = [
            _to_mpc(sys.points[k]) for k in range(sys.n) if k != moving
        ]
        omegas = [
            [[_from_libmp(x._mpc_) for x in row]
             for row in _frac_matrix(sys.omega(moving, k))]
            for k in range(sys.n) if k != moving
        ]
        prec = mpmath.mp.prec
        quarter_tol = (_tolerance(sys, tol) / 4)._mpf_
        minus_inv_kappa = _from_libmp(_to_mpc(Fraction(-1, 1) / sys.kappa)._mpc_)
        cap = _term_cap(sys.precision_bits)
        known = sys.segment_transports
        context = (moving, tuple(p._mpc_ for p in punctures), quarter_tol)
        total = _identity(sys.d)
        for a, b in path.segments():
            key = (context, a, b)
            if key not in known:
                known[key] = _segment_transport(
                    _to_mpc(a), _to_mpc(b), punctures, omegas,
                    minus_inv_kappa, quarter_tol, cap, prec,
                )
            total = _kmat_mul(known[key], total, prec)
        return [[mpmath.mp.make_mpc(_to_libmp(x)) for x in row] for row in total]


def _tolerance(sys, tol):
    """tol as an mpf, 2^-(precision_bits / 2) by default."""
    if tol is None:
        return mpmath.mpf(2) ** (-(sys.precision_bits // 2))
    tol = mpmath.mpf(tol)
    if not tol > 0:
        raise ValueError("tol must be positive")
    return tol


def _segment_transport(a, b, punctures, omegas, minus_inv_kappa, quarter_tol,
                       cap, prec):
    result = _identity(len(omegas[0]))
    for shifts, h in _steps(a, b, punctures):
        step = _taylor_step([_from_libmp(s._mpc_) for s in shifts],
                            _from_libmp(h._mpc_), omegas, minus_inv_kappa,
                            quarter_tol, cap, prec)
        result = _kmat_mul(step, result, prec)
    return result


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
    bits, as real kernel values; offset is a Fraction or an int."""
    return [(0, 0)] + [_rational(Fraction(1) / (k + offset), prec)
                       for k in range(1, count + 1)]


def _series_terms(shifts, h, rows, exponents, tol, cap, prec):
    """The terms T_1, T_2, ... of a local series solution, as kernel values.

    The solution U(x) = K(x) x^R of x U' = (R + x sum_k M_k / (x + s_k)) U,
    for R = diag(exponents), has the holomorphic factor K = sum_n K_n x^n
    with K_0 = I.  Expanding each 1 / (x + s_k) about x = 0, the terms
    T_n = K_n h^n obey

        W_(k,n) = (T_n - W_(k,n-1)) g_k,   g_k = h / s_k,   W_(k,-1) = 0,
        (n + 1 + r_c - r_r) T_(n+1)[r][c] = (sum_k M_k W_(k,n))[r][c],

    where W_(k,n) = h^(n+1) sum_(j<=n) (-s_k)^-j K_(n-j) / s_k.  rows holds,
    per row r, the nonzero entries of the real M_k as (k, i, M_k[r][i]),
    and no r_r - r_c may be a positive integer.  Each caller keeps |g_k|
    below 1, so each W recurrence contracts.  The terms stop after three
    in a row below tol (see _below), or raise PrecisionLoss after cap
    terms (see _term_cap).  The arguments and the terms are kernel values,
    except tol, which is a libmp mpf, and the exponents, which are exact;
    each g_k is mpc_div's, and each 1 / (n + 1 + r_c - r_r) comes from
    _reciprocals.  A term is yielded flat, row after row, so T[r][c] is
    its entry r d + c.
    """
    d = len(rows)
    ratios = [_from_libmp(mpc_div(_to_libmp(h), _to_libmp(s), prec, "n"))
              for s in shifts]
    # per flat entry (r, c): the products (k, flat index of [i][c], M_k[r][i])
    # and the divisor table
    sums = [[(k, i * d + c, m) for k, i, m in row]
            for row in rows for c in range(d)]
    recips = [_reciprocals(cap + 1, prec, rc - rr)
              for rr in exponents for rc in exponents]
    tol_top = tol[2] + tol[3]
    term = [_ONE if r == c else _ZERO for r in range(d) for c in range(d)]
    partial = [[_ZERO] * (d * d) for _ in shifts]
    quiet = 0
    for n in range(cap):
        partial = [[_cmul(_cadd(t, (-a, ea, -b, eb), prec), g, prec)
                    for t, (a, ea, b, eb) in zip(term, w)]
                   for w, g in zip(partial, ratios)]
        term = []
        for products, recip in zip(sums, recips):
            acc = _ZERO
            for j, (k, x, m) in enumerate(products):
                y = _rmul(partial[k][x], m, prec)
                acc = _cadd(acc, y, prec) if j else y
            term.append(_rmul(acc, recip[n + 1], prec))
        yield term
        if all(_below(x, tol, tol_top, prec) for x in term):
            quiet += 1
            if quiet >= 3:
                return
        else:
            quiet = 0
    raise PrecisionLoss("a local series did not converge within the term cap")


def _series_sum(shifts, h, rows, exponents, tol, cap, prec):
    """I + T_1 + T_2 + ... of _series_terms, as a kernel matrix."""
    d = len(rows)
    total = [_ONE if r == c else _ZERO for r in range(d) for c in range(d)]
    for term in _series_terms(shifts, h, rows, exponents, tol, cap, prec):
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


def simple_loop(sys, around, base=None, radius=0.15, depth=0.6, moving=0):
    """A based loop encircling one puncture counterclockwise.

    Raises LoopEnclosesPuncture when another puncture lies within
    radius + KEEP_OUT_RADIUS of the circled one, where the circle would
    enclose it too or pass inside its keep-out radius.
    """
    if base is None:
        base = complex(sys.points[moving])
    center = complex(sys.points[around])
    for k, point in enumerate(sys.points):
        if k not in (moving, around) and \
                abs(complex(point) - center) <= radius + KEEP_OUT_RADIUS:
            raise LoopEnclosesPuncture(
                f"the radius-{radius} loop around point {around + 1} "
                f"({sys.points[around]}) would also enclose point {k + 1} "
                f"({point})"
            )
    return ContourPath.loop_around(base, center, radius=radius, depth=depth)


def simple_loop_monodromy(sys, around, base=None, tol=None, radius=0.15,
                          depth=0.6, moving=0):
    """Monodromy along the counterclockwise loop around one puncture.

    The loop of simple_loop goes out from the base to the entry point of
    the circle, once around it, and back the way it came, so its
    monodromy is L^-1 C L, with L the transport along the way out and C
    the circle's.  C comes from the Frobenius series at the puncture
    (see _frobenius_circle), which the recurrence of the Taylor steps
    sums on the integer kernel (see _series_terms), or, where that
    series is not used, from the Taylor steps of transport around the
    circle's chord polygon.
    Raises PrecisionLoss where the conjugation can grow the transport's
    error more than MAX_LOOP_ERROR_GROWTH times.
    """
    loop = simple_loop(sys, around, base=base, radius=radius, depth=depth,
                       moving=moving)
    center = complex(sys.points[around])
    way_out = ContourPath.way_out(loop.waypoints[0], center, radius=radius,
                                  depth=depth)
    out = transport(sys, way_out, tol=tol, moving=moving)
    entry = way_out.waypoints[-1]
    circle = _frobenius_circle(sys, around, entry, tol, moving)
    if circle is None:
        circle = _taylor_circle(sys, center, entry, radius, tol, moving)
    with mpmath.workprec(sys.precision_bits + 64):
        back = _mat_inv(out)
        monodromy = _mat_mul(back, _mat_mul(circle, out))
        growth = (_mat_norm(out) * _mat_norm(back) * _mat_norm(circle)
                  / _mat_norm(monodromy))
    if growth > MAX_LOOP_ERROR_GROWTH:
        raise PrecisionLoss(f"the loop around point {around + 1} can grow the "
                            f"transport's error {mpmath.nstr(growth, 3)} times")
    return monodromy


def _taylor_circle(sys, center, entry, radius, tol, moving):
    """Transport around the chord polygon of the circle, from entry back to
    entry: the polygon's own first and last vertices differ from entry
    by a rounding of the cosine."""
    chords = ContourPath.circle(center, radius).waypoints
    return transport(sys, ContourPath([entry, *chords[1:-1], entry]), tol=tol,
                     moving=moving)


def _frobenius_circle(sys, around, entry, tol, moving):
    """Transport once counterclockwise around the puncture from entry.

    With x = z - z_p for the puncture p = around, the system reads
    u' = (R / x + B(x)) u with R = -Omega_(moving, p) / kappa and B
    holomorphic for |x| < rho, the distance from z_p to the nearest
    other puncture.  When no two eigenvalues of R differ by a nonzero
    integer, it has the fundamental solution H(x) x^R with H(0) = I
    (the Frobenius method; Coddington & Levinson, Theory of Ordinary
    Differential Equations, 1955, ch. 4), so the circle from w = entry -
    z_p is H(w) exp(2 pi i R) H(w)^-1.  In the eigenbasis S of R, with
    R = S diag(r) S^-1, the factor S^-1 H(w) S is the sum of the terms of
    _series_terms with exponents r, h = w, s_k = z_p - z_k over the other
    punctures k and M_k = S^-1 (-Omega_(moving, k) / kappa) S, conjugated
    exactly.  The series runs on the kernel at precision_bits + 64 and
    stops after three terms in a row below tol / 4, or raises
    PrecisionLoss after _term_cap terms; the eigenvalues r, and so the
    divisors n + r_c - r_r, are exact until each 1 / (n + r_c - r_r) is
    rounded.  Returns None, and leaves the circle to the Taylor steps,
    where R does not diagonalize over the rationals (see
    _rational_eigenbasis), where an eigenvalue difference lies within
    RESONANCE_GAP of a nonzero integer, or where |w| exceeds
    FROBENIUS_RADIUS_RATIO rho.
    """
    others = [k for k in range(sys.n) if k not in (moving, around)]
    minus_inv_kappa = -1 / sys.kappa
    residue, *moved = (
        [[x * minus_inv_kappa for x in row] for row in sys.omega(moving, k)]
        for k in [around, *others]
    )
    # matrices= may hold floating entries, which have no exact eigenvalues
    if not all(isinstance(x, Fraction)
               for mat in [residue, *moved] for row in mat for x in row):
        return None
    eigen = _rational_eigenbasis(residue)
    if eigen is None:
        return None
    r, s = eigen
    if any(round(b - a) != 0 and abs(b - a - round(b - a)) < RESONANCE_GAP
           for a in r for b in r):
        return None
    with mpmath.workprec(sys.precision_bits + 64):
        center = _to_mpc(sys.points[around])
        w = _to_mpc(entry) - center
        shifts = [center - _to_mpc(sys.points[k]) for k in others]
        if others and \
                abs(w) > FROBENIUS_RADIUS_RATIO * min(abs(x) for x in shifts):
            return None
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
        total = _series_sum(
            [_from_libmp(x._mpc_) for x in shifts], _from_libmp(w._mpc_),
            rows, r, (_tolerance(sys, tol) / 4)._mpf_,
            _term_cap(sys.precision_bits), prec)
        frame = _mat_mul(_frac_matrix(s), [
            [mpmath.mp.make_mpc(_to_libmp(x)) for x in row] for row in total
        ])
        turns = [mpmath.expjpi(mpmath.mpf(2 * x.numerator) / x.denominator)
                 for x in r]
        return _mat_mul([[x * t for x, t in zip(row, turns)] for row in frame],
                        _mat_inv(frame))


def _rational_eigenbasis(mat):
    """(r, S) with mat = S diag(r) S^-1 and r rational, or None.

    The entries of mat are Fractions.  The rational eigenvalues of the
    integer matrix m mat, m the least common denominator, are integers.
    Floating eigenvalues propose them, rounded to integers, and
    linalg.nullspace keeps each with its exact eigenvectors; mat
    diagonalizes over the rationals when these are as many as its
    dimension.
    """
    d = len(mat)
    scale = math.lcm(*(x.denominator for row in mat for x in row))
    ints = [[int(x * scale) for x in row] for row in mat]
    with mpmath.workprec(53):
        approx = mpmath.eig(mpmath.matrix(ints), left=False, right=False)
    values, columns = [], []
    for k in sorted({int(mpmath.nint(mpmath.re(e))) for e in approx}):
        shifted = [[Fraction(x - (k if r == c else 0)) for c, x in enumerate(row)]
                   for r, row in enumerate(ints)]
        for vec in linalg.nullspace(shifted, d):
            values.append(Fraction(k, scale))
            columns.append(vec)
    if len(columns) < d:
        return None
    return values, [list(row) for row in zip(*columns)]


def pochhammer_monodromy(sys, p, q, base=None, tol=None, radius=0.15,
                         depth=0.6, moving=0):
    """Monodromy along the commutator loop around punctures p and q.

    The loop runs around p, then q, then backwards around p, then q; the
    transport matrix is the corresponding commutator T_q^-1 T_p^-1 T_q T_p.
    Both loops leave the base along the same leg, which the system's
    segment table transports once, and each returns along the inverse of
    its way out (see simple_loop_monodromy).
    """
    t_p = simple_loop_monodromy(sys, p, base=base, tol=tol, radius=radius,
                                depth=depth, moving=moving)
    t_q = simple_loop_monodromy(sys, q, base=base, tol=tol, radius=radius,
                                depth=depth, moving=moving)
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


def _check_branch(zs):
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            diff = _to_mpc(zs[i]) - _to_mpc(zs[j])
            if diff == 0:
                raise CollidingPoints("flat sections need distinct points")
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
    BranchCut when a pairwise difference lies on the principal cut.
    """
    if len(zs) != 4 or sys.n != 4:
        raise ValueError("flat sections are implemented for four points")
    if section not in ("phi", "fv"):
        raise ValueError("section must be 'phi' or 'fv'")
    with mpmath.workprec(sys.precision_bits):
        _check_branch(zs)
        z = [_to_mpc(v) for v in zs]
        inv_kappa = 1 / _to_mpc(sys.kappa)
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
                conn = _connection_at(sys, z, j, inv_kappa)
                extra = _mat_vec(conn, phi)
                residual = max(abs(vec[r] + extra[r]) for r in range(2))
                worst = max(worst, residual)
            return worst
        scale = max(abs(x) for x in phi)
        ell = [phi[1] / scale, -phi[0] / scale]
        v = [mpmath.mpc(1), mpmath.mpc(0)]
        for j in range(4):
            log_term = sum(
                _to_mpc(_FV_EXPONENTS[(min(j, k), max(j, k))])
                / (z[j] - z[k])
                for k in range(4) if k != j
            )
            vec = [log_term * v[r] for r in range(2)]
            conn = _connection_at(sys, z, j, inv_kappa)
            extra = _mat_vec(conn, v)
            residual = abs(
                ell[0] * (vec[0] + extra[0]) + ell[1] * (vec[1] + extra[1])
            )
            worst = max(worst, residual)
        return worst


def _connection_at(sys, z, j, inv_kappa):
    """The connection matrix sum_{k != j} Omega_jk * inv_kappa / (z_j - z_k)."""
    conn = _mat_zero(sys.d)
    for k in range(len(z)):
        if k != j:
            conn = _mat_add(
                conn,
                _mat_scale(_frac_matrix(sys.omega(j, k)), inv_kappa / (z[j] - z[k])),
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


_LOOP_RADIUS = 0.25
_LOOP_BASE = complex(0.5, -0.35)
_LOOP_DEPTH = 0.35


def _pochhammer_contour():
    """Waypoints of the double-commutator contour around t=0 and t=1.

    Based below the segment, with loops of radius _LOOP_RADIUS, so that
    the third singular point 1/u of the integrand (u = 2 puts it at 1/2)
    is neither approached nor encircled for the u that hyp2f1 accepts.
    """
    loop1 = ContourPath.loop_around(_LOOP_BASE, 1.0, radius=_LOOP_RADIUS,
                                    depth=_LOOP_DEPTH)
    loop0 = ContourPath.loop_around(_LOOP_BASE, 0.0, radius=_LOOP_RADIUS,
                                    depth=_LOOP_DEPTH)
    path = loop1.concat(loop0).concat(loop1.reversed()).concat(loop0.reversed())
    return path


def _pole_blocks_the_contour(pole, path):
    """Whether the pole 1/u keeps the contour from giving the principal value.

    It does inside a loop, within KEEP_OUT_RADIUS of the path, and below
    [0, 1] inside the pentagon 0, -d i, base - d i, 1 - d i, 1 (d the loop
    depth) that the loops' legs sweep when the contour shrinks onto
    [0, 1].  A pole on [0, 1] itself gives the value from below the cut.
    """
    if min(abs(pole), abs(pole - 1)) < _LOOP_RADIUS \
            or path.min_distance([pole]) <= KEEP_OUT_RADIUS:
        return True
    depth = 1j * _LOOP_DEPTH
    corners = [0, -depth, _LOOP_BASE - depth, 1 - depth, 1]
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
