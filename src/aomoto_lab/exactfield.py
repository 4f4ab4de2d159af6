"""Exact scalars: rationals and rational functions in kappa.

Two scalar kinds cover every exact computation in the package:

* plain `fractions.Fraction` for all arrangement-side linear algebra,
* `RatFuncKappa`, a reduced quotient of polynomials in the deformation
  parameter kappa with Fraction coefficients, for symbolic weights.

The connection numerics in `kz` run on mpmath directly, at
DEFAULT_PRECISION_BITS unless a caller asks for another precision.
Rationals serialize as strings "p/q"; rational functions as coefficient
lists, lowest degree first.
"""

import random
from fractions import Fraction

from .errors import ExhaustedRetries

DEFAULT_PRECISION_BITS = 256


def parse_rational(text):
    """Parse "p/q" (or "p") into a Fraction; raises ValueError on junk.

    A boolean is junk, although Python counts it as an int.
    """
    if isinstance(text, bool):
        raise ValueError(f"expected rational, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise ValueError(f"expected rational string, got {text!r}")
    return Fraction(text.strip())


def format_rational(value):
    """Serialize a Fraction as the canonical string "p/q" (always with /q)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# polynomials over Q, coefficient tuples, lowest degree first; () is zero


def _ptrim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ptrim(out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and _ptrim(r):
        r = list(_ptrim(r))
        if len(r) < len(b):
            break
        f = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = f
        for i, cb in enumerate(b):
            r[k + i] -= f * cb
        r = list(_ptrim(r))
    return _ptrim(q), _ptrim(r)


def _pgcd(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


class RatFuncKappa:
    """A reduced rational function in kappa with Fraction coefficients.

    Internally num/den coefficient tuples, lowest degree first, with
    gcd(num, den) = 1 and den monic.  Behaves like a field scalar: all
    arithmetic coerces int and Fraction operands.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=(Fraction(1),)):
        if isinstance(num, (int, Fraction)):
            num = (Fraction(num),)
        if isinstance(den, (int, Fraction)):
            den = (Fraction(den),)
        num = _ptrim(Fraction(c) for c in num)
        den = _ptrim(Fraction(c) for c in den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self.num, self.den = (), (Fraction(1),)
            return
        g = _pgcd(num, den)
        if len(g) > 1 or (g and g[0] != 1):
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = tuple(c / lead for c in num)
            den = tuple(c / lead for c in den)
        self.num, self.den = num, den

    @classmethod
    def _reduced(cls, num, den=(Fraction(1),)):
        # num/den is already reduced with den monic, so no gcd is taken;
        # a reduced pair is unique, so this equals cls(num, den)
        out = object.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def kappa(cls):
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def constant(cls, value):
        value = Fraction(value)
        return cls._reduced((value,) if value else ())

    def is_constant(self):
        return len(self.num) <= 1 and self.den == (Fraction(1),)

    def as_fraction(self):
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return self.num[0] if self.num else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, RatFuncKappa):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFuncKappa.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFuncKappa(
            _padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
            _pmul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFuncKappa._reduced(_pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_constant():
            return self._scaled(o.num)
        if self.is_constant():
            return o._scaled(self.num)
        return RatFuncKappa(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def _scaled(self, constant_num):
        # a nonzero constant factor keeps num/den coprime and den monic
        if not constant_num or not self.num:
            return RatFuncKappa._reduced(())
        c = constant_num[0]
        return RatFuncKappa._reduced(tuple(c * a for a in self.num), self.den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFuncKappa(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return f"RatFuncKappa(num={self.num!r}, den={self.den!r})"

    def to_json(self):
        num = list(self.num) if self.num else [Fraction(0)]
        return {
            "num": [format_rational(c) for c in num],
            "den": [format_rational(c) for c in self.den],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            tuple(parse_rational(c) for c in data["num"]),
            tuple(parse_rational(c) for c in data["den"]),
        )


# ---------------------------------------------------------------------------
# deterministic sampling


def random_point_avoiding(forms, bound=10**6, seed=0, dimension=None, max_tries=1000):
    """A random integer point where none of the given affine forms vanish.

    Coordinates are ints drawn uniformly from [-bound, bound] with the
    seeded Mersenne generator, so results are reproducible bit for bit.
    A form is anything with evaluate(point) and, when dimension is not
    given, a gradient.  Raises ExhaustedRetries after max_tries failed
    draws.
    """
    if dimension is None:
        if not forms:
            raise ValueError("dimension is required when no forms are given")
        dimension = len(forms[0].gradient)
    rng = random.Random(seed)
    for _ in range(max_tries):
        point = tuple(rng.randint(-bound, bound) for _ in range(dimension))
        if all(form.evaluate(point) != 0 for form in forms):
            return point
    raise ExhaustedRetries(
        f"no admissible point in [-{bound}, {bound}]^{dimension} after {max_tries} draws"
    )
