"""The integer kernel of the KZ transport against libmp, value for value.

Every kernel operation must return the value of the libmp call an mpc
operator makes at the same precision: mpc_mul (with a complex or a real
second operand), mpc_add and mpc_mul_int, rounded to nearest.  Operands
are rounded to the precision, as every value the transport adds is.  The
precisions run from the benchmark's working precision (128 + 64 bits) up
to the highest one a kz request may ask for.
"""

import itertools
import random

import mpmath
import pytest
from mpmath.libmp import (
    fzero, from_man_exp, from_rational, mpc_abs, mpc_add, mpc_mul,
    mpc_mul_int, mpc_neg, mpf_lt,
)

from aomoto_lab import kz
from aomoto_lab.cli import MAX_PRECISION_BITS
from aomoto_lab.kz import KzSystem, simple_loop, transport

PRECISIONS = (128, 192, 320, MAX_PRECISION_BITS + 64)


def _mpf(man, exp, prec):
    return from_man_exp(man, exp, prec, "n") if man else fzero


def _random_mpf(rng, prec, low=-40, high=40):
    man = rng.getrandbits(rng.choice((prec, prec, prec // 2, 3)))
    return _mpf(rng.choice((-1, 1)) * man, rng.randint(low, high) - prec, prec)


def _random_mpc(rng, prec):
    kind = rng.random()
    re = _random_mpf(rng, prec)
    if kind < 0.15:
        # purely real, as the Casimir entries are
        return re, fzero
    if kind < 0.2:
        return fzero, fzero
    return re, _random_mpf(rng, prec)


def _mul(x, y, prec):
    return kz._to_libmp(kz._cmul(kz._from_libmp(x), kz._from_libmp(y), prec))


def _add(x, y, prec):
    return kz._to_libmp(kz._cadd(kz._from_libmp(x), kz._from_libmp(y), prec))


def _mul_int(x, n, prec):
    # an integer is the real kernel value (n, 0)
    return kz._to_libmp(kz._rmul(kz._from_libmp(x), (n, 0), prec))


def _mul_real(x, r, prec):
    real = kz._from_libmp((r, fzero))[:2]
    return kz._to_libmp(kz._rmul(kz._from_libmp(x), real, prec))


def _check(x, y, prec):
    assert _mul(x, y, prec) == mpc_mul(x, y, prec, "n"), (x, y)
    assert _add(x, y, prec) == mpc_add(x, y, prec, "n"), (x, y)


def _signed(z, signs):
    """z with its parts' signs set from signs (a zero part stays zero)."""
    return tuple((s,) + part[1:] if part[1] else part
                 for part, s in zip(z, signs))


@pytest.mark.parametrize("prec", PRECISIONS)
def test_seeded_operands_agree_with_libmp(prec):
    rng = random.Random(prec)
    for _ in range(300):
        x = _random_mpc(rng, prec)
        y = _random_mpc(rng, prec)
        _check(x, y, prec)
        n = rng.choice((1, 2, 3, 7, rng.randint(1, 400), 2**prec + 1))
        assert _mul_int(x, n, prec) == mpc_mul_int(x, n, prec, "n")


@pytest.mark.parametrize("prec", PRECISIONS)
def test_every_sign_combination(prec):
    rng = random.Random(-prec)
    x = (_random_mpf(rng, prec), _random_mpf(rng, prec))
    y = (_random_mpf(rng, prec), _random_mpf(rng, prec))
    for signs in itertools.product((0, 1), repeat=4):
        xs, ys = _signed(x, signs[:2]), _signed(y, signs[2:])
        _check(xs, ys, prec)
        assert _mul_int(xs, -3, prec) == mpc_mul_int(xs, -3, prec, "n")


@pytest.mark.parametrize("prec", PRECISIONS)
def test_exact_ties_round_to_even_both_ways(prec):
    rng = random.Random(prec + 1)
    ups = downs = 0
    for _ in range(40):
        # 2 kept + 1 sits halfway between two neighbours at prec bits
        kept = rng.getrandbits(prec - 1) | (1 << (prec - 1))
        tie = 2 * kept + 1
        big = (_mpf(kept, 1, prec), fzero)
        one = (_mpf(1, 0, prec), fzero)
        got = _add(big, one, prec)
        assert got == mpc_add(big, one, prec, "n")
        assert got[0] == _mpf(kept + (kept & 1), 1, prec)
        # the same tie as a product 3 * (tie / 3) in the real part
        if tie % 3 == 0:
            x = (_mpf(3, 0, prec), _random_mpf(rng, prec))
            y = (_mpf(tie // 3, 0, prec), fzero)
            assert _mul(x, y, prec) == mpc_mul(x, y, prec, "n")
        if kept & 1:
            ups += 1
        else:
            downs += 1
    assert ups and downs


@pytest.mark.parametrize("prec", PRECISIONS)
def test_real_scalar_product_agrees_with_libmp(prec):
    rng = random.Random(prec + 6)
    scalars = [from_rational(1, k, prec, "n") for k in (1, 3, 7, 10, 641)]
    for _ in range(300):
        x = _random_mpc(rng, prec)
        for r in (_random_mpf(rng, prec), rng.choice(scalars), fzero):
            assert _mul_real(x, r, prec) == mpc_mul(x, (r, fzero), prec, "n")
    ups = downs = 0
    while not (ups and downs):
        # 3 (tie / 3) = tie sits halfway between two neighbours at prec
        # bits, in both parts, with either sign
        kept = rng.getrandbits(prec - 1) | (1 << (prec - 1))
        tie = 2 * kept + 1
        if tie % 3:
            continue
        x = (_mpf(tie // 3, 0, prec), _mpf(-(tie // 3), 0, prec))
        r = _mpf(3, 0, prec)
        got = _mul_real(x, r, prec)
        assert got == mpc_mul(x, (r, fzero), prec, "n")
        even = _mpf(kept + (kept & 1), 1, prec)
        assert got == (even, mpc_neg((even, fzero))[0])
        if kept & 1:
            ups += 1
        else:
            downs += 1


@pytest.mark.parametrize("prec", PRECISIONS)
def test_round_up_carries_to_the_next_power_of_two(prec):
    ones = 2**prec - 1
    # (2^p - 1) 2 + 1 = 2^(p+1) - 1 rounds up to 2^(p+1)
    x = (_mpf(ones, 1, prec), _mpf(-ones, 1, prec))
    y = (_mpf(1, 0, prec), _mpf(-1, 0, prec))
    assert _add(x, y, prec) == mpc_add(x, y, prec, "n") == \
        (_mpf(1, prec + 1, prec), _mpf(-1, prec + 1, prec))
    # (2^p - 1)^2 - 2 (-(2^p - 1)) = 2^2p - 1 in the real part
    x = (_mpf(ones, 0, prec), _mpf(2, 0, prec))
    y = (_mpf(ones, 0, prec), _mpf(-ones, 0, prec))
    got = _mul(x, y, prec)
    assert got == mpc_mul(x, y, prec, "n")
    assert got[0] == _mpf(1, 2 * prec, prec)
    # (2^p - 1) (2^p + 1) = 2^2p - 1
    x = (_mpf(ones, 0, prec), _mpf(-ones, 3, prec))
    assert _mul_int(x, 2**prec + 1, prec) == \
        mpc_mul_int(x, 2**prec + 1, prec, "n")
    assert _mul_int(x, 2**prec + 1, prec)[0] == _mpf(1, 2 * prec, prec)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_zero_and_real_operands(prec):
    rng = random.Random(prec + 2)
    zero = (fzero, fzero)
    for _ in range(20):
        x = (_random_mpf(rng, prec), _random_mpf(rng, prec))
        real = (_random_mpf(rng, prec), fzero)
        imaginary = (fzero, _random_mpf(rng, prec))
        for a, b in itertools.product((zero, real, imaginary, x), repeat=2):
            _check(a, b, prec)
        assert _mul_int(zero, 5, prec) == mpc_mul_int(zero, 5, prec, "n")
        assert _mul_int(real, 5, prec) == mpc_mul_int(real, 5, prec, "n")
    # an exact cancellation gives zero
    assert _add(x, mpc_neg(x), prec) == zero


@pytest.mark.parametrize("prec", PRECISIONS)
def test_addends_far_apart(prec):
    # gaps beyond prec + 4 bits take libmp's sticky-unit branch of mpf_add
    rng = random.Random(prec + 3)
    for gap in (prec + 3, prec + 5, prec + 50, 2 * prec + 120, 5000):
        for signs in itertools.product((0, 1), repeat=4):
            big = (_random_mpf(rng, prec, 0, 0), _random_mpf(rng, prec, 0, 0))
            small = (_random_mpf(rng, prec, -gap, -gap),
                     _random_mpf(rng, prec, -gap, -gap))
            x, y = _signed(big, signs[:2]), _signed(small, signs[2:])
            _check(x, y, prec)
            _check(y, x, prec)
            # one large and one tiny product in each part
            _check((x[0], y[1]), (x[1], y[0]), prec)
            _check((y[0], x[1]), (x[0], y[1]), prec)


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("j", [102, 103])
def test_far_products_follow_libmp_where_it_is_not_correctly_rounded(prec, j):
    # a c has 2 prec bits whose low prec bits are 0111...1, so it lies
    # just below a rounding midpoint; - b d = 4 + 2^(2 - j) carries it over
    # the midpoint.  With j = 103 the odd-mantissa exponents of the two
    # products differ by 101, so mpf_add adds a sticky unit below a c
    # instead and rounds down; at j = 102 they differ by 100 and it rounds
    # the exact sum.  The kernel must do the same in both.
    rng = random.Random(prec + 4)
    mod = 2**prec
    a = c = 1
    while (a * c).bit_length() != 2 * prec:
        c = rng.getrandbits(prec) | (1 << (prec - 1)) | 1
        a = (2 ** (prec - 1) - 1) * pow(c, -1, mod) % mod
    x = (_mpf(a, 0, prec), _mpf(-1, 0, prec))
    y = (_mpf(c, 0, prec), _mpf(2**j + 1, 2 - j, prec))
    got = _mul(x, y, prec)
    assert got == mpc_mul(x, y, prec, "n")
    exact = a * c * 2**j + 2 ** (j + 2) + 4
    assert (got[0] == from_rational(exact, 2**j, prec, "n")) == (j == 102)


@pytest.mark.parametrize("prec", (128, 192))
def test_size_test_agrees_with_mpc_abs(prec):
    rng = random.Random(prec + 5)
    for tol in (from_man_exp(1, -100), from_man_exp(5, -70, prec, "n"),
                from_rational(1, 3, prec, "n")):
        top = tol[2] + tol[3]
        for _ in range(400):
            shift = rng.randint(-4, 2)
            parts = [
                _mpf(rng.choice((-1, 1)) * rng.getrandbits(prec),
                     top + shift - prec, prec) if rng.random() < 0.9 else fzero
                for _ in range(2)
            ]
            x = tuple(parts)
            assert kz._below(kz._from_libmp(x), tol, top, prec) == \
                mpf_lt(mpc_abs(x, prec, "n"), tol), (x, tol)


@pytest.mark.parametrize("tol", [0, -1e-20, mpmath.nan])
def test_transport_refuses_a_tolerance_that_is_not_positive(tol):
    # no term could pass the size test, which assumes a positive bound
    sys = KzSystem([-0.5, 0, 0.5, 1], 3, precision_bits=64)
    with pytest.raises(ValueError):
        transport(sys, simple_loop(sys, 1), tol=tol)
