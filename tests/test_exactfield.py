import random
from fractions import Fraction

import pytest

from aomoto_lab.errors import ExhaustedRetries, PoleAtKappa, ZeroKappa
from aomoto_lab.exactfield import (
    RatFuncKappa, format_rational, parse_rational,
    random_point_avoiding, specialize_kappa,
)
from arrangements import two_points

F = Fraction


def test_parse_and_format_rational():
    assert parse_rational("3/7") == F(3, 7)
    assert parse_rational("-5") == F(-5)
    assert parse_rational(4) == F(4)
    assert format_rational(F(3, 7)) == "3/7"
    assert format_rational(2) == "2/1"
    assert parse_rational(format_rational(F(-9, 4))) == F(-9, 4)
    with pytest.raises(ValueError):
        parse_rational("one half")
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_ratfunc_field_axioms_on_random_samples():
    rng = random.Random(1)
    kappa = RatFuncKappa.kappa()

    def sample():
        num = tuple(F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3)))
        den = tuple(F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3)))
        try:
            return RatFuncKappa(num, den)
        except ZeroDivisionError:
            return RatFuncKappa.constant(1)

    for _ in range(25):
        a, b, c = sample(), sample(), sample()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0
        if b != 0:
            assert (a / b) * b == a
    assert (1 / kappa) * kappa == 1
    assert kappa * kappa / kappa == kappa
    assert 2 * kappa == kappa + kappa
    assert F(1, 2) + kappa == kappa + F(1, 2)


def test_ratfunc_specialization_matches_direct_substitution():
    kappa = RatFuncKappa.kappa()
    value = (3 * kappa * kappa - 2) / (kappa + 5)
    for k in (F(1), F(7), F(-2, 3), F(11, 4)):
        expected = (3 * k * k - 2) / (k + 5)
        assert specialize_kappa(value, k) == expected
    assert specialize_kappa(F(5, 9), 7) == F(5, 9)
    with pytest.raises(ZeroKappa):
        specialize_kappa(value, 0)
    with pytest.raises(PoleAtKappa):
        specialize_kappa(value, -5)


def test_ratfunc_json_round_trip():
    kappa = RatFuncKappa.kappa()
    for value in (kappa, 1 / kappa, (kappa - 3) / (2 * kappa + 1),
                  RatFuncKappa.constant(F(-7, 3)), RatFuncKappa.constant(0)):
        assert RatFuncKappa.from_json(value.to_json()) == value


def test_ratfunc_normalization_is_canonical():
    # same function built two ways compares equal and hashes equal
    kappa = RatFuncKappa.kappa()
    a = (kappa * kappa - 1) / (kappa - 1)
    b = kappa + 1
    assert a == b and hash(a) == hash(b)
    assert not RatFuncKappa.constant(0)
    assert (kappa - kappa).is_constant()
    assert (5 * kappa / kappa).as_fraction() == F(5)


def test_random_point_avoiding_is_deterministic_and_admissible():
    arr = two_points()
    p1 = random_point_avoiding(arr.forms, bound=100, seed=5)
    p2 = random_point_avoiding(arr.forms, bound=100, seed=5)
    assert p1 == p2
    assert all(f.evaluate(p1) != 0 for f in arr.forms)
    from aomoto_lab.arrangement import AffineForm
    blocked = [AffineForm(F(c), (F(1),)) for c in (-1, 0, 1)]
    with pytest.raises(ExhaustedRetries):
        # every integer in [-1, 1] lies on one of the three hyperplanes
        random_point_avoiding(blocked, bound=1, seed=0, max_tries=10)
