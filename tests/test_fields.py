import random
import time
from fractions import Fraction

import pytest

from zinbiel.fields import (QQ, FieldError, ModInt, PrimeField, _is_prime,
                            field_from_spec)


def test_rational_arithmetic_is_exact():
    a = QQ.parse("1/3")
    b = QQ.parse("1/6")
    assert a + b == Fraction(1, 2)
    assert a - a == QQ.zero()
    assert (a / b) == 2


def test_rationals_stay_in_lowest_terms():
    x = QQ.parse("2/4")
    assert x.numerator == 1 and x.denominator == 2
    y = QQ.parse("-6/4")
    assert y.numerator == -3 and y.denominator == 2


def test_rational_parse_rejects_junk():
    for bad in ("1.5", "a", "1/0", "1//2", "", "2 /3"):
        with pytest.raises(FieldError):
            QQ.parse(bad)


def test_prime_field_requires_prime_modulus():
    with pytest.raises(FieldError):
        PrimeField(4)
    with pytest.raises(FieldError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(101)


def test_modint_canonical_representative():
    f = PrimeField(5)
    x = f.from_int(-3)
    assert x.value == 2
    assert f.parse("12").value == 2
    assert str(x) == "2"


def test_modint_field_axioms_exhaustive():
    f = PrimeField(7)
    elems = [f.from_int(i) for i in range(7)]
    for a in elems:
        assert a + (-a) == f.zero()
        if a:
            assert a * (f.one() / a) == f.one()
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) * c == a * c + b * c


def test_modint_mixed_moduli_rejected():
    with pytest.raises(FieldError):
        PrimeField(5).from_int(1) + PrimeField(7).from_int(1)


def test_modint_int_interop():
    f = PrimeField(5)
    assert 2 * f.from_int(3) == f.from_int(1)
    assert sum([f.from_int(2), f.from_int(4)]) == f.one()
    assert f.from_int(3) - 1 == f.from_int(2)


def test_modint_reflected_operators():
    assert 3 - ModInt(1, 5) == ModInt(2, 5)
    assert 1 / ModInt(2, 5) == ModInt(3, 5)


def test_modint_division_by_zero():
    f = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        f.one() / f.zero()


def test_prime_field_coerces_fractions_via_inverse():
    f = PrimeField(5)
    assert f.coerce(Fraction(1, 2)) == f.from_int(3)
    assert f.parse("1/2") == f.from_int(3)
    with pytest.raises(FieldError):
        f.coerce(Fraction(1, 5))


def test_field_specs_round_trip():
    for field in (QQ, PrimeField(5), PrimeField(101)):
        assert field_from_spec(field.spec()) == field
    with pytest.raises(FieldError):
        field_from_spec("Fp:6")
    with pytest.raises(FieldError):
        field_from_spec("R")


def test_format_parse_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert QQ.parse(QQ.format(x)) == x
    f = PrimeField(101)
    for _ in range(200):
        x = f.from_int(rng.randrange(101))
        assert f.parse(f.format(x)) == x


def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_primality_agrees_with_trial_division():
    assert all(_is_prime(n) == _trial_division(n) for n in range(10 ** 5))


def test_primality_rejects_carmichael_numbers():
    for n in (561, 41041, 3215031751):
        assert not _is_prime(n)
        with pytest.raises(FieldError):
            PrimeField(n)


def test_large_prime_modulus_is_fast():
    start = time.perf_counter()
    field = field_from_spec("Fp:1000000000000000003")
    PrimeField(2 ** 31 - 1)
    assert time.perf_counter() - start < 0.5
    assert field.p == 1000000000000000003


def test_modulus_beyond_certified_range_is_rejected():
    with pytest.raises(FieldError) as err:
        PrimeField(2 ** 89 - 1)     # prime, but past the certified bound
    assert "\n" not in str(err.value)


def test_modint_equal_values_hash_alike():
    f = PrimeField(5)
    assert f.from_int(1) != 6
    assert len({f.from_int(1), 6}) == 2
    assert f.from_int(1) == 1 and len({f.from_int(1), 1}) == 1
    for a in range(-12, 13):
        for x in (f.from_int(a), PrimeField(7).from_int(a)):
            for y in (a, f.from_int(a), PrimeField(7).from_int(a)):
                if x == y:
                    assert hash(x) == hash(y)
