"""Exact scalars: rationals and prime fields.

Every computation in this package is exact.  Scalars are either
`fractions.Fraction` (always in lowest terms with positive denominator)
or `ModInt` (canonical representatives in [0, p) for a prime p).  A
`Field` object builds, coerces, parses and formats scalars of its kind;
scalar arithmetic itself goes through the ordinary Python operators.
"""

from __future__ import annotations

import re
from fractions import Fraction


class FieldError(ValueError):
    """Bad field construction, parsing, or mixed-field arithmetic."""


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for n below _MR_BOUND."""
    if n >= _MR_BOUND:
        raise FieldError(
            f"modulus {n} is too large: primality is certified only "
            f"below {_MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModInt:
    """Element of F_p, stored as the canonical representative in [0, p)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.value = value % modulus
        self.modulus = modulus

    def _lift(self, other):
        if isinstance(other, ModInt):
            if other.modulus != self.modulus:
                raise FieldError(
                    f"mixed moduli: {self.modulus} and {other.modulus}")
            return other.value
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return ModInt(self.value + v, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return ModInt(self.value - v, self.modulus)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return ModInt(v - self.value, self.modulus)

    def __mul__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return ModInt(self.value * v, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return ModInt(-self.value, self.modulus)

    def _inverse_value(self) -> int:
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.modulus}")
        return pow(self.value, self.modulus - 2, self.modulus)

    def __truediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        inv = ModInt(v, self.modulus)._inverse_value()
        return ModInt(self.value * inv, self.modulus)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return ModInt(v * self._inverse_value(), self.modulus)

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            # only the canonical residue, so that equal values hash alike
            return other == self.value
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"ModInt({self.value}, {self.modulus})"


# the one integer rule of files, flags and field descriptors: an optional
# sign, then ASCII digits (`int` also reads other digits, `_` and blanks)
_INTEGER = r"[+-]?[0-9]+"
_INTEGER_RE = re.compile(_INTEGER)
_RATIONAL_RE = re.compile(_INTEGER + r"(/[0-9]+)?")


def integer(text: str) -> int:
    """The integer `text` writes under the one integer rule, or FieldError."""
    if _INTEGER_RE.fullmatch(text) is None:
        raise FieldError(f"bad integer literal: {text!r}")
    return int(text)


class Field:
    """Factory and codec for the scalars of one coefficient field."""

    # the word naming a malformed literal in parse errors
    _literal = "field"

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def coerce(self, x):
        """Turn x into a scalar of this field, or raise FieldError."""
        raise NotImplementedError

    def parse(self, text: str):
        """Parse an exact literal ('a/b' or integer), or raise FieldError."""
        text = text.strip()
        if not _RATIONAL_RE.fullmatch(text):
            raise FieldError(f"bad {self._literal} literal: {text!r}")
        num, _, den = text.partition("/")
        if not den:
            return self.from_int(int(num))
        if int(den) == 0:
            raise FieldError(f"zero denominator: {text!r}")
        return self.coerce(Fraction(int(num), int(den)))

    def format(self, a) -> str:
        return str(a)

    def spec(self) -> str:
        """The literal field descriptor used in problem files."""
        raise NotImplementedError

    def __repr__(self):
        return self.spec()


class RationalField(Field):

    characteristic = 0
    _literal = "rational"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise FieldError(f"not a rational scalar: {x!r}")

    def spec(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p

    @property
    def characteristic(self):
        return self.p

    def zero(self):
        return ModInt(0, self.p)

    def one(self):
        return ModInt(1, self.p)

    def from_int(self, n):
        return ModInt(n, self.p)

    def coerce(self, x):
        if isinstance(x, ModInt):
            if x.modulus != self.p:
                raise FieldError(f"scalar mod {x.modulus} in F_{self.p}")
            return x
        if isinstance(x, int):
            return ModInt(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError(
                    f"denominator of {x} is divisible by {self.p}")
            den = ModInt(x.denominator, self.p)._inverse_value()
            return ModInt(x.numerator * den, self.p)
        raise FieldError(f"not an F_{self.p} scalar: {x!r}")

    def spec(self):
        return f"Fp:{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


def field_from_spec(text: str) -> Field:
    """Resolve a field descriptor: 'Q' or 'Fp:<prime>'."""
    text = text.strip()
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        if _INTEGER_RE.fullmatch(text, 3) is None:
            raise FieldError(f"bad prime field descriptor: {text!r}")
        return PrimeField(int(text[3:]))
    raise FieldError(f"unknown field descriptor: {text!r}")
