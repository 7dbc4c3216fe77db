"""Exact field arithmetic over the rationals and prime fields.

A FieldDescriptor names the coefficient field once; every Scalar carries
its descriptor plus a canonical payload: a fully reduced
fractions.Fraction for the rationals, a plain int in [0, p) for F_p.
Scalars from different descriptors never interoperate; mixing them
raises DescriptorMismatch instead of silently coercing.

Scalars are immutable and hashable, so they are safe to share across
threads; every operation here is pure.

Text encoding (used by the instance file format): a rational scalar is
written "a/b" or just "a" in decimal digits, with an optional sign, a
prime-field scalar as a decimal integer in [0, p).  Parsing accepts no
other rational form, so an exponent such as "1e3000000" cannot make a few
bytes of text stand for a huge value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "FieldDescriptor",
    "Scalar",
    "rationals",
    "prime_field",
    "is_prime",
    "DescriptorMismatch",
    "DivisionByZero",
    "InvalidModulus",
]


class DescriptorMismatch(ValueError):
    """Two scalars from different fields met in one operation."""


class DivisionByZero(ZeroDivisionError):
    """Division by, or inversion of, the zero element."""


class InvalidModulus(ValueError):
    """Prime-field modulus is absent, too small, or composite."""


_INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_error(descriptor: "FieldDescriptor", text: str) -> ValueError:
    return ValueError(f"cannot parse {text!r} as an element of {descriptor}")


def _parse_integer(descriptor: "FieldDescriptor", text: str) -> int:
    """The integer a prime-field text encodes, not yet reduced mod p.

    Surrounding whitespace is ignored; anything but an optional sign and
    ASCII decimal digits raises the ValueError `Scalar.parse` raises.
    """
    text = text.strip()
    if _INTEGER_TEXT.fullmatch(text):
        try:
            return int(text)
        except ValueError as exc:  # more digits than int() converts
            raise _parse_error(descriptor, text) from exc
    raise _parse_error(descriptor, text)


# Fixed Miller-Rabin bases: deterministic for all n < 3.3 * 10^24,
# which comfortably covers 64-bit moduli.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for moduli below 2^64.

    For larger n the same base set is used and the verdict is only
    overwhelmingly probable.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """The coefficient field: Q when the modulus is None, else F_p.

    A modulus is checked eagerly at construction; composite or
    undersized moduli are rejected.
    """

    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.modulus is not None:
            if not isinstance(self.modulus, int) or self.modulus < 2:
                raise InvalidModulus(f"modulus must be a prime >= 2, got {self.modulus!r}")
            if not is_prime(self.modulus):
                raise InvalidModulus(f"modulus {self.modulus} is not prime")

    @property
    def is_prime_field(self) -> bool:
        return self.modulus is not None

    def __str__(self) -> str:
        return "Q" if self.modulus is None else f"F_{self.modulus}"


def rationals() -> FieldDescriptor:
    return FieldDescriptor()


def prime_field(p: int) -> FieldDescriptor:
    if p is None:  # a missing modulus would name Q
        raise InvalidModulus("modulus must be a prime >= 2, got None")
    return FieldDescriptor(p)


@dataclass(frozen=True, slots=True)
class Scalar:
    """One exact field element: a descriptor plus a canonical payload.

    Construction canonicalizes: ints handed to a rational scalar become
    Fractions, payloads of a prime-field scalar are reduced into [0, p).
    Re-canonicalizing is therefore the identity.  The arithmetic below
    builds its results through `_of`, which skips that step: an F_p result
    is reduced by its own `% p` and a Q result is a Fraction already.
    """

    descriptor: FieldDescriptor
    value: int | Fraction

    def __post_init__(self) -> None:
        if self.descriptor.is_prime_field:
            if isinstance(self.value, Fraction):
                if self.value.denominator != 1:
                    raise TypeError("prime-field payload must be an integer")
                object.__setattr__(self, "value", int(self.value))
            object.__setattr__(self, "value", self.value % self.descriptor.modulus)
        elif not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))

    @classmethod
    def _of(cls, descriptor: FieldDescriptor, value: int | Fraction) -> "Scalar":
        # internal: value is already canonical, an int in [0, p) or a Fraction
        s = object.__new__(cls)
        _set_descriptor(s, descriptor)
        _set_value(s, value)
        return s

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.value

    # -- arithmetic ----------------------------------------------------

    def _reduced(self, value: int | Fraction) -> "Scalar":
        # value is canonical up to the reduction mod p: an int or a Fraction
        p = self.descriptor.modulus
        return Scalar._of(self.descriptor, value if p is None else value % p)

    def _need(self, other: "Scalar") -> None:
        # one shared descriptor object is the common case; `is` skips the
        # dataclass comparison
        if other.descriptor is not self.descriptor and other.descriptor != self.descriptor:
            raise DescriptorMismatch(f"{self.descriptor} vs {other.descriptor}")

    def __add__(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._need(other)
        return self._reduced(self.value + other.value)

    def __sub__(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._need(other)
        return self._reduced(self.value - other.value)

    def __mul__(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._need(other)
        return self._reduced(self.value * other.value)

    def __truediv__(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._need(other)
        return self * other.inv()

    def __neg__(self) -> "Scalar":
        return self._reduced(-self.value)

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero(f"cannot invert 0 in {self.descriptor}")
        p = self.descriptor.modulus
        return Scalar._of(self.descriptor, 1 / self.value if p is None else pow(self.value, p - 2, p))

    def __pow__(self, exponent: int) -> "Scalar":
        """Exact power with the 0^0 = 1 convention; negative exponents invert."""
        if exponent < 0:
            return self.inv() ** (-exponent)
        p = self.descriptor.modulus
        return Scalar._of(self.descriptor, self.value**exponent if p is None else pow(self.value, exponent, p))

    # -- text encoding ---------------------------------------------------

    def to_text(self) -> str:
        if self.descriptor.is_prime_field:
            return str(self.value)
        if self.value.denominator == 1:
            return str(self.value.numerator)
        return f"{self.value.numerator}/{self.value.denominator}"

    @staticmethod
    def parse(descriptor: FieldDescriptor, text: str) -> "Scalar":
        """Parse the text encoding; integers outside [0, p) are reduced."""
        if descriptor.is_prime_field:
            return Scalar(descriptor, _parse_integer(descriptor, text))
        text = text.strip()
        try:
            if not _RATIONAL_TEXT.fullmatch(text):
                raise ValueError("not of the form a or a/b")
            return Scalar(descriptor, Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise _parse_error(descriptor, text) from exc

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Scalar({self.descriptor}, {self.to_text()})"


# the slot setters of a frozen Scalar, for `Scalar._of`
_set_descriptor = Scalar.descriptor.__set__
_set_value = Scalar.value.__set__
