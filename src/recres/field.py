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

import decimal  # fractions imports it too, on Python 3.10-3.13, so it costs no set-up
import re
import sys
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
# the scalar texts, with the surrounding whitespace that str.strip() removes
_PADDED_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")
_PADDED_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(?:/[0-9]+)?\s*")
_PADDED_FRACTION = re.compile(r"\s*[+-]?[0-9]+/[0-9]+\s*")

# int() of a decimal text is quadratic in its length on CPython 3.10 and
# 3.11 (8.1 s for 10^6 digits on 3.11.7), so over F_p a text of more than
# _LONG_TEXT characters is reduced mod p _TEXT_BLOCK digits at a time, in
# linear time.  int() % p time / block time, best of 5 x 200 calls on
# Python 3.11.7 over F_10007, F_1000003 and F_(2^61 - 1), 256-digit blocks:
# 300 digits 0.43-0.44, 500 0.65-0.69, 700 0.79-0.81, 1000 1.11-1.26, 2000
# 1.71-2.39, 4000 2.21-4.13 (128- and 512-digit blocks are no faster).
_LONG_TEXT = 850
_TEXT_BLOCK = 256


# str() of an int is quadratic in its length on CPython 3.10 and 3.11; above
# _DECIMAL_CUTOFF bits `_int_text` converts by divide and conquer instead
# (see `Scalar.to_text` for the measurements).
_DECIMAL_CUTOFF = 33_000
_DECIMAL_LEAF = 2048  # bits converted by Decimal(int) directly


def _digit_limit() -> int:
    """The interpreter's cap on int <-> str digits, 0 when lifted or absent."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def _int_text(n: int) -> str:
    """str(n), byte for byte, in subquadratic time above _DECIMAL_CUTOFF bits.

    As `int_to_decimal_string` in CPython 3.12's Lib/_pylong.py: n is split
    at half its bit length, the halves are converted recursively, leaves of
    at most _DECIMAL_LEAF bits by Decimal(int), and joined as lo + hi * 2^w
    in a Decimal context of unlimited precision, whose large products
    libmpdec runs by number-theoretic transform; the powers of 2 are cached
    within a call.  While the interpreter caps the digits str() converts,
    str() itself runs, so that a value past the cap raises as it does there.
    """
    if n.bit_length() <= _DECIMAL_CUTOFF or _digit_limit():
        return str(n)
    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        result = powers.get(w)
        if result is None:
            if w <= _DECIMAL_LEAF:
                result = D(1 << w)
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                half = w >> 1
                result = power(half) * power(w - half)  # the smaller first, so w - half may reuse it
            powers[w] = result
        return result

    def convert(n: int, w: int) -> decimal.Decimal:
        if w <= _DECIMAL_LEAF:
            return D(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def _parse_error(descriptor: "FieldDescriptor", text: str) -> ValueError:
    return ValueError(f"cannot parse {text!r} as an element of {descriptor}")


def _long_residue(text: str, p: int) -> int:
    """int(text) % p for an integer text, by Horner's rule in base
    10^_TEXT_BLOCK mod p: each step costs one block, so the whole text
    costs time linear in its length.  It refuses what int() refuses, the
    interpreter's limit on the digits int() converts included."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not an integer")
    limit = _digit_limit()
    if limit and len(digits) > limit:
        raise ValueError(f"{len(digits)} digits exceed the limit of {limit}")
    head = len(digits) % _TEXT_BLOCK or _TEXT_BLOCK
    acc, scale = int(digits[:head]), pow(10, _TEXT_BLOCK, p)
    for i in range(head, len(digits), _TEXT_BLOCK):
        acc = (acc * scale + int(digits[i : i + _TEXT_BLOCK])) % p
    return -acc % p if text[0] == "-" else acc % p


def _fraction(text: str) -> Fraction:
    # Fraction() takes more than "a/b", e.g. spaces around "/" on Python 3.13
    if not _PADDED_FRACTION.fullmatch(text):
        raise ValueError("not of the form a/b")
    return Fraction(text)


def _parse_texts(descriptor: "FieldDescriptor", texts: list[str]) -> list[int | Fraction]:
    """The values of scalar texts, in bulk: residues in [0, p) over F_p;
    over Q an int for an integer text and a Fraction for "a/b".

    A text is an optional sign and ASCII decimal digits, or over Q also
    "a/b", with surrounding whitespace ignored.  After strip(), int()
    takes exactly the integer form, save for "_" between digits and
    non-ASCII digits.  So when the texts joined are ASCII without "_",
    int() alone checks each integer text, and otherwise every text is
    matched against the pattern first; a text with "/" is always matched.
    A text that is not a str raises TypeError.  If a text is refused, the
    texts are checked one at a time, and the ValueError names the first
    bad one, as it would name that text alone.
    """
    if not texts:
        return []
    p = descriptor.modulus
    joined = "".join(texts)
    try:
        if not (joined.isascii() and "_" not in joined):
            if not all(map((_PADDED_INTEGER if p else _PADDED_RATIONAL).fullmatch, texts)):
                raise ValueError("not a scalar text")
        if p is None:
            return [_fraction(t) if "/" in t else int(t.strip()) for t in texts]
        return [int(t.strip()) % p if len(t) <= _LONG_TEXT else _long_residue(t, p) for t in texts]
    except (ValueError, ZeroDivisionError):  # a bad text, past int()'s digit limit, or "a/0"
        pass
    if len(texts) > 1:
        for text in texts:
            _parse_texts(descriptor, [text])
    raise _parse_error(descriptor, texts[0].strip())


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
        """The text of the payload: "a" or "a/b" over Q, the residue over F_p.

        Over Q a numerator or denominator of more than _DECIMAL_CUTOFF =
        33 000 bits goes through `_int_text`, whose text is that of str().
        Its time over str()'s on random ints, best of 5, leaves of 2048
        bits: on Python 3.11.7 1.03-1.14 from 25 to 32 kbit, then 0.70-0.80
        to 64 kbit, 0.21 at 200 kbit and 0.06 at 1 Mbit (87 ms against
        1.49 s); on 3.10.13 0.49 at 34 kbit and 0.05 at 1 Mbit.  On 3.12.1
        and 3.13, whose str() runs the same algorithm in Lib/_pylong.py, it
        read 0.69-1.07 from 33 kbit to 2 Mbit, so it runs there too.
        """
        if self.descriptor.is_prime_field:
            return str(self.value)
        if self.value.denominator == 1:
            return _int_text(self.value.numerator)
        return f"{_int_text(self.value.numerator)}/{_int_text(self.value.denominator)}"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Scalar({self.descriptor}, {self.to_text()})"


# the slot setters of a frozen Scalar, for `Scalar._of`
_set_descriptor = Scalar.descriptor.__set__
_set_value = Scalar.value.__set__
