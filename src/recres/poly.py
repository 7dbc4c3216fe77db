"""Dense univariate polynomials over an exact field.

A polynomial is a FieldDescriptor plus a coefficient sequence in
ascending degree: index s holds the coefficient of x^s.  The stored
sequence is always normalized, i.e. its last entry is nonzero; the zero
polynomial is the empty sequence.  Coefficients are kept as raw
payloads (ints mod p, or reduced Fractions); the public accessors hand
out Scalars.  Over Q the product and division kernels do not work on
Fractions: they clear each operand to an integer vector over one common
denominator (`_integral`), run on plain ints, and build one Fraction per
output coefficient at the end, in the manner of FLINT's fmpq_poly.

The degree of the zero polynomial is the distinguished sentinel
NEG_INFINITY (float('-inf')), never -1, so that max/plus degree
conventions hold: NEG_INFINITY + n == NEG_INFINITY and
NEG_INFINITY < n for every finite n.

Polynomials are immutable; all operations are pure and return new
values, so instances are freely shareable across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .field import (
    DescriptorMismatch,
    DivisionByZero,
    FieldDescriptor,
    Scalar,
)

__all__ = ["Poly", "NEG_INFINITY"]

NEG_INFINITY: float = float("-inf")


def _integral(c: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers `ints` and a positive `den` with c[i] == ints[i] / den."""
    # star-unpack a list, not a generator: building the argument tuple from
    # a generator reallocates it as it grows, which left `fuzz` over Q with
    # about 6 % more peak RSS
    den = math.lcm(*[v.denominator for v in c])
    return [v.numerator * (den // v.denominator) for v in c], den


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _strip(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


class Poly:
    """Immutable dense polynomial over one field."""

    __slots__ = ("descriptor", "_c")

    def __init__(self, descriptor: FieldDescriptor, coeffs: Iterable = ()):
        self.descriptor = descriptor
        c = []
        for v in coeffs:
            if not isinstance(v, Scalar):
                v = Scalar(descriptor, v)  # canonicalizes the payload
            elif v.descriptor != descriptor:
                raise DescriptorMismatch(f"{descriptor} vs {v.descriptor}")
            c.append(v.value)
        self._c = tuple(_strip(c))

    @classmethod
    def _raw(cls, descriptor: FieldDescriptor, payloads: list) -> "Poly":
        # internal: payloads already canonical and normalized
        p = object.__new__(cls)
        p.descriptor = descriptor
        p._c = tuple(payloads)
        return p

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, descriptor: FieldDescriptor) -> "Poly":
        return cls(descriptor, ())

    @classmethod
    def one(cls, descriptor: FieldDescriptor) -> "Poly":
        return cls(descriptor, (1,))

    @classmethod
    def x(cls, descriptor: FieldDescriptor) -> "Poly":
        return cls(descriptor, (0, 1))

    @classmethod
    def monomial(cls, descriptor: FieldDescriptor, power: int, coeff=1) -> "Poly":
        if power < 0:
            raise ValueError("power must be >= 0")
        return cls(descriptor, [0] * power + [coeff])

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        return cls(value.descriptor, (value,))

    # -- basic queries ---------------------------------------------------

    def degree(self) -> "int | float":
        """Index of the highest nonzero coefficient; NEG_INFINITY for 0."""
        return len(self._c) - 1 if self._c else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self._c

    def coeff_at(self, s: int) -> Scalar:
        """Coefficient of x^s; zero beyond the stored length."""
        if s < 0:
            raise ValueError("coefficient index must be >= 0")
        if s < len(self._c):
            return Scalar(self.descriptor, self._c[s])
        return Scalar(self.descriptor, 0)

    def leading_coeff(self) -> Scalar:
        if not self._c:
            return Scalar(self.descriptor, 0)
        return Scalar(self.descriptor, self._c[-1])

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(self.descriptor, v) for v in self._c)

    def primitive(self) -> tuple[Scalar, "Poly"]:
        """Content and primitive part: (c, P) with self == c * P.

        Over Q, c > 0 and P has coprime integer coefficients; the zero
        polynomial gives (1, 0).  Over F_p every nonzero scalar is a unit,
        so the split is (1, self).
        """
        if self.descriptor.is_prime_field or not self._c:
            return Scalar(self.descriptor, 1), self
        ints, den = _integral(self._c)
        content = math.gcd(*ints)
        part = [Fraction(v // content) for v in ints]
        return Scalar(self.descriptor, Fraction(content, den)), Poly._raw(self.descriptor, part)

    # -- ring operations -------------------------------------------------

    def _need(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.descriptor != self.descriptor:
            raise DescriptorMismatch(f"{self.descriptor} vs {other.descriptor}")

    def __add__(self, other: "Poly") -> "Poly":
        self._need(other)
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        if self.descriptor.is_prime_field:
            p = self.descriptor.modulus
            for i, v in enumerate(b):
                out[i] = (out[i] + v) % p
        else:
            for i, v in enumerate(b):
                out[i] = out[i] + v
        return Poly._raw(self.descriptor, _strip(out))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        if self.descriptor.is_prime_field:
            p = self.descriptor.modulus
            return Poly._raw(self.descriptor, [(-v) % p for v in self._c])
        return Poly._raw(self.descriptor, [-v for v in self._c])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Scalar):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(Scalar(self.descriptor, other))
        self._need(other)
        a, b = self._c, other._c
        if not a or not b:
            return Poly.zero(self.descriptor)
        if self.descriptor.is_prime_field:
            p = self.descriptor.modulus
            out = [v % p for v in _convolve(a, b)]
        else:
            ia, da = _integral(a)
            ib, db = _integral(b)
            den = da * db
            out = [Fraction(v, den) for v in _convolve(ia, ib)]
        return Poly._raw(self.descriptor, _strip(out))

    __rmul__ = __mul__

    def scale(self, s: Scalar) -> "Poly":
        if s.descriptor != self.descriptor:
            raise DescriptorMismatch(f"{self.descriptor} vs {s.descriptor}")
        if s.is_zero():
            return Poly.zero(self.descriptor)
        if self.descriptor.is_prime_field:
            p = self.descriptor.modulus
            return Poly._raw(self.descriptor, [v * s.value % p for v in self._c])
        return Poly._raw(self.descriptor, [v * s.value for v in self._c])

    def __pow__(self, exponent: int) -> "Poly":
        """Power by repeated squaring; exponent must be >= 0."""
        if exponent < 0:
            raise ValueError("polynomial exponent must be >= 0")
        result = Poly.one(self.descriptor)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def shift(self, powers: int) -> "Poly":
        """Multiply by x^powers."""
        if powers < 0:
            raise ValueError("shift must be >= 0")
        if not self._c:
            return self
        zero = Scalar(self.descriptor, 0).value
        return Poly._raw(self.descriptor, [zero] * powers + list(self._c))

    # -- division ----------------------------------------------------------

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder with deg r < deg divisor; exact."""
        self._need(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        a, b = list(self._c), other._c
        db = len(b) - 1
        if len(a) < len(b):
            return Poly.zero(self.descriptor), self
        q = [0] * (len(a) - db)
        if self.descriptor.is_prime_field:
            p = self.descriptor.modulus
            inv = pow(b[-1], p - 2, p)
            for i in range(len(q) - 1, -1, -1):
                c = a[i + db]
                if c:
                    c = c * inv % p
                    q[i] = c
                    for j, bj in enumerate(b):
                        a[i + j] = (a[i + j] - c * bj) % p
        else:
            # self = a / da and other = b / dbn over Z; the running
            # remainder is a / (da * den), with den grown only when lc(b)
            # does not divide the next leading term.
            a, da = _integral(a)
            b, dbn = _integral(b)
            lb = b[-1]
            den = 1
            for i in range(len(q) - 1, -1, -1):
                c = a[i + db]
                if c:
                    g = math.gcd(c, lb)
                    u = lb // g
                    if u != 1:
                        top = i + db + 1
                        a[:top] = [v * u for v in a[:top]]
                        den *= u
                    c //= g
                    q[i] = Fraction(c * dbn, den * da)
                    for j, bj in enumerate(b):
                        a[i + j] -= c * bj
            den *= da
            a = [Fraction(v, den) for v in a[:db]]
        return Poly(self.descriptor, q), Poly._raw(self.descriptor, _strip(a))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        return self.divrem(other)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divrem(other)[1]

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, at: Scalar) -> Scalar:
        """Horner evaluation, exact."""
        if at.descriptor != self.descriptor:
            raise DescriptorMismatch(f"{self.descriptor} vs {at.descriptor}")
        if self.descriptor.is_prime_field:
            p = self.descriptor.modulus
            acc = 0
            for v in reversed(self._c):
                acc = (acc * at.value + v) % p
        else:
            acc = Fraction(0)
            for v in reversed(self._c):
                acc = acc * at.value + v
        return Scalar(self.descriptor, acc)

    __call__ = evaluate

    # -- text encoding ---------------------------------------------------

    def to_text(self) -> list[str]:
        """Coefficient strings, ascending degree; [] is the zero polynomial."""
        return [Scalar(self.descriptor, v).to_text() for v in self._c]

    @classmethod
    def from_text(cls, descriptor: FieldDescriptor, coeffs: Sequence[str]) -> "Poly":
        return cls(descriptor, [Scalar.parse(descriptor, t) for t in coeffs])

    # -- dunder glue -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and other.descriptor == self.descriptor
            and other._c == self._c
        )

    def __hash__(self) -> int:
        return hash((self.descriptor, self._c))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for s in range(len(self._c) - 1, -1, -1):
            v = self._c[s]
            if not v:
                continue
            text = Scalar(self.descriptor, v).to_text()
            neg = text.startswith("-")
            mag = text[1:] if neg else text
            if s == 0:
                term = mag
            else:
                var = "x" if s == 1 else f"x^{s}"
                if mag == "1":
                    term = var
                else:
                    term = f"{mag}*{var}" if "/" in mag else f"{mag}{var}"
            if not parts:
                parts.append(f"-{term}" if neg else term)
            else:
                parts.append(f"- {term}" if neg else f"+ {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.descriptor}, [{', '.join(self.to_text())}])"
