"""Dense univariate polynomials over an exact field.

A polynomial is a FieldDescriptor plus a coefficient vector in ascending
degree: index s holds the coefficient of x^s.  In both fields the stored
form is one tuple of ints `_c` over one positive int denominator `_den`,
in the manner of FLINT's fmpq_poly, and coefficient s is `_c[s] / _den`.
`_make` is the one canonicalizer every kernel result goes through:

* over F_p the entries are residues in [0, p) and `_den == 1`;
* over Q, `_den > 0` and gcd(_den, *_c) == 1;
* in both fields the last entry is nonzero; the zero polynomial is the
  empty vector.

The kernels build no Fractions; the public accessors hand out Scalars.
Every linear operation is one kernel, `_plus_scaled_shift`, which forms
a + u x^l b for a canonical payload u in one pass: a sum is u = 1, a
difference u = -1 (p - 1 over F_p), and negation, scaling and shifting
apply it to the zero polynomial.  Over F_p it reduces each entry in the
loop that forms it and skips `_make`.

An F_p polynomial may hold its vector, its Kronecker image, or both.  The
image `_img` is one int holding the same residues, entry s in slot s (the
least significant first), every slot `_image_bytes(p)` wide; `_n` is the
length of the vector, so degree and zero tests read neither form.  Images
come only from kernels: a Kronecker product whose slots fit the image
width, and `_plus_scaled_shift` (so every linear operation) with an
operand that has an image; they reduce the packed result into [0, p) by
`_reduce_mod_p`.  Such a result is image-only, a `_ImagePoly`: its `_c`
slot is left unset, and the first read of it unpacks the image, through
`__getattr__`, which Python calls only for an unset slot and which only
that subclass defines, so a vector-backed polynomial pays nothing per
read.  Kernels that take images take a vector-backed operand packed on the
fly and never store that image (`_image`), so only kernel results carry
one.  A Q polynomial never has an image.  The unpacking is idempotent: two
threads that race on it compute equal tuples and store either one.

Over Q a product is the schoolbook `_convolve`.  Over F_p a product of more
than `_KS_CUTOFF` coefficient pairs goes by Kronecker substitution
(Schonhage 1982; Harvey, JSC 2009): each vector is packed into one int with
a coefficient per fixed-width slot, the two ints are multiplied by CPython's
Karatsuba, and the product's slots are the product's coefficients.  The
slot width, and the proof that no slot carries, live in `_slot_bytes`.
When those slots fit the image width, the operands' images are multiplied
and the reduced product is kept as an image; wider slots pack and unpack
vectors (`_ks_mul`).  The packed Sylvester elimination and Euclid steps of
`resultant` use the same helper (Euclid on images), and reduce packed ints
slot by slot with no Python operation per slot through the one Barrett
step of `_barrett_quotients`.  An F_p
division whose row loop would make more than `_NEWTON_CUTOFF` slot updates
by a divisor of degree at least `_NEWTON_MIN_DIVISOR` multiplies by a Newton
reciprocal of the reversed divisor instead (von zur Gathen and Gerhard,
Modern Computer Algebra, Alg. 9.3 and 9.5).

The degree of the zero polynomial is the distinguished sentinel
NEG_INFINITY (float('-inf')), never -1, so that max/plus degree
conventions hold: NEG_INFINITY + n == NEG_INFINITY and
NEG_INFINITY < n for every finite n.

Polynomials are immutable; all operations are pure and return new
values, so instances are freely shareable across threads (the one write
after construction, the lazy `_c`, stores a value equal to any other
thread's).
"""

from __future__ import annotations

import functools
import math
import struct
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


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


# Below these sizes the loops win: Python 3.11 on a 2-core shared host, best
# of 3 x 300 calls over F_3, F_10007 and F_1000003, as loop time / packed
# time.  Products: 8 x 8 coefficients 0.7-0.75, 10 x 10 0.9-1.25, 12 x 12
# 1.1-1.3, 2 x 100 1.0-1.3, 2 x 1000 2.1-3.0, 256 x 256 31-50.  A product
# whose slots fit the image width neither unpacks nor reduces entry by
# entry, and wins past the cutoff even over F_(2^61 - 1), whose 16-byte
# slots pack one entry at a time: best of 7, loop time / image time with
# vector operands, 2 x 100 1.22, 2 x 1000 1.55, 3 x 100 1.46, 4 x 64 1.52,
# 8 x 32 1.98, 12 x 12 1.75 (1.9-3.3 with the long operand an image).  Slots
# that miss the image width need a shorter operand of at least 8 terms (see
# `_image_bytes`), so at least 4 pairs per entry packed, len(a) * len(b) /
# (len(a) + len(b)); where they are wider than 8 bytes the packed route
# also pays per entry, and over F_(2^61 - 1), best of 5 runs of about 30000
# coefficient pairs, it wins from about 3 pairs per entry: 2 x 100
# 0.64-0.66, 2 x 1000 0.70, 3 x 100 0.84-0.86, 3 x 1000 1.03-1.05, 4 x 64
# 0.86-1.02, 4 x 1000 1.25, 8 x 32 1.47, 12 x 12 1.52, 64 x 64 4.9.
_KS_CUTOFF = 128  # coefficient pairs, len(a) * len(b)
# Division with quotient degree k by divisor degree d, best of 3 x 20 calls
# over F_10007 and F_1000003: the row loop makes (k + 1) d slot updates, the
# Newton route a reciprocal of length k + 1 and products of length k and d.
# Near (k + 1) d = 2048 the ratio is about 1: 0.97-0.99 at (1, 1024), 0.8-0.9
# at (4, 256), 1.0 at (32, 64), 1.1 at (48, 48), 1.2-1.3 at (8, 256) and
# 1.1-1.2 at (16, 128).  Far above it Newton wins, 5.4 at (16, 4095) and
# 2.5-3.5 at (1024, 64), unless d < 32: a Newton pass costs more per quotient
# coefficient than a short row, 0.5-0.9 at (4096, 16) and 0.6-0.7 at
# (4096, 8).
_NEWTON_CUTOFF = 2048  # slot updates of the row loop, (k + 1) d
_NEWTON_MIN_DIVISOR = 32
# Packing, best of 5 x 3000 calls, per-entry int.to_bytes time / `_pack`'s
# struct-and-slices time: 2-3 entries 0.24-0.53, 16 entries 0.59-0.88 and 24
# entries 0.81-1.13 (1- and 2-byte slots lose first), 32 entries 0.93-1.34,
# 300 entries 2.2-3.5 (F_3, F_10007, F_1000003).
_PACK_PER_ENTRY = 24  # vectors shorter than this pack one entry at a time


def _slot_bytes(p: int, terms: int) -> int:
    """Bytes per slot for packing residues mod p, at most `terms` per sum.

    The slot holds b = 2 bitlen(p) + bitlen(terms) + 1 bits, rounded up to
    whole bytes so that vectors pack through bytes.  As p < 2^bitlen(p) and
    terms < 2^bitlen(terms), every value below 2 terms p^2 fits.  Two uses
    stay below that bound:

    * a product of two vectors of residues in [0, p), the shorter of length
      terms: each coefficient is a sum of at most terms products, each at
      most (p - 1)^2, so it is at most terms (p - 1)^2;
    * elimination on an N x N matrix (terms = N, `resultant._det_prime`): a
      slot starts below p and gains at most 2 p (p - 1) per column, so it
      stays below p + 2 N p (p - 1) < 2 N p^2.

    A slot that stays below 2^(8 nbytes) never carries into its neighbour, so
    sums and products of packed ints are exact slot by slot.
    """
    return (2 * p.bit_length() + terms.bit_length() + 8) // 8


def _pack(c: Sequence[int], nbytes: int) -> int:
    """The ascending vector c as one int: c[s] in slot s, the least
    significant first, each slot nbytes wide; entries in [0, 2^(8 nbytes)).

    Slots of up to 8 bytes go through one struct call on little-endian
    8-byte words, narrower ones cut to their low nbytes bytes by strided
    slices; wider slots, and vectors shorter than `_PACK_PER_ENTRY`, take
    one int.to_bytes call per entry.
    """
    if nbytes > 8 or len(c) < _PACK_PER_ENTRY:
        return int.from_bytes(b"".join([v.to_bytes(nbytes, "little") for v in c]), "little")
    data = struct.pack(f"<{len(c)}Q", *c)
    if nbytes < 8:
        narrow = bytearray(nbytes * len(c))
        for i in range(nbytes):
            narrow[i::nbytes] = data[i::8]
        data = narrow
    return int.from_bytes(data, "little")


def _unpack(x: int, nbytes: int, count: int) -> list[int]:
    """The low count slots of x, ascending: the inverse of `_pack`."""
    bits = 8 * nbytes * count
    if x.bit_length() > bits:
        x &= (1 << bits) - 1
    data = x.to_bytes(nbytes * count, "little")
    if nbytes > 8:
        return [int.from_bytes(data[i : i + nbytes], "little") for i in range(0, len(data), nbytes)]
    if nbytes < 8:
        wide = bytearray(8 * count)
        for i in range(nbytes):
            wide[i::8] = data[i::nbytes]
        data = wide
    return list(struct.unpack(f"<{count}Q", data))


def _slot_masks(nbytes: int, count: int) -> tuple[int, int]:
    """(even, ones) for count slots nbytes wide, as `_barrett_quotients`
    and its callers take them: even has all bits set in the slots 0, 2, 4,
    ... and reaches at least count slots; ones holds 1 in each of them."""
    even = int.from_bytes((b"\xff" * nbytes + bytes(nbytes)) * (count // 2 + 1), "little")
    return even, int.from_bytes((b"\x01" + bytes(nbytes - 1)) * count, "little")


def _barrett_quotients(y: int, p: int, w: int, even: int) -> int:
    """Slot by slot, floor(x / p) or one less for each w-bit slot x of y,
    with no Python operation per slot (Barrett, CRYPTO '86).

    Every slot x of y is below 2^w, and 2p < 2^w.  even has all w bits set
    in the slots at even places counted from the least significant (0, 2,
    4, ...) and reaches at least as far as y.  With mu = floor(2^w / p), the
    Barrett quotient of x is q = floor(x mu / 2^w), and then

        x / p - 1 < x / p - x / 2^w <= x mu / 2^w <= x / p,

    because mu > 2^w / p - 1 and x < 2^w.  So q is floor(x / p) or one
    less, and x - q p lies in [0, 2p).  The even slots and the odd slots
    (shifted down by w) are taken apart: each slot then has w zero bits
    above it, so x mu < 2^(2w) fits below the next slot of its half, the
    shift by w leaves q in the slot and drops the low half of x mu into the
    gap below, and masking with even clears that gap.  Each q is below 2^w,
    and y - Q p, with Q the result, holds x - q p in each slot, so that
    difference needs no borrow between slots.
    """
    mu = (1 << w) // p
    q_even = ((y & even) * mu >> w) & even
    q_odd = (((y >> w) & even) * mu >> w) & even
    return q_even + (q_odd << w)


def _negate_mod_p(y: int, p: int, w: int, even: int, ones: int) -> int:
    """The w-bit slots of y negated mod p, each into (0, 2p].

    y, p, w and even are as in `_barrett_quotients`; ones holds 1 in every
    slot of y and in no other.  The result is (2 ones + Q) p - y: slot by
    slot it is 2p - (x - q p), in (0, 2p] and so below 2^w, so the exact
    sum needs no carry or borrow between slots.
    """
    return (2 * ones + _barrett_quotients(y, p, w, even)) * p - y


def _reduce_mod_p(y: int, p: int, w: int, even: int, ones: int) -> int:
    """The w-bit slots of y reduced into [0, p).

    y, p, w and even are as in `_barrett_quotients`; ones holds 1 in every
    slot of y, and may reach farther.  t = y - Q p holds x - q p in [0, 2p)
    in each slot.  Adding 2^(w - 1) - p to a slot t gives a value in
    [2^(w - 1) - p, 2^(w - 1) + p), within [0, 2^w) as 2p < 2^w, so no
    slot carries, and its bit w - 1 is set exactly when t >= p.  Those bits,
    moved to the bottom of their slots, say where p is subtracted once.
    """
    t = y - _barrett_quotients(y, p, w, even) * p
    return t - ((t + ones * ((1 << (w - 1)) - p) >> (w - 1)) & ones) * p


# Image width over F_1000003, 6-byte slots (`_slot_bytes(p, 2)`) against
# 8-byte ones, which skip the strided slices of `_pack` and `_unpack`: best of
# 9 alternating rounds, two runs, time at 8 bytes / time at 6 bytes.  Slicing
# loses, but it is paid only where a vector is packed or an image unpacked,
# while every product, reduction and Euclid step on images runs on ints a
# third longer at 8 bytes:
#
#   product of images (short operand packed, multiply, `_reduce_mod_p`):
#     2 x 300 1.36-1.41, 3 x 600 1.41-1.48, 2 x 1000 1.45-1.49, 64 x 64 1.27-1.32
#   `_pack`:   64 entries 0.50, 300 0.62-0.64, 600 0.64-0.66, 1000 0.64-0.69
#   `_unpack`: 64 slots 0.55-0.56, 300 0.71-0.74, 600 0.68-0.75, 1000 0.78-0.81
#   `generate` on the `deep` M1_D2 instance of seed 1 to n = 300: 1.31-1.35
#   `resultant_euclid` of its r_300 and r_299: 1.40-1.44
#
# so images keep the narrowest slot that holds the Euclid step's sums.
def _image_bytes(p: int) -> int:
    """The slot width of F_p images: `_slot_bytes(p, 2)`, which holds every
    value below 4 p^2.

    It also holds the product of two images whose shorter operand has at
    most 7 terms: that slot needs 2 bitlen(p) + bitlen(terms) + 1 bits, and
    2 bitlen(p) + 3 is odd, so its whole bytes leave at least one bit spare,
    enough up to bitlen(terms) = 3.
    """
    return _slot_bytes(p, 2)


@functools.lru_cache(maxsize=None)
def _image_masks(nbytes: int, count: int) -> tuple[int, int]:
    # `_slot_masks` for a power-of-two count: a few dozen entries per width
    return _slot_masks(nbytes, count)


def _reduce_image(y: int, p: int, nbytes: int, count: int) -> int:
    """The low count slots of y, nbytes wide, each below 2^(8 nbytes) with
    2p < 2^(8 nbytes), reduced into [0, p) by `_reduce_mod_p`; y has no
    higher slots.  The masks are cached per width for count rounded up to
    a power of two, and ones is cut to count slots, since a longer mask
    costs its length."""
    w = 8 * nbytes
    top = 1 << (count - 1).bit_length()
    even, ones = _image_masks(nbytes, top)
    return _reduce_mod_p(y, p, w, even, ones >> w * (top - count))


def _ks_mul(a: Sequence[int], b: Sequence[int], p: int, count: int = 0) -> list[int]:
    """The first count coefficients (all by default) of a * b, unreduced,
    for nonempty vectors of residues mod p, by Kronecker substitution.

    Equals `_convolve(a, b)`.  A square packs its operand once, so that
    CPython takes its squaring path.
    """
    nbytes = _slot_bytes(p, min(len(a), len(b)))
    x = _pack(a, nbytes)
    product = x * x if a is b else x * _pack(b, nbytes)
    return _unpack(product, nbytes, count or len(a) + len(b) - 1)


def _reciprocal(f: Sequence[int], n: int, p: int) -> list[int]:
    """g with f g = 1 mod x^n, for residues f with f[0] != 0 (MCA Alg. 9.3).

    If f g = 1 mod x^t, then f g = 1 + x^t h mod x^(2t), and g - x^t g h is
    the inverse mod x^(2t); each pass doubles t up to n.
    """
    g = [pow(f[0], -1, p)]
    while len(g) < n:
        t, top = len(g), min(2 * len(g), n)
        h = [v % p for v in _ks_mul(f[:top], g, p, top)[t:]]
        g += [-v % p for v in _ks_mul(g, h, p, top - t)]
    return g


def _divrem_newton(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient (reduced) and remainder (unreduced) of residue vectors with
    len(a) >= len(b) and b[-1] != 0 (MCA Alg. 9.5).

    With k = deg a - deg b and rev the coefficients read backwards,
    rev(q) = rev(a) / rev(b) mod x^(k + 1), and r = a - q b, of which only
    the coefficients below deg b are needed.
    """
    db = len(b) - 1
    k = len(a) - 1 - db
    qrev = _ks_mul(a[db:][::-1], _reciprocal(b[::-1], k + 1, p), p, k + 1)
    q = [v % p for v in reversed(qrev)]
    return q, [x - y for x, y in zip(a[:db], _ks_mul(q[:db], b[:db], p, db))]


def _strip(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


class Poly:
    """Immutable dense polynomial over one field."""

    __slots__ = ("descriptor", "_c", "_den", "_n", "_img")

    def __init__(self, descriptor: FieldDescriptor, coeffs: Iterable = ()):
        values = []
        for v in coeffs:
            if not isinstance(v, Scalar):
                v = Scalar(descriptor, v)  # canonicalizes the payload
            elif v.descriptor != descriptor:
                raise DescriptorMismatch(f"{descriptor} vs {v.descriptor}")
            values.append(v.value)
        # reduced payloads over their lcm denominator are already in stored
        # form: a prime dividing the lcm divides no numerator of the entry
        # that carries its full power
        den = math.lcm(*[v.denominator for v in values])
        self.descriptor = descriptor
        self._c = c = tuple(_strip([v.numerator * (den // v.denominator) for v in values]))
        self._den = den
        self._n = len(c)
        self._img = None

    @classmethod
    def _raw(cls, descriptor: FieldDescriptor, c: Sequence[int], den: int = 1) -> "Poly":
        # internal: (c, den) already in stored form
        p = object.__new__(cls)
        p.descriptor = descriptor
        p._c = c = tuple(c)
        p._den = den
        p._n = len(c)
        p._img = None
        return p

    @staticmethod
    def _of_image(descriptor: FieldDescriptor, img: int, n: int) -> "Poly":
        # internal: an F_p polynomial of n coefficients by its image alone,
        # residues in [0, p) in slots of `_image_bytes(p)`, slot n - 1 nonzero
        p = object.__new__(_ImagePoly)
        p.descriptor = descriptor
        p._img = img
        p._den = 1
        p._n = n
        return p

    def _image(self, nbytes: int) -> int:
        """The image of this F_p polynomial, nbytes = `_image_bytes(p)`: the
        stored one, or else its vector packed, and not stored, so that only
        kernel results carry images."""
        img = self._img
        return _pack(self._c, nbytes) if img is None else img

    @classmethod
    def _make(cls, descriptor: FieldDescriptor, c: list[int], den: int = 1) -> "Poly":
        """The stored form of the vector c / den; over F_p den is 1."""
        if descriptor.is_prime_field:
            p = descriptor.modulus
            c = [v % p for v in c]
        elif den != 1:
            # den may be negative: Q divrem's running denominator picks up
            # the sign of lc(divisor)
            g = math.gcd(den, *c)
            if den < 0:
                g = -g
            if g != 1:
                c = [v // g for v in c]
                den //= g
        return cls._raw(descriptor, _strip(c), den)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, descriptor: FieldDescriptor) -> "Poly":
        return cls._raw(descriptor, ())

    @classmethod
    def one(cls, descriptor: FieldDescriptor) -> "Poly":
        return cls._raw(descriptor, (1,))

    @classmethod
    def x(cls, descriptor: FieldDescriptor) -> "Poly":
        return cls._raw(descriptor, (0, 1))

    # -- basic queries ---------------------------------------------------

    def degree(self) -> "int | float":
        """Index of the highest nonzero coefficient; NEG_INFINITY for 0."""
        return self._n - 1 if self._n else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self._n

    def _scalar(self, v: int) -> Scalar:
        """Entry v (or 0) of the stored vector as a Scalar: already a
        residue over F_p, and v / _den over Q."""
        if self.descriptor.is_prime_field:
            return Scalar._of(self.descriptor, v)
        return Scalar._of(self.descriptor, Fraction(v, self._den) if self._den != 1 else Fraction(v))

    def coeff_at(self, s: int) -> Scalar:
        """Coefficient of x^s; zero beyond the stored length."""
        if s < 0:
            raise ValueError("coefficient index must be >= 0")
        return Scalar._of(self.descriptor, self._value_at(s))

    def _value_at(self, s: int) -> "int | Fraction":
        """The payload of coeff_at(s), s >= 0, with no Scalar built: a
        residue over F_p, a Fraction over Q."""
        v = self._c[s] if s < len(self._c) else 0
        if self.descriptor.is_prime_field:
            return v
        return Fraction(v, self._den) if self._den != 1 else Fraction(v)

    def leading_coeff(self) -> Scalar:
        return self._scalar(self._c[-1] if self._c else 0)

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return tuple(map(self._scalar, self._c))

    def primitive(self) -> tuple[Scalar, "Poly"]:
        """Content and primitive part: (c, P) with self == c * P.

        Over Q, c > 0 and P has coprime integer coefficients; the zero
        polynomial gives (1, 0).  Over F_p every nonzero scalar is a unit,
        so the split is (1, self).
        """
        if self.descriptor.is_prime_field or not self._c:
            return Scalar(self.descriptor, 1), self
        content = math.gcd(*self._c)
        part = Poly._raw(self.descriptor, [v // content for v in self._c])
        return Scalar(self.descriptor, Fraction(content, self._den)), part

    # -- ring operations -------------------------------------------------

    def _need(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.descriptor is not self.descriptor and other.descriptor != self.descriptor:
            raise DescriptorMismatch(f"{self.descriptor} vs {other.descriptor}")

    def __add__(self, other: "Poly") -> "Poly":
        self._need(other)
        return self._plus_scaled_shift(other, 1, 0)

    def __sub__(self, other: "Poly") -> "Poly":
        self._need(other)
        p = self.descriptor.modulus
        return self._plus_scaled_shift(other, -1 if p is None else p - 1, 0)

    def __neg__(self) -> "Poly":
        return Poly.zero(self.descriptor) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Scalar):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(Scalar(self.descriptor, other))
        self._need(other)
        la, lb = self._n, other._n
        if not la or not lb:
            return Poly.zero(self.descriptor)
        p, pairs = self.descriptor.modulus, la * lb
        if p is not None and pairs > _KS_CUTOFF:
            width = _image_bytes(p)
            if _slot_bytes(p, min(la, lb)) > width:
                return Poly._make(self.descriptor, _ks_mul(self._c, other._c, p))
            x = self._image(width)
            product = x * x if other is self else x * other._image(width)
            return Poly._of_image(self.descriptor, _reduce_image(product, p, width, la + lb - 1), la + lb - 1)
        return Poly._make(self.descriptor, _convolve(self._c, other._c), self._den * other._den)

    __rmul__ = __mul__

    def scale(self, s: Scalar) -> "Poly":
        if s.descriptor is not self.descriptor and s.descriptor != self.descriptor:
            raise DescriptorMismatch(f"{self.descriptor} vs {s.descriptor}")
        return Poly.zero(self.descriptor)._plus_scaled_shift(self, s.value, 0)

    def _plus_scaled_shift(self, other: "Poly", u: "int | Fraction", shift: int) -> "Poly":
        """self + u * x^shift * other in one pass over the entries, for a
        canonical payload u: a residue in [0, p) over F_p, an int or a
        Fraction over Q.  The vector of u * other is never formed on its own.

        Over F_p, if either operand has an image, the pass is one multiply-add
        of images: each slot is at most (p - 1) + u (p - 1), below
        p + (p - 1)^2 < 4 p^2 and so within the image width only because
        u <= p - 1.  So -1 is passed as p - 1.
        """
        if not other._n or not u:
            return self
        desc, p = self.descriptor, self.descriptor.modulus
        if p is not None and (self._img is not None or other._img is not None):
            width = _image_bytes(p)
            w = 8 * width
            y = self._image(width) + u * (other._image(width) << w * shift)
            y = _reduce_image(y, p, width, max(self._n, shift + other._n))
            return Poly._of_image(desc, y, (y.bit_length() + w - 1) // w)
        a, b = self._c, other._c
        if p is None:
            # a / da + (num / dn) b / db over da * db * dn: a times db * dn,
            # b times num * da
            ua, u = other._den * u.denominator, u.numerator * self._den
            if ua != 1:
                a = [x * ua for x in a]
        end = shift + len(b)
        if len(a) < end:
            a += (0,) * (end - len(a))
        if p is None:
            c = [*a[:shift], *[x + u * y for x, y in zip(a[shift:end], b)], *a[end:]]
            return Poly._make(desc, c, self._den * ua)
        c = [*a[:shift], *[(x + u * y) % p for x, y in zip(a[shift:end], b)], *a[end:]]
        return Poly._raw(desc, _strip(c))

    def __pow__(self, exponent: int) -> "Poly":
        """Power by repeated squaring; exponent must be >= 0."""
        if exponent < 0:
            raise ValueError("polynomial exponent must be >= 0")
        if not exponent:
            return Poly.one(self.descriptor)
        base = self
        while not exponent & 1:
            base, exponent = base * base, exponent >> 1
        result = base
        while exponent := exponent >> 1:
            base = base * base
            if exponent & 1:
                result = result * base
        return result

    def shift(self, powers: int) -> "Poly":
        """Multiply by x^powers."""
        if powers < 0:
            raise ValueError("shift must be >= 0")
        return Poly.zero(self.descriptor)._plus_scaled_shift(self, 1, powers)

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
            if db >= _NEWTON_MIN_DIVISOR and len(q) * db > _NEWTON_CUTOFF:
                q, r = _divrem_newton(a, b, p)
                return Poly._raw(self.descriptor, q), Poly._make(self.descriptor, r)
            inv = pow(b[-1], p - 2, p)
            # lazy reduction: an entry loses < p^2 per row and stays an exact
            # int; a lead is reduced as it is read, the remainder in _make
            for i in range(len(q) - 1, -1, -1):
                c = a[i + db] * inv % p
                if c:
                    q[i] = c
                    a[i : i + len(b)] = [x - c * y for x, y in zip(a[i : i + len(b)], b)]
            return Poly._raw(self.descriptor, q), Poly._make(self.descriptor, a[:db])
        # self = a / self._den and other = b / other._den over Z; the
        # running remainder is a / (self._den * den), with den grown only
        # when lc(b) does not divide the next leading term.  q holds the
        # quotient times self._den * den / other._den, so it is rescaled
        # along with a.
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
                    q[i + 1 :] = [v * u for v in q[i + 1 :]]
                    den *= u
                c //= g
                q[i] = c
                a[i : i + len(b)] = [x - c * y for x, y in zip(a[i : i + len(b)], b)]
        den *= self._den
        quotient = Poly._make(self.descriptor, [v * other._den for v in q], den)
        return quotient, Poly._make(self.descriptor, a[:db], den)

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
            return Scalar._of(self.descriptor, acc)
        # Horner on the homogenized numerator: with at = num / den, the
        # loop ends with self(at) = acc / (self._den * den^deg) and
        # power = den^(deg + 1)
        num, den = at.value.numerator, at.value.denominator
        acc, power = 0, 1
        for v in reversed(self._c):
            acc = acc * num + v * power
            power *= den
        return Scalar._of(self.descriptor, Fraction(acc * den, self._den * power))

    # -- text encoding ---------------------------------------------------

    def to_text(self) -> list[str]:
        """Coefficient strings, ascending degree; [] is the zero polynomial."""
        return [s.to_text() for s in self.coeffs]

    @classmethod
    def _of_values(cls, descriptor: FieldDescriptor, values: list) -> "Poly":
        """The polynomial of `field._parse_texts` values, ascending degree:
        residues over F_p, or ints over Q, are the stored vector over 1."""
        if descriptor.is_prime_field or not any(isinstance(v, Fraction) for v in values):
            return cls._raw(descriptor, _strip(values))
        return cls(descriptor, values)

    # -- dunder glue -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and other.descriptor == self.descriptor
            and other._n == self._n
            and other._den == self._den
            and other._c == self._c
        )

    def __hash__(self) -> int:
        return hash((self.descriptor, self._c, self._den))

    def __bool__(self) -> bool:
        return bool(self._n)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for s in range(len(self._c) - 1, -1, -1):
            if not self._c[s]:
                continue
            text = self._scalar(self._c[s]).to_text()
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


class _ImagePoly(Poly):
    """A kernel result over F_p made from its image alone (`Poly._of_image`):
    its `_c` slot starts unset and is unpacked on the first read.

    Only this subclass defines `__getattr__`, which Python calls only for an
    unset slot.  On CPython 3.11 a class with `__getattr__` loses the
    specialized attribute loads of all its instances (a slot read went from
    47 to 84 ns, a method call from 85 to 157 ns; 3.12 and 3.13 keep them),
    so `Poly` itself, and every vector-backed and Q polynomial, keeps them.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        if name != "_c":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        c = self._c = tuple(_unpack(self._img, _image_bytes(self.descriptor.modulus), self._n))
        return c
