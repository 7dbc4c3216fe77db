"""Resultants by two independent routes, plus the Sylvester matrix itself.

For f of degree n with coefficients a_n..a_0 and g of degree m with
coefficients b_m..b_0, the Sylvester matrix is (n+m) x (n+m) with

    entry(i, j) = a_{n-j+i}   for rows i = 1..m,
    entry(m+i, j) = b_{m-j+i} for rows i = 1..n,

indices 1-based and out-of-range coefficients read as zero, i.e. m
right-shifted copies of f's coefficient row stacked over n shifted
copies of g's.  Res(f, g) is its determinant.

`resultant_sylvester` evaluates that determinant exactly: Gaussian
elimination with first-nonzero pivoting over F_p, fraction-free Bareiss
elimination over Q on a denominator-cleared integer matrix (rescaled
back exactly).  `resultant_euclid` instead runs a remainder sequence:
Res(f, g) = (-1)^{deg f * deg g} * lc(g)^{deg f - deg r} * Res(g, r)
with r the remainder of f mod g, bottoming out at the constant rule
Res(f, c) = c^{deg f}.  Over Q each remainder is split into its content
c and primitive part P (`Poly.primitive`) and the sequence carries P,
using Res(g, c P) = c^{deg g} Res(g, P), so the remainders stay integer
vectors instead of growing ever larger denominators.  The two routes
must agree everywhere; that agreement is this package's core
differential check.

Conventions for degenerate inputs: Res with exactly one zero argument
is 0, two nonzero constants give 1 (empty matrix), and two zero
polynomials are rejected.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .field import DescriptorMismatch, FieldDescriptor, Scalar
from .poly import Poly, _integral

__all__ = [
    "Matrix",
    "sylvester_matrix",
    "determinant",
    "resultant_sylvester",
    "resultant_euclid",
    "NotSquareError",
    "ZeroPolynomialError",
    "BothConstantError",
    "BothZeroError",
]


class NotSquareError(ValueError):
    """Determinant of a non-square matrix requested."""


class ZeroPolynomialError(ValueError):
    """A zero polynomial where a nonzero one is required."""


class BothConstantError(ValueError):
    """Sylvester matrix of two constants would be 0 x 0."""


class BothZeroError(ValueError):
    """Res(0, 0) is undefined."""


class Matrix:
    """Immutable row-major matrix over one field."""

    __slots__ = ("descriptor", "n_rows", "n_cols", "_rows")

    def __init__(self, descriptor: FieldDescriptor, rows: Iterable[Iterable]):
        self.descriptor = descriptor
        canon = []
        for row in rows:
            canon.append(tuple(self._payload(v) for v in row))
        if not canon or not canon[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(canon[0])
        if any(len(r) != width for r in canon):
            raise ValueError("ragged rows")
        self._rows = tuple(canon)
        self.n_rows = len(canon)
        self.n_cols = width

    def _payload(self, v):
        if isinstance(v, Scalar):
            if v.descriptor != self.descriptor:
                raise DescriptorMismatch(f"{self.descriptor} vs {v.descriptor}")
            return v.value
        if self.descriptor.is_prime_field:
            return int(v) % self.descriptor.modulus
        return Fraction(v)

    @classmethod
    def _raw(cls, descriptor: FieldDescriptor, rows: list[tuple]) -> "Matrix":
        m = object.__new__(cls)
        m.descriptor = descriptor
        m._rows = tuple(rows)
        m.n_rows = len(rows)
        m.n_cols = len(rows[0])
        return m

    def entry(self, i: int, j: int) -> Scalar:
        return Scalar(self.descriptor, self._rows[i][j])

    def row(self, i: int) -> tuple[Scalar, ...]:
        return tuple(Scalar(self.descriptor, v) for v in self._rows[i])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.descriptor == self.descriptor
            and other._rows == self._rows
        )

    def __hash__(self) -> int:
        return hash((self.descriptor, self._rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(Scalar(self.descriptor, v)) for v in row) for row in self._rows)
        return f"Matrix({self.descriptor}, {self.n_rows}x{self.n_cols}: {body})"


def sylvester_matrix(f: Poly, g: Poly) -> Matrix:
    """Build Syl(f, g); at least one argument must be nonconstant."""
    if f.descriptor != g.descriptor:
        raise DescriptorMismatch(f"{f.descriptor} vs {g.descriptor}")
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("Sylvester matrix needs nonzero polynomials")
    n, m = f.degree(), g.degree()
    if n == 0 and m == 0:
        raise BothConstantError("both polynomials are constants")
    size = n + m
    fz = 0 if f.descriptor.is_prime_field else Fraction(0)
    fc, gc = f._c, g._c
    rows = []
    for i in range(m):
        rows.append(tuple(fc[n - j + i] if 0 <= n - j + i <= n else fz for j in range(size)))
    for i in range(n):
        rows.append(tuple(gc[m - j + i] if 0 <= m - j + i <= m else fz for j in range(size)))
    return Matrix._raw(f.descriptor, rows)


def _det_prime(rows: list[list[int]], p: int) -> int:
    n = len(rows)
    det = 1
    sign = 1
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            return 0
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pivot = rows[col][col]
        det = det * pivot % p
        inv = pow(pivot, p - 2, p)
        prow = rows[col]
        for r in range(col + 1, n):
            lead = rows[r][col]
            if lead:
                factor = lead * inv % p
                rr = rows[r]
                rows[r] = [(x - factor * y) % p for x, y in zip(rr, prow)]
    return det * sign % p


def _det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free elimination; intermediate entries stay integral."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot_row = None
            for r in range(k + 1, n):
                if rows[r][k]:
                    pivot_row = r
                    break
            if pivot_row is None:
                return 0
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pk = rows[k][k]
        rk = rows[k]
        for i in range(k + 1, n):
            ri = rows[i]
            lead = ri[k]
            rows[i] = [0] * (k + 1) + [
                (pk * ri[j] - lead * rk[j]) // prev for j in range(k + 1, n)
            ]
        prev = pk
    return sign * rows[n - 1][n - 1]


def _det_rational(rows: list[list[Fraction]]) -> Fraction:
    # clear each row's denominators, run Bareiss over Z, rescale exactly
    int_rows: list[list[int]] = []
    scale = 1
    for row in rows:
        ints, den = _integral(row)
        scale *= den
        int_rows.append(ints)
    return Fraction(_det_bareiss(int_rows), scale)


def determinant(matrix: Matrix) -> Scalar:
    """Exact determinant of a square matrix."""
    if not matrix.is_square:
        raise NotSquareError(f"{matrix.n_rows}x{matrix.n_cols} matrix")
    rows = [list(r) for r in matrix._rows]
    if matrix.descriptor.is_prime_field:
        return Scalar(matrix.descriptor, _det_prime(rows, matrix.descriptor.modulus))
    return Scalar(matrix.descriptor, _det_rational(rows))


def resultant_sylvester(f: Poly, g: Poly) -> Scalar:
    """Res(f, g) as the Sylvester determinant."""
    if f.descriptor != g.descriptor:
        raise DescriptorMismatch(f"{f.descriptor} vs {g.descriptor}")
    if f.is_zero() and g.is_zero():
        raise BothZeroError("Res(0, 0) is undefined")
    if f.is_zero() or g.is_zero():
        return Scalar(f.descriptor, 0)
    if f.degree() == 0 and g.degree() == 0:
        return Scalar(f.descriptor, 1)
    return determinant(sylvester_matrix(f, g))


def resultant_euclid(f: Poly, g: Poly) -> Scalar:
    """Res(f, g) by the remainder-sequence recursion, iteratively.

    An explicit loop with an accumulated scalar rather than recursion,
    so degree ~10^3 inputs cannot hit the interpreter stack limit.
    """
    if f.descriptor != g.descriptor:
        raise DescriptorMismatch(f"{f.descriptor} vs {g.descriptor}")
    if f.is_zero() and g.is_zero():
        raise BothZeroError("Res(0, 0) is undefined")
    if f.is_zero() or g.is_zero():
        return Scalar(f.descriptor, 0)
    desc = f.descriptor
    acc = Scalar(desc, 1)
    sign = 0
    if f.degree() < g.degree():
        sign += f.degree() * g.degree()
        f, g = g, f
    while True:
        n, m = f.degree(), g.degree()
        if m == 0:
            acc = acc * (g.coeff_at(0) ** n)
            break
        _, r = f.divrem(g)
        if r.is_zero():
            return Scalar(desc, 0)
        sign += n * m
        factor = g.leading_coeff() ** (n - r.degree())
        if not desc.is_prime_field:  # over F_p the content is 1
            c, r = r.primitive()
            factor = factor * c**m
        acc = acc * factor
        f, g = g, r
    if sign % 2:
        acc = -acc
    return acc
