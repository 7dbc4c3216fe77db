"""Resultants by two independent routes, plus the Sylvester matrix itself.

For f of degree n with coefficients a_n..a_0 and g of degree m with
coefficients b_m..b_0, the Sylvester matrix is (n+m) x (n+m) with

    entry(i, j) = a_{n-j+i}   for rows i = 1..m,
    entry(m+i, j) = b_{m-j+i} for rows i = 1..n,

indices 1-based and out-of-range coefficients read as zero, i.e. m
right-shifted copies of f's coefficient row stacked over n shifted
copies of g's.  Res(f, g) is its determinant.

`resultant_sylvester` evaluates that determinant exactly, building the
matrix straight from the stored coefficient vectors.  Over F_p it runs
Gaussian elimination with first-nonzero pivoting on packed rows: each row
is one Python int whose slots hold the entries, column 0 in the most
significant slot, so clearing a column costs one C-level bigint multiply-add
per lower row instead of a Python loop over its entries (Kronecker packing,
as in Schonhage 1982 and Harvey, JSC 2009).  The slots are those of
`poly._slot_bytes` for an N x N matrix, whose docstring proves that no slot
carries.  A Sylvester row is then a packed coefficient vector shifted by
whole slots, so f and g are packed once each.  Once per column the pivot
row is reduced and negated without unpacking it (`poly._negate_mod_p`):
a Barrett quotient (Barrett, CRYPTO '86) is taken in all of its slots at
once, the even and the odd slots apart so that each product has spare bits
above it, which leaves every negated slot in (0, 2p].  Over Q it runs
fraction-free Bareiss elimination (Bareiss 1968) on the integer rows of the
stored numerators, and divides once by the denominators they cleared.
The rows are scaled lazily: with prev the last pivot, row i stores entries
with

    true row = stored row * prev / since[i],

so a row whose entry in the current column is zero is skipped, where plain
Bareiss would rescale all of it; Sylvester rows are shifted bands, so most
rows sit out most early columns.  The pivot is the row whose true lead has
the fewest bits, estimated as bitlen(stored lead) - bitlen(since), the first
such row on a tie.

`resultant_euclid` instead runs a remainder sequence:
Res(f, g) = (-1)^{deg f * deg g} * lc(g)^{deg f - deg r} * Res(g, r)
with r the remainder of f mod g, bottoming out at the constant rule
Res(f, c) = c^{deg f}.  Over Q the sequence runs on the stored integer
numerators F and G of f and g: Res is homogeneous of degree deg g in the
coefficients of f and of degree deg f in those of g, so Res(f, g) =
Res(F, G) / lam with lam = den(f)^{deg g} den(g)^{deg f}, and Res(F, G) is
an integer.  Each remainder is split into its content C_j / D_j, reduced,
and primitive part P (`Poly.primitive`) and the sequence carries P, using
Res(g, c P) = c^{deg g} Res(g, P) with m_j = deg g, so the remainders stay
integer vectors instead of growing ever larger denominators.  The step
factors are kept as integer bases with exponents, never as Fractions: the
powers of lc(g) and C_j^{m_j} over D_j^{m_j}.  The denominator of one
content comes back as most of the numerator of the next, so t_j =
gcd(D_j, C_{j+1}), a gcd of two bases of at most a few hundred bits, is
divided out of both and kept in the denominator as t_j^{m_j - m_{j+1}}.
The numerator and the denominator are then each one balanced product tree
with no gcds, and one exact division gives Res(F, G); a remainder there
would be a bug and raises.  A reduced Fraction product would instead run
gcds on operands of up to 10^5 digits at every step.  Over F_p the
sequence stays packed, starting from the images of f and g (see `poly`):
a step whose quotient has degree 1 reads the quotient off the top two
slots of f and g, forms the
remainder as one multiply-add of packed ints and reduces all its slots at
once with the Barrett step of `poly._reduce_mod_p`; only longer quotients
go through `Poly.divrem`, and the step factors are multiplied into one
residue as they come.  The two routes must agree everywhere; that
agreement is this package's core differential check.

Conventions for degenerate inputs: Res with exactly one zero argument
is 0, two nonzero constants give 1 (empty matrix), and two zero
polynomials are rejected.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .field import DescriptorMismatch, FieldDescriptor, Scalar
from .poly import Poly, _image_bytes, _negate_mod_p, _pack, _reduce_mod_p, _slot_bytes, _slot_masks, _unpack

__all__ = [
    "sylvester_matrix",
    "determinant",
    "resultant_sylvester",
    "resultant_euclid",
    "BothZeroError",
]


class BothZeroError(ValueError):
    """Res(0, 0) is undefined."""


def _zero_argument(f: Poly, g: Poly) -> bool:
    """Whether Res(f, g) is 0 because one argument is the zero polynomial.

    Rejects arguments over different fields and the undefined Res(0, 0).
    """
    if f.descriptor != g.descriptor:
        raise DescriptorMismatch(f"{f.descriptor} vs {g.descriptor}")
    if f.is_zero() and g.is_zero():
        raise BothZeroError("Res(0, 0) is undefined")
    return f.is_zero() or g.is_zero()


def sylvester_matrix(f: Poly, g: Poly) -> list[list]:
    """Syl(f, g) as rows of payloads, for nonzero f and g over one field.

    Two constants give the empty matrix, whose determinant is 1.
    """
    n, m = f.degree(), g.degree()
    zero = Scalar(f.descriptor, 0).value
    fc, gc = [s.value for s in reversed(f.coeffs)], [s.value for s in reversed(g.coeffs)]
    rows = [[zero] * i + fc + [zero] * (m - 1 - i) for i in range(m)]
    rows += [[zero] * i + gc + [zero] * (n - 1 - i) for i in range(n)]
    return rows


def _det_prime(packed: list[int], p: int, nbytes: int) -> int:
    """Gaussian elimination over F_p on rows packed by `poly._pack`.

    Entry (i, j) of the N x N matrix is a residue in slot N - 1 - j of
    packed[i], slots nbytes wide from `poly._slot_bytes(p, N)`.  Clearing a
    column adds (lead / pivot) times the negated pivot row to each lower row
    whose top slot is nonzero, after masking that slot off.  The negated
    pivot row comes from `_negate_mod_p`, with every slot in (0, 2p], so a
    column adds at most (p - 1) 2p to a slot, within the bound of
    `_slot_bytes`.  The list is eliminated in place.
    """
    size = len(packed)
    w = 8 * nbytes
    even, ones = _slot_masks(nbytes, size)
    det = 1
    for col in range(size):
        shift = w * (size - 1 - col)  # the live slots right of column col
        for r in range(col, size):
            pivot = (packed[r] >> shift) % p
            if pivot:
                break
        else:
            return 0
        if r != col:
            packed[col], packed[r] = packed[r], packed[col]
            det = -det
        det = det * pivot % p
        if not shift:
            break
        mask = (1 << shift) - 1
        neg_pivot_row = _negate_mod_p(packed[col] & mask, p, w, even, ones & mask)
        inv = pow(pivot, -1, p)
        for r in range(col + 1, size):
            top = packed[r] >> shift
            if top:
                packed[r] = (packed[r] & mask) + top % p * inv % p * neg_pivot_row
    return det % p


def _det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination with lazily scaled rows.

    Works in place on integer rows; entries left of the current column go
    stale and are never read again.  prev is the last pivot, and each row i
    carries one int since[i] with

        true row = stored row * prev / since[i],

    where the true row is the one plain Bareiss would hold, whose entries
    are minors and so integers.  Plain Bareiss rescales a row whose lead is
    zero to pk * row / prev at every column; here such a row is skipped and
    its since[i] alone keeps that factor.  A row with a nonzero lead takes
    the Bareiss step straight from its stored entries:

        (pk * true_j - true_lead * pivot_j) / prev
            = (pk * stored_j - stored_lead * pivot_j) / since[i],

    exactly, after which it is up to date and since[i] = pk.  The pivot row
    is brought up to date (one multiply and one exact division per entry)
    before it is used.  The pivot is the row with a nonzero lead whose true
    lead has the fewest bits, estimated as bitlen(stored lead) -
    bitlen(since), the first such row on a tie; since is swapped with its
    row.
    """
    n = len(rows)
    since = [1] * n
    sign = 1
    prev = 1  # the last pivot; after column n - 1 it is the determinant up to sign
    for k in range(n):
        pivot, fewest = -1, 0
        for i in range(k, n):
            lead = rows[i][k]
            if lead:
                bits = lead.bit_length() - since[i].bit_length()
                if pivot < 0 or bits < fewest:
                    pivot, fewest = i, bits
        if pivot < 0:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            since[k], since[pivot] = since[pivot], since[k]
            sign = -sign
        tail = rows[k][k:]
        if since[k] != prev:
            tail = [x * prev // since[k] for x in tail]
        pk, rk = tail[0], tail[1:]
        for i in range(k + 1, n):
            ri = rows[i]
            lead = ri[k]
            if lead:
                s = since[i]
                ri[k + 1 :] = [(pk * x - lead * y) // s for x, y in zip(ri[k + 1 :], rk)]
                since[i] = pk
        prev = pk
    return sign * prev


def _det_rational(rows: list[list[Fraction]]) -> Fraction:
    # clear each row's denominators, run Bareiss over Z, rescale exactly
    int_rows: list[list[int]] = []
    scale = 1
    for row in rows:
        # star-unpack a list, not a generator: building the argument tuple
        # from a generator reallocates it as it grows
        den = math.lcm(*[v.denominator for v in row])
        scale *= den
        int_rows.append([v.numerator * (den // v.denominator) for v in row])
    return Fraction(_det_bareiss(int_rows), scale)


def determinant(descriptor: FieldDescriptor, rows: list[list]) -> Scalar:
    """Exact determinant of a square matrix given as rows of payloads.

    Payloads may be any ints over F_p (they are packed as x % p) and
    Fractions or ints over Q.  The caller's rows are left unchanged: over
    F_p the elimination runs on packed copies (one int per row), and over
    Q on the denominator-cleared integer rows.
    """
    if descriptor.is_prime_field:
        p = descriptor.modulus
        nbytes = _slot_bytes(p, len(rows))
        packed = [_pack([x % p for x in reversed(row)], nbytes) for row in rows]
        return Scalar(descriptor, _det_prime(packed, p, nbytes))
    return Scalar(descriptor, _det_rational(rows))


def resultant_sylvester(f: Poly, g: Poly) -> Scalar:
    """Res(f, g) as the Sylvester determinant.

    The rows come from the stored vectors.  Over F_p, with f_row and g_row
    the packed coefficients of f and g (constant term in the lowest slot),
    row i of the f block is f_row shifted up by m - 1 - i slots and row i of
    the g block is g_row shifted up by n - 1 - i.  Over Q they are the numerators
    f._c and g._c, so the integer determinant is Res(f, g) times
    f._den^m g._den^n.
    """
    if _zero_argument(f, g):
        return Scalar(f.descriptor, 0)
    desc = f.descriptor
    n, m = f.degree(), g.degree()
    if desc.is_prime_field:
        p = desc.modulus
        nbytes = _slot_bytes(p, n + m)
        w = 8 * nbytes
        f_row, g_row = _pack(f._c, nbytes), _pack(g._c, nbytes)
        rows = [f_row << w * (m - 1 - i) for i in range(m)] + [g_row << w * (n - 1 - i) for i in range(n)]
        return Scalar(desc, _det_prime(rows, p, nbytes))
    fc, gc = list(reversed(f._c)), list(reversed(g._c))
    rows = [[0] * i + fc + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + gc + [0] * (n - 1 - i) for i in range(n)]
    return Scalar(desc, Fraction(_det_bareiss(rows), f._den**m * g._den**n))


def _euclid_prime(f: Poly, g: Poly) -> int:
    """Res(f, g) over F_p as a residue, for nonzero f and g with
    deg f >= deg g.

    f and g are taken as their images (`Poly._image`: the stored image of a
    kernel result, else the vector packed), in slots of
    `poly._image_bytes(p)` = `_slot_bytes(p, 2)`, which hold every value
    below 4 p^2, and the sequence stays packed.  While deg f = deg g + 1
    the quotient is q1 x + q0, read off the top two slots of f and g, and
    the remainder f - q g is the packed sum F + (p - q1) (G << w) +
    (p - q0) G, each of whose slots is below p + 2 p (p - 1) < 4 p^2,
    reduced into [0, p) by `poly._reduce_mod_p`.  Its top two slots come
    out zero, and its degree is read from its bit length.  A step with a
    longer quotient unpacks f and g for `Poly.divrem` and packs the
    remainder.  The step factors are multiplied as they come.
    """
    desc = f.descriptor
    p = desc.modulus
    nbytes = _image_bytes(p)
    w = 8 * nbytes
    slot = (1 << w) - 1
    n, m = f.degree(), g.degree()
    top = n  # ones is cut to the n + 1 slots of each sum: a full-length mask costs its length per step
    even, ones = _slot_masks(nbytes, n + 1)
    F, G = f._image(nbytes), g._image(nbytes)
    value, sign = 1, 0
    while m:
        lc = G >> w * m
        if n - m == 1:
            inv = pow(lc, -1, p)
            q1 = (F >> w * n) * inv % p
            q0 = ((F >> w * m & slot) - q1 * (G >> w * (m - 1) & slot)) * inv % p
            R = _reduce_mod_p(F + (p - q1) * (G << w) + (p - q0) * G, p, w, even, ones >> w * (top - n))
        else:
            _, r = Poly._raw(desc, _unpack(F, nbytes, n + 1)).divrem(Poly._raw(desc, _unpack(G, nbytes, m + 1)))
            R = _pack(r._c, nbytes)
        if not R:
            return 0
        k = (R.bit_length() - 1) // w
        sign += n * m
        value = value * pow(lc, n - k, p) % p
        F, G, n, m = G, R, m, k
    value = value * pow(G, n, p) % p
    return -value % p if sign % 2 else value


def resultant_euclid(f: Poly, g: Poly) -> Scalar:
    """Res(f, g) by the remainder-sequence recursion, iteratively.

    An explicit loop rather than recursion, so degree ~10^3 inputs cannot
    hit the interpreter stack limit.
    """
    if _zero_argument(f, g):
        return Scalar(f.descriptor, 0)
    desc = f.descriptor
    sign = 0
    if f.degree() < g.degree():
        sign += f.degree() * g.degree()
        f, g = g, f
    if desc.is_prime_field:
        value = _euclid_prime(f, g)
        return Scalar(desc, -value if sign % 2 else value)
    # Res(f, g) = Res(F, G) / lam for the stored numerators F and G, which
    # have the degrees of f and g, since Res is homogeneous of degree deg g
    # in the coefficients of f and of degree deg f in those of g
    lam = f._den ** g.degree() * g._den ** f.degree()
    f, g = Poly._raw(desc, f._c), Poly._raw(desc, g._c)
    num, contents = [], []  # powers of lc(g); [C_j, D_j, m_j] of each content C_j / D_j
    while True:
        n, m = f.degree(), g.degree()
        if m == 0:
            num.append(g._c[0] ** n)
            break
        _, r = f.divrem(g)
        if r.is_zero():
            return Scalar(desc, 0)
        sign += n * m
        c, r = r.primitive()
        num.append(g._c[-1] ** (n - r.degree()))
        contents.append([c.value.numerator, c.value.denominator, m])
        f, g = g, r
    # with t = gcd(D_j, C_{j+1}) divided out of both bases, C_{j+1}^{m_{j+1}}
    # / D_j^{m_j} keeps t^{m_j - m_{j+1}} in its denominator, m_j > m_{j+1}
    den = []
    for left, right in zip(contents, contents[1:]):
        t = math.gcd(left[1], right[0])
        if t != 1:
            left[1] //= t
            right[0] //= t
            den.append(t ** (left[2] - right[2]))
    num += [C**m for C, _, m in contents]
    den += [D**m for _, D, m in contents]
    value, rem = divmod(_product(num), _product(den))
    if rem:
        raise ArithmeticError("the Q Euclid step factors do not divide to an integer resultant")
    return Scalar._of(desc, Fraction(-value if sign % 2 else value, lam))


def _product(values: list[int]) -> int:
    """The product of ints by a balanced tree, so that CPython's Karatsuba
    multiplies operands of like size."""
    while len(values) > 1:
        pairs = [values[i] * values[i + 1] for i in range(0, len(values) - 1, 2)]
        values = pairs + values[2 * len(pairs) :]
    return values[0] if values else 1
