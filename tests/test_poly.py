import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recres import (
    NEG_INFINITY,
    DescriptorMismatch,
    DivisionByZero,
    Poly,
    Scalar,
    prime_field,
    rationals,
)
from recres import poly
from helpers import parse_poly, parse_scalar, rand_fraction_poly, rand_nonzero_poly

Q = rationals()
F97 = prime_field(97)


def P(*coeffs):
    return Poly(Q, coeffs)


def test_degree():
    assert P(-1, 0, 1).degree() == 2
    assert P(5).degree() == 0
    assert P().degree() == NEG_INFINITY


def test_neg_infinity_follows_max_plus_conventions():
    assert NEG_INFINITY + 5 == NEG_INFINITY
    assert NEG_INFINITY < 0
    assert NEG_INFINITY != -1


def test_ring_arith_examples():
    assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)
    assert P(1, 1) ** 0 == Poly.one(Q)
    assert P(-1, 0, 1) + P(1, 0, -1) == Poly.zero(Q)
    assert (P(-1, 0, 1) + P(1, 0, -1)).coeffs == ()


def test_divrem_examples():
    q, r = P(-1, 0, 1).divrem(Poly.x(Q))
    assert q == Poly.x(Q) and r == P(-1)
    q, r = Poly.x(Q).divrem(P(-1, 0, 1))
    assert q == Poly.zero(Q) and r == Poly.x(Q)
    # recomposition oracle: multiply back
    f, g = P(0, -2, 0, 1), P(-1, 0, 1)
    q, r = f.divrem(g)
    assert q == Poly.x(Q) and r == P(0, -1)
    assert q * g + r == f


def test_divrem_by_zero():
    with pytest.raises(DivisionByZero):
        P(1, 1).divrem(Poly.zero(Q))


def test_eval_examples():
    f = P(-1, 0, 1)
    assert f.evaluate(Scalar(Q, 0)) == Scalar(Q, -1)
    assert f.evaluate(Scalar(Q, 1)).is_zero()
    # direct substitution oracle: 2^3 - 2*2 = 4
    g = P(0, -2, 0, 1)
    assert g.evaluate(Scalar(Q, 2)) == Scalar(Q, Fraction(2) ** 3 - 2 * Fraction(2))


def test_coeff_at():
    f = P(-1, 0, 1)
    assert f.coeff_at(2) == Scalar(Q, 1)
    assert f.coeff_at(1).is_zero()
    assert f.coeff_at(7).is_zero()
    with pytest.raises(ValueError):
        f.coeff_at(-1)


def test_pow_matches_iterated_multiplication():
    rng = random.Random(7)
    for desc in (Q, F97):
        for _ in range(15):
            f = rand_nonzero_poly(rng, desc, 4)
            expected = Poly.one(desc)
            for e in range(6):
                assert f**e == expected
                expected = expected * f


def test_scalar_and_int_multiplication():
    f = P(1, 2, 3)
    assert f * Scalar(Q, 2) == P(2, 4, 6)
    assert Scalar(Q, 2) * f == P(2, 4, 6)
    assert 2 * f == P(2, 4, 6)
    assert f.scale(Scalar(Q, 0)) == Poly.zero(Q)
    with pytest.raises(TypeError):
        Scalar(Q, 2) + f


def test_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        P(1) + Poly(F97, [1])
    with pytest.raises(DescriptorMismatch):
        P(1, 1).evaluate(Scalar(F97, 1))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        P(1, 1) ** -1


def test_prime_field_coefficients_reduced():
    f = Poly(F97, [98, 97, 1])
    assert [s.value for s in f.coeffs] == [1, 0, 1]
    assert Poly(F97, [97]).is_zero()


def test_shift():
    assert P(1, 2).shift(2) == P(0, 0, 1, 2)
    assert Poly.zero(Q).shift(3).is_zero()


def test_text_encoding():
    f = P(Fraction(-1, 2), 0, 1)
    assert f.to_text() == ["-1/2", "0", "1"]
    assert parse_poly(Q, f.to_text()) == f
    assert parse_poly(Q, []).is_zero()


F10007 = prime_field(10007)


@pytest.mark.parametrize(
    "text",
    [" 7", "7\n", "\t+3 ", "-1", "+0", "-0", "007", "10006", "10007", "10008", "-20015", str(3 * 10**40 + 5)],
)
def test_fp_from_text_matches_scalar_parse(text):
    # over F_p, the loader's conversion parses straight to ints, without a Scalar per entry
    parsed = parse_poly(F10007, ["1", text, text])
    assert parsed == Poly(F10007, [Scalar(F10007, 1), parse_scalar(F10007, text), parse_scalar(F10007, text)])
    assert parse_poly(F10007, [text]) == Poly(F10007, [parse_scalar(F10007, text)])


@pytest.mark.parametrize(
    "text",
    ["", " ", "spam", "1.0", "1/2", "0x10", "1_000", "\u0663", "1e3", "+-1", "- 1", "1 2"],
)
def test_fp_from_text_rejects_junk_as_scalar_parse_does(text):
    # the same ValueError text, so instance-file errors stay byte-identical
    with pytest.raises(ValueError) as scalar_error:
        parse_scalar(F10007, text)
    with pytest.raises(ValueError) as poly_error:
        parse_poly(F10007, ["1", text])
    assert str(poly_error.value) == str(scalar_error.value)
    assert str(scalar_error.value) == f"cannot parse {text.strip()!r} as an element of F_10007"


def test_fp_from_text_past_the_digit_cap_fails_as_scalar_parse_does(default_digit_cap):
    # the text has the form of an integer, but int() refuses its 5000 digits
    text = "9" * 5000
    with pytest.raises(ValueError) as scalar_error:
        parse_scalar(F10007, text)
    with pytest.raises(ValueError) as poly_error:
        parse_poly(F10007, [text])
    assert str(poly_error.value) == str(scalar_error.value) == f"cannot parse {text!r} as an element of F_10007"


def test_str_rendering():
    assert str(P(0, -2, 0, 1)) == "x^3 - 2x"
    assert str(P(-1, 0, 1)) == "x^2 - 1"
    assert str(Poly.zero(Q)) == "0"
    assert str(P(5)) == "5"
    assert str(P(Fraction(1, 2), 1)) == "x + 1/2"
    assert str(P(0, Fraction(3, 2))) == "3/2*x"


# -- Q kernels on non-integral rationals ---------------------------------------


def ref_mul(a, b):
    """Schoolbook product of Fraction coefficient lists (ascending degree)."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_divrem(a, b):
    """Schoolbook long division of Fraction coefficient lists."""
    a, db = list(a), len(b) - 1
    q = [Fraction(0)] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + db] / b[-1]
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    return q, a[:db]


def check_against_reference(f, g):
    a, b = [s.value for s in f.coeffs], [s.value for s in g.coeffs]
    assert f * g == P(*ref_mul(a, b))
    q, r = f.divrem(g)
    ref_q, ref_r = ref_divrem(a, b)
    assert (q, r) == (P(*ref_q), P(*ref_r))
    assert q * g + r == f
    assert r.degree() < g.degree()


def test_q_kernels_match_fraction_reference():
    rng = random.Random(31)
    for _ in range(150):
        f = rand_fraction_poly(rng, rng.randint(0, 9))
        g = rand_fraction_poly(rng, rng.randint(0, 6))
        check_against_reference(f, g)


def test_q_kernels_edge_cases():
    f = P(Fraction(1, 3), Fraction(-5, 4), Fraction(7, 6), Fraction(-9, 10))
    negative_lead = P(Fraction(2, 5), Fraction(-3, 7))
    constant = P(Fraction(-3, 8))
    longer = P(Fraction(1, 2), 0, 0, 0, Fraction(5, 11))
    for g in (negative_lead, constant, longer, f):
        check_against_reference(f, g)
    assert f.divrem(longer) == (Poly.zero(Q), f)
    assert f.divrem(constant)[1].is_zero()
    assert f * Poly.zero(Q) == Poly.zero(Q)


def test_primitive_contract():
    rng = random.Random(32)
    for _ in range(40):
        f = rand_fraction_poly(rng, rng.randint(0, 7)) * Scalar(Q, Fraction(rng.randint(1, 30), rng.randint(1, 30)))
        c, part = f.primitive()
        assert c * part == f
        assert c.value > 0
        ints = [s.value for s in part.coeffs]
        assert all(v.denominator == 1 for v in ints)
        assert math.gcd(*(v.numerator for v in ints)) == 1
    assert P(-4, 6).primitive() == (Scalar(Q, 2), P(-2, 3))
    assert P(Fraction(1, 2), Fraction(-1, 3)).primitive() == (Scalar(Q, Fraction(1, 6)), P(3, -2))
    assert Poly.zero(Q).primitive() == (Scalar(Q, 1), Poly.zero(Q))
    g = Poly(F97, [3, 6])
    assert g.primitive() == (Scalar(F97, 1), g)


# -- ring axioms, property based ---------------------------------------------

payloads = st.integers(-50, 50)
polys = st.lists(payloads, max_size=6).map(lambda c: Poly(F97, c))


@settings(derandomize=True, max_examples=60)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + Poly.zero(F97) == f
    assert f * Poly.one(F97) == f


@settings(derandomize=True, max_examples=60)
@given(polys, polys)
def test_divrem_roundtrip(f, g):
    if g.is_zero():
        return
    q, r = f.divrem(g)
    assert q * g + r == f
    assert r.degree() < g.degree()


def assert_stored_form(f):
    """Integer entries over one int denominator, trailing zeros stripped;
    residues over 1 in F_p, a positive coprime denominator over Q."""
    assert type(f._c) is tuple and all(type(v) is int for v in f._c)
    assert type(f._den) is int
    assert not f._c or f._c[-1]
    assert f._n == len(f._c)
    if f.descriptor.is_prime_field:
        assert f._den == 1
        assert all(0 <= v < f.descriptor.modulus for v in f._c)
        if f._img is not None:
            assert f._img == poly._pack(f._c, poly._image_bytes(f.descriptor.modulus))
    else:
        assert f._img is None
        assert f._den > 0
        assert math.gcd(f._den, *f._c) == 1


@pytest.mark.parametrize("p", [2, 3, 1000003, 2**61 - 1])
def test_prime_divrem_long_quotients(p):
    # the rows of F_p divrem are reduced lazily, so a lead may be read after
    # hundreds of unreduced row updates; f = q0 g + r0 with deg r0 < deg g
    # has exactly one quotient and remainder
    desc, rng = prime_field(p), random.Random(p)

    def draw(degree):
        return Poly(desc, [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)])

    for deg_g, deg_q in ((1, 400), (7, 300), (60, 250), (3, 0)):
        g, q0 = draw(deg_g), draw(deg_q)
        for r0 in (Poly.zero(desc), draw(deg_g - 1), draw(0)):
            f = q0 * g + r0
            q, r = f.divrem(g)
            assert (q, r) == (q0, r0)
            assert q * g + r == f and r.degree() < g.degree()
            assert_stored_form(q)
            assert_stored_form(r)


FP_ONE_PASS_PRIMES = [2, 3, 5, 10007, 1000003, 2**61 - 1]


@pytest.mark.parametrize("p", [*FP_ONE_PASS_PRIMES, None])
def test_prime_add_scale_neg_match_make(p):
    # sums, differences, negations, scalings and shifts all go through
    # `_plus_scaled_shift`; each result must be the polynomial of the plain
    # entry-by-entry result, which Poly() canonicalizes one Scalar at a time,
    # and in stored form, whether the operands cancel to 0, cancel at the top
    # or differ in length.  p = None is Q, with fractional entries over
    # unequal denominators.  Over F_p the operands are also taken image-only,
    # and the payloads include p - 1, the largest the image width admits
    desc = Q if p is None else prime_field(p)
    rng = random.Random(p)

    def entry():
        if p is None:
            return rng.choice([0, 1, -1, rng.randint(-9, 9), Fraction(rng.randint(-20, 20), rng.randint(1, 12))])
        return rng.choice([0, 1, p - 1, rng.randrange(p)])

    def draw(length):
        c = [entry() for _ in range(length)]
        while c and not c[-1]:
            c[-1] = entry()
        return c

    def forms(c):
        vec = Poly(desc, c)
        return (vec,) if p is None else (vec, image_only(desc, vec._c))

    def plus(a, u, k, b):
        return Poly(desc, [x + u * y for x, y in zip_longest(a, [0] * k + b, fillvalue=0)])

    pairs = []
    for la, lb in ((0, 0), (0, 3), (1, 1), (3, 3), (3, 40), (40, 3), (40, 40), (300, 2)):
        a, b = draw(la), draw(lb)
        pairs.append((a, b))
        if la:
            pairs.append((a, [-v for v in a]))  # a + (-a) = 0
            top = [-v for v in a[-2:]]  # cancels the top one or two entries
            pairs.append((a, draw(la - len(top)) + top))
    payloads = (0, 1, -1, Fraction(rng.randint(-20, 20), rng.randint(1, 12))) if p is None else (0, 1, p - 1, rng.randrange(p))
    for a, b in pairs:
        for f in forms(a):
            results = [(-f, plus([], -1, 0, a))]
            results += [(f.shift(k), plus([], 1, k, a)) for k in (0, 1, 3)]
            results += [(f.scale(Scalar(desc, u)), plus([], u, 0, a)) for u in payloads]
            for g in forms(b):
                results += [(f + g, plus(a, 1, 0, b)), (f - g, plus(a, -1, 0, b))]
                results += [(f._plus_scaled_shift(g, u, k), plus(a, u, k, b)) for u in payloads for k in (0, 1, 3)]
            for got, want in results:
                assert got == want, (a, b)
                assert_stored_form(got)


@pytest.mark.parametrize("desc", [Q, prime_field(2), F97, prime_field(2**61 - 1)], ids=str)
def test_poly_scalars_are_canonical(desc):
    # coefficients and values leave a Poly through `Scalar._of`; each must be
    # the Scalar that canonicalizes the same payload, with the same payload type
    rng = random.Random(5)
    for _ in range(20):
        if desc.is_prime_field:
            f = Poly(desc, [rng.randrange(-3 * desc.modulus, 3 * desc.modulus) for _ in range(rng.randint(0, 6))])
            at = Scalar(desc, rng.randrange(desc.modulus))
        else:  # integral polynomials (den 1) as well as fractional ones
            degree = rng.randint(0, 6)
            f = rand_fraction_poly(rng, degree) if rng.random() < 0.5 else Poly(desc, [rng.randint(-9, 9) for _ in range(degree)])
            at = Scalar(desc, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        raw = [Fraction(v, f._den) for v in f._c] if not desc.is_prime_field else list(f._c)
        got = list(f.coeffs) + [f.leading_coeff(), f.coeff_at(0), f.coeff_at(len(raw) + 2), f.evaluate(at)]
        want = raw + [raw[-1] if raw else 0, raw[0] if raw else 0, 0]
        want.append(sum(c * at.value**s for s, c in enumerate(raw)))
        for scalar, payload in zip(got, want, strict=True):
            canonical = Scalar(desc, payload)
            assert scalar == canonical and type(scalar.value) is type(canonical.value), (scalar, payload)


def operands(desc, coeff):
    poly = st.lists(coeff, max_size=6).map(lambda c: Poly(desc, c))
    return st.tuples(poly, poly, coeff.map(lambda v: Scalar(desc, v)), st.integers(0, 3))


field_operands = st.one_of(
    operands(F97, payloads),
    operands(Q, st.fractions(min_value=-50, max_value=50, max_denominator=12)),
)


@settings(derandomize=True, max_examples=60)
@given(field_operands)
def test_eval_is_a_ring_homomorphism(args):
    f, g, at, _ = args
    assert (f * g).evaluate(at) == f.evaluate(at) * g.evaluate(at)
    assert (f + g).evaluate(at) == f.evaluate(at) + g.evaluate(at)
    assert f.evaluate(at) == sum((c * at**s for s, c in enumerate(f.coeffs)), Scalar(f.descriptor, 0))


@settings(derandomize=True, max_examples=120)
@given(field_operands)
def test_no_operation_leaves_trailing_zeros(args):
    f, g, s, k = args
    desc = f.descriptor
    results = [f + g, f - g, f * g, -f, f.scale(s), f.shift(k), f.primitive()[1]]
    if not g.is_zero():
        # over Q, -g has a negative leading coefficient whenever g's is positive
        for divisor in (g, -g):
            results += f.divrem(divisor)
    for result in results:
        assert_stored_form(result)
    # equal values built by different routes compare and hash equal
    same = [
        (f + g - g, f),
        (f * g, g * f),
        (f.shift(k), f * Poly(desc, [0] * k + [1])),
        (Poly(desc, f.coeffs), f),
        (parse_poly(desc, f.to_text()), f),
        (f.scale(Scalar(desc, 2)), f + f),
        (f.primitive()[1].scale(f.primitive()[0]), f),
    ]
    if not s.is_zero():
        same.append((f.scale(s).scale(s.inv()), f))
    if not g.is_zero():
        q, r = f.divrem(-g)
        same.append((q * -g + r, f))
    for a, b in same:
        assert a == b and hash(a) == hash(b)


# -- packed F_p kernels ---------------------------------------------------------

# 268435399 < 2^28 packs into exactly 8-byte slots below 128 terms and into
# 9-byte ones from 128 on; 2^61 - 1 and 2^89 - 1 always into wider ones
PACKED_PRIMES = [2, 3, 10007, 1000003, 268435399, 2**61 - 1, 2**89 - 1]


@pytest.mark.parametrize("nbytes", range(1, 18))
def test_pack_unpack_round_trip(nbytes):
    # lengths on both sides of the per-entry packing cutoff
    rng = random.Random(nbytes)
    top = (1 << (8 * nbytes)) - 1
    short = poly._PACK_PER_ENTRY
    for length in (1, 2, 3, 8, 9, short - 1, short, short + 1, 100):
        c = [rng.choice([0, 1, top, rng.randrange(top + 1)]) for _ in range(length)]
        x = poly._pack(c, nbytes)
        assert x == sum(v << (8 * nbytes * s) for s, v in enumerate(c))
        assert poly._unpack(x, nbytes, length) == c
        assert poly._unpack(x, nbytes, length + 3) == c + [0, 0, 0]
        assert poly._unpack(x, nbytes, length - 1) == c[:-1]


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_kronecker_product_matches_convolve(p):
    # lengths 1..700 on both sides of the schoolbook cutoff, squares included;
    # the packed product is the exact integer convolution, and Poly products
    # are in stored form
    desc, rng = prime_field(p), random.Random(p)
    lengths = [1, 2, 3, 8, 11, 12, 64, 65, 127, 128, 129, 300, 700]
    pairs = [(la, lb) for la in lengths for lb in lengths if la * lb <= 700 * 128]
    pairs += [(rng.randint(1, 700), rng.randint(1, 700)) for _ in range(4)] + [(700, 700)]
    widths = set()
    for la, lb in pairs:
        a = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
        b = [rng.choice([0, p - 1, rng.randrange(p)]) for _ in range(lb - 1)] + [p - 1]
        expected = poly._convolve(a, b)
        assert poly._ks_mul(a, b, p) == expected, (la, lb)
        product = Poly(desc, a) * Poly(desc, b)
        assert product == Poly._raw(desc, [v % p for v in expected]), (la, lb)
        assert_stored_form(product)
        widths.add(poly._slot_bytes(p, min(la, lb)))
    square = Poly(desc, a)
    assert square * square == Poly._raw(desc, [v % p for v in poly._convolve(a, a)])
    assert_stored_form(square * square)
    if p == 268435399:
        assert {8, 9} <= widths


@pytest.mark.parametrize("p", [1000003, 268435399, 2**61 - 1])
def test_kronecker_route_counts_entries_where_slots_are_wide(p, monkeypatch):
    # past _KS_CUTOFF pairs a product whose slots fit the image width is
    # multiplied as images and keeps an image, and a wider one goes by
    # _ks_mul; slots miss the image width only from 8 terms on, so a product
    # with slots wider than 8 bytes that goes by _ks_mul always has more than
    # 3 pairs per entry packed, where the packed route wins; the product is
    # the same on every route
    calls = []
    ks_mul = poly._ks_mul
    monkeypatch.setattr(poly, "_ks_mul", lambda a, b, q: calls.append(1) or ks_mul(a, b, q))
    desc, rng = prime_field(p), random.Random(p)
    width = poly._image_bytes(p)
    routes = set()
    for la, lb in [(2, 65), (2, 1000), (3, 1000), (4, 1000), (8, 17), (12, 12), (16, 16), (64, 64), (128, 129)]:
        a = [rng.randrange(p) for _ in range(la - 1)] + [rng.randrange(1, p)]
        b = [rng.randrange(p) for _ in range(lb - 1)] + [rng.randrange(1, p)]
        calls.clear()
        product = Poly(desc, a) * Poly(desc, b)
        nbytes = poly._slot_bytes(p, min(la, lb))
        past = la * lb > poly._KS_CUTOFF
        image = past and nbytes <= width
        assert (product._img is not None) == image, (la, lb)
        assert len(calls) == (past and not image), (la, lb)
        assert product == Poly._raw(desc, [v % p for v in poly._convolve(a, b)])
        routes.add("image" if image else "packed" if past else "loop")
        if nbytes > width:
            assert min(la, lb) >= 8, (la, lb)
        if nbytes > 8 and past and not image:
            assert la * lb > 3 * (la + lb), (la, lb)
    assert routes == {"image", "packed"}
    if p == 2**61 - 1:
        # 16-byte images hold the products of fewer than 32 terms
        assert width == 16 and poly._slot_bytes(p, 31) == 16 < poly._slot_bytes(p, 32)


@pytest.mark.parametrize("p", [2, 3, 1000003, 2**61 - 1, 2**89 - 1])
def test_prime_divrem_on_both_sides_of_the_newton_cutoff(p, monkeypatch):
    # divisor degree d and quotient degree k take the Newton route when
    # d >= _NEWTON_MIN_DIVISOR and (k + 1) d > _NEWTON_CUTOFF; f = q0 g + r0
    # with deg r0 < deg g has exactly one quotient and remainder
    calls = []
    newton = poly._divrem_newton
    monkeypatch.setattr(poly, "_divrem_newton", lambda a, b, q: calls.append(1) or newton(a, b, q))
    desc, rng = prime_field(p), random.Random(p)

    def draw(degree):
        return Poly(desc, [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)])

    shortest = poly._NEWTON_MIN_DIVISOR
    for deg_g in (shortest - 1, shortest, 64, 1024):
        cutoff = poly._NEWTON_CUTOFF // deg_g  # the least quotient degree past the cutoff
        for deg_q in (cutoff - 1, cutoff, cutoff + 1):
            g, q0 = draw(deg_g), draw(deg_q)
            for r0 in (Poly.zero(desc), draw(deg_g - 1), draw(0)):
                f = q0 * g + r0
                calls.clear()
                q, r = f.divrem(g)
                assert (q, r) == (q0, r0), (deg_g, deg_q)
                assert len(calls) == (deg_g >= shortest and deg_q >= cutoff), (deg_g, deg_q)
                assert_stored_form(q)
                assert_stored_form(r)


# -- image-backed F_p polynomials -------------------------------------------

IMAGE_PRIMES = [2, 3, 5, 10007, 1000003, 2**61 - 1]


def image_only(desc, c):
    """The stored vector c as an image-only polynomial, its `_c` unset."""
    return Poly._of_image(desc, poly._pack(list(c), poly._image_bytes(desc.modulus)), len(c))


def vector_unset(f):
    # the slot itself, bypassing the lazy unpacking of __getattr__
    try:
        Poly._c.__get__(f)
    except AttributeError:
        return True
    return False


@pytest.mark.parametrize("p", IMAGE_PRIMES)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_image_backed_and_vector_backed_polys_are_interchangeable(p, data):
    # every reader sees the same polynomial in either stored form; the zero
    # polynomial is drawn too
    desc = prime_field(p)
    residues = st.integers(0, p - 1) | st.sampled_from([0, 1, p - 1])
    c = poly._strip(data.draw(st.lists(residues, max_size=40)))
    d = poly._strip(data.draw(st.lists(residues, min_size=1, max_size=12)))
    at = Scalar(desc, data.draw(residues))
    vec, g = Poly._raw(desc, c), Poly._raw(desc, d)

    def img():
        return image_only(desc, c)

    f = img()
    assert (f.degree(), f.is_zero(), bool(f)) == (vec.degree(), vec.is_zero(), bool(vec))
    assert vector_unset(f)
    assert f == vec and vec == img() and hash(img()) == hash(vec)
    assert img().coeffs == vec.coeffs and img().to_text() == vec.to_text()
    assert str(img()) == str(vec) and repr(img()) == repr(vec)
    assert img().evaluate(at) == vec.evaluate(at)
    assert img().leading_coeff() == vec.leading_coeff() and img().coeff_at(3) == vec.coeff_at(3)
    if g:
        assert img().divrem(g) == vec.divrem(g)
    if c:
        assert g.divrem(img()) == g.divrem(vec)
    for copied in (pickle.loads(pickle.dumps(img())), copy.copy(img()), copy.deepcopy(img())):
        assert copied == vec and hash(copied) == hash(vec)
        assert_stored_form(copied)
    # kernels on either form agree, and their image results are canonical
    s = Scalar(desc, data.draw(residues))
    shift = data.draw(st.integers(0, 5))
    for x, y in ((img(), g), (g, img()), (img(), img())):
        x_vec, y_vec = Poly._raw(desc, x._c), Poly._raw(desc, y._c)
        for got, want in (
            (x + y, x_vec + y_vec),
            (x - y, x_vec - y_vec),
            (x * y, x_vec * y_vec),
            (x._plus_scaled_shift(y, s.value, shift), x_vec._plus_scaled_shift(y_vec, s.value, shift)),
        ):
            assert got == want
            assert_stored_form(got)
    assert (img() - img()).is_zero()
    # the unary operations on an image-only operand stay on images
    for got, want in ((-img(), -vec), (img().scale(s), vec.scale(s)), (img().shift(shift), vec.shift(shift))):
        assert got == want
        assert_stored_form(got)
    for got in (-img(), img().scale(s), img().shift(shift)):
        assert got._img is not None or not got


def test_image_only_poly_unpacks_once_and_names_nothing_else():
    desc = prime_field(1000003)
    f = image_only(desc, [5, 0, 7])
    assert vector_unset(f)
    assert f._c == (5, 0, 7) and not vector_unset(f)
    assert f._c is f._c and f._img is not None
    for name in ("no_such_name", "__setstate__", "c", "_C", "__c"):
        with pytest.raises(AttributeError):
            getattr(f, name)
    # only image-only polynomials look an unset slot up, and a bare one
    # unpacks nothing
    assert type(f) is not Poly and type(Poly(desc, [1])) is Poly
    for bare in (object.__new__(Poly), object.__new__(type(f))):
        for name in ("_c", "_img", "_n", "descriptor"):
            assert not hasattr(bare, name)
    # vector-backed polynomials, and every Q polynomial, carry no image, and
    # packing one for a kernel stores nothing
    for v in (Poly(desc, [1, 2, 3]), P(1, 2, 3), Poly.x(desc)):
        assert v._img is None
    v = Poly(desc, list(range(1, 300)))
    width = poly._image_bytes(1000003)
    assert v._image(width) == poly._pack(v._c, width) and v._img is None


@pytest.mark.parametrize("p", IMAGE_PRIMES)
def test_products_whose_slots_just_fit_or_just_miss_the_image_width(p):
    # the shorter operand's length sets the slot width; the largest length
    # that fits the image width keeps an image, one more does not; all
    # entries p - 1 put the largest sums in the slots
    desc, rng = prime_field(p), random.Random(p)
    width = poly._image_bytes(p)
    fit = max(t for t in range(1, 1024) if poly._slot_bytes(p, t) <= width)
    assert 7 <= fit and poly._slot_bytes(p, fit + 1) > width
    for short in (fit, fit + 1):
        long = max(short, poly._KS_CUTOFF // short + 1)
        for draw in (lambda: p - 1, lambda: rng.randrange(p)):
            a = [draw() for _ in range(short - 1)] + [p - 1]
            b = [draw() for _ in range(long - 1)] + [rng.randrange(1, p)]
            want = Poly._raw(desc, [v % p for v in poly._convolve(a, b)])
            for x in (Poly._raw(desc, a), image_only(desc, a)):
                for y in (Poly._raw(desc, b), image_only(desc, b)):
                    for got in (x * y, y * x):
                        assert (got._img is not None) == (short == fit), short
                        assert got == want
                        assert_stored_form(got)
            square = image_only(desc, a)
            got = square * square
            assert (got._img is not None) == (short == fit and short * short > poly._KS_CUTOFF)
            assert got == Poly._raw(desc, [v % p for v in poly._convolve(a, a)])


def test_image_width_holds_every_product_with_a_short_side_below_8_terms():
    # widths depend on p only through its bit length; so no product past the
    # cutoff with slots wider than the image width has fewer than 4 pairs
    # per entry packed
    for bits in range(2, 200):
        p = (1 << bits) - 1
        assert poly._slot_bytes(p, 7) <= poly._image_bytes(p) == poly._slot_bytes(p, 2)
