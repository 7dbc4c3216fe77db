import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recres import (
    DescriptorMismatch,
    DivisionByZero,
    InvalidModulus,
    Scalar,
    is_prime,
    prime_field,
    rationals,
)
from recres.field import _DECIMAL_CUTOFF, _LONG_TEXT, _TEXT_BLOCK, _int_text, _parse_texts
from helpers import parse_scalar

Q = rationals()
F7 = prime_field(7)


def test_fraction_addition():
    assert Scalar(Q, Fraction(1, 2)) + Scalar(Q, Fraction(1, 3)) == Scalar(Q, Fraction(5, 6))


def test_mod7_arithmetic_exhaustive():
    # oracle: plain integer arithmetic reduced mod 7, all pairs
    for a in range(7):
        for b in range(7):
            assert (Scalar(F7, a) * Scalar(F7, b)).value == a * b % 7
            assert (Scalar(F7, a) + Scalar(F7, b)).value == (a + b) % 7
            assert (Scalar(F7, a) - Scalar(F7, b)).value == (a - b) % 7
    assert (Scalar(F7, 3) * Scalar(F7, 5)).value == 1


def test_zero_has_no_inverse():
    with pytest.raises(DivisionByZero):
        Scalar(Q, 0).inv()
    with pytest.raises(DivisionByZero):
        Scalar(F7, 0).inv()
    with pytest.raises(DivisionByZero):
        Scalar(Q, 1) / Scalar(Q, 0)


@pytest.mark.parametrize("bad", [None, 0, 1, 4, -7, 10006, 10008, 2**64 - 1])
def test_invalid_moduli_rejected(bad):
    with pytest.raises(InvalidModulus):
        prime_field(bad)


@pytest.mark.parametrize("good", [2, 3, 7, 97, 10007, 2**61 - 1])
def test_prime_moduli_accepted(good):
    assert prime_field(good).modulus == good


def test_is_prime_small_table():
    primes_below_100 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97}
    for n in range(100):
        assert is_prime(n) == (n in primes_below_100)


def test_descriptor_mismatch_is_an_error():
    with pytest.raises(DescriptorMismatch):
        Scalar(Q, 1) + Scalar(F7, 1)
    with pytest.raises(DescriptorMismatch):
        Scalar(prime_field(5), 1) * Scalar(F7, 1)


def test_canonicalization_idempotent():
    a = Scalar(F7, 40)
    assert Scalar(F7, a.value) == a and a.value == 5
    b = Scalar(Q, Fraction(6, -4))
    assert Scalar(Q, b.value) == b
    assert b.value.denominator == 2 and b.value.numerator == -3
    # signed integers map to their canonical image
    assert Scalar(Q, -3).value == Fraction(-3, 1)
    assert Scalar(F7, 10).value == 3
    assert Scalar(F7, -1).value == 6


@pytest.mark.parametrize(
    "desc,text,canonical",
    [
        (Q, "5/6", "5/6"),
        (Q, "-3", "-3"),
        (Q, "6/4", "3/2"),
        (F7, "3", "3"),
        (F7, "-1", "6"),
        (F7, "10", "3"),
    ],
)
def test_text_encoding_roundtrip(desc, text, canonical):
    s = parse_scalar(desc, text)
    assert s.to_text() == canonical
    assert parse_scalar(desc, s.to_text()) == s


def test_text_encoding_rejects_junk():
    with pytest.raises(ValueError):
        parse_scalar(Q, "1/0")
    with pytest.raises(ValueError):
        parse_scalar(F7, "2/3")
    with pytest.raises(ValueError):
        parse_scalar(Q, "spam")
    with pytest.raises(ValueError):
        parse_scalar(Q, "1.5")
    # refused by its form, before the 10^999999999 it names is built
    with pytest.raises(ValueError):
        parse_scalar(Q, "1e999999999")
    # F_p text is ASCII decimal too: int() alone would read both of these as 10 and 3
    with pytest.raises(ValueError):
        parse_scalar(F7, "1_0")
    with pytest.raises(ValueError):
        parse_scalar(F7, "\u0663")


def test_pow_conventions():
    assert Scalar(Q, 0) ** 0 == Scalar(Q, 1)
    assert Scalar(F7, 0) ** 0 == Scalar(F7, 1)
    assert Scalar(Q, 0) ** 5 == Scalar(Q, 0)
    assert Scalar(F7, 3) ** -1 == Scalar(F7, 3).inv()
    assert Scalar(Q, Fraction(2, 3)) ** -2 == Scalar(Q, Fraction(9, 4))


# -- field axioms, property based -------------------------------------------

rational_scalars = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4).map(lambda f: Scalar(Q, f))
prime_scalars = st.integers(0, 10006).map(lambda v: Scalar(prime_field(10007), v))


@settings(derandomize=True, max_examples=60)
@given(st.one_of(st.tuples(rational_scalars, rational_scalars, rational_scalars), st.tuples(prime_scalars, prime_scalars, prime_scalars)))
def test_field_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    zero_el = Scalar(a.descriptor, 0)
    one_el = Scalar(a.descriptor, 1)
    assert a + zero_el == a
    assert a * one_el == a
    assert a + (-a) == zero_el
    if not a.is_zero():
        assert a * a.inv() == one_el


@pytest.mark.parametrize("desc", [Q, prime_field(2), F7, prime_field(2**61 - 1)], ids=str)
def test_scalar_results_equal_their_canonical_construction(desc):
    # the arithmetic builds its results through `Scalar._of`; each must be
    # the Scalar that canonicalizes the plain result, with the same payload
    # type, 0^0 and negative exponents included
    if desc.is_prime_field:
        p = desc.modulus
        payloads = sorted({0, 1, 2 % p, p - 1, 3 * p // 7, p // 2})
    else:
        payloads = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-22, 9), Fraction(10**20, 3)]
    values = [Scalar(desc, v) for v in payloads]
    for a in values:
        x = a.value
        cases = [(-a, -x)]
        if x:
            inverse = pow(x, -1, desc.modulus) if desc.is_prime_field else 1 / x
            cases.append((a.inv(), inverse))
        for e in range(-3, 6):
            if e >= 0:
                cases.append((a**e, 1 if e == 0 else x**e))  # 0^0 = 1
            elif x:
                cases.append((a**e, inverse ** (-e)))
        for b in values:
            y = b.value
            cases += [(a + b, x + y), (a - b, x - y), (a * b, x * y)]
            if y:
                cases.append((a / b, x * (pow(y, -1, desc.modulus) if desc.is_prime_field else 1 / y)))
        for result, raw in cases:
            canonical = Scalar(desc, raw)
            assert result == canonical, (a, raw)
            assert type(result.value) is type(canonical.value), (a, raw)
            assert hash(result) == hash(canonical)


# -- bulk and long texts ---------------------------------------------------------


@pytest.mark.parametrize("p", [2, 10007, 2**61 - 1])
def test_long_texts_reduce_as_int_does(p):
    # texts past _LONG_TEXT characters are reduced block by block
    desc = prime_field(p)
    rng = random.Random(p)
    lengths = (_LONG_TEXT - 2, _LONG_TEXT - 1, _LONG_TEXT, _LONG_TEXT + 1, 4 * _TEXT_BLOCK, 4 * _TEXT_BLOCK + 1, 4300)
    for length in lengths:
        for sign, pad in (("", ""), ("+", " "), ("-", "\t ")):
            digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(length - 1))
            text = pad + sign + digits + pad
            assert _parse_texts(desc, [text, "0" * length]) == [int(text) % p, 0]
            assert parse_scalar(desc, text).value == int(text) % p


def test_long_texts_past_the_digit_cap_when_it_is_lifted(lifted_digit_cap):
    text = "-" + "9876543210" * 3000
    for p in (3, 1000003, 2**61 - 1):
        assert _parse_texts(prime_field(p), [text]) == [int(text) % p]


def odd_bits(rng, bits):
    """A random int of exactly the given bit length."""
    return rng.getrandbits(bits - 1) | 1 << (bits - 1)


def test_int_text_is_str_around_the_cutoff(lifted_digit_cap):
    rng = random.Random(41)
    for bits in (_DECIMAL_CUTOFF - 1, _DECIMAL_CUTOFF, _DECIMAL_CUTOFF + 1, 2 * _DECIMAL_CUTOFF + 3):
        for _ in range(3):
            n = odd_bits(rng, bits)
            assert _int_text(n) == str(n) and _int_text(-n) == str(-n), bits
    # 2^k and 2^k - 1 split into a zero or all-ones half at every level
    for n in (1 << 3 * _DECIMAL_CUTOFF, (1 << 3 * _DECIMAL_CUTOFF) - 1, 10 ** 20000, 10 ** 20000 - 1):
        assert _int_text(n) == str(n)


def test_int_text_of_a_megabit_int(lifted_digit_cap):
    # str() of a 1 Mbit int takes 1.5 s on Python 3.11, so the expected
    # text comes first and the int is built from its 1000-digit blocks
    rng = random.Random(42)
    blocks = [f"{rng.randrange(10**999, 10**1000)}"] + [f"{rng.randrange(10**1000):01000d}" for _ in range(301)]
    blocks[150] = "0" * 1000  # a run of zeros inside a lower half

    def value(blocks):
        if len(blocks) == 1:
            return int(blocks[0])
        half = len(blocks) // 2
        return value(blocks[:half]) * 10 ** (1000 * (len(blocks) - half)) + value(blocks[half:])

    n, text = value(blocks), "".join(blocks)
    assert n.bit_length() > 1_000_000
    assert _int_text(n) == text and _int_text(-n) == "-" + text


def test_q_to_text_of_a_fraction_past_the_cutoff(lifted_digit_cap):
    rng = random.Random(43)
    num, den = odd_bits(rng, _DECIMAL_CUTOFF + 5000), odd_bits(rng, _DECIMAL_CUTOFF + 900)
    value = Fraction(-num, den)
    assert Scalar(Q, value).to_text() == f"{value.numerator}/{value.denominator}" == str(value)
    assert Scalar(Q, num).to_text() == str(num)


@pytest.mark.parametrize("bits", [20_000, _DECIMAL_CUTOFF + 1])
def test_q_to_text_past_the_digit_cap_raises_as_str_does(default_digit_cap, bits):
    # past 4300 digits (14 284 bits) str() refuses while the cap holds, below
    # the cutoff and above it alike
    n = odd_bits(random.Random(bits), bits)
    with pytest.raises(ValueError) as expected:
        str(n)
    for value in (Fraction(n), Fraction(1, n), Fraction(-n, 3)):
        with pytest.raises(ValueError) as raised:
            Scalar(Q, value).to_text()
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize(
    "text",
    ["1" * 500 + " " + "1" * 500, "+-" + "1" * 900, "1" * 900 + "_1", "1" * 600 + "٣" * 300, "-" * 900, "1" * 900 + "/2"],
)
def test_long_texts_refuse_what_int_refuses(text):
    with pytest.raises(ValueError, match="cannot parse"):
        _parse_texts(F7, [text])


def test_bulk_texts_match_one_at_a_time():
    # one check over all texts gives what each text gives alone, and a
    # refusal names the first bad text
    good = ["0", " 12", "-3 ", "+4", " 5 ", "\x1c6", "007"]
    bad = ["", "1_0", "٣", "1.5", "1,2", "+-1", "1 2", "1/2", "x"]
    rng = random.Random(9)
    for desc in (F7, Q):
        assert _parse_texts(desc, good) == [v for t in good for v in _parse_texts(desc, [t])]
        for _ in range(60):
            texts = rng.sample(good, 4) + rng.sample(bad, 2)
            rng.shuffle(texts)
            first_bad = next(t for t in texts if t in bad and not (desc is Q and t == "1/2"))
            with pytest.raises(ValueError) as error:
                _parse_texts(desc, texts)
            assert str(error.value) == f"cannot parse {first_bad.strip()!r} as an element of {desc}"
    assert _parse_texts(Q, ["1/2", " -6/4 ", "3"]) == [Fraction(1, 2), Fraction(-3, 2), 3]
    for text in ("1 / 2", "1/ 2", "1/+2", "1/0", "1/2_0"):
        with pytest.raises(ValueError):
            _parse_texts(Q, ["1", text])
