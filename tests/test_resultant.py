import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recres import (
    BothZeroError,
    FormulaContext,
    Poly,
    Scalar,
    determinant,
    generate,
    prime_field,
    rationals,
    resultant_euclid,
    resultant_sylvester,
    sylvester_matrix,
    validate,
)
from recres.cli import spec_from_json
from recres.field import is_prime
from recres.poly import _negate_mod_p, _reduce_mod_p
from helpers import euclid_by_divrem, load_instances, rand_fraction_poly, rand_nonzero_poly, rand_poly, rand_scalar

Q = rationals()
FP = prime_field(10007)


def P(*coeffs):
    return Poly(Q, coeffs)


# -- Sylvester matrix shape ---------------------------------------------------


def test_sylvester_two_quadratics_shape():
    # f = 2x^2 + 3x + 5, g = 7x^2 + 11x + 13: two shifted copies of each row
    f, g = P(5, 3, 2), P(13, 11, 7)
    assert sylvester_matrix(f, g) == [
        [2, 3, 5, 0],
        [0, 2, 3, 5],
        [7, 11, 13, 0],
        [0, 7, 11, 13],
    ]


def test_sylvester_quadratic_linear():
    # one copy of f's coefficients on top, two shifted copies of g's below
    rows = sylvester_matrix(P(-1, 0, 1), Poly.x(Q))
    assert rows == [
        [1, 0, -1],
        [1, 0, 0],
        [0, 1, 0],
    ]
    assert determinant(Q, rows) == Scalar(Q, -1)


def test_sylvester_two_linears():
    assert sylvester_matrix(P(1, 1), P(-1, 1)) == [[1, 1], [1, -1]]


def test_sylvester_constant_against_nonconstant():
    # a constant f contributes a scalar diagonal block
    assert sylvester_matrix(P(5), P(-1, 0, 1)) == [[5, 0], [0, 5]]
    # two constants: the empty matrix
    assert sylvester_matrix(P(3), P(7)) == []


# -- determinants -------------------------------------------------------------


def cofactor_det(rows):
    """Independent oracle: cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total if total is not None else Scalar(rows[0][0].descriptor, 0)


def test_determinant_identity():
    assert determinant(Q, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == Scalar(Q, 1)
    assert determinant(Q, []) == Scalar(Q, 1)
    assert determinant(FP, []) == Scalar(FP, 1)


def test_determinant_2x2():
    assert determinant(Q, [[1, 1], [1, -1]]) == Scalar(Q, -2)


def test_resultant_of_known_roots():
    # roots +-1 and +-2: prod (alpha_i - beta_j) = (1-2)(1+2)(-1-2)(-1+2) = 9
    f, g = P(-1, 0, 1), P(-4, 0, 1)
    expected = Fraction(1)
    for alpha in (1, -1):
        for beta in (2, -2):
            expected *= alpha - beta
    assert expected == 9
    assert determinant(Q, sylvester_matrix(f, g)) == Scalar(Q, 9)
    assert resultant_sylvester(f, g) == Scalar(Q, 9)


def test_determinant_against_cofactor_oracle():
    rng = random.Random(11)
    for desc in (Q, FP):
        for size in (1, 2, 3, 4, 5):
            for _ in range(8):
                scalars = [[rand_scalar(rng, desc, -6, 6) for _ in range(size)] for _ in range(size)]
                rows = [[s.value for s in row] for row in scalars]
                assert determinant(desc, rows) == cofactor_det(scalars)


def test_determinant_needs_row_swap():
    # zero leading pivot forces the swap path in both eliminations
    rows = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
    assert determinant(Q, rows) == Scalar(Q, -3)
    assert determinant(FP, rows) == Scalar(FP, -3)
    # the caller's rows survive the swaps
    assert rows == [[0, 1, 2], [3, 4, 5], [6, 7, 9]]


def test_determinant_of_rational_matrix_with_denominators():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert determinant(Q, rows) == Scalar(Q, Fraction(1, 14) - Fraction(1, 15))


def test_determinant_singular():
    assert determinant(Q, [[1, 2], [2, 4]]).is_zero()
    rng = random.Random(3)
    row = [rand_scalar(rng, FP).value for _ in range(3)]
    dup = [row, [s + s for s in row], [rand_scalar(rng, FP).value for _ in range(3)]]
    assert determinant(FP, dup).is_zero()


def worst_case_accumulation(p, size):
    """L U mod p with every multiplier -1 and every reduced pivot row
    [1, 1, ..., 1]: in each column every lower slot gains p - 1 times a
    negated pivot slot, 2p - 1, or p - 1 where its Barrett quotient comes
    out one short."""
    lower = [[1 if i == j else (p - 1 if i > j else 0) for j in range(size)] for i in range(size)]
    upper = [[1 if i <= j else 0 for j in range(size)] for i in range(size)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*upper)] for row in lower]


def oracle_matrices(rng, p):
    """Square matrices of dimension 0..60 with their labels: Sylvester
    matrices of random polynomials, five that stress slot accumulation, and
    dense ones with unreduced and negative payloads, singular or not."""
    desc = prime_field(p)
    for size in (0, 1, 2, 3, 4, 7, 12, 20, 33, 60):
        yield f"all-p-1-{size}", [[p - 1] * size for _ in range(size)]
        yield f"worst-case-{size}", worst_case_accumulation(p, size)
        # p - 1 under the diagonal of the last row only: every pivot row is a
        # unit row, so each negated pivot slot is 2p at every column and the
        # last row gains 2p (p - 1) per column, the most a slot can gain;
        # multiples of p above the diagonal pack as 0
        last_row = [[1 if i == j else p - 1 if i == size - 1 else 0 for j in range(size)] for i in range(size)]
        yield f"unit-lower-last-row-{size}", last_row
        multiples = [[x + rng.randint(-3, 3) * p if j > i else x for j, x in enumerate(row)] for i, row in enumerate(last_row)]
        yield f"unit-lower-last-row-multiples-of-p-{size}", multiples
        # p - 1 everywhere under the diagonal: 2p at column 0, then pivot rows
        # whose slots are nonzero multiples of p
        yield f"unit-lower-{size}", [[1 if i == j else p - 1 if i > j else 0 for j in range(size)] for i in range(size)]
        if size >= 1:
            deg_f = rng.randint(0, size)
            f, g = rand_poly(rng, desc, deg_f), rand_poly(rng, desc, size - deg_f)
            yield f"sylvester-{deg_f}-{size - deg_f}", sylvester_matrix(f, g)
        if size > 33:
            continue  # the Bareiss oracle of a dense 60 x 60 matrix mod 2^61 - 1 takes ~0.8 s
        dense = [[rng.randint(-3 * p, 3 * p) for _ in range(size)] for _ in range(size)]
        yield f"dense-{size}", dense
        if size >= 2:
            i, j = rng.sample(range(size), 2)
            duplicated = [list(row) for row in dense]
            duplicated[j] = list(dense[i])
            yield f"duplicated-row-{size}", duplicated
            # a multiple of row i mod p, but not over Z
            scale = rng.randint(-p, p)
            scaled = [list(row) for row in dense]
            scaled[j] = [scale * x - 2 * p for x in dense[i]]
            yield f"scaled-row-{size}", scaled


@pytest.mark.parametrize("p", [2, 3, 10007, 1000003, 2**61 - 1, 2**89 - 1])
def test_prime_determinant_against_bareiss_oracle(p):
    # the Q Bareiss route shares no code with the packed F_p elimination
    desc = prime_field(p)
    rng = random.Random(p)
    for label, rows in oracle_matrices(rng, p):
        before = [list(row) for row in rows]
        expected = determinant(Q, rows).value
        assert expected.denominator == 1
        assert determinant(desc, rows) == Scalar(desc, expected.numerator), label
        assert rows == before, label


def draw_slots(p, data):
    # any slot width with 2p < 2^w and slots anywhere in [0, 2^w), exact
    # multiples of p among them: for odd p their Barrett quotient comes out
    # one short
    w = data.draw(st.integers(p.bit_length() + 1, 2 * p.bit_length() + 16))
    slot = st.one_of(st.integers(0, 2**w - 1), st.integers(0, (2**w - 1) // p).map(lambda k: k * p))
    slots = data.draw(st.lists(slot, min_size=1, max_size=70))
    y = sum(x << (w * k) for k, x in enumerate(slots))
    even = sum(((1 << w) - 1) << (w * k) for k in range(0, len(slots), 2))
    return w, slots, y, even


@pytest.mark.parametrize("p", [2, 3, 10007, 2**61 - 1, 2**89 - 1])
@settings(derandomize=True, max_examples=50)
@given(data=st.data())
def test_negate_mod_p_lands_every_slot_in_zero_to_2p(p, data):
    w, slots, y, even = draw_slots(p, data)
    ones = sum(1 << (w * k) for k in range(len(slots)))
    out = _negate_mod_p(y, p, w, even, ones)
    assert out >> (w * len(slots)) == 0
    for k, x in enumerate(slots):
        neg = (out >> (w * k)) & ((1 << w) - 1)
        assert 0 < neg <= 2 * p and (neg + x) % p == 0, (k, x, neg)


@pytest.mark.parametrize("p", [2, 3, 10007, 2**61 - 1, 2**89 - 1])
@settings(derandomize=True, max_examples=50)
@given(data=st.data())
def test_reduce_mod_p_lands_every_slot_in_zero_to_p(p, data):
    # ones may reach past the top slot of y, as in the packed Euclid steps
    w, slots, y, even = draw_slots(p, data)
    ones = sum(1 << (w * k) for k in range(len(slots) + data.draw(st.integers(0, 3))))
    out = _reduce_mod_p(y, p, w, even, ones)
    assert out >> (w * len(slots)) == 0
    for k, x in enumerate(slots):
        assert (out >> (w * k)) & ((1 << w) - 1) == x % p, (k, x)


@pytest.mark.parametrize("p", [10007, 1000003])
def test_resultant_over_q_reduces_to_resultant_over_fp(p):
    # for integer f, g and p dividing neither leading coefficient,
    # Res_Q(f, g) mod p = Res_Fp(f mod p, g mod p); n = 7 is dimension 190.
    # The benchmark's M2 instances have integer coefficients, |lc| and |v_n| in 2..5.
    n_max = 7
    instances = load_instances()
    inst = instances.Instance("metamorphic-m2", None, instances.M2, n_max)
    spec = spec_from_json(instances.instance_doc(inst, p))
    assert validate(spec, n_max).ok
    seq = generate(spec, n_max)
    fp = prime_field(p)
    for n in range(2, n_max + 1):
        f, g = seq[n], seq[n - 1]
        assert f.leading_coeff().value % p and g.leading_coeff().value % p
        over_q = resultant_euclid(f, g).value
        assert over_q.denominator == 1
        reduced = [Poly(fp, [c.value.numerator for c in h.coeffs]) for h in (f, g)]
        assert reduced[0].degree() + reduced[1].degree() == 3 * 2 ** (n - 1) - 2
        assert resultant_sylvester(*reduced) == Scalar(fp, over_q.numerator)


@functools.cache
def crt_primes() -> tuple[int, ...]:
    """The 600 largest primes below 2^64 (a modulus of about 38 kbit), where
    `is_prime` is deterministic."""
    primes, candidate = [], 2**64 - 1
    while len(primes) < 600:
        if is_prime(candidate):
            primes.append(candidate)
        candidate -= 2
    return tuple(primes)


def crt_determinant(rows: list[list[int]]) -> int:
    """det of an integer matrix from packed F_p determinants, by CRT.

    The modulus exceeds twice the row-Hadamard bound prod ||row||_2, so the
    symmetric residue is the determinant.  Shares no code with Bareiss.
    """
    bound = math.prod(math.isqrt(sum(x * x for x in row)) + 1 for row in rows)
    primes = iter(crt_primes())
    value, modulus = 0, 1
    while modulus <= 2 * bound:
        p = next(primes)
        residue = determinant(prime_field(p), rows).value
        value += modulus * ((residue - value) * pow(modulus, -1, p) % p)
        modulus *= p
    return value - modulus if 2 * value > modulus else value


def big(rng, bits=1000):
    """A signed integer of about `bits` bits, never zero."""
    return rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1)


def banded(rng, size, width, bits=1000):
    return [[big(rng, bits) if abs(i - j) <= width else 0 for j in range(size)] for i in range(size)]


def lazy_path_matrices(rng):
    """Integer matrices whose elimination skips rows: banded and
    Sylvester-shaped ones with ~1 kbit entries, a staircase whose rows sit
    out many columns before they become the pivot, and singular ones."""
    yield "banded-20", banded(rng, 20, 3)
    yield "banded-wide-16", banded(rng, 16, 9)
    for deg_f, deg_g in ((12, 10), (17, 3)):
        f, g = (Poly(Q, [big(rng) for _ in range(deg + 1)]) for deg in (deg_f, deg_g))
        yield f"sylvester-{deg_f}-{deg_g}", [[x.numerator for x in row] for row in sylvester_matrix(f, g)]
    # each staircase row is zero left of its start column and leads there
    # with a small entry, which makes it the pivot when that column comes;
    # three columns start no row and take their pivot from three dense rows
    size = 24
    staircase = [
        [0] * c + [rng.choice((-1, 1)) * rng.randint(1, 7)] + [big(rng) for _ in range(size - 1 - c)]
        for c in sorted(rng.sample(range(size), size - 3))
    ]
    staircase += [[big(rng) for _ in range(size)] for _ in range(3)]
    rng.shuffle(staircase)
    yield "staircase-24", staircase
    duplicated = banded(rng, 20, 3)
    duplicated[9] = list(duplicated[8])
    yield "duplicated-band-row-20", duplicated
    zero_column = banded(rng, 20, 3)
    for row in zero_column:
        row[17] = 0
    yield "zero-column-17-of-20", zero_column
    # column 18 is a combination of columns 15 and 16: it turns zero only
    # once the first 18 columns are eliminated
    late = banded(rng, 20, 3)
    a, b = big(rng, 40), big(rng, 40)
    for row in late:
        row[18] = a * row[15] + b * row[16]
    yield "dependent-column-18-of-20", late


def test_rational_determinant_against_crt_oracle():
    rng = random.Random(41)
    for label, rows in lazy_path_matrices(rng):
        before = [list(row) for row in rows]
        value = determinant(Q, rows).value
        assert value == crt_determinant(rows), label
        assert value.denominator == 1
        assert (value == 0) == label.startswith(("duplicated", "zero-column", "dependent")), label
        assert rows == before, label


def permutation_sign(perm: list[int]) -> int:
    """(-1)^(number of even-length cycles)."""
    sign, seen = 1, set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def test_rational_determinant_metamorphic_on_sylvester_matrices():
    # det A = det A^T, and det(PA) = sgn(P) det A: the transpose and the row
    # permutations give the elimination other zero patterns, pivots and swaps
    n_max = 5
    instances = load_instances()
    inst = instances.Instance("metamorphic-m2", None, instances.M2, n_max)
    spec = spec_from_json(instances.instance_doc(inst, 3))
    assert validate(spec, n_max).ok
    seq = generate(spec, n_max)
    rng = random.Random(42)
    for n in range(2, n_max + 1):
        rows = sylvester_matrix(seq[n], seq[n - 1])
        det = determinant(Q, rows)
        assert not det.is_zero()
        assert determinant(Q, [list(col) for col in zip(*rows)]) == det, n
        for _ in range(3):
            perm = list(range(len(rows)))
            rng.shuffle(perm)
            permuted = [rows[i] for i in perm]
            assert determinant(Q, permuted) == det * Scalar(Q, permutation_sign(perm)), n


# -- resultants ---------------------------------------------------------------


def test_resultant_examples():
    assert resultant_sylvester(P(-1, 0, 1), Poly.x(Q)) == Scalar(Q, -1)
    # nonzero constant: Res(f, c) = c^deg(f)
    assert resultant_sylvester(P(0, 2, 0, 1), P(5)) == Scalar(Q, 125)
    assert resultant_sylvester(P(-1, 0, 1), P(-4, 0, 1)) == Scalar(Q, 9)


def test_resultant_euclid_examples():
    assert resultant_euclid(P(-1, 0, 1), Poly.x(Q)) == Scalar(Q, -1)
    assert resultant_euclid(P(-1, 1), P(-1, 0, 1)).is_zero()  # shared root 1
    assert resultant_euclid(P(7), P(3)) == Scalar(Q, 1)
    assert resultant_sylvester(P(7), P(3)) == Scalar(Q, 1)


def test_resultant_with_zero_argument():
    z = Poly.zero(Q)
    assert resultant_sylvester(P(1, 2), z).is_zero()
    assert resultant_sylvester(z, P(1, 2)).is_zero()
    assert resultant_euclid(P(1, 2), z).is_zero()
    assert resultant_euclid(z, P(5)).is_zero()
    with pytest.raises(BothZeroError):
        resultant_sylvester(z, z)
    with pytest.raises(BothZeroError):
        resultant_euclid(z, z)


@pytest.mark.parametrize("p", [None, 2, 3, 10007, 1000003, 2**61 - 1, 2**89 - 1])
def test_resultant_sylvester_is_the_determinant_of_sylvester_matrix(p):
    # resultant_sylvester builds its rows from the stored vectors (shifted
    # packed rows over F_p, numerators over Q); sylvester_matrix and
    # determinant build theirs entry by entry
    rng = random.Random(p or 0)
    desc = Q if p is None else prime_field(p)

    def draw(degree):
        return rand_fraction_poly(rng, degree) if p is None else rand_poly(rng, desc, degree, 0, p - 1)

    degrees = [(0, 0), (0, 5), (5, 0), (1, 1), (2, 7), (7, 2), (3, 3), (12, 30), (30, 12)]
    for deg_f, deg_g in degrees + [(rng.randint(0, 25), rng.randint(0, 25)) for _ in range(10)]:
        f, g = draw(deg_f), draw(deg_g)
        expected = determinant(desc, sylvester_matrix(f, g))
        assert resultant_sylvester(f, g) == expected, (deg_f, deg_g)
    h = draw(3)  # a shared factor gives 0
    assert resultant_sylvester(h * draw(4), h * draw(2)).is_zero()


def test_euclid_agrees_with_sylvester():
    rng = random.Random(23)
    for desc, max_deg, samples in ((FP, 40, 40), (Q, 10, 30)):
        for _ in range(samples):
            f = rand_nonzero_poly(rng, desc, max_deg, -9, 9)
            g = rand_nonzero_poly(rng, desc, max_deg, -9, 9)
            assert resultant_euclid(f, g) == resultant_sylvester(f, g)


def test_euclid_agrees_with_sylvester_on_non_integral_rationals():
    rng = random.Random(24)
    for _ in range(30):
        f = rand_fraction_poly(rng, rng.randint(0, 8))
        g = rand_fraction_poly(rng, rng.randint(0, 8))
        assert resultant_euclid(f, g) == resultant_sylvester(f, g)
    # Sylvester dimension up to 40, where Bareiss skips rows for many columns
    for degrees in ((20, 20), (30, 10), (13, 27), (39, 1)):
        f, g = (rand_fraction_poly(rng, degree) for degree in degrees)
        assert resultant_euclid(f, g) == resultant_sylvester(f, g), degrees
    # a shared factor h: the remainder chain reaches 0
    h = P(Fraction(-2, 3), Fraction(5, 7), Fraction(1, 4))
    f, g = h * P(Fraction(1, 2), Fraction(-3, 5)), h * P(Fraction(7, 9), 0, Fraction(2, 11))
    assert resultant_euclid(f, g).is_zero()
    assert resultant_sylvester(f, g).is_zero()
    # the chain ends in a constant: g = (x + 3/5) / 3, so
    # Res(f, g) = lc(g)^2 * f(-3/5) = (1/9) * (9/25 + 1/2) = 43/450
    f, g = P(Fraction(1, 2), 0, 1), P(Fraction(1, 5), Fraction(1, 3))
    assert resultant_euclid(f, g) == resultant_sylvester(f, g) == Scalar(Q, Fraction(43, 450))


def content_chain(f, g):
    """(C_j, D_j, m_j) for each step of the Q remainder sequence on the
    integer numerators of f and g, deg f >= deg g: C_j / D_j is the content
    of the j-th remainder and m_j the degree of its divisor; None if a
    remainder is 0."""
    f, g = Poly(Q, f._c), Poly(Q, g._c)
    chain = []
    while g.degree() > 0:
        r = f.divrem(g)[1]
        if r.is_zero():
            return None
        c, r = r.primitive()
        chain.append((c.value.numerator, c.value.denominator, g.degree()))
        f, g = g, r
    return chain


def neighbour_gcds(chain):
    """(gcd(D_j, C_{j+1}), m_j - m_{j+1}) for each neighbouring pair."""
    return [(math.gcd(left[1], right[0]), left[2] - right[2]) for left, right in zip(chain, chain[1:])]


def test_euclid_product_tree_over_q():
    # The Q route keeps each step factor as integer bases, divides each
    # gcd(D_j, C_{j+1}) out of its neighbouring contents, multiplies the
    # numerator and the denominator in one balanced product tree each and
    # divides them once.  A pair of degrees (n, n - 1) whose remainders each
    # drop one degree gives n - 1 contents and n numerator powers, so
    # n = 1..9 runs the telescoping on chains of 0..8 contents and the trees
    # on lists of length 1, 2, odd and even.
    rng = random.Random(25)
    for n in range(1, 10):
        for f, g in (
            (rand_poly(rng, Q, n), rand_poly(rng, Q, n - 1)),
            (rand_fraction_poly(rng, n), rand_fraction_poly(rng, n - 1)),
        ):
            a, b = f, g
            while b.degree() > 0:
                a, b = b, a.divrem(b)[1]
                assert b.degree() == a.degree() - 1
            assert resultant_euclid(f, g) == resultant_sylvester(f, g) == euclid_by_divrem(f, g), n
            assert resultant_euclid(g, f) == resultant_sylvester(g, f) == euclid_by_divrem(g, f), n


def test_q_euclid_against_divrem_oracle():
    rng = random.Random(26)

    def even(poly):
        # poly(x^2): every remainder drops two degrees, so each telescoped
        # gcd carries exponent m_j - m_{j+1} = 2
        return Poly(Q, [v for c in poly.coeffs for v in (c.value, 0)][:-1])

    def negated_lead(poly):
        return Poly(Q, [c.value for c in poly.coeffs[:-1]] + [-abs(poly.leading_coeff().value)])

    pairs = []
    for _ in range(12):
        deg_f, deg_g = rng.randint(1, 7), rng.randint(1, 7)
        pairs.append((rand_poly(rng, Q, deg_f), rand_poly(rng, Q, deg_g)))  # deg f < deg g too
        pairs.append((rand_fraction_poly(rng, deg_f), rand_fraction_poly(rng, deg_g)))
        pairs.append((negated_lead(rand_fraction_poly(rng, deg_f)), negated_lead(rand_poly(rng, Q, deg_g))))
        pairs.append((even(rand_poly(rng, Q, 3)), even(rand_fraction_poly(rng, 2))))
    for _ in range(6):  # constant g
        c = rand_fraction_poly(rng, 0)
        pairs += [(rand_fraction_poly(rng, rng.randint(1, 6)), c), (c, rand_poly(rng, Q, rng.randint(1, 6)))]
    # no neighbour gcd exceeds 1, though contents have denominators
    pairs.append((P(-2, 2, -3, 1, -1, -1), P(-1, -1, 1, -3, -1)))
    pairs.append((P(3, -1, 1, 3, -1, -2), P(-1, 1, -1, 3, -2)))
    telescoped = untelescoped = 0
    for f, g in pairs:
        assert resultant_euclid(f, g) == euclid_by_divrem(f, g) == resultant_sylvester(f, g), (f, g)
        chain = content_chain(*((f, g) if f.degree() >= g.degree() else (g, f)))
        if chain:
            gcds = neighbour_gcds(chain)
            telescoped += any(t > 1 and k >= 2 for t, k in gcds)
            untelescoped += len(chain) >= 3 and all(t == 1 for t, _ in gcds) and any(d > 1 for _, d, _ in chain)
    assert telescoped >= 5 and untelescoped >= 2
    # a common factor: a remainder is 0, negative leading coefficients included
    h = P(Fraction(-2, 3), Fraction(5, 7), Fraction(-1, 4))
    for f, g in ((h * P(3, -2), h * P(1, 0, -5)), (h * h * P(-1, 2), h * P(Fraction(1, 3), 0, 0, -7)), (h * P(1, 1), h)):
        assert resultant_euclid(f, g) == euclid_by_divrem(f, g) == resultant_sylvester(f, g) == Scalar(Q, 0)


def test_q_euclid_on_m2_pairs_against_divrem_oracle():
    # the benchmark's M2 shape, deg r_n = 2^n - 1, whose Q step contents
    # mostly telescope; Sylvester follows to n = 5 (dimension 46)
    instances = load_instances()
    inst = instances.Instance("euclid-q-m2", None, instances.M2, 7)
    spec = spec_from_json(instances.instance_doc(inst, 3))
    seq = generate(spec, 7)
    for n in range(2, 8):
        value = resultant_euclid(seq[n], seq[n - 1])
        assert value == euclid_by_divrem(seq[n], seq[n - 1]), n
        if n <= 5:
            assert value == resultant_sylvester(seq[n], seq[n - 1]), n
    assert any(t > 1 for t, _ in neighbour_gcds(content_chain(seq[7], seq[6])))


@pytest.mark.parametrize("p", [2, 3, 5, 10007, 1000003, 2**61 - 1])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_euclid_against_divrem_oracle(p, data):
    # resultant_euclid packs the steps whose quotient has degree 1; the
    # oracle divides by Poly.divrem at every step.  Over F_(2^61 - 1) the
    # slots are wider than 8 bytes.
    desc = prime_field(p)

    def poly(degree):
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
        return Poly(desc, coeffs + [data.draw(st.integers(1, p - 1))])

    m = data.draw(st.integers(2, 24))
    f, g, c = poly(m + 1), poly(m), poly(0)
    # a linear quotient whose remainder drops by more than one degree
    dropping = poly(1) * g + poly(data.draw(st.integers(0, m - 2)))
    assert dropping.divrem(g)[1].degree() < m - 1
    for a, b in ((f, g), (g, f), (dropping, g), (g, dropping), (f, c), (c, f), (c, c)):
        assert resultant_euclid(a, b) == euclid_by_divrem(a, b), (a, b)
    # common factors: a zero remainder in a packed step, or later
    zero = Scalar(desc, 0)
    h = poly(data.draw(st.integers(1, 3)))
    for a, b in ((poly(1) * g, g), (f * h, g * h), (g * h, f * h)):
        assert resultant_euclid(a, b) == euclid_by_divrem(a, b) == zero, (a, b)


@pytest.mark.parametrize("n", [7, 8])
def test_euclid_agrees_with_closed_form_past_exact_sylvester(n):
    # Sylvester dimensions 190 and 382 over Q, out of the exact determinant's
    # reach: the closed form and Euclid are the two routes there
    instances = load_instances()
    inst = instances.Instance("euclid-vs-formula-m2", None, instances.M2, n)
    spec = spec_from_json(instances.instance_doc(inst, 11))
    assert validate(spec, n).ok
    seq = generate(spec, n)
    assert seq[n].degree() + seq[n - 1].degree() == 3 * 2 ** (n - 1) - 2
    assert resultant_euclid(seq[n], seq[n - 1]) == FormulaContext(spec).resultant_formula(n)


def test_euclid_against_sympy_on_non_integral_rationals():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(poly):
        return sum(sympy.Rational(c.value.numerator, c.value.denominator) * x**i for i, c in enumerate(poly.coeffs))

    # sympy 1.14's `resultant` omits the sign (-1)^(deg f * deg g) when
    # deg f < deg g (it gives Res(x, x^3 + 1) = -1, where its own Sylvester
    # determinant is 1), so the pairs are drawn with deg f >= deg g.
    rng = random.Random(25)
    for _ in range(20):
        degrees = sorted((rng.randint(1, 7), rng.randint(1, 7)), reverse=True)
        f, g = (rand_fraction_poly(rng, degree) for degree in degrees)
        expected = sympy.Rational(sympy.resultant(to_sympy(f), to_sympy(g), x))
        assert resultant_euclid(f, g) == Scalar(Q, Fraction(int(expected.p), int(expected.q)))


def test_symmetry():
    rng = random.Random(5)
    for desc in (FP, Q):
        for _ in range(25):
            f = rand_nonzero_poly(rng, desc, 8)
            g = rand_nonzero_poly(rng, desc, 8)
            lhs = resultant_euclid(f, g)
            rhs = resultant_euclid(g, f)
            if (f.degree() * g.degree()) % 2:
                rhs = -rhs
            assert lhs == rhs


def test_multiplicativity():
    rng = random.Random(6)
    for desc in (FP, Q):
        for _ in range(25):
            f = rand_nonzero_poly(rng, desc, 6)
            g = rand_nonzero_poly(rng, desc, 6)
            h = rand_nonzero_poly(rng, desc, 6)
            assert resultant_euclid(f, g * h) == resultant_euclid(f, g) * resultant_euclid(f, h)


def test_constant_rule():
    rng = random.Random(8)
    for desc in (FP, Q):
        for _ in range(25):
            f = rand_nonzero_poly(rng, desc, 8)
            c = rand_scalar(rng, desc, -9, 9, nonzero=True)
            assert resultant_euclid(f, Poly(desc, [c])) == c ** f.degree()
            assert resultant_sylvester(f, Poly(desc, [c])) == c ** f.degree()


def test_evaluation_at_constructed_roots():
    # g = lc * prod (x - beta_j)  =>  Res(f, g) = (-1)^(deg f * deg g) * lc^deg f * prod f(beta_j)
    rng = random.Random(9)
    for desc in (FP, Q):
        for _ in range(20):
            f = rand_nonzero_poly(rng, desc, 6)
            lc = rand_scalar(rng, desc, -9, 9, nonzero=True)
            betas = [rand_scalar(rng, desc, -9, 9) for _ in range(rng.randint(1, 5))]
            g = Poly(desc, [lc])
            for beta in betas:
                g = g * Poly(desc, [-beta, Scalar(desc, 1)])
            expected = lc ** f.degree()
            for beta in betas:
                expected = expected * f.evaluate(beta)
            if (f.degree() * g.degree()) % 2:
                expected = -expected
            assert resultant_euclid(f, g) == expected


def test_common_factor_means_zero():
    rng = random.Random(10)
    for desc in (FP, Q):
        for _ in range(20):
            f = rand_nonzero_poly(rng, desc, 5)
            g = rand_nonzero_poly(rng, desc, 5)
            h = rand_poly_nonconstant(rng, desc)
            assert resultant_euclid(f * h, g * h).is_zero()
            assert resultant_sylvester(f * h, g * h).is_zero()


def rand_poly_nonconstant(rng, desc):
    return rand_poly(rng, desc, rng.randint(1, 4))


def test_division_step_identity():
    # deg f >= deg g >= 1 and r = f mod g != 0:
    # Res(g, f) = lc(g)^(deg f - deg r) * Res(g, r)
    rng = random.Random(12)
    for desc in (FP, Q):
        checked = 0
        while checked < 20:
            f = rand_nonzero_poly(rng, desc, 9)
            g = rand_nonzero_poly(rng, desc, 9)
            if f.degree() < g.degree():
                f, g = g, f
            if g.degree() < 1:
                continue
            _, r = f.divrem(g)
            if r.is_zero():
                continue
            lhs = resultant_euclid(g, f)
            rhs = g.leading_coeff() ** (f.degree() - r.degree()) * resultant_euclid(g, r)
            assert lhs == rhs
            checked += 1

