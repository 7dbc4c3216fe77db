import random

import pytest

from recres import (
    FormulaContext,
    Poly,
    RecurrenceSpec,
    Scalar,
    StepCoeffs,
    degree_formula,
    generate,
    order_two_recurrence,
    prime_field,
    rationals,
    resultant_euclid,
    resultant_sylvester,
    schur_recurrence,
    step,
    validate,
)
from helpers import (
    closed_forms_by_scalars,
    order_two_formula,
    rand_fraction_instance,
    rand_instance,
    rand_poly,
    rand_scalar,
    schur_formula,
)

Q = rationals()
FP = prime_field(10007)


def ones(desc, count):
    return [Scalar(desc, 1)] * count


def simple_schur(desc=Q, count=10):
    return schur_recurrence(ones(desc, count), [Scalar(desc, 0)] * count, ones(desc, count))


def cubic_m2(desc=Q, n_max=6):
    steps = {n: StepCoeffs(g=Poly.x(desc), v=Scalar(desc, 1)) for n in range(2, n_max + 1)}
    return RecurrenceSpec(
        descriptor=desc, d=1, m=2, k=1, l=0,
        degrees=(0, 1), initials=(Poly.one(desc), Poly.x(desc)), steps=steps,
    )


# -- degree formula -----------------------------------------------------------


def test_degree_formula_examples():
    schur = simple_schur()
    assert degree_formula(schur, 3) == 3
    assert degree_formula(cubic_m2(), 2) == 3
    assert degree_formula(schur, 1) == 1  # n = d gives i_d
    assert degree_formula(schur, 0) == 0


def test_degree_formula_matches_generated_degrees():
    rng = random.Random(100)
    for desc in (FP, Q):
        for _ in range(8):
            spec, n_max = rand_instance(rng, desc)
            for n, r in enumerate(generate(spec, n_max)):
                assert r.degree() == degree_formula(spec, n)


# -- leading and constant terms -------------------------------------------------


def test_leading_term_examples():
    ctx = FormulaContext(simple_schur())
    assert ctx.leading_term(3) == Scalar(Q, 1)
    ctx2 = FormulaContext(cubic_m2())
    assert ctx2.leading_term(2) == Scalar(Q, 1)


def test_leading_term_edge_branch():
    # i_0 = i_1 and k = l: the base case becomes a_{k,2} q^m + v_2 p^m
    desc = Q
    spec = RecurrenceSpec(
        descriptor=desc, d=1, m=1, k=0, l=0,
        degrees=(1, 1), initials=(Poly.x(desc), Poly.x(desc)),
        steps={2: StepCoeffs(g=Poly(desc, [2]), v=Scalar(desc, 3))},
    )
    ctx = FormulaContext(spec)
    assert ctx.leading_term(2) == Scalar(desc, 5)
    # cross-check against one raw step (the instance is otherwise degenerate)
    r2 = step(spec, [Poly.x(desc), Poly.x(desc)], 2)
    assert r2 == Poly(desc, [0, 5])
    assert ctx.leading_term(1) == Scalar(desc, 1)


def test_leading_term_matches_generated(subtests=None):
    rng = random.Random(102)
    for desc in (FP, Q):
        for _ in range(8):
            spec, n_max = rand_instance(rng, desc)
            seq = generate(spec, n_max)
            ctx = FormulaContext(spec)
            for n in range(spec.d, n_max + 1):
                assert ctx.leading_term(n) == seq[n].leading_coeff(), (spec.d, spec.m, spec.k, spec.l, n)


def shifted_l1_instance(n_max=5):
    # d=1, m=1, k=1, l=1: r_n = (x+3) r_{n-1} + x r_{n-2}, from (1, x^2+2)
    desc = Q
    steps = {n: StepCoeffs(g=Poly(desc, [3, 1]), v=Scalar(desc, 1)) for n in range(2, n_max + 1)}
    return RecurrenceSpec(
        descriptor=desc, d=1, m=1, k=1, l=1,
        degrees=(0, 2), initials=(Poly.one(desc), Poly(desc, [2, 0, 1])), steps=steps,
    )


def test_constant_term_positive_l():
    spec = shifted_l1_instance()
    ctx = FormulaContext(spec)
    # a_{0,3} a_{0,2} r_1(0) = 3 * 3 * 2: for l > 0 the v-term vanishes at 0
    assert ctx.constant_value(3) == Scalar(Q, 18)
    seq = generate(spec, 3)
    assert seq[3].evaluate(Scalar(Q, 0)) == Scalar(Q, 18)


def test_constant_value_recurrence():
    # a_{0,2} C_1 + v_2 C_0 = 0*0 + (-1)*1 = -1, matching (x^2 - 1)(0)
    ctx = FormulaContext(simple_schur())
    assert ctx.constant_value(2) == Scalar(Q, -1)
    assert ctx.constant_value(0) == Scalar(Q, 1)
    assert ctx.constant_value(1) == Scalar(Q, 0)


def test_constant_value_matches_generated():
    rng = random.Random(103)
    for desc in (FP, Q):
        for _ in range(8):
            spec, n_max = rand_instance(rng, desc)
            seq = generate(spec, n_max)
            ctx = FormulaContext(spec)
            origin = Scalar(desc, 0)
            for n in range(n_max + 1):
                assert ctx.constant_value(n) == seq[n].evaluate(origin)


# -- the resultant formula -------------------------------------------------------


def test_resultant_formula_examples():
    schur = simple_schur()
    ctx = FormulaContext(schur)
    seq = generate(schur, 3)
    assert ctx.resultant_formula(2) == resultant_sylvester(seq[2], seq[1]) == Scalar(Q, -1)
    assert ctx.resultant_formula(3) == resultant_sylvester(seq[3], seq[2]) == Scalar(Q, -1)
    m2 = cubic_m2()
    ctx2 = FormulaContext(m2)
    seq2 = generate(m2, 2)
    assert ctx2.resultant_formula(2) == resultant_sylvester(seq2[2], seq2[1]) == Scalar(Q, -1)


def test_resultant_formula_sign_with_odd_l_and_degree():
    # l = 1, deg r_1 = 1: dropping the (-1)^(l * deg) factor would give +1 here
    desc = Q
    spec = RecurrenceSpec(
        descriptor=desc, d=1, m=1, k=1, l=1,
        degrees=(0, 1), initials=(Poly.one(desc), Poly(desc, [1, 1])),
        steps={2: StepCoeffs(g=Poly.x(desc), v=Scalar(desc, 1))},
    )
    seq = generate(spec, 2)
    assert seq[2] == Poly(desc, [0, 2, 1])
    direct = resultant_sylvester(seq[2], seq[1])
    assert direct == Scalar(desc, -1)
    assert FormulaContext(spec).resultant_formula(2) == direct


def test_resultant_formula_positive_l_instance():
    spec = shifted_l1_instance()
    ctx = FormulaContext(spec)
    seq = generate(spec, 5)
    for n in range(2, 6):
        direct = resultant_sylvester(seq[n], seq[n - 1])
        assert ctx.resultant_formula(n) == direct


def test_resultant_formula_validates():
    # neither FormulaContext nor generate validates; on the zero-v open case
    # (which validate accepts only with allow_zero_v) formula and truth are both 0
    bad = RecurrenceSpec(
        descriptor=Q, d=1, m=1, k=1, l=0,
        degrees=(0, 1), initials=(Poly.one(Q), Poly.x(Q)),
        steps={2: StepCoeffs(g=Poly.x(Q), v=Scalar(Q, 0))},
    )
    seq = generate(bad, 2)
    assert FormulaContext(bad).resultant_formula(2).is_zero()
    assert resultant_sylvester(seq[2], seq[1]).is_zero()


def test_resultant_formula_shared_initial_root_gives_zero():
    # initial polynomials with a common root: every R_n must be 0 on both routes
    desc = Q
    r0 = Poly(desc, [-1, 1])            # x - 1
    r1 = Poly(desc, [-1, 0, 1])         # (x - 1)(x + 1)
    steps = {n: StepCoeffs(g=Poly(desc, [1, 1]), v=Scalar(desc, 2)) for n in (2, 3)}
    spec = RecurrenceSpec(
        descriptor=desc, d=1, m=2, k=1, l=1,
        degrees=(1, 2), initials=(r0, r1), steps=steps,
    )
    ctx = FormulaContext(spec)
    seq = generate(spec, 3)
    assert resultant_sylvester(r1, r0).is_zero()
    for n in (2, 3):
        assert ctx.resultant_formula(n).is_zero()
        assert resultant_sylvester(seq[n], seq[n - 1]).is_zero()


def test_main_identity_random_instances():
    rng = random.Random(104)
    for desc, rounds in ((FP, 20), (Q, 10)):
        for _ in range(rounds):
            spec, n_max = rand_instance(rng, desc)
            seq = generate(spec, n_max)
            ctx = FormulaContext(spec)
            for n in range(spec.d + 1, n_max + 1):
                closed = ctx.resultant_formula(n)
                assert closed == resultant_sylvester(seq[n], seq[n - 1])
                assert closed == resultant_euclid(seq[n], seq[n - 1])


def test_recursive_step_identity():
    # R_n = (-1)^sigma(n) L_{n-1}^gamma(n) v_n^{deg r_{n-1}} C_{n-1}^l R_{n-1}^m, with
    # gamma(n) = deg r_n - deg(v_n x^l r_{n-2}^m) and
    # sigma(n) = deg r_n deg r_{n-1} + l deg r_{n-1}, both from the generated degrees
    rng = random.Random(105)
    for desc in (FP, Q):
        for _ in range(6):
            spec, n_max = rand_instance(rng, desc)
            seq = generate(spec, n_max)
            ctx = FormulaContext(spec)
            deg = [r.degree() for r in seq]
            for n in range(spec.d + 1, n_max + 1):
                r_n = resultant_sylvester(seq[n], seq[n - 1])
                r_prev = resultant_sylvester(seq[n - 1], seq[n - 2])
                gamma = deg[n] - (spec.l + spec.m * deg[n - 2])
                rhs = (
                    seq[n - 1].leading_coeff() ** gamma
                    * spec.steps[n].v ** deg[n - 1]
                    * ctx.constant_value(n - 1) ** spec.l
                    * r_prev**spec.m
                )
                if (deg[n] * deg[n - 1] + spec.l * deg[n - 1]) % 2:
                    rhs = -rhs
                assert r_n == rhs


# -- tiny primes and non-integral rationals --------------------------------------


def check_every_closed_form(spec, n_max):
    """resultant_formula = Sylvester = Euclid, leading_term = lc(r_n) and
    constant_value = r_n(0) for d <= n <= n_max; the number of nonzero
    resultants checked."""
    seq = generate(spec, n_max)
    ctx = FormulaContext(spec)
    origin = Scalar(spec.descriptor, 0)
    nonzero = 0
    for n in range(spec.d, n_max + 1):
        assert ctx.leading_term(n) == seq[n].leading_coeff()
        assert ctx.constant_value(n) == seq[n].evaluate(origin)
        if n > spec.d:
            closed = ctx.resultant_formula(n)
            assert closed == resultant_sylvester(seq[n], seq[n - 1]) == resultant_euclid(seq[n], seq[n - 1])
            nonzero += not closed.is_zero()
    return nonzero


@pytest.mark.parametrize("p", [3, 5])
def test_closed_forms_over_tiny_primes(p):
    desc = prime_field(p)
    rng = random.Random(110 + p)
    nonzero = sum(check_every_closed_form(*rand_instance(rng, desc, m_max=3)) for _ in range(16))
    assert nonzero >= 8  # most resultants vanish mod 3 or 5; enough must not


def test_closed_forms_over_non_integral_rationals():
    rng = random.Random(112)
    denominators = set()
    nonzero = 0
    for _ in range(10):
        spec, n_max = rand_fraction_instance(rng)
        denominators.update(c.value.denominator for r in spec.initials for c in r.coeffs)
        nonzero += check_every_closed_form(spec, n_max)
    assert nonzero >= 15 and max(denominators) > 6


# -- the classical closed form, a test-side oracle ------------------------------


def test_schur_formula_examples():
    a = ones(Q, 8)
    c = ones(Q, 8)
    assert schur_formula(a, c, 2) == Scalar(Q, -1)
    assert schur_formula(a, c, 3) == Scalar(Q, -1)
    assert schur_formula(a, c, 4) == Scalar(Q, 1)


def test_schur_formula_agrees_with_direct_resultant():
    rng = random.Random(106)
    for desc in (Q, FP):
        for _ in range(6):
            a = [rand_scalar(rng, desc, -9, 9, nonzero=True) for _ in range(8)]
            b = [rand_scalar(rng, desc, -9, 9) for _ in range(8)]
            c = [rand_scalar(rng, desc, -9, 9, nonzero=True) for _ in range(8)]
            spec = schur_recurrence(a, b, c)
            seq = generate(spec, 8)
            ctx = FormulaContext(spec)
            for n in range(2, 9):
                value = schur_formula(a, c, n)
                assert value == resultant_sylvester(seq[n], seq[n - 1])
                assert value == ctx.resultant_formula(n)


# -- the order-two closed form, independently evaluated ----------------------------


def rand_order_two(rng, desc, max_tries=300, fixed_m=None, fixed_n_max=None):
    for _ in range(max_tries):
        m = fixed_m or rng.randint(1, 3)
        top = 3 if m <= 2 else 2
        k = rng.randint(1, top)
        l = rng.randint(0, k)
        i = rng.randint(0, 2)
        j = rng.randint(i, top)
        # depth capped by m to keep the degrees (~ j * m^(n-1)) desk sized
        n_max = fixed_n_max or {1: 6, 2: 4, 3: 4}[m]
        initial0 = rand_poly(rng, desc, i, -5, 5)
        initial1 = rand_poly(rng, desc, j, -5, 5)
        tables = []
        for _n in range(2, n_max + 1):
            row = [rand_poly(rng, desc, k, -5, 5)]
            for _s in range(1, m):
                t = Poly(desc, [0] + [rng.randint(-5, 5) for _ in range(k - 1)])
                row.append(t)
            v = rand_scalar(rng, desc, -5, 5, nonzero=True)
            row.append(Poly(desc, [0] * l + [v]))
            tables.append(row)
        try:
            spec = order_two_recurrence(initial0, initial1, tables)
        except Exception:
            continue
        from recres import validate

        if validate(spec, n_max).ok:
            return initial0, initial1, tables, spec, n_max
    raise RuntimeError("no valid order-two instance found")


def test_order_two_formula_consistency():
    rng = random.Random(107)
    for desc in (FP, Q):
        for _ in range(6):
            initial0, initial1, tables, spec, n_max = rand_order_two(rng, desc)
            seq = generate(spec, n_max)
            ctx = FormulaContext(spec)
            for n in range(2, n_max + 1):
                independent = order_two_formula(initial0, initial1, tables, n)
                assert independent == ctx.resultant_formula(n)
                assert independent == resultant_sylvester(seq[n], seq[n - 1])
    # m = 1 far beyond Sylvester's reach: the pass against the unrolled product alone
    rng = random.Random(109)
    for desc in (FP, Q):
        checked = 0
        while checked < 3:
            initial0, initial1, tables, spec, n_max = rand_order_two(rng, desc, fixed_m=1, fixed_n_max=80)
            ctx = FormulaContext(spec)
            if ctx.resultant_formula(n_max).is_zero():
                continue  # a common root (e.g. x once some a_{0,s} = 0 with l > 0): 0 = 0 checks little
            checked += 1
            for n in (*range(2, n_max, 7), n_max):
                assert order_two_formula(initial0, initial1, tables, n) == ctx.resultant_formula(n)


def test_edge_branch_identity():
    # i_0 = i_1, k = l instances exercise the alternate leading-term base
    rng = random.Random(108)
    found = 0
    while found < 6:
        spec, n_max = rand_instance(rng, FP, m_max=3)
        if not (spec.degrees[spec.d] == spec.degrees[spec.d - 1] and spec.k == spec.l):
            continue
        found += 1
        seq = generate(spec, n_max)
        ctx = FormulaContext(spec)
        for n in range(spec.d + 1, n_max + 1):
            assert ctx.resultant_formula(n) == resultant_sylvester(seq[n], seq[n - 1])


# -- the residue pass against the Scalar pass ---------------------------------


def long_instance(rng, desc, m, l, n_max):
    """A validated instance (allow_zero_v) with step tables to n_max, k >= l
    and no t-terms, which the closed forms do not read.  Draws take the
    edge branch, v_s = 0, g_s(0) = 0 and all-zero initial degrees (so that
    v_{d+1}^{deg r_d} = 0^0) often."""
    while True:
        d = rng.choice((1, 2))
        k = l + rng.randint(0, 2)
        degrees = [0] * (d + 1) if rng.random() < 0.2 else sorted(rng.randint(0, 3) for _ in range(d + 1))
        if rng.random() < 0.25:
            k, degrees[d - 1] = l, degrees[d]  # the edge branch
        initials = tuple(rand_poly(rng, desc, i) for i in degrees)
        steps = {}
        for n in range(d + 1, n_max + 1):
            g = rand_poly(rng, desc, k)
            if k and rng.random() < 0.1:
                g = g - Poly(desc, [g.coeff_at(0)])  # g(0) = 0, so C_s may vanish
            v = Scalar(desc, 0) if rng.random() < 0.05 else rand_scalar(rng, desc, nonzero=True)
            steps[n] = StepCoeffs(g=g, v=v)
        spec = RecurrenceSpec(
            descriptor=desc, d=d, m=m, k=k, l=l, degrees=tuple(degrees), initials=initials, steps=steps,
        )
        if validate(spec, n_max, allow_zero_v=True).ok:
            return spec


@pytest.mark.parametrize("p", [2, 3, 5, 10007, 1000003, 2**61 - 1])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("l", [0, 1, 2])
def test_residue_pass_matches_the_scalar_pass(p, m, l):
    # to n = 80 the degrees pass 2(p - 1) many times: at m = 2 and m = 3 for
    # every p, at m = 1 for the small ones
    desc = prime_field(p)
    rng = random.Random(p * 9 + m * 3 + l)
    n_max = 80
    for _ in range(4):
        spec = long_instance(rng, desc, m, l, n_max)
        _, lead, const, res = closed_forms_by_scalars(spec, n_max)
        ctx = FormulaContext(spec)
        for n in range(spec.d + 1, n_max + 1):
            assert ctx.resultant_formula(n) == res[n], n
            assert ctx.leading_term(n) == lead[n]
            assert ctx.constant_value(n) == const[n]


def test_residue_pass_keeps_zero_exponents_exact():
    # deg r_1 = 0 and v_2 = 0: R_2 = v_2^0 R_1 = 1 for r_1 = 1, while any
    # positive exponent, which a reduction mod 2(p - 1) could give, makes it 0;
    # then v_3 = 0 meets deg r_2 = 2 = 2(p - 1) over F_2, which must stay positive
    for p in (2, 3, 10007):
        desc = prime_field(p)
        spec = RecurrenceSpec(
            descriptor=desc, d=1, m=1, k=2, l=0, degrees=(0, 0), initials=(Poly.one(desc), Poly.one(desc)),
            steps={n: StepCoeffs(g=Poly(desc, [1, 0, 1]), v=Scalar(desc, 0 if n < 4 else 1)) for n in (2, 3, 4)},
        )
        assert validate(spec, 4, allow_zero_v=True).ok
        ctx = FormulaContext(spec)
        seq = generate(spec, 4)
        for n in (2, 3, 4):
            assert ctx.resultant_formula(n) == resultant_sylvester(seq[n], seq[n - 1]) == closed_forms_by_scalars(spec, 4)[3][n]
        assert ctx.resultant_formula(2) == Scalar(desc, 1)
        assert ctx.resultant_formula(3).is_zero()
