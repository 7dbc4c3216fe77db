import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from recres import (
    DegreeMismatchError,
    MissingStepError,
    Poly,
    RecurrenceSpec,
    Scalar,
    StepCoeffs,
    TTerm,
    WindowSizeError,
    generate,
    linear_recurrence,
    order_two_recurrence,
    prime_field,
    rationals,
    schur_recurrence,
    step,
    validate,
)
from helpers import rand_fraction_poly, step_by_terms

Q = rationals()
FP = prime_field(10007)


def ones(desc, count):
    return [Scalar(desc, 1)] * count


def simple_schur(desc=Q, count=10):
    # r_n = x r_{n-1} - r_{n-2}, r_0 = 1, r_1 = x
    return schur_recurrence(ones(desc, count), [Scalar(desc, 0)] * count, ones(desc, count))


def cubic_m2(desc=Q, n_max=6):
    # d=1, m=2: r_n = x r_{n-1}^2 + r_{n-2}^2 from (1, x); r_2 = x^3 + 1
    steps = {n: StepCoeffs(g=Poly.x(desc), v=Scalar(desc, 1)) for n in range(2, n_max + 1)}
    return RecurrenceSpec(
        descriptor=desc, d=1, m=2, k=1, l=0,
        degrees=(0, 1), initials=(Poly.one(desc), Poly.x(desc)), steps=steps,
    )


# -- step ---------------------------------------------------------------------


def test_step_examples():
    spec = simple_schur()
    assert step(spec, [Poly.x(Q), Poly.one(Q)], 2) == Poly(Q, [-1, 0, 1])
    assert step(spec, [Poly(Q, [-1, 0, 1]), Poly.x(Q)], 3) == Poly(Q, [0, -2, 0, 1])
    assert step(cubic_m2(), [Poly.x(Q), Poly.one(Q)], 2) == Poly(Q, [1, 0, 0, 1])


def test_step_includes_extra_newest_factor_on_t_terms():
    # with one t-term t*x (alpha summing below m), the middle contribution is
    # t_poly * r^alpha * r_{n-1}, not t_poly * r^alpha alone
    desc = Q
    t = Poly(desc, [0, 1])
    spec = RecurrenceSpec(
        descriptor=desc, d=1, m=2, k=2, l=0,
        degrees=(0, 1), initials=(Poly.one(desc), Poly.x(desc)),
        steps={2: StepCoeffs(g=Poly(desc, [0, 0, 1]), v=Scalar(desc, 1), t_terms=(TTerm((1, 0), t),))},
    )
    window = [Poly.x(desc), Poly.one(desc)]
    # g r1^2 + t * (r1^1 r0^0) * r1 + v r0^2 = x^2*x^2 + x*x*x + 1
    assert step(spec, window, 2) == Poly(desc, [1, 0, 0, 1, 1])


STEP_FIELDS = [prime_field(p) for p in (2, 3, 5, 10007, 1000003, 2**61 - 1)] + [Q]


@pytest.mark.parametrize("l", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("desc", STEP_FIELDS, ids=str)
def test_step_matches_step_by_terms(desc, m, l):
    # `step` sums the multipliers of r_{n-1} before its one product; the
    # oracle multiplies each term by r_{n-1} on its own.  Windows are drawn
    # freely (step checks no hypothesis), long enough for Kronecker
    # products over F_p and with non-integral rationals over Q.
    rng = random.Random(f"{desc}:{m}:{l}")

    def draw(degree):
        if degree < 0:
            return Poly.zero(desc)
        if desc.is_prime_field:
            p = desc.modulus
            return Poly(desc, [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)])
        return rand_fraction_poly(rng, degree)

    for d in (1, 2):
        alphas = [a for a in itertools.product(range(m), repeat=d + 1) if sum(a) < m]
        for trial in range(4):
            k = rng.randint(1, 4)
            window = [draw(rng.choice([0, 1, 3, 20, 70])) for _ in range(d + 1)]
            chosen = rng.sample(alphas, rng.randint(0, len(alphas)))
            # t(0) = 0, deg t < k, and now and then a zero t polynomial
            t_terms = tuple(TTerm(a, draw(-1) if rng.random() < 0.2 else draw(rng.randint(0, k - 1)).shift(1)) for a in chosen)
            v = Scalar(desc, rng.randint(1, 9)) if desc.is_prime_field else Scalar(desc, Fraction(rng.randint(1, 9), rng.randint(2, 9)))
            steps = {d + 1: StepCoeffs(g=draw(k), v=v, t_terms=t_terms)}
            spec = RecurrenceSpec(
                descriptor=desc, d=d, m=m, k=k, l=l, degrees=tuple(range(d + 1)),
                initials=tuple(window[::-1]), steps=steps,
            )
            assert step(spec, window, d + 1) == step_by_terms(spec, window, d + 1), (d, trial)
            if trial == 0:  # with no t-terms at all
                bare = dataclasses.replace(spec, steps={d + 1: StepCoeffs(g=steps[d + 1].g, v=v)})
                assert step(bare, window, d + 1) == step_by_terms(bare, window, d + 1)


def test_step_window_size_checked():
    spec = simple_schur()
    with pytest.raises(WindowSizeError):
        step(spec, [Poly.x(Q)], 2)


def test_step_missing_step():
    spec = simple_schur(count=3)
    with pytest.raises(MissingStepError):
        step(spec, [Poly.x(Q), Poly.one(Q)], 99)


# -- generate -------------------------------------------------------------------


def test_generate_schur_prefix():
    seq = generate(simple_schur(), 3)
    assert seq == [Poly.one(Q), Poly.x(Q), Poly(Q, [-1, 0, 1]), Poly(Q, [0, -2, 0, 1])]


def test_generate_m2_instance():
    assert generate(cubic_m2(), 2)[2] == Poly(Q, [1, 0, 0, 1])


def test_generate_n_equals_d_returns_initials():
    spec = simple_schur()
    assert generate(spec, 1) == [Poly.one(Q), Poly.x(Q)]
    with pytest.raises(ValueError):
        generate(spec, 0)


def test_degree_guard_catches_broken_instances():
    # k = 0 and m = 1: the trailing term ties the top degree at every step and
    # can cancel it; at n = 3 it does, and the degree guard must fire
    spec = RecurrenceSpec(
        descriptor=Q, d=1, m=1, k=0, l=0,
        degrees=(1, 1), initials=(Poly.x(Q), Poly(Q, [0, 2])),
        steps={
            2: StepCoeffs(g=Poly.one(Q), v=Scalar(Q, 1)),
            3: StepCoeffs(g=Poly(Q, [2]), v=Scalar(Q, -3)),
        },
    )
    report = validate(spec, 3)
    assert not report.ok
    assert any(v.code == "DegenerateDominance" for v in report.violations)
    with pytest.raises(DegreeMismatchError) as exc:
        generate(spec, 3)
    assert exc.value.n == 3


# -- validate -------------------------------------------------------------------


def test_validate_good_instance():
    assert validate(simple_schur(), 10).ok
    assert validate(cubic_m2(), 6).ok


def test_validate_v_zero_downgradeable():
    spec = cubic_m2()
    steps = dict(spec.steps)
    steps[3] = StepCoeffs(g=steps[3].g, v=Scalar(Q, 0))
    spec = RecurrenceSpec(
        descriptor=Q, d=1, m=2, k=1, l=0, degrees=spec.degrees,
        initials=spec.initials, steps=steps,
    )
    report = validate(spec, 4)
    assert not report.ok and any(v.code == "VZero" and v.n == 3 for v in report.violations)
    relaxed = validate(spec, 4, allow_zero_v=True)
    assert relaxed.ok and any(w.code == "VZero" for w in relaxed.warnings)


def test_validate_edge_case_zero():
    # i_0 = i_1 and k = l = 0 with a_{0,2} q + v_2 p = 0
    desc = Q
    spec = RecurrenceSpec(
        descriptor=desc, d=1, m=1, k=0, l=0,
        degrees=(1, 1), initials=(Poly.x(desc), Poly.x(desc)),
        steps={2: StepCoeffs(g=Poly.one(desc), v=Scalar(desc, -1))},
    )
    report = validate(spec, 2)
    codes = {v.code for v in report.violations}
    assert "EdgeCaseZero" in codes or "DegenerateDominance" in codes
    # the same shape with k = 1 isolates the edge condition itself
    spec2 = RecurrenceSpec(
        descriptor=desc, d=1, m=1, k=1, l=1,
        degrees=(1, 1), initials=(Poly.x(desc), Poly.x(desc)),
        steps={2: StepCoeffs(g=Poly(desc, [0, 1]), v=Scalar(desc, -1))},
    )
    report2 = validate(spec2, 2)
    assert [v.code for v in report2.violations] == ["EdgeCaseZero"]


def test_validate_membership():
    spec = RecurrenceSpec(
        descriptor=Q, d=1, m=1, k=1, l=0,
        degrees=(2, 1), initials=(Poly(Q, [0, 0, 1]), Poly.x(Q)),
        steps={2: StepCoeffs(g=Poly.x(Q), v=Scalar(Q, 1))},
    )
    assert any(v.code == "Membership" for v in validate(spec, 2).violations)
    spec_kl = RecurrenceSpec(
        descriptor=Q, d=1, m=1, k=0, l=1,
        degrees=(0, 1), initials=(Poly.one(Q), Poly.x(Q)),
        steps={2: StepCoeffs(g=Poly.one(Q), v=Scalar(Q, 1))},
    )
    assert any(v.code == "Membership" for v in validate(spec_kl, 2).violations)


def test_validate_initial_degrees():
    spec = RecurrenceSpec(
        descriptor=Q, d=1, m=1, k=1, l=0,
        degrees=(0, 2), initials=(Poly.one(Q), Poly.x(Q)),
        steps={2: StepCoeffs(g=Poly.x(Q), v=Scalar(Q, 1))},
    )
    assert any(v.code == "InitialDegree" for v in validate(spec, 2).violations)


def test_validate_g_degree():
    spec = cubic_m2()
    steps = dict(spec.steps)
    steps[2] = StepCoeffs(g=Poly.one(Q), v=Scalar(Q, 1))  # degree 0, k = 1
    spec = RecurrenceSpec(
        descriptor=Q, d=1, m=2, k=1, l=0, degrees=spec.degrees,
        initials=spec.initials, steps=steps,
    )
    assert any(v.code == "GDegree" and v.n == 2 for v in validate(spec, 2).violations)


def test_validate_t_terms():
    desc = Q
    base = dict(
        descriptor=desc, d=1, m=2, k=2, l=0,
        degrees=(0, 1), initials=(Poly.one(desc), Poly.x(desc)),
    )
    g = Poly(desc, [0, 0, 1])

    def with_t(*t_terms):
        return RecurrenceSpec(steps={2: StepCoeffs(g=g, v=Scalar(desc, 1), t_terms=t_terms)}, **base)

    bad_const = with_t(TTerm((1, 0), Poly(desc, [1, 1])))
    assert any(v.code == "TConstant" for v in validate(bad_const, 2).violations)
    bad_deg = with_t(TTerm((1, 0), Poly(desc, [0, 0, 5])))
    assert any(v.code == "TDegree" for v in validate(bad_deg, 2).violations)
    bad_alpha = with_t(TTerm((1, 1), Poly(desc, [0, 1])))
    assert any(v.code == "AlphaSum" for v in validate(bad_alpha, 2).violations)
    bad_len = with_t(TTerm((1, 0, 0), Poly(desc, [0, 1])))
    assert any(v.code == "AlphaLength" for v in validate(bad_len, 2).violations)
    dup = with_t(TTerm((1, 0), Poly(desc, [0, 1])), TTerm((1, 0), Poly(desc, [0, 2])))
    assert any(v.code == "AlphaDuplicate" for v in validate(dup, 2).violations)


def test_validate_k_zero_forbids_t_terms():
    desc = Q
    spec = RecurrenceSpec(
        descriptor=desc, d=1, m=3, k=0, l=0,
        degrees=(1, 1), initials=(Poly.x(desc), Poly(desc, [1, 1])),
        steps={2: StepCoeffs(g=Poly.one(desc), v=Scalar(desc, 1), t_terms=(TTerm((0, 0), Poly.zero(desc)),))},
    )
    assert any(v.code == "TForbidden" for v in validate(spec, 2).violations)


def test_validate_missing_step_is_an_error():
    with pytest.raises(MissingStepError):
        validate(simple_schur(count=3), 10)


# -- presets --------------------------------------------------------------------


def test_schur_preset_matches_independent_evaluation():
    rng = random.Random(42)
    for desc in (Q, FP):
        a = [Scalar(desc, rng.randint(1, 9)) for _ in range(6)]
        b = [Scalar(desc, rng.randint(-9, 9)) for _ in range(6)]
        c = [Scalar(desc, rng.randint(1, 9)) for _ in range(6)]
        spec = schur_recurrence(a, b, c)
        seq = generate(spec, 5)
        # independent: iterate r_n = (a_n x + b_n) r_{n-1} - c_n r_{n-2} directly
        r_prev, r_cur = Poly.one(desc), Poly(desc, [b[0], a[0]])
        for n in range(2, 6):
            r_next = Poly(desc, [b[n - 1], a[n - 1]]) * r_cur - Poly(desc, [c[n - 1]]) * r_prev
            r_prev, r_cur = r_cur, r_next
            assert seq[n] == r_cur


def violation_codes(spec, **options):
    """The validate codes over every step table of a preset's instance."""
    return {v.code for v in validate(spec, max(spec.steps), **options).violations}


def test_schur_preset_rejects_zero_coefficients():
    # the preset maps the shape; validate reports a_1 = 0 and c_n = 0
    a_1_zero = schur_recurrence([Scalar(Q, 0), Scalar(Q, 1)], [Scalar(Q, 0)] * 2, ones(Q, 2))
    assert violation_codes(a_1_zero) == {"Membership", "LeadingProductZero"}
    c_2_zero = schur_recurrence(ones(Q, 3), [Scalar(Q, 0)] * 3, [Scalar(Q, 1), Scalar(Q, 0), Scalar(Q, 1)])
    assert violation_codes(c_2_zero) == {"VZero"}
    # a zero c_n stays a v_n = 0 with its x-power, so allow_zero_v can downgrade it
    report = validate(c_2_zero, 3, allow_zero_v=True)
    assert report.ok and [w.code for w in report.warnings] == ["VZero"]
    with pytest.raises(ValueError):
        schur_recurrence(ones(Q, 2), ones(Q, 2), ones(Q, 3))  # unequal lengths
    with pytest.raises(ValueError):
        schur_recurrence(ones(Q, 1), ones(Q, 1), ones(Q, 1))  # no step n = 2


def test_linear_preset_equals_schur_mapping():
    n_steps = 6
    schur = simple_schur(count=n_steps + 1)
    linear = linear_recurrence(
        Poly.one(Q),
        Poly.x(Q),
        [Poly.x(Q)] * n_steps,
        ones(Q, n_steps),
        l=0,
    )
    assert linear.d == schur.d and linear.m == schur.m
    assert linear.k == schur.k and linear.l == schur.l
    assert linear.degrees == schur.degrees and linear.initials == schur.initials
    for n in range(2, n_steps + 2):
        assert linear.steps[n] == schur.steps[n]


def test_linear_preset_trailing_power():
    # r_n = f_n r_{n-1} - v_n x^2 r_{n-2} with deg f = 3
    rng = random.Random(1)
    f = [Poly(Q, [rng.randint(-3, 3), 1, 0, 2]) for _ in range(4)]
    spec = linear_recurrence(Poly.one(Q), Poly(Q, [1, 1]), f, ones(Q, 4), l=2)
    assert (spec.d, spec.m, spec.k, spec.l) == (1, 1, 3, 2)
    seq = generate(spec, 4)
    r_prev, r_cur = spec.initials
    for n in range(2, 5):
        r_next = f[n - 2] * r_cur - Poly(Q, [0, 0, 1]) * r_prev
        r_prev, r_cur = r_cur, r_next
        assert seq[n] == r_cur


def test_linear_preset_param_checks():
    i_above_j = linear_recurrence(Poly(Q, [0, 0, 1]), Poly.x(Q), [Poly.x(Q)], ones(Q, 1), l=0)
    assert violation_codes(i_above_j) == {"Membership"}
    l_above_k = linear_recurrence(Poly.one(Q), Poly.x(Q), [Poly.x(Q)], ones(Q, 1), l=2)
    assert violation_codes(l_above_k) == {"Membership"}
    mixed_degrees = linear_recurrence(Poly.one(Q), Poly.x(Q), [Poly.x(Q), Poly(Q, [1, 1, 1])], ones(Q, 2), l=0)
    assert [(v.code, v.n) for v in validate(mixed_degrees, 3).violations] == [("GDegree", 3)]
    zero_v = linear_recurrence(Poly.one(Q), Poly.x(Q), [Poly.x(Q)], [Scalar(Q, 0)], l=1)
    assert zero_v.l == 1 and violation_codes(zero_v) == {"VZero"}
    assert violation_codes(zero_v, allow_zero_v=True) == set()
    with pytest.raises(ValueError):
        linear_recurrence(Poly.one(Q), Poly.x(Q), [Poly.x(Q)], ones(Q, 2), l=0)  # unequal lengths
    with pytest.raises(ValueError):
        linear_recurrence(Poly.one(Q), Poly.x(Q), [], [], l=0)  # no step table


def test_order_two_preset_m1_has_no_t_terms():
    tables = [[Poly.x(Q), Poly(Q, [-1])] for _ in range(3)]
    spec = order_two_recurrence(Poly.one(Q), Poly.x(Q), tables)
    assert spec.m == 1 and all(not s.t_terms for s in spec.steps.values())
    assert spec == RecurrenceSpec(
        descriptor=Q, d=1, m=1, k=1, l=0, degrees=(0, 1),
        initials=(Poly.one(Q), Poly.x(Q)), steps=dict(spec.steps), name="order2",
    )


def test_order_two_preset_maps_middle_terms():
    # m = 3: t_{s,n} r^{3-s} r'^s maps to alpha = (2-s, s) for s = 1, 2
    g = Poly(Q, [1, 0, 1])
    t1 = Poly(Q, [0, 1])
    t2 = Poly(Q, [0, -1])
    trailing = Poly(Q, [0, 2])  # v x^1
    spec = order_two_recurrence(Poly.one(Q), Poly(Q, [1, 1]), [[g, t1, t2, trailing]])
    assert (spec.m, spec.k, spec.l) == (3, 2, 1)
    assert spec.steps[2].v == Scalar(Q, 2)
    assert {t.alpha for t in spec.steps[2].t_terms} == {(1, 1), (0, 2)}
    # the generated value agrees with evaluating the order-two form directly
    seq = generate(spec, 2)
    r1, r0 = Poly(Q, [1, 1]), Poly.one(Q)
    direct = g * r1**3 + t1 * r1**2 * r0 + t2 * r1 * r0**2 + trailing * r0**3
    assert seq[2] == direct


def test_order_two_preset_param_checks():
    # structural: tables that no general instance expresses
    for tables in (
        [[Poly.x(Q), Poly(Q, [1, 1])]],  # trailing not one monomial
        [[Poly.x(Q), Poly.zero(Q)]],  # zero trailing has no x-power
        [[Poly.x(Q), Poly(Q, [2])], [Poly.x(Q), Poly(Q, [0, 2])]],  # x-power differs between steps
        [[Poly.x(Q), Poly(Q, [2])], [Poly.x(Q), Poly.zero(Q), Poly(Q, [2])]],  # m differs between steps
        [[Poly.x(Q)]],  # no t_m
        [],  # no tables
    ):
        with pytest.raises(ValueError):
            order_two_recurrence(Poly.one(Q), Poly.x(Q), tables)
    # hypotheses: the preset maps the shape, validate reports
    l_above_k = order_two_recurrence(Poly.one(Q), Poly.x(Q), [[Poly.x(Q), Poly(Q, [0, 0, 3])]])
    assert violation_codes(l_above_k) == {"Membership"}
    t_0_zero = order_two_recurrence(Poly.one(Q), Poly.x(Q), [[Poly.zero(Q), Poly.x(Q)]])
    assert violation_codes(t_0_zero) == {"Membership", "LeadingProductZero"}
    middle = [Poly(Q, [0, 0, 1]), Poly(Q, [1, 1]), Poly(Q, [2])]
    assert violation_codes(order_two_recurrence(Poly.one(Q), Poly.x(Q), [middle])) == {"TConstant"}
    middle = [Poly(Q, [0, 0, 1]), Poly(Q, [0, 0, 1]), Poly(Q, [2])]
    assert violation_codes(order_two_recurrence(Poly.one(Q), Poly.x(Q), [middle])) == {"TDegree"}
    zero_initial = order_two_recurrence(Poly.zero(Q), Poly.x(Q), [[Poly.x(Q), Poly(Q, [2])]])
    assert violation_codes(zero_initial) == {"LeadingProductZero"}


def test_step_is_linear_in_v():
    # scaling v_n changes exactly the x^l r_{n-2}^m contribution
    rng = random.Random(77)
    spec = cubic_m2()
    window = [Poly(Q, [rng.randint(-5, 5) for _ in range(3)] + [1]), Poly(Q, [1, 2])]
    lam = Scalar(Q, 7)
    steps = {n: StepCoeffs(g=c.g, v=c.v * lam, t_terms=c.t_terms) for n, c in spec.steps.items()}
    scaled = RecurrenceSpec(
        descriptor=Q, d=1, m=2, k=1, l=0, degrees=spec.degrees,
        initials=spec.initials, steps=steps,
    )
    diff = step(scaled, window, 3) - step(spec, window, 3)
    v = spec.steps[3].v
    expected = (window[1] ** spec.m).scale(v * lam - v).shift(spec.l)
    assert diff == expected
