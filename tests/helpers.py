"""Shared builders, oracles and loaders for the test suite (seeded, stdlib random)."""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from recres import Poly, RecurrenceSpec, Scalar, rationals, resultant_sylvester, validate
from recres.cli import Lcg, _draw_instance


INSTANCES = Path(__file__).resolve().parent.parent / "bench" / "instances.py"


def load_instances():
    """The benchmark's instance module, `bench/instances.py`."""
    spec = importlib.util.spec_from_file_location("bench_instances", INSTANCES)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def rand_scalar(rng: random.Random, desc, lo=-9, hi=9, nonzero=False) -> Scalar:
    while True:
        s = Scalar(desc, rng.randint(lo, hi))
        if not (nonzero and s.is_zero()):
            return s


def rand_poly(rng: random.Random, desc, degree: int, lo=-9, hi=9) -> Poly:
    """Random polynomial of exactly the given degree."""
    coeffs = [rng.randint(lo, hi) for _ in range(degree)]
    coeffs.append(rand_scalar(rng, desc, lo, hi, nonzero=True))
    return Poly(desc, coeffs)


def rand_fraction_poly(rng: random.Random, degree: int, den_max=12) -> Poly:
    """Random polynomial over Q of exactly the given degree whose
    coefficients are fractions with denominators up to den_max."""
    coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, den_max)) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, den_max)))
    return Poly(rationals(), coeffs)


def rand_nonzero_poly(rng: random.Random, desc, max_degree: int, lo=-9, hi=9) -> Poly:
    return rand_poly(rng, desc, rng.randint(0, max_degree), lo, hi)


def rand_instance(
    rng: random.Random,
    desc,
    *,
    d_max=2,
    m_max=2,
    k_max=3,
    i_max=3,
    n_max_extra=3,
    bound=5,
    max_tries=500,
) -> tuple[RecurrenceSpec, int]:
    """A random instance that passes validation, plus its last step index.

    Each try runs the fuzzer's drawer on a fresh seed taken from rng.
    """
    bounds = {
        "d_max": d_max,
        "m_max": m_max,
        "k_max": k_max,
        "i_max": i_max,
        "coeff_bound": bound,
        "n_max": f"d+{n_max_extra}",
    }
    for _ in range(max_tries):
        spec, n_max = _draw_instance(Lcg(rng.getrandbits(64)), desc, bounds, 0)
        if validate(spec, n_max).ok:
            return spec, n_max
    raise RuntimeError("could not draw a valid instance")


def schur_formula(a: list[Scalar], c: list[Scalar], n: int) -> Scalar:
    """The classical product, an oracle independent of FormulaContext:

        Res(r_n, r_{n-1}) = (-1)^{n(n-1)/2} prod_{i=1}^{n-1} a_i^{2(n-i)} c_{i+1}^i

    for r_n = (a_n x + b_n) r_{n-1} - c_n r_{n-2}, r_0 = 1,
    r_1 = a_1 x + b_1, n >= 2.  ``a[i]`` and ``c[i]`` hold a_{i+1} and c_{i+1}.
    """
    value = Scalar(a[0].descriptor, 1)
    for i in range(1, n):
        value = value * a[i - 1] ** (2 * (n - i)) * c[i] ** i
    return -value if (n * (n - 1) // 2) % 2 else value


def euclid_by_divrem(f: Poly, g: Poly) -> Scalar:
    """Res(f, g) over F_p by the remainder sequence with one `Poly.divrem`
    per step, an oracle independent of the packed steps of
    `resultant_euclid`:

        Res(f, g) = (-1)^{deg f deg g} lc(g)^{deg f - deg r} Res(g, r),
        Res(f, c) = c^{deg f},

    with r the remainder of f mod g, for f and g not both zero.
    """
    desc = f.descriptor
    if f.is_zero() or g.is_zero():
        return Scalar(desc, 0)
    value, sign = Scalar(desc, 1), 0
    if f.degree() < g.degree():
        sign += f.degree() * g.degree()
        f, g = g, f
    while g.degree() > 0:
        n, m = f.degree(), g.degree()
        _, r = f.divrem(g)
        if r.is_zero():
            return Scalar(desc, 0)
        sign += n * m
        value = value * g.leading_coeff() ** (n - r.degree())
        f, g = g, r
    value = value * g.coeff_at(0) ** f.degree()
    return -value if sign % 2 else value


def step_by_terms(spec: RecurrenceSpec, window, n: int) -> Poly:
    """One recurrence step with one product by r_{n-1} per term, an oracle
    independent of the summed multiplier of `recres.step`:

        g_n r_{n-1}^m + sum_alpha (t_alpha r^alpha) r_{n-1} + v_n x^l r_{n-2}^m

    with ``window`` = (r_{n-1}, ..., r_{n-d-1}), newest first.
    """
    coeffs = spec.step_coeffs(n)
    newest = window[0]
    result = coeffs.g * newest**spec.m
    for term in coeffs.t_terms:
        if term.poly.is_zero():
            continue
        monomial = term.poly
        for r, a in zip(window, term.alpha):
            if a:
                monomial = monomial * r**a
        result = result + monomial * newest
    trailing = (window[1] ** spec.m).scale(coeffs.v).shift(spec.l)
    return result + trailing


def order_two_formula(initial0: Poly, initial1: Poly, t_tables, n: int) -> Scalar:
    """Res(r_n, r_{n-1}) by the unrolled product form in order-two notation,
    an oracle independent of `FormulaContext`.

    Takes the inputs of `recres.order_two_recurrence` -- initials r_0
    (degree i), r_1 (degree j) and per-step tables (t_{0,s}, ..., t_{m,s})
    -- and evaluates

        R_n = (-1)^{sum_{s=2}^n m^{n-s} sigma(s)}
              * prod_{s=2}^n (L_{s-1}^{gamma(s)} v_s^{deg r_{s-1}}
                               C_{s-1}^l)^{m^{n-s}} * R_1^{m^{n-1}}

    with its own degree/L/C expressions written in (i, j, k, l, m) terms,
    a_{k,s} = lc(t_{0,s}), a_{0,s} = t_{0,s}(0) and v_s x^l = t_{m,s}.  It
    shares nothing with FormulaContext except resultant_sylvester for the
    base case R_1.
    """
    if n < 2:
        raise ValueError("the formula starts at n = 2")
    desc = initial0.descriptor
    i, j = initial0.degree(), initial1.degree()
    m = len(t_tables[0]) - 1
    k = t_tables[0][0].degree()
    l = t_tables[0][m].degree()

    def deg(s: int) -> int:
        if s == 0:
            return i
        if s == 1:
            return j
        # k (1 + m + ... + m^{s-2}) + j m^{s-1}
        return k * sum(m**e for e in range(s - 1)) + j * m ** (s - 1)

    def gamma(s: int) -> int:
        if s == 2:
            return k - l + m * (j - i)
        return m ** (s - 2) * (k + j * (m - 1)) + k - l

    def a_lead(s: int) -> Scalar:
        return t_tables[s - 2][0].coeff_at(k)

    def a_const(s: int) -> Scalar:
        return t_tables[s - 2][0].coeff_at(0)

    def v_of(s: int) -> Scalar:
        return t_tables[s - 2][m].coeff_at(l)

    q_j = initial1.leading_coeff()
    p_i = initial0.leading_coeff()
    q_0 = initial1.coeff_at(0)

    def leading(s: int) -> Scalar:
        if s <= 1:
            return q_j
        if i == j and k == l:
            value = (a_lead(2) * q_j**m + v_of(2) * p_i**m) ** (m ** (s - 2))
            for sigma in range(3, s + 1):
                value = value * a_lead(sigma) ** (m ** (s - sigma))
        else:
            value = q_j ** (m ** (s - 1))
            for sigma in range(2, s + 1):
                value = value * a_lead(sigma) ** (m ** (s - sigma))
        return value

    def constant(s: int) -> Scalar:
        if l == 0:
            return Scalar(desc, 1)
        value = q_0 ** (m ** (s - 1))
        for sigma in range(2, s + 1):
            value = value * a_const(sigma) ** (m ** (s - sigma))
        return value

    base = resultant_sylvester(initial1, initial0)
    sign_exp = 0
    value = base ** (m ** (n - 1))
    for s in range(2, n + 1):
        weight = m ** (n - s)
        sign_exp += weight * (deg(s) * deg(s - 1) + l * deg(s - 1))
        factor = leading(s - 1) ** gamma(s) * v_of(s) ** deg(s - 1) * constant(s - 1) ** l
        value = value * factor**weight
    if sign_exp % 2:
        value = -value
    return value
