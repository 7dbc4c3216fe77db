"""Shared builders, oracles and loaders for the test suite (seeded, stdlib random)."""

from __future__ import annotations

import dataclasses
import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from recres import Poly, RecurrenceSpec, Scalar, StepCoeffs, TTerm, rationals, resultant_sylvester, validate
from recres.field import _parse_texts
from recres.recurrence import edge_base, edge_branch
from recres.cli import SCHEMA_VERSION, InstanceFormatError, Lcg, _decimal, _draw_instance, _expect, _is_int, field_from_json


INSTANCES = Path(__file__).resolve().parent.parent / "bench" / "instances.py"


def load_instances():
    """The benchmark's instance module, `bench/instances.py`."""
    spec = importlib.util.spec_from_file_location("bench_instances", INSTANCES)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def parse_scalar(desc, text: str) -> Scalar:
    """The scalar of one text, converted as the instance loader converts it."""
    return Scalar(desc, _parse_texts(desc, [text])[0])


def parse_poly(desc, texts) -> Poly:
    """The polynomial of coefficient texts, ascending degree, converted as the instance loader converts them."""
    return Poly._of_values(desc, _parse_texts(desc, list(texts)))


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


def divided(rng, poly, den_max):
    """poly with each coefficient divided by its own draw from 1..den_max."""
    return Poly(rationals(), [c.value / rng.randint(1, den_max) for c in poly.coeffs])


def rand_fraction_instance(rng, den_max=12):
    """A drawn integer instance over Q whose initials, g_n, t-polynomials and
    v_n are divided coefficientwise by denominators up to den_max, then
    validated again."""
    while True:
        spec, n_max = rand_instance(rng, rationals())
        steps = {
            n: StepCoeffs(
                g=divided(rng, c.g, den_max),
                v=Scalar(rationals(), c.v.value / rng.randint(1, den_max)),
                t_terms=tuple(TTerm(t.alpha, divided(rng, t.poly, den_max)) for t in c.t_terms),
            )
            for n, c in spec.steps.items()
        }
        initials = tuple(divided(rng, r, den_max) for r in spec.initials)
        spec = dataclasses.replace(spec, initials=initials, steps=steps)
        if validate(spec, n_max).ok:
            return spec, n_max


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
    """Res(f, g) by the remainder sequence with one `Poly.divrem` per step
    and the step factors folded into one running Scalar product, over either
    field: an oracle independent of the packed F_p steps and of the
    telescoped Q step factors of `resultant_euclid`:

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


def closed_forms_by_scalars(spec: RecurrenceSpec, n: int) -> tuple[list, list, list, list]:
    """deg r_s, L_s, C_s and R_s for s = 0..n (R_s from s = d), an oracle
    independent of the residue pass of `FormulaContext`: the same one-step
    updates on Scalars with exact degrees,

        L_s = a_{k,s} L_{s-1}^m (E at s = d+1 on the edge branch),
        C_s = a_{0,s} C_{s-1}^m + v_s C_{s-2}^m (v-term for l = 0 only),
        R_s = (-1)^sigma(s) L_{s-1}^{gamma(s)} v_s^{deg r_{s-1}} C_{s-1}^l R_{s-1}^m,

    with gamma(s) = deg r_s - l - m deg r_{s-2} and
    sigma(s) = deg r_s deg r_{s-1} + l deg r_{s-1}.
    """
    d, m, k, l = spec.d, spec.m, spec.k, spec.l
    deg = list(spec.degrees)
    lead = [r.leading_coeff() for r in spec.initials]
    const = [r.coeff_at(0) for r in spec.initials]
    res = [None] * d + [resultant_sylvester(spec.initials[d], spec.initials[d - 1])]
    for s in range(d + 1, n + 1):
        coeffs = spec.step_coeffs(s)
        deg.append(k + m * deg[s - 1])
        if s == d + 1 and edge_branch(spec):
            lead.append(edge_base(spec))
        else:
            lead.append(coeffs.g.coeff_at(k) * lead[s - 1] ** m)
        value = coeffs.g.coeff_at(0) * const[s - 1] ** m
        if l == 0:
            value = value + coeffs.v * const[s - 2] ** m
        const.append(value)
        gamma = deg[s] - l - m * deg[s - 2]
        value = res[s - 1] ** m * lead[s - 1] ** gamma * coeffs.v ** deg[s - 1] * const[s - 1] ** l
        if (deg[s] * deg[s - 1] + l * deg[s - 1]) % 2:
            value = -value
        res.append(value)
    return deg, lead, const, res


def spec_from_json_by_parts(doc) -> RecurrenceSpec:
    """An instance document read one polynomial at a time, with
    `parse_poly` and `parse_scalar` per text list: an oracle for the
    specs and the messages of `recres.cli.spec_from_json`, which gathers
    every text of the document and converts them at once."""
    _expect(isinstance(doc, dict), "top level must be an object")
    _expect(_is_int(doc.get("schema")) and doc["schema"] == SCHEMA_VERSION, f"schema must be {SCHEMA_VERSION}")
    desc = field_from_json(doc.get("field"))
    for key in ("d", "m", "k", "l"):
        _expect(_is_int(doc.get(key)), f"{key!r} must be an integer")
    d = doc["d"]
    _expect(d >= 1, "d must be >= 1")
    degrees = doc.get("degrees")
    _expect(
        isinstance(degrees, list) and all(_is_int(x) and x >= 0 for x in degrees),
        "'degrees' must be a list of nonnegative integers",
    )
    initials = doc.get("initials")
    _expect(isinstance(initials, list), "'initials' must be a list")
    _expect(len(initials) == len(degrees) == d + 1, f"need exactly d+1 = {d + 1} degrees and initials")

    def poly_of(coeffs, what: str) -> Poly:
        _expect(isinstance(coeffs, list) and all(isinstance(c, str) for c in coeffs), f"{what} must be a list of scalar strings")
        try:
            return parse_poly(desc, coeffs)
        except ValueError as exc:
            raise InstanceFormatError(f"{what}: {exc}") from exc

    initial_polys = tuple(poly_of(c, f"initials[{s}]") for s, c in enumerate(initials))
    steps_doc = doc.get("steps", {})
    _expect(isinstance(steps_doc, dict), "'steps' must be an object keyed by n")
    steps: dict[int, StepCoeffs] = {}
    for key, entry in steps_doc.items():
        try:
            n = _decimal(key)
        except ValueError:
            raise InstanceFormatError(f"step key {key!r} is not an integer") from None
        _expect(n not in steps, f"step {n} appears twice")
        _expect(n >= d + 1, f"step {n} precedes d+1 = {d + 1}")
        _expect(isinstance(entry, dict), f"step {n} must be an object")
        g = poly_of(entry.get("g"), f"steps[{n}].g")
        _expect(isinstance(entry.get("v"), str), f"steps[{n}].v must be a scalar string")
        try:
            v = parse_scalar(desc, entry["v"])
        except ValueError as exc:
            raise InstanceFormatError(f"steps[{n}].v: {exc}") from exc
        t_doc = entry.get("t", [])
        _expect(isinstance(t_doc, list), f"steps[{n}].t must be a list")
        t_terms = []
        for t in t_doc:
            _expect(isinstance(t, dict), f"steps[{n}].t entries must be objects")
            alpha = t.get("alpha")
            _expect(
                isinstance(alpha, list) and len(alpha) == d + 1 and all(_is_int(x) and x >= 0 for x in alpha),
                f"steps[{n}]: alpha must be {d + 1} nonnegative integers",
            )
            t_terms.append(TTerm(alpha=tuple(alpha), poly=poly_of(t.get("coeffs"), f"steps[{n}].t coeffs")))
        steps[n] = StepCoeffs(g=g, v=v, t_terms=tuple(t_terms))
    name = doc.get("name")
    _expect(name is None or isinstance(name, str), "'name' must be a string")
    return RecurrenceSpec(
        descriptor=desc, d=d, m=doc["m"], k=doc["k"], l=doc["l"],
        degrees=tuple(degrees), initials=initial_polys, steps=steps, name=name,
    )
