"""Polynomial sequences defined by a nonlinear recurrence of order d+1.

An instance over a field K is the data

    A = (i_0 <= ... <= i_d, k >= l, m >= 1),
    initial polynomials r_0, ..., r_d with deg r_s = i_s exactly,
    per-step tables: g_n of degree exactly k, a coefficient v_n in K,
    and t-terms (alpha, t_{alpha,n}) indexed by multi-indices
    alpha = (alpha_0, ..., alpha_d) with |alpha| < m,

which generates, for n > d,

    r_n = g_n * r_{n-1}^m
        + sum_{|alpha| < m} t_{alpha,n}
              * r_{n-1}^{alpha_0} * r_{n-2}^{alpha_1} * ... * r_{n-d-1}^{alpha_d}
              * r_{n-1}
        + v_n * x^l * r_{n-2}^m.

Note the extra r_{n-1} factor on every t-term.  The step coefficients
are explicit per-step tables, not symbolic functions of n, so an
instance is a closed, serializable object (the JSON schema lives in
recres.cli).

`validate` is the one place that checks the hypotheses the closed forms
in recres.closedform rely on; the presets below only map classical
shapes onto the d = 1 instance.  `generate` trusts its caller to have
run `validate`, iterates the step and asserts each produced degree
against the closed-form degree, so a violated hypothesis surfaces
immediately as DegreeMismatchError rather than as a silently wrong
resultant.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, NamedTuple, Sequence

from .field import FieldDescriptor, Scalar
from .poly import Poly

__all__ = [
    "TTerm",
    "StepCoeffs",
    "RecurrenceSpec",
    "Violation",
    "ValidationReport",
    "validate",
    "edge_branch",
    "edge_base",
    "step",
    "generate",
    "schur_recurrence",
    "linear_recurrence",
    "order_two_recurrence",
    "MissingStepError",
    "WindowSizeError",
    "DegreeMismatchError",
]


class MissingStepError(KeyError):
    """No step table for a required index n."""

    def __init__(self, n: int):
        super().__init__(n)
        self.n = n

    def __str__(self) -> str:
        return f"no step table for n = {self.n}"


class WindowSizeError(ValueError):
    """step() received a window whose length is not d+1."""


class DegreeMismatchError(AssertionError):
    """A generated polynomial's degree deviates from the closed form.

    Signals a violated hypothesis (see validate) or an implementation
    bug; either way the closed-form resultant would be meaningless.
    """

    def __init__(self, n: int, expected: int, actual):
        super().__init__(f"deg r_{n} = {actual}, closed form predicts {expected}")
        self.n = n
        self.expected = expected
        self.actual = actual


class TTerm(NamedTuple):
    """One middle term: multi-index alpha plus its coefficient polynomial."""

    alpha: tuple[int, ...]
    poly: Poly


class StepCoeffs(NamedTuple):
    """Coefficient tables for one step n: g_n, v_n and the t-terms.

    TTerm and StepCoeffs are named tuples: a loaded instance builds them once
    per step, and a frozen dataclass takes 2.7 times as long to build."""

    g: Poly
    v: Scalar
    t_terms: tuple[TTerm, ...] = ()


@dataclass(frozen=True, eq=True)
class RecurrenceSpec:
    """One full instance; immutable after construction.

    Construction is permissive: structural soundness only.  Semantic
    hypotheses are checked by `validate`, which reports violations
    instead of raising, so broken instances can be inspected.
    """

    descriptor: FieldDescriptor
    d: int
    m: int
    k: int
    l: int
    degrees: tuple[int, ...]
    initials: tuple[Poly, ...]
    steps: Mapping[int, StepCoeffs]
    name: str | None = None

    def step_coeffs(self, n: int) -> StepCoeffs:
        try:
            return self.steps[n]
        except KeyError:
            raise MissingStepError(n) from None


@dataclass(frozen=True)
class Violation:
    code: str
    n: int | None
    detail: str

    def __str__(self) -> str:
        where = f" at n={self.n}" if self.n is not None else ""
        return f"{self.code}{where}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation] = dc_field(default_factory=list)
    warnings: list[Violation] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok and not self.warnings:
            return "ok"
        lines = [str(v) for v in self.violations]
        lines += [f"warning: {w}" for w in self.warnings]
        return "; ".join(lines)


def edge_branch(spec: RecurrenceSpec) -> bool:
    """i_d = i_{d-1} and k = l: the v_{d+1} term reaches the top degree of r_{d+1}."""
    return spec.degrees[spec.d] == spec.degrees[spec.d - 1] and spec.k == spec.l


def edge_base(spec: RecurrenceSpec) -> Scalar:
    """E = a_{k,d+1} p_{i_d,d}^m + v_{d+1} p_{i_{d-1},d-1}^m, which is
    lc(r_{d+1}) on the edge branch."""
    d, m = spec.d, spec.m
    first = spec.step_coeffs(d + 1)
    lead_d = spec.initials[d].leading_coeff()
    lead_dm1 = spec.initials[d - 1].leading_coeff()
    return first.g.coeff_at(spec.k) * lead_d**m + first.v * lead_dm1**m


def validate(spec: RecurrenceSpec, up_to: int, *, allow_zero_v: bool = False) -> ValidationReport:
    """Check every hypothesis for steps d+1 .. up_to.

    Violation codes:

    * Membership          -- (i_0..i_d, k, l, m) outside the admissible set
                             (degrees not nondecreasing, k < l, m < 1, d < 1)
    * InitialDegree       -- deg(initials[s]) != i_s
    * GDegree             -- deg(g_n) != k (in particular lc(g_n) = 0)
    * VZero               -- v_n = 0 (warning instead when allow_zero_v)
    * TConstant           -- t_{alpha,n}(0) != 0
    * TDegree             -- deg(t_{alpha,n}) >= deg(g_n)
    * TForbidden          -- k = 0 but a t-term is present
    * AlphaLength         -- alpha does not have d+1 entries
    * AlphaSum            -- |alpha| >= m (or a negative entry)
    * AlphaDuplicate      -- the same alpha twice in one step
    * LeadingProductZero  -- a_{k,n} * prod_s p_{i_s,s} = 0
    * EdgeCaseZero        -- i_d = i_{d-1} and k = l but
                             a_{k,d+1} p_{i_d,d}^m + v_{d+1} p_{i_{d-1},d-1}^m = 0
    * DegenerateDominance -- k = 0 and (m = 1 or i_d = 0): the top-degree
                             term then never dominates the v_n x^l r_{n-2}^m
                             term for n >= d+2, leading coefficients can
                             cancel, and the closed forms are not justified

    Missing step tables in the range are an error (MissingStepError),
    not a violation: the caller asked about steps that do not exist.
    """
    report = ValidationReport()
    bad = report.violations.append

    d, m, k, l = spec.d, spec.m, spec.k, spec.l
    degrees = spec.degrees

    if d < 1:
        bad(Violation("Membership", None, f"order parameter d must be >= 1, got {d}"))
        return report
    if m < 1:
        bad(Violation("Membership", None, f"m must be >= 1, got {m}"))
    if k < 0 or l < 0 or k < l:
        bad(Violation("Membership", None, f"need k >= l >= 0, got k={k}, l={l}"))
    if len(degrees) != d + 1:
        bad(Violation("Membership", None, f"expected {d + 1} initial degrees, got {len(degrees)}"))
        return report
    if any(degrees[s] > degrees[s + 1] for s in range(d)):
        bad(Violation("Membership", None, f"initial degrees {list(degrees)} are not nondecreasing"))
    if len(spec.initials) != d + 1:
        bad(Violation("InitialDegree", None, f"expected {d + 1} initial polynomials, got {len(spec.initials)}"))
        return report

    for s, (r, want) in enumerate(zip(spec.initials, degrees)):
        if r.degree() != want:
            bad(Violation("InitialDegree", None, f"deg(r_{s}) = {r.degree()}, declared i_{s} = {want}"))

    if k == 0 and (m == 1 or degrees[d] == 0) and report.ok:
        bad(
            Violation(
                "DegenerateDominance",
                None,
                f"k=0 with m={m}, i_d={degrees[d]}: the degree-growth argument "
                "behind the closed forms fails for n >= d+2",
            )
        )

    # over a field the product vanishes exactly when a factor does
    initial_lead_zero = any(r.is_zero() for r in spec.initials)

    for n in range(d + 1, up_to + 1):
        coeffs = spec.step_coeffs(n)
        g = coeffs.g
        if g.degree() != k:
            bad(Violation("GDegree", n, f"deg(g_{n}) = {g.degree()}, expected exactly k = {k}"))
        if coeffs.v.is_zero():
            v = Violation("VZero", n, f"v_{n} = 0")
            if allow_zero_v:
                report.warnings.append(v)
            else:
                bad(v)
        if initial_lead_zero or g.is_zero():
            bad(Violation("LeadingProductZero", n, "a_{k,n} * prod p_{i_s,s} vanishes"))
        seen: set[tuple[int, ...]] = set()
        for term in coeffs.t_terms:
            if k == 0:
                bad(Violation("TForbidden", n, "k = 0 admits no t-terms"))
                continue
            if len(term.alpha) != d + 1:
                bad(Violation("AlphaLength", n, f"alpha {term.alpha} needs {d + 1} entries"))
                continue
            if any(a < 0 for a in term.alpha) or sum(term.alpha) >= m:
                bad(Violation("AlphaSum", n, f"|{term.alpha}| must be < m = {m}"))
            if term.alpha in seen:
                bad(Violation("AlphaDuplicate", n, f"alpha {term.alpha} repeated"))
            seen.add(term.alpha)
            t = term.poly._c  # the stored vector: t(0) != 0 exactly when its entry 0 is
            if t and t[0]:
                bad(Violation("TConstant", n, f"t_{term.alpha}(0) != 0"))
            if t and len(t) >= len(g._c):
                bad(Violation("TDegree", n, f"deg t_{term.alpha} = {term.poly.degree()} >= deg g = {g.degree()}"))

    if edge_branch(spec) and up_to >= d + 1 and report.ok and edge_base(spec).is_zero():
        bad(
            Violation(
                "EdgeCaseZero",
                d + 1,
                "a_{k,d+1} p_{i_d,d}^m + v_{d+1} p_{i_{d-1},d-1}^m = 0",
            )
        )

    return report


def step(spec: RecurrenceSpec, window: Sequence[Poly], n: int) -> Poly:
    """Apply one recurrence step.

    ``window`` holds (r_{n-1}, r_{n-2}, ..., r_{n-d-1}), newest first.
    Every t-term carries the factor r_{n-1}, and for m = 1 so does g_n, so
    their short multipliers t_alpha r^alpha (and g_n) are summed first and
    multiplied by r_{n-1} once.  For m >= 2, g_n r_{n-1}^m keeps its own
    product: `Poly.__pow__` squares r_{n-1}, which beats a general product.
    The v-term v_n x^l r_{n-2}^m joins in the same pass as the last sum.
    """
    if spec.d < 1:
        raise WindowSizeError("the recurrence references r_{n-2}; d must be >= 1")
    if len(window) != spec.d + 1:
        raise WindowSizeError(f"window must hold {spec.d + 1} polynomials, got {len(window)}")
    coeffs = spec.step_coeffs(n)
    newest = window[0]
    # the multipliers of r_{n-1}: g_n when m = 1, and every t_alpha r^alpha
    multiplier = coeffs.g if spec.m == 1 else None
    for term in coeffs.t_terms:
        if term.poly.is_zero():
            continue
        monomial = term.poly
        for r, a in zip(window, term.alpha):
            if a:
                monomial = monomial * r**a
        multiplier = monomial if multiplier is None else multiplier + monomial
    if spec.m == 1:
        head = multiplier * newest
    else:
        head = coeffs.g * newest**spec.m
        if multiplier is not None:
            head = multiplier * newest + head
    return head._plus_scaled_shift(window[1] ** spec.m, coeffs.v.value, spec.l)


def generate(spec: RecurrenceSpec, upto: int) -> list[Poly]:
    """Produce [r_0, ..., r_upto]; requires upto >= d.

    Does not validate: the caller runs `validate` up to upto first.
    Asserts every generated degree against the closed-form degree
    (DegreeMismatchError).
    """
    from .closedform import degree_formula  # deferred: closedform imports this module

    if upto < spec.d:
        raise ValueError(f"need upto >= d = {spec.d}, got {upto}")
    seq = list(spec.initials)
    for n in range(spec.d + 1, upto + 1):
        window = seq[-1 : -spec.d - 2 : -1]
        r_n = step(spec, window, n)
        expected = degree_formula(spec, n)
        if r_n.degree() != expected:
            raise DegreeMismatchError(n, expected, r_n.degree())
        seq.append(r_n)
    return seq


# ---------------------------------------------------------------------------
# Presets: classical shapes mapped onto the general instance.  They check
# no hypothesis; `validate` reports every one.
# ---------------------------------------------------------------------------


def _order_two_spec(initial0: Poly, initial1: Poly, m: int, l: int, rows, name: str) -> RecurrenceSpec:
    """The d = 1 instance whose step n = idx+2 is rows[idx] = (t_0, (t_1, ..., t_{m-1}), v).

    k is deg t_0 of the first row.  A nonzero middle t_s is the t-term with
    alpha = (m-s-1, s): r_{n-1}^{m-s} r_{n-2}^s = (r_{n-1}^{m-s-1} r_{n-2}^s) * r_{n-1}.
    """
    if not rows:
        raise ValueError("need at least one step table")
    steps = {
        n: StepCoeffs(g, v, tuple(TTerm((m - s - 1, s), t) for s, t in enumerate(middle, 1) if not t.is_zero()))
        for n, (g, middle, v) in enumerate(rows, 2)
    }
    return RecurrenceSpec(
        descriptor=initial0.descriptor, d=1, m=m, k=rows[0][0].degree(), l=l,
        degrees=(initial0.degree(), initial1.degree()), initials=(initial0, initial1), steps=steps, name=name,
    )


def schur_recurrence(a: Sequence[Scalar], b: Sequence[Scalar], c: Sequence[Scalar]) -> RecurrenceSpec:
    """Three-term recurrence r_n = (a_n x + b_n) r_{n-1} - c_n r_{n-2} from r_0 = 1.

    ``a[i]``, ``b[i]``, ``c[i]`` are a_{i+1}, b_{i+1}, c_{i+1}: a[0] = a_1
    builds r_1 = a_1 x + b_1, and c[0] = c_1 is unused; it only keeps the
    indexing aligned.  Step n has g_n = a_n x + b_n and v_n = -c_n (k = 1, l = 0).
    """
    rows = [(Poly(a_n.descriptor, [b_n, a_n]), (), -c_n) for a_n, b_n, c_n in zip(a, b, c, strict=True)]
    if not rows:
        raise ValueError("need a_1, b_1 and c_1 at least")
    r1 = rows[0][0]
    return _order_two_spec(Poly.one(r1.descriptor), r1, 1, 0, rows[1:], "schur")


def linear_recurrence(initial0: Poly, initial1: Poly, f: Sequence[Poly], v: Sequence[Scalar], l: int) -> RecurrenceSpec:
    """General linear case r_n = f_n r_{n-1} - v_n x^l r_{n-2} (m = 1).

    ``f[idx]`` and ``v[idx]`` are the step-(idx+2) coefficients; step n
    has g_n = f_n and v_n negated.
    """
    rows = [(f_n, (), -v_n) for f_n, v_n in zip(f, v, strict=True)]
    return _order_two_spec(initial0, initial1, 1, l, rows, "linear")


def order_two_recurrence(initial0: Poly, initial1: Poly, t_tables: Sequence[Sequence[Poly]]) -> RecurrenceSpec:
    """Order-two shape r_n = sum_{s=0}^m t_{s,n} r_{n-1}^{m-s} r_{n-2}^s.

    ``t_tables[idx]`` lists (t_{0,n}, ..., t_{m,n}) for n = idx+2, with one
    m >= 1.  t_{0,n} is g_n, and t_{m,n} must be one nonzero monomial
    v_n x^l with the same l in every step: only tables that break this
    shape are refused (ValueError), since no general instance has them.
    """
    m = len(t_tables[0]) - 1 if t_tables else 0
    if m < 1 or any(len(table) != m + 1 for table in t_tables):
        raise ValueError("need one or more step tables, each listing t_0, ..., t_m with one m >= 1")
    l = t_tables[0][m].degree()
    rows = []
    for n, table in enumerate(t_tables, 2):
        trailing = table[m]
        if trailing.is_zero() or any(not c.is_zero() for c in trailing.coeffs[:-1]):
            raise ValueError(f"t_{{m,{n}}} = {trailing} is not one nonzero monomial v x^l")
        if trailing.degree() != l:
            raise ValueError(f"t_{{m,{n}}} has x-power {trailing.degree()}, t_{{m,2}} has {l}")
        rows.append((table[0], table[1:m], trailing.leading_coeff()))
    return _order_two_spec(initial0, initial1, m, l, rows, "order2")
