"""Closed forms for sequences from recres.recurrence: degree, leading
coefficient, constant term, and the resultant Res(r_n, r_{n-1}) -- all
evaluated from the instance data alone, without generating polynomials.

Writing a_{k,s} = lc(g_s), a_{0,s} = g_s(0), L_s = lc(r_s),
C_s = r_s(0) and R_s = Res(r_s, r_{s-1}), FormulaContext runs one
forward pass over s = d+1, d+2, ... with one update per quantity:

    deg r_s = k + m deg r_{s-1}

    L_s     = a_{k,s} L_{s-1}^m
              except at s = d+1 on the edge branch i_d = i_{d-1}, k = l,
              where the v_{d+1} term reaches the top degree and
              L_{d+1} = E = a_{k,d+1} L_d^m + v_{d+1} L_{d-1}^m

    C_s     = a_{0,s} C_{s-1}^m + v_s C_{s-2}^m   (v-term only for l = 0)

    gamma(s) = deg r_s - deg(v_s x^l r_{s-2}^m) = deg r_s - l - m deg r_{s-2}

    R_s     = (-1)^sigma(s) L_{s-1}^{gamma(s)} v_s^{deg r_{s-1}} C_{s-1}^l R_{s-1}^m

with sigma(s) = deg r_s * deg r_{s-1} + l * deg r_{s-1}, starting from the
initial polynomials (R_d by resultant_sylvester, never assumed).  The
second summand of sigma is the parity of Res(r_{s-1}, x)^l = ((-1)^{deg
r_{s-1}} r_{s-1}(0))^l; dropping it (a tempting simplification, since
most references quote the step with r_{s-1}(0)^l directly) makes the
formula wrong by a sign exactly when l and deg r_{s-1} are both odd.
Empty products are 1, as is 0^0 wherever an exponent vanishes, so
C_{s-1}^l = 1 for l = 0.

Unrolling the updates gives the paper's product forms, e.g.
deg r_n = k (1 + m + ... + m^{n-d-1}) + i_d m^{n-d},
L_n = lc(r_d)^{m^{n-d}} prod_{s=d+1}^{n} a_{k,s}^{m^{n-s}} off the edge
branch, and R_n = (-1)^{sum_s m^{n-s} sigma(s)} R_d^{m^{n-d}}
prod_{s=d+1}^{n} (L_{s-1}^{gamma(s)} v_s^{deg r_{s-1}} C_{s-1}^l)^{m^{n-s}}.
The test suite keeps that unrolled form for d = 1 and the classical
three-term product (-1)^{n(n-1)/2} prod_{i<n} a_i^{2(n-i)} c_{i+1}^i, the
case d = m = k = 1, l = 0, as oracles.

FormulaContext keeps deg r_s, L_s, C_s and R_s in four lists that share
the index s; R_d enters once, when the pass first runs.  A query
advances the pass to n and reads index n.  A context is meant to be used
from one thread at a time, while distinct contexts are fully independent.
"""

from __future__ import annotations

from .field import Scalar
from .recurrence import RecurrenceSpec, edge_base, edge_branch
from .resultant import resultant_sylvester

__all__ = ["degree_formula", "FormulaContext"]


def _geom(m: int, count: int) -> int:
    """1 + m + ... + m^(count-1)."""
    if m == 1:
        return count
    return (m**count - 1) // (m - 1)


def degree_formula(spec: RecurrenceSpec, n: int) -> int:
    """deg r_n from the instance data alone."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= spec.d:
        return spec.degrees[n]
    shift = n - spec.d
    return spec.k * _geom(spec.m, shift) + spec.degrees[spec.d] * spec.m**shift


class FormulaContext:
    """The one-step closed forms of one instance, evaluated by a forward
    pass whose per-step values are kept for later queries.

    Precondition for every query at n: `validate(spec, n)` accepts the
    instance (with or without allow_zero_v); nothing here checks it.
    """

    def __init__(self, spec: RecurrenceSpec):
        self.spec = spec
        # index s holds deg r_s, L_s, C_s and R_s; R_s starts at s = d
        self._deg = list(spec.degrees)
        self._lead = [r.leading_coeff() for r in spec.initials]
        self._const = [r.coeff_at(0) for r in spec.initials]
        self._res: list[Scalar | None] = [None] * spec.d

    def _advance(self, n: int) -> None:
        """Extend deg r_s, L_s, C_s and R_s to s = n."""
        spec = self.spec
        d, m, k, l = spec.d, spec.m, spec.k, spec.l
        deg, lead, const, res = self._deg, self._lead, self._const, self._res
        if n > d and len(res) == d:
            res.append(resultant_sylvester(spec.initials[d], spec.initials[d - 1]))
        for s in range(len(deg), n + 1):
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

    def leading_term(self, n: int) -> Scalar:
        """L_n = lc(r_n) by closed form, n >= d."""
        if n < self.spec.d:
            raise ValueError(f"leading_term needs n >= d = {self.spec.d}")
        self._advance(n)
        return self._lead[n]

    def constant_value(self, n: int) -> Scalar:
        """The true r_n(0), by the constant-term recurrence
        C_n = a_{0,n} C_{n-1}^m + v_n C_{n-2}^m (v-term absent for l > 0)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        self._advance(n)
        return self._const[n]

    def resultant_formula(self, n: int) -> Scalar:
        """Res(r_n, r_{n-1}) by the closed form, for n >= d+1."""
        if n < self.spec.d + 1:
            raise ValueError(f"resultant_formula needs n >= d+1 = {self.spec.d + 1}")
        self._advance(n)
        return self._res[n]
