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

Each formula is written once, on payloads: Fractions and exact degrees
over Q, residues in [0, p) over F_p.  Over F_p the degrees, which grow
like m^n, are kept mod 2(p - 1), and this is exact.  By Fermat, b^e for
a residue b != 0 depends only on e mod p - 1, and the sign (-1)^sigma
only on the parities of the degrees; 2(p - 1) is a multiple of both p - 1
and 2.  The one base for which more of e matters is b = 0: 0^0 = 1, and
0^e = 0 for e > 0.  So a degree that is exactly 0 is kept as 0, and a
positive one as its representative in [1, 2(p - 1)].  Which degrees are
exactly 0 is known without their exact values: deg r_s = k + m deg r_{s-1}
with k >= 0 and m >= 1 is 0 exactly when k = 0 and deg r_{s-1} is 0, and
that sum of kept values is 0 under the same condition.  This is what
v_s^{deg r_{s-1}} needs, as v_s = 0 is allowed (allow_zero_v); the other
exponents that meet a zero base, l for C_{s-1} and m for R_{s-1}, are
exact.  gamma(s) is formed from kept degrees by a subtraction, so it may
read 0 where it is a positive multiple of 2(p - 1); its base L_{s-1} is
never 0 on an instance that `validate` accepts (LeadingProductZero,
EdgeCaseZero), so there L^0 = L^(2(p - 1) j) = 1.  The pass then costs
one pow() with an exponent below 2p per factor, and grows linearly in n.
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


def _exact_ops():
    """(reduce, power, exponent) over Q: exact values and exact degrees."""
    return (lambda x: x), (lambda b, e: b**e), (lambda e: e)


def _residue_ops(p: int):
    """(reduce, power, exponent) over F_p: residues, and each exponent as 0
    when it is 0, else as its representative in [1, 2(p - 1)]."""
    cycle = 2 * (p - 1)
    return (lambda x: x % p), (lambda b, e: pow(b, e, p)), (lambda e: (e - 1) % cycle + 1 if e else 0)


class FormulaContext:
    """The one-step closed forms of one instance, evaluated by a forward
    pass whose per-step values are kept for later queries.

    Precondition for every query at n: `validate(spec, n)` accepts the
    instance (with or without allow_zero_v); nothing here checks it.
    """

    def __init__(self, spec: RecurrenceSpec):
        self.spec = spec
        p = spec.descriptor.modulus
        self._ops = _exact_ops() if p is None else _residue_ops(p)
        # index s holds deg r_s (as an exponent), L_s, C_s and R_s as
        # payloads; R_s starts at s = d
        self._deg = [self._ops[2](i) for i in spec.degrees]
        self._lead = [r.leading_coeff().value for r in spec.initials]
        self._const = [r.coeff_at(0).value for r in spec.initials]
        self._res: list = [None] * spec.d

    def _advance(self, n: int) -> None:
        """Extend deg r_s, L_s, C_s and R_s to s = n."""
        spec = self.spec
        d, m, k, l = spec.d, spec.m, spec.k, spec.l
        reduce, power, exponent = self._ops
        deg, lead, const, res = self._deg, self._lead, self._const, self._res
        if n > d and len(res) == d:
            res.append(resultant_sylvester(spec.initials[d], spec.initials[d - 1]).value)
        for s in range(len(deg), n + 1):
            coeffs = spec.step_coeffs(s)
            g, v = coeffs.g, coeffs.v.value
            deg.append(exponent(k + m * deg[s - 1]))
            if s == d + 1 and edge_branch(spec):
                lead.append(edge_base(spec).value)
            else:
                lead.append(reduce(g._value_at(k) * power(lead[s - 1], m)))
            value = g._value_at(0) * power(const[s - 1], m)
            if l == 0:
                value += v * power(const[s - 2], m)
            const.append(reduce(value))
            gamma = exponent(deg[s] - l - m * deg[s - 2])
            value = reduce(power(res[s - 1], m) * power(lead[s - 1], gamma) * power(v, deg[s - 1]) * power(const[s - 1], l))
            res.append(reduce(-value) if deg[s - 1] * (deg[s] + l) % 2 else value)

    def leading_term(self, n: int) -> Scalar:
        """L_n = lc(r_n) by closed form, n >= d."""
        if n < self.spec.d:
            raise ValueError(f"leading_term needs n >= d = {self.spec.d}")
        self._advance(n)
        return Scalar._of(self.spec.descriptor, self._lead[n])

    def constant_value(self, n: int) -> Scalar:
        """The true r_n(0), by the constant-term recurrence
        C_n = a_{0,n} C_{n-1}^m + v_n C_{n-2}^m (v-term absent for l > 0)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        self._advance(n)
        return Scalar._of(self.spec.descriptor, self._const[n])

    def resultant_formula(self, n: int) -> Scalar:
        """Res(r_n, r_{n-1}) by the closed form, for n >= d+1."""
        if n < self.spec.d + 1:
            raise ValueError(f"resultant_formula needs n >= d+1 = {self.spec.d + 1}")
        self._advance(n)
        return Scalar._of(self.spec.descriptor, self._res[n])
