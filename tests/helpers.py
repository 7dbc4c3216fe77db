"""Shared random builders for the test suite (seeded, stdlib random)."""

from __future__ import annotations

import random
from fractions import Fraction

from recres import Poly, RecurrenceSpec, Scalar, StepCoeffs, TTerm, rationals, validate
from recres.cli import _alphas_below


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
    """A random instance that passes validation, plus its last step index."""
    for _ in range(max_tries):
        d = rng.randint(1, d_max)
        m = rng.randint(1, m_max)
        k = rng.randint(0, k_max)
        l = rng.randint(0, k)
        degrees = sorted(rng.randint(0, i_max) for _ in range(d + 1))
        initials = tuple(rand_poly(rng, desc, deg, -bound, bound) for deg in degrees)
        n_max = d + n_max_extra
        alphas = _alphas_below(d, m)
        steps = {}
        for n in range(d + 1, n_max + 1):
            g = rand_poly(rng, desc, k, -bound, bound)
            t_terms = []
            if k >= 2:
                for alpha in rng.sample(alphas, k=min(len(alphas), rng.randint(0, 2))):
                    t = Poly(desc, [0] + [rng.randint(-bound, bound) for _ in range(k - 1)])
                    if not t.is_zero():
                        t_terms.append(TTerm(alpha=alpha, poly=t))
            steps[n] = StepCoeffs(
                g=g,
                v=rand_scalar(rng, desc, -bound, bound, nonzero=True),
                t_terms=tuple(t_terms),
            )
        spec = RecurrenceSpec(
            descriptor=desc, d=d, m=m, k=k, l=l,
            degrees=tuple(degrees), initials=initials, steps=steps,
        )
        if validate(spec, n_max).ok:
            return spec, n_max
    raise RuntimeError("could not draw a valid instance")
