"""A fixed pure-Python kernel, timed between operations, that scales the
operations' times to one reference speed.

The cores of a shared machine change speed by up to threefold over tens of
seconds as other tenants come and go, which is wider than any bound a
wall-time metric can carry.  The kernel runs on the same core at the same
moment and slows down with it, so an operation's time multiplied by
(REF_SECONDS / kernel time) ** SENSITIVITY stays put.  The kernel does the
kinds of work recres spends its time on -- JSON text round trips, Fraction
products, elimination and a polynomial product mod a prime, a big-integer
product -- and imports nothing from recres, so no change to the program can
move it.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from fractions import Fraction

# About the kernel's time on the 2-core x86-64 machine, Python 3.11, on which
# the benchmark was written, at its fastest (between 1.0 and 1.8 ms there).
# It only sets the scale: a scaled time reads as seconds at that speed.
REF_SECONDS = 0.001
WARMUP, REPEATS = 3, 11
# How far an operation's time moves with the kernel's.  Two sets of ten 30 s
# runs per workload were taken while the machine ran at very different
# speeds (median kernel ratio 0.94 in one, 0.54 in the other).  Within a run
# the slope of log(operation time) on log(kernel time) was 0.68 to 0.76 on
# every workload and field, and with exponent 1 a run on a slow machine read
# faster than one on a fast machine; between the two sets exponent 1 held
# the medians best.  At 0.85 the largest spread between seeds was 0.125 of
# the median and the largest shift of a median between the sets 0.075
# (exponent 1: 0.143 and 0.100; 0.7: 0.118 and 0.161).
SENSITIVITY = 0.85


def _kernel() -> int:
    rng = random.Random(5)
    steps = {str(i): {"g": [str(rng.randint(-5, 5)) for _ in range(4)], "t": [], "v": str(i)} for i in range(30)}
    parsed = json.loads(json.dumps(steps, indent=2, sort_keys=True))
    fractions = [Fraction(i, 7) * Fraction(3, i + 1) for i in range(1, 80)]
    p = 10007
    rows = [[(i * 31 + j * 17) % p for j in range(16)] for i in range(16)]
    for c in range(15):
        inv = pow(rows[c][c] or 1, p - 2, p)
        for r in range(c + 1, 16):
            f = rows[r][c] * inv % p
            rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    a, b = list(range(1, 31)), list(range(7, 37))
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    big = 7**4000
    return len(parsed) + len(fractions) + rows[-1][-1] + product[-1] % p + (big * (big + 1)).bit_length()


def scale(before: float, after: float) -> float:
    """Factor that brings a time measured between two kernel timings to the
    reference speed."""
    return (2 * REF_SECONDS / (before + after)) ** SENSITIVITY


def kernel_seconds() -> float:
    """Median of REPEATS timings of the kernel, after WARMUP untimed runs
    that bring its code and data back into the caches an operation evicted;
    about 20 ms in all."""
    for _ in range(WARMUP):
        _kernel()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)
