"""Seeded inputs of the benchmark: the instance files each workload runs on
and the operations it performs on them.

Every instance is drawn from the benchmark seed and the instance's name, so
one seed always gives the same files.  Coefficients are drawn from [-5, 5];
leading coefficients, g_n's top coefficient and v_n from 2 <= |c| <= 5, and no
shape takes the edge branch (i_d = i_{d-1} with k = l), so every instance
satisfies the hypotheses `recres.validate` checks.

Run as a script this is the benchmark's set-up step: it imports recres, as
every command a user runs does, then draws the workload's instances and
writes them as schema-1 files:

    python3 bench/instances.py --workload deep --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

COEFF_BOUND = 5
SRC = Path(__file__).resolve().parent.parent / "src"  # the recres package of this source tree
PRIME = 1000003  # the F_p of `verify` and `deep`; `fuzz` keeps the CLI default 10007


@dataclass(frozen=True)
class Shape:
    d: int
    m: int
    k: int
    l: int
    degrees: tuple[int, ...]


M2 = Shape(d=1, m=2, k=1, l=0, degrees=(0, 1))  # deg r_n = 2^n - 1
M1 = Shape(d=1, m=1, k=1, l=0, degrees=(0, 1))  # deg r_n = n
M1_D2 = Shape(d=2, m=1, k=2, l=1, degrees=(0, 1, 2))  # deg r_n = 2n - 2, with t-terms


@dataclass(frozen=True)
class Instance:
    name: str
    prime: int | None  # None: over Q
    shape: Shape
    n_last: int  # step tables are drawn for d+1 .. n_last


@dataclass(frozen=True)
class Op:
    """One timed operation: a `verify` command, a formula/euclid pair of
    `resultant` commands at one n, or a `fuzz` command followed by a
    `verify` replay of the first instance it dumped."""

    field: str  # "fp" or "q"
    kind: str  # "verify", "deep" or "fuzz"
    label: str
    instance: Instance | None
    n: int  # verify: --n-max; deep: --n; fuzz: --count
    fuzz_seed: int | None = None
    fuzz_bounds: tuple[str, ...] = ()


# verify: one F_p instance to n = 8 (Sylvester 382x382) and Q instances to
# n = 5 (Bareiss on 47x47 with ~1 kbit entries).  A single Q Sylvester at
# n = 6 takes about 10 s, too long to repeat within one run.
VERIFY_FP_N, VERIFY_Q_N, VERIFY_Q_COUNT = 8, 5, 24
# deep: (shape, ladder of n, instances).  Over Q the results at m = 2,
# n = 8 and m = 1, n = 150 have more than 4300 decimal digits for every
# seed; the rungs at n = 6 and n = 50 stay far below that.  The cost of
# Euclid at m = 2, n = 8 varies by 14% from one seed to the next, so three
# instances share that rung.
DEEP_FP = ((M1, (100, 200, 300), 1), (M1_D2, (100, 200, 300), 1))
DEEP_Q = ((M2, (6, 8), 3), (M1, (50, 150), 1))
# fuzz: (number of commands, --count each, bounds) per field.  F_p keeps the
# CLI defaults.  Over Q an instance at the default bounds costs 1.1 times the
# mean in standard deviation, so a few hundred of them would still swing
# with the seed; --n-max d+2 brings that to 0.6 at a seventh of the cost.
FUZZ_FP = (4, 75, ())
FUZZ_Q = (6, 100, ("--n-max", "d+2"))

WORKLOADS = ("verify", "deep", "fuzz")


def plan(workload: str, seed: int) -> dict[str, list[Op]]:
    """The operations of one workload, per field, in the order they run."""
    if workload == "verify":
        fp = [Instance("verify-fp-0", PRIME, M2, VERIFY_FP_N)]
        q = [Instance(f"verify-q-{i}", None, M2, VERIFY_Q_N) for i in range(VERIFY_Q_COUNT)]
        return {
            field: [Op(field, "verify", inst.name, inst, inst.n_last) for inst in insts]
            for field, insts in (("fp", fp), ("q", q))
        }
    if workload == "deep":
        ops: dict[str, list[Op]] = {}
        for field, prime, ladders in (("fp", PRIME, DEEP_FP), ("q", None, DEEP_Q)):
            ops[field] = []
            for i, (shape, ladder, copies) in enumerate(ladders):
                for j in range(copies):
                    inst = Instance(f"deep-{field}-{i}.{j}", prime, shape, max(ladder))
                    ops[field] += [Op(field, "deep", f"{inst.name}-n{n}", inst, n) for n in ladder]
        return ops
    if workload == "fuzz":
        return {
            field: [
                Op(field, "fuzz", f"fuzz-{field}-{j}", None, count, fuzz_seed=seed * 100 + j, fuzz_bounds=bounds)
                for j in range(runs)
            ]
            for field, (runs, count, bounds) in (("fp", FUZZ_FP), ("q", FUZZ_Q))
        }
    raise ValueError(f"unknown workload {workload!r}")


def _instances(workload: str, seed: int) -> list[Instance]:
    seen: dict[str, Instance] = {}
    for ops in plan(workload, seed).values():
        for op in ops:
            if op.instance is not None:
                seen.setdefault(op.instance.name, op.instance)
    return list(seen.values())


def _nonzero(rng: random.Random) -> int:
    """A coefficient with 2 <= |c| <= 5.  Leading coefficients and v_n set the
    size of every result, so a draw of +-1 there would shrink the results,
    and the Q running time, of one seed against another."""
    return rng.choice((-1, 1)) * rng.randint(2, COEFF_BOUND)


def _poly(rng: random.Random, degree: int) -> list[str]:
    """Coefficient texts, ascending, of a polynomial of exact degree."""
    coeffs = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(degree)]
    coeffs.append(_nonzero(rng))
    return [str(c) for c in coeffs]


def instance_doc(inst: Instance, seed: int) -> dict:
    """The schema-1 document of one instance, drawn from (seed, name)."""
    rng = random.Random(f"{seed}:{inst.name}")
    s = inst.shape
    steps = {}
    for n in range(s.d + 1, inst.n_last + 1):
        step = {"g": _poly(rng, s.k), "t": [], "v": str(_nonzero(rng))}
        if s.m == 1 and s.k >= 2:
            # the only alpha with |alpha| < 1; t(0) = 0 and deg t < k
            c = rng.randint(-COEFF_BOUND, COEFF_BOUND)
            if c:
                step["t"].append({"alpha": [0] * (s.d + 1), "coeffs": ["0", str(c)]})
        steps[str(n)] = step
    return {
        "schema": 1,
        "field": "rational" if inst.prime is None else {"prime": inst.prime},
        "d": s.d,
        "m": s.m,
        "k": s.k,
        "l": s.l,
        "degrees": list(s.degrees),
        "initials": [_poly(rng, deg) for deg in s.degrees],
        "steps": steps,
        "name": inst.name,
        "seed": seed,
    }


def instance_path(inputs: Path, inst: Instance) -> Path:
    return inputs / f"{inst.name}.json"


def write_instances(workload: str, seed: int, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for inst in _instances(workload, seed):
        text = json.dumps(instance_doc(inst, seed), indent=2, sort_keys=True) + "\n"
        instance_path(inputs, inst).write_text(text, encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description="draw and write one workload's instance files")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import recres  # noqa: F401  -- set-up time includes the import every command pays

    write_instances(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
