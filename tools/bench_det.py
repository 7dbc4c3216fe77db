"""Time one route on seed-fixed M2-shape pairs, over F_p or Q.

    python3 tools/bench_det.py [--field fp|q] [--route sylvester|euclid|generate] [--out FILE]

It draws the benchmark's M2-shape instance (m = 2, deg r_n = 2^n - 1; see
bench/instances.py) from seed 1 and times one route at each n.  Both fields
draw the same integer coefficients, so they time the same pairs.

The default route, sylvester, times resultant_sylvester(r_n, r_{n-1}), whose
Sylvester matrix has dimension 3 * 2^(n-1) - 2:

    fp   over F_1000003, n = 6..9 (dimensions 94, 190, 382, 766)
    q    over Q, n = 4..6 (dimensions 22, 46, 94)

The euclid route times resultant_euclid(r_n, r_{n-1}) where the Sylvester
route cannot follow, and the generate route times generate(spec, n), which
builds r_0..r_n:

    fp   over F_1000003, n = 8..15 (deg r_n up to 32767)
    q    over Q, n = 6..9 (deg r_n up to 511)

The step tables are drawn up to n = 9, or up to the largest n timed if that
is larger: the draw of the initials follows the steps, so every route that
stops at n <= 9 times the same pairs.

The generate route also times the `deep` workload's M1_D2 instance of seed 1
(m = 1, d = 2, one t-term per step, deg r_n = 2n - 2) at its ladder,
n = 100, 200, 300; over Q the same draw is read over Q.  Every row names its
shape, M2 or M1_D2.

Each row keeps the three runs, their median and the value, so row sets taken
on two commits can be checked for equal values.  A Sylvester value is kept
as it is (over Q as its text).  A Euclid value runs to 10^5 digits over Q,
so it is kept as its bit size and the sha256 of its hex text "num/den"; a
generate value, r_n, as its degree and the sha256 of its coefficient texts
joined by commas, ascending.  The default output file is
BENCH_det_<field>.json for sylvester and BENCH_<route>_<field>.json
otherwise.

Run it from the root of a recres source tree; it imports the package from
the `src/` next to `tools/`.  The row set, with the Python version, the core
count and the git SHA of the tree (and whether `src/` differs from it), is
appended to the runs of the output file, which is created if missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import instances  # noqa: E402
from recres import generate, resultant_euclid, resultant_sylvester  # noqa: E402
from recres.cli import spec_from_json  # noqa: E402

SEED = 1
NAME = "bench-det-fp"  # the draw depends on it; Q keeps it so both fields time the same pairs
N_LAST = 9  # steps drawn at least up to n = 9, so the Sylvester and Q Euclid pairs stay those of earlier runs
SYLVESTER_NS = {"fp": (6, 7, 8, 9), "q": (4, 5, 6)}
LONG_NS = {"fp": tuple(range(8, 16)), "q": (6, 7, 8, 9)}  # the euclid and generate routes
ROUTES = ("sylvester", "euclid", "generate")
REPEATS = 3


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def deep_m1_d2(prime: int | None) -> tuple[instances.Instance, tuple[int, ...]]:
    """The `deep` workload's M1_D2 instance of seed SEED over the given field,
    and the n of its ladder."""
    ops = [op for op in instances.plan("deep", SEED)["fp"] if op.instance.shape == instances.M1_D2]
    return dataclasses.replace(ops[0].instance, prime=prime), tuple(op.n for op in ops)


def measure(route: str, shape: str, inst: instances.Instance, ns: tuple[int, ...]) -> list[dict]:
    spec = spec_from_json(instances.instance_doc(inst, SEED))
    seq = generate(spec, max(ns))
    call = {
        "sylvester": lambda n: resultant_sylvester(seq[n], seq[n - 1]).value,
        "euclid": lambda n: resultant_euclid(seq[n], seq[n - 1]).value,
        "generate": lambda n: generate(spec, n)[n],
    }[route]
    rows = []
    for n in ns:
        runs, value = [], None
        for _ in range(REPEATS):
            start = time.perf_counter()
            value = call(n)
            runs.append(time.perf_counter() - start)
        row = {"shape": shape, "n": n}
        if route == "generate":
            row["degree"] = value.degree()
        else:
            row["dimension"] = seq[n].degree() + seq[n - 1].degree()
        row.update(seconds=statistics.median(runs), runs=runs)
        if route == "sylvester":
            row["value"] = value if isinstance(value, int) else str(value)
        elif route == "euclid":
            # Euclid values reach 10^5 digits over Q: keep their size and a digest
            num, den = value.numerator, value.denominator
            row["value_bits"] = num.bit_length() + den.bit_length()
            row["value_sha256"] = _digest(f"{num:x}/{den:x}")
        else:
            row["value_sha256"] = _digest(",".join(value.to_text()))
        rows.append(row)
        size = f"deg {row['degree']}" if route == "generate" else f"dim={row['dimension']}"
        print(f"{shape} n={n} {size} median {row['seconds']:.3f} s", file=sys.stderr)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--field", choices=SYLVESTER_NS, default="fp")
    parser.add_argument("--route", choices=ROUTES, default="sylvester")
    parser.add_argument("--out", type=Path, help="default BENCH_det_<field>.json or BENCH_<route>_<field>.json")
    args = parser.parse_args()
    ns = (SYLVESTER_NS if args.route == "sylvester" else LONG_NS)[args.field]
    prime = instances.PRIME if args.field == "fp" else None
    stem = "det" if args.route == "sylvester" else args.route
    out = args.out or ROOT / f"BENCH_{stem}_{args.field}.json"
    rows = measure(args.route, "M2", instances.Instance(NAME, prime, instances.M2, max(N_LAST, *ns)), ns)
    if args.route == "generate":
        rows += measure(args.route, "M1_D2", *deep_m1_d2(prime))
    status = _git("status", "--porcelain", "--", "src")
    run = {
        "git_sha": _git("rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "prime": prime,
        "seed": SEED,
        "route": args.route,
        "rows": rows,
    }
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"runs": []}
    doc["runs"].append(run)
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
