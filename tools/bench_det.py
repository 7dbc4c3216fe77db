"""Time one route on seed-fixed M2-shape pairs, over F_p or Q.

    python3 tools/bench_det.py [--field fp|q] [--route sylvester|euclid|generate] [--out FILE]
    python3 tools/bench_det.py --route formula --parent DIR [--out FILE]

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

The formula route times `recres resultant --method formula` through
`recres.cli.main`, the instance load included, in a fresh interpreter per
run, on two source trees: this one and the one given by --parent (a clone
of the commit to compare with).  Its rows are the M2 shape over F_1000003
at n = 10^3, 10^4 and 10^5, each from a file with steps to its n, and the
`deep` workload's two F_p instances of seed 1 (M1 and M1_D2) at their
ladder, n = 100, 200, 300.  Each row runs the two trees alternately, so
that the host's drift falls on both alike, and keeps the printed value.  A
tree whose median at one n passes FORMULA_BUDGET seconds skips the larger
n of that shape.  It appends one row set per tree to BENCH_formula_fp.json:

    python3 tools/bench_det.py --route formula --parent DIR

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
import tempfile
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
ROUTES = ("sylvester", "euclid", "generate", "formula")
REPEATS = 3
FORMULA_NS = (1000, 10000, 100000)  # the M2 rows of the formula route
# at m = 2 a closed form with exact exponents is quadratic in n: 7-9 s at
# n = 10^4 makes 12-15 minutes at 10^5
FORMULA_BUDGET = 5.0
FORMULA_TIMEOUT = 1800

# One run of the formula route, in a fresh interpreter: argv is the src/
# directory of a tree, the instance file and n.
_FORMULA_RUN = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from recres.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    start = time.perf_counter()
    code = main(["resultant", sys.argv[2], "--n", sys.argv[3], "--method", "formula"])
    seconds = time.perf_counter() - start
print(json.dumps({"code": code, "seconds": seconds, "output": out.getvalue()}))
"""


def _git(*args: str, root: Path = ROOT) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _run_record(root: Path, prime: int | None, route: str, rows: list[dict]) -> dict:
    status = _git("status", "--porcelain", "--", "src", root=root)
    return {
        "git_sha": _git("rev-parse", "HEAD", root=root),
        "src_modified": None if status is None else bool(status),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "prime": prime,
        "seed": SEED,
        "route": route,
        "rows": rows,
    }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def deep_instance(shape: instances.Shape, prime: int | None) -> tuple[instances.Instance, tuple[int, ...]]:
    """The `deep` workload's F_p instance of seed SEED of the given shape, read
    over the given field, and the n of its ladder."""
    ops = [op for op in instances.plan("deep", SEED)["fp"] if op.instance.shape == shape]
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


def run_formula(tree: Path, path: Path, n: int) -> tuple[float, str]:
    """The time of one formula command on one tree, and the value it printed."""
    argv = [sys.executable, "-c", _FORMULA_RUN, str(tree / "src"), str(path), str(n)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=FORMULA_TIMEOUT, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["code"] != 0:
        raise RuntimeError(f"{tree}: resultant --n {n} exited {result['code']}")
    return result["seconds"], result["output"].strip().removeprefix("formula: ")


def measure_formula(trees: dict[str, Path]) -> dict[str, list[dict]]:
    """The formula route's rows for each tree, the trees run alternately."""
    # each M2 row reads a file with steps to its own n; the `deep` rows read
    # the workload's files, with steps to 300
    cases = [("M2", instances.Instance(f"bench-formula-fp-{n}", instances.PRIME, instances.M2, n), n) for n in FORMULA_NS]
    for shape_name, shape in (("M1", instances.M1), ("M1_D2", instances.M1_D2)):
        inst, ns = deep_instance(shape, instances.PRIME)
        cases += [(shape_name, inst, n) for n in ns]
    rows: dict[str, list[dict]] = {name: [] for name in trees}
    over: set[tuple[str, str]] = set()  # (tree, shape) whose median passed the budget
    with tempfile.TemporaryDirectory() as tmp:
        for shape, inst, n in cases:
            path = Path(tmp) / f"{inst.name}.json"
            if not path.exists():
                path.write_text(json.dumps(instances.instance_doc(inst, SEED)), encoding="utf-8")
            runs: dict[str, list[float]] = {name: [] for name in trees}
            values: dict[str, str] = {}
            for repeat in range(REPEATS):
                for name in list(trees) if repeat % 2 == 0 else list(trees)[::-1]:
                    if (name, shape) not in over:
                        seconds, values[name] = run_formula(trees[name], path, n)
                        runs[name].append(seconds)
            for name in trees:
                row: dict = {"shape": shape, "n": n}
                if (name, shape) in over:
                    row["skipped"] = f"its median at a smaller n passed {FORMULA_BUDGET} s"
                else:
                    row.update(seconds=statistics.median(runs[name]), runs=runs[name], value=values[name])
                    if row["seconds"] > FORMULA_BUDGET:
                        over.add((name, shape))
                    print(f"{name} {shape} n={n} median {row['seconds']:.3f} s", file=sys.stderr)
                rows[name].append(row)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--field", choices=SYLVESTER_NS, default="fp")
    parser.add_argument("--route", choices=ROUTES, default="sylvester")
    parser.add_argument("--out", type=Path, help="default BENCH_det_<field>.json or BENCH_<route>_<field>.json")
    parser.add_argument("--parent", type=Path, help="the source tree to compare with (formula route only)")
    args = parser.parse_args()
    if (args.route == "formula") != (args.parent is not None) or (args.route == "formula" and args.field != "fp"):
        parser.error("--parent goes with --route formula, which runs over F_p only")
    prime = instances.PRIME if args.field == "fp" else None
    stem = "det" if args.route == "sylvester" else args.route
    out = args.out or ROOT / f"BENCH_{stem}_{args.field}.json"
    if args.route == "formula":
        trees = {"parent": args.parent.resolve(), "change": ROOT}
        runs = [dict(_run_record(trees[name], prime, args.route, rows), tree=name) for name, rows in measure_formula(trees).items()]
    else:
        ns = (SYLVESTER_NS if args.route == "sylvester" else LONG_NS)[args.field]
        rows = measure(args.route, "M2", instances.Instance(NAME, prime, instances.M2, max(N_LAST, *ns)), ns)
        if args.route == "generate":
            rows += measure(args.route, "M1_D2", *deep_instance(instances.M1_D2, prime))
        runs = [_run_record(ROOT, prime, args.route, rows)]
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"runs": []}
    doc["runs"] += runs
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
