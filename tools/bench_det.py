"""Time one route on seed-fixed pairs, over F_p or Q, on this tree and a parent.

    python3 tools/bench_det.py [--field fp|q] [--route sylvester|euclid|generate|formula] [--parent DIR] [--out FILE]

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
    q    over Q, n = 6..9 (deg r_n up to 511); euclid to n = 10 (1023)

The step tables are drawn up to n = 9, or up to the largest n timed if that
is larger: the draw of the initials follows the steps, so every route that
stops at n <= 9 times the same pairs.  The Q euclid route draws steps to
n = 10, so its pairs differ from those of the Q generate and Sylvester
routes, and from its own rows written before it reached n = 10.

The generate route also times the `deep` workload's M1_D2 instance of seed 1
(m = 1, d = 2, one t-term per step, deg r_n = 2n - 2) at its ladder,
n = 100, 200, 300; over Q the same draw is read over Q.  Every row names its
shape, M2 or M1_D2.

The formula route times `recres resultant --method formula` through
`recres.cli.main`, the instance load included, over F_1000003 only.  Its
rows are the M2 shape at n = 10^3, 10^4 and 10^5, each from a file with
steps to its n, and the `deep` workload's two F_p instances of seed 1 (M1
and M1_D2) at their ladder, n = 100, 200, 300.

Every run is one fresh interpreter on one tree, which reads the instance
from a file, builds what the route takes (r_0..r_n for the two resultant
routes) and times the route call alone.  With --parent DIR (a clone of the
commit to compare with), each row runs the two trees alternately, REPEATS
times each, so that the host's drift falls on both alike; without it only
this tree is timed.  A tree whose median at one n passes BUDGET seconds
skips the larger n of that shape.

Each row keeps its runs, their median and the value, so the row sets of the
two trees can be checked for equal values.  A Sylvester value is kept as it
is (over Q as its text), and a formula value as the command printed it.  A
Euclid value runs to 10^5 digits over Q, so it is kept as its bit size and
the sha256 of its hex text "num/den"; a generate value, r_n, as its degree
and the sha256 of its coefficient texts joined by commas, ascending.

Run it from the root of a recres source tree; every tree is imported from
its own `src/`.  One row set per tree, with the tree's name (parent or
change), the Python version, the core count and the tree's git SHA (and
whether its `src/` differs from it), is appended to the runs of the output
file, which is created if missing: BENCH_det_<field>.json for sylvester and
BENCH_<route>_<field>.json otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import instances  # noqa: E402

SEED = 1
NAME = "bench-det-fp"  # the draw depends on it; Q keeps it so both fields time the same pairs
N_LAST = 9  # steps drawn at least up to n = 9, so the Sylvester and Q Euclid pairs stay those of earlier runs
SYLVESTER_NS = {"fp": (6, 7, 8, 9), "q": (4, 5, 6)}
LONG_NS = {"fp": tuple(range(8, 16)), "q": (6, 7, 8, 9)}  # the generate route
EUCLID_NS = {"fp": LONG_NS["fp"], "q": (6, 7, 8, 9, 10)}
ROUTES = ("sylvester", "euclid", "generate", "formula")
REPEATS = 3
FORMULA_NS = (1000, 10000, 100000)  # the M2 rows of the formula route
# at m = 2 a closed form with exact exponents is quadratic in n: 7-9 s at
# n = 10^4 makes 12-15 minutes at 10^5
BUDGET = 5.0
TIMEOUT = 1800

# One run, in a fresh interpreter: argv is the src/ directory of a tree, the
# route, the instance file and n.  It prints the seconds of the route call
# and the row fields of its value.
_RUN = """
import contextlib, hashlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from recres import generate, resultant_euclid, resultant_sylvester
from recres.cli import main, spec_from_json
route, path, n = sys.argv[2], sys.argv[3], int(sys.argv[4])
def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()
if route == "formula":
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = main(["resultant", path, "--n", str(n), "--method", "formula"])
        seconds = time.perf_counter() - start
    if code:
        sys.exit(f"resultant --n {n} exited {code}")
    fields = {"value": out.getvalue().strip().removeprefix("formula: ")}
else:
    with open(path, encoding="utf-8") as f:
        spec = spec_from_json(json.load(f))
    if route == "generate":
        start = time.perf_counter()
        value = generate(spec, n)[n]
        seconds = time.perf_counter() - start
        fields = {"degree": value.degree(), "value_sha256": digest(",".join(value.to_text()))}
    else:
        seq = generate(spec, n)
        call = resultant_sylvester if route == "sylvester" else resultant_euclid
        start = time.perf_counter()
        value = call(seq[n], seq[n - 1]).value
        seconds = time.perf_counter() - start
        fields = {"dimension": seq[n].degree() + seq[n - 1].degree()}
        if route == "sylvester":
            fields["value"] = value if isinstance(value, int) else str(value)
        else:
            # Euclid values reach 10^5 digits over Q: keep their size and a digest
            num, den = value.numerator, value.denominator
            fields.update(value_bits=num.bit_length() + den.bit_length(), value_sha256=digest(f"{num:x}/{den:x}"))
print(json.dumps({"seconds": seconds, "fields": fields}))
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


def deep_instance(shape: instances.Shape, prime: int | None) -> tuple[instances.Instance, tuple[int, ...]]:
    """The `deep` workload's F_p instance of seed SEED of the given shape, read
    over the given field, and the n of its ladder."""
    ops = [op for op in instances.plan("deep", SEED)["fp"] if op.instance.shape == shape]
    return dataclasses.replace(ops[0].instance, prime=prime), tuple(op.n for op in ops)


def run(tree: Path, route: str, path: Path, n: int) -> tuple[float, dict]:
    """The seconds of one route call on one tree, and the row fields of its value."""
    argv = [sys.executable, "-c", _RUN, str(tree / "src"), route, str(path), str(n)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["seconds"], result["fields"]


def cases(route: str, field: str, prime: int | None) -> list[tuple[str, instances.Instance, int]]:
    """The rows of a route as (shape, instance, n)."""
    if route == "formula":
        # each M2 row reads a file with steps to its own n
        rows = [("M2", instances.Instance(f"bench-formula-fp-{n}", prime, instances.M2, n), n) for n in FORMULA_NS]
        shapes = (("M1", instances.M1), ("M1_D2", instances.M1_D2))
    else:
        ns = {"sylvester": SYLVESTER_NS, "euclid": EUCLID_NS, "generate": LONG_NS}[route][field]
        inst = instances.Instance(NAME, prime, instances.M2, max(N_LAST, *ns))
        rows = [("M2", inst, n) for n in ns]
        shapes = (("M1_D2", instances.M1_D2),) if route == "generate" else ()
    for shape_name, shape in shapes:
        inst, ns = deep_instance(shape, prime)
        rows += [(shape_name, inst, n) for n in ns]
    return rows


def measure(route: str, trees: dict[str, Path], rows: list[tuple[str, instances.Instance, int]]) -> dict[str, list[dict]]:
    """Each tree's rows, the trees run alternately."""
    out: dict[str, list[dict]] = {name: [] for name in trees}
    over: set[tuple[str, str]] = set()  # (tree, shape) whose median passed the budget
    with tempfile.TemporaryDirectory() as tmp:
        for shape, inst, n in rows:
            path = Path(tmp) / f"{inst.name}.json"
            if not path.exists():
                path.write_text(json.dumps(instances.instance_doc(inst, SEED)), encoding="utf-8")
            runs: dict[str, list[float]] = {name: [] for name in trees}
            fields: dict[str, dict] = {}
            for repeat in range(REPEATS):
                for name in list(trees) if repeat % 2 == 0 else list(trees)[::-1]:
                    if (name, shape) not in over:
                        seconds, fields[name] = run(trees[name], route, path, n)
                        runs[name].append(seconds)
            for name in trees:
                row: dict = {"shape": shape, "n": n}
                if (name, shape) in over:
                    row["skipped"] = f"its median at a smaller n passed {BUDGET} s"
                else:
                    row.update(fields[name], seconds=statistics.median(runs[name]), runs=runs[name])
                    if row["seconds"] > BUDGET:
                        over.add((name, shape))
                    print(f"{name} {shape} n={n} median {row['seconds']:.3f} s", file=sys.stderr)
                out[name].append(row)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--field", choices=SYLVESTER_NS, default="fp")
    parser.add_argument("--route", choices=ROUTES, default="sylvester")
    parser.add_argument("--out", type=Path, help="default BENCH_det_<field>.json or BENCH_<route>_<field>.json")
    parser.add_argument("--parent", type=Path, help="the source tree to compare with, run alternately with this one")
    args = parser.parse_args()
    if args.route == "formula" and args.field != "fp":
        parser.error("--route formula runs over F_p only")
    prime = instances.PRIME if args.field == "fp" else None
    stem = "det" if args.route == "sylvester" else args.route
    out = args.out or ROOT / f"BENCH_{stem}_{args.field}.json"
    trees = {"change": ROOT} if args.parent is None else {"parent": args.parent.resolve(), "change": ROOT}
    rows = measure(args.route, trees, cases(args.route, args.field, prime))
    runs = [dict(_run_record(trees[name], prime, args.route, rows[name]), tree=name) for name in trees]
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"runs": []}
    doc["runs"] += runs
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
