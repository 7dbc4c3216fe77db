"""Time a resultant route on seed-fixed M2-shape pairs, over F_p or Q.

    python3 tools/bench_det.py [--field fp|q] [--route sylvester|euclid] [--out FILE]

It draws the benchmark's M2-shape instance (m = 2, deg r_n = 2^n - 1; see
bench/instances.py) from seed 1, generates r_n and r_{n-1} for each n, and
times one route on the pair.  The default route, sylvester, times
resultant_sylvester(r_n, r_{n-1}), whose Sylvester matrix has dimension
3 * 2^(n-1) - 2.  Both fields draw the same integer coefficients, so the
pairs are the same:

    fp   over F_1000003, n = 6..9 (dimensions 94, 190, 382, 766)
    q    over Q, n = 4..6 (dimensions 22, 46, 94)

The euclid route times resultant_euclid(r_n, r_{n-1}) on the same pairs
over Q at n = 6..9, where the Sylvester route cannot go past n = 6.  Its
values run to 10^5 digits, so its rows keep the value's bit size and the
sha256 of its hex text "num/den" in place of the value.  The default output
file is BENCH_det_<field>.json for sylvester and BENCH_euclid_<field>.json
for euclid.

Each row keeps the three runs, their median and the value (over Q as its
text), so row sets taken on two commits can be checked for equal values.

Run it from the root of a recres source tree; it imports the package from
the `src/` next to `tools/`.  The row set, with the Python version, the core
count and the git SHA of the tree (and whether `src/` differs from it), is
appended to the runs of the output file, which is created if missing.
"""

from __future__ import annotations

import argparse
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
N_LAST = 9  # steps drawn up to n = 9 in both fields, so the initials are drawn alike
FIELDS = {"fp": (instances.PRIME, (6, 7, 8, 9)), "q": (None, (4, 5, 6))}
ROUTES = {"sylvester": resultant_sylvester, "euclid": resultant_euclid}
EUCLID_NS = (6, 7, 8, 9)  # over Q only
REPEATS = 3


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure(route, prime: int | None, ns: tuple[int, ...]) -> list[dict]:
    inst = instances.Instance(NAME, prime, instances.M2, N_LAST)
    seq = generate(spec_from_json(instances.instance_doc(inst, SEED)), max(ns))
    rows = []
    for n in ns:
        f, g = seq[n], seq[n - 1]
        runs, value = [], None
        for _ in range(REPEATS):
            start = time.perf_counter()
            value = route(f, g).value
            runs.append(time.perf_counter() - start)
        row = {"n": n, "dimension": f.degree() + g.degree(), "seconds": statistics.median(runs), "runs": runs}
        if route is resultant_sylvester:
            row["value"] = value if isinstance(value, int) else str(value)
        else:
            # Euclid values reach 10^5 digits: keep their size and a digest
            num, den = value.numerator, value.denominator
            row["value_bits"] = num.bit_length() + den.bit_length()
            row["value_sha256"] = hashlib.sha256(f"{num:x}/{den:x}".encode()).hexdigest()
        rows.append(row)
        print(f"n={n} dim={rows[-1]['dimension']} median {rows[-1]['seconds']:.3f} s", file=sys.stderr)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--field", choices=FIELDS, default="fp")
    parser.add_argument("--route", choices=ROUTES, default="sylvester")
    parser.add_argument("--out", type=Path, help="default BENCH_det_<field>.json or BENCH_euclid_<field>.json")
    args = parser.parse_args()
    prime, ns = FIELDS[args.field]
    if args.route == "euclid":
        if args.field != "q":
            parser.error("--route euclid is timed over --field q only")
        ns = EUCLID_NS
    stem = "det" if args.route == "sylvester" else args.route
    out = args.out or ROOT / f"BENCH_{stem}_{args.field}.json"
    status = _git("status", "--porcelain", "--", "src")
    run = {
        "git_sha": _git("rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "prime": prime,
        "seed": SEED,
        "route": args.route,
        "rows": measure(ROUTES[args.route], prime, ns),
    }
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"runs": []}
    doc["runs"].append(run)
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
