"""Time the F_p Sylvester determinant on seed-fixed M2-shape pairs.

    python3 tools/bench_det.py [--out BENCH_det_fp.json]

For each n it draws the benchmark's M2-shape instance (m = 2,
deg r_n = 2^n - 1; see bench/instances.py) over F_1000003 from seed 1,
generates r_n and r_{n-1}, and times resultant_sylvester(r_n, r_{n-1}),
whose Sylvester matrix has dimension 3 * 2^(n-1) - 2 (94, 190, 382 and 766
for n = 6..9).  Each row keeps the three runs, their median and the value, so
row sets taken on two commits can be checked for equal values.

Run it from the root of a recres source tree; it imports the package from
the `src/` next to `tools/`.  The row set, with the Python version, the core
count and the git SHA of the tree (and whether `src/` differs from it), is
appended to the runs of the output file, which is created if missing.
"""

from __future__ import annotations

import argparse
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
from recres import generate, resultant_sylvester  # noqa: E402
from recres.cli import spec_from_json  # noqa: E402

SEED = 1
NS = (6, 7, 8, 9)
REPEATS = 3


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure() -> list[dict]:
    inst = instances.Instance("bench-det-fp", instances.PRIME, instances.M2, max(NS))
    seq = generate(spec_from_json(instances.instance_doc(inst, SEED)), inst.n_last)
    rows = []
    for n in NS:
        f, g = seq[n], seq[n - 1]
        runs, value = [], None
        for _ in range(REPEATS):
            start = time.perf_counter()
            value = resultant_sylvester(f, g).value
            runs.append(time.perf_counter() - start)
        rows.append({
            "n": n,
            "dimension": f.degree() + g.degree(),
            "seconds": statistics.median(runs),
            "runs": runs,
            "value": value,
        })
        print(f"n={n} dim={rows[-1]['dimension']} median {rows[-1]['seconds']:.3f} s", file=sys.stderr)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_det_fp.json")
    args = parser.parse_args()
    status = _git("status", "--porcelain", "--", "src")
    run = {
        "git_sha": _git("rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "prime": instances.PRIME,
        "seed": SEED,
        "rows": measure(),
    }
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {"runs": []}
    doc["runs"].append(run)
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
