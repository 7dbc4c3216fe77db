"""Benchmark of the recres command line over F_p and Q.

    python3 bench/run.py --workload verify|deep|fuzz --seed N --seconds S --trace 0|1

Run it from the root of a recres source tree; it imports the package from
the `src/` next to `bench/`.  Each workload drives the commands a user types (`verify`,
`resultant`, `fuzz`) through `recres.cli.main`, in this process and thread,
one operation after another.  The instances are drawn from the seed during
set-up (see `instances.py`), so the program only ever reads generated files.
An operation is a verify record, a deep (instance, n) pair, a fuzz instance,
or the replay of a fuzz command's first dumped instance.

The timed units are commands: one `verify`, the formula and euclid
`resultant` pair at one n, or one `fuzz` with its replay.  Each field's
timed units form a pass.  Passes repeat, the field with less time
spent going next, until each field has had its half of --seconds and at least
MIN_PASSES passes.  Outputs are checked after they are timed: an operation
fails if a command raises, exits non-zero or disagrees, and a failure is
recorded, never fatal.  `attempted` and `failed` count each operation once,
however many passes ran, and an operation fails if it failed in any pass, so
both depend only on the seed and the program, not on the machine's speed.  `correct` is false only if a result disagrees (or
the trace or the sizes break); failures that are crashes show in `failed`.

Times are scaled to one reference speed: a fixed kernel is timed before and
after every timed unit, and the unit's time is multiplied by
`reference.scale` of the two kernel times (see `reference.py`).
Unscaled times are kept in the run record.

With --trace 0 the last line reports the end-to-end metrics:

    setup_s       median scaled time of SETUP_REPEATS fresh interpreters
                  that import recres and draw and write the instances
    fp.wall_s     sum over the field's timed units of each one's median
                  scaled time over the passes
    q.wall_s
    peak_rss_mib  peak resident memory of this process after the passes
    ok_share      share of the operations that did not fail

With --trace 1 every other pass runs with spans around the public functions
of each recres module (see `tracing.py`) and the last line reports per-layer
metrics, `size.*` values computed after the passes, and `trace.overhead_s`,
the traced minus the untraced `wall_s`.  A full record of the run (run
metadata, per-operation times, failures, every traced layer) is written to
bench/results/, and the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import instances
import reference
from instances import Op
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
RESULTS = BENCH_DIR / "results"
CONFIRM_SEED = 7  # confirm a claimed gain on this seed too, one not used while writing the change
SETUP_REPEATS = 15
MIN_PASSES = 3  # per field; a traced run alternates plain and traced passes, at least 2 of each
FIELDS = ("fp", "q")
VERIFY_FLAGS = ("match", "degree_match", "leading_match", "constant_match")
MISMATCH = 4  # the CLI's exit code for a disagreement, e.g. a generated degree that contradicts the closed form

# Per-layer metrics, each reported as fp.<name> and q.<name>: <layer>.s for
# the TIMED layers and <layer>.calls for the COUNTED ones.  Every workload
# calls all of them on both fields, so a traced run in which one reads zero
# calls has a broken trace and fails.
TIMED = (
    "cli.load_instance",
    "recurrence.validate",
    "recurrence.generate",
    "closedform.resultant_formula",
    "resultant.resultant_sylvester",
    "resultant.resultant_euclid",
    "poly.mul",
    "poly.divrem",
)
COUNTED = TIMED + ("closedform.degree_formula",)


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------


class _Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    wrong: int = 0  # failures that are disagreements, not crashes
    reasons: list[str] = field(default_factory=list)

    def fail_all(self, reason: str, code: int | None) -> None:
        self.failed = self.attempted
        if code == MISMATCH:
            self.wrong = self.attempted
        self.reasons.append(reason)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


Result = tuple[int | None, str | None]  # (exit code, None) or (None, "ExceptionType: message")


class Runner:
    """Runs the commands of one operation through `recres.cli.main`."""

    def __init__(self, cli_main, inputs: Path, outputs: Path):
        self.cli_main = cli_main
        self.inputs = inputs
        self.outputs = outputs
        self.sink = _Discard()

    def _cli(self, argv: list[str]) -> tuple[Result, float]:
        """One command and its wall time."""
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            start = time.perf_counter()
            try:
                result = self.cli_main(argv), None
            except SystemExit as exc:
                result = (exc.code if isinstance(exc.code, int) else 2), None
            except Exception as exc:  # the operation failed; record it and go on
                result = None, f"{type(exc).__name__}: {str(exc)[:60]}"
            return result, time.perf_counter() - start

    def paths(self, op: Op) -> list[Path]:
        """The outputs `op` writes; cleared before it runs."""
        if op.kind == "verify":
            return [self.outputs / f"{op.label}.verify.json"]
        if op.kind == "deep":
            return [self.outputs / f"{op.label}.{method}.json" for method in ("formula", "euclid")]
        return [self.outputs / op.label, self.outputs / f"{op.label}.replay.json"]

    def clear(self, op: Op) -> None:
        for path in self.paths(op):
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)

    def execute(self, op: Op) -> tuple[list[Result], float]:
        """The operation's commands, and the time they took together."""
        outs = self.paths(op)
        if op.kind != "fuzz":
            path = str(instances.instance_path(self.inputs, op.instance))
            if op.kind == "verify":
                commands = [["verify", path, "--n-max", str(op.n), "--json", str(outs[0])]]
            else:
                commands = [
                    ["resultant", path, "--n", str(op.n), "--method", method, "--json", str(out)]
                    for method, out in zip(("formula", "euclid"), outs)
                ]
            timed = [self._cli(argv) for argv in commands]
            return [r for r, _ in timed], sum(t for _, t in timed)
        argv = ["fuzz", "--seed", str(op.fuzz_seed), "--count", str(op.n), "--out", str(outs[0])]
        if op.field == "q":
            argv += ["--field", "rational"]
        result, seconds = self._cli(argv + list(op.fuzz_bounds))
        # replay the first dumped instance, as a user would a reported one
        report = _read_json(outs[0] / "report.json")
        if not report or not report["instances"]:
            return [result, (None, "NoReport")], seconds
        first = report["instances"][0]
        replay = ["verify", str(outs[0] / first["path"]), "--n-max", str(first["n_range"][1]), "--json", str(outs[1])]
        replayed, replay_seconds = self._cli(replay)
        return [result, replayed], seconds + replay_seconds

    def check(self, op: Op, results: list[Result]) -> Outcome:
        outs = self.paths(op)
        if op.kind == "deep":
            out = Outcome(1)
            values = []
            for method, (code, exc), path in zip(("formula", "euclid"), results, outs):
                doc = _read_json(path) if exc is None and code == 0 else None
                if exc is not None:
                    out.reasons.append(f"{method} raised {exc}")
                elif code != 0:
                    out.wrong = max(out.wrong, int(code == MISMATCH))
                    out.reasons.append(f"{method} exit {code}")
                elif doc is None:
                    out.reasons.append(f"{method} wrote no report")
                else:
                    values.append(doc["values"][method])
            if not out.reasons and values[0] != values[1]:
                out.wrong = 1
                out.reasons.append("formula and euclid disagree")
            out.failed = 1 if out.reasons else 0
            return out
        code, exc = results[0]
        if op.kind == "verify":
            out = Outcome(op.n - op.instance.shape.d)
            doc = _read_json(outs[0]) if exc is None else None
            items = None if doc is None else doc["records"]
            bad = [] if items is None else [r for r in items if not all(r[flag] for flag in VERIFY_FLAGS)]
            describe = [f"n={r['n']} disagrees" for r in bad]
        else:
            out = Outcome(op.n + 1)  # the instances and the replay
            doc = _read_json(outs[0] / "report.json") if exc is None else None
            items = None if doc is None else doc["instances"]
            bad = [] if items is None else [inst for inst in items if not inst["all_match"]]
            describe = [f"instance {inst['index']} disagrees" for inst in bad]
            if items:
                (replay_code, replay_exc), replay = results[1], _read_json(outs[1])
                if replay_exc is not None or replay_code != 0 or replay is None:
                    bad.append("replay")
                    describe.append(f"replay of instance 0 failed: exit {replay_code}, {replay_exc}")
                elif replay["records"] != items[0]["records"]:
                    bad.append("replay")
                    describe.append("replay of instance 0 gives other records than the fuzz report")
            items = None if items is None else items + ["replay"]
        if exc is not None:
            out.fail_all(f"raised {exc}", None)
        elif items is None:
            out.fail_all(f"exit {code}, no report", code)
        else:
            out.wrong = len(bad)
            out.failed = len(bad) + max(0, out.attempted - len(items))
            out.reasons += describe
            if code != 0 and out.failed == 0:
                out.fail_all(f"exit {code}", code)
        return out


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class FieldRun:
    ops: list[Op]
    times: dict[str, list[list[float]]] = field(default_factory=dict)  # mode -> per pass, per-op seconds
    scales: dict[str, list[list[float]]] = field(default_factory=dict)  # same shape, reference scale factors
    layers: list[dict] = field(default_factory=list)  # one summary per traced pass
    spent: float = 0.0
    last: float = 0.0
    passes: int = 0
    outcomes: dict[str, Outcome] = field(default_factory=dict)  # op label -> its worst pass
    failures: dict[tuple[str, str], int] = field(default_factory=dict)

    def wants_pass(self, budget: float, min_passes: int) -> bool:
        return self.passes < min_passes or self.spent + self.last <= budget

    def record(self, op: Op, out: Outcome) -> None:
        seen = self.outcomes.setdefault(op.label, Outcome(out.attempted))
        seen.failed = max(seen.failed, out.failed)
        seen.wrong = max(seen.wrong, out.wrong)

    @property
    def attempted(self) -> int:
        return sum(out.attempted for out in self.outcomes.values())

    @property
    def failed(self) -> int:
        return sum(out.failed for out in self.outcomes.values())

    @property
    def wrong(self) -> int:
        return sum(out.wrong for out in self.outcomes.values())

    def wall(self, mode: str, scaled: bool = True) -> float:
        """Sum over operations of each one's median time over the passes,
        scaled to the reference speed unless `scaled` is false."""
        passes = self.times[mode]
        if scaled:
            passes = [[t * k for t, k in zip(ts, ks)] for ts, ks in zip(passes, self.scales[mode])]
        return sum(statistics.median(ts) for ts in zip(*passes))


def run_pass(runner: Runner, run: FieldRun, tracer: Tracer | None) -> None:
    gc.collect()
    first = 0 if tracer is None else len(tracer.spans)
    times = []
    outcomes = []
    kernel = [reference.kernel_seconds()]  # before and after each operation
    try:
        if tracer is not None:
            tracer.install()
        for op in run.ops:
            runner.clear(op)
            if tracer is not None:
                tracer.op = f"{op.label}#{run.passes}"
            results, seconds = runner.execute(op)
            times.append(seconds)
            outcomes.append((op, results))
            kernel.append(reference.kernel_seconds())
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op, results in outcomes:
        out = runner.check(op, results)
        run.record(op, out)
        for reason in out.reasons:
            key = (op.label, reason)
            run.failures[key] = run.failures.get(key, 0) + 1
    mode = "plain" if tracer is None else "traced"
    scales = [reference.scale(a, b) for a, b in zip(kernel, kernel[1:])]
    run.times.setdefault(mode, []).append(times)
    run.scales.setdefault(mode, []).append(scales)
    if tracer is not None:
        scale = statistics.median(scales)
        summary = tracer.summary(first)
        for row in summary.values():
            row["s"] *= scale
            row["self_s"] *= scale
        run.layers.append(summary)
    run.last = sum(times)
    run.spent += run.last
    run.passes += 1


def run_fields(runner: Runner, plan: dict[str, list[Op]], seconds: float, tracer: Tracer | None) -> dict[str, FieldRun]:
    runs = {f: FieldRun(plan[f]) for f in FIELDS}
    budget = seconds / len(runs)
    min_passes = MIN_PASSES if tracer is None else 4
    while True:
        todo = [r for r in runs.values() if r.wants_pass(budget, min_passes)]
        if not todo:
            return runs
        run = min(todo, key=lambda r: r.spent)
        traced = tracer is not None and run.passes % 2 == 1
        run_pass(runner, run, tracer if traced else None)


# ---------------------------------------------------------------------------
# sizes, computed after the passes with the library
# ---------------------------------------------------------------------------


def _bits(scalar) -> int:
    v = scalar.value
    if isinstance(v, int):
        return v.bit_length()
    return max(abs(v.numerator).bit_length(), v.denominator.bit_length())


def measure_sizes(runner: Runner, ops: list[Op], skipped: list[str]) -> dict[str, int]:
    """Exact sizes of the inputs the resultant routes received: the largest
    deg r_n, Sylvester dimension, coefficient and result bit length.  An
    instance the library cannot generate is left out and named in `skipped`;
    the timed commands have counted that failure already."""
    from recres.cli import load_instance
    from recres.recurrence import generate
    from recres.resultant import resultant_euclid

    cases: dict[str, list[tuple[int, bool]]] = {}  # instance file -> (n, Sylvester ran)
    for op in ops:
        if op.kind == "fuzz":
            out_dir = runner.paths(op)[0]
            report = _read_json(out_dir / "report.json") or {"instances": []}  # a failed run is counted already
            for inst in report["instances"]:
                lo, hi = inst["n_range"]
                cases[str(out_dir / inst["path"])] = [(n, True) for n in range(lo, hi + 1)]
        else:
            path = str(instances.instance_path(runner.inputs, op.instance))
            lo = op.n if op.kind == "deep" else op.instance.shape.d + 1
            cases.setdefault(path, []).extend((n, op.kind == "verify") for n in range(lo, op.n + 1))
    sizes = dict.fromkeys(("degree_max", "sylvester_dim_max", "coeff_bits_max", "result_bits_max"), 0)
    for path, wanted in cases.items():
        try:
            spec = load_instance(path)
            seq = generate(spec, max(n for n, _ in wanted))
        except Exception as exc:
            skipped.append(f"{Path(path).name}: {type(exc).__name__}: {exc}")
            continue
        d = spec.d
        # the closed form takes R_d = Res(r_d, r_{d-1}) from a Sylvester determinant
        dims = [seq[d].degree() + seq[d - 1].degree()]
        for n, sylvester in wanted:
            a, b = seq[n], seq[n - 1]
            sizes["degree_max"] = max(sizes["degree_max"], a.degree())
            if sylvester:
                dims.append(a.degree() + b.degree())
            coeff = max(_bits(c) for poly in (a, b) for c in poly.coeffs)
            sizes["coeff_bits_max"] = max(sizes["coeff_bits_max"], coeff)
            sizes["result_bits_max"] = max(sizes["result_bits_max"], _bits(resultant_euclid(a, b)))
        sizes["sylvester_dim_max"] = max(sizes["sylvester_dim_max"], *dims)
    return sizes


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure_setup(args, root: Path, inputs: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import recres and draw and
    write the workload's instances, scaled like an operation's and unscaled."""
    argv = [
        sys.executable, str(BENCH_DIR / "instances.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--out", str(inputs),
    ]
    samples, unscaled = [], []
    kernel = reference.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in sleeps of up to 50 ms,
        # which would round every sample up to that grid
        subprocess.run(argv, cwd=root, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = reference.kernel_seconds()
        samples.append(elapsed * reference.scale(kernel, after))
        unscaled.append(elapsed)
        kernel = after
    return samples, unscaled


def check_sizes(workload: str, seed: int, sizes: dict) -> str | None:
    """Sizes must repeat exactly between runs of one seed (and one version of
    instances.py, which decides the inputs)."""
    digest = hashlib.sha256((BENCH_DIR / "instances.py").read_bytes()).hexdigest()[:12]
    path = RESULTS / f"sizes-{workload}-s{seed}-{digest}.json"
    previous = _read_json(path)
    if previous is not None and previous != sizes:
        return f"sizes differ from an earlier run of this seed: {previous} != {sizes}"
    path.write_text(json.dumps(sizes, sort_keys=True) + "\n", encoding="utf-8")
    return None


def layer_metrics(workload: str, name: str, run: FieldRun, problems: list[str]) -> dict[str, float]:
    """fp./q. per-layer values: times are medians over the traced passes,
    counts are per pass and must repeat exactly across traced passes."""
    layers = run.layers
    calls = {layer: [p[layer]["calls"] for p in layers] for layer in layers[0]}
    for layer, counts in calls.items():
        if len(set(counts)) != 1:
            problems.append(f"{name}: {layer} call counts differ between passes: {counts}")
    required = COUNTED + (() if workload == "deep" else ("cli.verify_records",))
    for layer in required:
        if calls[layer][0] == 0:
            problems.append(f"traced run failed: {layer} never called on {workload}/{name}")
    validate = layers[0]["recurrence.validate"]
    if not validate["cmd_calls"]:
        problems.append(f"traced run failed: no command called validate on {workload}/{name}")
    out = {f"{layer}.s": statistics.median(p[layer]["s"] for p in layers) for layer in TIMED}
    out["cli.self_s"] = statistics.median(sum(row["self_s"] for layer, row in p.items() if layer.startswith("cli.")) for p in layers)
    out.update({f"{layer}.calls": calls[layer][0] for layer in COUNTED})
    out["recurrence.validate.accept_ratio"] = validate["cmd_ok"] / validate["cmd_calls"] if validate["cmd_calls"] else 0.0
    return out


def ok_share(runs) -> float:
    """Share of the operations, over both fields, that did not fail."""
    return 1 - sum(r.failed for r in runs) / sum(r.attempted for r in runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=instances.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = instances.SRC
    root = src.parent
    if not (src / "recres" / "__init__.py").is_file():
        print(f"error: no recres package under {src}; keep bench/ in a recres source tree", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = BENCH_DIR / "_work" / tag
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        setup, setup_unscaled = measure_setup(args, root, work / "inputs")
        sys.path.insert(0, str(src))
        import recres.cli

        if Path(recres.cli.__file__).resolve().parent != (src / "recres").resolve():
            print(f"error: imported recres from {recres.cli.__file__}, not {src}", file=sys.stderr)
            return 2
        runner = Runner(recres.cli.main, work / "inputs", work / "out")
        tracer = Tracer() if args.trace else None
        plan = instances.plan(args.workload, args.seed)
        runs = run_fields(runner, plan, args.seconds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems: list[str] = []
        skipped: list[str] = []
        sizes = {name: measure_sizes(runner, plan[name], skipped) for name in FIELDS}
        problem = None if skipped else check_sizes(args.workload, args.seed, sizes)
        if problem:
            problems.append(problem)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in runs.values())
    failed = sum(r.failed for r in runs.values())
    wrong = sum(r.wrong for r in runs.values())
    if args.trace:
        metrics = {}
        for name, run in runs.items():
            values = layer_metrics(args.workload, name, run, problems)
            values.update({f"size.{key}": value for key, value in sizes[name].items()})
            values["trace.overhead_s"] = run.wall("traced") - run.wall("plain")
            for key, value in values.items():
                metrics[f"{name}.{key}"] = {"value": value, "unit": _unit(key)}
        tracer.write(RESULTS / f"{tag}.spans.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "fp.wall_s": {"value": runs["fp"].wall("plain"), "unit": "s"},
            "q.wall_s": {"value": runs["q"].wall("plain"), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "ok_share": {"value": ok_share(runs.values()), "unit": "share"},
        }
    failures = [
        {"field": name, "op": label, "reason": reason, "times": count}
        for name, run in runs.items()
        for (label, reason), count in sorted(run.failures.items())
    ]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "setup_s_samples": setup,
        "setup_s_unscaled_samples": setup_unscaled,
        "peak_rss_mib": peak_rss_mib,
        "sizes": sizes,
        "sizes_skipped": skipped,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
        "problems": problems,
        "fields": {name: _field_record(run) for name, run in runs.items()},
        "metrics": metrics,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, run in runs.items():
        modes = ", ".join(f"{mode} wall {run.wall(mode):.3f} s ({run.wall(mode, scaled=False):.3f} s unscaled)" for mode in run.times)
        print(f"{name}: {len(run.ops)} ops x {run.passes} passes; {modes}")
    for item in failures:
        print(f"failed {item['times']}x: {item['field']} {item['op']}: {item['reason']}")
    for item in skipped:
        print(f"sizes skipped: {item}")
    for problem in problems:
        print(f"problem: {problem}")
    result = {"correct": wrong == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _unit(key: str) -> str:
    if key.endswith(".calls") or key in ("size.degree_max", "size.sylvester_dim_max"):
        return "count"
    if key.startswith("size."):
        return "bit"
    if key.endswith("accept_ratio"):
        return "share"
    return "s"


def _field_record(run: FieldRun) -> dict:
    doc = {
        "passes": run.passes,
        "attempted": run.attempted,
        "failed": run.failed,
        "op_times": {mode: {op.label: list(ts) for op, ts in zip(run.ops, zip(*passes))} for mode, passes in run.times.items()},
        "wall_s": {mode: run.wall(mode) for mode in run.times},
        "unscaled_wall_s": {mode: run.wall(mode, scaled=False) for mode in run.times},
        "op_scales": {mode: {op.label: list(ks) for op, ks in zip(run.ops, zip(*passes))} for mode, passes in run.scales.items()},
    }
    if run.layers:
        wall = run.wall("traced")
        doc["layers"] = {
            layer: {key: statistics.median(p[layer][key] for p in run.layers) for key in ("s", "self_s")}
            | {"calls": run.layers[0][layer]["calls"]}
            for layer in run.layers[0]
        }
        doc["share_of_wall"] = {layer: row["s"] / wall for layer, row in doc["layers"].items()}
    return doc


if __name__ == "__main__":
    sys.exit(main())
