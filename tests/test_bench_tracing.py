"""The traced benchmark run wraps recres functions by name (bench/tracing.py);
a rename in recres must fail here, not only when the benchmark runs."""

import importlib
import importlib.util
import json
from pathlib import Path

import recres.cli  # imported up front: Tracer.install rebinds names in every loaded recres module

from helpers import load_instances

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    for _, module_name, attr in tracing.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    originals = [
        (module_name, attr, getattr(importlib.import_module(module_name), attr))
        for _, module_name, attr in tracing.TRACED
        if "." not in attr
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for module_name, attr, original in originals:
        assert getattr(importlib.import_module(module_name), attr) is original


def test_each_command_validates_once(tmp_path):
    """`validate` runs once per command, called by the command itself (the
    traced benchmark's gate), and once per draw in `fuzz`."""
    repo = TRACING.parent.parent
    instance = str(repo / "instances" / "nonlinear_m2.json")
    fuzz_out = tmp_path / "fz"
    commands = {
        "sequence": ["sequence", instance, "--n", "4"],
        "resultant": ["resultant", instance, "--n", "4", "--method", "all"],
        "verify": ["verify", instance, "--n-max", "4"],
        "fuzz": ["fuzz", "--seed", "1", "--count", "3", "--d-max", "1", "--k-max", "2", "--i-max", "2", "--out", str(fuzz_out)],
    }
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        counts = {}
        for name, argv in commands.items():
            first = len(tracer.spans)
            assert recres.cli.main(argv) == 0, name
            counts[name] = tracer.summary(first)["recurrence.validate"]
    finally:
        tracer.uninstall()
    total_draws = json.loads((fuzz_out / "report.json").read_text())["total_draws"]
    assert counts["sequence"]["calls"] == 1
    for name in ("resultant", "verify"):
        assert counts[name]["calls"] == counts[name]["cmd_calls"] == 1, name
    assert counts["fuzz"]["calls"] == counts["fuzz"]["cmd_calls"] == total_draws


def test_q_euclid_runs_through_poly_kernels():
    """Over Q, `resultant --method euclid` reaches `Poly.__mul__` (in
    `generate`) and `Poly.divrem` (in Euclid), the layers the traced
    benchmark requires to be called."""
    instance = str(TRACING.parent.parent / "instances" / "nonlinear_m2.json")
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert recres.cli.main(["resultant", instance, "--n", "5", "--method", "euclid"]) == 0
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert summary["poly.divrem"]["calls"] > 0
    assert summary["poly.mul"]["calls"] > 0


def test_fp_euclid_on_the_deep_instance_runs_through_divrem(tmp_path):
    """Over F_p, Euclid packs its linear steps and leaves `Poly.divrem` only
    the longer quotients: on the `deep` workload's M1_D2 instance the first
    step of each rung has quotient degree 2, so the traced benchmark's
    `poly.divrem` gate still sees calls."""
    instances = load_instances()
    op = next(op for op in instances.plan("deep", 1)["fp"] if op.instance.shape == instances.M1_D2)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(instances.instance_doc(op.instance, 1)))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert recres.cli.main(["resultant", str(path), "--n", str(op.n), "--method", "euclid"]) == 0
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert summary["resultant.resultant_euclid"]["calls"] == 1
    assert summary["poly.divrem"]["calls"] > 0


def test_fp_generate_on_the_deep_instances_multiplies_once_per_step(tmp_path):
    """Over F_p at m = 1, `step` multiplies the summed multiplier of r_{n-1}
    by r_{n-1} once, through `Poly.__mul__`, and the packed Euclid steps and
    `Poly.divrem` make no `Poly` product: on both `deep` F_p instances the
    traced benchmark's `poly.mul` gate sees exactly one call per step."""
    instances = load_instances()
    ops = instances.plan("deep", 1)["fp"]
    tracing = load_tracing()
    for shape in (instances.M1, instances.M1_D2):
        op = next(op for op in ops if op.instance.shape == shape)
        path = tmp_path / f"{op.instance.name}.json"
        path.write_text(json.dumps(instances.instance_doc(op.instance, 1)))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert recres.cli.main(["resultant", str(path), "--n", str(op.n), "--method", "euclid"]) == 0
            summary = tracer.summary()
        finally:
            tracer.uninstall()
        steps = summary["recurrence.step"]["calls"]
        assert steps == op.n - shape.d
        assert summary["poly.mul"]["calls"] == steps > 0, shape
