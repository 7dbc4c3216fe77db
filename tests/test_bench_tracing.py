"""The traced benchmark run wraps recres functions by name (bench/tracing.py);
a rename in recres must fail here, not only when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import recres.cli  # noqa: F401  -- Tracer.install rebinds names in every loaded recres module

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
