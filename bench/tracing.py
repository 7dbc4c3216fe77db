"""Spans around the public functions of each recres module, for the
benchmark's traced run.

`Tracer.install` replaces each traced function by a wrapper under every
name a recres module holds it by: `validate` is imported by name into
`cli` and `closedform`, `generate` imports `degree_formula` lazily from
`closedform` at each call, and `Poly.__rmul__` is the same function as
`Poly.__mul__`.  A name left unbound would let nested calls escape the
trace, so `install` also checks that no recres namespace still holds an
original.

`recres.field` is not traced: its Scalar methods run millions of times per
operation, so a wrapper would mostly time itself.

Each span records its layer, start, end, parent span and operation id.
Spans stay in memory until `write` saves them.  A layer's self time is its
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (layer, module, attribute); "Class.method" names a method.
TRACED = (
    ("cli.cmd_verify", "recres.cli", "cmd_verify"),
    ("cli.cmd_resultant", "recres.cli", "cmd_resultant"),
    ("cli.cmd_fuzz", "recres.cli", "cmd_fuzz"),
    ("cli.load_instance", "recres.cli", "load_instance"),
    ("cli.spec_to_json", "recres.cli", "spec_to_json"),
    ("cli.verify_records", "recres.cli", "verify_records"),
    ("recurrence.validate", "recres.recurrence", "validate"),
    ("recurrence.generate", "recres.recurrence", "generate"),
    ("recurrence.step", "recres.recurrence", "step"),
    ("closedform.degree_formula", "recres.closedform", "degree_formula"),
    ("closedform.resultant_formula", "recres.closedform", "FormulaContext.resultant_formula"),
    ("closedform.leading_term", "recres.closedform", "FormulaContext.leading_term"),
    ("closedform.constant_value", "recres.closedform", "FormulaContext.constant_value"),
    ("resultant.resultant_sylvester", "recres.resultant", "resultant_sylvester"),
    ("resultant.resultant_euclid", "recres.resultant", "resultant_euclid"),
    ("resultant.sylvester_matrix", "recres.resultant", "sylvester_matrix"),
    ("resultant.determinant", "recres.resultant", "determinant"),
    ("poly.mul", "recres.poly", "Poly.__mul__"),
    ("poly.pow", "recres.poly", "Poly.__pow__"),
    ("poly.divrem", "recres.poly", "Poly.divrem"),
)
LAYERS = tuple(layer for layer, _, _ in TRACED)
# layers whose return value's `ok` is recorded: a validation verdict
FLAGGED = {"recurrence.validate": "ok"}
COMMANDS = frozenset(("cli.cmd_verify", "cli.cmd_resultant", "cli.cmd_fuzz"))


class Tracer:
    def __init__(self) -> None:
        # (layer index, start, end, parent span or -1, op, outermost, flag)
        self.spans: list[tuple] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._depth = [0] * len(LAYERS)
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: int, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        flag_attr = FLAGGED.get(LAYERS[layer])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = depth[layer] == 0
            depth[layer] += 1
            stack.append(index)
            flag = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if flag_attr is not None:
                    flag = getattr(result, flag_attr)
                return result
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                spans[index] = (layer, start, end, parent, self.op, outermost, flag)

        return traced

    def install(self) -> None:
        """Rebind every recres name of each traced function to its wrapper."""
        modules = [m for name, m in sys.modules.items() if name == "recres" or name.startswith("recres.")]
        checked = list(modules)
        originals = []
        for layer, (_, module_name, attr) in enumerate(TRACED):
            owner = sys.modules[module_name]
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
                original, namespaces = vars(owner)[attr], [owner]
                if owner not in checked:
                    checked.append(owner)
            else:
                original, namespaces = getattr(owner, attr), modules
            originals.append(original)
            wrapper = self._wrap(layer, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._restore.append((ns, key, original))
        for ns in checked:
            for key, value in vars(ns).items():
                if any(value is original for original in originals):
                    raise RuntimeError(f"{ns.__name__}.{key} escaped the trace")

    def uninstall(self) -> None:
        while self._restore:
            ns, key, original = self._restore.pop()
            setattr(ns, key, original)

    # -- aggregation -------------------------------------------------------

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per-layer totals over spans[first:]: `s` (outermost spans only, so
        recursion is not counted twice), `self_s`, `calls`, and for flagged
        layers `cmd_calls`/`cmd_ok`, the calls made directly by a command."""
        spans = self.spans
        covered: dict[int, float] = {}
        for index in range(first, len(spans)):
            layer, start, end, parent, *_ = spans[index]
            if parent >= first:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0, "cmd_calls": 0, "cmd_ok": 0} for name in LAYERS}
        for index in range(first, len(spans)):
            layer, start, end, parent, _, outermost, flag = spans[index]
            row = out[LAYERS[layer]]
            duration = end - start
            row["calls"] += 1
            row["self_s"] += duration - covered.get(index, 0.0)
            if outermost:
                row["s"] += duration
            if flag is not None and parent >= 0 and LAYERS[spans[parent][0]] in COMMANDS:
                row["cmd_calls"] += 1
                row["cmd_ok"] += bool(flag)
        return out

    def write(self, path: Path) -> None:
        """One JSON array per span: layer, op, parent, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for layer, start, end, parent, op, _, _ in self.spans:
                handle.write(json.dumps([LAYERS[layer], op, parent, round(start, 7), round(end, 7)]) + "\n")
