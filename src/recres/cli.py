"""Command-line surface and the instance/report JSON formats.

Commands
--------
recres sequence  <file> --n N [--json OUT]          print r_0..r_N
recres resultant <file> --n N --method formula|sylvester|euclid|all
recres verify    <file> --n-max N [--json OUT]      full identity check
recres fuzz --seed S --count C [--d-max --m-max --k-max --i-max
            --n-max --field rational|<p> --coeff-bound B] --out DIR

Exit codes: 0 success / all checks agree; 2 unreadable or malformed
input; 3 validation failure (report printed); 4 any value mismatch --
the falsification signal; 5 fuzz resampling exhausted.

Instance schema (version 1)::

    {"schema": 1,
     "field": "rational" | {"prime": p},
     "d": int, "m": int, "k": int, "l": int,
     "degrees": [i_0, ..., i_d],
     "initials": [[coeff, ...], ...],            # scalar text, ascending degree
     "steps": {"<n>": {"g": [coeff, ...],
                        "t": [{"alpha": [..], "coeffs": [..]}, ...],
                        "v": coeff}},
     "name": optional str, "seed": optional int}

Reports use the same scalar text encoding.  Fuzz reports and instance
dumps contain no timestamps or timings, so identical (seed, bounds,
tool version) runs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import json
import sys
import time
from pathlib import Path

from . import __version__
from .closedform import FormulaContext, degree_formula
from .field import _INTEGER_TEXT, FieldDescriptor, InvalidModulus, Scalar, _parse_texts, prime_field, rationals
from .poly import Poly
from .recurrence import (
    DegreeMismatchError,
    MissingStepError,
    RecurrenceSpec,
    StepCoeffs,
    TTerm,
    ValidationReport,
    edge_branch,
    generate,
    validate,
)
from .resultant import resultant_euclid, resultant_sylvester

SCHEMA_VERSION = 1
MAX_RESAMPLE = 200


class InstanceFormatError(ValueError):
    """Instance file is structurally unusable."""


class _CommandFailed(Exception):
    """A command fails: `main` prints the message to stderr and returns
    `code`."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# instance (de)serialization
# ---------------------------------------------------------------------------


def field_to_json(desc: FieldDescriptor):
    return {"prime": desc.modulus} if desc.is_prime_field else "rational"


def _is_int(x) -> bool:
    # JSON true/false load as bools, which are ints to isinstance
    return isinstance(x, int) and not isinstance(x, bool)


def field_from_json(obj) -> FieldDescriptor:
    if obj == "rational":
        return rationals()
    if isinstance(obj, dict) and set(obj) == {"prime"} and _is_int(obj["prime"]):
        try:
            return prime_field(obj["prime"])
        except InvalidModulus as exc:
            raise InstanceFormatError(str(exc)) from exc
    raise InstanceFormatError(f"bad field spec {obj!r}")


def spec_to_json(spec: RecurrenceSpec, seed: int | None = None) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "field": field_to_json(spec.descriptor),
        "d": spec.d,
        "m": spec.m,
        "k": spec.k,
        "l": spec.l,
        "degrees": list(spec.degrees),
        "initials": [p.to_text() for p in spec.initials],
        "steps": {
            str(n): {
                "g": coeffs.g.to_text(),
                "t": [{"alpha": list(t.alpha), "coeffs": t.poly.to_text()} for t in coeffs.t_terms],
                "v": coeffs.v.to_text(),
            }
            for n, coeffs in sorted(spec.steps.items())
        },
    }
    if spec.name is not None:
        doc["name"] = spec.name
    if seed is not None:
        doc["seed"] = seed
    return doc


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise InstanceFormatError(message)


def _check_texts(desc: FieldDescriptor, groups: list[tuple[list, str, int]]) -> None:
    """Name the first bad text list among groups, in document order: one
    that holds a non-string, or a text that does not parse."""
    for coeffs, label, index in groups:
        what = label.format(index)
        _expect(all(isinstance(c, str) for c in coeffs), f"{what} must be a list of scalar strings")
        try:
            _parse_texts(desc, coeffs)
        except ValueError as exc:
            raise InstanceFormatError(f"{what}: {exc}") from exc


def _chunks(values: list, groups: list[tuple[list, str, int]]):
    """values cut into the lengths of the text lists of groups, in order."""
    start = 0
    for coeffs, _, _ in groups:
        yield values[start : start + len(coeffs)]
        start += len(coeffs)


def spec_from_json(doc) -> RecurrenceSpec:
    _expect(isinstance(doc, dict), "top level must be an object")
    _expect(_is_int(doc.get("schema")) and doc["schema"] == SCHEMA_VERSION, f"schema must be {SCHEMA_VERSION}")
    desc = field_from_json(doc.get("field"))
    for key in ("d", "m", "k", "l"):
        _expect(_is_int(doc.get(key)), f"{key!r} must be an integer")
    d = doc["d"]
    _expect(d >= 1, "d must be >= 1")
    degrees = doc.get("degrees")
    _expect(
        isinstance(degrees, list) and all(_is_int(x) and x >= 0 for x in degrees),
        "'degrees' must be a list of nonnegative integers",
    )
    initials = doc.get("initials")
    _expect(isinstance(initials, list), "'initials' must be a list")
    _expect(len(initials) == len(degrees) == d + 1, f"need exactly d+1 = {d + 1} degrees and initials")

    # The walk checks the structure and gathers every scalar text in
    # document order, and `_parse_texts` converts them all at once.  Each
    # group is one text list, with the label that names it in a message;
    # a fault met in the walk is named after any bad text before it.
    groups: list[tuple[list, str, int]] = []
    shapes: list[tuple[int, list[tuple[int, ...]]]] = []  # each step's n and t-term alphas

    def gather(coeffs, label: str, index: int) -> None:
        if not isinstance(coeffs, list):
            raise InstanceFormatError(f"{label.format(index)} must be a list of scalar strings")
        groups.append((coeffs, label, index))

    try:
        for s, coeffs in enumerate(initials):
            gather(coeffs, "initials[{}]", s)
        steps_doc = doc.get("steps", {})
        _expect(isinstance(steps_doc, dict), "'steps' must be an object keyed by n")
        seen: set[int] = set()
        for key, entry in steps_doc.items():
            try:
                n = _decimal(key)
            except ValueError:
                raise InstanceFormatError(f"step key {key!r} is not an integer") from None
            if n in seen:
                raise InstanceFormatError(f"step {n} appears twice")
            if n < d + 1:
                raise InstanceFormatError(f"step {n} precedes d+1 = {d + 1}")
            if not isinstance(entry, dict):
                raise InstanceFormatError(f"step {n} must be an object")
            seen.add(n)
            gather(entry.get("g"), "steps[{}].g", n)
            v = entry.get("v")
            if not isinstance(v, str):
                raise InstanceFormatError(f"steps[{n}].v must be a scalar string")
            gather([v], "steps[{}].v", n)
            t_doc = entry.get("t", [])
            if not isinstance(t_doc, list):
                raise InstanceFormatError(f"steps[{n}].t must be a list")
            alphas = []
            for t in t_doc:
                if not isinstance(t, dict):
                    raise InstanceFormatError(f"steps[{n}].t entries must be objects")
                alpha = t.get("alpha")
                if not (isinstance(alpha, list) and len(alpha) == d + 1 and all(_is_int(x) and x >= 0 for x in alpha)):
                    raise InstanceFormatError(f"steps[{n}]: alpha must be {d + 1} nonnegative integers")
                alphas.append(tuple(alpha))
                gather(t.get("coeffs"), "steps[{}].t coeffs", n)
            shapes.append((n, alphas))
        values = _parse_texts(desc, [text for coeffs, _, _ in groups for text in coeffs])
        name = doc.get("name")
        _expect(name is None or isinstance(name, str), "'name' must be a string")
    except (InstanceFormatError, TypeError, ValueError):
        # TypeError and ValueError come from `_parse_texts`, and a bad text
        # always has its group: _check_texts raises for it
        _check_texts(desc, groups)
        raise

    chunks = _chunks(values, groups)
    of_values = Poly._of_values
    scalar = Scalar._of if desc.is_prime_field else Scalar  # residues are canonical; a Q int is not
    initial_polys = tuple(of_values(desc, next(chunks)) for _ in initials)
    steps: dict[int, StepCoeffs] = {}
    for n, alphas in shapes:
        g = of_values(desc, next(chunks))
        (v,) = next(chunks)
        steps[n] = StepCoeffs(g, scalar(desc, v), tuple([TTerm(alpha, of_values(desc, next(chunks))) for alpha in alphas]))
    return RecurrenceSpec(
        descriptor=desc, d=d, m=doc["m"], k=doc["k"], l=doc["l"],
        degrees=tuple(degrees), initials=initial_polys, steps=steps, name=name,
    )


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a key given twice is an error
    (plain `json.load` would keep the last value silently)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InstanceFormatError(f"key {key!r} appears twice in one object")
        doc[key] = value
    return doc


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for the block, if it was running.

    A JSON document and a spec hold no reference cycles, so a collection
    while one is built or written frees nothing there, yet each one that
    reaches the older generations traverses the whole growing document:
    without the pause, collections took 1.5 of the 2.3 s of loading a
    10^5-step file on Python 3.11.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_instance(path: str) -> RecurrenceSpec:
    with _collector_paused():
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle, object_pairs_hook=_unique_keys)
        except OSError as exc:
            raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested past the decoder's depth
            raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
        return spec_from_json(doc)


def _write_json(path: Path, doc) -> None:
    # json.dumps(indent=2) runs the pure-Python encoder, whose nested closures
    # form a reference cycle per call: collect it now, not whenever the
    # collector next runs, so that a long run's peak RSS does not creep.  With
    # the collector paused for the dump, the cycle cannot be promoted out of
    # the youngest generation, so collecting that one alone frees it, and the
    # older generations (the instance and its sequence) are not traversed.
    with _collector_paused():
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    gc.collect(0)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CommandFailed(2, f"error: cannot write {path}: {exc.strerror or exc}") from None


def _check_output(path: Path) -> None:
    """Refuse an output file that names a directory or lies in no
    directory, before anything is computed; `_write_json` catches the rest."""
    if path.is_dir():
        raise _CommandFailed(2, f"error: cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise _CommandFailed(2, f"error: cannot write {path}: {path.parent} is not a directory")


# ---------------------------------------------------------------------------
# verification core, shared by `verify`, `resultant` and `fuzz`
# ---------------------------------------------------------------------------


def validation_to_json(report: ValidationReport) -> dict:
    def entries(violations):
        return [{"code": v.code, "n": v.n, "detail": v.detail} for v in violations]

    return {"ok": report.ok, "violations": entries(report.violations), "warnings": entries(report.warnings)}


def _record_ok(record: dict) -> bool:
    """A verify record's verdict: the three resultants agree and the
    degree, leading and constant cross-checks hold."""
    return record["match"] and record["degree_match"] and record["leading_match"] and record["constant_match"]


def verify_records(spec: RecurrenceSpec, n_max: int) -> tuple[list[dict], bool]:
    """One record per n in d+1..n_max; the caller must have validated.

    Each record carries the generated degree next to the closed-form
    degree, the leading/constant cross-checks, and the three resultant
    values with their match flag.
    """
    seq = generate(spec, n_max)
    ctx = FormulaContext(spec)
    zero = Scalar(spec.descriptor, 0)
    records = []
    for n in range(spec.d + 1, n_max + 1):
        r_n, r_prev = seq[n], seq[n - 1]
        formula = ctx.resultant_formula(n)
        sylvester = resultant_sylvester(r_n, r_prev)
        euclid = resultant_euclid(r_n, r_prev)
        degree, expected_degree = r_n.degree(), degree_formula(spec, n)
        records.append(
            {
                "n": n,
                "degree": degree,
                "degree_formula": expected_degree,
                "degree_match": degree == expected_degree,
                "leading_match": r_n.leading_coeff() == ctx.leading_term(n),
                "constant_match": r_n.evaluate(zero) == ctx.constant_value(n),
                "formula": formula.to_text(),
                "sylvester": sylvester.to_text(),
                "euclid": euclid.to_text(),
                "match": formula == sylvester == euclid,
            }
        )
    return records, all(map(_record_ok, records))


def _report(command: str, desc: FieldDescriptor, **fields) -> dict:
    """A report: the keys that open every report, then `fields`."""
    return {
        "schema": SCHEMA_VERSION,
        "tool": "recres",
        "tool_version": __version__,
        "command": command,
        "field": field_to_json(desc),
        **fields,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _checked_instance(args, n: int, flag: str, first: int) -> tuple[RecurrenceSpec, ValidationReport]:
    """Check the --json path, load args.instance, require n >= d + first
    and validate steps d+1..n: the one validation a command runs before
    computing anything.  On failure raise _CommandFailed with the exit
    code and the reason."""
    if args.json:
        _check_output(Path(args.json))
    try:
        spec = load_instance(args.instance)
    except InstanceFormatError as exc:
        raise _CommandFailed(2, f"error: {exc}") from None
    if n < spec.d + first:
        raise _CommandFailed(2, f"error: {flag} must be >= {'d+1' if first else 'd'} = {spec.d + first}")
    try:
        report = validate(spec, n, allow_zero_v=args.allow_zero_v)
    except MissingStepError as exc:
        raise _CommandFailed(2, f"error: {exc}") from None
    if not report.ok:
        raise _CommandFailed(3, f"validation failed: {report}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return spec, report


def cmd_sequence(args) -> int:
    n_max = args.n
    spec, report = _checked_instance(args, n_max, "--n", 0)
    seq = generate(spec, n_max)
    for n, poly in enumerate(seq):
        print(f"r_{n} = {poly}, deg {poly.degree()}")
    if args.json:
        doc = _report(
            "sequence", spec.descriptor, instance=args.instance, seed=None, n_range=[0, n_max],
            polynomials=[p.to_text() for p in seq], degrees=[p.degree() if not p.is_zero() else None for p in seq],
            validation=validation_to_json(report),
        )
        _write_json(Path(args.json), doc)
    return 0


def cmd_resultant(args) -> int:
    n = args.n
    spec, report = _checked_instance(args, n, "--n", 1)
    started = time.perf_counter()
    values: dict[str, Scalar] = {}
    if args.method in ("formula", "all"):
        values["formula"] = FormulaContext(spec).resultant_formula(n)
    if args.method in ("sylvester", "euclid", "all"):
        seq = generate(spec, n)
        if args.method in ("sylvester", "all"):
            values["sylvester"] = resultant_sylvester(seq[n], seq[n - 1])
        if args.method in ("euclid", "all"):
            values["euclid"] = resultant_euclid(seq[n], seq[n - 1])
    elapsed = time.perf_counter() - started
    texts = {method: v.to_text() for method, v in values.items()}
    for method, text in texts.items():
        print(f"{method}: {text}")
    match = len(set(values.values())) == 1
    if args.json:
        doc = _report(
            "resultant", spec.descriptor, instance=args.instance, seed=None,
            n=n, method=args.method, values=texts, match=match,
            validation=validation_to_json(report), elapsed_seconds=round(elapsed, 6),
        )
        _write_json(Path(args.json), doc)
    if not match:
        raise _CommandFailed(4, f"MISMATCH at n={n}: " + ", ".join(f"{m}={v}" for m, v in texts.items()))
    return 0


def cmd_verify(args) -> int:
    n_max = args.n_max
    spec, report = _checked_instance(args, n_max, "--n-max", 1)
    started = time.perf_counter()
    records, all_ok = verify_records(spec, n_max)
    elapsed = time.perf_counter() - started
    for record in records:
        status = "ok" if _record_ok(record) else "MISMATCH"
        print(
            f"n={record['n']}: deg {record['degree']} formula {record['formula']} "
            f"sylvester {record['sylvester']} euclid {record['euclid']} [{status}]"
        )
    if args.json:
        doc = _report(
            "verify", spec.descriptor, instance=args.instance, seed=None,
            n_range=[spec.d + 1, n_max], records=records, all_match=all_ok,
            validation=validation_to_json(report), elapsed_seconds=round(elapsed, 6),
        )
        _write_json(Path(args.json), doc)
    if not all_ok:
        first_bad = next(r["n"] for r in records if not _record_ok(r))
        raise _CommandFailed(4, f"MISMATCH first at n={first_bad}")
    print(f"all {len(records)} checks agree ({elapsed:.3f}s)")
    return 0


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------


class Lcg:
    """64-bit linear congruential generator with fixed constants.

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    seeded with the given integer reduced mod 2^64.  `below(n)` advances
    the state once and returns (state' >> 33) mod n, which reaches every
    residue only for n <= 2^31.  Everything is specified exactly so
    streams can be reproduced by any implementation.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def below(self, n: int) -> int:
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return (self.state >> 33) % n

    def int_in(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive."""
        return lo + self.below(hi - lo + 1)


def _draw_nonzero(rng: Lcg, desc: FieldDescriptor, bound: int) -> Scalar:
    """An integer from [-bound, bound], redrawn while its image in the field
    is zero; for p > 2 * bound that is exactly while it is 0."""
    while True:
        value = Scalar(desc, rng.int_in(-bound, bound))
        if not value.is_zero():
            return value


def _draw_poly(rng: Lcg, desc: FieldDescriptor, degree: int, bound: int) -> Poly:
    """Random polynomial of exact degree with coefficients in [-bound, bound]."""
    coeffs = [rng.int_in(-bound, bound) for _ in range(degree)]
    coeffs.append(_draw_nonzero(rng, desc, bound))
    return Poly(desc, coeffs)


def _draw_t_poly(rng: Lcg, desc: FieldDescriptor, k: int, bound: int) -> Poly:
    # t(0) = 0 and deg t < k: coefficients only for x^1 .. x^(k-1)
    return Poly(desc, [0] + [rng.int_in(-bound, bound) for _ in range(k - 1)])


def _alphas_below(d: int, m: int) -> list[tuple[int, ...]]:
    """All alpha in N^{d+1} with |alpha| < m, lexicographic."""
    return [a for a in itertools.product(range(m), repeat=d + 1) if sum(a) < m]


def _draw_instance(rng: Lcg, desc: FieldDescriptor, bounds: dict, index: int) -> tuple[RecurrenceSpec, int]:
    """A random instance and the last step index it has tables for."""
    d = rng.int_in(1, bounds["d_max"])
    m = rng.int_in(1, bounds["m_max"])
    k = rng.int_in(0, bounds["k_max"])
    l = rng.int_in(0, k)
    degrees = sorted(rng.int_in(0, bounds["i_max"]) for _ in range(d + 1))
    # one draw in four forces the i_d = i_{d-1}, k = l branch so the
    # alternate leading-term base case gets real coverage
    if rng.below(4) == 0:
        l = k
        degrees[d - 1] = degrees[d]
        degrees = sorted(degrees)
    bound = bounds["coeff_bound"]
    initials = tuple(_draw_poly(rng, desc, deg, bound) for deg in degrees)
    n_max = _resolve_n_max(bounds["n_max"], d, m)
    alphas = _alphas_below(d, m) if k >= 1 else []
    steps = {}
    for n in range(d + 1, n_max + 1):
        g = _draw_poly(rng, desc, k, bound)
        v = _draw_nonzero(rng, desc, bound)
        t_terms = []
        if alphas and k >= 2:
            chosen: set[int] = set()
            for _ in range(rng.below(min(len(alphas), 3) + 1)):
                pick = rng.below(len(alphas))
                if pick in chosen:
                    continue
                chosen.add(pick)
                t = _draw_t_poly(rng, desc, k, bound)
                if not t.is_zero():
                    t_terms.append(TTerm(alpha=alphas[pick], poly=t))
        steps[n] = StepCoeffs(g=g, v=v, t_terms=tuple(t_terms))
    spec = RecurrenceSpec(
        descriptor=desc, d=d, m=m, k=k, l=l,
        degrees=tuple(degrees), initials=initials, steps=steps,
        name=f"fuzz-{index:03d}",
    )
    return spec, n_max


def _resolve_n_max(setting, d: int, m: int) -> int:
    """--n-max accepts an absolute index, 'd+K', or None for the default
    d+3 (m >= 2) / d+6 (m = 1)."""
    if setting is None:
        return d + 3 if m >= 2 else d + 6
    if isinstance(setting, int):
        return setting
    return d + int(setting[2:])


def _decimal(text: str) -> int:
    """A decimal integer in ASCII digits, for step keys and integer flags.

    int() alone would also read underscores and non-ASCII digits.
    """
    if not _INTEGER_TEXT.fullmatch(text.strip()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


_decimal.__name__ = "int"  # argparse names the type in "invalid int value"


def _parse_n_max(text: str):
    """An absolute index as an int, or 'd+K' with K >= 1 kept as text."""
    text = text.strip()
    if text.startswith("d+"):
        if _decimal(text[2:]) < 1:
            raise argparse.ArgumentTypeError(f"'d+K' needs K >= 1, got {text!r}")
        return text
    return _decimal(text)


def _int_in(low: int, high: int | None):
    """An argparse type: an integer in [low, high], or >= low if high is None."""

    def parse(text: str) -> int:
        value = _decimal(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _parse_field(text: str) -> FieldDescriptor:
    if text == "rational":
        return rationals()
    try:
        return prime_field(_decimal(text))
    except (ValueError, InvalidModulus) as exc:
        raise argparse.ArgumentTypeError(f"--field must be 'rational' or a prime: {exc}")


def cmd_fuzz(args) -> int:
    if isinstance(args.n_max, int) and args.n_max < args.d_max + 1:
        raise _CommandFailed(2, f"error: --n-max must be >= d-max+1 = {args.d_max + 1}")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        stale = next(out_dir.iterdir(), None)
    except OSError as exc:
        raise _CommandFailed(2, f"error: cannot write {out_dir}: {exc.strerror or exc}") from None
    if stale is not None:  # its files would sit beside a report that does not list them
        raise _CommandFailed(2, f"error: cannot write {stale}: --out must be a new or empty directory")
    desc = args.field
    bounds = {key: getattr(args, key) for key in ("d_max", "m_max", "k_max", "i_max", "coeff_bound", "n_max")}
    rng = Lcg(args.seed)
    instances = []
    total_draws = 0
    for index in range(args.count):
        spec = None
        for _ in range(MAX_RESAMPLE):
            total_draws += 1
            candidate, n_max = _draw_instance(rng, desc, bounds, index)
            if validate(candidate, n_max).ok:
                spec = candidate
                break
        if spec is None:
            raise _CommandFailed(5, f"error: no valid instance after {MAX_RESAMPLE} draws (index {index})")
        file_name = f"instance_{index:03d}.json"
        _write_json(out_dir / file_name, spec_to_json(spec, seed=args.seed))
        try:
            records, all_ok = verify_records(spec, n_max)
        except DegreeMismatchError as exc:
            raise _CommandFailed(4, f"MISMATCH: {exc} (see {out_dir / file_name})") from None
        edge = edge_branch(spec)
        instances.append(
            {
                "index": index,
                "path": file_name,
                "d": spec.d,
                "m": spec.m,
                "k": spec.k,
                "l": spec.l,
                "degrees": list(spec.degrees),
                "edge_branch": edge,
                "n_range": [spec.d + 1, n_max],
                "records": records,
                "all_match": all_ok,
            }
        )
        status = "ok" if all_ok else "MISMATCH"
        print(
            f"instance {index:03d}: d={spec.d} m={spec.m} k={spec.k} l={spec.l} "
            f"degrees={list(spec.degrees)} edge={edge} n<={n_max} [{status}]"
        )
    edge_count = sum(inst["edge_branch"] for inst in instances)
    mismatch = next((inst["path"] for inst in instances if not inst["all_match"]), None)
    report = _report(
        "fuzz", desc, seed=args.seed, count=args.count, bounds=bounds,
        branch_coverage={"edge": edge_count, "normal": len(instances) - edge_count},
        total_draws=total_draws, instances=instances, all_match=mismatch is None,
    )
    _write_json(out_dir / "report.json", report)
    print(
        f"{sum(inst['all_match'] for inst in instances)}/{len(instances)} instances verified, "
        f"branch coverage: edge={edge_count} normal={len(instances) - edge_count}"
    )
    if mismatch is not None:
        raise _CommandFailed(4, f"MISMATCH: see {out_dir / mismatch}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recres",
        description="Exact resultants of recursively defined polynomial sequences: "
        "closed form vs Sylvester determinant vs Euclidean remainders.",
    )
    parser.add_argument("--version", action="version", version=f"recres {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    on_instance = argparse.ArgumentParser(add_help=False)
    on_instance.add_argument("instance")
    on_instance.add_argument("--json", metavar="OUT")
    on_instance.add_argument("--allow-zero-v", action="store_true", help="downgrade v_n = 0 to a warning")

    seq = sub.add_parser("sequence", parents=[on_instance], help="generate and print r_0..r_N")
    seq.add_argument("--n", type=_decimal, required=True)

    res = sub.add_parser("resultant", parents=[on_instance], help="Res(r_n, r_{n-1}) by one or all methods")
    res.add_argument("--n", type=_decimal, required=True)
    res.add_argument("--method", choices=("formula", "sylvester", "euclid", "all"), default="all")

    ver = sub.add_parser("verify", parents=[on_instance], help="check the closed-form identity for d+1 <= n <= N")
    ver.add_argument("--n-max", type=_decimal, required=True)

    fuzz = sub.add_parser("fuzz", help="verify randomized instances; dump them for replay")
    fuzz.add_argument("--seed", type=_decimal, required=True)
    fuzz.add_argument("--count", type=_int_in(0, None), required=True)
    # each bound's draw range holds at most 2^31 values, all that Lcg.below reaches
    fuzz.add_argument("--d-max", type=_int_in(1, 2**31), default=2)
    fuzz.add_argument("--m-max", type=_int_in(1, 2**31), default=2)
    fuzz.add_argument("--k-max", type=_int_in(0, 2**31 - 1), default=3)
    fuzz.add_argument("--i-max", type=_int_in(0, 2**31 - 1), default=3)
    fuzz.add_argument(
        "--n-max",
        type=_parse_n_max,
        default=None,
        help="absolute index >= d-max+1 or 'd+K' with K >= 1; default d+3 for m >= 2, d+6 for m = 1",
    )
    fuzz.add_argument("--field", type=_parse_field, default=prime_field(10007), help="'rational' or a prime (default 10007)")
    fuzz.add_argument("--coeff-bound", type=_int_in(1, 2**30 - 1), default=5, help="coefficients drawn from [-B, B], 1 <= B < 2^30 (default 5)")
    fuzz.add_argument("--out", required=True, metavar="DIR", help="a new or empty directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    # Instance scalars and resultants run to tens of thousands of digits,
    # past the interpreter's default cap on int <-> str conversion.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    # looked up at each call, so a rebound command (a traced run) is the one called
    command = {"sequence": cmd_sequence, "resultant": cmd_resultant, "verify": cmd_verify, "fuzz": cmd_fuzz}[args.command]
    try:
        return command(args)
    except _CommandFailed as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except DegreeMismatchError as exc:
        print(f"MISMATCH: {exc}", file=sys.stderr)
        return 4


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
