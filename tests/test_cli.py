import copy
import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import recres.cli as cli
from recres import Poly, Scalar, __version__, prime_field, rationals
from recres.cli import (
    InstanceFormatError,
    Lcg,
    _draw_nonzero,
    build_parser,
    load_instance,
    main,
    spec_from_json,
    spec_to_json,
    verify_records,
)

from helpers import rand_fraction_instance, rand_instance, spec_from_json_by_parts

Q = rationals()
REPO = Path(__file__).resolve().parent.parent
SCHUR_FILE = REPO / "instances" / "three_term_classic.json"
M2_FILE = REPO / "instances" / "nonlinear_m2.json"
ORDER3_FILE = REPO / "instances" / "order3_shifted.json"


def schur_doc():
    return json.loads(SCHUR_FILE.read_text())


def write_doc(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- sequence ------------------------------------------------------------------


def test_sequence_prints_polynomials(capsys):
    assert main(["sequence", str(SCHUR_FILE), "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "r_3 = x^3 - 2x, deg 3" in out
    assert out.startswith("r_0 = 1, deg 0")


def test_sequence_n_equals_d_echoes_initials(capsys):
    assert main(["sequence", str(SCHUR_FILE), "--n", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["r_0 = 1, deg 0", "r_1 = x, deg 1"]


def test_sequence_json_output(tmp_path, capsys):
    out = tmp_path / "seq.json"
    assert main(["sequence", str(SCHUR_FILE), "--n", "4", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["polynomials"][4] == ["1", "0", "-3", "0", "1"]
    assert doc["degrees"] == [0, 1, 2, 3, 4]


# the command's one validation is the only place a zero v_n is refused or let through
ZERO_V_COMMANDS = pytest.mark.parametrize(
    "command", [["sequence"], ["resultant", "--method", "formula"]], ids=["sequence", "resultant"]
)


@ZERO_V_COMMANDS
def test_sequence_rejects_zero_v(tmp_path, capsys, command):
    doc = schur_doc()
    doc["steps"]["2"]["v"] = "0"
    path = write_doc(tmp_path, doc)
    assert main([command[0], path, "--n", "3", *command[1:]]) == 3
    err = capsys.readouterr().err
    assert "VZero" in err and "n=2" in err


@ZERO_V_COMMANDS
def test_sequence_allow_zero_v_downgrades(tmp_path, capsys, command):
    doc = schur_doc()
    doc["steps"]["2"]["v"] = "0"
    path = write_doc(tmp_path, doc)
    assert main([command[0], path, "--n", "3", *command[1:], "--allow-zero-v"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err


# -- resultant -----------------------------------------------------------------


def test_resultant_all_methods_agree(capsys):
    assert main(["resultant", str(SCHUR_FILE), "--n", "3", "--method", "all"]) == 0
    out = capsys.readouterr().out
    assert "formula: -1" in out and "sylvester: -1" in out and "euclid: -1" in out


def test_resultant_single_method(capsys):
    assert main(["resultant", str(SCHUR_FILE), "--n", "2", "--method", "formula"]) == 0
    assert capsys.readouterr().out.strip() == "formula: -1"


def test_resultant_n_too_small(capsys):
    assert main(["resultant", str(SCHUR_FILE), "--n", "1"]) == 2


def linear_q_doc(g, v, n_max):
    """r_n = g r_{n-1} + v r_{n-2} over Q from (1, x)."""
    return {
        "schema": 1, "field": "rational", "d": 1, "m": 1, "k": 1, "l": 0,
        "degrees": [0, 1], "initials": [["1"], ["0", "1"]],
        "steps": {str(n): {"g": g, "t": [], "v": v} for n in range(2, n_max + 1)},
    }


def test_resultant_writes_values_past_the_digit_cap(tmp_path, capsys, default_digit_cap):
    # Schur: Res(r_40, r_39) = prod_{i=2}^{39} 1000^{2(40-i)} * prod_{i=1}^{39} 1000^i = 10^6786
    path = write_doc(tmp_path, linear_q_doc(["0", "1000"], "-1000", 40))
    out = tmp_path / "res.json"
    assert main(["resultant", path, "--n", "40", "--method", "formula", "--json", str(out)]) == 0
    expected = "1" + "0" * 6786
    assert capsys.readouterr().out == f"formula: {expected}\n"
    assert json.loads(out.read_text())["values"] == {"formula": expected}


def test_resultant_reads_scalars_past_the_digit_cap(tmp_path, capsys, default_digit_cap):
    # r_2 = x^2 - 10^5000 and r_1 = x: Res(r_2, r_1) = r_2(0) = -10^5000 on every route
    path = write_doc(tmp_path, linear_q_doc(["0", "1"], "-1" + "0" * 5000, 2))
    out = tmp_path / "res.json"
    assert main(["resultant", path, "--n", "2", "--json", str(out)]) == 0
    values = json.loads(out.read_text())["values"]
    assert set(values.values()) == {"-1" + "0" * 5000}


def test_resultant_mismatch_exits_4(tmp_path, capsys, monkeypatch):
    import recres.cli as cli_mod

    def broken(f, g):
        return Scalar(f.descriptor, 12345)

    monkeypatch.setattr(cli_mod, "resultant_euclid", broken)
    code = main(["resultant", str(SCHUR_FILE), "--n", "3", "--method", "all"])
    assert code == 4
    assert "MISMATCH" in capsys.readouterr().err


# -- verify --------------------------------------------------------------------


def test_verify_full_range(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", str(SCHUR_FILE), "--n-max", "8", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_range"] == [2, 8]
    assert len(doc["records"]) == 7
    assert doc["all_match"] is True
    assert all(r["match"] and r["degree_match"] and r["leading_match"] and r["constant_match"] for r in doc["records"])


def test_verify_order3_instance(capsys):
    assert main(["verify", str(ORDER3_FILE), "--n-max", "5"]) == 0


def test_verify_mismatch_exits_4(capsys, monkeypatch):
    import recres.cli as cli_mod

    real = cli_mod.resultant_euclid

    def broken(f, g):
        value = real(f, g)
        return value + Scalar(f.descriptor, 1)

    monkeypatch.setattr(cli_mod, "resultant_euclid", broken)
    assert main(["verify", str(SCHUR_FILE), "--n-max", "4"]) == 4
    err = capsys.readouterr().err
    assert "first at n=2" in err


def test_verify_degree_mismatch_is_reported_as_mismatch(capsys, monkeypatch):
    import recres.closedform as closedform_mod

    real = closedform_mod.degree_formula
    monkeypatch.setattr(closedform_mod, "degree_formula", lambda spec, n: real(spec, n) + 1)
    assert main(["verify", str(SCHUR_FILE), "--n-max", "4"]) == 4
    assert capsys.readouterr().err.startswith("MISMATCH: ")


def test_verify_validation_failure_precedes_computation(tmp_path, capsys):
    doc = schur_doc()
    doc["degrees"] = [1, 0]
    doc["initials"] = [["0", "1"], ["1"]]
    path = write_doc(tmp_path, doc)
    assert main(["verify", path, "--n-max", "4"]) == 3
    assert "Membership" in capsys.readouterr().err


# -- instance loading ------------------------------------------------------------


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError):
        load_instance(str(path))


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000],
    ids=["not-utf8", "nested-too-deep"],
)
def test_load_rejects_undecodable_files(tmp_path, capsys, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    with pytest.raises(InstanceFormatError):
        load_instance(str(path))
    assert main(["sequence", str(path), "--n", "3"]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.pop("schema"),
        lambda doc: doc.update(schema=99),
        lambda doc: doc.update(field="octonions"),
        lambda doc: doc.update(d="two"),
        lambda doc: doc.update(degrees=[0]),
        lambda doc: doc["initials"][0].append(7),
        lambda doc: doc["steps"]["2"].update(v="1/0"),
        lambda doc: doc["steps"].update({"x": doc["steps"]["2"]}),
        lambda doc: doc["steps"]["2"].update(t=[{"alpha": [1], "coeffs": ["0", "1"]}]),
        lambda doc: doc["steps"].update({"02": doc["steps"]["2"]}),
        lambda doc: doc["steps"]["2"].update(t=5),
        lambda doc: doc["steps"]["2"].update(t=None),
        lambda doc: doc.update(schema=True),
        lambda doc: doc.update(d=True),
        lambda doc: doc.update(m=True),
        lambda doc: doc.update(k=True),
        lambda doc: doc.update(l=False),
        lambda doc: doc.update(degrees=[False, True]),
        lambda doc: doc["steps"]["2"].update(t=[{"alpha": [True, False], "coeffs": ["0"]}]),
        lambda doc: doc.update(field={"prime": 7}) or doc["steps"]["2"].update(v="1_0"),
        lambda doc: doc["steps"].update({"2_0": doc["steps"]["2"]}),
    ],
)
def test_load_rejects_malformed_documents(tmp_path, mutate):
    doc = schur_doc()
    mutate(doc)
    path = write_doc(tmp_path, doc)
    with pytest.raises(InstanceFormatError):
        load_instance(str(path))
    assert main(["sequence", path, "--n", "3"]) == 2


def test_load_rejects_a_key_given_twice(tmp_path, capsys):
    # json.dumps cannot repeat a key, so the first "2" entry is spliced in as text
    doc = schur_doc()
    first = dict(doc["steps"]["2"], v="5")
    text = json.dumps(doc).replace('"steps": {', '"steps": {"2": ' + json.dumps(first) + ", ", 1)
    assert text.count('"2": {') == 2
    path = tmp_path / "instance.json"
    path.write_text(text)
    assert main(["resultant", str(path), "--n", "2", "--method", "formula"]) == 2
    assert "'2' appears twice" in capsys.readouterr().err


def test_exponent_text_is_refused_before_it_is_built(tmp_path, capsys):
    # "1e3000000" is a three-million-digit integer in nine bytes
    doc = schur_doc()
    doc["steps"]["2"]["v"] = "1e3000000"
    path = write_doc(tmp_path, doc)
    assert main(["resultant", path, "--n", "2", "--method", "formula"]) == 2
    assert "'1e3000000'" in capsys.readouterr().err


def test_spec_json_roundtrip():
    spec = load_instance(str(ORDER3_FILE))
    assert spec_from_json(spec_to_json(spec)) == spec


def test_cli_parse_error_exit_code(capsys):
    assert main(["sequence", "/nonexistent/path.json", "--n", "3"]) == 2


# -- fuzz ------------------------------------------------------------------------


def fuzz_args(out_dir, seed=5, count=6):
    return [
        "fuzz", "--seed", str(seed), "--count", str(count),
        "--d-max", "2", "--m-max", "2", "--k-max", "2", "--i-max", "2",
        "--field", "10007", "--out", str(out_dir),
    ]


def test_fuzz_runs_and_reports(tmp_path, capsys):
    out = tmp_path / "fz"
    assert main(fuzz_args(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_match"] is True
    assert len(report["instances"]) == 6
    assert report["branch_coverage"]["edge"] + report["branch_coverage"]["normal"] == 6
    assert sorted(p.name for p in out.glob("instance_*.json")) == [f"instance_{i:03d}.json" for i in range(6)]


def test_fuzz_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(fuzz_args(out1))
    main(fuzz_args(out2))
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fuzz_refuses_non_empty_out_dir(tmp_path, capsys):
    # a second campaign into D would leave the first one's dumps beside a
    # report that does not list them; an existing empty D is fine
    out = tmp_path / "fz"
    out.mkdir()
    assert main(fuzz_args(out, count=3)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(fuzz_args(out, seed=6, count=1)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {next(out.iterdir())}: --out must be a new or empty directory\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_fuzz_count_zero(tmp_path, capsys):
    out = tmp_path / "fz0"
    assert main(fuzz_args(out, count=0)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["instances"] == [] and report["all_match"] is True


def test_fuzz_dumped_instances_reverify(tmp_path):
    out = tmp_path / "fz"
    main(fuzz_args(out))
    report = json.loads((out / "report.json").read_text())
    for entry in report["instances"][:3]:
        spec = load_instance(str(out / entry["path"]))
        records, all_ok = verify_records(spec, entry["n_range"][1])
        assert all_ok and records == entry["records"]


def test_fuzz_exhausted_retries_exits_5(tmp_path, capsys):
    # k is pinned to 0 and m to 1: every draw is degenerate-dominant
    out = tmp_path / "fz5"
    code = main([
        "fuzz", "--seed", "1", "--count", "1",
        "--d-max", "1", "--m-max", "1", "--k-max", "0",
        "--field", "10007", "--out", str(out),
    ])
    assert code == 5


def test_fuzz_rational_field(tmp_path):
    out = tmp_path / "fzq"
    assert main([
        "fuzz", "--seed", "3", "--count", "4", "--d-max", "1", "--m-max", "2",
        "--coeff-bound", "3", "--field", "rational", "--n-max", "d+2", "--out", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["field"] == "rational"
    for entry in report["instances"]:
        assert entry["n_range"][1] == entry["d"] + 2


def test_fuzz_mismatch_exits_4(tmp_path, capsys, monkeypatch):
    import recres.cli as cli_mod

    real = cli_mod.resultant_euclid

    def broken(f, g):
        return real(f, g) + Scalar(f.descriptor, 1)

    monkeypatch.setattr(cli_mod, "resultant_euclid", broken)
    out = tmp_path / "fzbad"
    assert main(fuzz_args(out, count=2)) == 4
    err = capsys.readouterr().err
    assert "MISMATCH" in err and "instance_000.json" in err


def test_fuzz_tiny_prime_field(tmp_path, capsys):
    # over F_2 every drawn +-2 or +-4 vanishes; leading coefficients and v_n are redrawn
    out = tmp_path / "fz2"
    assert main(["fuzz", "--seed", "1", "--count", "20", "--field", "2", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["all_match"] is True


@pytest.mark.parametrize(
    "flags",
    [
        ["--count", "-1"],
        ["--d-max", "-1"],
        ["--m-max", "-1"],
        ["--k-max", "-1"],
        ["--i-max", "-1"],
        ["--coeff-bound", "0"],
        ["--coeff-bound", "-3"],
        ["--n-max", "d+0"],
        ["--n-max", "d+-1"],
        ["--n-max", "0"],
        ["--n-max", "2"],
    ],
    ids=" ".join,
)
def test_fuzz_rejects_out_of_range_bounds(tmp_path, capsys, flags):
    out = tmp_path / "fz"
    argv = ["fuzz", "--seed", "1", "--count", "1", "--out", str(out), *flags]
    if flags[0] == "--n-max" and not flags[1].startswith("d+"):
        # an absolute index parses; the command refuses it before any draw
        assert main(argv) == 2
        assert "--n-max must be >= d-max+1 = 3" in capsys.readouterr().err
        assert not out.exists()
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


FUZZ_CEILINGS = {"--d-max": 2**31, "--m-max": 2**31, "--k-max": 2**31 - 1, "--i-max": 2**31 - 1, "--coeff-bound": 2**30 - 1}


@pytest.mark.parametrize("flag", sorted(FUZZ_CEILINGS))
def test_fuzz_bound_ceilings(tmp_path, capsys, flag):
    # one LCG draw reaches 2^31 values, so no draw range may hold more
    ceiling = FUZZ_CEILINGS[flag]
    out = tmp_path / "at"
    assert main(["fuzz", "--seed", "1", "--count", "0", "--out", str(out), flag, str(ceiling)]) == 0
    assert json.loads((out / "report.json").read_text())["bounds"][flag[2:].replace("-", "_")] == ceiling
    over = tmp_path / "over"
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--seed", "1", "--count", "0", "--out", str(over), flag, str(ceiling + 1)])
    assert exc.value.code == 2
    assert f"error: argument {flag}: must be <= {ceiling}, got {ceiling + 1}" in capsys.readouterr().err
    assert not over.exists()


def test_fuzz_rejects_composite_field(capsys):
    with pytest.raises(SystemExit):
        main(["fuzz", "--seed", "1", "--count", "1", "--field", "10", "--out", "/tmp/x"])


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("fuzz", "--field", "10_007"),
        ("fuzz", "--n-max", "d+1_0"),
        ("fuzz", "--n-max", "1_0"),
        ("fuzz", "--count", "١٠"),  # Arabic-Indic ten
        ("fuzz", "--seed", "٣"),
        ("sequence", "--n", "1_0"),
        ("resultant", "--n", "٣"),
        ("verify", "--n-max", "1_0"),
    ],
)
def test_command_line_numbers_are_ascii_decimal(tmp_path, capsys, command, flag, text):
    # int() alone reads "10_007" as 10007 and "١٠" as 10
    out = tmp_path / "fz"
    if command == "fuzz":
        argv = ["fuzz", "--seed", "1", "--count", "1", "--out", str(out), flag, text]
    else:
        argv = [command, str(SCHUR_FILE), flag, text]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: argument {flag}" in capsys.readouterr().err
    assert not out.exists()


def assert_cannot_write(capsys, path):
    """One `error: cannot write PATH: ...` line on stderr, nothing on stdout:
    the command stopped before it computed anything."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("\n") == 1


def test_fuzz_out_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(fuzz_args(out, count=1)) == 2
    assert_cannot_write(capsys, out)
    assert out.read_text() == "not a directory\n"


def test_fuzz_unwritable_dump_exits_2(tmp_path, capsys):
    # the directory can be made, but a dump inside it cannot be written
    out = tmp_path / "fz"
    (out / "instance_000.json").mkdir(parents=True)
    assert main(fuzz_args(out, count=1)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'instance_000.json'}: ")
    assert err.count("\n") == 1


ON_INSTANCE = {
    "sequence": ["--n", "3"],
    "resultant": ["--n", "3"],
    "verify": ["--n-max", "3"],
}


@pytest.mark.parametrize("command", sorted(ON_INSTANCE))
def test_json_into_missing_directory_exits_2(tmp_path, capsys, command):
    out = tmp_path / "missing" / "r.json"
    assert main([command, str(SCHUR_FILE), *ON_INSTANCE[command], "--json", str(out)]) == 2
    assert_cannot_write(capsys, out)
    assert not out.parent.exists()


@pytest.mark.parametrize("command", sorted(ON_INSTANCE))
def test_json_to_a_directory_exits_2(tmp_path, capsys, command):
    assert main([command, str(SCHUR_FILE), *ON_INSTANCE[command], "--json", str(tmp_path)]) == 2
    assert_cannot_write(capsys, tmp_path)
    assert list(tmp_path.iterdir()) == []


REPORT_KEYS = {
    "sequence": {"n_range", "polynomials", "degrees", "validation"},
    "resultant": {"n", "method", "values", "match", "validation", "elapsed_seconds"},
    "verify": {"n_range", "records", "all_match", "validation", "elapsed_seconds"},
}


@pytest.mark.parametrize("command", sorted(ON_INSTANCE))
def test_json_report_keys_and_header(tmp_path, capsys, command):
    out = tmp_path / "r.json"
    assert main([command, str(SCHUR_FILE), *ON_INSTANCE[command], "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    header = {
        "schema": 1, "tool": "recres", "tool_version": __version__, "command": command,
        "field": "rational", "instance": str(SCHUR_FILE), "seed": None,
    }
    assert set(doc) == set(header) | REPORT_KEYS[command]
    assert {key: doc[key] for key in header} == header


# -- PRNG ---------------------------------------------------------------------


def test_lcg_stream_is_fixed():
    # oracle: replay the documented update rule with plain arithmetic
    state = 1
    expected = []
    for _ in range(5):
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        expected.append((state >> 33) % 1000)
    rng = Lcg(1)
    assert [rng.below(1000) for _ in range(5)] == expected


def test_lcg_int_in_bounds():
    rng = Lcg(99)
    values = [rng.int_in(-5, 5) for _ in range(200)]
    assert all(-5 <= v <= 5 for v in values)
    assert any(v < 0 for v in values) and any(v > 0 for v in values)
    # over F_2 the draws +-2 vanish too and are redrawn
    assert all(not _draw_nonzero(rng, prime_field(2), 2).is_zero() for _ in range(50))


def test_lcg_int_in_takes_both_signs_at_the_coeff_bound_ceiling():
    # a range past 2^31 values would stop short of its top: [-10^10, 10^10]
    # draws only from [-10^10, -10^10 + 2^31)
    bound = 2**30 - 1
    rng = Lcg(1)
    values = [rng.int_in(-bound, bound) for _ in range(1000)]
    assert all(-bound <= v <= bound for v in values)
    assert any(v < 0 for v in values) and any(v > 0 for v in values)


# -- module entry point -----------------------------------------------------------


def run_module(*args):
    """`python -m recres ARGS` in a child process that imports recres from
    this checkout's src/ (pytest's `pythonpath` setting reaches only the
    pytest process itself)."""
    path = [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, "-m", "recres", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )


def test_module_invocation_smoke():
    result = run_module("sequence", str(M2_FILE), "--n", "2")
    assert result.returncode == 0
    assert "r_2 = x^3 + 1, deg 3" in result.stdout


def test_help_smoke():
    result = run_module("--help")
    assert result.returncode == 0
    for command in ("sequence", "resultant", "verify", "fuzz"):
        assert command in result.stdout


# -- the loader against a one-polynomial-at-a-time oracle ------------------------


JUNK_TEXTS = [
    "", " ", "x", "1_0", "1.5", "1e3", "+-1", "1 2", "1/0", "0/0", "2/3", "-6/4", " 7 ", " 7 ", "\x1c5",
    "٣", "１", "1 / 2", "1/ 2", "1/+2", "+", "1,2", "9" * 900, "-" + "7" * 2000, "1" * 500 + " " + "1" * 500,
    5, None, [], 1.5, True,
]
JUNK_VALUES = [None, 5, "3", [], {}, [1], ["1", 2], True, [-1, 0, 0], [0, 0, 0], [True, 0, 0], [0.0, 0, 0]]
JUNK_KEYS = ["x", "02", " 3", "-1", "0", "+9", "9 ", "٣", "1_0", ""]


def text_slots(doc):
    """(owner, key) of every scalar text of a document, in document order;
    parts that an earlier fault broke are skipped."""
    slots = []

    def add(coeffs):
        if isinstance(coeffs, list):
            slots.extend((coeffs, i) for i in range(len(coeffs)))

    for poly in doc["initials"] if isinstance(doc.get("initials"), list) else []:
        add(poly)
    for entry in doc["steps"].values() if isinstance(doc.get("steps"), dict) else []:
        if isinstance(entry, dict):
            add(entry.get("g"))
            if "v" in entry:
                slots.append((entry, "v"))
            for t in entry["t"] if isinstance(entry.get("t"), list) else []:
                if isinstance(t, dict):
                    add(t.get("coeffs"))
    return slots


def mutate_doc(rng, doc):
    """One random fault: a junk text, a junk structure or a junk step key."""
    kind = rng.randrange(4)
    steps = doc.get("steps")
    entries = [e for e in steps.values() if isinstance(e, dict)] if isinstance(steps, dict) else []
    slots = text_slots(doc)
    if (kind == 0 or not entries) and slots:
        owner, key = rng.choice(slots)
        owner[key] = rng.choice(JUNK_TEXTS)
    elif kind == 1 and entries:
        entry = rng.choice(entries)
        field = rng.choice(["g", "v", "t", "t0", "alpha", "coeffs"])
        if field in ("g", "v", "t"):
            entry[field] = rng.choice(JUNK_VALUES)
        elif isinstance(entry.get("t"), list) and entry["t"] and isinstance(entry["t"][0], dict):
            if field == "t0":
                entry["t"][0] = rng.choice(JUNK_VALUES)
            else:
                entry["t"][0][field] = rng.choice(JUNK_VALUES)
        else:
            entry.pop(rng.choice(["g", "v"]), None)
    elif kind == 2 and entries:
        key = rng.choice(list(steps))
        steps[rng.choice(JUNK_KEYS)] = steps.pop(key)
    else:
        doc[rng.choice(["steps", "initials", "name"])] = rng.choice(JUNK_VALUES)


def load_outcome(loader, doc):
    try:
        return loader(copy.deepcopy(doc))
    except InstanceFormatError as exc:
        return f"InstanceFormatError: {exc}"
    except Exception as exc:  # the two loaders must fail alike, whatever the failure
        return f"{type(exc).__name__}: {exc}"


def oracle_docs():
    docs = [json.loads(path.read_text()) for path in (SCHUR_FILE, M2_FILE, ORDER3_FILE)]
    rng = random.Random(31)
    for desc in (prime_field(5), prime_field(10007), Q):
        for _ in range(3):
            docs.append(spec_to_json(rand_instance(rng, desc, k_max=3, n_max_extra=2)[0]))
    docs.append(spec_to_json(rand_fraction_instance(random.Random(32))[0]))
    return docs


def test_loader_matches_the_one_at_a_time_loader_on_valid_documents():
    for doc in oracle_docs():
        spec, oracle = spec_from_json(doc), spec_from_json_by_parts(doc)
        assert spec == oracle
        # equal Scalars may still hold an int where a Fraction is due
        assert [type(c.v.value) for c in spec.steps.values()] == [type(c.v.value) for c in oracle.steps.values()]
        assert spec_from_json(spec_to_json(spec)) == spec


def test_loader_names_the_faults_the_one_at_a_time_loader_names():
    # one or two faults per document: with two, the one met first in document
    # order must be named, whichever of a text and a structure it is
    rng = random.Random(33)
    faults = set()
    for round_ in range(600):
        doc = copy.deepcopy(rng.choice(oracle_docs()))
        for _ in range(1 + round_ % 2):
            mutate_doc(rng, doc)
        expected = load_outcome(spec_from_json_by_parts, doc)
        assert load_outcome(spec_from_json, doc) == expected, doc
        faults.add(expected.split(":")[0] if isinstance(expected, str) else "ok")
    assert "InstanceFormatError" in faults


# -- the cyclic collector around loads and dumps ----------------------------------


def test_write_json_frees_the_encoder_cycle_at_every_collector_count(tmp_path):
    # json.dumps(indent=2) leaves a reference cycle; a collection that the
    # dump itself triggers would promote it past the youngest generation,
    # which is all that _write_json collects afterwards
    doc = {"records": [{"a": [1, 2], "b": {"c": 3}} for _ in range(300)]}
    threshold = gc.get_threshold()[0]
    for filled in range(threshold - 60, threshold, 3):
        gc.collect()
        young = [[] for _ in range(filled)]  # the youngest generation nearly full
        cli._write_json(tmp_path / "report.json", doc)
        del young
        assert gc.collect() == 0, filled
    assert gc.isenabled()


def test_load_leaves_the_collector_as_it_found_it(tmp_path):
    good, bad = write_doc(tmp_path, schur_doc(), "good.json"), tmp_path / "bad.json"
    bad.write_text("{not json")
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            load_instance(good)
            with pytest.raises(InstanceFormatError):
                load_instance(str(bad))
            assert gc.isenabled() == enabled
    finally:
        gc.enable()
