"""End-to-end acceptance suite.

Every check is exact (field equality, no tolerances) and prints one
summary line so a full run reads as a checklist:

1. closed form == Sylvester == Euclid on 200 fuzzed instances over F_10007
2. the same identity on 50 fuzzed instances over Q
3. the classical three-term closed form reproduced over both fields
4. the general linear (d=1, m=1) case reproduced
5. degree / leading / constant closed forms correct on every fuzzed record
6. resultant algebra property suite, 500 random pairs per field
7. the alternate leading-term branch (i_d = i_{d-1}, k = l) is covered and passes
8. fuzz runs are byte-for-byte deterministic
9. the identity on fuzzed instances with d and m up to 4, over both fields
"""

import json
import random
import time
from pathlib import Path

import pytest

from recres import (
    FormulaContext,
    Poly,
    Scalar,
    generate,
    linear_recurrence,
    prime_field,
    rationals,
    resultant_euclid,
    resultant_sylvester,
    schur_recurrence,
    validate,
)
from recres.cli import main
from helpers import rand_nonzero_poly, rand_poly, rand_scalar, schur_formula

Q = rationals()
FP = prime_field(10007)

PRIME_FUZZ_ARGS = [
    "fuzz", "--seed", "1", "--count", "200",
    "--d-max", "2", "--m-max", "3", "--k-max", "3", "--i-max", "3",
    "--field", "10007",
]
RATIONAL_FUZZ_ARGS = [
    "fuzz", "--seed", "2", "--count", "50",
    "--d-max", "2", "--m-max", "2", "--coeff-bound", "3",
    "--field", "rational", "--n-max", "d+2",
]

# d = 3, 4 and m = 3, 4 are drawn here and nowhere else in the suite
WIDE_FUZZ_ARGS = {
    "F_10007": ["fuzz", "--seed", "5", "--count", "150", "--d-max", "4", "--m-max", "4", "--field", "10007"],
    "Q": [
        "fuzz", "--seed", "5", "--count", "60",
        "--d-max", "4", "--m-max", "3", "--field", "rational", "--n-max", "d+2",
    ],
}


def run_fuzz(args, out_dir):
    started = time.perf_counter()
    code = main(args + ["--out", str(out_dir)])
    elapsed = time.perf_counter() - started
    report = json.loads((Path(out_dir) / "report.json").read_text())
    return code, report, elapsed


@pytest.fixture(scope="module")
def prime_fuzz(tmp_path_factory):
    out = tmp_path_factory.mktemp("prime_fuzz")
    return (*run_fuzz(PRIME_FUZZ_ARGS, out), out)


@pytest.fixture(scope="module")
def prime_fuzz_repeat(tmp_path_factory):
    out = tmp_path_factory.mktemp("prime_fuzz_repeat")
    return (*run_fuzz(PRIME_FUZZ_ARGS, out), out)


@pytest.fixture(scope="module")
def rational_fuzz(tmp_path_factory):
    out = tmp_path_factory.mktemp("rational_fuzz")
    return (*run_fuzz(RATIONAL_FUZZ_ARGS, out), out)


def assert_identity_report(report, expected_count, min_extra=3):
    assert len(report["instances"]) == expected_count
    assert report["all_match"] is True
    for entry in report["instances"]:
        assert entry["all_match"] is True
        assert entry["n_range"][0] == entry["d"] + 1
        assert entry["n_range"][1] >= entry["d"] + min_extra
        for record in entry["records"]:
            assert record["match"] is True
            assert record["formula"] == record["sylvester"] == record["euclid"]


def test_1_main_identity_prime_field(prime_fuzz):
    code, report, elapsed, _ = prime_fuzz
    assert code == 0
    assert_identity_report(report, 200, min_extra=3)
    ok = sum(e["all_match"] for e in report["instances"])
    print(f"\n[acceptance 1] closed form == Sylvester == Euclid over F_10007: {ok}/200 instances ({elapsed:.1f}s) PASS")


def test_2_main_identity_rationals(rational_fuzz):
    code, report, elapsed, _ = rational_fuzz
    assert code == 0
    assert_identity_report(report, 50, min_extra=2)
    ok = sum(e["all_match"] for e in report["instances"])
    print(f"\n[acceptance 2] closed form == Sylvester == Euclid over Q: {ok}/50 instances ({elapsed:.1f}s) PASS")


def test_3_classical_three_term_formula():
    checked = 0
    for desc in (FP, Q):
        rng = random.Random(303)
        for _ in range(25):
            a = [rand_scalar(rng, desc, -6, 6, nonzero=True) for _ in range(8)]
            b = [rand_scalar(rng, desc, -6, 6) for _ in range(8)]
            c = [rand_scalar(rng, desc, -6, 6, nonzero=True) for _ in range(8)]
            seq = generate(schur_recurrence(a, b, c), 8)
            for n in range(2, 9):
                assert schur_formula(a, c, n) == resultant_sylvester(seq[n], seq[n - 1])
                checked += 1
    print(f"\n[acceptance 3] classical three-term closed form, both fields: {checked} exact matches PASS")


def rand_linear_instance(rng, desc, bound=5, max_tries=200):
    for _ in range(max_tries):
        k = rng.randint(1, 3)
        l = rng.randint(0, k)
        i = rng.randint(0, 3)
        j = rng.randint(i, 3)
        spec = linear_recurrence(
            rand_poly(rng, desc, i, -bound, bound),
            rand_poly(rng, desc, j, -bound, bound),
            [rand_poly(rng, desc, k, -bound, bound) for _ in range(7)],
            [rand_scalar(rng, desc, -bound, bound, nonzero=True) for _ in range(7)],
            l=l,
        )
        if validate(spec, 8).ok:
            return spec
    raise RuntimeError("no valid linear instance found")


def test_4_general_linear_case():
    rng = random.Random(404)
    checked = 0
    for _ in range(25):
        spec = rand_linear_instance(rng, FP)
        seq = generate(spec, 8)
        ctx = FormulaContext(spec)
        for n in range(2, 9):
            closed = ctx.resultant_formula(n)
            assert closed == resultant_sylvester(seq[n], seq[n - 1])
            assert closed == resultant_euclid(seq[n], seq[n - 1])
            checked += 1
    print(f"\n[acceptance 4] general linear (d=1, m=1) closed form: 25 instances, {checked} exact matches PASS")


def test_5_degree_leading_constant_closed_forms(prime_fuzz, rational_fuzz):
    records = 0
    for report in (prime_fuzz[1], rational_fuzz[1]):
        for entry in report["instances"]:
            for record in entry["records"]:
                assert record["degree_match"] is True
                assert record["leading_match"] is True
                assert record["constant_match"] is True
                assert record["degree"] == record["degree_formula"]
                records += 1
    print(f"\n[acceptance 5] degree/leading/constant closed forms: {records} records, zero failures PASS")


def test_6_resultant_property_suite():
    started = time.perf_counter()
    pairs_per_field = 500
    for desc in (FP, Q):
        rng = random.Random(606)
        for _ in range(pairs_per_field):
            f = rand_nonzero_poly(rng, desc, 25, -5, 5)
            g = rand_nonzero_poly(rng, desc, 25, -5, 5)

            # the two algorithms agree
            res = resultant_euclid(f, g)
            assert res == resultant_sylvester(f, g)

            # symmetry
            flipped = resultant_euclid(g, f)
            if (f.degree() * g.degree()) % 2:
                flipped = -flipped
            assert res == flipped

            # multiplicativity
            h = rand_nonzero_poly(rng, desc, 6, -5, 5)
            assert resultant_euclid(f, g * h) == res * resultant_euclid(f, h)

            # constant rule
            const = rand_scalar(rng, desc, -5, 5, nonzero=True)
            assert resultant_euclid(f, Poly(desc, [const])) == const ** f.degree()

            # one division step peels off lc(g)^(deg f - deg r)
            hi, lo = (f, g) if f.degree() >= g.degree() else (g, f)
            if lo.degree() >= 1:
                _, r = hi.divrem(lo)
                if not r.is_zero():
                    assert resultant_euclid(lo, hi) == lo.leading_coeff() ** (hi.degree() - r.degree()) * resultant_euclid(lo, r)

            # evaluation over constructed roots
            lc = rand_scalar(rng, desc, -5, 5, nonzero=True)
            betas = [rand_scalar(rng, desc, -5, 5) for _ in range(rng.randint(1, 4))]
            built = Poly(desc, [lc])
            expected = lc ** f.degree()
            for beta in betas:
                built = built * Poly(desc, [-beta, Scalar(desc, 1)])
                expected = expected * f.evaluate(beta)
            if (f.degree() * built.degree()) % 2:
                expected = -expected
            assert resultant_euclid(f, built) == expected

            # a shared factor forces zero
            shared = rand_poly(rng, desc, rng.randint(1, 3), -5, 5)
            assert resultant_euclid(f * shared, g * shared).is_zero()
    elapsed = time.perf_counter() - started
    print(f"\n[acceptance 6] resultant property suite: {pairs_per_field} pairs per field, all exact ({elapsed:.1f}s) PASS")


def test_7_edge_branch_coverage(prime_fuzz):
    _, report, _, _ = prime_fuzz
    edge_entries = [e for e in report["instances"] if e["edge_branch"]]
    assert report["branch_coverage"]["edge"] == len(edge_entries)
    assert len(edge_entries) >= 10
    assert all(e["all_match"] for e in edge_entries)
    print(f"\n[acceptance 7] alternate leading-term branch: {len(edge_entries)} instances covered, all verified PASS")


def test_8_determinism(prime_fuzz, prime_fuzz_repeat):
    _, _, _, dir_a = prime_fuzz
    _, _, _, dir_b = prime_fuzz_repeat
    names_a = sorted(p.name for p in Path(dir_a).iterdir())
    names_b = sorted(p.name for p in Path(dir_b).iterdir())
    assert names_a == names_b and len(names_a) == 201  # 200 dumps + report
    for name in names_a:
        assert (Path(dir_a) / name).read_bytes() == (Path(dir_b) / name).read_bytes(), name
    print(f"\n[acceptance 8] determinism: {len(names_a)} files byte-identical across runs PASS")


@pytest.mark.parametrize("field", WIDE_FUZZ_ARGS)
def test_9_identity_with_d_and_m_up_to_4(field, tmp_path):
    args = WIDE_FUZZ_ARGS[field]
    code, report, elapsed = run_fuzz(args, tmp_path)
    assert code == 0
    count, d_max, m_max = (int(args[args.index(flag) + 1]) for flag in ("--count", "--d-max", "--m-max"))
    assert_identity_report(report, count, min_extra=2 if field == "Q" else 3)
    instances = report["instances"]
    assert max(e["d"] for e in instances) == d_max and max(e["m"] for e in instances) == m_max
    print(f"\n[acceptance 9] closed form == Sylvester == Euclid over {field}, d <= {d_max}, m <= {m_max}: {count} instances ({elapsed:.1f}s) PASS")
