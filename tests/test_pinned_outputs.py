"""Pinned outputs: sha256 digests of fuzz campaigns and verify records.

A refactor that keeps every value keeps these digests.  The fuzz digest
covers the report and every dumped instance, file names included; the
verify digest covers `records` and `all_match` only, since `instance`
holds the path and `elapsed_seconds` a timing.  A change that alters an
output on purpose must say so and pin the new digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from recres.cli import main

REPO = Path(__file__).resolve().parent.parent

FUZZ_CAMPAIGNS = {
    "fp10007": (
        ["fuzz", "--seed", "1", "--count", "50"],
        "3a7d0598f026d014464fe6b42672defc10c433ad129c55299c7b6fc97a2ff696",
    ),
    "rational": (
        ["fuzz", "--seed", "1", "--count", "50", "--field", "rational", "--n-max", "d+2"],
        "4e091256a81126290ad54b1f55bd9f5befa3d7b3e38776e8a2a2bdd4e906d91e",
    ),
}

VERIFY_RUNS = {
    "three_term_classic": (8, "317d8b4b8bee17b4eb09b3db36cf0c7f32fd3d95a2ac9099f52452f297c16d99"),
    "nonlinear_m2": (6, "6c94078f4294b72fbcbd52a58eac2391b0792f9edd30a91c05a2ebaeb2eb5e19"),
    "order3_shifted": (6, "f8c1613f8a85d670b31f432bf7a301c04ef69db539f45cb8af1dc95416466e7b"),
}


def tree_digest(directory: Path) -> str:
    """sha256 over (name, bytes) of every file in directory, by name."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("label", sorted(FUZZ_CAMPAIGNS))
def test_fuzz_campaign_digest(label, tmp_path, capsys):
    args, expected = FUZZ_CAMPAIGNS[label]
    out = tmp_path / label
    assert main(args + ["--out", str(out)]) == 0
    assert tree_digest(out) == expected


@pytest.mark.parametrize("name", sorted(VERIFY_RUNS))
def test_verify_records_digest(name, tmp_path, capsys):
    n_max, expected = VERIFY_RUNS[name]
    out = tmp_path / "verify.json"
    instance = REPO / "instances" / f"{name}.json"
    assert main(["verify", str(instance), "--n-max", str(n_max), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    pinned = json.dumps({"records": doc["records"], "all_match": doc["all_match"]}, sort_keys=True)
    assert hashlib.sha256(pinned.encode()).hexdigest() == expected
