"""Reference-report gate: the shipped default config must reproduce the
checked-in report.json byte for byte.

tests/data/default_report.json was written by
`unlbench run --config configs/default.json`.  A change that is meant to
keep every reported number passes this test unchanged; a change that moves
a number on purpose regenerates the file and says why in CHANGES.md.
"""

from pathlib import Path

import pytest

from test_metrics import CKA_ORACLE_TOL, cka_three_hsic_oracle
from unlbench import ubm
from unlbench.cli import main
from unlbench.harness import load_reports

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "default.json"
REFERENCE = Path(__file__).resolve().parent / "data" / "default_report.json"


@pytest.fixture(scope="module")
def default_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_report")
    assert main(["run", "--config", str(DEFAULT_CONFIG), "--out", str(out)]) == 0
    return out


def test_default_run_matches_reference_report(default_out):
    produced = (default_out / "report.json").read_bytes()
    assert produced == REFERENCE.read_bytes(), (
        "report.json differs from tests/data/default_report.json"
    )


def test_default_run_cka_matches_gram_oracle(default_out):
    """Every reported cka_ur and cka_uo, against the three-HSIC Gram form
    recomputed from the exported probe features."""
    features = default_out / "features"
    pairs = 0
    for r in load_reports(default_out / "report.json"):
        label = r.method if r.method in ("original", "retrained") \
            else f"{r.method}-r{r.provenance['repeat']}"
        for name, d in r.repr_scores.per_dataset.items():
            u = ubm.read_matrix(features / label / f"{name}.ubm1")
            for got, ref in ((d.cka_ur, "retrained"), (d.cka_uo, "original")):
                want = cka_three_hsic_oracle(u, ubm.read_matrix(features / ref / f"{name}.ubm1"))
                assert abs(got - want) <= CKA_ORACLE_TOL, (label, name, ref, got, want)
                pairs += 1
    assert pairs == 66
