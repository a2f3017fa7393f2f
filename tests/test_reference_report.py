"""Reference-report gate: the shipped default config must reproduce the
checked-in report.json byte for byte.

tests/data/default_report.json was written by
`unlbench run --config configs/default.json`, and
tests/data/default_report_shift21.json by the same config with its master
and prototype seeds both shifted by 21 (26 and 28).  That draw drives GA's
features above 1e154, so it also pins CKA's rescale, its array_equal -> 1
rule and the overflow-safe k-NN.  A change that is meant to keep every
reported number passes this test unchanged; a change that moves a number
on purpose regenerates the files and says why in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from test_metrics import CKA_ORACLE_TOL, cka_three_hsic_oracle
from unlbench import ubm
from unlbench.cli import main

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "default.json"
DATA = Path(__file__).resolve().parent / "data"


# Reference file -> the shift of the default config's master and prototype
# seeds that wrote it.
SHIFTS = {"default_report.json": 0, "default_report_shift21.json": 21}


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Reference file -> output dir of `unlbench run` on its config."""
    runs = {}
    for reference, shift in SHIFTS.items():
        out = tmp_path_factory.mktemp("default_report")
        config = DEFAULT_CONFIG
        if shift:
            doc = json.loads(DEFAULT_CONFIG.read_text())
            doc["master_seed"] += shift
            doc["data"]["prototype_seed"] += shift
            config = out / "config.json"
            config.write_text(json.dumps(doc))
        assert main(["run", "--config", str(config), "--out", str(out / "run")]) == 0
        runs[reference] = out / "run"
    return runs


@pytest.mark.parametrize("reference", list(SHIFTS))
def test_default_run_matches_reference_report(default_runs, reference):
    produced = (default_runs[reference] / "report.json").read_bytes()
    assert produced == (DATA / reference).read_bytes(), (
        f"report.json differs from tests/data/{reference}"
    )


def test_default_run_cka_matches_gram_oracle(default_runs):
    """Every reported cka_ur and cka_uo of both runs, against the three-HSIC
    Gram form recomputed from the exported probe features."""
    for default_out in default_runs.values():
        assert _check_cka_against_oracle(default_out) == 66


def _check_cka_against_oracle(default_out) -> int:
    features = default_out / "features"
    pairs = 0
    for r in json.loads((default_out / "report.json").read_text())["reports"]:
        label = r["method"] if r["method"] in ("original", "retrained") \
            else f"{r['method']}-r{r['provenance']['repeat']}"
        for name, d in r["repr_scores"].items():
            u = ubm.read_matrix(features / label / f"{name}.ubm1")
            for got, ref in ((d["cka_ur"], "retrained"), (d["cka_uo"], "original")):
                want = cka_three_hsic_oracle(u, ubm.read_matrix(features / ref / f"{name}.ubm1"))
                assert abs(got - want) <= CKA_ORACLE_TOL, (label, name, ref, got, want)
                pairs += 1
    return pairs
