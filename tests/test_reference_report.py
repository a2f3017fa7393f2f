"""Reference-report gate: the shipped default config must reproduce the
checked-in report.json byte for byte.

tests/data/default_report.json was written by
`unlbench run --config configs/default.json`.  A change that is meant to
keep every reported number passes this test unchanged; a change that moves
a number on purpose regenerates the file and says why in CHANGES.md.
"""

from pathlib import Path

from unlbench.cli import main

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "default.json"
REFERENCE = Path(__file__).resolve().parent / "data" / "default_report.json"


def test_default_run_matches_reference_report(tmp_path):
    assert main(["run", "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path)]) == 0
    produced = (tmp_path / "report.json").read_bytes()
    assert produced == REFERENCE.read_bytes(), (
        "report.json differs from tests/data/default_report.json"
    )
