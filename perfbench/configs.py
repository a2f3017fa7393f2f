"""Inputs of the three workloads, generated from the benchmark seed.

Seed n shifts every seed of the shipped default config by n: the master
seed becomes 5 + n and the prototype seed 7 + n, so seed 0 reproduces
configs/default.json exactly.  The program only ever sees the JSON config
written from here plus command-line seeds derived the same way.
Standard library only: the runner imports this module.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CONFIG = ROOT / "configs" / "default.json"

# The dp-noise grid `unlbench sweep --kind dp-noise` uses when the config
# names none.
SIGMA_GRID = (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 30.0)
SWEEP_METHOD = "FT"

# Step-by-step pipeline: forget-only PL, plus SCAR and SCRUB, which also
# consume the retain set.
CLI_METHODS = ("PL", "SCAR", "SCRUB")


def shipped(seed: int) -> dict:
    """configs/default.json with its seeds shifted: random-5, nine methods.
    default-run runs it with `run`'s harness calls; cli-steps feeds its data
    and train blocks to the subcommands."""
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    cfg["master_seed"] += seed
    cfg["data"]["prototype_seed"] += seed
    return cfg


def large_top_dp(seed: int) -> dict:
    """Top-5 forgetting of the classes nearest cub-like, in a 40-class
    universe of 10 000 training rows, with FT as the swept method."""
    cfg = shipped(seed)
    cfg["data"].update(num_train_classes=40, per_class_train=250)
    cfg["scenario"] = {"kind": "top", "n_forget": 5, "related_dataset": "cub-like"}
    cfg["methods"] = [SWEEP_METHOD]
    return cfg


def cli_seeds(seed: int) -> dict:
    """The README's step-by-step seeds (train 11, split 3, retrain 12),
    shifted like the config; eval uses the master seed."""
    return {"train": 11 + seed, "split": 3 + seed, "retrain": 12 + seed,
            "eval": shipped(seed)["master_seed"]}


BUILDERS = {"default-run": shipped, "large-top-dp": large_top_dp, "cli-steps": shipped}
