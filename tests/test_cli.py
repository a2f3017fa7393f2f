"""CLI surface: every subcommand end-to-end, plus exit-code contracts."""

import json
from pathlib import Path

import numpy as np
import pytest

from unlbench.cli import main
from unlbench.data import Dataset, save_dataset

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

MINI_DATA = {
    "ambient_dim": 16, "num_train_classes": 6, "per_class_train": 10,
    "per_class_test": 8, "class_noise_sigma": 0.25, "prototype_seed": 3,
    "downstream_specs": [
        {"name": "d", "num_classes": 3, "anchor_classes": [2, 5],
         "anchor_similarity": 0.9, "per_class": 18},
    ],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Data, checkpoints, and split produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "version": 1,
        "data": MINI_DATA,
        "scenario": {"kind": "random", "n_forget": 2},
        "train": {"lr": 0.1, "epochs": 10, "batch_size": 16},
        "methods": [{"method": "PL", "base": {"lr": 0.02, "epochs": 3}}],
        "master_seed": 11,
        "repeats": 1,
        "output_dir": str(root / "out"),
        "probe_rows": 24,
    }
    (root / "config.json").write_text(json.dumps(cfg))
    (root / "traincfg.json").write_text(json.dumps(
        {"version": 1, "train": {"lr": 0.1, "epochs": 10, "batch_size": 16, "seed": 2}}
    ))
    assert main(["gen-data", "--config", str(root / "config.json"),
                 "--out", str(root / "data")]) == 0
    assert main(["train", "--data", str(root / "data" / "train"),
                 "--config", str(root / "traincfg.json"),
                 "--out", str(root / "ckpt" / "original")]) == 0
    assert main(["split", "--train", str(root / "data" / "train"),
                 "--test", str(root / "data" / "test"),
                 "--kind", "random", "--n", "2", "--seed", "4",
                 "--out", str(root / "split")]) == 0
    return root


def test_gen_data_writes_loadable_datasets(workspace):
    from unlbench.data import load_dataset
    train = load_dataset(workspace / "data" / "train")
    assert train.n == 60 and train.num_classes == 6
    down = load_dataset(workspace / "data" / "d")
    assert down.n == 54


def test_train_checkpoint_round_trips(workspace):
    from unlbench.model import load_checkpoint
    ckpt = load_checkpoint(workspace / "ckpt" / "original")
    assert ckpt.provenance["role"] == "original"
    assert ckpt.params.num_classes == 6


def test_split_directory_structure(workspace):
    from unlbench.data import load_split
    split = load_split(workspace / "split")
    assert len(split.forget_classes) == 2
    assert split.Df.n == 20


def test_unlearn_writes_checkpoint_and_config(workspace):
    out = workspace / "ckpt" / "pl"
    assert main(["unlearn", "--method", "PL",
                 "--original", str(workspace / "ckpt" / "original"),
                 "--split", str(workspace / "split"),
                 "--seed", "5", "--out", str(out)]) == 0
    from unlbench.model import load_checkpoint
    ckpt = load_checkpoint(out)
    assert ckpt.provenance["role"] == "unlearned:PL"
    saved = json.loads((out / "unlearn_config.json").read_text())
    assert saved["method"] == "PL" and saved["version"] == 1


def test_select_top_prints_ranking(workspace, capsys):
    assert main(["select-top", "--model", str(workspace / "ckpt" / "original"),
                 "--train", str(workspace / "data" / "train"),
                 "--downstream", str(workspace / "data" / "d"),
                 "--n", "2"]) == 0
    ranking = json.loads(capsys.readouterr().out)
    assert {e["class"] for e in ranking} == {2, 5}


def test_eval_emits_metrics_json(workspace, capsys):
    retr = workspace / "ckpt" / "retrained"
    assert main(["train", "--data", str(workspace / "split" / "Dr"),
                 "--config", str(workspace / "traincfg.json"),
                 "--out", str(retr)]) == 0
    capsys.readouterr()  # drop the train command's status line
    assert main(["eval", "--unlearned", str(workspace / "ckpt" / "pl"),
                 "--retrained", str(retr),
                 "--original", str(workspace / "ckpt" / "original"),
                 "--split", str(workspace / "split"),
                 "--downstreams", str(workspace / "data" / "d"),
                 "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.0 <= doc["agl"] <= 1.0
    assert "d" in doc["repr_scores"]
    assert 0.0 <= doc["mia"] <= 1.0


def test_eval_reproduces_every_default_run_row(tmp_path):
    """eval --seed <master seed> on run's own models, split and downstream
    sets scores each of the default config's 11 rows exactly as run does."""
    from unlbench.data import save_dataset, save_split
    from unlbench.harness import ExperimentConfig, build_scenario, run_scenario
    from unlbench.model import ModelCheckpoint, save_checkpoint

    config = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    cfg = ExperimentConfig.from_dict(json.loads(config.read_text()))
    ctx = build_scenario(cfg)
    reports, models = run_scenario(cfg, emit=False, ctx=ctx)
    save_split(ctx.split, tmp_path / "split")
    downstreams = []
    for name, ds in ctx.downstreams.items():
        save_dataset(ds, tmp_path / "data" / name)
        downstreams.append(str(tmp_path / "data" / name))
    for label, params in models.items():
        save_checkpoint(ModelCheckpoint(params, {"role": label}), tmp_path / label)

    keys = ("scenario", "logit", "repr_scores", "agl", "agr", "hlr", "mia")
    labels = ["original", "retrained"] + [f"{m.method}-r0" for m in cfg.methods]
    assert len(reports) == len(labels) == 11
    for label, report in zip(labels, reports):
        out = tmp_path / f"{label}.json"
        assert main(["eval", "--unlearned", str(tmp_path / label),
                     "--retrained", str(tmp_path / "retrained"),
                     "--original", str(tmp_path / "original"),
                     "--split", str(tmp_path / "split"),
                     "--downstreams", *downstreams,
                     "--seed", str(cfg.master_seed), "--out", str(out)]) == 0
        got, want = json.loads(out.read_text()), report.to_dict()
        assert {k: got[k] for k in keys} == {k: want[k] for k in keys}, label


def test_run_writes_reports(workspace, capsys):
    assert main(["run", "--config", str(workspace / "config.json")]) == 0
    out = workspace / "out"
    doc = json.loads((out / "report.json").read_text())
    methods = [r["method"] for r in doc["reports"]]
    assert methods == ["original", "retrained", "PL"]
    assert (out / "report.csv").exists()
    assert (out / "cka_scatter.csv").exists()


def test_sweep_both_kinds(workspace):
    cfg = json.loads((workspace / "config.json").read_text())
    cfg["sweep"] = {"method": "PL", "lr_grid": [0.01, 0.02], "epoch_grid": [1, 2],
                    "sigma_grid": [0.0, 0.5]}
    sweep_cfg = workspace / "sweep.json"
    sweep_cfg.write_text(json.dumps(cfg))
    out = workspace / "sweeps"
    assert main(["sweep", "--config", str(sweep_cfg), "--kind", "lr-epochs",
                 "--out", str(out)]) == 0
    assert main(["sweep", "--config", str(sweep_cfg), "--kind", "dp-noise",
                 "--out", str(out)]) == 0
    lr_csv = (out / "sweep_lr_epochs_PL.csv").read_text().splitlines()
    assert lr_csv[0] == "lr\\epochs,1,2,status" and len(lr_csv) == 3
    dp_csv = (out / "sweep_dp_noise_PL.csv").read_text().splitlines()
    assert dp_csv[0] == "sigma,knn_acc,cka_ur,cka_uo,status" and len(dp_csv) == 3


class RawText(bytes):
    """A --ranking file's content, written as is rather than as JSON."""


# A --ranking path that is a directory.
DIRECTORY = object()


class TestExitCodes:
    def test_missing_config_file_is_config_error(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 1

    def test_missing_version_is_config_error(self, tmp_path):
        bad = tmp_path / "nover.json"
        bad.write_text(json.dumps({"data": {}}))
        assert main(["run", "--config", str(bad)]) == 1

    def test_unknown_method_is_config_error(self, workspace):
        assert main(["unlearn", "--method", "NOPE",
                     "--original", str(workspace / "ckpt" / "original"),
                     "--split", str(workspace / "split"),
                     "--out", "/tmp/x"]) == 1

    @pytest.mark.parametrize("block, key, value", [
        ("train", "epoch", 3),           # a typo of epochs
        ("train", "epochs", "3"),        # a string for an int
        ("scenario", "n_forget", 6),     # every train class forgotten
        ("data", "per_class_train", 0),  # an empty train set
        ("data", "per_class_test", 0),   # an empty test set
        ("data", "per_class_train", -1),
        # json reads NaN; an lr of NaN would only diverge once training ran.
        ("train", "lr", float("nan")),
    ])
    def test_bad_run_config_is_config_error(self, workspace, tmp_path, capsys,
                                            block, key, value):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg.setdefault(block, {})[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad)]) == 1
        assert key in capsys.readouterr().err

    def test_bare_block_configs_drop_version(self, workspace, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"version": 1, "epochs": 1, "batch_size": 16}))
        assert main(["train", "--data", str(workspace / "data" / "train"),
                     "--config", str(bare), "--out", str(tmp_path / "ckpt")]) == 0
        bare.write_text(json.dumps({"version": 1, "base": {"epochs": 1}}))
        assert main(["unlearn", "--method", "PL",
                     "--original", str(workspace / "ckpt" / "original"),
                     "--split", str(workspace / "split"), "--config", str(bare),
                     "--out", str(tmp_path / "pl")]) == 0
        bare.write_text(json.dumps({"version": 1, **MINI_DATA}))
        assert main(["gen-data", "--config", str(bare), "--out", str(tmp_path / "data")]) == 0

    def test_training_on_an_empty_dataset_is_runtime_error(self, tmp_path, capsys):
        save_dataset(Dataset(np.empty((0, 16)), np.empty(0, dtype=np.int64), 6),
                     tmp_path / "empty")
        assert main(["train", "--data", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "ckpt")]) == 2
        assert "DegenerateInputError" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("block, message", [
        ({"method": "PL", "lr_grids": [0.5], "epoch_grid": [1]}, "sweep.lr_grids"),
        (["PL"], "sweep: expected an object"),
        # Each of these used to surface only after theta_o and theta_r had
        # trained, or to pass: an empty grid wrote a header-only CSV.
        ({"method": "PL", "sigma_grid": []}, "sweep.sigma_grid must not be empty"),
        ({"method": "PL", "lr_grid": []}, "sweep.lr_grid must not be empty"),
        ({"method": "PL", "epoch_grid": []}, "sweep.epoch_grid must not be empty"),
        ({"method": "PL", "sigma_grid": [0.0, -0.1]}, "sweep.sigma_grid: values must be"),
        ({"method": "PL", "lr_grid": [0.1, -0.1]}, "sweep.lr_grid: values must be"),
        ({"method": "PL", "epoch_grid": [-1]}, "sweep.epoch_grid: values must be"),
    ])
    @pytest.mark.parametrize("kind", ["lr-epochs", "dp-noise"])
    def test_bad_sweep_block_is_config_error(self, workspace, tmp_path, capsys,
                                             block, message, kind):
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["sweep"] = block
        bad = tmp_path / "sweep.json"
        bad.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(bad), "--kind", kind,
                     "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--kind", "dp-noise"]],
                             ids=["run", "sweep"])
    def test_misnamed_related_set_is_config_error(self, workspace, tmp_path, capsys, argv):
        # The dp-noise sweep used to train theta_o and theta_r first and then
        # exit 2 on a KeyError; run echoed the bogus name into every row.
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["scenario"]["related_dataset"] = "no-such-set"
        cfg["sweep"] = {"method": "PL"}
        if argv == ["run"]:
            del cfg["sweep"]
        bad = tmp_path / "related.json"
        bad.write_text(json.dumps(cfg))
        assert main([*argv, "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "'no-such-set'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["lr-epochs", "dp-noise"])
    def test_sweep_of_an_unlisted_method_leaves_no_out_directory(self, workspace, tmp_path,
                                                                 capsys, kind):
        # --out used to be created, empty, before the method was looked up.
        assert main(["sweep", "--config", str(workspace / "config.json"), "--kind", kind,
                     "--method", "RETRAIN", "--out", str(tmp_path / "out")]) == 1
        assert "method 'RETRAIN' not present" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sigma_is_config_error(self, workspace, tmp_path, capsys, value):
        # json reads NaN and Infinity; a NaN sigma used to train as sigma 0
        # and write an "ok" row, because NaN > 0 is false.
        cfg = json.loads((workspace / "config.json").read_text())
        cfg["sweep"] = {"method": "PL", "sigma_grid": [0.0, value]}
        bad = tmp_path / "sweep.json"
        bad.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(bad), "--kind", "dp-noise",
                     "--out", str(tmp_path / "out")]) == 1
        assert "sweep.sigma_grid[1]: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("probe_rows", ["2", "0", "-1"])
    def test_too_few_probe_rows_rejected_before_loading(self, workspace, tmp_path,
                                                       capsys, probe_rows):
        ckpt = str(workspace / "ckpt" / "original")
        common = ["--split", str(workspace / "split"),
                  "--downstreams", str(workspace / "data" / "d"),
                  "--probe-rows", probe_rows]
        # Loadable checkpoints would reach CKA's 3-row minimum at runtime.
        assert main(["eval", "--unlearned", ckpt, "--retrained", ckpt,
                     "--original", ckpt, *common]) == 1
        assert "--probe-rows must be >= 3" in capsys.readouterr().err
        # Missing checkpoints show the flag is checked before any load.
        missing = str(tmp_path / "missing")
        assert main(["eval", "--unlearned", missing, "--retrained", missing,
                     "--original", missing, *common]) == 1

    @pytest.mark.parametrize("related", [None, "nope"])
    def test_top_eval_without_related_rejected_before_loading(self, workspace, tmp_path,
                                                             capsys, related):
        missing = str(tmp_path / "missing")
        argv = ["eval", "--unlearned", missing, "--retrained", missing,
                "--original", missing, "--split", missing,
                "--downstreams", str(workspace / "data" / "d"), "--scenario-kind", "top"]
        if related:
            argv += ["--related", related]
        assert main(argv) == 1
        assert "--related" in capsys.readouterr().err

    def test_random_eval_with_misnamed_related_rejected_before_loading(self, workspace,
                                                                      tmp_path, capsys):
        missing = str(tmp_path / "missing")
        assert main(["eval", "--unlearned", missing, "--retrained", missing,
                     "--original", missing, "--split", missing,
                     "--downstreams", str(workspace / "data" / "d"),
                     "--related", "nope"]) == 1
        assert "--related must name one of the --downstreams" in capsys.readouterr().err

    def test_repeated_downstream_name_rejected_before_loading(self, tmp_path, capsys):
        # a/d and b/d would both be keyed "d", and one would go unscored.
        missing = str(tmp_path / "missing")
        assert main(["eval", "--unlearned", missing, "--retrained", missing,
                     "--original", missing, "--split", missing, "--downstreams",
                     str(tmp_path / "a" / "d"), str(tmp_path / "b" / "d")]) == 1
        assert "repeats a name" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["split", "select-top"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_n_below_one_rejected_before_loading(self, tmp_path, capsys, command, n):
        missing = str(tmp_path / "missing")
        paths = {"split": ["--train", missing, "--test", missing, "--out", missing],
                 "select-top": ["--model", missing, "--train", missing,
                                "--downstream", missing]}
        assert main([command, *paths[command], "--n", n]) == 1
        assert "--n: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["random", "top"])
    @pytest.mark.parametrize("n", ["6", "7"])
    def test_split_n_at_class_count_is_config_error(self, workspace, tmp_path,
                                                    capsys, kind, n):
        ranking = tmp_path / "ranking.json"
        ranking.write_text(json.dumps(list(range(6))))
        assert main(["split", "--train", str(workspace / "data" / "train"),
                     "--test", str(workspace / "data" / "test"), "--kind", kind,
                     "--ranking", str(ranking), "--n", n,
                     "--out", str(tmp_path / "split")]) == 1
        assert "must be below the train set's 6 classes" in capsys.readouterr().err
        assert not (tmp_path / "split").exists()

    @pytest.mark.parametrize("ranking, message", [
        ([0, 1], "fewer than --n 3"),
        ([99, 98, 97], "class 99, outside [0, 6)"),
        ([0, 1, -1, 2], "class -1, outside [0, 6)"),
        ([0, 2, 1, "3"], "class '3', outside [0, 6)"),
        ([{"cls": 0}, 1, 2], "class None, outside [0, 6)"),
        ([0, 0, 1, 2], "repeats a class in its first 3 entries"),
        ([True, False, 3], "class True, outside [0, 6)"),
        ([{"class": 0}, {"class": False}, 2], "class False, outside [0, 6)"),
        ({"a": 1}, "must be a JSON list of class ids, got dict"),
        (5, "must be a JSON list of class ids, got int"),
        ("0, 1, 2", "must be a JSON list of class ids, got str"),
        # Raw file text, a file that is not there, and one that cannot be read.
        (RawText(b"[0, 1"), "invalid JSON"),
        (None, "--ranking file not found"),
        (RawText(b"\xff\xfe[0]"), "cannot read --ranking file"),
        (DIRECTORY, "cannot read --ranking file"),
    ])
    def test_split_bad_ranking_is_config_error(self, workspace, tmp_path, capsys,
                                               ranking, message):
        path = tmp_path / "ranking.json"
        if ranking is DIRECTORY:
            path.mkdir()
        elif isinstance(ranking, RawText):
            path.write_bytes(ranking)
        elif ranking is not None:
            path.write_text(json.dumps(ranking))
        assert main(["split", "--train", str(workspace / "data" / "train"),
                     "--test", str(workspace / "data" / "test"), "--kind", "top",
                     "--ranking", str(path), "--n", "3",
                     "--out", str(tmp_path / "split")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "split").exists()

    def test_select_top_n_above_class_count_is_config_error(self, workspace, capsys):
        argv = ["select-top", "--model", str(workspace / "ckpt" / "original"),
                "--train", str(workspace / "data" / "train"),
                "--downstream", str(workspace / "data" / "d")]
        assert main([*argv, "--n", "7"]) == 1
        assert "exceeds the train set's 6 classes" in capsys.readouterr().err
        assert main([*argv, "--n", "6"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 6

    def test_bad_flag_is_config_error(self, capsys):
        assert main(["run", "--nope"]) == 1

    def test_runtime_failure_is_exit_two(self, workspace, tmp_path, capsys):
        # A corrupted checkpoint fails at load time, after config parsing.
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(workspace / "ckpt" / "original", broken)
        blob = bytearray((broken / "W1.ubm1").read_bytes())
        blob[-1] ^= 0xFF
        (broken / "W1.ubm1").write_bytes(bytes(blob))
        assert main(["unlearn", "--method", "PL",
                     "--original", str(broken),
                     "--split", str(workspace / "split"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error" in capsys.readouterr().err
