"""Orchestration: top-class selection, scenario runs, reports, sweeps."""

import csv
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from unlbench import harness
from unlbench.data import Dataset, DownstreamSpec, SyntheticSpec, generate_universe
from unlbench.errors import BoundsError, DivergenceError
from unlbench.harness import (
    ExperimentConfig,
    ScenarioSpec,
    build_scenario,
    default_method_config,
    emit_report,
    evaluate_model,
    load_reports,
    reports_to_json,
    run_scenario,
    select_top_classes,
    sweep_dp_noise,
    sweep_hyperparameters,
)
from unlbench.model import TrainConfig, forward, init_params, sgd_train
from unlbench.rng import make_rng
from unlbench.unlearning import UnlearnConfig, run_unlearning

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def mini_config(**overrides):
    data = SyntheticSpec(
        ambient_dim=16, num_train_classes=6, per_class_train=10, per_class_test=8,
        prototype_seed=3,
        downstream_specs=(DownstreamSpec("d", 3, (2, 5), 0.9, per_class=18),),
    )
    base = dict(
        data=data,
        scenario=ScenarioSpec("random", 2, None),
        train=TrainConfig(lr=0.1, epochs=10, batch_size=16, seed=0),
        methods=(
            UnlearnConfig("PL", TrainConfig(lr=0.02, epochs=3, batch_size=16)),
            UnlearnConfig("FT", TrainConfig(lr=0.05, epochs=2, batch_size=16)),
        ),
        master_seed=11,
        repeats=1,
        output_dir="unused",
        probe_rows=24,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def trained_toy():
    spec = SyntheticSpec(
        ambient_dim=16, num_train_classes=6, per_class_train=10, per_class_test=5,
        prototype_seed=3,
        downstream_specs=(DownstreamSpec("d", 3, (2, 5), 0.9, per_class=18),),
    )
    train, test, downs, protos = generate_universe(spec)
    params = sgd_train(init_params(16, 6, 2), train,
                       TrainConfig(lr=0.1, epochs=20, batch_size=16, seed=2))
    return spec, train, test, downs, protos, params


class TestSelectTopClasses:
    def test_downstream_copy_of_train_classes_ranks_them_first(self, trained_toy):
        _, train, _, _, _, params = trained_toy
        mask = np.isin(train.y, [1, 3])
        down = Dataset(train.X[mask], np.where(train.y[mask] == 1, 0, 1), 2)
        ranking = select_top_classes(params, train, down, 6)
        assert set(ranking.ids()[:2]) == {1, 3}

    def test_full_ranking_is_permutation(self, trained_toy):
        _, train, _, downs, _, params = trained_toy
        ranking = select_top_classes(params, train, downs["d"], 6)
        assert sorted(ranking.ids()) == list(range(6))
        assert len({c for c, _ in ranking.entries}) == 6

    def test_anchored_classes_rank_on_top(self, trained_toy):
        spec, train, _, downs, protos, params = trained_toy
        # The construction puts the downstream prototypes at cosine 0.9 of
        # train prototypes 2 and 5; verify with the prototype dot products.
        d_protos = protos.downstream["d"]
        assert float(d_protos[0] @ protos.train[2]) > 0.88
        assert float(d_protos[1] @ protos.train[5]) > 0.88
        ranking = select_top_classes(params, train, downs["d"], 2)
        assert set(ranking.ids()) == {2, 5}

    def test_invariant_under_downstream_row_permutation(self, trained_toy):
        _, train, _, downs, _, params = trained_toy
        d = downs["d"]
        perm = make_rng(9, 0).permutation(d.n)
        shuffled = Dataset(d.X[perm], d.y[perm], d.num_classes)
        a = select_top_classes(params, train, d, 6)
        b = select_top_classes(params, train, shuffled, 6)
        assert a.ids() == b.ids()

    def test_n_too_large_rejected(self, trained_toy):
        _, train, _, downs, _, params = trained_toy
        with pytest.raises(BoundsError):
            select_top_classes(params, train, downs["d"], 7)

    def test_ranking_survives_features_whose_norm_overflows(self, trained_toy):
        """Scaling the feature layer by 2**600 scales every feature exactly;
        cosine similarity is scale-invariant, so the ranking must not move
        even though the feature norms overflow to inf."""
        _, train, _, downs, _, params = trained_toy
        scaled = replace(params, W2=params.W2 * 2.0 ** 600, b2=params.b2 * 2.0 ** 600)
        assert not np.isfinite(np.linalg.norm(forward(scaled, train.X)[0], axis=1)).any()
        want = select_top_classes(params, train, downs["d"], 6).ids()
        assert select_top_classes(scaled, train, downs["d"], 6).ids() == want


class TestRunScenario:
    def test_reference_models_forward_once_per_downstream_set(self, monkeypatch):
        """theta_o and theta_r are scored like every other model: one forward
        over each whole downstream set, the probe features sliced from it."""
        calls = []

        def recording(params, x):
            calls.append((params, len(x)))
            return forward(params, x)

        monkeypatch.setattr(harness, "forward", recording)
        base = mini_config()
        data = replace(base.data, downstream_specs=(
            DownstreamSpec("d", 3, (2, 5), 0.9, per_class=18),
            DownstreamSpec("e", 2, (1,), 0.9, per_class=20),
        ))
        ctx = build_scenario(replace(base, data=data))
        sizes = [ds.n for ds in ctx.downstreams.values()]
        assert sizes == [54, 40] and base.probe_rows < min(sizes)
        for theta in (ctx.theta_o, ctx.theta_r):
            assert [n for p, n in calls if p is theta] == sizes
        assert len(calls) == 2 * len(sizes)

    def test_no_methods_gives_reference_rows_only(self, tmp_path):
        cfg = mini_config(methods=(), output_dir=str(tmp_path / "o"))
        reports, _ = run_scenario(cfg)
        assert [r.method for r in reports] == ["original", "retrained"]

    def test_retrained_row_is_exact_unity(self, tmp_path):
        cfg = mini_config(methods=(), output_dir=str(tmp_path / "o"))
        reports, _ = run_scenario(cfg)
        retr = reports[1]
        assert retr.agl == 1.0 and retr.agr == 1.0 and retr.hlr == 1.0
        assert retr.logit.fa <= 0.01

    def test_deterministic_report_files(self, tmp_path):
        for d in ("a", "b"):
            cfg = mini_config(repeats=2, output_dir=str(tmp_path / d))
            run_scenario(cfg)
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()
        assert (tmp_path / "a" / "cka_scatter.csv").read_bytes() == \
            (tmp_path / "b" / "cka_scatter.csv").read_bytes()

    def test_scores_in_unit_interval(self, tmp_path):
        cfg = mini_config(output_dir=str(tmp_path / "o"))
        reports, _ = run_scenario(cfg)
        for r in reports:
            assert r.status == "ok"
            for v in (r.agl, r.agr, r.hlr, r.mia):
                assert 0.0 <= v <= 1.0

    def test_failed_method_repeat_recorded_not_raised(self, tmp_path):
        bad = UnlearnConfig("GA", TrainConfig(lr=1e5, epochs=200, momentum=0.0))
        cfg = mini_config(methods=(bad, UnlearnConfig("PL", TrainConfig(lr=0.02, epochs=2))),
                          output_dir=str(tmp_path / "o"))
        reports, _ = run_scenario(cfg)
        by_method = {r.method: r for r in reports}
        assert by_method["GA"].status.startswith("failed: DivergenceError")
        assert by_method["PL"].status == "ok"

    def test_probe_features_exported_as_ubm1(self, tmp_path):
        from unlbench import ubm
        cfg = mini_config(output_dir=str(tmp_path / "o"))
        run_scenario(cfg)
        exported = ubm.read_matrix(tmp_path / "o" / "features" / "original" / "d.ubm1")
        assert exported.shape == (24, 16)

    def test_top_scenario_agr_uses_related_dataset_only(self, tmp_path):
        data = SyntheticSpec(
            ambient_dim=16, num_train_classes=6, per_class_train=10, per_class_test=8,
            prototype_seed=3,
            downstream_specs=(
                DownstreamSpec("rel", 3, (2, 5), 0.9, per_class=18),
                DownstreamSpec("other", 3, (0,), 0.7, per_class=18),
            ),
        )
        cfg = mini_config(data=data,
                          scenario=ScenarioSpec("top", 2, "rel"),
                          output_dir=str(tmp_path / "o"))
        reports, _ = run_scenario(cfg)
        for r in reports:
            assert r.provenance["related_dataset"] == "rel"
            rel = r.repr_scores.per_dataset["rel"]
            assert r.agr == pytest.approx((1.0 - rel.g_knn) * rel.cka_ur)
            assert r.scenario == "top-2-rel"


class TestEmitAndLoad:
    def test_round_trip_byte_identical(self, tmp_path):
        cfg = mini_config(output_dir=str(tmp_path / "o"))
        reports, _ = run_scenario(cfg)
        first = (tmp_path / "o" / "report.json").read_text()
        back = load_reports(tmp_path / "o" / "report.json")
        doc = json.loads(first)
        assert reports_to_json(back, doc.get("config")) == first

    def test_empty_report_list_gives_header_only_csv(self, tmp_path):
        paths = emit_report([], tmp_path / "o")
        lines = paths["csv"].read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("method,scenario,seed,status")

    def test_csv_has_six_decimal_fractions(self, tmp_path):
        cfg = mini_config(methods=(), output_dir=str(tmp_path / "o"))
        run_scenario(cfg)
        rows = (tmp_path / "o" / "report.csv").read_text().splitlines()
        retrained = rows[2].split(",")
        assert retrained[0] == "retrained"
        assert retrained[8] == "1.000000"   # agl column
        assert float(retrained[4]) <= 0.01  # fa column


class TestSweeps:
    def test_single_cell_grid_matches_run_scenario(self, tmp_path):
        cfg = mini_config(output_dir=str(tmp_path / "o"))
        reports, _ = run_scenario(cfg)
        pl_row = [r for r in reports if r.method == "PL"][0]
        pl_cfg = cfg.methods[0]
        grid, _ = sweep_hyperparameters(
            cfg, "PL", [pl_cfg.base.lr], [pl_cfg.base.epochs]
        )
        assert grid[0][0] == pytest.approx(pl_row.hlr, abs=1e-12)

    def test_zero_lr_column_equals_unmodified_model(self):
        cfg = mini_config()
        ctx = build_scenario(cfg)
        hlr_theta_o = evaluate_model(ctx, ctx.theta_o)["hlr"]
        grid, _ = sweep_hyperparameters(cfg, "PL", [0.0], [1, 3], ctx=ctx)
        assert grid[0][0] == pytest.approx(hlr_theta_o, abs=1e-12)
        assert grid[0][1] == pytest.approx(hlr_theta_o, abs=1e-12)

    def test_three_by_three_grid_has_no_nans(self):
        cfg = mini_config()
        ctx = build_scenario(cfg)
        grid, text = sweep_hyperparameters(
            cfg, "PL", [0.005, 0.01, 0.05], [1, 2, 3], ctx=ctx
        )
        values = np.asarray(grid)
        assert not np.isnan(values).any()
        assert values.shape == (3, 3)
        best = np.unravel_index(np.argmax(values), values.shape)
        assert 0 <= best[0] < 3 and 0 <= best[1] < 3
        lines = text.splitlines()
        assert lines[0] == "lr\\epochs,1,2,3,status"
        assert len(lines) == 4

    def test_dp_noise_zero_sigma_matches_noiseless(self):
        cfg = mini_config()
        ctx = build_scenario(cfg)
        rows, text = sweep_dp_noise(cfg, "PL", [0.0, 0.5], ctx=ctx)
        again, _ = sweep_dp_noise(cfg, "PL", [0.0], ctx=ctx)
        assert rows[0] == again[0]
        assert text.splitlines()[0] == "sigma,knn_acc,cka_ur,cka_uo,status"

    @pytest.mark.parametrize("sweep", ["lr-epochs", "dp-noise"])
    def test_only_run_failures_become_nan(self, monkeypatch, sweep):
        import unlbench.harness as harness
        from unlbench.errors import DivergenceError
        cfg = mini_config()
        ctx = build_scenario(cfg)

        def run(raise_exc):
            def fail(*_args):
                raise raise_exc
            monkeypatch.setattr(harness, "run_unlearning", fail)
            if sweep == "lr-epochs":
                return sweep_hyperparameters(cfg, "PL", [0.1], [1], ctx=ctx)[0][0]
            return sweep_dp_noise(cfg, "PL", [0.0], ctx=ctx)[0][0][1:]

        assert all(np.isnan(v) for v in run(DivergenceError(3)))
        with pytest.raises(TypeError):
            run(TypeError("a bug"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_cells_record_their_cause(self):
        ga = UnlearnConfig("GA", TrainConfig(lr=5.0, epochs=2, momentum=0.0, batch_size=16))
        cfg = mini_config(methods=(ga,))
        ctx = build_scenario(cfg)
        grid, text = sweep_hyperparameters(cfg, "GA", [0.01, 1e4], [1, 4], ctx=ctx)
        assert not np.isnan(grid[1][0]) and np.isnan(grid[1][1])
        seed = harness._method_seed(cfg.master_seed, 0, 0)
        with pytest.raises(DivergenceError) as err:
            run_unlearning(ctx.theta_o, ctx.split,
                           replace(ga, base=replace(ga.base, seed=seed, lr=1e4, epochs=4)))
        lines = list(csv.reader(io.StringIO(text)))
        assert [line[-1] for line in lines] == [
            "status", "ok", f"epochs=4: DivergenceError: {err.value}"]

        rows, text = sweep_dp_noise(cfg, "GA", [0.0, 1e300], ctx=ctx)
        assert [len(r) for r in rows] == [4, 4] and np.isnan(rows[1][1:]).all()
        lines = list(csv.reader(io.StringIO(text)))
        assert [line[-1] for line in lines] == [
            "status", "ok", "DivergenceError: non-finite loss at training step 1"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_features_become_nan_cells(self):
        # At lr 1e100 GA's one-epoch run ends finite but its features
        # overflow; four epochs diverge.  Both cells are reported.
        ga = UnlearnConfig("GA", TrainConfig(lr=5.0, epochs=2, momentum=0.0, batch_size=16))
        cfg = mini_config(methods=(ga,))
        ctx = build_scenario(cfg)
        grid, text = sweep_hyperparameters(cfg, "GA", [1e100], [1, 4], ctx=ctx)
        assert np.isnan(grid).all()
        status = list(csv.reader(io.StringIO(text)))[1][-1]
        assert status.startswith("epochs=1: NonFiniteError: features contains "
                                 "non-finite entries; epochs=4: DivergenceError: ")

        cfg = mini_config(methods=(replace(ga, base=replace(ga.base, lr=1e100, epochs=1)),))
        rows, text = sweep_dp_noise(cfg, "GA", [0.0, 0.1], ctx=ctx)
        assert [len(r) for r in rows] == [4, 4] and np.isnan([r[1:] for r in rows]).all()
        assert [line[-1] for line in csv.reader(io.StringIO(text))][1:] == [
            "NonFiniteError: features contains non-finite entries"] * 2

    def test_unknown_method_rejected(self):
        cfg = mini_config()
        from unlbench.errors import ConfigError
        with pytest.raises(ConfigError):
            sweep_hyperparameters(cfg, "SCRUB", [0.1], [1])


class TestConfigSerialization:
    def test_dict_round_trip(self):
        cfg = mini_config()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_method_names_expand_to_defaults(self):
        cfg = ExperimentConfig.from_dict({
            "version": 1,
            "data": {"ambient_dim": 16, "num_train_classes": 6,
                     "per_class_train": 10, "per_class_test": 5,
                     "downstream_specs": [
                         {"name": "d", "num_classes": 3, "anchor_classes": [0],
                          "anchor_similarity": 0.9, "per_class": 18}]},
            "methods": ["GA", {"method": "PL", "base": {"lr": 0.123}}],
        })
        assert cfg.methods[0] == default_method_config("GA")
        assert cfg.methods[1].base.lr == 0.123
        assert cfg.methods[1].base.epochs == default_method_config("PL").base.epochs

    def test_version_required(self):
        from unlbench.errors import ConfigError
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"data": {}})

    def test_override_object_round_trips_through_json(self):
        cfg = mini_config()
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def _valid_doc() -> dict:
    return {
        "version": 1,
        "data": {"ambient_dim": 16, "num_train_classes": 6, "per_class_train": 10,
                 "per_class_test": 5,
                 "downstream_specs": [{"name": "d", "num_classes": 3, "per_class": 18}]},
        "scenario": {"n_forget": 2},
        "train": {"epochs": 3},
        "methods": [{"method": "PL", "base": {"lr": 0.1}}, "GA"],
    }


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return mutate


BAD_CONFIGS = {
    "unknown-train-key": (_set(("train", "epoch"), 3), r"unknown key train\.epoch"),
    "unknown-method-key": (_set(("methods", 0, "bse"), 2), r"unknown key methods\[0\]\.bse"),
    "unknown-method-base-key": (_set(("methods", 0, "base", "epoch"), 2),
                                r"methods\[0\]\.base\.epoch"),
    "leftover-thread-count": (_set(("thread_count",), None), "unknown key thread_count"),
    "string-for-int": (_set(("train", "epochs"), "3"), r"train\.epochs: expected int"),
    "bool-for-float": (_set(("train", "lr"), True), r"train\.lr: expected float"),
    "object-for-list": (_set(("data", "downstream_specs"), {}), "expected a list"),
    "missing-spec-name": (_set(("data", "downstream_specs"), [{"num_classes": 3}]),
                          r"missing key data\.downstream_specs\[0\]\.name"),
    "n-forget-all-classes": (_set(("scenario", "n_forget"), 6), "n_forget"),
    "two-probe-rows": (_set(("probe_rows",), 2), "probe_rows"),
    "knn-floor": (_set(("data", "downstream_specs", 0, "per_class"), 7), "k-NN"),
    "empty-downstream-specs": (_set(("data", "downstream_specs"), []), "downstream_specs"),
}


class TestStrictConfig:
    def test_valid_doc_loads(self):
        cfg = ExperimentConfig.from_dict(_valid_doc())
        assert cfg.train.epochs == 3 and cfg.methods[0].base.lr == 0.1

    @pytest.mark.parametrize("case", BAD_CONFIGS)
    def test_bad_config_rejected_at_load(self, case):
        from unlbench.errors import ConfigError
        mutate, message = BAD_CONFIGS[case]
        doc = _valid_doc()
        mutate(doc)
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(doc)
