"""Orchestration: top-class selection, scenario runs, reports, sweeps."""

import csv
import io
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from unlbench import harness, metrics, model, unlearning, worker
from unlbench.cli import SweepSpec
from unlbench.data import Dataset, DownstreamSpec, ForgetSplit, SyntheticSpec, generate_universe
from unlbench.errors import (BoundsError, DegenerateInputError, DivergenceError, NonFiniteError,
                             WorkerError)
from unlbench.harness import (
    ExperimentConfig,
    ScenarioSpec,
    build_scenario,
    default_method_config,
    emit_report,
    evaluate_model,
    run_scenario,
    select_top_classes,
    sweep_dp_noise,
    sweep_hyperparameters,
)
from unlbench.model import TrainConfig, forward, init_params, sgd_train, softmax
from unlbench.rng import make_rng
from unlbench.unlearning import UnlearnConfig, run_unlearning, unlearn_cells

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


def record_forwards(mp, module, path: Path):
    """Patch module.forward so that each call, in this process or a forked
    worker, appends (pid, params.content_hash(), rows) to path; returns a
    function that reads the calls back in the order they were made."""
    real = module.forward

    def recording(params, x):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {params.content_hash()} {len(x)}\n")
        return real(params, x)
    mp.setattr(module, "forward", recording)

    def calls() -> list:
        if not path.exists():
            return []
        return [(int(pid), digest, int(n))
                for pid, digest, n in (line.split() for line in path.read_text().splitlines())]
    return calls


def forwards_of(calls: list, params) -> list:
    """The rows of each recorded forward of params, in call order."""
    return [n for _, digest, n in calls if digest == params.content_hash()]


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
    def test_reference_models_forward_once_per_downstream_set(self, monkeypatch, with_worker,
                                                              tmp_path):
        """theta_o and theta_r are forwarded once over each whole downstream
        set, for their references, and scoring their own rows reuses those
        features, the probe features sliced from them.  The forwards of
        both processes count: FT's row is scored in the worker."""
        calls = record_forwards(monkeypatch, harness, tmp_path / "forwards")
        base = mini_config()
        data = replace(base.data, downstream_specs=(
            DownstreamSpec("d", 3, (2, 5), 0.9, per_class=18),
            DownstreamSpec("e", 2, (1,), 0.9, per_class=20),
        ))
        cfg = replace(base, data=data)
        ctx = build_scenario(cfg)
        sizes = [ds.n for ds in ctx.downstreams.values()]
        assert sizes == [54, 40] and base.probe_rows < min(sizes)
        assert len(calls()) == 2 * len(sizes)
        reports, models = run_scenario(cfg, emit=False, ctx=ctx)
        assert [r.method for r in reports] == ["original", "retrained", "PL", "FT"]
        for theta in (ctx.theta_o, ctx.theta_r):
            assert forwards_of(calls(), theta) == sizes
        # One forward per downstream set for each of the two methods' models.
        for label in ("PL-r0", "FT-r0"):
            assert forwards_of(calls(), models[label]) == sizes
        assert len(calls()) == 4 * len(sizes)
        assert len({pid for pid, _, _ in calls()}) == 2

    def test_each_split_set_forwarded_once_per_scored_model(self, monkeypatch):
        """The four accuracies and the MIA's confidences come from one
        forward of the model over each of Df, Dr, Df_te and Dr_te."""
        calls = []

        def recording(params, x):
            calls.append((params, len(x)))
            return forward(params, x)

        ctx = build_scenario(mini_config())
        theta = run_unlearning(ctx.theta_o, ctx.split, mini_config().methods[0]).params
        monkeypatch.setattr(metrics, "forward", recording)
        assert len(ctx.acc_r) == 4  # theta_r's, computed on first use
        calls.clear()
        evaluate_model(ctx, theta)
        split = ctx.split
        assert all(p is theta for p, _ in calls)
        assert [n for _, n in calls] == [split.Df.n, split.Dr.n, split.Df_te.n, split.Dr_te.n]

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


DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The shipped default config's scenario, its run_scenario output with
    every second method-repeat in the forked worker, and the (pid,
    params.content_hash(), rows) of each split-set forward that run made
    in either process."""
    cfg = ExperimentConfig.from_dict(json.loads(DEFAULT_CONFIG.read_text()))
    ctx = build_scenario(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_usable_cpus", lambda: 2)
        calls = record_forwards(mp, metrics, tmp_path_factory.mktemp("default_run") / "forwards")
        reports, models = run_scenario(cfg, emit=False, ctx=ctx)
    return ctx, reports, models, calls()


class TestDefaultRun:
    def test_mia_matches_the_model_form_bit_for_bit(self, default_run):
        """The harness slices the MIA's inputs from each model's split
        logits; the score equals the MIA on confidences from forwarding the
        model over the member rows, the non-member rows and Df separately."""
        ctx, reports, models, _ = default_run
        assert len(reports) == 11 and all(r.status == "ok" for r in reports)
        samples = (ctx.split.Dr.X[ctx.mia_idx[0]], ctx.split.Dr_te.X[ctx.mia_idx[1]],
                   ctx.split.Df.X)
        for r in reports:
            label = r.method if r.provenance["role"] != "unlearned" \
                else f"{r.method}-r{r.provenance['repeat']}"
            want = metrics.mia_efficacy(*(softmax(forward(models[label], x)[1]).max(axis=1)
                                          for x in samples))
            assert r.mia == want, label

    def test_each_model_forwarded_once_per_split_set(self, default_run):
        """Every scored model, theta_r included, whose accuracies and own
        row share one forward over each of Df, Dr, Df_te and Dr_te."""
        ctx, reports, models, calls = default_run
        split = ctx.split
        sizes = [split.Df.n, split.Dr.n, split.Df_te.n, split.Dr_te.n]
        assert len(models) == len(reports)
        for params in models.values():
            assert forwards_of(calls, params) == sizes
        assert len(calls) == len(sizes) * len(reports)
        assert len({pid for pid, _, _ in calls}) == 2

    def test_scrub_preset_forwards_its_teacher_once_per_split_set(self, default_run,
                                                                  monkeypatch):
        ctx, _, _, _ = default_run
        calls = []

        def recording(params, x):
            calls.append((params, len(x)))
            return forward(params, x)

        monkeypatch.setattr(unlearning, "forward", recording)
        run_unlearning(ctx.theta_o, ctx.split, default_method_config("SCRUB"))
        assert all(p is ctx.theta_o for p, _ in calls)
        assert [n for _, n in calls] == [ctx.split.Df.n, ctx.split.Dr.n]
        assert sum(n for _, n in calls) == 500


class TestEmit:
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

    def test_dp_noise_sweep_never_forwards_theta_r(self, monkeypatch):
        """The dp-noise sweep scores representations only, so theta_r's
        split logits, whose forward over a large retain set would set the
        sweep's peak memory, stay uncomputed."""
        cfg = mini_config()
        ctx = build_scenario(cfg)
        calls = []

        def recording(params, x):
            calls.append(params)
            return forward(params, x)

        for module in (harness, metrics):
            monkeypatch.setattr(module, "forward", recording)
        sweep_dp_noise(cfg, "PL", [0.0, 0.5], ctx=ctx)
        assert calls and not any(p is ctx.theta_r for p in calls)
        assert "logits_r" not in vars(ctx) and "acc_r" not in vars(ctx)

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
            # Raised inside the cell's procedure, which a sweep cell reaches
            # through unlearning's cells, not through harness.run_unlearning.
            def fail(*_args, **_kwargs):
                raise raise_exc
            monkeypatch.setattr(unlearning, "cross_entropy_run", fail)
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

    @pytest.mark.parametrize("sweep", ["lr-epochs", "dp-noise"])
    def test_unknown_method_rejected(self, monkeypatch, sweep):
        # The method is looked up before the scenario is built, so before
        # any training.
        cfg = mini_config()
        from unlbench.errors import ConfigError

        def no_training(_cfg):
            raise AssertionError("build_scenario ran")
        monkeypatch.setattr(harness, "build_scenario", no_training)
        with pytest.raises(ConfigError, match="'SCRUB' not present"):
            if sweep == "lr-epochs":
                sweep_hyperparameters(cfg, "SCRUB", [0.1], [1])
            else:
                sweep_dp_noise(cfg, "SCRUB", [0.0])


class _InProcessWorker:
    """Worker's interface, calling its function in this process."""

    def __init__(self, fn):
        self.fn = fn

    def results(self):
        return self.fn()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class _RecordingWorker(worker.Worker):
    """A Worker that lists itself in started and keeps what results()
    returned as out."""
    started = []

    def __init__(self, *args):
        super().__init__(*args)
        self.started.append(self)

    def results(self):
        self.out = super().results()
        return self.out


@pytest.fixture
def with_worker(monkeypatch):
    """Every sweep with two or more cells takes a worker."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)


class TestSweepCells:
    def test_large_top_dp_shaped_sweep_draws_the_noise_once_per_process(
            self, monkeypatch, with_worker):
        # large-top-dp's sweep on a small model: FT's preset, 10 epochs of
        # 64-row batches over an 8 750-row retain set (1 370 steps), and
        # the seven default sigmas, six of them noisy.
        rng = make_rng(5, 0)

        def dataset(n):
            return Dataset(rng.standard_normal((n, 4)), rng.integers(0, 40, n), 40)
        split = ForgetSplit((0,), tuple(range(1, 40)), dataset(8), dataset(8750),
                            dataset(8), dataset(8))
        ft = default_method_config("FT")
        cfgs = [replace(ft, base=replace(ft.base, seed=9, grad_noise_sigma=s))
                for s in SweepSpec().sigma_grid]
        theta_o = init_params(4, 40, 1, hidden=4, feat_dim=4)
        drawn = []  # one entry per noise row drawn

        class CountingRng:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                drawn.append(out.shape)
                return self.rng.standard_normal(out=out)
        real_make_rng = model.make_rng
        monkeypatch.setattr(model, "make_rng", lambda seed, stream: (
            CountingRng(real_make_rng(seed, stream)) if stream == model.STREAM_NOISE
            else real_make_rng(seed, stream)))
        monkeypatch.setattr(worker, "Worker", _InProcessWorker)
        cells = harness.sweep_cells(theta_o, split, cfgs)
        assert len(drawn) == 2740  # one stream in each of the two processes
        assert set(drawn) == {(sum(p.size for p in vars(theta_o).values()),)}
        drawn.clear()
        solo = [run_unlearning(theta_o, split, c) for c in cfgs]
        assert len(drawn) == 8220  # one stream per noisy cell
        assert [c.params.content_hash() for c in cells] == [
            c.params.content_hash() for c in solo]

    @pytest.mark.parametrize("sweep", ["lr-epochs", "dp-noise"])
    def test_worker_gives_the_in_process_sweep(self, monkeypatch, sweep):
        cfg = mini_config()
        ctx = build_scenario(cfg)

        def run():
            if sweep == "lr-epochs":
                return sweep_hyperparameters(cfg, "FT", [0.01, 0.1], [1, 2], ctx=ctx)
            return sweep_dp_noise(cfg, "FT", [0.0, 0.1, 1.0], ctx=ctx)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        want = run()
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(worker, "Worker", _RecordingWorker)
        _RecordingWorker.started.clear()
        assert run() == want
        [started] = _RecordingWorker.started
        assert started.returncode == 0

    @pytest.mark.parametrize("cpus, sigmas, platform", [
        (1, [0.0, 0.1], "linux"), (2, [0.1], "linux"), (2, [0.0, 0.1], "darwin")],
        ids=["one-cpu", "one-cell", "not-linux"])
    def test_no_worker_without_linux_two_cpus_and_two_cells(self, monkeypatch, cpus, sigmas,
                                                            platform):
        cfg = mini_config()
        ctx = build_scenario(cfg)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(harness.sys, "platform", platform)
        monkeypatch.setattr(worker, "Worker", None)  # any use would raise
        rows, _ = sweep_dp_noise(cfg, "FT", sigmas, ctx=ctx)
        assert len(rows) == len(sigmas)

    @pytest.mark.parametrize("method", unlearning.METHODS)
    def test_each_cells_pre_run_work_runs_once_where_the_cell_runs(
            self, monkeypatch, with_worker, tmp_path, method):
        # A cell does its pre-run work (pseudo-labels, saliency, centroids,
        # the teacher's outputs, ...) when it is first advanced.  Each
        # advance, in either process, appends the pid that made it.
        calls = tmp_path / "calls"
        real_cell = unlearning._cell

        def spy_cell(*args):
            cell = real_cell(*args)

            def advanced():
                with open(calls, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                return (yield from cell)
            return advanced()
        monkeypatch.setattr(unlearning, "_cell", spy_cell)
        monkeypatch.setattr(worker, "Worker", _RecordingWorker)
        _RecordingWorker.started.clear()
        cfgs = [UnlearnConfig(method, TrainConfig(lr=0.05, epochs=1, batch_size=4,
                                                  grad_noise_sigma=s))
                for s in (0.0, 0.1, 0.2, 0.3, 0.4)]
        cells = harness.sweep_cells(init_params(4, 3, 1, hidden=4, feat_dim=4),
                                    self._tiny_split(), cfgs)
        assert not [c for c in cells if isinstance(c, Exception)]
        [started] = _RecordingWorker.started
        assert sorted(calls.read_text().split()) == sorted(
            [str(os.getpid())] * 3 + [str(started.pid)] * 2)

    # The parent's own half raising a non-cell error: through one of its
    # cells (re-raised once the results merge), or from the call itself,
    # while the worker may still run.
    @pytest.mark.parametrize("target", ["cell", "call"])
    def test_worker_reaped_when_the_parent_half_raises(self, monkeypatch, with_worker,
                                                       target):
        cfg = mini_config()
        ctx = build_scenario(cfg)

        def fail(*_args, **_kwargs):
            raise TypeError("a bug")
        module, name = (unlearning, "cross_entropy_run") if target == "cell" else (
            harness, "unlearn_cells")
        monkeypatch.setattr(module, name, fail)
        monkeypatch.setattr(worker, "Worker", _RecordingWorker)
        _RecordingWorker.started.clear()
        with pytest.raises(TypeError, match="a bug"):
            sweep_dp_noise(cfg, "FT", [0.0, 0.1, 1.0], ctx=ctx)
        [started] = _RecordingWorker.started
        assert started.returncode is not None
        with pytest.raises(ChildProcessError):
            os.waitpid(started.pid, os.WNOHANG)

    @staticmethod
    def _tiny_split():
        rng = make_rng(6, 0)

        def dataset(n, forget):  # of the forget class 0, or of the retained 1 and 2
            return Dataset(rng.standard_normal((n, 4)),
                           np.zeros(n, dtype=np.int64) if forget else rng.integers(1, 3, n), 3)
        return ForgetSplit((0,), (1, 2), dataset(8, True), dataset(24, False),
                           dataset(8, True), dataset(8, False))

    def test_worker_cell_error_carries_the_worker_traceback(self):
        # A batch size of the wrong type gets past the config's checks only
        # by force, and the cell then raises a TypeError in the worker.
        bad = default_method_config("FT")
        object.__setattr__(bad.base, "batch_size", "64")
        theta_o, split = init_params(4, 3, 1, hidden=4, feat_dim=4), self._tiny_split()
        with worker.Worker(lambda: unlearn_cells(theta_o, split, [bad])) as w:
            [exc] = w.results()
        assert isinstance(exc, TypeError)
        [note] = exc.__notes__
        assert note.startswith("In the worker process:\nTraceback (most recent call last):")
        assert ", in epoch_batches\n" in note and note.endswith(str(exc))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_worker_cell_divergence_keeps_its_step_and_traceback(self):
        theta_o, split = init_params(4, 3, 1, hidden=4, feat_dim=4), self._tiny_split()
        ga = UnlearnConfig("GA", TrainConfig(lr=1e300, epochs=2, momentum=0.0, batch_size=4))
        [want] = unlearn_cells(theta_o, split, [ga])
        with worker.Worker(lambda: unlearn_cells(theta_o, split, [ga])) as w:
            [exc] = w.results()
        assert isinstance(want, DivergenceError) and isinstance(exc, DivergenceError)
        assert (exc.step, str(exc)) == (want.step, str(want))
        [note] = exc.__notes__
        assert note.startswith("In the worker process:\nTraceback (most recent call last):")
        assert note.endswith(f"DivergenceError: {want}")

    def test_worker_failure_raises_instead_of_nan_cells(self, monkeypatch, with_worker):
        cfg = mini_config()
        ctx = build_scenario(cfg)
        exit_in_child(monkeypatch, harness, "unlearn_cells")
        with pytest.raises(WorkerError, match="worker exited 3"):
            sweep_dp_noise(cfg, "FT", [0.0, 0.1], ctx=ctx)


two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="needs two usable CPUs")


def exit_in_child(monkeypatch, module, name):
    """Patch module.name so that a forked child calling it exits 3 at
    once; this process still calls the real one."""
    parent, real = os.getpid(), getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: (
        real(*args) if os.getpid() == parent else os._exit(3)))


@pytest.fixture
def held_child():
    """(wait, release): wait, called in a worker child, runs nothing and
    returns [] once release is called or the fixture ends, so the child
    exits through the worker's normal path."""
    r, w = os.pipe()

    def wait():
        os.close(w)  # so that the child sees end-of-file once this process closes it
        os.read(r, 1)
        return []
    try:
        yield wait, lambda: os.write(w, b"x")
    finally:
        os.close(r)
        os.close(w)


@two_cpus
class TestWorkerPlacement:
    @pytest.mark.parametrize("here", [0, -1], ids=["on-lowest-cpu", "on-highest-cpu"])
    def test_child_and_parent_hold_disjoint_cpus(self, monkeypatch, held_child, here):
        cpus = os.sched_getaffinity(0)
        here = sorted(cpus)[here]
        monkeypatch.setattr(worker, "_current_cpu", lambda: here)  # where the parent runs
        wait, release = held_child
        with worker.Worker(wait) as w:
            child, parent = os.sched_getaffinity(w.pid), os.sched_getaffinity(0)
            release()
            assert w.results() == []
        assert len(child) == 1 and here not in child and parent == cpus - child
        assert os.sched_getaffinity(0) == cpus

    def test_current_cpu_is_where_this_thread_runs(self):
        cpus = os.sched_getaffinity(0)
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                assert worker._current_cpu() == cpu
        finally:
            os.sched_setaffinity(0, cpus)

    @pytest.mark.parametrize("end", ["parent-raises", "child-exits-3"])
    def test_parent_affinity_restored(self, held_child, end):
        cpus = os.sched_getaffinity(0)
        wait, _ = held_child
        with pytest.raises(TypeError if end == "parent-raises" else WorkerError):
            with worker.Worker(wait if end == "parent-raises" else lambda: os._exit(3)) as w:
                assert os.sched_getaffinity(0) < cpus
                if end == "parent-raises":
                    raise TypeError("a bug")  # the child is still held
                w.results()
        assert w.returncode == (-9 if end == "parent-raises" else 3)
        assert os.sched_getaffinity(0) == cpus

    # A raise while the child is being placed: on the child's affinity
    # call, or on the parent's own.
    @pytest.mark.parametrize("failing_call", [1, 2])
    def test_placement_error_reaps_the_child_and_restores(self, monkeypatch, held_child,
                                                          failing_call):
        cpus = os.sched_getaffinity(0)
        real, calls = os.sched_setaffinity, []

        def setaffinity(pid, mask):
            calls.append(pid)
            if len(calls) == failing_call:
                raise PermissionError("placement refused")
            real(pid, mask)
        monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
        wait, _ = held_child
        with pytest.raises(PermissionError, match="placement refused"):
            worker.Worker(wait)
        assert calls[-1] == 0 and len(calls) == failing_call + 1  # the restore
        assert os.sched_getaffinity(0) == cpus
        # no_child_left_unreaped checks that the child is gone.


class TestBuildScenarioBeside:
    """A random scenario retrains theta_r in the forked worker while this
    process trains theta_o; a top scenario does neither beside the other."""

    def test_forked_retrain_gives_the_in_process_models(self, monkeypatch):
        cfg = mini_config()
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(worker, "Worker", None)  # any use would raise
        want = build_scenario(cfg)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(worker, "Worker", _RecordingWorker)
        _RecordingWorker.started.clear()
        ctx = build_scenario(cfg)
        [started] = _RecordingWorker.started
        assert started.returncode == 0
        for theta in ("theta_o", "theta_r"):
            assert getattr(ctx, theta).content_hash() == getattr(want, theta).content_hash()
        assert (ctx.visits_o, ctx.visits_r) == (want.visits_o, want.visits_r)
        # The retrained row's rte_seconds is theta_r's own training time,
        # timed in the worker.
        assert ctx.rte_r == started.out[1] > 0.0 and ctx.rte_o > 0.0

    def test_top_scenario_never_forks(self, monkeypatch):
        data = SyntheticSpec(
            ambient_dim=16, num_train_classes=6, per_class_train=10, per_class_test=8,
            prototype_seed=3, downstream_specs=(DownstreamSpec("rel", 3, (2, 5), 0.9, 18),))
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(worker, "Worker", None)  # any use would raise
        build_scenario(mini_config(data=data, scenario=ScenarioSpec("top", 2, "rel")))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_retrain_cell_error_raises_as_itself(self, monkeypatch, cpus):
        def failing(*_args):
            raise ZeroDivisionError("retrain bug")
            yield  # a cell: it raises when first advanced
        monkeypatch.setitem(unlearning._PROCEDURES, "RETRAIN", (failing, ("Dr",)))
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        with pytest.raises(ZeroDivisionError, match="retrain bug") as info:
            build_scenario(mini_config())
        notes = getattr(info.value, "__notes__", [])
        assert bool(notes) == (cpus == 2)
        assert all(n.startswith("In the worker process:\n") for n in notes)


def _default_config(**overrides) -> ExperimentConfig:
    return replace(ExperimentConfig.from_dict(json.loads(DEFAULT_CONFIG.read_text())),
                   **overrides)


def _run_files(out: Path) -> dict:
    """Every file run_scenario emitted but report.csv, which holds wall
    times: path relative to out -> bytes."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "report.csv"}


class TestRunScenarioBeside:
    """With two or more method-repeats, every second one is unlearned and
    scored in the forked worker while this process scores the rest."""

    @pytest.mark.parametrize("config", [_default_config, lambda **kw: mini_config(repeats=2, **kw)],
                             ids=["default", "mini-two-repeats"])
    def test_forked_run_gives_the_in_process_outputs(self, monkeypatch, tmp_path, config):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(worker, "Worker", None)  # any use would raise
        want, want_models = run_scenario(config(output_dir=str(tmp_path / "in-process")))
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(worker, "Worker", _RecordingWorker)
        _RecordingWorker.started.clear()
        got, got_models = run_scenario(config(output_dir=str(tmp_path / "forked")))
        # One worker for theta_r in build_scenario, one for the method rows.
        assert [w.returncode for w in _RecordingWorker.started] == [0, 0]
        # The worker's rows are every second method-repeat's.
        assert [r.to_dict() for r, *_ in _RecordingWorker.started[1].out] == [
            r.to_dict() for r in got[3::2]]
        files = _run_files(tmp_path / "in-process")
        assert "report.json" in files and any(f.endswith(".ubm1") for f in files)
        assert _run_files(tmp_path / "forked") == files
        assert list(got_models) == list(want_models)
        assert {k: m.content_hash() for k, m in got_models.items()} == {
            k: m.content_hash() for k, m in want_models.items()}
        assert len(got) == len(want) == len(got_models)
        for reports in (want, got):
            assert all(r.status == "ok" and r.rte_seconds > 0.0 for r in reports)

    def test_failed_repeat_in_the_worker_gives_the_in_process_row(self, monkeypatch):
        bad = UnlearnConfig("GA", TrainConfig(lr=1e5, epochs=200, momentum=0.0))
        cfg = mini_config(methods=(UnlearnConfig("PL", TrainConfig(lr=0.02, epochs=2)), bad))
        ctx = build_scenario(cfg)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(worker, "Worker", None)  # any use would raise
        want, _ = run_scenario(cfg, emit=False, ctx=ctx)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(worker, "Worker", _RecordingWorker)
        _RecordingWorker.started.clear()
        got, models = run_scenario(cfg, emit=False, ctx=ctx)
        [started] = _RecordingWorker.started
        [(failed, label, params, probes)] = started.out  # GA's row is the worker's
        assert (label, params, probes) == (None, None, None)
        assert failed.status.startswith("failed: DivergenceError")
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
        assert got[3].provenance == want[3].provenance and got[3].rte_seconds > 0.0
        assert list(models) == ["original", "retrained", "PL-r0"]

    @pytest.mark.parametrize("cpus, repeats, platform", [
        (1, 2, "linux"), (2, 1, "linux"), (2, 2, "darwin")],
        ids=["one-cpu", "one-method-repeat", "not-linux"])
    def test_no_worker_without_linux_two_cpus_and_two_method_repeats(
            self, monkeypatch, cpus, repeats, platform):
        cfg = mini_config(methods=mini_config().methods[:1], repeats=repeats)
        ctx = build_scenario(cfg)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(harness.sys, "platform", platform)
        monkeypatch.setattr(worker, "Worker", None)  # any use would raise
        reports, _ = run_scenario(cfg, emit=False, ctx=ctx)
        assert [r.status for r in reports] == ["ok"] * (2 + repeats)

    def test_worker_exit_raises_instead_of_a_row(self, monkeypatch, with_worker, tmp_path,
                                                 capsys):
        # FT's row is the worker's; `run` then exits 2 and writes no report.
        from unlbench.cli import main
        config = tmp_path / "config.json"
        config.write_text(json.dumps(mini_config().to_dict()))
        exit_in_child(monkeypatch, harness, "run_unlearning")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "error: WorkerError: worker exited 3" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()


class TestScoreCell:
    """The one mapping both sweeps use from a cell's outcome to its scores
    and status."""

    def test_result_is_scored(self):
        assert harness._score_cell(2.0, lambda r: r * 3, "nan") == (6.0, "ok")

    @pytest.mark.parametrize("exc", [DivergenceError(4), DegenerateInputError("empty"),
                                     NonFiniteError("overflow")],
                             ids=lambda e: type(e).__name__)
    def test_cell_failures_become_the_failed_value(self, exc):
        def score(_):
            raise AssertionError("a failed cell is not scored")
        assert harness._score_cell(exc, score, "nan") == (
            "nan", f"{type(exc).__name__}: {exc}")

        def failing_score(_):
            raise exc
        assert harness._score_cell(1.0, failing_score, "nan") == (
            "nan", f"{type(exc).__name__}: {exc}")

    def test_other_errors_propagate(self):
        with pytest.raises(TypeError, match="a bug"):
            harness._score_cell(TypeError("a bug"), lambda r: r, "nan")

        def score(_):
            raise KeyError("k")
        with pytest.raises(KeyError):
            harness._score_cell(1.0, score, "nan")


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
    # A random scenario's related set, when named, must exist too: the
    # dp-noise sweep scores it, and run echoes it into every row.
    "random-related-misnamed": (_set(("scenario", "related_dataset"), "no-such-set"),
                                "related_dataset must name a downstream spec"),
    "top-without-related": (_set(("scenario", "kind"), "top"),
                            "related_dataset must name a downstream spec"),
}


class TestStrictConfig:
    def test_valid_doc_loads(self):
        cfg = ExperimentConfig.from_dict(_valid_doc())
        assert cfg.train.epochs == 3 and cfg.methods[0].base.lr == 0.1

    def test_named_related_set_loads_in_either_scenario(self):
        for kind in ("random", "top"):
            doc = _valid_doc()
            doc["scenario"].update(kind=kind, related_dataset="d")
            assert ExperimentConfig.from_dict(doc).scenario.related_dataset == "d"

    @pytest.mark.parametrize("case", BAD_CONFIGS)
    def test_bad_config_rejected_at_load(self, case):
        from unlbench.errors import ConfigError
        mutate, message = BAD_CONFIGS[case]
        doc = _valid_doc()
        mutate(doc)
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(doc)
