"""End-to-end orchestration: build a scenario, train the reference models,
run every configured unlearning method, evaluate, and emit reports.

Determinism contract: an identical ExperimentConfig (including master_seed)
produces byte-identical report.json.
Wall-clock timings therefore live only in report.csv; the JSON carries the
deterministic sample-visit counts instead.
"""

import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import ubm, worker
from .data import (
    Dataset,
    ForgetSplit,
    SyntheticSpec,
    generate_universe,
    split_random_forget,
    split_top_forget,
)
from .errors import (BoundsError, ConfigError, DegenerateInputError, DivergenceError,
                     NonFiniteError)
from .metrics import (
    CkaSide,
    DownstreamRepr,
    KnnSplit,
    MetricsReport,
    ReprScores,
    SplitLogits,
    cka_side,
    compute_agl,
    compute_agr,
    compute_cka,
    compute_hlr,
    compute_knn_accuracy,
    knn_split,
    logit_gaps,
    mia_efficacy,
    normalize_rows,
    split_accuracies,
    split_forward,
    split_logits,
)
from .model import MlpParams, TrainConfig, forward, init_params, sgd_train
from .rng import derive_seed, make_rng
from .serial import ConfigDict
from .unlearning import UnlearnConfig, compute_centroids, run_unlearning, unlearn_cells

# Seed-derivation streams under master_seed.
_S_TRAIN_ORIGINAL = 1
_S_SPLIT = 2
_S_RETRAIN = 3
_S_PROBE_BASE = 10
_S_MIA = 50
_S_KNN_SPLIT = 60
_S_METHOD_BASE = 1000

MAX_REPEATS = 100
# The fewest rows metrics.cka_side accepts.
MIN_PROBE_ROWS = 3


def default_method_config(method: str) -> UnlearnConfig:
    """Desk-scale per-method defaults, chosen once on the shipped default
    scenario.  FT and CU do not forget at theirs: their forget accuracy
    stays at theta_o's 1.0 there, so their AGL and H-LR read 0."""
    presets = {
        "FT": dict(base=TrainConfig(lr=0.1, epochs=10)),
        # Ascent on a converged model only escapes saturation at a large
        # step size; smaller rates leave the model bit-for-bit useful.
        "GA": dict(base=TrainConfig(lr=5.0, epochs=5, momentum=0.0)),
        "RL": dict(base=TrainConfig(lr=0.1, epochs=10)),
        "PL": dict(base=TrainConfig(lr=0.01, epochs=10)),
        "SalUn": dict(base=TrainConfig(lr=0.1, epochs=10), saliency_fraction=0.5),
        "DUCK": dict(base=TrainConfig(lr=0.01, epochs=5), retain_loss_weight=5.0),
        "CU": dict(base=TrainConfig(lr=0.05, epochs=10)),
        "SCRUB": dict(base=TrainConfig(lr=0.05, epochs=5),
                      scrub_max_steps_per_epoch=8, scrub_min_steps_per_epoch=24),
        "SCAR": dict(base=TrainConfig(lr=0.02, epochs=5)),
        "RETRAIN": dict(base=TrainConfig()),
    }
    if method not in presets:
        raise ConfigError(f"unknown method {method!r}")
    return UnlearnConfig(method=method, **presets[method])


def method_config(entry, path: str) -> UnlearnConfig:
    """A config's method entry: a bare name takes default_method_config, an
    object overrides those defaults key by key (base keys one level down)."""
    if isinstance(entry, str):
        return default_method_config(entry)
    if not isinstance(entry, dict) or not isinstance(entry.get("method"), str):
        raise ConfigError(f"{path}: expected a method name or an object with a method")
    merged = default_method_config(entry["method"]).to_dict()
    overrides = entry.get("base", {})
    if not isinstance(overrides, dict):
        raise ConfigError(f"{path}.base: expected an object, got {type(overrides).__name__}")
    merged["base"].update(overrides)
    merged.update({k: v for k, v in entry.items() if k != "base"})
    return UnlearnConfig.from_dict(merged, path)


@dataclass(frozen=True)
class ScenarioSpec(ConfigDict):
    kind: str = "random"
    n_forget: int = 5
    related_dataset: str | None = None

    def __post_init__(self):
        if self.kind not in ("random", "top"):
            raise ConfigError(f"scenario kind must be random or top, got {self.kind!r}")
        if self.n_forget < 1:
            raise ConfigError("n_forget must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig(ConfigDict):
    data: SyntheticSpec = field(default_factory=SyntheticSpec)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    methods: tuple[UnlearnConfig, ...] = ()
    master_seed: int = 7
    repeats: int = 5
    output_dir: str = "out"
    probe_rows: int = 256

    def __post_init__(self):
        if self.repeats < 1 or self.repeats > MAX_REPEATS:
            raise ConfigError(f"repeats must be in [1, {MAX_REPEATS}]")
        names = {d.name for d in self.data.downstream_specs}
        related = self.scenario.related_dataset
        if (related is not None or self.scenario.kind == "top") and related not in names:
            raise ConfigError("scenario.related_dataset must name a downstream spec "
                              f"(a top scenario requires one), got {related!r}")
        if self.scenario.n_forget >= self.data.num_train_classes:
            raise ConfigError(
                f"n_forget {self.scenario.n_forget} must be below num_train_classes "
                f"{self.data.num_train_classes}"
            )
        if self.probe_rows < MIN_PROBE_ROWS:
            raise ConfigError(f"probe_rows must be >= {MIN_PROBE_ROWS}, the fewest rows CKA takes")
        if not self.data.downstream_specs:
            raise ConfigError("data.downstream_specs must name at least one dataset")
        for d in self.data.downstream_specs:
            # k-NN with k = 5 needs 6 rows per class in the 80 % split.
            if int(0.8 * d.per_class) < 6:
                raise ConfigError(f"{d.name}: per_class {d.per_class} leaves fewer than "
                                  "6 rows per class for k-NN")

    def to_dict(self) -> dict:
        return {"version": 1, **super().to_dict()}

    @classmethod
    def from_dict(cls, d: dict, path: str = "") -> "ExperimentConfig":
        version = d.get("version") if isinstance(d, dict) else None
        if version != 1:
            raise ConfigError(f"config version must be 1, got {version!r}")
        body = {k: v for k, v in d.items() if k != "version"}
        if isinstance(body.get("methods"), (list, tuple)):
            body["methods"] = [method_config(m, f"methods[{i}]")
                               for i, m in enumerate(body["methods"])]
        return super().from_dict(body, path)


@dataclass
class RankedClasses:
    """Train classes ordered by similarity to a downstream dataset.

    Stage-1 entries (each downstream class's best-matching train class,
    deduplicated in downstream-class order) come first, sorted by score;
    stage-2 fills the rest by global max similarity.  Scores are
    non-increasing within each stage.
    """
    entries: tuple  # ((class_id, score), ...)

    def ids(self) -> list:
        return [c for c, _ in self.entries]


def select_top_classes(params: MlpParams, train: Dataset, downstream: Dataset,
                       n: int) -> RankedClasses:
    """Rank train classes by cosine similarity of class-mean features.

    Stage 1 guarantees every downstream class's nearest train class is
    selected; stage 2 appends the remaining classes by their best
    similarity to any downstream class.
    """
    if n > train.num_classes:
        raise BoundsError(f"n={n} exceeds number of train classes {train.num_classes}")
    means = [normalize_rows(compute_centroids(params, ds, np.unique(ds.y)).means)
             for ds in (downstream, train)]
    sims = means[0] @ means[1].T
    global_score = sims.max(axis=0)
    stage1 = []
    for k in range(sims.shape[0]):
        best = int(np.argmax(sims[k]))
        if best not in stage1:
            stage1.append(best)
    stage1.sort(key=lambda c: (-global_score[c], c))
    stage2 = [c for c in range(train.num_classes) if c not in set(stage1)]
    stage2.sort(key=lambda c: (-global_score[c], c))
    ordered = stage1 + stage2
    return RankedClasses(tuple((c, float(global_score[c])) for c in ordered[:n]))


@dataclass(frozen=True)
class Reference:
    """A downstream dataset's evaluation references, drawn once per
    scenario: its probe rows, its k-NN split, theta_r's k-NN accuracy,
    theta_o's and theta_r's probe CkaSides, and the two models' features
    on the whole dataset, which scoring them reuses."""
    probe_idx: np.ndarray
    knn_split: KnnSplit
    knn_r: float
    cka_o: CkaSide
    cka_r: CkaSide
    feats_o: np.ndarray
    feats_r: np.ndarray


@dataclass
class ScenarioContext:
    """Everything reusable across method runs of one scenario."""
    scenario: ScenarioSpec
    downstreams: dict       # name -> Dataset
    references: dict        # name -> Reference
    split: ForgetSplit
    theta_o: MlpParams
    theta_r: MlpParams
    mia_idx: tuple          # (member rows of Dr, non-member rows of Dr_te)
    visits_o: int = 0
    visits_r: int = 0
    rte_o: float = 0.0
    rte_r: float = 0.0

    @property
    def probes(self) -> dict:
        """name -> the probe inputs of each downstream dataset."""
        return {n: self.downstreams[n].X[r.probe_idx] for n, r in self.references.items()}

    def features(self, theta: MlpParams, name: str) -> np.ndarray:
        """theta's features on downstream dataset name: one forward pass,
        or for theta_o and theta_r the one scenario_context kept."""
        ref = self.references[name]
        if theta is self.theta_o:
            return ref.feats_o
        if theta is self.theta_r:
            return ref.feats_r
        return forward(theta, self.downstreams[name].X)[0]

    @cached_property
    def logits_r(self) -> SplitLogits:
        """theta_r's split_logits, computed on first use: the dp-noise sweep
        never needs them, and their forward pass over a large retain set
        would set its peak memory."""
        return split_logits(self.theta_r, self.split)

    @cached_property
    def acc_r(self) -> tuple:
        """theta_r's split_accuracies, read off logits_r."""
        return split_accuracies(self.logits_r, self.split)


def build_scenario(cfg: ExperimentConfig) -> ScenarioContext:
    """Generate data, train the original model, split, and retrain.  A
    random split never reads theta_o, so there theta_r retrains beside it
    (_beside); a top split ranks classes by theta_o, so it waits for it."""
    train, test, downstreams, _ = generate_universe(cfg.data)
    seed_o = derive_seed(cfg.master_seed, _S_TRAIN_ORIGINAL)
    init_o = init_params(cfg.data.ambient_dim, cfg.data.num_train_classes, seed_o)
    retrain_cfg = UnlearnConfig(
        "RETRAIN", cfg.train.with_seed(derive_seed(cfg.master_seed, _S_RETRAIN))
    )

    def train_o():
        t0 = time.perf_counter()
        theta = sgd_train(init_o, train, cfg.train.with_seed(seed_o))
        return theta, time.perf_counter() - t0

    if cfg.scenario.kind == "random":
        split = split_random_forget(train, test, cfg.scenario.n_forget,
                                    derive_seed(cfg.master_seed, _S_SPLIT))

        def retrain():
            # RETRAIN reads only theta_o's shapes, which its untrained init has.
            t0 = time.perf_counter()
            [outcome] = unlearn_cells(init_o, split, [retrain_cfg])
            return [outcome, time.perf_counter() - t0]
        (theta_o, rte_o), (retrained, rte_r) = _beside(train_o, retrain)
        if isinstance(retrained, Exception):
            raise retrained
    else:
        theta_o, rte_o = train_o()
        ranking = select_top_classes(
            theta_o, train, downstreams[cfg.scenario.related_dataset],
            train.num_classes,
        )
        split = split_top_forget(train, test, cfg.scenario.n_forget, ranking.ids())
        t0 = time.perf_counter()
        retrained = run_unlearning(theta_o, split, retrain_cfg)
        rte_r = time.perf_counter() - t0

    return scenario_context(
        cfg.scenario, cfg.master_seed, cfg.probe_rows, downstreams, split,
        theta_o, retrained.params, visits_o=cfg.train.epochs * train.n,
        visits_r=cfg.train.epochs * split.Dr.n, rte_o=rte_o, rte_r=rte_r,
    )


def scenario_context(scenario: ScenarioSpec, master_seed: int, probe_rows: int,
                     downstreams: dict, split: ForgetSplit, theta_o: MlpParams,
                     theta_r: MlpParams, **costs) -> ScenarioContext:
    """The evaluation references of a scenario whose models exist: probe
    rows, k-NN splits, the reference CKA sides, theta_r's k-NN accuracies
    and the MIA sample, all drawn from master_seed's streams.  Downstream
    datasets are numbered in the order given, which must be the config's.
    costs are the reference models' visits_o, visits_r, rte_o and rte_r."""
    knn_seed = derive_seed(master_seed, _S_KNN_SPLIT)
    references = {}
    for i, (name, ds) in enumerate(downstreams.items()):
        rng = make_rng(derive_seed(master_seed, _S_PROBE_BASE + i), 0)
        idx = rng.choice(ds.n, size=min(probe_rows, ds.n), replace=False)
        split_knn = knn_split(ds.y, 5, knn_seed)
        feats_o, feats_r = forward(theta_o, ds.X)[0], forward(theta_r, ds.X)[0]
        _, cka_o, _ = _representation(feats_o, idx, None)
        knn_r, cka_r, _ = _representation(feats_r, idx, split_knn)
        references[name] = Reference(idx, split_knn, knn_r, cka_o, cka_r, feats_o, feats_r)

    mia_rng = make_rng(derive_seed(master_seed, _S_MIA), 1)
    n_bal = min(split.Dr.n, split.Dr_te.n, 500)
    mi = mia_rng.choice(split.Dr.n, size=n_bal, replace=False)
    ni = mia_rng.choice(split.Dr_te.n, size=n_bal, replace=False)

    return ScenarioContext(
        scenario=scenario, downstreams=downstreams, references=references, split=split,
        theta_o=theta_o, theta_r=theta_r, mia_idx=(mi, ni), **costs,
    )


def _representation(feats: np.ndarray, probe_idx: np.ndarray,
                    split: KnnSplit | None) -> tuple:
    """A model's k-NN accuracy (None without a split), probe CkaSide and
    probe features, from its features on a whole downstream dataset."""
    knn = None if split is None else compute_knn_accuracy(feats, split)
    probe = feats[probe_idx]
    return knn, cka_side(probe), probe


def evaluate_model(ctx: ScenarioContext, theta_u: MlpParams) -> dict:
    """All metrics of one unlearned (or reference) model against the context,
    plus under "probe_features" its probe features per downstream dataset,
    which run_scenario exports."""
    per_dataset, probes = {}, {}
    for name, ref in ctx.references.items():
        knn_u, side_u, probes[name] = _representation(
            ctx.features(theta_u, name), ref.probe_idx, ref.knn_split)
        per_dataset[name] = DownstreamRepr(
            knn_acc_u=knn_u,
            knn_acc_r=ref.knn_r,
            g_knn=abs(knn_u - ref.knn_r),
            cka_ur=compute_cka(side_u, ref.cka_r),
            cka_uo=compute_cka(side_u, ref.cka_o),
        )
    scores = ReprScores(per_dataset)
    outs = ctx.logits_r if theta_u is ctx.theta_r else split_logits(theta_u, ctx.split)
    gaps = logit_gaps(outs, ctx.acc_r, ctx.split)
    agl = compute_agl(gaps)
    agr = compute_agr(scores, ctx.scenario.kind, ctx.scenario.related_dataset)
    return {
        "logit": gaps,
        "repr_scores": scores,
        "agl": agl,
        "agr": agr,
        "hlr": compute_hlr(agl, agr),
        "mia": mia_efficacy(*outs.attack_features(*ctx.mia_idx)),
        "probe_features": probes,
    }


def _method_seed(master_seed: int, method_index: int, repeat: int) -> int:
    return derive_seed(master_seed, _S_METHOD_BASE + method_index * MAX_REPEATS + repeat)


def _scored(ctx: ScenarioContext, theta: MlpParams, label: str, **row) -> tuple:
    """(the MetricsReport of row's fields and theta's scores, label, theta,
    theta's probe features): a finished report row."""
    ev = evaluate_model(ctx, theta)
    probes = ev.pop("probe_features")
    return MetricsReport(status="ok", **row, **ev), label, theta, probes


def _method_row(ctx: ScenarioContext, cfg: ExperimentConfig, m_idx: int, rep: int) -> tuple:
    """Method-repeat (m_idx, rep) unlearned and scored (_scored), its
    rte_seconds the unlearning's wall time.  A failure gives a failed
    report, with label, params and probe features None."""
    mcfg = cfg.methods[m_idx]
    seed = _method_seed(cfg.master_seed, m_idx, rep)
    row = dict(method=mcfg.method, scenario=_scenario_name(cfg.scenario), seed=seed)
    prov = {"repeat": rep, "role": "unlearned",
            "related_dataset": cfg.scenario.related_dataset}
    t0 = time.perf_counter()
    try:
        result = run_unlearning(ctx.theta_o, ctx.split, mcfg.with_seed(seed))
        rte = time.perf_counter() - t0
        return _scored(ctx, result.params, f"{mcfg.method}-r{rep}", **row,
                       sample_visits=result.sample_visits, rte_seconds=rte,
                       provenance={**prov, **result.stats})
    except Exception as exc:  # failed repeats become rows, not aborts
        return MetricsReport(**row, status=f"failed: {_failure(exc)}",
                             rte_seconds=time.perf_counter() - t0, provenance=prov), \
            None, None, None


def run_scenario(cfg: ExperimentConfig, emit: bool = True,
                 ctx: ScenarioContext | None = None):
    """Execute the full benchmark; returns (reports, models).

    A failing method-repeat yields a failed report row instead of aborting
    the run.  With at least two method-repeats, every second one in config
    order is unlearned and scored beside this process (_beside: in the
    forked worker when _forks()) while it scores theta_o, theta_r and the
    rest; each row's rte_seconds is timed in the process that ran it.
    With emit=True, reports and each model's probe features land in
    cfg.output_dir once every row is in.
    A prebuilt context may be passed to reuse the trained reference models.
    """
    if ctx is None:
        ctx = build_scenario(cfg)
    ctx.acc_r  # here, so that the worker does not forward theta_r again
    jobs = [(m_idx, rep) for m_idx in range(len(cfg.methods)) for rep in range(cfg.repeats)]

    def rows(part: list) -> list:
        return [_method_row(ctx, cfg, *job) for job in part]

    def references() -> list:
        return [_scored(ctx, theta, label, method=label, scenario=_scenario_name(cfg.scenario),
                        seed=cfg.master_seed, sample_visits=visits, rte_seconds=rte,
                        provenance={"repeat": 0, "role": label,
                                    "related_dataset": cfg.scenario.related_dataset})
                for label, theta, visits, rte in (
                    ("original", ctx.theta_o, ctx.visits_o, ctx.rte_o),
                    ("retrained", ctx.theta_r, ctx.visits_r, ctx.rte_r))]

    if len(jobs) < 2:
        done = references() + rows(jobs)
    else:
        done = list(jobs)
        (head, done[0::2]), done[1::2] = _beside(lambda: (references(), rows(jobs[0::2])),
                                                 lambda: rows(jobs[1::2]))
        done = head + done

    out = Path(cfg.output_dir)
    models = {}
    for _, label, params, probes in done:
        if params is None:
            continue
        models[label] = params
        if emit:
            # UBM1, the raw material for external visualization in place
            # of t-SNE plots.
            directory = out / "features" / label
            directory.mkdir(parents=True, exist_ok=True)
            for name, feats in probes.items():
                ubm.write_matrix(directory / f"{name}.ubm1", feats)
    reports = [report for report, *_ in done]
    if emit:
        # output_dir is environmental, not experimental; leaving it out
        # keeps report.json a pure function of the science.
        echo = {k: v for k, v in cfg.to_dict().items() if k != "output_dir"}
        emit_report(reports, out, config_echo=echo)
    return reports, models


def _scenario_name(sc: ScenarioSpec) -> str:
    if sc.kind == "random":
        return f"random-{sc.n_forget}"
    return f"top-{sc.n_forget}-{sc.related_dataset}"


# What a sweep cell reports as a NaN cell with its cause: a diverged run,
# a degenerate input, or a finite model whose features overflow.
_CELL_FAILURES = (DivergenceError, DegenerateInputError, NonFiniteError)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _score_cell(outcome, score, failed) -> tuple:
    """A sweep cell's (scores, status): score(result) and "ok", or `failed`
    and the failure's text when the cell or its scoring stopped on one of
    _CELL_FAILURES.  Any other error propagates."""
    try:
        if isinstance(outcome, Exception):
            raise outcome
        return score(outcome), "ok"
    except _CELL_FAILURES as exc:
        return failed, _failure(exc)


def _fmt(x) -> str:
    return "" if x is None else f"{x:.6f}"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def reports_to_csv(reports: list) -> str:
    """One CSV row per report; numbers as 6-decimal fractions."""
    names = []
    for r in reports:
        if r.repr_scores:
            names = list(r.repr_scores.per_dataset)
            break
    header = ["method", "scenario", "seed", "status", "fa", "ra", "tfa", "tra", "agl"]
    for n in names:
        header += [f"knn_{n}", f"cka_{n}"]
    header += ["agr", "hlr", "mia", "rte_seconds", "sample_visits"]
    rows = [header]
    for r in reports:
        row = [r.method, r.scenario, r.seed, r.status]
        if r.logit:
            row += [_fmt(r.logit.fa), _fmt(r.logit.ra), _fmt(r.logit.tfa), _fmt(r.logit.tra)]
        else:
            row += ["", "", "", ""]
        row.append(_fmt(r.agl))
        for n in names:
            d = r.repr_scores.per_dataset.get(n) if r.repr_scores else None
            row += [_fmt(d.knn_acc_u) if d else "", _fmt(d.cka_ur) if d else ""]
        row += [_fmt(r.agr), _fmt(r.hlr), _fmt(r.mia),
                _fmt(r.rte_seconds), str(r.sample_visits)]
        rows.append(row)
    return _csv_text(rows)


def reports_to_json(reports: list, config_echo: dict | None = None) -> str:
    doc = {"version": 1, "reports": [r.to_dict() for r in reports]}
    if config_echo is not None:
        doc["config"] = config_echo
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit_report(reports: list, output_dir, config_echo: dict | None = None) -> dict:
    """Write report.json (deterministic), report.csv (incl. wall-clock RTE),
    and the CKA scatter pairs for external plotting."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "json": out / "report.json",
        "csv": out / "report.csv",
        "scatter": out / "cka_scatter.csv",
    }
    paths["json"].write_text(reports_to_json(reports, config_echo))
    paths["csv"].write_text(reports_to_csv(reports))
    paths["scatter"].write_text(_csv_text(
        [["method", "repeat", "dataset", "cka_uo", "cka_ur"]]
        + [[r.method, r.provenance.get("repeat", 0), name, _fmt(d.cka_uo), _fmt(d.cka_ur)]
           for r in reports if r.repr_scores for name, d in r.repr_scores.per_dataset.items()]))
    return paths


def _sweep(cfg: ExperimentConfig, method: str, changes: list, score, failed,
           ctx: ScenarioContext | None) -> list:
    """Each cell's (scores, status) from _score_cell, where a cell is
    method's first-repeat config (as run_scenario seeds it) with one entry
    of changes, a dict of TrainConfig fields, applied to its base.  The
    cells train together (sweep_cells), and this process scores every one
    through score(ctx, result).  A method the config does not list is a
    ConfigError, raised before anything trains."""
    m_idx = next((i for i, m in enumerate(cfg.methods) if m.method == method), None)
    if m_idx is None:
        raise ConfigError(f"method {method!r} not present in the experiment config")
    first = cfg.methods[m_idx].with_seed(_method_seed(cfg.master_seed, m_idx, 0))
    cfgs = [replace(first, base=replace(first.base, **change)) for change in changes]
    if ctx is None:
        ctx = build_scenario(cfg)
    return [_score_cell(outcome, lambda result: score(ctx, result), failed)
            for outcome in sweep_cells(ctx.theta_o, ctx.split, cfgs)]


def sweep_hyperparameters(cfg: ExperimentConfig, method: str,
                          lr_grid, epoch_grid, ctx: ScenarioContext | None = None):
    """H-LR over an lr x epochs grid, reusing theta_o / theta_r.

    Returns (grid, csv_text); grid[i][j] is the H-LR at (lr_grid[i],
    epoch_grid[j]), NaN where the run diverged, its input was degenerate
    or the model's features were not finite.
    The CSV's trailing status column is "ok", or names each failed cell of
    the row as "epochs=E: ExceptionName: message", joined by "; ".  The
    first grid cell's seed matches run_scenario's first repeat, so a 1x1
    grid reproduces its H-LR exactly.
    """
    def hlr(ctx, result):
        return evaluate_model(ctx, result.params)["hlr"]
    scored = _sweep(cfg, method, [dict(lr=float(lr), epochs=int(ep))
                                  for lr in lr_grid for ep in epoch_grid],
                    hlr, float("nan"), ctx)
    n = len(epoch_grid)
    rows = [scored[i * n:(i + 1) * n] for i in range(len(lr_grid))]
    grid = [[value for value, _ in row] for row in rows]
    statuses = ["; ".join(f"epochs={int(ep)}: {status}"
                          for ep, (_, status) in zip(epoch_grid, row) if status != "ok") or "ok"
                for row in rows]
    return grid, _csv_text([["lr\\epochs"] + [str(int(e)) for e in epoch_grid] + ["status"]]
                           + [[f"{float(lr):g}"] + [_fmt(v) for v in row] + [status]
                              for lr, row, status in zip(lr_grid, grid, statuses)])


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))  # Linux's; _forks asks only there


def _forks() -> bool:
    """Whether cells run in a forked worker (unlbench.worker): on Linux,
    when at least two CPUs are usable."""
    # CPython holds fork unsafe on macOS, and Windows has none.
    return sys.platform == "linux" and _usable_cpus() >= 2


def _beside(work, aside) -> tuple:
    """(work(), aside()): aside runs in one forked worker while this process
    runs work when _forks(), else after it.  aside's result comes back
    pickled, and each exception in a list it returns carries the worker's
    traceback as a note."""
    if not _forks():
        return work(), aside()
    with worker.Worker(aside) as child:
        first = work()
        return first, child.results()


def sweep_cells(theta_o: MlpParams, split: ForgetSplit, cfgs: list) -> list:
    """unlearning.unlearn_cells over cfgs, with every second cell in the
    forked worker (_beside) when _forks() and there are at least two
    cells.  The parent runs its own cells meanwhile; the results come back
    merged in cell order."""
    if len(cfgs) < 2 or not _forks():
        return unlearn_cells(theta_o, split, cfgs)
    out = list(cfgs)
    out[0::2], out[1::2] = _beside(lambda: unlearn_cells(theta_o, split, cfgs[0::2]),
                                   lambda: unlearn_cells(theta_o, split, cfgs[1::2]))
    return out


def sweep_dp_noise(cfg: ExperimentConfig, method: str, sigma_grid,
                   ctx: ScenarioContext | None = None):
    """Representation quality under increasing gradient noise.

    Evaluates k-NN accuracy and the two CKA similarities on the
    scenario's related downstream dataset when it names one, else on the
    first one.
    Returns (rows, csv_text) with one (sigma, knn, cka_ur, cka_uo) row per
    noise level, NaN where the run diverged, its input was degenerate or
    the model's features were not finite;
    the CSV's trailing status column is "ok" or "ExceptionName: message".
    sigma 0 reproduces the noiseless run bit-exactly.
    """
    def score(ctx, result):
        name = cfg.scenario.related_dataset or next(iter(ctx.downstreams))
        ref = ctx.references[name]
        knn, side, _ = _representation(ctx.features(result.params, name),
                                       ref.probe_idx, ref.knn_split)
        return knn, compute_cka(side, ref.cka_r), compute_cka(side, ref.cka_o)
    scored = _sweep(cfg, method, [dict(grad_noise_sigma=float(sigma)) for sigma in sigma_grid],
                    score, (float("nan"),) * 3, ctx)
    rows = [(float(sigma), *scores) for sigma, (scores, _) in zip(sigma_grid, scored)]
    return rows, _csv_text([["sigma", "knn_acc", "cka_ur", "cka_uo", "status"]]
                           + [[f"{sigma:g}", _fmt(knn), _fmt(ur), _fmt(uo), status]
                              for (sigma, knn, ur, uo), (_, status) in zip(rows, scored)])


@dataclass
class LastLayerReport:
    cka_full_vs_head: float
    agl_gap: float
    agl_full: float
    agl_head: float


def last_layer_analysis(theta_o: MlpParams, theta_r: MlpParams,
                        split: ForgetSplit, cfg: UnlearnConfig) -> LastLayerReport:
    """Run one method fully and head-only, then compare the two results.

    Features are extracted on the retain test set; the AGL gap is the
    absolute difference of the two AGL scores against theta_r.
    """
    full = run_unlearning(theta_o, split, cfg).params
    head_cfg = replace(cfg, base=replace(cfg.base, freeze_encoder=True))
    head = run_unlearning(theta_o, split, head_cfg).params
    outs_full, feats_full = split_forward(full, split)
    outs_head, feats_head = split_forward(head, split)
    cka = compute_cka(feats_full, feats_head)
    acc_r = split_accuracies(split_logits(theta_r, split), split)
    agl_full, agl_head = (compute_agl(logit_gaps(outs, acc_r, split))
                          for outs in (outs_full, outs_head))
    return LastLayerReport(cka, abs(agl_full - agl_head), agl_full, agl_head)
