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
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import ubm
from .data import (
    Dataset,
    ForgetSplit,
    SyntheticSpec,
    generate_universe,
    split_random_forget,
    split_top_forget,
)
from .errors import BoundsError, ConfigError, DegenerateInputError, DivergenceError
from .metrics import (
    DownstreamRepr,
    MetricsReport,
    ReprScores,
    cka_side,
    compute_agl,
    compute_agr,
    compute_cka,
    compute_hlr,
    compute_knn_accuracy,
    logit_gaps,
    mia_efficacy,
    split_accuracies,
)
from .model import MlpParams, TrainConfig, forward, init_params, sgd_train
from .rng import derive_seed, make_rng
from .serial import ConfigDict
from .unlearning import UnlearnConfig, run_unlearning

# Seed-derivation streams under master_seed.
_S_TRAIN_ORIGINAL = 1
_S_SPLIT = 2
_S_RETRAIN = 3
_S_PROBE_BASE = 10
_S_MIA = 50
_S_KNN_SPLIT = 60
_S_METHOD_BASE = 1000

MAX_REPEATS = 100


def default_method_config(method: str) -> UnlearnConfig:
    """Desk-scale per-method defaults, grid-searched once on the shipped
    default scenario so each method lands in its characteristic regime."""
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
        if self.scenario.kind == "top":
            if self.scenario.related_dataset not in names:
                raise ConfigError(
                    "top scenario requires related_dataset naming a downstream spec, "
                    f"got {self.scenario.related_dataset!r}"
                )
        if self.scenario.n_forget >= self.data.num_train_classes:
            raise ConfigError(
                f"n_forget {self.scenario.n_forget} must be below num_train_classes "
                f"{self.data.num_train_classes}"
            )
        if self.probe_rows < 3:
            raise ConfigError("probe_rows must be >= 3 (CKA needs at least 3 rows)")
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


def _class_mean_features(params: MlpParams, dataset: Dataset) -> np.ndarray:
    feats, _ = forward(params, dataset.X)
    classes = sorted(set(dataset.y.tolist()))
    return np.vstack([feats[dataset.y == c].mean(axis=0) for c in classes])


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms > 0, norms, 1.0)


def select_top_classes(params: MlpParams, train: Dataset, downstream: Dataset,
                       n: int) -> RankedClasses:
    """Rank train classes by cosine similarity of class-mean features.

    Stage 1 guarantees every downstream class's nearest train class is
    selected; stage 2 appends the remaining classes by their best
    similarity to any downstream class.
    """
    if n > train.num_classes:
        raise BoundsError(f"n={n} exceeds number of train classes {train.num_classes}")
    sims = _unit_rows(_class_mean_features(params, downstream)) \
        @ _unit_rows(_class_mean_features(params, train)).T
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


@dataclass
class ScenarioContext:
    """Everything reusable across method runs of one scenario."""
    cfg: ExperimentConfig
    train: Dataset
    test: Dataset
    downstreams: dict
    split: ForgetSplit
    theta_o: MlpParams
    theta_r: MlpParams
    probes: dict            # name -> probe inputs, ds.X[probe_idx[name]]
    probe_idx: dict         # name -> probe row indices into the dataset
    cka_o: dict             # name -> theta_o probe CkaSide
    cka_r: dict             # name -> theta_r probe CkaSide
    knn_r: dict             # name -> retrained knn accuracy
    mia_member: Dataset
    mia_nonmember: Dataset
    visits_o: int
    visits_r: int
    rte_o: float
    rte_r: float
    ranking: RankedClasses | None = None

    @property
    def knn_seed(self) -> int:
        return derive_seed(self.cfg.master_seed, _S_KNN_SPLIT)

    @cached_property
    def acc_r(self) -> tuple:
        """theta_r's split_accuracies, computed on first use: the dp-noise
        sweep never needs them, and their forward pass over a large retain
        set would set its peak memory."""
        return split_accuracies(self.theta_r, self.split)


def build_scenario(cfg: ExperimentConfig) -> ScenarioContext:
    """Generate data, train the original model, split, and retrain."""
    train, test, downstreams, _ = generate_universe(cfg.data)
    t0 = time.perf_counter()
    theta_o = init_params(cfg.data.ambient_dim, cfg.data.num_train_classes,
                          derive_seed(cfg.master_seed, _S_TRAIN_ORIGINAL))
    theta_o = sgd_train(
        theta_o, train,
        cfg.train.with_seed(derive_seed(cfg.master_seed, _S_TRAIN_ORIGINAL)),
    )
    rte_o = time.perf_counter() - t0

    ranking = None
    if cfg.scenario.kind == "random":
        split = split_random_forget(train, test, cfg.scenario.n_forget,
                                    derive_seed(cfg.master_seed, _S_SPLIT))
    else:
        ranking = select_top_classes(
            theta_o, train, downstreams[cfg.scenario.related_dataset],
            train.num_classes,
        )
        split = split_top_forget(train, test, cfg.scenario.n_forget, ranking.ids())

    t0 = time.perf_counter()
    retrain_cfg = UnlearnConfig(
        "RETRAIN", cfg.train.with_seed(derive_seed(cfg.master_seed, _S_RETRAIN))
    )
    res_r = run_unlearning(theta_o, split, retrain_cfg)
    rte_r = time.perf_counter() - t0
    theta_r = res_r.params

    probe_idx = {}
    for i, (name, ds) in enumerate(downstreams.items()):
        rng = make_rng(derive_seed(cfg.master_seed, _S_PROBE_BASE + i), 0)
        probe_idx[name] = rng.choice(ds.n, size=min(cfg.probe_rows, ds.n), replace=False)
    probes = {n: downstreams[n].X[idx] for n, idx in probe_idx.items()}

    knn_seed = derive_seed(cfg.master_seed, _S_KNN_SPLIT)
    cka_o = {n: cka_side(forward(theta_o, x)[0]) for n, x in probes.items()}
    cka_r, knn_r = {}, {}
    for n, ds in downstreams.items():
        feats_r = forward(theta_r, ds.X)[0]
        cka_r[n] = cka_side(feats_r[probe_idx[n]])
        knn_r[n] = compute_knn_accuracy(feats_r, ds.y, 5, knn_seed)

    mia_rng = make_rng(derive_seed(cfg.master_seed, _S_MIA), 1)
    n_bal = min(split.Dr.n, split.Dr_te.n, 500)
    mi = mia_rng.choice(split.Dr.n, size=n_bal, replace=False)
    ni = mia_rng.choice(split.Dr_te.n, size=n_bal, replace=False)
    mia_member = Dataset(split.Dr.X[mi], split.Dr.y[mi], split.Dr.num_classes)
    mia_nonmember = Dataset(split.Dr_te.X[ni], split.Dr_te.y[ni], split.Dr_te.num_classes)

    return ScenarioContext(
        cfg=cfg, train=train, test=test, downstreams=downstreams, split=split,
        theta_o=theta_o, theta_r=theta_r, probes=probes, probe_idx=probe_idx,
        cka_o=cka_o, cka_r=cka_r, knn_r=knn_r,
        mia_member=mia_member, mia_nonmember=mia_nonmember,
        visits_o=cfg.train.epochs * train.n, visits_r=cfg.train.epochs * split.Dr.n,
        rte_o=rte_o, rte_r=rte_r, ranking=ranking,
    )


def _representation(ctx: ScenarioContext, theta_u: MlpParams, name: str) -> tuple:
    """theta_u's k-NN accuracy and probe CkaSide on one downstream dataset,
    from one forward pass over the whole dataset."""
    ds = ctx.downstreams[name]
    feats, _ = forward(theta_u, ds.X)
    knn = compute_knn_accuracy(feats, ds.y, 5, ctx.knn_seed)
    return knn, cka_side(feats[ctx.probe_idx[name]])


def evaluate_model(ctx: ScenarioContext, theta_u: MlpParams) -> dict:
    """All metrics of one unlearned (or reference) model against the context."""
    per_dataset = {}
    for name in ctx.downstreams:
        knn_u, side_u = _representation(ctx, theta_u, name)
        per_dataset[name] = DownstreamRepr(
            knn_acc_u=knn_u,
            knn_acc_r=ctx.knn_r[name],
            g_knn=abs(knn_u - ctx.knn_r[name]),
            cka_ur=compute_cka(side_u, ctx.cka_r[name]),
            cka_uo=compute_cka(side_u, ctx.cka_o[name]),
        )
    scores = ReprScores(per_dataset)
    gaps = logit_gaps(theta_u, ctx.acc_r, ctx.split)
    agl = compute_agl(gaps)
    agr = compute_agr(scores, ctx.cfg.scenario.kind, ctx.cfg.scenario.related_dataset)
    return {
        "logit": gaps,
        "repr_scores": scores,
        "agl": agl,
        "agr": agr,
        "hlr": compute_hlr(agl, agr),
        "mia": mia_efficacy(theta_u, ctx.mia_member, ctx.mia_nonmember, ctx.split.Df),
    }


def _method_seed(master_seed: int, method_index: int, repeat: int) -> int:
    return derive_seed(master_seed, _S_METHOD_BASE + method_index * MAX_REPEATS + repeat)


def run_scenario(cfg: ExperimentConfig, emit: bool = True,
                 ctx: ScenarioContext | None = None):
    """Execute the full benchmark; returns (reports, models).

    A failing method-repeat yields a failed report row instead of aborting
    the run.  With emit=True, reports and probe features land in
    cfg.output_dir.  A prebuilt context may be passed to reuse the trained
    reference models.
    """
    if ctx is None:
        ctx = build_scenario(cfg)
    scenario_name = _scenario_name(cfg.scenario)
    reports = []
    models = {}

    for label, theta, visits, rte in (
        ("original", ctx.theta_o, ctx.visits_o, ctx.rte_o),
        ("retrained", ctx.theta_r, ctx.visits_r, ctx.rte_r),
    ):
        ev = evaluate_model(ctx, theta)
        reports.append(MetricsReport(
            method=label, scenario=scenario_name, seed=cfg.master_seed,
            status="ok", sample_visits=visits, rte_seconds=rte,
            provenance={"repeat": 0, "role": label,
                        "related_dataset": cfg.scenario.related_dataset},
            **ev,
        ))
        models[label] = theta

    for m_idx, mcfg in enumerate(cfg.methods):
        for rep in range(cfg.repeats):
            seed = _method_seed(cfg.master_seed, m_idx, rep)
            run_cfg = mcfg.with_seed(seed)
            label = f"{mcfg.method}-r{rep}"
            t0 = time.perf_counter()
            try:
                result = run_unlearning(ctx.theta_o, ctx.split, run_cfg)
                rte = time.perf_counter() - t0
                ev = evaluate_model(ctx, result.params)
                prov = {"repeat": rep, "role": "unlearned",
                        "related_dataset": cfg.scenario.related_dataset}
                prov.update(result.stats)
                reports.append(MetricsReport(
                    method=mcfg.method, scenario=scenario_name, seed=seed,
                    status="ok", sample_visits=result.sample_visits,
                    rte_seconds=rte, provenance=prov, **ev,
                ))
                models[label] = result.params
            except Exception as exc:  # failed repeats become rows, not aborts
                reports.append(MetricsReport(
                    method=mcfg.method, scenario=scenario_name, seed=seed,
                    status=f"failed: {type(exc).__name__}: {exc}",
                    rte_seconds=time.perf_counter() - t0,
                    provenance={"repeat": rep, "role": "unlearned",
                                "related_dataset": cfg.scenario.related_dataset},
                ))

    if emit:
        out = Path(cfg.output_dir)
        # output_dir is environmental, not experimental; leaving it out
        # keeps report.json a pure function of the science.
        echo = {k: v for k, v in cfg.to_dict().items() if k != "output_dir"}
        emit_report(reports, out, config_echo=echo)
        _export_probe_features(ctx, models, out / "features")
    return reports, models


def _scenario_name(sc: ScenarioSpec) -> str:
    if sc.kind == "random":
        return f"random-{sc.n_forget}"
    return f"top-{sc.n_forget}-{sc.related_dataset}"


def _export_probe_features(ctx: ScenarioContext, models: dict, directory: Path) -> None:
    """Probe features per model as UBM1, the raw material for external
    visualization in place of t-SNE plots."""
    for label, params in models.items():
        mdir = directory / label
        mdir.mkdir(parents=True, exist_ok=True)
        for name, probe in ctx.probes.items():
            feats, _ = forward(params, probe)
            ubm.write_matrix(mdir / f"{name}.ubm1", feats)


def _fmt(x) -> str:
    return "" if x is None else f"{x:.6f}"


def reports_to_csv(reports: list) -> str:
    """One CSV row per report; numbers as 6-decimal fractions."""
    names = []
    for r in reports:
        if r.repr_scores:
            names = list(r.repr_scores.per_dataset)
            break
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["method", "scenario", "seed", "status", "fa", "ra", "tfa", "tra", "agl"]
    for n in names:
        header += [f"knn_{n}", f"cka_{n}"]
    header += ["agr", "hlr", "mia", "rte_seconds", "sample_visits"]
    writer.writerow(header)
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
        writer.writerow(row)
    return buf.getvalue()


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "repeat", "dataset", "cka_uo", "cka_ur"])
    for r in reports:
        if not r.repr_scores:
            continue
        for name, d in r.repr_scores.per_dataset.items():
            writer.writerow([r.method, r.provenance.get("repeat", 0), name,
                             _fmt(d.cka_uo), _fmt(d.cka_ur)])
    paths["scatter"].write_text(buf.getvalue())
    return paths


def load_reports(path) -> list:
    doc = json.loads(Path(path).read_text())
    if doc.get("version") != 1:
        raise ConfigError(f"report version must be 1, got {doc.get('version')!r}")
    return [MetricsReport.from_dict(d) for d in doc["reports"]]


def _find_method(cfg: ExperimentConfig, method: str) -> tuple:
    for i, m in enumerate(cfg.methods):
        if m.method == method:
            return i, m
    raise ConfigError(f"method {method!r} not present in the experiment config")


def sweep_hyperparameters(cfg: ExperimentConfig, method: str,
                          lr_grid, epoch_grid, ctx: ScenarioContext | None = None):
    """H-LR over an lr x epochs grid, reusing theta_o / theta_r.

    Returns (grid, csv_text); grid[i][j] is the H-LR at (lr_grid[i],
    epoch_grid[j]).  The first grid cell's seed matches run_scenario's
    first repeat, so a 1x1 grid reproduces its H-LR exactly.
    """
    m_idx, mcfg = _find_method(cfg, method)
    if ctx is None:
        ctx = build_scenario(cfg)
    seed = _method_seed(cfg.master_seed, m_idx, 0)
    grid = []
    for lr in lr_grid:
        row = []
        for ep in epoch_grid:
            run_cfg = replace(mcfg, base=replace(mcfg.base, seed=seed,
                                                 lr=float(lr), epochs=int(ep)))
            try:
                result = run_unlearning(ctx.theta_o, ctx.split, run_cfg)
                ev = evaluate_model(ctx, result.params)
                row.append(ev["hlr"])
            except (DivergenceError, DegenerateInputError):
                row.append(float("nan"))
        grid.append(row)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lr\\epochs"] + [str(int(e)) for e in epoch_grid])
    for lr, row in zip(lr_grid, grid):
        writer.writerow([f"{float(lr):g}"] + [_fmt(v) for v in row])
    return grid, buf.getvalue()


def sweep_dp_noise(cfg: ExperimentConfig, method: str, sigma_grid,
                   ctx: ScenarioContext | None = None):
    """Representation quality under increasing gradient noise.

    Evaluates k-NN accuracy and the two CKA similarities on the related
    downstream dataset (top scenario) or the first one (random scenario).
    Returns (rows, csv_text) with one (sigma, knn, cka_ur, cka_uo) row per
    noise level; sigma 0 reproduces the noiseless run bit-exactly.
    """
    m_idx, mcfg = _find_method(cfg, method)
    if ctx is None:
        ctx = build_scenario(cfg)
    name = cfg.scenario.related_dataset or next(iter(ctx.downstreams))
    seed = _method_seed(cfg.master_seed, m_idx, 0)
    rows = []
    for sigma in sigma_grid:
        run_cfg = replace(mcfg, base=replace(mcfg.base, seed=seed,
                                             grad_noise_sigma=float(sigma)))
        try:
            result = run_unlearning(ctx.theta_o, ctx.split, run_cfg)
            knn, side = _representation(ctx, result.params, name)
            rows.append((float(sigma), knn, compute_cka(side, ctx.cka_r[name]),
                         compute_cka(side, ctx.cka_o[name])))
        except (DivergenceError, DegenerateInputError):
            rows.append((float(sigma), float("nan"), float("nan"), float("nan")))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sigma", "knn_acc", "cka_ur", "cka_uo"])
    for sigma, knn, ur, uo in rows:
        writer.writerow([f"{sigma:g}", _fmt(knn), _fmt(ur), _fmt(uo)])
    return rows, buf.getvalue()
