"""Command-line surface of the benchmark.

Exit codes: 0 on success, 1 on configuration errors (bad JSON, bad flags,
bad values), 2 on runtime failures.  All config files are JSON documents
with a top-level "version" field.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .data import (
    SyntheticSpec,
    generate_universe,
    load_dataset,
    load_split,
    save_dataset,
    save_split,
    split_random_forget,
    split_top_forget,
)
from .errors import ConfigError
from .harness import (
    MIN_PROBE_ROWS,
    ExperimentConfig,
    ScenarioSpec,
    _scenario_name,
    default_method_config,
    evaluate_model,
    method_config,
    run_scenario,
    scenario_context,
    select_top_classes,
    sweep_dp_noise,
    sweep_hyperparameters,
)
from .metrics import MetricsReport
# logit_gaps and mia_efficacy are imported only because perfbench/tracer.py
# hooks them under these names; eval reaches them through the harness.
from .metrics import logit_gaps, mia_efficacy  # noqa: F401
from .model import (
    ModelCheckpoint,
    TrainConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_train,
)
from .serial import ConfigDict
from .unlearning import run_unlearning


class _Parser(argparse.ArgumentParser):
    # Usage errors are configuration errors: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _count(text: str) -> int:
    """An --n flag: a class count of at least 1, checked before any load."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _read_json(path, what: str = "config"):
    """A JSON document; a missing or unreadable file and invalid JSON are
    configuration errors."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read {what} file: {exc}") from exc


def _load_json(path) -> dict:
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise ConfigError(f"{path}: config must be a JSON object with version 1")
    return doc


def _block(doc: dict, name: str) -> tuple:
    """The named block of a config document and its path, or else the bare
    document without its version key."""
    if name in doc:
        return doc[name], name
    return {k: v for k, v in doc.items() if k != "version"}, ""


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec.from_dict(*_block(_load_json(args.config), "data"))
    train, test, downstreams, _ = generate_universe(spec)
    out = Path(args.out)
    meta = {"spec": spec.to_dict(), "seed": spec.prototype_seed}
    save_dataset(train, out / "train", meta)
    save_dataset(test, out / "test", meta)
    for name, ds in downstreams.items():
        save_dataset(ds, out / name, meta)
    print(f"wrote {out}/train, {out}/test and {len(downstreams)} downstream datasets")
    return 0


def _train_config(args) -> TrainConfig:
    if args.config:
        cfg = TrainConfig.from_dict(*_block(_load_json(args.config), "train"))
    else:
        cfg = TrainConfig()
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def _cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    cfg = _train_config(args)
    params = init_params(dataset.X.shape[1], dataset.num_classes, cfg.seed)
    params = sgd_train(params, dataset, cfg)
    save_checkpoint(ModelCheckpoint(params, {
        "role": "original", "seed": cfg.seed, "config_hash": cfg.config_hash(),
        "parent_hash": None,
    }), args.out)
    print(f"trained checkpoint written to {args.out}")
    return 0


def _cmd_split(args) -> int:
    train = load_dataset(args.train)
    if args.n >= train.num_classes:
        raise ConfigError(f"--n {args.n} must be below the train set's "
                          f"{train.num_classes} classes")
    test = load_dataset(args.test)
    if args.kind == "random":
        split = split_random_forget(train, test, args.n, args.seed)
    else:
        if not args.ranking:
            raise ConfigError("top split requires --ranking (JSON list of class ids)")
        ranking = _read_json(args.ranking, "--ranking")
        if not isinstance(ranking, list):
            raise ConfigError(f"--ranking must be a JSON list of class ids, "
                              f"got {type(ranking).__name__}")
        ids = [e.get("class") if isinstance(e, dict) else e for e in ranking]
        if len(ids) < args.n:
            raise ConfigError(f"--ranking has {len(ids)} entries, fewer than --n {args.n}")
        for c in ids:
            if isinstance(c, bool) or not isinstance(c, int) \
                    or not 0 <= c < train.num_classes:
                raise ConfigError(f"--ranking names class {c!r}, outside "
                                  f"[0, {train.num_classes})")
        if len(set(ids[:args.n])) < args.n:
            raise ConfigError(f"--ranking repeats a class in its first {args.n} entries")
        split = split_top_forget(train, test, args.n, ids)
    save_split(split, args.out)
    print(f"split written to {args.out}; forget classes {list(split.forget_classes)}")
    return 0


def _cmd_unlearn(args) -> int:
    original = load_checkpoint(args.original)
    split = load_split(args.split)
    if args.config:
        body, path = _block(_load_json(args.config), "unlearn")
        if isinstance(body, dict):
            body = {"method": args.method, **body}
        cfg = method_config(body, path)
        if cfg.method != args.method:
            raise ConfigError(f"--method {args.method} conflicts with config method {cfg.method}")
    else:
        cfg = default_method_config(args.method)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    result = run_unlearning(original.params, split, cfg)
    provenance = {
        "role": f"unlearned:{cfg.method}", "seed": cfg.base.seed,
        "config_hash": cfg.base.config_hash(),
        "parent_hash": original.params.content_hash(),
        "sample_visits": result.sample_visits,
    }
    provenance.update(result.stats)
    save_checkpoint(ModelCheckpoint(result.params, provenance), args.out)
    (Path(args.out) / "unlearn_config.json").write_text(
        json.dumps({"version": 1, **cfg.to_dict()}, indent=2, sort_keys=True) + "\n"
    )
    print(f"unlearned checkpoint ({cfg.method}) written to {args.out}")
    return 0


def _cmd_select_top(args) -> int:
    train = load_dataset(args.train)
    if args.n > train.num_classes:
        raise ConfigError(f"--n {args.n} exceeds the train set's {train.num_classes} classes")
    model = load_checkpoint(args.model)
    downstream = load_dataset(args.downstream)
    ranking = select_top_classes(model.params, train, downstream, args.n)
    print(json.dumps([{"class": c, "score": s} for c, s in ranking.entries], indent=2))
    return 0


def _cmd_eval(args) -> int:
    if args.probe_rows < MIN_PROBE_ROWS:
        raise ConfigError(f"--probe-rows must be >= {MIN_PROBE_ROWS}, the fewest rows CKA takes")
    names = [Path(d).name for d in args.downstreams]
    if len(set(names)) < len(names):
        raise ConfigError(f"--downstreams are named by directory, and {names} repeats a name")
    if (args.related is not None or args.scenario_kind == "top") and args.related not in names:
        raise ConfigError(f"--related must name one of the --downstreams {names} "
                          f"(--scenario-kind top requires it), got {args.related!r}")
    unlearned = load_checkpoint(args.unlearned)
    split = load_split(args.split)
    ctx = scenario_context(
        ScenarioSpec(args.scenario_kind, len(split.forget_classes), args.related),
        args.seed, args.probe_rows,
        {name: load_dataset(d) for name, d in zip(names, args.downstreams)}, split,
        load_checkpoint(args.original).params, load_checkpoint(args.retrained).params,
    )
    ev = evaluate_model(ctx, unlearned.params)
    del ev["probe_features"]
    report = MetricsReport(method=unlearned.provenance.get("role", "unlearned"),
                           scenario=_scenario_name(ctx.scenario), seed=args.seed, **ev)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_json(args.config))
    if args.out:
        cfg = replace(cfg, output_dir=args.out)
    reports, _ = run_scenario(cfg)
    failed = [r for r in reports if r.status != "ok"]
    print(f"{len(reports)} rows written to {cfg.output_dir} ({len(failed)} failed)")
    return 0


@dataclass(frozen=True)
class SweepSpec(ConfigDict):
    """The optional "sweep" block of a sweep config."""
    method: str | None = None
    lr_grid: tuple[float, ...] = (0.005, 0.01, 0.05)
    epoch_grid: tuple[int, ...] = (5, 10, 15)
    sigma_grid: tuple[float, ...] = (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 30.0)

    def __post_init__(self):
        # Checked here, before the sweep trains anything; written so that
        # NaN fails too.
        for name in ("lr_grid", "epoch_grid", "sigma_grid"):
            grid = getattr(self, name)
            if not grid:
                raise ConfigError(f"sweep.{name} must not be empty")
            for v in grid:
                if not 0 <= v < math.inf:
                    raise ConfigError(f"sweep.{name}: values must be finite and >= 0, got {v}")


def _cmd_sweep(args) -> int:
    doc = _load_json(args.config)
    sweep = SweepSpec.from_dict(doc.pop("sweep", {}), "sweep")
    cfg = ExperimentConfig.from_dict(doc)
    method = args.method or sweep.method
    if not method:
        raise ConfigError("sweep needs a method (--method or config sweep.method)")
    if args.kind == "lr-epochs":
        _, text = sweep_hyperparameters(cfg, method, sweep.lr_grid, sweep.epoch_grid)
    else:
        _, text = sweep_dp_noise(cfg, method, sweep.sigma_grid)
    out = Path(args.out or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"sweep_{args.kind.replace('-', '_')}_{method}.csv"
    path.write_text(text)
    print(f"sweep written to {path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="unlbench",
                     description="Desk-scale machine-unlearning benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic universe")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("split", help="build a forget/retain split directory")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--kind", choices=("random", "top"), default="random")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ranking", help="JSON ranking file for --kind top")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("unlearn", help="run one unlearning method")
    p.add_argument("--method", required=True)
    p.add_argument("--original", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_unlearn)

    p = sub.add_parser("select-top", help="rank train classes by downstream similarity")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--downstream", required=True)
    p.add_argument("--n", type=_count, required=True)
    p.set_defaults(fn=_cmd_select_top)

    p = sub.add_parser("eval", help="evaluate an unlearned checkpoint")
    p.add_argument("--unlearned", required=True)
    p.add_argument("--retrained", required=True)
    p.add_argument("--original", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--downstreams", nargs="+", required=True)
    p.add_argument("--scenario-kind", choices=("random", "top"), default="random")
    p.add_argument("--related")
    p.add_argument("--seed", type=int, default=0, help="the experiment's master seed")
    p.add_argument("--probe-rows", type=int, default=256)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("run", help="run the full benchmark from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="hyperparameter or DP-noise sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", choices=("lr-epochs", "dp-noise"), required=True)
    p.add_argument("--method")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
