"""One iteration of one workload, run by perfbench/run.py in a fresh process.

    python3 perfbench/workload.py --workload default-run --config C.json \
        --seed 0 --work DIR --result R.json [--setup-only] [--trace]

Times the set-up and the measured phase from inside, writes what the
runner needs (phase times, operations attempted and failed, the trace) to
--result, and leaves the program's outputs under --work for the checks.
"""

import argparse
import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import configs  # noqa: E402
from tracer import Tracer  # noqa: E402


def _load_program(tracer):
    """Import the program the way `unlbench` does: through its CLI module."""
    if tracer is None:
        import unlbench.cli  # noqa: F401
    else:
        with tracer.span("cli.import"):
            import unlbench.cli  # noqa: F401
        tracer.install()
    from unlbench import harness
    return harness


def _scenario(harness, config: Path, out: Path):
    """Config load plus harness.build_scenario: the set-up `run` does."""
    t0 = time.perf_counter()
    cfg = harness.ExperimentConfig.from_dict(json.loads(config.read_text()))
    cfg = replace(cfg, output_dir=str(out))
    ctx = harness.build_scenario(cfg)
    return cfg, ctx, time.perf_counter() - t0


def default_run(args, tracer) -> dict:
    harness = _load_program(tracer)
    cfg, ctx, setup_s = _scenario(harness, args.config, args.work / "out")
    if args.setup_only:
        return {"setup_s": setup_s}
    t0 = time.perf_counter()
    reports, _ = harness.run_scenario(cfg, ctx=ctx)
    phase_s = time.perf_counter() - t0
    failed = sum(r.status != "ok" for r in reports)
    return {"setup_s": setup_s, "phase_s": phase_s, "models": len(reports) - failed,
            "attempted": len(reports), "failed": failed}


def large_top_dp(args, tracer) -> dict:
    harness = _load_program(tracer)
    out = args.work / "out"
    cfg, ctx, setup_s = _scenario(harness, args.config, out)
    if args.setup_only:
        return {"setup_s": setup_s}
    t0 = time.perf_counter()
    rows, text = harness.sweep_dp_noise(cfg, configs.SWEEP_METHOD, configs.SIGMA_GRID,
                                        ctx=ctx)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"sweep_dp_noise_{configs.SWEEP_METHOD}.csv").write_text(text)
    phase_s = time.perf_counter() - t0
    (out / "sweep_rows.json").write_text(json.dumps(rows))
    failed = sum(any(math.isnan(v) for v in row) for row in rows)
    return {"setup_s": setup_s, "phase_s": phase_s, "models": len(rows) - failed,
            "attempted": len(rows), "failed": failed}


class _Cli:
    """Runs `unlbench <subcommand>` as its own process, as a user would."""

    def __init__(self, work: Path, tracer):
        self.work, self.tracer, self.calls = work, tracer, []

    def __call__(self, *argv) -> bool:
        n = len(self.calls)
        log = self.work / f"cli{n:02d}-{argv[0]}.log"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "unlbench.cli", *argv]
        else:
            spans = self.work / f"cli{n:02d}.trace.json"
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans), *argv]
            span = self.tracer.open("cli." + argv[0].replace("-", "_"))
        with open(log, "wb") as fh:
            code = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT).returncode
        if self.tracer is not None:
            self.tracer.close(span)
            if spans.exists():
                trace = json.loads(spans.read_text())
                self.tracer.adopt(trace["spans"], trace["counts"], span)
        self.calls.append({"argv": list(argv), "exit": code})
        return code == 0


def cli_steps(args, tracer) -> dict:
    w = args.work
    cfg = json.loads(args.config.read_text())
    seeds = configs.cli_seeds(args.seed)
    cli = _Cli(w, tracer)
    t0 = time.perf_counter()
    cli("gen-data", "--config", str(args.config), "--out", str(w / "data"))
    cli("train", "--data", str(w / "data" / "train"), "--config", str(args.config),
        "--seed", str(seeds["train"]), "--out", str(w / "original"))
    cli("split", "--train", str(w / "data" / "train"), "--test", str(w / "data" / "test"),
        "--kind", "random", "--n", str(cfg["scenario"]["n_forget"]),
        "--seed", str(seeds["split"]), "--out", str(w / "split"))
    cli("train", "--data", str(w / "split" / "Dr"), "--config", str(args.config),
        "--seed", str(seeds["retrain"]), "--out", str(w / "retrained"))
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        return {"setup_s": setup_s, "calls": cli.calls}
    downstreams = [str(w / "data" / d["name"]) for d in cfg["data"]["downstream_specs"]]
    t0 = time.perf_counter()
    models = 0
    for method in configs.CLI_METHODS:
        mdir = w / method
        unlearned = cli("unlearn", "--method", method, "--original", str(w / "original"),
                        "--split", str(w / "split"), "--out", str(mdir))
        scored = cli("eval", "--unlearned", str(mdir), "--retrained", str(w / "retrained"),
                     "--original", str(w / "original"), "--split", str(w / "split"),
                     "--downstreams", *downstreams, "--seed", str(seeds["eval"]),
                     "--out", str(mdir / "eval.json"))
        models += unlearned and scored
    phase_s = time.perf_counter() - t0
    failed = sum(c["exit"] != 0 for c in cli.calls)
    return {"setup_s": setup_s, "phase_s": phase_s, "models": models,
            "attempted": len(cli.calls), "failed": failed, "calls": cli.calls}


WORKLOADS = {"default-run": default_run, "large-top-dp": large_top_dp,
             "cli-steps": cli_steps}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    tracer = Tracer() if args.trace else None
    result = WORKLOADS[args.workload](args, tracer)
    if tracer is not None:
        result["trace"] = tracer.to_dict()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
