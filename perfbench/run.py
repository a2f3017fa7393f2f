"""Benchmark runner: one workload, measured for about --seconds seconds.

    python3 perfbench/run.py --workload default-run --seed 0 --seconds 44 --trace 0

Run from the repository root.  Each iteration of the workload runs in a
fresh child process (perfbench/workload.py), one at a time, with BLAS
pinned to one thread.  This process stays single-threaded: it times each
child from launch to exit, reads the child's resource usage, checks the
program's outputs (perfbench/checks.py) and prints, as its last line, one
JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics of a traced run (--trace 1).  A failed check prints that object
with "correct": false and exits 1; a missing program or a crashed child
exits 2 without printing it.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import configs  # noqa: E402
import tracer as tracing  # noqa: E402

# One BLAS thread: OpenBLAS otherwise starts one thread per CPU, so figures
# would depend on the machine's CPU count and thread scheduling, and the
# program's small matrices gain nothing from a second thread (README).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# Full iterations every run makes, so that a median can set aside one
# iteration the machine slowed; two also serve the determinism check.
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 150


class RunError(Exception):
    pass


def _on_alarm(_sig, _frame):
    raise TimeoutError(f"a workload child ran longer than {CHILD_TIMEOUT_S} s")


def _on_term(_sig, _frame):
    raise SystemExit(143)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "UNLBENCH_THREADS"}
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(workload: str, seed: int, config: Path, work: Path, *,
              setup_only=False, trace=False) -> dict:
    """One workload iteration; returns the child's result plus its wall time,
    CPU time and peak RSS (its whole process tree, from wait4)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--config", str(config), "--seed", str(seed), "--work", str(work),
           "--result", str(result_path)]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
    log = work.parent / f"{work.name}.log"
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT, start_new_session=True)
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            signal.alarm(0)
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        tail = log.read_text(errors="replace")[-2000:]
        raise RunError(f"{workload} child exited {proc.returncode}:\n{tail}")
    out = json.loads(result_path.read_text())
    out.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
               peak_rss_mb=usage.ru_maxrss / 1024.0)
    return out


class Checker:
    """Output checks of every iteration; numpy is imported only here, after
    BLAS is pinned, so this process stays single-threaded."""

    def __init__(self, workload: str, cfg: dict, shipped: bool):
        os.environ.update(PINNED_ENV)
        import checks
        self.checks, self.workload, self.cfg, self.shipped = checks, workload, cfg, shipped
        self.report_digest = None
        self.failures = []

    def __call__(self, work: Path, result: dict) -> None:
        try:
            if self.workload == "default-run":
                digest = self.checks.check_default_run(work / "out", self.cfg, self.shipped)
                if self.report_digest not in (None, digest):
                    raise self.checks.CheckError("report.json differs between iterations")
                self.report_digest = digest
            elif self.workload == "large-top-dp":
                rows = json.loads((work / "out" / "sweep_rows.json").read_text())
                related = self.cfg["scenario"]["related_dataset"]
                spec = next(d for d in self.cfg["data"]["downstream_specs"]
                            if d["name"] == related)
                self.checks.check_sweep(rows, spec["num_classes"])
            else:
                self.checks.check_cli_steps(work, self.cfg, result["calls"])
        except (self.checks.CheckError, OSError, KeyError, ValueError) as exc:
            # A missing or malformed output fails the check like a wrong one.
            self.failures.append(f"{type(exc).__name__}: {exc}")
            print(f"CHECK FAILED: {exc}", file=sys.stderr)


def warm_up() -> None:
    """Import the program once, untimed, so the first timed iteration does
    not pay for reading numpy and the program from a cold file cache."""
    subprocess.run([sys.executable, "-c", "import unlbench.cli"], env=_child_env(),
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                   timeout=CHILD_TIMEOUT_S)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Iterate until the next iteration would overrun --seconds (at least
    MIN_ITERATIONS).  A traced run alternates untraced and traced
    iterations; an untraced run fills the time left with set-up-only
    iterations, so set-up time gets more samples than the full runs."""
    WORK.mkdir(exist_ok=True)
    cfg = configs.BUILDERS[workload](seed)
    config = WORK / f"{workload}.config.json"
    config.write_text(json.dumps(cfg, indent=2) + "\n")
    check = Checker(workload, cfg, shipped=seed == 0)
    warm_up()
    start = time.perf_counter()
    full, traced, setups = [], [], []

    def left():
        return seconds - (time.perf_counter() - start)

    while len(full) + len(traced) < MIN_ITERATIONS \
            or left() >= statistics.median(r["wall_s"] for r in full + traced):
        as_traced = trace and len(traced) < len(full)
        r = run_child(workload, seed, config, WORK / workload, trace=as_traced)
        check(WORK / workload, r)
        (traced if as_traced else full).append(r)
    while not trace and left() >= statistics.median(
            [r["wall_s"] for r in setups] or [r["setup_s"] for r in full]):
        setups.append(run_child(workload, seed, config, WORK / f"{workload}.setup",
                                setup_only=True))
    return {"full": full, "traced": traced, "setups": setups, "failures": check.failures}


def end_to_end(m: dict) -> dict:
    full = m["full"]
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in full),
        "setup_s": med(r["setup_s"] for r in full + m["setups"]),
        "models_per_s": med(r["models"] / r["phase_s"] for r in full),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in full),
    }


def per_layer(m: dict) -> dict:
    med = statistics.median
    layers = [tracing.layer_metrics(r["trace"]) for r in m["traced"]]
    out = {name: med(x[name] for x in layers) for name in tracing.LAYER_METRICS}
    out["process.cpu_s"] = med(r["cpu_s"] for r in m["traced"])
    out["trace.overhead_s"] = med(r["wall_s"] for r in m["traced"]) \
        - med(r["wall_s"] for r in m["full"])
    return out


def profile(m: dict) -> None:
    """Inclusive and self time per layer of the last traced iteration."""
    r = m["traced"][-1]
    inc = tracing.inclusive_times(r["trace"]["spans"])
    own = tracing.self_times(r["trace"]["spans"])
    print(f"traced wall {r['wall_s']:.3f} s; layer: inclusive / self s", file=sys.stderr)
    for layer in sorted(inc, key=inc.get, reverse=True):
        print(f"  {layer:28s} {inc[layer]:9.4f} {own[layer]:9.4f}", file=sys.stderr)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(configs.BUILDERS), required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="shifts the shipped seeds (master 5, prototype 7); default 0")
    p.add_argument("--seconds", type=float, default=44.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    missing = [str(f) for f in (ROOT / "src" / "unlbench" / "cli.py", configs.DEFAULT_CONFIG)
               if not f.exists()]
    if missing:
        print(f"program not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, TimeoutError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runs = m["full"] + m["traced"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values, declared = per_layer(m), declared["per_layer"]
        profile(m)
    else:
        values, declared = end_to_end(m), declared["end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    if list(units) != list(values):
        print("error: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"{args.workload} seed {args.seed}: {len(m['full'])} untraced, "
          f"{len(m['traced'])} traced, {len(m['setups'])} set-up-only iterations",
          file=sys.stderr)
    for kind in ("full", "traced", "setups"):
        if m[kind]:
            walls = " ".join(f"{r['wall_s']:.3f}" for r in m[kind])
            print(f"  {kind} iteration walls (s): {walls}", file=sys.stderr)
    for k, v in values.items():
        print(f"  {k:30s} {v:14.6f} {units[k]}", file=sys.stderr)
    print(json.dumps({
        "correct": not m["failures"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 1 if m["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
