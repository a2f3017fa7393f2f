"""The benchmark's layer wrappers (perfbench/tracer.py) find every function
they wrap, and the counters find the argument names they read."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_harness import mini_config
from unlbench import harness, metrics, model, ubm

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_every_hook():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = ("import sys; sys.path.insert(0, 'perfbench'); import unlbench.cli; "
            "from tracer import Tracer; Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("fn, names", [
    (metrics.fit_linear_svm, ("features", "epochs")),
    (metrics.knn_predict, ("test_x",)),
    (model.forward, ("x",)),
    (model.sgd_train, ("dataset", "cfg")),
    (ubm.write_matrix, ("matrix",)),
    (ubm.write_labels, ("labels",)),
    (ubm.read_matrix, ("path",)),
    (ubm.read_labels, ("path",)),
])
def test_counted_arguments_keep_their_names(fn, names):
    params = inspect.signature(fn).parameters
    for name in names:
        assert name in params, f"{fn.__name__} lost its {name!r} argument"


def test_evaluate_model_enters_every_traced_metric_layer(monkeypatch):
    """A hook wraps a name its caller looks up; a change that stops calling
    through that name leaves the layer silently at 0.  Scoring one model
    must enter each metric layer evaluate_model reaches."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer_mod = importlib.import_module("tracer")
    importlib.import_module("unlbench.cli")
    for module, attr, _, _ in tracer_mod.HOOKS:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))  # restored after the test
    ctx = harness.build_scenario(mini_config())
    tracer = tracer_mod.Tracer()
    tracer.install()
    harness.evaluate_model(ctx, ctx.theta_o)
    layers = {span[0] for span in tracer.spans}
    for layer in ("metrics.mia", "metrics.logit_gaps", "metrics.knn", "model.forward"):
        assert layer in layers, layer
    assert tracer.counts["metrics.knn_queries"] > 0
    assert tracer.counts["model.forward_rows"] > 0
