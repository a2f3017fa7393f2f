"""The benchmark's layer wrappers (perfbench/tracer.py) find every function
they wrap, and the counters find the argument names they read."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from unlbench import metrics, model, ubm

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
