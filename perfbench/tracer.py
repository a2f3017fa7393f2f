"""Spans and counts at the program's layer boundaries, recorded from outside.

A wrapper replaces a public function under the name its caller looks it up
by (harness.compute_cka, metrics.fit_linear_svm, ...), so nothing under
src/ changes.  Each call becomes one span (layer, start, end, parent) kept
in memory; the per-layer figures are self times (a span's duration less
its child spans) and counts summed per layer.
"""

import contextlib
import functools
import importlib
import inspect
import os
import time

# Counters see the call's bound arguments (defaults applied) and result.
# Counts read off the inputs are computed, not measured by the program:
# rows x epochs for the SVM, epochs x rows for SGD training, the stored
# bytes of a UBM1 or label file.


def _svm_updates(a, _result):
    return {"metrics.svm_updates": len(a["features"]) * a["epochs"]}


def _forward_rows(a, _result):
    return {"model.forward_rows": len(a["x"])}


def _knn_queries(a, _result):
    return {"metrics.knn_queries": len(a["test_x"])}


def _train_visits(a, _result):
    return {"model.train_visits": a["cfg"].epochs * a["dataset"].n}


def _sample_visits(_a, result):
    return {"unlearning.sample_visits": result.sample_visits}


def _one(name):
    return lambda _a, _result: {name: 1}


def _matrix_bytes(a, _result):
    return {"ubm.bytes_written": 12 + 8 * a["matrix"].size}


def _label_bytes(a, _result):
    return {"ubm.bytes_written": 8 + 4 * len(a["labels"])}


def _bytes_read(a, _result):
    return {"ubm.bytes_read": os.path.getsize(a["path"])}


# (module, attribute, layer, counter).  A function imported by name into
# several modules is wrapped in each, so every caller is seen once.
HOOKS = (
    ("unlbench.harness", "mia_efficacy", "metrics.mia", None),
    ("unlbench.cli", "mia_efficacy", "metrics.mia", None),
    ("unlbench.metrics", "fit_linear_svm", "metrics.svm_fit", _svm_updates),
    ("unlbench.harness", "compute_cka", "metrics.cka", _one("metrics.cka_calls")),
    ("unlbench.metrics", "compute_cka", "metrics.cka", _one("metrics.cka_calls")),
    ("unlbench.metrics", "gram_linear", "kernels.gram_hsic", None),
    ("unlbench.metrics", "hsic", "kernels.gram_hsic", None),
    ("unlbench.harness", "compute_knn_accuracy", "metrics.knn", None),
    ("unlbench.metrics", "compute_knn_accuracy", "metrics.knn", None),
    ("unlbench.metrics", "knn_predict", "metrics.knn", _knn_queries),
    ("unlbench.model", "forward", "model.forward", _forward_rows),
    ("unlbench.harness", "forward", "model.forward", _forward_rows),
    ("unlbench.metrics", "forward", "model.forward", _forward_rows),
    ("unlbench.unlearning", "forward", "model.forward", _forward_rows),
    ("unlbench.harness", "logit_gaps", "metrics.logit_gaps", None),
    ("unlbench.cli", "logit_gaps", "metrics.logit_gaps", None),
    ("unlbench.harness", "sgd_train", "model.sgd_train", _train_visits),
    ("unlbench.unlearning", "sgd_train", "model.sgd_train", _train_visits),
    ("unlbench.cli", "sgd_train", "model.sgd_train", _train_visits),
    ("unlbench.harness", "run_unlearning", "unlearning.run_unlearning", _sample_visits),
    ("unlbench.cli", "run_unlearning", "unlearning.run_unlearning", _sample_visits),
    ("unlbench.harness", "generate_universe", "data.generate_universe", None),
    ("unlbench.cli", "generate_universe", "data.generate_universe", None),
    ("unlbench.harness", "split_random_forget", "data.split", None),
    ("unlbench.harness", "split_top_forget", "data.split", None),
    ("unlbench.cli", "split_random_forget", "data.split", None),
    ("unlbench.cli", "split_top_forget", "data.split", None),
    ("unlbench.harness", "build_scenario", "harness.build_scenario", None),
    ("unlbench.harness", "evaluate_model", "harness.evaluate_model",
     _one("harness.evaluate_model_calls")),
    # run_scenario's self time is its own work: reports and feature export.
    ("unlbench.harness", "run_scenario", "harness.emit", None),
    ("unlbench.ubm", "write_matrix", "ubm.write", _matrix_bytes),
    ("unlbench.ubm", "write_labels", "ubm.write", _label_bytes),
    ("unlbench.ubm", "read_matrix", "ubm.read", _bytes_read),
    ("unlbench.ubm", "read_labels", "ubm.read", _bytes_read),
)

# Every per-layer figure, in BENCHMARK.json order; a layer a workload never
# enters reads 0.
LAYER_METRICS = (
    "metrics.mia_s", "metrics.svm_fit_s", "metrics.svm_updates",
    "metrics.cka_s", "metrics.cka_calls", "kernels.gram_hsic_s",
    "metrics.knn_s", "metrics.knn_queries", "model.forward_s",
    "model.forward_rows", "metrics.logit_gaps_s",
    "model.sgd_train_s", "model.train_visits",
    "unlearning.run_unlearning_s", "unlearning.sample_visits",
    "data.generate_universe_s", "data.split_s", "harness.build_scenario_s",
    "harness.evaluate_model_s", "harness.evaluate_model_calls",
    "harness.emit_s", "ubm.write_s", "ubm.bytes_written",
    "cli.import_s", "cli.gen_data_s", "cli.train_s", "cli.split_s",
    "cli.unlearn_s", "cli.eval_s", "ubm.read_s", "ubm.bytes_read",
)


class Tracer:
    """In-memory span recorder; spans are [layer, start, end, parent]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, values: dict) -> None:
        for k, v in values.items():
            self.counts[k] = self.counts.get(k, 0) + int(v)

    @contextlib.contextmanager
    def span(self, layer: str):
        i = self.open(layer)
        try:
            yield
        finally:
            self.close(i)

    def adopt(self, spans: list, counts: dict, parent: int) -> None:
        """Graft spans recorded by another process under span `parent`."""
        base = len(self.spans)
        for layer, start, end, p in spans:
            self.spans.append([layer, start, end, parent if p < 0 else base + p])
        self.count(counts)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def wrap(self, fn, layer, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.count(counter(bound.arguments, result))
            return result
        return traced

    def install(self) -> None:
        for module, attr, layer, counter in HOOKS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), layer, counter))


def self_times(spans: list) -> dict:
    """Layer -> summed self time: each span's duration less its children's."""
    child = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (layer, start, end, _) in enumerate(spans):
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def inclusive_times(spans: list) -> dict:
    out = {}
    for layer, start, end, _ in spans:
        out[layer] = out.get(layer, 0.0) + (end - start)
    return out


def layer_metrics(trace: dict) -> dict:
    """The LAYER_METRICS figures of one traced process tree."""
    selfs = self_times(trace["spans"])
    out = {}
    for name in LAYER_METRICS:
        if name.endswith("_s"):
            out[name] = selfs.get(name[:-2], 0.0)
        else:
            out[name] = trace["counts"].get(name, 0)
    return out
