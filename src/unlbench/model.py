"""Two-hidden-layer ReLU classifier with hand-written gradients.

The encoder (W1, b1, W2, b2) produces the feature embedding every
representation metric consumes; the linear head (Whead, bhead) produces
logits.  Training is plain minibatch SGD with optional momentum, Nesterov
acceleration, and elementwise Gaussian gradient noise, fully deterministic
given the config seed.

During an SGD run the six blocks are views of one flat float64 vector,
with flat velocity and scratch buffers beside it, and backward writes
each step's gradient straight into one vector laid out the same way, so
an update is a few whole-vector in-place ufunc calls.  Each element sees
the same IEEE operations in the same order as a block-by-block update, so
the bits do not depend on the layout.

sgd_lockstep steps a list of runs together, one update each per round in
list order, until each run's generator of steps ends: no run's length is
known before it steps.  sgd_loop is its one-run call.  A run with
grad_noise_sigma > 0 adds sigma times a stream of unit normals to each
step's gradient, and the runs of one call that share a stream (same seed,
same flat size) read one NoiseFeed: the first of them to reach a step
draws its row and the others reuse it, so the stream is drawn once for
all of them.  Every run scales the row itself, so its bits do not depend
on which runs step beside it.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import ubm
from .data import Dataset
from .errors import ConfigError, DegenerateInputError, DivergenceError, LabelError, ShapeError
from .rng import make_rng
from .serial import ConfigDict

BLOCKS = ("W1", "b1", "W2", "b2", "Whead", "bhead")

# Stream ids under a TrainConfig seed.  Unlearning methods reserve ids >= 3.
STREAM_SHUFFLE = 1
STREAM_NOISE = 2

DEFAULT_HIDDEN = 64
DEFAULT_FEAT = 16


@dataclass
class MlpParams:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    Whead: np.ndarray
    bhead: np.ndarray

    def copy(self) -> "MlpParams":
        return MlpParams(*(getattr(self, b).copy() for b in BLOCKS))

    @property
    def ambient_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.W2.shape[1]

    @property
    def num_classes(self) -> int:
        return self.Whead.shape[1]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for b in BLOCKS:
            h.update(np.ascontiguousarray(getattr(self, b), dtype="<f8").tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class TrainConfig(ConfigDict):
    lr: float = 0.1
    epochs: int = 30
    batch_size: int = 64
    momentum: float = 0.9
    nesterov: bool = False
    seed: int = 0
    grad_noise_sigma: float = 0.0
    freeze_encoder: bool = False

    def __post_init__(self):
        # lr 0 is legal and must leave parameters untouched (sweep contract).
        # Written so that NaN fails too.
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if not 0 <= self.grad_noise_sigma < math.inf:
            raise ConfigError(f"grad_noise_sigma must be finite and >= 0, "
                              f"got {self.grad_noise_sigma}")

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(ambient_dim: int, num_classes: int, seed: int,
                hidden: int = DEFAULT_HIDDEN, feat_dim: int = DEFAULT_FEAT) -> MlpParams:
    """Glorot-uniform weights, zero biases, drawn from the seeded stream."""
    rng = make_rng(seed, 0)
    return MlpParams(
        W1=_glorot(rng, ambient_dim, hidden),
        b1=np.zeros(hidden),
        W2=_glorot(rng, hidden, feat_dim),
        b2=np.zeros(feat_dim),
        Whead=_glorot(rng, feat_dim, num_classes),
        bhead=np.zeros(num_classes),
    )


def _check_input(params: MlpParams, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != params.ambient_dim:
        raise ShapeError(
            f"input must be N x {params.ambient_dim}, got {x.shape}"
        )


def _forward_cache(params: MlpParams, x: np.ndarray):
    """Forward pass keeping every activation backward needs."""
    _check_input(params, x)
    a1 = x @ params.W1
    a1 += params.b1
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ params.W2
    a2 += params.b2
    feats = np.maximum(a2, 0.0)
    logits = feats @ params.Whead
    logits += params.bhead
    return {"x": x, "a1": a1, "h1": h1, "a2": a2, "feats": feats, "logits": logits}


def forward(params: MlpParams, x: np.ndarray):
    """Return (features, logits) for a batch of inputs.

    Inference only: it keeps no backprop cache, and its outputs are
    bit-identical to _forward_cache's.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_input(params, x)
    hidden = np.maximum(x @ params.W1 + params.b1, 0.0)
    feats = np.maximum(hidden @ params.W2 + params.b2, 0.0)
    return feats, feats @ params.Whead + params.bhead


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    return shifted


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def backward(params: MlpParams, cache: dict, d_logits=None, d_feats=None) -> np.ndarray:
    """Backpropagate loss gradients taken w.r.t. logits and/or features.

    Returns one new float64 vector of all six blocks' gradients laid end
    to end in BLOCKS order, each block written in place; which of them an
    SGD run applies is SgdState's decision.
    """
    grad = np.empty(sum(getattr(params, b).size for b in BLOCKS))
    g = _views(grad, params)
    feats = cache["feats"]
    if d_logits is not None:
        np.matmul(feats.T, d_logits, out=g["Whead"])
        np.add.reduce(d_logits, axis=0, out=g["bhead"])
        d_a2 = d_logits @ params.Whead.T
        if d_feats is not None:
            d_a2 += d_feats
    else:
        g["Whead"][...] = 0.0
        g["bhead"][...] = 0.0
        d_a2 = d_feats
    # d_a2 is the caller's d_feats when there is no d_logits: mask a copy.
    d_a2 = np.multiply(d_a2, cache["a2"] > 0, out=None if d_logits is None else d_a2)
    np.matmul(cache["h1"].T, d_a2, out=g["W2"])
    np.add.reduce(d_a2, axis=0, out=g["b2"])
    d_a1 = d_a2 @ params.W2.T
    d_a1 *= cache["a1"] > 0
    np.matmul(cache["x"].T, d_a1, out=g["W1"])
    np.add.reduce(d_a1, axis=0, out=g["b1"])
    return grad


def cross_entropy_grad_logits(logits: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    n = logits.shape[0]
    rows = np.arange(n)
    logp = log_softmax(logits)
    loss = -(np.add.reduce(logp[rows, y]) / n)  # the bits of .mean(), without its overhead
    d_logits = np.exp(logp, out=logp)
    d_logits[rows, y] -= 1.0
    d_logits /= n
    return loss, d_logits


def cross_entropy_gradient(params: MlpParams, x: np.ndarray, y: np.ndarray):
    """Gradient of mean cross-entropy over the batch as one vector in
    BLOCKS order (see backward); returns (gradient, loss)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise DegenerateInputError("gradient needs a nonempty batch")
    if y.min() < 0 or y.max() >= params.num_classes:
        raise LabelError(
            f"labels must lie in [0, {params.num_classes}), got range "
            f"[{y.min()}, {y.max()}]"
        )
    cache = _forward_cache(params, x)
    loss, d_logits = cross_entropy_grad_logits(cache["logits"], y)
    return backward(params, cache, d_logits=d_logits), loss


def grad_cross_entropy(params: MlpParams, x: np.ndarray, y: np.ndarray):
    """cross_entropy_gradient with the gradient split into per-block views;
    returns (grads, loss)."""
    grad, loss = cross_entropy_gradient(params, x, y)
    return _views(grad, params), loss


def _views(flat: np.ndarray, like: MlpParams) -> dict:
    """Block name -> view of flat shaped like that block of `like`, for
    the six blocks laid end to end in BLOCKS order."""
    views, offset = {}, 0
    for b in BLOCKS:
        block = getattr(like, b)
        views[b] = flat[offset:offset + block.size].reshape(block.shape)
        offset += block.size
    return views


class NoiseFeed:
    """The unit normals of one gradient-noise stream, one vector of `size`
    per step, in stream order, for runs that step in lockstep."""

    def __init__(self, rng: np.random.Generator, size: int):
        self._rng = rng
        self._row = np.empty(size)
        self._step = -1  # the step whose row _row holds

    def row(self, step: int) -> np.ndarray:
        """Row `step` of the stream, valid until the next step's is drawn:
        runs in lockstep all ask for one step per round, and the first to
        ask draws it."""
        if step == self._step + 1:
            self._rng.standard_normal(out=self._row)
            self._step = step
        elif step != self._step or step < 0:
            raise ValueError(f"row {step} asked of a feed at row {self._step}")
        return self._row


@dataclass
class SgdState:
    """The flat buffers plus the shuffle and noise streams of one run.

    params holds the run's six blocks end to end in BLOCKS order, and the
    working copy's blocks are views of it.  The run trains params[start:]:
    all of it, or under freeze_encoder the head only, so a frozen block
    never changes.  velocity, scratch and mask (the update mask's trained
    tail or None) are vectors over that tail, so each step is a handful
    of whole-vector in-place ufunc calls on the same tail of the step's
    gradient vector.  noise is the NoiseFeed of the run's stream when
    grad_noise_sigma > 0, else None.
    """
    params: np.ndarray
    start: int
    velocity: np.ndarray
    scratch: np.ndarray
    mask: np.ndarray | None
    shuffle_rng: np.random.Generator
    noise: NoiseFeed | None
    step: int = 0

    @staticmethod
    def create(params: MlpParams, cfg: TrainConfig, mask: np.ndarray | None = None,
               noise: NoiseFeed | None = None) -> "SgdState":
        """Copy params' blocks into one vector and rebind them to views of it.

        mask, if given, is a 0/1 vector laid out like that one.  noise is
        the feed of the run's stream (make_rng(cfg.seed, STREAM_NOISE)
        over that vector's size), which sgd_lockstep builds and its runs
        of one stream share; a run with grad_noise_sigma 0 reads none,
        though its stream's key may be that of noisy runs beside it.
        """
        flat = np.concatenate([getattr(params, b).ravel() for b in BLOCKS])
        for b, view in _views(flat, params).items():
            setattr(params, b, view)
        start = flat.size - params.Whead.size - params.bhead.size if cfg.freeze_encoder else 0
        return SgdState(
            params=flat,
            start=start,
            velocity=np.zeros(flat.size - start),
            scratch=np.empty(flat.size - start),
            mask=None if mask is None else mask[start:],
            shuffle_rng=make_rng(cfg.seed, STREAM_SHUFFLE),
            noise=noise if cfg.grad_noise_sigma > 0 else None,
        )


def apply_sgd_step(grad: np.ndarray, state: SgdState, cfg: TrainConfig,
                   sign: float = 1.0) -> None:
    """One in-place SGD update of the params state was created from.

    grad is the step's gradient vector, laid out like state.params; the
    update works in its trained tail, so the caller must not read it
    again.  sign=-1 ascends; state.mask zeroes updates.  Per trained
    element this is g = sign*grad + sigma*z, v = momentum*v + g, and
    params -= lr * (g + momentum*v if nesterov else v) * mask, with z the
    stream's row for this step, drawn over all blocks in BLOCKS order.
    """
    g, v, t = grad[state.start:], state.velocity, state.scratch
    if sign != 1.0:
        np.multiply(g, sign, out=g)
    if state.noise is not None:
        np.multiply(state.noise.row(state.step)[state.start:], cfg.grad_noise_sigma, out=t)
        np.add(g, t, out=g)
    np.multiply(v, cfg.momentum, out=v)
    np.add(v, g, out=v)
    if cfg.nesterov:
        np.multiply(v, cfg.momentum, out=t)
        np.add(t, g, out=t)
        np.multiply(t, cfg.lr, out=t)
    else:
        np.multiply(v, cfg.lr, out=t)
    if state.mask is not None:
        np.multiply(t, state.mask, out=t)
    p = state.params[state.start:]
    np.subtract(p, t, out=p)
    state.step += 1


def check_finite(params: MlpParams, step: int) -> None:
    for b in BLOCKS:
        if not np.isfinite(getattr(params, b)).all():
            raise DivergenceError(step, f"non-finite values in {b} after step {step}")


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Yield shuffled index batches covering all n rows once."""
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


class SgdRun(NamedTuple):
    """One SGD run for sgd_lockstep.

    steps(work, state) is a generator over the live working copy that
    yields (grad, loss, rows, sign) once per update, grad being a gradient
    vector in BLOCKS order (see backward) that the update consumes; it
    computes each gradient after the previous update, so every stream
    draws in a fixed order.  mask is a 0/1 vector over the flat layout
    (see SgdState.create).
    """
    params: MlpParams
    cfg: TrainConfig
    steps: Callable
    mask: np.ndarray | None = None


def _stream(run: SgdRun) -> tuple:
    """The noise stream a noisy run reads: its seed and flat size.  It is
    drawn over the whole vector, so the head's noise does not depend on
    freeze_encoder."""
    return run.cfg.seed, sum(getattr(run.params, b).size for b in BLOCKS)


def sgd_lockstep(runs: list) -> list:
    """The SGD driver every training and unlearning run goes through.

    Steps the runs together, one update each per round, in list order.
    Each run's working copy's blocks are views of one flat vector
    (SgdState), so each update runs on whole vectors.  The noisy runs of
    one stream read one NoiseFeed.  A run that raises, or whose loss or
    parameters go non-finite (DivergenceError with the step index), stops
    alone.  Returns, in run order, each run's (params, sample_visits), the
    params sharing no memory with its input, or the exception that
    stopped it.
    """
    feeds = {key: NoiseFeed(make_rng(key[0], STREAM_NOISE), key[1])
             for key in {_stream(run) for run in runs if run.cfg.grad_noise_sigma > 0}}
    out, live = [None] * len(runs), []  # live: [index, work, state, steps, visits]
    for i, run in enumerate(runs):
        work = run.params.copy()
        if run.cfg.epochs == 0:
            out[i] = (work, 0)
            continue
        state = SgdState.create(work, run.cfg, run.mask, feeds.get(_stream(run)))
        live.append([i, work, state, run.steps(work, state), 0])
    while live:
        for entry in live:
            i, work, state, steps, visits = entry
            try:
                step = next(steps, None)
                if step is None:
                    check_finite(work, state.step)
                    out[i] = (work, visits)
                    continue
                grad, loss, rows, sign = step
                if not np.isfinite(loss):
                    raise DivergenceError(state.step)
                apply_sgd_step(grad, state, runs[i].cfg, sign=sign)
                entry[4] = visits + rows
            except Exception as exc:  # this run stops; the others go on
                steps.close()
                out[i] = exc
        live = [entry for entry in live if out[entry[0]] is None]
    return out


def sgd_loop(params: MlpParams, cfg: TrainConfig, steps,
             mask: np.ndarray | None = None) -> tuple:
    """sgd_lockstep's one-run call: returns (params, sample_visits), or
    raises what stopped the run."""
    result, = sgd_lockstep([SgdRun(params, cfg, steps, mask)])
    if isinstance(result, Exception):
        raise result
    return result


def epochs_run(params: MlpParams, cfg: TrainConfig, n: int, step,
               mask: np.ndarray | None = None) -> SgdRun:
    """The SgdRun of cfg.epochs shuffled passes of epoch_batches over n rows.

    step(work, epoch, idx) returns one update's (grad, loss, rows, sign)
    for the batch of row indices idx.  Raises DegenerateInputError when n
    is 0.
    """
    if n == 0:
        raise DegenerateInputError("training needs a nonempty dataset")

    def steps(work, state):
        for epoch in range(cfg.epochs):
            for idx in epoch_batches(n, cfg.batch_size, state.shuffle_rng):
                yield step(work, epoch, idx)
    return SgdRun(params, cfg, steps, mask)


def cross_entropy_run(params: MlpParams, x: np.ndarray, labels_for_epoch, cfg: TrainConfig,
                      sign: float = 1.0, mask: np.ndarray | None = None) -> SgdRun:
    """The SgdRun of minibatch cross-entropy SGD over shuffled epochs of x
    (epochs_run); labels_for_epoch(epoch) supplies the targets."""
    def step(work, epoch, idx):
        grad, loss = cross_entropy_gradient(work, x[idx], labels_for_epoch(epoch)[idx])
        return grad, loss, idx.size, sign
    return epochs_run(params, cfg, x.shape[0], step, mask)


def sgd_train(params: MlpParams, dataset: Dataset, cfg: TrainConfig) -> MlpParams:
    """Minibatch SGD on cross-entropy; returns updated parameters.

    Runs epochs * ceil(N / batch_size) steps.  Raises DegenerateInputError
    on an empty dataset, and DivergenceError with the step index if the
    loss goes non-finite.
    """
    run = cross_entropy_run(params, dataset.X, lambda _: dataset.y, cfg)
    return sgd_loop(run.params, cfg, run.steps)[0]


def accuracy(logits: np.ndarray, dataset: Dataset) -> float:
    """Argmax accuracy of a model's logits on dataset; argmax resolves ties
    toward the lowest class index."""
    if dataset.n == 0:
        raise DegenerateInputError("accuracy of an empty dataset is undefined")
    return float((np.argmax(logits, axis=1) == dataset.y).mean())


@dataclass
class ModelCheckpoint:
    params: MlpParams
    provenance: dict = field(default_factory=dict)


def save_checkpoint(ckpt: ModelCheckpoint, directory) -> None:
    """Persist as one UBM1 file per block plus manifest.json; bit-exact."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    p = ckpt.params
    for b in BLOCKS:
        arr = getattr(p, b)
        ubm.write_matrix(directory / f"{b}.ubm1", arr if arr.ndim == 2 else arr[None, :])
    manifest = {
        "version": 1,
        "kind": "checkpoint",
        "dims": {
            "ambient_dim": p.ambient_dim,
            "hidden": p.W1.shape[1],
            "feat_dim": p.feat_dim,
            "num_classes": p.num_classes,
        },
        "content_hash": p.content_hash(),
        "provenance": ckpt.provenance,
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def load_checkpoint(directory) -> ModelCheckpoint:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    arrays = {}
    for b in BLOCKS:
        arr = ubm.read_matrix(directory / f"{b}.ubm1")
        arrays[b] = arr[0] if b.startswith("b") else arr
    params = MlpParams(**arrays)
    if params.content_hash() != manifest["content_hash"]:
        raise ShapeError(f"{directory}: checkpoint content hash mismatch")
    return ModelCheckpoint(params, manifest.get("provenance", {}))
