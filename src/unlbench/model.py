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

A run with grad_noise_sigma > 0 that lasts more than NOISE_CHUNK_STEPS
steps uses a second thread: a NoiseFeed draws the run's noise stream
ahead, a chunk of steps at a time, while the training thread computes
gradients.  The training thread takes the steps' vectors in stream order,
so the bits do not depend on the thread either.  A noise-free run, a
shorter one, or one whose length the caller does not give starts no
thread.
"""

import hashlib
import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

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

# Steps of gradient noise a NoiseFeed's helper draws per chunk.  The two
# threads synchronise once per chunk, so a chunk must be long: one vector
# per step made a noisy run slower than drawing on the training thread.
# A run of at most one chunk draws on the training thread, as the helper
# could only make it wait for its first chunk.
NOISE_CHUNK_STEPS = 64

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
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.grad_noise_sigma < 0:
            raise ConfigError("grad_noise_sigma must be >= 0")

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
    """One SGD run's gradient noise: sigma times the run's normals, one
    vector of `size` per step, in stream order.

    A run that gives its length `steps` and lasts more than one chunk has
    its noise drawn ahead by one helper thread, started by the first
    next(): chunks of up to NOISE_CHUNK_STEPS rows in two buffers, never
    past `steps`.  Any other run, and any step past `steps`, draws on the
    calling thread.  Each chunk is filled only after the one before it,
    so the rows are the successive standard_normal(size) draws either way
    and the bits do not depend on the thread.  A failed fill re-raises in
    next(); close() drops the fills not begun and joins the helper.
    """

    def __init__(self, rng: np.random.Generator, size: int, sigma: float,
                 steps: int | None = None):
        self._rng, self._sigma = rng, sigma
        self._ahead = steps if steps is not None and steps > NOISE_CHUNK_STEPS else 0
        self._pool = None
        self._fills = deque()  # futures of the drawn-ahead chunks, in order
        self._one = np.empty((1, size))
        self._chunk, self._row = self._one, 1

    def _draw(self, chunk: np.ndarray) -> np.ndarray:
        self._rng.standard_normal(out=chunk)
        np.multiply(chunk, self._sigma, out=chunk)
        return chunk

    def _submit(self, buf: np.ndarray) -> None:
        rows = min(self._ahead, NOISE_CHUNK_STEPS)
        if rows:
            self._ahead -= rows
            self._fills.append(self._pool.submit(self._draw, buf[:rows]))

    def next(self) -> np.ndarray:
        """The next step's noise vector; valid until the following call."""
        if self._row == len(self._chunk):
            if self._pool is None and self._ahead:
                self._pool = ThreadPoolExecutor(1, thread_name_prefix="unlbench-noise")
                for _ in range(2):
                    self._submit(np.empty((NOISE_CHUNK_STEPS, self._one.shape[1])))
            elif self._chunk is not self._one:
                self._submit(self._chunk)  # every row read: refill it
            # Drawn here only once every fill is taken, so the helper is idle.
            self._chunk =self._fills.popleft().result() if self._fills else self._draw(self._one)
            self._row = 0
        self._row += 1
        return self._chunk[self._row - 1]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)


@dataclass
class SgdState:
    """The flat buffers plus the shared shuffle/noise streams of one run.

    params holds the run's six blocks end to end in BLOCKS order, and the
    working copy's blocks are views of it.  The run trains params[start:]:
    all of it, or under freeze_encoder the head only, so a frozen block
    never changes.  velocity, scratch and mask (the update mask's trained
    tail or None) are vectors over that tail, so each step is a handful
    of whole-vector in-place ufunc calls on the same tail of the step's
    gradient vector.  noise is the run's NoiseFeed when grad_noise_sigma
    > 0, else None.  Used as a context manager, the state stops the
    feed's helper thread, if one started, on every exit.
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
               steps: int | None = None) -> "SgdState":
        """Copy params' blocks into one vector and rebind them to views of it.

        mask, if given, is a 0/1 vector laid out like that one.  steps is
        the run's length if known.  Only then can a noisy run's feed draw
        ahead on a helper thread, so a caller that gives it must run the
        steps in a with block over the state.
        """
        flat = np.concatenate([getattr(params, b).ravel() for b in BLOCKS])
        for b, view in _views(flat, params).items():
            setattr(params, b, view)
        start = flat.size - params.Whead.size - params.bhead.size if cfg.freeze_encoder else 0
        noise = None
        if cfg.grad_noise_sigma > 0:
            # Drawn over the whole vector, so the head's noise does not
            # depend on freeze_encoder.
            noise = NoiseFeed(make_rng(cfg.seed, STREAM_NOISE), flat.size,
                              cfg.grad_noise_sigma, steps)
        return SgdState(
            params=flat,
            start=start,
            velocity=np.zeros(flat.size - start),
            scratch=np.empty(flat.size - start),
            mask=None if mask is None else mask[start:],
            shuffle_rng=make_rng(cfg.seed, STREAM_SHUFFLE),
            noise=noise,
        )

    def __enter__(self) -> "SgdState":
        return self

    def __exit__(self, *exc) -> None:
        if self.noise is not None:
            self.noise.close()


def apply_sgd_step(grad: np.ndarray, state: SgdState, cfg: TrainConfig,
                   sign: float = 1.0) -> None:
    """One in-place SGD update of the params state was created from.

    grad is the step's gradient vector, laid out like state.params; the
    update works in its trained tail, so the caller must not read it
    again.  sign=-1 ascends; state.mask zeroes updates.  Per trained
    element this is g = sign*grad + sigma*noise, v = momentum*v + g, and
    params -= lr * (g + momentum*v if nesterov else v) * mask, with the
    noise drawn over all blocks in BLOCKS order.
    """
    g, v, t = grad[state.start:], state.velocity, state.scratch
    if sign != 1.0:
        np.multiply(g, sign, out=g)
    if state.noise is not None:
        np.add(g, state.noise.next()[state.start:], out=g)
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


def sgd_loop(params: MlpParams, cfg: TrainConfig, steps, mask: np.ndarray | None = None,
             n_steps: int | None = None) -> tuple:
    """The SGD driver every training and unlearning loop runs on.

    steps(work, state) is a generator over the live working copy that yields
    (grad, loss, rows, sign) once per update, grad being a gradient vector
    in BLOCKS order (see backward) that the update consumes; it computes
    each gradient after the previous update, so every stream draws in a
    fixed order.  The working copy's blocks are views of one flat vector
    (SgdState), so each update runs on whole vectors; mask is a 0/1 vector
    over that flat layout (see SgdState.create).
    n_steps, the number of updates steps yields, lets a long noisy run
    draw its noise ahead on a helper thread (see NoiseFeed), which is
    stopped and joined on every exit; the bits do not depend on it.
    Returns (params, sample_visits); the params share no memory with the
    input.  Raises DivergenceError with the step index at the first
    non-finite loss or parameter.
    """
    work = params.copy()
    if cfg.epochs == 0:
        return work, 0
    visits = 0
    with SgdState.create(work, cfg, mask, n_steps) as state:
        for grad, loss, rows, sign in steps(work, state):
            if not np.isfinite(loss):
                raise DivergenceError(state.step)
            apply_sgd_step(grad, state, cfg, sign=sign)
            visits += rows
    check_finite(work, state.step)
    return work, visits


def sgd_epochs(params: MlpParams, cfg: TrainConfig, n: int, step,
               mask: np.ndarray | None = None) -> tuple:
    """sgd_loop over cfg.epochs shuffled passes of epoch_batches over n rows.

    step(work, epoch, idx) returns one update's (grad, loss, rows, sign)
    for the batch of row indices idx.  The run's length, epochs *
    ceil(n / batch_size) steps, is worked out here.  Raises
    DegenerateInputError when n is 0.
    """
    if n == 0:
        raise DegenerateInputError("training needs a nonempty dataset")

    def steps(work, state):
        for epoch in range(cfg.epochs):
            for idx in epoch_batches(n, cfg.batch_size, state.shuffle_rng):
                yield step(work, epoch, idx)
    return sgd_loop(params, cfg, steps, mask, n_steps=cfg.epochs * -(-n // cfg.batch_size))


def sgd_cross_entropy(params: MlpParams, x: np.ndarray, labels_for_epoch, cfg: TrainConfig,
                      sign: float = 1.0, mask: np.ndarray | None = None) -> tuple:
    """Minibatch cross-entropy SGD over shuffled epochs of x (sgd_epochs);
    labels_for_epoch(epoch) supplies the targets.  Returns (params,
    sample_visits)."""
    def step(work, epoch, idx):
        grad, loss = cross_entropy_gradient(work, x[idx], labels_for_epoch(epoch)[idx])
        return grad, loss, idx.size, sign
    return sgd_epochs(params, cfg, x.shape[0], step, mask)


def sgd_train(params: MlpParams, dataset: Dataset, cfg: TrainConfig) -> MlpParams:
    """Minibatch SGD on cross-entropy; returns updated parameters.

    Runs epochs * ceil(N / batch_size) steps.  Raises DegenerateInputError
    on an empty dataset, and DivergenceError with the step index if the
    loss goes non-finite.
    """
    work, _ = sgd_cross_entropy(params, dataset.X, lambda _: dataset.y, cfg)
    return work


def accuracy(params: MlpParams, dataset: Dataset) -> float:
    """Argmax accuracy; argmax resolves ties toward the lowest class index."""
    if dataset.n == 0:
        raise DegenerateInputError("accuracy of an empty dataset is undefined")
    _, logits = forward(params, dataset.X)
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
