"""Two-hidden-layer ReLU classifier with hand-written gradients.

The encoder (W1, b1, W2, b2) produces the feature embedding every
representation metric consumes; the linear head (Whead, bhead) produces
logits.  Training is plain minibatch SGD with optional momentum, Nesterov
acceleration, and elementwise Gaussian gradient noise, fully deterministic
given the config seed.
"""

import hashlib
import json
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


def _forward_cache(params: MlpParams, x: np.ndarray):
    if x.ndim != 2 or x.shape[1] != params.ambient_dim:
        raise ShapeError(
            f"input must be N x {params.ambient_dim}, got {x.shape}"
        )
    a1 = x @ params.W1 + params.b1
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ params.W2 + params.b2
    feats = np.maximum(a2, 0.0)
    logits = feats @ params.Whead + params.bhead
    return {"x": x, "a1": a1, "h1": h1, "a2": a2, "feats": feats, "logits": logits}


def forward(params: MlpParams, x: np.ndarray):
    """Return (features, logits) for a batch of inputs."""
    cache = _forward_cache(params, np.asarray(x, dtype=np.float64))
    return cache["feats"], cache["logits"]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def backward(params: MlpParams, cache: dict, d_logits=None, d_feats=None,
             freeze_encoder: bool = False) -> dict:
    """Backpropagate loss gradients taken w.r.t. logits and/or features.

    Returns a dict of gradients matching the parameter blocks.  With
    freeze_encoder the four encoder gradients are exactly zero.
    """
    feats = cache["feats"]
    if d_logits is not None:
        d_whead = feats.T @ d_logits
        d_bhead = d_logits.sum(axis=0)
        d_f = d_logits @ params.Whead.T
        if d_feats is not None:
            d_f = d_f + d_feats
    else:
        d_whead = np.zeros_like(params.Whead)
        d_bhead = np.zeros_like(params.bhead)
        d_f = d_feats
    if freeze_encoder:
        return {
            "W1": np.zeros_like(params.W1), "b1": np.zeros_like(params.b1),
            "W2": np.zeros_like(params.W2), "b2": np.zeros_like(params.b2),
            "Whead": d_whead, "bhead": d_bhead,
        }
    d_a2 = d_f * (cache["a2"] > 0)
    d_w2 = cache["h1"].T @ d_a2
    d_b2 = d_a2.sum(axis=0)
    d_h1 = d_a2 @ params.W2.T
    d_a1 = d_h1 * (cache["a1"] > 0)
    d_w1 = cache["x"].T @ d_a1
    d_b1 = d_a1.sum(axis=0)
    return {"W1": d_w1, "b1": d_b1, "W2": d_w2, "b2": d_b2,
            "Whead": d_whead, "bhead": d_bhead}


def cross_entropy_grad_logits(logits: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    n = logits.shape[0]
    logp = log_softmax(logits)
    loss = -logp[np.arange(n), y].mean()
    d_logits = np.exp(logp)
    d_logits[np.arange(n), y] -= 1.0
    return loss, d_logits / n


def grad_cross_entropy(params: MlpParams, x: np.ndarray, y: np.ndarray,
                       freeze_encoder: bool = False):
    """Gradients of mean cross-entropy over the batch; returns (grads, loss)."""
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
    return backward(params, cache, d_logits=d_logits, freeze_encoder=freeze_encoder), loss


@dataclass
class SgdState:
    """Momentum buffers plus the shared shuffle/noise streams for one run."""
    velocity: dict
    shuffle_rng: np.random.Generator
    noise_rng: np.random.Generator | None
    step: int = 0

    @staticmethod
    def create(params: MlpParams, cfg: TrainConfig) -> "SgdState":
        return SgdState(
            velocity={b: np.zeros_like(getattr(params, b)) for b in BLOCKS},
            shuffle_rng=make_rng(cfg.seed, STREAM_SHUFFLE),
            noise_rng=make_rng(cfg.seed, STREAM_NOISE) if cfg.grad_noise_sigma > 0 else None,
        )


def apply_sgd_step(params: MlpParams, grads: dict, state: SgdState, cfg: TrainConfig,
                   sign: float = 1.0, mask: dict | None = None) -> None:
    """One in-place SGD update.  sign=-1 ascends; a mask zeroes updates."""
    for b in BLOCKS:
        g = sign * grads[b]
        if state.noise_rng is not None:
            g = g + cfg.grad_noise_sigma * state.noise_rng.standard_normal(g.shape)
        v = state.velocity[b]
        v *= cfg.momentum
        v += g
        step_dir = g + cfg.momentum * v if cfg.nesterov else v
        update = cfg.lr * step_dir
        if mask is not None:
            update = update * mask[b]
        arr = getattr(params, b)
        arr -= update
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


def sgd_loop(params: MlpParams, cfg: TrainConfig, steps, mask: dict | None = None) -> tuple:
    """The SGD driver every training and unlearning loop runs on.

    steps(work, state) is a generator over the live working copy that yields
    (grads, loss, rows, sign) once per update; it computes each gradient
    after the previous update, so every stream draws in a fixed order.
    Returns (params, sample_visits).  Raises DivergenceError with the step
    index at the first non-finite loss or parameter.
    """
    work = params.copy()
    if cfg.epochs == 0:
        return work, 0
    state = SgdState.create(work, cfg)
    visits = 0
    for grads, loss, rows, sign in steps(work, state):
        if not np.isfinite(loss):
            raise DivergenceError(state.step)
        apply_sgd_step(work, grads, state, cfg, sign=sign, mask=mask)
        visits += rows
    check_finite(work, state.step)
    return work, visits


def cross_entropy_steps(x: np.ndarray, labels_for_epoch, cfg: TrainConfig,
                        sign: float = 1.0):
    """Minibatch cross-entropy steps over shuffled epochs of x for sgd_loop;
    labels_for_epoch(epoch) supplies the targets."""
    def steps(work, state):
        for epoch in range(cfg.epochs):
            y = labels_for_epoch(epoch)
            for idx in epoch_batches(x.shape[0], cfg.batch_size, state.shuffle_rng):
                grads, loss = grad_cross_entropy(work, x[idx], y[idx], cfg.freeze_encoder)
                yield grads, loss, idx.size, sign
    return steps


def sgd_train(params: MlpParams, dataset: Dataset, cfg: TrainConfig) -> MlpParams:
    """Minibatch SGD on cross-entropy; returns updated parameters.

    Runs epochs * ceil(N / batch_size) steps.  Raises DivergenceError with
    the step index if the loss goes non-finite.
    """
    work, _ = sgd_loop(params, cfg, cross_entropy_steps(dataset.X, lambda _: dataset.y, cfg))
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
