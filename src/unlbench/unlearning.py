"""The unlearning procedures: map an original model plus a forget split to
an unlearned model.

Every method is a deterministic function of (parameters, split, config).
Four methods touch only the forget set (GA, RL, PL, SalUn); the rest also
consume retain data.  Each run reports the number of training-sample visits
so runtime cost can be compared without wall-clock noise.

Each procedure makes exactly one SGD run.  It is written as a generator
that yields that run (a model.SgdRun), is sent back its (params, visits)
and returns its UnlearnResult, so that unlearn_cells can advance many
cells to their runs and step the runs together (model.sgd_lockstep).
_PROCEDURES maps each method to its procedure; run_unlearning runs one
cell by itself, and unlearn_cells runs many together.
"""

import hashlib
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, ForgetSplit
from .errors import ConfigError, DegenerateInputError
from .model import (
    MlpParams,
    SgdRun,
    TrainConfig,
    backward,
    cross_entropy_grad_logits,
    cross_entropy_gradient,
    cross_entropy_run,
    epochs_run,
    forward,
    init_params,
    log_softmax,
    sgd_lockstep,
    _forward_cache,
)
# sgd_train is imported only because perfbench/tracer.py hooks it under
# this name; every run here goes through sgd_lockstep.
from .model import sgd_train  # noqa: F401
from .rng import make_rng
from .serial import ConfigDict

log = logging.getLogger(__name__)

METHODS = ("FT", "GA", "RL", "PL", "SalUn", "DUCK", "CU", "SCRUB", "SCAR", "RETRAIN")

# Stream ids under the base seed, disjoint from model.STREAM_SHUFFLE / NOISE.
STREAM_RELABEL = 3
STREAM_RETAIN = 4


@dataclass(frozen=True)
class UnlearnConfig(ConfigDict):
    method: str
    base: TrainConfig = field(default_factory=TrainConfig)
    saliency_fraction: float = 0.5
    distill_temperature: float = 2.0
    contrast_temperature: float = 0.5
    retain_loss_weight: float = 1.0
    scrub_max_steps_per_epoch: int = 1
    scrub_min_steps_per_epoch: int = 1
    covariance_shrinkage: float = 0.1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0.0 < self.saliency_fraction <= 1.0:
            raise ConfigError("saliency_fraction must be in (0, 1]")
        if self.distill_temperature <= 0 or self.contrast_temperature <= 0:
            raise ConfigError("temperatures must be positive")
        if self.retain_loss_weight < 0:
            raise ConfigError("retain_loss_weight must be >= 0")
        if self.scrub_max_steps_per_epoch < 0 or self.scrub_min_steps_per_epoch < 0:
            raise ConfigError("scrub step counts must be >= 0")
        if not 0.0 <= self.covariance_shrinkage <= 1.0:
            raise ConfigError("covariance_shrinkage must be in [0, 1]")

    def with_seed(self, seed: int) -> "UnlearnConfig":
        return replace(self, base=self.base.with_seed(seed))


@dataclass
class Centroids:
    """Per-class feature means, optionally with a shared shrunk covariance."""
    classes: tuple
    means: np.ndarray  # len(classes) x feat_dim
    covariance: np.ndarray | None = None
    precision: np.ndarray | None = None

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.int64(self.classes).tobytes())
        h.update(np.ascontiguousarray(self.means, dtype="<f8").tobytes())
        if self.covariance is not None:
            h.update(np.ascontiguousarray(self.covariance, dtype="<f8").tobytes())
        return h.hexdigest()


@dataclass
class UnlearnResult:
    params: MlpParams
    sample_visits: int
    stats: dict = field(default_factory=dict)


def _class_means(feats: np.ndarray, y: np.ndarray, classes) -> Centroids:
    means = np.vstack([feats[y == c].mean(axis=0) for c in classes])
    return Centroids(tuple(int(c) for c in classes), means)


def compute_centroids(params: MlpParams, dataset: Dataset, classes) -> Centroids:
    feats, _ = forward(params, dataset.X)
    return _class_means(feats, dataset.y, classes)


def compute_shared_covariance(params: MlpParams, dataset: Dataset, classes,
                              shrinkage: float) -> Centroids:
    """Class-pooled within-class covariance with convex diagonal shrinkage.

    Falls back to the pure diagonal (shrinkage 1) if the shrunk matrix is
    not positive definite; diagonal entries are floored so the precision
    always exists.
    """
    feats, _ = forward(params, dataset.X)
    cents = _class_means(feats, dataset.y, classes)
    centered = np.empty_like(feats)
    for i, c in enumerate(cents.classes):
        mask = dataset.y == c
        centered[mask] = feats[mask] - cents.means[i]
    pooled = centered.T @ centered / centered.shape[0]
    diag = np.diag(np.maximum(np.diag(pooled), 1e-12))

    def shrink(lam):
        return (1.0 - lam) * pooled + lam * diag

    cov = shrink(shrinkage)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        log.warning(
            "shared covariance not SPD at shrinkage %.3f; using pure diagonal",
            shrinkage,
        )
        cov = diag
    cents.covariance = cov
    cents.precision = np.linalg.inv(cov)
    return cents


class _BatchCycler:
    """Endless deterministic batches over n rows; reshuffles on exhaustion."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        if n < 1:
            raise DegenerateInputError("cannot draw batches from an empty set")
        self.n = n
        self.batch_size = batch_size
        self.rng = rng
        self._queue = np.array([], dtype=np.int64)

    def next(self) -> np.ndarray:
        while self._queue.size < self.batch_size:
            self._queue = np.concatenate([self._queue, self.rng.permutation(self.n)])
        out, self._queue = self._queue[: self.batch_size], self._queue[self.batch_size:]
        return out


def _ft(theta_o: MlpParams, dr: Dataset, cfg: UnlearnConfig) -> UnlearnResult:
    """Fine-tune on the retain set only; forgetting happens by drift."""
    params, visits = yield cross_entropy_run(theta_o, dr.X, lambda _: dr.y, cfg.base)
    return UnlearnResult(params, visits)


def _ga(theta_o: MlpParams, df: Dataset, cfg: UnlearnConfig) -> UnlearnResult:
    """Gradient ascent on the forget set's cross-entropy."""
    params, visits = yield cross_entropy_run(theta_o, df.X, lambda _: df.y, cfg.base,
                                             sign=-1.0)
    return UnlearnResult(params, visits)


def _random_relabel(y: np.ndarray, num_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw over the num_classes - 1 labels different from each y."""
    draw = rng.integers(0, num_classes - 1, size=y.shape[0])
    return np.where(draw >= y, draw + 1, draw)


def _rl_run(theta_o, df, cfg: UnlearnConfig, mask=None) -> SgdRun:
    """RL's run; every epoch's relabels are drawn up front, from a stream
    that no other draw shares."""
    rel_rng = make_rng(cfg.base.seed, STREAM_RELABEL)
    relabels = [_random_relabel(df.y, theta_o.num_classes, rel_rng)
                for _ in range(cfg.base.epochs)]
    return cross_entropy_run(theta_o, df.X, relabels.__getitem__, cfg.base, mask=mask)


def _rl(theta_o: MlpParams, df: Dataset, cfg: UnlearnConfig) -> UnlearnResult:
    """Relabel each forget sample with a random different class each epoch."""
    params, visits = yield _rl_run(theta_o, df, cfg)
    return UnlearnResult(params, visits)


def pseudo_labels(theta_o: MlpParams, x: np.ndarray, forget_classes) -> np.ndarray:
    """Most probable class under theta_o after excluding the forget classes."""
    forget = np.asarray(sorted(set(int(c) for c in forget_classes)), dtype=np.int64)
    if forget.size >= theta_o.num_classes:
        raise ConfigError("pseudo-labeling needs at least one retained class")
    _, logits = forward(theta_o, x)
    masked = logits.copy()
    masked[:, forget] = -np.inf
    return np.argmax(masked, axis=1)


def _pl(theta_o: MlpParams, df: Dataset, cfg: UnlearnConfig) -> UnlearnResult:
    """Train forget samples toward theta_o's best non-forget prediction.

    Pseudo-labels are computed once, before any parameter update.
    """
    targets = pseudo_labels(theta_o, df.X, np.unique(df.y))
    params, visits = yield cross_entropy_run(theta_o, df.X, lambda _: targets, cfg.base)
    return UnlearnResult(params, visits)


def top_fraction_mask(scores: np.ndarray, fraction: float) -> np.ndarray:
    """0/1 mask of the ceil(fraction * n) largest scores.

    Ties resolve toward the lower flat index, so the mask is deterministic.
    """
    flat = np.asarray(scores, dtype=np.float64).ravel()
    k = int(np.ceil(fraction * flat.size))
    order = np.argsort(-flat, kind="stable")
    chosen = np.zeros(flat.size)
    chosen[order[:k]] = 1.0
    return chosen


def saliency_mask(theta_o: MlpParams, df: Dataset, fraction: float) -> np.ndarray:
    """0/1 mask of the top `fraction` of parameters by forget-loss gradient
    magnitude, ranked globally over all blocks laid end to end in BLOCKS
    order."""
    grad, _ = cross_entropy_gradient(theta_o, df.X, df.y)
    return top_fraction_mask(np.abs(grad), fraction)


def _salun(theta_o: MlpParams, df: Dataset, cfg: UnlearnConfig) -> UnlearnResult:
    """Random labeling restricted to the salient parameter subset."""
    mask = saliency_mask(theta_o, df, cfg.saliency_fraction)
    params, visits = yield _rl_run(theta_o, df, cfg, mask=mask)
    return UnlearnResult(params, visits, {"masked_parameters": int(mask.sum())})


def _two_set_run(theta_o: MlpParams, df: Dataset, dr: Dataset, cfg: TrainConfig,
                 step_fn) -> SgdRun:
    """epochs_run over shuffled forget batches, each paired with retain
    rows: step_fn(work, f_idx, retain) draws its own retain batch from the
    run's endless retain cycler and returns (grad, loss, retain_rows)."""
    retain = _BatchCycler(dr.n, cfg.batch_size, make_rng(cfg.seed, STREAM_RETAIN))

    def step(work, _epoch, f_idx):
        grad, loss, r_rows = step_fn(work, f_idx, retain)
        return grad, loss, f_idx.size + r_rows, 1.0
    return epochs_run(theta_o, cfg, df.n, step)


def nearest_centroids(feats: np.ndarray, centroids: Centroids) -> tuple:
    """Index of the nearest centroid per row and the distance matrix.

    Squared Euclidean when no precision is set, otherwise squared
    Mahalanobis under the stored precision.
    """
    diff = feats[:, None, :] - centroids.means[None, :, :]
    if centroids.precision is None:
        d = np.einsum("nkd,nkd->nk", diff, diff)
    else:
        d = np.einsum("nkd,de,nke->nk", diff, centroids.precision, diff)
    return np.argmin(d, axis=1), d


def _realignment_step(work, x_f, dr, r_idx, centroids, cfg):
    """Distance-to-nearest-centroid loss on forget rows + weighted retain CE."""
    cache_f = _forward_cache(work, x_f)
    feats = cache_f["feats"]
    nearest, _ = nearest_centroids(feats, centroids)
    diff = feats - centroids.means[nearest]
    if centroids.precision is None:
        loss_f = float(np.einsum("nd,nd->n", diff, diff).mean())
        d_feats = 2.0 * diff / feats.shape[0]
    else:
        p_diff = diff @ centroids.precision
        loss_f = float(np.einsum("nd,nd->n", diff, p_diff).mean())
        d_feats = 2.0 * p_diff / feats.shape[0]
    grad_r, loss_r = cross_entropy_gradient(work, dr.X[r_idx], dr.y[r_idx])
    w = cfg.retain_loss_weight
    return backward(work, cache_f, d_feats=d_feats) + w * grad_r, loss_f + w * loss_r


def _realign(theta_o, df, dr, cfg: UnlearnConfig, name: str, build_centroids):
    """DUCK and SCAR: realign forget features onto frozen retain centroids
    built by build_centroids(theta_o, dr, classes)."""
    if df.n == 0 or dr.n == 0:
        raise DegenerateInputError(f"{name} needs nonempty forget and retain sets")
    centroids = build_centroids(theta_o, dr, sorted(set(dr.y.tolist())))

    def step(work, f_idx, retain):
        r_idx = retain.next()
        grad, loss = _realignment_step(work, df.X[f_idx], dr, r_idx, centroids, cfg)
        return grad, loss, r_idx.size

    params, visits = yield _two_set_run(theta_o, df, dr, cfg.base, step)
    return UnlearnResult(params, visits, {"centroid_hash": centroids.content_hash()})


def _duck(theta_o: MlpParams, df: Dataset, dr: Dataset,
          cfg: UnlearnConfig) -> UnlearnResult:
    """Push forget features onto the nearest retained-class centroid.

    Centroids come from theta_o's features on the retain set and stay
    frozen; the nearest centroid is re-chosen every step.
    """
    return _realign(theta_o, df, dr, cfg, "DUCK", compute_centroids)


def _scar(theta_o: MlpParams, df: Dataset, dr: Dataset,
          cfg: UnlearnConfig) -> UnlearnResult:
    """DUCK's realignment with squared Mahalanobis distance under the shared
    shrunk covariance of theta_o's retain features."""
    def build(params, dataset, classes):
        return compute_shared_covariance(params, dataset, classes, cfg.covariance_shrinkage)

    return _realign(theta_o, df, dr, cfg, "SCAR", build)


def contrastive_loss_grad(feats_a: np.ndarray, labels_a: np.ndarray,
                          feats_r: np.ndarray, labels_r: np.ndarray,
                          tau: float) -> tuple:
    """InfoNCE-style decoupling loss over anchor/retain feature batches.

    Positives for an anchor are retain rows whose class differs from the
    anchor's original class.  Returns (loss, d_feats_a, d_feats_r, kept)
    where kept marks anchors that had at least one positive.
    """
    norm_a = np.maximum(np.linalg.norm(feats_a, axis=1), 1e-12)
    norm_r = np.maximum(np.linalg.norm(feats_r, axis=1), 1e-12)
    ua = feats_a / norm_a[:, None]
    ur = feats_r / norm_r[:, None]
    sims = ua @ ur.T
    pos = labels_r[None, :] != labels_a[:, None]
    kept = pos.any(axis=1)
    d_a = np.zeros_like(feats_a)
    d_r = np.zeros_like(feats_r)
    n_kept = int(kept.sum())
    if n_kept == 0:
        return 0.0, d_a, d_r, kept

    scaled = sims / tau
    shift = scaled.max(axis=1, keepdims=True)
    exp_all = np.exp(scaled - shift)
    sum_all = exp_all.sum(axis=1)
    sum_pos = (exp_all * pos).sum(axis=1)
    with np.errstate(divide="ignore"):
        losses = np.where(kept, -(np.log(sum_pos) - np.log(sum_all)), 0.0)
    loss = float(losses.sum() / n_kept)

    q = exp_all / sum_all[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(pos, exp_all, 0.0) / np.where(sum_pos > 0, sum_pos, 1.0)[:, None]
    d_sims = np.where(kept[:, None], (q - p) / (tau * n_kept), 0.0)

    # d sims[i, j] / d a_i = ur_j / |a_i| - sims[i, j] * ua_i / |a_i|
    d_a = (d_sims @ ur - (d_sims * sims).sum(axis=1, keepdims=True) * ua) / norm_a[:, None]
    d_r = (d_sims.T @ ua - (d_sims * sims).sum(axis=0)[:, None] * ur) / norm_r[:, None]
    return loss, d_a, d_r, kept


def _cu(theta_o: MlpParams, df: Dataset, dr: Dataset,
        cfg: UnlearnConfig) -> UnlearnResult:
    """Contrastive decoupling of forget anchors from the retain embedding,
    plus weighted retain cross-entropy.

    A retain batch that leaves some anchor without a positive is resampled
    once; anchors still lacking one are dropped from the contrastive mean
    and counted in the stats' skipped_anchors, present at every epoch count.
    """
    if df.n == 0 or dr.n == 0:
        raise DegenerateInputError("CU needs nonempty forget and retain sets")
    tau = cfg.contrast_temperature
    w = cfg.retain_loss_weight
    skipped = 0

    def step(work, f_idx, retain):
        nonlocal skipped
        r_idx = retain.next()
        if not (dr.y[r_idx][None, :] != df.y[f_idx][:, None]).any(axis=1).all():
            r_idx = retain.next()
        cache_a = _forward_cache(work, df.X[f_idx])
        cache_r = _forward_cache(work, dr.X[r_idx])
        loss_c, d_a, d_r, kept = contrastive_loss_grad(
            cache_a["feats"], df.y[f_idx], cache_r["feats"], dr.y[r_idx], tau
        )
        skipped += int((~kept).sum())
        loss_r, d_logits_r = cross_entropy_grad_logits(cache_r["logits"], dr.y[r_idx])
        grad = (backward(work, cache_a, d_feats=d_a)
                + backward(work, cache_r, d_logits=w * d_logits_r, d_feats=d_r))
        return grad, loss_c + w * loss_r, r_idx.size

    params, visits = yield _two_set_run(theta_o, df, dr, cfg.base, step)
    if skipped:
        log.info("CU skipped %d anchors lacking positives", skipped)
    return UnlearnResult(params, visits, {"skipped_anchors": skipped})


def tempered_teacher(teacher_logits: np.ndarray, temperature: float) -> tuple:
    """The teacher's (probabilities, log-probabilities) at temperature."""
    log_t = log_softmax(teacher_logits / temperature)
    return np.exp(log_t), log_t


def kl_teacher_student(teacher_pair: tuple, student_logits: np.ndarray,
                       temperature: float) -> tuple:
    """Mean KL(teacher || student) on temperature-scaled logits.

    teacher_pair is the teacher's tempered_teacher at the same temperature,
    which a caller distilling from one frozen teacher computes once for all
    its rows and slices per batch.  Returns (kl, d_student_logits) for the
    batch mean.
    """
    t, log_t = teacher_pair
    log_s = log_softmax(student_logits / temperature)
    n = student_logits.shape[0]
    kl = float((t * (log_t - log_s)).sum(axis=1).mean())
    d_student = (np.exp(log_s) - t) / (temperature * n)
    return kl, d_student


def _scrub(theta_o: MlpParams, df: Dataset, dr: Dataset,
           cfg: UnlearnConfig) -> UnlearnResult:
    """Teacher-student distillation: ascend the forget-set KL to the frozen
    teacher, then descend retain KL plus retain cross-entropy, each epoch.

    The teacher is theta_o, forwarded once over each of Df and Dr; each
    step slices its batch's rows from those outputs.
    """
    if df.n == 0 or dr.n == 0:
        raise DegenerateInputError("SCRUB needs nonempty forget and retain sets")
    temp = cfg.distill_temperature
    batch_size = cfg.base.batch_size
    teacher_f, teacher_r = (tempered_teacher(forward(theta_o, d.X)[1], temp) for d in (df, dr))

    def steps(work, state):
        forget = _BatchCycler(df.n, batch_size, state.shuffle_rng)
        retain = _BatchCycler(dr.n, batch_size, make_rng(cfg.base.seed, STREAM_RETAIN))
        for _ in range(cfg.base.epochs):
            for _ in range(cfg.scrub_max_steps_per_epoch):
                idx = forget.next()
                cache = _forward_cache(work, df.X[idx])
                kl, d_logits = kl_teacher_student(
                    tuple(a[idx] for a in teacher_f), cache["logits"], temp)
                yield backward(work, cache, d_logits=d_logits), kl, idx.size, -1.0
            for _ in range(cfg.scrub_min_steps_per_epoch):
                idx = retain.next()
                cache = _forward_cache(work, dr.X[idx])
                kl, d_kl = kl_teacher_student(
                    tuple(a[idx] for a in teacher_r), cache["logits"], temp)
                ce, d_ce = cross_entropy_grad_logits(cache["logits"], dr.y[idx])
                yield backward(work, cache, d_logits=d_kl + d_ce), kl + ce, idx.size, 1.0

    params, visits = yield SgdRun(theta_o, cfg.base, steps)
    return UnlearnResult(params, visits)


def _retrain(theta_o: MlpParams, dr: Dataset, cfg: UnlearnConfig) -> UnlearnResult:
    """Train from a fresh seeded initialization on the retain set only; of
    theta_o it reads only the shapes."""
    params = init_params(dr.X.shape[1], dr.num_classes, cfg.base.seed,
                         theta_o.W1.shape[1], theta_o.feat_dim)
    params, visits = yield cross_entropy_run(params, dr.X, lambda _: dr.y, cfg.base)
    return UnlearnResult(params, visits)


# Each method's procedure generator and the split sets it takes after
# theta_o.
_PROCEDURES = {
    "FT": (_ft, ("Dr",)),
    "GA": (_ga, ("Df",)),
    "RL": (_rl, ("Df",)),
    "PL": (_pl, ("Df",)),
    "SalUn": (_salun, ("Df",)),
    "DUCK": (_duck, ("Df", "Dr")),
    "CU": (_cu, ("Df", "Dr")),
    "SCRUB": (_scrub, ("Df", "Dr")),
    "SCAR": (_scar, ("Df", "Dr")),
    "RETRAIN": (_retrain, ("Dr",)),
}


def _cell(theta_o: MlpParams, split: ForgetSplit, cfg: UnlearnConfig):
    procedure, sets = _PROCEDURES[cfg.method]
    return procedure(theta_o, *(getattr(split, s) for s in sets), cfg)


def unlearn_cells(theta_o: MlpParams, split: ForgetSplit, cfgs) -> list:
    """One unlearning run per config over one split: advance each cell to
    its SGD run, step the runs together (model.sgd_lockstep) and send each
    cell its run's outcome, so each gets the bits it has when run alone.
    Returns each cell's UnlearnResult, or the exception that stopped it,
    in config order."""
    cells = [_cell(theta_o, split, cfg) for cfg in cfgs]
    out, runs = [None] * len(cells), {}
    for i, cell in enumerate(cells):
        try:
            runs[i] = next(cell)
        except Exception as exc:  # a cell that fails before its run stops alone
            out[i] = exc
    for i, outcome in zip(runs, sgd_lockstep(list(runs.values()))):
        if isinstance(outcome, Exception):
            cells[i].close()
            out[i] = outcome
            continue
        try:
            cells[i].send(outcome)
        except StopIteration as stop:
            out[i] = stop.value
        except Exception as exc:
            out[i] = exc
    return out


def run_unlearning(theta_o: MlpParams, split: ForgetSplit,
                   cfg: UnlearnConfig) -> UnlearnResult:
    """Dispatch a method over a forget split: unlearn_cells' one-cell call,
    which raises whatever stopped its cell."""
    result, = unlearn_cells(theta_o, split, [cfg])
    if isinstance(result, Exception):
        raise result
    return result
