"""Evaluation mathematics: logit gaps, CKA, k-NN transfer, unified scores,
and the confidence-based membership inference attack.

All scores are fractions in [0, 1]; rendering to percent happens only at
report emission.  Every operation here is a pure function, safe to evaluate
in parallel over multiple checkpoints.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import ForgetSplit
from .errors import ConfigError, DegenerateInputError, LabelError, ShapeError
# gram_linear and hsic are imported only because perfbench/tracer.py hooks
# them under these names; CKA does not call them.
from .kernels import as_matrix, gram_linear, hsic  # noqa: F401
from .model import MlpParams, accuracy, forward, softmax
from .rng import make_rng

SELF_HSIC_FLOOR = 1e-12
# L2 weight of the MIA attack SVM; its bias is unregularized.
SVM_L2 = 1e-3


@dataclass
class LogitGaps:
    """Accuracies of the unlearned model and absolute gaps to the retrained one."""
    fa: float
    ra: float
    tfa: float
    tra: float
    g_f: float
    g_r: float
    g_tf: float
    g_tr: float

    def gaps(self) -> tuple:
        return (self.g_f, self.g_r, self.g_tf, self.g_tr)

    def to_dict(self) -> dict:
        return dict(fa=self.fa, ra=self.ra, tfa=self.tfa, tra=self.tra,
                    g_f=self.g_f, g_r=self.g_r, g_tf=self.g_tf, g_tr=self.g_tr)


@dataclass
class DownstreamRepr:
    """Representation scores of one model pair on one downstream dataset."""
    knn_acc_u: float
    knn_acc_r: float
    g_knn: float
    cka_ur: float
    cka_uo: float

    def to_dict(self) -> dict:
        return dict(knn_acc_u=self.knn_acc_u, knn_acc_r=self.knn_acc_r,
                    g_knn=self.g_knn, cka_ur=self.cka_ur, cka_uo=self.cka_uo)


@dataclass
class ReprScores:
    per_dataset: dict  # name -> DownstreamRepr

    def to_dict(self) -> dict:
        return {name: d.to_dict() for name, d in self.per_dataset.items()}


@dataclass
class MetricsReport:
    """One evaluated (method, scenario, seed) row.

    rte_seconds is wall-clock and intentionally excluded from to_dict so the
    JSON report stays byte-identical across reruns; sample_visits is the
    deterministic cost proxy.
    """
    method: str
    scenario: str
    seed: int
    status: str = "ok"
    logit: LogitGaps | None = None
    repr_scores: ReprScores | None = None
    agl: float | None = None
    agr: float | None = None
    hlr: float | None = None
    mia: float | None = None
    sample_visits: int = 0
    rte_seconds: float = 0.0
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "scenario": self.scenario,
            "seed": self.seed,
            "status": self.status,
            "logit": self.logit.to_dict() if self.logit else None,
            "repr_scores": self.repr_scores.to_dict() if self.repr_scores else None,
            "agl": self.agl,
            "agr": self.agr,
            "hlr": self.hlr,
            "mia": self.mia,
            "sample_visits": self.sample_visits,
            "provenance": self.provenance,
        }


def _check_unit_interval(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def compute_agl(gaps: LogitGaps) -> float:
    """Product of (1 - gap) over forget/retain train and test accuracies."""
    out = 1.0
    for name, g in zip(("g_f", "g_r", "g_tf", "g_tr"), gaps.gaps()):
        _check_unit_interval(g, name)
        out *= 1.0 - g
    return out


def compute_hlr(agl: float, agr: float) -> float:
    """Harmonic mean of the logit and representation scores; 0 if either is 0."""
    _check_unit_interval(agl, "agl")
    _check_unit_interval(agr, "agr")
    if agl == 0.0 or agr == 0.0:
        return 0.0
    return 2.0 / (1.0 / agl + 1.0 / agr)


@dataclass(frozen=True)
class CkaSide:
    """One side of a CKA comparison, prepared once: the Frobenius-rescaled
    features x, their column-centered copy xc and ‖XcᵀXc‖_F."""
    x: np.ndarray
    xc: np.ndarray
    norm: float


def cka_side(x: np.ndarray, name: str = "features") -> CkaSide:
    """Prepare a feature matrix for compute_cka.

    A reference side (theta_r or theta_o on a probe set) scored against many
    models is built once and passed to compute_cka in place of its features.
    """
    x = as_matrix(x, name)
    if x.shape[0] < 3:
        raise DegenerateInputError("CKA needs at least 3 rows")
    # Scale invariance lets us normalize away overflow from collapsed
    # models whose feature magnitudes are astronomical but finite.
    x = _frobenius_rescale(x)
    xc = x - x.mean(axis=0)
    return CkaSide(x, xc, float(np.linalg.norm(xc.T @ xc)))


def compute_cka(xa: np.ndarray | CkaSide, xb: np.ndarray | CkaSide) -> float:
    """Linear CKA between two feature matrices (or prepared CkaSides) on the
    same samples.

    Computed in feature space (Kornblith et al., 2019):
    ‖XbcᵀXac‖²_F / (‖XacᵀXac‖_F ‖XbcᵀXbc‖_F), which equals the Gram form
    HSIC(Ka,Kb) / sqrt(HSIC(Ka,Ka) * HSIC(Kb,Kb)) at O(n·d²) cost.  A side
    whose self-HSIC ‖XcᵀXc‖²_F / (n-1)² falls below SELF_HSIC_FLOOR scores
    0; bit-identical inputs score exactly 1.  A side and the features it
    was prepared from give bit-identical scores.
    """
    a = xa if isinstance(xa, CkaSide) else cka_side(xa, "Xa")
    b = xb if isinstance(xb, CkaSide) else cka_side(xb, "Xb")
    n = a.x.shape[0]
    if n != b.x.shape[0]:
        raise ShapeError(f"row counts differ: {n} vs {b.x.shape[0]}")
    if min(a.norm, b.norm) ** 2 / (n - 1) ** 2 < SELF_HSIC_FLOOR:
        return 0.0
    if a.x.shape == b.x.shape and np.array_equal(a.x, b.x):
        return 1.0
    return float(np.linalg.norm(b.xc.T @ a.xc) ** 2 / (a.norm * b.norm))


def _frobenius_rescale(x: np.ndarray) -> np.ndarray:
    peak = np.abs(x).max()
    if peak > 1e100:
        x = x / peak
    scale = np.linalg.norm(x)
    return x / scale if scale > 1.0 else x


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Each row scaled to unit L2 norm; a zero row stays zero."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
    # A norm overflows to inf above about 1e154; cosine is scale-invariant,
    # so such rows are first divided by their own peak.
    big = ~np.isfinite(norms)
    if big.any():
        x = x.copy()
        x[big] /= np.abs(x[big]).max(axis=1, keepdims=True)
        norms[big] = np.linalg.norm(x[big], axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return x / safe[:, None]


def knn_predict(train_x: np.ndarray, train_y: np.ndarray, test_x: np.ndarray,
                k: int, num_classes: int) -> np.ndarray:
    """k-NN under cosine distance with fully deterministic tie handling.

    A query's neighbors are the k train rows first in (distance, label,
    train index) order: every row closer than its k-th smallest distance,
    then, among the rows at exactly that distance, the ones with the lowest
    labels.  With k at or above the train row count every row votes.  Vote
    ties go to the lowest class index.  Zero-norm rows keep similarity 0 to
    everything.  Non-finite features raise NonFiniteError, k below 1
    ConfigError, a label count other than the train row count ShapeError,
    an empty train set DegenerateInputError and a label outside
    [0, num_classes) LabelError.  All queries are scored at once: the
    stacked matrix-vector products give each query the same similarity
    bits as un_train @ query would, which a single un_test @ un_train.T
    does not, and near-tied neighbors depend on those bits.
    """
    if k < 1:
        raise ConfigError(f"k-NN needs k >= 1, got {k}")
    un_train = normalize_rows(as_matrix(train_x, "train_x"))
    un_test = normalize_rows(as_matrix(test_x, "test_x"))
    labels = np.asarray(train_y, dtype=np.int64)
    if labels.shape != un_train.shape[:1]:
        raise ShapeError(f"{labels.shape} train labels for {un_train.shape[0]} train rows")
    if labels.size == 0:
        raise DegenerateInputError("k-NN needs at least one train row")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise LabelError(f"k-NN train labels must lie in [0, {num_classes})")
    dist = 1.0 - np.matmul(un_train[None], un_test[:, :, None])[..., 0]
    k = min(k, labels.size)
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    closer = dist < kth
    tied = dist == kth
    rows, cols = np.nonzero(closer | tied)
    votes = np.bincount(rows * num_classes + labels[cols],
                        minlength=dist.shape[0] * num_classes).reshape(-1, num_classes)
    # Where more rows tie at the k-th distance than places are left, only
    # the lowest labels among them vote.
    places = k - closer.sum(axis=1)
    for i in np.flatnonzero(tied.sum(axis=1) > places):
        dropped = np.sort(labels[tied[i]])[places[i]:]
        votes[i] -= np.bincount(dropped, minlength=num_classes)
    return np.argmax(votes, axis=1)


def stratified_split(labels: np.ndarray, train_frac: float, rng) -> tuple:
    """Per-class shuffled split; returns (train_idx, test_idx) in class order."""
    train_idx, test_idx = [], []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        perm = members[rng.permutation(members.size)]
        cut = int(train_frac * members.size)
        train_idx.append(perm[:cut])
        test_idx.append(perm[cut:])
    return np.concatenate(train_idx), np.concatenate(test_idx)


@dataclass(frozen=True)
class KnnSplit:
    """The 80/20 stratified k-NN split of one label vector, drawn and
    validated once; it depends only on the labels, k and the split seed."""
    labels: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    k: int
    num_classes: int


def knn_split(labels: np.ndarray, k: int = 5, split_seed: int = 0) -> KnnSplit:
    """Draw the stratified split compute_knn_accuracy scores on."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = make_rng(split_seed, 0)
    train_idx, test_idx = stratified_split(labels, 0.8, rng)
    for c in np.unique(labels):
        n_train = int((labels[train_idx] == c).sum())
        if n_train < k + 1:
            raise DegenerateInputError(
                f"class {int(c)} has only {n_train} samples in the 80% split; "
                f"need at least {k + 1}"
            )
    return KnnSplit(labels, train_idx, test_idx, k, int(labels.max()) + 1)


def compute_knn_accuracy(features: np.ndarray, labels: np.ndarray | KnnSplit,
                         k: int = 5, split_seed: int = 0) -> float:
    """Transfer accuracy of a k-NN classifier on an 80/20 stratified split.

    labels may be a KnnSplit prepared by knn_split, which a caller scoring
    many feature sets on one dataset draws once; k and split_seed are then
    the ones it was drawn with.
    """
    split = labels if isinstance(labels, KnnSplit) else knn_split(labels, k, split_seed)
    features = as_matrix(features, "features")
    if features.shape[0] != split.labels.size:
        raise ShapeError("features and labels disagree on sample count")
    preds = knn_predict(features[split.train_idx], split.labels[split.train_idx],
                        features[split.test_idx], split.k, split.num_classes)
    return float((preds == split.labels[split.test_idx]).mean())


def compute_agr(scores: ReprScores, scenario_kind: str,
                related_dataset: str | None = None) -> float:
    """(1 - G_kNN) x CKA(theta_u, theta_r): averaged over all downstream
    datasets in the random scenario, on the related dataset only in the top
    scenario."""
    if scenario_kind == "random":
        if not scores.per_dataset:
            raise ConfigError("random-scenario AGR needs at least one downstream dataset")
        used = list(scores.per_dataset.values())
    elif scenario_kind == "top":
        if related_dataset is None or related_dataset not in scores.per_dataset:
            raise ConfigError(
                f"top-scenario AGR needs the related downstream dataset, "
                f"got {related_dataset!r}"
            )
        used = [scores.per_dataset[related_dataset]]
    else:
        raise ConfigError(f"unknown scenario kind {scenario_kind!r}")
    for d in used:
        _check_unit_interval(d.g_knn, "g_knn")
    mean_gap = float(np.mean([d.g_knn for d in used]))
    mean_cka = float(np.mean([d.cka_ur for d in used]))
    return (1.0 - mean_gap) * mean_cka


@dataclass(frozen=True)
class SplitLogits:
    """One model's logits on a split's Df, Dr, Df_te and Dr_te, from one
    forward pass over each set.  split_accuracies and logit_gaps score it,
    and attack_features slices mia_efficacy's input from it."""
    df: np.ndarray
    dr: np.ndarray
    df_te: np.ndarray
    dr_te: np.ndarray

    def attack_features(self, member_idx: np.ndarray, nonmember_idx: np.ndarray) -> tuple:
        """The MIA's max-confidence vectors on the members Dr[member_idx],
        the non-members Dr_te[nonmember_idx] and the whole of Df."""
        return tuple(_max_softmax(logits) for logits in
                     (self.dr[member_idx], self.dr_te[nonmember_idx], self.df))


def _split_sets(split: ForgetSplit) -> tuple:
    return (split.Df, split.Dr, split.Df_te, split.Dr_te)


def split_logits(params: MlpParams, split: ForgetSplit) -> SplitLogits:
    """params' logits on each set of the split."""
    return SplitLogits(*(forward(params, d.X)[1] for d in _split_sets(split)))


def split_forward(params: MlpParams, split: ForgetSplit) -> tuple:
    """params' split_logits and its features on Dr_te, from one forward
    pass over each set of the split (split_logits drops every set's
    features as it goes)."""
    logits = [forward(params, d.X)[1] for d in _split_sets(split)[:-1]]
    feats_te, logits_te = forward(params, split.Dr_te.X)
    return SplitLogits(*logits, logits_te), feats_te


def split_accuracies(outs: SplitLogits, split: ForgetSplit) -> tuple:
    """A model's accuracy on Df, Dr, Df_te and Dr_te, in that order, from
    its split_logits."""
    return tuple(accuracy(logits, d) for logits, d in
                 zip((outs.df, outs.dr, outs.df_te, outs.dr_te), _split_sets(split)))


def logit_gaps(outs: SplitLogits, acc_r: tuple, split: ForgetSplit) -> LogitGaps:
    """FA/RA/TFA/TRA of the unlearned model whose split_logits are outs, and
    their absolute gaps to acc_r, the retrained model's split_accuracies."""
    acc_u = split_accuracies(outs, split)
    gaps = [abs(u - r) for u, r in zip(acc_u, acc_r)]
    return LogitGaps(*acc_u, *gaps)


def _max_softmax(logits: np.ndarray) -> np.ndarray:
    """The attack feature: maximum softmax probability per sample."""
    return softmax(logits).max(axis=1)


def fit_linear_svm(features: np.ndarray, labels01: np.ndarray, seed: int,
                   epochs: int = 200, l2: float = SVM_L2) -> tuple:
    """Hinge-loss SGD on a linear decision function (Pegasos-style schedule).

    features holds one attack feature per row, as a 1-D array or an (n, 1)
    matrix; more columns raise ShapeError.  labels01 holds {0, 1}; returns
    (w, b) with w of shape (1,) and member predicted when w·x + b > 0.  Bias
    is unregularized.  The loop runs on plain Python floats: with a single
    feature every update is the same IEEE operation, in the same order, as
    on 1-element numpy arrays, so (w, b) is bit-identical to the array form
    at a small fraction of its cost.  It stops short of the optimum of its
    objective; the MIA uses solve_linear_svm, the exact minimizer.
    """
    x, y = _svm_inputs(features, labels01)
    xs = x.tolist()
    ys = y.tolist()
    rng = make_rng(seed, 0)
    w = 0.0
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(xs)).tolist():
            t += 1
            eta = 1.0 / (l2 * t)
            xi, yi = xs[i], ys[i]
            margin = yi * (xi * w + b)
            w *= 1.0 - eta * l2
            if margin < 1.0:
                w += eta * yi * xi
                b += eta * yi
    return np.array([w]), b


def _svm_inputs(features, labels01) -> tuple:
    """One feature column as a 1-D array and the labels as ±1."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] != 1:
        raise ShapeError(f"SVM features must be one column, got shape {x.shape}")
    y = np.where(np.asarray(labels01) > 0, 1.0, -1.0)
    if np.unique(y).size < 2:
        raise DegenerateInputError("SVM training needs both classes present")
    return x[:, 0], y


def solve_linear_svm(features: np.ndarray, labels01: np.ndarray) -> tuple:
    """Exact minimizer of (λ/2)·w² + mean(max(0, 1 − y(w·x + b))), b free.

    Takes and returns what fit_linear_svm does.  For a fixed w the hinge sum
    is convex piecewise linear in b with breakpoints β_i = y_i − w·x_i; its
    slope is −P plus the number of breakpoints below b, P the member count,
    so every b in [β_(P), β_(P+1)] is optimal and the midpoint is taken.
    The objective minimized over b is strictly convex in w, and F(0, 0) = 1
    bounds |w*| by sqrt(2/λ), λ = SVM_L2, so a golden-section search on that
    bracket finds w to within 1e-12.  Rows are put in a canonical order
    first, so (w, b) does not depend on their order.

    A feature with zero spread carries no membership signal; it gets
    (w, b) = (0, 0), under which every row is predicted a non-member.
    """
    x, y = _svm_inputs(features, labels01)
    if np.ptp(x) == 0.0:
        return np.array([0.0]), 0.0
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    p = int((y > 0).sum())

    def best_b(w: float) -> float:
        beta = np.partition(y - w * x, (p - 1, p))
        return 0.5 * (float(beta[p - 1]) + float(beta[p]))

    def objective(w: float) -> float:
        hinge = np.maximum(0.0, 1.0 - y * (w * x + best_b(w)))
        return 0.5 * SVM_L2 * w * w + float(hinge.mean())

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -np.sqrt(2.0 / SVM_L2), np.sqrt(2.0 / SVM_L2)
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > 1e-12:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = objective(d)
    w = 0.5 * (lo + hi)
    return np.array([w]), best_b(w)


def mia_efficacy(conf_member: np.ndarray, conf_nonmember: np.ndarray,
                 conf_f: np.ndarray) -> float:
    """Fraction of forget samples an SVM attacker calls non-members.

    The arguments are the unlearned model's max-confidence vectors on the
    member sample, the non-member sample and the forget set, as
    SplitLogits.attack_features returns them.  The attacker fits a linear
    SVM (solve_linear_svm, solved exactly) on those features with members
    from the retain train sample (label 1) and non-members from unseen test
    data (label 0), balanced; higher efficacy means more convincing
    forgetting.  When every attack row has the same confidence the attack
    has no signal, and the efficacy is 1.0: every forget row counts as a
    non-member.
    """
    n_member, n_nonmember = conf_member.size, conf_nonmember.size
    if n_member == 0 or n_nonmember == 0 or conf_f.size == 0:
        raise DegenerateInputError("MIA needs nonempty member, non-member, and forget sets")
    if n_member != n_nonmember:
        raise ConfigError(
            f"MIA training must be balanced: {n_member} members vs "
            f"{n_nonmember} non-members"
        )
    feats = np.concatenate([conf_member, conf_nonmember])
    labels = np.concatenate([np.ones(n_member), np.zeros(n_nonmember)])
    # Standardize with attack-training statistics; confidences cluster near
    # 1.0 and the hinge geometry needs unit-scale features to be usable.
    mu, sd = feats.mean(), max(float(feats.std()), 1e-12)
    w, b = solve_linear_svm((feats - mu) / sd, labels)
    return float(((conf_f - mu) / sd * w[0] + b <= 0.0).mean())


def __getattr__(name):
    # last_layer_analysis runs unlearning, so it lives in harness, which
    # imports this module; the old names resolve lazily.
    if name in ("LastLayerReport", "last_layer_analysis"):
        from . import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
