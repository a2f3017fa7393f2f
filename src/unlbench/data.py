"""Synthetic class-prototype universe and forget/retain partitioning.

The training universe is a set of unit prototype vectors with bounded
pairwise cosine similarity; samples are prototypes plus isotropic Gaussian
noise.  Downstream datasets live in the same ambient space, and each
downstream class may be anchored to a training class at a requested cosine
similarity, which is what makes Top class-wise forgetting measurable.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ubm
from .errors import BoundsError, ConfigError, GenerationError
from .rng import make_rng
from .serial import ConfigDict

MAX_PAIRWISE_COS = 0.6

# Stream ids under a spec's prototype_seed.
_STREAM_PROTOS = 0
_STREAM_TRAIN = 1
_STREAM_TEST = 2
_STREAM_DOWN_BASE = 10  # 3 streams per downstream dataset


@dataclass(frozen=True)
class DownstreamSpec(ConfigDict):
    """A downstream dataset tied to the training universe.

    The first len(anchor_classes) downstream classes are anchored: class i's
    prototype has cosine similarity anchor_similarity to the prototype of
    train class anchor_classes[i].  Remaining classes get fresh prototypes.
    noise_sigma None inherits the universe noise level.
    """

    name: str
    num_classes: int
    anchor_classes: tuple[int, ...] = ()
    anchor_similarity: float = 0.85
    per_class: int = 60
    noise_sigma: float | None = None

    def __post_init__(self):
        if len(self.anchor_classes) > self.num_classes:
            raise ConfigError(f"{self.name}: more anchors than classes")
        if not 0.0 <= self.anchor_similarity <= 1.0:
            raise ConfigError(f"{self.name}: anchor_similarity must be in [0, 1]")
        if self.num_classes < 2 or self.per_class < 1:
            raise ConfigError(f"{self.name}: need >= 2 classes and >= 1 sample per class")


def default_downstream_specs() -> tuple:
    """Three downstream analogs with distinct anchors and similarity levels."""
    return (
        DownstreamSpec("oh-like", num_classes=6, anchor_classes=(0, 1, 2),
                       anchor_similarity=0.85, per_class=60),
        DownstreamSpec("cub-like", num_classes=6, anchor_classes=(4, 5, 6, 7),
                       anchor_similarity=0.9, per_class=60, noise_sigma=0.15),
        DownstreamSpec("dn-like", num_classes=5, anchor_classes=(10, 11, 12),
                       anchor_similarity=0.8, per_class=60),
    )


@dataclass(frozen=True)
class SyntheticSpec(ConfigDict):
    ambient_dim: int = 32
    num_train_classes: int = 20
    per_class_train: int = 100
    per_class_test: int = 50
    class_noise_sigma: float = 0.25
    prototype_seed: int = 7
    downstream_specs: tuple[DownstreamSpec, ...] = field(default_factory=default_downstream_specs)

    def __post_init__(self):
        if self.ambient_dim < 2:
            raise ConfigError("ambient_dim must be >= 2")
        if self.num_train_classes < 4:
            raise ConfigError("num_train_classes must be >= 4")
        if self.class_noise_sigma <= 0:
            raise ConfigError("class_noise_sigma must be > 0")
        names = [d.name for d in self.downstream_specs]
        if len(set(names)) != len(names):
            raise ConfigError("downstream dataset names must be unique")
        for d in self.downstream_specs:
            for a in d.anchor_classes:
                if not 0 <= a < self.num_train_classes:
                    raise ConfigError(f"{d.name}: anchor class {a} out of range")


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.int64)
        if self.X.shape[0] != self.y.shape[0]:
            raise ConfigError(
                f"row mismatch: {self.X.shape[0]} samples, {self.y.shape[0]} labels"
            )
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ConfigError("labels must lie in [0, num_classes)")

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass
class ForgetSplit:
    forget_classes: tuple
    retain_classes: tuple
    Df: Dataset
    Dr: Dataset
    Df_te: Dataset
    Dr_te: Dataset


@dataclass
class UniversePrototypes:
    train: np.ndarray  # num_train_classes x ambient_dim unit rows
    downstream: dict  # name -> num_classes x ambient_dim unit rows


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _draw_decorrelated(rng, count, dim, existing, max_attempts, context):
    """Rejection-sample unit vectors keeping pairwise cosine < MAX_PAIRWISE_COS."""
    accepted = list(existing)
    out = []
    attempts = 0
    while len(out) < count:
        if attempts >= max_attempts:
            raise GenerationError(
                f"{context}: could not place {count} prototypes with pairwise "
                f"cosine < {MAX_PAIRWISE_COS} in dimension {dim} "
                f"within {max_attempts} attempts"
            )
        attempts += 1
        cand = _unit(rng.standard_normal(dim))
        if all(float(np.dot(cand, p)) < MAX_PAIRWISE_COS for p in accepted):
            accepted.append(cand)
            out.append(cand)
    return out


def _sample_dataset(prototypes, per_class, sigma, rng) -> Dataset:
    num_classes = len(prototypes)
    dim = prototypes[0].shape[0]
    X = np.empty((num_classes * per_class, dim))
    y = np.empty(num_classes * per_class, dtype=np.int64)
    for c, proto in enumerate(prototypes):
        block = slice(c * per_class, (c + 1) * per_class)
        X[block] = proto + sigma * rng.standard_normal((per_class, dim))
        y[block] = c
    return Dataset(X, y, num_classes)


def generate_universe(spec: SyntheticSpec):
    """Materialize the train/test universe and all downstream datasets.

    Pure function of the spec: the same spec yields bit-identical arrays.
    Returns (train, test, downstreams, prototypes) where downstreams maps
    dataset name to Dataset in spec order.
    """
    dim = spec.ambient_dim
    c_train = spec.num_train_classes
    proto_rng = make_rng(spec.prototype_seed, _STREAM_PROTOS)
    train_protos = _draw_decorrelated(
        proto_rng, c_train, dim, [], 10 * c_train, "train universe"
    )
    train = _sample_dataset(
        train_protos, spec.per_class_train, spec.class_noise_sigma,
        make_rng(spec.prototype_seed, _STREAM_TRAIN),
    )
    test = _sample_dataset(
        train_protos, spec.per_class_test, spec.class_noise_sigma,
        make_rng(spec.prototype_seed, _STREAM_TEST),
    )

    downstreams = {}
    down_protos = {}
    for k, dspec in enumerate(spec.downstream_specs):
        base = _STREAM_DOWN_BASE + 3 * k
        drng = make_rng(spec.prototype_seed, base)
        protos = []
        a = dspec.anchor_similarity
        for anchor_id in dspec.anchor_classes:
            anchor = train_protos[anchor_id]
            if a == 1.0:
                protos.append(anchor.copy())
                continue
            raw = drng.standard_normal(dim)
            ortho = _unit(raw - np.dot(raw, anchor) * anchor)
            protos.append(a * anchor + np.sqrt(1.0 - a * a) * ortho)
        n_fresh = dspec.num_classes - len(dspec.anchor_classes)
        if n_fresh:
            protos += _draw_decorrelated(
                make_rng(spec.prototype_seed, base + 1),
                n_fresh, dim, protos, 10 * dspec.num_classes, dspec.name,
            )
        sigma = dspec.noise_sigma if dspec.noise_sigma is not None else spec.class_noise_sigma
        downstreams[dspec.name] = _sample_dataset(
            protos, dspec.per_class, sigma, make_rng(spec.prototype_seed, base + 2)
        )
        down_protos[dspec.name] = np.vstack(protos)

    prototypes = UniversePrototypes(np.vstack(train_protos), down_protos)
    return train, test, downstreams, prototypes


def _partition(dataset: Dataset, forget: tuple) -> tuple:
    mask = np.isin(dataset.y, np.asarray(forget, dtype=np.int64))
    df = Dataset(dataset.X[mask], dataset.y[mask], dataset.num_classes)
    dr = Dataset(dataset.X[~mask], dataset.y[~mask], dataset.num_classes)
    return df, dr


def _build_split(train, test, forget_classes) -> ForgetSplit:
    forget = tuple(int(c) for c in forget_classes)
    retain = tuple(c for c in range(train.num_classes) if c not in set(forget))
    df, dr = _partition(train, forget)
    df_te, dr_te = _partition(test, forget)
    return ForgetSplit(forget, retain, df, dr, df_te, dr_te)


def split_random_forget(train: Dataset, test: Dataset, n_forget: int, seed: int) -> ForgetSplit:
    """Pick n_forget classes uniformly without replacement from the seeded stream."""
    if n_forget >= train.num_classes:
        raise BoundsError(
            f"n_forget={n_forget} must be smaller than num_classes={train.num_classes}"
        )
    rng = make_rng(seed, 0)
    chosen = rng.choice(train.num_classes, size=n_forget, replace=False)
    return _build_split(train, test, chosen.tolist())


def split_top_forget(train: Dataset, test: Dataset, n_forget: int, ranked_classes) -> ForgetSplit:
    """Forget the first n_forget entries of a similarity ranking."""
    ranked = [int(c) for c in ranked_classes]
    if n_forget > len(ranked):
        raise BoundsError(
            f"n_forget={n_forget} exceeds ranking length {len(ranked)}"
        )
    return _build_split(train, test, ranked[:n_forget])


def save_dataset(dataset: Dataset, directory, meta: dict | None = None) -> None:
    """Persist as X.ubm1 + y.u32 + manifest.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ubm.write_matrix(directory / "X.ubm1", dataset.X)
    ubm.write_labels(directory / "y.u32", dataset.y)
    counts = {int(c): int(n) for c, n in zip(*np.unique(dataset.y, return_counts=True))}
    manifest = {
        "version": 1,
        "kind": "dataset",
        "rows": dataset.n,
        "num_classes": dataset.num_classes,
        "class_counts": counts,
    }
    if meta:
        manifest.update(meta)
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def load_dataset(directory) -> Dataset:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    x = ubm.read_matrix(directory / "X.ubm1")
    y = ubm.read_labels(directory / "y.u32")
    return Dataset(x, y, manifest["num_classes"])


_SPLIT_PARTS = ("Df", "Dr", "Df_te", "Dr_te")


def save_split(split: ForgetSplit, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for part in _SPLIT_PARTS:
        save_dataset(getattr(split, part), directory / part)
    manifest = {
        "version": 1,
        "kind": "forget-split",
        "forget_classes": list(split.forget_classes),
        "retain_classes": list(split.retain_classes),
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def load_split(directory) -> ForgetSplit:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    parts = {part: load_dataset(directory / part) for part in _SPLIT_PARTS}
    return ForgetSplit(
        tuple(manifest["forget_classes"]),
        tuple(manifest["retain_classes"]),
        parts["Df"], parts["Dr"], parts["Df_te"], parts["Dr_te"],
    )
