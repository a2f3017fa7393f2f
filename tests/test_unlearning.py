"""Per-method contracts for the unlearning procedures."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from unlbench import unlearning
from unlbench.data import Dataset, DownstreamSpec, SyntheticSpec, generate_universe, split_random_forget
from unlbench.errors import ConfigError, DegenerateInputError, DivergenceError
from unlbench.model import (
    BLOCKS,
    MlpParams,
    SgdState,
    TrainConfig,
    accuracy,
    apply_sgd_step,
    cross_entropy_gradient,
    forward,
    grad_cross_entropy,
    init_params,
    sgd_train,
)
from unlbench.rng import make_rng
from unlbench.unlearning import (
    METHODS,
    STREAM_RETAIN,
    UnlearnConfig,
    _BatchCycler,
    _random_relabel,
    compute_centroids,
    compute_shared_covariance,
    contrastive_loss_grad,
    kl_teacher_student,
    nearest_centroids,
    pseudo_labels,
    run_unlearning,
    saliency_mask,
    tempered_teacher,
    top_fraction_mask,
)
from unlbench.worker import Worker

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def small_universe():
    spec = SyntheticSpec(
        ambient_dim=16, num_train_classes=6, per_class_train=10, per_class_test=5,
        prototype_seed=3,
        downstream_specs=(DownstreamSpec("d", 3, (0, 1), 0.9, per_class=8),),
    )
    return generate_universe(spec)


@pytest.fixture(scope="module")
def scenario():
    train, test, _, _ = small_universe()
    base = TrainConfig(lr=0.1, epochs=30, batch_size=16, momentum=0.9, seed=2)
    theta_o = sgd_train(init_params(16, 6, 2), train, base)
    split = split_random_forget(train, test, 2, seed=4)
    return theta_o, split


def params_equal(a: MlpParams, b: MlpParams) -> bool:
    return all(np.array_equal(getattr(a, blk), getattr(b, blk)) for blk in BLOCKS)


def model_accuracy(params: MlpParams, ds: Dataset) -> float:
    return accuracy(forward(params, ds.X)[1], ds)


def flat_params(p: MlpParams) -> np.ndarray:
    return np.concatenate([getattr(p, blk).ravel() for blk in BLOCKS])


def cfg_for(method, **base_kw):
    defaults = dict(lr=0.05, epochs=2, batch_size=16, seed=13)
    defaults.update(base_kw)
    extra = {}
    if method == "SCRUB":
        extra = dict(scrub_max_steps_per_epoch=2, scrub_min_steps_per_epoch=2)
    return UnlearnConfig(method, TrainConfig(**defaults), **extra)


class TestFinetune:
    def test_zero_epochs_is_identity(self, scenario):
        theta_o, split = scenario
        res = run_unlearning(theta_o, split, cfg_for("FT", epochs=0))
        assert params_equal(res.params, theta_o)

    def test_retain_accuracy_preserved(self, scenario):
        theta_o, split = scenario
        res = run_unlearning(theta_o, split, cfg_for("FT", epochs=5))
        assert model_accuracy(res.params, split.Dr) >= model_accuracy(theta_o, split.Dr) - 0.01

    def test_empty_retain_set_rejected(self, scenario):
        theta_o, split = scenario
        empty = Dataset(np.empty((0, 16)), np.empty(0, dtype=int), 6)
        with pytest.raises(DegenerateInputError):
            run_unlearning(theta_o, replace(split, Dr=empty), cfg_for("FT"))


class TestGradientAscent:
    def test_zero_lr_is_identity(self, scenario):
        theta_o, split = scenario
        res = run_unlearning(theta_o, split, cfg_for("GA", lr=0.0, epochs=3))
        assert params_equal(res.params, theta_o)

    def test_single_step_closed_form(self, scenario):
        theta_o, split = scenario
        eta = 0.05
        cfg = cfg_for("GA", lr=eta, epochs=1, batch_size=10_000, momentum=0.0)
        res = run_unlearning(theta_o, split, cfg)
        grads, _ = grad_cross_entropy(theta_o, split.Df.X, split.Df.y)
        for b in BLOCKS:
            np.testing.assert_allclose(
                getattr(res.params, b), getattr(theta_o, b) + eta * grads[b],
                atol=1e-12,
            )

    def test_ascent_increases_forget_loss(self, scenario):
        theta_o, split = scenario
        res = run_unlearning(theta_o, split, cfg_for("GA", lr=0.5, epochs=3, momentum=0.0))
        _, loss_before = grad_cross_entropy(theta_o, split.Df.X, split.Df.y)
        _, loss_after = grad_cross_entropy(res.params, split.Df.X, split.Df.y)
        assert loss_after > loss_before

    def test_large_step_raises_divergence_error(self, scenario):
        theta_o, split = scenario
        with pytest.raises(DivergenceError):
            run_unlearning(theta_o, split,
                           cfg_for("GA", lr=1e4, epochs=100, momentum=0.0))

    def test_empty_forget_set_rejected(self, scenario):
        theta_o, split = scenario
        empty = Dataset(np.empty((0, 16)), np.empty(0, dtype=int), 6)
        with pytest.raises(DegenerateInputError):
            run_unlearning(theta_o, replace(split, Df=empty), cfg_for("GA"))


class TestRandomLabeling:
    def test_two_class_relabel_is_deterministic(self):
        y = np.array([0, 1, 0, 1])
        out = _random_relabel(y, 2, make_rng(0, 0))
        assert np.array_equal(out, 1 - y)

    def test_relabels_never_equal_original(self):
        rng = make_rng(1, 0)
        y = rng.integers(0, 9, 500)
        for _ in range(20):
            assert not np.any(_random_relabel(y, 9, rng) == y)

    def test_relabels_cover_all_other_classes(self):
        y = np.zeros(5000, dtype=np.int64)
        out = _random_relabel(y, 5, make_rng(2, 0))
        assert set(out.tolist()) == {1, 2, 3, 4}

    def test_forget_accuracy_drops_within_ten_epochs(self, scenario):
        theta_o, split = scenario
        res = run_unlearning(theta_o, split, cfg_for("RL", lr=0.1, epochs=10))
        assert model_accuracy(res.params, split.Df) < 0.2


class TestPseudoLabeling:
    def _identity_net(self):
        # Maps non-negative 3-d inputs straight through to the logits.
        eye = np.eye(3)
        return MlpParams(
            W1=np.hstack([eye, np.zeros((3, 1))]), b1=np.zeros(4),
            W2=np.vstack([eye, np.zeros((1, 3))]), b2=np.zeros(3),
            Whead=eye.copy(), bhead=np.zeros(3),
        )

    def test_hand_built_logits(self):
        p = self._identity_net()
        x = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
        assert pseudo_labels(p, x, forget_classes=[0]).tolist() == [1, 2]

    def test_all_but_one_class_forgotten(self, scenario):
        theta_o, _ = scenario
        x = make_rng(3, 0).standard_normal((10, 16))
        labels = pseudo_labels(theta_o, x, forget_classes=[0, 1, 2, 3, 4])
        assert np.all(labels == 5)

    def test_labels_avoid_forget_classes(self, scenario):
        theta_o, split = scenario
        labels = pseudo_labels(theta_o, split.Df.X, split.forget_classes)
        assert not set(labels.tolist()) & set(split.forget_classes)

    def test_no_retained_class_rejected(self, scenario):
        theta_o, _ = scenario
        with pytest.raises(ConfigError):
            pseudo_labels(theta_o, np.ones((1, 16)), forget_classes=range(6))


class TestSalun:
    def test_hand_made_mask_selects_top_half(self):
        mask = top_fraction_mask(np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.0]), 0.5)
        assert mask.tolist() == [1, 1, 1, 0, 0, 0]

    def test_full_fraction_matches_rl_trajectory(self, scenario):
        theta_o, split = scenario
        cfg = replace(cfg_for("SalUn", epochs=3), saliency_fraction=1.0)
        a = run_unlearning(theta_o, split, cfg)
        b = run_unlearning(theta_o, split, cfg_for("RL", epochs=3))
        assert params_equal(a.params, b.params)

    def test_unmasked_coordinates_untouched(self, scenario):
        theta_o, split = scenario
        cfg = replace(cfg_for("SalUn", epochs=3), saliency_fraction=0.3)
        res = run_unlearning(theta_o, split, cfg)
        frozen = saliency_mask(theta_o, split.Df, 0.3) == 0.0
        assert 0 < frozen.sum() < frozen.size
        assert np.array_equal(flat_params(res.params)[frozen], flat_params(theta_o)[frozen])

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            UnlearnConfig("SalUn", TrainConfig(), saliency_fraction=0.0)


class TestCentroidMethods:
    def test_single_retained_class_always_nearest(self):
        cents = compute_centroids(
            MlpParams(np.zeros((2, 4)), np.zeros(4), np.zeros((4, 3)),
                      np.array([1.0, 2.0, 3.0]), np.zeros((3, 2)), np.zeros(2)),
            Dataset(np.ones((4, 2)), np.zeros(4, dtype=int), 1), [0],
        )
        nearest, _ = nearest_centroids(make_rng(0, 0).standard_normal((7, 3)), cents)
        assert np.all(nearest == 0)

    def test_nearest_matches_brute_force_scan(self):
        from unlbench.unlearning import Centroids
        means = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        cents = Centroids((0, 1, 2), means)
        feats = np.array([[2.9, 0.1], [0.1, 3.0], [0.2, 0.1]])
        nearest, dists = nearest_centroids(feats, cents)
        for i in range(3):
            manual = [float(((feats[i] - m) ** 2).sum()) for m in means]
            assert nearest[i] == int(np.argmin(manual))
            np.testing.assert_allclose(dists[i], manual, atol=1e-12)

    def test_feature_at_centroid_has_zero_distance(self):
        from unlbench.unlearning import Centroids
        means = np.array([[1.0, 2.0], [5.0, 5.0]])
        cents = Centroids((0, 1), means)
        _, dists = nearest_centroids(means[:1], cents)
        assert dists[0, 0] == 0.0
        cents.precision = np.array([[2.0, 0.3], [0.3, 1.0]])
        _, dists = nearest_centroids(means[:1], cents)
        assert dists[0, 0] == 0.0

    def test_duck_centroids_frozen_from_original(self, scenario):
        theta_o, split = scenario
        res = run_unlearning(theta_o, split, cfg_for("DUCK", epochs=3))
        frozen = compute_centroids(theta_o, split.Dr, sorted(set(split.Dr.y.tolist())))
        assert res.stats["centroid_hash"] == frozen.content_hash()
        after = compute_centroids(res.params, split.Dr, sorted(set(split.Dr.y.tolist())))
        assert after.content_hash() != frozen.content_hash()

    def test_identity_covariance_reduces_to_euclidean(self):
        from unlbench.unlearning import Centroids
        rng = make_rng(5, 0)
        means = rng.standard_normal((4, 3))
        feats = rng.standard_normal((6, 3))
        plain = Centroids((0, 1, 2, 3), means)
        mahal = Centroids((0, 1, 2, 3), means, covariance=np.eye(3),
                          precision=np.eye(3))
        n_a, d_a = nearest_centroids(feats, plain)
        n_b, d_b = nearest_centroids(feats, mahal)
        assert np.array_equal(n_a, n_b)
        np.testing.assert_allclose(d_a, d_b, atol=1e-12)

    def test_full_shrinkage_matches_weighted_distance_oracle(self, scenario):
        theta_o, split = scenario
        classes = sorted(set(split.Dr.y.tolist()))
        cents = compute_shared_covariance(theta_o, split.Dr, classes, shrinkage=1.0)
        assert np.array_equal(cents.covariance, np.diag(np.diag(cents.covariance)))
        var = np.diag(cents.covariance)
        feats, _ = forward(theta_o, split.Df.X[:5])
        _, dists = nearest_centroids(feats, cents)
        for i in range(feats.shape[0]):
            for j, m in enumerate(cents.means):
                oracle = float((((feats[i] - m) ** 2) / var).sum())
                assert abs(dists[i, j] - oracle) < 1e-9 * max(1.0, oracle)

    def test_covariance_is_spd_after_shrinkage(self, scenario):
        theta_o, split = scenario
        classes = sorted(set(split.Dr.y.tolist()))
        cents = compute_shared_covariance(theta_o, split.Dr, classes, shrinkage=0.1)
        np.linalg.cholesky(cents.covariance)


class TestContrastive:
    def test_three_point_hand_example(self):
        anchor = np.array([[1.0, 0.0]])
        retain = np.array([[0.6, 0.8], [1.0, 0.0]])
        loss, _, _, kept = contrastive_loss_grad(
            anchor, np.array([0]), retain, np.array([1, 0]), tau=1.0
        )
        hand = -np.log(np.exp(0.6) / (np.exp(0.6) + np.exp(1.0)))
        assert abs(loss - hand) < 1e-9
        assert kept.all()

    def test_all_positives_gives_zero_loss_and_gradient(self):
        rng = make_rng(6, 0)
        fa, fr = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        loss, da, dr, kept = contrastive_loss_grad(
            fa, np.zeros(3, dtype=int), fr, np.ones(5, dtype=int), tau=0.5
        )
        assert loss == 0.0
        assert np.all(da == 0.0) and np.all(dr == 0.0)

    def test_temperature_saturation(self):
        rng = make_rng(7, 0)
        fa, fr = rng.standard_normal((4, 5)), rng.standard_normal((6, 5))
        la = np.array([0, 0, 1, 1])
        lr_ = np.array([0, 1, 2, 2, 1, 0])
        loss, da, dr, _ = contrastive_loss_grad(fa, la, fr, lr_, tau=1e6)
        counts = (lr_[None, :] != la[:, None]).sum(axis=1)
        assert abs(loss - (-np.mean(np.log(counts / 6)))) < 1e-5
        assert max(np.abs(da).max(), np.abs(dr).max()) < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(8, 0)
        fa, fr = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        la = np.array([0, 1, 0])
        lr_ = np.array([0, 1, 2, 0, 1])
        loss, da, dr, _ = contrastive_loss_grad(fa, la, fr, lr_, tau=0.7)
        h = 1e-6
        for arr, grad in ((fa, da), (fr, dr)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = arr[i]
                arr[i] = orig + h
                up = contrastive_loss_grad(fa, la, fr, lr_, 0.7)[0]
                arr[i] = orig - h
                down = contrastive_loss_grad(fa, la, fr, lr_, 0.7)[0]
                arr[i] = orig
                assert abs((up - down) / (2 * h) - grad[i]) < 1e-6


class TestScrub:
    def test_student_equal_teacher_gives_zero_kl(self):
        logits = make_rng(9, 0).standard_normal((5, 4))
        kl, d = kl_teacher_student(tempered_teacher(logits, 2.0), logits.copy(), 2.0)
        assert kl == 0.0
        assert np.all(d == 0.0)

    def test_hand_built_two_class_kl(self):
        teacher = np.log(np.array([[0.9, 0.1]]))
        student = np.log(np.array([[0.5, 0.5]]))
        kl, _ = kl_teacher_student(tempered_teacher(teacher, 1.0), student, 1.0)
        expected = 0.9 * np.log(0.9 / 0.5) + 0.1 * np.log(0.1 / 0.5)
        assert abs(kl - expected) < 1e-6

    def test_max_phase_with_zero_lr_is_identity(self, scenario):
        theta_o, split = scenario
        cfg = replace(cfg_for("SCRUB", lr=0.0, epochs=2),
                      scrub_max_steps_per_epoch=3, scrub_min_steps_per_epoch=0)
        res = run_unlearning(theta_o, split, cfg)
        assert params_equal(res.params, theta_o)

    def test_teacher_forwarded_once_per_split_set(self, scenario, monkeypatch):
        """The frozen teacher's outputs are computed once per run, over the
        whole of Df and of Dr, and sliced per step."""
        theta_o, split = scenario
        calls = []

        def recording(params, x):
            calls.append((params, len(x)))
            return forward(params, x)

        monkeypatch.setattr(unlearning, "forward", recording)
        cfg = replace(cfg_for("SCRUB", epochs=3),
                      scrub_max_steps_per_epoch=4, scrub_min_steps_per_epoch=5)
        run_unlearning(theta_o, split, cfg)
        assert all(p is theta_o for p, _ in calls)
        assert [n for _, n in calls] == [split.Df.n, split.Dr.n]

    def test_tempered_teacher_is_the_tempered_softmax(self):
        teacher = make_rng(10, 0).standard_normal((7, 5))
        probs = np.exp(teacher / 2.0) / np.exp(teacher / 2.0).sum(axis=1, keepdims=True)
        t, log_t = tempered_teacher(teacher, 2.0)
        assert np.allclose(t, probs, rtol=1e-12, atol=0.0)
        assert np.allclose(log_t, np.log(probs), rtol=1e-12, atol=1e-15)

    def test_min_phase_first_step_is_pure_ce_step(self, scenario):
        theta_o, split = scenario
        cfg = replace(cfg_for("SCRUB", lr=0.05, epochs=1, momentum=0.0, seed=8),
                      scrub_max_steps_per_epoch=0, scrub_min_steps_per_epoch=1)
        res = run_unlearning(theta_o, split, cfg)
        manual = theta_o.copy()
        state = SgdState.create(manual, cfg.base)
        idx = _BatchCycler(split.Dr.n, cfg.base.batch_size,
                           make_rng(8, STREAM_RETAIN)).next()
        grad, _ = cross_entropy_gradient(manual, split.Dr.X[idx], split.Dr.y[idx])
        apply_sgd_step(grad, state, cfg.base)
        assert params_equal(res.params, manual)


class TestRetrain:
    def test_ignores_original_parameters(self, scenario):
        theta_o, split = scenario
        perturbed = theta_o.copy()
        perturbed.W1 += 123.0
        cfg = cfg_for("RETRAIN", epochs=3)
        a = run_unlearning(theta_o, split, cfg)
        b = run_unlearning(perturbed, split, cfg)
        assert params_equal(a.params, b.params)

    def test_same_seed_bit_identical(self, scenario):
        theta_o, split = scenario
        cfg = UnlearnConfig("RETRAIN", TrainConfig(lr=0.1, epochs=3, seed=21))
        a = run_unlearning(theta_o, split, cfg)
        b = run_unlearning(theta_o, split, cfg)
        assert params_equal(a.params, b.params)

    def test_forget_accuracy_near_zero(self, scenario):
        theta_o, split = scenario
        cfg = UnlearnConfig("RETRAIN", TrainConfig(lr=0.1, epochs=30, batch_size=16, seed=22))
        res = run_unlearning(theta_o, split, cfg)
        assert model_accuracy(res.params, split.Df) <= 0.01

    def test_takes_only_the_shapes_of_theta_o(self, scenario):
        _, split = scenario
        theta_o = init_params(16, 6, 5, hidden=32, feat_dim=8)
        perturbed = theta_o.copy()
        for b in BLOCKS:
            getattr(perturbed, b)[...] += 7.0
        cfg = cfg_for("RETRAIN", epochs=1)
        a = run_unlearning(theta_o, split, cfg)
        b = run_unlearning(perturbed, split, cfg)
        assert a.params.W1.shape == (16, 32) and a.params.feat_dim == 8
        assert a.params.content_hash() == b.params.content_hash()


DECLARED_KNOBS = {
    "FT": set(), "GA": set(), "RL": set(), "PL": set(), "RETRAIN": set(),
    "SalUn": {"saliency_fraction"},
    "DUCK": {"retain_loss_weight"},
    "CU": {"contrast_temperature", "retain_loss_weight"},
    "SCRUB": {"distill_temperature", "scrub_max_steps_per_epoch",
              "scrub_min_steps_per_epoch"},
    "SCAR": {"retain_loss_weight", "covariance_shrinkage"},
}

PERTURBATIONS = {
    "saliency_fraction": 0.9,
    "distill_temperature": 3.5,
    "contrast_temperature": 1.1,
    "retain_loss_weight": 2.5,
    "scrub_max_steps_per_epoch": 3,
    "scrub_min_steps_per_epoch": 3,
    "covariance_shrinkage": 0.4,
}


class TestMethodInvariants:
    @pytest.mark.parametrize("method", METHODS)
    def test_undeclared_knobs_do_not_change_output(self, scenario, method):
        theta_o, split = scenario
        base_cfg = cfg_for(method, epochs=1)
        baseline = run_unlearning(theta_o, split, base_cfg)
        for knob, value in PERTURBATIONS.items():
            if knob in DECLARED_KNOBS[method]:
                continue
            res = run_unlearning(theta_o, split, replace(base_cfg, **{knob: value}))
            assert params_equal(res.params, baseline.params), (method, knob)

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "RETRAIN"])
    def test_zero_epochs_and_zero_lr_are_identity(self, scenario, method):
        # RETRAIN starts from a fresh initialization, so identity with the
        # original model is not part of its contract.
        theta_o, split = scenario
        res = run_unlearning(theta_o, split, cfg_for(method, epochs=0))
        assert params_equal(res.params, theta_o), (method, "epochs")
        res = run_unlearning(theta_o, split, cfg_for(method, lr=0.0, epochs=2))
        assert params_equal(res.params, theta_o), (method, "lr")

    # RETRAIN's frozen encoder is its fresh initialization, not theta_o's.
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize("method", [m for m in METHODS if m != "RETRAIN"])
    def test_freeze_encoder_leaves_encoder_bits(self, scenario, method, sigma):
        theta_o, split = scenario
        cfg = cfg_for(method, epochs=3, freeze_encoder=True, grad_noise_sigma=sigma)
        res = run_unlearning(theta_o, split, cfg)
        for b in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(res.params, b), getattr(theta_o, b)), b
        assert not np.array_equal(res.params.Whead, theta_o.Whead)

    @pytest.mark.parametrize("method", METHODS)
    def test_deterministic_given_seed(self, scenario, method):
        theta_o, split = scenario
        cfg = cfg_for(method, epochs=1)
        a = run_unlearning(theta_o, split, cfg)
        b = run_unlearning(theta_o, split, cfg)
        assert params_equal(a.params, b.params)
        assert a.sample_visits == b.sample_visits


# Base-config knobs the default report never exercises; each method runs
# under every variant on the small scenario.
GOLDEN_VARIANTS = {
    "plain": {},
    "freeze": {"freeze_encoder": True},
    "nesterov-noise": {"nesterov": True, "momentum": 0.5, "grad_noise_sigma": 0.01},
    "zero-epochs": {"epochs": 0},
    "diverge": {"lr": 1e4, "epochs": 20, "momentum": 0.0},
}
GOLDEN_PATH = Path(__file__).parent / "data" / "method_hashes.json"


def _summary(result) -> dict:
    """A run's UnlearnResult, or the DivergenceError that stopped it, as
    the golden file records it."""
    if isinstance(result, DivergenceError):
        return {"error": "DivergenceError", "step": result.step}
    return {"hash": result.params.content_hash(), "sample_visits": result.sample_visits,
            "stats": result.stats}


def _outcome(theta_o, split, cfg) -> dict:
    try:
        return _summary(run_unlearning(theta_o, split, cfg))
    except DivergenceError as exc:
        return _summary(exc)


def method_outcomes(theta_o, split) -> dict:
    """content_hash, sample_visits and stats of every method and variant,
    plus CU on a retain set that shares a forget class, which exercises its
    retain-batch re-draw and skipped anchors."""
    out = {}
    for method in METHODS:
        for name, knobs in GOLDEN_VARIANTS.items():
            cfg = cfg_for(method, **knobs)
            if method == "SCRUB":
                cfg = replace(cfg, scrub_max_steps_per_epoch=2, scrub_min_steps_per_epoch=3)
            out[f"{method}/{name}"] = _outcome(theta_o, split, cfg)
    shared = split.Df.y == split.forget_classes[0]
    dr = Dataset(np.vstack([split.Df.X[shared], split.Dr.X[:4]]),
                 np.concatenate([split.Df.y[shared], split.Dr.y[:4]]), split.Dr.num_classes)
    out["CU/overlap"] = _outcome(theta_o, replace(split, Dr=dr),
                                 cfg_for("CU", batch_size=2, epochs=3))
    return out


class TestGoldenMethodHashes:
    def test_every_method_matches_stored_outcome(self, scenario):
        theta_o, split = scenario
        assert method_outcomes(theta_o, split) == json.loads(GOLDEN_PATH.read_text())


class TestLockstepCells:
    """Cells stepped together, in this process or a worker's, each get the
    outcome of their solo run.  All cells share one seed, so the noisy ones
    of every method, whose runs differ in length, read one noise feed."""

    VARIANTS = {**GOLDEN_VARIANTS,
                "freeze-noise": {"freeze_encoder": True, "grad_noise_sigma": 0.02}}

    def _cells(self) -> dict:
        cells = {}
        for method in METHODS:
            for name, knobs in self.VARIANTS.items():
                cfg = cfg_for(method, **knobs)
                if method == "SCRUB":  # as method_outcomes runs it
                    cfg = replace(cfg, scrub_max_steps_per_epoch=2, scrub_min_steps_per_epoch=3)
                cells[f"{method}/{name}"] = cfg
        return cells

    @pytest.mark.parametrize("where", ["in-process", "worker"])
    def test_every_method_matches_its_solo_run(self, scenario, where):
        theta_o, split = scenario
        cells = self._cells()
        if where == "in-process":
            results = unlearning.unlearn_cells(theta_o, split, list(cells.values()))
        else:
            with Worker(lambda: unlearning.unlearn_cells(theta_o, split,
                                                         list(cells.values()))) as worker:
                results = worker.results()
        got = {key: _summary(r) for key, r in zip(cells, results)}
        assert got == {key: _outcome(theta_o, split, cfg) for key, cfg in cells.items()}
        golden = json.loads(GOLDEN_PATH.read_text())
        assert {k: v for k, v in got.items() if k in golden} == {
            k: v for k, v in golden.items() if k in got}
        assert any("error" in v for v in got.values())  # some "diverge" cells do

    def test_a_cell_failing_before_its_run_stops_alone(self, scenario):
        theta_o, split = scenario
        empty = replace(split, Df=Dataset(np.empty((0, 16)), np.empty(0, dtype=np.int64), 6))
        cfgs = [cfg_for("CU"), cfg_for("FT", grad_noise_sigma=0.05)]
        failed, ft = unlearning.unlearn_cells(theta_o, empty, cfgs)
        assert isinstance(failed, DegenerateInputError)
        assert _summary(ft) == _outcome(theta_o, split, cfgs[1])
