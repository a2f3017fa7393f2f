"""Metric suite: unified scores against published rows, CKA properties,
k-NN oracle equivalence, and the membership inference attack."""

import numpy as np
import pytest

from unlbench.data import Dataset
from unlbench.errors import ConfigError, DegenerateInputError, ShapeError
from unlbench.metrics import (
    DownstreamRepr,
    LogitGaps,
    MetricsReport,
    ReprScores,
    compute_agl,
    compute_agr,
    compute_cka,
    compute_hlr,
    compute_knn_accuracy,
    _frobenius_rescale,
    _normalize_rows,
    cka_side,
    fit_linear_svm,
    knn_predict,
    knn_split,
    last_layer_analysis,
    logit_gaps,
    max_confidence,
    mia_efficacy,
    solve_linear_svm,
    stratified_split,
)
from unlbench.kernels import as_matrix, gram_linear, hsic
from unlbench.model import MlpParams, TrainConfig
from unlbench.rng import make_rng


def gaps_row(fa, ra, tfa, tra):
    return LogitGaps(fa, ra, tfa, tra, fa, ra, tfa, tra)


def repr_row(g_knn, cka_ur, cka_uo=0.9):
    return DownstreamRepr(0.8, 0.8, g_knn, cka_ur, cka_uo)


class TestAgl:
    def test_published_pseudo_labeling_row(self):
        gaps = LogitGaps(0.010, 0.795, 0.010, 0.769, 0.010, 0.035, 0.010, 0.009)
        assert abs(compute_agl(gaps) - 0.94) <= 0.005

    def test_published_centroid_method_row(self):
        gaps = LogitGaps(0.009, 0.746, 0.009, 0.745, 0.009, 0.014, 0.009, 0.011)
        assert abs(compute_agl(gaps) - 0.96) <= 0.005

    def test_zero_gaps_give_one(self):
        assert compute_agl(LogitGaps(0, 1, 0, 1, 0, 0, 0, 0)) == 1.0

    def test_gap_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            compute_agl(LogitGaps(0, 1, 0, 1, 1.2, 0, 0, 0))

    def test_monotone_in_each_gap(self):
        base = LogitGaps(0, 0, 0, 0, 0.2, 0.3, 0.1, 0.05)
        score = compute_agl(base)
        for field in ("g_f", "g_r", "g_tf", "g_tr"):
            smaller = LogitGaps(**{**base.to_dict(), field: 0.01})
            assert compute_agl(smaller) >= score


class TestAgr:
    def test_published_centroid_method_row(self):
        scores = ReprScores({
            "office-home": repr_row(0.025, 0.907),
            "cub": repr_row(0.021, 0.832),
            "domainnet": repr_row(0.007, 0.849),
        })
        assert abs(compute_agr(scores, "random") - 0.85) <= 0.005

    def test_published_pseudo_labeling_row(self):
        scores = ReprScores({
            "office-home": repr_row(0.030, 0.916),
            "cub": repr_row(0.064, 0.847),
            "domainnet": repr_row(0.020, 0.845),
        })
        assert abs(compute_agr(scores, "random") - 0.84) <= 0.005

    def test_perfect_scores_give_one(self):
        scores = ReprScores({"a": repr_row(0.0, 1.0), "b": repr_row(0.0, 1.0)})
        assert compute_agr(scores, "random") == 1.0

    def test_top_scenario_uses_only_related_dataset(self):
        scores = ReprScores({"rel": repr_row(0.1, 0.8), "other": repr_row(0.5, 0.1)})
        assert compute_agr(scores, "top", "rel") == pytest.approx((1 - 0.1) * 0.8)

    def test_top_scenario_missing_related_rejected(self):
        scores = ReprScores({"a": repr_row(0.1, 0.8)})
        with pytest.raises(ConfigError):
            compute_agr(scores, "top", "missing")

    def test_monotone_in_cka(self):
        low = ReprScores({"a": repr_row(0.1, 0.5)})
        high = ReprScores({"a": repr_row(0.1, 0.6)})
        assert compute_agr(high, "random") > compute_agr(low, "random")


class TestHlr:
    def test_published_rows(self):
        assert abs(compute_hlr(0.96, 0.85) - 0.90) <= 0.005
        assert abs(compute_hlr(0.94, 0.84) - 0.89) <= 0.005

    def test_perfect_inputs(self):
        assert compute_hlr(1.0, 1.0) == 1.0

    def test_zero_limit(self):
        assert compute_hlr(0.0, 0.9) == 0.0
        assert compute_hlr(0.9, 0.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            compute_hlr(1.2, 0.5)

    def test_between_min_and_max_and_below_geometric_mean(self):
        rng = make_rng(0, 0)
        for _ in range(200):
            a, b = rng.uniform(0.01, 1.0, 2)
            h = compute_hlr(a, b)
            assert min(a, b) - 1e-12 <= h <= max(a, b) + 1e-12
            assert h <= np.sqrt(a * b) + 1e-12


def hsic_double_sum(k, l):
    n = k.shape[0]
    h = np.eye(n) - np.ones((n, n)) / n
    kc, lc = h @ k @ h, h @ l @ h
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += kc[i, j] * lc[i, j]
    return total / (n - 1) ** 2


def cka_oracle(xa, xb):
    ka, kb = xa @ xa.T, xb @ xb.T
    return hsic_double_sum(ka, kb) / np.sqrt(
        hsic_double_sum(ka, ka) * hsic_double_sum(kb, kb)
    )


class TestCka:
    def test_self_similarity_is_exactly_one(self):
        x = make_rng(1, 0).standard_normal((8, 3))
        assert compute_cka(x, x) == 1.0

    def test_self_similarity_of_copies(self):
        x = make_rng(1, 1).standard_normal((8, 3))
        assert abs(compute_cka(x, x.copy()) - 1.0) <= 1e-9

    def test_orthogonal_transform_invariance(self):
        rng = make_rng(2, 0)
        x = rng.standard_normal((10, 5))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        assert abs(compute_cka(x, x @ q) - 1.0) <= 1e-9

    def test_isotropic_scaling_invariance(self):
        x = make_rng(3, 0).standard_normal((9, 4))
        assert abs(compute_cka(x, 3.7 * x) - 1.0) <= 1e-9
        y = make_rng(3, 1).standard_normal((9, 6))
        assert abs(compute_cka(x, y) - compute_cka(x, 0.01 * y)) <= 1e-9

    def test_matches_double_sum_oracle(self):
        rng = make_rng(4, 0)
        xa = rng.standard_normal((8, 3))
        xb = rng.standard_normal((8, 5))
        assert abs(compute_cka(xa, xb) - cka_oracle(xa, xb)) <= 1e-9

    def test_symmetry_and_range(self):
        for seed in range(20):
            rng = make_rng(seed, 5)
            xa = rng.standard_normal((7, 3))
            xb = rng.standard_normal((7, 4))
            v = compute_cka(xa, xb)
            assert abs(v - compute_cka(xb, xa)) <= 1e-9
            assert 0.0 <= v <= 1.0 + 1e-9

    def test_constant_features_score_zero(self):
        x = make_rng(5, 0).standard_normal((6, 3))
        assert compute_cka(np.ones((6, 2)), x) == 0.0

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            compute_cka(np.ones((5, 2)), np.ones((6, 2)))

    def test_too_few_rows_rejected(self):
        with pytest.raises(DegenerateInputError):
            compute_cka(np.ones((2, 2)), np.ones((2, 2)))


def cka_three_hsic_oracle(xa, xb):
    """The scalar CKA form with each HSIC term centering its own Grams."""
    xa = _frobenius_rescale(as_matrix(xa))
    xb = _frobenius_rescale(as_matrix(xb))
    ka, kb = gram_linear(xa), gram_linear(xb)
    h_ab, h_aa, h_bb = hsic(ka, kb), hsic(ka, ka), hsic(kb, kb)
    if h_aa < 1e-12 or h_bb < 1e-12:
        return 0.0
    if xa.shape == xb.shape and np.array_equal(xa, xb):
        return 1.0
    return h_ab / np.sqrt(h_aa * h_bb)


# Feature-space CKA sums in a different order from the three-HSIC Gram
# form; the largest difference seen over 400 of these inputs was 3.9e-15.
CKA_ORACLE_TOL = 1e-12


class TestCkaExactness:
    """Feature-space CKA agrees with the three-HSIC Gram form within
    CKA_ORACLE_TOL, keeps its floor and identity rules exactly, and a
    prepared side scores bit-identically to its raw features."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_inputs_bit_identical(self, seed):
        rng = make_rng(seed, 11)
        xa = rng.standard_normal((256, 16))
        xb = xa + 0.3 * rng.standard_normal((256, 16))
        assert abs(compute_cka(xa, xb) - cka_three_hsic_oracle(xa, xb)) <= CKA_ORACLE_TOL
        xc = rng.standard_normal((40, 7))
        xd = rng.standard_normal((40, 3))
        assert abs(compute_cka(xc, xd) - cka_three_hsic_oracle(xc, xd)) <= CKA_ORACLE_TOL

    def test_collapsed_astronomical_features_bit_identical(self):
        # A diverged model's features: one shared direction near 1e181, so
        # the rescale divides by the peak before the Frobenius step.
        rng = make_rng(7, 11)
        direction = rng.standard_normal(16)
        collapsed = 1e181 * (direction + 0.05 * rng.standard_normal((256, 16)))
        related = collapsed / 1e181 + 0.05 * rng.standard_normal((256, 16))
        v = compute_cka(collapsed, related)
        assert 0.0 < v < 1.0
        assert abs(v - cka_three_hsic_oracle(collapsed, related)) <= CKA_ORACLE_TOL
        # Near-total collapse falls under the self-HSIC floor on both paths.
        flat = 1e181 * (direction + 1e-3 * rng.standard_normal((256, 16)))
        assert compute_cka(flat, related) == cka_three_hsic_oracle(flat, related) == 0.0

    def test_identical_inputs_still_exactly_one(self):
        x = make_rng(8, 11).standard_normal((256, 16))
        assert compute_cka(x, x) == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_prepared_sides_bit_identical(self, seed):
        rng = make_rng(seed, 12)
        xa = rng.standard_normal((256, 16))
        xb = xa + 0.3 * rng.standard_normal((256, 16))
        want = compute_cka(xa, xb)
        assert compute_cka(cka_side(xa), cka_side(xb)) == want
        assert compute_cka(xa, cka_side(xb)) == compute_cka(cka_side(xa), xb) == want
        assert compute_cka(cka_side(xa), cka_side(xa)) == 1.0

    def test_prepared_sides_of_collapsed_features_bit_identical(self):
        rng = make_rng(9, 12)
        direction = rng.standard_normal(16)
        collapsed = 1e181 * (direction + 0.05 * rng.standard_normal((256, 16)))
        related = collapsed / 1e181 + 0.05 * rng.standard_normal((256, 16))
        want = compute_cka(collapsed, related)
        assert 0.0 < want < 1.0
        assert compute_cka(cka_side(collapsed), cka_side(related)) == want
        flat = 1e181 * (direction + 1e-3 * rng.standard_normal((256, 16)))
        assert compute_cka(cka_side(flat), cka_side(related)) == 0.0
        assert compute_cka(flat, related) == 0.0


def oracle_knn_accuracy(features, labels, k, split_seed):
    """Brute-force reimplementation: loops, insertion into a sorted list,
    manual vote counting; shares only the tie-break contract."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = make_rng(split_seed, 0)
    train_idx, test_idx = stratified_split(labels, 0.8, rng)
    num_classes = int(labels.max()) + 1

    def unit(v):
        n = np.linalg.norm(v)
        return v / n if n > 0 else v

    correct = 0
    for ti in test_idx:
        uq = unit(features[ti])
        entries = []
        for rank, tj in enumerate(train_idx):
            d = 1.0 - float(np.dot(unit(features[tj]), uq))
            entries.append((d, int(labels[tj]), rank))
        entries.sort()
        counts = [0] * num_classes
        for d, lab, _ in entries[:k]:
            counts[lab] += 1
        best = 0
        for c in range(num_classes):
            if counts[c] > counts[best]:
                best = c
        correct += int(best == labels[ti])
    return correct / len(test_idx)


class TestKnn:
    def test_two_separated_clusters_k1(self):
        rng = make_rng(0, 7)
        x = np.vstack([
            np.array([10.0, 0.0]) + 0.01 * rng.standard_normal((20, 2)),
            np.array([0.0, 10.0]) + 0.01 * rng.standard_normal((20, 2)),
        ])
        y = np.repeat([0, 1], 20)
        assert compute_knn_accuracy(x, y, k=1, split_seed=1) == 1.0

    def test_identical_features_predict_lowest_class(self):
        x = np.ones((40, 3))
        y = np.repeat([0, 1], 20)
        preds = knn_predict(x[:30], np.repeat([0, 1], 15), x[30:], 5, 2)
        assert np.all(preds == 0)

    def test_matches_brute_force_oracle(self):
        for inst in range(30):
            rng = make_rng(900 + inst, 0)
            c = int(rng.integers(2, 5))
            per = int(rng.integers(10, 25))
            protos = rng.standard_normal((c, 6))
            x = np.vstack([protos[i] + 0.8 * rng.standard_normal((per, 6))
                           for i in range(c)])
            y = np.repeat(np.arange(c), per)
            assert compute_knn_accuracy(x, y, 5, inst) == oracle_knn_accuracy(x, y, 5, inst)

    def test_deterministic(self):
        rng = make_rng(1, 8)
        x = rng.standard_normal((60, 4))
        y = np.repeat(np.arange(3), 20)
        assert compute_knn_accuracy(x, y, 5, 3) == compute_knn_accuracy(x, y, 5, 3)

    def test_overflowing_rows_predict_as_scaled_down_rows(self):
        # Row norms overflow above about 1e154; cosine k-NN must not see it.
        rng = make_rng(5, 8)
        protos = rng.standard_normal((3, 6))
        x = np.vstack([p + 0.5 * rng.standard_normal((20, 6)) for p in protos]) * 1e200
        y = np.repeat(np.arange(3), 20)
        big = knn_predict(x[::2], y[::2], x[1::2], 5, 3)
        small = knn_predict(x[::2] * 1e-190, y[::2], x[1::2] * 1e-190, 5, 3)
        assert np.array_equal(big, small)
        assert set(big.tolist()) == {0, 1, 2}

    def test_sparse_class_rejected_with_class_named(self):
        x = make_rng(2, 8).standard_normal((26, 3))
        y = np.array([0] * 20 + [1] * 6)
        with pytest.raises(DegenerateInputError, match="class 1"):
            compute_knn_accuracy(x, y, k=5, split_seed=0)


def knn_predict_per_query(train_x, train_y, test_x, k, num_classes):
    """knn_predict as one matrix-vector product and one lexsort per query:
    the reference the batched form must match bit for bit."""
    un_train = _normalize_rows(np.asarray(train_x, dtype=np.float64))
    un_test = _normalize_rows(np.asarray(test_x, dtype=np.float64))
    labels = np.asarray(train_y, dtype=np.int64)
    idx = np.arange(labels.size)
    preds = np.empty(un_test.shape[0], dtype=np.int64)
    for i in range(un_test.shape[0]):
        dist = 1.0 - un_train @ un_test[i]
        order = np.lexsort((idx, labels, dist))
        votes = np.bincount(labels[order[:k]], minlength=num_classes)
        preds[i] = int(np.argmax(votes))
    return preds


class TestKnnBatchedMatchesPerQuery:
    def _check(self, train_x, train_y, test_x, k, num_classes):
        got = knn_predict(train_x, train_y, test_x, k, num_classes)
        want = knn_predict_per_query(train_x, train_y, test_x, k, num_classes)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_inputs(self, seed):
        rng = make_rng(seed, 13)
        c, d = int(rng.integers(2, 7)), int(rng.integers(2, 20))
        n, q, k = int(rng.integers(10, 300)), int(rng.integers(1, 80)), int(rng.integers(1, 8))
        protos = rng.standard_normal((c, d))
        y = rng.integers(0, c, n)
        train_x = protos[y] + rng.standard_normal((n, d))
        test_x = protos[rng.integers(0, c, q)] + rng.standard_normal((q, d))
        self._check(train_x, y, test_x, k, c)

    @pytest.mark.parametrize("noise", [1e-9, 1e-8, 1e-7])
    def test_collapsed_near_tied_features(self, noise):
        # A collapsed model's features: every row near one direction at
        # 1e181, so cosine distances differ only in their last bits.
        rng = make_rng(14, 13)
        direction = np.abs(rng.standard_normal(16))
        x = 1e181 * (direction + noise * rng.standard_normal((300, 16)))
        y = np.repeat(np.arange(5), 60)
        self._check(x[::2], y[::2], x[1::2][:64], 5, 5)
        self._check(x[60:], y[60:], x[:60], 5, 5)

    def test_rows_near_overflow(self):
        rng = make_rng(15, 13)
        protos = rng.standard_normal((3, 6))
        y = np.repeat(np.arange(3), 30)
        x = (protos[y] + 0.5 * rng.standard_normal((90, 6))) * 1e200
        self._check(x[::2], y[::2], x[1::2], 5, 3)

    def test_all_zero_rows(self):
        rng = make_rng(16, 13)
        y = np.repeat(np.arange(4), 25)
        x = rng.standard_normal((100, 8))
        x[::7] = 0.0
        self._check(x[::2], y[::2], x[1::2], 5, 4)
        self._check(np.zeros((50, 8)), y[::2], x[1::2], 5, 4)


class TestKnnSplit:
    @pytest.mark.parametrize("seed", range(5))
    def test_prepared_split_scores_identically(self, seed):
        rng = make_rng(seed, 17)
        y = np.repeat(np.arange(4), 20)
        x = rng.standard_normal((4, 6))[y] + rng.standard_normal((80, 6))
        split = knn_split(y, 5, seed)
        assert compute_knn_accuracy(x, split) == compute_knn_accuracy(x, y, 5, seed)
        assert compute_knn_accuracy(2.0 * x, split) == compute_knn_accuracy(2.0 * x, y, 5, seed)

    def test_sparse_class_rejected_when_drawn(self):
        y = np.array([0] * 20 + [1] * 6)
        with pytest.raises(DegenerateInputError, match="class 1"):
            knn_split(y, 5, 0)

    def test_feature_count_checked_against_split(self):
        split = knn_split(np.repeat(np.arange(2), 20), 5, 0)
        with pytest.raises(ShapeError):
            compute_knn_accuracy(np.ones((39, 3)), split)


class TestMia:
    def _model(self):
        # 1-d input, 2 classes: logit gap grows with |x|.
        return MlpParams(
            W1=np.array([[1.0, -1.0]]), b1=np.zeros(2),
            W2=np.array([[1.0, -1.0], [-1.0, 1.0]]), b2=np.zeros(2),
            Whead=np.array([[6.0, -6.0], [-6.0, 6.0]]), bhead=np.zeros(2),
        )

    def test_separable_construction_gives_full_efficacy(self):
        model = self._model()
        members = Dataset(np.full((30, 1), 3.0), np.zeros(30, dtype=int), 2)
        nonmembers = Dataset(np.full((30, 1), 0.12), np.zeros(30, dtype=int), 2)
        forget = Dataset(np.full((20, 1), 0.1), np.ones(20, dtype=int), 2)
        assert max_confidence(model, members.X).min() > 0.999
        eff = mia_efficacy(model, members, nonmembers, forget)
        assert eff >= 0.99

    def test_members_looking_forget_set_scores_zero(self):
        model = self._model()
        members = Dataset(np.full((30, 1), 3.0), np.zeros(30, dtype=int), 2)
        nonmembers = Dataset(np.full((30, 1), 0.12), np.zeros(30, dtype=int), 2)
        forget = Dataset(np.full((20, 1), 3.0), np.ones(20, dtype=int), 2)
        assert mia_efficacy(model, members, nonmembers, forget) <= 0.01

    def test_unbalanced_sets_rejected(self):
        model = self._model()
        a = Dataset(np.ones((5, 1)), np.zeros(5, dtype=int), 2)
        b = Dataset(np.ones((6, 1)), np.zeros(6, dtype=int), 2)
        with pytest.raises(ConfigError):
            mia_efficacy(model, a, b, a)

    def test_empty_set_rejected(self):
        model = self._model()
        a = Dataset(np.ones((5, 1)), np.zeros(5, dtype=int), 2)
        empty = Dataset(np.empty((0, 1)), np.empty(0, dtype=int), 2)
        with pytest.raises(DegenerateInputError):
            mia_efficacy(model, a, a, empty)

    def test_svm_label_flip_symmetry(self):
        rng = make_rng(3, 9)
        feats = np.concatenate([rng.normal(1.0, 0.2, 50), rng.normal(-1.0, 0.2, 50)])
        labels = np.concatenate([np.ones(50), np.zeros(50)])
        w, b = fit_linear_svm(feats, labels, seed=4)
        w2, b2 = fit_linear_svm(feats, 1 - labels, seed=4)
        probe = rng.normal(0.0, 1.5, 200)
        original = probe * w[0] + b > 0
        flipped = probe * w2[0] + b2 > 0
        assert np.array_equal(original, ~flipped)

    def test_single_class_training_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit_linear_svm(np.ones(10), np.ones(10), seed=0)

    def test_two_feature_columns_rejected(self):
        with pytest.raises(ShapeError):
            fit_linear_svm(np.ones((10, 2)), np.arange(10) % 2, seed=0)


def pegasos_array_oracle(features, labels01, seed, epochs=200, l2=1e-3):
    """The Pegasos loop on 1-element numpy arrays, as fit_linear_svm ran it
    before moving to plain floats."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    y = np.where(np.asarray(labels01) > 0, 1.0, -1.0)
    rng = make_rng(seed, 0)
    w = np.zeros(x.shape[1])
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(x.shape[0]):
            t += 1
            eta = 1.0 / (l2 * t)
            margin = y[i] * (x[i] @ w + b)
            w *= 1.0 - eta * l2
            if margin < 1.0:
                w += eta * y[i] * x[i]
                b += eta * y[i]
    return w, b


def standardized_attack_features(seed, per_class):
    """Overlapping member/non-member confidences, standardized as the MIA does."""
    rng = make_rng(seed, 21)
    feats = np.concatenate([1.0 - rng.exponential(0.02, per_class),
                            1.0 - rng.exponential(0.05, per_class)])
    labels = np.concatenate([np.ones(per_class), np.zeros(per_class)])
    return (feats - feats.mean()) / feats.std(), labels


class TestSvmMatchesArrayOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_instance_bit_identical(self, seed):
        feats, labels = standardized_attack_features(seed, 60)
        w, b = fit_linear_svm(feats, labels, seed=seed)
        w_ref, b_ref = pegasos_array_oracle(feats, labels, seed)
        assert w.shape == (1,)
        assert w[0] == w_ref[0] and b == b_ref
        w_col, b_col = fit_linear_svm(feats[:, None], labels, seed=seed, epochs=20)
        w_ref, b_ref = pegasos_array_oracle(feats[:, None], labels, seed, epochs=20)
        assert w_col[0] == w_ref[0] and b_col == b_ref

    def test_default_mia_size_bit_identical(self):
        # 375 members + 375 non-members: the balanced set the default MIA trains on.
        feats, labels = standardized_attack_features(3, 375)
        w, b = fit_linear_svm(feats, labels, seed=5)
        w_ref, b_ref = pegasos_array_oracle(feats, labels, 5)
        assert w[0] == w_ref[0] and b == b_ref


LAMBDA = 1e-3  # the attack SVM's regularization strength


def svm_objective(w, b, feats, labels01):
    y = np.where(labels01 > 0, 1.0, -1.0)
    return 0.5 * LAMBDA * w * w + np.maximum(0.0, 1.0 - y * (w * feats + b)).mean()


def grid_minimum(feats, labels01, ws):
    """Least objective over the w grid, each w with its best b: the hinge
    sum is piecewise linear in b, so b is searched over every breakpoint."""
    y = np.where(labels01 > 0, 1.0, -1.0)
    best = np.inf
    for chunk in np.array_split(ws, max(1, ws.size // 1000)):
        w = chunk[:, None]
        bs = (y - w * feats)[:, :, None]          # (w, breakpoint, 1)
        hinge = np.maximum(0.0, 1.0 - y * ((w * feats)[:, None, :] + bs)).mean(axis=2)
        best = min(best, (0.5 * LAMBDA * chunk ** 2 + hinge.min(axis=1)).min())
    return best


class TestExactSvm:
    @pytest.mark.parametrize("seed", range(4))
    def test_no_worse_than_a_fine_w_grid(self, seed):
        rng = make_rng(seed, 31)
        n = 6 + seed
        feats = np.concatenate([rng.normal(0.5, 1.0, n), rng.normal(-0.5, 1.0, n)])
        labels = np.concatenate([np.ones(n), np.zeros(n)])
        w, b = solve_linear_svm(feats, labels)
        exact = svm_objective(w[0], b, feats, labels)
        # |w*| <= sqrt(2 / LAMBDA); then 1e-4 apart around the solution.
        ws = np.linspace(-np.sqrt(2 / LAMBDA), np.sqrt(2 / LAMBDA), 20001)
        assert exact <= grid_minimum(feats, labels, ws) + 1e-9
        near = w[0] + np.linspace(-0.05, 0.05, 1001)
        assert exact <= grid_minimum(feats, labels, near) + 1e-9

    def test_no_worse_than_pegasos(self):
        feats, labels = standardized_attack_features(3, 375)
        w, b = solve_linear_svm(feats, labels)
        w_sgd, b_sgd = fit_linear_svm(feats, labels, seed=5)
        assert svm_objective(w[0], b, feats, labels) \
            <= svm_objective(w_sgd[0], b_sgd, feats, labels)

    def test_row_order_does_not_matter(self):
        feats, labels = standardized_attack_features(4, 120)
        w, b = solve_linear_svm(feats, labels)
        for k in range(3):
            perm = make_rng(k, 32).permutation(labels.size)
            w_p, b_p = solve_linear_svm(feats[perm], labels[perm])
            assert w_p[0] == w[0] and b_p == b

    def test_zero_spread_feature_gives_zero_and_full_efficacy(self):
        w, b = solve_linear_svm(np.full(10, 0.3), np.arange(10) % 2)
        assert w.shape == (1,) and w[0] == 0.0 and b == 0.0
        # Every attack row has the same confidence: no membership signal.
        model = TestMia()._model()
        same = Dataset(np.full((30, 1), 3.0), np.zeros(30, dtype=int), 2)
        assert mia_efficacy(model, same, same, same) == 1.0

    def test_shape_and_class_checks(self):
        with pytest.raises(ShapeError):
            solve_linear_svm(np.ones((10, 2)), np.arange(10) % 2)
        with pytest.raises(DegenerateInputError):
            solve_linear_svm(np.arange(10.0), np.ones(10))


class TestLogitGapsAndLastLayer:
    def _toy(self):
        from unlbench.data import SyntheticSpec, DownstreamSpec, generate_universe, split_random_forget
        from unlbench.model import init_params, sgd_train
        spec = SyntheticSpec(ambient_dim=16, num_train_classes=6, per_class_train=10,
                             per_class_test=5, prototype_seed=3,
                             downstream_specs=(DownstreamSpec("d", 3, (0,), 0.9, 8),))
        train, test, _, _ = generate_universe(spec)
        cfg = TrainConfig(lr=0.1, epochs=20, batch_size=16, seed=2)
        theta_o = sgd_train(init_params(16, 6, 2), train, cfg)
        theta_r = sgd_train(init_params(16, 6, 9), train, cfg)
        split = split_random_forget(train, test, 2, seed=4)
        return theta_o, theta_r, split

    def test_gaps_match_hand_computation(self):
        from unlbench.model import accuracy
        theta_o, theta_r, split = self._toy()
        gaps = logit_gaps(theta_o, theta_r, split)
        assert gaps.fa == accuracy(theta_o, split.Df)
        assert gaps.g_f == abs(accuracy(theta_o, split.Df) - accuracy(theta_r, split.Df))
        for g in gaps.gaps():
            assert 0.0 <= g <= 1.0

    def test_frozen_both_runs_give_cka_one(self):
        from unlbench.unlearning import UnlearnConfig
        theta_o, theta_r, split = self._toy()
        cfg = UnlearnConfig("PL", TrainConfig(lr=0.05, epochs=2, seed=5,
                                              freeze_encoder=True))
        report = last_layer_analysis(theta_o, theta_r, split, cfg)
        assert report.cka_full_vs_head == 1.0
        assert report.agl_gap == 0.0


class TestReportSerialization:
    def test_round_trip_is_lossless(self):
        report = MetricsReport(
            method="PL", scenario="random-5", seed=42, status="ok",
            logit=gaps_row(0.0, 0.9, 0.0, 0.85),
            repr_scores=ReprScores({"a": repr_row(0.02, 0.9)}),
            agl=0.9, agr=0.8, hlr=0.847, mia=0.95, sample_visits=1250,
            provenance={"repeat": 0},
        )
        back = MetricsReport.from_dict(report.to_dict())
        assert back.to_dict() == report.to_dict()
