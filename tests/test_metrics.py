"""Metric suite: unified scores against published rows, CKA properties,
k-NN oracle equivalence, and the membership inference attack."""

import numpy as np
import pytest

from unlbench.errors import (ConfigError, DegenerateInputError, LabelError, NonFiniteError,
                             ShapeError)
from unlbench.metrics import (
    DownstreamRepr,
    LogitGaps,
    ReprScores,
    compute_agl,
    compute_agr,
    compute_cka,
    compute_hlr,
    compute_knn_accuracy,
    _frobenius_rescale,
    normalize_rows,
    cka_side,
    fit_linear_svm,
    knn_predict,
    knn_split,
    last_layer_analysis,
    logit_gaps,
    mia_efficacy,
    solve_linear_svm,
    split_accuracies,
    split_logits,
    stratified_split,
)
from unlbench.kernels import as_matrix, gram_linear, hsic
from unlbench.model import MlpParams, TrainConfig, forward, softmax
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
    un_train = normalize_rows(np.asarray(train_x, dtype=np.float64))
    un_test = normalize_rows(np.asarray(test_x, dtype=np.float64))
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

    @staticmethod
    def _queries_tied_across_labels(train_x, train_y, test_x, k):
        """Queries whose k-th distance is shared by more train rows than
        places are left, with more than one label among those rows."""
        un_train = normalize_rows(np.asarray(train_x, dtype=np.float64))
        un_test = normalize_rows(np.asarray(test_x, dtype=np.float64))
        tied = 0
        for q in un_test:
            dist = 1.0 - un_train @ q
            kth = np.sort(dist)[min(k, dist.size) - 1]
            at = dist == kth
            places = min(k, dist.size) - int((dist < kth).sum())
            tied += int(at.sum() > places and np.unique(train_y[at]).size > 1)
        return tied

    @pytest.mark.parametrize("seed", range(6))
    def test_rounded_features_tie_at_kth_distance(self, seed):
        # Integer features on a small grid repeat the same directions, so
        # the k-th distance is shared by rows of different labels.
        rng = make_rng(seed, 18)
        c = int(rng.integers(2, 6))
        y = rng.integers(0, c, 90)
        x = np.round(1.5 * rng.standard_normal((130, 2)))
        for k in (1, 4, 5, 9):
            self._check(x[:90], y, x[90:], k, c)
        assert self._queries_tied_across_labels(x[:90], y, x[90:], 5) > 0

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_all_zero_train_features_tie_every_distance(self, k):
        # Every distance is 1.0; the neighbors are the k lowest labels.
        rng = make_rng(19, 13)
        y = rng.integers(0, 5, 40)
        test_x = rng.standard_normal((12, 6))
        self._check(np.zeros((40, 6)), y, test_x, k, 5)
        assert self._queries_tied_across_labels(np.zeros((40, 6)), y, test_x, k) == 12

    @pytest.mark.parametrize("k", [6, 7, 50])
    def test_k_at_or_above_train_rows(self, k):
        rng = make_rng(20, 13)
        train_x = rng.standard_normal((6, 4))
        y = np.array([2, 0, 1, 2, 1, 0])
        test_x = rng.standard_normal((9, 4))
        self._check(train_x, y, test_x, k, 3)
        self._check(train_x, y[[0, 0, 1, 1, 2, 2]], test_x, k, 3)


class TestKnnInputs:
    @pytest.mark.parametrize("where", ["train", "test"])
    def test_non_finite_features_rejected(self, where):
        x = make_rng(21, 13).standard_normal((20, 3))
        bad = x.copy()
        bad[4, 1] = np.nan
        train, test = (bad, x) if where == "train" else (x, bad)
        with pytest.raises(NonFiniteError, match=f"{where}_x"):
            knn_predict(train, np.arange(20) % 2, test, 5, 2)

    @pytest.mark.parametrize("n_train, labels, k, error", [
        (10, np.arange(10) % 2, 0, ConfigError),
        (10, np.arange(9) % 2, 5, ShapeError),
        (10, np.arange(11) % 2, 5, ShapeError),
        (0, np.arange(0), 5, DegenerateInputError),
        (10, np.arange(10) % 3, 5, LabelError),
        (10, np.arange(10) % 2 - 1, 5, LabelError),
    ])
    def test_malformed_input_rejected(self, n_train, labels, k, error):
        x = make_rng(22, 13).standard_normal((n_train, 3))
        with pytest.raises(error):
            knn_predict(x, labels, np.ones((4, 3)), k, 2)


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
    @staticmethod
    def confidences(x: float, n: int) -> np.ndarray:
        """The max-softmax confidence of a 1-d, 2-class model, whose logit
        gap grows with |x|, on n rows of value x."""
        model = MlpParams(
            W1=np.array([[1.0, -1.0]]), b1=np.zeros(2),
            W2=np.array([[1.0, -1.0], [-1.0, 1.0]]), b2=np.zeros(2),
            Whead=np.array([[6.0, -6.0], [-6.0, 6.0]]), bhead=np.zeros(2),
        )
        return softmax(forward(model, np.full((n, 1), x))[1]).max(axis=1)

    def test_separable_construction_gives_full_efficacy(self):
        members, nonmembers = self.confidences(3.0, 30), self.confidences(0.12, 30)
        assert members.min() > 0.999
        assert mia_efficacy(members, nonmembers, self.confidences(0.1, 20)) >= 0.99

    def test_members_looking_forget_set_scores_zero(self):
        members, nonmembers = self.confidences(3.0, 30), self.confidences(0.12, 30)
        assert mia_efficacy(members, nonmembers, self.confidences(3.0, 20)) <= 0.01

    def test_unbalanced_sets_rejected(self):
        a, b = self.confidences(1.0, 5), self.confidences(1.0, 6)
        with pytest.raises(ConfigError):
            mia_efficacy(a, b, a)

    def test_empty_set_rejected(self):
        a = self.confidences(1.0, 5)
        with pytest.raises(DegenerateInputError):
            mia_efficacy(a, a, self.confidences(1.0, 0))

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
        same = TestMia.confidences(3.0, 30)
        assert mia_efficacy(same, same, same) == 1.0

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
        theta_o, theta_r, split = self._toy()
        acc_r = split_accuracies(split_logits(theta_r, split), split)
        gaps = logit_gaps(split_logits(theta_o, split), acc_r, split)

        def hand(theta, d):
            return float((np.argmax(forward(theta, d.X)[1], axis=1) == d.y).mean())

        sets = (split.Df, split.Dr, split.Df_te, split.Dr_te)
        assert (gaps.fa, gaps.ra, gaps.tfa, gaps.tra) == tuple(hand(theta_o, d) for d in sets)
        assert gaps.gaps() == tuple(abs(hand(theta_o, d) - hand(theta_r, d)) for d in sets)
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

    def test_each_model_forwarded_once_per_split_set(self, monkeypatch):
        """theta_r's accuracies are computed once and both runs are scored
        against them."""
        from unlbench import metrics
        from unlbench.unlearning import UnlearnConfig
        theta_o, theta_r, split = self._toy()
        calls = []

        def recording(params, x):
            calls.append((params, len(x)))
            return forward(params, x)

        monkeypatch.setattr(metrics, "forward", recording)
        cfg = UnlearnConfig("PL", TrainConfig(lr=0.05, epochs=1, seed=5))
        last_layer_analysis(theta_o, theta_r, split, cfg)
        sizes = [split.Df.n, split.Dr.n, split.Df_te.n, split.Dr_te.n]
        assert [n for p, n in calls if p is theta_r] == sizes
        assert len(calls) == 3 * len(sizes)

    def test_each_model_forwarded_over_each_split_set_once_in_all(self, monkeypatch):
        """The full and head-only models' CKA features are their Dr_te
        features from the split forward, with the bits of a separate pass."""
        from dataclasses import replace
        from unlbench import harness, metrics
        from unlbench.unlearning import UnlearnConfig, run_unlearning
        theta_o, theta_r, split = self._toy()
        calls = []

        def recording(params, x):
            calls.append((params, len(x)))
            return forward(params, x)

        for module in (harness, metrics):
            monkeypatch.setattr(module, "forward", recording)
        cfg = UnlearnConfig("PL", TrainConfig(lr=0.05, epochs=1, seed=5))
        report = last_layer_analysis(theta_o, theta_r, split, cfg)
        monkeypatch.undo()
        rows = {}
        for params, n in calls:
            rows.setdefault(id(params), []).append(n)
        sizes = [split.Df.n, split.Dr.n, split.Df_te.n, split.Dr_te.n]
        assert list(rows.values()) == [sizes] * 3

        full = run_unlearning(theta_o, split, cfg).params
        head = run_unlearning(theta_o, split,
                              replace(cfg, base=replace(cfg.base, freeze_encoder=True))).params
        acc_r = split_accuracies(split_logits(theta_r, split), split)
        agl_full, agl_head = (compute_agl(logit_gaps(split_logits(m, split), acc_r, split))
                              for m in (full, head))
        cka = compute_cka(forward(full, split.Dr_te.X)[0], forward(head, split.Dr_te.X)[0])
        assert (report.cka_full_vs_head, report.agl_full, report.agl_head, report.agl_gap) == (
            cka, agl_full, agl_head, abs(agl_full - agl_head))
