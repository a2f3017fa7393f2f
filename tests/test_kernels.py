"""Gram/centering/HSIC contracts, checked against brute-force oracles."""

import numpy as np
import pytest

from unlbench.errors import DegenerateInputError, ShapeError
from unlbench.kernels import center_gram, gram_linear, hsic, hsic_centered
from unlbench.rng import make_rng


def brute_force_gram(x):
    n, p = x.shape
    k = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for t in range(p):
                k[i, j] += x[i, t] * x[j, t]
    return k


def centered_trace_oracle(k, l):
    """HSIC via the explicit H K H / H L H triple products and elementwise trace."""
    n = k.shape[0]
    h = np.eye(n) - np.ones((n, n)) / n
    kc = h @ k @ h
    lc = h @ l @ h
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += kc[i, j] * lc[j, i]
    return total / (n - 1) ** 2


class TestGramLinear:
    def test_two_by_one_identity_case(self):
        k = gram_linear(np.array([[1.0], [0.0]]))
        np.testing.assert_array_equal(k, [[1.0, 0.0], [0.0, 0.0]])

    def test_orthonormal_rows_give_identity(self):
        q, _ = np.linalg.qr(make_rng(5, 0).standard_normal((6, 6)))
        np.testing.assert_allclose(gram_linear(q.T[:4]), np.eye(4), atol=1e-12)

    def test_matches_dot_product_oracle(self):
        x = make_rng(1, 0).standard_normal((3, 2))
        np.testing.assert_allclose(gram_linear(x), brute_force_gram(x), atol=1e-12)

    def test_symmetry_exact(self):
        for seed in range(5):
            x = make_rng(seed, 0).standard_normal((7, 4))
            k = gram_linear(x)
            assert np.array_equal(k, k.T)

    def test_single_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            gram_linear(np.ones((1, 3)))


class TestCenterGram:
    def test_all_ones_centers_to_zero(self):
        np.testing.assert_allclose(center_gram(np.ones((4, 4))), 0.0, atol=1e-12)

    def test_idempotent_on_centered_input(self):
        k = gram_linear(make_rng(2, 0).standard_normal((6, 3)))
        once = center_gram(k)
        np.testing.assert_allclose(center_gram(once), once, atol=1e-12)

    def test_matches_triple_product_oracle(self):
        rng = make_rng(3, 0)
        a = rng.standard_normal((5, 5))
        k = a + a.T
        n = 5
        h = np.eye(n) - np.ones((n, n)) / n
        np.testing.assert_allclose(center_gram(k), h @ k @ h, atol=1e-12)

    def test_row_and_column_sums_vanish(self):
        for seed in range(10):
            k = gram_linear(make_rng(seed, 1).standard_normal((8, 3)))
            c = center_gram(k)
            assert np.abs(c.sum(axis=0)).max() <= 1e-9
            assert np.abs(c.sum(axis=1)).max() <= 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            center_gram(np.ones((3, 4)))


class TestHsic:
    def test_self_hsic_positive_for_nonconstant_gram(self):
        k = gram_linear(make_rng(4, 0).standard_normal((6, 3)))
        assert hsic(k, k) > 0

    def test_zero_matrix_gives_zero(self):
        k = gram_linear(make_rng(4, 1).standard_normal((5, 2)))
        assert hsic(k, np.zeros((5, 5))) == 0.0

    def test_matches_double_sum_oracle(self):
        rng = make_rng(6, 0)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        k, l = a @ a.T, b @ b.T
        assert abs(hsic(k, l) - centered_trace_oracle(k, l)) < 1e-10

    def test_symmetric_in_arguments(self):
        for seed in range(10):
            rng = make_rng(seed, 2)
            a = rng.standard_normal((7, 3))
            b = rng.standard_normal((7, 4))
            k, l = a @ a.T, b @ b.T
            assert abs(hsic(k, l) - hsic(l, k)) <= 1e-12

    def test_size_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            hsic(np.eye(3), np.eye(4))

    def test_equals_hsic_of_centered_grams(self):
        for seed in range(10):
            rng = make_rng(seed, 3)
            a = rng.standard_normal((9, 4))
            b = rng.standard_normal((9, 2))
            k, l = gram_linear(a), gram_linear(b)
            assert hsic(k, l) == hsic_centered(center_gram(k), center_gram(l))

    def test_centered_size_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            hsic_centered(np.zeros((3, 3)), np.zeros((4, 4)))
