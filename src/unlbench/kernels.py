"""Dense Gram-matrix primitives: linear kernels, double centering, HSIC.

All math runs in 64-bit floats.  Matrices are plain 2-D numpy arrays in
row-major order; helpers validate shape and finiteness at the public
boundaries so downstream metric code can assume clean inputs.
"""

import numpy as np

from .errors import DegenerateInputError, NonFiniteError, ShapeError

__all__ = ["as_matrix", "gram_linear", "center_gram", "hsic", "hsic_centered"]


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array, rejecting NaN/Inf."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def gram_linear(x: np.ndarray) -> np.ndarray:
    """Linear Gram matrix K = X Xᵀ of the row vectors of X.

    The result is symmetrized so K[i, j] == K[j, i] bit-exactly.
    """
    x = as_matrix(x, "features")
    if x.shape[0] < 2:
        raise DegenerateInputError(
            f"gram matrix needs at least 2 rows, got {x.shape[0]}"
        )
    k = x @ x.T
    return (k + k.T) / 2.0


def center_gram(k: np.ndarray) -> np.ndarray:
    """Double-center a symmetric Gram matrix: H K H with H = I - 11ᵀ/n.

    Every row and column of the output sums to zero (within roundoff).
    """
    k = as_matrix(k, "gram")
    n, m = k.shape
    if n != m:
        raise ShapeError(f"gram matrix must be square, got {k.shape}")
    if not np.allclose(k, k.T, atol=1e-9, rtol=0.0):
        raise ShapeError("gram matrix must be symmetric within 1e-9")
    row_means = k.mean(axis=1, keepdims=True)
    col_means = k.mean(axis=0, keepdims=True)
    centered = k - row_means - col_means + k.mean()
    return (centered + centered.T) / 2.0


def hsic(k: np.ndarray, l: np.ndarray) -> float:
    """Hilbert-Schmidt independence criterion of two Gram matrices.

    Returns tr(HKH · HLH) / (n - 1)²; centering is applied internally, so
    callers pass raw Gram matrices.  hsic(K, K) is non-negative.
    """
    k = as_matrix(k, "K")
    l = as_matrix(l, "L")
    if k.shape != l.shape or k.shape[0] != k.shape[1]:
        raise ShapeError(f"HSIC needs equal square matrices, got {k.shape} and {l.shape}")
    n = k.shape[0]
    if n < 2:
        raise DegenerateInputError("HSIC needs matrices of size >= 2")
    return hsic_centered(center_gram(k), center_gram(l))


def hsic_centered(kc: np.ndarray, lc: np.ndarray) -> float:
    """HSIC of two already double-centered Gram matrices of equal shape.

    Callers that reuse one centered matrix in several HSIC terms (CKA) center
    it once with center_gram and pass it here; hsic(K, L) is exactly
    hsic_centered(center_gram(K), center_gram(L)).
    """
    if kc.shape != lc.shape:
        raise ShapeError(f"HSIC needs equal shapes, got {kc.shape} and {lc.shape}")
    n = kc.shape[0]
    # tr(Kc @ Lc) for symmetric matrices equals the elementwise product sum.
    return float(np.sum(kc * lc) / (n - 1) ** 2)
