"""Small dense matrix factorizations used by the transform designs."""
from __future__ import annotations

import numpy as np


class FactorizationError(ValueError):
    """Matrix is not positive definite enough to factor."""


def ldl_unit_lower(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a symmetric positive definite K as L @ diag(d) @ L.T.

    L is unit lower triangular.  Row i of L holds the coefficients of the
    best linear predictor of component i from components 0..i-1 and d[i] is
    the corresponding prediction error variance, which is why this
    factorization is the natural construction for prediction-based causal
    transforms.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if K.ndim != 2 or K.shape != (n, n):
        raise FactorizationError(f"expected a square matrix, got shape {K.shape}")
    L = np.eye(n)
    d = np.zeros(n)
    for j in range(n):
        d[j] = K[j, j] - np.dot(L[j, :j] ** 2, d[:j])
        if d[j] <= 0.0:
            raise FactorizationError(
                f"pivot {j} is {d[j]:.3e}; matrix is not positive definite"
            )
        for i in range(j + 1, n):
            L[i, j] = (K[i, j] - np.dot(L[i, :j] * L[j, :j], d[:j])) / d[j]
    return L, d

