import numpy as np
import pytest
from numpy.testing import assert_allclose

from rctc.factorizations import FactorizationError, ldl_unit_lower


def test_ldl_ar1_two_by_two():
    K = np.array([[1.0, 0.9], [0.9, 1.0]])
    L, d = ldl_unit_lower(K)
    assert_allclose(L, [[1.0, 0.0], [0.9, 1.0]], atol=1e-15)
    assert_allclose(d, [1.0, 0.19], atol=1e-15)


def test_ldl_ar1_three_by_three():
    # prediction coefficients of the AR(1) covariance: lag-k entry is rho^k
    K = np.array([[1.0, 0.9, 0.81], [0.9, 1.0, 0.9], [0.81, 0.9, 1.0]])
    L, d = ldl_unit_lower(K)
    assert_allclose(L[2], [0.81, 0.9, 1.0], atol=1e-14)
    assert_allclose(d, [1.0, 0.19, 0.19], atol=1e-14)


def test_ldl_reconstructs_random_spd():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 8):
        A = rng.normal(size=(n, n))
        K = A @ A.T + n * np.eye(n)
        L, d = ldl_unit_lower(K)
        assert_allclose(L @ np.diag(d) @ L.T, K, rtol=1e-12, atol=1e-12)
        assert_allclose(np.triu(L, 1), 0.0)
        assert_allclose(np.diag(L), 1.0)
        assert np.all(d > 0)


def test_ldl_rejects_indefinite():
    with pytest.raises(FactorizationError):
        ldl_unit_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(FactorizationError):
        ldl_unit_lower(np.zeros((2, 2)))
