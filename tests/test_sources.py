import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import toeplitz

from rctc.sources import (GaussMarkovModel, StationarityError, _toeplitz, ar1_covariance,
                          sample_path, validate_covariance)


class TestAr1Covariance:
    def test_white_noise_is_identity(self):
        assert_allclose(ar1_covariance(0.0, 1.0, 3), np.eye(3))

    def test_two_by_two(self):
        assert_allclose(ar1_covariance(0.9, 1.0, 2), [[1.0, 0.9], [0.9, 1.0]])

    def test_lag_two_entry(self):
        K = ar1_covariance(0.9, 1.0, 3)
        assert K[0, 2] == pytest.approx(0.81, abs=0)

    def test_toeplitz_structure(self):
        K = ar1_covariance(-0.7, 2.5, 6)
        for lag in range(6):
            band = np.diagonal(K, lag)
            assert np.all(band == band[0])

    def test_scaling_is_exact(self):
        base = ar1_covariance(0.6, 1.0, 5)
        scaled = ar1_covariance(0.6, 3.0, 5)
        assert np.array_equal(scaled, 3.0 * base)

    def test_rejects_nonstationary(self):
        with pytest.raises(StationarityError):
            ar1_covariance(1.0, 1.0, 3)
        with pytest.raises(StationarityError):
            ar1_covariance(-1.2, 1.0, 3)

    def test_rejects_bad_variance_and_size(self):
        with pytest.raises(ValueError):
            ar1_covariance(0.5, 0.0, 3)
        with pytest.raises(ValueError):
            ar1_covariance(0.5, 1.0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
def test_toeplitz_matches_scipy_exactly(n):
    c = np.random.default_rng(n).normal(size=n)
    assert np.array_equal(_toeplitz(c), toeplitz(c))
    assert np.array_equal(ar1_covariance(0.7, 2.5, n), toeplitz(2.5 * 0.7 ** np.arange(n)))


class TestGaussMarkovModel:
    def test_stationarity_enforced(self):
        with pytest.raises(StationarityError):
            GaussMarkovModel((1.01,), 1.0)
        with pytest.raises(StationarityError):
            GaussMarkovModel((0.9, 0.2), 1.0)  # root outside unit circle

    def test_order(self):
        assert GaussMarkovModel((0.5, 0.1), 1.0).order == 2

    def test_ar1_window_covariance_matches_formula(self):
        model = GaussMarkovModel.ar1(0.9, 0.19)
        assert_allclose(model.stationary_covariance(4), ar1_covariance(0.9, 1.0, 4),
                        rtol=1e-12)

    def test_unit_variance_helper(self):
        model = GaussMarkovModel.ar1_unit_variance(0.9)
        assert model.stationary_variance() == pytest.approx(1.0, rel=1e-12)

    def test_order_two_autocovariances_satisfy_recursion(self):
        model = GaussMarkovModel((0.5, -0.3), 1.0)
        g = model.autocovariances(6)
        for k in range(2, 6):
            assert g[k] == pytest.approx(0.5 * g[k - 1] - 0.3 * g[k - 2], rel=1e-10)


class TestSamplePath:
    def test_deterministic(self):
        model = GaussMarkovModel.ar1(0.9, 0.19)
        a = sample_path(model, 1000, seed=5)
        b = sample_path(model, 1000, seed=5)
        assert np.array_equal(a, b)

    def test_zero_length(self):
        assert sample_path(GaussMarkovModel.ar1(0.5, 1.0), 0, seed=0).size == 0

    def test_white_noise_variance(self):
        model = GaussMarkovModel.ar1(0.0, 1.0)
        x = sample_path(model, 10 ** 6, seed=11)
        assert np.var(x) == pytest.approx(1.0, rel=0.01)

    def test_ar1_lag_one_autocorrelation(self):
        model = GaussMarkovModel.ar1(0.9, 0.19)  # unit stationary variance
        x = sample_path(model, 10 ** 6, seed=12)
        corr = np.mean(x[1:] * x[:-1]) / np.var(x)
        assert corr == pytest.approx(0.9, rel=0.01)

    def test_empirical_window_covariance(self):
        model = GaussMarkovModel.ar1(0.9, 0.19)
        n = 4
        x = sample_path(model, 10 ** 6, seed=13)
        frames = x[: (x.size // n) * n].reshape(-1, n)
        emp = frames.T @ frames / frames.shape[0]
        assert_allclose(emp, ar1_covariance(0.9, 1.0, n), rtol=0.02, atol=0.02)

    def test_ar2_recursion_adds_the_drawn_innovations(self):
        model = GaussMarkovModel((0.5, -0.3), 0.7)
        x = sample_path(model, 5000, seed=9)
        rng = np.random.default_rng(9)
        rng.standard_normal(2)  # the stationary start
        innovations = np.sqrt(0.7) * rng.standard_normal(4998)
        assert_allclose(x[2:] - 0.5 * x[1:-1] + 0.3 * x[:-2], innovations,
                        rtol=0, atol=1e-12)

    def test_short_path_uses_stationary_init(self):
        model = GaussMarkovModel((0.5, -0.3), 1.0)
        draws = np.array([sample_path(model, 1, seed=s)[0] for s in range(4000)])
        assert np.var(draws) == pytest.approx(model.stationary_variance(), rel=0.1)

    def test_mean_offset(self):
        model = GaussMarkovModel.ar1(0.5, 1.0, mean=3.0)
        x = sample_path(model, 20000, seed=3)
        assert np.mean(x) == pytest.approx(3.0, abs=0.1)


class TestValidateCovariance:
    def test_accepts_psd(self):
        validate_covariance(np.eye(3))
        validate_covariance(np.zeros((2, 2)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            validate_covariance(np.array([[1.0, 0.5], [0.4, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            validate_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            validate_covariance(np.ones((2, 3)))
