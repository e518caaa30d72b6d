"""Gauss-Markov sources and their exact covariance structure."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class StationarityError(ValueError):
    """AR coefficients describe a non-stationary process."""


def _toeplitz(first_column: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix with entry (i, j) = first_column[|i - j|]."""
    c = np.asarray(first_column, dtype=float)
    lags = np.arange(c.size)
    return c[np.abs(lags[:, None] - lags[None, :])]


def validate_covariance(K: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Check symmetry and positive semi-definiteness, return as float array.

    Symmetry is required to a 1e-12 relative tolerance and eigenvalues may dip
    below zero only by 1e-10 times the largest eigenvalue (round-off slack).
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"{name} must be square, got shape {K.shape}")
    scale = float(np.abs(K).max()) if K.size else 0.0
    if scale > 0.0 and float(np.abs(K - K.T).max()) > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric")
    eigs = np.linalg.eigvalsh((K + K.T) / 2.0)
    if eigs.size and eigs[0] < -1e-10 * eigs[-1]:
        raise ValueError(f"{name} has negative eigenvalue {eigs[0]:.3e}")
    return K


@dataclass(frozen=True)
class GaussMarkovModel:
    """Stationary autoregressive Gaussian process.

    x_t = sum_k coefficients[k] * x_{t-1-k} + e_t with e_t ~ N(0, noise_variance).
    """

    coefficients: tuple[float, ...]
    noise_variance: float
    mean: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(a) for a in self.coefficients))
        if len(self.coefficients) == 0:
            raise ValueError("at least one AR coefficient is required")
        if self.noise_variance <= 0.0:
            raise ValueError("noise_variance must be positive")
        # roots of z^p - a_1 z^{p-1} - ... - a_p must lie strictly inside the unit circle
        poly = np.concatenate(([1.0], -np.asarray(self.coefficients)))
        roots = np.roots(poly)
        if roots.size and np.max(np.abs(roots)) >= 1.0:
            raise StationarityError(
                f"AR coefficients {self.coefficients} are not stationary "
                f"(root magnitude {np.max(np.abs(roots)):.6g})"
            )

    @property
    def order(self) -> int:
        return len(self.coefficients)

    @classmethod
    def ar1(cls, rho: float, noise_variance: float, mean: float = 0.0) -> GaussMarkovModel:
        return cls((rho,), noise_variance, mean)

    @classmethod
    def ar1_unit_variance(cls, rho: float, mean: float = 0.0) -> GaussMarkovModel:
        """First order model whose stationary variance is exactly 1."""
        if not -1.0 < rho < 1.0:
            raise StationarityError(f"|rho| must be < 1, got {rho}")
        return cls((rho,), 1.0 - rho * rho, mean)

    def companion_matrix(self) -> np.ndarray:
        p = self.order
        F = np.zeros((p, p))
        F[0, :] = self.coefficients
        if p > 1:
            F[1:, :-1] = np.eye(p - 1)
        return F

    def autocovariances(self, count: int) -> np.ndarray:
        """First `count` autocovariances gamma_0 .. gamma_{count-1}."""
        if count < 1:
            return np.zeros(0)
        p = self.order
        F = self.companion_matrix()
        Q = np.zeros((p, p))
        Q[0, 0] = self.noise_variance
        # stationary companion-state covariance solves Gamma = F Gamma F' + Q
        vec = np.linalg.solve(np.eye(p * p) - np.kron(F, F), Q.reshape(-1))
        Gamma = vec.reshape(p, p)
        gam = list(Gamma[0, :min(p, count)])
        a = np.asarray(self.coefficients)
        while len(gam) < count:
            k = len(gam)
            past = np.array([gam[k - 1 - j] for j in range(p)])
            gam.append(float(a @ past))
        return np.asarray(gam[:count])

    def stationary_variance(self) -> float:
        return float(self.autocovariances(1)[0])

    def stationary_covariance(self, n: int) -> np.ndarray:
        """Covariance of an n-sample window of the stationary process."""
        return validate_covariance(_toeplitz(self.autocovariances(n)), "window covariance")


def ar1_covariance(rho: float, variance: float, n: int) -> np.ndarray:
    """Stationary first order covariance: entry (i, j) = variance * rho^|i-j|."""
    if not -1.0 < rho < 1.0:
        raise StationarityError(f"|rho| must be < 1 for a stationary AR(1), got {rho}")
    if variance <= 0.0:
        raise ValueError("variance must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    return validate_covariance(_toeplitz(variance * rho ** np.arange(n)), "AR(1) covariance")


def sample_path(model: GaussMarkovModel, length: int, seed: int) -> np.ndarray:
    """Draw one realization of the stationary process.

    The initial block comes from the stationary distribution (no burn-in), so
    windows of any length have exactly the model's window covariance.
    Deterministic given the seed; a fresh generator is used per call.
    Sweeps draw i.i.d. frames from the window covariance instead.  This is
    the package's one use of scipy: scipy.signal is imported here, when
    called, so no command's import path loads scipy.
    """
    from scipy.signal import lfilter, lfiltic

    rng = np.random.default_rng(seed)
    if length == 0:
        return np.zeros(0)
    p = model.order
    init_cov = _toeplitz(model.autocovariances(p))
    init = np.linalg.cholesky(init_cov) @ rng.standard_normal(p)
    x = np.empty(length)
    k = min(p, length)
    x[:k] = init[:k]
    if length > p:
        innovations = np.sqrt(model.noise_variance) * rng.standard_normal(length - p)
        a_poly = np.concatenate(([1.0], -np.asarray(model.coefficients)))
        zi = lfiltic([1.0], a_poly, y=x[p - 1 :: -1])
        x[p:], _ = lfilter([1.0], a_poly, innovations, zi=zi)
    return x + model.mean
