"""Reference Lloyd-Max training: Lloyd's fixed-point map for the unit Gaussian.

Each sweep moves every level to the conditional mean of its midpoint cell, so
the map contracts only at 1 - O(1/L^2) per sweep (thousands of sweeps at 64
levels).  It shares no code with `rctc.quantizers.lloyd_max_gaussian`, so it
is the oracle that the Newton solver's levels are checked against.
`centroid_residual` recomputes the solver's stopping quantity on its own.
"""
import math

import numpy as np
from scipy.special import erf, ndtr, ndtri


def _norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


def _norm_cdf(x):
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def fixed_point_levels(n_levels: int, tol: float = 1e-12,
                       max_iter: int = 200_000) -> np.ndarray:
    """Levels after Lloyd sweeps from the quantile start, until no level moves by tol."""
    levels = ndtri((np.arange(n_levels) + 0.5) / n_levels)
    for _ in range(max_iter):
        edges = 0.5 * (levels[1:] + levels[:-1])
        cdf = np.concatenate(([0.0], _norm_cdf(edges), [1.0]))
        pdf = np.concatenate(([0.0], _norm_pdf(edges), [0.0]))
        new_levels = (pdf[:-1] - pdf[1:]) / np.diff(cdf)
        shift = float(np.max(np.abs(new_levels - levels)))
        levels = new_levels
        if shift < tol:
            return levels
    raise ArithmeticError(f"no fixed point at {n_levels} levels within {max_iter} sweeps")


def centroid_residual(levels: np.ndarray) -> float:
    """max_k |y_k mass_k - (phi(lo_k) - phi(hi_k))| over the midpoint cells [lo_k, hi_k].

    A cell above zero takes its mass from upper-tail probabilities, so that no
    tail mass cancels near one.
    """
    edges = 0.5 * (levels[1:] + levels[:-1])
    lo = np.concatenate(([-np.inf], edges))
    hi = np.concatenate((edges, [np.inf]))
    mass = np.where(levels > 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))
    return float(np.max(np.abs(levels * mass - (_norm_pdf(lo) - _norm_pdf(hi)))))


def distortion_mp(levels, digits: int = 40) -> float:
    """Sum over the midpoint cells of E[(X - y_k)^2; X in cell k], at `digits` digits.

    Each cell [lo, hi] of level y contributes the closed form
    mass (1 + y^2) + (lo - 2y) phi(lo) - (hi - 2y) phi(hi); the digits it
    cancels are far fewer than the working precision carries.
    """
    import mpmath

    with mpmath.workdps(digits):
        edges = [(mpmath.mpf(float(a)) + mpmath.mpf(float(b))) / 2
                 for a, b in zip(levels[:-1], levels[1:])]
        lo = [mpmath.ninf] + edges
        hi = edges + [mpmath.inf]
        total = mpmath.mpf(0)
        for a, b, y in zip(lo, hi, levels):
            y = mpmath.mpf(float(y))
            mass = mpmath.ncdf(b) - mpmath.ncdf(a)
            at_lo = 0 if a == mpmath.ninf else (a - 2 * y) * mpmath.npdf(a)
            at_hi = 0 if b == mpmath.inf else (b - 2 * y) * mpmath.npdf(b)
            total += mass * (1 + y * y) + at_lo - at_hi
        return float(total)
