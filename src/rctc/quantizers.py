"""Scalar quantizer bank: noise model, KKT rate allocation, Lloyd-Max codebooks."""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np


class InfeasibleRateError(ValueError):
    """Requested rate floor cannot be met at the configured average rate."""


# Lloyd-Max training stops once every cell's centroid condition holds to
# RESIDUAL_TOL in mass-weighted form, |y_k mass_k - (phi(e_{k-1}) - phi(e_k))|;
# rounding leaves about 4e-16 at 2^16 levels.  From the quantile start Newton's
# method needs at most 20 steps up to MAX_LEVELS.
RESIDUAL_TOL = 1e-15
NEWTON_STEPS = 50
# the largest codebook QuantizerBank.lloyd_max trains
MAX_LEVELS = 2 ** 16
# Gauss-Legendre rule for the distortion of each finite Lloyd-Max cell; the
# integrand (x - y)^2 phi(x) is entire, and 16 nodes resolve it to rounding
# on the widest finite cell (about 1.2 wide, at 3 levels).  The rule is
# numpy.polynomial.legendre.leggauss(16) to the bit, tabulated so that no
# import loads numpy.polynomial: leggauss symmetrizes its rule, so the
# (node, weight) pairs of its 8 positive nodes, mirrored, are the whole rule.
_GL_HALF_RULE = np.array([
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
]).T
_GL_NODES = np.concatenate((-_GL_HALF_RULE[0, ::-1], _GL_HALF_RULE[0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF_RULE[1, ::-1], _GL_HALF_RULE[1]))

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def _norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _norm_cdf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(X <= x), P(X > x)) for a standard normal X, entry by entry.

    One erfc per entry gives the smaller of the two, 0.5 erfc(|x| / sqrt(2)),
    to full relative precision however far out the tail; the other is one
    minus it.
    """
    tail = 0.5 * np.fromiter(map(math.erfc, (np.abs(x) * _SQRT_HALF).tolist()), float, x.size)
    return np.where(x < 0.0, tail, 1.0 - tail), np.where(x < 0.0, 1.0 - tail, tail)


def _quantile_levels(n_levels: int) -> np.ndarray:
    """The standard normal quantiles at (k + 1/2) / n_levels, k = 0 .. n_levels - 1."""
    # imported here, by codebook training alone: statistics loads decimal and
    # fractions, which no other run needs
    import statistics

    probabilities = ((np.arange(n_levels) + 0.5) / n_levels).tolist()
    return np.fromiter(map(statistics.NormalDist().inv_cdf, probabilities), float, n_levels)


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Solve the tridiagonal system T x = rhs by the Thomas recursion, in O(L) work.

    diag holds T[k, k], lower[k] = T[k, k - 1] and upper[k] = T[k, k + 1], all
    of length L (lower[0] and upper[L - 1] are ignored).  No pivoting: T must
    be diagonally dominant or positive definite.
    """
    lower, diag, upper, rhs = (np.asarray(v, float).tolist() for v in (lower, diag, upper, rhs))
    lower[0] = 0.0
    ratios, x = [], []
    ratio = value = 0.0
    for a, b, c, d in zip(lower, diag, upper, rhs):
        pivot = b - a * ratio
        ratio = c / pivot  # eliminated row k reads x_k + ratio x_{k+1} = value
        value = (d - a * value) / pivot
        ratios.append(ratio)
        x.append(value)
    for k in range(len(x) - 2, -1, -1):
        x[k] -= ratios[k] * x[k + 1]
    return np.array(x)


def lloyd_max_gaussian(n_levels: int):
    """Train a Lloyd-Max codebook for the unit-variance Gaussian.

    Fully deterministic: boundaries are level midpoints and every level is the
    conditional mean of its cell.  Newton's method solves these centroid
    conditions F_k = y_k mass_k - (phi(e_{k-1}) - phi(e_k)) = 0, whose
    Jacobian is symmetric tridiagonal, from the normal quantile start.  Each
    step solves the Jacobian by the Thomas recursion in O(L) work.  Raises
    ArithmeticError if max_k |F_k| stays above RESIDUAL_TOL after
    NEWTON_STEPS steps.  Returns (levels, mse) where mse is the design
    distortion, summed over cells as E[(X - y_k)^2; X in cell k] about each
    cell's own level y_k.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be at least 1")
    if n_levels == 1:
        return np.zeros(1), 1.0
    levels = _quantile_levels(n_levels)
    for step in range(NEWTON_STEPS + 1):
        edges = 0.5 * (levels[1:] + levels[:-1])
        pdf = _norm_pdf(edges)
        # a cell above zero takes its mass from upper-tail probabilities, so
        # that no tail mass is the difference of two numbers near one
        below, above = _norm_cdf(edges)
        below = np.concatenate(([0.0], below, [1.0]))
        above = np.concatenate(([1.0], above, [0.0]))
        mass = np.where(levels > 0.0, above[:-1] - above[1:], below[1:] - below[:-1])
        density = np.concatenate(([0.0], pdf, [0.0]))
        first = density[:-1] - density[1:]  # integral of x over each cell
        residual = levels * mass - first
        worst = float(np.max(np.abs(residual)))
        if worst <= RESIDUAL_TOL:
            break
        if step == NEWTON_STEPS:
            raise ArithmeticError(
                f"Lloyd-Max training of {n_levels} levels left a centroid residual "
                f"of {worst:.3g} after {NEWTON_STEPS} Newton steps "
                f"(bound {RESIDUAL_TOL:g})")
        # the Jacobian is symmetric, dF_k/dy_{k+1} = dF_{k+1}/dy_k =
        # phi(e_k) (y_k - y_{k+1}) / 4 as e_k is the midpoint of y_k and y_{k+1};
        # its diagonal is mass_k plus the couplings of row k
        coupling = 0.25 * pdf * (levels[:-1] - levels[1:])
        off = np.concatenate(([0.0], coupling, [0.0]))
        levels = levels - _solve_tridiagonal(off[:-1], mass + off[:-1] + off[1:], off[1:],
                                             residual)
    # Any closed form for a finite cell, expanded or about its level, takes
    # the small distortion of a narrow cell as a difference of much larger
    # terms; quadrature sums positive terms only.  A tail cell [e, inf) with
    # level y keeps the closed form mass (1 + y^2) + (e - 2y) phi(e).
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _GL_NODES
    inner = half * ((np.square(nodes - levels[1:-1, None]) * _norm_pdf(nodes)) @ _GL_WEIGHTS)
    tails = 0.0
    for e, y in ((edges[-1], levels[-1]), (-edges[0], -levels[0])):
        tails += 0.5 * math.erfc(e * _SQRT_HALF) * (1.0 + y * y) + (e - 2.0 * y) * _norm_pdf(e)
    return levels, float(np.sum(inner) + tails)


# quantize_array looks values up this many at a time, so that its temporaries
# stay a few small arrays however many values it is given
LOOKUP_CHUNK = 4096


@dataclass(frozen=True)
class _CellTable:
    """Exact constant-time search over a codebook's sorted, finite boundaries.

    A monotone map sends a value to one of about 2 x levels uniform cells
    between the outer boundaries; `first[c]` counts the boundaries whose own
    cell is below c, and `passes` is the most boundaries one cell holds.  As
    the map is monotone, a value's searchsorted index is first[cell] plus the
    boundaries of its own cell that lie below it, which `passes` steps of
    `index += value > bounds[index]` count.  The top cell, `top`, holds no
    boundary: +inf and NaN land there, at index len(boundaries), as in
    searchsorted.
    """

    offset: float
    scale: float
    top: float
    first: np.ndarray
    passes: int
    bounds: np.ndarray  # the boundaries and a +inf sentinel

    @classmethod
    def build(cls, boundaries: np.ndarray, cells: int) -> _CellTable:
        lo, hi = (float(boundaries[0]), float(boundaries[-1])) if boundaries.size else (0.0, 0.0)
        width = hi - lo  # finite: ScalarCodebook checks it
        scale = min(cells / width, sys.float_info.max) if width > 0.0 else 1.0
        # the boundaries' cells come from the map the lookup uses; top, the cell
        # after the last of them, holds none
        raw = _cell_map(boundaries, lo, scale, math.inf, np.empty(boundaries.size))
        top = int(raw[-1]) + 1 if boundaries.size else 0
        first = np.searchsorted(raw, np.arange(top + 1))  # raw < c: its cell is below c
        return cls(lo, scale, float(top), first, int(np.max(np.diff(first), initial=0)),
                   np.append(boundaries, math.inf))

    def search(self, values: np.ndarray, out: np.ndarray) -> None:
        """np.searchsorted(boundaries, values) for 1-D `values`, written to `out`."""
        size = min(LOOKUP_CHUNK, values.size)
        scratch, cell, above = np.empty(size), np.empty(size, np.intp), np.empty(size, bool)
        # a value far outside the boundaries may overflow to +-inf, still its cell
        with np.errstate(over="ignore"):
            for start in range(0, values.size, LOOKUP_CHUNK):
                x, index = values[start:start + size], out[start:start + size]
                n = x.size
                cell[:n] = _cell_map(x, self.offset, self.scale, self.top, scratch[:n])
                # every index taken here is in range, so mode="clip" clips nothing;
                # it spares the buffered copy of `out` that the default mode makes
                np.take(self.first, cell[:n], out=index, mode="clip")
                for _ in range(self.passes):
                    np.take(self.bounds, index, out=scratch[:n], mode="clip")
                    index += np.greater(x, scratch[:n], out=above[:n])


def _cell_map(values, offset: float, scale: float, top: float, out: np.ndarray) -> np.ndarray:
    """(values - offset) * scale held to [0, top], NaN to top, written to `out`.

    Every step is monotone, so the cells, the truncated results, are too.
    """
    np.subtract(values, offset, out=out)
    np.multiply(out, scale, out=out)
    np.maximum(out, 0.0, out=out)
    return np.fmin(out, top, out=out)


@dataclass(frozen=True)
class ScalarCodebook:
    """Nearest-neighbor scalar quantizer: sorted levels, midpoint boundaries.

    Levels must be finite and strictly increasing, and the boundaries must
    span a finite range; mse must be finite and non-negative.
    `quantize_array` looks values up in a cell table of about 2 x levels
    entries, built once per codebook on its first call, and returns exactly
    the indices np.searchsorted(boundaries, values) would.
    """

    levels: np.ndarray
    mse: float

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("levels must be a non-empty vector")
        if not np.all(np.isfinite(levels)):
            i = int(np.argmin(np.isfinite(levels)))
            raise ValueError(f"level {i} is {levels[i]:g}: levels must be finite")
        if np.any(levels[1:] <= levels[:-1]):
            raise ValueError("levels must be strictly increasing")
        if not 0.0 <= self.mse < math.inf:  # also rejects nan
            raise ValueError(f"mse must be finite and non-negative, got {self.mse:g}")
        with np.errstate(over="ignore"):  # rejected below
            boundaries = 0.5 * (levels[1:] + levels[:-1])
        if boundaries.size and not math.isfinite(float(boundaries[-1]) - float(boundaries[0])):
            raise ValueError(f"the boundaries of levels {levels[0]:g} .. {levels[-1]:g} "
                             f"do not span a finite range")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "boundaries", boundaries)

    @property
    def size(self) -> int:
        return self.levels.size

    @property
    def rate(self) -> float:
        return math.log2(self.size) if self.size > 1 else 0.0

    def scaled(self, sigma: float) -> ScalarCodebook:
        if not 0.0 < sigma < math.inf:  # also rejects nan
            raise ValueError(f"sigma must be finite and positive, got {sigma:g}")
        return ScalarCodebook(self.levels * sigma, self.mse * sigma * sigma)

    @functools.cached_property
    def _table(self) -> _CellTable:
        return _CellTable.build(self.boundaries, 2 * self.size)

    def quantize_array(self, values: np.ndarray, out: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """(indices, codewords) of an array of values of any shape.

        The indices are exactly np.searchsorted(boundaries, values): +/-inf
        saturate at the extreme levels and NaN takes the top level.  They come
        from the cell table a chunk of LOOKUP_CHUNK values at a time, so the
        temporaries are a few chunk-sized arrays, and every value is read
        before `out`, which takes the codewords if given, is written: `out`
        may be `values` itself.
        """
        x = np.asarray(values, dtype=float)
        indices = np.empty(x.shape, dtype=np.intp)
        self._table.search(x.reshape(-1), indices.reshape(-1))
        return indices, np.take(self.levels, indices, out=out, mode="clip")


@dataclass(frozen=True)
class QuantizerBank:
    """N quantizers, one per transform frame element.

    `rates` holds the (possibly fractional) allocated rate of each quantizer
    and `input_variances` the design variance of its input.  In modeled mode
    the noise variance of a quantizer is
    noise_constant * 2^(-2 rate) * input_variance; with codebooks present the
    exact Lloyd-Max design distortion is used instead.
    """

    rates: np.ndarray
    input_variances: np.ndarray
    noise_constant: float = 1.0
    codebooks: tuple[ScalarCodebook, ...] | None = None

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        var = np.asarray(self.input_variances, dtype=float)
        if rates.ndim != 1 or rates.size < 1:
            raise ValueError("rates must be a non-empty vector")
        for i, rate in enumerate(rates):
            if not math.isfinite(rate):
                raise ValueError(f"quantizer {i} has rate {rate:g}: a rate must be finite")
        if var.shape != rates.shape:
            raise ValueError(f"input_variances has {var.size} entries for {rates.size} quantizers")
        for i, v in enumerate(var):
            if not 0.0 < v < math.inf:  # also rejects nan
                raise ValueError(f"quantizer {i} has input variance {v:g}: an input "
                                 f"variance must be finite and positive")
        if not 0.0 < self.noise_constant < math.inf:
            raise ValueError(f"noise_constant must be finite and positive, "
                             f"got {self.noise_constant:g}")
        if self.codebooks is not None and len(self.codebooks) != rates.size:
            raise ValueError("one codebook per quantizer is required")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "input_variances", var)

    @property
    def count(self) -> int:
        return self.rates.size

    @property
    def average_rate(self) -> float:
        return float(np.mean(self.rates))

    @property
    def realized_rates(self) -> np.ndarray:
        """Integer rates actually realized by the codebooks (modeled mode: copy)."""
        if self.codebooks is None:
            return self.rates.copy()
        return np.asarray([book.rate for book in self.codebooks])

    @property
    def rate_discrepancy(self) -> float:
        """Realized minus requested average rate; nonzero once rates are rounded."""
        return float(np.mean(self.realized_rates)) - self.average_rate

    @property
    def noise_variances(self) -> np.ndarray:
        """Noise variance of each quantizer."""
        if self.codebooks is not None:
            return np.asarray([cb.mse for cb in self.codebooks])
        return self.noise_constant * np.exp2(-2.0 * self.rates) * self.input_variances

    @classmethod
    def modeled(cls, rates, input_variances, noise_constant: float = 1.0) -> QuantizerBank:
        return cls(np.asarray(rates, dtype=float), np.asarray(input_variances, dtype=float),
                   noise_constant)

    @classmethod
    def lloyd_max(cls, rates, input_variances, noise_constant: float = 1.0) -> QuantizerBank:
        """Realize the bank with Lloyd-Max Gaussian codebooks of 2^round(rate) levels."""
        rates = np.asarray(rates, dtype=float)
        var = np.asarray(input_variances, dtype=float)
        bank = cls(rates, var, noise_constant)
        # checked for every quantizer before any codebook is trained
        level_bits = [max(0, int(round(rate))) for rate in bank.rates]
        for i, bits in enumerate(level_bits):
            if bits > math.log2(MAX_LEVELS):
                raise ValueError(f"quantizer {i} has rate {bank.rates[i]:g}: 2^{bits} "
                                 f"levels exceed the cap of {MAX_LEVELS}")
        books = tuple(_unit_codebook(2 ** bits).scaled(math.sqrt(v))
                      for bits, v in zip(level_bits, bank.input_variances))
        return cls(rates, var, noise_constant, books)


@functools.lru_cache(maxsize=None)
def _unit_codebook(n_levels: int) -> ScalarCodebook:
    """Lloyd-Max codebook of the unit-variance Gaussian, trained once per process.

    Its arrays are read-only, since every caller shares them.
    """
    book = ScalarCodebook(*lloyd_max_gaussian(n_levels))
    for array in (book.levels, book.boundaries):
        array.setflags(write=False)
    return book


@dataclass(frozen=True)
class RateAllocation:
    """Rates from the closed-form water-filling over effective variances.

    Unclamped allocations satisfy
    rate_i - average = 0.5 * log2(var_i / geometric_mean(var)) for every i.
    """

    rates: np.ndarray
    effective_variances: np.ndarray
    average: float
    clamped: bool = False

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        var = np.asarray(self.effective_variances, dtype=float)
        if rates.shape != var.shape or rates.ndim != 1:
            raise ValueError("rates and effective_variances must be equal-length vectors")
        if not math.isfinite(self.average):
            raise ValueError(f"average rate {self.average:g} is not finite")
        for i, (rate, v) in enumerate(zip(rates, var)):
            if not (math.isfinite(rate) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"quantizer {i} has rate {rate:g} and effective variance "
                                 f"{v:g}: both must be finite and the variance positive")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "effective_variances", var)
        if abs(float(np.mean(rates)) - self.average) > 1e-12 * max(1.0, abs(self.average)):
            raise ValueError("mean rate does not match the configured average")
        if not self.clamped:
            log_var = np.log2(var)
            residual = rates - self.average - 0.5 * (log_var - np.mean(log_var))
            if float(np.max(np.abs(residual))) > 1e-9:
                raise ValueError("rates do not satisfy the KKT allocation identity")

    @property
    def count(self) -> int:
        return self.rates.size


def allocate_rates(effective_variances, average_rate: float,
                   min_rate: float = -math.inf) -> RateAllocation:
    """Optimal bit allocation under the fine-quantization noise model and the floor min_rate.

    With no floor (the default) this is the closed form
    rate_i = average + 0.5 * log2(var_i / geometric_mean(var)), computed in
    the log domain so the mean constraint holds to machine precision and the
    result is invariant under scaling all variances by a common factor.
    When some rate falls below the floor, reverse water-filling holds those
    quantizers at it and solves the closed form again over the rest with
    the remaining budget (which shifts their rates by one common amount),
    until none falls below.  The free quantizers then share one distortion
    var_i 2^(-2 rate_i), each held one has var_i 2^(-2 min_rate) at most
    that (the KKT conditions), and the mean is kept.
    """
    var = np.asarray(effective_variances, dtype=float)
    if var.ndim != 1 or var.size < 1:
        raise ValueError("effective_variances must be a non-empty vector")
    if np.any(var <= 0.0):
        raise ValueError("effective variances must be positive")
    average = float(average_rate)
    log_var = np.log2(var)
    rates = average + 0.5 * (log_var - np.mean(log_var))
    held = rates < min_rate
    if not np.any(held):
        return RateAllocation(rates, var, average)
    if average < min_rate:
        raise InfeasibleRateError(f"average rate {average} cannot meet floor {min_rate}")
    new_rates = np.full(rates.size, float(min_rate))
    while not held.all():
        free = rates[~held]
        budget = rates.size * average - held.sum() * min_rate
        new_rates[~held] = free - free.mean() + budget / free.size
        below = new_rates < min_rate
        if not below.any():
            break
        new_rates[below] = min_rate
        held |= below
    return RateAllocation(new_rates, var, average, clamped=True)
