"""Random-delay channel: exponential delays, deadlines, availability statistics.

Every transmitted index j suffers an exponential delay.  When frame element i
is reconstructed, element j <= i of the same frame may have used an extra
(i - j) sample periods on top of the base deadline, so its availability bit is
b_ij = [delay_j <= deadline + (i - j) * sample_period].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelModel:
    """Exponential delay law plus the frame timing that sets the deadlines."""

    delay_rate: float      # lambda, 1/seconds
    deadline: float        # seconds allowed before an index counts as lost
    sample_period: float   # seconds between successive frame elements
    frame_length: int

    def __post_init__(self):
        if self.delay_rate <= 0.0 or self.deadline <= 0.0 or self.sample_period <= 0.0:
            raise ValueError("delay_rate, deadline and sample_period must be positive")
        if self.frame_length < 1:
            raise ValueError("frame_length must be positive")
        p = self.violation_probability
        if not 0.0 < p < 1.0:
            raise ValueError(f"delay violation probability {p} must lie in (0, 1)")

    @property
    def violation_probability(self) -> float:
        """p = exp(-lambda * deadline): chance an index misses its own deadline."""
        return math.exp(-self.delay_rate * self.deadline)

    @property
    def mean_delay(self) -> float:
        return 1.0 / self.delay_rate

    @classmethod
    def from_violation_probability(cls, p: float, deadline: float, sample_period: float,
                                   frame_length: int) -> ChannelModel:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {p}")
        return cls(-math.log(p) / deadline, deadline, sample_period, frame_length)

    def thresholds(self) -> np.ndarray:
        """Deadline for index j at the reconstruction of element i; -inf above diagonal."""
        n = self.frame_length
        i, j = np.indices((n, n))
        thr = self.deadline + (i - j) * self.sample_period
        return np.where(j <= i, thr, -np.inf)


def availability_marginals(model: ChannelModel) -> np.ndarray:
    """Closed-form E[b_ij]: 1 - exp(-lambda (deadline + (i - j) sample_period)) for j <= i.

    Above the diagonal the index has not been transmitted yet, so E[b_ij] = 0.
    """
    i, j = np.indices((model.frame_length,) * 2)
    thr = model.deadline + np.maximum(i - j, 0) * model.sample_period
    return np.tril(1.0 - np.exp(-model.delay_rate * thr))


@dataclass(frozen=True)
class AvailabilityStats:
    """Weighted availability realizations: a test oracle for channel expectations.

    `realizations` has shape (count, N, N) with 0/1 entries and `weights` sums
    to 1.  Monte Carlo sets (`availability_stats`) carry uniform weights; the
    tests' exhaustive sets weight every pattern by its exact probability under
    independent bits.  `marginals` is always the closed-form matrix.  The
    library itself computes every expectation exactly from the marginals
    (`channel_moments`).
    """

    model: ChannelModel
    realizations: np.ndarray
    weights: np.ndarray
    marginals: np.ndarray

    def __post_init__(self):
        real = np.asarray(self.realizations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        n = self.model.frame_length
        if real.ndim != 3 or real.shape[1:] != (n, n):
            raise ValueError(f"realizations must have shape (count, {n}, {n})")
        if w.shape != (real.shape[0],) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must match realizations and sum to 1")
        object.__setattr__(self, "realizations", real)
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return self.realizations.shape[0]


def pair_moments(marginals: np.ndarray) -> np.ndarray:
    """M[..., i, a, b] = E[b_ia b_ib], the second moments of the bits of each row.

    `marginals` is an N x N availability matrix P = E[B], or a (..., N, N)
    stack of them; a 0/1 pattern is a valid degenerate P.  The bits of one
    row come from different indices, whose delays are independent, so
    E[b_ia b_ib] = P_ia P_ib for a != b, and E[b_ia^2] = P_ia as a bit is
    its own square.
    """
    P = np.asarray(marginals, dtype=float)
    if P.ndim < 2 or P.shape[-1] != P.shape[-2]:
        raise ValueError(f"availability marginals must be a square matrix, got shape {P.shape}")
    if not np.all((P >= 0.0) & (P <= 1.0)) or np.any(np.triu(P, k=1)):
        raise ValueError("availability marginals must lie in [0, 1] and be 0 above the diagonal")
    M = P[..., :, None] * P[..., None, :]
    a = np.arange(P.shape[-1])
    M[..., a, a] = P
    return M


def channel_moments(marginals: np.ndarray):
    """The exact channel expectations of H = (Ahat o B) inv(A) that every caller reads.

    `marginals` is as in `pair_moments`; a (..., N, N) stack of them takes
    stacks of Ahat and Ainv, each slice computed as on its own.  Returns
    moments(Ahat, Ainv) -> (E[H], W) with E[H] = (Ahat o P) inv(A) and
    W = E[H'H] = inv(A)' E inv(A), where E = E[(Ahat o B)'(Ahat o B)] sums
    (Ahat_i Ahat_i') o M_i over the rows i of Ahat and the pair moments M.
    """
    M = pair_moments(marginals)
    P = np.asarray(marginals, dtype=float)

    def moments(Ahat: np.ndarray, Ainv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        E = np.einsum("...ia,...iab,...ib->...ab", Ahat, M, Ahat)
        return (Ahat * P) @ Ainv, Ainv.swapaxes(-1, -2) @ E @ Ainv

    return moments


# Delays `sample_availability_bits` draws from its generator at once: those
# of CHUNK_DRAWS // N frames.  Not a tuning knob: the generator fills its
# draws in order, so the draws of one chunk after another are the draws of
# one call, and the bits do not depend on it.  It only bounds the floats
# held at once (256 KiB, and as much again for the delays' lane copy).
CHUNK_DRAWS = 32768


def out_lanes(out: np.ndarray, shape: tuple, dtype) -> np.ndarray:
    """`out`, a (count, ...) result buffer, with its frame axis moved last.

    Every `out=` of the frame-batch functions takes this layout: the lanes
    are C-ordered, so one element of all frames is contiguous.  Any other
    shape, dtype or layout raises a one-line ValueError.
    """
    if (not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != dtype
            or not np.moveaxis(out, 0, -1).flags.c_contiguous):
        got = (f"{out.dtype} {out.shape}, strides {out.strides}"
               if isinstance(out, np.ndarray) else type(out).__name__)
        raise ValueError(f"out must be a {np.dtype(dtype)} array of shape {shape} whose "
                         f"first axis, moved last, gives C-ordered lanes; got {got}")
    return np.moveaxis(out, 0, -1)


def sample_availability_bits(model: ChannelModel, count: int, seed: int, *,
                             out: np.ndarray | None = None) -> np.ndarray:
    """Raw availability draws: bool, shape (count, N, N), one pattern per row.

    Every transmitted index draws one exponential delay, so bits within a
    column are coupled (an index that made an early deadline also makes
    later ones).
    The result views a C-ordered (N, N, count) array: bits[:, i, j] is contiguous.
    With `out`, an array of that shape, dtype and layout (such as an earlier
    result), the bits are written into it and `out` is returned.
    """
    if count < 1:
        raise ValueError("sample count must be at least 1")
    n = model.frame_length
    lanes = (np.empty((n, n, count), dtype=bool) if out is None
             else out_lanes(out, (count, n, n), bool))
    # index j > i is not yet sent at element i: those lanes are False, and
    # only the N(N + 1)/2 lanes with j <= i are compared
    lanes[np.triu_indices(n, 1)] = False
    rng = np.random.default_rng(seed)
    thresholds = model.thresholds()[:, :, None]
    step = max(1, CHUNK_DRAWS // n)
    for start in range(0, count, step):
        chunk = lanes[:, :, start:start + step]
        delays = rng.exponential(model.mean_delay, (chunk.shape[2], n))
        # compare from contiguous (N, frames) delay lanes: from strided
        # columns the compares take about 5x longer
        delays = np.ascontiguousarray(delays.T)
        for i in range(n):
            np.less_equal(delays[:i + 1], thresholds[i, :i + 1], out=chunk[i, :i + 1])
    return lanes.transpose(2, 0, 1) if out is None else out


def availability_stats(model: ChannelModel, sample_count: int, seed: int) -> AvailabilityStats:
    """Sampled availability realizations with uniform weights (a test oracle)."""
    bits = sample_availability_bits(model, sample_count, seed)
    return AvailabilityStats(model, bits, np.full(sample_count, 1.0 / sample_count),
                             availability_marginals(model))
