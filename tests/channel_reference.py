"""Reference channel expectations: the realization-weighted sum over a pattern set.

`exhaustive_stats` enumerates every availability pattern of a small frame
with its exact probability under independent bits, and `empirical_marginals`
is the weighted mean pattern of a set.  `stack_moments` averages
H = (Ahat o B) inv(A) and H' M H over the weighted realizations of an
`AvailabilityStats` (sampled or exhaustive), one pattern at a time in
effect.  It is the oracle that the exact closed form of
`rctc.channel.channel_moments` is checked against.  It takes any weight M;
the library's moments are unweighted, and an LQG weight c I is the factor c.
"""
import itertools

import numpy as np

from rctc.channel import AvailabilityStats, availability_marginals


def exhaustive_stats(model) -> AvailabilityStats:
    """Every lower-triangular pattern with its exact independent-bit probability.

    Realizes exactly every expectation that pairs only bits of different
    indices, such as those of `channel_moments`; the pattern count is
    2^(N(N+1)/2), so this is only for small frames.
    """
    n = model.frame_length
    cells = [(i, j) for i in range(n) for j in range(i + 1)]
    if len(cells) > 21:
        raise ValueError(f"exhaustive enumeration needs N <= 6, got N = {n}")
    marg = availability_marginals(model)
    patterns = []
    weights = []
    for assignment in itertools.product((0, 1), repeat=len(cells)):
        bits = np.zeros((n, n))
        w = 1.0
        for (i, j), b in zip(cells, assignment):
            bits[i, j] = b
            w *= marg[i, j] if b else 1.0 - marg[i, j]
        patterns.append(bits)
        weights.append(w)
    return AvailabilityStats(model, np.asarray(patterns), np.asarray(weights), marg)


def empirical_marginals(stats) -> np.ndarray:
    """The weighted mean of the realizations: E[B] over the pattern set."""
    return np.einsum("s,sij->ij", stats.weights, stats.realizations)


def stack_moments(stats, M: np.ndarray | None = None):
    """moments(Ahat, Ainv) -> (E[H], E[H' M H]) as weighted sums over stats.realizations."""
    real = stats.realizations
    dim = real.shape[1]
    mean_bits = empirical_marginals(stats)
    # layout (row i, realization s, column k), each realization scaled by
    # sqrt(w_s): every sum over (i, s) below is then one matrix product
    stack = np.ascontiguousarray(
        (np.sqrt(stats.weights)[:, None, None] * real).transpose(1, 0, 2))

    def moments(Ahat: np.ndarray, Ainv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        T = stack * Ahat[:, None, :]
        flat = T.reshape(-1, dim)
        MT = flat if M is None else (M @ T.reshape(dim, -1)).reshape(-1, dim)
        return (Ahat * mean_bits) @ Ainv, Ainv.T @ (flat.T @ MT) @ Ainv

    return moments
