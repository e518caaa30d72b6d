"""Reference channel expectations: the realization-weighted sum over a pattern set.

`stack_moments` averages H = (Ahat o B) inv(A) and H' M H over the weighted
realizations of an `AvailabilityStats` (sampled or exhaustive), one pattern at
a time in effect.  It is the oracle that the exact closed form of
`rctc.channel.channel_moments` is checked against.  It takes any weight M;
the library's moments are unweighted, and an LQG weight c I is the factor c.
"""
import numpy as np


def stack_moments(stats, M: np.ndarray | None = None):
    """moments(Ahat, Ainv) -> (E[H], E[H' M H]) as weighted sums over stats.realizations."""
    real = stats.realizations
    dim = real.shape[1]
    mean_bits = np.einsum("s,sij->ij", stats.weights, real)
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
