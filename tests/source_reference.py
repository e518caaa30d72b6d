"""Reference source simulation: the (frames, N, N) float-stack formulas.

These are the formulas the simulated column of a source sweep used before
its frames were coded in lanes.  The bits are a float stack with one N x N
pattern per frame, decoding forms Ahat o B for every frame and contracts it
with einsum, and frames and errors are (frames, N) arrays transformed by
einsum.  They draw the same random numbers in the same order as
`rctc.channel.sample_availability_bits` and the harness's source `evaluate`,
so the lane code must agree with them to rounding (and the bits exactly).
Like the harness, every row reads the sweep's draw seed: the frames, the
bits (from one stream of delays at every p) and the quantizer noise all come
from it, and the reference redraws them for each row.  The frames are
encoded by `stack_encode`, the ladder with a fresh array for every
intermediate, which draws each element's noise lane from the generator in
turn: the same numbers as the harness's one (N, frames) draw.
"""
import numpy as np

from rctc.channel import availability_marginals
from rctc.harness import derive_seed
from rctc.lqg import am_wmse, standard_error
from rctc.quantizers import QuantizerBank
from rctc.sources import ar1_covariance


def stack_bits(model, count, seed):
    """(count, N, N) float availability patterns, one per frame."""
    delays = np.random.default_rng(seed).exponential(model.mean_delay,
                                                     (count, model.frame_length))
    return (delays[:, None, :] <= model.thresholds()[None, :, :]).astype(float)


def stack_encode(frames, transform, bank, rng):
    """(count, N) codevalues of the causal ladder, one fresh array per step."""
    x = np.asarray(frames, dtype=float)
    enc = transform.encoder_coeffs
    codevalues = np.zeros_like(x)
    for i in range(x.shape[1]):
        pred = np.zeros(x.shape[0])
        for j in range(i):
            pred += enc[i, j] * codevalues[:, j]
        inputs = x[:, i] - pred
        if bank.codebooks is not None:
            codevalues[:, i] = bank.codebooks[i].levels[
                np.searchsorted(bank.codebooks[i].boundaries, inputs)]
        else:
            codevalues[:, i] = (inputs + np.sqrt(bank.noise_variances[i])
                                * rng.standard_normal(x.shape[0]))
    return codevalues


def stack_decode(codevalues, transform, bits_stack):
    """xhat_f = (Ahat o B_f) x_c,f for every frame f, through one float stack."""
    _, Ahat = transform.assemble()
    H = Ahat[None, :, :] * np.asarray(bits_stack, dtype=float)
    return np.einsum("fij,fj->fi", H, np.asarray(codevalues, dtype=float))


def stack_source_context(config):
    """(K_x, evaluate, None), the harness's source context with stack arithmetic."""
    n = config.n
    K_x = ar1_covariance(config.rho, config.source_variance, n)
    chol = np.linalg.cholesky(K_x)

    def row(result, cm, seed):
        bank = result.bank
        if config.quantizer_mode == "realized":
            bank = QuantizerBank.lloyd_max(result.rates.rates, result.input_variances,
                                           config.noise_constant)
        analytic = am_wmse(result.transform, availability_marginals(cm), K_x,
                           np.diag(bank.noise_variances))
        z = np.random.default_rng(derive_seed(seed, "frames")).standard_normal(
            (config.sim_frames, n))
        x = np.einsum("ij,fj->fi", chol, z)
        bits = stack_bits(cm, config.sim_frames, derive_seed(seed, "channel"))
        rng = np.random.default_rng(derive_seed(seed, "noise"))
        codevalues = stack_encode(x, result.transform, bank, rng)
        err = x - stack_decode(codevalues, result.transform, bits)
        per_frame = np.einsum("fi,fi->f", err, err) / n
        return analytic, float(per_frame.mean()), standard_error(per_frame)

    def evaluate(results, cm, seed):
        return [row(result, cm, seed) for result in results]

    return K_x, evaluate, None
