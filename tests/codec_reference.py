"""Reference codec: the per-frame ladder encode and masked decode, one frame at a time.

`encode` runs the causal ladder over one frame with Python-level loops, and
a bank with codebooks quantizes each input by np.searchsorted over its
boundaries; `decode` forms Ahat o B and multiplies it into the codevalues.
They share no loop code with `rctc.codec.encode_batch` and `decode_batch`,
so they are the oracle the batch pair is checked against.
"""
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EncodedFrame:
    """One coded frame: reconstruction codevalues, indices, quantizer inputs."""

    codevalues: np.ndarray
    indices: np.ndarray | None
    quantizer_inputs: np.ndarray


def encode(frame, transform, bank=None, rng=None) -> EncodedFrame:
    """Run the causal encoding ladder over one frame.

    bank=None encodes at infinite rate (zero noise).  A bank with codebooks
    quantizes to the nearest codeword; a bank without codebooks adds Gaussian
    noise at its modeled variances and needs an explicit rng.
    """
    x = np.asarray(frame, dtype=float)
    n = transform.frame_length
    if x.shape != (n,):
        raise ValueError(f"frame must have length {n}, got {x.shape}")
    if bank is not None and bank.count != n:
        raise ValueError("bank layout does not match the transform")
    if bank is not None and bank.codebooks is None and rng is None:
        raise ValueError("modeled-noise encoding requires an rng")
    enc = transform.encoder_coeffs
    codevalues = np.zeros(n)
    inputs = np.zeros(n)
    indices = np.zeros(n, dtype=int) if (bank is not None and bank.codebooks) else None
    for i in range(n):
        pred = 0.0
        for j in range(i):
            pred += enc[i, j] * codevalues[j]
        inputs[i] = x[i] - pred
        if bank is None:
            codevalues[i] = inputs[i]
        elif indices is not None:
            book = bank.codebooks[i]
            indices[i] = np.searchsorted(book.boundaries, inputs[i])
            codevalues[i] = book.levels[indices[i]]
        else:
            codevalues[i] = inputs[i] + np.sqrt(bank.noise_variances[i]) * rng.standard_normal()
    return EncodedFrame(codevalues, indices, inputs)


def decode(codevalues, transform, availability) -> np.ndarray:
    """Reconstruct from whatever arrived: xhat = (Ahat o B) x_c."""
    xc = np.asarray(codevalues, dtype=float)
    n = transform.frame_length
    if xc.shape != (n,):
        raise ValueError(f"codevalues must have length {n}, got {xc.shape}")
    bits = np.asarray(availability, dtype=float)
    if bits.shape != (n, n):
        raise ValueError(f"availability must be {n}x{n}, got {bits.shape}")
    _, Ahat = transform.assemble()
    return (Ahat * bits) @ xc
