"""Causal transform codec: unit-diagonal lower triangular encode/decode ladders.

The encoder matrix A and decoder matrix Ahat are mN x mN, unit diagonal and
lower triangular, built from N x N grids of diagonal m x m blocks.  Encoding
runs the causal ladder x_c[i] = Q_i(x[i] - sum_{j<i} A[i,j] x_c[j]), which
realizes x_c = inv(A) (x + q) with q the quantization noise.  Decoding forms
xhat = (Ahat o B) x_c where B is the binary availability matrix and o is the
element-wise product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factorizations import ldl_unit_lower
from .quantizers import QuantizerBank
from .sources import validate_covariance

KINDS = ("identity", "full", "toeplitz", "plt")


@dataclass(frozen=True)
class CausalTransform:
    """Coefficients of the encoder/decoder pair.

    encoder_coeffs[j, i, k] is the k-th diagonal entry of block A_{j+1,i+1};
    only the strict lower block triangle (j > i) may be nonzero.  The same
    layout holds for decoder_coeffs.
    """

    kind: str
    frame_length: int
    block_dim: int
    encoder_coeffs: np.ndarray
    decoder_coeffs: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.frame_length < 1 or self.block_dim < 1:
            raise ValueError("frame_length and block_dim must be positive")
        n, m = self.frame_length, self.block_dim
        for name in ("encoder_coeffs", "decoder_coeffs"):
            coeffs = np.asarray(getattr(self, name), dtype=float)
            if coeffs.shape != (n, n, m):
                raise ValueError(f"{name} must have shape {(n, n, m)}, got {coeffs.shape}")
            upper = np.triu_indices(n)
            if np.any(coeffs[upper]):
                raise ValueError(f"{name} must vanish on and above the block diagonal")
            object.__setattr__(self, name, coeffs)
        if self.kind == "identity":
            if np.any(self.encoder_coeffs) or np.any(self.decoder_coeffs):
                raise ValueError("identity transform must have zero off-diagonal blocks")
        if self.kind == "toeplitz":
            for coeffs in (self.encoder_coeffs, self.decoder_coeffs):
                for lag in range(1, n):
                    band = np.asarray([coeffs[i + lag, i] for i in range(n - lag)])
                    if np.any(band != band[0]):
                        raise ValueError("toeplitz transform blocks must be constant per lag")

    @property
    def dim(self) -> int:
        return self.frame_length * self.block_dim

    @classmethod
    def identity(cls, frame_length: int, block_dim: int = 1) -> CausalTransform:
        zeros = np.zeros((frame_length, frame_length, block_dim))
        return cls("identity", frame_length, block_dim, zeros, zeros.copy())

    @classmethod
    def full(cls, encoder_coeffs, decoder_coeffs, kind: str = "full") -> CausalTransform:
        enc = np.asarray(encoder_coeffs, dtype=float)
        return cls(kind, enc.shape[0], enc.shape[2], enc,
                   np.asarray(decoder_coeffs, dtype=float))

    def assemble(self) -> tuple[np.ndarray, np.ndarray]:
        """Assembled (A, Ahat), both unit diagonal lower triangular."""
        n, m = self.frame_length, self.block_dim
        out = []
        for coeffs in (self.encoder_coeffs, self.decoder_coeffs):
            M = np.eye(n * m)
            for j in range(1, n):
                for i in range(j):
                    rows = np.arange(j * m, (j + 1) * m)
                    M[rows, rows - (j - i) * m] = coeffs[j, i]
            out.append(M)
        return out[0], out[1]

    def encoder_inverse(self) -> np.ndarray:
        A, _ = self.assemble()
        return np.linalg.inv(A)


@dataclass(frozen=True)
class EncodedFrame:
    """One coded frame: reconstruction codevalues, indices, quantizer inputs."""

    codevalues: np.ndarray
    indices: np.ndarray | None
    quantizer_inputs: np.ndarray


def plt_design(K_x: np.ndarray, block_dim: int = 1) -> tuple[CausalTransform, np.ndarray]:
    """Prediction-based lower triangular transform from the source covariance.

    Factor K_x = L diag(d) L' with L unit lower triangular and use A = Ahat = L.
    Under fine quantization the quantizer inputs are then the one-step
    prediction errors, with covariance diag(d): exactly decorrelated.  Returns
    the transform and d (per scalar slot design variances, length mN).
    """
    K_x = validate_covariance(K_x, "K_x")
    dim = K_x.shape[0]
    if block_dim < 1 or dim % block_dim != 0:
        raise ValueError(f"covariance dim {dim} is not a multiple of block_dim {block_dim}")
    n = dim // block_dim
    L, d = ldl_unit_lower(K_x)
    m = block_dim
    coeffs = np.zeros((n, n, m))
    tol = 1e-12 * max(1.0, float(np.abs(L).max()))
    for j in range(1, n):
        for i in range(j):
            block = L[j * m:(j + 1) * m, i * m:(i + 1) * m]
            if np.any(np.abs(block - np.diag(np.diag(block))) > tol):
                raise ValueError(
                    "source covariance couples components within a block; "
                    "diagonal-block causal transforms cannot represent its predictor"
                )
            coeffs[j, i] = np.diag(block)
    transform = CausalTransform("plt", n, m, coeffs, coeffs.copy())
    return transform, d


def quantizer_input_variances(transform: CausalTransform, K_x: np.ndarray) -> np.ndarray:
    """Fine-quantization variances of the ladder inputs: diag(inv(A) K_x inv(A)')."""
    Ainv = transform.encoder_inverse()
    return np.einsum("ij,jk,ik->i", Ainv, K_x, Ainv)


def _quantize_block(d_block: np.ndarray, element: int, transform: CausalTransform,
                    bank: QuantizerBank | None, rng) -> tuple[np.ndarray, np.ndarray | None]:
    m = transform.block_dim
    if bank is None:
        return d_block.copy(), None
    if bank.count != transform.frame_length or bank.block_dim != m:
        raise ValueError("bank layout does not match the transform")
    if bank.codebooks is not None:
        out = np.empty(m)
        idx = np.empty(m, dtype=int)
        for k in range(m):
            idx[k], out[k] = bank.codebooks[element * m + k].quantize(d_block[k])
        return out, idx
    if rng is None:
        raise ValueError("modeled-noise encoding requires an rng")
    sig = np.sqrt(bank.noise_variances[element * m:(element + 1) * m])
    return d_block + sig * rng.standard_normal(m), None


def encode(frame: np.ndarray, transform: CausalTransform,
           bank: QuantizerBank | None = None, rng=None) -> EncodedFrame:
    """Run the causal encoding ladder over one frame.

    bank=None encodes at infinite rate (zero noise).  A bank with codebooks
    quantizes to the nearest codeword; a bank without codebooks adds Gaussian
    noise at its modeled variances and needs an explicit rng.
    """
    x = np.asarray(frame, dtype=float)
    n, m = transform.frame_length, transform.block_dim
    if x.shape != (n * m,):
        raise ValueError(f"frame must have length {n * m}, got {x.shape}")
    enc = transform.encoder_coeffs
    codevalues = np.zeros(n * m)
    inputs = np.zeros(n * m)
    indices = np.zeros((n, m), dtype=int) if (bank is not None and bank.codebooks) else None
    for i in range(n):
        sl = slice(i * m, (i + 1) * m)
        pred = np.zeros(m)
        for j in range(i):
            pred += enc[i, j] * codevalues[j * m:(j + 1) * m]
        d_block = x[sl] - pred
        inputs[sl] = d_block
        codevalues[sl], idx = _quantize_block(d_block, i, transform, bank, rng)
        if indices is not None:
            indices[i] = idx
    return EncodedFrame(codevalues, indices, inputs)


def encode_batch(frames: np.ndarray, transform: CausalTransform,
                 bank: QuantizerBank | None = None, rng=None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ladder over many frames; returns (codevalues, quantizer_inputs)."""
    x = np.asarray(frames, dtype=float)
    n, m = transform.frame_length, transform.block_dim
    if x.ndim != 2 or x.shape[1] != n * m:
        raise ValueError(f"frames must have shape (count, {n * m})")
    enc = transform.encoder_coeffs
    codevalues = np.zeros_like(x)
    inputs = np.zeros_like(x)
    if bank is not None and (bank.count != n or bank.block_dim != m):
        raise ValueError("bank layout does not match the transform")
    if bank is not None and bank.codebooks is None:
        if rng is None:
            raise ValueError("modeled-noise encoding requires an rng")
        noise_sigma = np.sqrt(bank.noise_variances)
    for i in range(n):
        sl = slice(i * m, (i + 1) * m)
        pred = np.zeros((x.shape[0], m))
        for j in range(i):
            pred += enc[i, j] * codevalues[:, j * m:(j + 1) * m]
        d_block = x[:, sl] - pred
        inputs[:, sl] = d_block
        if bank is None:
            codevalues[:, sl] = d_block
        elif bank.codebooks is not None:
            for k in range(m):
                _, rec = bank.codebooks[i * m + k].quantize_array(d_block[:, k])
                codevalues[:, i * m + k] = rec
        else:
            codevalues[:, sl] = d_block + noise_sigma[sl] * rng.standard_normal(d_block.shape)
    return codevalues, inputs


def decode(codevalues: np.ndarray, transform: CausalTransform, availability) -> np.ndarray:
    """Reconstruct from whatever arrived: xhat = (Ahat o B) x_c."""
    xc = np.asarray(codevalues, dtype=float)
    if xc.shape != (transform.dim,):
        raise ValueError(f"codevalues must have length {transform.dim}, got {xc.shape}")
    n, m = transform.frame_length, transform.block_dim
    bits = np.asarray(availability, dtype=float)
    if bits.shape != (n, n):
        raise ValueError(f"availability must be {n}x{n}, got {bits.shape}")
    _, Ahat = transform.assemble()
    return (Ahat * np.kron(bits, np.ones((m, m)))) @ xc


def decode_batch(codevalues: np.ndarray, transform: CausalTransform,
                 bits_stack: np.ndarray) -> np.ndarray:
    """Decode many frames, each with its own availability pattern."""
    xc = np.asarray(codevalues, dtype=float)
    _, Ahat = transform.assemble()
    m = transform.block_dim
    stack = np.asarray(bits_stack, dtype=float)
    if m > 1:
        stack = np.repeat(np.repeat(stack, m, axis=1), m, axis=2)
    H = Ahat[None, :, :] * stack
    return np.einsum("fij,fj->fi", H, xc)


def transform_to_text(transform: CausalTransform) -> str:
    """Flat text serialization: header plus row-major A and Ahat."""
    A, Ahat = transform.assemble()
    lines = [
        "# causal transform v1",
        f"kind {transform.kind}",
        f"frame_length {transform.frame_length}",
        f"block_dim {transform.block_dim}",
    ]
    for name, M in (("encoder", A), ("decoder", Ahat)):
        lines.append(name)
        for row in M:
            lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def transform_from_text(text: str) -> CausalTransform:
    """Parse transform_to_text output; anything it could not have written is rejected."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# causal transform v1"):
        raise ValueError("unrecognized transform header")
    try:
        kind = lines[1].split()[1]
        n = int(lines[2].split()[1])
        m = int(lines[3].split()[1])
        dim = n * m
        if lines[4] != "encoder" or lines[5 + dim] != "decoder" or len(lines) != 6 + 2 * dim:
            raise ValueError
        mats = [np.array([[float(v) for v in lines[first + r].split()] for r in range(dim)])
                for first in (5, 6 + dim)]
        if any(M.shape != (dim, dim) for M in mats):
            raise ValueError
    except (IndexError, ValueError):
        raise ValueError("malformed or truncated transform file") from None
    # coeffs[j, i, k] = M[j*m + k, i*m + k] below the block diagonal
    below = np.tri(n, k=-1, dtype=bool)[:, :, None]
    coeffs = [np.where(below, np.diagonal(M.reshape(n, m, n, m), axis1=1, axis2=3), 0.0)
              for M in mats]
    transform = CausalTransform(kind, n, m, *coeffs)
    for name, M, built in zip(("encoder", "decoder"), mats, transform.assemble()):
        if not np.array_equal(M, built, equal_nan=True):
            raise ValueError(f"{name} matrix is not unit lower triangular with "
                             f"diagonal {m}x{m} blocks")
    return transform
