"""Causal transform codec: unit-diagonal lower triangular encode/decode ladders.

The encoder matrix A and decoder matrix Ahat are N x N, unit diagonal and
lower triangular.  Encoding runs the causal ladder
x_c[i] = Q_i(x[i] - sum_{j<i} A[i,j] x_c[j]), which realizes
x_c = inv(A) (x + q) with q the quantization noise.  Decoding forms
xhat = (Ahat o B) x_c where B is the binary availability matrix and o is the
element-wise product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import out_lanes
from .factorizations import ldl_unit_lower
from .quantizers import QuantizerBank
from .sources import validate_covariance

KINDS = ("identity", "full", "toeplitz", "plt")


@dataclass(frozen=True)
class CausalTransform:
    """Coefficients of the encoder/decoder pair.

    encoder_coeffs[j, i] is the entry A[j, i] of the encoder; only the strict
    lower triangle (j > i) may be nonzero.  The same layout holds for
    decoder_coeffs.
    """

    kind: str
    frame_length: int
    encoder_coeffs: np.ndarray
    decoder_coeffs: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.frame_length < 1:
            raise ValueError("frame_length must be positive")
        n = self.frame_length
        for name in ("encoder_coeffs", "decoder_coeffs"):
            coeffs = np.asarray(getattr(self, name), dtype=float)
            if coeffs.shape != (n, n):
                raise ValueError(f"{name} must have shape {(n, n)}, got {coeffs.shape}")
            if not np.all(np.isfinite(coeffs)):
                raise ValueError(f"{name} must be finite")
            if np.any(coeffs[np.triu_indices(n)]):
                raise ValueError(f"{name} must vanish on and above the diagonal")
            object.__setattr__(self, name, coeffs)
        if self.kind == "identity":
            if np.any(self.encoder_coeffs) or np.any(self.decoder_coeffs):
                raise ValueError("identity transform must have zero off-diagonal entries")
        if self.kind == "toeplitz":
            for coeffs in (self.encoder_coeffs, self.decoder_coeffs):
                for lag in range(1, n):
                    band = np.diagonal(coeffs, -lag)
                    if np.any(band != band[0]):
                        raise ValueError("toeplitz transform entries must be constant per lag")

    @classmethod
    def identity(cls, frame_length: int) -> CausalTransform:
        zeros = np.zeros((frame_length, frame_length))
        return cls("identity", frame_length, zeros, zeros.copy())

    def assemble(self) -> tuple[np.ndarray, np.ndarray]:
        """Assembled (A, Ahat), both unit diagonal lower triangular."""
        eye = np.eye(self.frame_length)
        return eye + self.encoder_coeffs, eye + self.decoder_coeffs

    def encoder_inverse(self) -> np.ndarray:
        A, _ = self.assemble()
        return np.linalg.inv(A)


def plt_design(K_x: np.ndarray) -> tuple[CausalTransform, np.ndarray]:
    """Prediction-based lower triangular transform from the source covariance.

    Factor K_x = L diag(d) L' with L unit lower triangular and use A = Ahat = L.
    Under fine quantization the quantizer inputs are then the one-step
    prediction errors, with covariance diag(d): exactly decorrelated.  Returns
    the transform and d (the design variance of each quantizer input).
    """
    K_x = validate_covariance(K_x, "K_x")
    L, d = ldl_unit_lower(K_x)
    coeffs = np.tril(L, -1)
    return CausalTransform("plt", K_x.shape[0], coeffs, coeffs.copy()), d


def quantizer_input_variances(transform: CausalTransform, K_x: np.ndarray) -> np.ndarray:
    """Fine-quantization variances of the ladder inputs: diag(inv(A) K_x inv(A)')."""
    Ainv = transform.encoder_inverse()
    return np.einsum("ij,jk,ik->i", Ainv, K_x, Ainv)


def encode_batch(frames: np.ndarray, transform: CausalTransform,
                 bank: QuantizerBank | None = None, noise: np.ndarray | None = None, *,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized ladder over (count, N) frames; returns (codevalues, quantizer_inputs).

    A bank without codebooks needs `noise`, (count, N) standard normals
    that are only read: quantizer i adds column i scaled by its modeled
    standard deviation, so rows coded with other banks can share one draw.
    With `out`, a float (count, N) array whose columns are contiguous (the
    transpose of C-ordered (N, count) lanes), the codevalues are written into
    it and (out, None) is returned: each lane's quantizer inputs are formed
    in its codevalue lane and not kept.
    """
    x = np.asarray(frames, dtype=float)
    n = transform.frame_length
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"frames must have shape (count, {n}), got {x.shape}")
    if bank is not None and bank.count != n:
        raise ValueError("bank layout does not match the transform")
    if bank is not None and bank.codebooks is None and noise is None:
        raise ValueError("modeled-noise encoding requires noise lanes")
    if bank is not None and bank.codebooks is None and np.shape(noise) != x.shape:
        raise ValueError(f"noise must have the frames' shape {x.shape}, got {np.shape(noise)}")
    codevalues = np.empty_like(x) if out is None else out_lanes(out, x.shape, float).T
    inputs = np.empty_like(x) if out is None else codevalues
    enc = transform.encoder_coeffs
    scratch = np.empty(x.shape[0])
    for i in range(n):
        # the prediction sum_{j<i} A[i,j] x_c[j], then the input x[i] minus it
        lane = inputs[:, i]
        lane.fill(0.0)
        for j in np.flatnonzero(enc[i, :i]):
            # zero coefficients are skipped: adding +-0 to a lane that starts at +0
            # changes no bit of a finite sum
            lane += np.multiply(codevalues[:, j], enc[i, j], out=scratch)
        np.subtract(x[:, i], lane, out=lane)
        if bank is None:
            codevalues[:, i] = lane
        elif bank.codebooks is not None:
            bank.codebooks[i].quantize_array(lane, out=codevalues[:, i])
        else:
            scaled = np.multiply(noise[:, i], np.sqrt(bank.noise_variances[i]), out=scratch)
            np.add(lane, scaled, out=codevalues[:, i])
    return (codevalues, inputs) if out is None else (out, None)


def decode_batch(codevalues: np.ndarray, transform: CausalTransform,
                 bits_stack: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Decode many frames, each with its own availability pattern.

    codevalues is (count, N) and bits_stack (count, N, N).  Element i of all
    frames is summed as a lane, Ahat[i, j] * x_c[:, j] * bits[:, i, j] over the
    nonzero Ahat[i, j] in order of j: xhat = (Ahat o B) x_c frame by frame.
    The result is the transpose of C-ordered (N, count) lanes; with `out`, an
    array of that shape, dtype and layout, it is written into `out`, which is
    returned.  `out` may be codevalues itself: the lanes are decoded from the
    last up, and lane i is read by its own diagonal term before it is cleared,
    so every lane is read before it is overwritten.
    """
    xc = np.asarray(codevalues, dtype=float)
    bits = np.asarray(bits_stack)
    n = transform.frame_length
    if xc.ndim != 2 or xc.shape[1] != n:
        raise ValueError(f"codevalues must have shape (count, {n}), got {xc.shape}")
    if bits.shape != (xc.shape[0], n, n):
        raise ValueError(f"bits_stack must have shape {(xc.shape[0], n, n)}, got {bits.shape}")
    lanes = np.empty((n, xc.shape[0])) if out is None else out_lanes(out, xc.shape, float)
    _, Ahat = transform.assemble()
    # both scratch lanes in one block: as two separate (count,) arrays they
    # came from the heap, whose growth raised the sweep's peak RSS
    term, own = np.empty((2, xc.shape[0]))
    for i in reversed(range(n)):
        # Ahat is unit diagonal: the last term of lane i is its own codevalue's
        np.multiply(xc[:, i], Ahat[i, i], out=own)
        np.multiply(own, bits[:, i, i], out=own)
        lane = lanes[i]
        lane.fill(0.0)
        for j in np.flatnonzero(Ahat[i, :i]):
            np.multiply(xc[:, j], Ahat[i, j], out=term)
            lane += np.multiply(term, bits[:, i, j], out=term)
        lane += own
    return lanes.T if out is None else out


def transform_to_text(transform: CausalTransform) -> str:
    """Flat text serialization: header plus row-major A and Ahat."""
    A, Ahat = transform.assemble()
    lines = [
        "# causal transform v1",
        f"kind {transform.kind}",
        f"frame_length {transform.frame_length}",
        "block_dim 1",
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
    if len(lines) > 3 and lines[3].split() != ["block_dim", "1"]:
        raise ValueError(f"transform line {lines[3]!r} is not 'block_dim 1': codes are scalar")
    try:
        kind = lines[1].split()[1]
        n = int(lines[2].split()[1])
        if lines[4] != "encoder" or lines[5 + n] != "decoder" or len(lines) != 6 + 2 * n:
            raise ValueError
        mats = [np.array([[float(v) for v in lines[first + r].split()] for r in range(n)])
                for first in (5, 6 + n)]
        if any(M.shape != (n, n) for M in mats):
            raise ValueError
    except (IndexError, ValueError):
        raise ValueError("malformed or truncated transform file") from None
    transform = CausalTransform(kind, n, *(np.tril(M, -1) for M in mats))
    for name, M, built in zip(("encoder", "decoder"), mats, transform.assemble()):
        if not np.array_equal(M, built):
            raise ValueError(f"{name} matrix is not unit lower triangular")
    return transform
