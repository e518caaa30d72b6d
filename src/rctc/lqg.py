"""LQG machinery: Riccati solution, analytic cost formulas, closed-loop simulator.

The controller is certainty equivalent: u_t = L xhat_t, with L derived from
the stabilizing solution P of the discrete Riccati equation
P = F'(P - P G (G'P G + S)^{-1} G'P) F + R.  The induced weighting on state
estimation error is R_eq = F'P F - P + R, and the stationary per-step cost of
running the coded loop splits into tr(P K_w) plus a weighted mean squared
error between the plant state and the decoder output.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, channel_moments
from .codec import CausalTransform
from .quantizers import QuantizerBank
from .sources import validate_covariance


class RiccatiConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class PlantModel:
    """Linear plant x_{t+1} = F x_t + G u_t + w_t with w_t ~ N(0, K_w); the coder sees x_t."""

    F: np.ndarray
    G: np.ndarray
    K_w: np.ndarray

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        d = F.shape[0]
        if F.shape != (d, d):
            raise ValueError("F must be square")
        G = np.asarray(self.G, dtype=float).reshape(d, -1)
        K_w = validate_covariance(np.atleast_2d(np.asarray(self.K_w, dtype=float)), "K_w")
        if K_w.shape != (d, d):
            raise ValueError("K_w must match the state dimension")
        ctrb = np.hstack([np.linalg.matrix_power(F, k) @ G for k in range(d)])
        if np.linalg.matrix_rank(ctrb) < d:
            raise ValueError("(F, G) must be controllable")
        for name, M in (("F", F), ("G", G), ("K_w", K_w)):
            object.__setattr__(self, name, M)

    @property
    def state_dim(self) -> int:
        return self.F.shape[0]

    @property
    def input_dim(self) -> int:
        return self.G.shape[1]

    @classmethod
    def scalar(cls, f: float, g: float, k_w: float) -> PlantModel:
        return cls([[f]], [[g]], [[k_w]])


@dataclass(frozen=True)
class LqgWeights:
    """Quadratic cost weights: R on the state, S on the control."""

    R: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        for name in ("R", "S"):
            M = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            validate_covariance(M, name)
            try:
                np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                raise ValueError(f"{name} must be positive definite") from None
            object.__setattr__(self, name, M)

    @classmethod
    def scalar(cls, r: float, s: float) -> LqgWeights:
        return cls([[r]], [[s]])


def solve_riccati(plant: PlantModel, weights: LqgWeights, *, rel_tol: float = 1e-12,
                  max_iterations: int = 1_000_000) -> np.ndarray:
    """Stabilizing solution of the discrete Riccati equation by fixed-point iteration.

    Starts from P = R and iterates the Riccati map until the relative update
    falls below rel_tol.  Raises RiccatiConvergenceError (with the last
    residual) if the budget runs out.
    """
    F, G = plant.F, plant.G
    R, S = weights.R, weights.S
    # (F, R^(1/2)) observability guarantees the stabilizing solution is reached
    sqrt_R = np.linalg.cholesky(R).T
    obs = np.vstack([sqrt_R @ np.linalg.matrix_power(F, k) for k in range(plant.state_dim)])
    if np.linalg.matrix_rank(obs) < plant.state_dim:
        raise ValueError("(F, R^(1/2)) must be observable")
    P = R.copy()
    residual = math.inf
    for _ in range(max_iterations):
        GPG = G.T @ P @ G + S
        K = np.linalg.solve(GPG, G.T @ P @ F)
        P_next = F.T @ P @ F - K.T @ GPG @ K + R
        P_next = 0.5 * (P_next + P_next.T)
        residual = float(np.linalg.norm(P_next - P))
        P = P_next
        if residual <= rel_tol * max(float(np.linalg.norm(P)), 1e-300):
            return P
    raise RiccatiConvergenceError(
        f"no convergence within {max_iterations} iterations", residual)


def riccati_residual(P: np.ndarray, plant: PlantModel, weights: LqgWeights) -> float:
    """Frobenius norm of P minus the Riccati map applied to P."""
    F, G = plant.F, plant.G
    GPG = G.T @ P @ G + weights.S
    K = np.linalg.solve(GPG, G.T @ P @ F)
    return float(np.linalg.norm(F.T @ P @ F - K.T @ GPG @ K + weights.R - P))


def ce_gain(P: np.ndarray, plant: PlantModel, weights: LqgWeights) -> np.ndarray:
    """Certainty-equivalent feedback gain L = -(G'PG + S)^{-1} G'PF."""
    G, F = plant.G, plant.F
    return -np.linalg.solve(G.T @ P @ G + weights.S, G.T @ P @ F)


def weight_req(P: np.ndarray, plant: PlantModel, weights: LqgWeights) -> np.ndarray:
    """Estimation-error weighting R_eq = F'PF - P + R induced by the LQG cost."""
    R_eq = plant.F.T @ P @ plant.F - P + weights.R
    return 0.5 * (R_eq + R_eq.T)


@dataclass(frozen=True)
class ControllerSolution:
    """Riccati solution P, feedback gain L, and error weighting R_eq."""

    P: np.ndarray
    L: np.ndarray
    R_eq: np.ndarray

    def weight_block(self, frame_length: int) -> np.ndarray:
        """Block-diagonal replication of R_eq over a coding frame."""
        return np.kron(np.eye(frame_length), self.R_eq)


def controller_solution(plant: PlantModel, weights: LqgWeights, **riccati_kwargs) -> ControllerSolution:
    P = solve_riccati(plant, weights, **riccati_kwargs)
    res = riccati_residual(P, plant, weights)
    if res > 1e-10 * float(np.linalg.norm(P)):
        raise RiccatiConvergenceError(f"Riccati residual {res:.3e} too large", res)
    L = ce_gain(P, plant, weights)
    closed = plant.F + plant.G @ L
    radius = float(np.max(np.abs(np.linalg.eigvals(closed))))
    if radius >= 1.0:
        raise ValueError(f"closed loop is unstable (spectral radius {radius:.6g})")
    return ControllerSolution(P, L, weight_req(P, plant, weights))


def frame_error_terms(mean_H: np.ndarray, W: np.ndarray, K_x: np.ndarray,
                      K_q: np.ndarray, M: np.ndarray | None = None) -> tuple[float, float]:
    """Signal and noise error energies from the channel moments E[H] and W = E[H'MH].

    signal = tr(E[(I - H)' M (I - H)] K_x) = tr(M K_x) - 2 tr(M E[H] K_x) + tr(W K_x)
    and noise = tr(W K_q), for symmetric M, K_x and K_q.
    """
    MK_x = K_x if M is None else M @ K_x
    signal = np.trace(MK_x) - 2.0 * np.vdot(mean_H, MK_x) + np.vdot(W, K_x)
    return float(signal), float(np.vdot(W, K_q))


def expected_error_terms(transform: CausalTransform, marginals: np.ndarray,
                         K_x: np.ndarray, K_q: np.ndarray,
                         M: np.ndarray | None = None) -> tuple[float, float]:
    """Channel-averaged signal and noise error energies over one frame.

    signal = tr(E_B[(I - H_eq)' M (I - H_eq)] K_x) and
    noise  = tr(E_B[H_eq' M H_eq] K_q), with H_eq = (Ahat o B) inv(A) and the
    exact expectation taken over B from its N x N availability marginals.
    """
    n = transform.dim
    K_x = np.asarray(K_x, dtype=float)
    K_q = np.asarray(K_q, dtype=float)
    if K_x.shape != (n, n) or K_q.shape != (n, n):
        raise ValueError(f"K_x and K_q must be {n}x{n}")
    if np.shape(marginals) != (transform.frame_length, transform.frame_length):
        raise ValueError("availability marginals do not match the transform frame length")
    _, Ahat = transform.assemble()
    moments = channel_moments(marginals, transform.block_dim, M)
    mean_H, W = moments(Ahat, transform.encoder_inverse())
    return frame_error_terms(mean_H, W, K_x, K_q, M)


def am_wmse(transform: CausalTransform, marginals: np.ndarray, K_x: np.ndarray,
            K_q: np.ndarray, M: np.ndarray | None = None) -> float:
    """Arithmetic mean (over the mN frame slots) of the weighted MSE x - xhat."""
    signal, noise = expected_error_terms(transform, marginals, K_x, K_q, M)
    return (signal + noise) / transform.dim


def analytic_lqg_cost(solution: ControllerSolution, plant: PlantModel,
                      marginals: np.ndarray, transform: CausalTransform,
                      K_x: np.ndarray, K_q: np.ndarray) -> float:
    """Stationary per-step LQG cost of the coded loop under fine quantization.

    tr(P K_w) plus the frame error terms weighted by R_eq, averaged over the
    frame's N sample periods; written via am_wmse so the cost/WMSE
    decomposition is exact by construction.
    """
    if transform.block_dim != plant.state_dim:
        raise ValueError("transform block dimension must equal the state dimension")
    M = solution.weight_block(transform.frame_length)
    base = float(np.trace(solution.P @ plant.K_w))
    return base + plant.state_dim * am_wmse(transform, marginals, K_x, K_q, M)


@dataclass
class TraceRecord:
    step: int
    state: float
    quantizer_input: float
    codevalue: float
    availability: str
    reconstruction: float
    control: float
    cost: float


@dataclass
class SimulationResult:
    empirical_cost: float
    standard_error: float
    steps: int
    diverged: bool
    trace: list[TraceRecord] | None


def batch_standard_error(values: np.ndarray) -> float:
    """Standard error of the mean of a correlated series, by batch means."""
    count = values.size
    if count < 2:
        return math.nan
    if count < 8:
        return float(np.std(values, ddof=1) / math.sqrt(count))
    batches = max(2, min(256, count // 64))
    size = count // batches
    means = values[: batches * size].reshape(batches, size).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(batches))


def simulate_closed_loop(plant: PlantModel, weights: LqgWeights,
                         solution: ControllerSolution, transform: CausalTransform,
                         bank: QuantizerBank | None, channel_model: ChannelModel,
                         horizon: int, seed: int, *, collect_trace: bool = False,
                         divergence_bound: float = 1e9) -> SimulationResult:
    """Simulate the coded LQG loop of a scalar plant and return the empirical per-step cost.

    Each sample period feeds the current state into the running frame ladder,
    draws the transmission delay of that element, reconstructs it from
    whatever same-frame indices met their deadlines, and applies u = L xhat.
    The per-step cost is xhat'R xhat + u'S u + e'R e with e = x - xhat.
    Deterministic given the seed; collect_trace adds one TraceRecord per step
    and changes no number.  If the state norm exceeds divergence_bound the run
    stops and reports a partial result instead of raising.
    """
    n = transform.frame_length
    if transform.block_dim != 1 or plant.state_dim != 1 or plant.input_dim != 1:
        raise ValueError("closed-loop simulation needs a scalar plant (one state, "
                         "one input) and a transform of block dim 1")
    if channel_model.frame_length != n:
        raise ValueError("channel frame length does not match the transform")
    if bank is not None and (bank.count != n or bank.block_dim != 1):
        raise ValueError("bank layout does not match the transform")
    if horizon < n:
        raise ValueError("horizon must cover at least one frame")
    rng = np.random.default_rng(seed)
    f = float(plant.F[0, 0])
    g = float(plant.G[0, 0])
    l = float(solution.L[0, 0])
    r_w = float(weights.R[0, 0])
    s_w = float(weights.S[0, 0])
    sqrt_kw = math.sqrt(max(float(plant.K_w[0, 0]), 0.0))
    enc_rows = [[float(transform.encoder_coeffs[i, j, 0]) for j in range(i)] for i in range(n)]
    dec_rows = [[float(transform.decoder_coeffs[i, j, 0]) for j in range(i)] + [1.0]
                for i in range(n)]
    thr_rows = [[channel_model.deadline + (i - j) * channel_model.sample_period
                 for j in range(i + 1)] for i in range(n)]
    mean_delay = channel_model.mean_delay
    mode = "ideal"
    sigma_q = levels = bounds = None
    if bank is not None and bank.codebooks is not None:
        mode = "realized"
        levels = [list(map(float, bank.codebooks[i].levels)) for i in range(n)]
        bounds = [list(map(float, bank.codebooks[i].boundaries)) for i in range(n)]
    elif bank is not None:
        mode = "modeled"
        sigma_q = [math.sqrt(float(v)) for v in bank.noise_variances]
    std_normal = rng.standard_normal
    exponential = rng.exponential
    x = 0.0
    xc = [0.0] * n
    delays = [0.0] * n
    total = 0.0
    frame_costs = []
    frame_cost = 0.0
    trace = [] if collect_trace else None
    diverged = False
    steps = 0
    for t in range(horizon):
        i = t % n
        d_val = x
        row = enc_rows[i]
        for j in range(i):
            d_val -= row[j] * xc[j]
        if mode == "modeled":
            xc_i = d_val + sigma_q[i] * std_normal()
        elif mode == "realized":
            xc_i = levels[i][bisect_left(bounds[i], d_val)]
        else:
            xc_i = d_val
        xc[i] = xc_i
        delays[i] = exponential(mean_delay)
        xhat = 0.0
        dec_row = dec_rows[i]
        thr_row = thr_rows[i]
        for j in range(i + 1):
            if delays[j] <= thr_row[j]:
                xhat += dec_row[j] * xc[j]
        u = l * xhat
        e = x - xhat
        cost = r_w * xhat * xhat + s_w * u * u + r_w * e * e
        total += cost
        frame_cost += cost
        steps = t + 1
        if collect_trace:
            avail = "".join("1" if delays[j] <= thr_row[j] else "0" for j in range(i + 1))
            trace.append(TraceRecord(t, x, d_val, xc_i, avail, xhat, u, cost))
        if i == n - 1:
            frame_costs.append(frame_cost)
            frame_cost = 0.0
        x = f * x + g * u + sqrt_kw * std_normal()
        if not math.isfinite(x) or abs(x) > divergence_bound:
            diverged = True
            break
    cost_mean = total / steps if steps else math.nan
    stderr = batch_standard_error(np.asarray(frame_costs) / n)
    return SimulationResult(cost_mean, stderr, steps, diverged, trace)


def pilot_state_variance(plant: PlantModel, solution: ControllerSolution) -> float:
    """Stationary state variance K_w / (1 - a^2) of the ideal-observation loop, a = F + GL.

    Sizes the design-time source model, whose AR coefficient is set apart
    (`design_coefficient`).  controller_solution guarantees |a| < 1.
    """
    if plant.state_dim != 1:
        raise ValueError("the stationary state variance is wired for scalar plants")
    a = float((plant.F + plant.G @ solution.L)[0, 0])
    return float(plant.K_w[0, 0]) / (1.0 - a * a)
