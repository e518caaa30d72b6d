"""LQG machinery: Riccati solution, analytic cost formulas, closed-loop simulator.

The controller is certainty equivalent: u_t = L xhat_t, with L derived from
the stabilizing solution P of the discrete Riccati equation
P = F'(P - P G (G'P G + S)^{-1} G'P) F + R.  The induced weighting on state
estimation error is R_eq = F'P F - P + R, and the stationary per-step cost of
running the coded loop splits into tr(P K_w) plus R_eq times the mean squared
error between the plant state and the decoder output.  Only scalar plants are
wired to the coder, so R_eq is a number: it enters once, in
analytic_lqg_cost, and every error term below is the plain, unweighted MSE.
"""
from __future__ import annotations

import math
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
                      K_q: np.ndarray) -> tuple[float, float]:
    """Signal and noise error energies from the channel moments E[H] and W = E[H'H].

    signal = tr(E[(I - H)'(I - H)] K_x) = tr(K_x) - 2 tr(E[H] K_x) + tr(W K_x)
    and noise = tr(W K_q), for symmetric K_x and K_q.
    """
    signal = np.trace(K_x) - 2.0 * np.vdot(mean_H, K_x) + np.vdot(W, K_x)
    return float(signal), float(np.vdot(W, K_q))


def expected_error_terms(transform: CausalTransform, marginals: np.ndarray,
                         K_x: np.ndarray, K_q: np.ndarray) -> tuple[float, float]:
    """Channel-averaged signal and noise error energies over one frame.

    signal = tr(E_B[(I - H_eq)'(I - H_eq)] K_x) and
    noise  = tr(E_B[H_eq' H_eq] K_q), with H_eq = (Ahat o B) inv(A) and the
    exact expectation taken over B from its N x N availability marginals.
    """
    n = transform.frame_length
    K_x = np.asarray(K_x, dtype=float)
    K_q = np.asarray(K_q, dtype=float)
    if K_x.shape != (n, n) or K_q.shape != (n, n):
        raise ValueError(f"K_x and K_q must be {n}x{n}")
    if np.shape(marginals) != (n, n):
        raise ValueError("availability marginals do not match the transform frame length")
    _, Ahat = transform.assemble()
    mean_H, W = channel_moments(marginals)(Ahat, transform.encoder_inverse())
    return frame_error_terms(mean_H, W, K_x, K_q)


def am_wmse(transform: CausalTransform, marginals: np.ndarray, K_x: np.ndarray,
            K_q: np.ndarray) -> float:
    """Arithmetic mean (over the N frame slots) of the MSE of x - xhat.

    The name keeps the W of the weighted MSE the paper poses; for the LQG
    loop that weight is the scalar R_eq, which analytic_lqg_cost applies.
    """
    signal, noise = expected_error_terms(transform, marginals, K_x, K_q)
    return (signal + noise) / transform.frame_length


def analytic_lqg_cost(solution: ControllerSolution, plant: PlantModel,
                      marginals: np.ndarray, transform: CausalTransform,
                      K_x: np.ndarray, K_q: np.ndarray) -> float:
    """Stationary per-step LQG cost of the coded loop of a scalar plant under fine quantization.

    tr(P K_w) + R_eq am_wmse: the error weight R_eq is applied here and
    nowhere else, so the cost/WMSE decomposition is exact by construction.
    """
    if plant.state_dim != 1:
        raise ValueError("the analytic LQG cost is wired for scalar plants")
    base = float(np.trace(solution.P @ plant.K_w))
    return base + float(solution.R_eq[0, 0]) * am_wmse(transform, marginals, K_x, K_q)


@dataclass
class TraceRecord:
    step: int
    replica: int
    state: float
    quantizer_input: float
    codevalue: float
    availability: str
    reconstruction: float
    control: float
    cost: float


@dataclass
class SimulationResult:
    """Outcome of one closed-loop run.

    `replica_means` holds the mean per-step cost of every replica that ran at
    least one step, in replica order; the standard error is taken from them.
    """

    empirical_cost: float
    standard_error: float
    steps: int
    diverged: bool
    trace: list[TraceRecord] | None
    replica_means: np.ndarray


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


# Independent replicas the closed-loop simulator runs side by side.  Not a
# tuning knob: the horizon is cut into this many segments, so more replicas
# mean shorter ones, and a short segment of an unstable loop can end before
# its state crosses the divergence bound.  (Over 5,000 steps of an all-lost
# loop of F = 1.49 at frame length 3, the largest |x| is 1.2e13 with 64
# replicas, 1.0e3 with 256 and 3.5 with 1,024.)
REPLICAS = 64

# Frames the closed-loop simulator runs through its ladder at once.  Not a
# tuning knob: every frame's numbers come from the same elementwise
# operations, and every running sum from the same step-by-step additions,
# whatever the chunk, so it changes no number.  It only trades per-frame
# Python overhead against memory.  The buffers are reused from chunk to chunk
# and, with their temporaries, peak at 1.5 MB at N = 6 and 2.1 MB at N = 8.
# (400,000 steps at N = 6: 8 frames took 0.8 MB and 12 % more time than 16;
# 32 frames took 2.9 MB and no less time.)
CHUNK_FRAMES = 16


def replica_lengths(horizon: int, frame_length: int) -> np.ndarray:
    """Steps of each of the REPLICAS segments that together make up the horizon.

    Whole frames are shared out evenly, the first replicas taking one frame
    more; the partial last frame (horizon mod frame_length steps) goes to the
    first replica with one frame fewer.  So the lengths sum to the horizon
    and differ by at most one frame.
    """
    full, tail = divmod(horizon, frame_length)
    frames, extra = divmod(full, REPLICAS)
    lengths = np.full(REPLICAS, frames * frame_length)
    lengths[:extra] += frame_length
    lengths[extra] += tail
    return lengths


def simulate_closed_loop(plant: PlantModel, weights: LqgWeights,
                         solution: ControllerSolution, transform: CausalTransform,
                         bank: QuantizerBank | None, channel_model: ChannelModel,
                         horizon: int, seed: int, *, collect_trace: bool = False,
                         divergence_bound: float = 1e9) -> SimulationResult:
    """Simulate the coded LQG loop of a scalar plant and return the empirical per-step cost.

    The horizon is split over REPLICAS independent copies of the loop
    (`replica_lengths`), run side by side as arrays.  Each starts from the
    stationary law N(0, K_w/(1 - a^2)) of the ideal-observation loop,
    a = F + GL.  Each sample period feeds the current state into the running
    frame ladder, reconstructs it from whatever same-frame indices met their
    deadlines, and applies u = L xhat; the per-step cost is
    xhat'R xhat + u'S u + e'R e with e = x - xhat.

    The coder restarts every frame, so with modeled noise or none every
    value in a frame is affine in the frame's start state x_0, and the frame
    ends in phi x_0 + psi: phi depends only on the frame's arrivals, psi only
    on its noise.  The ladder therefore runs over CHUNK_FRAMES frames at
    once, on two lanes: a noise lane from x_0 = 0 with the drawn noise, and
    a unit lane from x_0 = 1 without it.  The scan x_{k+1} = phi_k x_k + psi_k
    then gives every frame's start state, and each value of frame k is its
    noise-lane value plus x_k times its unit-lane value.  Codebooks make the
    loop nonlinear, so a bank with them runs the same ladder a frame at a
    time on the noise lane alone, started from the known state.

    Random draws, from one generator seeded with `seed`: the REPLICAS start
    states, then for each frame an (N, REPLICAS) block of delays, one of
    quantizer noise (modeled banks only) and one of process noise.  The
    chunk does not change this order.

    The cost is the sum of the per-replica cost sums, each summed step by
    step, over the steps run, and the standard error is that of the mean of
    the per-replica means.  collect_trace adds one TraceRecord per step,
    replica by replica, and changes no number.  The state is checked against
    divergence_bound at every frame end; once any replica's state exceeds it
    (or is not finite) the run stops after that frame and reports a partial
    result instead of raising.
    """
    n = transform.frame_length
    if plant.state_dim != 1 or plant.input_dim != 1:
        raise ValueError("closed-loop simulation needs a scalar plant (one state, one input)")
    if channel_model.frame_length != n:
        raise ValueError("channel frame length does not match the transform")
    if bank is not None and bank.count != n:
        raise ValueError("bank layout does not match the transform")
    if horizon < n:
        raise ValueError("horizon must cover at least one frame")
    lengths = replica_lengths(horizon, n)
    rng = np.random.default_rng(seed)
    f = float(plant.F[0, 0])
    g = float(plant.G[0, 0])
    l = float(solution.L[0, 0])
    r_w = float(weights.R[0, 0])
    s_w = float(weights.S[0, 0])
    sqrt_kw = math.sqrt(float(plant.K_w[0, 0]))
    # coefficients broadcast over ([lane,] frame, replica)
    neg_enc = -transform.encoder_coeffs[:, :, None, None, None]
    dec = transform.assemble()[1][:, :, None, None]
    thresholds = channel_model.thresholds()[:, :, None, None]
    sigma_q = codebooks = None
    if bank is not None and bank.codebooks is not None:
        codebooks = [(book.boundaries, book.levels) for book in bank.codebooks]
    elif bank is not None:
        sigma_q = np.sqrt(bank.noise_variances)[:, None]
    R = REPLICAS
    # lane 0 is the noise lane, lane 1 the unit lane; with codebooks lane 0
    # alone carries the whole state
    lanes, chunk = (1, 1) if codebooks is not None else (2, CHUNK_FRAMES)
    # [quantity, element, lane, frame, replica] for the quantities x, xhat,
    # u, d and xc; x[i] is the state at frame element i, x[n] the frame's end
    ladder = np.zeros((5, n + 1, lanes, chunk, R))
    scratch = np.empty((n, lanes, chunk, R))
    # the last chunk runs whole; its frames past the horizon hold old draws
    delays, q_noise, w = (np.zeros((chunk, n, R)) for _ in range(3))
    arrived = np.empty((n, n, chunk, R), dtype=bool)  # [i, j, k, r]: index j is in by element i
    dec_arrived = np.empty((n, n, chunk, R))
    X, XH, U, D, XC = ladder
    DA = dec_arrived[:, :, None]
    starts = np.empty((chunk + 1, R))  # start state of each frame of the chunk, and the next
    starts[0] = math.sqrt(pilot_state_variance(plant, solution)) * rng.standard_normal(R)
    kept = 5 if collect_trace else 3
    sums = np.zeros(R)
    done = np.zeros(R, dtype=int)
    records = [] if collect_trace else None
    diverged = False
    frames = -(-int(lengths.max()) // n)
    whole_frames = int(lengths.min()) // n
    for first in range(0, frames, chunk):
        c = min(chunk, frames - first)
        for k in range(c):
            rng.standard_exponential(out=delays[k])
            if sigma_q is not None:
                rng.standard_normal(out=q_noise[k])
            rng.standard_normal(out=w[k])
        delays *= channel_model.mean_delay
        if sigma_q is not None:
            q_noise *= sigma_q
        w *= sqrt_kw
        np.less_equal(delays.transpose(1, 0, 2), thresholds, out=arrived)
        np.multiply(dec, arrived, out=dec_arrived)
        held = None
        if first + c > whole_frames:  # the last frame, cut short for some replicas
            t = (first + np.arange(chunk)) * n + np.arange(n)[:, None]
            held = lengths <= t[:, :, None]
        X[0, 0] = starts[0] if lanes == 1 else 0.0
        X[0, 1:] = 1.0  # the unit lane, if any
        for i in range(n):
            if i:
                # x - sum_j enc[i, j] xc[j], subtracted term by term
                scratch[0] = X[i]
                np.multiply(neg_enc[i, :i], XC[:i], out=scratch[1:i + 1])
                scratch[:i + 1].sum(axis=0, out=D[i])
            else:
                D[0] = X[0]
            if sigma_q is not None:
                XC[i] = D[i]
                XC[i, 0] += q_noise[:, i]
            elif codebooks is not None:
                bounds, levels = codebooks[i]
                XC[i] = levels[np.searchsorted(bounds, D[i], side="left")]
            else:
                XC[i] = D[i]
            np.multiply(DA[i, :i + 1], XC[:i + 1], out=scratch[:i + 1])
            scratch[:i + 1].sum(axis=0, out=XH[i])
            np.multiply(XH[i], l, out=U[i])
            np.multiply(X[i], f, out=X[i + 1])
            X[i + 1] += g * U[i]
            X[i + 1, 0] += w[:, i]
            if held is not None:
                np.copyto(X[i + 1], X[i], where=held[i])
        # each frame's start state, checked at every frame end
        stop = c
        for k in range(c):
            if lanes == 2:
                np.multiply(X[n, 1, k], starts[k], out=starts[k + 1])
                starts[k + 1] += X[n, 0, k]
            else:
                starts[k + 1] = X[n, 0, k]
            if not np.abs(starts[k + 1]).max() <= divergence_bound:
                diverged = True
                stop = k + 1
                break
        # the quantities at the frames' true start states, in lane 0
        V = ladder[:kept, :n, 0, :stop]
        if lanes == 2:
            unit = ladder[:kept, :n, 1, :stop]
            unit *= starts[:stop]
            V += unit
        state, rec_x, control = V[:3]
        err = state - rec_x
        cost = r_w * rec_x * rec_x + s_w * control * control + r_w * err * err
        if held is None:
            done += n * stop
        else:
            held = held[:, :stop]
            cost[held] = 0.0
            done += n * stop - held.sum(axis=(0, 1))
        # each replica's running sum, step by step along time
        steps_cost = np.concatenate((sums[None], cost.transpose(1, 0, 2).reshape(-1, R)))
        sums = np.add.accumulate(steps_cost, axis=0)[-1]
        if collect_trace:
            for k in range(stop):
                records.append([a[:, k].tolist() for a in (state, V[3], V[4], rec_x,
                                                           control, cost)]
                               + [arrived[:, :, k].tolist()])
        if diverged:
            break
        starts[0] = starts[c]
    steps = int(done.sum())
    ran = done > 0
    means = sums[ran] / done[ran]
    cost_mean = math.fsum(sums) / steps if steps else math.nan
    stderr = (float(np.std(means, ddof=1) / math.sqrt(means.size))
              if means.size >= 2 else math.nan)
    trace = None
    if collect_trace:
        trace = []
        for r in range(R):
            for t in range(done[r]):
                frame, i = divmod(t, n)
                state, d_val, code, rec_x, control, cost_t, arr = records[frame]
                avail = "".join("1" if arr[i][j][r] else "0" for j in range(i + 1))
                trace.append(TraceRecord(len(trace), r, state[i][r], d_val[i][r],
                                         code[i][r], avail, rec_x[i][r],
                                         control[i][r], cost_t[i][r]))
    return SimulationResult(cost_mean, stderr, steps, diverged, trace, means)


def loop_pole(plant: PlantModel, solution: ControllerSolution) -> float:
    """Pole a = F + GL of the ideal-observation loop of a scalar plant.

    Without coding errors the closed-loop state is the AR(1)
    x_{t+1} = a x_t + w_t; controller_solution guarantees |a| < 1.
    """
    if plant.state_dim != 1:
        raise ValueError("the closed-loop pole is wired for scalar plants")
    return float((plant.F + plant.G @ solution.L)[0, 0])


def pilot_state_variance(plant: PlantModel, solution: ControllerSolution) -> float:
    """Stationary state variance K_w / (1 - a^2) of the ideal-observation loop, a = F + GL.

    With `loop_pole` it makes the design-time source model of the LQG
    sweep, the AR(1) of coefficient a and this variance, and it is the law
    the simulator's replicas start from.
    """
    a = loop_pole(plant, solution)
    return float(plant.K_w[0, 0]) / (1.0 - a * a)
