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
from collections.abc import Sequence
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
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        if G.shape == (1, d):
            G = G.T  # a row of d gains: a one-input plant
        if G.ndim != 2 or G.shape[0] != d:
            raise ValueError(f"G must have {d} rows, one per state, or be a 1x{d} row "
                             f"for one input, got shape {'x'.join(map(str, G.shape))}")
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


def _riccati_map(P: np.ndarray, plant: PlantModel, weights: LqgWeights):
    """(F'PF - K'(G'PG + S)K + R, K) with K = (G'PG + S)^{-1} G'PF: the Riccati map of P."""
    F, G = plant.F, plant.G
    GPG = G.T @ P @ G + weights.S
    K = np.linalg.solve(GPG, G.T @ P @ F)
    return F.T @ P @ F - K.T @ GPG @ K + weights.R, K


RICCATI_TOL = 1e-12
RICCATI_MAX_ITERATIONS = 1_000_000


def solve_riccati(plant: PlantModel, weights: LqgWeights) -> np.ndarray:
    """Stabilizing solution of the discrete Riccati equation by fixed-point iteration.

    Starts from P = R and iterates the Riccati map until the relative update
    falls below RICCATI_TOL.  Raises ValueError unless R is d x d and S is
    m x m for a plant of d states and m inputs, and RiccatiConvergenceError
    (with the last residual) if RICCATI_MAX_ITERATIONS run out, or at the
    first iterate whose update overflows, its norm not finite.
    """
    F, R = plant.F, weights.R
    for name, M, size, what in (("R", R, plant.state_dim, "state"),
                                ("S", weights.S, plant.input_dim, "input")):
        if M.shape != (size, size):
            raise ValueError(f"{name} must be {size}x{size}, the plant's {what} dimension, "
                             f"got {M.shape[0]}x{M.shape[1]}")
    # (F, R^(1/2)) observability guarantees the stabilizing solution is reached
    sqrt_R = np.linalg.cholesky(R).T
    obs = np.vstack([sqrt_R @ np.linalg.matrix_power(F, k) for k in range(plant.state_dim)])
    if np.linalg.matrix_rank(obs) < plant.state_dim:
        raise ValueError("(F, R^(1/2)) must be observable")
    P = R.copy()
    residual = math.inf
    # an overflow shows as a non-finite residual, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, RICCATI_MAX_ITERATIONS + 1):
            P_next, _ = _riccati_map(P, plant, weights)
            P_next = 0.5 * (P_next + P_next.T)
            residual = float(np.linalg.norm(P_next - P))
            if not math.isfinite(residual):
                raise RiccatiConvergenceError(
                    f"Riccati iteration overflowed at iterate {iteration}", residual)
            P = P_next
            if residual <= RICCATI_TOL * max(float(np.linalg.norm(P)), 1e-300):
                return P
    raise RiccatiConvergenceError(
        f"no convergence within {RICCATI_MAX_ITERATIONS} iterations", residual)


def riccati_residual(P: np.ndarray, plant: PlantModel, weights: LqgWeights) -> float:
    """Frobenius norm of P minus the Riccati map applied to P."""
    return float(np.linalg.norm(_riccati_map(P, plant, weights)[0] - P))


def ce_gain(P: np.ndarray, plant: PlantModel, weights: LqgWeights) -> np.ndarray:
    """Certainty-equivalent feedback gain L = -(G'PG + S)^{-1} G'PF."""
    return -_riccati_map(P, plant, weights)[1]


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


def controller_solution(plant: PlantModel, weights: LqgWeights) -> ControllerSolution:
    P = solve_riccati(plant, weights)
    res = riccati_residual(P, plant, weights)
    if res > 1e-10 * float(np.linalg.norm(P)):
        raise RiccatiConvergenceError(f"Riccati residual {res:.3e} too large", res)
    L = ce_gain(P, plant, weights)
    closed = plant.F + plant.G @ L
    radius = float(np.max(np.abs(np.linalg.eigvals(closed))))
    if radius >= 1.0:
        raise ValueError(f"closed loop is unstable (spectral radius {radius:.6g})")
    return ControllerSolution(P, L, weight_req(P, plant, weights))


def frame_mse(mean_H: np.ndarray, W: np.ndarray, K_x: np.ndarray, K: np.ndarray):
    """Mean squared error per frame slot from the channel moments E[H] and W = E[H'H].

    (tr K_x - 2 tr(E[H] K_x) + tr(W K)) / N with K = K_x + K_q, which is
    E[tr((I - H) K_x (I - H)') + tr(H K_q H')] / N for symmetric K_x and
    K_q; of one frame's (N, N) arrays or of a stack of them.
    """
    n = K_x.shape[-1]
    return (np.trace(K_x, axis1=-2, axis2=-1)
            + (W * K - 2.0 * mean_H * K_x).sum(axis=(-2, -1))) / n


def am_wmse(transform: CausalTransform, marginals: np.ndarray, K_x: np.ndarray,
            K_q: np.ndarray) -> float:
    """Arithmetic mean (over the N frame slots) of the MSE of x - xhat.

    The `frame_mse` of H_eq = (Ahat o B) inv(A), the exact expectation taken
    over B from its N x N availability marginals.  The name keeps the W of
    the weighted MSE the paper poses; for the LQG loop that weight is the
    scalar R_eq, which analytic_lqg_cost applies.
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
    return float(frame_mse(mean_H, W, K_x, K_x + K_q))


def analytic_lqg_cost(solution: ControllerSolution, plant: PlantModel,
                      am_wmse: float) -> float:
    """Stationary per-step LQG cost of the coded loop of a scalar plant under fine quantization.

    tr(P K_w) + R_eq am_wmse, for the coded loop's AM-MSE `am_wmse` (as
    the function `am_wmse` computes it): the error weight R_eq is applied
    here and nowhere else, so the cost/WMSE decomposition is exact by
    construction.
    """
    if plant.state_dim != 1:
        raise ValueError("the analytic LQG cost is wired for scalar plants")
    base = float(np.trace(solution.P @ plant.K_w))
    return base + float(solution.R_eq[0, 0]) * am_wmse


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
    """Outcome of one design's closed-loop run.

    `replica_means` holds the mean per-step cost of every replica that ran at
    least one step, in replica order; the standard error is taken from them.
    """

    empirical_cost: float
    standard_error: float
    steps: int
    diverged: bool
    trace: list[TraceRecord] | None
    replica_means: np.ndarray


class SimulationResults(tuple):
    """The SimulationResult of each design of one lockstep run, in design order.

    `steps` totals the steps run over the designs and `diverged` counts the
    designs that diverged.
    """

    @property
    def steps(self) -> int:
        return sum(result.steps for result in self)

    @property
    def diverged(self) -> int:
        return sum(result.diverged for result in self)


def standard_error(values: np.ndarray) -> float:
    """Standard error of the mean of independent values: std(ddof=1) / sqrt(n), nan below two."""
    if values.size < 2:
        return math.nan
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


# Independent replicas the closed-loop simulator runs side by side.  Not a
# tuning knob: the horizon is cut into this many segments, so more replicas
# mean shorter ones, and a short segment of an unstable loop can end before
# its state crosses the divergence bound.  (Over 5,000 steps of an all-lost
# loop of F = 1.49 at frame length 3, the largest |x| is 1.2e13 with 64
# replicas, 1.0e3 with 256 and 3.5 with 1,024.)
REPLICAS = 64

# Frames the closed-loop simulator runs through its ladder at once.  Not a
# tuning knob: every frame's numbers come from the same elementwise
# operations, every draw stream fills its blocks in frame order and every
# running sum comes from the same step-by-step additions, whatever the chunk,
# so it changes no number.  It trades per-frame Python overhead against
# memory: the buffers, reused from chunk to chunk, peak with their
# temporaries at about 1.1 MiB at N = 6 and 1.5 MiB at N = 8.
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


class _LoopDesign:
    """One design of a lockstep run: its coefficients and the state it carries between chunks.

    The decoder row i runs from its first nonzero entry, first[i], to the
    diagonal; entries[i] is that run's slice of the lower-triangle entries,
    which are numbered row by row, spans the runs merged where one ends as
    the next begins (one span for a decoder with no zero below the
    diagonal, N for an identity decoder), and entry_dec holds the decoder at
    every lower-triangle entry.  start is the start state of each replica's next
    frame, sums its running cost sum, done its steps run and records, with
    collect_trace, the trace values of each frame run.
    """

    def __init__(self, transform: CausalTransform, bank: QuantizerBank | None,
                 row_starts: np.ndarray, start: np.ndarray):
        n = transform.frame_length
        self.neg_enc = -transform.encoder_coeffs
        self.coded = self.neg_enc.any(axis=1)  # the encoder rows with a term to subtract
        dec = transform.assemble()[1]
        self.first = np.argmax(dec != 0, axis=1)
        self.entries = [slice(row_starts[i] + self.first[i], row_starts[i] + i + 1)
                        for i in range(n)]
        self.spans = self.entries[:1]
        for run in self.entries[1:]:
            if self.spans[-1].stop == run.start:
                self.spans[-1] = slice(self.spans[-1].start, run.stop)
            else:
                self.spans.append(run)
        self.entry_dec = dec[np.tril_indices(n)][:, None, None]
        self.sigma_q = None if bank is None else np.sqrt(bank.noise_variances)[:, None, None]
        self.start = start.copy()
        self.sums, self.done = np.zeros(start.size), np.zeros(start.size, dtype=int)
        self.diverged = False
        self.records = []

    def result(self, collect_trace: bool) -> SimulationResult:
        """This design's SimulationResult, from its sums, steps and trace records."""
        n, sums, done = self.first.size, self.sums, self.done
        steps = int(done.sum())
        ran = done > 0
        means = sums[ran] / done[ran]
        cost_mean = math.fsum(sums) / steps if steps else math.nan
        trace = None
        if collect_trace:
            trace = []
            for r in range(REPLICAS):
                for t in range(done[r]):
                    frame, i = divmod(t, n)
                    state, d_val, code, rec_x, control, cost_t, arr = self.records[frame]
                    avail = "".join("1" if arr[i][j][r] else "0" for j in range(i + 1))
                    trace.append(TraceRecord(len(trace), r, state[i][r], d_val[i][r],
                                             code[i][r], avail, rec_x[i][r],
                                             control[i][r], cost_t[i][r]))
        return SimulationResult(cost_mean, standard_error(means), steps, self.diverged, trace,
                                means)


def simulate_closed_loop(plant: PlantModel, weights: LqgWeights,
                         solution: ControllerSolution, transforms: Sequence[CausalTransform],
                         banks: Sequence[QuantizerBank | None], channel_model: ChannelModel,
                         horizon: int, seed: int, *, collect_trace: bool = False,
                         divergence_bound: float = 1e9) -> SimulationResults:
    """Simulate the coded LQG loop of a scalar plant under each design; return its per-step cost.

    Design d codes with transforms[d] and banks[d] (None for no quantizer
    noise); the designs run in lockstep on the same random numbers, and
    each one's result is the one a run of that design alone returns.

    The horizon is split over REPLICAS independent copies of the loop
    (`replica_lengths`), run side by side as arrays.  Each starts from the
    stationary law N(0, K_w/(1 - a^2)) of the ideal-observation loop,
    a = F + GL.  Each sample period feeds the state x into the running
    frame ladder, reconstructs xhat from whatever same-frame indices met
    their deadlines, applies u = L xhat and steps x to F x + GL xhat + w; the
    per-step cost is the LQG cost R x^2 + S u^2.

    The coder restarts every frame, so with modeled noise or none every
    value in a frame is affine in the frame's start state x_0, and the frame
    ends in phi x_0 + psi: phi depends only on the frame's arrivals, psi only
    on its noise.  The ladder therefore runs over CHUNK_FRAMES frames at
    once, on two lanes: a noise lane from x_0 = 0 with the drawn noise, and
    a unit lane from x_0 = 1 without it.  It carries x and xhat; codevalues
    and decoder weights (entry times arrival, for each row's run of nonzero
    decoder entries) enter through row sums.  The scan
    x_{k+1} = phi_k x_k + psi_k gives every frame's start state, and each
    value of frame k is its noise-lane value plus x_k times its unit-lane
    value.  A bank must be modeled: codebooks would make the loop nonlinear.

    Four streams spawned from SeedSequence(seed) draw the REPLICAS start
    states, the standard exponential delays (an index is in when its delay is
    at most its deadline times the delay rate), the quantizer noise (when
    some design has a bank) and the process noise, each one
    (frames, N, REPLICAS) block per chunk in frame order, so the chunk
    changes no draw.  A chunk draws its blocks and compares its arrivals
    once; then each design in turn runs its ladder, scan and cost through
    the same buffers.

    A design's cost is the sum of its per-replica cost sums, each summed
    step by step, over the steps run; the standard error is that of the mean
    of the per-replica means.  collect_trace adds one TraceRecord per step,
    replica by replica, and changes no number.  Once a chunk's frame-end
    states of a design exceed divergence_bound (or are not finite), that
    design stops after the first such frame and reports a partial result
    instead of raising; the others go on.
    """
    n = channel_model.frame_length
    if len(transforms) != len(banks) or not transforms:
        raise ValueError("transforms and banks must be parallel sequences of one design or more")
    if plant.state_dim != 1 or plant.input_dim != 1:
        raise ValueError("closed-loop simulation needs a scalar plant (one state, one input)")
    for transform, bank in zip(transforms, banks):
        if transform.frame_length != n:
            raise ValueError("channel frame length does not match the transform")
        if bank is not None and bank.count != n:
            raise ValueError("bank layout does not match the transform")
        if bank is not None and bank.codebooks is not None:
            raise ValueError("closed-loop simulation needs a modeled bank, not codebooks")
    if horizon < n:
        raise ValueError("horizon must cover at least one frame")
    lengths = replica_lengths(horizon, n)
    start_rng, delay_rng, q_rng, w_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4))
    l = float(solution.L[0, 0])
    r_w = float(weights.R[0, 0])
    u_weight = float(weights.S[0, 0]) * l * l  # S u^2 = S L^2 xhat^2
    sqrt_kw = math.sqrt(float(plant.K_w[0, 0]))
    R, chunk = REPLICAS, CHUNK_FRAMES
    # the lower-triangle entries, row by row: row i's at rows_at[i]
    tri = n * (n + 1) // 2
    row_starts = np.arange(n) * (np.arange(n) + 1) // 2
    rows_at = [slice(row_starts[i], row_starts[i] + i + 1) for i in range(n)]
    limits = channel_model.thresholds() * channel_model.delay_rate
    row_limits = [limits[i, :i + 1, None, None] for i in range(n)]
    start_state = math.sqrt(pilot_state_variance(plant, solution)) * start_rng.standard_normal(R)
    designs = [_LoopDesign(t, bank, row_starts, start_state) for t, bank in zip(transforms, banks)]
    noisy = any(bank is not None for bank in banks)
    # the draws, [frame, index, replica]; past the last frame, zeros or old
    # draws.  The process normals are scaled into the ladder's w, then the
    # quantizer normals take their place and each design scales them into q.
    delays, normals = np.zeros((chunk, n, R)), np.zeros((chunk, n, R))
    arrived, dec_weights = np.empty((tri, chunk, R), bool), np.empty((tri, chunk, R))
    # [element, quantity, lane, frame, replica] for x, xhat and w: lane 0 is the
    # noise lane, lane 1 the unit lane, whose w stays 0; x[n] is the frame's end
    ladder = np.zeros((n + 1, 3, 2, chunk, R))
    ladder[0, 0, 1] = 1.0
    update = np.array([float(plant.F[0, 0]), float(plant.G[0, 0]) * l, 1.0])
    codes, values = np.empty((n, 2, chunk, R)), np.empty((n, 2, chunk, R))
    q, x_cost = np.empty((n, chunk, R)), np.empty((n, chunk, R))  # [index, frame, replica]
    # each replica's running sum, then the chunk's step costs in step order
    steps_cost = np.empty((1 + chunk * n, R))
    starts = np.empty((chunk + 1, R))  # start state of each frame of the chunk, and the next
    # the scan's (REPLICAS,) rows: unit- and noise-lane frame ends, start states
    phi, psi, start = list(ladder[n, 0, 1]), list(ladder[n, 0, 0]), list(starts)
    frames = -(-int(lengths.max()) // n)
    whole_frames = int(lengths.min()) // n
    running = designs
    for first_frame in range(0, frames, chunk):
        c = min(chunk, frames - first_frame)
        delay_rng.standard_exponential(out=delays[:c])
        w_rng.standard_normal(out=normals[:c])
        np.multiply(normals.transpose(1, 0, 2), sqrt_kw, out=ladder[:n, 2, 0])
        if noisy:
            q_rng.standard_normal(out=normals[:c])
        for i, at in enumerate(rows_at):
            np.less_equal(delays[:, :i + 1].transpose(1, 0, 2), row_limits[i], out=arrived[at])
        # the steps past a replica's end, in the last frame, cut short for some
        held = None if first_frame + c <= whole_frames else (
            lengths <= ((first_frame + np.arange(chunk)) * n + np.arange(n)[:, None])[:, :, None])
        for design in running:
            neg_enc, coded, first, entries = (design.neg_enc, design.coded, design.first,
                                              design.entries)
            sigma_q, sums, done = design.sigma_q, design.sums, design.done
            # the decoder weights at the design's own decoder entries alone
            for span in design.spans:
                np.multiply(arrived[span], design.entry_dec[span], out=dec_weights[span])
            if sigma_q is not None:
                np.multiply(normals.transpose(1, 0, 2), sigma_q, out=q)
            for i in range(n):
                x = ladder[i, 0]
                if coded[i]:  # x - sum_j enc[i, j] xc[j]
                    np.einsum("j,jlfr->lfr", neg_enc[i, :i], codes[:i], out=codes[i])
                    codes[i] += x
                else:
                    codes[i] = x
                if sigma_q is not None:
                    codes[i, 0] += q[i]
                np.einsum("kfr,klfr->lfr", dec_weights[entries[i]], codes[first[i]:i + 1],
                          out=ladder[i, 1])
                # F x + GL xhat + w
                np.einsum("q,qlfr->lfr", update, ladder[i], out=ladder[i + 1, 0])
                if held is not None:
                    np.copyto(ladder[i + 1, 0], x, where=held[i])
            # each frame's start state; past a crossing the values are not read
            starts[0] = design.start
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(c):
                    np.multiply(phi[k], start[k], start[k + 1])
                    np.add(start[k + 1], psi[k], start[k + 1])
            inside = np.abs(starts[1:c + 1]) <= divergence_bound
            design.diverged = not inside.all()
            stop = int(np.argmin(inside.all(axis=1))) + 1 if design.diverged else c
            # x and xhat at the frames' true start states
            V = np.multiply(ladder[:n, :2, 1, :stop], starts[:stop], out=values[:, :, :stop])
            V += ladder[:n, :2, 0, :stop]
            state, rec_x = V[:, 0], V[:, 1]
            steps_cost[0] = sums
            cost = steps_cost[1:1 + stop * n].reshape(stop, n, R).transpose(1, 0, 2)
            x2 = np.square(state, out=x_cost[:, :stop])
            x2 *= r_w
            np.multiply(np.square(rec_x, out=cost), u_weight, out=cost)
            cost += x2
            done += n * stop
            if held is not None:
                cost[held[:, :stop]] = 0.0
                done -= held[:, :stop].sum(axis=(0, 1))
            # each replica's running sum, step by step along time: a sum over the
            # first axis of a C-ordered array adds its rows in order
            steps_cost[:1 + stop * n].sum(axis=0, out=sums)
            if collect_trace:
                code = codes[:, 1, :stop] * starts[:stop] + codes[:, 0, :stop]
                inputs = code if sigma_q is None else code - q[:, :stop]
                bits = delays[:stop, None] <= limits[:, :, None]  # [frame, i, j, replica]
                kept = (state, inputs, code, rec_x, l * rec_x, cost)
                design.records.extend([a[:, k].tolist() for a in kept] + [bits[k].tolist()]
                                      for k in range(stop))
            if not design.diverged:
                design.start[:] = starts[c]
        running = [design for design in running if not design.diverged]
        if not running:
            break
    return SimulationResults(design.result(collect_trace) for design in designs)


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
