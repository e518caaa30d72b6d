"""Channel-optimized causal transform design.

Two steps.  First the encoder/decoder pair minimizing the channel-averaged
MSE under fine quantization with uniform rates: for a given encoder
the optimal decoder solves one small linear system, so limited-memory BFGS
(numpy only) searches over the free encoder entries alone, with the
gradient in closed form.  The searches of one `design_code` call run in
lockstep, one stacked objective evaluation per round.  Then the
closed-form rate allocation over the effective variances seen through the
optimized pair.  `hooke_jeeves`, the derivative-free pattern search the design
used to run over both halves of the pair, is no longer called by the design,
and only its own tests call it; it stays only because the benchmark's layer
trace wraps `rctc.design.hooke_jeeves` by name.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .channel import channel_moments
from .codec import (KINDS, CausalTransform, plt_design, quantizer_input_variances,
                    transform_from_text, transform_to_text)
from .lqg import am_wmse, frame_mse
from .quantizers import QuantizerBank, RateAllocation, allocate_rates, clamp_rates


@dataclass(frozen=True)
class SearchConfig:
    """Pattern search schedule: step sizes, shrink factor, stopping rules."""

    initial_step: float = 0.1
    shrink_factor: float = 0.5
    step_tolerance: float = 1e-6
    max_evaluations: int = 100_000

    def __post_init__(self):
        if self.initial_step <= 0.0 or self.step_tolerance <= 0.0:
            raise ValueError("steps must be positive")
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError("shrink_factor must lie in (0, 1)")
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be positive")


@dataclass
class HookeJeevesResult:
    x: np.ndarray
    value: float
    history: list[float]
    evaluations: int
    converged: bool


def hooke_jeeves(objective, x0, config: SearchConfig | None = None) -> HookeJeevesResult:
    """Minimize a deterministic objective by Hooke-Jeeves pattern search.

    Exploratory sweeps probe each coordinate at +/- the current step;
    successful sweeps trigger pattern (acceleration) moves, failures halve
    the step until it drops below the tolerance or the evaluation budget is
    spent.  Only strict improvements are accepted, so the history of accepted
    values is non-increasing and the result never exceeds objective(x0).
    """
    cfg = config or SearchConfig()
    counter = [0]

    def f(x):
        counter[0] += 1
        v = float(objective(x))
        return v if math.isfinite(v) else math.inf

    base = np.asarray(x0, dtype=float).copy()
    f_base = f(base)
    if not math.isfinite(f_base):
        raise ValueError("objective is not finite at the starting point")
    history = [f_base]
    step = cfg.initial_step

    def explore(point, value):
        pt = point.copy()
        best = value
        for k in range(pt.size):
            if counter[0] + 2 > cfg.max_evaluations:
                break
            original = pt[k]
            pt[k] = original + step
            v = f(pt)
            if v < best:
                best = v
                continue
            pt[k] = original - step
            v = f(pt)
            if v < best:
                best = v
            else:
                pt[k] = original
        return pt, best

    while step >= cfg.step_tolerance and counter[0] < cfg.max_evaluations:
        candidate, f_candidate = explore(base, f_base)
        if f_candidate < f_base:
            while counter[0] < cfg.max_evaluations:
                pattern = candidate + (candidate - base)
                base, f_base = candidate, f_candidate
                history.append(f_base)
                f_pattern = f(pattern)
                candidate2, f_candidate2 = explore(pattern, f_pattern)
                if f_candidate2 < f_base:
                    candidate, f_candidate = candidate2, f_candidate2
                else:
                    break
        else:
            step *= cfg.shrink_factor
    return HookeJeevesResult(base, f_base, history, counter[0],
                             converged=step < cfg.step_tolerance)


@dataclass(frozen=True)
class DesignProblem:
    """Inputs of one transform design run.

    K_x is the N x N frame covariance, which sets the frame length N;
    marginals is the N x N availability matrix P = E[B] the channel
    expectations are computed from.  The design minimizes the plain AM-MSE:
    a constant error weight, such as the LQG sweep's R_eq, moves no argmin.
    """

    K_x: np.ndarray
    marginals: np.ndarray
    average_rate: float
    structure: str
    noise_constant: float = 1.0
    min_rate: float = 0.0

    def __post_init__(self):
        if self.structure not in KINDS:
            raise ValueError(f"unknown structure {self.structure!r}")
        K_x = np.asarray(self.K_x, dtype=float)
        if K_x.ndim != 2 or K_x.shape[0] != K_x.shape[1]:
            raise ValueError(f"K_x must be a square matrix, got shape {K_x.shape}")
        if np.shape(self.marginals) != K_x.shape:
            raise ValueError("availability marginals do not match the frame length")
        object.__setattr__(self, "K_x", K_x)

    @property
    def frame_length(self) -> int:
        return self.K_x.shape[0]

    @property
    def parameter_count(self) -> int:
        """Number of free encoder parameters the design search runs over."""
        if self.structure not in SEARCHED:
            return 0
        # distinct parameter indices; np.unique would import numpy.ma
        return len(set(_parameter_map(self.structure, self.frame_length)[2].tolist()))


@dataclass
class DesignResult:
    transform: CausalTransform
    rates: RateAllocation
    predicted_am_wmse: float
    predicted_lqg_cost: float | None
    evaluations: int
    objective_history: list[float]
    budget_exhausted: bool
    input_variances: np.ndarray = field(repr=False, default=None)
    # the modeled bank predicted_am_wmse (and predicted_lqg_cost) was priced with
    bank: QuantizerBank | None = field(repr=False, default=None)


# the structures whose encoder the design searches
SEARCHED = ("full", "toeplitz")


def _parameter_map(structure: str, frame_length: int):
    """(row, column, parameter index) of each free entry.

    Parameters are ordered lag band by lag band for "toeplitz" (every entry of
    a band shares one parameter, and the entries come band by band, each in
    row order) and row by row for "full".  Encoder and decoder use the same
    map.
    """
    if structure not in SEARCHED:
        raise ValueError(f"structure {structure!r} has no free parameters")
    rows, cols = np.tril_indices(frame_length, -1)
    if structure == "full":
        return rows, cols, np.arange(rows.size)
    order = np.argsort(rows - cols, kind="stable")
    return rows[order], cols[order], (rows - cols - 1)[order]


def pack_parameters(transform: CausalTransform, structure: str) -> np.ndarray:
    """Free parameters of the encoder A under the structure: the search vector.

    For the toeplitz structure a non-toeplitz transform is projected by
    averaging each lag band, which leaves toeplitz transforms unchanged.
    """
    rows, cols, src = _parameter_map(structure, transform.frame_length)
    return (np.bincount(src, weights=transform.encoder_coeffs[rows, cols])
            / np.bincount(src))


def unpack_parameters(encoder_params: np.ndarray, decoder_params: np.ndarray,
                      structure: str, frame_length: int) -> CausalTransform:
    """The transform whose encoder and decoder have the given free parameters."""
    n = frame_length
    rows, cols, src = _parameter_map(structure, n)
    coeffs = np.zeros((2, n, n))
    coeffs[0, rows, cols] = np.asarray(encoder_params, dtype=float)[src]
    coeffs[1, rows, cols] = np.asarray(decoder_params, dtype=float)[src]
    return CausalTransform(structure, n, coeffs[0], coeffs[1])


def effective_variances(transform: CausalTransform, marginals: np.ndarray,
                        K_x: np.ndarray) -> np.ndarray:
    """Per-quantizer variances feeding the rate allocation.

    The quantizer noises are independent, so the noise energy tr(W K_q) with
    W = E_B[H'H] is the sum of W_ii q_i: the variance charged to quantizer i
    is W_ii Var(d_i), Var(d_i) the diagonal of inv(A) K_x inv(A)'.  With
    nothing lost and a decoder that inverts the encoder, W = I and these are
    the plain prediction error variances.
    """
    K_x = np.asarray(K_x, dtype=float)
    _, Ahat = transform.assemble()
    Ainv = transform.encoder_inverse()
    _, W = channel_moments(marginals)(Ahat, Ainv)
    out = np.diag(W) * np.diag(Ainv @ K_x @ Ainv.T)
    if np.any(out <= 0.0):
        raise ValueError(f"effective variance for quantizer {np.argmax(out <= 0)} is not positive")
    return out


# L-BFGS stopping rules on the objective divided by its value at the start:
# stop when every gradient entry is at most GTOL, or when two successive
# iterations each lower the objective by at most FTOL relative; give up
# after MAX_ITERATIONS iterations
GTOL = 1e-9
FTOL = 1e-12
MAX_ITERATIONS = 15_000
# L-BFGS keeps this many (step, gradient change) pairs
MEMORY = 10
# sufficient decrease (Armijo) constant and step cuts of the line search
ARMIJO = 1e-4
BACKTRACKS = 40


def _lbfgs_search(x0):
    """L-BFGS as a state machine: yields each point to evaluate and is sent its (value, gradient).

    The direction is the two-loop recursion over the last MEMORY pairs
    (s, y) with s'y > 0, scaled by s'y / y'y of the newest pair (Liu and
    Nocedal 1989); a direction that is not downhill drops the pairs and
    falls back to steepest descent.  The step is a backtracking line search
    with quadratic interpolation that takes the first point of sufficient
    decrease.  Stops when max |gradient| <= GTOL, when two successive
    iterations each lower the value by at most FTOL * max(|f|, |f_new|, 1)
    or when no step lowers the value.  L-BFGS-B stops at the first such
    iteration; on a slowly converging search that leaves about one more
    FTOL of decrease untaken, which the second iteration takes.  Returns
    (x, value, cap_reached) as its StopIteration value, where cap_reached
    says MAX_ITERATIONS ran out first.  Each design search (`_design_search`)
    drives one, so `design_code` steps the searches of all its problems in
    lockstep.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = yield x
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    stalled = 0
    for _ in range(MAX_ITERATIONS):
        if float(np.max(np.abs(g), initial=0.0)) <= GTOL:
            return x, f, False
        direction = _two_loop(g, pairs)
        slope = float(g @ direction)
        if slope >= 0.0:
            pairs.clear()
            direction, slope = -g, -float(g @ g)
        step = 1.0 if pairs else min(1.0, 1.0 / math.sqrt(-slope))
        for _ in range(BACKTRACKS):
            x_new = x + step * direction
            f_new, g_new = yield x_new
            if f_new <= f + ARMIJO * step * slope:
                break
            # minimizer of the quadratic through f, the slope and f_new,
            # kept within [0.1, 0.5] of the step
            curve = f_new - f - step * slope
            trial = -slope * step * step / (2.0 * curve) if curve > 0.0 else 0.1 * step
            step = min(max(trial, 0.1 * step), 0.5 * step)
        else:
            return x, f, False
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
            del pairs[:-MEMORY]
        stalled = stalled + 1 if f - f_new <= FTOL * max(abs(f), abs(f_new), 1.0) else 0
        x, f, g = x_new, f_new, g_new
        if stalled == 2:
            return x, f, False
    return x, f, True


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """-H g for the L-BFGS inverse Hessian H of the stored pairs."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return -q


def _reduced_objective(problems: Sequence[DesignProblem]):
    """evaluate(index, params) -> (J, gradients of J, optimal decoder parameters), a row per point.

    Row b evaluates problems[index[b]] at its free encoder parameters
    params[b]; the problems share their structure and frame length.  Every
    row goes through the same stacked numpy calls, so its numbers do not
    depend on the rows next to it.

    K_q is the uniform-rate noise of the encoder A, kept as its diagonal q.
    For a fixed A the objective is quadratic in the decoder Ahat and couples
    only decoder entries of one row.  With S = inv(A)(K_x + K_q)inv(A)',
    Y = inv(A) K_x and p_u = P[r_u, c_u] for the entry u at row r_u and
    column c_u, the optimal decoder solves G a = h over the free entries:
    G_uv = (p_u p_v + [c_u = c_v](p_u - p_u^2)) [r_u = r_v] S[c_u, c_v] and
    h_u = p_u (Y[c_u, r_u] - P[r_u, r_u] S[c_u, r_u]), summed per decoder
    parameter: the map lists each parameter's entries together, so that a
    parameter is one `np.add.reduceat` segment (of one entry for "full",
    of a lag band for "toeplitz").  E[H] and W = E[H'H] are
    those of `channel_moments`.  By the envelope theorem the gradient of J is
    the partial gradient in A at the optimal decoder,
    -(2/N) ((W K - E[H]' K_x) inv(A)' + s inv(A)' diag(W) inv(A) K_x inv(A)')
    with K = K_x + K_q and s = c 2^(-2r), read at the free entries and summed
    per parameter.
    """
    n = problems[0].frame_length
    rows, cols, src = _parameter_map(problems[0].structure, n)
    m = problems[0].parameter_count
    # where each parameter's entries start in the map
    first_entries = np.flatnonzero(np.diff(src, prepend=-1))
    # G's terms, the pairs (u, v) of entries of one row (G_uv vanishes across
    # rows), ordered by their pair of parameters, so that a pair of
    # parameters is one segment too, at cell src[u] m + src[v] of G
    u, v = np.nonzero(rows[:, None] == rows[None, :])
    order = np.lexsort((src[v], src[u]))
    u, v = u[order], v[order]
    pair_cells = src[u] * m + src[v]
    segments = np.flatnonzero(np.diff(pair_cells, prepend=-1))
    cells = pair_cells[segments]
    # flat (row, column) positions in an N x N matrix: the free entries, the
    # (c_u, r_u) and (c_u, c_v) that h and G read, and the diagonal
    entries, own, terms = rows * n + cols, cols * n + rows, cols[u] * n + cols[v]
    diagonal = np.arange(n) * (n + 1)
    K_x = np.stack([problem.K_x for problem in problems])
    P = np.stack([np.asarray(problem.marginals, dtype=float) for problem in problems])
    p, p_own = P.reshape(-1, n * n)[:, entries], P.reshape(-1, n * n)[:, rows * (n + 1)]
    coupling = p[:, u] * p[:, v] + (cols[u] == cols[v]) * (p - p * p)[:, u]
    noise_scale = np.array([problem.noise_constant * np.exp2(-2.0 * problem.average_rate)
                            for problem in problems])[:, None, None]
    # each problem's arrays, and those of the rows last evaluated
    per_problem = (K_x, P, coupling, p, p_own, noise_scale)
    taken = {}
    eye, unit = np.eye(n), np.eye(n).reshape(1, n * n)

    def evaluate(index: np.ndarray, params: np.ndarray):
        B = index.size
        key = index.tobytes()
        if key not in taken:
            taken.clear()
            Kx, Pb, *rest = (array[index] for array in per_problem)
            taken[key] = (Kx, channel_moments(Pb), *rest)
        Kx, moments, coupled, pb, pb_own, scale = taken[key]
        A = unit.repeat(B, axis=0)
        A[:, entries] = params[:, src]
        Ainv = np.linalg.inv(A.reshape(B, n, n))
        AinvT = Ainv.transpose(0, 2, 1)
        Y = Ainv @ Kx
        K_d = Y @ AinvT
        q = scale * K_d.reshape(B, 1, -1)[:, :, diagonal]  # (B, 1, N)
        K = Kx + eye * q  # K_x + K_q
        S = (K_d + (Ainv * q) @ AinvT).reshape(B, -1)
        G = np.zeros((B, m * m))
        G[:, cells] = np.add.reduceat(coupled * S[:, terms], segments, axis=1)
        h = np.add.reduceat(pb * (Y.reshape(B, -1)[:, own] - pb_own * S[:, own]),
                            first_entries, axis=1)
        decoder = np.linalg.solve(G.reshape(B, m, m), h[:, :, None])[:, :, 0]
        Ahat = unit.repeat(B, axis=0)
        Ahat[:, entries] = decoder[:, src]
        Ahat = Ahat.reshape(B, n, n)
        mean_H, W = moments(Ahat, Ainv)
        J = frame_mse(mean_H, W, Kx, K)
        # diag(W) K_d = diag(W) Y inv(A)'
        w = W.reshape(B, -1, 1)[:, diagonal]
        grad = (W @ K - mean_H.transpose(0, 2, 1) @ Kx + scale * (AinvT @ (w * Y))) @ AinvT
        gradient = np.add.reduceat(grad.reshape(B, -1)[:, entries], first_entries, axis=1)
        return J, (-2.0 / n) * gradient, decoder

    return evaluate


def _evaluate_rows(evaluate, index: np.ndarray, points: np.ndarray) -> list:
    """evaluate's rows as (J, gradient, decoder) tuples.

    A row whose evaluation alone raises a ValueError or ArithmeticError (such
    as a LinAlgError from its decoder solve) holds that exception instead.
    """
    try:
        J, gradients, decoders = evaluate(index, points)
    except (ValueError, ArithmeticError) as exc:
        if index.size == 1:
            return [exc]
        return [row for b in range(index.size)
                for row in _evaluate_rows(evaluate, index[b:b + 1], points[b:b + 1])]
    return list(zip(J.tolist(), gradients, decoders))


def _design_search(starts: list[np.ndarray]):
    """One problem's search as a state machine: yields the points it needs evaluated.

    It is sent their (J, gradient, decoder) rows.  The best of the starts
    begins an `_lbfgs_search` on J divided by its value there; returns
    (encoder, decoder, history, evaluations, cap_reached), where the encoder
    is the best evaluated, with the decoder that evaluation solved for, and
    history the strictly falling values of the best so far.
    """
    evaluated = yield starts
    best = int(np.argmin([value for value, _, _ in evaluated]))
    best_x, history, decoder = starts[best], [evaluated[best][0]], evaluated[best][2]
    search = _lbfgs_search(best_x)
    x, spent = next(search), 0
    while True:
        (value, gradient, x_decoder), = yield [x]
        spent += 1
        if value < history[-1]:
            best_x, decoder = x.copy(), x_decoder
            history.append(value)
        try:
            x = search.send((value / history[0], gradient / history[0]))
        except StopIteration as stop:
            return best_x, decoder, history, spent + len(starts), stop.value[2]


class DesignResults(tuple):
    """Each problem's DesignResult, or the exception its design raised, in problem order.

    `evaluations` totals the objective evaluations over the designs and
    `budget_exhausted` counts the designs that ran out of iterations.
    """

    @property
    def evaluations(self) -> int:
        return sum(result.evaluations for result in self if isinstance(result, DesignResult))

    @property
    def budget_exhausted(self) -> int:
        return sum(result.budget_exhausted for result in self
                   if isinstance(result, DesignResult))


def design_code(problems: Sequence[DesignProblem],
                initial_points: Sequence[Sequence[np.ndarray] | None] | None = None
                ) -> DesignResults:
    """Design a transform and its rate allocation for each problem's channel.

    initial_points, parallel to problems (None for none at all), lists each
    problem's warm starts or None.  The SEARCHED structures ("full", "toeplitz")
    minimize the uniform-rate AM-MSE over the encoder alone by L-BFGS on
    `_reduced_objective`, whose decoder is the closed-form optimum, starting
    at the prediction-based transform's encoder (or the best of the supplied
    warm starts).  The result is the best encoder evaluated, so never worse
    than its start, with the decoder that evaluation solved for.  "identity"
    keeps uniform rates and "plt" allocates over its prediction error
    variances: neither searches or looks through the channel.  A search
    stops by the `_lbfgs_search` rules alone; running out of MAX_ITERATIONS
    iterations is reported on the result as budget_exhausted, never raised.

    The searched problems of a call, which share their structure and frame
    length, run in lockstep: each keeps its own search state machine, and
    each round evaluates the points of all those still searching in one
    stacked objective call, so a problem's result is bit for bit that of a
    call with it alone.  A problem whose design raises a ValueError or
    ArithmeticError gets that exception in its slot; the others go on.  Each
    result keeps as `bank` the modeled bank its predicted_am_wmse was priced
    with.
    """
    warm = [None] * len(problems) if initial_points is None else list(initial_points)
    if len(warm) != len(problems):
        raise ValueError("problems and initial_points must be parallel sequences")
    if len({(problem.structure, problem.frame_length) for problem in problems
            if problem.structure in SEARCHED}) > 1:
        raise ValueError("the searched problems of one call must share structure and frame length")
    results = [None] * len(problems)
    searches, plt_starts = {}, {}
    for k, problem in enumerate(problems):
        if problem.structure not in SEARCHED:
            continue
        try:
            key = problem.K_x.tobytes()
            if key not in plt_starts:
                plt_starts[key] = pack_parameters(plt_design(problem.K_x)[0], problem.structure)
            starts = [plt_starts[key], *(np.asarray(x, dtype=float) for x in warm[k] or ())]
            if any(x.shape != (problem.parameter_count,) for x in starts):
                raise ValueError(f"a warm start must hold {problem.parameter_count} parameters")
        except (ValueError, ArithmeticError) as exc:
            results[k] = exc
            continue
        searches[k] = _design_search(starts)
    found = {}
    if searches:
        evaluate = _reduced_objective([problems[k] for k in searches])
        row_of = {k: row for row, k in enumerate(searches)}
        pending = {k: next(search) for k, search in searches.items()}
        while pending:
            index = np.array([row_of[k] for k, points in pending.items() for _ in points])
            stacked = np.array([x for points in pending.values() for x in points])
            evaluated = _evaluate_rows(evaluate, index, stacked)
            at = 0
            for k, points in list(pending.items()):
                rows, at = evaluated[at:at + len(points)], at + len(points)
                failed = [row for row in rows if isinstance(row, Exception)]
                if failed:
                    results[k] = failed[0]
                    del pending[k]
                    continue
                try:
                    pending[k] = searches[k].send(rows)
                except StopIteration as stop:
                    found[k] = stop.value
                    del pending[k]
    for k, problem in enumerate(problems):
        if results[k] is None:
            try:
                results[k] = _design_result(problem, found.get(k))
            except (ValueError, ArithmeticError) as exc:
                results[k] = exc
    return DesignResults(results)


def _design_result(problem: DesignProblem, found: tuple | None) -> DesignResult:
    """The problem's design from its search's result `found`, or with no search."""
    n, r = problem.frame_length, problem.average_rate

    def priced(rates):
        bank = QuantizerBank.modeled(rates, sigma_d, problem.noise_constant)
        return bank, am_wmse(transform, problem.marginals, problem.K_x,
                             np.diag(bank.noise_variances))

    if found is not None:
        encoder, decoder, history, evaluations, exhausted = found
        transform = unpack_parameters(encoder, decoder, problem.structure, n)
        sigma_d = quantizer_input_variances(transform, problem.K_x)
        sigma_hat = effective_variances(transform, problem.marginals, problem.K_x)
    else:
        if problem.structure == "plt":
            transform, sigma_d = plt_design(problem.K_x)
            sigma_hat = sigma_d
        else:
            transform, sigma_d = CausalTransform.identity(n), np.diag(problem.K_x).copy()
            sigma_hat = np.ones(n)
        bank, value = priced(np.full(n, r))
        history, evaluations, exhausted = [value], 0, False
    allocation = clamp_rates(allocate_rates(sigma_hat, r), problem.min_rate)
    if problem.structure == "identity":
        # its allocation is the uniform r its history priced
        predicted = history[0]
    else:
        bank, predicted = priced(allocation.rates)
    return DesignResult(transform, allocation, predicted, None, evaluations, history, exhausted,
                        input_variances=sigma_d, bank=bank)


def save_design(result: DesignResult, path, scheme: str = "") -> None:
    """Write a design result as flat text: metadata, rates, then the transform."""
    def vec(v) -> str:
        return " ".join(repr(float(x)) for x in np.asarray(v))

    lines = [
        "# design result v1",
        f"scheme {scheme}",
        f"predicted_am_wmse {result.predicted_am_wmse!r}",
        f"predicted_lqg_cost {result.predicted_lqg_cost!r}",
        f"average_rate {result.rates.average!r}",
        f"clamped {int(result.rates.clamped)}",
        f"rates {vec(result.rates.rates)}",
        f"effective_variances {vec(result.rates.effective_variances)}",
        f"input_variances {vec(result.input_variances)}",
        f"evaluations {result.evaluations}",
        f"budget_exhausted {int(result.budget_exhausted)}",
    ]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write(transform_to_text(result.transform))


def load_design(path) -> tuple[DesignResult, str]:
    """Reload a saved design result; returns (result, scheme)."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    head, _, tail = text.partition("# causal transform v1")
    meta = {}
    for line in head.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, _, value = line.partition(" ")
        if key in meta:
            raise ValueError(f"design file {path} repeats the {key!r} field")
        meta[key] = value.strip()

    def parse(key: str, convert=float):
        if key not in meta:
            raise ValueError(f"design file {path} has no {key!r} field")
        try:
            return convert(meta[key])
        except ValueError:
            raise ValueError(f"design file {path}: field {key!r} has the malformed "
                             f"value {meta[key]!r}") from None

    def vec(key: str) -> np.ndarray:
        values = parse(key, lambda text: np.asarray([float(v) for v in text.split()]))
        if values.size != transform.frame_length:
            raise ValueError(f"design file {path}: field {key!r} has {values.size} values "
                             f"for a transform of frame_length {transform.frame_length}")
        return values

    transform = transform_from_text("# causal transform v1" + tail)
    rates = RateAllocation(vec("rates"), vec("effective_variances"), parse("average_rate"),
                           clamped=bool(parse("clamped", int)))
    input_variances = vec("input_variances")
    if not np.all((input_variances > 0.0) & (input_variances < math.inf)):
        raise ValueError(f"design file {path}: field 'input_variances' must hold finite, "
                         f"positive values, got {meta['input_variances']!r}")
    result = DesignResult(
        transform, rates, parse("predicted_am_wmse"),
        parse("predicted_lqg_cost", lambda text: None if text == "None" else float(text)),
        parse("evaluations", int), [], bool(parse("budget_exhausted", int)),
        input_variances=input_variances,
    )
    return result, meta.get("scheme", "")
