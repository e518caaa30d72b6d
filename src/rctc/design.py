"""Channel-optimized causal transform design.

Two steps.  First the encoder/decoder pair minimizing the channel-averaged
MSE under fine quantization with uniform rates: for a given encoder
the optimal decoder solves one small linear system, so limited-memory BFGS
(`lbfgs`, numpy only) searches over the free encoder entries alone, with the
gradient in closed form.  Then the
closed-form rate allocation over the effective variances seen through the
optimized pair.  `hooke_jeeves`, the derivative-free pattern search the design
used to run over both halves of the pair, is no longer called by the design;
tests use it as a reference and the benchmark's layer trace wraps it by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import channel_moments
from .codec import (CausalTransform, plt_design, quantizer_input_variances,
                    transform_from_text, transform_to_text)
from .lqg import am_wmse, frame_error_terms
from .quantizers import QuantizerBank, RateAllocation, allocate_rates, clamp_rates

STRUCTURES = ("full", "toeplitz", "plt", "identity")


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
        if self.structure not in STRUCTURES:
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
        n = self.frame_length
        if self.structure == "full":
            return (n * n - n) // 2
        if self.structure == "toeplitz":
            return n - 1
        return 0


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


def _parameter_map(structure: str, frame_length: int):
    """(row, column, parameter index) of each free entry.

    Parameters are ordered lag band by lag band for "toeplitz" (every entry of
    a band shares one parameter) and row by row for "full".  Encoder and
    decoder use the same map.
    """
    if structure not in ("full", "toeplitz"):
        raise ValueError(f"structure {structure!r} has no free parameters")
    rows, cols = np.tril_indices(frame_length, -1)
    return rows, cols, np.arange(rows.size) if structure == "full" else rows - cols - 1


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


def lbfgs(fun, x0) -> tuple[np.ndarray, float, bool]:
    """Minimize fun(x) -> (value, gradient) by limited-memory BFGS.

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
    (x, value, cap_reached), where cap_reached says MAX_ITERATIONS ran out
    first.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun(x)
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
            f_new, g_new = fun(x_new)
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


def _reduced_objective(problem: DesignProblem):
    """evaluate(params) -> (J, gradient of J, optimal decoder parameters).

    params are the free encoder parameters; K_q is the uniform-rate noise of
    that encoder A.  For a fixed A the objective is quadratic in the decoder
    Ahat and couples only decoder entries of one row.  With
    S = inv(A)(K_x + K_q)inv(A)', Y = inv(A) K_x and p_u = P[r_u, c_u] for
    the entry u at row r_u and column c_u, the optimal decoder solves G a = h
    over the free entries:
    G_uv = (p_u p_v + [c_u = c_v](p_u - p_u^2)) [r_u = r_v] S[c_u, c_v] and
    h_u = p_u (Y[c_u, r_u] - P[r_u, r_u] S[c_u, r_u]).  A toeplitz decoder
    sums the equations of each lag band.  By the envelope theorem the
    gradient of J is the partial gradient in A at the optimal decoder,
    -(2/N) ((W K - E[H]' K_x) inv(A)' + s inv(A)' diag(W) inv(A) K_x inv(A)')
    with K = K_x + K_q and s = c 2^(-2r), read at the free entries and summed
    per parameter.
    """
    n = problem.frame_length
    K_x = problem.K_x
    moments = channel_moments(problem.marginals)
    P = np.asarray(problem.marginals, dtype=float)
    rows, cols, src = _parameter_map(problem.structure, n)
    bands = np.eye(problem.parameter_count)[src]
    p, p_own = P[rows, cols], P[rows, rows]
    coupling = ((np.outer(p, p) + (cols[:, None] == cols[None, :]) * (p - p * p)[:, None])
                * (rows[:, None] == rows[None, :]))
    noise_scale = problem.noise_constant * np.exp2(-2.0 * problem.average_rate)

    def evaluate(params: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        A = np.eye(n)
        A[rows, cols] = params[src]
        Ainv = np.linalg.inv(A)
        Y = Ainv @ K_x
        K_d = Y @ Ainv.T
        K_q = np.diag(noise_scale * np.diag(K_d))  # the modeled noise at uniform rates
        S = K_d + Ainv @ K_q @ Ainv.T
        G = coupling * S[np.ix_(cols, cols)]
        h = p * (Y[cols, rows] - p_own * S[cols, rows])
        decoder = np.linalg.solve(bands.T @ G @ bands, bands.T @ h)
        Ahat = np.eye(n)
        Ahat[rows, cols] = decoder[src]
        mean_H, W = moments(Ahat, Ainv)
        signal, noise = frame_error_terms(mean_H, W, K_x, K_q)
        grad = ((W @ (K_x + K_q) - mean_H.T @ K_x) @ Ainv.T
                + noise_scale * Ainv.T @ (np.diag(W)[:, None] * K_d))
        gradient = np.bincount(src, weights=grad[rows, cols],
                               minlength=problem.parameter_count)
        return (signal + noise) / n, (-2.0 / n) * gradient, decoder

    return evaluate


def design_objective(problem: DesignProblem):
    """objective(params) -> (J, gradient of J) for the free encoder parameters.

    J is the uniform-rate AM-MSE minimized over the decoder: it equals
    am_wmse of the transform pairing the encoder with `optimal_decoder`.
    """
    evaluate = _reduced_objective(problem)
    return lambda params: evaluate(params)[:2]


def optimal_decoder(problem: DesignProblem, params: np.ndarray) -> np.ndarray:
    """Free parameters of the decoder minimizing the objective for the given encoder."""
    return _reduced_objective(problem)(np.asarray(params, dtype=float))[2]


def design_code(problem: DesignProblem,
                initial_points: list[np.ndarray] | None = None) -> DesignResult:
    """Design a transform and its rate allocation for the given channel.

    Search structures ("full", "toeplitz") minimize the uniform-rate AM-MSE
    over the encoder alone by `lbfgs` on the objective of design_objective,
    whose decoder is the closed-form optimum, starting at the
    prediction-based transform's encoder (or the best of the supplied warm
    starts).  The result is the best encoder evaluated, so never worse than
    its start, with the decoder that evaluation solved for.  "identity" keeps
    uniform rates and "plt" allocates over its prediction error variances:
    neither searches or looks through the channel.  The search stops by the
    `lbfgs` rules alone; running out of MAX_ITERATIONS iterations is reported
    on the result as budget_exhausted, never raised.
    """
    n = problem.frame_length
    r = problem.average_rate

    def am_wmse_at(rates):
        K_q = QuantizerBank.modeled(rates, sigma_d, problem.noise_constant).noise_variances
        return am_wmse(transform, problem.marginals, problem.K_x, np.diag(K_q))

    if problem.structure in ("plt", "identity"):
        if problem.structure == "plt":
            transform, sigma_d = plt_design(problem.K_x)
            sigma_hat = sigma_d
        else:
            transform, sigma_d = CausalTransform.identity(n), np.diag(problem.K_x).copy()
            sigma_hat = np.ones(n)
        evaluations, history, exhausted = 0, [am_wmse_at(np.full(n, r))], False
    else:
        evaluate = _reduced_objective(problem)
        starts = [pack_parameters(plt_design(problem.K_x)[0], problem.structure)]
        if initial_points:
            starts.extend(np.asarray(p, dtype=float) for p in initial_points)
        evaluated = [evaluate(p) for p in starts]
        best = int(np.argmin([value for value, _, _ in evaluated]))
        best_x, history = starts[best], [evaluated[best][0]]
        decoder = evaluated[best][2]
        spent = 0

        def scaled(x):
            nonlocal best_x, decoder, spent
            spent += 1
            value, gradient, x_decoder = evaluate(x)
            if value < history[-1]:
                best_x, decoder = x.copy(), x_decoder
                history.append(value)
            return value / history[0], gradient / history[0]

        exhausted = lbfgs(scaled, best_x)[2]
        transform = unpack_parameters(best_x, decoder, problem.structure, n)
        evaluations = spent + len(starts)
        sigma_d = quantizer_input_variances(transform, problem.K_x)
        sigma_hat = effective_variances(transform, problem.marginals, problem.K_x)

    allocation = clamp_rates(allocate_rates(sigma_hat, r), problem.min_rate)
    # an identity design's allocation is the uniform r its history priced
    predicted = history[0] if problem.structure == "identity" else am_wmse_at(allocation.rates)
    return DesignResult(transform, allocation, predicted, None, evaluations,
                        history, exhausted, input_variances=sigma_d)


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
