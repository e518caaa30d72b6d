"""Experiment harness: scheme sweeps over delay-violation probability.

Reproduces the two experiment shapes end to end: open-loop coding of
frames of an AR(1) source (analytic and simulated AM-MSE per scheme) and the
closed-loop LQG plant (analytic and simulated cost per scheme), emitting one
CSV row per (scheme, p) with enough metadata to re-run the row exactly.

A source sweep codes its simulated frames in (N, frames) lanes.  The
frame-sized arrays (frames, quantizer noise, availability bits, codevalues)
are made when the sweep evaluates its first row and every later row writes
into them through the `out=` of `sample_availability_bits`, `encode_batch`
and `decode_batch`.  Later rows allocate only (frames,) scratch lanes and
chunks of channel draws, and a design-only context (`rctc design`) makes
none of the arrays.  The sweep draws its random numbers once, from one
draw seed: the frames and the standard-normal quantizer noise at its first
row, and at each channel point the availability bits from one stream of
delays.  Every row codes those same draws (common random numbers), so a
bit lost at p is lost at every larger p.
"""
from __future__ import annotations

import math
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
# numpy loads numpy.random on first use; loading it with the package keeps
# those 15-20 ms out of the first row of a sweep
import numpy.random  # noqa: F401

from .channel import ChannelModel, availability_marginals, sample_availability_bits
from .channel import availability_stats  # noqa: F401  (unused; bench/layertrace.py wraps it)
from .codec import decode_batch, encode_batch
from .codec import plt_design  # noqa: F401  (unused; bench/layertrace.py wraps it)
from .design import DesignProblem, DesignResult, design_code, pack_parameters
from .lqg import (LqgWeights, PlantModel, am_wmse, analytic_lqg_cost, controller_solution,
                  loop_pole, pilot_state_variance, simulate_closed_loop, standard_error)
from .quantizers import QuantizerBank
from .sources import ar1_covariance
from .sources import sample_path  # noqa: F401  (unused; bench/layertrace.py wraps it)

SCHEMES = ("no_coding", "plt", "rtc_tc", "rc_tc")
SCHEME_STRUCTURES = {"no_coding": "identity", "plt": "plt",
                     "rtc_tc": "toeplitz", "rc_tc": "full"}
CSV_HEADER = "scheme,p,lambda,analytic,simulated,stderr,seed,mode,c,N,r"
CSV_VERSION = "# rctc sweep csv v1"


class ConfigError(ValueError):
    """Bad or missing experiment configuration value."""


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [[float(v) for v in row.split(",") if v.strip() != ""]
                for row in text.split(";")]
        return np.asarray(rows, dtype=float)
    except ValueError:
        raise ConfigError(f"cannot parse matrix from {text!r}") from None


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip() != "")


# key -> (parser, default); None default means "derived later"
_CONFIG_KEYS = {
    "kind": (str, None),
    "n": (int, 6),
    "rate": (float, 5.0),
    "delta": (float, 0.05),
    "ts": (float, None),
    "p_grid": (_parse_float_list, (0.05, 0.1, 0.2, 0.3)),
    "p": (float, None),
    "schemes": (_parse_str_list, SCHEMES),
    "scheme": (str, "rtc_tc"),
    "quantizer_mode": (str, "modeled"),
    "seed": (int, 12345),
    "sim_frames": (int, 20000),
    "horizon": (int, 200_000),
    "noise_constant": (float, 1.0),
    "min_rate": (float, 0.0),
    "out": (str, ""),
    "rho": (float, 0.9),
    "source_variance": (float, 1.0),
    "F": (_parse_matrix, np.asarray([[1.49]])),
    "G": (_parse_matrix, np.asarray([[0.05]])),
    "K_w": (_parse_matrix, np.asarray([[0.01]])),
    "R": (_parse_matrix, np.asarray([[1.0]])),
    "S": (_parse_matrix, np.asarray([[0.01]])),
    "divergence_bound": (float, 1e9),
}
# the keys a sweep of each kind does not read, which its CSV does not echo;
# p and scheme pick the one design of `rctc design` and `rctc simulate`
_UNREAD_KEYS = {
    "source": {"p", "scheme", "out", "F", "G", "K_w", "R", "S", "horizon",
               "divergence_bound"},
    "lqg": {"p", "scheme", "out", "rho", "source_variance", "sim_frames"},
}


@dataclass
class ExperimentConfig:
    """Parsed flat key=value configuration with kind-aware defaults."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        v = self.values
        kind = v.get("kind")
        if kind not in ("source", "lqg"):
            raise ConfigError(f"kind must be 'source' or 'lqg', got {kind!r}")
        for key in ("p_grid", "schemes"):
            if not v[key]:
                raise ConfigError(f"{key} must list at least one value")
        if v.get("ts") is None:
            v["ts"] = v["delta"] / 4.0
        if v.get("p") is None:
            v["p"] = v["p_grid"][0]
        if v["n"] < 1:
            raise ConfigError("n must be at least 1")
        # a standard error needs two frames
        if v["sim_frames"] < 2:
            raise ConfigError(f"sim_frames must be at least 2, got {v['sim_frames']}")
        # derive_seed reads the master seed as one 32-bit word
        if not 0 <= v["seed"] < 2 ** 32:
            raise ConfigError(f"seed must lie in [0, 2^32), got {v['seed']}")
        if v["horizon"] < 2 * v["n"]:
            raise ConfigError(f"horizon must be at least 2n = {2 * v['n']}, "
                              f"got {v['horizon']}")
        for key in ("rate", "delta", "ts", "noise_constant", "divergence_bound",
                    "source_variance"):
            if not 0.0 < v[key] < math.inf:  # also rejects nan
                raise ConfigError(f"{key} must be finite and positive, got {v[key]}")
        for key in ("F", "G", "K_w", "R", "S"):
            bad = v[key][~np.isfinite(v[key])]
            if bad.size:
                raise ConfigError(f"{key} entries must be finite, got {bad[0]}")
        if not -1.0 < v["rho"] < 1.0:
            raise ConfigError(f"rho must lie in (-1, 1) for a stationary AR(1), "
                              f"got {v['rho']}")
        if not 0.0 <= v["min_rate"] <= v["rate"]:
            raise ConfigError(f"min_rate must lie in [0, rate = {v['rate']}], "
                              f"got {v['min_rate']}")
        for p in (*v["p_grid"], v["p"]):
            if not 0.0 < p < 1.0:
                raise ConfigError(f"p_grid values must lie in (0, 1), got {p}")
        for s in (*v["schemes"], v["scheme"]):
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
        for key in ("p_grid", "schemes"):
            for i, x in enumerate(v[key]):
                if x in v[key][:i]:
                    raise ConfigError(f"{key} lists {x!r} more than once")
        if v["quantizer_mode"] not in ("modeled", "realized"):
            raise ConfigError(
                f"quantizer_mode must be modeled or realized, got {v['quantizer_mode']!r}")
        if kind == "lqg" and v["quantizer_mode"] != "modeled":
            raise ConfigError("quantizer_mode must be modeled for kind = lqg: the closed-loop "
                              "simulator runs modeled quantizer noise only")

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    @classmethod
    def from_text(cls, text: str, overrides: dict | None = None) -> ExperimentConfig:
        """Parse and check a config; `overrides` replace parsed values before the checks."""
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
            parser, _ = _CONFIG_KEYS[key]
            try:
                values[key] = parser(val)
            except ConfigError:
                raise
            except (TypeError, ValueError):
                raise ConfigError(f"invalid value for {key}: {val!r}") from None
        values.update(overrides or {})
        for key, (_, default) in _CONFIG_KEYS.items():
            values.setdefault(key, default)
        return cls(values)

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> ExperimentConfig:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read(), overrides)

    def echo(self) -> str:
        """Canonical one-line rendering, stable across runs, for CSV headers.

        It lists every setting a sweep of the config's kind reads, defaults
        included, and no other: not the output path, which does not affect
        the computed rows.
        """
        parts = []
        for key in sorted(self.values):
            if key in _UNREAD_KEYS[self.kind]:
                continue
            val = self.values[key]
            if isinstance(val, np.ndarray):
                val = ";".join(",".join(repr(float(x)) for x in row) for row in val)
            elif isinstance(val, tuple):
                val = ",".join(str(x) for x in val)
            parts.append(f"{key}={val}")
        return "; ".join(parts)


@dataclass
class ResultRow:
    scheme: str
    p: float
    lam: float
    analytic: float
    simulated: float | str
    stderr: float
    seed: int
    mode: str
    c: float
    N: int
    r: float

    def to_csv(self) -> str:
        sim = self.simulated if isinstance(self.simulated, str) else repr(float(self.simulated))
        return ",".join([self.scheme, repr(float(self.p)), repr(float(self.lam)),
                         repr(float(self.analytic)), sim, repr(float(self.stderr)),
                         str(self.seed), self.mode, repr(float(self.c)),
                         str(self.N), repr(float(self.r))])


def derive_seed(master: int, *tags) -> int:
    """Stable per-task seed from the master seed and a tag path.

    Trailing zero tags are dropped, as `np.random.SeedSequence` drops
    trailing zero words: derive_seed(s, "sim", 0) == derive_seed(s, "sim").
    """
    words = [int(master) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            words.append(zlib.crc32(tag.encode()))
        else:
            words.append(int(tag) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


class _FrameLanes:
    """The frame-sized arrays of a source sweep, made once and read by every row.

    x holds the frames as (N, frames) lanes and noise, in a modeled sweep,
    each lane's standard-normal quantizer noise: both are drawn once per
    sweep.  bits holds the availability bits of channel point
    `channel` in the layout `sample_availability_bits` returns.  None of the
    three is written by a row.  Each row overwrites every element it reads of
    codevalues, its (N, frames) codevalue lanes (decoded and then turned into
    errors in place), and per_frame, each frame's error.
    """

    def __init__(self, frames: int, chol: np.ndarray, seed: int, modeled: bool):
        n = chol.shape[0]
        self.seed = seed
        self.codevalues = np.empty((n, frames))
        # the (frames, N) draws z go to the codevalue lanes, which no row has
        # read yet at this point
        z = self.codevalues.reshape(frames, n)
        np.random.default_rng(derive_seed(seed, "frames")).standard_normal(out=z)
        # row i of x is element i of every frame; einsum, as a BLAS GEMM
        # would wake a second BLAS thread that then spins
        self.x = np.einsum("ij,fj->if", chol, z, out=np.empty((n, frames)))
        self.noise = (np.random.default_rng(derive_seed(seed, "noise")).standard_normal(
            (n, frames)) if modeled else None)
        self.bits = np.empty((n, n, frames), dtype=bool).transpose(2, 0, 1)
        self.channel = None
        self.per_frame = np.empty(frames)


def _lqg_context(config: ExperimentConfig):
    plant = PlantModel(config.F, config.G, config.K_w)
    if plant.state_dim != 1 or plant.input_dim != 1:
        raise ConfigError("F and G must be scalar: only scalar plants are wired")
    weights = LqgWeights(config.R, config.S)
    solution = controller_solution(plant, weights)
    # the AR(1) of the ideal-observation loop: coefficient a = F + GL and
    # variance K_w / (1 - a^2)
    K_x = ar1_covariance(loop_pole(plant, solution),
                         pilot_state_variance(plant, solution), config.n)
    return plant, weights, solution, K_x


def _experiment_context(config: ExperimentConfig):
    """(K_x, evaluate, loop) of the configured kind.

    K_x is the frame covariance every design, rate allocation and analytic
    column reads.  evaluate(results, cm, seed) returns the (analytic,
    simulated, stderr) of each of a channel point's designs, all read on
    the same draws from `seed`.  For kind = source it is the sweep's draw
    seed, from which the frames (and, modeled, the quantizer noise) are
    drawn once and the bits once per point; a modeled row codes with its
    design's bank and reads its predicted_am_wmse, a realized row prices
    the Lloyd-Max bank it codes with, and loop is None.  For kind = lqg
    it is the point's: its designs run in one lockstep simulation, each with
    the modeled bank of its predicted_am_wmse, and the row's analytic column
    is its predicted_lqg_cost, which `design_schemes` prices from that
    AM-MSE by `analytic_lqg_cost(*loop, am_wmse)`, loop = (solution, plant).
    """
    n = config.n
    if config.kind == "source":
        K_x = ar1_covariance(config.rho, config.source_variance, n)
        chol = np.linalg.cholesky(K_x)
        frames = config.sim_frames
        realized = config.quantizer_mode == "realized"
        lanes = None

        def evaluate(results, cm, seed):
            """AM-MSE of i.i.d. N(0, K_x) frames coded through the sampled channel."""
            nonlocal lanes
            if lanes is None or lanes.seed != seed:
                lanes = _FrameLanes(frames, chol, seed, not realized)
            if lanes.channel != cm:
                # one stream of delays at every point: the delays scale with
                # the mean delay, so the bits of a larger p are a subset
                sample_availability_bits(cm, frames, derive_seed(seed, "channel"),
                                         out=lanes.bits)
                lanes.channel = cm
            x, codevalues = lanes.x, lanes.codevalues
            noise = None if realized else lanes.noise.T
            columns = []
            for result in results:
                if realized:
                    bank = QuantizerBank.lloyd_max(result.rates.rates, result.input_variances,
                                                   config.noise_constant)
                    analytic = am_wmse(result.transform, availability_marginals(cm), K_x,
                                       np.diag(bank.noise_variances))
                else:
                    bank, analytic = result.bank, result.predicted_am_wmse
                encode_batch(x.T, result.transform, bank, noise, out=codevalues.T)
                decode_batch(codevalues.T, result.transform, lanes.bits, out=codevalues.T)
                err = np.subtract(x, codevalues, out=codevalues)
                per_frame = np.square(err, out=err).sum(axis=0, out=lanes.per_frame)
                per_frame /= n
                columns.append((analytic, float(per_frame.mean()), standard_error(per_frame)))
            return columns

        return K_x, evaluate, None

    plant, weights, solution, K_x = _lqg_context(config)

    def evaluate(results, cm, seed):
        # each design runs with the bank design_schemes priced it with, so
        # its analytic cost is the design's
        sims = simulate_closed_loop(plant, weights, solution,
                                    [result.transform for result in results],
                                    [result.bank for result in results], cm,
                                    config.horizon, seed,
                                    divergence_bound=config.divergence_bound)
        # a diverged run has no finite variance for a stderr to estimate
        return [(result.predicted_lqg_cost, "diverged", math.nan) if sim.diverged else
                (result.predicted_lqg_cost, sim.empirical_cost, sim.standard_error)
                for result, sim in zip(results, sims)]

    return K_x, evaluate, (solution, plant)


def design_schemes(config: ExperimentConfig, marginals: Sequence[np.ndarray], schemes,
                   context=None) -> list[dict]:
    """Each listed scheme's design, or the error it raised, at each channel point of `marginals`.

    One dict per point, in the order of `marginals`, with the listed schemes
    in SCHEMES order.  Each scheme's designs at all the points come from one
    `design_code` call, made in SCHEMES order; rc_tc always starts from the
    rtc_tc encoder of its point, designed for it when not listed.  Every
    design carries the modeled bank it was priced with; for kind = lqg it
    also carries predicted_lqg_cost, the analytic column under modeled
    quantizer noise, weighted from its predicted_am_wmse, which its row
    simulates.
    context is the config's `_experiment_context`, made here when not given.
    """
    K_x, _, loop = context or _experiment_context(config)
    designs = {}
    for scheme in (s for s in SCHEMES if s in schemes or (s == "rtc_tc" and "rc_tc" in schemes)):
        problems = [DesignProblem(K_x, P, config.rate, SCHEME_STRUCTURES[scheme],
                                  config.noise_constant, config.min_rate) for P in marginals]
        warm = designs.get("rtc_tc") if scheme == "rc_tc" else None
        starts = None if warm is None else [
            [pack_parameters(result.transform, "full")] if isinstance(result, DesignResult)
            else None for result in warm]
        designs[scheme] = results = design_code(problems, starts)
        for result in results:
            if loop and isinstance(result, DesignResult):
                result.predicted_lqg_cost = analytic_lqg_cost(*loop, result.predicted_am_wmse)
    return [{scheme: designs[scheme][k] for scheme in SCHEMES if scheme in schemes}
            for k in range(len(marginals))]


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """One row per (p, scheme): design the sweep, then evaluate it point by point.

    Every design of the sweep is made before the first row is evaluated, and
    a channel point's designs are evaluated together, in one call.  The rows
    come as the sweep runs: point by point in p_grid order, each point's
    schemes in SCHEMES order.
    """
    context = _experiment_context(config)
    _, evaluate, _ = context
    rows = []
    # every index draws one delay, in the simulator and in the source lanes alike
    mode = f"montecarlo/{config.quantizer_mode}"
    # a row's seed column is the seed all its draws come from: a source
    # sweep's draw seed, or an LQG point's, on which every scheme at that p
    # runs (common random numbers) and which `rctc simulate` replays
    draw_seed = derive_seed(config.seed, "sim") if config.kind == "source" else None
    channels = [ChannelModel.from_violation_probability(p, config.delta, config.ts, config.n)
                for p in config.p_grid]
    marginals = [availability_marginals(cm) for cm in channels]
    sweep = design_schemes(config, marginals, config.schemes, context)
    for pi, (p, cm, designs) in enumerate(zip(config.p_grid, channels, sweep)):
        # the benchmark's layer trace follows this call to tag the point's
        # spans with its p.  At pi = 0 it equals a source sweep's draw seed
        # (see derive_seed), which an LQG sweep draws nothing else from
        point_seed = derive_seed(config.seed, "sim", pi)
        seed = point_seed if draw_seed is None else draw_seed
        designed = {s: r for s, r in designs.items() if not isinstance(r, Exception)}
        point = (dict(zip(designed, evaluate(list(designed.values()), cm, seed)))
                 if designed else {})
        for scheme, result in designs.items():
            if isinstance(result, Exception):
                # a flagged row, so that the rest of the sweep continues
                columns = (math.nan, "design_failed", math.nan)
                tag = f"{mode}:{type(result).__name__}"
            else:
                columns, tag = point[scheme], mode
            rows.append(ResultRow(scheme, p, cm.delay_rate, *columns, seed, tag,
                                  config.noise_constant, config.n, config.rate))
    return rows


def rows_to_csv(rows: list[ResultRow], config: ExperimentConfig) -> str:
    lines = [CSV_VERSION, f"# config: {config.echo()}", CSV_HEADER]
    lines.extend(row.to_csv() for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(path, rows: list[ResultRow], config: ExperimentConfig) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(rows_to_csv(rows, config))
