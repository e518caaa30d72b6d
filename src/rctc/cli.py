"""Command line front end: design, simulate, sweep, riccati."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .channel import ChannelModel, availability_marginals
from .design import save_design
from .harness import (ConfigError, ExperimentConfig, _lqg_context, derive_seed, design_schemes,
                      run_experiment, write_csv)
from .lqg import LqgWeights, PlantModel, controller_solution, simulate_closed_loop


def _load_config(args) -> ExperimentConfig:
    """The config file with the command line's overrides, checked as one."""
    overrides = {key: getattr(args, key, None) for key in ("seed", "out", "horizon")}
    return ExperimentConfig.from_file(
        args.config, {key: v for key, v in overrides.items() if v is not None})


def _require_out(config: ExperimentConfig) -> str:
    if not config.out:
        raise ConfigError("no output path: set 'out' in the config or pass --out")
    return config.out


def _format_matrix(M: np.ndarray) -> str:
    return "\n".join(" ".join(repr(float(v) + 0.0) for v in row) for row in np.atleast_2d(M))


def cmd_riccati(args) -> int:
    config = _load_config(args)
    plant = PlantModel(config.F, config.G, config.K_w)
    solution = controller_solution(plant, LqgWeights(config.R, config.S))
    print("P")
    print(_format_matrix(solution.P))
    print("L")
    print(_format_matrix(solution.L))
    print("R_eq")
    print(_format_matrix(solution.R_eq))
    return 0


def _design(config: ExperimentConfig, context=None):
    """(channel, design) of the configured scheme at the configured p, as a sweep makes it."""
    cm = ChannelModel.from_violation_probability(config.p, config.delta, config.ts, config.n)
    designs, = design_schemes(config, [availability_marginals(cm)], [config.scheme], context)
    result = designs[config.scheme]
    if isinstance(result, Exception):
        raise result
    return cm, result


def cmd_design(args) -> int:
    config = _load_config(args)
    out = _require_out(config)
    _, result = _design(config)
    save_design(result, out, scheme=config.scheme)
    print(f"wrote {out}: scheme={config.scheme} p={config.p} "
          f"predicted_am_wmse={result.predicted_am_wmse!r}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out = _require_out(config)
    if config.kind != "lqg":
        raise ConfigError("simulate needs kind = lqg")
    plant, weights, solution, K_x = _lqg_context(config)
    # design_schemes reads only K_x and the loop: one Riccati solve per run
    cm, result = _design(config, (K_x, None, (solution, plant)))
    # the sweep's point seed: p's position in p_grid, or 0 when p_grid leaves p out
    pi = config.p_grid.index(config.p) if config.p in config.p_grid else 0
    sim, = simulate_closed_loop(plant, weights, solution, [result.transform], [result.bank], cm,
                                config.horizon, derive_seed(config.seed, "sim", pi),
                                collect_trace=True, divergence_bound=config.divergence_bound)

    with open(out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# rctc trace csv v1\n")
        fh.write("step,state,quantizer_input,codevalue,availability,"
                 "reconstruction,control,cost\n")
        for rec in sim.trace:
            fh.write(",".join([str(rec.step), repr(rec.state), repr(rec.quantizer_input),
                               repr(rec.codevalue), rec.availability,
                               repr(rec.reconstruction), repr(rec.control),
                               repr(rec.cost)]) + "\n")
    status = "diverged" if sim.diverged else "ok"
    print(f"wrote {out}: steps={sim.steps} cost={sim.empirical_cost!r} status={status}")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    out = _require_out(config)
    rows = run_experiment(config)
    write_csv(out, rows, config)
    print(f"wrote {out}: {len(rows)} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rctc",
        description="Robust causal transform coding for networked LQG control")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("design", cmd_design, "design one scheme and write the result file"),
        ("simulate", cmd_simulate, "one closed-loop run with a trace CSV"),
        ("sweep", cmd_sweep, "full experiment sweep to CSV"),
        ("riccati", cmd_riccati, "print P, L and R_eq for a plant config"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output path")
        if name == "simulate":
            p.add_argument("--horizon", type=int, default=None,
                           help="override the config horizon")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: cannot open {exc.filename}", file=sys.stderr)
        return 1
    except Exception as exc:  # diagnostic line + nonzero exit on any failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
