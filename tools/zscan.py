"""Calibration of the simulated column over many seeds, in one process.

Usage: python3 tools/zscan.py [--src SRC] [--seeds K] [--first-seed S] [WORKLOAD ...]

Runs each named workload of bench/workloads.py (default: all of them) with the
`rctc` package under SRC (default: this checkout's `src`), at the seeds S, S + 1,
..., S + K - 1 (defaults: S = 1, K = 40), with one BLAS thread, and prints for
each workload:

- z = (simulated - analytic) / stderr over every row of every seed: its mean
  and sd, which are about 0 and 1 when the simulation is unbiased and its
  stderr right, and the largest |z|;
- for each p and each pair of schemes adjacent in the order no_coding, plt,
  rtc_tc, rc_tc, the sd over the seeds of the paired difference
  simulated(a) - simulated(b);
- order flips: the (seed, p, pair) cases in which the simulated column orders
  the pair otherwise than the analytic column, out of all such cases;
- every row with |z| above the source row check of bench/checks.py (4), by
  seed, scheme and p: the rows a benchmark run at that seed would fail. For
  an LQG workload, whose benchmark check is relative, they are only
  reported.

Rows whose simulated column is a flag (`design_failed`, `diverged`) or whose
stderr is not finite and positive are left out, and their count is printed.
"""
from __future__ import annotations

import argparse
import importlib.util
import math
import os
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_FILE = ROOT / "bench" / "workloads.py"
CHECKS_FILE = ROOT / "bench" / "checks.py"


def load_bench_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def load_workloads() -> dict:
    return load_bench_module("bench_workloads", WORKLOADS_FILE).WORKLOADS


def scan(harness, workload, seeds) -> list[str]:
    """The report lines of one workload over the given seeds."""
    runs = [(seed, harness.run_experiment(harness.ExperimentConfig.from_text(
        workload.render(seed)))) for seed in seeds]
    return report(workload.name, runs, harness.SCHEMES)


def report(name: str, runs, schemes) -> list[str]:
    """The report lines of (seed, rows) runs of one workload, schemes in nesting order."""
    z_limit = load_bench_module("bench_checks", CHECKS_FILE).SOURCE_Z_LIMIT
    seeds = [seed for seed, _ in runs]
    z, skipped, flips, cases, above = [], 0, 0, 0, []
    differences = defaultdict(list)  # (p, a, b) -> simulated(a) - simulated(b), per seed
    for seed, sweep_rows in runs:
        by_p = defaultdict(dict)
        for row in sweep_rows:
            if isinstance(row.simulated, str) or not 0.0 < row.stderr < math.inf:
                skipped += 1
                continue
            z.append((row.simulated - row.analytic) / row.stderr)
            if abs(row.simulated - row.analytic) > z_limit * row.stderr:
                above.append(f"seed {seed} {row.scheme} p={row.p} z={z[-1]:.2f}")
            by_p[row.p][row.scheme] = row
        for p, rows in by_p.items():
            present = [s for s in schemes if s in rows]
            for a, b in zip(present, present[1:]):
                simulated = rows[a].simulated - rows[b].simulated
                differences[p, a, b].append(simulated)
                cases += 1
                flips += (simulated > 0.0) != (rows[a].analytic - rows[b].analytic > 0.0)
    if len(z) < 2:
        return [f"{name}: fewer than two rows with a stderr"]
    lines = [f"{name} (seeds {seeds[0]}-{seeds[-1]}, {len(z)} rows, "
             f"{skipped} left out): z mean {statistics.fmean(z):.3f} "
             f"sd {statistics.stdev(z):.3f}, max |z| {max(map(abs, z)):.2f}"]
    for p in sorted({p for p, _, _ in differences}):
        parts = [f"{a}-{b} {statistics.stdev(d):.2g}"
                 for (q, a, b), d in differences.items() if q == p and len(d) > 1]
        lines.append(f"  p={p}: sd of simulated differences " + ", ".join(parts))
    lines.append(f"  order flips: {flips} of {cases} adjacent pairs")
    lines.append(f"  rows above {z_limit:g} stderr: {', '.join(above) or 'none'}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--seeds", type=int, default=40)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    workloads = load_workloads()
    unknown = [w for w in args.workloads if w not in workloads]
    if unknown or args.seeds < 2:
        parser.error(f"unknown workload {unknown[0]!r}" if unknown else "--seeds must be >= 2")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy first loads, below
    sys.path.insert(0, str(args.src.resolve()))
    from rctc import harness

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    for name in args.workloads or workloads:
        print("\n".join(scan(harness, workloads[name], seeds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
