"""Benchmark of `rctc sweep`: end-to-end metrics, correctness and a per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload source_sweep --seed 1234 --seconds 30 --trace 0

Every sweep runs in a fresh worker process (bench/worker.py), one process at a
time, with BLAS threads capped at the CPUs this process may use.

--trace 0 repeats the sweep while --seconds allow (at least once), then starts
SETUP_PROBES set-up-only processes, and reports the end-to-end metrics:
sweep_s, setup_s and peak_rss_mb as medians, and rows_ok_frac.
--trace 1 runs one untraced and one traced sweep and reports the layer
metrics of bench/layertrace.py, plus trace.overhead_s, the traced minus the
untraced sweep time.

Correctness is read from the CSVs the product wrote (bench/checks.py): every
row must pass, and every sweep of the run must write byte-identical CSV.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The spans and per-sweep details go to
.bench_out/<workload>-seed<n>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_sweep, read_rows
from layertrace import metric_units
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up-only processes per untraced run; each sweep process adds one more sample
SETUP_PROBES = 4
# a run must end within 180 s; workers still running at this point are killed
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A worker failed or ran out of time; the run prints no result."""


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env


def spawn(mode: str, config_path: Path, csv_path: Path, env: dict,
          deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from spawn to ready, its JSON result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), mode, str(config_path), str(csv_path)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return setup_s, None if mode == "setup" else json.loads(rest.splitlines()[-1])


def run_untraced(stem, config_path, env, seconds, deadline):
    started = time.perf_counter()
    sweeps, csvs = [], []
    while True:
        csvs.append(OUT / f"{stem}-rep{len(sweeps)}.csv")
        setup_s, result = spawn("sweep", config_path, csvs[-1], env, deadline)
        result["setup_s"] = setup_s
        sweeps.append(result)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(sweeps) > seconds:
            break
    setups = [r["setup_s"] for r in sweeps]
    setups += [spawn("setup", config_path, csvs[0], env, deadline)[0]
               for _ in range(SETUP_PROBES)]
    metrics = {
        "sweep_s": (statistics.median(r["sweep_s"] for r in sweeps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in sweeps), "MB"),
    }
    return sweeps, csvs, metrics, {"setup_samples": setups}


def run_traced(stem, config_path, env, deadline):
    csvs = [OUT / f"{stem}-plain.csv", OUT / f"{stem}-traced.csv"]
    _, plain = spawn("sweep", config_path, csvs[0], env, deadline)
    _, traced = spawn("trace", config_path, csvs[1], env, deadline)
    trace = traced.pop("trace")
    units = metric_units()
    metrics = {name: (value, units[name]) for name, value in trace["values"].items()}
    metrics["cli.import_s"] = (traced["import_s"], "s")
    metrics["cli.parse_s"] = (traced["parse_s"], "s")
    metrics["trace.sweep_s"] = (traced["sweep_s"], "s")
    metrics["trace.overhead_s"] = (traced["sweep_s"] - plain["sweep_s"], "s")
    absent = sorted(set(units) - set(metrics))
    return [plain, traced], csvs, metrics, {"absent_metrics": absent, **trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rctc" / "__init__.py").is_file():
        print(f"error: no rctc package under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    env = worker_env(threads)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    config_path = OUT / f"{stem}.cfg"
    config_path.write_text(workload.render(args.seed), encoding="ascii")
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            sweeps, csvs, metrics, extra = run_traced(stem, config_path, env, deadline)
        else:
            sweeps, csvs, metrics, extra = run_untraced(stem, config_path, env,
                                                        args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = [check_sweep(read_rows(path), workload.kind, workload.expected_rows)
              for path in csvs]
    attempted = sum(c.attempted for c in checks)
    failed = sum(len(c.failed) for c in checks)
    problems = [msg for c in checks for msg in c.failed]
    if any(path.read_bytes() != csvs[0].read_bytes() for path in csvs[1:]):
        problems.append("sweeps of one seed wrote different CSV bytes")
    first = checks[0]
    if not args.trace:
        metrics["rows_ok_frac"] = (1.0 - failed / attempted, "ratio")

    machine = {**sweeps[0]["versions"], "platform": platform.platform(),
               "cpus": threads, "blas_threads": threads}
    print(f"machine: python {machine['python']}, numpy {machine['numpy']}, "
          f"scipy {machine['scipy']}, {machine['cpus']} cpus, "
          f"BLAS threads capped at {machine['blas_threads']}")
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(sweeps)} sweep process(es), {attempted} rows")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  {'rows_failed_frac':28s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} rows)")
    print(f"  {'order_violations':28s} {len(first.order_violations):14d} count "
          f"{'; '.join(first.order_violations)}")
    print(f"  {'max_abs_z':28s} {first.max_abs_z:14.6g} stderr")
    for msg in problems:
        print(f"  FAILED: {msg}")
    if extra.get("absent_metrics"):
        print(f"  absent layer metrics: {', '.join(extra['absent_metrics'])}")

    details = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "machine": machine, "sweeps": sweeps, "problems": problems,
               "order_violations": first.order_violations,
               "max_abs_z": first.max_abs_z,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
               **extra}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
