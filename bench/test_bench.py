"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repository root).

The sweep tests run every workload twice on its parity seed, a few minutes in
all; select one with -k, e.g. -k lqg_match.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
from checks import check_sweep
from layertrace import metric_units
from workloads import WORKLOADS

# counts that repeat exactly for a fixed seed, so later changes can cite them
EXACT_COUNTS = ("channel.samples", "channel.patterns", "design.evaluations",
                "lqg.sim_steps", "quantizers.levels_trained")


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "sweep_s", "setup_s", "peak_rss_mb", "rows_ok_frac"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()


def _row(scheme, analytic, simulated, stderr, p="0.1"):
    return {"scheme": scheme, "p": p, "analytic": repr(analytic),
            "simulated": simulated if isinstance(simulated, str) else repr(simulated),
            "stderr": repr(stderr)}


def test_check_flags_failed_rows_and_order_violations():
    rows = [_row("no_coding", 1.0, 1.01, 0.01), _row("plt", 0.5, "design_failed", 0.01),
            _row("rtc_tc", 0.30, 0.30, float("nan")), _row("rc_tc", 0.31, 0.40, 0.01)]
    check = check_sweep(rows, "source", expected_rows=5)
    assert len(check.failed) == 4  # row count, flagged, non-finite, 9 stderr off
    assert check.order_violations == ["p=0.1: rtc_tc < rc_tc"]
    lqg = check_sweep([_row("no_coding", 1.0, 1.049, 0.001),
                       _row("plt", 1.0, 1.051, 0.1)], "lqg", expected_rows=2)
    assert [msg.split(":")[0] for msg in lqg.failed] == ["plt p=0.1"]
    assert lqg.max_abs_z == pytest.approx(49.0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_csv_bytes_and_counts(name, tmp_path):
    workload = WORKLOADS[name]
    config = tmp_path / "sweep.cfg"
    config.write_text(workload.render(workload.parity_seed))
    env = run.worker_env(len(os.sched_getaffinity(0)))
    deadline = time.perf_counter() + 600
    csvs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    traces = [run.spawn("trace", config, path, env, deadline)[1]["trace"] for path in csvs]
    assert csvs[0].read_bytes() == csvs[1].read_bytes()
    first, second = ({k: t["values"][k] for k in EXACT_COUNTS} for t in traces)
    assert first == second
    assert not traces[0]["absent_wrappers"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "lqg_match",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
