"""Byte-compare the sweep CSVs of two rctc source trees on the benchmark's workloads.

Usage: python3 tools/csv_parity.py OLD_SRC NEW_SRC [SCRATCH_DIR]

OLD_SRC and NEW_SRC are directories holding an `rctc` package (a checkout's
`src`). For every workload in bench/workloads.py, at its parity and its
held-out seed, `rctc sweep` runs once against each tree, in a fresh process
with one BLAS thread. One line is printed per pair of CSVs: `identical` when
the whole files match. Otherwise the data rows and the `# config:` line are
reported apart: `rows identical`, or the first other line that differs on
each side followed by the largest relative difference, |new - old| / |old|,
of the `analytic`, `simulated` and `stderr` columns over the rows matched by
(scheme, p); then the config line's difference as `-key=value` for each
setting only the old side echoes (or echoes with another value) and
`+key=value` for each only the new side echoes, for example
`rows identical; config line: -b_mode=montecarlo -search_budget=100000`.
The exit status is 0 only when every pair is identical as whole files. The
configs and CSVs are written to SCRATCH_DIR (default: a temporary directory,
removed afterwards).
"""
from __future__ import annotations

import importlib.util
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
COLUMNS = ("analytic", "simulated", "stderr")
CONFIG_PREFIX = "# config: "


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def sweep(src: Path, config: Path, out: Path) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-B", "-m", "rctc.cli", "sweep", "--config",
                           str(config), "--out", str(out)],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"sweep against {src} failed: {proc.stderr.strip()}")
    return out.read_bytes()


def data_lines(text: bytes) -> list[tuple[int, str]]:
    """(line number, line) of every line but the `# config:` one."""
    return [(number, line) for number, line in enumerate(text.decode().splitlines(), start=1)
            if not line.startswith(CONFIG_PREFIX)]


def first_difference(old: list[tuple[int, str]], new: list[tuple[int, str]]) -> str:
    for (number, a), (_, b) in zip(old, new):
        if a != b:
            return f"line {number}: old {a!r} new {b!r}"
    return f"line count: old {len(old)} new {len(new)}"


def config_settings(text: bytes) -> set[str]:
    """The `key=value` settings of the `# config:` line; matrices join rows by a bare ';'."""
    for line in text.decode().splitlines():
        if line.startswith(CONFIG_PREFIX):
            return set(line[len(CONFIG_PREFIX):].split("; "))
    return set()


def config_difference(old: bytes, new: bytes) -> str:
    old_settings, new_settings = config_settings(old), config_settings(new)
    changes = ([f"-{s}" for s in sorted(old_settings - new_settings)]
               + [f"+{s}" for s in sorted(new_settings - old_settings)])
    return " ".join(changes) or "identical"


def rows_by_key(text: str) -> dict:
    """(scheme, p) -> the row as {column: text}, reading the columns by the header."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = (dict(zip(header, line.split(","))) for line in lines[1:])
    return {(row["scheme"], row["p"]): row for row in rows}


def relative_difference(old: str, new: str) -> float | None:
    """|new - old| / |old|; None when a side is a flag such as `diverged`."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def verdict(old: bytes, new: bytes) -> str:
    if old == new:
        return "identical"
    old_rows, new_rows = data_lines(old), data_lines(new)
    rows = ("rows identical" if old_rows == new_rows else
            f"{first_difference(old_rows, new_rows)}; {largest_differences(old, new)}")
    return f"{rows}; config line: {config_difference(old, new)}"


def largest_differences(old: bytes, new: bytes) -> str:
    old_rows, new_rows = rows_by_key(old.decode()), rows_by_key(new.decode())
    keys = old_rows.keys() & new_rows.keys()
    parts = []
    for column in COLUMNS:
        diffs = [relative_difference(old_rows[k][column], new_rows[k][column]) for k in keys]
        diffs = [d for d in diffs if d is not None]
        parts.append(f"{column} {max(diffs):.3g}" if diffs else f"{column} -")
    return f"largest relative difference over {len(keys)} rows: " + ", ".join(parts)


def compare(old_src: Path, new_src: Path, scratch: Path) -> bool:
    same = True
    for workload in load_workloads().values():
        for seed in (workload.parity_seed, workload.held_out_seed):
            stem = f"{workload.name}-seed{seed}"
            config = scratch / f"{stem}.cfg"
            config.write_text(workload.render(seed))
            old = sweep(old_src, config, scratch / f"{stem}-old.csv")
            new = sweep(new_src, config, scratch / f"{stem}-new.csv")
            same &= old == new
            print(f"{workload.name} seed {seed}: {verdict(old, new)}", flush=True)
    return same


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_src, new_src = (Path(arg).resolve() for arg in argv[:2])
    if len(argv) == 3:
        scratch = Path(argv[2])
        scratch.mkdir(parents=True, exist_ok=True)
        return 0 if compare(old_src, new_src, scratch) else 1
    with tempfile.TemporaryDirectory() as tmp:
        return 0 if compare(old_src, new_src, Path(tmp)) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
