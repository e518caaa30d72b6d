"""Byte-compare the sweep CSVs of two rctc source trees on the benchmark's workloads.

Usage: python3 tools/csv_parity.py OLD_SRC NEW_SRC [SCRATCH_DIR]

OLD_SRC and NEW_SRC are directories holding an `rctc` package (a checkout's
`src`). For every workload in bench/workloads.py, at its parity and its
held-out seed, `rctc sweep` runs once against each tree, in a fresh process
with one BLAS thread. Each pair of CSVs is compared as a whole file, the
`# config:` line included, and one line is printed per pair: `identical`, or
the first line that differs on each side. The exit status is 0 only when
every pair is identical. The configs and CSVs are written to SCRATCH_DIR
(default: a temporary directory, removed afterwards).
"""
from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


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


def first_difference(old: bytes, new: bytes) -> str:
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    for number, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            return f"line {number}: old {a!r} new {b!r}"
    return f"line count: old {len(old_lines)} new {len(new_lines)}"


def compare(old_src: Path, new_src: Path, scratch: Path) -> bool:
    same = True
    for workload in load_workloads().values():
        for seed in (workload.parity_seed, workload.held_out_seed):
            stem = f"{workload.name}-seed{seed}"
            config = scratch / f"{stem}.cfg"
            config.write_text(workload.render(seed))
            old = sweep(old_src, config, scratch / f"{stem}-old.csv")
            new = sweep(new_src, config, scratch / f"{stem}-new.csv")
            verdict = "identical" if old == new else first_difference(old, new)
            same &= old == new
            print(f"{workload.name} seed {seed}: {verdict}", flush=True)
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
