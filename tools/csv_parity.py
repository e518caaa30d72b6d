"""Byte-compare the sweep CSVs of two rctc source trees on the benchmark's workloads.

Usage: python3 tools/csv_parity.py OLD_SRC NEW_SRC [SCRATCH_DIR] [--config PATH ...]

OLD_SRC and NEW_SRC are directories holding an `rctc` package (a checkout's
`src`). For every workload in bench/workloads.py, at its parity and its
held-out seed, or for each config file PATH instead when one is given (at
the seed it sets), `rctc sweep` runs once against each tree, in a fresh
process with one BLAS thread. One line is printed per pair of CSVs, after
the workload and seed or the file's path: `identical` when
the whole files match. Otherwise the data rows and the `# config:` line are
reported apart. The rows read `rows identical`, or `same rows, other order`
when only their order differs, or else the first other line that differs on
each side followed by the rows matched by (scheme, p), compared in every
column: the largest relative difference, |new - old| / |old|, of the
`analytic`, `simulated` and `stderr` columns, then of each other column that
differs in some matched row (with the count of rows whose text differs
where a side is not a number, such as `diverged`), then the (scheme, p) of
the rows found on one side only. The config line's difference follows as `-key=value` for each
setting only the old side echoes (or echoes with another value) and
`+key=value` for each only the new side echoes, for example
`rows identical; config line: -b_mode=montecarlo -search_budget=100000`.
The exit status is 0 only when every pair is identical as whole files. The
configs and CSVs are written to SCRATCH_DIR (default: a temporary directory,
removed afterwards).
"""
from __future__ import annotations

import argparse
import importlib.util
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
# the columns whose largest difference is always printed; the others are
# printed when they differ, and scheme and p match the rows
COLUMNS = ("analytic", "simulated", "stderr")
KEY = ("scheme", "p")
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
    return {tuple(row[column] for column in KEY): row for row in rows}


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
    if old_rows == new_rows:
        rows = "rows identical"
    elif sorted(line for _, line in old_rows) == sorted(line for _, line in new_rows):
        rows = "same rows, other order"
    else:
        rows = f"{first_difference(old_rows, new_rows)}; {matched_differences(old, new)}"
    return f"{rows}; config line: {config_difference(old, new)}"


def column_difference(column: str, pairs: list[tuple[str, str]]) -> str | None:
    """`column <largest relative difference>` over the matched (old, new) pairs.

    None for a column outside COLUMNS that is equal in every pair.  The
    pairs whose text differs where a side is not a number, such as
    `diverged`, are counted apart as `(k other text)`.
    """
    if column not in COLUMNS and all(a == b for a, b in pairs):
        return None
    diffs = [relative_difference(a, b) for a, b in pairs]
    numeric = [d for d in diffs if d is not None]
    text = sum(d is None and a != b for d, (a, b) in zip(diffs, pairs))
    part = f"{column} {max(numeric):.3g}" if numeric else f"{column} -"
    return f"{part} ({text} other text)" if text else part


def matched_differences(old: bytes, new: bytes) -> str:
    old_rows, new_rows = rows_by_key(old.decode()), rows_by_key(new.decode())
    keys = [k for k in old_rows if k in new_rows]
    header = next(iter(old_rows.values()), {})
    columns = dict.fromkeys(c for c in (*COLUMNS, *header) if c not in KEY)
    parts = [column_difference(c, [(old_rows[k].get(c, ""), new_rows[k].get(c, ""))
                                   for k in keys]) for c in columns]
    text = (f"largest relative difference over {len(keys)} rows: "
            + ", ".join(part for part in parts if part))
    for side, rows, other in (("old", old_rows, new_rows), ("new", new_rows, old_rows)):
        alone = [" ".join(k) for k in rows if k not in other]
        if alone:
            text += f"; rows only in {side}: " + ", ".join(alone)
    return text


def cases(configs: list[Path]) -> list[tuple[str, str, str]]:
    """(label, file stem, config text) of each config file, or else of each workload and seed."""
    if configs:
        return [(str(path), f"config{k}-{path.stem}", path.read_text(encoding="utf-8"))
                for k, path in enumerate(configs)]
    return [(f"{workload.name} seed {seed}", f"{workload.name}-seed{seed}", workload.render(seed))
            for workload in load_workloads().values()
            for seed in (workload.parity_seed, workload.held_out_seed)]


def compare(old_src: Path, new_src: Path, scratch: Path, cases) -> bool:
    same = True
    for label, stem, text in cases:
        config = scratch / f"{stem}.cfg"
        config.write_text(text)
        old = sweep(old_src, config, scratch / f"{stem}-old.csv")
        new = sweep(new_src, config, scratch / f"{stem}-new.csv")
        same &= old == new
        print(f"{label}: {verdict(old, new)}", flush=True)
    return same


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("scratch", type=Path, nargs="?")
    parser.add_argument("--config", type=Path, action="append", default=[],
                        help="a config file to compare on, in place of the workloads "
                             "(repeatable)")
    args = parser.parse_args(argv)
    try:
        chosen = cases(args.config)
    except OSError as exc:
        parser.error(f"cannot read {exc.filename}")
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()
    if args.scratch is not None:
        args.scratch.mkdir(parents=True, exist_ok=True)
        return 0 if compare(old_src, new_src, args.scratch, chosen) else 1
    with tempfile.TemporaryDirectory() as tmp:
        return 0 if compare(old_src, new_src, Path(tmp), chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
