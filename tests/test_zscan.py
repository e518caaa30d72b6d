"""tools/zscan.py names the rows the benchmark's 4-stderr source check would fail.

A change that redraws the simulated column reports how often a correct
sweep trips that check, so the tool is loaded read-only and its report
checked on small sets of rows written in the sweep's own row type.
"""
import importlib.util
import os
import sys
from pathlib import Path

from rctc.harness import SCHEMES, ResultRow

ZSCAN = Path(__file__).resolve().parents[1] / "tools" / "zscan.py"


def load_zscan():
    spec = importlib.util.spec_from_file_location("tools_zscan", ZSCAN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


zscan = load_zscan()


def row(scheme, p, simulated, analytic=1.0, stderr=0.01):
    return ResultRow(scheme, p, 20.0, analytic, simulated, stderr, 7,
                     "montecarlo/modeled", 1.0, 4, 5.0)


def test_rows_above_four_stderr_are_named_by_seed_scheme_and_p():
    runs = [(1, [row("plt", 0.1, 1.045), row("rtc_tc", 0.1, 0.99)]),
            (2, [row("plt", 0.1, 1.0), row("rtc_tc", 0.1, 0.955),
                 row("rtc_tc", 0.3, 2.0, stderr=0.25)])]  # 4 stderr exactly passes
    lines = zscan.report("demo", runs, SCHEMES)
    assert lines[0].startswith("demo (seeds 1-2, 5 rows, 0 left out): ")
    assert lines[-1] == "  rows above 4 stderr: seed 1 plt p=0.1 z=4.50, seed 2 rtc_tc p=0.1 z=-4.50"


def test_no_row_above_the_limit_and_flagged_rows_left_out():
    runs = [(5, [row("plt", 0.2, 1.02), row("rtc_tc", 0.2, "diverged")]),
            (6, [row("plt", 0.2, 0.98), row("rtc_tc", 0.2, 1.0, stderr=float("nan"))])]
    lines = zscan.report("demo", runs, SCHEMES)
    assert lines[0].startswith("demo (seeds 5-6, 2 rows, 2 left out): z mean 0.000 sd 2.828")
    assert lines[-1] == "  rows above 4 stderr: none"


TINY_CONFIG = """kind = source
n = 3
rate = 4
p_grid = 0.1
schemes = no_coding, plt
sim_frames = 200
seed = 5  # each scanned seed replaces this line
"""


def test_a_seed_replaces_the_seed_line_of_a_config_file():
    config = zscan.ConfigFile("tiny.cfg", TINY_CONFIG.replace("seed = 5", "seed=5"))
    rendered = config.render(7)
    assert rendered.splitlines()[-1] == "seed = 7"
    assert rendered.count("seed") == 1
    assert rendered.startswith("kind = source\nn = 3\n")


def test_a_config_file_is_scanned_at_each_seed(tmp_path, monkeypatch, capsys):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    # main pins BLAS threads and puts --src first on sys.path; undo both after
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert zscan.main(["--seeds", "2", "--first-seed", "3", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{path} (seeds 3-4, 4 rows, 0 left out): z mean ")
    assert lines[1].startswith("  p=0.1: sd of simulated differences no_coding-plt ")
    assert len(lines) == 4
