"""tools/csv_parity.py reports a pair's data rows and `# config:` line apart.

A change that retires a config key leaves every data row in place and drops
one setting from the config line; the verdict must say exactly that, so the
tool is loaded read-only and its verdict checked on small CSV texts written
in the sweep's own format.
"""
import importlib.util
import math
from pathlib import Path

from rctc.harness import CSV_HEADER, CSV_VERSION, ResultRow

CSV_PARITY = Path(__file__).resolve().parents[1] / "tools" / "csv_parity.py"


def load_csv_parity():
    spec = importlib.util.spec_from_file_location("tools_csv_parity", CSV_PARITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


csv_parity = load_csv_parity()

CONFIG = "kind=source; n=4; p_grid=0.1,0.3; rate=5.0; seed=3"


def row(scheme, p, analytic, simulated=1.5, stderr=0.01):
    return ResultRow(scheme, p, 20.0, analytic, simulated, stderr, 7,
                     "montecarlo/modeled", 0.0, 4, 5.0).to_csv()


def sweep_csv(config, rows):
    return "\n".join([CSV_VERSION, f"# config: {config}", CSV_HEADER, *rows, ""]).encode()


ROWS = [row("plt", 0.1, 2.0), row("plt", 0.3, 3.0), row("rtc_tc", 0.1, 1.0)]


def test_identical_files():
    text = sweep_csv(CONFIG, ROWS)
    assert csv_parity.verdict(text, text) == "identical"


def test_retired_keys_show_on_the_config_line_alone():
    old = sweep_csv("b_mode=montecarlo; " + CONFIG + "; search_budget=100000", ROWS)
    new = sweep_csv(CONFIG, ROWS)
    assert csv_parity.verdict(old, new) == \
        "rows identical; config line: -b_mode=montecarlo -search_budget=100000"


def test_changed_value_is_removed_and_added():
    old = sweep_csv(CONFIG, ROWS)
    new = sweep_csv(CONFIG.replace("seed=3", "seed=4"), ROWS)
    assert csv_parity.verdict(old, new) == "rows identical; config line: -seed=3 +seed=4"


def test_row_difference_names_its_line_and_largest_change():
    # the second data row's analytic moves by 1 %, on line 5 of the file
    new_rows = [ROWS[0], row("plt", 0.3, 3.03), ROWS[2]]
    verdict = csv_parity.verdict(sweep_csv(CONFIG, ROWS), sweep_csv(CONFIG, new_rows))
    first, largest, config = verdict.split("; ")
    assert first == f"line 5: old {ROWS[1]!r} new {new_rows[1]!r}"
    assert largest.startswith("largest relative difference over 3 rows: analytic 0.01,")
    assert largest.endswith("simulated 0, stderr 0")
    assert config == "config line: identical"


def test_reordered_rows_are_named_as_such():
    old = sweep_csv(CONFIG, ROWS)
    new = sweep_csv(CONFIG, [ROWS[2], ROWS[0], ROWS[1]])
    assert csv_parity.verdict(old, new) == "same rows, other order; config line: identical"


def test_matched_rows_are_compared_in_every_column():
    # the rows move apart in N and mode alone; analytic, simulated and
    # stderr are printed anyway, the equal lambda, seed, c and r are not
    moved = ResultRow("plt", 0.3, 20.0, 3.0, 1.5, 0.01, 7, "montecarlo/realized", 0.0, 8,
                      5.0).to_csv()
    new_rows = [ROWS[2], moved, ROWS[0]]
    verdict = csv_parity.verdict(sweep_csv(CONFIG, ROWS), sweep_csv(CONFIG, new_rows))
    _, largest, config = verdict.split("; ")
    assert largest == ("largest relative difference over 3 rows: analytic 0, simulated 0, "
                       "stderr 0, mode - (1 other text), N 1")
    assert config == "config line: identical"


def test_flag_against_number_is_counted_apart():
    new_rows = [ROWS[0], row("plt", 0.3, 3.0, simulated="diverged"), ROWS[2]]
    verdict = csv_parity.verdict(sweep_csv(CONFIG, ROWS), sweep_csv(CONFIG, new_rows))
    assert "simulated 0 (1 other text), stderr 0;" in verdict


def test_rows_on_one_side_only_are_listed():
    new_rows = [ROWS[0], ROWS[1], row("rc_tc", 0.1, 1.0)]
    verdict = csv_parity.verdict(sweep_csv(CONFIG, ROWS), sweep_csv(CONFIG, new_rows))
    _, largest, old_only, new_only, config = verdict.split("; ")
    assert largest.startswith("largest relative difference over 2 rows: analytic 0,")
    assert old_only == "rows only in old: rtc_tc 0.1"
    assert new_only == "rows only in new: rc_tc 0.1"
    assert config == "config line: identical"


def test_relative_difference_of_flags_and_nans():
    assert csv_parity.relative_difference("diverged", "1.0") is None
    assert csv_parity.relative_difference("nan", "nan") == 0.0
    assert csv_parity.relative_difference("nan", "1.0") == math.inf
    assert csv_parity.relative_difference("0.0", "1e-300") == math.inf
    assert csv_parity.relative_difference("2.0", "2.5") == 0.25


TINY_CONFIG = """kind = source
n = 3
rate = 2
p_grid = 0.1, 0.3
schemes = plt, rtc_tc, rc_tc
sim_frames = 200
seed = 5
"""


def test_a_config_file_is_compared_in_place_of_the_workloads(tmp_path, capsys):
    # one tree on both sides: one `identical` line, for the file alone
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    src = Path(__file__).resolve().parents[1] / "src"
    scratch = tmp_path / "scratch"
    assert csv_parity.main([str(src), str(src), str(scratch), "--config", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: identical\n"
    assert sorted(p.name for p in scratch.iterdir()) == [
        "config0-tiny-new.csv", "config0-tiny-old.csv", "config0-tiny.cfg"]
