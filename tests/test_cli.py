import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from rctc.cli import main
from rctc.design import load_design
from rctc.lqg import replica_lengths

RICCATI_ZERO_F = """
kind = lqg
F = 0
G = 1
K_w = 1
R = 1
S = 1
"""

TWO_STATE_PLANT = """
kind = lqg
F = 0.9, 0.1; 0.0, 0.8
G = 1, 0; 0, 1
K_w = 0.01, 0; 0, 0.01
"""

SWEEP_CFG = """
kind = source
n = 3
rate = 4
p_grid = 0.1, 0.2
schemes = no_coding, plt
sim_frames = 200
seed = 5
"""

DESIGN_CFG = """
kind = source
n = 4
rate = 5
p = 0.2
scheme = rtc_tc
seed = 8
"""

LQG_SIM_CFG = """
kind = lqg
n = 3
rate = 5
p = 0.1
scheme = no_coding
horizon = 50
seed = 3
"""

# (config line, the one error line it must get)
BAD_SETTINGS = [
    ("search_shrink = 2", "unknown config key 'search_shrink'"),
    ("rate = -1", "rate must be finite and positive, got -1.0"),
    ("rate = nan", "rate must be finite and positive, got nan"),
    ("rate = inf", "rate must be finite and positive, got inf"),
    ("noise_constant = inf", "noise_constant must be finite and positive, got inf"),
    ("divergence_bound = 0", "divergence_bound must be finite and positive, got 0.0"),
    ("divergence_bound = nan", "divergence_bound must be finite and positive, got nan"),
    ("divergence_bound = inf", "divergence_bound must be finite and positive, got inf"),
    ("min_rate = 4.5", "min_rate must lie in [0, rate = 4.0], got 4.5"),
    ("min_rate = -1", "min_rate must lie in [0, rate = 4.0], got -1.0"),
    ("p_grid =", "p_grid must list at least one value"),
    ("schemes =", "schemes must list at least one value"),
    ("rate = 5\nrate = 6", "line 5: duplicate config key 'rate'"),
    ("rho = 1.5", "rho must lie in (-1, 1) for a stationary AR(1), got 1.5"),
    ("rho = -1", "rho must lie in (-1, 1) for a stationary AR(1), got -1.0"),
    ("rho = nan", "rho must lie in (-1, 1) for a stationary AR(1), got nan"),
    ("design_coefficient = 1.5", "unknown config key 'design_coefficient'"),
    ("design_coefficient = nan", "unknown config key 'design_coefficient'"),
    ("source_variance = nan", "source_variance must be finite and positive, got nan"),
    ("source_variance = 0", "source_variance must be finite and positive, got 0.0"),
    ("source_variance = inf", "source_variance must be finite and positive, got inf"),
    ("sim_frames = 1", "sim_frames must be at least 2, got 1"),
    ("horizon = 5", "horizon must be at least 2n = 6, got 5"),
    ("seed = -1", "seed must lie in [0, 2^32), got -1"),
    ("seed = 4294967296", "seed must lie in [0, 2^32), got 4294967296"),
    ("seed = 4294967297", "seed must lie in [0, 2^32), got 4294967297"),
    ("seed = -4294967295", "seed must lie in [0, 2^32), got -4294967295"),
    ("schemes = plt, no_coding, plt", "schemes lists 'plt' more than once"),
    ("p_grid = 0.1, 0.2, 0.1", "p_grid lists 0.1 more than once"),
    ("F = nan", "F entries must be finite, got nan"),
    ("F = inf", "F entries must be finite, got inf"),
    ("G = nan", "G entries must be finite, got nan"),
    ("K_w = nan", "K_w entries must be finite, got nan"),
    ("R = -inf", "R entries must be finite, got -inf"),
    ("S = 1e400", "S entries must be finite, got inf"),
    ("kind = lqg\nquantizer_mode = realized",
     "quantizer_mode must be modeled for kind = lqg: the closed-loop simulator runs "
     "modeled quantizer noise only"),
]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRiccatiCommand:
    def test_zero_dynamics_prints_p_equals_r(self, tmp_path, capsys):
        cfg = write(tmp_path, "plant.cfg", RICCATI_ZERO_F)
        assert main(["riccati", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[out.index("P") + 1] == "1.0"
        assert out[out.index("L") + 1] == "0.0"
        assert out[out.index("R_eq") + 1] == "0.0"

    def test_non_finite_plant_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "plant.cfg", RICCATI_ZERO_F.replace("K_w = 1", "K_w = nan"))
        assert main(["riccati", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: K_w entries must be finite, got nan\n"

    @pytest.mark.parametrize("F", ["1e154", "1e200"])
    def test_overflowing_iteration_fails_in_one_line(self, tmp_path, capsys, F):
        # the first iterate's norm overflows at F = 1e154 and the iterate itself
        # at 1e200: the iteration stops there, with no numpy warning, where it
        # accepted an infinite P or ran out its budget on NaNs
        cfg = write(tmp_path, "plant.cfg", RICCATI_ZERO_F.replace("F = 0", f"F = {F}"))
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["riccati", "--config", cfg]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Riccati iteration overflowed at iterate 1\n"

    @pytest.mark.parametrize("line, message", [
        ("R = 1, 0; 0, 1\nS = 0.5", "S must be 2x2, the plant's input dimension, got 1x1"),
        ("S = 1, 0; 0, 1\nR = 1", "R must be 2x2, the plant's state dimension, got 1x1"),
    ], ids=["S", "R"])
    def test_weights_must_match_the_plant(self, tmp_path, capsys, line, message):
        # a two-input plant: a 1x1 S would broadcast across G'PG
        cfg = write(tmp_path, "plant.cfg", TWO_STATE_PLANT + line + "\n")
        assert main(["riccati", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestSweepCommand:
    def test_row_count_and_determinism(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        data1 = out1.read_bytes()
        assert data1 == out2.read_bytes()
        lines = data1.decode().splitlines()
        assert len(lines) == 3 + 2 * 2  # header block + schemes x grid

    def test_seed_flag_is_checked(self, tmp_path, capsys):
        # the override meets the same check as a config line
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--seed", "4294967297"]) == 1
        assert capsys.readouterr().err == \
            "error: seed must lie in [0, 2^32), got 4294967297\n"
        assert not out.exists()

    def test_seed_flag_changes_rows(self, tmp_path):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["sweep", "--config", cfg, "--out", str(out1)])
        main(["sweep", "--config", cfg, "--out", str(out2), "--seed", "99"])
        assert out1.read_bytes() != out2.read_bytes()


class TestDesignCommand:
    def test_writes_loadable_result(self, tmp_path, capsys):
        cfg = write(tmp_path, "design.cfg", DESIGN_CFG)
        out = tmp_path / "design.txt"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0
        result, scheme = load_design(out)
        assert scheme == "rtc_tc"
        assert result.transform.frame_length == 4
        assert np.mean(result.rates.rates) == 5.0
        assert result.predicted_lqg_cost is None

    def test_determinism(self, tmp_path):
        cfg = write(tmp_path, "design.cfg", DESIGN_CFG)
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        main(["design", "--config", cfg, "--out", str(out1)])
        main(["design", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_lqg_kind_designs_against_pilot_model(self, tmp_path):
        cfg = write(tmp_path, "design.cfg", """
kind = lqg
n = 4
rate = 5
p = 0.1
scheme = plt
seed = 6
""")
        out = tmp_path / "design.txt"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0
        result, scheme = load_design(out)
        assert scheme == "plt"
        assert result.transform.kind == "plt"

    @pytest.mark.parametrize("kind, field", [("source", "predicted_am_wmse"),
                                             ("lqg", "predicted_lqg_cost")])
    @pytest.mark.parametrize("scheme", ["no_coding", "plt", "rc_tc"])
    def test_prediction_is_the_sweep_analytic(self, tmp_path, kind, field, scheme):
        # the design file holds the design the sweep makes, so its prediction
        # is the analytic column of a modeled-mode sweep at the same (p, scheme)
        cfg = write(tmp_path, "one.cfg", f"""
kind = {kind}
n = 4
rate = 5
p_grid = 0.1
schemes = no_coding, plt, rtc_tc, rc_tc
scheme = {scheme}
sim_frames = 200
horizon = 200
seed = 6
""")
        design = tmp_path / "design.txt"
        sweep = tmp_path / "sweep.csv"
        assert main(["design", "--config", cfg, "--out", str(design)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(sweep)]) == 0
        row = next(line.split(",") for line in sweep.read_text().splitlines()[3:]
                   if line.startswith(scheme + ","))
        result, _ = load_design(design)
        assert repr(getattr(result, field)) == row[3]


class TestSimulateCommand:
    def test_trace_csv(self, tmp_path):
        cfg = write(tmp_path, "sim.cfg", LQG_SIM_CFG)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == ("step,state,quantizer_input,codevalue,availability,"
                            "reconstruction,control,cost")
        assert len(lines) == 2 + 50
        assert lines[2].startswith("0,")
        for line in lines[2:]:
            fields = line.split(",")
            assert len(fields) == 8
            # every numeric cell parses back as a plain float
            for cell in fields[:4] + fields[5:]:
                float(cell)

    def test_riccati_equation_solved_once(self, tmp_path, monkeypatch):
        # the design reads the controller solution the simulation runs with
        import rctc.harness as harness

        solved = []
        real_solution = harness.controller_solution

        def solution(*args):
            solved.append(args)
            return real_solution(*args)

        monkeypatch.setattr(harness, "controller_solution", solution)
        cfg = write(tmp_path, "sim.cfg", LQG_SIM_CFG.replace("no_coding", "rc_tc"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "trace.csv")]) == 0
        assert len(solved) == 1

    def test_horizon_flag(self, tmp_path):
        cfg = write(tmp_path, "sim.cfg", LQG_SIM_CFG)
        out = tmp_path / "trace.csv"
        main(["simulate", "--config", cfg, "--out", str(out), "--horizon", "12"])
        assert len(out.read_text().splitlines()) == 2 + 12

    @pytest.mark.parametrize("horizon", ["-5", "5"])
    def test_horizon_flag_is_checked(self, tmp_path, capsys, horizon):
        # the override meets the same check as a config line
        cfg = write(tmp_path, "sim.cfg", LQG_SIM_CFG)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--horizon", horizon]) == 1
        assert capsys.readouterr().err == \
            f"error: horizon must be at least 2n = 6, got {horizon}\n"
        assert not out.exists()

    def test_realized_mode_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "sim.cfg", LQG_SIM_CFG + "quantizer_mode = realized\n")
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: quantizer_mode must be modeled for kind = lqg: the closed-loop "
            "simulator runs modeled quantizer noise only\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed, scheme, p_grid", [
        pytest.param(1, "rtc_tc", "0.005", id="1-rtc_tc"),
        pytest.param(1, "plt", "0.005", id="1-plt"),
        pytest.param(2, "rtc_tc", "0.005", id="2-rtc_tc"),
        pytest.param(1, "rc_tc", "0.005", id="1-rc_tc"),
        # p is the second grid point, so its row seed is derived from index 1
        pytest.param(1, "plt", "0.005, 0.01", id="1-plt-second_of_two_points"),
    ])
    def test_cost_matches_one_point_sweep(self, tmp_path, capsys, seed, scheme, p_grid):
        # the trace run and the sweep run the same loop on the same stream;
        # the sweep designs rc_tc from the rtc_tc it lists, the trace run alone
        schemes = "rtc_tc, rc_tc" if scheme == "rc_tc" else scheme
        p = p_grid.split(",")[-1].strip()
        cfg = write(tmp_path, "one.cfg", f"""
kind = lqg
n = 6
rate = 8
p_grid = {p_grid}
p = {p}
schemes = {schemes}
scheme = {scheme}
horizon = 20000
seed = {seed}
""")
        trace = tmp_path / "trace.csv"
        sweep = tmp_path / "sweep.csv"
        assert main(["simulate", "--config", cfg, "--out", str(trace)]) == 0
        printed = capsys.readouterr().out.split(" cost=")[1].split()[0]
        assert main(["sweep", "--config", cfg, "--out", str(sweep)]) == 0
        [row] = [fields for fields in (line.split(",")
                                       for line in sweep.read_text().splitlines()[3:])
                 if fields[0] == scheme and float(fields[1]) == float(p)]
        assert printed == row[4]
        costs = [float(line.split(",")[-1]) for line in trace.read_text().splitlines()[2:]]
        assert len(costs) == 20000
        # summed as the simulator sums them: step by step within each replica's
        # stretch of the trace, then exactly over the replicas
        sums, start = [], 0
        for length in replica_lengths(20000, 6):
            total = 0.0
            for cost in costs[start:start + length]:
                total += cost
            sums.append(total)
            start += length
        assert math.fsum(sums) / len(costs) == float(row[4])


class TestErrors:
    def test_missing_config_mentions_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["sweep", "--config", missing, "--out", "x.csv"]) == 1
        assert missing in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "kind = source\nrate = banana\n")
        assert main(["sweep", "--config", cfg, "--out", "x.csv"]) == 1
        assert "rate" in capsys.readouterr().err

    def test_unknown_subcommand_usage_exit(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_out(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG)
        assert main(["sweep", "--config", cfg]) == 1
        assert "out" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["design_samples", "analysis_samples", "search_step",
                                     "search_shrink", "search_tol", "search_budget",
                                     "pilot_steps", "m", "C", "K_v", "b_mode"])
    def test_removed_sample_keys_rejected(self, tmp_path, capsys, key):
        # channel expectations are exact, so there is no sample count to set; the
        # design search stops by fixed rules alone; the loop variance has a
        # closed form; only scalar, fully observed plants exist; and every
        # transmitted index draws one delay, so there is no channel mode to pick
        cfg = write(tmp_path, "old.cfg", SWEEP_CFG + f"{key} = 2000\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        pytest.param(line, message, id=line.replace("\n", " then "))
        for line, message in BAD_SETTINGS])
    def test_bad_setting_rejected_before_any_row(self, tmp_path, capsys, line, message):
        # the setting replaces the config's own line for its key, so each case
        # meets its own check and not the duplicate-key one
        key = line.split()[0]
        lines = SWEEP_CFG.splitlines()
        same = [i for i, text in enumerate(lines) if text.split("=")[0].strip() == key]
        if same:
            lines[same[0]] = line
        else:
            lines.append(line)
        cfg = write(tmp_path, "bad.cfg", "\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_realized_rate_above_level_cap(self, tmp_path, capsys):
        # 2^40 codebook levels would need terabytes; the bank refuses first
        cfg = write(tmp_path, "big.cfg", SWEEP_CFG.replace("rate = 4", "rate = 40")
                    + "quantizer_mode = realized\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: quantizer 0 has rate 40: 2^40 levels exceed the cap of 65536\n")
        assert not out.exists()


def run_fresh(code: str) -> list[str]:
    """The stdout lines of `python -c code` in a fresh process that imports this checkout's rctc."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_leaves_out_scipy_signal():
    # numpy.random is loaded with the package so that the first draw of a
    # sweep pays nothing
    code = ("import sys, rctc.cli; "
            "print('scipy.signal' in sys.modules); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('numpy.random' in sys.modules)")
    assert run_fresh(code) == ["False", "[]", "True"]


def test_import_leaves_out_numpy_polynomial_and_statistics():
    # the Gauss-Legendre rule is tabulated, and statistics (which loads
    # decimal and fractions) is imported by the first codebook training
    code = ("import sys, rctc.cli; "
            "from rctc.quantizers import lloyd_max_gaussian; "
            "heavy = lambda: sorted(m for m in sys.modules "
            "if m.lstrip('_') in ('statistics', 'decimal', 'fractions') "
            "or m.startswith('numpy.polynomial')); "
            "print(heavy()); "
            "lloyd_max_gaussian(8); "
            "print('statistics' in sys.modules)")
    assert run_fresh(code) == ["[]", "True"]


def test_no_scipy_module_is_loaded_by_a_path_and_a_sweep():
    # numpy is the one runtime dependency: scipy is a test oracle only
    code = ("import sys, rctc.cli; "
            "from rctc.harness import ExperimentConfig, run_experiment; "
            "from rctc.sources import GaussMarkovModel, sample_path; "
            "sample_path(GaussMarkovModel((0.5, -0.3), 1.0), 100, seed=1); "
            "run_experiment(ExperimentConfig.from_text("
            "'kind = source\\nn = 3\\np_grid = 0.1\\nsim_frames = 200\\n')); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_fresh(code) == ["[]"]
