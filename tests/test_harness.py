import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rctc import harness
from rctc.channel import ChannelModel, availability_marginals
from rctc.design import DesignResults, pack_parameters
from rctc.harness import (_CONFIG_KEYS, SCHEMES, ConfigError, ExperimentConfig,
                          _experiment_context, _lqg_context, derive_seed, design_schemes,
                          rows_to_csv, run_experiment)
from rctc.lqg import simulate_closed_loop
from sim_reference import reference_loop
from source_reference import stack_source_context

SOURCE_CFG = """
# tiny source sweep
kind = source
n = 3
rate = 4
delta = 0.05
ts = 0.0125
p_grid = 0.1
schemes = no_coding, plt, rtc_tc
sim_frames = 400
seed = 9
"""

LQG_CFG = """
kind = lqg
n = 4
rate = 5
p_grid = 0.05
schemes = no_coding, rtc_tc
horizon = 4000
seed = 9
"""


class TestConfigParsing:
    def test_defaults(self):
        config = ExperimentConfig.from_text("kind = source")
        assert config.n == 6
        assert config.ts == pytest.approx(config.delta / 4)
        assert config.p == config.p_grid[0]
        assert config.quantizer_mode == "modeled"

    def test_comments_and_spacing(self):
        config = ExperimentConfig.from_text(
            "kind = lqg  # inline comment\n\n# full-line comment\nrate=7\n")
        assert config.kind == "lqg"
        assert config.rate == 7.0

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentConfig.from_text("kind = source\nbogus = 1")

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigError, match="rate"):
            ExperimentConfig.from_text("kind = source\nrate = banana")

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig.from_text("kind = nonsense")

    def test_p_range_check(self):
        with pytest.raises(ConfigError, match="p_grid"):
            ExperimentConfig.from_text("kind = source\np_grid = 0.5, 1.5")

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            ExperimentConfig.from_text("kind = source\nschemes = plt, magic")

    def test_matrix_parsing(self):
        config = ExperimentConfig.from_text("kind = lqg\nF = 0.9, 0.1; 0.0, 0.8")
        assert config.F.shape == (2, 2)
        assert config.F[0, 1] == 0.1

    def test_missing_line_format(self):
        with pytest.raises(ConfigError, match="key = value"):
            ExperimentConfig.from_text("kind = source\njust some words")

    def test_echo_is_stable(self):
        a = ExperimentConfig.from_text(SOURCE_CFG).echo()
        b = ExperimentConfig.from_text(SOURCE_CFG).echo()
        assert a == b

    @pytest.mark.parametrize("kind", ["source", "lqg"])
    @pytest.mark.parametrize("setting", ["b_mode = montecarlo", "search_budget = 400"])
    def test_retired_keys_are_unknown_for_every_kind(self, kind, setting):
        # every transmitted index draws one delay and a design stops by its
        # L-BFGS rules alone: neither kind takes a channel mode or a budget,
        # not even one set to the value that used to be the default
        key = setting.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            ExperimentConfig.from_text(f"kind = {kind}\n{setting}")

    @pytest.mark.parametrize("text", [SOURCE_CFG, LQG_CFG])
    def test_echo_names_no_retired_key(self, text):
        # the CSV's config line echoes every setting its kind reads, defaults included
        echo = ExperimentConfig.from_text(text).echo()
        assert "seed=9" in echo.split("; ")
        assert "b_mode" not in echo and "search_budget" not in echo

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = []
        for prefix in ("Common:", "Source kind:", "LQG kind:"):
            paragraph = readme.split("\n" + prefix, 1)[1].split("\n\n", 1)[0]
            listed += re.findall(r"`([^`]+)`", paragraph)
        assert sorted(listed) == sorted(_CONFIG_KEYS)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "sim", 0, "plt") == derive_seed(1, "sim", 0, "plt")

    def test_distinct_tags(self):
        seeds = {derive_seed(1, "sim", i, s) for i in range(3)
                 for s in ("plt", "rc_tc")}
        assert len(seeds) == 6

    def test_trailing_zero_tags_are_dropped_and_no_two_draws_share_a_seed(self, monkeypatch):
        for master in (0, 9, 2 ** 32 - 1):
            assert derive_seed(master, "sim") == derive_seed(master, "sim", 0)
        handed, points = [], []
        real_rng, real_simulate = np.random.default_rng, harness.simulate_closed_loop

        def rng(seed=None):
            handed.append(seed)
            return real_rng(seed)

        def simulate(*args, **kwargs):
            points.append(args[7])  # the point's seed
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", rng)
        run_experiment(ExperimentConfig.from_text(SOURCE_CFG.replace("p_grid = 0.1",
                                                                     "p_grid = 0.1, 0.3")))
        # the frames, the noise, and one stream of delays read at both points
        frames, noise, channel, channel_again = handed
        assert channel_again == channel
        monkeypatch.undo()
        monkeypatch.setattr(harness, "simulate_closed_loop", simulate)
        run_experiment(ExperimentConfig.from_text(LQG_CFG.replace("p_grid = 0.05",
                                                                  "p_grid = 0.05, 0.1, 0.2")))
        assert len(points) == 3
        seeds = [frames, noise, channel, *points]
        assert len(set(seeds)) == len(seeds), seeds


class TestSourceExperiment:
    def test_rows_and_determinism(self):
        config = ExperimentConfig.from_text(SOURCE_CFG)
        rows = run_experiment(config)
        assert len(rows) == 3
        assert [r.scheme for r in rows] == sorted(r.scheme for r in rows)
        for row in rows:
            assert row.analytic > 0
            assert row.stderr >= 0
            assert row.mode == "montecarlo/modeled"
            assert row.N == 3 and row.r == 4.0
        again = run_experiment(ExperimentConfig.from_text(SOURCE_CFG))
        assert rows_to_csv(rows, config) == rows_to_csv(again, config)

    def test_lossless_point_matches_noise_floor(self):
        cfg = """
kind = source
n = 3
rate = 5
p_grid = 0.00000000000001
schemes = plt
sim_frames = 3000
seed = 4
"""
        # essentially lossless: simulated AM-MSE sits at the quantization floor
        config = ExperimentConfig.from_text(cfg)
        row = run_experiment(config)[0]
        assert row.simulated == pytest.approx(row.analytic, abs=4 * row.stderr)

    @pytest.mark.parametrize("modes", ["", "quantizer_mode = realized\n"])
    def test_simulated_column_matches_stack_reference(self, monkeypatch, modes):
        config = ExperimentConfig.from_text(f"""
kind = source
n = 4
rate = 5
p_grid = 0.1, 0.3
sim_frames = 2000
seed = 21
{modes}""")
        rows = run_experiment(config)
        monkeypatch.setattr("rctc.harness._experiment_context", stack_source_context)
        reference = run_experiment(config)
        assert len(rows) == len(reference) == 8
        for row, ref in zip(rows, reference):
            assert (row.scheme, row.p, row.analytic) == (ref.scheme, ref.p, ref.analytic)
            assert row.simulated == pytest.approx(ref.simulated, rel=1e-13, abs=0)
            assert row.stderr == pytest.approx(ref.stderr, rel=1e-13, abs=0)

    @pytest.mark.parametrize("modes", ["", "quantizer_mode = realized\n"])
    def test_channel_point_draws_are_shared_by_its_rows(self, monkeypatch, modes):
        # common random numbers: one draw of frames and quantizer noise per
        # sweep and one of bits per channel point, coded by every row and
        # written by none of them
        config = ExperimentConfig.from_text(f"""
kind = source
n = 4
rate = 5
p_grid = 0.1, 0.3
sim_frames = 2000
seed = 21
{modes}""")
        draws, encoded = [], []
        real_bits, real_encode = harness.sample_availability_bits, harness.encode_batch
        real_context = harness._experiment_context

        def bits(model, count, seed, **kwargs):
            result = real_bits(model, count, seed, **kwargs)
            draws.append((model.violation_probability, seed, result, result.copy()))
            return result

        def encode(frames, transform, bank, noise, **kwargs):
            encoded.append((frames, frames.copy(), noise, None if noise is None else noise.copy()))
            return real_encode(frames, transform, bank, noise, **kwargs)

        def context(cfg):
            K_x, evaluate, lqg_cost = real_context(cfg)

            def checked(*args):
                columns = evaluate(*args)
                for frames, drawn_frames, noise, drawn_noise in encoded:
                    assert np.array_equal(frames, drawn_frames)
                    assert np.array_equal(noise, drawn_noise)
                _, _, shared_bits, drawn_bits = draws[-1]
                assert np.array_equal(shared_bits, drawn_bits)
                return columns

            return K_x, checked, lqg_cost

        monkeypatch.setattr(harness, "sample_availability_bits", bits)
        monkeypatch.setattr(harness, "encode_batch", encode)
        monkeypatch.setattr(harness, "_experiment_context", context)
        rows = run_experiment(config)
        assert len(rows) == 8 and len(encoded) == 8
        assert [p for p, _, _, _ in draws] == pytest.approx([0.1, 0.3])
        assert draws[0][1] == draws[1][1]  # one stream of delays at every point
        for _, frames, _, noise in encoded[1:]:
            assert np.array_equal(frames, encoded[0][1])
            if modes:  # realized rows quantize and draw no noise
                assert noise is None
            else:
                assert np.array_equal(noise, encoded[0][3])
        # every row's seed column names the one seed all its draws come from
        assert {row.seed for row in rows} == {derive_seed(21, "sim")}

    def test_a_bit_lost_at_p_is_lost_at_every_larger_p(self, monkeypatch):
        config = ExperimentConfig.from_text(SOURCE_CFG.replace("p_grid = 0.1",
                                                               "p_grid = 0.2, 0.05, 0.1, 0.4"))
        drawn = {}
        real_bits = harness.sample_availability_bits

        def bits(model, *args, **kwargs):
            result = real_bits(model, *args, **kwargs)
            drawn[model.violation_probability] = result.copy()
            return result

        monkeypatch.setattr(harness, "sample_availability_bits", bits)
        run_experiment(config)
        by_p = [drawn[p] for p in sorted(drawn)]
        assert len(by_p) == 4
        for smaller, larger in zip(by_p, by_p[1:]):
            assert np.all(larger <= smaller)
            assert np.any(larger < smaller)

    @pytest.mark.parametrize("modes", ["", "quantizer_mode = realized\n"])
    def test_analytic_column_is_computed_once_per_bank(self, monkeypatch, modes):
        # a modeled row's bank is the one its design priced, so the row reads
        # the design's predicted_am_wmse; a realized bank is priced by the row
        designs, calls = [], []
        real_design, real_am_wmse = harness.design_code, harness.am_wmse

        def design(*args, **kwargs):
            results = real_design(*args, **kwargs)
            designs.extend(results)
            return results

        def am_wmse(*args, **kwargs):
            calls.append(args)
            return real_am_wmse(*args, **kwargs)

        monkeypatch.setattr(harness, "design_code", design)
        monkeypatch.setattr(harness, "am_wmse", am_wmse)
        config = ExperimentConfig.from_text(SOURCE_CFG.replace(
            "schemes = no_coding, plt, rtc_tc", "schemes = no_coding, plt, rtc_tc, rc_tc") + modes)
        rows = run_experiment(config)
        assert len(rows) == len(designs) == 4
        by_structure = {d.transform.kind: d for d in designs}
        if modes:
            assert len(calls) == 4
            return
        assert calls == []
        for row in rows:
            result = by_structure[harness.SCHEME_STRUCTURES[row.scheme]]
            assert row.analytic == result.predicted_am_wmse, row

    @pytest.mark.parametrize("modes", ["", "quantizer_mode = realized\n"])
    def test_rows_share_no_state(self, monkeypatch, modes):
        # the no_coding row decodes through the diagonal alone, so lanes left
        # over from the full-Ahat rc_tc row before it would show in its numbers
        def no_coding_row(schemes):
            config = ExperimentConfig.from_text(
                SOURCE_CFG.replace("schemes = no_coding, plt, rtc_tc", f"schemes = {schemes}")
                + modes)
            return next(row for row in run_experiment(config) if row.scheme == "no_coding")

        alone = no_coding_row("no_coding")
        assert no_coding_row("rc_tc, no_coding").to_csv() == alone.to_csv()
        # and a first row does not read the arrays before it has written them
        monkeypatch.setattr("rctc.harness._experiment_context", stack_source_context)
        assert alone.simulated == pytest.approx(no_coding_row("no_coding").simulated,
                                                rel=1e-13, abs=0)

    @pytest.mark.parametrize("modes", ["", "quantizer_mode = realized\n"])
    def test_rows_reuse_the_frame_arrays(self, modes):
        # tracemalloc counts numpy's data buffers: after the first row, no row
        # may allocate as much as one (frames, N) float array
        frames, n = 20000, 6
        bound = frames * n * 8
        config = ExperimentConfig.from_text(f"""
kind = source
n = {n}
p_grid = 0.2
sim_frames = {frames}
seed = 3
{modes}""")
        cm = ChannelModel.from_violation_probability(0.2, config.delta, config.ts, n)
        marginals = availability_marginals(cm)
        tracemalloc.start()
        try:
            context = _experiment_context(config)
            assert tracemalloc.get_traced_memory()[1] < bound  # no arrays before a row
            designs = design_schemes(config, [marginals], config.schemes, context)[0]
            peaks = []
            for scheme, result in designs.items():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                context[1]([result], cm, derive_seed(3, "sim"))
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        # the first row makes the sweep's arrays: x, codevalues, the bits and,
        # in modeled mode, the noise lanes; the frame draws go to codevalues
        # first and get no array of their own
        arrays = 2 if modes else 3
        assert arrays * bound < peaks[0] < (arrays + 2) * bound, peaks
        assert max(peaks[1:]) < bound, peaks

    def test_realized_quantizer_mode(self):
        cfg = SOURCE_CFG + "quantizer_mode = realized\n"
        rows = run_experiment(ExperimentConfig.from_text(cfg))
        for row in rows:
            assert row.mode.endswith("/realized")
            assert abs(row.simulated - row.analytic) < 6 * row.stderr


class TestSweepDesign:
    @pytest.mark.parametrize("kind", ["source", "lqg"])
    def test_one_design_call_per_scheme_covers_every_point(self, monkeypatch, kind):
        # the whole sweep is designed before its first row is evaluated, in
        # one design_code call per scheme that carries every point's problem
        # in p_grid order; rc_tc starts from each point's rtc_tc encoder
        events, calls = [], []
        real_design = harness.design_code

        def design(problems, initial_points=None):
            events.append("design")
            calls.append((problems, initial_points, real_design(problems, initial_points)))
            return calls[-1][2]

        row_call = "encode_batch" if kind == "source" else "simulate_closed_loop"
        real_row = getattr(harness, row_call)

        def row(*args, **kwargs):
            events.append("row")
            return real_row(*args, **kwargs)

        monkeypatch.setattr(harness, "design_code", design)
        monkeypatch.setattr(harness, row_call, row)
        text = re.sub("schemes = .*", "", SOURCE_CFG if kind == "source" else LQG_CFG)
        config = ExperimentConfig.from_text(re.sub("p_grid = .*", "p_grid = 0.05, 0.1, 0.3", text))
        assert config.schemes == SCHEMES
        rows = run_experiment(config)
        assert len(rows) == 12
        assert events[:4] == ["design"] * 4 and "design" not in events[4:]
        assert [problems[0].structure for problems, _, _ in calls] == [
            harness.SCHEME_STRUCTURES[scheme] for scheme in SCHEMES]
        for problems, _, _ in calls:
            assert len(problems) == 3
            for problem, p in zip(problems, config.p_grid):
                cm = ChannelModel.from_violation_probability(p, config.delta, config.ts, config.n)
                assert np.array_equal(problem.marginals, availability_marginals(cm))
        _, _, rtc_tc = calls[2]
        _, starts, _ = calls[3]
        assert [calls[k][1] for k in range(3)] == [None] * 3
        for start, result in zip(starts, rtc_tc):
            assert np.array_equal(start, pack_parameters(result.transform, "full"))

    def test_modeled_rows_code_with_the_bank_their_design_priced(self, monkeypatch):
        # one modeled bank per design: the one it was priced with, not a copy
        banks, designs = [], []
        real_encode, real_design = harness.encode_batch, harness.design_code

        def encode(frames, transform, bank, *args, **kwargs):
            banks.append(bank)
            return real_encode(frames, transform, bank, *args, **kwargs)

        def design(*args, **kwargs):
            results = real_design(*args, **kwargs)
            designs.extend(results)
            return results

        monkeypatch.setattr(harness, "encode_batch", encode)
        monkeypatch.setattr(harness, "design_code", design)
        run_experiment(ExperimentConfig.from_text(SOURCE_CFG))
        assert len(banks) == len(designs) == 3
        assert {id(bank) for bank in banks} == {id(result.bank) for result in designs}


class TestLqgExperiment:
    def test_rows(self):
        config = ExperimentConfig.from_text(LQG_CFG)
        rows = run_experiment(config)
        assert len(rows) == 2
        base = np.trace(np.atleast_2d(config.K_w))
        for row in rows:
            assert row.analytic > base  # cost exceeds tr(P K_w) > tr(K_w) here
            assert isinstance(row.simulated, float)

    def test_channel_point_seed_is_shared_by_its_rows(self, monkeypatch):
        # common random numbers: every scheme at a p runs on the point's seed,
        # which the seed column names, in one simulator call that carries all
        # of the point's designs; the points' seeds differ
        seen = []
        real_sim = harness.simulate_closed_loop

        def sim(*args, **kwargs):
            seen.append((args[3], args[4], args[7]))
            return real_sim(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate_closed_loop", sim)
        config = ExperimentConfig.from_text(LQG_CFG.replace("p_grid = 0.05",
                                                            "p_grid = 0.05, 0.1"))
        rows = run_experiment(config)
        seeds = {pi: derive_seed(9, "sim", pi) for pi in range(2)}
        assert seeds[0] != seeds[1]
        assert len(rows) == 4 and len(seen) == 2
        for row in rows:
            assert row.seed == seeds[config.p_grid.index(row.p)]
        assert [seed for _, _, seed in seen] == [seeds[0], seeds[1]]
        for pi, (transforms, banks, _) in enumerate(seen):
            p = config.p_grid[pi]
            cm = ChannelModel.from_violation_probability(p, config.delta, config.ts, config.n)
            designs = design_schemes(config, [availability_marginals(cm)], config.schemes)[0]
            assert len(transforms) == len(banks) == len(config.schemes)
            for scheme, transform, bank in zip(config.schemes, transforms, banks):
                assert np.array_equal(transform.encoder_coeffs,
                                      designs[scheme].transform.encoder_coeffs)
                assert np.array_equal(bank.noise_variances, designs[scheme].bank.noise_variances)

    def test_zero_dynamics_plant_designs_every_scheme(self):
        # F = 0 gives P = R and R_eq = 0: the cost is tr(P K_w) = K_w whatever
        # the code, and every scheme still designs
        config = ExperimentConfig.from_text(
            LQG_CFG.replace("schemes = no_coding, rtc_tc", f"schemes = {', '.join(SCHEMES)}")
            .replace("p_grid = 0.05", "p_grid = 0.1") + "F = 0\n")
        rows = run_experiment(config)
        assert [row.scheme for row in rows] == list(SCHEMES)
        for row in rows:
            assert row.mode == "montecarlo/modeled", row
            assert row.analytic == config.K_w[0, 0]

    def test_lqg_cost_is_base_plus_r_eq_times_am_wmse(self):
        # predicted_am_wmse is the plain AM-MSE; R_eq weights it only in the cost
        config = ExperimentConfig.from_text(LQG_CFG)
        plant, _, solution, _ = _lqg_context(config)
        base = float(np.trace(solution.P @ plant.K_w))
        r_eq = float(solution.R_eq[0, 0])
        for p in (0.05, 0.2):
            cm = ChannelModel.from_violation_probability(p, config.delta, config.ts, config.n)
            for scheme, result in design_schemes(config, [availability_marginals(cm)],
                                                 SCHEMES)[0].items():
                assert result.predicted_lqg_cost == base + r_eq * result.predicted_am_wmse, \
                    (p, scheme)

    def test_analytic_is_the_designs_predicted_cost(self, monkeypatch):
        # the row's bank is the modeled one its design was priced with, so
        # the cost is computed once per design and the row reads it
        designs, calls = [], []
        real_design, real_cost = harness.design_code, harness.analytic_lqg_cost

        def design(*args, **kwargs):
            results = real_design(*args, **kwargs)
            designs.extend(results)
            return results

        def cost(*args, **kwargs):
            calls.append(args)
            return real_cost(*args, **kwargs)

        monkeypatch.setattr(harness, "design_code", design)
        monkeypatch.setattr(harness, "analytic_lqg_cost", cost)
        config = ExperimentConfig.from_text(LQG_CFG.replace("schemes = no_coding, rtc_tc",
                                                            "schemes = no_coding, rc_tc"))
        rows = run_experiment(config)
        assert len(designs) == len(calls) == 3  # rtc_tc is designed to start rc_tc
        by_structure = {d.transform.kind: d for d in designs}
        for row in rows:
            result = by_structure[harness.SCHEME_STRUCTURES[row.scheme]]
            assert row.analytic == result.predicted_lqg_cost, row

    def test_divergence_marked(self):
        cfg = """
kind = lqg
n = 3
rate = 5
p_grid = 0.999
schemes = no_coding
horizon = 5000
divergence_bound = 1000
seed = 2
"""
        rows = run_experiment(ExperimentConfig.from_text(cfg))
        assert rows[0].simulated == "diverged"
        # a stderr is reported only where the variance it estimates is finite
        assert math.isnan(rows[0].stderr)
        assert rows[0].to_csv().split(",")[5] == "nan"

    @pytest.mark.parametrize("plant", ["F = 0.9, 0.1; 0, 0.8\nG = 1; 1\nK_w = 1, 0; 0, 1\n"
                                       "R = 1, 0; 0, 1",
                                       "G = 0.05, 0.05\nS = 0.01, 0; 0, 0.01"],
                             ids=["two states", "two inputs"])
    def test_vector_plant_rejected(self, plant):
        config = ExperimentConfig.from_text(LQG_CFG + plant)
        with pytest.raises(ConfigError, match="F and G must be scalar"):
            run_experiment(config)

    def test_stderr_shrinks_with_horizon(self):
        base = ExperimentConfig.from_text(LQG_CFG.replace("horizon = 4000",
                                                          "horizon = 80000"))
        double = ExperimentConfig.from_text(LQG_CFG.replace("horizon = 4000",
                                                            "horizon = 160000"))
        row1 = run_experiment(base)[0]
        row2 = run_experiment(double)[0]
        ratio = row2.stderr / row1.stderr
        assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.25)

    def test_design_failure_becomes_flagged_row(self, monkeypatch):
        import rctc.harness as harness

        starts = {}

        def explode(problems, initial_points=None):
            structure = problems[0].structure
            starts[structure] = initial_points
            if structure == "toeplitz":
                return DesignResults(ValueError("synthetic design failure") for _ in problems)
            return real_design(problems, initial_points)

        real_design = harness.design_code
        monkeypatch.setattr(harness, "design_code", explode)
        config = ExperimentConfig.from_text(LQG_CFG.replace("schemes = no_coding, rtc_tc",
                                                            "schemes = no_coding, rtc_tc, rc_tc"))
        rows = run_experiment(config)
        failed = [r for r in rows if r.scheme == "rtc_tc"]
        assert failed[0].simulated == "design_failed"
        assert np.isnan(failed[0].analytic)
        assert "ValueError" in failed[0].mode
        ok = [r for r in rows if r.scheme == "no_coding"]
        assert isinstance(ok[0].simulated, float)
        # rc_tc has no rtc_tc encoder to start from, so it starts cold
        assert starts["full"] == [None]
        cold = [r for r in rows if r.scheme == "rc_tc"]
        assert isinstance(cold[0].simulated, float)

    def test_rc_tc_row_does_not_depend_on_scheme_order(self):
        # rc_tc always starts from the rtc_tc encoder, designed for it when not listed
        rows = set()
        for schemes in ("rtc_tc, rc_tc", "rc_tc, rtc_tc", "rc_tc"):
            config = ExperimentConfig.from_text(
                SOURCE_CFG.replace("n = 3", "n = 6").replace("seed = 9", "seed = 1234")
                .replace("schemes = no_coding, plt, rtc_tc", f"schemes = {schemes}"))
            rows |= {row.to_csv() for row in run_experiment(config)
                     if row.scheme == "rc_tc"}
        assert len(rows) == 1, rows


class TestClosedLoopCalibration:
    """The replica simulator pooled over seeds, so that no single seed can pass by luck."""

    SEEDS = range(1, 9)

    def test_pooled_match_at_criterion_9_point(self):
        # criterion 9 part 1 at p = 0.005: with the design model of the loop's
        # own pole the analytic column is the loop cost within a fraction of
        # one pooled stderr (at the old coefficient 0.8677 about 8 apart)
        rows = {}
        for seed in self.SEEDS:
            config = ExperimentConfig.from_text(f"""
kind = lqg
n = 8
rate = 8
delta = 0.05
p_grid = 0.005
schemes = plt, rtc_tc
horizon = 1000000
seed = {seed}
""")
            for row in run_experiment(config):
                rows.setdefault(row.scheme, []).append(row)
        for scheme, runs in rows.items():
            assert len({row.analytic for row in runs}) == 1, scheme
            pooled = np.mean([row.simulated for row in runs])
            pooled_se = math.sqrt(sum(row.stderr ** 2 for row in runs)) / len(runs)
            assert abs(pooled - runs[0].analytic) <= 3 * pooled_se, \
                (scheme, pooled, runs[0].analytic, pooled_se)

    def test_low_rate_match_at_criterion_9_points(self):
        # criterion 9 part 1 at r = 2: coarse quantization with small losses,
        # where the analytic cost holds and the simulated column, the LQG cost
        # R x^2 + S u^2, must sit within 3 stderr of it on every row
        config = ExperimentConfig.from_text("""
kind = lqg
n = 8
rate = 2
delta = 0.05
p_grid = 0.002, 0.005
schemes = no_coding, plt, rtc_tc, rc_tc
horizon = 1000000
seed = 20240601
""")
        rows = run_experiment(config)
        assert len(rows) == 8
        for row in rows:
            assert abs(row.simulated - row.analytic) <= 3 * row.stderr, \
                (row.scheme, row.p, row.analytic, row.simulated, row.stderr)

    def test_replicas_agree_with_one_long_run(self):
        # at p = 0.2 the analytic column understates the loop cost, so the
        # check is against the plain-float loop run as one long replica, on
        # seeds of its own: REPLICAS short runs from the stationary start of
        # the ideal loop must estimate the same cost
        config = ExperimentConfig.from_text(LQG_CFG.replace("p_grid = 0.05", "p_grid = 0.2")
                                            .replace("horizon = 4000", "horizon = 50000"))
        plant, weights, solution, _ = _lqg_context(config)
        cm = ChannelModel.from_violation_probability(0.2, config.delta, config.ts, config.n)
        result = design_schemes(config, [availability_marginals(cm)], ["rtc_tc"])[0]["rtc_tc"]
        bank = result.bank
        sims, stderrs, long_runs = [], [], []
        for seed in self.SEEDS:
            sim, = simulate_closed_loop(plant, weights, solution, [result.transform], [bank],
                                        cm, config.horizon, seed)
            sims.append(sim.empirical_cost)
            stderrs.append(sim.standard_error)
            totals, steps, diverged = reference_loop(
                plant, weights, solution, result.transform, bank, cm, config.horizon,
                1000 + seed, replicas=1)
            assert not sim.diverged and not diverged
            long_runs.append(totals[0] / steps[0])
        k = len(self.SEEDS)
        se_sims = math.sqrt(sum(se ** 2 for se in stderrs)) / k
        se_long = np.std(long_runs, ddof=1) / math.sqrt(k)
        gap = np.mean(sims) - np.mean(long_runs)
        assert abs(gap) <= 3 * math.hypot(se_sims, se_long), (gap, se_sims, se_long)


class TestCsv:
    def test_schema(self):
        config = ExperimentConfig.from_text(SOURCE_CFG)
        rows = run_experiment(config)
        text = rows_to_csv(rows, config)
        lines = text.splitlines()
        assert lines[0] == "# rctc sweep csv v1"
        assert lines[1].startswith("# config: ")
        assert lines[2] == "scheme,p,lambda,analytic,simulated,stderr,seed,mode,c,N,r"
        assert len(lines) == 3 + len(rows)
        for line in lines[3:]:
            assert len(line.split(",")) == 11

    @pytest.mark.parametrize("text,read", [
        (SOURCE_CFG, {"rho", "source_variance", "sim_frames"}),
        (LQG_CFG, {"F", "G", "K_w", "R", "S", "horizon", "divergence_bound"}),
    ], ids=["source", "lqg"])
    def test_csv_reads_as_the_sweep_ran(self, text, read):
        # the config line echoes the settings the kind reads and no other,
        # and the rows come point by point in p_grid order, each point's
        # schemes in SCHEMES order, whatever order the config lists them in
        shared = {"kind", "n", "rate", "delta", "ts", "p_grid", "schemes", "quantizer_mode",
                  "seed", "noise_constant", "min_rate"}
        text = re.sub(r"(?m)^schemes = .*$", "schemes = rc_tc, rtc_tc, plt, no_coding", text)
        text = re.sub(r"(?m)^p_grid = .*$", "p_grid = 0.2, 0.1", text)
        config = ExperimentConfig.from_text(text)
        rows = run_experiment(config)
        lines = rows_to_csv(rows, config).splitlines()
        echoed = [part.split("=")[0] for part in lines[1][len("# config: "):].split("; ")]
        assert echoed == sorted(shared | read)
        assert [(row.p, row.scheme) for row in rows] == [(p, s) for p in (0.2, 0.1)
                                                         for s in SCHEMES]
