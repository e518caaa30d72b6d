import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rctc.design as design
from rctc.channel import ChannelModel, availability_marginals
from rctc.codec import CausalTransform, plt_design, quantizer_input_variances
from rctc.design import (DesignProblem, DesignResult, DesignResults, SearchConfig,
                         design_code, effective_variances, hooke_jeeves, load_design,
                         pack_parameters, save_design, unpack_parameters)
from rctc.harness import ExperimentConfig, _lqg_context
from rctc.lqg import am_wmse
from rctc.quantizers import QuantizerBank, allocate_rates
from rctc.sources import ar1_covariance

from design_reference import lbfgs, objective_of, reference_search


class TestHookeJeeves:
    def test_quadratic_minimum(self):
        res = hooke_jeeves(lambda x: (x[0] - 3.0) ** 2, np.zeros(1),
                           SearchConfig(initial_step=1.0, step_tolerance=1e-8))
        assert abs(res.x[0] - 3.0) < 1e-6
        assert res.converged

    def test_start_at_minimum(self):
        res = hooke_jeeves(lambda x: float(x @ x), np.zeros(3),
                           SearchConfig(initial_step=0.5))
        assert np.array_equal(res.x, np.zeros(3))
        assert res.history == [0.0]

    def test_descent_on_bowl(self):
        def bowl(x):
            return (x[0] - 1.0) ** 2 + 10.0 * (x[1] - x[0] ** 2) ** 2

        res = hooke_jeeves(bowl, np.zeros(2), SearchConfig())
        assert res.value < bowl(np.zeros(2))
        assert all(b <= a for a, b in zip(res.history, res.history[1:]))

    def test_budget_exhaustion(self):
        res = hooke_jeeves(lambda x: float(x @ x), np.full(8, 10.0),
                           SearchConfig(max_evaluations=20))
        assert not res.converged
        assert res.evaluations <= 20

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError):
            hooke_jeeves(lambda x: float("nan"), np.zeros(2))

    def test_nonfinite_values_treated_as_rejection(self):
        def partial(x):
            return float(x @ x) if abs(x[0]) < 2 else float("inf")

        res = hooke_jeeves(partial, np.array([1.5, 0.5]), SearchConfig(initial_step=1.0))
        assert np.isfinite(res.value)
        assert res.value <= partial(np.array([1.5, 0.5]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(shrink_factor=1.5)
        with pytest.raises(ValueError):
            SearchConfig(initial_step=-1.0)


def rosenbrock(x):
    a, b = x
    return ((1 - a) ** 2 + 100 * (b - a * a) ** 2,
            np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)]))


class TestLbfgs:
    def test_convex_quadratic(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(6, 6))
        Q, b = M @ M.T + 0.1 * np.eye(6), rng.normal(size=6)
        x_star = np.linalg.solve(Q, b)
        f_star = -0.5 * b @ x_star
        x, f, cap_reached = lbfgs(lambda x: (0.5 * x @ Q @ x - b @ x, Q @ x - b), np.zeros(6))
        assert not cap_reached
        assert f <= f_star + 1e-12 * abs(f_star)
        assert_allclose(x, x_star, rtol=0, atol=1e-6)

    def test_rosenbrock(self):
        x, f, cap_reached = lbfgs(rosenbrock, np.array([-1.2, 1.0]))
        assert not cap_reached
        assert f < 1e-15
        assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-7)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(design, "MAX_ITERATIONS", 3)
        x0 = np.array([-1.2, 1.0])
        x, f, cap_reached = lbfgs(rosenbrock, x0)
        assert cap_reached
        assert f == rosenbrock(x)[0] < rosenbrock(x0)[0]

    def test_stationary_start_is_kept(self):
        calls = []

        def bowl(x):
            calls.append(x.copy())
            return float(x @ x), 2 * x

        x, f, cap_reached = lbfgs(bowl, np.zeros(3))
        assert np.array_equal(x, np.zeros(3)) and f == 0.0 and not cap_reached
        assert len(calls) == 1


class TestParameterPacking:
    def test_round_trip_full(self):
        rng = np.random.default_rng(0)
        coeffs = np.zeros((4, 4))
        dec = np.zeros((4, 4))
        for j in range(1, 4):
            for i in range(j):
                coeffs[j, i] = rng.normal()
                dec[j, i] = rng.normal()
        t = CausalTransform("full", 4, coeffs, dec)
        params = pack_parameters(t, "full")
        assert params.size == (4 * 4 - 4) // 2
        dec_params = pack_parameters(CausalTransform("full", 4, dec, dec), "full")
        back = unpack_parameters(params, dec_params, "full", 4)
        assert np.array_equal(back.encoder_coeffs, t.encoder_coeffs)
        assert np.array_equal(back.decoder_coeffs, t.decoder_coeffs)

    def test_round_trip_toeplitz(self):
        t = unpack_parameters([0.5, 0.2, 0.1], [0.4, 0.3, 0.0], "toeplitz", 4)
        params = pack_parameters(t, "toeplitz")
        assert params.size == 4 - 1
        back = unpack_parameters(params, [0.4, 0.3, 0.0], "toeplitz", 4)
        assert np.array_equal(back.encoder_coeffs, t.encoder_coeffs)
        assert np.array_equal(back.decoder_coeffs, t.decoder_coeffs)

    def test_toeplitz_projection_averages_lags(self):
        K = ar1_covariance(0.9, 1.0, 4)
        t, _ = plt_design(K)  # AR(1) predictor happens to be exactly toeplitz
        params = pack_parameters(t, "toeplitz")
        assert_allclose(params, [0.9, 0.81, 0.729], atol=1e-12)

    def test_parameter_counts(self):
        P = availability_marginals(ChannelModel(20.0, 0.05, 0.0125, 6))
        K = ar1_covariance(0.9, 1.0, 6)
        full = DesignProblem(K, P, 5.0, "full")
        toe = DesignProblem(K, P, 5.0, "toeplitz")
        assert full.parameter_count == (6 * 6 - 6) // 2
        assert toe.parameter_count == 6 - 1


class TestEffectiveVariances:
    def lossless_marginals(self, n):
        return availability_marginals(ChannelModel(30 / 0.05, 0.05, 0.0125, n))

    def test_lossless_plt_recovers_prediction_variances(self):
        n = 5
        K = ar1_covariance(0.9, 1.0, n)
        t, d = plt_design(K)
        assert_allclose(effective_variances(t, self.lossless_marginals(n), K), d,
                        rtol=1e-10)

    def test_lossless_identity_recovers_source_diagonal(self):
        n = 4
        K = ar1_covariance(0.8, 3.0, n)
        t = CausalTransform.identity(n)
        assert_allclose(effective_variances(t, self.lossless_marginals(n), K),
                        np.diag(K), rtol=1e-10)

    def test_hand_case_single_lossy_pattern(self):
        # one availability pattern: own bits arrive, the cross bit is lost
        a = 0.9
        K = ar1_covariance(a, 1.0, 2)
        t, d = plt_design(K)
        bits = np.array([[1.0, 0.0], [0.0, 1.0]])
        # W = (H inv(A))' (H inv(A)) with H = diag(1, 1): W = [[1+a^2, -a], [-a, 1]],
        # so quantizer 0's noise reaches the error with weight W_00 = 1 + a^2
        expected = np.array([(1 + a * a) * d[0], d[1]])
        assert_allclose(effective_variances(t, bits, K), expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ["full", "toeplitz"])
    @pytest.mark.parametrize("channel", ["lossless", "p0.2", "own-bits", "first-row-lost"])
    def test_weighted_sum_is_modeled_noise_energy(self, channel, kind):
        # at any rates, the modeled noise energy tr(W K_q) that am_wmse charges
        # is c sum_i 2^(-2 R_i) times the variance charged to quantizer i
        n = 4
        rng = np.random.default_rng(5)
        K = ar1_covariance(0.9, 1.0, n)
        if kind == "toeplitz":
            t = unpack_parameters(*(rng.normal(scale=0.5, size=n - 1) for _ in range(2)),
                                  "toeplitz", n)
        else:
            enc, dec = (np.tril(rng.normal(scale=0.5, size=(n, n)), -1) for _ in range(2))
            t = CausalTransform("full", n, enc, dec)
        bits = np.tril(np.ones((n, n)))
        bits[0] = 0.0  # slot 0 is never reconstructed, so W is singular
        marginals = {"lossless": self.lossless_marginals(n),
                     "p0.2": availability_marginals(
                         ChannelModel.from_violation_probability(0.2, 0.05, 0.0125, n)),
                     "own-bits": np.eye(n),
                     "first-row-lost": bits}[channel]
        rates, c = np.array([5.0, 3.5, 4.25, 6.0]), 1.7
        K_q = np.diag(QuantizerBank.modeled(rates, quantizer_input_variances(t, K),
                                            c).noise_variances)
        noise = n * (am_wmse(t, marginals, K, K_q) - am_wmse(t, marginals, K, 0.0 * K_q))
        sigma_hat = effective_variances(t, marginals, K)
        assert np.all(sigma_hat > 0.0)
        assert_allclose(c * np.sum(np.exp2(-2.0 * rates) * sigma_hat), noise, rtol=1e-9)


def make_problem(p, structure, n=6, rate=5.0):
    K = ar1_covariance(0.9, 1.0, n)
    cm = ChannelModel.from_violation_probability(p, 0.05, 0.0125, n)
    return DesignProblem(K, availability_marginals(cm), rate, structure)


def scaled_problem(structure, weight, n=5, p=0.2):
    # each id names the error weight c I its case stands for: weighting the
    # error by c is the same design problem as the source covariance c K_x
    scale = {"none": 1.0, "scaled": 2.43, "kron": 1.7}[weight]  # "kron": R_eq = 1.7
    cm = ChannelModel.from_violation_probability(p, 0.05, 0.0125, n)
    return DesignProblem(scale * ar1_covariance(0.9, 1.0, n), availability_marginals(cm), 5.0,
                         structure)


# each id ends in "-1" (block size 1), so the ids match those of earlier runs
STRUCTURES = [pytest.param(structure, id=f"{structure}-1") for structure in ("full", "toeplitz")]


def uniform_rate_objective(prob, transform):
    sigma = quantizer_input_variances(transform, prob.K_x)
    K_q = np.diag(QuantizerBank.modeled(np.full(prob.frame_length, prob.average_rate), sigma,
                                        prob.noise_constant).noise_variances)
    return am_wmse(transform, prob.marginals, prob.K_x, K_q)


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("weight", ["none", "scaled", "kron"])
def test_objective_matches_am_wmse(structure, weight):
    # J at (A, Ahat*(A)) is am_wmse of the assembled pair, and Ahat* is optimal
    prob = scaled_problem(structure, weight)
    objective = objective_of(prob)
    rng = np.random.default_rng(3)
    for _ in range(3):
        params = rng.normal(scale=0.4, size=prob.parameter_count)
        decoder = objective(params)[2]
        ref = uniform_rate_objective(
            prob, unpack_parameters(params, decoder, structure, prob.frame_length))
        assert objective(params)[0] == pytest.approx(ref, rel=1e-12)
        for scale in (1e-4, 1e-2, 1.0):
            moved = decoder + rng.normal(scale=scale, size=decoder.size)
            other = unpack_parameters(params, moved, structure, prob.frame_length)
            assert uniform_rate_objective(prob, other) >= ref * (1 - 1e-12)


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("weight", ["none", "kron"])
def test_gradient_matches_central_differences(structure, weight):
    prob = scaled_problem(structure, weight)
    objective = objective_of(prob)
    rng = np.random.default_rng(5)
    params = rng.normal(scale=0.3, size=prob.parameter_count)
    _, gradient, _ = objective(params)
    step = 1e-6
    central = np.array([(objective(params + step * e)[0] - objective(params - step * e)[0])
                        / (2 * step) for e in np.eye(params.size)])
    assert_allclose(gradient, central, rtol=0, atol=1e-7 * np.abs(central).max())


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("p", [0.1, 0.3])
@pytest.mark.parametrize("structure", ["full", "toeplitz"])
def test_design_no_worse_than_joint_pattern_search(n, p, structure):
    # reference: Hooke-Jeeves over the packed (encoder, decoder) objective
    # from the prediction-based transform, as the design search ran before
    prob = make_problem(p, structure, n=n)
    half = prob.parameter_count
    start = pack_parameters(plt_design(prob.K_x)[0], structure)

    def joint(x):
        return uniform_rate_objective(prob, unpack_parameters(x[:half], x[half:],
                                                              structure, n))

    reference = hooke_jeeves(joint, np.concatenate([start, start]))
    result = design_code([prob])[0]
    designed = uniform_rate_objective(prob, result.transform)
    assert designed <= reference.value * (1 + 1e-12)
    assert result.objective_history[-1] == pytest.approx(designed, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 6, 8])
@pytest.mark.parametrize("structure", ["toeplitz", "full"])
@pytest.mark.parametrize("source", ["source", "lqg"])
@pytest.mark.parametrize("p", [0.05, 0.3])
def test_design_no_worse_than_scipy_lbfgsb(n, structure, source, p):
    # reference: scipy's L-BFGS-B over the same objective, as the design ran before
    if source == "source":
        K = ar1_covariance(0.9, 1.0, n)
    else:  # the AR(1) model of the default plant's loop
        K = _lqg_context(ExperimentConfig.from_text(f"kind = lqg\nn = {n}"))[3]
    P = availability_marginals(ChannelModel.from_violation_probability(p, 0.05, 0.0125, n))
    prob = DesignProblem(K, P, 5.0, structure)
    assert design_code([prob])[0].objective_history[-1] <= reference_search(prob) * (1 + 1e-12)


@settings(max_examples=15, deadline=None)
@given(st.floats(0.0, 0.95), st.floats(0.02, 0.5))
def test_design_objectives_nest(rho, p):
    # rc_tc (warm-started from rtc_tc) <= rtc_tc <= uniform-rate plt
    n = 5
    K = ar1_covariance(rho, 1.0, n)
    P = availability_marginals(ChannelModel.from_violation_probability(p, 0.05, 0.0125, n))
    toeplitz = design_code([DesignProblem(K, P, 5.0, "toeplitz")])[0]
    full = design_code([DesignProblem(K, P, 5.0, "full")],
                       [pack_parameters(toeplitz.transform, "full")])[0]
    plt = design_code([DesignProblem(K, P, 5.0, "plt")])[0]
    # equal in exact arithmetic only at a tie; the slack absorbs rounding
    assert full.objective_history[-1] <= toeplitz.objective_history[-1] * (1 + 1e-12)
    assert toeplitz.objective_history[-1] <= plt.objective_history[-1] * (1 + 1e-12)


def first_value_becomes(value: str):
    """An edit of a design-file line that replaces its first value."""
    def edit(line: str) -> str:
        key, _, rest = line.split(" ", 2)
        return f"{key} {value} {rest}"
    return edit


def record_evaluated_rows(monkeypatch) -> list:
    """The points every objective `design_code` builds from now on is asked to evaluate."""
    rows = []
    real_build = design._reduced_objective

    def build(problems):
        evaluate = real_build(problems)

        def recorded(index, params):
            rows.extend(params.copy())
            return evaluate(index, params)

        return recorded

    monkeypatch.setattr(design, "_reduced_objective", build)
    return rows


class TestDesignCode:
    def test_lossless_recovers_plt(self):
        prob = make_problem(np.exp(-30.0), "full", n=4)
        result = design_code([prob])[0]
        plt_t, _ = plt_design(prob.K_x)
        A, Ahat = result.transform.assemble()
        P, _ = plt_t.assemble()
        assert np.abs(A - P).max() < 1e-3
        assert np.abs(Ahat - P).max() < 1e-3

    def test_identity_passthrough(self):
        prob = make_problem(0.2, "identity", n=4)
        result = design_code([prob])[0]
        assert result.transform.kind == "identity"
        K_q = np.diag(QuantizerBank.modeled(result.rates.rates, result.input_variances,
                                            1.0).noise_variances)
        assert result.predicted_am_wmse == pytest.approx(
            am_wmse(result.transform, prob.marginals, prob.K_x, K_q), rel=1e-12)

    def test_identity_prices_its_rates_once(self, monkeypatch):
        # the uniform rates its history prices are the allocation it returns
        calls = []

        def counted(*args):
            calls.append(args)
            return am_wmse(*args)

        monkeypatch.setattr(design, "am_wmse", counted)
        prob = make_problem(0.2, "identity", n=6)
        result = design_code([prob])[0]
        assert len(calls) == 1
        assert np.array_equal(result.rates.rates, np.full(6, 5.0))
        K_q = QuantizerBank.modeled(np.full(6, 5.0), np.diag(prob.K_x), 1.0).noise_variances
        assert result.predicted_am_wmse == am_wmse(CausalTransform.identity(6), prob.marginals,
                                                   prob.K_x, np.diag(K_q))

    def test_plt_passthrough(self):
        prob = make_problem(0.2, "plt", n=4)
        result = design_code([prob])[0]
        assert result.transform.kind == "plt"
        assert result.evaluations == 0

    def test_toeplitz_parameter_count_and_history(self):
        prob = make_problem(0.2, "toeplitz", n=6)
        result = design_code([prob])[0]
        assert prob.parameter_count == 5
        hist = result.objective_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_deterministic(self):
        prob = make_problem(0.15, "toeplitz", n=4)
        a = design_code([prob])[0]
        b = design_code([prob])[0]
        assert np.array_equal(a.transform.encoder_coeffs, b.transform.encoder_coeffs)
        assert np.array_equal(a.rates.rates, b.rates.rates)
        assert a.predicted_am_wmse == b.predicted_am_wmse

    @pytest.mark.parametrize("structure", ["full", "toeplitz"])
    def test_one_objective_per_searched_design(self, monkeypatch, structure):
        # the decoder comes from the best evaluation of the one objective the
        # search built; no second objective is built to solve for it again
        builds = []
        real_build = design._reduced_objective

        def build(problems):
            builds.append(problems)
            return real_build(problems)

        monkeypatch.setattr(design, "_reduced_objective", build)
        prob = make_problem(0.2, structure, n=5)
        result = design_code([prob])[0]
        assert builds == [[prob]]
        assert result.evaluations > len(builds)

    def test_iteration_cap_sets_budget_flag(self, monkeypatch):
        prob = make_problem(0.2, "full", n=5)
        assert not design_code([prob])[0].budget_exhausted
        monkeypatch.setattr(design, "MAX_ITERATIONS", 2)
        result = design_code([prob])[0]
        assert result.budget_exhausted
        assert result.objective_history[-1] < result.objective_history[0]

    def test_improves_on_plt_under_loss(self):
        prob = make_problem(0.2, "toeplitz")
        designed = design_code([prob])[0]
        plt_result = design_code([make_problem(0.2, "plt")])[0]
        assert designed.predicted_am_wmse < plt_result.predicted_am_wmse

    def test_warm_start_guarantees_dominance(self):
        prob_t = make_problem(0.25, "toeplitz")
        res_t = design_code([prob_t])[0]
        warm = pack_parameters(res_t.transform, "full")
        prob_f = make_problem(0.25, "full")
        res_f = design_code([prob_f], [warm])[0]
        assert res_f.predicted_am_wmse <= res_t.predicted_am_wmse * (1 + 1e-9)

    def test_warm_start_is_the_only_start(self, monkeypatch):
        # with a warm start the objective is never evaluated at the plt encoder
        warm = pack_parameters(design_code([make_problem(0.25, "toeplitz")])[0].transform, "full")
        prob = make_problem(0.25, "full")
        plt_start = pack_parameters(plt_design(prob.K_x)[0], "full")
        rows = record_evaluated_rows(monkeypatch)
        design_code([prob], [warm])
        assert np.array_equal(rows[0], warm)
        assert not any(np.array_equal(row, plt_start) for row in rows)

    @pytest.mark.parametrize("structure, warm", [("toeplitz", False), ("full", False),
                                                 ("full", True)])
    def test_evaluations_count_the_rows_evaluated(self, monkeypatch, structure, warm):
        # each point the search sends is evaluated once, its start included
        prob = make_problem(0.2, structure, n=5)
        start = (pack_parameters(design_code([make_problem(0.2, "toeplitz", n=5)])[0].transform,
                                 "full") if warm else None)
        rows = record_evaluated_rows(monkeypatch)
        result = design_code([prob], [start])[0]
        assert result.evaluations == len(rows) > 1
        first = start if warm else pack_parameters(plt_design(prob.K_x)[0], structure)
        assert sum(np.array_equal(row, first) for row in rows) == 1
        assert np.array_equal(rows[0], first)

    def test_rates_satisfy_mean_constraint(self):
        result = design_code([make_problem(0.2, "toeplitz")])[0]
        assert np.mean(result.rates.rates) == pytest.approx(5.0, abs=1e-12)
        assert np.all(result.rates.rates >= 0.0)

    def test_save_load_round_trip(self, tmp_path):
        result = design_code([make_problem(0.2, "toeplitz", n=4)])[0]
        path = tmp_path / "design.txt"
        save_design(result, path, scheme="rtc_tc")
        loaded, scheme = load_design(path)
        assert scheme == "rtc_tc"
        assert np.array_equal(loaded.rates.rates, result.rates.rates)
        assert np.array_equal(loaded.transform.encoder_coeffs,
                              result.transform.encoder_coeffs)
        assert loaded.predicted_am_wmse == result.predicted_am_wmse

    def test_load_names_missing_field(self, tmp_path):
        result = design_code([make_problem(0.2, "plt", n=4)])[0]
        path = tmp_path / "design.txt"
        save_design(result, path, scheme="plt")
        text = path.read_text()
        path.write_text("".join(line for line in text.splitlines(keepends=True)
                                if not line.startswith("rates ")))
        with pytest.raises(ValueError, match="'rates'"):
            load_design(path)

    @pytest.mark.parametrize("field, edit", [
        ("rates", lambda line: line.replace("rates ", "rates abc ")),
        ("evaluations", lambda line: "evaluations 3.5\n"),
        ("scheme", lambda line: line + "scheme rc_tc\n"),
        ("input_variances", lambda line: line.rsplit(" ", 1)[0] + "\n"),
        ("rates", lambda line: line.rstrip("\n") + " 5.0\n"),
        ("input_variances", first_value_becomes("nan")),
        ("input_variances", first_value_becomes("inf")),
        ("input_variances", first_value_becomes("0.0")),
        ("input_variances", first_value_becomes("-1.5")),
    ], ids=["not_a_number", "not_an_integer", "repeated", "short_vector", "long_vector",
            "nan_variance", "infinite_variance", "zero_variance", "negative_variance"])
    def test_load_names_bad_field(self, tmp_path, field, edit):
        result = design_code([make_problem(0.2, "plt", n=4)])[0]
        path = tmp_path / "design.txt"
        save_design(result, path, scheme="plt")
        path.write_text("".join(edit(line) if line.startswith(field + " ") else line
                                for line in path.read_text().splitlines(keepends=True)))
        with pytest.raises(ValueError, match=f"'{field}'") as info:
            load_design(path)
        assert "\n" not in str(info.value)


POINTS = (0.05, 0.1, 0.2, 0.3)


def assert_same_design(a: DesignResult, b: DesignResult):
    """Bit for bit the same design, rates, predictions, search and bank."""
    for name in ("encoder_coeffs", "decoder_coeffs"):
        assert np.array_equal(getattr(a.transform, name), getattr(b.transform, name)), name
    for name in ("rates", "effective_variances"):
        assert np.array_equal(getattr(a.rates, name), getattr(b.rates, name)), name
    assert a.predicted_am_wmse == b.predicted_am_wmse
    assert a.evaluations == b.evaluations
    assert a.objective_history == b.objective_history
    assert a.budget_exhausted == b.budget_exhausted
    assert np.array_equal(a.input_variances, b.input_variances)
    assert np.array_equal(a.bank.noise_variances, b.bank.noise_variances)


class TestLockstepDesign:
    @pytest.mark.parametrize("structure", ["toeplitz", "full"])
    def test_equals_one_problem_calls(self, structure):
        # four channel points, the second and fourth with a warm start, and
        # a plt problem that searches nothing: every design is the one a call
        # with its problem alone makes, and the searches stop at different
        # rounds, so some go on after others have stopped
        problems = [make_problem(p, structure, n=5) for p in POINTS]
        rng = np.random.default_rng(11)
        warm = [None, rng.normal(scale=0.3, size=problems[1].parameter_count),
                None, pack_parameters(plt_design(problems[3].K_x)[0], structure) + 0.05]
        problems.append(make_problem(0.2, "plt", n=5))
        warm.append(None)
        many = design_code(problems, warm)
        assert isinstance(many, DesignResults) and len(many) == len(problems)
        for problem, starts, result in zip(problems, warm, many):
            assert_same_design(result, design_code([problem], [starts])[0])
        assert len({result.evaluations for result in many[:4]}) > 1

    def test_failing_problem_fails_only_its_own_slot(self):
        # a lower-triangle marginal of 0 leaves decoder entry (3, 0) out of
        # every equation, so its decoder system is singular and the stacked
        # solve raises; a warm start of the wrong length fails before the
        # search; the other problems design as they do alone
        problems = [make_problem(p, "full", n=5) for p in POINTS]
        lost = problems[1].marginals.copy()
        lost[3, 0] = 0.0
        problems[1] = DesignProblem(problems[1].K_x, lost, 5.0, "full")
        warm = [None, None, np.zeros(3), None]
        results = design_code(problems, warm)
        assert isinstance(results[1], np.linalg.LinAlgError)
        assert isinstance(results[2], ValueError)
        with pytest.raises(np.linalg.LinAlgError):
            objective_of(problems[1])(np.zeros(problems[1].parameter_count))
        for k in (0, 3):
            assert_same_design(results[k], design_code([problems[k]])[0])
        assert results.evaluations == results[0].evaluations + results[3].evaluations

    def test_totals_over_designs(self, monkeypatch):
        # the counts the benchmark's layer trace reads: evaluations summed and
        # budget_exhausted counted over the designs, failed slots left out
        results = design_code([make_problem(p, "toeplitz", n=4) for p in POINTS])
        assert results.evaluations == sum(result.evaluations for result in results) > 0
        assert results.budget_exhausted == 0
        monkeypatch.setattr(design, "MAX_ITERATIONS", 2)
        capped = design_code([make_problem(p, "full", n=4) for p in POINTS]
                             + [make_problem(0.2, "plt", n=4)])
        assert capped.budget_exhausted == 4
        assert capped.evaluations == sum(result.evaluations for result in capped[:4])
        mixed = DesignResults([capped[0], ValueError("failed"), capped[4]])
        assert (mixed.evaluations, mixed.budget_exhausted) == (capped[0].evaluations, 1)

    def test_searched_problems_share_structure_and_length(self):
        with pytest.raises(ValueError, match="share structure"):
            design_code([make_problem(0.2, "toeplitz"), make_problem(0.2, "full")])
        with pytest.raises(ValueError, match="share structure"):
            design_code([make_problem(0.2, "full", n=4), make_problem(0.2, "full", n=5)])
        with pytest.raises(ValueError, match="parallel"):
            design_code([make_problem(0.2, "full")], [None, None])


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def design_results(draw):
    n = draw(st.integers(2, 5))
    structure = draw(st.sampled_from(["full", "toeplitz"]))
    count = (n * n - n) // 2 if structure == "full" else n - 1
    encoder, decoder = (draw(st.lists(finite, min_size=count, max_size=count))
                        for _ in range(2))
    transform = unpack_parameters(encoder, decoder, structure, n)
    variances = np.asarray(draw(st.lists(st.floats(1e-6, 1e3), min_size=n, max_size=n)))
    rates = allocate_rates(variances, draw(st.floats(0.0, 10.0)), 0.0)
    lqg = draw(st.none() | finite)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    inputs = np.asarray(draw(st.lists(positive, min_size=n, max_size=n)))
    return DesignResult(transform, rates, draw(finite), lqg, draw(st.integers(0, 10 ** 6)),
                        [], draw(st.booleans()), input_variances=inputs)


@settings(max_examples=40, deadline=None)
@given(design_results(), st.sampled_from(["", "plt", "rtc_tc", "rc_tc"]))
def test_design_file_round_trip_property(tmp_path_factory, result, scheme):
    path = tmp_path_factory.mktemp("design") / "design.txt"
    save_design(result, path, scheme=scheme)
    loaded, loaded_scheme = load_design(path)
    assert loaded_scheme == scheme
    for name in ("predicted_am_wmse", "predicted_lqg_cost", "evaluations",
                 "budget_exhausted"):
        assert getattr(loaded, name) == getattr(result, name)
    assert np.array_equal(loaded.input_variances, result.input_variances)
    for name in ("rates", "effective_variances", "average", "clamped"):
        assert np.array_equal(getattr(loaded.rates, name), getattr(result.rates, name))
    for name in ("encoder_coeffs", "decoder_coeffs"):
        assert np.array_equal(getattr(loaded.transform, name), getattr(result.transform, name))
