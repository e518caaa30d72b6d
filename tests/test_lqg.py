import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rctc import lqg
from rctc.channel import ChannelModel, availability_marginals
from rctc.codec import CausalTransform, plt_design
from rctc.design import DesignProblem, design_code
from rctc.lqg import (CHUNK_FRAMES, REPLICAS, LqgWeights, PlantModel,
                      RiccatiConvergenceError, am_wmse, analytic_lqg_cost, ce_gain,
                      controller_solution, loop_pole, pilot_state_variance,
                      replica_lengths, riccati_residual, simulate_closed_loop,
                      solve_riccati, weight_req)
from rctc.quantizers import QuantizerBank
from rctc.sources import ar1_covariance
from sim_reference import reference_loop, segment_lengths

GOLDEN = (1 + math.sqrt(5)) / 2


def scalar_setup(f=1.0, g=1.0, r=1.0, s=1.0, k_w=1.0):
    plant = PlantModel.scalar(f, g, k_w)
    weights = LqgWeights.scalar(r, s)
    return plant, weights


class TestPlantModel:
    def test_uncontrollable_rejected(self):
        with pytest.raises(ValueError):
            PlantModel([[0.5, 0.0], [0.0, 0.5]], [[1.0], [0.0]], np.eye(2))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            PlantModel([[1.0]], [[1.0]], np.eye(2))

    def test_weights_positive_definite(self):
        with pytest.raises(ValueError):
            LqgWeights([[0.0]], [[1.0]])
        with pytest.raises(ValueError):
            LqgWeights([[1.0]], [[-1.0]])


class TestSolveRiccati:
    def test_zero_dynamics_collapses_to_r(self):
        plant, weights = scalar_setup(f=0.0)
        assert solve_riccati(plant, weights)[0, 0] == pytest.approx(1.0, abs=1e-12)
        plant2 = PlantModel(np.zeros((2, 2)), np.eye(2), np.eye(2))
        R = np.array([[2.0, 0.3], [0.3, 1.0]])
        P = solve_riccati(plant2, LqgWeights(R, np.eye(2)))
        assert_allclose(P, R, atol=1e-12)

    def test_scalar_golden_ratio(self):
        plant, weights = scalar_setup()
        assert solve_riccati(plant, weights)[0, 0] == pytest.approx(GOLDEN, abs=1e-9)

    def test_heavy_control_penalty_is_lyapunov(self):
        plant, weights = scalar_setup(f=0.5, s=1e9)
        P = solve_riccati(plant, weights)[0, 0]
        assert P == pytest.approx(1.0 / (1.0 - 0.25), rel=1e-6)

    def test_residuals_on_random_plants(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.integers(1, 5)
            F = rng.normal(size=(d, d))
            F *= rng.uniform(0.3, 1.2) / max(np.abs(np.linalg.eigvals(F)).max(), 1e-9)
            G = rng.normal(size=(d, rng.integers(1, 3)))
            A = rng.normal(size=(d, d))
            R = A @ A.T + 0.1 * np.eye(d)
            S = np.diag(rng.uniform(0.1, 2.0, G.shape[1]))
            plant = PlantModel(F, G, np.eye(d))
            weights = LqgWeights(R, S)
            P = solve_riccati(plant, weights)
            assert riccati_residual(P, plant, weights) < 1e-10 * np.linalg.norm(P)

    def test_budget_exhaustion_raises_with_residual(self):
        plant, weights = scalar_setup()
        with pytest.raises(RiccatiConvergenceError) as err:
            solve_riccati(plant, weights, max_iterations=3)
        assert err.value.residual > 0


class TestGainAndWeighting:
    def test_scalar_gain(self):
        plant, weights = scalar_setup()
        P = solve_riccati(plant, weights)
        assert ce_gain(P, plant, weights)[0, 0] == pytest.approx(-GOLDEN / (1 + GOLDEN),
                                                                 abs=1e-9)

    def test_zero_dynamics_gain(self):
        plant, weights = scalar_setup(f=0.0)
        P = solve_riccati(plant, weights)
        assert ce_gain(P, plant, weights)[0, 0] == 0.0

    def test_gain_shrinks_with_control_penalty(self):
        plant, weights = scalar_setup()
        P = solve_riccati(plant, weights)
        heavy = LqgWeights.scalar(1.0, 1e6)
        P_heavy = solve_riccati(plant, heavy)
        assert abs(ce_gain(P_heavy, plant, heavy)[0, 0]) < abs(
            ce_gain(P, plant, weights)[0, 0])

    def test_weight_req_zero_dynamics(self):
        plant, weights = scalar_setup(f=0.0)
        P = solve_riccati(plant, weights)
        assert weight_req(P, plant, weights)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_weight_req_unit_dynamics(self):
        plant, weights = scalar_setup(f=1.0)
        P = solve_riccati(plant, weights)
        assert weight_req(P, plant, weights)[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_weight_req_arithmetic_identity(self):
        plant, weights = scalar_setup(f=1.49, g=0.05, s=0.01)
        P = solve_riccati(plant, weights)
        expected = 1.49 ** 2 * P[0, 0] - P[0, 0] + 1.0
        assert weight_req(P, plant, weights)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_controller_solution_invariants(self):
        plant, weights = scalar_setup(f=1.49, g=0.05, s=0.01, k_w=0.01)
        sol = controller_solution(plant, weights)
        assert riccati_residual(sol.P, plant, weights) < 1e-10 * np.linalg.norm(sol.P)
        assert abs(plant.F[0, 0] + plant.G[0, 0] * sol.L[0, 0]) < 1.0


def lossless_marginals(n):
    return availability_marginals(ChannelModel(30 / 0.05, 0.05, 0.0125, n))


class TestErrorTerms:
    def test_lossless_reduces_to_noise_energy(self):
        n = 4
        K_x = ar1_covariance(0.9, 1.0, n)
        t, d = plt_design(K_x)
        K_q = np.diag(0.01 * d)
        assert am_wmse(t, lossless_marginals(n), K_x, K_q) == pytest.approx(
            np.trace(K_q) / n, rel=1e-12)

    def test_all_lost_reduces_to_signal_energy(self):
        n = 3
        K_x = ar1_covariance(0.8, 2.0, n)
        t, _ = plt_design(K_x)
        K_q = 0.001 * np.eye(n)
        assert am_wmse(t, np.zeros((n, n)), K_x, K_q) == pytest.approx(
            np.trace(K_x) / n, rel=1e-12)

    def test_exhaustive_oracle_n2(self):
        # independent enumeration of every availability pattern, first principles
        n = 2
        K_x = ar1_covariance(0.9, 1.0, n)
        t, d = plt_design(K_x)
        K_q = np.diag(0.01 * d)
        cm = ChannelModel.from_violation_probability(0.25, 0.05, 0.0125, n)
        marg = availability_marginals(cm)
        a = t.encoder_coeffs[1, 0]
        signal = noise = 0.0
        for b11 in (0, 1):
            for b21 in (0, 1):
                for b22 in (0, 1):
                    w = ((marg[0, 0] if b11 else 1 - marg[0, 0])
                         * (marg[1, 0] if b21 else 1 - marg[1, 0])
                         * (marg[1, 1] if b22 else 1 - marg[1, 1]))
                    # inv(A) for a 2x2 unit lower triangular ladder
                    Ainv = np.array([[1.0, 0.0], [-a, 1.0]])
                    H = np.array([[b11 * 1.0, 0.0], [b21 * a, b22 * 1.0]]) @ Ainv
                    G = np.eye(2) - H
                    signal += w * np.trace(G.T @ G @ K_x)
                    noise += w * np.trace(H.T @ H @ K_q)
        # the signal term alone without quantizer noise, the noise term alone
        # without a signal
        got_signal = n * am_wmse(t, marg, K_x, np.zeros((n, n)))
        got_noise = n * am_wmse(t, marg, np.zeros((n, n)), K_q)
        assert got_signal == pytest.approx(signal, abs=1e-12)
        assert got_noise == pytest.approx(noise, abs=1e-12)
        assert am_wmse(t, marg, K_x, K_q) == pytest.approx(
            (signal + noise) / n, abs=1e-12)

    def test_dimension_checks(self):
        t = CausalTransform.identity(3)
        P = lossless_marginals(3)
        with pytest.raises(ValueError):
            am_wmse(t, P, np.eye(4), np.eye(3))
        with pytest.raises(ValueError):
            am_wmse(CausalTransform.identity(4), P, np.eye(4), np.eye(4))


class TestAnalyticCost:
    def setup_method(self):
        self.plant, self.weights = scalar_setup(f=1.49, g=0.05, s=0.01, k_w=0.01)
        self.sol = controller_solution(self.plant, self.weights)

    def test_perfect_channel_no_noise_is_classical(self):
        n = 4
        K_x = ar1_covariance(0.8677, 0.015, n)
        t, _ = plt_design(K_x)
        cost = analytic_lqg_cost(self.sol, self.plant,
                                 am_wmse(t, lossless_marginals(n), K_x, np.zeros((n, n))))
        assert cost == pytest.approx(np.trace(self.sol.P @ self.plant.K_w), rel=1e-12)

    def test_small_p_limit(self):
        n = 4
        K_x = ar1_covariance(0.8677, 0.015, n)
        t, d = plt_design(K_x)
        K_q = np.diag(1e-3 * d)
        cost = analytic_lqg_cost(self.sol, self.plant,
                                 am_wmse(t, lossless_marginals(n), K_x, K_q))
        expected = (np.trace(self.sol.P @ self.plant.K_w)
                    + self.sol.R_eq[0, 0] * np.trace(K_q) / n)
        assert cost == pytest.approx(expected, rel=1e-12)

    def test_decomposition_identity_is_exact(self):
        n = 3
        rng = np.random.default_rng(5)
        K_x = ar1_covariance(0.6, 1.7, n)
        t, d = plt_design(K_x)
        K_q = np.diag(rng.uniform(0.001, 0.1, n))
        cm = ChannelModel.from_violation_probability(0.2, 0.05, 0.0125, n)
        P = availability_marginals(cm)
        left = analytic_lqg_cost(self.sol, self.plant, am_wmse(t, P, K_x, K_q))
        right = (np.trace(self.sol.P @ self.plant.K_w)
                 + float(self.sol.R_eq[0, 0]) * am_wmse(t, P, K_x, K_q))
        assert left == right

    def test_vector_plant_rejected(self):
        plant = PlantModel([[0.9, 0.2], [0.0, 0.7]], np.eye(2), 0.01 * np.eye(2))
        sol = controller_solution(plant, LqgWeights(np.eye(2), 0.1 * np.eye(2)))
        with pytest.raises(ValueError, match="scalar plants"):
            analytic_lqg_cost(sol, plant, am_wmse(CausalTransform.identity(3),
                                                  lossless_marginals(3), np.eye(3), np.eye(3)))

    def test_wmse_monotone_as_deadline_shrinks(self):
        # exact expectations, so no common random numbers are needed
        n = 4
        K_x = ar1_covariance(0.9, 1.0, n)
        t, d = plt_design(K_x)
        K_q = np.diag(1e-3 * d)
        values = []
        for delta in (0.30, 0.20, 0.12, 0.08, 0.05, 0.03):
            cm = ChannelModel(20.0, delta, delta / 4, n)
            values.append(am_wmse(t, availability_marginals(cm), K_x, K_q))
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


class TestSimulateClosedLoop:
    def setup_method(self):
        self.plant, self.weights = scalar_setup(f=1.49, g=0.05, s=0.01, k_w=0.01)
        self.sol = controller_solution(self.plant, self.weights)

    def lossless(self, n=4):
        return ChannelModel(50 / 0.05, 0.05, 0.0125, n)

    def test_classical_benchmark(self):
        n = 4
        t = CausalTransform.identity(n)
        sim, = simulate_closed_loop(self.plant, self.weights, self.sol, [t], [None],
                                    self.lossless(n), 200_000, 3)
        target = np.trace(self.sol.P @ self.plant.K_w)
        assert abs(sim.empirical_cost - target) < 3 * sim.standard_error
        assert not sim.diverged

    def test_deterministic(self):
        n = 4
        t = CausalTransform.identity(n)
        a, = simulate_closed_loop(self.plant, self.weights, self.sol, [t], [None],
                                  self.lossless(n), 5000, 11)
        b, = simulate_closed_loop(self.plant, self.weights, self.sol, [t], [None],
                                  self.lossless(n), 5000, 11)
        assert a.empirical_cost == b.empirical_cost

    def test_trace_changes_no_number(self):
        n = 4
        K_x = ar1_covariance(0.8677, 0.015, n)
        cm = ChannelModel.from_violation_probability(0.2, 0.05, 0.0125, n)
        designed = design_code([DesignProblem(K_x, availability_marginals(cm), 5.0,
                                              "toeplitz")])[0].transform
        assert np.any(designed.encoder_coeffs != designed.decoder_coeffs)
        banks = [None, QuantizerBank.modeled(np.full(n, 5.0), np.full(n, 0.015))]
        for t in (CausalTransform.identity(n), designed):
            for bank in banks:
                plain, = simulate_closed_loop(self.plant, self.weights, self.sol, [t], [bank],
                                              cm, 8000, 21)
                traced, = simulate_closed_loop(self.plant, self.weights, self.sol, [t], [bank],
                                               cm, 8000, 21, collect_trace=True)
                assert plain.trace is None
                assert traced.empirical_cost == plain.empirical_cost
                assert traced.standard_error == plain.standard_error
                assert traced.steps == plain.steps == len(traced.trace)
                # the records carry the very costs the mean is taken over,
                # summed as the simulator sums them: step by step within a
                # replica, then exactly over the replicas
                replicas = [rec.replica for rec in traced.trace]
                assert replicas == sorted(replicas)
                sums, counts = {}, {}
                for rec in traced.trace:
                    sums[rec.replica] = sums.get(rec.replica, 0.0) + rec.cost
                    counts[rec.replica] = counts.get(rec.replica, 0) + 1
                assert math.fsum(sums.values()) / traced.steps == plain.empirical_cost
                assert [sums[r] / counts[r] for r in sorted(sums)] \
                    == plain.replica_means.tolist()

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_changes_no_number(self, chunk, monkeypatch):
        # 8003 steps at N = 4 make 32 frames, the last one cut short; 7 does
        # not divide 32, and the dead channel crosses 1e16 in frame 24
        n = 4
        t = CausalTransform.identity(n)
        cm = ChannelModel.from_violation_probability(0.2, 0.05, 0.0125, n)
        dead = ChannelModel(1e-4, 0.05, 0.0125, n)
        modeled = QuantizerBank.modeled(np.full(n, 5.0), np.full(n, 0.015))
        cases = [(None, cm, False, 1e9), (modeled, cm, False, 1e9), (None, cm, True, 1e9),
                 (modeled, cm, True, 1e9), (modeled, dead, True, 1e16)]

        def run_all():
            return [simulate_closed_loop(self.plant, self.weights, self.sol, [t], [bank],
                                         channel, 8003, 21, collect_trace=trace,
                                         divergence_bound=bound)[0]
                    for bank, channel, trace, bound in cases]

        default = run_all()
        monkeypatch.setattr(lqg, "CHUNK_FRAMES", chunk)
        for a, b in zip(default, run_all()):
            assert a.empirical_cost == b.empirical_cost
            assert a.standard_error == b.standard_error
            assert np.array_equal(a.replica_means, b.replica_means)
            assert (a.steps, a.diverged) == (b.steps, b.diverged)
            assert a.trace == b.trace
        assert default[-1].diverged and default[-1].steps == 24 * n * REPLICAS
        assert default[2].steps == len(default[2].trace) == 8003

    def plt_at_eight(self):
        """The plt transform of the loop's source model at N = 8 and its rate-8 modeled bank."""
        n = 8
        K_x = ar1_covariance(loop_pole(self.plant, self.sol),
                             pilot_state_variance(self.plant, self.sol), n)
        t, d = plt_design(K_x)
        return t, QuantizerBank.modeled(np.full(n, 8.0), d)

    def memory_peak(self, transforms, banks):
        """tracemalloc peak of a call at N = 8, after one call that warms every cache."""
        n = 8
        cm = ChannelModel.from_violation_probability(0.005, 0.05, 0.0125, n)
        # 40 frames: two whole chunks and a part of one
        horizon = REPLICAS * n * 40
        simulate_closed_loop(self.plant, self.weights, self.sol, transforms, banks, cm,
                             horizon, 3)
        tracemalloc.start()
        try:
            simulate_closed_loop(self.plant, self.weights, self.sol, transforms, banks, cm,
                                 horizon, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_holds_no_square_stack(self):
        # arrivals and decoder weights are formed for the lower-triangle
        # entries only: an (N, N, CHUNK_FRAMES, REPLICAS) float stack would add
        # 512 KiB at N = 8 to a peak of about 1.5 MiB
        n = 8
        t, bank = self.plt_at_eight()
        peak = self.memory_peak([t], [bank])
        stack = n * n * CHUNK_FRAMES * REPLICAS * 8
        assert peak < 1.5 * 2 ** 20 + stack / 2, peak

    def test_lockstep_designs_share_the_buffers(self):
        # the designs of one call run through the same buffers: four of them
        # stay under the bound of one, where a second set of draw or ladder
        # buffers would not (the ladder alone is 432 KiB at N = 8)
        n = 8
        t, bank = self.plt_at_eight()
        loud = QuantizerBank.modeled(np.full(n, 2.0), np.full(n, 0.5))
        identity = CausalTransform.identity(n)
        peak = self.memory_peak([t, identity, identity, t], [bank, None, loud, loud])
        stack = n * n * CHUNK_FRAMES * REPLICAS * 8
        assert peak < 1.5 * 2 ** 20 + stack / 2, peak

    def test_lockstep_equals_one_design_runs(self):
        # each design of a call reads the same draws, in the same order and
        # with the same arithmetic, as a call of it alone.  The decoder
        # supports are the diagonal (identity), a band (first nonzero entry
        # one left of the diagonal) and the lower triangle (plt and a full
        # design); None banks run next to modeled ones; 8003 steps leave the
        # last frame cut short; and the loud design crosses the bound in
        # frame 23, in the middle of the second chunk, while the others go on
        n = 4
        K_x = ar1_covariance(loop_pole(self.plant, self.sol),
                             pilot_state_variance(self.plant, self.sol), n)
        cm = ChannelModel.from_violation_probability(0.2, 0.05, 0.0125, n)
        lag_one = np.diag(np.full(n - 1, -0.6), -1)
        banded = CausalTransform("full", n, lag_one, 0.8 * lag_one)
        plt = plt_design(K_x)[0]
        full = design_code([DesignProblem(K_x, availability_marginals(cm), 5.0,
                                          "full")])[0].transform
        fine = QuantizerBank.modeled(np.full(n, 5.0), np.full(n, 0.015))
        loud = QuantizerBank.modeled(np.zeros(n), np.full(n, 0.2))
        transforms = [CausalTransform.identity(n), banded, plt, full, plt]
        banks = [None, fine, fine, None, loud]
        for trace in (False, True):
            together = simulate_closed_loop(self.plant, self.weights, self.sol, transforms,
                                            banks, cm, 8003, 21, collect_trace=trace,
                                            divergence_bound=4.0)
            assert len(together) == len(transforms)
            for t, bank, a in zip(transforms, banks, together):
                b, = simulate_closed_loop(self.plant, self.weights, self.sol, [t], [bank], cm,
                                          8003, 21, collect_trace=trace, divergence_bound=4.0)
                assert a.empirical_cost == b.empirical_cost
                assert a.standard_error == b.standard_error
                assert (a.steps, a.diverged) == (b.steps, b.diverged)
                assert np.array_equal(a.replica_means, b.replica_means)
                assert a.trace == b.trace
                assert (a.trace is None) != trace
            assert [a.diverged for a in together] == [False] * 4 + [True]
            # the totals the benchmark's layer trace reads off the call
            assert together.steps == 4 * 8003 + 23 * n * REPLICAS
            assert together.diverged == 1

    def test_designs_must_be_parallel(self):
        t = CausalTransform.identity(3)
        for transforms, banks in (([t, t], [None]), ([], [])):
            with pytest.raises(ValueError, match="parallel sequences") as err:
                simulate_closed_loop(self.plant, self.weights, self.sol, transforms, banks,
                                     self.lossless(3), 600, 9)
            assert "\n" not in str(err.value)

    def test_unstable_plant_all_lost_diverges(self):
        n = 4
        t = CausalTransform.identity(n)
        dead = ChannelModel(1e-4, 0.05, 0.0125, n)  # essentially everything late
        sim, = simulate_closed_loop(self.plant, self.weights, self.sol, [t], [None], dead,
                                    100_000, 5, divergence_bound=1e6)
        assert sim.diverged
        assert sim.steps < 100_000
        assert math.isfinite(sim.empirical_cost)

    def test_trace_records(self):
        n = 3
        t = CausalTransform.identity(n)
        sim, = simulate_closed_loop(self.plant, self.weights, self.sol, [t], [None],
                                    self.lossless(n), 7, 2, collect_trace=True)
        assert len(sim.trace) == 7
        rec = sim.trace[4]
        assert rec.step == 4
        assert rec.availability == "11"  # element index 1 of the second frame
        assert rec.cost >= 0.0

    def test_trace_cost_is_the_lqg_cost(self):
        # every step is priced R x^2 + S u^2 on the plant state and the control,
        # not on the reconstruction and its error: at a lossy point with a
        # coarse quantizer the masked decoder's xhat is not orthogonal to
        # x - xhat, and the two prices differ
        n = 4
        K_x = ar1_covariance(loop_pole(self.plant, self.sol),
                             pilot_state_variance(self.plant, self.sol), n)
        cm = ChannelModel.from_violation_probability(0.2, 0.05, 0.0125, n)
        t, d = plt_design(K_x)
        bank = QuantizerBank.modeled(np.full(n, 2.0), d)
        sim, = simulate_closed_loop(self.plant, self.weights, self.sol, [t], [bank], cm,
                                    2000, 21, collect_trace=True)
        r, s = float(self.weights.R[0, 0]), float(self.weights.S[0, 0])
        for rec in sim.trace:
            assert rec.cost == pytest.approx(r * rec.state ** 2 + s * rec.control ** 2,
                                             rel=1e-12, abs=0.0), rec

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            simulate_closed_loop(self.plant, self.weights, self.sol,
                                 [CausalTransform.identity(4)], [None], self.lossless(4),
                                 3, 0)

    def test_codebook_bank_rejected(self):
        # the loop is simulated under modeled quantizer noise only
        n = 3
        t = CausalTransform.identity(n)
        for bank, message in ((QuantizerBank.lloyd_max(np.full(n, 4.0), np.ones(n)),
                               "needs a modeled bank, not codebooks"),
                              (QuantizerBank.modeled(np.full(n + 1, 4.0), np.ones(n + 1)),
                               "bank layout does not match")):
            with pytest.raises(ValueError, match=message) as err:
                simulate_closed_loop(self.plant, self.weights, self.sol, [t], [bank],
                                     self.lossless(n), 600, 9)
            assert "\n" not in str(err.value)

    def test_vector_plant_rejected(self):
        cm = ChannelModel(50 / 0.05, 0.05, 0.0125, 3)
        two_states = PlantModel([[0.9, 0.2], [0.0, 0.7]], np.eye(2), 0.01 * np.eye(2))
        two_inputs = PlantModel([[1.49]], [[0.05, 0.05]], [[0.01]])
        for plant in (two_states, two_inputs):
            weights = LqgWeights(np.eye(plant.state_dim), 0.1 * np.eye(plant.input_dim))
            sol = controller_solution(plant, weights)
            t = CausalTransform.identity(3)
            with pytest.raises(ValueError, match="scalar plant") as err:
                simulate_closed_loop(plant, weights, sol, [t], [None], cm, 600, 9)
            assert "\n" not in str(err.value)


class TestAgainstReference:
    """The vectorised simulator against the plain-float loop of sim_reference.py."""

    def setup_method(self):
        self.plant, self.weights = scalar_setup(f=1.49, g=0.05, s=0.01, k_w=0.01)
        self.sol = controller_solution(self.plant, self.weights)

    def check(self, transform, bank, cm, horizon, seed, bound=1e9):
        sim, = simulate_closed_loop(self.plant, self.weights, self.sol, [transform], [bank],
                                    cm, horizon, seed, divergence_bound=bound)
        totals, steps, diverged = reference_loop(self.plant, self.weights, self.sol,
                                                 transform, bank, cm, horizon, seed,
                                                 bound, REPLICAS)
        totals, steps = np.asarray(totals), np.asarray(steps)
        ran = steps > 0
        assert sim.diverged == diverged
        assert sim.steps == steps.sum()
        assert_allclose(sim.replica_means, totals[ran] / steps[ran], rtol=1e-12, atol=0)
        assert sim.empirical_cost == pytest.approx(totals.sum() / steps.sum(), rel=1e-12)
        assert sim.standard_error == np.std(sim.replica_means, ddof=1) / math.sqrt(ran.sum())
        return sim

    @pytest.mark.parametrize("horizon", [
        6001, 30,
        # 2 C + 6 frames, the last one a single replica's 3 steps
        REPLICAS * 4 * (2 * CHUNK_FRAMES + 5) + 3,
        # below REPLICAS * N: 25 replicas run a frame, one runs 1 step, 38 none
        101])
    @pytest.mark.parametrize("mode", ["ideal", "modeled"])
    def test_replica_means_match(self, mode, horizon):
        n = 4
        K_x = ar1_covariance(loop_pole(self.plant, self.sol),
                             pilot_state_variance(self.plant, self.sol), n)
        cm = ChannelModel.from_violation_probability(0.2, 0.05, 0.0125, n)
        designed = design_code([DesignProblem(K_x, availability_marginals(cm), 5.0,
                                              "toeplitz")])[0].transform
        assert np.any(designed.encoder_coeffs != designed.decoder_coeffs)
        bank = {"ideal": None,
                "modeled": QuantizerBank.modeled(np.full(n, 5.0), np.full(n, 0.2))}[mode]
        for t in (CausalTransform.identity(n), designed):
            sim = self.check(t, bank, cm, horizon, 21)
            assert not sim.diverged
            assert sim.steps == horizon

    def test_diverging_run_matches(self):
        n = 4
        dead = ChannelModel(1e-4, 0.05, 0.0125, n)
        bank = QuantizerBank.modeled(np.full(n, 5.0), np.full(n, 0.05))
        # the state first crosses 1e6 in frame 10 and 1e16 in frame 24: both
        # in the middle of a chunk, the second one in the second chunk
        for bound, frames in ((1e6, 10), (1e16, 24)):
            sim = self.check(CausalTransform.identity(n), bank, dead, 100_000, 5, bound=bound)
            assert sim.diverged
            assert sim.steps == frames * n * REPLICAS
            assert frames % CHUNK_FRAMES

    @pytest.mark.parametrize("horizon, n", [(7, 3), (50, 3), (400_000, 6), (1_000_000, 8),
                                            (64 * 8 + 5, 8), (64 * 24, 8)])
    def test_replica_lengths(self, horizon, n):
        lengths = replica_lengths(horizon, n)
        assert lengths.tolist() == segment_lengths(horizon, n, REPLICAS)
        assert lengths.size == REPLICAS
        assert lengths.sum() == horizon
        assert lengths.max() - lengths.min() <= n
        # at most one replica ends inside a frame
        assert np.count_nonzero(lengths % n) <= 1


class TestPilotVariance:
    def test_matches_lyapunov_solution(self):
        for f, g, s, k_w in ((1.49, 0.05, 0.01, 0.01), (0.5, 1.0, 1.0, 2.0),
                             (-1.2, 0.3, 0.5, 1.0)):
            plant, weights = scalar_setup(f=f, g=g, s=s, k_w=k_w)
            sol = controller_solution(plant, weights)
            a = plant.F[0, 0] + plant.G[0, 0] * sol.L[0, 0]
            assert loop_pole(plant, sol) == a
            V = pilot_state_variance(plant, sol)
            assert V == plant.K_w[0, 0] / (1 - a * a)
            assert abs(V - (a * a * V + plant.K_w[0, 0])) <= 1e-14 * V
