import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rctc.channel import (AvailabilityStats, ChannelModel, availability_marginals,
                          availability_stats, channel_moments, pair_moments,
                          sample_availability_bits)

from channel_reference import empirical_marginals, exhaustive_stats, stack_moments
from source_reference import stack_bits


def model(lam=20.0, delta=0.05, ts=0.0125, n=4):
    return ChannelModel(lam, delta, ts, n)


class TestChannelModel:
    def test_violation_probability(self):
        assert model().violation_probability == pytest.approx(math.exp(-1.0))

    def test_from_violation_probability(self):
        cm = ChannelModel.from_violation_probability(0.1, 0.05, 0.0125, 6)
        assert cm.violation_probability == pytest.approx(0.1, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(0.0, 0.05, 0.0125, 4)
        with pytest.raises(ValueError):
            ChannelModel(20.0, 0.05, 0.0125, 0)
        with pytest.raises(ValueError):
            ChannelModel.from_violation_probability(1.5, 0.05, 0.0125, 4)

    def test_thresholds(self):
        thr = model(n=3).thresholds()
        assert thr[0, 0] == pytest.approx(0.05)
        assert thr[2, 0] == pytest.approx(0.05 + 2 * 0.0125)
        assert thr[0, 2] == -math.inf


class TestSampleAvailability:
    def test_deterministic(self):
        cm = model()
        assert np.array_equal(sample_availability_bits(cm, 1, 9),
                              sample_availability_bits(cm, 1, 9))

    def test_degenerate_zero_delays(self):
        bits = np.zeros(4)[None, :] <= model().thresholds()
        assert np.array_equal(bits, np.tril(np.ones((4, 4), dtype=bool)))

    def test_bool_lanes_equal_stack_reference(self):
        cm = ChannelModel.from_violation_probability(0.3, 0.05, 0.0125, 5)
        for seed in range(6):
            bits = sample_availability_bits(cm, 257, seed)
            assert bits.dtype == bool and bits.shape == (257, 5, 5)
            assert bits.transpose(1, 2, 0).flags.c_contiguous  # bits[:, i, j] contiguous
            assert np.array_equal(bits, stack_bits(cm, 257, seed))

    @pytest.mark.parametrize("chunk", [1, 64, 300])
    def test_chunked_draws_equal_one_draw(self, monkeypatch, chunk):
        # chunks of 1 to 60 frames (CHUNK_DRAWS // N), the last one short
        monkeypatch.setattr("rctc.channel.CHUNK_DRAWS", chunk)
        cm = ChannelModel.from_violation_probability(0.3, 0.05, 0.0125, 5)
        assert np.array_equal(sample_availability_bits(cm, 101, 4), stack_bits(cm, 101, 4))

    def test_out_equals_allocating_result(self):
        cm = ChannelModel.from_violation_probability(0.3, 0.05, 0.0125, 5)
        out = np.ones((5, 5, 300), dtype=bool).transpose(2, 0, 1)  # stale bits
        for seed in range(3):
            bits = sample_availability_bits(cm, 300, seed, out=out)
            assert bits is out
            assert np.array_equal(out, sample_availability_bits(cm, 300, seed))

    def test_true_filled_out_equals_stack_reference(self):
        # only the lanes with j <= i are compared: those above the diagonal
        # are cleared once per call, so stale True bits there do not survive
        cm = ChannelModel.from_violation_probability(0.3, 0.05, 0.0125, 6)
        out = np.ones((6, 6, 500), dtype=bool).transpose(2, 0, 1)
        assert sample_availability_bits(cm, 500, 11, out=out) is out
        assert np.array_equal(out, stack_bits(cm, 500, 11))
        assert not np.triu(out, 1).any()

    @pytest.mark.parametrize("out", [
        np.zeros((40, 4, 4), dtype=bool),  # C-ordered frames: bits[:, i, j] strided
        np.zeros((4, 4, 39), dtype=bool).transpose(2, 0, 1),
        np.zeros((4, 4, 40)).transpose(2, 0, 1),
        [[[False] * 4] * 4] * 40,
    ])
    def test_out_rejects_shape_dtype_and_layout(self, out):
        with pytest.raises(ValueError, match="^out must") as info:
            sample_availability_bits(model(), 40, 1, out=out)
        assert "\n" not in str(info.value)

    def test_near_certain_arrival(self):
        cm = ChannelModel(50 / 0.05, 0.05, 0.0125, 4)  # lambda * delta = 50
        for seed in range(20):
            bits = sample_availability_bits(cm, 1, seed)[0]
            assert np.array_equal(bits, np.tril(np.ones((4, 4))))

    def test_injected_delay_straddles_deadlines(self):
        cm = model()
        delays = np.zeros(4)
        delays[0] = cm.deadline + 0.5 * cm.sample_period
        bits = delays[None, :] <= cm.thresholds()
        assert not bits[0, 0]  # misses its own deadline
        assert bits[1, 0]  # one extra sample period suffices

    def test_monotone_columns_always(self):
        cm = ChannelModel.from_violation_probability(0.4, 0.05, 0.0125, 5)
        for seed in range(50):
            bits = sample_availability_bits(cm, 1, seed)[0]
            for j in range(5):
                assert np.all(bits[j + 1:, j] >= bits[j:-1, j])  # np.diff of bools is !=


class TestLossProbabilities:
    # the loss probability of index j at element i is 1 - E[b_ij]
    def test_diagonal(self):
        assert 1.0 - availability_marginals(model())[0, 0] == pytest.approx(math.exp(-1.0))

    def test_lag_one(self):
        assert 1.0 - availability_marginals(model())[1, 0] == pytest.approx(math.exp(-1.25))

    def test_constant_along_diagonals(self):
        lp = 1.0 - availability_marginals(model(n=5))
        for lag in range(5):
            band = np.diagonal(lp, -lag)
            assert_allclose(band, band[0])

    def test_decreasing_in_lag(self):
        lp = 1.0 - availability_marginals(model(n=5))
        col = lp[:, 0]
        assert np.all(np.diff(col) < 0)
        assert np.all((col > 0) & (col < 1))

    def test_fast_channel_limit(self):
        lp = 1.0 - availability_marginals(model(lam=1000.0))  # lambda * delta = 50
        assert np.all(lp[np.tril_indices(4)] < 1e-20)

    def test_marginals_complement(self):
        cm = model()
        marg = availability_marginals(cm)
        lower = np.tril_indices(4)
        assert_allclose(1.0 - marg[lower], np.exp(-cm.delay_rate * cm.thresholds()[lower]))
        assert np.all(marg[np.triu_indices(4, 1)] == 0.0)


class TestAvailabilityStats:
    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            availability_stats(model(), 0, 1)

    def test_a_channel_mode_argument_is_refused(self):
        # one delay per index is the only draw: a caller still naming a mode
        # fails loudly instead of having it read as another argument
        with pytest.raises(TypeError):
            availability_stats(model(), 10, 1, "montecarlo")
        with pytest.raises(TypeError):
            sample_availability_bits(model(), 10, 1, "montecarlo")

    def test_marginals_are_closed_form(self):
        cm = model()
        assert np.array_equal(availability_stats(cm, 100, 1).marginals,
                              availability_marginals(cm))

    def test_empirical_marginals_match(self):
        cm = ChannelModel.from_violation_probability(0.3, 0.05, 0.0125, 4)
        count = 10 ** 5
        stats = availability_stats(cm, count, 5)
        emp = empirical_marginals(stats)
        dev = np.abs(emp - stats.marginals)[np.tril_indices(4)]
        assert dev.max() < 0.01
        se = np.sqrt(stats.marginals * (1 - stats.marginals) / count)
        assert np.all(dev <= 4 * np.maximum(se[np.tril_indices(4)], 1e-12))

    def test_stats_keep_the_raw_draws(self):
        cm = ChannelModel.from_violation_probability(0.3, 0.05, 0.0125, 4)
        raw = sample_availability_bits(cm, 5000, 7)
        stats = availability_stats(cm, 5000, 7)
        assert np.array_equal(stats.realizations, raw)
        assert_allclose(empirical_marginals(stats), raw.mean(axis=0), atol=1e-12)

    def test_montecarlo_rows_monotone(self):
        cm = ChannelModel.from_violation_probability(0.4, 0.05, 0.0125, 4)
        stats = availability_stats(cm, 500, 3)
        for real in stats.realizations:
            for j in range(4):
                assert np.all(np.diff(real[j:, j]) >= 0)

    def test_joint_moment_tight_deadline(self):
        # with one delay per index, E[b_2j b_3j] equals the tighter marginal
        cm = ChannelModel.from_violation_probability(0.3, 0.05, 0.0125, 4)
        stats = availability_stats(cm, 2 * 10 ** 5, 11)
        joint = np.einsum("s,s->", stats.weights,
                          stats.realizations[:, 1, 0] * stats.realizations[:, 2, 0])
        tighter = stats.marginals[1, 0]
        se = math.sqrt(tighter * (1 - tighter) / (2 * 10 ** 5))
        assert abs(joint - tighter) <= 4 * se
        # per-realization monotone coupling makes the product equal the earlier bit
        prod = stats.realizations[:, 1, 0] * stats.realizations[:, 2, 0]
        assert np.array_equal(prod, stats.realizations[:, 1, 0])

    def test_near_lossless_all_ones(self):
        cm = ChannelModel(30 / 0.05, 0.05, 0.0125, 4)  # lambda * delta = 30
        stats = availability_stats(cm, 2000, 1)
        assert np.all(stats.realizations == np.tril(np.ones((4, 4))))


class TestExhaustiveStats:
    def test_counts_and_weights(self):
        stats = exhaustive_stats(model(n=2))
        assert stats.count == 2 ** 3
        assert stats.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_marginals_exact(self):
        stats = exhaustive_stats(model(n=3))
        assert_allclose(empirical_marginals(stats), stats.marginals, atol=1e-12)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_stats(model(n=7))


class TestStatsValidation:
    def test_weights_must_sum_to_one(self):
        cm = model(n=2)
        real = np.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            AvailabilityStats(cm, real, np.array([0.7, 0.7]), availability_marginals(cm))


class TestPairMoments:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_exhaustive_enumeration(self, n):
        stats = exhaustive_stats(ChannelModel.from_violation_probability(0.3, 0.05, 0.0125, n))
        real = stats.realizations
        ref = np.einsum("s,sia,sib->iab", stats.weights, real, real)
        assert np.abs(pair_moments(stats.marginals) - ref).max() <= 1e-15

    def test_zero_one_pattern_is_outer_product_of_rows(self):
        bits = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        M = pair_moments(bits)
        for i in range(3):
            assert np.array_equal(M[i], np.outer(bits[i], bits[i]))

    def test_stack_equals_its_slices(self):
        P = np.stack([availability_marginals(ChannelModel.from_violation_probability(
            p, 0.05, 0.0125, 5)) for p in (0.05, 0.3, 0.7)])
        M = pair_moments(P)
        assert M.shape == (3, 5, 5, 5)
        for b in range(3):
            assert np.array_equal(M[b], pair_moments(P[b]))


def random_ladder(rng, dim):
    return np.tril(rng.normal(scale=0.7, size=(dim, dim)), -1) + np.eye(dim)


class TestExactMoments:
    # each id's middle "1" is the block size, so the ids match those of earlier runs
    @pytest.mark.parametrize("n", [pytest.param(n, id=f"1-{n}") for n in (2, 3, 4, 5)])
    @pytest.mark.parametrize("weight", ["none", "kron"])
    def test_matches_exhaustive_stack_sum(self, n, weight):
        rng = np.random.default_rng(100 * n + 10 + len(weight))
        cm = ChannelModel.from_violation_probability(0.3, 0.05, 0.0125, n)
        stats = exhaustive_stats(cm)
        # the oracle takes any weight; an LQG error weight c I is the factor c on W
        c = 1.0 if weight == "none" else rng.normal() ** 2 + 0.5
        Ahat = random_ladder(rng, n)
        Ainv = np.linalg.inv(random_ladder(rng, n))
        mean_H, W = channel_moments(stats.marginals)(Ahat, Ainv)
        ref_H, ref_W = stack_moments(stats, None if weight == "none" else c * np.eye(n))(
            Ahat, Ainv)
        assert np.abs(mean_H - ref_H).max() <= 1e-12 * np.abs(ref_H).max()
        assert np.abs(c * W - ref_W).max() <= 1e-12 * np.abs(ref_W).max()

    def test_agrees_with_coupled_montecarlo_samples(self):
        # montecarlo bits share one delay per column; only same-row pairs enter
        n, batches, count = 5, 20, 20_000
        rng = np.random.default_rng(21)
        cm = ChannelModel.from_violation_probability(0.4, 0.05, 0.0125, n)
        Ahat = random_ladder(rng, n)
        Ainv = np.linalg.inv(random_ladder(rng, n))
        exact_H, exact_W = channel_moments(availability_marginals(cm))(Ahat, Ainv)
        draws = [stack_moments(availability_stats(cm, count, 500 + b))(Ahat, Ainv)
                 for b in range(batches)]
        for exact, index in ((exact_H, 0), (exact_W, 1)):
            values = np.asarray([d[index] for d in draws])
            mean = values.mean(axis=0)
            stderr = values.std(axis=0, ddof=1) / math.sqrt(batches)
            assert np.all(np.abs(mean - exact) <= 4 * stderr + 1e-12)

    def test_zero_one_pattern_is_one_certain_realization(self):
        rng = np.random.default_rng(5)
        cm = model(n=3)
        bits = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        stats = AvailabilityStats(cm, bits[None], np.ones(1), availability_marginals(cm))
        Ahat = random_ladder(rng, 3)
        Ainv = np.linalg.inv(random_ladder(rng, 3))
        for got, ref in zip(channel_moments(bits)(Ahat, Ainv),
                            stack_moments(stats)(Ahat, Ainv)):
            assert_allclose(got, ref, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("bad", ["vector", "rectangular", "negative", "above_one",
                                     "nan", "upper"])
    def test_malformed_marginals_rejected(self, bad):
        P = availability_marginals(model(n=3))
        P = {"vector": P[0], "rectangular": P[:, :2],
             "negative": P - np.tril(np.full((3, 3), 2.0)),
             "above_one": P + np.tril(np.ones((3, 3))),
             "nan": np.where(np.eye(3) == 1, np.nan, P),
             "upper": P + np.triu(np.full((3, 3), 0.5), 1)}[bad]
        with pytest.raises(ValueError):
            channel_moments(P)
        with pytest.raises(ValueError):
            pair_moments(P)
