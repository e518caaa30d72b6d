import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import ndtr, ndtri

import rctc.quantizers as quantizers
from rctc.quantizers import (MAX_LEVELS, RESIDUAL_TOL, InfeasibleRateError,
                             QuantizerBank, RateAllocation, ScalarCodebook,
                             allocate_rates, lloyd_max_gaussian)

from lloyd_reference import centroid_residual, distortion_mp, fixed_point_levels


class TestAllocateRates:
    def test_equal_variances(self):
        alloc = allocate_rates(np.full(4, 2.7), 5.0)
        assert_allclose(alloc.rates, 5.0)

    def test_hand_case(self):
        alloc = allocate_rates([4.0, 1.0], 2.0)
        assert_allclose(alloc.rates, [2.5, 1.5])

    def test_single_quantizer(self):
        assert_allclose(allocate_rates([0.37], 3.0).rates, [3.0])

    def test_mean_constraint_tight(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            var = rng.uniform(0.01, 100.0, size=rng.integers(1, 12))
            r = rng.uniform(-2, 12)
            alloc = allocate_rates(var, r)
            assert abs(np.mean(alloc.rates) - r) < 1e-12

    def test_invariant_under_common_scaling(self):
        var = np.array([0.5, 2.0, 7.0])
        a = allocate_rates(var, 4.0)
        b = allocate_rates(123.456 * var, 4.0)
        assert_allclose(a.rates, b.rates, atol=1e-12)

    def test_round_trip_identity(self):
        var = np.array([0.5, 2.0, 7.0, 0.03])
        alloc = allocate_rates(var, 6.0)
        # the defining identity reproduces the variances up to common scale
        geo = np.exp2(np.mean(np.log2(var)))
        assert_allclose(np.exp2(2 * (alloc.rates - 6.0)) * geo, var, rtol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            allocate_rates([1.0, -1.0], 2.0)
        with pytest.raises(ValueError):
            allocate_rates([], 2.0)


class TestRateAllocation:
    @pytest.mark.parametrize("rates, variances, average", [
        ([math.nan, 5.0], [1.0, 1.0], 5.0),
        ([math.inf, 5.0], [1.0, 1.0], 5.0),
        ([5.0, 5.0], [1.0, math.nan], 5.0),
        ([5.0, 5.0], [math.inf, 1.0], 5.0),
        ([5.0, 5.0], [-1.0, -1.0], 5.0),
        ([5.0, 5.0], [1.0, 1.0], math.nan),
    ], ids=["nan_rate", "inf_rate", "nan_variance", "inf_variance", "negative_variance",
            "nan_average"])
    @pytest.mark.parametrize("clamped", [False, True], ids=["unclamped", "clamped"])
    def test_rejects_invalid_entries(self, rates, variances, average, clamped):
        with pytest.raises(ValueError) as info:
            RateAllocation(np.array(rates), np.array(variances), average, clamped)
        assert "finite" in str(info.value) and "\n" not in str(info.value)


class TestRateFloor:
    def test_closed_form_when_feasible(self):
        alloc = allocate_rates([1.0, 2.0], 5.0, min_rate=0.0)
        assert np.array_equal(alloc.rates, allocate_rates([1.0, 2.0], 5.0).rates)
        assert not alloc.clamped

    def test_hand_case(self):
        # variances chosen so the unclamped rates come out at (-0.5, 4.5)
        variances = [2.0 ** -5, 2.0 ** 5]
        assert_allclose(allocate_rates(variances, 2.0).rates, [-0.5, 4.5])
        clamped = allocate_rates(variances, 2.0, min_rate=0.0)
        assert_allclose(clamped.rates, [0.0, 4.0])
        assert clamped.clamped

    def test_infeasible(self):
        with pytest.raises(InfeasibleRateError):
            allocate_rates(np.ones(2), 1.0, min_rate=2.0)

    def test_floor_and_mean_preserving(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            var = rng.uniform(1e-6, 10.0, size=rng.integers(2, 10))
            r = rng.uniform(0.5, 4.0)
            alloc = allocate_rates(var, r, 0.0)
            assert np.all(alloc.rates >= 0.0)
            assert np.mean(alloc.rates) == pytest.approx(r, abs=1e-12)

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
    def test_kkt_conditions(self, r):
        # the free quantizers share one distortion var_i 2^(-2 r_i), and a
        # held one's distortion at the floor is at most that
        rng = np.random.default_rng(7)
        held_counts = set()
        for _ in range(50):
            var = np.exp(rng.uniform(-6.0, 3.0, size=rng.integers(2, 10)))
            alloc = allocate_rates(var, r, 0.0)
            held = alloc.rates == 0.0
            held_counts.add(int(held.sum()))
            distortion = var[~held] * 2.0 ** (-2.0 * alloc.rates[~held])
            assert_allclose(distortion, distortion[0], rtol=1e-12)
            assert np.all(var[held] <= distortion[0] * (1 + 1e-12))
            assert np.mean(alloc.rates) == pytest.approx(r, abs=1e-12)
        assert max(held_counts) >= 2  # some instances hold more than one quantizer


class TestNoiseModel:
    def test_fine_quantization_limit(self):
        bank = QuantizerBank.modeled(np.full(3, 60.0), np.ones(3))
        assert np.all(bank.noise_variances < 1e-30)

    def test_direct_evaluation(self):
        bank = QuantizerBank.modeled([5.0], [1.0], noise_constant=1.0)
        assert bank.noise_variances[0] == pytest.approx(2.0 ** -10, rel=1e-12)

    def test_lloyd_max_constant(self):
        bank = QuantizerBank.modeled([5.0], [1.0], noise_constant=2.721)
        assert bank.noise_variances[0] == pytest.approx(2.657e-3, rel=1e-3)

    def test_diagonal_psd(self):
        bank = QuantizerBank.modeled([1.0, 2.0, 3.0], [0.5, 1.5, 2.5], 1.7)
        assert np.all(bank.noise_variances > 0)

    def test_total_distortion_identity(self):
        var = np.array([0.4, 3.0, 11.0])
        r = 4.0
        c = 1.3
        alloc = allocate_rates(var, r)
        total = np.sum(c * np.exp2(-2 * alloc.rates) * var)
        geo = np.exp(np.mean(np.log(var)))
        assert total == pytest.approx(3 * c * 2.0 ** (-2 * r) * geo, rel=1e-12)

    def test_allocation_beats_perturbations(self):
        var = np.array([0.4, 3.0, 11.0])
        alloc = allocate_rates(var, 4.0)
        best = np.sum(np.exp2(-2 * alloc.rates) * var)
        rng = np.random.default_rng(7)
        for _ in range(200):
            delta = rng.normal(size=3)
            delta -= delta.mean()  # keep the same mean rate
            other = np.sum(np.exp2(-2 * (alloc.rates + delta)) * var)
            assert other >= best - 1e-15


def lloyd_max_jacobian(levels):
    """Dense Jacobian of the centroid conditions F_k = y_k mass_k - (phi(e_{k-1}) - phi(e_k))."""
    edges = 0.5 * (levels[1:] + levels[:-1])
    pdf = np.exp(-0.5 * edges ** 2) / np.sqrt(2 * np.pi)
    mass = np.diff(np.concatenate(([0.0], ndtr(edges), [1.0])))
    upper = 0.5 * pdf * (levels[:-1] - edges)  # dF_k/dy_{k+1}
    lower = 0.5 * pdf * (edges - levels[1:])   # dF_{k+1}/dy_k
    return (np.diag(mass + np.append(upper, 0.0) + np.append(0.0, lower))
            + np.diag(upper, 1) + np.diag(lower, -1))


class TestNumericKernels:
    """The in-house replacements of scipy's solve_banded, ndtr and ndtri."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 17, 64, 1000, 1025])
    def test_tridiagonal_solve_matches_dense_on_dominant_systems(self, n):
        rng = np.random.default_rng(n)
        lower, upper, rhs = rng.normal(size=(3, n))
        diag = (np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 1.0, n)) * rng.choice([-1, 1], n)
        T = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        x = quantizers._solve_tridiagonal(lower, diag, upper, rhs)
        assert_allclose(x, np.linalg.solve(T, rhs), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_levels", [2, 3, 8, 64, 255, 1024])
    @pytest.mark.parametrize("where", ["start", "trained"])
    def test_tridiagonal_solve_matches_dense_on_lloyd_max_jacobians(self, n_levels, where):
        if where == "start":
            levels = ndtri((np.arange(n_levels) + 0.5) / n_levels)
        else:
            levels = lloyd_max_gaussian(n_levels)[0]
        J = lloyd_max_jacobian(levels)
        rhs = np.random.default_rng(n_levels).normal(size=n_levels)
        x = quantizers._solve_tridiagonal(np.append(0.0, np.diag(J, -1)), np.diag(J),
                                          np.append(np.diag(J, 1), 0.0), rhs)
        dense = np.linalg.solve(J, rhs)
        assert_allclose(x, dense, rtol=0, atol=1e-10 * np.abs(dense).max())

    def test_normal_cdf_matches_ndtr(self):
        x = np.linspace(-40.0, 40.0, 160_001)
        below, above = quantizers._norm_cdf(x)
        for got, ref in ((below, ndtr(x)), (above, ndtr(-x))):
            # libm's erfc and scipy's ndtr both carry a relative error that
            # grows like x^2 ulp in the tails; below the smallest normal
            # number each keeps only absolute precision
            bound = 4.0 * (1.0 + x * x) * np.spacing(ref) + 1e-2 * np.finfo(float).tiny
            assert np.all(np.abs(got - ref) <= bound)
        central = np.abs(x) <= 1.0
        assert np.all(np.abs(below - ndtr(x))[central] <= 4 * np.spacing(ndtr(x))[central])

    @pytest.mark.parametrize("n_levels", [2, 3, 7, 64, 1000, 2 ** 16])
    def test_quantile_start_matches_ndtri(self, n_levels):
        got = quantizers._quantile_levels(n_levels)
        ref = ndtri((np.arange(n_levels) + 0.5) / n_levels)
        assert np.all(np.abs(got - ref) <= 8 * np.spacing(np.abs(ref)))


class TestLloydMax:
    def test_one_level(self):
        levels, mse = lloyd_max_gaussian(1)
        assert_allclose(levels, [0.0])
        assert mse == pytest.approx(1.0)

    def test_two_levels(self):
        levels, mse = lloyd_max_gaussian(2)
        assert_allclose(levels, [-math.sqrt(2 / math.pi), math.sqrt(2 / math.pi)],
                        rtol=1e-9)
        assert mse == pytest.approx(1 - 2 / math.pi, rel=1e-9)

    def test_distortion_decreases_with_levels(self):
        mses = [lloyd_max_gaussian(2 ** k)[1] for k in range(6)]
        assert all(b < a for a, b in zip(mses, mses[1:]))

    def test_constant_approaches_high_rate_limit(self):
        # pi*sqrt(3)/2 is the asymptotic Gaussian Lloyd-Max constant
        c = lloyd_max_gaussian(256)[1] * 256 ** 2
        assert c == pytest.approx(math.pi * math.sqrt(3) / 2, rel=0.03)

    # Max (1960), Table I: the positive output levels and the mean squared
    # error, each within one unit of the table's last digit (the table
    # truncates: the 8-level error is 0.034548)
    @pytest.mark.parametrize("n_levels, table, units, mse, mse_unit", [
        (4, [0.4528, 1.510], [1e-4, 1e-3], 0.1175, 1e-4),
        (8, [0.2451, 0.7560, 1.344, 2.152], [1e-4, 1e-4, 1e-3, 1e-3], 0.03454, 1e-5),
    ])
    def test_matches_max_table(self, n_levels, table, units, mse, mse_unit):
        levels, got = lloyd_max_gaussian(n_levels)
        expected = np.concatenate((-np.asarray(table[::-1]), table))
        assert np.all(np.abs(levels - expected) <= np.concatenate((units[::-1], units)))
        assert got == pytest.approx(mse, abs=mse_unit)

    @pytest.mark.parametrize("n_levels", [2, 3, 4, 5, 7, 8, 16, 32, 64, 128])
    def test_matches_fixed_point_reference(self, n_levels):
        levels, _ = lloyd_max_gaussian(n_levels)
        assert_allclose(levels, fixed_point_levels(n_levels), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n_levels", [3, 128, 2048])
    def test_distortion_matches_40_digit_cells(self, n_levels):
        # expanding (x - y)^2 over a narrow cell cancels digits: 1.1e-12 at
        # 128 levels and 4.3e-11 at 2,048 before the per-cell quadrature
        levels, mse = lloyd_max_gaussian(n_levels)
        assert mse == pytest.approx(distortion_mp(levels), rel=3e-14, abs=0)

    def test_tabulated_rule_is_leggauss_16(self):
        # only this test loads numpy.polynomial
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(quantizers._GL_NODES, nodes)
        assert np.array_equal(quantizers._GL_WEIGHTS, weights)

    @pytest.mark.parametrize("n_levels", [64, 128])  # the realized bench workload's
    def test_codebook_equals_the_one_trained_on_leggauss_16(self, monkeypatch, n_levels):
        levels, mse = lloyd_max_gaussian(n_levels)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        monkeypatch.setattr(quantizers, "_GL_NODES", nodes)
        monkeypatch.setattr(quantizers, "_GL_WEIGHTS", weights)
        reference_levels, reference_mse = lloyd_max_gaussian(n_levels)
        assert np.array_equal(levels, reference_levels)
        assert mse == reference_mse

    def test_residual_bound_within_30_steps_up_to_the_cap(self, monkeypatch):
        # Newton converges quadratically; a wrong Jacobian entry makes it linear
        # and runs out of these steps
        monkeypatch.setattr(quantizers, "NEWTON_STEPS", 30)
        for n_levels in 2 ** np.arange(1, int(math.log2(MAX_LEVELS)) + 1):
            levels, _ = lloyd_max_gaussian(int(n_levels))
            assert np.all(np.diff(levels) > 0.0)
            assert centroid_residual(levels) <= RESIDUAL_TOL, n_levels

    def test_unmet_residual_bound_raises(self, monkeypatch):
        monkeypatch.setattr(quantizers, "NEWTON_STEPS", 1)
        with pytest.raises(ArithmeticError, match="64 levels") as info:
            lloyd_max_gaussian(64)
        message = str(info.value)
        assert "residual" in message and "\n" not in message

    def test_monte_carlo_distortion_matches_design(self):
        levels, mse = lloyd_max_gaussian(2 ** 5)
        book = ScalarCodebook(levels, mse)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10 ** 6)
        _, rec = book.quantize_array(x)
        empirical = np.mean((x - rec) ** 2)
        assert empirical == pytest.approx(mse, rel=0.10)
        assert empirical == pytest.approx(mse, rel=0.02)  # typically much tighter


def edge_inputs(book: ScalarCodebook) -> np.ndarray:
    """Every boundary and both its float neighbours, every level, and the extremes."""
    b = book.boundaries
    extremes = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
    return np.concatenate([b, np.nextafter(b, -math.inf), np.nextafter(b, math.inf),
                           book.levels, extremes])


def assert_exact_lookup(book: ScalarCodebook, x: np.ndarray) -> None:
    """quantize_array agrees with searchsorted, of the array and of a spread of scalars."""
    expected = np.searchsorted(book.boundaries, x)
    indices, codewords = book.quantize_array(x)
    assert np.array_equal(indices, expected)
    assert np.array_equal(codewords, book.levels[expected])
    for value, index in zip(x[::max(1, x.size // 2000)], expected[::max(1, x.size // 2000)]):
        assert np.searchsorted(book.boundaries, float(value)) == index


# levels -1000 and 1000 around five within 0.004 of 100: the cell of about 71
# that holds 100 holds four boundaries, so the lookup takes four passes
CLUSTERED = ScalarCodebook(
    np.array([-1000.0, 100.0, 100.001, 100.002, 100.003, 100.004, 1000.0]), 1.0)


class TestScalarCodebook:
    def build(self):
        levels, mse = lloyd_max_gaussian(8)
        return ScalarCodebook(levels, mse)

    def test_codeword_fixed_point(self):
        book = self.build()
        idx, rec = book.quantize_array(book.levels)
        assert np.array_equal(idx, np.arange(book.size))
        assert np.array_equal(rec, book.levels)

    def test_saturation(self):
        book = self.build()
        idx, rec = book.quantize_array(np.array([math.inf, -math.inf]))
        assert idx.tolist() == [7, 0]
        assert rec.tolist() == [book.levels[-1], book.levels[0]]

    @pytest.mark.parametrize("levels", [[0.0, math.nan, 1.0], [-math.inf, 0.0, math.inf]])
    def test_non_finite_levels_rejected(self, levels):
        bad = next(i for i, v in enumerate(levels) if not math.isfinite(v))
        with pytest.raises(ValueError) as info:
            ScalarCodebook(np.array(levels), 1.0)
        assert str(info.value) == f"level {bad} is {levels[bad]:g}: levels must be finite"

    def test_overflowing_boundaries_rejected(self):
        # finite levels whose midpoint 0.5 (1e308 + 1.7e308) overflows
        with pytest.raises(ValueError) as info:
            ScalarCodebook(np.array([-1e308, 1e308, 1.7e308]), 1.0)
        assert str(info.value) == ("the boundaries of levels -1e+308 .. 1.7e+308 "
                                   "do not span a finite range")

    @pytest.mark.parametrize("mse", [math.nan, -1.0, math.inf])
    def test_bad_mse_rejected(self, mse):
        with pytest.raises(ValueError) as info:
            ScalarCodebook(np.array([-1.0, 1.0]), mse)
        assert str(info.value) == f"mse must be finite and non-negative, got {mse:g}"

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0])
    def test_bad_scale_rejected(self, sigma):
        with pytest.raises(ValueError) as info:
            self.build().scaled(sigma)
        assert str(info.value) == f"sigma must be finite and positive, got {sigma:g}"

    @pytest.mark.parametrize("scale", [1e-300, 1e-6, 1.0, 1e6, 1e300])
    @pytest.mark.parametrize("n_levels", [1, 2, 3, 64, 128, 1024, MAX_LEVELS])
    def test_lookup_equals_searchsorted_on_lloyd_max_books(self, n_levels, scale):
        # built directly: the design distortion would overflow at 1e300
        book = ScalarCodebook(quantizers._unit_codebook(n_levels).levels * scale, 1.0)
        assert_exact_lookup(book, edge_inputs(book))

    def test_lookup_passes_of_the_trained_books(self):
        # one pass up to 128 levels, two at 1,024; the clustered book needs four
        passes = {n: quantizers._unit_codebook(n).scaled(1.0)._table.passes
                  for n in (2, 3, 64, 128, 1024)}
        assert passes == {2: 1, 3: 1, 64: 1, 128: 1, 1024: 2}
        assert CLUSTERED._table.passes == 4
        assert_exact_lookup(CLUSTERED, edge_inputs(CLUSTERED))

    @pytest.mark.parametrize("chunk", [7, quantizers.LOOKUP_CHUNK])
    def test_lookup_in_place_and_in_chunks(self, monkeypatch, chunk):
        # encode_batch passes a lane as both values and out: every value must
        # be read before its codeword is written
        monkeypatch.setattr(quantizers, "LOOKUP_CHUNK", chunk)
        book = quantizers._unit_codebook(64).scaled(2.0)
        x = np.random.default_rng(5).standard_normal(2 * quantizers.LOOKUP_CHUNK + 3) * 3.0
        expected = book.levels[np.searchsorted(book.boundaries, x)]
        same = x.copy()
        book.quantize_array(same, out=same)
        assert np.array_equal(same, expected)
        lanes = np.stack([x, x])  # a view of the same memory, as encode_batch makes it
        book.quantize_array(lanes[1], out=lanes[1, :])
        assert np.array_equal(lanes[1], expected)
        assert np.array_equal(lanes[0], x)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_lookup_of_a_matrix(self, order):
        book = CLUSTERED
        x = np.asarray(edge_inputs(book)[:-1].reshape(3, -1), order=order)
        indices, codewords = book.quantize_array(x)
        assert indices.shape == x.shape
        assert np.array_equal(indices, np.searchsorted(book.boundaries, x))
        out = np.empty((x.shape[1], x.shape[0])).T  # a strided out
        assert book.quantize_array(x, out=out)[1] is out
        assert np.array_equal(out, codewords)
        assert book.quantize_array(np.empty((0, 3)))[0].shape == (0, 3)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40,
                unique=True),
       st.lists(st.floats(), max_size=40))
def test_lookup_equals_searchsorted_property(levels, values):
    # any finite levels, from subnormal to near-overflow spacings, and any floats
    levels = np.sort(np.array(levels))
    assume(np.all(levels[1:] > levels[:-1]))  # -0.0 and 0.0 are one level
    try:
        book = ScalarCodebook(levels, 1.0)
    except ValueError:
        assume(False)  # midpoints that overflow
    assert_exact_lookup(book, np.concatenate([edge_inputs(book), values]))


class TestQuantizerBank:
    def test_average_rate(self):
        bank = QuantizerBank.modeled([1.0, 2.0, 6.0], np.ones(3))
        assert bank.average_rate == pytest.approx(3.0, abs=1e-12)

    def test_realized_rates_and_discrepancy(self):
        bank = QuantizerBank.lloyd_max([1.4, 2.6], [1.0, 1.0])
        assert_allclose(bank.realized_rates, [1.0, 3.0])
        assert bank.rate_discrepancy == pytest.approx(0.0, abs=1e-12)

    def test_realized_noise_uses_design_distortion(self):
        bank = QuantizerBank.lloyd_max([3.0, 3.0], [1.0, 4.0])
        assert bank.noise_variances[1] == pytest.approx(4.0 * bank.codebooks[0].mse)

    def test_variance_count_must_match_rates(self):
        for variances in ([1.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]):
            with pytest.raises(ValueError, match="input_variances"):
                QuantizerBank.modeled([1.0, 2.0], variances)
        assert QuantizerBank.modeled([1.0, 2.0], [1.0, 2.0]).count == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantizerBank.modeled([1.0, 1.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            QuantizerBank.modeled([], [])

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [QuantizerBank.modeled, QuantizerBank.lloyd_max],
                             ids=["modeled", "lloyd_max"])
    def test_non_finite_rate_rejected(self, make, rate):
        with pytest.raises(ValueError) as info:
            make([2.0, rate], [1.0, 1.0])
        assert str(info.value) == f"quantizer 1 has rate {rate:g}: a rate must be finite"

    @pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [QuantizerBank.modeled, QuantizerBank.lloyd_max],
                             ids=["modeled", "lloyd_max"])
    def test_non_finite_input_variance_rejected(self, make, variance):
        with pytest.raises(ValueError) as info:
            make([5.0, 5.0], [1.0, variance])
        assert str(info.value) == (f"quantizer 1 has input variance {variance:g}: an input "
                                   f"variance must be finite and positive")

    @pytest.mark.parametrize("constant", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("make", [QuantizerBank.modeled, QuantizerBank.lloyd_max],
                             ids=["modeled", "lloyd_max"])
    def test_bad_noise_constant_rejected(self, make, constant):
        with pytest.raises(ValueError) as info:
            make([5.0, 5.0], [1.0, 1.0], constant)
        assert str(info.value) == (f"noise_constant must be finite and positive, "
                                   f"got {constant:g}")

    @pytest.mark.parametrize("rate", [40.0, 16.6])
    def test_level_cap_refuses_before_training(self, monkeypatch, rate):
        # slot 0 alone would train; the cap is checked for every slot first
        trained = []
        monkeypatch.setattr(quantizers, "lloyd_max_gaussian", trained.append)
        quantizers._unit_codebook.cache_clear()
        try:
            with pytest.raises(ValueError) as info:
                QuantizerBank.lloyd_max([2.0, rate], [1.0, 1.0])
        finally:
            quantizers._unit_codebook.cache_clear()
        assert str(info.value) == (f"quantizer 1 has rate {rate:g}: 2^{round(rate)} "
                                   f"levels exceed the cap of {MAX_LEVELS}")
        assert trained == []

    def test_each_level_count_trained_once(self, monkeypatch):
        trained = []

        def counting(n_levels):
            trained.append(n_levels)
            return lloyd_max_gaussian(n_levels)

        monkeypatch.setattr(quantizers, "lloyd_max_gaussian", counting)
        quantizers._unit_codebook.cache_clear()
        try:
            first = QuantizerBank.lloyd_max([2.2, 3.0, 1.6, 2.9], [1.0, 2.0, 0.5, 4.0])
            second = QuantizerBank.lloyd_max([3.0, 2.0], [9.0, 1.0])
            unit = quantizers._unit_codebook(8)
        finally:
            quantizers._unit_codebook.cache_clear()
        assert sorted(trained) == [4, 8]
        levels, mse = lloyd_max_gaussian(8)
        assert np.array_equal(first.codebooks[1].levels, levels * math.sqrt(2.0))
        assert np.array_equal(second.codebooks[0].levels, levels * 3.0)
        assert second.codebooks[0].mse == mse * 9.0
        # every bank shares the cached unit codebook, so it cannot be written
        assert not unit.levels.flags.writeable and not unit.boundaries.flags.writeable
        with pytest.raises(ValueError):
            unit.levels[0] = 0.0
