import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rctc.channel import ChannelModel, channel_moments, sample_availability_bits
from rctc.codec import (CausalTransform, decode_batch, encode_batch, plt_design,
                        quantizer_input_variances, transform_from_text, transform_to_text)
from rctc.design import unpack_parameters
from rctc.quantizers import QuantizerBank
from rctc.sources import ar1_covariance

from codec_reference import decode, encode
from source_reference import stack_encode


def random_transform(n, rng, kind="full", scale=0.5):
    if kind == "toeplitz":
        enc = rng.normal(scale=scale, size=n - 1)
        dec = rng.normal(scale=scale, size=n - 1)
        return unpack_parameters(enc, dec, "toeplitz", n)
    enc = np.zeros((n, n))
    dec = np.zeros((n, n))
    for j in range(1, n):
        for i in range(j):
            enc[j, i] = rng.normal(scale=scale)
            dec[j, i] = rng.normal(scale=scale)
    return CausalTransform("full", n, enc, dec)


def matched(t):
    """The full transform whose decoder is t's encoder."""
    return CausalTransform("full", t.frame_length, t.encoder_coeffs, t.encoder_coeffs)


def full_bits(n):
    return np.tril(np.ones((n, n)))


def equivalent_channel(t, bits):
    """H = (Ahat o B) inv(A) of one 0/1 pattern B, as channel_moments gives it."""
    _, Ahat = t.assemble()
    return channel_moments(bits)(Ahat, t.encoder_inverse())[0]


class TestAssemble:
    def test_identity(self):
        t = CausalTransform.identity(4)
        A, Ahat = t.assemble()
        assert np.array_equal(A, np.eye(4))
        assert np.array_equal(Ahat, np.eye(4))

    def test_toeplitz_row_placement(self):
        t = unpack_parameters([0.9, 0.2], [0.9, 0.2], "toeplitz", 3)
        A, _ = t.assemble()
        assert_allclose(A[2], [0.2, 0.9, 1.0])

    def test_unit_determinant(self):
        rng = np.random.default_rng(0)
        for kind in ("full", "toeplitz"):
            t = random_transform(5, rng, kind)
            A, Ahat = t.assemble()
            assert np.linalg.det(A) == pytest.approx(1.0, rel=1e-10)
            assert np.linalg.det(Ahat) == pytest.approx(1.0, rel=1e-10)

    def test_validation(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 0.5  # above the diagonal
        with pytest.raises(ValueError):
            CausalTransform("full", 3, bad, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            CausalTransform("nope", 3, np.zeros((3, 3)), np.zeros((3, 3)))
        nontoe = np.zeros((3, 3))
        nontoe[1, 0] = 0.5
        nontoe[2, 1] = 0.6
        with pytest.raises(ValueError):
            CausalTransform("toeplitz", 3, nontoe, nontoe)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["identity", "full", "toeplitz", "plt"])
    def test_rejects_non_finite_coefficient(self, kind, value):
        bad = np.zeros((3, 3))
        bad[2, 0] = value
        for coeffs in ((bad, np.zeros((3, 3))), (np.zeros((3, 3)), bad)):
            with pytest.raises(ValueError, match="must be finite") as info:
                CausalTransform(kind, 3, *coeffs)
            assert "\n" not in str(info.value)


class TestPltDesign:
    def test_identity_covariance(self):
        t, d = plt_design(np.eye(4))
        A, Ahat = t.assemble()
        assert np.array_equal(A, np.eye(4))
        assert np.array_equal(Ahat, np.eye(4))
        assert_allclose(d, np.ones(4))

    def test_ar1_two(self):
        t, d = plt_design(ar1_covariance(0.9, 1.0, 2))
        A, _ = t.assemble()
        assert A[1, 0] == pytest.approx(0.9, abs=1e-14)
        assert_allclose(d, [1.0, 0.19], atol=1e-14)

    def test_ar1_three(self):
        t, d = plt_design(ar1_covariance(0.9, 1.0, 3))
        A, _ = t.assemble()
        assert A[2, 1] == pytest.approx(0.9, abs=1e-13)
        assert A[2, 0] == pytest.approx(0.81, abs=1e-13)
        assert d[2] == pytest.approx(0.19, abs=1e-13)
        assert_allclose(t.encoder_inverse()[2], [0.0, -0.9, 1.0], atol=1e-13)

    def test_decoder_equals_encoder(self):
        t, _ = plt_design(ar1_covariance(0.7, 2.0, 5))
        assert np.array_equal(t.encoder_coeffs, t.decoder_coeffs)

    def test_decorrelates_inputs(self):
        K = ar1_covariance(0.9, 1.0, 5)
        t, d = plt_design(K)
        K_d = t.encoder_inverse() @ K @ t.encoder_inverse().T
        assert_allclose(K_d, np.diag(d), atol=1e-12)

    def test_factor_ar1_two_by_two(self):
        t, d = plt_design(np.array([[1.0, 0.9], [0.9, 1.0]]))
        L, _ = t.assemble()
        assert_allclose(L, [[1.0, 0.0], [0.9, 1.0]], atol=1e-15)
        assert_allclose(d, [1.0, 0.19], atol=1e-15)

    def test_factor_ar1_three_by_three(self):
        # prediction coefficients of the AR(1) covariance: lag-k entry is rho^k
        t, d = plt_design(np.array([[1.0, 0.9, 0.81], [0.9, 1.0, 0.9], [0.81, 0.9, 1.0]]))
        L, _ = t.assemble()
        assert_allclose(L[2], [0.81, 0.9, 1.0], atol=1e-14)
        assert_allclose(d, [1.0, 0.19, 0.19], atol=1e-14)

    def test_factor_reconstructs_random_spd(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 5, 8):
            A = rng.normal(size=(n, n))
            K = A @ A.T + n * np.eye(n)
            t, d = plt_design(K)
            L, _ = t.assemble()
            assert_allclose(L @ np.diag(d) @ L.T, K, rtol=1e-12, atol=1e-12)
            assert_allclose(np.triu(L, 1), 0.0)
            assert_allclose(np.diag(L), 1.0)
            assert np.all(d > 0)

    def test_factor_rejects_indefinite_and_singular(self):
        with pytest.raises(ValueError):
            plt_design(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            plt_design(np.zeros((2, 2)))


class TestEncode:
    def test_identity_zero_noise(self):
        t = CausalTransform.identity(4)
        x = np.array([1.0, -2.0, 3.0, 0.5])
        frame = encode(x, t)
        assert np.array_equal(frame.codevalues, x)
        assert frame.indices is None

    def test_hand_ladder(self):
        coeffs = np.zeros((2, 2))
        coeffs[1, 0] = 0.9
        t = CausalTransform("full", 2, coeffs, coeffs.copy())
        frame = encode(np.array([1.0, 0.9]), t)
        assert_allclose(frame.codevalues, [1.0, 0.0], atol=1e-15)

    def test_ladder_identity_zero_noise(self):
        rng = np.random.default_rng(2)
        for kind in ("full", "toeplitz"):
            t = random_transform(5, rng, kind)
            A, _ = t.assemble()
            x = rng.normal(size=5)
            frame = encode(x, t)
            assert_allclose(A @ frame.codevalues, x, atol=1e-12)

    def test_ladder_identity_with_noise(self):
        rng = np.random.default_rng(3)
        t = random_transform(4, rng)
        A, _ = t.assemble()
        bank = QuantizerBank.modeled(np.full(4, 3.0), np.ones(4))
        x = rng.normal(size=4)
        frame = encode(x, t, bank, rng=np.random.default_rng(0))
        q = frame.codevalues - frame.quantizer_inputs
        assert_allclose(A @ frame.codevalues, x + q, atol=1e-12)

    def test_causality(self):
        rng = np.random.default_rng(4)
        t = random_transform(6, rng)
        x = rng.normal(size=6)
        base = encode(x, t)
        for k in range(6):
            bumped = x.copy()
            bumped[k] += 1.0
            out = encode(bumped, t)
            assert np.array_equal(out.codevalues[:k], base.codevalues[:k])
            assert out.codevalues[k] != base.codevalues[k]

    def test_realized_indices(self):
        t = CausalTransform.identity(3)
        bank = QuantizerBank.lloyd_max(np.full(3, 3.0), np.ones(3))
        frame = encode(np.array([0.0, 10.0, -10.0]), t, bank)
        assert frame.indices.shape == (3,)
        assert frame.indices[1] == 7 and frame.indices[2] == 0

    def test_modeled_requires_rng(self):
        t = CausalTransform.identity(2)
        bank = QuantizerBank.modeled([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            encode(np.zeros(2), t, bank)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            encode(np.zeros(3), CausalTransform.identity(4))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_batch_matches_scalar(self, sparse):
        rng = np.random.default_rng(5)
        t = random_transform(5, rng)
        if sparse:  # the batch skips zero coefficients, the scalar ladder adds them
            enc = np.where(rng.random((5, 5)) < 0.5, 0.0, t.encoder_coeffs)
            t = CausalTransform("full", 5, enc, t.decoder_coeffs)
        frames = rng.normal(size=(20, 5))
        frames[::3, 2] = -0.0
        bank = QuantizerBank.lloyd_max(np.full(5, 3.0), np.ones(5))
        for order in "CF":
            codes, inputs = encode_batch(np.asarray(frames, order=order), t, bank)
            for f in range(20):
                single = encode(frames[f], t, bank)
                assert np.array_equal(codes[f], single.codevalues)
                assert np.array_equal(inputs[f], single.quantizer_inputs)
                assert np.array_equal(np.signbit(inputs[f]), np.signbit(single.quantizer_inputs))

    @pytest.mark.parametrize("shape", [(3,), (5, 4), (5, 3, 1)])
    def test_batch_rejects_frames_shape(self, shape):
        with pytest.raises(ValueError, match="frames must have shape"):
            encode_batch(np.zeros(shape), CausalTransform.identity(3))

    @pytest.mark.parametrize("bank_kind", ["none", "modeled", "codebooks"])
    @pytest.mark.parametrize("kind", ["full", "toeplitz"])
    def test_batch_out_equals_allocating_result(self, bank_kind, kind):
        rng = np.random.default_rng(8)
        t = random_transform(5, rng, kind)
        lanes = rng.normal(size=(5, 300))  # frames as the harness holds them
        bank = {"none": None,
                "modeled": QuantizerBank.modeled(np.full(5, 3.0), np.ones(5)),
                "codebooks": QuantizerBank.lloyd_max(np.full(5, 3.0), np.ones(5))}[bank_kind]
        out = np.full((5, 300), np.nan).T  # stale codevalues
        # each element's noise as one lane, drawn in the order the reference draws it
        noise = np.random.default_rng(2).standard_normal((5, 300))
        drawn = noise.copy()
        for frames in (lanes.T, np.ascontiguousarray(lanes.T)):
            codes, inputs = encode_batch(frames, t, bank, noise.T)
            result = encode_batch(frames, t, bank, noise.T, out=out)
            assert result[0] is out and result[1] is None
            assert np.array_equal(out, codes)
            assert np.array_equal(noise, drawn)  # the noise lanes are only read
            if bank is None:
                assert np.array_equal(inputs, codes)
            else:  # the same arithmetic as the ladder of fresh arrays
                assert np.array_equal(codes, stack_encode(frames, t, bank,
                                                          np.random.default_rng(2)))

    @pytest.mark.parametrize("noise", [None, np.zeros((40, 2)), np.zeros((39, 3))])
    def test_batch_modeled_needs_noise_of_the_frames_shape(self, noise):
        bank = QuantizerBank.modeled([1.0] * 3, [1.0] * 3)
        with pytest.raises(ValueError, match="noise"):
            encode_batch(np.zeros((40, 3)), CausalTransform.identity(3), bank, noise)

    @pytest.mark.parametrize("out", [
        np.zeros((40, 3)),  # C-ordered: each element's lane strided
        np.zeros((3, 39)).T,
        np.zeros((3, 40), dtype=np.float32).T,
        np.zeros((40, 3, 1)),
    ])
    def test_batch_out_rejects_shape_dtype_and_layout(self, out):
        with pytest.raises(ValueError, match="^out must") as info:
            encode_batch(np.zeros((40, 3)), CausalTransform.identity(3), out=out)
        assert "\n" not in str(info.value)


class TestDecode:
    def test_full_availability_round_trip(self):
        rng = np.random.default_rng(6)
        t = matched(random_transform(5, rng))
        x = rng.normal(size=5)
        xhat = decode(encode(x, t).codevalues, t, full_bits(5))
        assert_allclose(xhat, x, atol=1e-12)

    def test_zero_availability(self):
        t = CausalTransform.identity(3)
        assert np.array_equal(decode(np.ones(3), t, np.zeros((3, 3))), np.zeros(3))

    def test_dropped_cross_term(self):
        t = CausalTransform("full", 2, [[0, 0], [0.9, 0]], [[0, 0], [0.7, 0]])
        bits = np.array([[1.0, 0.0], [0.0, 1.0]])
        xc = np.array([2.0, 3.0])
        xhat = decode(xc, t, bits)
        assert xhat[1] == pytest.approx(3.0)  # own term only, cross term dropped

    def test_accepts_availability_matrix(self):
        cm = ChannelModel(100.0, 0.05, 0.0125, 3)
        bits = sample_availability_bits(cm, 1, 0)[0]
        t = CausalTransform.identity(3)
        out = decode(np.ones(3), t, bits)
        assert np.array_equal(out, bits.diagonal())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decode(np.zeros(3), CausalTransform.identity(3), np.zeros((4, 4)))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        codes = rng.normal(size=(40, 4))
        cm = ChannelModel.from_violation_probability(0.3, 0.05, 0.0125, 4)
        stacks = ((rng.random((40, 4, 4)) < 0.7) * np.tril(np.ones((4, 4))),
                  sample_availability_bits(cm, 40, 3),
                  rng.random((40, 4, 4)))  # bits other than 0/1 multiply
        for kind in ("full", "toeplitz"):
            t = random_transform(4, rng, kind)
            for bits in stacks:
                for order in "CF":
                    out = decode_batch(np.asarray(codes, order=order), t, bits)
                    for f in range(40):
                        assert_allclose(out[f], decode(codes[f], t, bits[f]), atol=1e-14)

    @pytest.mark.parametrize("shape", [(3, 3), (1, 3, 3), (5, 3, 4), (4, 3, 3)])
    def test_batch_rejects_bits_shape(self, shape):
        # an (N, N) pattern or a (1, N, N) stack is not broadcast across frames
        with pytest.raises(ValueError, match="bits_stack must have shape"):
            decode_batch(np.zeros((5, 3)), CausalTransform.identity(3), np.ones(shape))

    @pytest.mark.parametrize("shape", [(3,), (5, 4), (5, 3, 1)])
    def test_batch_rejects_codevalues_shape(self, shape):
        with pytest.raises(ValueError, match="codevalues must have shape"):
            decode_batch(np.zeros(shape), CausalTransform.identity(3), np.ones((5, 3, 3)))

    @pytest.mark.parametrize("kind", ["identity", "full", "toeplitz"])
    def test_batch_out_equals_allocating_result(self, kind):
        rng = np.random.default_rng(9)
        cm = ChannelModel.from_violation_probability(0.3, 0.05, 0.0125, 4)
        t = CausalTransform.identity(4) if kind == "identity" else random_transform(4, rng, kind)
        codes = rng.normal(size=(4, 300)).T
        out = np.full((4, 300), np.nan).T  # stale reconstructions
        for seed in range(3):
            bits = sample_availability_bits(cm, 300, seed)
            decoded = decode_batch(codes, t, bits, out=out)
            assert decoded is out
            assert np.array_equal(out, decode_batch(codes, t, bits))
            # decoded in place, into the codevalue lanes themselves
            in_place = codes.copy(order="F")
            assert decode_batch(in_place, t, bits, out=in_place) is in_place
            assert np.array_equal(in_place, out)

    @pytest.mark.parametrize("out", [
        np.zeros((5, 3)),
        np.zeros((3, 4)).T,
        np.zeros((3, 5), dtype=int).T,
    ])
    def test_batch_out_rejects_shape_dtype_and_layout(self, out):
        with pytest.raises(ValueError, match="^out must") as info:
            decode_batch(np.zeros((5, 3)), CausalTransform.identity(3), np.ones((5, 3, 3)),
                         out=out)
        assert "\n" not in str(info.value)


class TestEquivalentChannel:
    def test_lossless_identity(self):
        rng = np.random.default_rng(8)
        t = matched(random_transform(4, rng))
        H = equivalent_channel(t, full_bits(4))
        assert_allclose(H, np.eye(4), atol=1e-12)

    def test_all_lost(self):
        rng = np.random.default_rng(9)
        t = random_transform(4, rng)
        H = equivalent_channel(t, np.zeros((4, 4)))
        assert_allclose(H, np.zeros((4, 4)))

    def test_elementwise_expansion_oracle(self):
        # reconstruct H_eq column by column by coding basis vectors, zero noise
        rng = np.random.default_rng(10)
        t = random_transform(3, rng)
        cm = ChannelModel(20.0, 0.05, 0.0125, 3)
        B = (np.array([0.01, 0.2, 0.04])[None, :] <= cm.thresholds()).astype(float)
        H = equivalent_channel(t, B)
        oracle = np.zeros((3, 3))
        for k in range(3):
            basis = np.zeros(3)
            basis[k] = 1.0
            oracle[:, k] = decode(encode(basis, t).codevalues, t, B)
        assert_allclose(H, oracle, atol=1e-12)

    def test_decode_encode_consistency_with_noise(self):
        rng = np.random.default_rng(11)
        t = random_transform(4, rng)
        bank = QuantizerBank.modeled(np.full(4, 2.0), np.ones(4))
        cm = ChannelModel(20.0, 0.05, 0.0125, 4)
        for seed in range(5):
            B = sample_availability_bits(cm, 1, seed)[0]
            x = rng.normal(size=4)
            frame = encode(x, t, bank, rng=np.random.default_rng(seed))
            q = frame.codevalues - frame.quantizer_inputs
            H = equivalent_channel(t, B)
            # signal and quantization noise share one reconstruction path
            assert_allclose(decode(frame.codevalues, t, B), H @ x + H @ q, atol=1e-10)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        for kind in ("full", "toeplitz"):
            t = random_transform(4, rng, kind)
            loaded = transform_from_text(transform_to_text(t))
            assert loaded.kind == t.kind
            assert np.array_equal(loaded.encoder_coeffs, t.encoder_coeffs)
            assert np.array_equal(loaded.decoder_coeffs, t.decoder_coeffs)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            transform_from_text("not a transform\n")

    @staticmethod
    def edited(row: int, col: int, value: float, n: int = 3, first: int = 5) -> str:
        """Text of an identity transform with one entry replaced.

        The entry is the encoder's; first = 6 + n picks the decoder's.
        """
        lines = transform_to_text(CausalTransform.identity(n)).splitlines()
        cells = lines[first + row].split()
        cells[col] = repr(value)
        lines[first + row] = " ".join(cells)
        return "\n".join(lines) + "\n"

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError, match="encoder"):
            transform_from_text(self.edited(1, 1, 7.0))

    def test_rejects_entry_above_diagonal(self):
        with pytest.raises(ValueError, match="encoder"):
            transform_from_text(self.edited(0, 1, 5.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["identity", "full", "toeplitz", "plt"])
    def test_rejects_non_finite_entry(self, kind, value):
        for first in (5, 9):  # the encoder's and the decoder's entry
            text = self.edited(2, 0, value, first=first).replace("kind identity",
                                                                 f"kind {kind}")
            with pytest.raises(ValueError, match="must be finite") as info:
                transform_from_text(text)
            assert "\n" not in str(info.value)

    def test_rejects_block_dim_other_than_one(self):
        eye = "\n".join(" ".join(repr(v) for v in row) for row in np.eye(4).tolist())
        text = ("# causal transform v1\nkind identity\nframe_length 2\nblock_dim 2\n"
                f"encoder\n{eye}\ndecoder\n{eye}\n")
        with pytest.raises(ValueError, match="block_dim") as info:
            transform_from_text(text)
        assert "\n" not in str(info.value)

    def test_rejects_truncated_file(self):
        text = transform_to_text(random_transform(3, np.random.default_rng(1)))
        lines = text.splitlines()
        for cut in (len(lines) - 1, 6, 2):
            with pytest.raises(ValueError, match="truncated"):
                transform_from_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            transform_from_text(text.rsplit(" ", 1)[0] + "\n")


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def transforms(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["identity", "full", "toeplitz"]))
    if kind == "identity" or n == 1:
        return CausalTransform.identity(n)
    if kind == "toeplitz":
        lags = st.lists(finite, min_size=n - 1, max_size=n - 1)
        return unpack_parameters(draw(lags), draw(lags), "toeplitz", n)
    size = n * (n - 1) // 2
    coeffs = []
    for _ in range(2):
        c = np.zeros((n, n))
        c[np.tril_indices(n, -1)] = draw(st.lists(finite, min_size=size, max_size=size))
        coeffs.append(c)
    return CausalTransform("full", n, *coeffs)


@settings(max_examples=60, deadline=None)
@given(transforms())
def test_text_round_trip_property(t):
    back = transform_from_text(transform_to_text(t))
    assert (back.kind, back.frame_length) == (t.kind, t.frame_length)
    assert np.array_equal(back.encoder_coeffs, t.encoder_coeffs)
    assert np.array_equal(back.decoder_coeffs, t.decoder_coeffs)


@st.composite
def matched_transforms(draw):
    """Full or toeplitz transforms with decoder = encoder, bounded coefficients."""
    n = draw(st.integers(2, 5))
    coeff = st.floats(-1.0, 1.0, allow_nan=False)
    if draw(st.sampled_from(["full", "toeplitz"])) == "toeplitz":
        lags = draw(st.lists(coeff, min_size=n - 1, max_size=n - 1))
        return unpack_parameters(lags, lags, "toeplitz", n)
    c = np.zeros((n, n))
    size = n * (n - 1) // 2
    c[np.tril_indices(n, -1)] = draw(st.lists(coeff, min_size=size, max_size=size))
    return CausalTransform("full", n, c, c)


@settings(max_examples=80, deadline=None)
@given(matched_transforms(), st.data())
def test_full_availability_round_trip_property(t, data):
    """Both frame layouts, full and partial availability, against encode/decode."""
    count = data.draw(st.integers(1, 4))
    n = t.frame_length
    x = np.reshape(data.draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False),
                                      min_size=count * n, max_size=count * n)), (count, n))
    x = np.asarray(x, order=data.draw(st.sampled_from("CF")))
    bits = full_bits(t.frame_length)
    partial = np.reshape(data.draw(st.lists(st.booleans(), min_size=count * n * n,
                                            max_size=count * n * n)), (count, n, n))
    if data.draw(st.booleans()):  # the lane layout of sample_availability_bits
        partial = np.ascontiguousarray(partial.transpose(1, 2, 0)).transpose(2, 0, 1)
    codevalues, _ = encode_batch(x, t)
    decoded = decode_batch(codevalues, t, np.repeat(bits[None], count, axis=0))
    decoded_partial = decode_batch(codevalues, t, partial)
    for f in range(count):
        frame = encode(x[f], t)
        assert_allclose(codevalues[f], frame.codevalues, rtol=0, atol=1e-12)
        single = decode(frame.codevalues, t, bits)
        assert_allclose(decoded[f], single, rtol=0, atol=1e-12)
        assert_allclose(single, x[f], rtol=0, atol=1e-9)
        assert_allclose(decoded_partial[f], decode(frame.codevalues, t, partial[f]),
                        rtol=0, atol=1e-12)


class TestQuantizerInputVariances:
    def test_plt_matches_prediction_errors(self):
        K = ar1_covariance(0.9, 1.0, 5)
        t, d = plt_design(K)
        assert_allclose(quantizer_input_variances(t, K), d, rtol=1e-12)

    def test_identity_matches_source_diagonal(self):
        K = ar1_covariance(0.8, 2.0, 4)
        t = CausalTransform.identity(4)
        assert_allclose(quantizer_input_variances(t, K), np.diag(K))
