import math
import re
from fractions import Fraction

import numpy as np
import pytest

from shiftnn.errors import ConfigError, NumericError
from shiftnn.packing import pack_model, unpack_model
from shiftnn.quant import (
    ExponentRange,
    QuantizedLayer,
    quantize_layer,
    round_pow2,
    ungated_residual_trace,
)

def exact_exponent(x):
    """The integer E with 2**(2E - 1) <= x**2 < 2**(2E + 1), in exact arithmetic."""
    sq = Fraction(float(x)) ** 2
    e = math.floor(math.log2(abs(x)))  # a guess within one of the answer
    while sq >= Fraction(2) ** (2 * e + 1):
        e += 1
    while sq < Fraction(2) ** (2 * e - 1):
        e -= 1
    return e


def oracle_round(x, rng):
    """Log-domain rounding by the exact rule, written independently of round_pow2."""
    if abs(x) < 2.0 ** (rng.e_min - 1):
        return 0.0
    e = min(max(exact_exponent(x), rng.e_min), rng.e_max)
    return math.copysign(2.0**e, x)


def boundary_neighbours(dtype, steps=3):
    """The 2 * steps + 1 floats of dtype around each 2**e * sqrt(1/2), e in [-30, 11], both signs."""
    out = []
    for e in range(-30, 12):
        x = np.ldexp(dtype(math.sqrt(0.5)), e)
        for _ in range(steps):
            x = np.nextafter(x, dtype(0))
        for _ in range(2 * steps + 1):
            out.append(x)
            x = np.nextafter(x, dtype(np.inf))
    out = np.array(out, dtype=dtype)
    return np.concatenate([out, -out])


def exact_floor_log2(x):
    """floor(log2 |x|) for x != 0, in exact arithmetic."""
    ax = abs(Fraction(float(x)))
    e = math.floor(math.log2(abs(x)))
    while ax >= Fraction(2) ** (e + 1):
        e += 1
    while ax < Fraction(2) ** e:
        e -= 1
    return e


def full_range_samples(dtype):
    """Floats of dtype over its whole exponent range, subnormals included, both signs.

    Per binade: the three floats nearest 2**e * sqrt(1/2) and one random
    mantissa; plus the smallest and largest subnormal, the smallest normal
    and the largest finite value.
    """
    info = np.finfo(dtype)
    gen = np.random.default_rng(41)
    lowest = info.minexp - info.nmant  # exponent of the smallest subnormal
    out = [np.nextafter(dtype(0), dtype(1)), info.tiny, np.nextafter(info.tiny, dtype(0)), info.max]
    for e in range(lowest + 1, info.maxexp):
        x = np.ldexp(dtype(math.sqrt(0.5)), e)
        out += [np.nextafter(x, dtype(0)), x, np.nextafter(x, dtype(np.inf))]
        out.append(np.ldexp(dtype(gen.uniform(0.5, 1.0)), e))
    out = np.array(out, dtype=dtype)
    out = out[out > 0]
    return np.concatenate([out, -out])


def oracle_codes(xs, exps, floors, rng):
    """Codes by the exact rule, from each x's exact nearest and floor exponents."""
    e = np.clip(exps, rng.e_min, rng.e_max)
    codes = (rng.e_max + 1 - e) | (np.signbit(xs) << (rng.code_bits - 1))
    # |x| < 2**p exactly when floor(log2 |x|) < p
    return np.where(floors < rng.e_min - 1, 0, codes).astype(np.uint8)


@pytest.fixture
def wide():
    return ExponentRange(e_max=20, code_bits=8)


def rounded(x, rng):
    """Decoded value of round_pow2 on one scalar."""
    return float(rng.decode(round_pow2(np.float64(x), rng)))


def quantize_one(w_i, t, rng):
    """One filter as a one-filter layer: (QuantizedLayer, ResidualTrace)."""
    return quantize_layer(np.asarray(w_i)[None], t, rng)


def shift_count(w_i, t, rng) -> int:
    """Fired gates of one filter: sum_j 1(||r_j|| > t_j)."""
    return int(quantize_one(w_i, t, rng)[0].k_i[0])


class TestExponentRange:
    def test_widest_window_is_full(self):
        # every nonzero code names one exponent of [e_min, e_max], and each exponent has one
        for code_bits in range(3, 9):
            r = ExponentRange(5, code_bits)
            half = 1 << (code_bits - 1)
            exponents = list(range(r.e_max, r.e_min - 1, -1))
            assert len(exponents) == half - 1
            assert r.decode(np.arange(1, half)).tolist() == [2.0**e for e in exponents]
            assert r.decode(np.arange(half + 1, 2 * half)).tolist() == [-(2.0**e) for e in exponents]

    # 2-bit codes name one exponent, 9-bit codes do not fit uint8, 4.5 is no width
    @pytest.mark.parametrize("code_bits", [1, 2, 9, 4.5])
    def test_rejects_code_width_outside_uint8(self, code_bits):
        with pytest.raises(ConfigError, match="code_bits"):
            ExponentRange(e_max=0, code_bits=code_bits)

    def test_decode_table(self):
        # 1 sign bit above 3 value bits: 0 is zero, c >= 1 is 2**(e_max - c + 1)
        r = ExponentRange(2, code_bits=4)
        want = [0.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.0625]
        assert r.decode(np.arange(8)).tolist() == want
        assert r.decode(np.arange(8, 16)).tolist() == [-v for v in want]
        assert r.decode(np.array([[1, 9], [0, 3]]), np.float32).dtype == np.float32
        # the table is cached per (range, dtype): what decode returns is the caller's own
        values = r.decode(np.arange(8))
        values[1] = 7.0
        assert r.decode(np.arange(8)).tolist() == want

    def test_decode_past_the_dtype_range(self):
        # the stream's i16 e_max reaches past every float: such terms decode to inf or 0
        assert ExponentRange(1100).decode(np.arange(1, 8)).tolist() == [np.inf] * 7
        assert ExponentRange(-1100).decode(np.arange(1, 8)).tolist() == [0.0] * 7
        top = ExponentRange(128, 3).decode(np.arange(5, 8), np.float32)
        assert top.tolist() == [-np.inf, -(2.0**127), -(2.0**126)]

    def test_codes_are_stream_format(self):
        r = ExponentRange(0, code_bits=4)
        codes = round_pow2(np.array([1.0, -1.0, 0.25, -2.0**-6, 0.0]), r)
        assert codes.dtype == np.uint8
        assert codes.tolist() == [0b0001, 0b1001, 0b0011, 0b1111, 0b0000]

    def test_for_weights_uses_peak_magnitude(self):
        r = ExponentRange.for_weights(np.array([0.1, -0.9]))
        assert r.e_max == 0  # log2(0.9) ~ -0.15 rounds to 0
        r = ExponentRange.for_weights(np.array([3.0]))
        assert r.e_max == 2  # log2(3) ~ 1.58 rounds up

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_for_weights_rounds_peak_like_round_pow2(self, dtype):
        gen = np.random.default_rng(31)
        peaks = np.concatenate([boundary_neighbours(dtype), gen.uniform(-9, 9, 200).astype(dtype)])
        for peak in peaks:
            w = np.array([peak, peak / 3], dtype=dtype)
            assert ExponentRange.for_weights(w).e_max == exact_exponent(peak)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_for_weights_rejects_nonfinite(self, bad):
        with pytest.raises(NumericError):
            ExponentRange.for_weights(np.array([1.0, bad]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_for_weights_rejects_a_peak_past_the_largest_power(self, dtype):
        # a float32 peak once gave e_max = 128, whose term decoded to inf: the
        # quantized weight of [[max, 1.0]] at k = 2 was [[nan, 0.]]
        info = np.finfo(dtype)
        top = info.maxexp - 1
        with pytest.raises(NumericError, match=rf"2\*\*{top + 1}, past the largest finite power of 2"):
            ExponentRange.for_weights(np.array([[info.max, 1.0]], dtype), 2)
        assert ExponentRange.for_weights(np.array([[np.ldexp(dtype(1.25), top), 1.0]], dtype)).e_max == top

    def test_for_weights_of_empty_or_zero_tensor(self):
        assert ExponentRange.for_weights(np.zeros(0)).e_max == 0
        assert ExponentRange.for_weights(np.zeros(3)).e_max == 0


class TestRoundPow2:
    def test_exact_power(self, wide):
        assert rounded(1.0, wide) == 1.0

    def test_log_domain_rounding(self, wide):
        # log2(0.75) ~ -0.415 -> exponent 0, not -1
        assert rounded(0.75, wide) == 1.0
        # log2(0.3) ~ -1.737 -> exponent -2
        assert rounded(-0.3, wide) == -0.25

    def test_zero_and_underflow(self, wide):
        assert round_pow2(np.float64(0.0), wide) == 0
        tiny = 2.0 ** (wide.e_min - 1) * 0.999
        assert round_pow2(np.float64(tiny), wide) == 0
        at_threshold = 2.0 ** (wide.e_min - 1)
        assert rounded(at_threshold, wide) == 2.0**wide.e_min
        # a threshold below float32's smallest subnormal still zeroes float32 input
        deep = ExponentRange(e_max=-100, code_bits=8)
        tiny32 = np.array([0.0, -0.0, 2.0**-149], dtype=np.float32)
        assert deep.decode(round_pow2(tiny32, deep)).tolist() == [0.0, 0.0, 2.0**-149]

    def test_clamps_to_range(self):
        r = ExponentRange(e_max=2, code_bits=3)  # exponents [0, 2]
        assert rounded(100.0, r) == 4.0
        # log2(0.6) ~ -0.74 rounds to -1, clamped up to e_min
        assert rounded(0.6, r) == 1.0
        # below 2^(e_min - 1) = 0.5 the value underflows to the zero code
        assert round_pow2(np.float64(0.45), r) == 0

    def test_matches_oracle_on_random_scalars(self, wide):
        xs = np.random.default_rng(7).uniform(-4, 4, size=2000)
        got = wide.decode(round_pow2(xs, wide))
        want = np.array([oracle_round(x, wide) for x in xs])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_exact_at_half_exponent_boundaries(self, wide, dtype):
        # nearest floats to 2**e * sqrt(1/2), where a rounded logarithm can miss
        xs = boundary_neighbours(dtype)
        got = wide.decode(round_pow2(xs, wide))
        want = np.array([oracle_round(float(x), wide) for x in xs])
        assert np.array_equal(got, want)

    def test_relative_error_bound(self, wide):
        # |x - R(x)| <= (sqrt(2)-1)|x| when no clamping occurs
        xs = np.random.default_rng(8).uniform(-8, 8, size=5000)
        xs = xs[np.abs(xs) > 2.0 ** (wide.e_min + 1)]
        err = np.abs(xs - wide.decode(round_pow2(xs, wide)))
        assert (err <= (np.sqrt(2) - 1) * np.abs(xs) + 1e-15).all()


class TestRoundPow2Exactness:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_full_exponent_range(self, dtype):
        # 8-bit windows tiled over the whole range: the lowest has its zero
        # threshold below the smallest subnormal, so every x != 0 lies above it
        xs = full_range_samples(dtype)
        exps = np.array([exact_exponent(x) for x in xs])
        floors = np.array([exact_floor_log2(x) for x in xs])
        info = np.finfo(dtype)
        lowest = info.minexp - info.nmant
        for e_max in range(info.maxexp + 100, lowest - 1, -60):
            rng = ExponentRange(e_max, 8)
            got = round_pow2(xs, rng)
            want = oracle_codes(xs, exps, floors, rng)
            assert np.array_equal(got, want), (e_max, xs[got != want][:4])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("e_max", [40, -1, -100, -1000])
    def test_signed_zero_is_the_zero_code(self, dtype, e_max):
        rng = ExponentRange(e_max, 8)
        assert round_pow2(np.array([0.0, -0.0], dtype=dtype), rng).tolist() == [0, 0]

    def test_shapes_strides_and_integer_input(self, wide):
        x = np.random.default_rng(43).normal(size=(3, 4, 5)) * 8
        want = round_pow2(x.copy(), wide)
        assert want.shape == x.shape and want.dtype == np.uint8
        assert np.array_equal(round_pow2(x[:, ::2, 1:], wide), want[:, ::2, 1:])
        assert np.array_equal(round_pow2(x.T, wide), want.T)
        zero_d = round_pow2(np.float64(x[1, 2, 3]), wide)
        assert zero_d.shape == () and zero_d == want[1, 2, 3]
        ints = np.array([[0, 1, -3], [6, -100, 7]])
        assert np.array_equal(round_pow2(ints, wide), round_pow2(ints.astype(np.float64), wide))
        assert round_pow2(np.float32(0.75), wide) == round_pow2(0.75, wide)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_for_weights_on_subnormal_peaks(self, dtype):
        info = np.finfo(dtype)
        smallest = np.nextafter(dtype(0), dtype(1))
        for peak in [smallest, smallest * dtype(3), smallest * dtype(5), info.tiny / dtype(3),
                     np.nextafter(info.tiny, dtype(0))]:
            w = np.array([-peak, peak / dtype(2), 0.0], dtype=dtype)
            assert ExponentRange.for_weights(w).e_max == exact_exponent(peak)


class TestQuantizeFilter:
    def test_all_zero_filter(self, wide):
        ql, _ = quantize_one(np.zeros(5), [0.0, 0.0], wide)
        assert ql.k_i[0] == 0
        assert not ql.codes.any()
        assert np.array_equal(ql.dequantize()[0], np.zeros(5))

    def test_zero_filter_layer(self, wide):
        # the reshape to (F, -1) raised a bare ValueError; pack_model takes such layers
        ql, trace = quantize_layer(np.zeros((0, 3, 3, 3)), [0.0, 0.0], wide)
        assert ql.k_i.shape == (0,) and ql.codes.shape == (0, 27) and trace.quantized.shape == (0, 27)
        assert ql.dequantize().shape == (0, 3, 3, 3)
        assert unpack_model(pack_model([ql])) == [ql]

    def test_hand_recursion_both_gates_fire(self, wide):
        # 0.75 -> +2^0, residual -0.25 -> -2^-2, exact afterwards
        ql, trace = quantize_one(np.array([0.75]), [0.0, 0.0], wide)
        assert ql.k_i[0] == 2
        assert wide.decode(ql.codes[:, 0]).tolist() == [1.0, -0.25]
        assert ql.dequantize()[0, 0] == 0.75
        assert trace.norms[:, 0].tolist() == [0.75, 0.25]  # the norms entering each round
        assert trace.replay()[0][1, 0, 0] == -0.25

    def test_hand_recursion_second_gate_closed(self, wide):
        # residual norm 0.25 <= 0.3 closes the second gate
        ql, _ = quantize_one(np.array([0.75]), [0.0, 0.3], wide)
        assert ql.k_i[0] == 1
        assert ql.codes.shape == (1, 1)  # only the kept term is held
        assert ql.dequantize()[0, 0] == 1.0

    def test_independent_gates(self, wide):
        # first gate closed by a huge t0, second gate still evaluated on r0
        ql, trace = quantize_one(np.array([0.75]), [10.0, 0.0], wide)
        assert list(trace.fired[:, 0]) == [False, True]
        assert ql.k_i[0] == 1
        assert ql.dequantize()[0, 0] == 1.0  # term is R(w), not R(w - R(w))

    def test_residual_contraction(self, wide):
        w = np.random.default_rng(3).normal(size=(16, 27)).astype(np.float64)
        _, trace = quantize_layer(w, [-np.inf] * 3, ExponentRange(16, 8))
        norms = trace.norms
        assert (norms[1:] <= norms[:-1] + 1e-12).all()

    @pytest.mark.parametrize("k", range(4))
    def test_rounds_are_the_threshold_row_length(self, wide, k):
        w = np.random.default_rng(k).normal(size=(3, 4))
        ql, trace = quantize_layer(w, np.zeros(k), wide)
        assert trace.codes.shape == (k, 3, 4)
        assert trace.norms.shape == trace.fired.shape == (k, 3)
        assert (ql.k_i == k).all()  # every nonzero residual passes a zero threshold

    @pytest.mark.parametrize("t", [np.zeros((2, 3)), np.float64(0.0)], ids=["2-D", "0-D"])
    def test_thresholds_that_are_not_one_row_rejected(self, wide, t):
        # a 2-D t was flattened, and its first k entries read as one row
        with pytest.raises(ConfigError, match=rf"got shape {re.escape(str(t.shape))}"):
            quantize_layer(np.ones((3, 4)), t, wide)

    @pytest.mark.parametrize("j", [0, 1], ids=["round-0", "round-1"])
    def test_nan_threshold_rejected(self, wide, j):
        # no norm exceeds NaN, so the round closed every gate without a word
        t = [0.0, 0.0]
        t[j] = np.nan
        with pytest.raises(NumericError, match=f"threshold of round {j} is NaN"):
            quantize_layer(np.ones((4, 3)), t, wide)
        ql, _ = quantize_layer(np.ones((4, 3)), [-np.inf, np.inf], wide)  # fixed mode's rows stay valid
        assert (ql.k_i == 1).all()


class TestEffectiveK:
    def test_infinite_thresholds_prune(self, wide):
        assert shift_count(np.array([1.0, 2.0]), [np.inf, np.inf], wide) == 0

    def test_zero_thresholds_spend_all_rounds(self, wide):
        w = np.array([0.3, 0.55])  # not exactly representable in <= 2 terms
        assert shift_count(w, [0.0, 0.0], wide) == 2

    def test_exact_power_uses_one_round(self, wide):
        # residual after round 1 is exactly zero; strict inequality holds it closed
        assert shift_count(np.array([0.5]), [0.0, 0.0], wide) == 1

    def test_gate_monotonicity(self, wide):
        w = np.random.default_rng(5).normal(size=12)
        rng = np.random.default_rng(6)
        for _ in range(50):
            t = rng.uniform(0, 3, size=2)
            bumped = t.copy()
            bumped[rng.integers(2)] += rng.uniform(0, 2)
            assert shift_count(w, bumped, wide) <= shift_count(w, t, wide)


class TestDequantize:
    def test_empty_terms(self, wide):
        ql, _ = quantize_one(np.zeros(3), [np.inf, np.inf], wide)
        assert np.array_equal(ql.dequantize(), np.zeros((1, 3)))
        empty, trace = quantize_layer(np.ones((2, 3)), [], wide)
        assert np.array_equal(empty.dequantize(), np.zeros((2, 3)))
        # at k = 0 the weight is w - r_0 = w - w: +0.0, as dequantize gives
        assert np.array_equal(bits(trace.quantized), bits(np.zeros((2, 3))))

    def test_direct_sum(self, wide):
        ql, _ = quantize_one(np.array([0.75]), [0.0, 0.0], wide)
        assert ql.dequantize()[0, 0] == 2.0**0 - 2.0**-2

    @pytest.mark.parametrize("shape", [(3, 2), (1, 2), (2, 3), (2,)])
    def test_codes_must_hold_one_row_per_kept_term(self, wide, shape):
        # k_i = [1, 1] over filters of 2 weights: exactly (2, 2) codes
        k_i = np.array([1, 1], np.int8)
        assert QuantizedLayer((2,), wide, k_i, np.zeros((2, 2), np.uint8)).codes_shape == (2, 2)
        with pytest.raises(ConfigError, match=r"codes have shape .* expected \(2, 2\)"):
            QuantizedLayer((2,), wide, k_i, np.zeros(shape, np.uint8))

    def test_equality_with_a_non_layer(self, wide):
        ql, _ = quantize_one(np.array([0.75]), [0.0], wide)
        assert ql.__eq__(0.75) is NotImplemented
        assert ql != 0.75

    def test_roundtrip_on_greedy_representable(self, wide):
        # values built by the greedy rounding order itself quantize back exactly
        gen = np.random.default_rng(11)
        raw = gen.normal(size=(40, 8))
        ql, _ = quantize_layer(raw, [0.0, 0.0], wide)
        w = ql.dequantize()
        ql2, _ = quantize_layer(w, [0.0, 0.0], wide)
        assert np.array_equal(ql2.dequantize(), w)

    def test_exact_representation_of_two_term_sums(self):
        rng = ExponentRange(e_max=4, code_bits=8)
        gen = np.random.default_rng(13)
        # greedy order: second exponent at least 2 below the first
        e1 = gen.integers(-4, 4, size=200)
        e2 = e1 - gen.integers(2, 5, size=200)
        s1 = gen.choice([-1.0, 1.0], size=200)
        s2 = gen.choice([-1.0, 1.0], size=200)
        w = (s1 * np.exp2(e1) + s2 * np.exp2(e2)).reshape(-1, 1)
        ql, _ = quantize_layer(w, [0.0, 0.0], rng)
        assert np.array_equal(ql.dequantize().ravel(), w.ravel())


def bits(x):
    """x's bit patterns, so that comparisons tell -0.0 from +0.0."""
    return x.view(f"u{x.itemsize}")


def kept_terms_sum(ql, dtype):
    """Each filter's kept terms decoded one at a time and summed in firing order."""
    out = np.zeros((ql.num_filters, ql.filter_size), dtype=dtype)
    first = 0
    for f, k in enumerate(ql.k_i.tolist()):
        for code in ql.codes[first : first + k]:
            out[f] += ql.rng.decode(code, dtype)
        first += k
    return out.reshape((ql.num_filters,) + ql.filter_shape)


def assert_dequantize_is_the_kept_terms_sum(ql, trace, dtype):
    """dequantize, the reference sum and the trace's w - r_k agree bit for bit."""
    got = ql.dequantize(dtype)
    assert got.dtype == trace.quantized.dtype == dtype
    assert np.array_equal(bits(got), bits(kept_terms_sum(ql, dtype)))
    assert np.array_equal(bits(trace.quantized), bits(got.reshape(ql.num_filters, -1)))


class TestDequantizeFastPath:
    """dequantize agrees with the kept-terms sum as k_i spreads from all live to all pruned.

    dequantize once skipped the gather for rounds that every filter kept.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "t, k_set",
        [(-np.inf, {3}), (0.1, {1, 2, 3}), (0.2, {0, 1, 2, 3}), (np.inf, {0})],
        ids=["all live", "round 0 live", "mixed", "all pruned"],
    )
    def test_matches_gather_path(self, t, k_set, dtype):
        gen = np.random.default_rng(17)
        # log-uniform filter scales against one threshold spread k_i over 0..3
        w = gen.normal(size=(64, 3, 3, 3)) * np.exp(gen.uniform(-3.5, 0.7, size=(64, 1, 1, 1)))
        rng = ExponentRange.for_weights(w, 4)
        ql, trace = quantize_layer(w.astype(dtype), np.full(3, t), rng)
        assert set(ql.k_i.tolist()) == k_set
        assert_dequantize_is_the_kept_terms_sum(ql, trace, dtype)


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("code_bits", range(3, 9))
def test_trace_weight_is_the_kept_terms_sum(code_bits, dtype, k):
    # every code width the stream holds, up to its 3 terms
    gen = np.random.default_rng([code_bits, k, np.dtype(dtype).itemsize])
    for _ in range(25):
        F, n = gen.integers(1, 40), gen.integers(1, 30)
        # full-mantissa weights, log-uniform filter scales from 1e-6 to 1e3, signed zeros
        w = gen.normal(size=(F, n)) * np.exp(gen.uniform(np.log(1e-6), np.log(1e3), (F, 1)))
        w[gen.random((F, n)) < 0.05] = 0.0
        w[gen.random((F, n)) < 0.05] = -0.0
        w = w.astype(dtype)
        rng = ExponentRange.for_weights(w, code_bits)
        # per round: gates all open, at zero, all closed, or at a norm inside the spread
        t = [[-np.inf, 0.0, np.inf, np.exp(gen.uniform(np.log(1e-6), np.log(1e4)))][c]
             for c in gen.integers(0, 4, k)]
        assert_dequantize_is_the_kept_terms_sum(*quantize_layer(w, t, rng), dtype)


def reference_recursion(w, fired, rng):
    """The gated residual recursion in w's float type, written out term by term:
    (the residual entering each round, the terms R(r_j), the last residual)."""
    r = w.copy()
    residuals, terms = [], []
    for gate in fired:
        # 0 codes to +0.0; oracle_round cannot tell it from 2**(e_min - 1) when that underflows
        term = np.array([[oracle_round(v, rng) if v else 0.0 for v in row] for row in r.tolist()],
                        w.dtype)
        residuals.append(r)
        terms.append(term)
        r = np.where(gate[:, None], r - term, r)  # a closed gate keeps its residual's bits
    shape = (len(fired),) + w.shape
    return np.array(residuals, w.dtype).reshape(shape), np.array(terms, w.dtype).reshape(shape), r


class TestReplay:
    """The trace keeps no residuals; replay rebuilds the ones quantize_layer saw."""

    def case(self, dtype, scale, gates, k, code_bits):
        gen = np.random.default_rng([k, code_bits, np.dtype(dtype).itemsize])
        F, n = 8, 5
        # filter scales 4**f apart keep the norms distinct; -0.0 and subnormal weights
        w = gen.normal(size=(F, n)) * 4.0 ** np.arange(F)[:, None]
        w[0, 0], w[1, 1], w[2, 2] = -0.0, 0.0, -1e-300 if dtype == np.float64 else -1e-40
        w = w.astype(dtype)
        if scale == "subnormal":  # the whole layer in the subnormal range: so are its terms
            w = np.ldexp(w, np.finfo(dtype).minexp - 11)
        rng = ExponentRange.for_weights(w, code_bits)
        t = np.full(k, {"all": -np.inf, "none": np.inf, "mixed": np.inf}[gates])
        if gates == "mixed":  # round j's threshold splits its norms at a quantile of its own
            for j in range(k):
                t[j] = np.quantile(quantize_layer(w, t, rng)[1].norms[j], [0.25, 0.75, 0.5][j])
        return w, quantize_layer(w, t, rng)[1]

    @pytest.mark.parametrize("code_bits", [3, 4, 8])
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("gates", ["all", "none", "mixed"])
    @pytest.mark.parametrize("scale", ["unit", "subnormal"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_recursion_bit_for_bit(self, dtype, scale, gates, k, code_bits):
        w, trace = self.case(dtype, scale, gates, k, code_bits)
        if scale == "subnormal":
            assert (np.abs(w[np.abs(w) > 0]) < np.finfo(dtype).tiny).any()
        if gates == "mixed" and k:
            assert trace.fired.any(axis=1).all() and not trace.fired.all(axis=1).any()
            if k > 1:  # and some filter fires in one round and not in another
                assert (trace.fired.any(axis=0) & ~trace.fired.all(axis=0)).any()
        assert np.shares_memory(trace.w, w)  # the trace refers to the weight, not a copy
        want, terms, last = reference_recursion(w, trace.fired, trace.rng)
        residuals, values = trace.replay()
        assert residuals.dtype == values.dtype == dtype
        assert np.array_equal(bits(values), bits(terms))
        assert np.array_equal(bits(residuals), bits(want))
        assert np.array_equal(bits(trace.quantized), bits(w - last))


class TestSpecialCases:
    def test_all_inf_thresholds_is_pruning(self, wide):
        w = np.random.default_rng(17).normal(size=(6, 9))
        ql, _ = quantize_layer(w, [np.inf, np.inf], wide)
        assert np.array_equal(ql.k_i, np.zeros(6, dtype=np.int8))
        assert np.array_equal(ql.dequantize(), np.zeros_like(w))

    def test_neg_inf_thresholds_match_unconditional_recursion(self, wide):
        # Q_k(w) = Q_{k-1}(w) + Q_1(w - Q_{k-1}(w)), all gates forced open
        w = np.random.default_rng(19).normal(size=(5, 7))
        ql, _ = quantize_layer(w, [-np.inf, -np.inf], wide)

        def q1(x):
            return np.vectorize(lambda v: oracle_round(v, wide))(x)

        qk = q1(w)
        qk = qk + q1(w - qk)
        assert np.array_equal(ql.dequantize(), qk)
        assert (ql.k_i == 2).all()

    def test_ungated_trace_matches_neg_inf(self, wide):
        w = np.random.default_rng(23).normal(size=(4, 6))
        tr = ungated_residual_trace(w, 2, wide)
        _, tr2 = quantize_layer(w, [-np.inf, -np.inf], wide)
        assert np.array_equal(tr.replay()[0], tr2.replay()[0])
        assert tr.fired.all()

    def test_overflowing_filter_norm_is_named(self, wide):
        # finite weights whose norm overflows float64 were blamed on non-finite weights
        w = np.array([[1.5e308, 1.5e308], [1.0, 2.0]])
        with pytest.raises(NumericError, match="norm of filter 0 overflows float64"):
            quantize_layer(w, [0.0, 0.0], wide)
        w[1, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite weights, the first is filter 1"):
            quantize_layer(w, [0.0, 0.0], wide)

    @pytest.mark.parametrize("shift", [-600, 600])
    def test_far_filter_norms_scale_exactly(self, shift):
        # float64 squares of 2**-600 underflow to 0, which pruned such a filter at
        # threshold 0, and those of 2**600 overflow; a 2**shift copy of a layer must
        # quantize as the layer does, with norms 2**shift times as large, bit for bit
        gen = np.random.default_rng(31)
        w = gen.normal(size=(6, 9)) * np.exp2(gen.integers(-4, 5, size=(6, 1)))
        w[5] = 0.0
        t = np.exp2(gen.integers(-3, 4, size=3).astype(float))
        t[0] = 0.0
        rng = ExponentRange.for_weights(w)
        want_ql, want = quantize_layer(w, t, rng)
        got_ql, got = quantize_layer(np.ldexp(w, shift), np.ldexp(t, shift),
                                     ExponentRange(rng.e_max + shift))
        assert np.array_equal(got_ql.k_i, want_ql.k_i) and np.array_equal(got.codes, want.codes)
        assert np.array_equal(got.norms, np.ldexp(want.norms, shift))
        assert (got.fired[0] == (w != 0).any(axis=1)).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_weight_rejected(self, wide, bad):
        # a NaN filter norm fails every gate, so it would otherwise pass as pruned
        w = np.random.default_rng(29).normal(size=(4, 6))
        w[2, 3] = bad
        with pytest.raises(NumericError, match="filter 2"):
            quantize_layer(w, [0.0, 0.0], wide)
        with pytest.raises(NumericError):
            quantize_layer(w, [], wide)


@pytest.mark.parametrize("code_bits", [3, 8])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_quantizer_over_every_binade(dtype, code_bits):
    """A layer whose peak lies in any binade, subnormals included, quantizes to a finite
    weight equal to dequantize's and to the unpacked stream's, or raises NumericError
    naming the cause: a peak that rounds past the largest finite power of 2, or a filter
    norm that overflows float64."""
    info = np.finfo(dtype)
    top = info.maxexp - 1
    below_sqrt2 = dtype(math.sqrt(2))
    while Fraction(float(below_sqrt2)) ** 2 >= 2:
        below_sqrt2 = np.nextafter(below_sqrt2, dtype(0))
    mantissas = [dtype(1.0), dtype(1.25), below_sqrt2, np.nextafter(below_sqrt2, dtype(2)),
                 np.nextafter(dtype(2), dtype(0))]
    gen = np.random.default_rng([code_bits, info.bits])
    binades = range(info.minexp - info.nmant, info.maxexp)
    for e in binades:
        # every mantissa in the three lowest and highest binades, one in each other
        edge = e < binades[3] or e > binades[-4]
        for m in mantissas if edge else mantissas[e % len(mantissas)::len(mantissas)]:
            v = m * gen.uniform(-1, 1, (3, 5))
            v[0, 0] = m * gen.choice([-1, 1])
            # filter f sits 10*f binades below the peak, so the low binades hold zero filters
            w = np.stack([np.ldexp(v[f].astype(dtype), e - 10 * f) for f in range(3)])
            past = exact_exponent(np.abs(w).max()) > top
            overflows = any(math.isinf(math.hypot(*row)) for row in w.astype(np.float64))
            try:
                rng = ExponentRange.for_weights(w, code_bits)
                ql, trace = quantize_layer(w, np.zeros(3), rng)
            except NumericError as exc:
                assert past or overflows, (e, m, str(exc))
                cause = "largest finite power of 2" if past else "overflows float64"
                assert cause in str(exc)
                continue
            assert not (past or overflows), (e, m)
            assert (trace.fired[0] == (w != 0).any(axis=1)).all(), (e, m)  # no norm reads 0
            q = trace.quantized.reshape(w.shape)
            assert np.isfinite(q).all(), (e, m)
            assert np.array_equal(bits(q), bits(ql.dequantize(dtype))), (e, m)
            (back,) = unpack_model(pack_model([ql]))
            assert back == ql and np.array_equal(bits(back.dequantize(dtype)), bits(q)), (e, m)
