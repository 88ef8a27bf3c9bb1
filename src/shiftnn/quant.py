"""Signed power-of-2 weight quantization with threshold-gated term counts.

A filter is approximated by up to ``k`` power-of-2 terms.  Each round j
rounds the current residual to powers of 2 and keeps the term only when
the residual's L2 norm exceeds the threshold ``t[j]`` (strict).  The
number of kept terms is the filter's shift count ``k_i``.

Every term is held as one uint8 code per element, in the packed
stream's format; _decode_table gives their values.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

DEFAULT_CODE_BITS = 4


@dataclass(frozen=True)
class ExponentRange:
    """Exponent window [e_min, e_max] of one layer's terms: the widest its codes hold.

    A term code is 1 sign bit (set for negative terms) above
    code_bits - 1 value bits.  Value 0 is the zero code, whose sign bit
    is clear; value c >= 1 means magnitude 2**(e_max - c + 1).  The
    packed stream stores e_max and code_bits; e_min follows from them.
    """

    e_max: int
    code_bits: int = DEFAULT_CODE_BITS

    def __post_init__(self):
        # codes are held in uint8; 2-bit codes would name a single exponent
        if not (isinstance(self.code_bits, numbers.Integral) and 3 <= self.code_bits <= 8):
            raise ConfigError(f"code_bits must be an integer in [3, 8], got {self.code_bits!r}")

    @property
    def e_min(self) -> int:
        return self.e_max - (2 ** (self.code_bits - 1) - 2)

    @classmethod
    def for_weights(cls, w: np.ndarray, code_bits: int = DEFAULT_CODE_BITS) -> "ExponentRange":
        """The window whose top exponent is max |w| rounded as round_pow2 rounds.

        NumericError if w holds NaN or inf, or if 2**e_max is not a float of w's type.
        """
        w = _as_float(w)
        peak = np.maximum(np.max(w, initial=0.0), -np.min(w, initial=0.0))  # no |w| array
        if not np.isfinite(peak):
            raise NumericError("weights hold NaN or infinite values")
        e_max = int(nearest_exponent(peak, *_ANY_EXPONENT)) if peak > 0 else 0
        top = _FLOAT_BITS[w.dtype].emax - 1
        if e_max > top:
            raise NumericError(f"peak weight magnitude {peak} rounds to 2**{e_max}, past the "
                               f"largest finite power of 2 of {w.dtype}, 2**{top}")
        return cls(e_max, code_bits)

    def decode(self, codes, dtype=np.float64) -> np.ndarray:
        """Values of term codes, looked up in _decode_table, the one definition of the
        code format; quantize_layer and dequantize read that table directly."""
        return _decode_table(self, np.dtype(dtype)).take(codes)


@functools.lru_cache(maxsize=256)
def _decode_table(rng: ExponentRange, dtype: np.dtype) -> np.ndarray:
    """ExponentRange.decode's table, indexed by code: one read-only array per (rng, dtype)."""
    half = 1 << (rng.code_bits - 1)
    with np.errstate(over="ignore"):  # a power of 2 past dtype's range is inf, as IEEE rounds it
        magnitude = np.ldexp(1.0, rng.e_max + 1 - np.arange(half))
        magnitude[0] = 0.0
        table = np.concatenate([magnitude, -magnitude]).astype(dtype)
    table.flags.writeable = False
    return table


class _FloatBits:
    """Layout of float32 or float64 bit patterns, as nearest_exponent reads them."""

    def __init__(self, dtype):
        info = np.finfo(dtype)
        self.ints = np.dtype(f"i{info.bits // 8}").type  # |x| bit patterns are >= 0
        self.mb, self.emin, self.emax = info.nmant, info.minexp, info.maxexp
        self.tiny, self.prescale = info.tiny, info.dtype.type(2.0**info.nmant)
        # 1.f >= sqrt 2 exactly when the mantissa bits f >= f0 = ceil(2**mb (sqrt 2 - 1)),
        # the mantissa of the smallest float >= fl64(sqrt 2)
        f0 = math.isqrt(1 << (2 * self.mb + 1)) + 1 - (1 << self.mb)
        self.offset = self.ints((1 << self.mb) - f0 - ((1 - self.emin) << self.mb))

    def pow2_key(self, p: int):
        """The k with |x| < 2**p exactly when bits(|x|) < k."""
        # below the smallest subnormal only 0 is smaller; past inf, k is inf's bits
        q = min(max(p, self.emin - self.mb), self.emax)
        key = (q - self.emin + 1) << self.mb if q >= self.emin else 1 << (q - self.emin + self.mb)
        return self.ints(key)


_FLOAT_BITS = {np.dtype(t): _FloatBits(t) for t in (np.float32, np.float64)}
_ANY_EXPONENT = (-1 << 15, 1 << 15)  # clamp bounds past every float's exponent


def _as_float(x) -> np.ndarray:
    """float32 stays float32; every other input is read as float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def nearest_exponent(ax, lo: int, hi: int) -> np.ndarray:
    """clip(E, lo, hi), with E the integer nearest log2(ax) for ax > 0, halves up.

    E is the one integer with 2**(2E - 1) <= ax**2 < 2**(2E + 1).  It is
    read off the bit pattern of the float32 or float64 magnitude ax: with
    mb mantissa bits and f0 as in _FloatBits, the biased exponent, plus
    one when the mantissa is >= f0, is (bits(ax) + 2**mb - f0) >> mb; the
    offset also takes off the bias.  When lo lies below the smallest
    normal exponent, subnormals take the same rule on ax * 2**mb, which is
    exact and normal, and give back mb; otherwise the clamp sends every
    subnormal to lo either way.  Returns integers of ax's bit width,
    shaped like ax.
    """
    ax = _as_float(ax)
    fb = _FLOAT_BITS[ax.dtype]
    bits = ax.view(fb.ints)
    e = np.add(bits, fb.offset, out=np.empty(ax.shape, fb.ints))
    if lo < fb.emin:
        sub = ax < fb.tiny
        if sub.any():
            scaled = (ax[sub] * fb.prescale).view(fb.ints)
            e[sub] = scaled + (fb.offset - fb.ints(fb.mb << fb.mb))
    np.right_shift(e, fb.mb, out=e)
    return np.clip(e, lo, hi, out=e)


def round_pow2(x, rng: ExponentRange) -> np.ndarray:
    """Codes of each element rounded to the nearest signed power of 2.

    |x| rounds to 2**E with 2**(E - 1/2) <= |x| < 2**(E + 1/2), the
    nearest power in the log domain (see nearest_exponent).  E clamps to
    [e_min, e_max]; magnitudes below 2**(e_min - 1), exact 0 included,
    give the zero code.  Integer inputs are read as float64.
    """
    x = _as_float(x)
    shape = x.shape
    x = x.reshape(-1)
    ax = np.abs(x)
    e = nearest_exponent(ax, rng.e_min, rng.e_max)
    code = np.subtract(rng.e_max + 1, e, out=e).astype(np.uint8)
    # multiplies, not shifts: numpy's uint8 shifts are several times slower
    code |= np.signbit(x).view(np.uint8) * np.uint8(1 << (rng.code_bits - 1))
    fb = _FLOAT_BITS[x.dtype]
    code *= ax.view(fb.ints) >= fb.pow2_key(rng.e_min - 1)
    return code.reshape(shape)


@dataclass
class ResidualTrace:
    """One layer's gated rounds, its filters flattened to (F, n); replay rebuilds the residuals.

    w is the layer's weight, not a copy: the trace holds while w is unchanged.
    t is a copy of the thresholds that gated it (-inf when ungated).  norms[j]
    is the L2 norm of the residual r_j entering round j (r_0 = w), in float64,
    and fired[j] = norms[j] > t[j] the round-j gates.  codes[j] holds R(r_j)
    for every filter, whether or not the gate fired; rng decodes them.
    quantized is the quantized weight w - r_k.
    """

    w: np.ndarray  # (F, n)
    t: np.ndarray  # (k,) float64
    norms: np.ndarray  # (k, F) float64
    fired: np.ndarray  # (k, F) bool
    codes: np.ndarray  # (k, F, n) uint8
    rng: ExponentRange
    quantized: np.ndarray  # (F, n), w's dtype

    def replay(self):
        """(residuals, values), both (k, F, n) in w's dtype: each round's r_j and
        decoded codes.  r_j is rebuilt from w as quantize_layer ran the rounds;
        each fired r - R(r) is exact, so it has the bits seen there."""
        values = self.rng.decode(self.codes, self.w.dtype)
        residuals = np.empty_like(values)
        residuals[:1] = self.w
        for j in range(len(values) - 1):
            np.subtract(residuals[j], values[j], out=residuals[j + 1])
            residuals[j + 1][~self.fired[j]] = residuals[j][~self.fired[j]]  # closed gates keep theirs
        return residuals, values


class QuantizedLayer:
    """All filters of one layer in compact form.

    codes holds the kept terms in the packed stream's order: filter by
    filter, and within each filter its k_i[f] terms in firing order, one
    row of n element codes per term.  filter_shape excludes the leading
    filter axis.  Raises ConfigError when codes is not codes_shape.
    """

    def __init__(self, filter_shape, rng, k_i, codes, *, _terms=None):  # _terms: sum(k_i) if known
        self.filter_shape = tuple(filter_shape)
        self.rng = rng
        self.k_i = k_i  # (F,) int8
        self.codes = codes  # (sum k_i, n) uint8
        shape = self.codes_shape if _terms is None else (_terms, self.filter_size)
        if codes.shape != shape:
            raise ConfigError(f"codes have shape {codes.shape}, expected {shape}")

    @property
    def num_filters(self) -> int:
        return self.k_i.shape[0]

    @property
    def filter_size(self) -> int:
        return math.prod(map(int, self.filter_shape))  # numpy int32 dims would wrap

    @property
    def codes_shape(self) -> tuple:
        return (int(self.k_i.astype(np.int64).sum()), self.filter_size)

    def dequantize(self, dtype=np.float64) -> np.ndarray:
        """Sum of kept terms, shaped (F, *filter_shape): an unpacked stream's weights."""
        out = np.zeros((self.num_filters, self.filter_size), dtype=dtype)
        table = _decode_table(self.rng, np.dtype(dtype))
        k_i = self.k_i.astype(np.int64)
        first = np.cumsum(k_i) - k_i  # row of each filter's first term
        for j in range(int(k_i.max(initial=0))):  # term j of every filter: a fixed summation order
            live = np.flatnonzero(k_i > j)
            out[live] += table.take(self.codes[first[live] + j])
        return out.reshape((self.num_filters,) + self.filter_shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantizedLayer):
            return NotImplemented
        return (
            self.filter_shape == other.filter_shape
            and self.rng == other.rng
            and np.array_equal(self.k_i, other.k_i)
            and np.array_equal(self.codes, other.codes)
        )


def _norms(r):
    """The L2 norm of each row of r, accumulated in float64.

    A float64 row's squares under- or overflow where its norm lies outside
    [2**-500, 2**500]; such a row is summed again scaled by the power of 2
    that brings its peak into [1/2, 1), and its norm scaled back.  A scale
    for the whole layer would underflow the squares of its other rows.
    float32 squares never leave that range.
    """
    norms = np.sqrt(np.einsum("fn,fn->f", r, r, dtype=np.float64))
    if r.dtype == np.float64:
        far = np.flatnonzero(~((2.0**-500 <= norms) & (norms <= 2.0**500)))
        if far.size:
            e = np.frexp(np.abs(r[far]).max(axis=1))[1]
            scaled = np.ldexp(r[far], -e[:, None])
            with np.errstate(over="ignore"):  # a norm past float64's range is inf
                norms[far] = np.ldexp(np.sqrt(np.einsum("fn,fn->f", scaled, scaled)), e)
    return norms


def quantize_layer(w, t, rng: ExponentRange):
    """Threshold-gated recursive quantization of a whole layer.

    w has shape (F, ...); each leading-axis slice is one filter.  t is the
    1-D row of per-round thresholds: its length k is the number of rounds.
    Round j rounds the residual elementwise and keeps the term iff the
    residual's L2 norm strictly exceeds t[j]; only fired rounds subtract
    their term from the running residual, which every round rewrites in one
    buffer.  Returns (QuantizedLayer, ResidualTrace); the trace refers to w,
    keeps no residual and holds a copy of t and the quantized weight
    w - r_k.  Raises ConfigError when t is not 1-D, and NumericError
    when a threshold or any weight is NaN, a weight is infinite, or a
    filter's L2 norm overflows float64.
    """
    w = np.asarray(w)
    t = np.array(t, dtype=np.float64)  # the trace's own copy
    if t.ndim != 1:
        raise ConfigError(f"thresholds must be one row of per-round values, got shape {t.shape}")
    nan = np.isnan(t)
    if nan.any():  # no norm exceeds NaN: its round would close every gate
        raise NumericError(f"threshold of round {nan.argmax()} is NaN")
    k = t.size
    F = w.shape[0]
    filter_shape = w.shape[1:]
    flat = w.reshape(F, math.prod(filter_shape))  # -1 cannot be inferred at F = 0
    n = flat.shape[1]

    # round 0's norm is w's own, also at k = 0 for the check below
    norms = np.empty((max(k, 1), F), dtype=np.float64)
    fired = np.empty((k, F), dtype=bool)
    codes = np.empty((k, F, n), dtype=np.uint8)

    norms[0] = _norms(flat)
    bad = np.flatnonzero(~np.isfinite(norms[0]))
    if bad.size:
        # a NaN norm never exceeds a threshold, so the filter would look pruned
        held = bad[~np.isfinite(flat[bad]).all(axis=1)]
        raise NumericError(
            f"{held.size} filter(s) hold non-finite weights, the first is filter {held[0]}"
            if held.size else f"the L2 norm of filter {bad[0]} overflows float64")
    table = _decode_table(rng, flat.dtype)
    r, res = flat, np.empty((F, n), dtype=flat.dtype)
    term = np.empty((F, n), dtype=flat.dtype)  # each round's term, then w - r_k
    for j in range(k):
        codes[j] = round_pow2(r, rng)
        fired[j] = norms[j] > t[j]
        # round_pow2 codes are all < 2**code_bits, so "wrap" never wraps; unlike
        # "raise" it writes into term without a buffer
        table.take(codes[j], out=term, mode="wrap")
        term[~fired[j]] = 0  # r - 0 is r, bit for bit: closed gates keep their residual
        r = np.subtract(r, term, out=res)
        if j + 1 < k:
            norms[j + 1] = _norms(r)
    # w - r_k is dequantize's sum, bit for bit (+0.0 at k = 0), when no |w| rounds above
    # 2**e_max, a float of w's dtype (as with for_weights).  Each r - R(r) is exact by
    # Sterbenz's lemma: R(r) is within a factor sqrt 2 of r, 2 at the e_min clamp, or 0.
    # So |r_j| never grows, every term is a multiple of ulp(w), and every partial sum
    # w - r_j is a float, of magnitude at most 2**(floor(log2 |w|) + 1) and below 2**(e_max + 1)
    # (|r_j| <= |w| - 2**e_max where |w| >= 2**e_max): adding the terms rounds nowhere.
    np.subtract(flat, r, out=term)

    trace = ResidualTrace(flat, t, norms[:k], fired, codes, rng, term)
    # each filter's fired terms, filter by filter, as the packed stream holds them
    kept = codes.transpose(1, 0, 2)[fired.T]
    return QuantizedLayer(filter_shape, rng, fired.sum(axis=0).astype(np.int8), kept), trace


def ungated_residual_trace(w, k: int, rng: ExponentRange) -> ResidualTrace:
    """Greedy residual recursion with every gate forced open (t = -inf).

    This is the threshold-independent recursion the regularizer penalizes.
    """
    _, trace = quantize_layer(w, np.full(k, -np.inf), rng)
    return trace
