"""Signed power-of-2 weight quantization with threshold-gated term counts.

A filter is approximated by up to ``k`` power-of-2 terms.  Each round j
rounds the current residual to powers of 2 and keeps the term only when
the residual's L2 norm exceeds the threshold ``t[j]`` (strict).  The
number of kept terms is the filter's shift count ``k_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

DEFAULT_CODE_BITS = 4


@dataclass(frozen=True)
class ExponentRange:
    """Encodable exponent window [e_min, e_max] for one layer's terms.

    code_bits per term = 1 sign bit + (code_bits - 1) bits selecting among
    the representable exponents plus one reserved zero code, so at most
    2**(code_bits - 1) - 1 exponents fit.
    """

    e_max: int
    e_min: int
    code_bits: int = DEFAULT_CODE_BITS

    def __post_init__(self):
        if self.code_bits < 2:
            raise ConfigError(f"code_bits must be >= 2, got {self.code_bits}")
        if self.e_min >= self.e_max:
            raise ConfigError(f"need e_min < e_max, got [{self.e_min}, {self.e_max}]")
        if self.num_exponents + 1 > 2 ** (self.code_bits - 1):
            raise ConfigError(
                f"{self.num_exponents} exponents + zero code do not fit in "
                f"{self.code_bits}-bit codes"
            )

    @property
    def num_exponents(self) -> int:
        return self.e_max - self.e_min + 1

    @property
    def underflow_threshold(self) -> float:
        # magnitudes below this round to the zero code
        return math.ldexp(1.0, self.e_min - 1)

    @classmethod
    def widest(cls, e_max: int, code_bits: int = DEFAULT_CODE_BITS) -> "ExponentRange":
        """Largest window ending at e_max that the code width allows."""
        return cls(e_max, e_max - (2 ** (code_bits - 1) - 2), code_bits)

    @classmethod
    def for_weights(cls, w: np.ndarray, code_bits: int = DEFAULT_CODE_BITS) -> "ExponentRange":
        """Window whose top exponent is the rounded log2 of max |w|."""
        peak = float(np.max(np.abs(w))) if w.size else 0.0
        e_max = 0 if peak == 0.0 else int(math.floor(math.log2(peak) + 0.5))
        return cls.widest(e_max, code_bits)


@dataclass
class Pow2Tensor:
    """Elementwise signed power-of-2 codes: value = sign * 2**exponent, or 0."""

    sign: np.ndarray  # int8, +1/-1 (+1 where zero)
    exponent: np.ndarray  # int32
    zero: np.ndarray  # bool

    @property
    def shape(self) -> tuple:
        return self.sign.shape

    def decode(self, dtype=np.float64) -> np.ndarray:
        v = np.ldexp(self.sign.astype(np.float64), self.exponent)
        v = np.where(self.zero, 0.0, v)
        return v.astype(dtype, copy=False)

    def item(self) -> tuple[int, int, bool]:
        """(sign, exponent, is_zero) for a single-element code."""
        return (
            int(self.sign.reshape(-1)[0]),
            int(self.exponent.reshape(-1)[0]),
            bool(self.zero.reshape(-1)[0]),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pow2Tensor):
            return NotImplemented
        if self.shape != other.shape:
            return False
        z = self.zero == other.zero
        live = ~self.zero
        return bool(
            z.all()
            and (self.sign[live] == other.sign[live]).all()
            and (self.exponent[live] == other.exponent[live]).all()
        )


def round_pow2(x, rng: ExponentRange) -> Pow2Tensor:
    """Round each element to the nearest signed power of 2 in the log domain.

    Rounding is half-up on log2|x|; exponents clamp to [e_min, e_max];
    magnitudes below 2**(e_min - 1) (including exact 0) give the zero code.
    """
    x = np.asarray(x)
    ax = np.abs(x).astype(np.float64)
    zero = ax < rng.underflow_threshold
    with np.errstate(divide="ignore"):
        e = np.floor(np.log2(np.where(zero, 1.0, ax)) + 0.5)
    exponent = np.clip(e, rng.e_min, rng.e_max).astype(np.int32)
    exponent = np.where(zero, np.int32(rng.e_min), exponent)
    sign = np.where(x < 0, -1, 1).astype(np.int8)
    sign = np.where(zero, np.int8(1), sign)
    return Pow2Tensor(sign, exponent, zero)


@dataclass
class ResidualTrace:
    """Per-round residuals of one layer's filters, flattened to (F, n).

    residuals[j] is the residual entering round j (residuals[0] = w);
    residuals[k] is what remains after the last round.  norms are L2,
    accumulated in float64.  fired[j, f] is the round-j gate of filter f.
    term_* hold the round-j power-of-2 codes R(r_j) for every filter,
    whether or not the gate fired.
    """

    residuals: np.ndarray  # (k+1, F, n)
    norms: np.ndarray  # (k+1, F) float64
    fired: np.ndarray  # (k, F) bool
    term_sign: np.ndarray  # (k, F, n) int8
    term_exp: np.ndarray  # (k, F, n) int32
    term_zero: np.ndarray  # (k, F, n) bool

    @property
    def k(self) -> int:
        return self.fired.shape[0]

    def term_values(self, dtype=np.float64) -> np.ndarray:
        """Decoded R(r_j) for all rounds, shape (k, F, n)."""
        v = np.ldexp(self.term_sign.astype(np.float64), self.term_exp)
        v = np.where(self.term_zero, 0.0, v)
        return v.astype(dtype, copy=False)


@dataclass
class QuantizedFilter:
    """One filter's kept power-of-2 terms, in firing order."""

    terms: list  # list[Pow2Tensor], length k_i, each shaped like the filter
    k_i: int

    def dequantize(self, shape=None, dtype=np.float64) -> np.ndarray:
        if not self.terms:
            if shape is None:
                raise ConfigError("empty filter needs an explicit shape")
            return np.zeros(shape, dtype=dtype)
        out = np.zeros(self.terms[0].shape, dtype=dtype)
        for term in self.terms:
            out += term.decode(dtype)
        return out


class QuantizedLayer:
    """All filters of one layer in compact form.

    Terms are stored per filter in firing order: term slot j of filter f
    is meaningful only for j < k_i[f]; the remaining slots hold canonical
    zero codes.  filter_shape excludes the leading filter axis.
    """

    def __init__(self, filter_shape, rng, k_i, term_sign, term_exp, term_zero):
        self.filter_shape = tuple(filter_shape)
        self.rng = rng
        self.k_i = k_i  # (F,) int8
        self.term_sign = term_sign  # (k, F, n) int8
        self.term_exp = term_exp  # (k, F, n) int32
        self.term_zero = term_zero  # (k, F, n) bool

    @property
    def num_filters(self) -> int:
        return self.k_i.shape[0]

    @property
    def max_k(self) -> int:
        return self.term_sign.shape[0]

    @property
    def filter_size(self) -> int:
        return int(np.prod(self.filter_shape)) if self.filter_shape else 1

    def term_values(self, dtype=np.float64) -> np.ndarray:
        v = np.ldexp(self.term_sign.astype(np.float64), self.term_exp)
        v = np.where(self.term_zero, 0.0, v)
        return v.astype(dtype, copy=False)

    def dequantize(self, dtype=np.float64) -> np.ndarray:
        """Sum of kept terms, shaped (F, *filter_shape)."""
        vals = self.term_values(dtype)
        keep = np.arange(self.max_k)[:, None] < self.k_i[None, :]
        out = np.zeros_like(vals[0])
        for j in range(self.max_k):  # fixed order keeps summation deterministic
            out = out + np.where(keep[j][:, None], vals[j], 0)
        return out.reshape((self.num_filters,) + self.filter_shape).astype(dtype, copy=False)

    def filter(self, i: int) -> QuantizedFilter:
        k_i = int(self.k_i[i])
        terms = [
            Pow2Tensor(
                self.term_sign[j, i].reshape(self.filter_shape).copy(),
                self.term_exp[j, i].reshape(self.filter_shape).copy(),
                self.term_zero[j, i].reshape(self.filter_shape).copy(),
            )
            for j in range(k_i)
        ]
        return QuantizedFilter(terms, k_i)

    def _canonical_terms(self, rounds):
        """Term arrays padded to `rounds` slots, zeroed outside kept terms."""
        F, n = self.k_i.shape[0], self.filter_size
        sign = np.zeros((rounds, F, n), dtype=np.int8)
        exp = np.zeros((rounds, F, n), dtype=np.int32)
        zero = np.ones((rounds, F, n), dtype=bool)
        m = min(rounds, self.max_k)
        keep = np.arange(m)[:, None, None] < self.k_i[None, :, None]
        sign[:m] = np.where(keep, self.term_sign[:m], 0)
        exp[:m] = np.where(keep & ~self.term_zero[:m], self.term_exp[:m], 0)
        zero[:m] = np.where(keep, self.term_zero[:m], True)
        return sign, exp, zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantizedLayer):
            return NotImplemented
        if (
            self.filter_shape != other.filter_shape
            or self.rng != other.rng
            or not np.array_equal(self.k_i, other.k_i)
        ):
            return False
        rounds = max(self.max_k, other.max_k)
        for a, b in zip(self._canonical_terms(rounds), other._canonical_terms(rounds)):
            if not np.array_equal(a, b):
                return False
        return True


def _as_thresholds(t, k: int) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    if t.shape[0] < k:
        raise ConfigError(f"need {k} thresholds, got {t.shape[0]}")
    return t[:k]


def quantize_layer(w, t, k: int, rng: ExponentRange):
    """Threshold-gated recursive quantization of a whole layer.

    w has shape (F, ...); each leading-axis slice is one filter.  Round j
    rounds the residual elementwise and keeps the term iff the residual's
    L2 norm strictly exceeds t[j]; only fired rounds subtract their term
    from the running residual.  Returns (QuantizedLayer, ResidualTrace).
    Raises NumericError when any weight is NaN or infinite.
    """
    w = np.asarray(w)
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    t = _as_thresholds(t, k)
    F = w.shape[0]
    filter_shape = w.shape[1:]
    flat = w.reshape(F, -1)
    n = flat.shape[1]

    residuals = np.zeros((k + 1, F, n), dtype=flat.dtype)
    norms = np.zeros((k + 1, F), dtype=np.float64)
    fired = np.zeros((k, F), dtype=bool)
    term_sign = np.ones((k, F, n), dtype=np.int8)
    term_exp = np.full((k, F, n), rng.e_min, dtype=np.int32)
    term_zero = np.ones((k, F, n), dtype=bool)

    r = flat.copy()
    norms[0] = np.sqrt(np.einsum("fn,fn->f", r, r, dtype=np.float64))
    bad = np.flatnonzero(~np.isfinite(norms[0]))
    if bad.size:
        # a NaN norm never exceeds a threshold, so the filter would look pruned
        raise NumericError(
            f"{bad.size} filter(s) hold non-finite weights, the first is filter {bad[0]}"
        )
    for j in range(k):
        residuals[j] = r
        code = round_pow2(r, rng)
        term_sign[j], term_exp[j], term_zero[j] = code.sign, code.exponent, code.zero
        fired[j] = norms[j] > t[j]
        decoded = code.decode(flat.dtype)
        r = np.where(fired[j][:, None], r - decoded, r)
        norms[j + 1] = np.sqrt(np.einsum("fn,fn->f", r, r, dtype=np.float64))
    residuals[k] = r

    trace = ResidualTrace(residuals, norms, fired, term_sign, term_exp, term_zero)
    return _compact(trace, filter_shape, rng), trace


def _compact(trace: ResidualTrace, filter_shape, rng: ExponentRange) -> QuantizedLayer:
    """Gather each filter's fired terms to the front, in firing order."""
    k, F, n = trace.term_sign.shape
    k_i = trace.fired.sum(axis=0).astype(np.int8)
    sign = np.ones((k, F, n), dtype=np.int8)
    exp = np.full((k, F, n), rng.e_min, dtype=np.int32)
    zero = np.ones((k, F, n), dtype=bool)
    slot = np.zeros(F, dtype=np.int64)
    cols = np.arange(F)
    for j in range(k):
        hit = trace.fired[j]
        dest = slot[hit]
        sign[dest, cols[hit]] = trace.term_sign[j, hit]
        exp[dest, cols[hit]] = trace.term_exp[j, hit]
        zero[dest, cols[hit]] = trace.term_zero[j, hit]
        slot[hit] += 1
    return QuantizedLayer(filter_shape, rng, k_i, sign, exp, zero)


def quantize_filter(w_i, t, k: int, rng: ExponentRange):
    """Single-filter convenience wrapper around quantize_layer."""
    w_i = np.asarray(w_i)
    layer, trace = quantize_layer(w_i[None], t, k, rng)
    return layer.filter(0), trace


def effective_k(w_i, t, k: int, rng: ExponentRange) -> int:
    """Number of fired gates for one filter: sum_j 1(||r_j|| > t_j)."""
    _, trace = quantize_filter(w_i, t, k, rng)
    return int(trace.fired.sum())


def dequantize(q) -> np.ndarray:
    """Elementwise sum of decoded terms of a QuantizedFilter or QuantizedLayer."""
    return q.dequantize()


def ungated_residual_trace(w, k: int, rng: ExponentRange) -> ResidualTrace:
    """Greedy residual recursion with every gate forced open (t = -inf).

    This is the threshold-independent recursion the regularizer penalizes.
    """
    _, trace = quantize_layer(w, np.full(k, -np.inf), k, rng)
    return trace
