import numpy as np
import pytest

from shiftnn.errors import ConfigError
from shiftnn.quant import ExponentRange, quantize_layer, round_pow2, ungated_residual_trace
from shiftnn.trainer.gradients import sigmoid, threshold_grad, threshold_grad_from_trace

WIDE = ExponentRange(e_max=16, code_bits=8)


def reference_threshold_grad(residuals, norms, values, upstream, t, tau):
    """Forward-mode form: for each t_j, carry P = dQ/dt_j through all k rounds.

    Round l adds sigmoid'_l / tau * (d||r_l||/dt_j - 1(l=j)) * R(r_l)
    + sigmoid_l * dr_l/dt_j to P, where dr_l/dt_j = -P and the rounding
    passes gradients straight through.  O(k^2) rounds of work.
    """
    k, F, n = values.shape
    t = np.asarray(t, dtype=np.float64).reshape(-1)[:k]
    upstream = upstream.reshape(F, n).astype(np.float64)
    res = residuals.reshape(k, F, n).astype(np.float64)
    norms = norms.reshape(k, F).astype(np.float64)
    vals = values.reshape(k, F, n).astype(np.float64)

    safe = np.where(norms > 0, norms, 1.0)
    rhat = res / safe[:, :, None]
    rhat[norms == 0] = 0.0
    sig = sigmoid((norms - t[:, None]) / tau)
    dsig = sig * (1.0 - sig) / tau

    out = np.zeros(k, dtype=np.float64)
    for j in range(k):
        P = np.zeros((F, n), dtype=np.float64)
        for l in range(k):
            dnorm = -(rhat[l] * P).sum(axis=1)
            delta = 1.0 if l == j else 0.0
            contrib = dsig[l][:, None] * (dnorm - delta)[:, None] * vals[l] - sig[l][:, None] * P
            P = P + contrib
        out[j] = (upstream * P).sum()
    return out


def surrogate_trace(w, t, tau, k, rng: ExponentRange, frozen=None):
    """Fully relaxed quantizer: every gate is a sigmoid, forward included.

    Used for gradient checks.  With frozen=None the rounding is applied
    normally and the per-round offsets R(r_l) - r_l are returned; passing
    those offsets back in re-evaluates the same function with the
    rounding linearized around the base point (values r_l + c_l), which
    is the function whose exact gradient the straight-through convention
    computes.

    Returns (q, residuals, norms, values, offsets), arrays per round.
    """
    w = np.asarray(w, dtype=np.float64)
    F = w.shape[0]
    r = w.reshape(F, -1).copy()
    n = r.shape[1]
    t = np.asarray(t, dtype=np.float64).reshape(-1)[:k]
    residuals = np.zeros((k, F, n))
    norms = np.zeros((k, F))
    values = np.zeros((k, F, n))
    offsets = np.zeros((k, F, n))
    q = np.zeros((F, n))
    for l in range(k):
        residuals[l] = r
        norms[l] = np.sqrt((r * r).sum(axis=1))
        if frozen is None:
            v = rng.decode(round_pow2(r, rng))
            offsets[l] = v - r
        else:
            offsets[l] = frozen[l]
            v = r + frozen[l]
        values[l] = v
        g = sigmoid((norms[l] - t[l]) / tau)
        q = q + g[:, None] * v
        r = r - g[:, None] * v
    return q.reshape(w.shape), residuals, norms, values, offsets


def random_case(gen, k):
    """Weights with one all-zero filter, thresholds with an occasional +-inf."""
    F, n = int(gen.integers(2, 6)), int(gen.integers(1, 9))
    w = gen.normal(size=(F, n)) * gen.uniform(0.3, 3)
    w[gen.integers(F)] = 0.0
    t = gen.normal(size=k) * gen.uniform(0.1, 2)
    t[gen.uniform(size=k) < 0.2] = np.inf
    t[gen.uniform(size=k) < 0.2] = -np.inf
    return w, t, gen.normal(size=(F, n)), gen.uniform(0.2, 2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sweep_matches_forward_mode_reference_on_hard_traces(k):
    gen = np.random.default_rng(10 + k)
    for _ in range(100):
        w, t, upstream, tau = random_case(gen, k)
        _, trace = quantize_layer(w, t, WIDE)
        got = threshold_grad_from_trace(trace, upstream, tau)
        values = WIDE.decode(trace.codes)
        want = reference_threshold_grad(trace.replay()[0], trace.norms[:k], values, upstream, t, tau)
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sweep_matches_forward_mode_reference_on_soft_traces(k):
    gen = np.random.default_rng(20 + k)
    for _ in range(100):
        w, t, upstream, tau = random_case(gen, k)
        _, residuals, norms, values, _ = surrogate_trace(w, t, tau, k, WIDE)
        got = threshold_grad(residuals, norms, values, upstream, t, tau)
        want = reference_threshold_grad(residuals, norms, values, upstream, t, tau)
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


def test_zero_upstream_gives_zero():
    w = np.random.default_rng(1).normal(size=(4, 6))
    _, trace = quantize_layer(w, [0.0, 0.0], WIDE)
    g = threshold_grad_from_trace(trace, np.zeros((4, 6)), tau=1.0)
    assert np.array_equal(g, np.zeros(2))


def test_k1_scalar_closed_form():
    # only the sigmoid' term survives: dQ1/dt0 = -(1/tau) * s'(( |w| - t0)/tau) * R(w)
    w = np.array([0.7])
    t0, tau = 0.2, 0.8
    _, trace = quantize_layer(w[None], [t0], WIDE)
    g = threshold_grad_from_trace(trace, np.ones((1, 1)), tau=tau)
    z = (abs(w[0]) - t0) / tau
    s = 1.0 / (1.0 + np.exp(-z))
    expected = -(1.0 / tau) * s * (1 - s) * 0.5  # R(0.7) = 2^-1 (log2 0.7 ~ -0.51)
    assert abs(g[0] - expected) < 1e-12


def test_saturated_gates_have_zero_gradient():
    w = np.random.default_rng(2).normal(size=(3, 5))
    for t in ([-np.inf, -np.inf], [np.inf, np.inf]):
        _, trace = quantize_layer(w, t, WIDE)
        g = threshold_grad_from_trace(trace, np.ones((3, 5)), tau=1.0)
        assert np.array_equal(g, np.zeros(2))


@pytest.mark.parametrize("shape", [(2, 3), (3,)], ids=["k-by-F", "k-plus-one"])
def test_thresholds_that_are_not_the_traces_row_rejected(shape):
    # a (k, F) t once reached the sweep flattened, and a longer t was cut to k
    w = np.random.default_rng(4).normal(size=(3, 5))
    _, trace = quantize_layer(w, [0.0, 0.0], WIDE)
    residuals, values = trace.replay()
    with pytest.raises(ConfigError, match=rf"one row of 2 .* got shape \({shape[0]},"):
        threshold_grad(residuals, trace.norms, values, np.ones((3, 5)), np.zeros(shape), tau=1.0)


def test_trace_keeps_the_thresholds_that_gated_it():
    # the caller passed t twice, once to the quantizer and once to the sweep
    w = np.random.default_rng(5).normal(size=(3, 5))
    t = np.array([0.5, 1.0])
    _, trace = quantize_layer(w, t, WIDE)
    want = threshold_grad_from_trace(trace, np.ones((3, 5)), tau=1.0)
    t[:] = np.nan  # the caller's array, edited after the call
    assert trace.t.dtype == np.float64 and trace.t.tolist() == [0.5, 1.0]
    assert np.array_equal(threshold_grad_from_trace(trace, np.ones((3, 5)), tau=1.0), want)
    residuals, values = trace.replay()
    assert np.array_equal(want, threshold_grad(residuals, trace.norms, values, np.ones((3, 5)),
                                               [0.5, 1.0], tau=1.0))
    assert ungated_residual_trace(w, 2, WIDE).t.tolist() == [-np.inf, -np.inf]


def test_matches_finite_differences_of_relaxed_surrogate():
    """Analytic recursion vs central differences of the fully-soft objective.

    The surrogate replaces every hard gate with a sigmoid (forward and
    backward) and linearizes the rounding around the base point, which
    is exactly the function the straight-through convention
    differentiates.
    """
    gen = np.random.default_rng(3)
    tau = 0.7
    worst = 0.0
    probes = 0
    for trial in range(60):
        F, n = int(gen.integers(1, 5)), int(gen.integers(1, 8))
        w = gen.normal(size=(F, n)) * gen.uniform(0.3, 3)
        k = int(gen.integers(1, 4))
        t = gen.normal(size=k) * gen.uniform(0.1, 2)
        upstream = gen.normal(size=(F, n))

        _, residuals, norms, values, offsets = surrogate_trace(w, t, tau, k, WIDE)
        analytic = threshold_grad(residuals, norms, values, upstream, t, tau)

        h = 1e-6
        for j in range(k):
            tp = t.copy()
            tp[j] += h
            qp, *_ = surrogate_trace(w, tp, tau, k, WIDE, frozen=offsets)
            tm = t.copy()
            tm[j] -= h
            qm, *_ = surrogate_trace(w, tm, tau, k, WIDE, frozen=offsets)
            num = float((upstream.reshape(F, -1) * (qp - qm).reshape(F, -1)).sum()) / (2 * h)
            denom = max(abs(num), abs(analytic[j]), 1e-8)
            worst = max(worst, abs(num - analytic[j]) / denom)
            probes += 1
    assert probes >= 100
    assert worst < 1e-4, f"worst relative error {worst}"


def two_branch_sigmoid(x):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) otherwise, one exp per branch."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_stable_at_extremes():
    x = np.array([-1e4, -50.0, 0.0, 50.0, 1e4, np.inf, -np.inf])
    s = sigmoid(x)
    assert np.all(np.isfinite(s[:5]))
    assert s[0] == 0.0 and s[4] == 1.0
    assert s[5] == 1.0 and s[6] == 0.0
    assert s[2] == 0.5
    gen = np.random.default_rng(53)
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 709.8, -709.8, 745.2, -745.2,
                      tiny, -tiny, 1e-310, -1e-310, np.nan, -np.nan])
    for x in [gen.normal(size=300_000) * 10, gen.normal(size=300_000) * 800, edges]:
        got = sigmoid(x)
        assert got.dtype == np.float64
        # bit patterns: the sign of a NaN result and of every zero count too
        assert np.array_equal(got.view(np.uint64), two_branch_sigmoid(x).view(np.uint64))


def wide_recursion(trace):
    """The residuals and values of trace's rounds, rebuilt in float64 from w widened up front."""
    values = trace.rng.decode(trace.codes, np.float64)
    residuals = np.empty_like(values)
    r = trace.w.astype(np.float64)
    for j, gate in enumerate(trace.fired):
        residuals[j] = r
        r = np.where(gate[:, None], r - values[j], r)
    return residuals, values


class TestWidening:
    """threshold_grad_from_trace replays a float32 trace in float32 and widens each
    round as it reads it: bit for bit the gradient of the trace widened up front.

    An einsum that reads float32 values casts them through numpy's 8,192-element
    buffer, which splits a longer row into partial sums; the 12,544-weight rows
    (a dense layer on a 64x14x14 map) are there to show that.
    """

    def case(self, gates, k, code_bits, F, n):
        gen = np.random.default_rng([k, code_bits, F, n])
        w = (gen.normal(size=(F, n)) * np.sqrt(2.0 / n)).astype(np.float32)  # He-scaled, as trained
        rng = ExponentRange.for_weights(w, code_bits)
        t = np.full(k, {"all": -np.inf, "none": np.inf, "mixed": np.inf}[gates])
        for j in range(k):  # round j's threshold set from its own norms, once earlier rounds are set
            norms = quantize_layer(w, t, rng)[1].norms[j]
            t[j] = {"all": 0.5 * norms.min(), "none": 2.0 * norms.max(),
                    "mixed": np.quantile(norms, [0.25, 0.75, 0.5][j])}[gates]
        _, trace = quantize_layer(w, t, rng)
        upstream = gen.normal(size=(F, n)).astype(np.float32)
        return trace, t, upstream, float(np.median(trace.norms))  # a tau that no gate saturates

    @pytest.mark.parametrize("F,n", [(8, 5), (16, 144), (128, 1152), (4, 12544)])
    @pytest.mark.parametrize("code_bits", [3, 4, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("gates", ["all", "none", "mixed"])
    def test_matches_the_trace_widened_up_front(self, gates, k, code_bits, F, n):
        trace, t, upstream, tau = self.case(gates, k, code_bits, F, n)
        fired = {"all": trace.fired.all(), "none": not trace.fired.any(),
                 "mixed": trace.fired.any(axis=1).all() and not trace.fired.all(axis=1).any()}
        assert fired[gates]
        if gates == "mixed" and k > 1:  # and some filter fires in one round and not in another
            assert (trace.fired.any(axis=0) & ~trace.fired.all(axis=0)).any()
        residuals, values = trace.replay()
        assert residuals.dtype == values.dtype == np.float32
        wide_residuals, wide_values = residuals.astype(np.float64), values.astype(np.float64)
        want_residuals, want_values = wide_recursion(trace)
        assert np.array_equal(wide_values.view(np.uint64), want_values.view(np.uint64))
        assert np.array_equal(wide_residuals.view(np.uint64), want_residuals.view(np.uint64))
        got = threshold_grad_from_trace(trace, upstream, tau)
        want = threshold_grad(wide_residuals, trace.norms, wide_values, upstream, t, tau)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert got.any()
