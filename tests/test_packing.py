import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftnn import packing
from shiftnn.errors import PackingError
from shiftnn.packing import (
    header_length,
    pack_model,
    payload_bits,
    storage_bits,
    unpack_model,
)
from shiftnn.quant import ExponentRange, QuantizedLayer, quantize_layer


def random_model(seed, n_layers=3, k=2):
    gen = np.random.default_rng(seed)
    layers = []
    for _ in range(n_layers):
        F = int(gen.integers(1, 12))
        shape = tuple(gen.integers(1, 5, size=int(gen.integers(1, 4))))
        w = gen.normal(size=(F,) + shape)
        rng = ExponentRange.for_weights(w)
        t = gen.uniform(0, 2, size=k)
        ql, _ = quantize_layer(w, t, k, rng)
        layers.append(ql)
    return layers


def test_empty_model_is_header_only():
    data = pack_model([])
    assert data == b"P2WS" + bytes([1]) + b"\x00\x00"
    assert unpack_model(data) == []
    assert header_length([]) == len(data)


def test_known_size_single_term():
    # 1000 weights, k_i = 1, 4-bit codes: 4000 payload bits + one 2-bit header
    w = np.linspace(0.1, 1.0, 1000).reshape(1, 1000)
    ql, _ = quantize_layer(w, [-np.inf], 1, ExponentRange.widest(0))
    assert payload_bits(ql) == 4000 + 2
    assert storage_bits([ql]) == ((4000 + 2 + 7) // 8) * 8


@pytest.mark.parametrize("seed", range(5))
def test_roundtrip_bitwise(seed):
    model = random_model(seed)
    data = pack_model(model)
    back = unpack_model(data)
    assert len(back) == len(model)
    for a, b in zip(model, back):
        assert a == b
        assert np.array_equal(a.dequantize(), b.dequantize())
    assert pack_model(back) == data


def test_pruned_and_mixed_filters_roundtrip():
    w = np.random.default_rng(3).normal(size=(8, 6))
    rng = ExponentRange.for_weights(w)
    # norms straddle the thresholds so k_i ends up mixed
    _, trace = quantize_layer(w, [0.0, 0.0], 2, rng)
    median = np.median(trace.norms[0])
    ql, _ = quantize_layer(w, [median, 2 * median], 2, rng)
    assert len(set(ql.k_i.tolist())) > 1
    data = pack_model([ql])
    assert unpack_model(data)[0] == ql


def test_bad_magic_rejected():
    data = bytearray(pack_model(random_model(1, n_layers=1)))
    data[0] ^= 0xFF
    with pytest.raises(PackingError, match="magic"):
        unpack_model(bytes(data))


def test_bad_version_rejected():
    data = bytearray(pack_model(random_model(1, n_layers=1)))
    data[4] = 99
    with pytest.raises(PackingError, match="version"):
        unpack_model(bytes(data))


def test_truncated_stream_rejected():
    data = pack_model(random_model(2, n_layers=1))
    with pytest.raises(PackingError):
        unpack_model(data[: len(data) - 1])


def test_trailing_bytes_rejected():
    data = pack_model(random_model(2, n_layers=1))
    with pytest.raises(PackingError, match="trailing"):
        unpack_model(data + b"\x00")


def test_out_of_range_exponent_rejected():
    # every value of a 4-bit code names an exponent of the widest range, so
    # an exponent below e_min needs a code that does not fit in 4 bits
    ql = random_model(4, n_layers=1)[0]
    kept = np.arange(ql.max_k)[:, None] < ql.k_i[None, :]
    assert kept.any()
    ql.codes = ql.codes.copy()
    ql.codes[kept] = 1 << ql.rng.code_bits
    with pytest.raises(PackingError, match="code"):
        pack_model([ql])


def test_non_canonical_zero_code_rejected():
    ql = random_model(4, n_layers=1)[0]
    ql.codes = ql.codes.copy()
    ql.codes[0, np.argmax(ql.k_i)] = 1 << (ql.rng.code_bits - 1)  # minus zero
    with pytest.raises(PackingError, match="code"):
        pack_model([ql])


def test_non_widest_range_rejected():
    # the stream stores only e_max; this range would unpack with e_min = -6
    w = np.array([[0.9, -0.3, 0.05]])
    ql, _ = quantize_layer(w, [0.0], 1, ExponentRange(0, -3, 4))
    with pytest.raises(PackingError, match="widest"):
        pack_model([ql])


def test_oversized_k_rejected():
    w = np.random.default_rng(5).normal(size=(2, 4))
    rng = ExponentRange.for_weights(w)
    ql, _ = quantize_layer(w, [-np.inf] * 4, 4, ExponentRange(rng.e_max, rng.e_min, 4))
    with pytest.raises(PackingError, match="k_i"):
        pack_model([ql])


def test_layer_code_bound(monkeypatch):
    # one k_i = 3 filter and one pruned filter of 4 weights: a dense (3, 2, 4) code array
    codes = np.zeros((3, 2, 4), dtype=np.uint8)
    codes[:, 0] = 1
    ql = QuantizedLayer((4,), ExponentRange.widest(0), np.array([3, 0], np.int8), codes)
    data = pack_model([ql])
    monkeypatch.setattr(packing, "MAX_LAYER_CODES", 24)
    assert unpack_model(data)[0] == ql
    monkeypatch.setattr(packing, "MAX_LAYER_CODES", 23)
    with pytest.raises(PackingError, match="exceed"):
        unpack_model(data)
    # a fully pruned layer still counts one term per weight
    pruned = QuantizedLayer((4,), ql.rng, np.zeros(2, np.int8), codes[:0])
    data = pack_model([pruned])
    monkeypatch.setattr(packing, "MAX_LAYER_CODES", 8)
    assert unpack_model(data)[0] == pruned
    monkeypatch.setattr(packing, "MAX_LAYER_CODES", 7)
    with pytest.raises(PackingError, match="exceed"):
        unpack_model(data)


def test_short_stream_cannot_claim_a_huge_layer():
    # 24 bytes claiming one pruned filter of 2**40 weights
    layer = struct.pack("<IB2IhB", 1, 2, 1 << 20, 1 << 20, 0, 4) + b"\x00"
    data = b"P2WS" + struct.pack("<BH", 1, 1) + layer
    with pytest.raises(PackingError, match="exceed"):
        unpack_model(data)


def test_storage_bits_matches_payload_accounting():
    model = random_model(6)
    total = 0
    for layer in model:
        total += ((payload_bits(layer) + 7) // 8) * 8
    assert storage_bits(model) == total


@st.composite
def layers(draw):
    """A random valid layer: k_i in 0..3, kept slots hold any canonical code."""
    code_bits = draw(st.integers(3, 8))
    rng = ExponentRange.widest(draw(st.integers(-40, 40)), code_bits)
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    F = draw(st.integers(0, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(np.prod(shape))
    k_i = gen.integers(0, 4, size=F).astype(np.int8)
    max_k = draw(st.integers(int(k_i.max(initial=0)), 3))
    codes = gen.integers(0, 1 << code_bits, size=(max_k, F, n)).astype(np.uint8)
    codes[codes == 1 << (code_bits - 1)] = 0  # no minus zero
    codes[np.arange(max_k)[:, None] >= k_i[None, :]] = 0
    return QuantizedLayer(shape, rng, k_i, codes)


@settings(max_examples=60, deadline=None)
@given(st.lists(layers(), max_size=3))
def test_random_layers_roundtrip(model):
    data = pack_model(model)
    back = unpack_model(data)
    assert len(back) == len(model)
    for a, b in zip(model, back):
        assert a == b
        assert np.array_equal(a.dequantize(), b.dequantize())
    assert pack_model(back) == data
    assert storage_bits(model) == 8 * (len(data) - header_length(model))


@settings(max_examples=20, deadline=None)
@given(st.lists(layers(), min_size=1, max_size=2))
def test_every_truncation_raises_packing_error(model):
    data = pack_model(model)
    for cut in range(len(data)):
        with pytest.raises(PackingError):
            unpack_model(data[:cut])


@settings(max_examples=300, deadline=None)
@given(st.lists(layers(), min_size=1, max_size=2), st.data())
def test_bit_flip_raises_packing_error_or_parses(model, data):
    stream = bytearray(pack_model(model))
    bit = data.draw(st.integers(0, 8 * len(stream) - 1))
    stream[bit // 8] ^= 0x80 >> (bit % 8)
    try:
        back = unpack_model(bytes(stream))
    except PackingError:
        return
    # whatever parses is a model that packs again (padding bits aside)
    again = unpack_model(pack_model(back))
    assert len(again) == len(back) and all(a == b for a, b in zip(again, back))
