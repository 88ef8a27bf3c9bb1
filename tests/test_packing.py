import copy
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftnn import packing
from shiftnn.errors import PackingError
from shiftnn.nn import Network, get_preset
from shiftnn.packing import (
    header_length,
    pack_model,
    payload_bits,
    storage_bits,
    unpack_model,
)
from shiftnn.quant import ExponentRange, QuantizedLayer, quantize_layer
from shiftnn.trainer.loop import TrainSettings, quantize_weights


def random_model(seed, n_layers=3, k=2):
    gen = np.random.default_rng(seed)
    layers = []
    for _ in range(n_layers):
        F = int(gen.integers(1, 12))
        shape = tuple(gen.integers(1, 5, size=int(gen.integers(1, 4))))
        w = gen.normal(size=(F,) + shape)
        rng = ExponentRange.for_weights(w)
        t = gen.uniform(0, 2, size=k)
        ql, _ = quantize_layer(w, t, rng)
        layers.append(ql)
    return layers


def reference_pack(layers):
    """The stream format written out with plain Python ints and bit strings."""
    out = b"P2WS" + struct.pack("<BH", 1, len(layers))
    for layer in layers:
        out += struct.pack("<IB", layer.num_filters, len(layer.filter_shape))
        out += b"".join(struct.pack("<I", d) for d in layer.filter_shape)
        out += struct.pack("<hB", layer.rng.e_max, layer.rng.code_bits)
        bits = "".join(format(int(k), "02b") for k in layer.k_i)
        for term in layer.codes:  # filter by filter, each filter's terms in firing order
            bits += "".join(format(int(c), f"0{layer.rng.code_bits}b") for c in term)
        bits += "0" * (-len(bits) % 8)
        out += bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
    return out


def golden_model():
    """Odd and even F, code_bits 3, 4, 5 and 8, pruned filters and k_i = 3."""
    specs = [  # (code_bits, e_max, filter_shape, k_i)
        (3, 1, (2,), [3, 0, 1]),  # 2F = 6: the k_i table ends mid-byte
        (4, -2, (3,), [2]),
        (5, 3, (2, 1), [1, 2, 0, 3, 1]),
        (8, -7, (), [3, 1, 0, 2]),  # 2F = 8: the codes start on a byte boundary
    ]
    layers = []
    i = 0
    for code_bits, e_max, shape, k_i in specs:
        canonical = [c for c in range(1 << code_bits) if c != 1 << (code_bits - 1)]
        n = int(np.prod(shape))
        codes = np.zeros((sum(k_i), n), np.uint8)
        for term in codes:
            for e in range(n):
                term[e] = canonical[(7 * i + 3) % len(canonical)]
                i += 1
        rng = ExponentRange(e_max, code_bits)
        layers.append(QuantizedLayer(shape, rng, np.array(k_i, np.int8), codes))
    return layers


GOLDEN_STREAM = bytes.fromhex(
    "503257530104000300000001020000000100"
    "03c5b6db6c010000000103000000feff04bd"
    "b97500050000000202000000010000000300"
    "056350fbf8aca6c498e3e60400000000f9ff"
    "08d2c8cfd6dde4eb"
)


def test_golden_stream():
    model = golden_model()
    assert reference_pack(model) == GOLDEN_STREAM
    assert pack_model(model) == GOLDEN_STREAM
    back = unpack_model(GOLDEN_STREAM)
    assert len(back) == len(model) and all(a == b for a, b in zip(back, model))


@pytest.mark.parametrize("width", range(1, 9))
def test_fields_match_bit_reference(width):
    """_pack_fields and _unpack_fields against np.packbits/np.unpackbits, for every
    count up to three whole byte-filling groups of g fields and one field more,
    and for counts that span many words, one field past a power of 2."""
    g = 8 // math.gcd(8, width)
    gen = np.random.default_rng(width)
    for count in [*range(3 * g + 2), 4097, 65537]:
        values = gen.integers(0, 1 << width, count, dtype=np.uint8)
        want = np.packbits(np.unpackbits(values[:, None], axis=1)[:, 8 - width :])
        got = packing._pack_fields(values, width)
        assert got.dtype == np.uint8 and got.tobytes() == want.tobytes(), count
        # unpacking ignores the pad bits after the last field, whatever they hold
        data = np.frombuffer(gen.bytes(want.size), dtype=np.uint8)
        fields = np.unpackbits(data)[: count * width].reshape(count, width)
        want = np.packbits(np.pad(fields, ((0, 0), (8 - width, 0))), axis=1).reshape(-1)
        got = packing._unpack_fields(data, width, count)
        assert got.dtype == np.uint8 and np.array_equal(got, want), count


def test_unpacked_codes_do_not_alias_a_mutable_stream():
    # 8-bit codes that start on a byte boundary are read straight from the stream
    model = golden_model()
    stream = bytearray(pack_model(model))
    back = unpack_model(stream)
    stream[:] = bytes(len(stream))
    assert all(a == b for a, b in zip(back, model))

def test_empty_model_is_header_only():
    data = pack_model([])
    assert data == b"P2WS" + bytes([1]) + b"\x00\x00"
    assert unpack_model(data) == []
    assert header_length([]) == len(data)


def test_known_size_single_term():
    # 1000 weights, k_i = 1, 4-bit codes: 4000 payload bits + one 2-bit header
    w = np.linspace(0.1, 1.0, 1000).reshape(1, 1000)
    ql, _ = quantize_layer(w, [-np.inf], ExponentRange(0))
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
    _, trace = quantize_layer(w, [0.0, 0.0], rng)
    median = np.median(trace.norms[0])
    ql, _ = quantize_layer(w, [median, 2 * median], rng)
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
    # every value of a 4-bit code names an exponent of the window, so
    # an exponent below e_min needs a code that does not fit in 4 bits
    ql = random_model(4, n_layers=1)[0]
    assert ql.codes.size
    ql.codes = np.full_like(ql.codes, 1 << ql.rng.code_bits)
    with pytest.raises(PackingError, match="code"):
        pack_model([ql])


def test_too_many_layers_rejected():
    # the header holds the layer count in 16 bits
    ql = random_model(4, n_layers=1)[0]
    with pytest.raises(PackingError, match="too many layers: 65536"):
        pack_model([ql] * 65_536)


def test_non_canonical_zero_code_rejected():
    ql = random_model(4, n_layers=1)[0]
    ql.codes = ql.codes.copy()
    ql.codes[0] = 1 << (ql.rng.code_bits - 1)  # minus zero, in the first kept term
    with pytest.raises(PackingError, match="code"):
        pack_model([ql])


@pytest.mark.parametrize("filter_shape, e_max", [
    ((1 << 32,), 0),  # a dim past u32: a fully pruned layer holds no codes of it
    ((1,) * 256, 0),  # a dim count past u8
    ((2,), 40000),  # e_max past i16
], ids=["dim", "ndim", "e_max"])
def test_header_field_that_does_not_fit_rejected(filter_shape, e_max):
    # each raised a bare struct.error
    ql = QuantizedLayer(filter_shape, ExponentRange(e_max), np.zeros(2, np.int8),
                        np.zeros((0, math.prod(filter_shape)), np.uint8))
    with pytest.raises(PackingError, match="layer 1: header"):
        pack_model(random_model(4, n_layers=1) + [ql])


@pytest.mark.parametrize("which", [0, 2], ids=["3-bit", "5-bit"])
def test_non_contiguous_arrays_pack_as_their_contiguous_copies(which):
    # the codec views its input as words: a strided or Fortran-ordered array must be
    # read in C order all the same; k_i of any integer dtype packs as int8 does
    layer = golden_model()[which]
    want = pack_model([layer])
    assert want == reference_pack([layer])
    wide = np.zeros((layer.codes.shape[0], 2 * layer.filter_size), np.uint8)
    wide[:, 1::2] = layer.codes
    k_wide = np.zeros(2 * layer.num_filters, np.int8)
    k_wide[1::2] = layer.k_i
    variants = [
        (layer.k_i, wide[:, 1::2]),
        (layer.k_i, np.asfortranarray(layer.codes)),
        (k_wide[1::2], layer.codes),
        (layer.k_i.astype(np.int64), layer.codes),
        (layer.k_i.astype(np.uint8), layer.codes),
    ]
    assert not any(codes.flags.c_contiguous for _, codes in variants[:2])
    assert not variants[2][0].flags.c_contiguous
    for k_i, codes in variants:
        other = QuantizedLayer(layer.filter_shape, layer.rng, k_i, codes)
        assert other == layer and pack_model([other]) == want


@pytest.mark.parametrize("codes", [
    np.array([[1, -1, 2, 3]]),  # int64: -1 once packed as 0b1111, over its neighbour's field
    np.array([[1.7, 1.0, 2.0, 3.0]]),  # floats: 1.7 once packed as 1
], ids=["int64", "float"])
def test_codes_that_are_not_uint8_rejected(codes):
    ql = QuantizedLayer((4,), ExponentRange(0), np.array([1], np.int8), codes)
    with pytest.raises(PackingError, match="codes"):
        pack_model([ql])


def test_k_i_that_is_not_integer_rejected():
    # k_i [1.0, 1.9] once packed as [1, 1]
    ql = QuantizedLayer((3,), ExponentRange(0), np.array([1.0, 1.9]), np.ones((2, 3), np.uint8))
    with pytest.raises(PackingError, match="k_i"):
        pack_model([ql])


def test_filter_size_of_int32_dims_does_not_wrap():
    dims = (np.int32(70_000),) * 2
    ql = QuantizedLayer(dims, ExponentRange(0), np.zeros(1, np.int8),
                        np.zeros((0, 4_900_000_000), np.uint8))
    assert ql.filter_size == 4_900_000_000 and type(ql.filter_size) is int


def test_oversized_k_rejected():
    w = np.random.default_rng(5).normal(size=(2, 4))
    rng = ExponentRange.for_weights(w)
    ql, _ = quantize_layer(w, [-np.inf] * 4, rng)
    with pytest.raises(PackingError, match="k_i"):
        pack_model([ql])


def test_negative_k_rejected():
    # a 2-bit field cannot hold -1; it once packed as 0b11, a k_i of 3 with no codes
    ql = random_model(4, n_layers=1)[0]
    ql.k_i = ql.k_i.copy()
    ql.k_i[0] = -1
    with pytest.raises(PackingError, match="k_i"):
        pack_model([ql])


@pytest.mark.parametrize("extra", [(-1, 0), (1, 0), (0, 1)])
def test_codes_shape_must_match_k_i(extra):
    # codes hold exactly sum(k_i) terms of filter_size codes each
    ql = random_model(4, n_layers=1)[0]
    terms, n = ql.codes.shape
    ql.codes = np.zeros((terms + extra[0], n + extra[1]), np.uint8)
    with pytest.raises(PackingError, match="shape"):
        pack_model([ql])


def test_layer_code_bound(monkeypatch):
    # one k_i = 3 filter and one pruned filter of 4 weights: max k_i * F * n = 24
    codes = np.ones((3, 4), dtype=np.uint8)
    ql = QuantizedLayer((4,), ExponentRange(0), np.array([3, 0], np.int8), codes)
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


@pytest.mark.parametrize("max_k", [1, 2, 3])
@pytest.mark.parametrize("preset", ["mnist2", "net2"])
def test_trained_weights_are_the_streams_weights(preset, max_k):
    # the weights a train step runs on are the ones an unpacked stream decodes to
    net = Network(get_preset(preset))
    params = net.init_params(3)
    gen = np.random.default_rng(7)
    for name in net.weight_names:  # log-uniform filter scales spread k_i over 0..max_k
        w = params[name]
        scale = np.exp(gen.uniform(-3.5, 0.7, size=w.shape[0]))
        params[name] = (w * scale.reshape((-1,) + (1,) * (w.ndim - 1))).astype(w.dtype)
    cfg = TrainSettings(max_k=max_k, lambdas=(0.0,) * max_k)
    qparams, qinfo = quantize_weights(net, params, np.full((1, max_k), 0.1), cfg)
    unpacked = unpack_model(pack_model([qinfo[name][0] for name in net.weight_names]))
    k_all = np.concatenate([q.k_i for q in unpacked])
    assert set(k_all.tolist()) == set(range(max_k + 1))
    for name, layer in zip(net.weight_names, unpacked):
        got, want = qparams[name], layer.dequantize(params[name].dtype)
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), name


@st.composite
def layers(draw, filters=st.integers(0, 6), pruned=False):
    """A random valid layer: k_i in 0..3 (all 0 if pruned), each kept term any canonical codes."""
    code_bits = draw(st.integers(3, 8))
    rng = ExponentRange(draw(st.integers(-(1 << 15), (1 << 15) - 1)), code_bits)  # any i16
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    F = draw(filters)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(np.prod(shape))
    k_i = gen.integers(0, 1 if pruned else 4, size=F).astype(np.int8)
    codes = gen.integers(0, 1 << code_bits, size=(int(k_i.sum()), n)).astype(np.uint8)
    codes[codes == 1 << (code_bits - 1)] = 0  # no minus zero
    return QuantizedLayer(shape, rng, k_i, codes)


@settings(max_examples=60, deadline=None)
@given(st.lists(layers(), max_size=3))
def test_random_layers_roundtrip(model):
    data = pack_model(model)
    back = unpack_model(data)
    assert len(back) == len(model)
    for a, b in zip(model, back):
        assert a == b
        # bit patterns: past float64's exponents terms decode to 0 or inf, and inf - inf is NaN
        with np.errstate(invalid="ignore"):
            assert np.array_equal(a.dequantize().view(np.uint64), b.dequantize().view(np.uint64))
    assert pack_model(back) == data
    assert storage_bits(model) == 8 * (len(data) - header_length(model))


@settings(max_examples=100, deadline=None)
@given(st.lists(layers(), max_size=3))
def test_random_layers_match_reference_pack(model):
    assert pack_model(model) == reference_pack(model)


@st.composite
def long_models(draw):
    """Eight layers: zero-filter layers first, in the middle and last, an all-pruned
    layer, and F of every residue mod 4, in a random order between the first and last."""
    live = [draw(layers(st.integers(r == 0, 3).map(lambda q, r=r: 4 * q + r))) for r in range(4)]
    inner = [*live, draw(layers(st.integers(1, 9), pruned=True)), draw(layers(st.just(0)))]
    return [draw(layers(st.just(0))), *draw(st.permutations(inner)), draw(layers(st.just(0)))]


@settings(max_examples=60, deadline=None)
@given(long_models())
def test_long_models_match_reference_pack_and_roundtrip(model):
    # every layer's term count, k_i table and stream offset comes from the whole model's k_i
    assert {len(q.k_i) % 4 for q in model} == {0, 1, 2, 3} and len(model[0].k_i) == 0
    data = pack_model(model)
    assert data == reference_pack(model)
    back = unpack_model(data)
    assert len(back) == len(model) and all(a == b for a, b in zip(back, model))
    assert storage_bits(model) == 8 * (len(data) - header_length(model))


def test_bad_k_in_a_later_layer_names_that_layer():
    model = random_model(8, n_layers=5)
    for bad in ([1, 4], [-1], np.array([2**64 - 1], np.uint64), [1.0]):
        broken = copy.copy(model[3])
        broken.k_i = np.asarray(bad)  # uint64 2**64 - 1 once cast to int64 reads as -1
        with pytest.raises(PackingError, match=r"^layer 3: k_i"):
            pack_model(model[:3] + [broken] + model[4:])
    # an earlier layer's bad codes are the first error, as a layer-by-layer check finds them
    early = model[1]
    int16 = QuantizedLayer(early.filter_shape, early.rng, early.k_i, early.codes.astype(np.int16))
    with pytest.raises(PackingError, match=r"^layer 1: codes are int16"):
        pack_model([model[0], int16, model[2], broken, model[4]])


def test_unpack_names_a_bad_range():
    # layer 0's code_bits, byte 18, set to 2: its e_max starts at byte 16
    data = bytearray(GOLDEN_STREAM)
    assert data[18] == 3
    data[18] = 2
    with pytest.raises(PackingError, match=r"^layer 0: bad range at byte 16: code_bits"):
        unpack_model(bytes(data))


def test_unpack_names_a_non_canonical_zero_code():
    # byte 20 holds layer 0's 3-bit codes 2-4 (bits 1-3 are term 0 element 1): 011 -> 100
    data = bytearray(GOLDEN_STREAM)
    assert data[20] == 0xB6
    data[20] = 0xC6
    with pytest.raises(PackingError, match=r"^non-canonical zero code \(sign bit set\) at term 0 "
                                           r"element 1$"):
        unpack_model(bytes(data))


@pytest.mark.parametrize("cut, message", [
    (10, "truncated layer 0 table at byte 7"),
    (12, "truncated layer 0 dims at byte 12"),
    (15, "truncated layer 0 dims at byte 12"),
    (16, "truncated layer 0 range at byte 16"),
    (18, "truncated layer 0 range at byte 16"),
    (19, "truncated k_i table at byte 19"),
    (21, "truncated term codes at byte 20"),
])
def test_truncation_names_the_field(cut, message):
    with pytest.raises(PackingError, match=f"^{message}$"):
        unpack_model(GOLDEN_STREAM[:cut])


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
