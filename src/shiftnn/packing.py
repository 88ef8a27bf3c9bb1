"""Bit-exact serialization of quantized models.

Stream layout (all multi-byte integers little-endian):

    magic  b"P2WS"
    u8     format version (1)
    u16    layer count
    per layer:
        u32   filter count F
        u8    number of per-filter dims d
        d*u32 per-filter dims
        i16   e_max
        u8    code_bits
        payload bits, MSB-first within each byte:
            F * 2-bit k_i
            per filter, its k_i terms in firing order; each term holds one
            code_bits-wide code per element in C order.
        payload padded with 0 bits to the next byte boundary.

The codes are QuantizedLayer.codes written as they are; ExponentRange.decode
is the one definition of what a code means.  Only e_max is stored, so a
layer's range must be ExponentRange.widest(e_max, code_bits).

The bytes before the first payload bit of each layer (global header and
the per-layer tables) are "fixed headers"; storage accounting excludes
them.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ConfigError, PackingError
from .quant import ExponentRange, QuantizedLayer

MAGIC = b"P2WS"
VERSION = 1
# unpack_model rejects a layer whose dense (max k_i, F, n) code array would
# exceed this many uint8 codes (256 MiB), counting at least one term and one
# filter: a fully pruned layer still dequantizes to F * n weights, and numpy
# must index even an empty one.  A short stream can claim a layer far larger
# than itself; the bound makes that a PackingError rather than a MemoryError.
MAX_LAYER_CODES = 1 << 28
MAX_K = 3  # largest k_i the 2-bit per-filter header holds


def _layer_header(layer: QuantizedLayer) -> bytes:
    head = struct.pack("<IB", layer.num_filters, len(layer.filter_shape))
    for d in layer.filter_shape:
        head += struct.pack("<I", d)
    head += struct.pack("<hB", layer.rng.e_max, layer.rng.code_bits)
    return head


def header_length(layers: list[QuantizedLayer]) -> int:
    """Bytes of fixed headers: global header plus per-layer tables."""
    n = len(MAGIC) + 1 + 2
    for layer in layers:
        n += len(_layer_header(layer))
    return n


def payload_bits(layer: QuantizedLayer) -> int:
    """Unpadded payload size: per-filter k_i headers plus term codes."""
    term_bits = int(layer.k_i.astype(np.int64).sum()) * layer.filter_size * layer.rng.code_bits
    return 2 * layer.num_filters + term_bits


def _kept_codes(layer: QuantizedLayer) -> np.ndarray:
    """Codes of kept terms in filter-major, term-major, element-major order."""
    keep = np.arange(layer.max_k)[:, None] < layer.k_i[None, :]
    # transpose to filter-major order before selecting kept term slots
    return layer.codes.transpose(1, 0, 2)[keep.T]  # (total_terms, n)


def _to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Flat MSB-first bit expansion of values that fit `width` <= 8 bits."""
    bits = np.unpackbits(values.astype(np.uint8).reshape(-1, 1), axis=1)
    return bits[:, 8 - width :].ravel()


def pack_model(layers: list[QuantizedLayer]) -> bytes:
    """Serialize quantized layers to the packed stream."""
    if len(layers) > 0xFFFF:
        raise PackingError(f"too many layers: {len(layers)}")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<BH", VERSION, len(layers))
    for idx, layer in enumerate(layers):
        rng = layer.rng
        if rng != ExponentRange.widest(rng.e_max, rng.code_bits):
            # the stream stores e_max only, so unpacking assumes the widest range
            raise PackingError(f"layer {idx}: range {rng} is not the widest for its e_max")
        if int(layer.k_i.max(initial=0)) > MAX_K:
            raise PackingError(f"layer {idx}: k_i > {MAX_K} does not fit the 2-bit header")
        codes = _kept_codes(layer)
        bad = (codes >= 1 << rng.code_bits) | (codes == 1 << (rng.code_bits - 1))
        if bad.any():
            raise PackingError(
                f"layer {idx}: {int(bad.sum())} term code(s) outside the "
                f"{rng.code_bits}-bit code set, the first is {codes[bad][0]}"
            )
        out += _layer_header(layer)
        bits = np.concatenate([_to_bits(layer.k_i, 2), _to_bits(codes, rng.code_bits)])
        out += np.packbits(bits).tobytes()  # packbits zero-pads the final byte
    return bytes(out)


def _read(fmt: str, data: bytes, pos: int, what: str):
    """Unpack `fmt` at byte pos; returns (fields, next pos)."""
    end = pos + struct.calcsize(fmt)
    if end > len(data):
        raise PackingError(f"truncated {what} at byte {pos}")
    return struct.unpack_from(fmt, data, pos), end


def unpack_model(data: bytes) -> list[QuantizedLayer]:
    """Parse a packed stream back into quantized layers.

    Raises PackingError, and only PackingError, on any malformed stream.
    """
    if data[: len(MAGIC)] != MAGIC:
        raise PackingError(f"bad magic {data[:len(MAGIC)]!r} at byte 0")
    (version, count), pos = _read("<BH", data, len(MAGIC), "stream header")
    if version != VERSION:
        raise PackingError(f"unsupported stream version {version} (expected {VERSION})")
    layers = []
    for idx in range(count):
        (F, ndim), pos = _read("<IB", data, pos, f"layer {idx} table")
        dims, pos = _read(f"<{ndim}I", data, pos, f"layer {idx} dims")
        (e_max, code_bits), pos = _read("<hB", data, pos, f"layer {idx} range")
        try:
            rng = ExponentRange.widest(e_max, code_bits)
        except ConfigError as exc:
            raise PackingError(f"layer {idx}: bad range at byte {pos - 3}: {exc}") from exc
        n = math.prod(dims)

        head_bytes = (2 * F + 7) // 8
        if pos + head_bytes > len(data):
            raise PackingError(f"truncated k_i table at byte {pos}")
        head_bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, count=head_bytes, offset=pos)
        )[: 2 * F]
        k_i = ((head_bits[0::2].astype(np.int64) << 1) | head_bits[1::2]).astype(np.int8)
        k_max = int(k_i.max(initial=0))
        if max(k_max, 1) * max(F, 1) * n > MAX_LAYER_CODES:
            raise PackingError(
                f"layer {idx}: {k_max} terms of {F} filters of {n} weights exceed "
                f"{MAX_LAYER_CODES} codes"
            )
        total_terms = int(k_i.astype(np.int64).sum())
        payload_len = (2 * F + total_terms * n * code_bits + 7) // 8
        if pos + payload_len > len(data):
            raise PackingError(f"truncated term codes at byte {pos + head_bytes}")
        bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, count=payload_len, offset=pos)
        )[2 * F : 2 * F + total_terms * n * code_bits]
        pos += payload_len

        # each code_bits-wide row packs left-aligned into one byte
        codes = np.packbits(bits.reshape(-1, code_bits), axis=1)[:, 0] >> (8 - code_bits)
        bad = np.flatnonzero(codes == 1 << (code_bits - 1))
        if bad.size:
            term, elem = divmod(int(bad[0]), n)
            raise PackingError(
                f"non-canonical zero code (sign bit set) at term {term} element {elem}"
            )

        layer_codes = np.zeros((k_max, F, n), dtype=np.uint8)
        keep = np.arange(k_max)[:, None] < k_i[None, :]
        layer_codes.transpose(1, 0, 2)[keep.T] = codes.reshape(total_terms, n)
        layers.append(QuantizedLayer(dims, rng, k_i, layer_codes))
    if pos != len(data):
        raise PackingError(f"{len(data) - pos} trailing bytes after byte {pos}")
    return layers


def storage_bits(layers: list[QuantizedLayer]) -> int:
    """Payload bits of the packed stream: 8 * (stream length - fixed headers)."""
    return 8 * (len(pack_model(layers)) - header_length(layers))
