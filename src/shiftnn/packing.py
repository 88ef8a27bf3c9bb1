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
            code per element in C order.  A code is 1 sign bit (0=+ / 1=-)
            followed by (code_bits - 1) value bits: 0 is the zero code
            (sign bit must be 0), value c >= 1 means exponent e_max-(c-1).
        payload padded with 0 bits to the next byte boundary.

The bytes before the first payload bit of each layer (global header and
the per-layer tables) are "fixed headers"; storage accounting excludes
them.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import PackingError
from .quant import ExponentRange, QuantizedLayer

MAGIC = b"P2WS"
VERSION = 1
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
    rng = layer.rng
    value = np.where(layer.term_zero, 0, 1 + (rng.e_max - layer.term_exp))
    sign_bit = np.where(layer.term_zero, 0, (layer.term_sign < 0).astype(np.int32))
    code = (sign_bit << (rng.code_bits - 1)) | value  # (k, F, n)
    keep = np.arange(layer.max_k)[:, None] < layer.k_i[None, :]
    # transpose to filter-major order before selecting kept term slots
    return code.transpose(1, 0, 2)[keep.T]  # (total_terms, n)


def _to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Flat MSB-first bit expansion of an integer array."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((values.reshape(-1, 1).astype(np.int64) >> shifts) & 1).astype(np.uint8).ravel()


def pack_model(layers: list[QuantizedLayer]) -> bytes:
    """Serialize quantized layers to the packed stream."""
    if len(layers) > 0xFFFF:
        raise PackingError(f"too many layers: {len(layers)}")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<BH", VERSION, len(layers))
    for idx, layer in enumerate(layers):
        if int(layer.k_i.max(initial=0)) > MAX_K:
            raise PackingError(f"layer {idx}: k_i > {MAX_K} does not fit the 2-bit header")
        live = ~layer.term_zero
        if live.any():
            exps = layer.term_exp[live]
            if int(exps.min()) < layer.rng.e_min or int(exps.max()) > layer.rng.e_max:
                raise PackingError(
                    f"layer {idx}: exponent outside [{layer.rng.e_min}, {layer.rng.e_max}]"
                )
        out += _layer_header(layer)
        bits = np.concatenate(
            [
                _to_bits(layer.k_i.astype(np.int64), 2),
                _to_bits(_kept_codes(layer), layer.rng.code_bits),
            ]
        )
        out += np.packbits(bits).tobytes()  # packbits zero-pads the final byte
    return bytes(out)


def unpack_model(data: bytes) -> list[QuantizedLayer]:
    """Parse a packed stream back into quantized layers."""
    if data[: len(MAGIC)] != MAGIC:
        raise PackingError(f"bad magic {data[:len(MAGIC)]!r} at byte 0")
    pos = len(MAGIC)
    version, count = struct.unpack_from("<BH", data, pos)
    if version != VERSION:
        raise PackingError(f"unsupported stream version {version} (expected {VERSION})")
    pos += 3
    layers = []
    for _ in range(count):
        if pos + 5 > len(data):
            raise PackingError(f"truncated layer table at byte {pos}")
        F, ndim = struct.unpack_from("<IB", data, pos)
        pos += 5
        dims = struct.unpack_from(f"<{ndim}I", data, pos)
        pos += 4 * ndim
        e_max, code_bits = struct.unpack_from("<hB", data, pos)
        pos += 3
        rng = ExponentRange.widest(e_max, code_bits)
        n = int(np.prod(dims)) if dims else 1

        head_bytes = (2 * F + 7) // 8
        if pos + head_bytes > len(data):
            raise PackingError(f"truncated k_i table at byte {pos}")
        head_bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, count=head_bytes, offset=pos)
        )[: 2 * F]
        k_i = ((head_bits[0::2].astype(np.int64) << 1) | head_bits[1::2]).astype(np.int8)
        total_terms = int(k_i.astype(np.int64).sum())
        payload_len = (2 * F + total_terms * n * code_bits + 7) // 8
        if pos + payload_len > len(data):
            raise PackingError(f"truncated term codes at byte {pos + head_bytes}")
        bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, count=payload_len, offset=pos)
        )[2 * F : 2 * F + total_terms * n * code_bits]
        pos += payload_len

        width = np.arange(code_bits - 1, -1, -1, dtype=np.int64)
        codes = (bits.reshape(-1, code_bits).astype(np.int64) << width).sum(axis=1)
        codes = codes.reshape(total_terms, n)
        sign_bit = codes >> (code_bits - 1)
        value = codes & ((1 << (code_bits - 1)) - 1)
        bad = (value == 0) & (sign_bit == 1)
        if bad.any():
            term, elem = np.argwhere(bad)[0]
            raise PackingError(
                f"non-canonical zero code (sign bit set) at term {term} element {elem}"
            )

        k_max = max(int(k_i.max(initial=0)), 1)
        sign = np.ones((k_max, F, n), dtype=np.int8)
        exp = np.full((k_max, F, n), rng.e_min, dtype=np.int32)
        zero = np.ones((k_max, F, n), dtype=bool)
        keep = (np.arange(k_max)[:, None] < k_i[None, :]).T  # (F, k_max)
        sign.transpose(1, 0, 2)[keep] = np.where(sign_bit == 1, -1, 1).astype(np.int8)
        exp.transpose(1, 0, 2)[keep] = np.where(value == 0, rng.e_min, e_max - (value - 1))
        zero.transpose(1, 0, 2)[keep] = value == 0
        layers.append(QuantizedLayer(tuple(dims), rng, k_i, sign, exp, zero))
    if pos != len(data):
        raise PackingError(f"{len(data) - pos} trailing bytes after byte {pos}")
    return layers


def storage_bits(layers: list[QuantizedLayer]) -> int:
    """Payload bits of the packed stream: 8 * (stream length - fixed headers)."""
    return 8 * (len(pack_model(layers)) - header_length(layers))
