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
is the one definition of what a code means.  e_max and code_bits are the
whole ExponentRange: its e_min follows from them.

The bytes before the first payload bit of each layer (global header and
the per-layer tables) are "fixed headers"; storage accounting excludes
them.  storage_bits packs the model to measure it, so cost_report packs it once
more after an export has; ROADMAP item 1 sums payload_bits instead.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ConfigError, PackingError
from .quant import ExponentRange, QuantizedLayer

MAGIC = b"P2WS"
VERSION = 1
# unpack_model rejects a layer whose max k_i * F * n exceeds this many codes
# (256 MiB of uint8), counting at least one term and one filter: even a fully
# pruned layer dequantizes to F * n weights.  A short stream can claim a layer
# far larger than itself; the bound makes that a PackingError at unpack time
# rather than a MemoryError when the layer is dequantized.
MAX_LAYER_CODES = 1 << 28
MAX_K = 3  # largest k_i the 2-bit per-filter header holds
_PAD = np.zeros(3, np.uint64)  # zero k_i fields, to end a layer's k_i table on a byte


def header_length(layers: list[QuantizedLayer]) -> int:
    """Bytes of fixed headers: global header plus per-layer tables of 8 bytes + 4 per dim."""
    return len(MAGIC) + 3 + sum(8 + 4 * len(layer.filter_shape) for layer in layers)


def payload_bits(layer: QuantizedLayer) -> int:
    """Unpadded payload size: per-filter k_i headers plus term codes."""
    term_bits = int(layer.k_i.astype(np.int64).sum()) * layer.filter_size * layer.rng.code_bits
    return 2 * layer.num_filters + term_bits


def _pack_fields(values: np.ndarray, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """Values below 2**width as width-bit fields, MSB-first, zero-padded to a byte.

    Neighbours merge pairwise until a group of g = 8 / gcd(8, width) fields fills
    width * g / 8 whole bytes.  A merge views the contiguous s-byte fields as words
    of 2s bytes, so that a pair (a, b) is the word a | b << 8s, and
    ((word << bits) | (word >> 8s)) & mask is a << bits | b.  The views are
    little-endian ('<u2', '<u4', '<u8') on every host: the byte order decides
    which field of a pair is a.  Each group's low bytes go out most significant first.
    Writes to `out` if given, which must hold the whole last group (its pad bytes are 0).
    """
    count = values.size
    g = 8 // math.gcd(8, width)
    v = np.ascontiguousarray(values, dtype=np.uint8).reshape(-1)
    if count % g:  # zero-pad the last group
        v = np.concatenate([v, np.zeros(g - count % g, dtype=np.uint8)])
    bits, size = width, 1
    while bits < width * g:
        word = v.astype(f"<u{size}", copy=False).view(f"<u{2 * size}")
        v = word << bits
        v |= word >> 8 * size
        bits, size = 2 * bits, 2 * size
        if bits < width * g:  # the last merge needs no mask: only its low bytes are written
            v &= (1 << bits) - 1
    nbytes = bits // 8
    out = np.empty(v.size * nbytes, np.uint8) if out is None else out[: v.size * nbytes]
    groups = out.reshape(-1, nbytes)
    for j in range(nbytes - 1):
        groups[:, j] = v >> 8 * (nbytes - 1 - j)
    groups[:, -1] = v  # the low byte: a cast, with no shifted copy
    return out[: -(-count * width // 8)]


def _unpack_fields(data: np.ndarray, width: int, count: int) -> np.ndarray:
    """The first `count` width-bit fields of `data`, as _pack_fields lays them out.

    Each group's bytes, most significant first, form a word of g bytes.  A split
    turns words v of two bits-wide fields into (v >> bits) | ((v & mask) << 8 * half),
    little-endian as in _pack_fields, whose view as '<u{half}' holds the first field,
    then the second.  8-bit fields are the stream's own bytes, not a copy.
    """
    g = 8 // math.gcd(8, width)
    nbytes = width * g // 8
    if count % g:  # the last group is partial: zero-pad it
        data = np.concatenate([data, np.zeros(-(-count // g) * nbytes - data.size, np.uint8)])
    groups = data.reshape(-1, nbytes)
    v = groups[:, 0].astype(f"<u{g}", copy=False)
    for j in range(1, nbytes):
        v = (v << 8) | groups[:, j]
    bits, size = width * g, g
    while size > 1:
        bits, size = bits // 2, size // 2
        word = v & ((1 << bits) - 1)
        word <<= 8 * size
        word |= v >> bits
        v = word.astype(f"<u{2 * size}", copy=False).view(f"<u{size}")
    return v[:count]


def _run_sums(values: np.ndarray, sizes: list[int]) -> list[int]:
    """The sum of each run of consecutive values, one run per size (0 for a size of 0)."""
    at = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))[np.cumsum([0, *sizes])]
    return (at[1:] - at[:-1]).tolist()


def _fitting_k(ks: list[np.ndarray], group: int = 1) -> tuple[int, np.ndarray]:
    """The first i whose ks[i] is not integers in [0, MAX_K] (or len(ks)), and ks[:i] as one
    uint64 array, each zero-padded to a multiple of `group` fields."""
    bad = next((i for i, k_i in enumerate(ks) if k_i.dtype.kind not in "iu"), len(ks))
    runs = [run for k_i in ks[:bad] for run in (k_i, _PAD[: -len(k_i) % group])]
    k_all = np.concatenate([_PAD[:0], *runs], dtype=np.uint64, casting="unsafe")
    if k_all.max(initial=0) > MAX_K:  # a negative k_i wraps past it
        bad = next(i for i, k_i in enumerate(ks)
                   if not 0 <= k_i.min(initial=0) <= k_i.max(initial=0) <= MAX_K)
        k_all = k_all[: sum(len(k_i) + -len(k_i) % group for k_i in ks[:bad])]
    return bad, k_all


def pack_model(layers: list[QuantizedLayer]) -> bytes:
    """Serialize quantized layers to the packed stream.

    Every k_i is concatenated once; each payload is written in place into a buffer of its
    own, and the stream is joined once.  One stream-sized scratch buffer instead let the
    heap shrink and regrow on every export, faulting its pages in again."""
    if len(layers) > 0xFFFF:
        raise PackingError(f"too many layers: {len(layers)}")
    bad_k, fields = _fitting_k([layer.k_i for layer in layers], 4)  # tables end on a byte
    terms = _run_sums(fields, [len(q.k_i) + -len(q.k_i) % 4 for q in layers[:bad_k]])
    tables = _pack_fields(fields, 2)
    parts = [MAGIC, struct.pack("<BH", VERSION, len(layers))]  # joined once, at the end
    for idx, layer in enumerate(layers):
        if idx == bad_k:
            raise PackingError(f"layer {idx}: k_i must be integers in [0, {MAX_K}] to fit 2 bits")
        rng, codes, shape = layer.rng, layer.codes, (terms[idx], layer.filter_size)
        if codes.dtype != np.uint8 or codes.shape != shape:
            raise PackingError(f"layer {idx}: codes are {codes.dtype} of shape {codes.shape}, "
                               f"expected uint8 of shape {shape}")
        zero = 1 << (rng.code_bits - 1)  # the sign bit alone: minus zero
        if int(codes.max(initial=0)) >> rng.code_bits or (codes == zero).any():
            bad = (codes >= 1 << rng.code_bits) | (codes == zero)
            raise PackingError(
                f"layer {idx}: {int(bad.sum())} term code(s) outside the "
                f"{rng.code_bits}-bit code set, the first is {codes[bad][0]}"
            )
        f, dims = len(layer.k_i), layer.filter_shape
        try:
            parts.append(struct.pack(f"<IB{len(dims)}IhB", f, len(dims), *dims, rng.e_max,
                                     rng.code_bits))
        except struct.error as exc:  # a dim past u32, over 255 dims or e_max past i16
            raise PackingError(f"layer {idx}: header field does not fit: {exc}") from exc
        head_bytes, size = (f + 3) // 4, (2 * f + codes.size * rng.code_bits + 7) // 8
        payload = np.empty(size + 7, np.uint8)  # room for the codes' last whole group
        payload[:head_bytes], tables = tables[:head_bytes], tables[head_bytes:]
        if f % 4:  # the k_i table ends mid-byte: the code bytes move right by `shift` bits
            body, shift = _pack_fields(codes, rng.code_bits), 2 * f % 8
            payload[head_bytes:size] = body[: size - head_bytes] << (8 - shift)
            payload[head_bytes - 1 : head_bytes - 1 + body.size] |= body >> shift
        else:
            _pack_fields(codes, rng.code_bits, out=payload[head_bytes:])
        parts.append(payload[:size])
    return b"".join(parts)


def _read(fmt: str, data: bytes, pos: int, what: str):
    """Unpack `fmt` at byte pos; returns (fields, next pos)."""
    end = pos + struct.calcsize(fmt)
    if end > len(data):
        raise PackingError(f"truncated {what} at byte {pos}")
    return struct.unpack_from(fmt, data, pos), end


# _K_FIELDS[b] is the four 2-bit k_i fields of byte b, most significant first
_K_FIELDS = (np.arange(256)[:, None] >> np.array([6, 4, 2, 0]) & 3).astype(np.int8)


def unpack_model(data: bytes) -> list[QuantizedLayer]:
    """Parse a packed stream back into quantized layers.

    Raises PackingError, and only PackingError, on any malformed stream.
    """
    data = bytes(data)  # the layers' codes may be views of it: never of a mutable buffer
    if data[: len(MAGIC)] != MAGIC:
        raise PackingError(f"bad magic {data[:len(MAGIC)]!r} at byte 0")
    (version, count), pos = _read("<BH", data, len(MAGIC), "stream header")
    if version != VERSION:
        raise PackingError(f"unsupported stream version {version} (expected {VERSION})")
    buf = np.frombuffer(data, dtype=np.uint8)
    layers = []
    for idx in range(count):
        (F, ndim), pos = _read("<IB", data, pos, f"layer {idx} table")
        if pos + 4 * ndim + 3 > len(data):  # name the field the stream ends in
            end, what = (pos, "dims") if pos + 4 * ndim > len(data) else (pos + 4 * ndim, "range")
            raise PackingError(f"truncated layer {idx} {what} at byte {end}")
        *dims, e_max, code_bits = struct.unpack_from(f"<{ndim}IhB", data, pos)
        pos += 4 * ndim + 3
        try:
            rng = ExponentRange(e_max, code_bits)
        except ConfigError as exc:
            raise PackingError(f"layer {idx}: bad range at byte {pos - 3}: {exc}") from exc
        n = math.prod(dims)

        head_bytes = (2 * F + 7) // 8
        if pos + head_bytes > len(data):
            raise PackingError(f"truncated k_i table at byte {pos}")
        k_i = _K_FIELDS[buf[pos : pos + head_bytes]].reshape(-1)[:F]
        k_max = int(k_i.max(initial=0))
        if max(k_max, 1) * max(F, 1) * n > MAX_LAYER_CODES:
            raise PackingError(
                f"layer {idx}: {k_max} terms of {F} filters of {n} weights exceed "
                f"{MAX_LAYER_CODES} codes"
            )
        terms = int(k_i.sum())
        body_bits = terms * n * code_bits
        payload_len = (2 * F + body_bits + 7) // 8
        if pos + payload_len > len(data):
            raise PackingError(f"truncated term codes at byte {pos + head_bytes}")
        payload = buf[pos : pos + payload_len]
        pos += payload_len

        shift = 2 * F % 8
        if shift:  # the codes start `shift` bits into the last k_i byte
            body = payload[head_bytes - 1 : head_bytes - 1 + (body_bits + 7) // 8] << shift
            tail = payload[head_bytes:]  # one byte shorter than body, or as long
            body[: tail.size] |= tail >> (8 - shift)
        else:
            body = payload[head_bytes:]
        codes = _unpack_fields(body, code_bits, terms * n)
        zero = codes == 1 << (code_bits - 1)
        if zero.any():
            term, elem = divmod(int(zero.argmax()), n)
            raise PackingError(
                f"non-canonical zero code (sign bit set) at term {term} element {elem}"
            )
        layers.append(QuantizedLayer(dims, rng, k_i, codes.reshape(terms, n), _terms=terms))
    if pos != len(data):
        raise PackingError(f"{len(data) - pos} trailing bytes after byte {pos}")
    return layers


def storage_bits(layers: list[QuantizedLayer]) -> int:
    """Payload bits of the packed stream: 8 * (stream length - fixed headers)."""
    return 8 * (len(pack_model(layers)) - header_length(layers))
