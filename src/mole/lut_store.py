"""On-disk lookup-table format, blockwise normal-float quantization, and the
row-source fetch contract shared by the file reader and in-memory tables.

File layout (little-endian throughout):
    offset  0   magic      8 bytes  "MOLELUT1"
    offset  8   version    u32
    offset 12   n_layers   u32
    offset 16   vocab      u32
    offset 20   n_experts  u32
    offset 24   d          u32
    offset 28   dtype      u8   (0=fp32, 1=fp16, 2=nf4, 3=nf3)
    offset 29   block_size u32  (0 for unquantized)
    offset 33   reserved, zero to byte 64 (a reader rejects any other value)
    offset 64   payload

Payload values are ordered layer-major, token-major, expert-major,
dimension-minor. Quantized payloads store each (token, expert) row of length
d as consecutive blocks of ``block_size`` values; a block is a half-precision
absmax scale (2 bytes) followed by the codebook indices bit-packed LSB-first
(4 or 3 bits per value).

The normal-float codebooks are the 2^bits quantiles of the standard normal,
symmetrized to include 0 and +-1, frozen below as literal constants (pinned
by tests and implied by the file version). A value's code is its nearest
entry, the lower index on ties, after division by the stored scale. The
encoder finds it as a count of frozen float32 thresholds, one per pair of
neighbouring entries: the largest float32 ``x`` in ``(cb[i-1], cb[i]]`` with
``fl(x - cb[i-1]) <= fl(cb[i] - x)``. Both sides are monotone in ``x``, so
``x`` takes ``cb[i-1]`` exactly when it is at most that threshold, and the
count of thresholds below a value is the code an exhaustive argmin picks.
The decoder looks codes up a whole-byte group at a time: nf4 one byte (two
codes) in a 256 x 2 table, nf3 each 12-bit half (four codes) of a 3-byte
group in a 4096 x 4 table; the values are then scaled in float32. Rows are
fetched lazily, when ``await_rows`` redeems the ticket ``prefetch`` handed
out (``RowSource``).

A reader maps the payload read-only and copies each fetch's records out of
the map in one indexed read, so only the pages a fetch touches are read in
and the payload never loads wholesale. Every requested record is charged to
the reader's byte counter, a repeated id again. ``write_lut`` replaces a
file atomically (a new file renamed over the path), so an open reader keeps
the old bytes; truncating a file in place while a reader has it open is
unsupported and kills the process with SIGBUS on the next read of a lost
page.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import struct
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write

MAGIC = b"MOLELUT1"
VERSION = 1
HEADER_SIZE = 64
_HEADER_FMT = "<8sIIIIIBI"
_HEADER_USED = struct.calcsize(_HEADER_FMT)  # 33; the rest of the header is zero

DTYPE_CODES = {"fp32": 0, "fp16": 1, "nf4": 2, "nf3": 3}
CODE_DTYPES = {v: k for k, v in DTYPE_CODES.items()}
QUANT_BITS = {"nf4": 4, "nf3": 3}

# Largest header dimension product we accept before declaring the file absurd.
_MAX_PAYLOAD = 1 << 62

NF4_CODEBOOK = np.array([
    -1.0,
    -0.69619289060372,
    -0.5250730386952291,
    -0.3949174906993099,
    -0.2844413576181077,
    -0.18477343519288886,
    -0.09104999214427931,
    0.0,
    0.07958032909416937,
    0.16093017270493618,
    0.2461122939299359,
    0.33791519352165506,
    0.44070980241319013,
    0.562616970075237,
    0.7229567278928821,
    1.0,
], dtype=np.float32)

NF3_CODEBOOK = np.array([
    -1.0,
    -0.4786291601159111,
    -0.21714181782574396,
    0.0,
    0.16093017270493618,
    0.33791519352165506,
    0.562616970075237,
    1.0,
], dtype=np.float32)

CODEBOOKS = {"nf4": NF4_CODEBOOK, "nf3": NF3_CODEBOOK}

# THRESHOLDS[dtype][i - 1] is the largest float32 x in (cb[i-1], cb[i]] that
# takes cb[i-1]: fl(x - cb[i-1]) <= fl(cb[i] - x) (ties go to the lower
# index). Frozen from that rule; the tests derive each one again.
NF4_THRESHOLDS = np.array([
    -0.848096489906311,
    -0.6106330156326294,
    -0.4599952697753906,
    -0.33967941999435425,
    -0.23460739850997925,
    -0.13791172206401825,
    -0.045524995774030685,
    0.039790164679288864,
    0.120255246758461,
    0.2035212218761444,
    0.2920137345790863,
    0.3893124759197235,
    0.501663327217102,
    0.6427868008613586,
    0.861478328704834,
], dtype=np.float32)

NF3_THRESHOLDS = np.array([
    -0.739314615726471,
    -0.34788551926612854,
    -0.10857091099023819,
    0.08046508580446243,
    0.24942266941070557,
    0.4502660632133484,
    0.7813084721565247,
], dtype=np.float32)

THRESHOLDS = {"nf4": NF4_THRESHOLDS, "nf3": NF3_THRESHOLDS}
# the code a zero-scale block stores: the codebook's 0.0
ZERO_CODES = {name: int(np.argmin(np.abs(cb))) for name, cb in CODEBOOKS.items()}


def codebook_half_max_gap(dtype: str) -> float:
    """Half the widest spacing between adjacent codebook entries: the
    per-block reconstruction error bound as a fraction of the block scale."""
    cb = CODEBOOKS[dtype]
    return float(np.max(np.diff(cb)) / 2.0)


class LutFormatError(IOError):
    """Base class for malformed LUT files."""


class BadMagicError(LutFormatError):
    """Not a LUT file."""


class LutVersionError(LutFormatError):
    """Unsupported format version."""


class PayloadLengthError(LutFormatError):
    """Declared payload length disagrees with the file length."""


class DimensionError(LutFormatError):
    """Header dimensions are zero, inconsistent, or overflow sanity bounds."""


class ReservedBytesError(LutFormatError):
    """A reserved header byte (offsets 33-63) is not zero."""


class TicketError(RuntimeError):
    """A fetch ticket was awaited more than once."""


@dataclass
class LutTable:
    """One layer's pre-computed expert outputs, shape (vocab, N, d)."""

    layer_index: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError(f"table must be (vocab, N, d), got {self.values.shape}")


# ---------------------------------------------------------------------------
# Blockwise quantization
# ---------------------------------------------------------------------------

def _block_layout(dtype: str, block_size: int, d: int) -> int:
    """Bytes per (token, expert) row; validates the block geometry."""
    if dtype in ("fp32", "fp16"):
        if block_size != 0:
            raise ValueError("unquantized dtypes take block_size 0")
        return d * (4 if dtype == "fp32" else 2)
    bits = QUANT_BITS[dtype]
    if block_size <= 0:
        raise ValueError("quantized dtypes need block_size > 0")
    if d % block_size != 0:
        raise ValueError(f"block_size {block_size} does not divide d={d}")
    if (bits * block_size) % 8 != 0:
        raise ValueError(f"{bits}-bit blocks of {block_size} values do not fill whole bytes")
    return (d // block_size) * (2 + bits * block_size // 8)


def _block_absmax(blocks: np.ndarray) -> np.ndarray:
    """max |x| over the last axis, by elementwise folds of halves over a
    transposed copy, so each fold runs over every block at once (an odd
    width first folds its last column into the first). A max is exact in any
    order, so this is ``np.abs(blocks).max(axis=-1)`` without a reduction
    over a short axis."""
    flat = blocks.reshape(-1, blocks.shape[-1])
    m = np.abs(flat.T, out=np.empty(flat.shape[::-1], flat.dtype))
    while len(m) > 1:
        width = len(m)
        if width % 2:
            np.maximum(m[0], m[width - 1], out=m[0])
            width -= 1
        m = np.maximum(m[:width // 2], m[width // 2:width])
    return m[0].reshape(blocks.shape[:-1])


def _quantize_blocks(values: np.ndarray, dtype: str, block_size: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized blockwise quantization of (..., d) values.

    Returns (scales (..., n_blocks) float16, codes (..., n_blocks, block_size)
    uint8). Values are normalized by the *stored* (half-rounded) scale, so
    encode and decode agree exactly; a zero (or half-underflowing) scale maps
    the whole block to the codebook zero. A code is the count of the
    dtype's thresholds below the normalized value (see the module docstring).
    """
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("cannot quantize non-finite values")
    blocks = values.reshape(values.shape[:-1] + (-1, block_size)).astype(np.float32,
                                                                         copy=False)
    scales = _block_absmax(blocks).astype(np.float16)
    scale_f32 = scales.astype(np.float32)
    zero = scale_f32 == 0.0
    normalized = blocks / np.where(zero, np.float32(1.0), scale_f32)[..., None]
    codes = np.zeros(normalized.shape, np.uint8)
    for threshold in THRESHOLDS[dtype]:
        codes += (normalized > threshold).view(np.uint8)
    codes[zero] = ZERO_CODES[dtype]
    return scales, codes


def _code_groups(bits: int) -> tuple[int, int]:
    """(codes, bytes) of the smallest run of whole bytes holding whole
    ``bits``-bit codes: (8, 3) for nf3, (2, 1) for nf4."""
    codes = 8 // math.gcd(bits, 8)
    return codes, bits * codes // 8


def _pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Bit-pack (..., block_size) uint8 codes LSB-first into bytes: each
    group of codes becomes one little-endian integer, stored byte by byte."""
    per_group, width = _code_groups(bits)
    groups = codes.reshape(codes.shape[:-1] + (-1, per_group))
    word = np.zeros(groups.shape[:-1], np.uint32)
    for j in range(per_group):
        word |= groups[..., j].astype(np.uint32) << np.uint32(bits * j)
    packed = np.empty(word.shape + (width,), np.uint8)
    for k in range(width):
        packed[..., k] = word >> np.uint32(8 * k)  # the store keeps the low byte
    return packed.reshape(codes.shape[:-1] + (-1,))


@functools.cache
def _decode_table(dtype: str) -> np.ndarray:
    """The dtype's decode table, built on first use and read-only: row ``w``
    holds the codebook values of the codes packed LSB-first in the integer
    ``w``. nf4 is indexed by byte (256 x 2, 2 KiB), nf3 by each 12-bit half
    of a 3-byte group (4096 x 4, 64 KiB)."""
    bits, codes = QUANT_BITS[dtype], {"nf4": 2, "nf3": 4}[dtype]
    word = np.arange(1 << bits * codes, dtype=np.uint16)
    table = np.stack([CODEBOOKS[dtype][(word >> bits * j) & ((1 << bits) - 1)]
                      for j in range(codes)], axis=-1)
    table.flags.writeable = False
    return table


def _record_dtype(dtype: str, block_size: int) -> np.dtype:
    """One quantized block as stored: the half scale, then the packed codes."""
    return np.dtype([("scale", "<f2"),
                     ("codes", np.uint8, (QUANT_BITS[dtype] * block_size // 8,))])


def compression_ratio(bits: int, block_size: int) -> float:
    """Quantized bytes over fp16 bytes for one block:
    (block_size * bits / 8 + 2) / (block_size * 2)."""
    if bits not in QUANT_BITS.values():
        raise ValueError(f"unsupported quantization width: {bits} bits")
    return _block_layout(f"nf{bits}", block_size, block_size) / (block_size * 2)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def _pack_header(n_layers: int, vocab: int, n_experts: int, d: int,
                 dtype: str, block_size: int) -> bytes:
    head = struct.pack(_HEADER_FMT, MAGIC, VERSION, n_layers, vocab,
                       n_experts, d, DTYPE_CODES[dtype], block_size)
    return head + b"\x00" * (HEADER_SIZE - len(head))


# Rows quantized at once: bounds the encode's float temporaries to a few
# copies of this many rows, whatever the vocabulary.
_ENCODE_ROWS = 1024


def _encode_rows(flat_rows: np.ndarray, dtype: str, block_size: int) -> np.ndarray:
    """(n_rows, d) float rows -> payload bytes in row order, as one
    contiguous array. Quantized rows are encoded ``_ENCODE_ROWS`` at a time
    into one preallocated array of block records."""
    if dtype in ("fp32", "fp16"):
        return np.ascontiguousarray(flat_rows, dtype="<f4" if dtype == "fp32" else "<f2")
    n_rows, d = flat_rows.shape
    records = np.empty((n_rows, d // block_size), _record_dtype(dtype, block_size))
    for start in range(0, n_rows, _ENCODE_ROWS):
        rows = slice(start, start + _ENCODE_ROWS)
        scales, codes = _quantize_blocks(flat_rows[rows].astype(np.float32, copy=False),
                                         dtype, block_size)
        records["scale"][rows] = scales
        records["codes"][rows] = _pack_codes(codes, QUANT_BITS[dtype])
    return records


def write_lut(tables: list[LutTable], path: str | Path, dtype: str = "fp32",
              block_size: int = 0) -> int:
    """Write per-layer tables to one LUT file; returns total bytes written."""
    if dtype not in DTYPE_CODES:
        raise ValueError(f"unknown LUT dtype {dtype!r}")
    if not tables:
        raise ValueError("no tables to write")
    vocab, n_experts, d = tables[0].values.shape
    for t in tables:
        if t.values.shape != (vocab, n_experts, d):
            raise ValueError("tables disagree on (vocab, N, d)")
    _block_layout(dtype, block_size, d)
    # atomic: a failed write leaves the old file, and handles already open
    # keep mapping the old file's bytes
    with atomic_write(path) as f:
        f.write(_pack_header(len(tables), vocab, n_experts, d, dtype, block_size))
        for t in tables:
            f.write(_encode_rows(t.values.reshape(vocab * n_experts, d),
                                 dtype, block_size))
    return os.path.getsize(path)


def lut_file_size(n_layers: int, vocab: int, n_experts: int, d: int,
                  dtype: str, block_size: int = 0) -> int:
    """Exact on-disk byte size for the given geometry."""
    return HEADER_SIZE + n_layers * vocab * n_experts * _block_layout(dtype, block_size, d)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

@dataclass
class LutFileHeader:
    n_layers: int
    vocab: int
    n_experts: int
    d: int
    dtype: str
    block_size: int


class FetchTicket:
    """Single-use completion handle for a prefetched row batch: ``fetch``
    reads the rows when they are first asked for."""

    def __init__(self, fetch: Callable[[], np.ndarray]):
        self._fetch = fetch
        self._consumed = False

    def result(self) -> np.ndarray:
        """The fetched rows; a second call raises TicketError."""
        if self._consumed:
            raise TicketError("fetch ticket already consumed")
        self._consumed = True
        return self._fetch()


class RowSource:
    """Rows by (layer, token ids), through ``gather`` or through the fetch
    contract: ``prefetch`` at layer entry, ``await_rows`` when the rows are
    needed. Subclasses supply ``gather``; the ticket calls it on redemption,
    so ``await_rows(prefetch(layer, ids))`` is exactly ``gather(layer, ids)``."""

    def prefetch(self, layer: int, ids: np.ndarray) -> FetchTicket:
        ids = np.atleast_1d(np.asarray(ids)).copy()
        return FetchTicket(lambda: self.gather(layer, ids))

    def await_rows(self, ticket: FetchTicket) -> np.ndarray:
        return ticket.result()


class LutHandle(RowSource):
    """Random-access reader over a LUT file whose payload it maps read-only
    (see the module docstring). ``bytes_read`` counts exactly the payload
    bytes copied out, whether through gather or through prefetch tickets.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        with open(self.path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            head = f.read(HEADER_SIZE)
            if len(head) < HEADER_SIZE or head[:8] != MAGIC:
                raise BadMagicError(f"{path}: not a LUT file")
            magic, version, n_layers, vocab, n_experts, d, code, block_size = (
                struct.unpack_from(_HEADER_FMT, head))
            if version != VERSION:
                raise LutVersionError(f"{path}: unsupported LUT version {version}")
            offset = next((i for i in range(_HEADER_USED, HEADER_SIZE) if head[i]), None)
            if offset is not None:
                raise ReservedBytesError(f"{path}: reserved header byte {offset} is "
                                         f"{head[offset]}, must be 0")
            if code not in CODE_DTYPES:
                raise DimensionError(f"{path}: unknown dtype code {code}")
            dtype = CODE_DTYPES[code]
            if min(n_layers, vocab, n_experts, d) <= 0:
                raise DimensionError(f"{path}: zero extent in header")
            try:
                row_bytes = _block_layout(dtype, block_size, d)
            except ValueError as exc:
                raise DimensionError(f"{path}: {exc}")
            payload = n_layers * vocab * n_experts * row_bytes
            if payload > _MAX_PAYLOAD:
                raise DimensionError(f"{path}: payload of {payload} bytes overflows sanity bounds")
            if size != HEADER_SIZE + payload:
                raise PayloadLengthError(
                    f"{path}: payload length mismatch (header implies "
                    f"{HEADER_SIZE + payload} bytes, file has {size})")
            self._map = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_READ)
        self.header = LutFileHeader(n_layers, vocab, n_experts, d, dtype, block_size)
        # one record is one token's N rows
        self._records = np.frombuffer(self._map, np.uint8, payload, HEADER_SIZE).reshape(
            n_layers, vocab, n_experts * row_bytes)
        # Callers may share a handle: the lock guards the counter and keeps
        # close() from unmapping the payload while a copy reads it.
        self._lock = threading.Lock()
        self.bytes_read = 0

    def close(self) -> None:
        """Unmap the payload; later reads raise ValueError. Idempotent."""
        with self._lock:
            self._records = None
            self._map.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _decode_records(self, buf: np.ndarray) -> np.ndarray:
        """(n, record_bytes) raw uint8 records -> (n, N, d) float32 rows."""
        h = self.header
        shape = (buf.shape[0], h.n_experts, h.d)
        if h.dtype == "fp32":
            return buf.view("<f4").reshape(shape).astype(np.float32, copy=False)
        if h.dtype == "fp16":
            return buf.view("<f2").reshape(shape).astype(np.float32)
        records = buf.view(_record_dtype(h.dtype, h.block_size)).reshape(
            shape[:2] + (h.d // h.block_size,))
        packed = records["codes"]
        if h.dtype == "nf4":  # one byte holds two codes
            index = packed.astype(np.intp)
        else:  # a 3-byte group holds two 12-bit halves of four codes each
            group = packed.reshape(packed.shape[:-1] + (-1, 3)).astype(np.intp)
            index = np.empty(group.shape[:-1] + (2,), np.intp)
            index[..., 0] = group[..., 0] | (group[..., 1] & 15) << 8
            index[..., 1] = group[..., 1] >> 4 | group[..., 2] << 4
        values = np.take(_decode_table(h.dtype), index, axis=0).reshape(
            records.shape + (h.block_size,))
        values *= records["scale"].astype(np.float32)[..., None]
        return values.reshape(shape)

    def gather(self, layer: int, ids: np.ndarray) -> np.ndarray:
        """Rows for the requested token ids: (len(ids), N, d) float32.

        The ids' records are copied out of the mapped payload in one indexed
        read and decoded in one pass, so the rows are owned arrays that
        outlive ``close``. Repeated ids are copied and charged again: the
        transfer meter moves by exactly ``len(ids)`` records. The file must
        not be truncated in place while the handle is open (SIGBUS)."""
        h = self.header
        ids = np.asarray(ids).ravel()
        if not ids.size:
            ids = ids.astype(np.intp)  # an empty list reads as float
        if not (0 <= layer < h.n_layers):
            raise IndexError(f"layer {layer} out of range [0, {h.n_layers})")
        if ids.size and (ids.min() < 0 or ids.max() >= h.vocab):
            raise IndexError(f"token id out of range [0, {h.vocab})")
        with self._lock:
            if self._records is None:
                raise ValueError(f"{self.path}: LUT handle is closed")
            buf = self._records[layer, ids]
            self.bytes_read += buf.nbytes
        return self._decode_records(buf)


def open_lut(path: str | Path) -> LutHandle:
    return LutHandle(path)


def read_all_tables(path: str | Path) -> list[LutTable]:
    """Load every layer table into memory (test/convert utility)."""
    with open_lut(path) as h:
        hdr = h.header
        tables = []
        for layer in range(hdr.n_layers):
            rows = h.gather(layer, np.arange(hdr.vocab))
            tables.append(LutTable(layer, rows))
        return tables
