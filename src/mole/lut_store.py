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
by tests and implied by the file version). Rows are fetched lazily, when
``await_rows`` redeems the ticket ``prefetch`` handed out (``RowSource``).

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


def _quantize_blocks(values: np.ndarray, dtype: str, block_size: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized blockwise quantization of (..., d) values.

    Returns (scales (..., n_blocks) float16, codes (..., n_blocks, block_size)
    uint8). Values are normalized by the *stored* (half-rounded) scale, so
    encode and decode agree exactly; a zero (or half-underflowing) scale maps
    the whole block to the codebook zero.
    """
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("cannot quantize non-finite values")
    cb = CODEBOOKS[dtype]
    blocks = values.reshape(values.shape[:-1] + (-1, block_size)).astype(np.float32)
    scales = np.abs(blocks).max(axis=-1).astype(np.float16)
    scale_f32 = scales.astype(np.float32)
    safe = np.where(scale_f32 > 0.0, scale_f32, 1.0)
    normalized = blocks / safe[..., None]
    # Nearest entry, lower index on ties (argmin's choice): only the two
    # entries that bracket a value can be nearest, so compare those alone.
    hi = np.zeros(normalized.shape, np.uint8)  # entries below, the last excluded
    for entry in cb[:-1]:
        hi += normalized > entry
    lo = np.maximum(hi, 1) - 1
    take_lo = np.abs(normalized - np.take(cb, lo)) <= np.abs(normalized - np.take(cb, hi))
    codes = np.where(take_lo, lo, hi)
    zero_code = int(np.argmin(np.abs(cb)))
    codes = np.where(scale_f32[..., None] > 0.0, codes, np.uint8(zero_code))
    return scales, codes


def _dequantize_blocks(scales: np.ndarray, codes: np.ndarray, dtype: str) -> np.ndarray:
    values = np.take(CODEBOOKS[dtype], codes)
    values *= scales.astype(np.float32)[..., None]
    return values.reshape(codes.shape[:-2] + (-1,))


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


def _unpack_codes(packed: np.ndarray, bits: int, block_size: int) -> np.ndarray:
    """Inverse of ``_pack_codes``: (..., bits * block_size / 8) bytes ->
    (..., block_size) uint8 codes, each group's integer read little-endian
    and its codes shifted out LSB-first."""
    per_group, width = _code_groups(bits)
    groups = packed.reshape(packed.shape[:-1] + (-1, width))
    word = groups[..., 0].astype(np.uint32)
    for k in range(1, width):
        word |= groups[..., k].astype(np.uint32) << np.uint32(8 * k)
    codes = np.empty(word.shape + (per_group,), np.uint8)
    for j in range(per_group):  # one pass per code slot, over every group
        codes[..., j] = (word >> np.uint32(bits * j)) & np.uint32((1 << bits) - 1)
    return codes.reshape(packed.shape[:-1] + (block_size,))


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


def _encode_rows(flat_rows: np.ndarray, dtype: str, block_size: int) -> bytes:
    """(n_rows, d) float rows -> payload bytes in row order."""
    if dtype == "fp32":
        return np.ascontiguousarray(flat_rows, dtype="<f4").tobytes()
    if dtype == "fp16":
        return np.ascontiguousarray(flat_rows, dtype="<f2").tobytes()
    scales, codes = _quantize_blocks(flat_rows.astype(np.float32), dtype, block_size)
    packed = _pack_codes(codes, QUANT_BITS[dtype])  # (n_rows, n_blocks, code_bytes)
    scale_bytes = scales.astype("<f2").view(np.uint8).reshape(scales.shape + (2,))
    blob = np.concatenate([scale_bytes, packed], axis=-1)
    return blob.tobytes()


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
        bits = QUANT_BITS[h.dtype]
        n_blocks = h.d // h.block_size
        block_bytes = 2 + bits * h.block_size // 8
        blob = buf.reshape(shape[:2] + (n_blocks, block_bytes))
        scales = blob[..., :2].copy().view("<f2")[..., 0]
        codes = _unpack_codes(blob[..., 2:], bits, h.block_size)
        return _dequantize_blocks(scales, codes, h.dtype)

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
