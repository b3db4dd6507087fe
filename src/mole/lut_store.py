"""On-disk lookup-table format, blockwise normal-float quantization, and an
offload backend with an asynchronous fetch contract.

File layout (little-endian throughout):
    offset  0   magic      8 bytes  "MOLELUT1"
    offset  8   version    u32
    offset 12   n_layers   u32
    offset 16   vocab      u32
    offset 20   n_experts  u32
    offset 24   d          u32
    offset 28   dtype      u8   (0=fp32, 1=fp16, 2=nf4, 3=nf3)
    offset 29   block_size u32  (0 for unquantized)
    offset 33   zero padding to byte 64
    offset 64   payload

Payload values are ordered layer-major, token-major, expert-major,
dimension-minor. Quantized payloads store each (token, expert) row of length
d as consecutive blocks of ``block_size`` values; a block is a half-precision
absmax scale (2 bytes) followed by the codebook indices bit-packed LSB-first
(4 or 3 bits per value).

The normal-float codebooks are the 2^bits quantiles of the standard normal,
symmetrized to include 0 and +-1, frozen below as literal constants (pinned
by tests and implied by the file version).
"""

from __future__ import annotations

import os
import struct
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import worker_threads
from .reparam import LutTable

MAGIC = b"MOLELUT1"
VERSION = 1
HEADER_SIZE = 64
_HEADER_FMT = "<8sIIIIIBI"

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


class TicketError(RuntimeError):
    """A fetch ticket was awaited more than once."""


# ---------------------------------------------------------------------------
# Blockwise quantization
# ---------------------------------------------------------------------------

@dataclass
class QuantBlock:
    """One quantized span: half-precision absmax scale + codebook indices."""

    scale: np.float16
    codes: np.ndarray  # uint8 indices into the codebook


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
    codes = np.abs(normalized[..., None] - cb).argmin(axis=-1).astype(np.uint8)
    zero_code = int(np.argmin(np.abs(cb)))
    codes = np.where(scale_f32[..., None] > 0.0, codes, np.uint8(zero_code))
    return scales, codes


def _dequantize_blocks(scales: np.ndarray, codes: np.ndarray, dtype: str) -> np.ndarray:
    cb = CODEBOOKS[dtype]
    return (cb[codes] * scales.astype(np.float32)[..., None]).reshape(
        codes.shape[:-2] + (-1,))


def quantize_row(values: np.ndarray, bits: int, block_size: int) -> list[QuantBlock]:
    """Quantize one row of length d into QuantBlocks (nearest codebook entry
    after absmax scaling)."""
    dtype = {4: "nf4", 3: "nf3"}[bits]
    values = np.asarray(values, dtype=np.float32)
    _block_layout(dtype, block_size, values.shape[-1])
    scales, codes = _quantize_blocks(values, dtype, block_size)
    return [QuantBlock(np.float16(scales[b]), codes[b].copy())
            for b in range(scales.shape[0])]


def dequantize_row(blocks: list[QuantBlock], bits: int) -> np.ndarray:
    dtype = {4: "nf4", 3: "nf3"}[bits]
    cb = CODEBOOKS[dtype]
    parts = [cb[blk.codes] * np.float32(blk.scale) for blk in blocks]
    return np.concatenate(parts)


def _pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Bit-pack (..., block_size) uint8 codes LSB-first into bytes."""
    bit_planes = ((codes[..., None] >> np.arange(bits, dtype=np.uint8)) & 1).astype(np.uint8)
    flat_bits = bit_planes.reshape(codes.shape[:-1] + (-1,))
    return np.packbits(flat_bits, axis=-1, bitorder="little")


def _unpack_codes(packed: np.ndarray, bits: int, block_size: int) -> np.ndarray:
    flat_bits = np.unpackbits(packed, axis=-1, bitorder="little",
                              count=block_size * bits)
    planes = flat_bits.reshape(flat_bits.shape[:-1] + (block_size, bits))
    weights = (1 << np.arange(bits)).astype(np.uint8)
    return (planes * weights).sum(axis=-1).astype(np.uint8)


def compression_ratio(bits: int, block_size: int) -> float:
    """Quantized bytes over fp16 bytes for one block:
    (block_size * bits / 8 + 2) / (block_size * 2)."""
    if bits not in (3, 4):
        raise ValueError(f"unsupported quantization width: {bits} bits")
    if block_size <= 0 or (bits * block_size) % 8 != 0:
        raise ValueError(f"invalid block size {block_size} for {bits}-bit codes")
    ratio = (block_size * bits / 8 + 2) / (block_size * 2)
    if ratio >= 1.0:
        raise ValueError(f"layout ({bits} bits, block {block_size}) does not compress")
    return ratio


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
    with open(path, "wb") as f:
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
    """Single-use completion handle for a prefetched row batch."""

    def __init__(self, layer: int, ids: np.ndarray,
                 future: Future | None, lazy_fn=None):
        self.layer = layer
        self.ids = ids
        self._future = future
        self._lazy_fn = lazy_fn
        self._consumed = False


class LutHandle:
    """Random-access reader over an open LUT file.

    Rows are read (and dequantized if needed) on demand; the payload never
    loads wholesale. ``bytes_read`` counts exactly the payload bytes pulled,
    whether through gather or through prefetch tickets.
    """

    def __init__(self, path: str | Path, threads: int | None = None):
        self.path = Path(path)
        if threads is None:
            threads = worker_threads()
        size = self.path.stat().st_size
        with open(self.path, "rb") as f:
            head = f.read(HEADER_SIZE)
        if len(head) < HEADER_SIZE or head[:8] != MAGIC:
            raise BadMagicError(f"{path}: not a LUT file")
        magic, version, n_layers, vocab, n_experts, d, code, block_size = (
            struct.unpack_from(_HEADER_FMT, head))
        if version != VERSION:
            raise LutVersionError(f"{path}: unsupported LUT version {version}")
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
        self.header = LutFileHeader(n_layers, vocab, n_experts, d, dtype, block_size)
        self._row_bytes = row_bytes
        self._record_bytes = n_experts * row_bytes  # one token's rows
        self._layer_bytes = vocab * self._record_bytes
        self._file = open(self.path, "rb")
        self._lock = threading.Lock()
        self.bytes_read = 0
        self._pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._file.close()

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
        codes = _unpack_codes(np.ascontiguousarray(blob[..., 2:]), bits, h.block_size)
        return _dequantize_blocks(scales, codes, h.dtype)

    def gather(self, layer: int, ids: np.ndarray) -> np.ndarray:
        """Rows for the requested token ids: (len(ids), N, d) float32.

        Each requested id is one read into a shared buffer, decoded in one
        pass; repeated ids are re-read and re-counted, so the transfer meter
        moves by exactly the payload bytes read."""
        h = self.header
        ids = np.atleast_1d(np.asarray(ids))
        if not (0 <= layer < h.n_layers):
            raise IndexError(f"layer {layer} out of range [0, {h.n_layers})")
        if ids.size and (ids.min() < 0 or ids.max() >= h.vocab):
            raise IndexError(f"token id out of range [0, {h.vocab})")
        size = self._record_bytes
        buf = np.empty((ids.size, size), dtype=np.uint8)
        base = HEADER_SIZE + layer * self._layer_bytes
        with self._lock:
            for n, i in enumerate(ids.ravel().tolist()):
                self._file.seek(base + i * size)
                got = self._file.readinto(buf[n])
                self.bytes_read += got
                if got != size:
                    raise PayloadLengthError(f"{self.path}: short read at token {i} "
                                             f"of layer {layer} ({got} of {size} bytes)")
        return self._decode_records(buf)

    def prefetch(self, layer: int, ids: np.ndarray) -> FetchTicket:
        """Begin fetching rows; await_rows(ticket) yields exactly what
        gather would. Service may be eager (worker thread) or lazy."""
        ids = np.atleast_1d(np.asarray(ids)).copy()
        if self._pool is not None:
            future = self._pool.submit(self.gather, layer, ids)
            return FetchTicket(layer, ids, future)
        return FetchTicket(layer, ids, None,
                           lazy_fn=lambda: self.gather(layer, ids))

    def await_rows(self, ticket: FetchTicket) -> np.ndarray:
        if ticket._consumed:
            raise TicketError("fetch ticket already consumed")
        ticket._consumed = True
        if ticket._future is not None:
            return ticket._future.result()
        return ticket._lazy_fn()


def open_lut(path: str | Path, threads: int | None = None) -> LutHandle:
    return LutHandle(path, threads=threads)


def read_all_tables(path: str | Path) -> list[LutTable]:
    """Load every layer table into memory (test/convert utility)."""
    with open_lut(path, threads=1) as h:
        hdr = h.header
        tables = []
        for layer in range(hdr.n_layers):
            rows = h.gather(layer, np.arange(hdr.vocab))
            tables.append(LutTable(layer, rows, precision=hdr.dtype))
        return tables
