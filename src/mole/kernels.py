"""Deterministic dense numeric primitives.

Every routine here is a pure function over numpy arrays (float32 or float64)
whose bits are reproducible on a given machine and BLAS library.

``matmul`` goes through BLAS on fixed-size row tiles: every gemm it issues
has exactly ``TILE_ROWS`` rows, so each row's reduction is fixed by
(K, N, dtype) and does not depend on how many rows share the call. A batched
matmul therefore gives bit-identical rows to a one-row-at-a-time matmul.
Several equivalence guarantees elsewhere in the package (lookup-table
inference vs the training-form forward, chunked vs unchunked table builds)
lean on that property. On first use for each dtype a small probe checks it
against the local BLAS; if any row differs, ``matmul`` warns once and runs
``matmul_sequential``, a fixed k-ascending loop, instead. ``backend`` says
which of the two ran, and the CLI manifests record it.

A partial tile is zero-padded. Against a 2-D right operand (every
projection, FFN, router and head) the left operand's leading axes fold into
rows, and its partial tile is padded in a scratch tile kept per thread,
dtype and K, whose pad rows are re-zeroed after a taller call; a batched
left operand (the attention core's gemms) is padded in a fresh zero tile,
so the kept tiles stay a few KiB. Results are fresh arrays: none aliases a
scratch tile or changes with a later call.

``gelu`` and ``gelu_grad`` take the Gaussian CDF from ``_erf``. For float32
that is a rational in t^2 (``tools/fit_erf.py``), evaluated with IEEE
``+ * /`` and ``minimum``/``maximum`` only, elementwise: a row's bits do not
depend on the rows that share the call, and they are the same on every
IEEE machine. Its max abs error against double erf is 4.3e-7 over every
float32 in [2^-12, 6], and it is exactly +-1 from |t| = 3.92 on, as
float32-rounded erf is. Float64 keeps SciPy's double erf, imported on the
first float64 call: the float64 gradient check keeps its accuracy and its
bits, and a process that only touches float32 never loads
``scipy.special``.
"""

from __future__ import annotations

import mmap
import threading
import warnings

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Rows per BLAS call in ``matmul``. 8, 16, 32 and 64 all pass the probe on
# OpenBLAS 0.3.31 (Haswell kernels) and ran the benchmark's train and decode
# workloads equally fast; 16 pads a one-row call to a quarter of 64's work.
TILE_ROWS = 16

TILED = "tiled-blas"
SEQUENTIAL = "sequential"

# (K, N) shapes the probe runs: a model-sized one, ragged edges on both
# axes, N == 1, which numpy sends to gemv rather than gemm, and the two
# gemms of the attention core, (d_head, 16) and (16, d_head), at d_head 16
# (the toy configs), 32 and 64 (paper-sized heads). The core's padding
# invariance, and the bit equality of its one-row grid and tile plan
# (``model._attend_lanes``), rest on this row invariance. That core serves
# every forward: training and the float64 gradient check as well as
# prefill, decode and verification.
_PROBE_SHAPES = ((64, 192), (33, 17), (7, 1), (16, 16), (32, 16), (16, 32), (64, 16),
                 (16, 64))

ROTARY_BASE = 10000.0

# float32 erf(t) = t P(t^2) / Q(t^2), t clamped to +-3.92 and the result to
# [-1, 1]; P (degree 6) and Q (monic, degree 4) list the highest degree
# first, as tools/fit_erf.py prints them. The constants are 0-d arrays:
# numpy runs an in-place ufunc ~3x faster with a 0-d array operand than with
# a scalar, which matters at one row.
_ERF_T_MAX, _ERF_T_MIN = np.array(3.92, np.float32), np.array(-3.92, np.float32)
_ERF_P = tuple(np.array(c, np.float32) for c in (1.695298e-05, -0.0017727457, 0.14048247,
                                                 3.9172037, 46.875744, 192.41277, 1001.3229))
_ERF_Q = tuple(np.array(c, np.float32) for c in (14.020844, 108.261604, 466.3158, 887.3997))
_CONSTANTS = {
    dtype: {name: np.array(c, dtype) for name, c in (
        ("one", 1.0), ("minus_one", -1.0), ("half", 0.5), ("minus_half", -0.5),
        ("inv_sqrt2", 1.0 / np.sqrt(2.0)), ("inv_sqrt2pi", 1.0 / np.sqrt(2.0 * np.pi)))}
    for dtype in FLOAT_DTYPES
}


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


def _check_float(x: np.ndarray, name: str) -> None:
    if x.dtype not in FLOAT_DTYPES:
        raise TypeError(f"{name} must be float32 or float64, got {x.dtype}")


def _check_operands(a: np.ndarray, b: np.ndarray) -> tuple[int, ...]:
    """Validate a matmul's operands; returns the broadcast leading shape."""
    _check_float(a, "a")
    _check_float(b, "b")
    if a.dtype != b.dtype:
        raise TypeError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner extents disagree: {a.shape} @ {b.shape}")
    return _lead_shape(a, b)


def _lead_shape(a: np.ndarray, b: np.ndarray) -> tuple[int, ...]:
    """The broadcast leading shape of two matmul operands."""
    lead_a, lead_b = a.shape[:-2], b.shape[:-2]
    if lead_a == lead_b or not lead_b:
        return lead_a
    return lead_b if not lead_a else np.broadcast_shapes(lead_a, lead_b)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the last two axes with broadcast leading axes.

    Each row of the result is computed by a BLAS gemm on a tile of exactly
    ``TILE_ROWS`` rows (the last partial tile is zero-padded), on row-major
    copies of any operand stored another way. A row's reduction is thus
    fixed by (K, N, dtype): it does not depend on how many rows share the
    call, on where the row sits in it, or on the operands' memory layout.
    The order of that reduction is BLAS's, not k-ascending. Where the probe
    run by ``backend`` finds the local BLAS breaks this, the result is
    ``matmul_sequential``'s instead.

    With a 2-D ``b``, ``a``'s leading axes fold into rows, which moves no
    row's bits. A 2-D left operand pads its partial tile in this thread's
    scratch tile of its dtype and K, pad rows zero; a batched one in a fresh
    zero tile. The result is a fresh array, never the scratch tile.
    """
    dtype = a.dtype
    # ``_check_operands``' tests in one expression, inline: a one-row call
    # costs little more than its gemm; a failing call gets its message there
    if (b.dtype != dtype or dtype not in FLOAT_DTYPES or a.ndim < 2 or b.ndim < 2
            or a.shape[-1] != b.shape[-2]):
        _check_operands(a, b)
    if (_backends.get(dtype) or backend(dtype)) == SEQUENTIAL:
        return matmul_sequential(a, b)
    if b.ndim > 2 or a.ndim == 2:
        return _matmul_tiled(a, b)
    return _matmul_tiled(a.reshape(-1, a.shape[-1]), b).reshape(a.shape[:-1] + b.shape[1:])


def matmul_sequential(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference matmul, and ``matmul``'s fallback.

    Accumulates over the contraction axis in a fixed sequential (k-ascending)
    order: each output element sees exactly the operation sequence
    ``acc = acc + a[..., i, k] * b[..., k, j]`` for k = 0, 1, ..., K-1, which
    is bit-identical to a naive triple loop in the same dtype.
    """
    lead = _check_operands(a, b)
    m, kdim, n = a.shape[-2], a.shape[-1], b.shape[-1]
    out = np.zeros(lead + (m, n), dtype=a.dtype)
    tmp = np.empty_like(out)
    for k in range(kdim):
        np.multiply(a[..., :, k : k + 1], b[..., k : k + 1, :], out=tmp)
        np.add(out, tmp, out=out)
    return out


def _row_major(x: np.ndarray) -> np.ndarray:
    """``x`` if each of its matrices is packed row-major, else such a copy:
    BLAS rounds transposed or strided operands differently. A C-contiguous
    ``x``, which ``ascontiguousarray`` would return as it is, is tested by
    its flag first, the cheaper test."""
    if x.flags.c_contiguous or (x.strides[-1] == x.itemsize
                                and x.strides[-2] == x.shape[-1] * x.itemsize):
        return x
    return np.ascontiguousarray(x)


_scratch = threading.local()


def _pad_tile(rows: np.ndarray) -> np.ndarray:
    """``rows`` (fewer than ``TILE_ROWS``), zero-padded below to one
    ``TILE_ROWS`` tile: for 2-D ``rows``, this thread's scratch tile of their
    dtype and K, whose rows below them are re-zeroed where an earlier call
    wrote them; for batched ``rows``, a fresh zero tile."""
    m, k = rows.shape[-2:]
    if rows.ndim > 2:
        pad = np.zeros(rows.shape[:-2] + (TILE_ROWS, k), dtype=rows.dtype)
        pad[..., :m, :] = rows
        return pad
    tiles = getattr(_scratch, "tiles", None)
    if tiles is None:
        tiles = _scratch.tiles = {}
    entry = tiles.get((k, rows.dtype))
    if entry is None:
        # The tile, zero, in an anonymous map of its own rather than the
        # malloc heap: a block that lives as long as its thread, made mid-run,
        # would pin the freed heap below it (glibc trims only the heap top),
        # which lifted decode-lut-32's peak RSS by ~1.5 MiB in a third of runs.
        tile = np.frombuffer(mmap.mmap(-1, TILE_ROWS * k * rows.dtype.itemsize), rows.dtype)
        # the tile and how many of its rows the last call wrote
        entry = tiles[k, rows.dtype] = [tile.reshape(TILE_ROWS, k), 0]
    pad, written = entry
    pad[:m] = rows
    if written > m:
        pad[m:written] = 0
    entry[1] = m
    return pad


def _matmul_tiled(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    b = _row_major(b)
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    if m < TILE_ROWS:
        # one padded tile: its gemm's leading rows are the result
        try:
            return np.matmul(_pad_tile(a), b)[..., :m, :]
        except ValueError:
            _lead_shape(a, b)  # says which leading axes do not broadcast
            raise
    # the broadcast leading shape, which one padded tile does not need
    lead = _lead_shape(a, b)
    a = _row_major(a)
    out = np.empty(lead + (m, n), dtype=a.dtype)
    whole = m - m % TILE_ROWS
    if whole:
        # one stacked call: numpy issues one gemm per (leading index, tile)
        tiles = whole // TILE_ROWS
        np.matmul(a[..., :whole, :].reshape(a.shape[:-2] + (tiles, TILE_ROWS, k)),
                  b[..., None, :, :],
                  out=out[..., :whole, :].reshape(lead + (tiles, TILE_ROWS, n)))
    if whole < m:
        out[..., whole:, :] = np.matmul(_pad_tile(a[..., whole:, :]), b)[..., : m - whole, :]
    return out


def _rows_invariant(dtype: np.dtype) -> bool:
    """True when every row of a tiled product has the bits of that row
    multiplied on its own, for row counts on both sides of ``TILE_ROWS``."""
    rng = np.random.default_rng(0)
    for k, n in _PROBE_SHAPES:
        b = rng.standard_normal((k, n)).astype(dtype)
        for m in (TILE_ROWS - 1, TILE_ROWS, 2 * TILE_ROWS + 3):
            a = rng.standard_normal((m, k)).astype(dtype)
            full = _matmul_tiled(a, b)
            for i in range(m):
                if _matmul_tiled(a[i : i + 1], b).tobytes() != full[i].tobytes():
                    return False
    return True


_backends: dict[np.dtype, str] = {}
_backends_lock = threading.Lock()


def backend(dtype) -> str:
    """The kernel ``matmul`` runs for ``dtype``: ``TILED``, or ``SEQUENTIAL``
    when the local BLAS fails the row-invariance probe (run once per dtype
    per process, with a warning on failure)."""
    dtype = np.dtype(dtype)
    name = _backends.get(dtype)
    if name is None:
        with _backends_lock:
            name = _backends.get(dtype)
            if name is None:
                name = TILED if _rows_invariant(dtype) else SEQUENTIAL
                if name == SEQUENTIAL:
                    warnings.warn(
                        f"BLAS gives rows of a {TILE_ROWS}-row {dtype} tile other bits "
                        "than the same rows alone; matmul falls back to the slower "
                        "sequential kernel, whose bits differ from the tiled kernel's",
                        RuntimeWarning, stacklevel=3)
                _backends[dtype] = name
    return name


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax (max-subtracted) along ``axis``."""
    logits = np.asarray(logits)
    _check_float(logits, "logits")
    if logits.size == 0 or logits.shape[axis] == 0:
        raise ShapeError("softmax over an empty axis")
    # np.max's and np.sum's reductions, same bits, without their Python
    # wrappers, which cost more than one row's arithmetic
    shifted = logits - np.maximum.reduce(logits, axis=axis, keepdims=True)
    e = np.exp(shifted, out=shifted)
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def _mean_square(x: np.ndarray) -> np.ndarray:
    """mean(x^2) over the last axis, keeping it: the sum and the division
    ``np.mean`` computes, with the same bits, without its Python-level
    wrapper, which costs more than the arithmetic on one row."""
    return np.add.reduce(np.square(x), axis=-1, keepdims=True, dtype=x.dtype) / x.shape[-1]


def rmsnorm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square normalization over the last axis: g * x / sqrt(mean(x^2) + eps)."""
    _check_float(x, "x")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if gain.shape != (x.shape[-1],):
        raise ShapeError(f"gain shape {gain.shape} does not match width {x.shape[-1]}")
    inv = 1.0 / np.sqrt(_mean_square(x) + x.dtype.type(eps))
    return (x * inv * gain).astype(x.dtype, copy=False)


def rmsnorm_backward(
    x: np.ndarray, gain: np.ndarray, dy: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``rmsnorm`` w.r.t. input and gain.

    Returns (dx, dgain) where dgain is summed over all leading axes.
    """
    d = x.shape[-1]
    rms = np.sqrt(_mean_square(x) + x.dtype.type(eps))
    inv = 1.0 / rms
    gdy = dy * gain
    dot = np.sum(gdy * x, axis=-1, keepdims=True, dtype=x.dtype)
    dx = gdy * inv - x * dot * (inv**3) / x.dtype.type(d)
    dgain = np.sum(dy * x * inv, axis=tuple(range(x.ndim - 1)), dtype=x.dtype)
    return dx.astype(x.dtype), dgain.astype(x.dtype)


def _erf(t: np.ndarray) -> np.ndarray:
    """erf of ``t``, elementwise, computed in ``t``'s buffer: for float32 the
    rational of the module docstring by in-place Horner steps, for float64
    SciPy's double erf, imported here on first use."""
    if t.dtype == np.float64:
        from scipy.special import erf

        return erf(t, out=t)
    c = _CONSTANTS[t.dtype]
    np.minimum(t, _ERF_T_MAX, out=t)
    np.maximum(t, _ERF_T_MIN, out=t)
    s = np.multiply(t, t, out=np.empty_like(t))
    num = np.multiply(s, _ERF_P[0], out=np.empty_like(t))
    for p in _ERF_P[1:-1]:
        num += p
        num *= s
    num += _ERF_P[-1]
    num *= t
    den = np.add(s, _ERF_Q[0], out=t)
    for q in _ERF_Q[1:]:
        den *= s
        den += q
    num /= den
    np.minimum(num, c["one"], out=num)
    return np.maximum(num, c["minus_one"], out=num)


def _gaussian_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = (1 + erf(x / sqrt 2)) / 2, in a fresh array of x's dtype."""
    c = _CONSTANTS[x.dtype]
    cdf = _erf(np.multiply(x, c["inv_sqrt2"], out=np.empty_like(x)))
    cdf += c["one"]
    cdf *= c["half"]
    return cdf


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf Gaussian error linear unit: x * Phi(x), Phi(x) =
    (1 + erf(x / sqrt 2)) / 2. float32 takes erf from the rational of the
    module docstring (max abs error 4.3e-7, so Phi is within 2.2e-7, and
    exactly 0 from x = -5.55); float64 from SciPy's double erf. Every
    element's bits are its own."""
    x = np.asarray(x)
    _check_float(x, "x")
    cdf = _gaussian_cdf(x)
    cdf *= x
    return cdf


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx of exact-erf GELU: Phi(x) + x * phi(x), with ``gelu``'s Phi
    (the float32 rational erf or SciPy's double erf) and phi = exp(-x^2 / 2)
    / sqrt(2 pi)."""
    x = np.asarray(x)
    _check_float(x, "x")
    c = _CONSTANTS[x.dtype]
    pdf = np.multiply(x, x, out=np.empty_like(x))
    pdf *= c["minus_half"]
    np.exp(pdf, out=pdf)
    pdf *= c["inv_sqrt2pi"]
    pdf *= x
    cdf = _gaussian_cdf(x)
    cdf += pdf
    return cdf


def rotary_tables(
    positions: np.ndarray, d_head: int, rotary_fraction: float, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables for ``apply_rotary``: the first ``rotary_fraction *
    d_head`` dimensions of every head rotate, in pairs.

    Both tables have shape ``positions.shape + (span // 2,)``, pair i at
    frequency ROTARY_BASE ** (-2 i / span). A forward builds them once for
    its positions and rotates every layer's queries and keys with them;
    backprop rotates back with ``(cos, -sin)``.
    """
    span_f = rotary_fraction * d_head
    span = int(round(span_f))
    if abs(span - span_f) > 1e-9 or span <= 0 or span % 2 != 0:
        raise ShapeError(
            f"rotary span {span_f} (fraction {rotary_fraction} of d_head {d_head}) "
            "must be a positive even integer"
        )
    half = span // 2
    exponents = -2.0 * np.arange(half, dtype=np.float64) / float(span)
    freqs = ROTARY_BASE**exponents
    theta = np.asarray(positions, dtype=np.float64)[..., None] * freqs
    return np.cos(theta).astype(dtype), np.sin(theta).astype(dtype)


def apply_rotary(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the leading span of each head with geometric frequencies.

    ``x`` has shape (..., T, n_heads, d_head) and ``cos``/``sin`` (..., T,
    span // 2) come from ``rotary_tables``: dimensions i and i + span/2 of
    every head rotate as a pair, the rest pass through unchanged.
    ``(cos, -sin)`` applies the transpose rotation (used by backprop).
    """
    _check_float(x, "x")
    half = cos.shape[-1]
    span = 2 * half
    x1 = x[..., :, :, :half]
    x2 = x[..., :, :, half:span]
    c = cos[..., :, None, :]
    s = sin[..., :, None, :]
    out = x.copy()
    out[..., :, :, :half] = x1 * c - x2 * s
    out[..., :, :, half:span] = x1 * s + x2 * c
    return out
