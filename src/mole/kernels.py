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
"""

from __future__ import annotations

import threading
import warnings

import numpy as np
from scipy.special import erf

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Rows per BLAS call in ``matmul``. 8, 16, 32 and 64 all pass the probe on
# OpenBLAS 0.3.31 (Haswell kernels) and ran the benchmark's train and decode
# workloads equally fast; 16 pads a one-row call to a quarter of 64's work.
TILE_ROWS = 16

TILED = "tiled-blas"
SEQUENTIAL = "sequential"

# (K, N) shapes the probe runs: a model-sized one, ragged edges on both
# axes, N == 1, which numpy sends to gemv rather than gemm, and the two
# gemms of the decode attention core at d_head 16 (``model._attend_lanes``),
# whose padding invariance rests on this row invariance.
_PROBE_SHAPES = ((64, 192), (33, 17), (7, 1), (16, 16))

ROTARY_BASE = 10000.0


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
    """
    lead = _check_operands(a, b)
    if backend(a.dtype) == SEQUENTIAL:
        return matmul_sequential(a, b)
    return _matmul_tiled(a, b, lead)


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
    BLAS rounds transposed or strided operands differently."""
    if x.strides[-1] == x.itemsize and x.strides[-2] == x.shape[-1] * x.itemsize:
        return x
    return np.ascontiguousarray(x)


def _matmul_tiled(a: np.ndarray, b: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    a, b = _row_major(a), _row_major(b)
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    out = np.empty(lead + (m, n), dtype=a.dtype)
    whole = m - m % TILE_ROWS
    if whole:
        # one stacked call: numpy issues one gemm per (leading index, tile)
        tiles = whole // TILE_ROWS
        np.matmul(a[..., :whole, :].reshape(a.shape[:-2] + (tiles, TILE_ROWS, k)),
                  b[..., None, :, :],
                  out=out[..., :whole, :].reshape(lead + (tiles, TILE_ROWS, n)))
    if whole < m:
        pad = np.zeros(a.shape[:-2] + (TILE_ROWS, k), dtype=a.dtype)
        pad[..., : m - whole, :] = a[..., whole:, :]
        out[..., whole:, :] = np.matmul(pad, b)[..., : m - whole, :]
    return out


def _rows_invariant(dtype: np.dtype) -> bool:
    """True when every row of a tiled product has the bits of that row
    multiplied on its own, for row counts on both sides of ``TILE_ROWS``."""
    rng = np.random.default_rng(0)
    for k, n in _PROBE_SHAPES:
        b = rng.standard_normal((k, n)).astype(dtype)
        for m in (TILE_ROWS - 1, TILE_ROWS, 2 * TILE_ROWS + 3):
            a = rng.standard_normal((m, k)).astype(dtype)
            full = _matmul_tiled(a, b, ())
            for i in range(m):
                if _matmul_tiled(a[i : i + 1], b, ()).tobytes() != full[i].tobytes():
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
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def rmsnorm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square normalization over the last axis: g * x / sqrt(mean(x^2) + eps)."""
    _check_float(x, "x")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if gain.shape != (x.shape[-1],):
        raise ShapeError(f"gain shape {gain.shape} does not match width {x.shape[-1]}")
    ms = np.mean(np.square(x), axis=-1, keepdims=True, dtype=x.dtype)
    inv = 1.0 / np.sqrt(ms + x.dtype.type(eps))
    return (x * inv * gain).astype(x.dtype)


def rmsnorm_backward(
    x: np.ndarray, gain: np.ndarray, dy: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``rmsnorm`` w.r.t. input and gain.

    Returns (dx, dgain) where dgain is summed over all leading axes.
    """
    d = x.shape[-1]
    ms = np.mean(np.square(x), axis=-1, keepdims=True, dtype=x.dtype)
    rms = np.sqrt(ms + x.dtype.type(eps))
    inv = 1.0 / rms
    gdy = dy * gain
    dot = np.sum(gdy * x, axis=-1, keepdims=True, dtype=x.dtype)
    dx = gdy * inv - x * dot * (inv**3) / x.dtype.type(d)
    dgain = np.sum(dy * x * inv, axis=tuple(range(x.ndim - 1)), dtype=x.dtype)
    return dx.astype(x.dtype), dgain.astype(x.dtype)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf Gaussian error linear unit: x * Phi(x)."""
    x = np.asarray(x)
    _check_float(x, "x")
    half = x.dtype.type(0.5)
    inv_sqrt2 = x.dtype.type(1.0 / np.sqrt(2.0))
    return (x * half * (1.0 + erf(x * inv_sqrt2))).astype(x.dtype)


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx of exact-erf GELU: Phi(x) + x * phi(x)."""
    x = np.asarray(x)
    half = x.dtype.type(0.5)
    inv_sqrt2 = x.dtype.type(1.0 / np.sqrt(2.0))
    inv_sqrt2pi = x.dtype.type(1.0 / np.sqrt(2.0 * np.pi))
    phi = inv_sqrt2pi * np.exp(-half * x * x)
    cdf = half * (1.0 + erf(x * inv_sqrt2))
    return (cdf + x * phi).astype(x.dtype)


def rotary_angles(
    positions: np.ndarray, rot_dims: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables for the rotated span.

    ``positions`` has shape (T,); output shape (T, rot_dims // 2) with pair i
    at frequency ROTARY_BASE ** (-2 i / rot_dims).
    """
    half = rot_dims // 2
    exponents = -2.0 * np.arange(half, dtype=np.float64) / float(rot_dims)
    freqs = ROTARY_BASE**exponents
    theta = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    return np.cos(theta).astype(dtype), np.sin(theta).astype(dtype)


def apply_rotary(
    x: np.ndarray,
    positions: np.ndarray,
    rotary_fraction: float,
    inverse: bool = False,
) -> np.ndarray:
    """Rotate the leading span of each head with geometric frequencies.

    ``x`` has shape (..., T, n_heads, d_head); the first
    ``rotary_fraction * d_head`` dimensions of every head are rotated in
    half-split pairs (i, i + span/2), the rest pass through unchanged.
    ``inverse=True`` applies the transpose rotation (used by backprop).
    """
    _check_float(x, "x")
    d_head = x.shape[-1]
    span_f = rotary_fraction * d_head
    span = int(round(span_f))
    if abs(span - span_f) > 1e-9 or span <= 0 or span % 2 != 0:
        raise ShapeError(
            f"rotary span {span_f} (fraction {rotary_fraction} of d_head {d_head}) "
            "must be a positive even integer"
        )
    cos, sin = rotary_angles(positions, span, x.dtype)
    if inverse:
        sin = -sin
    half = span // 2
    x1 = x[..., :, :, :half]
    x2 = x[..., :, :, half:span]
    c = cos[..., :, None, :]
    s = sin[..., :, None, :]
    out = x.copy()
    out[..., :, :, :half] = x1 * c - x2 * s
    out[..., :, :, half:span] = x1 * s + x2 * c
    return out
