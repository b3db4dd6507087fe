"""Checkpoint container: a little-endian binary archive of named tensors.

Layout:
    magic   8 bytes  "MOLECKPT"
    version u32
    count   u32      number of tensors
    then per tensor:
        name_len u16, name bytes (utf-8),
        dtype    u8   (0=float32, 1=float64, 2=float16, 3=int64),
        rank     u8,
        extents  u64 * rank,
        data     raw row-major little-endian bytes

Round-trips are bit-exact. Model configuration rides along as two auxiliary
tensors ("__config_ints", "__config_floats") so a checkpoint alone is enough
to rebuild the model.

``load_model`` ends by handing the malloc heap's free pages back to the OS
(glibc ``malloc_trim``; nothing where the C library lacks it). glibc trims
the heap top by itself only once the free top passes a threshold that rises
with the largest block freed so far, so whether the few MiB that earlier
work, such as training, freed stay resident would otherwise depend on the
heap's layout. A load starts the long-lived phase of a process (decode,
verification, serving), whose resident size then starts from what is live.
"""

from __future__ import annotations

import ctypes
import math
import struct
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .config import VARIANTS, ConfigError, ModelConfig
from .model import ModelParams, param_names, param_shape

MAGIC = b"MOLECKPT"
VERSION = 1

_DTYPE_CODES = {
    np.dtype("<f4"): 0,
    np.dtype("<f8"): 1,
    np.dtype("<f2"): 2,
    np.dtype("<i8"): 3,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}

_CONFIG_INTS = "__config_ints"
_CONFIG_FLOATS = "__config_floats"


def _find_malloc_trim():
    """The C library's ``malloc_trim``, or None where it has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


_malloc_trim = _find_malloc_trim()


class CheckpointError(IOError):
    """Malformed or unreadable checkpoint file."""


def write_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write ``tensors`` as one checkpoint file, atomically: a write that
    fails part-way leaves the old file at ``path`` unchanged."""
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(tensors)))
        for name, t in tensors.items():
            arr = np.ascontiguousarray(t)
            if arr.dtype.newbyteorder("<") not in _DTYPE_CODES:
                raise CheckpointError(f"unsupported dtype {arr.dtype} for tensor {name!r}")
            code = _DTYPE_CODES[arr.dtype.newbyteorder("<")]
            name_b = name.encode("utf-8")
            f.write(struct.pack("<H", len(name_b)))
            f.write(name_b)
            f.write(struct.pack("<BB", code, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def read_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Every tensor of a checkpoint file, by name. A malformed file raises
    CheckpointError naming the tensor (or its index) where parsing failed."""
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, count = struct.unpack_from("<II", data, 8)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    off = 16
    tensors: dict[str, np.ndarray] = {}
    for index in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", data, off)
            name = data[off + 2 : off + 2 + name_len].decode("utf-8")
            off += 2 + name_len
            code, rank = struct.unpack_from("<BB", data, off)
            shape = struct.unpack_from(f"<{rank}Q", data, off + 2)
            off += 2 + 8 * rank
        except (struct.error, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt table entry of tensor #{index} ({exc})")
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"{path}: tensor {name!r} has unknown dtype code {code}")
        dtype = _CODE_DTYPES[code]
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > len(data) - off:
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        try:
            tensors[name] = np.frombuffer(data, dtype, math.prod(shape), off).reshape(shape).copy()
        except ValueError as exc:  # e.g. a rank NumPy cannot represent
            raise CheckpointError(f"{path}: tensor {name!r} of shape {shape}: {exc}")
        off += nbytes
    if off != len(data):
        raise CheckpointError(f"{path}: {len(data) - off} trailing bytes")
    return tensors


def _encode_config(cfg: ModelConfig, inference_form: bool) -> dict[str, np.ndarray]:
    ints = np.array(
        [VARIANTS.index(cfg.variant), cfg.L, cfg.d, cfg.n_heads, cfg.D_s,
         cfg.D_r, cfg.N, cfg.k, cfg.vocab, cfg.max_seq, int(inference_form)],
        dtype=np.int64,
    )
    floats = np.array([cfg.rotary_fraction], dtype=np.float64)
    return {_CONFIG_INTS: ints, _CONFIG_FLOATS: floats}


def _decode_config(tensors: dict[str, np.ndarray]) -> tuple[ModelConfig, bool]:
    try:
        ints = tensors[_CONFIG_INTS]
        floats = tensors[_CONFIG_FLOATS]
    except KeyError:
        raise CheckpointError("checkpoint carries no model configuration")
    if (ints.dtype, ints.shape, floats.dtype, floats.shape) != (np.int64, (11,), np.float64, (1,)):
        raise CheckpointError(f"config tensors must be 11 int64 and 1 float64 values, got "
                              f"{ints.dtype} {ints.shape} and {floats.dtype} {floats.shape}")
    (variant_i, L, d, heads, D_s, D_r, N, k, vocab, max_seq, infer) = ints.tolist()
    variant = VARIANTS[variant_i] if 0 <= variant_i < len(VARIANTS) else f"#{variant_i}"
    try:
        cfg = ModelConfig(
            variant=variant, L=L, d=d, n_heads=heads, D_s=D_s, D_r=D_r,
            N=N, k=k, vocab=vocab, rotary_fraction=float(floats[0]), max_seq=max_seq,
        )
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint {exc}")
    return cfg, bool(infer)


def _check_weights(cfg: ModelConfig, inference_form: bool,
                   weights: dict[str, np.ndarray]) -> None:
    """Raise CheckpointError unless ``weights`` are exactly ``cfg``'s tensors."""
    if max(cfg.L, cfg.N) > len(weights):  # every layer and expert owns tensors
        raise CheckpointError(f"config (L={cfg.L}, N={cfg.N}) does not fit "
                              f"{len(weights)} weight tensors")
    names = param_names(cfg, inference_form)
    for n in names:
        if n not in weights or weights[n].shape != param_shape(n, cfg):
            raise CheckpointError(f"tensor {n!r} is missing or not of shape {param_shape(n, cfg)}")
    if len(names) != len(weights):
        raise CheckpointError(f"unexpected tensor {sorted(set(weights) - set(names))[0]!r}")


def save_model(path: str | Path, params: ModelParams) -> None:
    tensors = dict(params.tensors)
    tensors.update(_encode_config(params.cfg, params.inference_form))
    write_tensors(path, tensors)


def load_model(path: str | Path) -> ModelParams:
    tensors = read_tensors(path)
    cfg, inference_form = _decode_config(tensors)
    weights = {k: v for k, v in tensors.items() if not k.startswith("__config")}
    _check_weights(cfg, inference_form, weights)
    if _malloc_trim is not None:
        _malloc_trim(0)  # see the module docstring
    return ModelParams(cfg, weights, inference_form)
