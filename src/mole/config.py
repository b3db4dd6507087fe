"""Model and training configuration.

``ModelConfig`` covers the three architecture variants (dense, moe, mole) and
carries every extent the cost formulas need. Presets mirror the published
model shape table for accounting purposes only — training at those shapes is
out of scope for this artifact.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any

VARIANTS = ("dense", "moe", "mole")


class ConfigError(ValueError):
    """Invalid or missing configuration field. ``field`` names the culprit."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


THREADS_ENV = "MOLE_RT_THREADS"


def worker_threads() -> int:
    """Worker threads for table builds and LUT prefetch: ``MOLE_RT_THREADS``
    (default 1), capped at ``os.cpu_count()``.

    A value that is not an integer >= 1 raises ValueError naming the
    variable; the CLI exits with its usage code.
    """
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {raw!r}")
    return min(threads, os.cpu_count() or 1)


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    L: int
    d: int
    n_heads: int
    D_s: int
    D_r: int
    N: int
    k: int
    vocab: int
    rotary_fraction: float = 0.25
    max_seq: int = 128

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError("variant", f"must be one of {VARIANTS}, got {self.variant!r}")
        if self.L < 1:
            raise ConfigError("L", "layer count must be >= 1")
        if self.d < 1 or self.n_heads < 1 or self.d % self.n_heads != 0:
            raise ConfigError("n_heads", f"d={self.d} must divide evenly into n_heads={self.n_heads}")
        if self.vocab < 2:
            raise ConfigError("vocab", "vocabulary size must be >= 2")
        if self.variant == "dense":
            if self.N != 0:
                raise ConfigError("N", "dense variant carries no routed experts (N must be 0)")
            if self.D_s < 1:
                raise ConfigError("D_s", "dense variant needs a shared FFN width >= 1")
        elif self.variant == "moe":
            if self.N < 1:
                raise ConfigError("N", "moe variant needs N >= 1")
            if not (1 <= self.k <= self.N):
                raise ConfigError("k", f"moe needs 1 <= k <= N, got k={self.k}, N={self.N}")
            if self.D_r < 1:
                raise ConfigError("D_r", "moe variant needs a routed FFN width >= 1")
        else:  # mole: all experts activated, k is pinned to N
            if self.N < 1:
                raise ConfigError("N", "mole variant needs N >= 1")
            if self.k != self.N:
                raise ConfigError("k", f"mole activates all experts; k must equal N={self.N}")
            if self.D_s < 1 or self.D_r < 1:
                raise ConfigError("D_s", "mole variant needs shared and routed FFN widths >= 1")
        d_head = self.d // self.n_heads
        span = self.rotary_fraction * d_head
        if abs(span - round(span)) > 1e-9 or round(span) <= 0 or round(span) % 2 != 0:
            raise ConfigError(
                "rotary_fraction",
                f"rotary span {span} of d_head={d_head} must be a positive even integer",
            )
        if self.max_seq < 1:
            raise ConfigError("max_seq", "max_seq must be >= 1")

    @property
    def d_head(self) -> int:
        return self.d // self.n_heads

    @property
    def has_shared(self) -> bool:
        return self.variant in ("dense", "mole")

    @property
    def has_experts(self) -> bool:
        return self.variant in ("moe", "mole")


@dataclass(frozen=True)
class TrainConfig:
    peak_lr: float = 1e-3
    min_lr_fraction: float = 0.1
    betas: tuple[float, float] = (0.9, 0.95)
    eps: float = 1e-8
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    warmup_fraction: float = 0.01
    total_steps: int = 200
    batch: int = 8
    seq_len: int = 48
    z_loss_coeff: float = 0.0
    balance_loss_coeff: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.warmup_fraction < 1.0):
            raise ConfigError("warmup_fraction", "must lie strictly between 0 and 1")
        for i, b in enumerate(self.betas):
            if not (0.0 < b < 1.0):
                raise ConfigError("betas", f"beta[{i}]={b} must lie strictly in (0, 1)")
        if self.grad_clip <= 0:
            raise ConfigError("grad_clip", "must be positive")
        if self.total_steps < 1:
            raise ConfigError("total_steps", "must be >= 1")
        if self.batch < 1 or self.seq_len < 1:
            raise ConfigError("batch", "batch and seq_len must be >= 1")
        if self.peak_lr < 0:
            raise ConfigError("peak_lr", "must be non-negative")


@dataclass(frozen=True)
class CorpusConfig:
    kind: str = "synthetic"  # "synthetic" | "file"
    length: int = 65536
    pattern_period: int = 32
    seed: int = 7
    path: str = ""

    def __post_init__(self):
        if self.kind not in ("synthetic", "file"):
            raise ConfigError("corpus.kind", f"must be 'synthetic' or 'file', got {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ConfigError("corpus.path", "file corpus needs a path")
        if self.kind == "synthetic" and (self.length < 2 or self.pattern_period < 1):
            raise ConfigError("corpus.length", "synthetic corpus needs length >= 2, period >= 1")


def _build(cls, raw: dict[str, Any], section: str):
    known = {f.name for f in fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{section}.{sorted(unknown)[0]}", "unknown field")
    required = {
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    }
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"{section}.{sorted(missing)[0]}", "missing required field")
    if "betas" in raw:
        raw = dict(raw)
        raw["betas"] = tuple(raw["betas"])
    return cls(**raw)


def load_config(path: str | Path) -> tuple[ModelConfig, TrainConfig, CorpusConfig]:
    """Parse a JSON config file into (model, train, corpus) sections."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"not valid JSON: {exc}")
    if "model" not in raw:
        raise ConfigError("model", "missing required section")
    model = _build(ModelConfig, raw["model"], "model")
    train = _build(TrainConfig, raw.get("train", {}), "train")
    corpus = _build(CorpusConfig, raw.get("corpus", {}), "corpus")
    return model, train, corpus


def _paper_cfg(variant, L, d, D_s, D_r, N, k, heads) -> ModelConfig:
    return ModelConfig(
        variant=variant, L=L, d=d, n_heads=heads, D_s=D_s, D_r=D_r, N=N, k=k,
        vocab=50000, rotary_fraction=0.25, max_seq=2048,
    )


# Published shape table: (scale, name) -> config. Used by the cost accounting
# and the paper-check report; never trained here.
PAPER_CONFIGS: dict[str, ModelConfig] = {
    "160M-dense": _paper_cfg("dense", 12, 768, 3072, 0, 0, 0, 12),
    "160M-moe-10e": _paper_cfg("moe", 12, 768, 0, 1536, 10, 2, 12),
    "160M-mole-4e": _paper_cfg("mole", 12, 768, 3072, 3072, 4, 4, 12),
    "160M-moe-34e": _paper_cfg("moe", 12, 768, 0, 1536, 34, 2, 12),
    "160M-mole-16e": _paper_cfg("mole", 12, 768, 3072, 3072, 16, 16, 12),
    "410M-dense": _paper_cfg("dense", 24, 1024, 4096, 0, 0, 0, 16),
    "410M-moe-10e": _paper_cfg("moe", 24, 1024, 0, 2048, 10, 2, 16),
    "410M-mole-4e": _paper_cfg("mole", 24, 1024, 4096, 4096, 4, 4, 16),
    "410M-moe-34e": _paper_cfg("moe", 24, 1024, 0, 2048, 34, 2, 16),
    "410M-mole-16e": _paper_cfg("mole", 24, 1024, 4096, 4096, 16, 16, 16),
    "1B-dense": _paper_cfg("dense", 16, 2048, 8192, 0, 0, 0, 8),
    "1B-moe-10e": _paper_cfg("moe", 16, 2048, 0, 4096, 10, 2, 8),
    "1B-mole-4e": _paper_cfg("mole", 16, 2048, 8192, 8192, 4, 4, 8),
}


def toy_config(variant: str = "mole", **overrides) -> ModelConfig:
    """Desk-scale default for tests and sample runs."""
    base = dict(
        variant=variant, L=2, d=64, n_heads=4, D_s=128, D_r=64,
        N=4, k=4, vocab=256, rotary_fraction=0.25, max_seq=128,
    )
    if variant == "dense":
        base.update(N=0, k=0, D_r=0)
    elif variant == "moe":
        base.update(D_s=0, k=2)
    base.update(overrides)
    if variant == "mole":
        base["k"] = base["N"]
    return ModelConfig(**base)
