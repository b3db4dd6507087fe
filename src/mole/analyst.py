"""Closed-form complexity accounting and comparison reports.

Per-layer FLOPs / parameter formulas for the three architectures (router and
normalizations neglected, attention excluded — the counts describe a single
FFN-or-expert layer), whole-model offload and per-token transfer counts, a
paper-check mode that reproduces the published table cells from the formulas,
expected expert-load estimation under the cache retention policy, and a
simulated transfer-latency comparison.

All table arithmetic is exact integer math; display rounding happens only at
the formatting layer.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .config import PAPER_CONFIGS, ModelConfig
from .engine import (
    BandwidthModel,
    ExpertCacheState,
    cache_update,
    step_latency,
    uniform_routing_step,
)


# ---------------------------------------------------------------------------
# Closed-form counts
# ---------------------------------------------------------------------------

def flops_per_layer(cfg: ModelConfig) -> int:
    """FLOPs of one expert/FFN layer for a single token (inference form)."""
    if cfg.variant == "dense":
        return 4 * cfg.d * cfg.D_s
    if cfg.variant == "moe":
        return 4 * cfg.d * (cfg.k * cfg.D_r + cfg.D_s)
    return 4 * cfg.d * cfg.D_s  # mole: routed experts are lookup-only


def vram_params_per_layer(cfg: ModelConfig, offloaded: bool = True) -> int:
    """Expert/FFN parameters resident in device memory, per layer."""
    if cfg.variant == "dense":
        return 2 * cfg.d * cfg.D_s
    if cfg.variant == "moe":
        active = cfg.k if offloaded else cfg.N
        return 2 * cfg.d * (active * cfg.D_r + cfg.D_s)
    return 2 * cfg.d * cfg.D_s


def offloaded_params(cfg: ModelConfig) -> int:
    """Whole-model offloaded parameter count (per-layer formula times L)."""
    if cfg.variant == "moe":
        return 2 * cfg.d * cfg.N * cfg.D_r * cfg.L
    if cfg.variant == "mole":
        return cfg.d * cfg.N * cfg.vocab * cfg.L
    return 0


def loaded_params_per_token(cfg: ModelConfig) -> int:
    """Whole-model worst-case parameters transferred per generated token."""
    if cfg.variant == "moe":
        return 2 * cfg.d * cfg.k * cfg.D_r * cfg.L
    if cfg.variant == "mole":
        return cfg.d * cfg.N * cfg.L
    return 0


# ---------------------------------------------------------------------------
# Display rounding (matches the published tables)
# ---------------------------------------------------------------------------

def fmt_billions(v: int) -> str:
    return f"{v / 1e9:.1f}B"


def fmt_millions(v: int) -> str:
    m = v / 1e6
    if m >= 10:
        return f"{round(m)}M"
    if m < 1:
        return f"{m:.2g}M"
    return f"{m:.1f}M"


# Published offloaded / per-token-loaded display values. The 1B mole-4E
# loaded cell is flagged: the published "0.26M" is twice the closed-form
# d*N*L = 131072 (~0.13M); the formula value is reported and the cell is a
# WARN, never silently overridden.
PAPER_TABLE_CELLS: dict[str, tuple[str, str]] = {
    "160M-moe-10e": ("0.3B", "57M"),
    "160M-mole-4e": ("1.8B", "0.037M"),
    "160M-moe-34e": ("1.0B", "57M"),
    "160M-mole-16e": ("7.4B", "0.15M"),
    "410M-moe-10e": ("1.0B", "201M"),
    "410M-mole-4e": ("4.9B", "0.098M"),
    "410M-moe-34e": ("3.4B", "201M"),
    "410M-mole-16e": ("19.7B", "0.39M"),
    "1B-moe-10e": ("2.7B", "537M"),
    "1B-mole-4e": ("6.6B", "0.26M"),
}
KNOWN_DISCREPANT_CELLS = {("1B-mole-4e", "loaded_per_token")}


@dataclass
class CostReport:
    name: str
    flops_per_layer: int
    vram_params_per_layer: int
    offloaded_params: int
    loaded_params_per_token: int
    offloaded_display: str = ""
    loaded_display: str = ""

    def __post_init__(self):
        self.offloaded_display = fmt_billions(self.offloaded_params)
        self.loaded_display = fmt_millions(self.loaded_params_per_token)


def cost_report(name: str, cfg: ModelConfig) -> CostReport:
    return CostReport(
        name=name,
        flops_per_layer=flops_per_layer(cfg),
        vram_params_per_layer=vram_params_per_layer(cfg),
        offloaded_params=offloaded_params(cfg),
        loaded_params_per_token=loaded_params_per_token(cfg),
    )


def table_report(configs: dict[str, ModelConfig] | None = None) -> list[CostReport]:
    configs = configs if configs is not None else PAPER_CONFIGS
    if not configs:
        raise ValueError("table report needs at least one configuration")
    return [cost_report(name, cfg) for name, cfg in configs.items()]


@dataclass
class CellCheck:
    config: str
    metric: str  # "offloaded" | "loaded_per_token"
    exact: int
    display: str
    expected: str
    status: str  # PASS / WARN / FAIL


def paper_check() -> list[CellCheck]:
    """Recompute every published offloaded/loaded cell from the formulas.

    A cell PASSes when the display-rounded formula value equals the published
    string; the known discrepant cell reports WARN with both values visible.
    """
    cells: list[CellCheck] = []
    for name, (want_off, want_load) in PAPER_TABLE_CELLS.items():
        cfg = PAPER_CONFIGS[name]
        rep = cost_report(name, cfg)
        for metric, exact, display, expected in [
            ("offloaded", rep.offloaded_params, rep.offloaded_display, want_off),
            ("loaded_per_token", rep.loaded_params_per_token, rep.loaded_display, want_load),
        ]:
            if display == expected:
                status = "PASS"
            elif (name, metric) in KNOWN_DISCREPANT_CELLS:
                status = "WARN"
            else:
                status = "FAIL"
            cells.append(CellCheck(name, metric, exact, display, expected, status))
    return cells


def loaded_ratio(moe_name: str, mole_name: str) -> float:
    """Exact per-token transfer ratio moe / mole between two configurations."""
    return (loaded_params_per_token(PAPER_CONFIGS[moe_name])
            / loaded_params_per_token(PAPER_CONFIGS[mole_name]))


# ---------------------------------------------------------------------------
# Expected expert loads under the cache policy
# ---------------------------------------------------------------------------

def expected_loads_closed_form(n_experts: int, k: int) -> float:
    """Single-lane steady state: E|A_t \\ A_{t-1}| = k - k^2/N under uniform
    routing with the previous step's activated experts retained."""
    return k - k * k / n_experts

def expected_expert_loads(
    n_experts: int,
    k: int,
    batch: int,
    capacity: int,
    trials: int = 10000,
    seed: int = 0,
    warmup: int = 1,
) -> float:
    """Monte Carlo mean experts loaded per step per layer under uniform
    routing and the retention policy. ``warmup`` steps are discarded so the
    empty-cache start does not bias the mean."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    state = ExpertCacheState(capacity=capacity, rng=np.random.default_rng(seed + 1))
    total = 0
    for step in range(trials + warmup):
        activated = uniform_routing_step(rng, n_experts, k, batch)
        loads = cache_update(state, activated, batch)
        if step >= warmup:
            total += len(loads)
    return total / trials


# ---------------------------------------------------------------------------
# Latency comparison
# ---------------------------------------------------------------------------

@dataclass
class LatencyRow:
    config: str
    batch: int
    expected_loads_per_layer: float
    transfer_bytes_per_step: float
    transfer_seconds_per_step: float
    compute_seconds_per_step: float | None = None


def latency_report(
    configs: dict[str, ModelConfig],
    bw: BandwidthModel,
    batches: list[int],
    bytes_per_element: int = 2,
    trials: int = 4000,
    seed: int = 0,
    compute_seconds: dict[str, float] | None = None,
) -> list[LatencyRow]:
    """Simulated per-step transfer cost per (config, batch).

    moe rows use the Monte Carlo expected loads times the per-expert transfer
    size; mole rows move a constant lanes * N * d * L elements; dense rows are
    zero. ``compute_seconds`` optionally attaches measured desk-scale compute
    wall-clock for a stacked compute/transfer breakdown.
    """
    rows: list[LatencyRow] = []
    for name, cfg in configs.items():
        for batch in batches:
            if cfg.variant == "moe":
                capacity = cfg.k if batch == 1 else 2
                loads = expected_expert_loads(cfg.N, cfg.k, batch, capacity,
                                              trials=trials, seed=seed)
                nbytes = loads * cfg.L * 2 * cfg.d * cfg.D_r * bytes_per_element
            elif cfg.variant == "mole":
                loads = 0.0
                nbytes = float(batch * cfg.N * cfg.d * cfg.L * bytes_per_element)
            else:
                loads = 0.0
                nbytes = 0.0
            rows.append(LatencyRow(
                config=name,
                batch=batch,
                expected_loads_per_layer=loads,
                transfer_bytes_per_step=nbytes,
                transfer_seconds_per_step=step_latency(nbytes, bw),
                compute_seconds_per_step=(compute_seconds or {}).get(name),
            ))
    return rows


def report_to_json(rows) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2)
