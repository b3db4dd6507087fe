"""Autoregressive decoding runtimes with per-step transfer metering.

Three real runtimes (they run the actual model):
  dense / moe / mole-train  -- everything resident, zero transfers; the
                               train-form mole runtime is the reference the
                               LUT runtime is checked against.
  mole-lut                  -- routed experts replaced by an offloaded table,
                               read through ``lut_store.RowSource``: per
                               layer, ``prefetch`` at layer entry issues a
                               fetch that ``await_rows`` serves after the
                               shared expert; every step moves exactly
                               lanes * N * d * L elements.
  moe-offload               -- routed experts offloaded: selected experts
                               missing from the per-layer cache are loaded
                               (2 * d * D_r elements each) and the cache is
                               updated under the retention policy below.

All lanes decode together: prefill is one packed forward over every prompt
token of every lane, and each step one packed forward over one new token
per lane (``model.forward_lanes``, which runs the layer loop and attention
core of training, ``model.model_forward``, over one ``DecodeState``: per
layer, a key arena and a value arena shared by all lanes, plus each lane's
length, the rotary rows of every slot and each layer's resolved tensors,
made once per decode). Row-wise work runs once over all rows, and the
attention core once over all lanes; its gemms have fixed shapes and its
padding adds exact zeros. A prefill scores the core's tile plan (unless
every prompt is one token), and a step of one row per lane its one-row
grid: no query padding, one score max per lane. Each lane therefore gets
the bits it gets decoding alone, and those of the training-form forward
over its tokens, and the meter is what the lanes would be charged alone.

One link model (``BandwidthModel``) prices every step's transfer time.
Plus a model-free bandwidth simulator (uniform-random routing) for shapes
too large to run, used by the latency accounting.

Cache retention policy: with one lane, everything activated in the previous
step stays resident; with several lanes, a uniformly random two experts from
the previous step's activated union stay resident per layer.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig
from .model import ModelParams, forward_lanes, forward_tokens, greedy_pick, init_decode_state


# ---------------------------------------------------------------------------
# Expert cache
# ---------------------------------------------------------------------------

@dataclass
class ExpertCacheState:
    """Resident-expert bookkeeping for one layer."""

    capacity: int
    rng: np.random.Generator
    resident: set[int] = field(default_factory=set)


def cache_update(
    state: ExpertCacheState,
    activated: list[set[int]],
    batch: int,
) -> set[int]:
    """Load whatever the step needs, then apply the retention policy.

    Returns the set of experts loaded this step (activated union minus
    resident). Afterwards the resident set is the full activated set for a
    single lane, or a uniformly random capacity-subset of the activated
    union for batched decoding.
    """
    union: set[int] = set()
    for lane in activated:
        union |= set(int(j) for j in lane)
    loads = union - state.resident
    if batch == 1:
        if len(union) > state.capacity:
            raise ValueError(f"activated set of {len(union)} exceeds capacity {state.capacity}")
        state.resident = union
    else:
        pool = sorted(union)
        keep = min(state.capacity, len(pool))
        picked = state.rng.choice(len(pool), size=keep, replace=False)
        state.resident = {pool[i] for i in picked}
    return loads


def make_cache_states(cfg: ModelConfig, batch: int, seed: int) -> list[ExpertCacheState]:
    capacity = cfg.k if batch == 1 else 2
    rng = np.random.default_rng(seed)
    return [ExpertCacheState(capacity=capacity, rng=rng) for _ in range(cfg.L)]


# ---------------------------------------------------------------------------
# Metering
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class StepRecord:
    step: int  # -1 marks the prefill pass
    lanes: int
    elements: int
    bytes: int
    experts_loaded: int
    sim_seconds: float


@dataclass(frozen=True)
class BandwidthModel:
    """Link model for offload transfers: seconds = overhead + bytes / rate."""

    bytes_per_second: float = 16e9  # PCIe 3.0 x16 class link
    fixed_overhead: float = 0.0

    def __post_init__(self):
        # NaN fails every comparison, and an infinite rate would price any
        # transfer at zero seconds
        if not 0 < self.bytes_per_second < math.inf:
            raise ValueError(f"bytes_per_second must be positive and finite, "
                             f"got {self.bytes_per_second}")
        if not 0 <= self.fixed_overhead < math.inf:
            raise ValueError(f"fixed_overhead must be non-negative and finite, "
                             f"got {self.fixed_overhead}")


def step_latency(nbytes: int, bw: BandwidthModel | None) -> float:
    """Simulated transfer time: fixed_overhead + bytes / bytes_per_second."""
    if bw is None:
        return 0.0
    return bw.fixed_overhead + nbytes / bw.bytes_per_second


# One packed StepMeter record: step, lanes, elements, bytes, experts_loaded.
# sim_seconds is not stored: it is step_latency(bytes, bandwidth).
_RECORD = struct.Struct("<iiqqi")


@dataclass(slots=True)
class StepMeter:
    """Per-step transfer records, packed into one byte array (28 B a step);
    ``records`` builds the ``StepRecord``s on each access, so a kept meter
    holds only the packed bytes."""

    bytes_per_element: int
    bandwidth: BandwidthModel | None = None
    _packed: bytearray = field(default_factory=bytearray, init=False, repr=False)

    def add(self, step: int, lanes: int, elements: int, experts_loaded: int = 0,
            nbytes: int | None = None) -> None:
        """Record one step; bytes default to elements * bytes_per_element but
        callers with exact transfer counts (e.g. quantized rows) pass nbytes."""
        if nbytes is None:
            nbytes = elements * self.bytes_per_element
        self._packed += _RECORD.pack(step, lanes, elements, nbytes, experts_loaded)

    @property
    def records(self) -> list[StepRecord]:
        return [StepRecord(*fields, step_latency(fields[3], self.bandwidth))
                for fields in _RECORD.iter_unpack(self._packed)]

    @property
    def total_bytes(self) -> int:
        return sum(fields[3] for fields in _RECORD.iter_unpack(self._packed))

    def decode_records(self) -> list[StepRecord]:
        return [r for r in self.records if r.step >= 0]


# ---------------------------------------------------------------------------
# Greedy decode
# ---------------------------------------------------------------------------

# Every decode runtime and the model variant it runs; a variant's first
# runtime is its resident ("auto") one.
RUNTIME_VARIANTS = {"dense": "dense", "moe": "moe", "moe-offload": "moe",
                    "mole-train": "mole", "mole-lut": "mole"}


@dataclass(slots=True)
class DecodeResult:
    ids: np.ndarray  # (lanes, steps) int32: generated ids, one row per lane
    meter: StepMeter

    @property
    def tokens(self) -> list[list[int]]:
        """Generated ids per lane, as lists of ints (built on each access:
        a kept result holds only the compact ``ids``)."""
        return self.ids.tolist()


def _expert_elements(cfg: ModelConfig) -> int:
    return 2 * cfg.d * cfg.D_r


def greedy_decode(
    params: ModelParams,
    prompts: list[np.ndarray],
    steps: int,
    runtime: str = "auto",
    lut=None,
    seed: int = 0,
    bandwidth: BandwidthModel | None = None,
) -> DecodeResult:
    """Greedy decoding with transfer metering.

    runtime: one of ``RUNTIME_VARIANTS`` fitting the model's variant, or
    "auto" (its resident runtime). Prompts may have different lengths; each
    lane generates ``steps`` tokens into one ``DecodeState`` whose arenas
    hold the longest prompt plus ``steps``. Sampling is argmax with ties to
    the lower token id. The meter charges ``params.dtype.itemsize`` bytes per
    element; its step -1 row covers prefill (mole-lut prefetches rows for
    every prompt position; the expert cache starts empty and is not charged
    for the prompt pass).

    Lanes may decode past ``max_seq``, the training length that
    ``model_forward`` enforces: rotary position encoding extrapolates to
    any position, though the model was never trained there.
    """
    cfg = params.cfg
    if steps <= 0:
        raise ValueError("steps must be positive")
    if not prompts or any(len(np.ravel(p)) == 0 for p in prompts):
        raise ValueError("every lane needs a non-empty prompt")
    if runtime == "auto":
        runtime = next(r for r, v in RUNTIME_VARIANTS.items() if v == cfg.variant)
    if RUNTIME_VARIANTS.get(runtime) != cfg.variant:
        raise ValueError(f"runtime {runtime!r} does not fit variant {cfg.variant!r}")
    if runtime == "mole-lut" and lut is None:
        raise ValueError("mole-lut runtime needs an open LUT handle")

    lanes = len(prompts)
    prompts = [np.ravel(np.asarray(p)) for p in prompts]
    lens = [len(p) for p in prompts]
    meter = StepMeter(bytes_per_element=params.dtype.itemsize, bandwidth=bandwidth)
    state = init_decode_state(params, lanes, max(lens) + steps)
    cache_states = make_cache_states(cfg, lanes, seed) if runtime == "moe-offload" else None
    mole_lut = runtime == "mole-lut"
    source = lut if mole_lut else None
    lut_row_elements = cfg.N * cfg.d * cfg.L  # per token, when rows come from the table

    # prefill: every prompt in one packed forward; a lane's next token comes
    # from its last row
    before = lut.bytes_read if mole_lut else 0
    logits = forward_tokens(params, prompts, state, lut=source)
    current = greedy_pick(logits[np.cumsum(lens) - 1])
    meter.add(-1, lanes, sum(lens) * lut_row_elements if mole_lut else 0, 0,
              nbytes=lut.bytes_read - before if mole_lut else 0)

    # a step is one new token per lane: the ids of row b are lane b's
    ones = np.ones(lanes, dtype=np.int64)
    ids = np.empty((lanes, steps), dtype=np.int32)
    for step in range(steps):
        ids[:, step] = current
        before = lut.bytes_read if mole_lut else 0
        sel: list[np.ndarray] | None = [] if runtime == "moe-offload" else None
        logits = forward_lanes(params, current, ones, state, lut=source, moe_sel=sel)
        if mole_lut:
            meter.add(step, lanes, lanes * lut_row_elements, 0, nbytes=lut.bytes_read - before)
        elif sel is not None:
            # row b of a step is lane b; the cache sees the layers in order,
            # so its random draws do not depend on how lanes are batched
            loaded = sum(len(cache_update(cache_states[i], layer_sel.tolist(), lanes))
                         for i, layer_sel in enumerate(sel))
            meter.add(step, lanes, loaded * _expert_elements(cfg), loaded)
        else:
            meter.add(step, lanes, 0, 0)
        current = greedy_pick(logits)
    return DecodeResult(ids=ids, meter=meter)


# ---------------------------------------------------------------------------
# Model-free bandwidth simulation
# ---------------------------------------------------------------------------

def uniform_routing_step(
    rng: np.random.Generator, n_experts: int, k: int, lanes: int
) -> list[set[int]]:
    """Stand-in router for shapes too large to run: each lane activates a
    uniformly random k-subset (argsort of iid uniforms is a uniform
    permutation, so the first k entries are a uniform subset)."""
    order = np.argsort(rng.random((lanes, n_experts)), axis=1)[:, :k]
    return [set(row.tolist()) for row in order]


def simulate_transfer_meter(
    cfg: ModelConfig,
    batch: int,
    steps: int,
    seed: int = 0,
    bytes_per_element: int = 2,
    bandwidth: BandwidthModel | None = None,
    routing_trace: list[list[list[set[int]]]] | None = None,
) -> StepMeter:
    """Per-step transfer accounting without running the model.

    moe: uniform-random routing (or a replayed trace indexed
    [step][layer][lane]) through the expert cache policy. mole: the constant
    lanes * N * d * L row fetch. dense: zero transfer rows.
    """
    meter = StepMeter(bytes_per_element=bytes_per_element, bandwidth=bandwidth)
    if cfg.variant == "moe":
        states = make_cache_states(cfg, batch, seed)
        route_rng = np.random.default_rng(seed + 1)
        for step in range(steps):
            loaded = 0
            for li, layer_state in enumerate(states):
                if routing_trace is not None:
                    activated = routing_trace[step][li]
                else:
                    activated = uniform_routing_step(route_rng, cfg.N, cfg.k, batch)
                loaded += len(cache_update(layer_state, activated, batch))
            meter.add(step, batch, loaded * _expert_elements(cfg), loaded)
    elif cfg.variant == "mole":
        per_step = batch * cfg.N * cfg.d * cfg.L
        for step in range(steps):
            meter.add(step, batch, per_step, 0)
    else:
        for step in range(steps):
            meter.add(step, batch, 0, 0)
    return meter
