"""Span tracing of the mole layers from outside the package.

``Tracer.install`` rebinds the public functions listed in ``TARGETS`` in
every loaded ``mole`` module that imported them, so calls made between
modules go through a timing wrapper; ``uninstall`` restores the originals.
LUT handles are traced per instance (``instrument_handle``). Nothing under
``src/`` is changed.

Each span records name, start, end, parent span, operation id and the counts
taken at that boundary (rows, flops, bytes, ...). Spans stay in memory until
``write`` saves them as gzip-compressed JSON lines. ``layer_metrics`` turns
them into the per-layer metrics of the benchmark; self time is a span's
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

DECODE_SPAN = "engine.greedy_decode"
PREFETCH_SPAN = "lut_store.prefetch"
MOE_SPAN = "model.moe_layer_forward"
LUT_DTYPES = ("fp32", "fp16", "nf4", "nf3")
POINTWISE = ("rmsnorm", "softmax", "gelu", "apply_rotary")


def _matmul_counts(args, kwargs):
    a, b = args[0], args[1]
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    # flops from operand shapes: one multiply and one add per (m, k, n) term
    return {"flop": 2 * int(np.prod(lead, dtype=np.int64)) * m * k * n, "m1": m == 1}


def _attention_counts(args, kwargs):
    x = args[1]
    return {"rows": int(x.shape[0] * x.shape[1])}


def _moe_counts(args, kwargs):
    return {"layer": args[0].index}


def _forward_counts(args, kwargs):
    form = kwargs.get("form", args[2] if len(args) > 2 else "train_form")
    return {"form": form}


def _cache_update_counts(args, kwargs):
    union: set[int] = set()
    for lane in args[1]:
        union |= {int(j) for j in lane}
    return {"activated": len(union)}


def _cache_update_post(counts, result):
    counts["loaded"] = len(result)


# (span name, home module, attribute, counts taken at entry, counts taken from the result)
TARGETS = [
    ("kernels.matmul", "mole.kernels", "matmul", _matmul_counts, None),
    *[(f"kernels.pointwise.{f}", "mole.kernels", f, None, None) for f in POINTWISE],
    ("model.attention_forward", "mole.model", "attention_forward", _attention_counts, None),
    ("model.ffn_forward", "mole.model", "ffn_forward", None, None),
    ("model.combine_expert_rows", "mole.model", "combine_expert_rows", None, None),
    ("model.mole_expert_rows", "mole.model", "mole_expert_rows", None, None),
    (MOE_SPAN, "mole.model", "moe_layer_forward", _moe_counts, None),
    ("model.model_forward", "mole.model", "model_forward", _forward_counts, None),
    ("model.forward_tokens", "mole.model", "forward_tokens", None, None),
    ("trainer.sample_batch", "mole.trainer", "sample_batch", None, None),
    ("trainer.backward", "mole.trainer", "backward", None, None),
    ("trainer.clip_gradients", "mole.trainer", "clip_gradients", None, None),
    ("trainer.adam_step", "mole.trainer", "adam_step", None, None),
    ("reparam.build_layer_lut", "mole.reparam", "build_layer_lut", None, None),
    ("reparam.reparameterize", "mole.reparam", "reparameterize", None, None),
    ("reparam.verify_equivalence", "mole.reparam", "verify_equivalence", None, None),
    ("lut_store.write_lut", "mole.lut_store", "write_lut", None, None),
    ("lut_store.open_lut", "mole.lut_store", "open_lut", None, None),
    (DECODE_SPAN, "mole.engine", "greedy_decode", None, None),
    ("engine.cache_update", "mole.engine", "cache_update", _cache_update_counts,
     _cache_update_post),
    ("checkpoint.save_model", "mole.checkpoint", "save_model", None, None),
    ("checkpoint.load_model", "mole.checkpoint", "load_model", None, None),
]

HANDLE_METHODS = ("gather", "prefetch", "await_rows")


class Tracer:
    """In-memory span recorder. ``op`` tags new spans with the current
    operation id (an int for measured operations, "setup" during set-up)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, counts]
        self.op: int | str | None = None
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._handles: list[object] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, pre=None, post=None):
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            counts = pre(args, kwargs) if pre is not None else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, counts]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, handles=()) -> None:
        """Rebind every target in each loaded mole module that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mole" or n.startswith("mole."))]
        for name, home, attr, pre, post in TARGETS:
            orig = getattr(sys.modules.get(home), attr, None)
            if orig is None:
                print(f"# trace: {home}.{attr} not found; {name} stays empty",
                      file=sys.stderr)
                continue
            wrapped = self.wrap(name, orig, pre, post)
            if attr == "open_lut":
                wrapped = self._tracing_open(wrapped)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, orig))
        for h in handles:
            self.instrument_handle(h)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()
        for h in self._handles:
            for meth in HANDLE_METHODS:
                h.__dict__.pop(meth, None)
        self._handles.clear()

    def _tracing_open(self, open_fn):
        def open_and_trace(*args, **kwargs):
            handle = open_fn(*args, **kwargs)
            self.instrument_handle(handle)
            return handle
        return open_and_trace

    def instrument_handle(self, handle) -> None:
        """Shadow the handle's fetch methods with traced instance attributes.

        The handle's own lazy tickets call ``self.gather``, so reads made
        inside ``await_rows`` are traced as its children."""
        dtype = handle.header.dtype

        def gather_pre(args, kwargs):
            return {"rows": int(np.size(args[1])), "dtype": dtype,
                    "before": handle.bytes_read}

        def gather_post(counts, result):
            counts["bytes"] = handle.bytes_read - counts.pop("before")

        def layer_pre(args, kwargs):
            return {"layer": int(args[0])}

        handle.gather = self.wrap("lut_store.gather", handle.gather, gather_pre, gather_post)
        handle.prefetch = self.wrap(PREFETCH_SPAN, handle.prefetch, layer_pre)
        handle.await_rows = self.wrap("lut_store.await_rows", handle.await_rows)
        self._handles.append(handle)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op, "counts": counts}) + "\n")


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], n_ops: int, op_seconds: float, overhead_frac: float,
                  meters: list, n_layers: int) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    "per op" sums cover spans tagged with a measured operation id, divided
    by ``n_ops``; "per call" means cover every span, set-up included.
    ``op_seconds`` is the summed wall time of the measured operations and
    ``meters`` the StepMeters of the decode calls among them, for a model
    of ``n_layers`` layers.
    """
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
    covered = np.zeros(n)
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            p = spans[parent]
            covered[parent] += max(0.0, min(s[2], p[2]) - max(s[1], p[1]))
    self_t = dur - covered

    per_op: dict[str, float] = defaultdict(float)    # seconds or counts, summed over ops
    calls: dict[str, list[float]] = defaultdict(list)  # seconds per call, all spans
    for i, (name, start, end, parent, op, counts) in enumerate(spans):
        calls[name].append(dur[i])
        if not isinstance(op, int):
            continue
        per_op[name + ".total"] += dur[i]
        per_op[name + ".self"] += self_t[i]
        per_op[name + ".calls"] += 1
        if name == "kernels.matmul":
            per_op["matmul.flop"] += counts["flop"]
            per_op["matmul.m1"] += counts["m1"]
        elif name.startswith("kernels.pointwise."):
            per_op["pointwise.self"] += self_t[i]
        elif name == "model.attention_forward":
            per_op["attention.rows"] += counts["rows"]
        elif name == "model.model_forward":
            per_op["forward." + counts["form"]] += dur[i]
        elif name == "lut_store.gather":
            per_op["gather.rows"] += counts["rows"]
            per_op["gather.bytes"] += counts["bytes"]
            per_op["gather.rows." + counts["dtype"]] += counts["rows"]
            per_op["gather.time." + counts["dtype"]] += dur[i]
        elif name == "engine.cache_update":
            per_op["cache.activated"] += counts["activated"]
            per_op["cache.loaded"] += counts["loaded"]

    ops = max(n_ops, 1)

    def op_ms(key: str) -> float:
        return 1e3 * per_op[key] / ops

    def call_ms(name: str) -> float:
        return 1e3 * float(np.mean(calls[name])) if calls[name] else 0.0

    steps, prefills = _decode_steps(spans)
    lanes = [r.lanes for m in meters for r in m.decode_records()]
    loads = [r.experts_loaded for m in meters for r in m.decode_records()]
    step_bytes = [r.bytes for m in meters for r in m.decode_records()]
    matmul_s = per_op["kernels.matmul.total"]
    activated = per_op["cache.activated"]

    out = {
        "kernels.matmul.calls": per_op["kernels.matmul.calls"] / ops,
        "kernels.matmul.m1_calls": per_op["matmul.m1"] / ops,
        "kernels.matmul.self_ms": op_ms("kernels.matmul.self"),
        "kernels.matmul.share": matmul_s / op_seconds if op_seconds > 0 else 0.0,
        "kernels.matmul.gflop": per_op["matmul.flop"] / 1e9 / ops,
        "kernels.matmul.gflops": per_op["matmul.flop"] / 1e9 / matmul_s if matmul_s else 0.0,
        "kernels.pointwise.self_ms": op_ms("pointwise.self"),
        "model.attention_forward.self_ms": op_ms("model.attention_forward.self"),
        "model.attention_forward.rows_per_call": (
            per_op["attention.rows"] / per_op["model.attention_forward.calls"]
            if per_op["model.attention_forward.calls"] else 0.0),
        "model.ffn_forward.self_ms": op_ms("model.ffn_forward.self"),
        "model.combine_expert_rows.self_ms": op_ms("model.combine_expert_rows.self"),
        "model.mole_expert_rows.ms": op_ms("model.mole_expert_rows.total"),
        "model.moe_layer_forward.self_ms": op_ms(MOE_SPAN + ".self"),
        "model.model_forward.train_form_ms": op_ms("forward.train_form"),
        "model.model_forward.lut_form_ms": op_ms("forward.lut_form"),
        "model.forward_tokens.ms": op_ms("model.forward_tokens.total"),
        "trainer.sample_batch.ms": op_ms("trainer.sample_batch.total"),
        "trainer.backward.self_ms": op_ms("trainer.backward.self"),
        "trainer.clip_gradients.ms": op_ms("trainer.clip_gradients.total"),
        "trainer.adam_step.ms": op_ms("trainer.adam_step.total"),
        "reparam.build_layer_lut.ms": call_ms("reparam.build_layer_lut"),
        "reparam.reparameterize.ms": call_ms("reparam.reparameterize"),
        "reparam.verify_equivalence.self_ms": op_ms("reparam.verify_equivalence.self"),
        "lut_store.write_lut.ms": call_ms("lut_store.write_lut"),
        "lut_store.open_lut.ms": call_ms("lut_store.open_lut"),
        "lut_store.gather.calls": per_op["lut_store.gather.calls"] / ops,
        "lut_store.gather.rows": per_op["gather.rows"] / ops,
        **{f"lut_store.gather.us_per_row.{dt}": (
            1e6 * per_op["gather.time." + dt] / per_op["gather.rows." + dt]
            if per_op["gather.rows." + dt] else 0.0) for dt in LUT_DTYPES},
        "lut_store.bytes_read": per_op["gather.bytes"] / ops,
        "lut_store.prefetch.issue_us": 1e3 * op_ms(PREFETCH_SPAN + ".total"),
        "lut_store.await_rows.wait_us": 1e3 * op_ms("lut_store.await_rows.total"),
        "lut_store.await_rows.wait_share": (per_op["lut_store.await_rows.total"] / op_seconds
                                            if op_seconds > 0 else 0.0),
        "engine.greedy_decode.self_ms": op_ms(DECODE_SPAN + ".self"),
        "engine.prefill_ms": 1e3 * float(np.mean(prefills)) if prefills else 0.0,
        "engine.step_ms_p50": 1e3 * percentile(steps, 50),
        "engine.step_ms_p90": 1e3 * percentile(steps, 90),
        "engine.lanes_per_step": float(np.mean(lanes)) if lanes else 0.0,
        "engine.experts_loaded_per_layer_step": (
            float(np.mean(loads)) / n_layers if loads else 0.0),
        "engine.cache_hit_ratio": (activated - per_op["cache.loaded"]) / activated
        if activated else 0.0,
        "engine.meter.bytes_per_step": float(np.mean(step_bytes)) if step_bytes else 0.0,
        "checkpoint.save_model.ms": call_ms("checkpoint.save_model"),
        "checkpoint.load_model.ms": call_ms("checkpoint.load_model"),
        "trace.overhead_frac": overhead_frac,
    }
    return out


def _decode_steps(spans: list[list]) -> tuple[list[float], list[float]]:
    """Decode-step and prefill durations of measured greedy_decode calls.

    A step starts at the layer-0 prefetch (mole-lut) or layer-0
    moe_layer_forward (moe-offload) issued directly by greedy_decode; the last
    step ends when greedy_decode returns, and prefill is everything before
    the first step.
    """
    starts: dict[int, list[float]] = defaultdict(list)
    for name, start, end, parent, op, counts in spans:
        if (name in (PREFETCH_SPAN, MOE_SPAN) and counts["layer"] == 0 and parent >= 0
                and spans[parent][0] == DECODE_SPAN and isinstance(op, int)):
            starts[parent].append(start)
    steps: list[float] = []
    prefills: list[float] = []
    for parent, bounds in starts.items():
        bounds.sort()
        edges = bounds + [spans[parent][2]]
        steps += [b - a for a, b in zip(edges, edges[1:])]
        prefills.append(bounds[0] - spans[parent][1])
    return steps, prefills
