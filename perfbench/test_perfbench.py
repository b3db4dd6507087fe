"""Tests of the benchmark itself: metric names and units, seeded inputs,
smoke runs of every workload, tracing, and failure counting.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mole import kernels, model

from perfbench import harness, run, tracer

ROOT = Path(__file__).resolve().parent.parent

# (name, unit) printed by every run, then by each workload: the issue's names
COMMON_NAMED = [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("fail_rate", "failed/attempted")]
DECODE_NAMED = [("decode_tokens_per_s", "tok/s"), ("decode_call_ms_p50", "ms"),
                ("decode_call_ms_p90", "ms"), ("transfer_bytes_per_token", "B/token")]
WORKLOAD_NAMED = {
    "train": [("train_tokens_per_s", "tok/s"), ("train_step_ms_p50", "ms"),
              ("train_step_ms_p90", "ms"), ("train_loss_end", "nats")],
    "verify": [("reparam_ms_p50", "ms"), ("verify_prompts_per_s", "prompts/s")],
    "decode-lut-32": DECODE_NAMED,
    "decode-offload-1": DECODE_NAMED,
}


class CorruptRowHandle:
    """A LUT handle that alters one (layer, token) row on every read; used to
    show that the output checks catch a wrong table row."""

    def __init__(self, inner, layer: int, token: int):
        self.inner = inner
        self.header = inner.header
        self.layer = layer
        self.token = token

    @property
    def bytes_read(self) -> int:
        return self.inner.bytes_read

    def gather(self, layer, ids):
        rows = self.inner.gather(layer, ids)
        if layer == self.layer:
            rows[np.atleast_1d(ids) == self.token, 0] += 100.0
        return rows

    def prefetch(self, layer, ids):
        return layer, np.atleast_1d(np.asarray(ids)).copy()

    def await_rows(self, ticket):
        return self.gather(*ticket)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_metric_with_its_unit():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(harness.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in s["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in s["per_layer"]] == harness.PER_LAYER
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_one_seed_gives_identical_inputs(name, tmp_path):
    a = harness.WORKLOADS[name](ROOT, 5, tmp_path)
    b = harness.WORKLOADS[name](ROOT, 5, tmp_path)
    c = harness.WORKLOADS[name](ROOT, 6, tmp_path)

    def inputs(wl):
        if name == "train":
            return [wl.corpus]
        if name == "verify":
            return wl.prompt_set
        if name == "decode-lut-32":
            return [p for batch in wl.pool for p in batch]
        return wl.pool

    same = inputs(a), inputs(b)
    assert len(same[0]) == len(same[1])
    assert all(np.array_equal(x, y) for x, y in zip(*same))
    assert not all(np.array_equal(x, y) for x, y in zip(inputs(a), inputs(c)))
    # prompt lengths are a permutation of a fixed multiset: same work per seed
    assert sorted(map(len, inputs(a))) == sorted(map(len, inputs(c)))


def test_one_seed_gives_identical_models(tmp_path):
    cfg = ROOT / "configs" / "toy-mole.json"
    p1 = harness.pipeline_model(cfg, 11, 1, tmp_path / "a.ckpt")
    p2 = harness.pipeline_model(cfg, 11, 1, tmp_path / "b.ckpt")
    assert p1.tensors.keys() == p2.tensors.keys()
    assert all(np.array_equal(p1.tensors[k], p2.tensors[k]) for k in p1.tensors)


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_smoke_run_emits_every_metric(name, tmp_path):
    out = tmp_path / "spans.jsonl.gz"
    result = harness.run(ROOT, name, 3, 0.01, trace=True, setup_repeats=1, setup_seconds=0.0,
                         min_ops=2, trace_out=out)
    assert result.failed == 0 and result.attempted >= 3
    assert list(result.e2e) == [m for m, _, _ in harness.END_TO_END]
    assert all(v > 0 and math.isfinite(v) for v in result.e2e.values())
    assert [(n, u) for n, _, u in result.named] == COMMON_NAMED + WORKLOAD_NAMED[name]
    # train_loss_end averages measured steps 16..31, which a smoke run does not reach
    assert all(math.isfinite(v) for n, v, _ in result.named if n != "train_loss_end")
    assert sorted(result.per_layer) == sorted(m for m, _, _ in harness.PER_LAYER)
    assert all(math.isfinite(v) for v in result.per_layer.values())
    assert 0 < result.per_layer["kernels.matmul.calls"]
    assert out.stat().st_size > 0
    # tracing leaves no wrapper behind
    assert model.matmul is kernels.matmul
    for _, home, attr, _, _ in tracer.TARGETS:
        assert not hasattr(getattr(sys.modules[home], attr), "__wrapped__")


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 1, None],
             ["b", 2.0, 5.0, 0, 1, None],
             ["kernels.matmul", 3.0, 4.0, 1, 1, {"flop": 10, "m1": True}]]
    m = tracer.layer_metrics(spans, 1, 10.0, 0.0, [], 1)
    assert m["kernels.matmul.self_ms"] == pytest.approx(1e3)
    assert m["kernels.matmul.calls"] == 1 and m["kernels.matmul.m1_calls"] == 1
    assert m["kernels.matmul.share"] == pytest.approx(0.1)


def test_corrupted_lut_row_is_counted_as_failed(tmp_path):
    wl = harness.DecodeLutWorkload(ROOT, 2, tmp_path)
    wl.batches = 1
    wl.setup()
    try:
        wl.references()
        clean = harness.measure(wl, 0.0, 1, 0)
        assert clean[0].error is None
        lane0 = wl.pool[0][0]
        wl.handle = CorruptRowHandle(wl.handle, layer=wl.mcfg.L - 1,
                                             token=int(lane0[-1]))
        records = harness.measure(wl, 0.0, 1, 0)
        assert sum(r.error is not None for r in records) == 1
        assert "greedy streams differ" in records[0].error
    finally:
        wl.handle = getattr(wl.handle, "inner", wl.handle)
        wl.close()


def test_cli_prints_the_result_object_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode-offload-1",
         "--seed", "4", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec()["end_to_end"]}
    provenance = json.loads(lines[-2])
    assert provenance["machine"]["MOLE_RT_THREADS"] == "1"
    assert provenance["operations"]["attempted"] == result["attempted"]


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
