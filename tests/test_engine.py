import gc
import tracemalloc

import numpy as np
import pytest

from conftest import tiny_dense, tiny_moe, tiny_mole

from mole import engine, kernels
from mole.analyst import BandwidthModel
from mole.config import toy_config
from mole.engine import (
    ExpertCacheState,
    cache_update,
    greedy_decode,
    simulate_transfer_meter,
    step_latency,
)
from mole.kernels import ShapeError
from mole.lut_store import open_lut, write_lut
from mole.model import key_rows, model_forward
from mole.reparam import reparameterize


def mole_lut_setup(tmp_path, dtype="fp32", block=0, **kw):
    p = tiny_mole(**kw)
    infer, tables = reparameterize(p)
    path = tmp_path / "e.lut"
    write_lut(tables, path, dtype=dtype, block_size=block)
    return p, infer, path


class TestCacheUpdate:
    def _state(self, capacity, seed=0, resident=()):
        return ExpertCacheState(capacity=capacity, rng=np.random.default_rng(seed),
                                resident=set(resident))

    def test_batch1_hit_means_zero_loads(self):
        st = self._state(2, resident={1, 4})
        loads = cache_update(st, [{1, 4}], batch=1)
        assert loads == set()
        assert st.resident == {1, 4}

    def test_batch1_disjoint_loads_k(self):
        st = self._state(2, resident={1, 4})
        loads = cache_update(st, [{0, 3}], batch=1)
        assert loads == {0, 3}
        assert st.resident == {0, 3}

    def test_batch1_over_capacity_rejected(self):
        st = self._state(2)
        with pytest.raises(ValueError):
            cache_update(st, [{0, 1, 2}], batch=1)

    def test_batched_keeps_capacity_subset_of_union(self):
        st = self._state(2, seed=3)
        activated = [{0, 1}, {2, 3}, {1, 5}]
        loads = cache_update(st, activated, batch=3)
        assert loads == {0, 1, 2, 3, 5}
        assert len(st.resident) == 2
        assert st.resident <= {0, 1, 2, 3, 5}

    def test_deterministic_given_seed(self):
        a = self._state(2, seed=9)
        b = self._state(2, seed=9)
        for _ in range(20):
            acts = [{0, 1}, {2, 3}]
            assert cache_update(a, acts, 2) == cache_update(b, acts, 2)
            assert a.resident == b.resident


class TestStepLatency:
    def test_zero_bytes_is_overhead(self):
        bw = BandwidthModel(bytes_per_second=16e9, fixed_overhead=1e-3)
        assert step_latency(0, bw) == 1e-3

    def test_analytic_one_second(self):
        bw = BandwidthModel(bytes_per_second=16e9, fixed_overhead=0.5)
        assert abs(step_latency(int(16e9), bw) - 1.5) < 1e-12

    def test_no_bandwidth_model(self):
        assert step_latency(12345, None) == 0.0

    @pytest.mark.parametrize("field, value", [
        ("bytes_per_second", np.nan), ("bytes_per_second", np.inf),
        ("bytes_per_second", -np.inf), ("bytes_per_second", 0.0),
        ("fixed_overhead", np.nan), ("fixed_overhead", np.inf), ("fixed_overhead", -1e-9)])
    def test_rejects_nonfinite_or_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            BandwidthModel(**{field: value})


class TestSimulatedMeter:
    def test_mole_constant_bytes_per_step(self):
        cfg = toy_config("mole", N=4)
        meter = simulate_transfer_meter(cfg, batch=3, steps=10, seed=1)
        recs = meter.decode_records()
        assert len({r.bytes for r in recs}) == 1
        assert recs[0].elements == 3 * cfg.N * cfg.d * cfg.L

    def test_mole_paper_shape_elements(self):
        cfg = toy_config("mole", L=12, d=768, n_heads=12, D_s=3072, D_r=3072,
                         N=16, vocab=50000, max_seq=2048)
        meter = simulate_transfer_meter(cfg, batch=1, steps=2)
        assert meter.decode_records()[0].elements == 147_456

    def test_moe_worst_case_bound(self):
        cfg = toy_config("moe", N=6, k=2)
        meter = simulate_transfer_meter(cfg, batch=4, steps=50, seed=2)
        worst = cfg.L * 2 * cfg.d * cfg.k * cfg.D_r * 4  # all k new, every lane distinct...
        for r in meter.decode_records():
            # bounded by loading every expert once per layer
            assert r.elements <= cfg.L * cfg.N * 2 * cfg.d * cfg.D_r

    def test_moe_worst_case_paper_shape(self):
        cfg = toy_config("moe", L=12, d=768, n_heads=12, D_r=1536, N=10, k=2,
                         vocab=50000, max_seq=2048)
        worst = 2 * cfg.d * cfg.k * cfg.D_r * cfg.L
        assert worst == 56_623_104

    def test_dense_zero_transfer(self):
        cfg = toy_config("dense")
        meter = simulate_transfer_meter(cfg, batch=2, steps=5)
        assert all(r.bytes == 0 for r in meter.records)


class TestGreedyDecode:
    def test_lut_runtime_matches_train_runtime_token_for_token(self, tmp_path, rng):
        p, infer, path = mole_lut_setup(tmp_path)
        prompts = [rng.integers(0, p.cfg.vocab, size=5),
                   rng.integers(0, p.cfg.vocab, size=3)]
        ref = greedy_decode(p, prompts, steps=8, runtime="mole-train")
        with open_lut(path) as h:
            got = greedy_decode(infer, prompts, steps=8, runtime="mole-lut", lut=h)
        assert ref.tokens == got.tokens

    def test_mole_per_step_elements_exact(self, tmp_path, rng):
        p, infer, path = mole_lut_setup(tmp_path)
        cfg = p.cfg
        prompts = [rng.integers(0, cfg.vocab, size=4) for _ in range(3)]
        with open_lut(path) as h:
            res = greedy_decode(infer, prompts, steps=5, runtime="mole-lut", lut=h)
        for r in res.meter.decode_records():
            assert r.elements == 3 * cfg.N * cfg.d * cfg.L
            assert r.bytes == r.elements * 4  # fp32 rows

    def test_mole_bytes_invariant_to_prompt_content(self, tmp_path, rng):
        p, infer, path = mole_lut_setup(tmp_path)
        with open_lut(path) as h:
            a = greedy_decode(infer, [np.array([1, 2, 3])], 4, "mole-lut", lut=h)
        with open_lut(path) as h:
            b = greedy_decode(infer, [np.array([9, 9, 9])], 4, "mole-lut", lut=h)
        assert [r.bytes for r in a.meter.decode_records()] == \
               [r.bytes for r in b.meter.decode_records()]

    def test_determinism(self, rng):
        p = tiny_moe()
        prompts = [rng.integers(0, p.cfg.vocab, size=4) for _ in range(2)]
        a = greedy_decode(p, prompts, steps=6, runtime="moe-offload", seed=7)
        b = greedy_decode(p, prompts, steps=6, runtime="moe-offload", seed=7)
        assert a.tokens == b.tokens
        assert [r.bytes for r in a.meter.records] == [r.bytes for r in b.meter.records]

    def test_moe_offload_meters_expert_loads(self, rng):
        p = tiny_moe()
        cfg = p.cfg
        prompts = [rng.integers(0, cfg.vocab, size=4)]
        res = greedy_decode(p, prompts, steps=6, runtime="moe-offload", seed=1)
        per_expert = 2 * cfg.d * cfg.D_r
        for r in res.meter.decode_records():
            assert r.elements == r.experts_loaded * per_expert
            assert 0 <= r.experts_loaded <= cfg.L * cfg.k

    def test_moe_offload_tokens_match_resident_runtime(self, rng):
        p = tiny_moe()
        prompts = [rng.integers(0, p.cfg.vocab, size=4)]
        a = greedy_decode(p, prompts, steps=6, runtime="moe")
        b = greedy_decode(p, prompts, steps=6, runtime="moe-offload", seed=5)
        assert a.tokens == b.tokens  # offloading changes transfers, not math

    def test_kept_result_is_compact(self):
        # the meter packs its records (28 B a step) and builds StepRecords on
        # access, so a kept 16-step result holds ~0.8 KiB (3 KiB as a list of
        # StepRecords)
        p = tiny_moe(seed=3)
        prompt = [np.arange(1, 9)]
        greedy_decode(p, prompt, steps=16, runtime="moe-offload", seed=1)
        tracemalloc.start()
        try:
            res = greedy_decode(p, prompt, steps=16, runtime="moe-offload", seed=1)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del res
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < freed <= 1300

    def test_meter_records_round_trip(self):
        bw = BandwidthModel(bytes_per_second=1e9, fixed_overhead=1e-6)
        meter = engine.StepMeter(bytes_per_element=2, bandwidth=bw)
        meter.add(-1, 3, 10)
        meter.add(0, 3, 2**40, 5, nbytes=2**41 + 1)
        assert [(r.step, r.lanes, r.elements, r.bytes, r.experts_loaded, r.sim_seconds)
                for r in meter.records] == [
            (-1, 3, 10, 20, 0, step_latency(20, bw)),
            (0, 3, 2**40, 2**41 + 1, 5, step_latency(2**41 + 1, bw))]
        assert [r.step for r in meter.decode_records()] == [0]
        assert meter.total_bytes == 2**41 + 21

    def test_dense_no_transfer(self, rng):
        p = tiny_dense()
        res = greedy_decode(p, [rng.integers(0, p.cfg.vocab, size=4)], steps=4)
        assert res.meter.total_bytes == 0

    def test_runtime_variant_mismatch_rejected(self, rng):
        p = tiny_dense()
        with pytest.raises(ValueError):
            greedy_decode(p, [np.array([1])], 2, runtime="moe-offload")

    def test_bad_steps_rejected(self):
        p = tiny_dense()
        with pytest.raises(ValueError):
            greedy_decode(p, [np.array([1])], 0)

    def test_decode_past_max_seq_extrapolates(self, rng):
        # max_seq bounds full-sequence forwards only; decode positions run on
        p = tiny_dense(max_seq=16)
        prompt = rng.integers(0, p.cfg.vocab, size=14)
        res, logits, kv, _ = recorded_decode(p, [prompt], 10, "dense")
        assert len(res.tokens[0]) == 10
        # a result holds one (lanes, steps) array; tokens are plain ints
        assert res.ids.shape == (1, 10) and res.ids.dtype == np.int32
        assert res.tokens == [[int(t) for t in res.ids[0]]]
        assert all(type(t) is int for t in res.tokens[0])
        assert [n for _, _, n in kv[0]] == [24] * p.cfg.L
        assert all(np.isfinite(np.frombuffer(row, np.float32)).all() for row in logits[0])
        full = model_forward(p, prompt)[0, -1]
        assert logits[0][0] == full.tobytes()
        with pytest.raises(ShapeError):
            model_forward(p, rng.integers(0, p.cfg.vocab, size=17))

    def test_quantized_lut_decode_runs(self, tmp_path, rng):
        p, infer, path = mole_lut_setup(tmp_path, dtype="nf3", block=8, d=32,
                                        D_r=24, N=2)
        prompts = [rng.integers(0, p.cfg.vocab, size=3)]
        with open_lut(path) as h:
            res = greedy_decode(infer, prompts, steps=3, runtime="mole-lut", lut=h)
        # bytes now follow the quantized row layout
        row_bytes = (p.cfg.d // 8) * (2 + 3)
        want = 1 * p.cfg.N * p.cfg.L * row_bytes
        assert all(r.bytes == want for r in res.meter.decode_records())

    @pytest.mark.parametrize("runtime", ["moe-offload", "mole-lut"])
    def test_decode_steps_copy_no_operand(self, tmp_path, monkeypatch, rng, runtime):
        """The routers are copied to row-major operands once per decode, at
        prefill: no decode step calls ``np.ascontiguousarray``."""
        if runtime == "mole-lut":
            _, params, path = mole_lut_setup(tmp_path)
            lut = open_lut(path)
        else:
            params, lut = tiny_moe(), None
        copies, per_step = [0], []
        real_copy, real_step = np.ascontiguousarray, engine.forward_lanes

        def counted_copy(*args, **kwargs):
            copies[0] += 1
            return real_copy(*args, **kwargs)

        def counted_step(*args, **kwargs):
            before = copies[0]
            out = real_step(*args, **kwargs)
            per_step.append(copies[0] - before)
            return out

        monkeypatch.setattr(np, "ascontiguousarray", counted_copy)
        monkeypatch.setattr(engine, "forward_lanes", counted_step)
        prompts = [rng.integers(0, params.cfg.vocab, size=n) for n in (3, 5, 2)]
        try:
            greedy_decode(params, prompts, steps=4, runtime=runtime, lut=lut)
        finally:
            if lut is not None:
                lut.close()
        assert per_step == [0] * 4
        assert copies[0] == params.cfg.L  # the prefill's router copies


class TestGreedyPick:
    def test_one_argmax_per_row_ties_to_lower_id(self):
        """One call picks every row; a tied row picks its lowest id, as a
        per-row argmax does."""
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((9, 50)).astype(np.float32)
        logits[1, [3, 17, 40]] = 9.0  # a three-way tie
        logits[2, [0, 49]] = 9.0  # a tie at both ends
        logits[4] = 0.0  # every id tied
        logits[5, [20, 21]] = np.inf
        got = engine.greedy_pick(logits)
        assert got.shape == (9,)
        assert got.tolist() == [int(np.argmax(row)) for row in logits]
        assert got[[1, 2, 4, 5]].tolist() == [3, 0, 0, 20]
        assert int(engine.greedy_pick(logits[1])) == 3


def recorded_decode(params, prompts, steps, runtime, lut=None, seed=0):
    """greedy_decode, also returning every logits row it picked from (per
    lane, prefill row first), each lane's written KV arena bytes and length
    per layer (keys read one row per position, ``key_rows``), and the
    activated expert sets handed to the moe-offload cache (per step, layer,
    lane). Checks that the rest of each lane's arena rows is still zero, and
    that each pick takes every lane's row at once and equals a per-row
    argmax."""
    picked, states, activated = [], [], []
    pick, init, update = engine.greedy_pick, engine.init_decode_state, engine.cache_update

    def record_pick(rows):
        assert rows.shape == (len(prompts), params.cfg.vocab)
        picked.extend(row.tobytes() for row in rows)
        got = pick(rows)
        assert got.tolist() == [int(np.argmax(row)) for row in rows]
        return got

    def record_init(p, lanes, capacity):
        states.append(init(p, lanes, capacity))
        return states[-1]

    def record_update(state, lanes, batch):
        activated.append([set(lane) for lane in lanes])
        return update(state, lanes, batch)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "greedy_pick", record_pick)
        mp.setattr(engine, "init_decode_state", record_init)
        mp.setattr(engine, "cache_update", record_update)
        res = greedy_decode(params, prompts, steps, runtime=runtime, lut=lut, seed=seed)
    lanes = len(prompts)
    logits = [picked[b::lanes] for b in range(lanes)]
    (state,) = states
    kv = []
    keys = [key_rows(k) for k in state.k]
    for b, n in enumerate(state.lengths.tolist()):
        assert not any(arena[b, :, n:].any() for arena in keys + state.v)
        kv.append([(k[b, :, :n].tobytes(), v[b, :, :n].tobytes(), n)
                   for k, v in zip(keys, state.v)])
    layers = params.cfg.L
    routing = [activated[s * layers:(s + 1) * layers] for s in range(steps)]
    return res, logits, kv, routing


RUNTIMES = [("dense", None), ("moe", None), ("moe-offload", None), ("mole-train", None),
            ("mole-lut", ("fp32", 0)), ("mole-lut", ("nf4", 8))]
# prompt lengths: distinct, all equal, mixed, and spans crossing two key-block
# edges (up to 30 + 4 steps = 34 keys, three blocks of model.KEY_BLOCK)
LANE_LENGTHS = [(5, 1, 3, 8), (4, 4, 4), (2, 6, 2, 6, 1), (3, 17, 30, 16, 1)]
CROSS_BLOCK = LANE_LENGTHS[3]
# covers every position the cases reach, so no lane decodes past max_seq
PACKED_MAX_SEQ = 36


class TestPackedLanes:
    """Decoding lanes together gives each lane the bits it gets alone."""

    def _setup(self, runtime, lut_dtype, tmp_path):
        if runtime == "dense":
            return tiny_dense(max_seq=PACKED_MAX_SEQ), None
        if runtime.startswith("moe"):
            return tiny_moe(max_seq=PACKED_MAX_SEQ), None
        if runtime == "mole-train":
            return tiny_mole(max_seq=PACKED_MAX_SEQ), None
        p, infer, path = mole_lut_setup(tmp_path, dtype=lut_dtype[0], block=lut_dtype[1],
                                        max_seq=PACKED_MAX_SEQ)
        return infer, path

    def _check(self, tmp_path, runtime, lut_dtype, lengths, steps=4):
        params, path = self._setup(runtime, lut_dtype, tmp_path)
        rng = np.random.default_rng(sum(lengths))
        prompts = [rng.integers(0, params.cfg.vocab, size=n) for n in lengths]

        def decode(lanes):
            lut = open_lut(path) if path else None
            try:
                return recorded_decode(params, lanes, steps, runtime, lut, seed=4)
            finally:
                if lut is not None:
                    lut.close()

        together, logits, kv, routing = decode(prompts)
        alone = [decode([p]) for p in prompts]
        for b, (res, lane_logits, lane_kv, lane_routing) in enumerate(alone):
            assert together.tokens[b] == res.tokens[0]
            assert logits[b] == lane_logits[0]  # prefill row and every step, byte for byte
            assert kv[b] == lane_kv[0]  # written span byte for byte; the tail stays zero
            assert [[layer[b] for layer in step] for step in routing] == \
                   [[layer[0] for layer in step] for step in lane_routing]
        return params, prompts, together, [a[0] for a in alone], routing

    @pytest.mark.parametrize("lengths", LANE_LENGTHS)
    @pytest.mark.parametrize("runtime, lut_dtype", RUNTIMES)
    def test_lanes_together_equal_lanes_alone(self, tmp_path, runtime,
                                              lut_dtype, lengths):
        params, prompts, together, alone, routing = self._check(
            tmp_path, runtime, lut_dtype, lengths)
        cfg = params.cfg
        records = together.meter.records
        assert [r.step for r in records] == list(range(-1, 4))
        if runtime == "mole-lut":
            row_bytes = 4 * cfg.d if lut_dtype[0] == "fp32" else (cfg.d // 8) * (2 + 4)
            assert records[0].bytes == sum(lengths) * cfg.N * cfg.L * row_bytes
            assert all(r.bytes == len(lengths) * cfg.N * cfg.L * row_bytes
                       for r in records[1:])
            # repeats are charged again: together costs what the lanes cost alone
            assert [r.bytes for r in records] == \
                   [sum(a.meter.records[s].bytes for a in alone) for s in range(5)]
        elif runtime == "moe-offload":
            # the cache policy applied to the per-lane activated sets, layer by layer
            want = simulate_transfer_meter(cfg, len(prompts), 4, seed=4,
                                           bytes_per_element=4, routing_trace=routing)
            got = together.meter.decode_records()
            assert [(r.bytes, r.experts_loaded) for r in got] == \
                   [(r.bytes, r.experts_loaded) for r in want.records]
            assert records[0].bytes == 0
        else:
            assert together.meter.total_bytes == 0

    def test_one_lane_moe_offload_meter_follows_cache_policy(self):
        p = tiny_moe()
        prompt = [np.array([3, 1, 4, 1, 5])]
        res, _, _, routing = recorded_decode(p, prompt, 6, "moe-offload", seed=2)
        want = simulate_transfer_meter(p.cfg, 1, 6, seed=2, bytes_per_element=4,
                                       routing_trace=routing)
        assert [(r.bytes, r.experts_loaded) for r in res.meter.decode_records()] == \
               [(r.bytes, r.experts_loaded) for r in want.records]
        assert all(len(lane) == p.cfg.k for step in routing for layer in step for lane in layer)
        assert res.tokens == greedy_decode(p, prompt, 6, runtime="moe").tokens

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("runtime, lut_dtype", [("mole-train", None), ("mole-lut", ("fp32", 0))])
    def test_under_sequential_fallback(self, monkeypatch, tmp_path, runtime, lut_dtype):
        monkeypatch.setattr(kernels, "_rows_invariant", lambda dtype: False)
        monkeypatch.setattr(kernels, "_backends", {})
        self._check(tmp_path, runtime, lut_dtype, LANE_LENGTHS[2])
        assert kernels.backend(np.float32) == kernels.SEQUENTIAL

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("runtime, lut_dtype", RUNTIMES)
    def test_cross_block_under_sequential_fallback(self, monkeypatch, tmp_path, runtime,
                                                   lut_dtype):
        monkeypatch.setattr(kernels, "_rows_invariant", lambda dtype: False)
        monkeypatch.setattr(kernels, "_backends", {})
        self._check(tmp_path, runtime, lut_dtype, CROSS_BLOCK)
        assert kernels.backend(np.float32) == kernels.SEQUENTIAL
