import numpy as np
import pytest

from conftest import tiny_dense, tiny_mole, random_prompts

from mole import kernels, reparam
from mole.engine import greedy_decode
from mole.kernels import ShapeError
from mole.lut_store import TicketError, open_lut, write_lut
from mole.model import (
    KEY_BLOCK,
    forward_tokens,
    init_decode_state,
    model_forward,
    mole_expert_rows,
    pack_lanes,
    param_names,
)
from mole.reparam import (
    InMemoryLut,
    build_layer_lut,
    reparameterize,
    verify_equivalence,
)


class TestBuildLayerLut:
    def test_zero_experts_zero_table(self):
        p = tiny_mole(L=1)
        for j in range(p.cfg.N):
            p.tensors[f"layers.0.experts.{j}.w1"][:] = 0.0
            p.tensors[f"layers.0.experts.{j}.b1"][:] = 0.0
            p.tensors[f"layers.0.experts.{j}.w2"][:] = 0.0
            p.tensors[f"layers.0.experts.{j}.b2"][:] = 0.0
        table = build_layer_lut(p, 0)
        assert np.all(table.values == 0.0)

    def test_extents(self):
        p = tiny_mole()
        table = build_layer_lut(p, 1)
        assert table.values.shape == (p.cfg.vocab, p.cfg.N, p.cfg.d)
        assert table.layer_index == 1

    def test_rows_match_single_token_recomputation_bitwise(self):
        p = tiny_mole()
        table = build_layer_lut(p, 0)
        lv = p.layer(0)
        emb = p.tensors["embedding"]
        for token_id in (0, 3, p.cfg.vocab - 1):
            rows = mole_expert_rows(lv, emb[token_id][None, :])  # (N, 1, d)
            for j in range(p.cfg.N):
                assert table.values[token_id, j].tobytes() == rows[j, 0].tobytes()

    def test_chunking_bit_identical(self):
        p = tiny_mole()
        a = build_layer_lut(p, 0, chunk_size=7)
        b = build_layer_lut(p, 0, chunk_size=1024)
        assert a.values.tobytes() == b.values.tobytes()

    def test_rebuild_deterministic(self):
        p = tiny_mole()
        a = build_layer_lut(p, 0)
        b = build_layer_lut(p, 0)
        assert a.values.tobytes() == b.values.tobytes()


class TestReparameterize:
    def test_wrong_variant_rejected(self):
        with pytest.raises(ValueError):
            reparameterize(tiny_dense())

    def test_table_count_is_l(self):
        p = tiny_mole(L=3)
        _, tables = reparameterize(p)
        assert len(tables) == 3

    def test_parameter_count_oracle(self):
        p = tiny_mole()
        cfg = p.cfg
        infer, _ = reparameterize(p)
        # dropped per layer: N expert FFNs (two matrices + two biases) plus
        # the expert-norm gain
        per_layer = cfg.N * (2 * cfg.d * cfg.D_r + cfg.D_r + cfg.d) + cfg.d
        assert p.n_params() - infer.n_params() == per_layer * cfg.L
        # retained set: exactly the inference-form name list
        assert set(infer.tensors) == set(param_names(cfg, inference_form=True))
        for name in infer.tensors:
            assert "experts." not in name and "expert_norm" not in name

    def test_total_lut_entries_match_paper_scale_arithmetic(self):
        # (L=12, d=768, N=4, vocab=50000) -> 1.8e9 entries, by pure arithmetic
        total = 12 * 50000 * 4 * 768
        assert total == 1_843_200_000

    def test_size_independent_of_expert_width(self):
        small = tiny_mole(D_r=8)
        large = tiny_mole(D_r=64)
        _, ts = reparameterize(small)
        _, tl = reparameterize(large)
        assert ts[0].values.shape == tl[0].values.shape
        assert ts[0].values.nbytes == tl[0].values.nbytes


class TestVerifyEquivalence:
    def _setup(self):
        p = tiny_mole()
        infer, tables = reparameterize(p)
        return p, infer, InMemoryLut(tables)

    def test_fresh_tables_pass(self, rng):
        p, infer, lut = self._setup()
        prompts = random_prompts(rng, p.cfg.vocab, 20, p.cfg.max_seq)
        report = verify_equivalence(p, infer, lut, prompts, tolerance=1e-5)
        assert report.passed
        assert report.max_rel_err == 0.0  # fp32 tables are bit-exact

    def test_zero_experts_exact_equality(self, rng):
        p = tiny_mole(L=1)
        for j in range(p.cfg.N):
            for suffix in ("w1", "b1", "w2", "b2"):
                p.tensors[f"layers.0.experts.{j}.{suffix}"][:] = 0.0
        infer, tables = reparameterize(p)
        prompts = random_prompts(rng, p.cfg.vocab, 5, 8)
        report = verify_equivalence(p, infer, InMemoryLut(tables), prompts, 0.0)
        assert report.passed and report.max_rel_err == 0.0

    def test_corrupted_row_fails_and_names_layer(self, rng):
        p, infer, lut = self._setup()
        bad_layer, bad_id, k = 1, 5, 3
        lut.tables[bad_layer].values[bad_id] += 10.0
        # no prompt but prompt k uses the corrupted id
        prompts = [q + (q >= bad_id) for q in
                   random_prompts(rng, p.cfg.vocab - 1, 6, p.cfg.max_seq, min_len=2)]
        prompts[k][1] = bad_id
        report = verify_equivalence(p, infer, lut, prompts, tolerance=1e-5)
        assert not report.passed
        assert report.worst_prompt == k
        assert report.first_bad_layer == bad_layer
        assert [c.rel_err == 0.0 for c in report.checks] == [i != k for i in range(6)]

    def test_rejects_no_prompts_and_bad_lengths(self):
        p, infer, lut = self._setup()
        with pytest.raises(ValueError, match="at least one prompt"):
            verify_equivalence(p, infer, lut, [])
        for bad in (np.array([], dtype=np.int64), np.ones(p.cfg.max_seq + 1, dtype=np.int64)):
            with pytest.raises(ShapeError, match=f"prompt 1 has {bad.size} tokens"):
                verify_equivalence(p, infer, lut, [np.array([1, 2]), bad])

    @pytest.mark.parametrize("kernel", [kernels.TILED, kernels.SEQUENTIAL])
    def test_grouped_verdicts_match_lone_prompts(self, monkeypatch, tmp_path, rng, kernel):
        monkeypatch.setattr(kernels, "_backends", {np.dtype(np.float32): kernel})
        monkeypatch.setattr(reparam, "VERIFY_GROUP_ELEMENTS", 3000)  # ~3 prompts a group
        p, infer, lut = self._setup()
        write_lut(lut.tables, tmp_path / "nf4.lut", dtype="nf4", block_size=16)
        prompts = random_prompts(rng, p.cfg.vocab, 12, p.cfg.max_seq)
        real = reparam.forward_tokens
        calls = []

        def spy(params, lanes, state, lut=None, collect_hidden=None):
            out = real(params, lanes, state, lut=lut, collect_hidden=collect_hidden)
            calls.append((params, list(lanes), lut, out))
            return out

        monkeypatch.setattr(reparam, "forward_tokens", spy)
        with open_lut(tmp_path / "nf4.lut") as nf4:
            report = verify_equivalence(p, infer, nf4, prompts, tolerance=1.0)
            assert 2 < len(calls) < 2 * len(prompts)  # grouped, in several groups
            for params, lanes, src, out in calls:
                bounds = np.cumsum([0] + [len(x) for x in lanes])
                for x, start, stop in zip(lanes, bounds[:-1], bounds[1:]):
                    alone = real(params, [x], init_decode_state(params, 1, len(x)), lut=src)
                    assert out[start:stop].tobytes() == alone.tobytes()
            lone = [verify_equivalence(p, infer, nf4, [x], tolerance=1.0).checks[0].rel_err
                    for x in prompts]
            # a prompt over the budget on its own still runs, alone
            monkeypatch.setattr(reparam, "VERIFY_GROUP_ELEMENTS", 1)
            del calls[:]
            tiny = verify_equivalence(p, infer, nf4, prompts, tolerance=1.0)
            assert len(calls) == 2 * len(prompts)
        assert report.passed and report.max_rel_err > 0.0
        assert [c.rel_err for c in report.checks] == lone
        assert [c.rel_err for c in tiny.checks] == lone
        assert [c.prompt_index for c in report.checks] == list(range(len(prompts)))
        assert verify_equivalence(p, infer, lut, prompts, tolerance=0.0).max_rel_err == 0.0

    def test_group_budget_counts_every_planned_tile(self, monkeypatch):
        """A group's score count is at least what its prefill's tile plan
        scores, also just past a block edge, where the lanes x longest x
        slots grid counts fewer (two 17-row lanes: 2 x 17 x 32 scores per
        head against 6 tiles of 16 x 16)."""
        cfg = tiny_mole(max_seq=48).cfg
        for lengths in ([17, 17], [17, 1], [1, 17, 33], [16, 17, 48]):
            step = pack_lanes(np.zeros(len(lengths), np.int64), np.array(lengths))
            scores = len(step.tiles.block) * cfg.n_heads * KEY_BLOCK * KEY_BLOCK
            assert sum(lengths) * cfg.vocab < scores  # the scores set the count
            monkeypatch.setattr(reparam, "VERIFY_GROUP_ELEMENTS", scores - 1)
            assert len(reparam._prompt_groups(cfg, lengths)) > 1, lengths
            monkeypatch.setattr(reparam, "VERIFY_GROUP_ELEMENTS", scores)
            assert reparam._prompt_groups(cfg, lengths) == [range(len(lengths))], lengths

    def test_equivalence_across_lengths(self, rng):
        p, infer, lut = self._setup()
        for length in (1, 2, 7, p.cfg.max_seq):
            prompt = rng.integers(0, p.cfg.vocab, size=length)
            report = verify_equivalence(p, infer, lut, [prompt], 1e-5)
            assert report.passed, length


class PrefetchOnlyLut:
    """A row source with the fetch contract alone (no ``gather``), plus the
    byte count the decode meter reads."""

    def __init__(self, tables):
        self._inner = InMemoryLut(tables)

    @property
    def bytes_read(self):
        return self._inner.bytes_read

    def prefetch(self, layer, ids):
        return self._inner.prefetch(layer, ids)

    def await_rows(self, ticket):
        return self._inner.await_rows(ticket)


class TestRowSource:
    def test_prefetch_only_source_drives_every_lut_path(self, rng):
        p = tiny_mole()
        infer, tables = reparameterize(p)
        src = PrefetchOnlyLut(tables)
        assert not hasattr(src, "gather")
        ids = rng.integers(0, p.cfg.vocab, size=(2, 7))
        got = forward_tokens(infer, list(ids), init_decode_state(p, *ids.shape), lut=src)
        assert got.tobytes() == model_forward(p, ids).tobytes()

        prompts = random_prompts(rng, p.cfg.vocab, 6, p.cfg.max_seq)
        report = verify_equivalence(p, infer, src, prompts, tolerance=1e-5)
        assert report.passed and report.max_rel_err == 0.0

        lanes, steps = random_prompts(rng, p.cfg.vocab, 3, 6), 4
        before = src.bytes_read
        res = greedy_decode(infer, lanes, steps, runtime="mole-lut", lut=src)
        assert res.tokens == greedy_decode(p, lanes, steps, runtime="mole-train").tokens
        rows = sum(len(x) for x in lanes) + steps * len(lanes)
        assert src.bytes_read - before == res.meter.total_bytes == \
            rows * p.cfg.L * p.cfg.N * p.cfg.d * 4

    def test_in_memory_ticket_is_single_use(self):
        _, tables = reparameterize(tiny_mole())
        lut = InMemoryLut(tables)
        ticket = lut.prefetch(0, np.array([1, 2]))
        assert lut.await_rows(ticket).tobytes() == tables[0].values[[1, 2]].tobytes()
        with pytest.raises(TicketError):
            lut.await_rows(ticket)
