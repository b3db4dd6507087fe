import math

import numpy as np
import pytest

from conftest import tiny_dense, tiny_moe, tiny_mole

from mole import kernels, model
from mole.kernels import ShapeError, rmsnorm, softmax
from mole.model import (
    KEY_BLOCK,
    RMS_EPS,
    attention_forward,
    combine_expert_rows,
    embed,
    ffn_forward,
    forward_lanes,
    greedy_pick,
    init_decode_state,
    model_forward,
    moe_layer_forward,
    mole_expert_rows,
    mole_layer_forward,
    pack_lanes,
    route,
    topk_select,
)


def mole_train_form(lv, x, e):
    """The training-form mole sub-layer: expert FFNs on the embedding rows."""
    return mole_layer_forward(lv, x, lambda: mole_expert_rows(lv, e))


def gate_map(sel, gates):
    """Expert id -> gate for one position of ``route``'s output."""
    return {int(j): float(g) for j, g in zip(sel, gates)}


class TestEmbed:
    def test_repeated_id_identical_rows(self):
        p = tiny_dense()
        out = embed(p, np.array([[4, 4, 4]]))
        assert np.array_equal(out[0, 0], out[0, 1])
        assert np.array_equal(out[0, 0], out[0, 2])

    def test_direct_lookup(self):
        p = tiny_dense()
        out = embed(p, np.array([[0]]))
        assert np.array_equal(out[0, 0], p.tensors["embedding"][0])

    def test_full_vocab_sweep(self):
        p = tiny_dense()
        out = embed(p, np.arange(p.cfg.vocab)[None, :])
        assert np.array_equal(out[0], p.tensors["embedding"])

    def test_out_of_range(self):
        p = tiny_dense()
        with pytest.raises(IndexError):
            embed(p, np.array([[p.cfg.vocab]]))


class TestAttention:
    def test_zero_output_projection_is_residual_identity(self):
        p = tiny_dense()
        p.tensors["layers.0.attn.wo"][:] = 0.0
        p.tensors["layers.0.attn.bo"][:] = 0.0
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, p.cfg.d)).astype(np.float32)
        out = attention_forward(p.layer(0), x, np.arange(5))
        assert np.array_equal(out, x)

    def test_causality(self):
        p = tiny_dense()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 6, p.cfg.d)).astype(np.float32)
        base = attention_forward(p.layer(0), x, np.arange(6))
        x2 = x.copy()
        x2[0, 4] += 1.0  # perturb position 4; outputs at <= 3 must not move
        pert = attention_forward(p.layer(0), x2, np.arange(6))
        assert np.array_equal(base[0, :4], pert[0, :4])
        assert not np.array_equal(base[0, 4:], pert[0, 4:])

    def test_prefill_equals_token_by_token_decode(self):
        p = tiny_dense()
        rng = np.random.default_rng(2)
        t = 7
        x = rng.standard_normal((1, t, p.cfg.d)).astype(np.float32)
        full = attention_forward(p.layer(0), x, np.arange(t))
        state = init_decode_state(p, 1, t)
        rows = [
            attention_forward(p.layer(0), x[:, i : i + 1], np.array([i]),
                              kv=(state.k[0], state.v[0],
                                  pack_lanes(np.array([i]), np.array([1]))))
            for i in range(t)
        ]
        stepped = np.concatenate(rows, axis=1)
        assert np.max(np.abs(stepped - full)) < 1e-6


class TestRoute:
    def _router(self, scores, d=32):
        # rows that reproduce the given scores against a fixed one-hot input
        r = np.zeros((len(scores), d), dtype=np.float32)
        r[:, 0] = scores
        h = np.zeros(d, dtype=np.float32)
        h[0] = 1.0
        return r, h

    def test_mole_equal_scores_uniform_gates(self):
        r, h = self._router([0.3, 0.3, 0.3, 0.3])
        _, sel, gates = route(r, h, "mole", 4)
        assert tuple(sel.tolist()) == (0, 1, 2, 3)
        assert np.allclose(list(gate_map(sel, gates).values()), 0.25, atol=1e-6)

    def test_moe_topk_analytic_pair(self):
        r, h = self._router([0.1, 0.9, 0.5])
        _, sel, gates = route(r, h, "moe", 2)
        assert tuple(sel.tolist()) == (1, 2)
        g = gate_map(sel, gates)
        want1 = 1.0 / (1.0 + math.exp(-0.4))
        assert abs(g[1] - want1) < 1e-6
        assert abs(g[2] - (1.0 - want1)) < 1e-6

    def test_moe_k_equals_n_matches_mole(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal((4, 16)).astype(np.float32)
        h = rng.standard_normal(16).astype(np.float32)
        _, moe_sel, moe_gates = route(r, h, "moe", 4)
        _, mole_sel, mole_gates = route(r, h, "mole", 4)
        assert tuple(moe_sel.tolist()) == tuple(mole_sel.tolist())
        moe, mole = gate_map(moe_sel, moe_gates), gate_map(mole_sel, mole_gates)
        for j in moe:
            assert abs(moe[j] - mole[j]) < 1e-6

    def test_tie_breaks_toward_lower_index(self):
        r, h = self._router([0.5, 0.5, 0.5])
        _, sel, _ = route(r, h, "moe", 2)
        assert tuple(sel.tolist()) == (0, 1)

    def test_gates_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            r = rng.standard_normal((6, 8)).astype(np.float32)
            h = rng.standard_normal(8).astype(np.float32)
            for variant, k in (("moe", 3), ("mole", 6)):
                g = gate_map(*route(r, h, variant, k)[1:])
                assert abs(sum(g.values()) - 1.0) < 1e-6
                assert all(v > 0 for v in g.values())

    def test_leading_axes_match_single_positions(self):
        rng = np.random.default_rng(6)
        r = rng.standard_normal((5, 8)).astype(np.float32)
        h = rng.standard_normal((2, 3, 8)).astype(np.float32)
        for variant, k in (("moe", 2), ("mole", 5)):
            logits, sel, gates = route(r, h, variant, k)
            sel = np.broadcast_to(sel, gates.shape)  # mole selects arange(N) everywhere
            assert logits.shape == (2, 3, 5) and gates.shape == (2, 3, k)
            for b in range(2):
                for t in range(3):
                    one = route(r, h[b, t], variant, k)
                    for got, want in zip((logits, sel, gates), one):
                        assert got[b, t].tobytes() == want.tobytes()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(6).astype(np.float32)
        perm = rng.permutation(6)
        sel = topk_select(scores, 3)
        sel_p = topk_select(scores[perm], 3)
        assert set(perm[sel_p]) == set(sel)


class TestMoeLayer:
    def _dense_eval_oracle(self, layer, x):
        """Evaluate ALL experts, mask to the top-k, mix with softmax gates."""
        cfg = layer.cfg
        hn = rmsnorm(x, layer.norm_gain("post_attn_norm"), RMS_EPS)
        out = x.copy().astype(np.float64)
        b, t, _ = x.shape
        for bi in range(b):
            for ti in range(t):
                scores = np.array([float(hn[bi, ti] @ layer.router[j])
                                   for j in range(cfg.N)])
                order = np.argsort(-scores, kind="stable")[: cfg.k]
                sel = np.sort(order)
                gates = softmax(scores[sel])
                for g, j in zip(gates, sel):
                    w1, b1, w2, b2 = layer.expert(int(j))
                    y = ffn_forward(hn[bi, ti][None, :], w1, b1, w2, b2)[0]
                    out[bi, ti] += g * y.astype(np.float64)
        return out

    def test_single_expert_gate_one(self):
        p = tiny_moe(N=1, k=1)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 3, p.cfg.d)).astype(np.float32)
        lv = p.layer(0)
        got, _ = moe_layer_forward(lv, x)
        hn = rmsnorm(x, lv.norm_gain("post_attn_norm"), RMS_EPS)
        w1, b1, w2, b2 = lv.expert(0)
        want = x + ffn_forward(hn, w1, b1, w2, b2)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_zero_experts_is_identity(self):
        p = tiny_moe()
        for j in range(p.cfg.N):
            p.tensors[f"layers.0.experts.{j}.w2"][:] = 0.0
            p.tensors[f"layers.0.experts.{j}.b2"][:] = 0.0
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, p.cfg.d)).astype(np.float32)
        out, _ = moe_layer_forward(p.layer(0), x)
        assert np.array_equal(out, x)

    def test_matches_dense_evaluation_oracle(self):
        p = tiny_moe()
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, p.cfg.d)).astype(np.float32)
        got, _ = moe_layer_forward(p.layer(0), x)
        want = self._dense_eval_oracle(p.layer(0), x)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_k_equals_n_fully_activated(self):
        p = tiny_moe(N=3, k=3)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 4, p.cfg.d)).astype(np.float32)
        got, _ = moe_layer_forward(p.layer(0), x)
        want = self._dense_eval_oracle(p.layer(0), x)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_returns_the_routed_selection(self):
        p = tiny_moe()
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4, p.cfg.d)).astype(np.float32)
        lv = p.layer(0)
        _, sel = moe_layer_forward(lv, x)
        hn = rmsnorm(x, lv.norm_gain("post_attn_norm"), RMS_EPS)
        _, want, _ = route(lv.router, hn, "moe", p.cfg.k)
        assert sel.shape == (3, 4, p.cfg.k)
        assert np.array_equal(sel, want)


class TestMoleLayer:
    def test_zero_routed_experts_leaves_shared_path(self):
        p = tiny_mole()
        for j in range(p.cfg.N):
            p.tensors[f"layers.0.experts.{j}.w2"][:] = 0.0
            p.tensors[f"layers.0.experts.{j}.b2"][:] = 0.0
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 3, p.cfg.d)).astype(np.float32)
        e = rng.standard_normal((1, 3, p.cfg.d)).astype(np.float32)
        lv = p.layer(0)
        got = mole_train_form(lv, x, e)
        hn = rmsnorm(x, lv.norm_gain("post_attn_norm"), RMS_EPS)
        want = x + ffn_forward(hn, lv.shared_w1, lv.shared_b1, lv.shared_w2, lv.shared_b2)
        assert np.max(np.abs(got - want)) < 1e-7

    def test_single_expert_ignores_router(self):
        p = tiny_mole(N=1)
        p.tensors["layers.0.router"][:] = 123.0  # any router: softmax of one score is 1
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 2, p.cfg.d)).astype(np.float32)
        e = rng.standard_normal((1, 2, p.cfg.d)).astype(np.float32)
        lv = p.layer(0)
        got = mole_train_form(lv, x, e)
        rows = mole_expert_rows(lv, e)
        hn = rmsnorm(x, lv.norm_gain("post_attn_norm"), RMS_EPS)
        shared = ffn_forward(hn, lv.shared_w1, lv.shared_b1, lv.shared_w2, lv.shared_b2)
        assert np.max(np.abs(got - (x + shared + rows[0]))) < 1e-7

    def test_matches_direct_recomputation(self):
        p = tiny_mole()
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, 3, p.cfg.d)).astype(np.float32)
        e = rng.standard_normal((1, 3, p.cfg.d)).astype(np.float32)
        lv = p.layer(0)
        got = mole_train_form(lv, x, e)
        # independent: per position, per expert, double precision mixing
        hn = rmsnorm(x, lv.norm_gain("post_attn_norm"), RMS_EPS)
        en = rmsnorm(e, lv.norm_gain("expert_norm"), RMS_EPS)
        shared = ffn_forward(hn, lv.shared_w1, lv.shared_b1, lv.shared_w2, lv.shared_b2)
        want = (x + shared).astype(np.float64)
        for t in range(3):
            scores = np.array([float(hn[0, t] @ lv.router[j]) for j in range(p.cfg.N)])
            gates = softmax(scores)
            for j in range(p.cfg.N):
                w1, b1, w2, b2 = lv.expert(j)
                y = ffn_forward(en[0, t][None, :], w1, b1, w2, b2)[0]
                want[0, t] += gates[j] * y.astype(np.float64)
        assert np.max(np.abs(got - want)) < 1e-5

    def test_infer_form_bit_identical_given_train_rows(self):
        p = tiny_mole()
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 3, p.cfg.d)).astype(np.float32)
        e = rng.standard_normal((1, 3, p.cfg.d)).astype(np.float32)
        lv = p.layer(0)
        rows = mole_expert_rows(lv, e)
        train_out = mole_train_form(lv, x, e)
        infer_out = mole_layer_forward(lv, x, rows)
        assert train_out.tobytes() == infer_out.tobytes()

    def test_two_equal_experts_average_rows(self):
        p = tiny_mole(N=2)
        p.tensors["layers.0.router"][:] = 0.0  # equal scores for both experts
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 1, p.cfg.d)).astype(np.float32)
        r1 = rng.standard_normal((1, 1, p.cfg.d)).astype(np.float32)
        r2 = rng.standard_normal((1, 1, p.cfg.d)).astype(np.float32)
        rows = np.stack([r1, r2])
        lv = p.layer(0)
        got = mole_layer_forward(lv, x, rows)
        hn = rmsnorm(x, lv.norm_gain("post_attn_norm"), RMS_EPS)
        shared = ffn_forward(hn, lv.shared_w1, lv.shared_b1, lv.shared_w2, lv.shared_b2)
        want = x + shared + (r1 + r2) / 2.0
        assert np.max(np.abs(got - want)) < 1e-6

    def test_routed_term_depends_only_on_gates_and_rows(self):
        # direct construction: identical (gates, rows) from different contexts
        rng = np.random.default_rng(15)
        gates = softmax(rng.standard_normal((1, 1, 4)).astype(np.float32))
        rows = rng.standard_normal((4, 1, 1, 16)).astype(np.float32)
        a = combine_expert_rows(gates, rows)
        b = combine_expert_rows(gates.copy(), rows.copy())
        assert a.tobytes() == b.tobytes()


class TestModelForward:
    def test_dense_forms_identical(self):
        p = tiny_dense()
        ids = np.array([[1, 2, 3]])
        a = model_forward(p, ids, form="train_form")
        b = model_forward(p, ids, form="lut_form")
        assert np.array_equal(a, b)

    def test_single_token_shape(self):
        p = tiny_mole()
        logits = model_forward(p, np.array([5]))
        assert logits.shape == (1, 1, p.cfg.vocab)

    def test_logit_causality(self):
        p = tiny_mole()
        ids = np.array([[3, 1, 4, 1, 5]])
        base = model_forward(p, ids)
        ids2 = ids.copy()
        ids2[0, 3] = 9
        pert = model_forward(p, ids2)
        assert np.array_equal(base[0, :3], pert[0, :3])

    def test_prefill_decode_equivalence_full_model(self):
        for p in (tiny_dense(), tiny_moe(), tiny_mole()):
            ids = np.array([2, 7, 1, 8, 2, 8])
            full = model_forward(p, ids)[0]
            state = init_decode_state(p, 1, len(ids))
            rows = [forward_lanes(p, [[tok]], state) for tok in ids]
            stepped = np.concatenate(rows, axis=0)
            assert np.max(np.abs(stepped - full)) < 1e-6, p.cfg.variant

    def test_forward_lanes_checks_lanes_and_capacity(self):
        p = tiny_dense()
        state = init_decode_state(p, 2, 4)
        with pytest.raises(ShapeError, match="3 lanes of tokens for a state of 2"):
            forward_lanes(p, [[1], [2], [3]], state)
        forward_lanes(p, [[1, 2, 3], [4]], state)
        with pytest.raises(ShapeError, match="capacity"):
            forward_lanes(p, [[5, 6], [7]], state)  # lane 0 would need 5 rows
        assert state.lengths.tolist() == [3, 1]  # a rejected step moves nothing

    @pytest.mark.parametrize("kernel", [kernels.TILED, kernels.SEQUENTIAL])
    def test_lane_in_larger_arena_matches_lone_run(self, monkeypatch, kernel):
        """A short lane decoded between longer lanes, in an arena of three key
        blocks, gets the bits of its lone run in a one-block arena."""
        monkeypatch.setattr(kernels, "_backends", {np.dtype(np.float32): kernel})
        p = tiny_mole(max_seq=48)
        rng = np.random.default_rng(7)
        prompts = [rng.integers(0, p.cfg.vocab, size=n) for n in (20, 3, 37)]
        lone, packed = init_decode_state(p, 1, 8), init_decode_state(p, 3, 44)
        assert (lone.k[0].shape[2], packed.k[0].shape[2]) == (KEY_BLOCK, 3 * KEY_BLOCK)
        lone_ids, packed_ids = [prompts[1]], prompts
        for i in range(4):
            alone = forward_lanes(p, lone_ids, lone)
            together = forward_lanes(p, packed_ids, packed)
            ends = np.cumsum([len(t) for t in packed_ids])
            assert together[ends[0]:ends[1]].tobytes() == alone.tobytes()
            if i == 0:  # the multi-block core against the full-sequence one
                full = model_forward(p, prompts[2])[0]
                assert np.max(np.abs(together[ends[1]:] - full)) < 1e-6
            lone_ids = [[greedy_pick(alone[-1])]]
            packed_ids = [[greedy_pick(together[e - 1])] for e in ends]
            assert packed_ids[1] == lone_ids[0]
        n = int(lone.lengths[0])
        for big, small in zip(packed.k + packed.v, lone.k + lone.v):
            assert big[1, :, :n].tobytes() == small[0, :, :n].tobytes()
            assert not big[1, :, n:].any()

    @pytest.mark.parametrize("lengths, counts", [([0], [1]), ([4], [9]),
                                                 ([3, 0, 17, 30], [1, 5, 1, 2])])
    def test_decode_core_is_two_matmul_calls(self, monkeypatch, lengths, counts):
        calls = []
        real = model.matmul
        monkeypatch.setattr(model, "matmul", lambda a, b: calls.append(1) or real(a, b))
        rng = np.random.default_rng(3)
        h, dh, rows = 4, 8, sum(counts)
        q, k, v = (rng.standard_normal((1, h, rows, dh)).astype(np.float32) for _ in range(3))
        keys = np.zeros((len(lengths), h, 3 * KEY_BLOCK, dh), np.float32)
        vals = np.zeros_like(keys)
        step = pack_lanes(np.array(lengths), np.array(counts))
        ctx = model._attend_lanes(q, k, v, keys, vals, step, np.float32(dh ** -0.5))
        assert ctx.shape == (1, rows, h * dh) and np.isfinite(ctx).all()
        assert len(calls) == 2

    def test_attention_arena_must_hold_whole_key_blocks(self):
        p = tiny_dense()
        keys = np.zeros((1, p.cfg.n_heads, 7, p.cfg.d_head), np.float32)
        x = np.zeros((1, 1, p.cfg.d), np.float32)
        with pytest.raises(ShapeError, match="multiple of 16"):
            attention_forward(p.layer(0), x, np.array([0]),
                              kv=(keys, keys.copy(), pack_lanes(np.array([0]), np.array([1]))))

    def test_mole_lut_form_requires_handle(self):
        p = tiny_mole()
        with pytest.raises(ValueError):
            model_forward(p, np.array([[1]]), form="lut_form")
