import math

import numpy as np
import pytest

from conftest import tiny_dense, tiny_moe, tiny_mole

from mole import kernels, model
from mole.kernels import ShapeError, matmul, rmsnorm, rotary_tables, softmax
from mole.lut_store import open_lut, write_lut
from mole.model import (
    KEY_BLOCK,
    RMS_EPS,
    attention_forward,
    combine_expert_rows,
    embed,
    ffn_forward,
    forward_lanes,
    forward_tokens,
    greedy_pick,
    init_decode_state,
    key_rows,
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
    return mole_layer_forward(lv, x, lambda: mole_expert_rows(lv, e), lv.router.T)


def attend(p, x, state=None, i=0):
    """``attention_forward`` of layer ``i`` over ``x`` (B, T, d): T new rows
    for each lane of ``state`` (a fresh ``DecodeState`` by default), after
    its cached ones. The lengths do not advance."""
    b, t, _ = x.shape
    state = init_decode_state(p, b, t) if state is None else state
    step = pack_lanes(state.lengths, np.full(b, t))
    rotary = rotary_tables(step.pos.reshape(b, t), p.cfg.d_head, p.cfg.rotary_fraction,
                           x.dtype)
    return attention_forward(p.layer(i), x, rotary, (state.k[i], state.v[i], step))


def lane_logits(p, ids, lut=None):
    """``forward_tokens`` over the rows of ``ids`` (B, T) as B lanes of a
    fresh ``DecodeState``, with table rows from ``lut`` when it is given, as
    (B, T, vocab)."""
    ids = np.atleast_2d(ids)
    state = init_decode_state(p, *ids.shape)
    return forward_tokens(p, list(ids), state, lut=lut).reshape(ids.shape + (-1,))


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
        out = attend(p, x)
        assert np.array_equal(out, x)

    def test_causality(self):
        p = tiny_dense()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 6, p.cfg.d)).astype(np.float32)
        base = attend(p, x)
        x2 = x.copy()
        x2[0, 4] += 1.0  # perturb position 4; outputs at <= 3 must not move
        pert = attend(p, x2)
        assert np.array_equal(base[0, :4], pert[0, :4])
        assert not np.array_equal(base[0, 4:], pert[0, 4:])

    def test_prefill_equals_token_by_token_decode(self):
        p = tiny_dense()
        rng = np.random.default_rng(2)
        t = 7
        x = rng.standard_normal((1, t, p.cfg.d)).astype(np.float32)
        full = attend(p, x)
        state = init_decode_state(p, 1, t)
        rows = []
        for i in range(t):
            rows.append(attend(p, x[:, i : i + 1], state))
            state.lengths += 1
        stepped = np.concatenate(rows, axis=1)
        assert stepped.tobytes() == full.tobytes()


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
        _, sel, gates = route(r.T, h, "mole", 4)
        assert tuple(sel.tolist()) == (0, 1, 2, 3)
        assert np.allclose(list(gate_map(sel, gates).values()), 0.25, atol=1e-6)

    def test_moe_topk_analytic_pair(self):
        r, h = self._router([0.1, 0.9, 0.5])
        _, sel, gates = route(r.T, h, "moe", 2)
        assert tuple(sel.tolist()) == (1, 2)
        g = gate_map(sel, gates)
        want1 = 1.0 / (1.0 + math.exp(-0.4))
        assert abs(g[1] - want1) < 1e-6
        assert abs(g[2] - (1.0 - want1)) < 1e-6

    def test_moe_k_equals_n_matches_mole(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal((4, 16)).astype(np.float32)
        h = rng.standard_normal(16).astype(np.float32)
        _, moe_sel, moe_gates = route(r.T, h, "moe", 4)
        _, mole_sel, mole_gates = route(r.T, h, "mole", 4)
        assert tuple(moe_sel.tolist()) == tuple(mole_sel.tolist())
        moe, mole = gate_map(moe_sel, moe_gates), gate_map(mole_sel, mole_gates)
        for j in moe:
            assert abs(moe[j] - mole[j]) < 1e-6

    def test_tie_breaks_toward_lower_index(self):
        r, h = self._router([0.5, 0.5, 0.5])
        _, sel, _ = route(r.T, h, "moe", 2)
        assert tuple(sel.tolist()) == (0, 1)

    def test_gates_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            r = rng.standard_normal((6, 8)).astype(np.float32)
            h = rng.standard_normal(8).astype(np.float32)
            for variant, k in (("moe", 3), ("mole", 6)):
                g = gate_map(*route(r.T, h, variant, k)[1:])
                assert abs(sum(g.values()) - 1.0) < 1e-6
                assert all(v > 0 for v in g.values())

    def test_leading_axes_match_single_positions(self):
        rng = np.random.default_rng(6)
        r = rng.standard_normal((5, 8)).astype(np.float32)
        h = rng.standard_normal((2, 3, 8)).astype(np.float32)
        for variant, k in (("moe", 2), ("mole", 5)):
            logits, sel, gates = route(r.T, h, variant, k)
            sel = np.broadcast_to(sel, gates.shape)  # mole selects arange(N) everywhere
            assert logits.shape == (2, 3, 5) and gates.shape == (2, 3, k)
            for b in range(2):
                for t in range(3):
                    one = route(r.T, h[b, t], variant, k)
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
        hn = rmsnorm(x, layer.post_attn_norm, RMS_EPS)
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
                    w1, b1, w2, b2 = layer.experts[int(j)]
                    y = ffn_forward(hn[bi, ti][None, :], w1, b1, w2, b2)[0]
                    out[bi, ti] += g * y.astype(np.float64)
        return out

    def test_single_expert_gate_one(self):
        p = tiny_moe(N=1, k=1)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 3, p.cfg.d)).astype(np.float32)
        lv = p.layer(0)
        got, _ = moe_layer_forward(lv, x, lv.router.T)
        hn = rmsnorm(x, lv.post_attn_norm, RMS_EPS)
        w1, b1, w2, b2 = lv.experts[0]
        want = x + ffn_forward(hn, w1, b1, w2, b2)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_zero_experts_is_identity(self):
        p = tiny_moe()
        for j in range(p.cfg.N):
            p.tensors[f"layers.0.experts.{j}.w2"][:] = 0.0
            p.tensors[f"layers.0.experts.{j}.b2"][:] = 0.0
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, p.cfg.d)).astype(np.float32)
        out, _ = moe_layer_forward(p.layer(0), x, p.layer(0).router.T)
        assert np.array_equal(out, x)

    def test_matches_dense_evaluation_oracle(self):
        p = tiny_moe()
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, p.cfg.d)).astype(np.float32)
        got, _ = moe_layer_forward(p.layer(0), x, p.layer(0).router.T)
        want = self._dense_eval_oracle(p.layer(0), x)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_k_equals_n_fully_activated(self):
        p = tiny_moe(N=3, k=3)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 4, p.cfg.d)).astype(np.float32)
        got, _ = moe_layer_forward(p.layer(0), x, p.layer(0).router.T)
        want = self._dense_eval_oracle(p.layer(0), x)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_returns_the_routed_selection(self):
        p = tiny_moe()
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4, p.cfg.d)).astype(np.float32)
        lv = p.layer(0)
        _, sel = moe_layer_forward(lv, x, lv.router.T)
        hn = rmsnorm(x, lv.post_attn_norm, RMS_EPS)
        _, want, _ = route(lv.router.T, hn, "moe", p.cfg.k)
        assert sel.shape == (3, 4, p.cfg.k)
        assert np.array_equal(sel, want)


def moe_layer_by_expert(layer, x, router):
    """The expert-by-expert form of ``moe_layer_forward``, the reference for
    its grouped form: one ``np.nonzero`` per present expert, that expert's
    rows gathered and run on their own, one ``gelu`` over every expert's
    hidden rows, and each expert's gated outputs added to its rows, experts
    ascending. Returns (out, sel, per-expert caches)."""
    cfg = layer.cfg
    hn = rmsnorm(x, layer.post_attn_norm, RMS_EPS)
    _, sel, gates = route(router, hn, "moe", cfg.k)
    out = x.copy()
    expert_caches = [{} for _ in range(cfg.N)]
    present = np.flatnonzero(np.bincount(sel.ravel(), minlength=cfg.N)).tolist()
    picks = [np.nonzero(sel == j) for j in present]  # (lane, tok, slot) per expert
    experts = [layer.experts[j] for j in present]
    inps = [hn[lane, tok] for lane, tok, _ in picks]
    pres = [matmul(inp, w1) + b1 for inp, (w1, b1, _, _) in zip(inps, experts)]
    acts = kernels.gelu(np.concatenate(pres))
    start = 0
    for j, (lane, tok, slot), (_, _, w2, b2), inp, pre in zip(present, picks, experts, inps,
                                                            pres):
        act = acts[start:start + len(pre)]
        start += len(pre)
        y = matmul(act, w2) + b2
        out[lane, tok] += gates[lane, tok, slot][:, None] * y
        expert_caches[j].update(lane=lane, tok=tok, slot=slot, inp=inp, pre=pre, act=act, y=y)
    return out, sel, expert_caches


class TestMoeLayerGrouping:
    """``moe_layer_forward`` groups the (row, slot) pairs by expert with one
    sort; its bits and its backprop cache are the expert-by-expert form's."""

    @pytest.mark.parametrize("kernel", [kernels.TILED, kernels.SEQUENTIAL])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (1, 33), (3, 5)])
    @pytest.mark.parametrize("tie", [False, True], ids=["scores", "tie"])
    def test_matches_expert_by_expert_reference(self, monkeypatch, kernel, shape, tie):
        monkeypatch.setattr(kernels, "_backends", {np.dtype(np.float32): kernel})
        p = tiny_moe(N=5, k=2)
        lv = p.layer(0)
        if tie:
            # equal router rows: experts 1 and 3 always score the same, so a
            # row picks both, or expert 1 (the lower index) if one fits
            p.tensors["layers.0.router"][3] = p.tensors["layers.0.router"][1]
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape + (p.cfg.d,)).astype(np.float32)
        cache: dict = {}
        got, sel = moe_layer_forward(lv, x, lv.router.T, cache=cache)
        want, want_sel, want_caches = moe_layer_by_expert(lv, x, lv.router.T)
        assert got.tobytes() == want.tobytes()
        assert sel.dtype == want_sel.dtype and sel.tobytes() == want_sel.tobytes()
        if tie:
            scores = rmsnorm(x, lv.post_attn_norm, RMS_EPS) @ lv.router.T
            assert np.array_equal(scores[..., 1], scores[..., 3])
        assert len(cache["experts"]) == p.cfg.N
        for ec, want_ec in zip(cache["experts"], want_caches):
            assert ec.keys() == want_ec.keys()
            for name, value in want_ec.items():
                assert ec[name].dtype == value.dtype, name
                assert ec[name].shape == value.shape, name
                assert ec[name].tobytes() == value.tobytes(), name


class TestRouterOperand:
    """A ``DecodeState`` copies each router once, at its first forward."""

    @pytest.mark.parametrize("make", [tiny_moe, tiny_mole])
    def test_router_scaled_in_place_reaches_the_next_forward(self, make):
        p = make()
        ids = np.array([[3, 1, 4, 1, 5], [9, 2, 6, 5, 3]])
        before = model_forward(p, ids)
        p.tensors["layers.1.router"] *= 3.0  # in place, as adam_step updates it
        got = model_forward(p, ids)
        assert got.tobytes() != before.tobytes()
        assert got.tobytes() == model_forward(p.copy(), ids).tobytes()

    def test_state_holds_row_major_router_operands(self):
        p = tiny_moe()
        state = init_decode_state(p, 1, 4)
        assert state.routers == []
        forward_tokens(p, [np.array([1, 2])], state)
        copies = state.routers
        assert len(copies) == p.cfg.L
        for i, r in enumerate(copies):
            assert r.flags.c_contiguous and np.array_equal(r, p.layer(i).router.T)
        forward_tokens(p, [np.array([3])], state)
        assert all(a is b for a, b in zip(state.routers, copies))


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
        hn = rmsnorm(x, lv.post_attn_norm, RMS_EPS)
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
        hn = rmsnorm(x, lv.post_attn_norm, RMS_EPS)
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
        hn = rmsnorm(x, lv.post_attn_norm, RMS_EPS)
        en = rmsnorm(e, lv.expert_norm, RMS_EPS)
        shared = ffn_forward(hn, lv.shared_w1, lv.shared_b1, lv.shared_w2, lv.shared_b2)
        want = (x + shared).astype(np.float64)
        for t in range(3):
            scores = np.array([float(hn[0, t] @ lv.router[j]) for j in range(p.cfg.N)])
            gates = softmax(scores)
            for j in range(p.cfg.N):
                w1, b1, w2, b2 = lv.experts[j]
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
        infer_out = mole_layer_forward(lv, x, rows, lv.router.T)
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
        got = mole_layer_forward(lv, x, rows, lv.router.T)
        hn = rmsnorm(x, lv.post_attn_norm, RMS_EPS)
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
    @pytest.mark.parametrize("make", [tiny_dense, tiny_moe])
    def test_dense_and_moe_ignore_a_row_source(self, make):
        """A row source only serves mole table rows: dense and moe never
        touch it (an ``object()`` has no ``prefetch``) and keep their bits."""
        p = make()
        ids = np.array([[1, 2, 3]])
        assert lane_logits(p, ids, lut=object()).tobytes() == lane_logits(p, ids).tobytes()

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

    @pytest.mark.parametrize("kernel", [kernels.TILED, kernels.SEQUENTIAL])
    @pytest.mark.parametrize("ids, prompts", [
        ([[2, 7, 1, 8, 2, 8]], None),
        ([[2, 7, 1, 8, 2, 8], [3, 1, 4, 1, 5, 9]], None),
        (np.random.default_rng(40).integers(0, 61, (2, 40)), None),
        (np.random.default_rng(41).integers(0, 61, (1, 20)), [13]),
        (np.random.default_rng(42).integers(0, 61, (32, 40)), np.arange(3, 35))],
        ids=["one_sequence", "batch_of_two", "two_of_40", "one_lane_after_prompt",
             "32_ragged_lanes"])
    def test_prefill_decode_equivalence_full_model(self, monkeypatch, kernel, ids, prompts):
        """Training, prefill and token-by-token decode run one attention
        core: the bits agree, for each sequence of a batch too. Training and
        prefill score a tile plan (6-row plans for one and two sequences of
        6 tokens) and decode steps the one-row grid, so every case checks
        both plans. With ``prompts``, lane b first prefills its first ``prompts[b]``
        tokens, then all lanes step one row each, at ragged positions that
        cross key-block boundaries (13..19 for the one lane, 3..39 for the
        32 lanes)."""
        monkeypatch.setattr(kernels, "_backends", {np.dtype(np.float32): kernel})
        ids = np.array(ids)
        max_seq = 48 if ids.shape[1] > KEY_BLOCK else 16
        for p in (tiny_dense(max_seq=max_seq), tiny_moe(max_seq=max_seq),
                  tiny_mole(max_seq=max_seq)):
            full = model_forward(p, ids)
            assert full.tobytes() == lane_logits(p, ids).tobytes(), p.cfg.variant
            state = init_decode_state(p, len(ids), ids.shape[1])
            ones = np.ones(len(ids), dtype=np.int64)
            if prompts is None:
                rows = [forward_lanes(p, col, ones, state) for col in ids.T]
                stepped = np.stack(rows, axis=1)
                assert stepped.tobytes() == full.tobytes(), p.cfg.variant
                continue
            first = forward_tokens(p, [row[:n] for row, n in zip(ids, prompts)], state)
            steps = ids.shape[1] - max(prompts)
            rows = [forward_lanes(p, ids[np.arange(len(ids)), np.add(prompts, s)], ones, state)
                    for s in range(steps)]
            ends = np.cumsum(prompts)
            for b, n in enumerate(prompts):
                assert first[ends[b] - n : ends[b]].tobytes() == full[b, :n].tobytes()
                stepped = np.stack([r[b] for r in rows])
                assert stepped.tobytes() == full[b, n : n + steps].tobytes(), (p.cfg.variant, b)

    def test_forward_lanes_checks_lanes_and_capacity(self):
        p = tiny_dense()
        state = init_decode_state(p, 2, 4)
        with pytest.raises(ShapeError, match="3 lanes of tokens for a state of 2"):
            forward_lanes(p, np.array([1, 2, 3]), np.array([1, 1, 1]), state)
        with pytest.raises(ShapeError, match="3 lanes of tokens for a state of 2"):
            forward_tokens(p, [[1], [2], [3]], state)
        with pytest.raises(ShapeError, match=r"ids of shape \(3,\) for 4 packed new tokens"):
            forward_lanes(p, np.array([1, 2, 3]), np.array([3, 1]), state)
        forward_lanes(p, np.array([1, 2, 3, 4]), np.array([3, 1]), state)
        with pytest.raises(ShapeError, match="capacity"):
            forward_lanes(p, np.array([5, 6, 7]), np.array([2, 1]), state)  # lane 0: 5 rows
        with pytest.raises(ShapeError, match="capacity"):
            forward_tokens(p, [[5, 6], [7]], state)
        assert state.lengths.tolist() == [3, 1]  # a rejected step moves nothing

    def test_forward_lanes_rejects_lane_without_tokens(self):
        p = tiny_dense()
        state = init_decode_state(p, 3, 4)
        for ids, lane in (([[], [4], [5]], 0), ([[1], [2], np.array([], np.int64)], 2)):
            with pytest.raises(ShapeError, match=f"lane {lane} has no new tokens"):
                forward_tokens(p, ids, state)
            counts = np.array([len(t) for t in ids])
            with pytest.raises(ShapeError, match=f"lane {lane} has no new tokens"):
                forward_lanes(p, np.array([4, 5]), counts, state)
        with pytest.raises(ShapeError, match="lane 1 has no new tokens"):
            forward_lanes(p, np.array([4, 5]), np.array([2, -1, 1]), state)
        assert state.lengths.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("kernel", [kernels.TILED, kernels.SEQUENTIAL])
    def test_lane_in_larger_arena_matches_lone_run(self, monkeypatch, kernel):
        """A short lane decoded between longer lanes, in an arena of three key
        blocks, gets the bits of its lone run in a one-block arena."""
        monkeypatch.setattr(kernels, "_backends", {np.dtype(np.float32): kernel})
        p = tiny_mole(max_seq=48)
        rng = np.random.default_rng(7)
        prompts = [rng.integers(0, p.cfg.vocab, size=n) for n in (20, 3, 37)]
        lone, packed = init_decode_state(p, 1, 8), init_decode_state(p, 3, 44)
        assert (lone.v[0].shape[2], packed.v[0].shape[2]) == (KEY_BLOCK, 3 * KEY_BLOCK)
        assert (lone.k[0].shape[2:], packed.k[0].shape[2:]) == (
            (1, p.cfg.d_head, KEY_BLOCK), (3, p.cfg.d_head, KEY_BLOCK))
        lone_ids, packed_ids = [prompts[1]], prompts
        for i in range(4):
            alone = forward_tokens(p, lone_ids, lone)
            together = forward_tokens(p, packed_ids, packed)
            ends = np.cumsum([len(t) for t in packed_ids])
            assert together[ends[0]:ends[1]].tobytes() == alone.tobytes()
            if i == 0:  # the multi-block arena against the training-form forward
                full = model_forward(p, prompts[2])[0]
                assert together[ends[1]:].tobytes() == full.tobytes()
            lone_ids = [[greedy_pick(alone[-1])]]
            packed_ids = [[tok] for tok in greedy_pick(together[ends - 1])]
            assert packed_ids[1] == lone_ids[0]
        n = int(lone.lengths[0])
        arenas = lambda state: [key_rows(k) for k in state.k] + state.v  # noqa: E731
        for big, small in zip(arenas(packed), arenas(lone)):
            assert big[1, :, :n].tobytes() == small[0, :, :n].tobytes()
            assert not big[1, :, n:].any()

        # A continuing prefill of 20 rows after 10 cached, beside a fresh
        # 33-row one: query chunks start off a block boundary, and each lane
        # gets the bits of its lone run.
        seqs = [rng.integers(0, p.cfg.vocab, size=n) for n in (30, 33)]
        pair, first = init_decode_state(p, 2, 48), init_decode_state(p, 1, 48)
        forward_tokens(p, [seqs[0][:10]], first)
        for big, small in zip(pair.k + pair.v, first.k + first.v):
            big[0] = small[0]
        pair.lengths[0] = 10
        assert pack_lanes(pair.lengths, np.array([20, 33])).tiles is not None
        together = forward_lanes(p, np.concatenate([seqs[0][10:], seqs[1]]), np.array([20, 33]),
                                 pair)
        alone = [forward_tokens(p, [seqs[0][10:]], first), model_forward(p, seqs[1])[0]]
        assert together[:20].tobytes() == alone[0].tobytes()
        assert together[:20].tobytes() == model_forward(p, seqs[0])[0, 10:].tobytes()
        assert together[20:].tobytes() == alone[1].tobytes()

    @pytest.mark.parametrize("lengths, counts", [([0], [1]), ([4], [9]),
                                                 ([3, 0, 17, 30], [1, 5, 1, 2]),
                                                 ([0, 5, 2], [20, 3, 30])])
    def test_decode_core_is_two_matmul_calls(self, monkeypatch, lengths, counts):
        """Both plans make two ``matmul`` calls, on operands already row-major:
        the transposed key blocks are read in place, so no operand is copied."""
        calls = []
        real = model.matmul

        def spy(a, b):
            calls.append(kernels._row_major(a) is a and kernels._row_major(b) is b)
            return real(a, b)

        monkeypatch.setattr(model, "matmul", spy)
        rng = np.random.default_rng(3)
        h, dh, rows = 4, 8, sum(counts)
        q, k, v = (rng.standard_normal((1, rows, h, dh)).astype(np.float32) for _ in range(3))
        keys = np.zeros((len(lengths), h, 3, dh, KEY_BLOCK), np.float32)
        vals = np.zeros((len(lengths), h, 3 * KEY_BLOCK, dh), np.float32)
        step = pack_lanes(np.array(lengths), np.array(counts))
        ctx = model._attend_lanes(q, k, v, keys, vals, step, np.float32(dh ** -0.5))
        assert ctx.shape == (1, rows, h * dh) and np.isfinite(ctx).all()
        assert len(calls) == 2
        assert all(calls)
        # every new key landed at its position, read back one row per position
        written = key_rows(keys)[step.lane, :, step.pos]
        assert written.tobytes() == k.reshape(-1, h, dh).tobytes()

    def test_pack_lanes_scores_only_visible_key_blocks(self):
        """A step with more than one row in some lane, however few, lists
        each (lane, query chunk)'s key blocks up to its last position; only
        a step of one row per lane keeps the lanes x blocks grid."""
        verify = np.linspace(1, 64, 16).round().astype(int)
        for lengths, counts, planned, dense in (
                (np.zeros(16, int), verify, 80, 256),  # verify's 16 prompts of 1..64
                (np.zeros(8, int), np.full(8, 48), 48, 72),  # a training batch of 8 x 48
                (np.array([10, 0]), np.array([20, 33]), 10, 18),
                (np.zeros(4, int), np.full(4, 16), 4, 4),  # 2-16 rows per lane: plans too
                (np.array([0, 7]), np.array([16, 2]), 2, 2),
                (np.array([3, 30]), np.array([5, 4]), 4, 6)):  # a short step across a block
            step = pack_lanes(lengths, counts)
            tiles = step.tiles
            assert step.hidden is None and len(tiles.block) == planned
            assert len(counts) * tiles.chunks * step.blocks == dense
            assert sum(tiles.width) == planned and list(tiles.width) == sorted(tiles.width)[::-1]
            for lane in range(len(counts)):  # each chunk's blocks are 0 .. its last position's
                for chunk in range(-(-counts[lane] // KEY_BLOCK)):
                    last = lengths[lane] + min((chunk + 1) * KEY_BLOCK, counts[lane]) - 1
                    mine = (tiles.lane == lane) & (tiles.chunk == chunk)
                    assert sorted(tiles.block[mine]) == list(range(last // KEY_BLOCK + 1))
            groups = tiles.width[0]  # block 0's tiles list every group once, in order
            assert (tiles.lane[:groups][tiles.row_group] == step.lane).all()
            assert (tiles.chunk[:groups][tiles.row_group] == step.row // KEY_BLOCK).all()
            assert (tiles.row_slot == step.row % KEY_BLOCK).all()
        step = pack_lanes(np.array([3, 40]), np.array([1, 1]))
        assert step.tiles is None and step.blocks == 3
        assert step.hidden.shape == (2, 1, 3, 1, KEY_BLOCK)

    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_score_max_folds_prefix_groups(self, n, blocks):
        """Under a tile plan block b scores groups 0 .. width[b] - 1: each
        group's max covers exactly the blocks it has, with the bytes of
        ``np.max``, on the ``-inf``-masked scores of a real plan of n rows
        per lane reaching ``blocks`` key blocks, both on the leading columns
        of wider tiles (a strided view) and on a packed copy."""
        rng = np.random.default_rng(10 * n + blocks)
        last = blocks * KEY_BLOCK - n
        lengths = np.array([0, last, last // 2, max(last - KEY_BLOCK, 0)])
        step = pack_lanes(lengths, np.full(len(lengths), n))
        tiles = step.tiles
        assert step.blocks == blocks
        wide = rng.standard_normal((len(tiles.block), 4, KEY_BLOCK, 2 * KEY_BLOCK))
        view = wide.astype(np.float32)[..., :KEY_BLOCK]
        np.copyto(view, np.float32(-np.inf), where=tiles.hidden)
        ends = np.cumsum(tiles.width)
        for e in (view, view.copy()):
            got = model._score_max(e[end - w : end] for end, w in zip(ends, tiles.width))
            assert got.shape == (tiles.width[0], 4, KEY_BLOCK, 1)
            for g in range(tiles.width[0]):
                want = e[tiles.group == g].max(axis=(0, 3), keepdims=True)[0]
                assert got[g].tobytes() == want.tobytes()

    def test_attention_arena_must_hold_whole_key_blocks(self):
        p = tiny_dense()
        h, dh = p.cfg.n_heads, p.cfg.d_head
        x = np.zeros((1, 1, p.cfg.d), np.float32)
        state = init_decode_state(p, 1, 1)
        state.k[0] = np.zeros((1, h, 1, dh, 7), np.float32)  # key blocks of 7 slots
        with pytest.raises(ShapeError, match="1 key blocks of 7 slots .* whole blocks of 16"):
            attend(p, x, state)
        state = init_decode_state(p, 1, 1)
        state.v[0] = np.zeros((1, h, 7, dh), np.float32)  # 7 value slots for one key block
        with pytest.raises(ShapeError, match="7 value slots .* whole blocks of 16"):
            attend(p, x, state)

    def test_inference_params_without_a_source_raise(self):
        from mole.reparam import reparameterize

        infer, _ = reparameterize(tiny_mole())
        with pytest.raises(ValueError, match="needs the routed expert tensors"):
            lane_logits(infer, np.array([[1, 2]]))


def per_position_logits(p, ids):
    """Train-form logits with the expert rows of every position computed from
    that position's own embedding row (``mole_expert_rows`` on all B*T rows,
    combined by ``mole_layer_forward`` through ``combine_expert_rows``)."""
    x = e = embed(p, ids)
    state = init_decode_state(p, *ids.shape)
    for i in range(p.cfg.L):
        lv = p.layer(i)
        x = attend(p, x, state, i)
        x = mole_layer_forward(lv, x, mole_expert_rows(lv, e), lv.router.T)
    xf = rmsnorm(x, p.tensors["final_norm.gain"], RMS_EPS)
    return matmul(xf, p.tensors["lm_head"])


UNIQUE_ID_BATCHES = {
    # repeats within and across the two sequences: 3 distinct ids in 16
    "repeats": np.array([[5, 5, 9, 5, 2, 9, 5, 5], [9, 5, 5, 2, 2, 5, 9, 9]]),
    "distinct": np.array([[17, 3, 60, 0, 41, 8, 29, 52, 11, 36, 24, 7]]),
    "one_token": np.array([[7]]),
}


class TestUniqueIdExperts:
    """The train form runs the expert FFNs once per distinct id and gathers
    the rows per position; the bits must be those of the per-position form."""

    @pytest.mark.parametrize("kernel", [kernels.TILED, kernels.SEQUENTIAL])
    @pytest.mark.parametrize("batch", list(UNIQUE_ID_BATCHES))
    def test_logits_match_per_position_reference(self, monkeypatch, kernel, batch):
        monkeypatch.setattr(kernels, "_backends", {np.dtype(np.float32): kernel})
        p = tiny_mole()
        ids = UNIQUE_ID_BATCHES[batch]
        cache: dict = {}
        got = model_forward(p, ids, cache=cache)
        assert got.tobytes() == per_position_logits(p, ids).tobytes()
        # the experts ran on the distinct ids only, padded with zero rows to
        # whole matmul tiles
        uniq = np.unique(ids)
        rows = -(-uniq.size // kernels.TILE_ROWS) * kernels.TILE_ROWS
        assert cache["uniq"].tobytes() == uniq.tobytes()
        assert cache["e_uniq"][: uniq.size].tobytes() == p.tensors["embedding"][uniq].tobytes()
        assert not cache["e_uniq"][uniq.size :].any()
        for lc in cache["layers"]:
            assert lc["en"].shape == (rows, p.cfg.d)
            assert not lc["en"][uniq.size :].any()
            assert all(ec["pre"].shape[0] == rows for ec in lc["experts"])

    @pytest.mark.parametrize("kernel", [kernels.TILED, kernels.SEQUENTIAL])
    def test_fp32_lut_form_bit_equal_on_repeated_ids(self, monkeypatch, tmp_path, kernel):
        from mole.reparam import reparameterize

        monkeypatch.setattr(kernels, "_backends", {np.dtype(np.float32): kernel})
        p = tiny_mole()
        ids = UNIQUE_ID_BATCHES["repeats"]
        infer, tables = reparameterize(p)
        write_lut(tables, tmp_path / "t.lut", dtype="fp32")
        with open_lut(tmp_path / "t.lut") as lut:
            lut_logits = lane_logits(infer, ids, lut=lut)
        assert lut_logits.tobytes() == model_forward(p, ids).tobytes()


class TestRotaryTablesOncePerForward:
    def test_one_table_build_per_forward(self, monkeypatch):
        """A ``DecodeState`` builds the tables once, and its forwards gather
        from them."""
        calls = []
        real = model.rotary_tables
        monkeypatch.setattr(model, "rotary_tables",
                            lambda *a: calls.append(1) or real(*a))
        p = tiny_mole(L=3)
        model_forward(p, np.array([[1, 2, 3], [4, 5, 6]]))
        assert len(calls) == 1
        state = init_decode_state(p, 2, 4)
        forward_lanes(p, np.array([1, 2, 3]), np.array([2, 1]), state)
        assert len(calls) == 2
        forward_lanes(p, np.array([4, 5]), np.array([1, 1]), state)
        assert len(calls) == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_state_rows_are_rotary_tables_at_every_slot(self, dtype):
        """The state's rows cover every arena slot, past ``max_seq`` too, and
        each is the bytes ``rotary_tables`` gives that position alone or
        among others."""
        p = tiny_mole(max_seq=16)
        if dtype == np.float64:
            p = model.ModelParams(p.cfg, {k: v.astype(dtype) for k, v in p.tensors.items()})
        state = init_decode_state(p, 2, p.cfg.max_seq + 21)
        slots = state.v[0].shape[2]
        assert slots == 48 and len(state.cos) == len(state.sin) == slots
        cfg = p.cfg
        for pos in range(slots):
            cos, sin = rotary_tables(np.array([[pos]]), cfg.d_head, cfg.rotary_fraction, dtype)
            assert state.cos[pos].tobytes() == cos[0, 0].tobytes(), pos
            assert state.sin[pos].tobytes() == sin[0, 0].tobytes(), pos
        grid = np.arange(slots).reshape(3, KEY_BLOCK)[::-1]
        cos, sin = rotary_tables(grid, cfg.d_head, cfg.rotary_fraction, dtype)
        assert state.cos[grid].tobytes() == cos.tobytes()
        assert state.sin[grid].tobytes() == sin.tobytes()


class TestStateLayers:
    @pytest.mark.parametrize("make", [tiny_dense, tiny_moe, tiny_mole])
    def test_layers_hold_the_params_own_arrays(self, make):
        """Each resolved layer holds the params' arrays themselves, in
        ``param_names`` order; the routers beside them are row-major copies."""
        p = make()
        state = init_decode_state(p, 1, 4)
        assert state.layers == []
        forward_tokens(p, [np.array([1, 2])], state)
        layers = state.layers
        forward_tokens(p, [np.array([3])], state)
        assert state.layers is layers and len(layers) == p.cfg.L
        for i, lv in enumerate(layers):
            held = [lv.input_norm, lv.attn_wqkv, lv.attn_bqkv, lv.attn_wo, lv.attn_bo,
                    lv.post_attn_norm]
            if p.cfg.has_shared:
                held += [lv.shared_w1, lv.shared_b1, lv.shared_w2, lv.shared_b2]
            if p.cfg.has_experts:
                held += [lv.router] + ([lv.expert_norm] if p.cfg.variant == "mole" else [])
                held += [t for expert in lv.experts for t in expert]
                assert not np.shares_memory(state.routers[i], lv.router)
            names = [n for n in model.param_names(p.cfg) if n.startswith(f"layers.{i}.")]
            assert len(held) == len(names)
            for name, array in zip(names, held):
                assert array is p.tensors[name], name
