import math

import numpy as np
import pytest

from conftest import tiny_dense, tiny_moe, tiny_mole

from mole import kernels
from mole.config import TrainConfig, toy_config
from mole.kernels import softmax
from mole.model import init_params
from mole.trainer import (
    AdamState,
    adam_step,
    backward,
    balance_loss,
    clip_gradients,
    gradient_check,
    lm_loss,
    lr_at,
    sample_batch,
    synthetic_corpus,
    train,
    z_loss,
)


class TestLmLoss:
    def test_uniform_logits(self):
        vocab = 17
        logits = np.zeros((1, 5, vocab))
        targets = np.arange(5) % vocab
        assert abs(lm_loss(logits, targets) - math.log(vocab)) < 1e-12

    def test_confident_correct_class(self):
        vocab = 8
        targets = np.array([3, 3])
        logits = np.zeros((1, 2, vocab))
        logits[:, :, 3] = 1e4
        assert lm_loss(logits, targets) < 1e-10

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((2, 4, 9))
        targets = rng.integers(0, 9, size=(2, 4))
        want = 0.0
        for b in range(2):
            for t in range(4):
                p = np.exp(logits[b, t]) / np.sum(np.exp(logits[b, t]))
                want -= math.log(p[targets[b, t]])
        want /= 8
        assert abs(lm_loss(logits, targets) - want) < 1e-10

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            lm_loss(np.zeros((1, 2, 4)), np.array([1, 4]))


class TestBalanceLoss:
    def test_uniform_balanced_is_one(self):
        n, k, t = 4, 2, 8
        probs = np.full((t, n), 1.0 / n)
        # selections visit each expert equally often
        sel = np.array([[i % n, (i + 1) % n] for i in range(t)])
        assert abs(balance_loss(probs, sel, n, k) - 1.0) < 1e-12

    def test_total_collapse_is_n(self):
        n, k, t = 5, 1, 6
        probs = np.zeros((t, n))
        probs[:, 1] = 1.0
        sel = np.full((t, 1), 1)
        assert abs(balance_loss(probs, sel, n, k) - n) < 1e-12

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2)
        n, k, t = 6, 2, 16
        logits = rng.standard_normal((t, n))
        probs = softmax(logits)
        sel = np.stack([rng.choice(n, size=k, replace=False) for _ in range(t)])
        f = np.zeros(n)
        for row in sel:
            for j in row:
                f[j] += 1
        f /= t * k
        want = n * sum(f[j] * probs[:, j].mean() for j in range(n))
        assert abs(balance_loss(probs, sel, n, k) - want) < 1e-10


class TestZLoss:
    def test_zero_logits(self):
        n, t = 4, 6
        assert abs(z_loss(np.zeros((t, n))) - math.log(4) ** 2) < 1e-12

    def test_single_expert(self):
        z = 1.7
        assert abs(z_loss(np.full((3, 1), z)) - z * z) < 1e-12

    def test_matches_double_precision_oracle(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((10, 5))
        want = np.mean([math.log(np.sum(np.exp(row))) ** 2 for row in logits])
        assert abs(z_loss(logits) - want) < 1e-10


class TestSchedule:
    def _cfg(self, **kw):
        base = dict(peak_lr=1e-3, warmup_fraction=0.1, total_steps=100)
        base.update(kw)
        return TrainConfig(**base)

    def test_peak_at_warmup_end(self):
        cfg = self._cfg()
        assert abs(lr_at(10, cfg) - cfg.peak_lr) < 1e-15

    def test_min_at_final_step(self):
        cfg = self._cfg()
        assert abs(lr_at(100, cfg) - 0.1 * cfg.peak_lr) < 1e-15

    def test_cosine_midpoint(self):
        cfg = self._cfg()
        mid = (10 + 100) // 2
        want = (cfg.peak_lr + 0.1 * cfg.peak_lr) / 2
        assert abs(lr_at(mid, cfg) - want) < 1e-12

    def test_out_of_range(self):
        cfg = self._cfg()
        with pytest.raises(ValueError):
            lr_at(101, cfg)


class TestAdam:
    def test_zero_grads_only_weight_decay(self):
        p = tiny_dense(L=1, d=16, n_heads=2, D_s=8, vocab=7)
        before = {k: v.copy() for k, v in p.tensors.items()}
        tcfg = TrainConfig(weight_decay=0.01)
        grads = {k: np.zeros_like(v) for k, v in p.tensors.items()}
        state = AdamState.init(p)
        lr = 0.1
        adam_step(p, grads, state, lr, tcfg)
        for k in p.tensors:
            want = before[k] - lr * 0.01 * before[k]
            assert np.allclose(p.tensors[k], want, atol=1e-7), k

    def test_first_step_unit_update(self):
        p = tiny_dense(L=1, d=16, n_heads=2, D_s=8, vocab=7)
        before = {k: v.copy() for k, v in p.tensors.items()}
        tcfg = TrainConfig(betas=(0.9, 0.95), weight_decay=0.0, eps=1e-8)
        grads = {k: np.ones_like(v) for k, v in p.tensors.items()}
        state = AdamState.init(p)
        lr = 1e-3
        adam_step(p, grads, state, lr, tcfg)
        for k in p.tensors:
            delta = before[k] - p.tensors[k]
            assert np.allclose(delta, lr, rtol=1e-5), k

    @pytest.mark.parametrize("kernel", [kernels.TILED, kernels.SEQUENTIAL])
    def test_scratch_buffers_keep_the_textbook_bits(self, monkeypatch, kernel):
        """The in-place update rounds like the textbook expression, step
        after step: params, m and v bytes agree after 10 toy-mole steps."""
        def textbook_step(p, grads, state, lr, tcfg):
            b1, b2 = tcfg.betas
            state.step += 1
            c1, c2 = 1.0 - b1**state.step, 1.0 - b2**state.step
            for name, t in p.tensors.items():
                g, m, v, dt = grads[name], state.m[name], state.v[name], t.dtype.type
                m *= dt(b1)
                m += dt(1.0 - b1) * g
                v *= dt(b2)
                v += dt(1.0 - b2) * np.square(g)
                t -= dt(lr) * ((m / dt(c1)) / (np.sqrt(v / dt(c2)) + dt(tcfg.eps)))
                if tcfg.weight_decay:
                    t -= dt(lr * tcfg.weight_decay) * t

        monkeypatch.setattr(kernels, "_backends", {np.dtype(np.float32): kernel})
        tcfg = TrainConfig(total_steps=10, batch=8, seq_len=48)
        ref = init_params(toy_config("mole", max_seq=64), seed=3)
        got = ref.copy()
        ref_state, got_state = AdamState.init(ref), AdamState.init(got)
        corpus = synthetic_corpus(4096, 32, seed=7, vocab=ref.cfg.vocab)
        rng = np.random.default_rng(5)
        for step in range(10):
            _, grads = backward(ref, sample_batch(corpus, rng, tcfg.batch, tcfg.seq_len), tcfg)
            clip_gradients(grads, tcfg.grad_clip)
            textbook_step(ref, grads, ref_state, lr_at(step, tcfg), tcfg)
            adam_step(got, grads, got_state, lr_at(step, tcfg), tcfg)
        for name in ref.tensors:
            for a, b in ((ref.tensors, got.tensors), (ref_state.m, got_state.m),
                         (ref_state.v, got_state.v)):
                assert a[name].tobytes() == b[name].tobytes(), name

    def test_determinism_bit_identical(self):
        def run():
            cfg = toy_config("moe", L=1, d=16, n_heads=2, D_r=8, N=3, k=2,
                             vocab=31, max_seq=16)
            p = init_params(cfg, seed=3)
            corpus = synthetic_corpus(1024, 8, seed=5, vocab=31)
            return train(p, corpus, TrainConfig(total_steps=50, batch=2, seq_len=12,
                                                seed=11)).params

        a, b = run(), run()
        for k in a.tensors:
            assert a.tensors[k].tobytes() == b.tensors[k].tobytes()


class TestClipping:
    def test_postclip_norm_bounded(self):
        rng = np.random.default_rng(4)
        grads = {f"g{i}": rng.standard_normal((5, 5)) * 10 for i in range(4)}
        clip_gradients(grads, 1.0)
        total = math.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
        assert total <= 1.0 + 1e-9

    def test_small_grads_untouched(self):
        grads = {"g": np.full((2, 2), 1e-4)}
        before = grads["g"].copy()
        clip_gradients(grads, 1.0)
        assert np.array_equal(grads["g"], before)


class TestBackward:
    def test_zero_coefficients_reproduce_pure_lm_path(self):
        p = tiny_moe(L=1, d=16, n_heads=2, D_r=8, N=3, k=2, vocab=13)
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 13, size=(2, 6))
        targets = rng.integers(0, 13, size=(2, 6))
        _, g0 = backward(p, (ids, targets),
                         TrainConfig(z_loss_coeff=0.0, balance_loss_coeff=0.0))
        # the pure-LM reference: a mole-free variant of the same computation is
        # the same call; assert rerun is bit-identical (no hidden state)
        _, g1 = backward(p, (ids, targets),
                         TrainConfig(z_loss_coeff=0.0, balance_loss_coeff=0.0))
        for k in g0:
            assert g0[k].tobytes() == g1[k].tobytes()

    def test_aux_coefficients_change_router_grads_only_via_logits(self):
        p = tiny_moe(L=1, d=16, n_heads=2, D_r=8, N=3, k=2, vocab=13)
        rng = np.random.default_rng(6)
        ids = rng.integers(0, 13, size=(1, 6))
        targets = rng.integers(0, 13, size=(1, 6))
        _, plain = backward(p, (ids, targets), TrainConfig())
        _, aux = backward(p, (ids, targets),
                          TrainConfig(z_loss_coeff=0.1, balance_loss_coeff=0.1))
        assert not np.array_equal(plain["layers.0.router"], aux["layers.0.router"])

    def test_dead_path_gradients_zero(self):
        # ids never equal vocab-1, and it is never a target: its lm_head
        # column only sees softmax pressure, but its embedding row is dead
        p = tiny_dense(vocab=13)
        ids = np.array([[1, 2, 3, 4]])
        targets = np.array([[2, 3, 4, 5]])
        _, grads = backward(p, (ids, targets), TrainConfig())
        assert np.all(grads["embedding"][12] == 0.0)
        assert np.all(grads["embedding"][0] == 0.0)
        assert np.any(grads["embedding"][1] != 0.0)

    def test_aux_on_non_moe_rejected(self):
        p = tiny_mole(L=1)
        ids = np.array([[1, 2]])
        with pytest.raises(ValueError):
            backward(p, (ids, ids), TrainConfig(z_loss_coeff=0.1))

    def test_nonfinite_loss_aborts(self):
        p = tiny_dense(L=1)
        p.tensors["lm_head"][:] = np.inf
        ids = np.array([[1, 2]])
        with pytest.raises(FloatingPointError):
            backward(p, (ids, ids), TrainConfig())


class TestGradientCheckSmall:
    def test_one_layer_mole(self):
        """T = 18 spans two key blocks of the attention core: a full one and
        a partial one, whose zero-padded key slots the backward must skip."""
        cfg = toy_config("mole", L=1, d=8, n_heads=2, D_s=6, D_r=4, N=2,
                         vocab=7, max_seq=18, rotary_fraction=0.5)
        p = init_params(cfg, seed=2)
        rng = np.random.default_rng(7)
        for t in (4, 18):
            ids = rng.integers(0, 7, size=(1, t))
            targets = rng.integers(0, 7, size=(1, t))
            report = gradient_check(p, (ids, targets), TrainConfig())
            worst = max(report.values())
            assert worst < 1e-4, (t, report)

    def test_mole_ids_repeated_within_and_across_sequences(self):
        """The expert, expert-norm and embedding gradients sum each distinct
        id's positions before the expert backward; a batch of two sequences
        sharing ids exercises that sum."""
        cfg = toy_config("mole", L=2, d=8, n_heads=2, D_s=6, D_r=4, N=2,
                         vocab=7, max_seq=6, rotary_fraction=0.5)
        p = init_params(cfg, seed=3)
        ids = np.array([[3, 1, 3, 3, 5, 1], [1, 3, 6, 6, 3, 0]])
        targets = (2 * ids + 1) % 7
        assert np.unique(ids).size < ids.size
        report = gradient_check(p, (ids, targets), TrainConfig())
        worst = max(report.values())
        assert worst < 1e-4, report


class TestTrainLoop:
    def test_zero_lr_leaves_params_and_loss_constant(self):
        cfg = toy_config("dense", L=1, d=16, n_heads=2, D_s=16, vocab=31, max_seq=16)
        p = init_params(cfg, seed=1)
        before = {k: v.copy() for k, v in p.tensors.items()}
        corpus = synthetic_corpus(512, 8, seed=2, vocab=31)
        res = train(p, corpus, TrainConfig(peak_lr=0.0, weight_decay=0.0,
                                           total_steps=6, batch=2, seq_len=10, seed=3))
        for k in before:
            assert np.array_equal(p.tensors[k], before[k]), k
        losses = [r.lm for r in res.trace]
        # same params every step; loss varies only through batch sampling
        res2 = train(p, corpus, TrainConfig(peak_lr=0.0, weight_decay=0.0,
                                            total_steps=6, batch=2, seq_len=10, seed=3))
        assert losses == [r.lm for r in res2.trace]

    def test_sample_batch_deterministic(self):
        corpus = synthetic_corpus(512, 16, seed=1, vocab=64)
        a = sample_batch(corpus, np.random.default_rng(5), 3, 10)
        b = sample_batch(corpus, np.random.default_rng(5), 3, 10)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        # targets are the shifted inputs
        assert np.array_equal(a[0][:, 1:], a[1][:, :-1])

    def test_loss_decreases_quick(self):
        cfg = toy_config("dense", L=1, d=32, n_heads=4, D_s=64, vocab=64, max_seq=32)
        p = init_params(cfg, seed=4)
        corpus = synthetic_corpus(4096, 8, seed=5, vocab=64)
        res = train(p, corpus, TrainConfig(total_steps=40, batch=4, seq_len=24,
                                           seed=6, peak_lr=3e-3))
        assert res.trace[-1].lm < 0.8 * res.trace[0].lm
