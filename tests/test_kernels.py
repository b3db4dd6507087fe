import math
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_prompts, tiny_mole

import mole
from mole import kernels
from mole.engine import greedy_decode
from mole.kernels import (
    TILE_ROWS,
    ShapeError,
    apply_rotary,
    gelu,
    gelu_grad,
    matmul,
    matmul_sequential,
    rmsnorm,
    rmsnorm_backward,
    rotary_tables,
    softmax,
)
from mole.reparam import InMemoryLut, reparameterize, verify_equivalence


def naive_matmul(a, b):
    """Triple-loop oracle with sequential-k accumulation in the input dtype."""
    m, kdim = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = a.dtype.type(0.0)
            for k in range(kdim):
                acc = a.dtype.type(acc + a.dtype.type(a[i, k] * b[k, j]))
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 5)).astype(np.float32)
        assert np.array_equal(matmul(np.eye(3, dtype=np.float32), m), m)

    def test_scalar_product(self):
        a = np.array([[2.0]], dtype=np.float32)
        b = np.array([[3.0]], dtype=np.float32)
        assert matmul(a, b)[0, 0] == 6.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_naive_oracle_bitwise(self, dtype):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 5)).astype(dtype)
        b = rng.standard_normal((5, 3)).astype(dtype)
        got = matmul_sequential(a, b)
        want = naive_matmul(a, b)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 384, 4096])
    @pytest.mark.parametrize("lead", [(), (2, 3)], ids=["no-lead", "lead-2x3"])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
    def test_batched_rows_match_single_rows_bitwise(self, dtype, m, lead, layout):
        # batching must not change any row's bits, nor may the operands' layout;
        # with a leading shape, b has one matrix per last leading index (broadcast)
        rng = np.random.default_rng(8)
        k, n = 33, 17
        if layout == "transposed":
            a = rng.standard_normal(lead + (k, m)).astype(dtype).swapaxes(-1, -2)
            b = rng.standard_normal(lead[1:] + (n, k)).astype(dtype).swapaxes(-1, -2)
        elif layout == "strided":
            a = rng.standard_normal(lead + (m, 2 * k)).astype(dtype)[..., ::2]
            b = rng.standard_normal(lead[1:] + (2 * k, n)).astype(dtype)[..., ::2, :]
        else:
            a = rng.standard_normal(lead + (m, k)).astype(dtype)
            b = rng.standard_normal(lead[1:] + (k, n)).astype(dtype)
        full = matmul(a, b)
        packed = matmul(np.ascontiguousarray(a), np.ascontiguousarray(b))
        assert full.tobytes() == packed.tobytes()
        for i in range(m):
            row = matmul(a[..., i : i + 1, :], b)
            assert row.tobytes() == full[..., i : i + 1, :].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, TILE_ROWS + 3, 200])
    def test_matches_sequential_within_rounding(self, dtype, m):
        # both kernels are within 2 * K * eps * (|a| @ |b|) of the exact product
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, m, 64)).astype(dtype)
        b = rng.standard_normal((64, 48)).astype(dtype)
        bound = 2 * 64 * np.finfo(dtype).eps * (np.abs(a).astype(np.float64) @ np.abs(b))
        diff = np.abs(matmul(a, b).astype(np.float64) - matmul_sequential(a, b))
        assert np.all(diff <= bound)

    def test_same_bytes_at_one_and_two_blas_threads(self):
        # with (256, 256) operands each tile's gemm is big enough for OpenBLAS to
        # split between threads
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from mole.kernels import backend, matmul

            def run():
                rng = np.random.default_rng(3)
                h = hashlib.sha256()
                for dtype in (np.float32, np.float64):
                    for k, n in ((64, 192), (256, 256)):
                        b = rng.standard_normal((k, n)).astype(dtype)
                        for m in (1, 17, 384):
                            a = rng.standard_normal((m, k)).astype(dtype)
                            h.update(matmul(a, b).tobytes())
                return h.hexdigest()

            first = run()
            assert run() == first
            print(backend(np.float32), backend(np.float64), first)
        """)
        src = str(Path(mole.__file__).resolve().parent.parent)
        outputs = set()
        for threads in [t for t in (1, 2) if t <= (os.cpu_count() or 1)]:
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120, check=False)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_broadcast_leading_axes(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        b = rng.standard_normal((2, 3, 5, 6)).astype(np.float32)
        out = matmul(a, b)
        assert out.shape == (2, 3, 4, 6)
        assert np.allclose(out, a @ b, atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))

    @pytest.mark.parametrize("dtype", [">f4", ">f8", "float16"])
    @pytest.mark.parametrize("fn", [matmul, matmul_sequential])
    def test_other_float_dtypes_rejected(self, fn, dtype):
        good = np.zeros((2, 3), np.float32)
        bad = np.zeros((3, 2), dtype)
        for a, b in ((good, bad), (bad.T, good.T)):
            with pytest.raises(TypeError, match="must be float32 or float64"):
                fn(a, b)
        with pytest.raises(TypeError, match="must be float32 or float64"):
            softmax(bad)

    @pytest.mark.parametrize("lead_a, lead_b", [((2,), (3,)), ((2, 3), (4,)), ((5, 1), (2, 3))])
    def test_incompatible_leading_shapes_rejected(self, lead_a, lead_b):
        a = np.zeros(lead_a + (4, 5), np.float32)
        b = np.zeros(lead_b + (5, 6), np.float32)
        with pytest.raises(ValueError, match="cannot be broadcast"):
            matmul(a, b)

    @pytest.mark.parametrize("lead_a, lead_b", [((), (3,)), ((3,), ()), ((2, 3), (2, 3)),
                                                ((2, 1), (1, 3)), ((3,), (2, 1))])
    def test_leading_shapes_broadcast(self, lead_a, lead_b):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(lead_a + (4, 5)).astype(np.float32)
        b = rng.standard_normal(lead_b + (5, 6)).astype(np.float32)
        want = np.broadcast_shapes(lead_a, lead_b) + (4, 6)
        assert matmul(a, b).shape == want
        assert matmul_sequential(a, b).shape == want


class TestScratchTile:
    """Under the tiled kernel, whatever the local probe picks, a partial
    tile against a 2-D ``b`` is padded in this thread's scratch tile of its
    dtype and K; the result never aliases it."""

    @pytest.fixture(autouse=True)
    def tiled(self, monkeypatch):
        monkeypatch.setattr(kernels, "_backends", {dt: kernels.TILED for dt in kernels.FLOAT_DTYPES})

    @staticmethod
    def lone_rows(a, b):
        # each row on its own against a batched b, which pads into a fresh zero tile
        return np.concatenate([matmul(a[i : i + 1], b[None])[0] for i in range(len(a))])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tall_short_tall_calls_give_each_rows_lone_bytes(self, dtype):
        rng = np.random.default_rng(20)
        k, n = 37, 11
        b = rng.standard_normal((k, n)).astype(dtype)
        for m in (TILE_ROWS - 1, 1, TILE_ROWS - 1, TILE_ROWS + 3, 2):
            a = rng.standard_normal((m, k)).astype(dtype)
            assert matmul(a, b).tobytes() == self.lone_rows(a, b).tobytes(), m
            # the rows below the last call's rows are zero again
            tile, _ = kernels._scratch.tiles[k, np.dtype(dtype)]
            assert not tile[m % TILE_ROWS :].any()

    def test_result_is_not_changed_by_the_next_call(self):
        rng = np.random.default_rng(21)
        b = rng.standard_normal((24, 9)).astype(np.float32)
        a1, a2 = (rng.standard_normal((m, 24)).astype(np.float32) for m in (3, 5))
        first = matmul(a1, b)
        kept = first.copy()
        second = matmul(a2, b)
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)
        tile, _ = kernels._scratch.tiles[24, np.dtype(np.float32)]
        assert not np.shares_memory(first, tile) and not np.shares_memory(second, tile)

    def test_threads_get_the_single_thread_bytes(self):
        # more threads than cores, switching often, alternate row counts and K;
        # gemms long enough that a thread can run while another's BLAS call runs
        rng = np.random.default_rng(22)
        bs = {k: rng.standard_normal((k, 96)).astype(np.float32) for k in (320, 512)}
        cases = [(m, k) for m in (TILE_ROWS - 1, 1, 7, TILE_ROWS + 5, 2) for k in bs]
        operands = [(rng.standard_normal((m, k)).astype(np.float32), bs[k]) for m, k in cases]
        want = [matmul(a, b).tobytes() for a, b in operands]
        n_threads = (os.cpu_count() or 1) + 2
        start = threading.Barrier(n_threads)
        mismatches = []

        def run(shift):
            start.wait()
            for rep in range(300):
                i = (rep * 3 + shift) % len(operands)
                if matmul(*operands[i]).tobytes() != want[i]:
                    mismatches.append((shift, i))

        threads = [threading.Thread(target=run, args=(shift,)) for shift in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


class TestProbe:
    def test_probes_the_decode_attention_gemm_shape(self, monkeypatch):
        # the attention core's gemms are (d_head, KEY_BLOCK) and (KEY_BLOCK,
        # d_head): 16 at the toy configs' d_head, 32 and 64 at paper sizes
        probed = []

        def spy(a, b):
            probed.append(b.shape)
            return matmul_sequential(a, b)  # row-invariant, so every shape is visited

        monkeypatch.setattr(kernels, "_matmul_tiled", spy)
        assert kernels._rows_invariant(np.dtype(np.float32))
        block = mole.model.KEY_BLOCK
        for d_head in (16, 32, 64):
            assert (d_head, block) in probed and (block, d_head) in probed, d_head


class TestSequentialFallback:
    """A BLAS that fails the row-invariance probe gets the sequential kernel."""

    @pytest.fixture
    def fallback(self, monkeypatch):
        monkeypatch.setattr(kernels, "_rows_invariant", lambda dtype: False)
        monkeypatch.setattr(kernels, "_backends", {})

    def test_matmul_is_sequential_and_warns_once(self, fallback):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 37, 24)).astype(np.float32)
        b = rng.standard_normal((24, 10)).astype(np.float32)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = [matmul(a, b) for _ in range(3)]
        assert [w.category for w in caught] == [RuntimeWarning]
        assert kernels.backend(np.float32) == kernels.SEQUENTIAL
        want = matmul_sequential(a, b)
        assert all(g.tobytes() == want.tobytes() for g in got)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mole_forms_still_agree(self, fallback):
        p = tiny_mole(seed=5)
        infer, tables = reparameterize(p)
        prompts = random_prompts(np.random.default_rng(13), p.cfg.vocab, 6, 12)
        report = verify_equivalence(p, infer, InMemoryLut(tables), prompts, tolerance=0.0)
        assert report.passed and report.max_rel_err == 0.0
        ref = greedy_decode(p, prompts, steps=6, runtime="mole-train")
        got = greedy_decode(infer, prompts, steps=6, runtime="mole-lut",
                            lut=InMemoryLut(tables))
        assert got.tokens == ref.tokens
        assert kernels.backend(np.float32) == kernels.SEQUENTIAL


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(np.array([1.0, 1.0]))
        assert np.allclose(out, [0.5, 0.5], atol=1e-12)

    def test_analytic(self):
        out = softmax(np.array([0.0, math.log(3.0)]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_large_logits_no_overflow(self):
        out = softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(out, [0.5, 0.5], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax(np.array([], dtype=np.float64))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
           st.floats(-30, 30))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, logits, shift):
        x = np.array(logits, dtype=np.float64)
        p = softmax(x)
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) < 1e-12
        q = softmax(x + shift)
        assert np.allclose(p, q, atol=1e-9)

    def test_single_precision_sum_tolerance(self):
        rng = np.random.default_rng(3)
        p = softmax(rng.standard_normal(64).astype(np.float32))
        assert abs(float(p.sum()) - 1.0) < 1e-6


class TestRmsnorm:
    def test_unit_rms(self):
        d = 8
        x = np.ones(d, dtype=np.float64)
        out = rmsnorm(x, np.ones(d), eps=1e-20)
        assert np.allclose(out, 1.0, atol=1e-9)

    def test_zero_input(self):
        out = rmsnorm(np.zeros(6, dtype=np.float64), np.ones(6), eps=1e-5)
        assert np.array_equal(out, np.zeros(6))

    def test_analytic(self):
        eps = 1e-5
        out = rmsnorm(np.array([3.0, 4.0]), np.ones(2), eps=eps)
        want = np.array([3.0, 4.0]) / math.sqrt(12.5 + eps)
        assert np.allclose(out, want, atol=1e-12)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=16),
           st.floats(0.1, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, values, c):
        x = np.array(values, dtype=np.float64)
        if np.max(np.abs(x)) < 1e-3:
            x[0] = 1.0
        g = np.ones_like(x)
        a = rmsnorm(x, g, eps=1e-20)
        b = rmsnorm(c * x, g, eps=1e-20)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            rmsnorm(np.zeros(4, np.float64), np.ones(3))

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(10)
        g = rng.standard_normal(10)
        dy = rng.standard_normal(10)
        dx, dg = rmsnorm_backward(x, g, dy)
        h = 1e-6
        for i in range(10):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = np.dot(dy, (rmsnorm(xp, g) - rmsnorm(xm, g))) / (2 * h)
            assert abs(dx[i] - fd) < 1e-6
            gp, gm = g.copy(), g.copy()
            gp[i] += h
            gm[i] -= h
            fd = np.dot(dy, (rmsnorm(x, gp) - rmsnorm(x, gm))) / (2 * h)
            assert abs(dg[i] - fd) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 16, 64, 100])
    def test_bits_equal_np_mean_form(self, dtype, d):
        """The sum-then-divide mean square gives the bytes of ``np.mean``, in
        the forward and the backward."""
        rng = np.random.default_rng(d)
        scale = np.exp(rng.uniform(-8, 8, (3, 37, 1)))  # rows of very different sizes
        x = (rng.standard_normal((3, 37, d)) * scale).astype(dtype)
        g, dy = rng.standard_normal(d).astype(dtype), rng.standard_normal(x.shape).astype(dtype)
        eps = 1e-5

        ms = np.mean(np.square(x), axis=-1, keepdims=True, dtype=x.dtype)
        inv = 1.0 / np.sqrt(ms + x.dtype.type(eps))
        want = (x * inv * g).astype(x.dtype)
        gdy = dy * g
        dot = np.sum(gdy * x, axis=-1, keepdims=True, dtype=x.dtype)
        want_dx = (gdy * inv - x * dot * (inv**3) / x.dtype.type(d)).astype(x.dtype)
        want_dg = np.sum(dy * x * inv, axis=(0, 1), dtype=x.dtype).astype(x.dtype)

        got = rmsnorm(x, g, eps)
        dx, dg = rmsnorm_backward(x, g, dy, eps)
        assert got.dtype == dx.dtype == dg.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert dx.tobytes() == want_dx.tobytes()
        assert dg.tobytes() == want_dg.tobytes()


class TestGelu:
    def test_zero(self):
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_positive_asymptote(self):
        x = np.array([20.0])
        assert abs(gelu(x)[0] - 20.0) < 1e-12

    def test_matches_high_precision_erf_oracle(self):
        import mpmath

        for v in (1.0, -0.5, 2.3, -3.7):
            want = float(v * mpmath.mpf(0.5) * (1 + mpmath.erf(mpmath.mpf(v) / mpmath.sqrt(2))))
            got = float(gelu(np.array([v], dtype=np.float64))[0])
            assert abs(got - want) < 1e-12

    def test_grad_matches_fd(self):
        xs = np.linspace(-4, 4, 33)
        h = 1e-6
        fd = (gelu(xs + h) - gelu(xs - h)) / (2 * h)
        assert np.max(np.abs(gelu_grad(xs) - fd)) < 1e-8

    @pytest.mark.parametrize("fn", [gelu, gelu_grad])
    @pytest.mark.parametrize("rows", [1, 15, 16, 37])
    def test_rows_match_lone_rows_bitwise(self, fn, rows):
        x = np.random.default_rng(rows).standard_normal((rows, 48)).astype(np.float32) * 4
        full = fn(x)
        assert full.dtype == np.float32 and full.shape == x.shape
        for i in range(rows):
            assert fn(x[i : i + 1]).tobytes() == full[i : i + 1].tobytes()

    def test_float32_gelu_is_negative_zero_far_left(self):
        # as with a correctly rounded float32 erf, Phi(x) is exactly 0 from x = -5.55
        x = -np.geomspace(5.55, 1e30, 10_000).astype(np.float32)
        assert gelu(x).tobytes() == np.full_like(x, -0.0).tobytes()
        assert gelu(-x).tobytes() == (-x).tobytes()

    def test_float64_keeps_double_erf(self):
        from scipy.special import erf as scipy_erf

        x = np.linspace(-8, 8, 1001)
        assert kernels._erf(x.copy()).tobytes() == scipy_erf(x).tobytes()
        want = x * 0.5 * (1.0 + scipy_erf(x * (1.0 / np.sqrt(2.0))))
        assert gelu(x).tobytes() == want.tobytes()


def erf32(t):
    return kernels._erf(np.array(t, dtype=np.float32))


class TestFloat32Erf:
    def test_max_abs_error_against_double_erf(self):
        # every float32 in [2^-12, 6] (1.2e8 values), every other one negated
        from scipy.special import erf as scipy_erf

        lo = int(np.float32(2.0**-12).view(np.uint32))
        hi = int(np.float32(6.0).view(np.uint32))
        assert hi - lo > 10**8
        worst = 0.0
        for start in range(lo, hi + 1, 1 << 21):
            t = np.arange(start, min(start + (1 << 21), hi + 1), dtype=np.uint32).view(np.float32)
            t[1::2] *= -1
            got = erf32(t)
            assert got.dtype == np.float32
            worst = max(worst, float(np.max(np.abs(got - scipy_erf(t.astype(np.float64))))))
        assert worst <= 4.3e-7  # the figure the kernels docstring states

    def test_matches_high_precision_erf_oracle(self):
        import mpmath

        t = np.linspace(-6, 6, 1201, dtype=np.float32)
        want = np.array([float(mpmath.erf(mpmath.mpf(float(v)))) for v in t])
        assert np.max(np.abs(erf32(t) - want)) <= 4.3e-7

    def test_zero_odd_and_bounded(self):
        zeros = erf32(np.array([0.0, -0.0], np.float32))
        assert zeros.tobytes() == np.array([0.0, -0.0], np.float32).tobytes()
        rng = np.random.default_rng(21)
        t = np.concatenate([rng.standard_normal(10**6) * 3, rng.uniform(-10, 10, 10**6),
                            [np.inf, 1e30, 3.4e38, 1e-30, 1e-45]]).astype(np.float32)
        assert erf32(-t).tobytes() == (-erf32(t)).tobytes()
        assert np.max(np.abs(erf32(t))) <= 1.0

    def test_exactly_one_from_3_92(self):
        # float32-rounded erf is 1 from float32(3.92) on; so is this one, exactly
        lo = int(np.float32(3.92).view(np.uint32))
        hi = int(np.float32(6.0).view(np.uint32))
        t = np.concatenate([np.arange(lo, hi + 1, dtype=np.uint32).view(np.float32),
                            np.array([10.0, 1e10, 3.4e38, np.inf], np.float32)])
        assert np.all(erf32(t) == 1.0)
        assert np.all(erf32(-t) == -1.0)

    def test_float32_processes_never_load_scipy_special(self):
        script = textwrap.dedent("""
            import sys, tempfile
            from pathlib import Path
            import numpy as np
            from mole.config import TrainConfig, toy_config
            from mole.engine import greedy_decode
            from mole.lut_store import open_lut, write_lut
            from mole.model import init_params
            from mole.reparam import reparameterize, verify_equivalence
            from mole.trainer import synthetic_corpus, train

            cfg = toy_config("mole", L=2, d=32, n_heads=4, D_s=48, D_r=24, N=4, vocab=61,
                             max_seq=16)
            params = init_params(cfg, seed=3)
            corpus = synthetic_corpus(512, 16, seed=4, vocab=61)
            params = train(params, corpus, TrainConfig(total_steps=1, batch=2, seq_len=12)).params
            infer, tables = reparameterize(params)
            prompts = [np.array([1, 2, 3]), np.array([4, 5, 6, 7, 8])]
            with tempfile.TemporaryDirectory() as tmp:
                write_lut(tables, Path(tmp) / "t.lut")
                with open_lut(Path(tmp) / "t.lut") as lut:
                    report = verify_equivalence(params, infer, lut, prompts, tolerance=0.0)
                    greedy_decode(infer, prompts, steps=3, runtime="mole-lut", lut=lut)
            assert report.passed and params.dtype == np.float32
            print("scipy.special" in sys.modules)
        """)
        src = str(Path(mole.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def rotate(x, positions, fraction, inverse=False):
    """``apply_rotary`` with tables built for ``x``'s head width."""
    cos, sin = rotary_tables(positions, x.shape[-1], fraction, x.dtype)
    return apply_rotary(x, cos, -sin if inverse else sin)


class TestRotary:
    def _pack(self, vec):
        # (T=1, H=1, d_head)
        return np.asarray(vec, dtype=np.float64).reshape(1, 1, -1)

    def test_position_zero_identity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2, 8))
        out = rotate(x, np.array([0, 0, 0]), 0.5)
        assert np.array_equal(out, x)

    def test_pair_norm_preserved(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 2, 8))
        out = rotate(x, np.arange(5), 1.0)
        # half-split pairing: pair i is (i, i + span/2)
        for i in range(4):
            before = x[..., i] ** 2 + x[..., i + 4] ** 2
            after = out[..., i] ** 2 + out[..., i + 4] ** 2
            assert np.max(np.abs(before - after)) < 1e-12

    def test_analytic_two_dims(self):
        pos = 3
        x = self._pack([1.0, 0.0])
        out = rotate(x, np.array([pos]), 1.0)
        theta = float(pos)  # frequency for pair 0 is base**0 = 1
        assert np.allclose(out.ravel(), [math.cos(theta), math.sin(theta)], atol=1e-12)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 3, 8))
        pos = np.arange(4)
        back = rotate(rotate(x, pos, 0.5), pos, 0.5, inverse=True)
        assert np.max(np.abs(back - x)) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fraction", [0.25, 1.0])
    def test_one_call_over_stacked_heads_equals_two_calls(self, dtype, fraction):
        """Queries and keys rotate as 2H heads in one call, with the bytes of
        one call each, forward and inverse."""
        rng = np.random.default_rng(9)
        h = 4
        qk = rng.standard_normal((2, 7, 2 * h, 16)).astype(dtype)
        pos = rng.integers(0, 100, (2, 7))
        for inverse in (False, True):
            both = rotate(qk, pos, fraction, inverse)
            apart = [rotate(qk[..., :h, :], pos, fraction, inverse),
                     rotate(qk[..., h:, :], pos, fraction, inverse)]
            assert both.tobytes() == np.concatenate(apart, axis=2).tobytes()

    def test_odd_span_rejected(self):
        with pytest.raises(ShapeError):
            rotary_tables(np.array([0]), 6, 0.5, np.float64)  # span 3
