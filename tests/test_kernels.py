import math
import os
import subprocess
import sys
import textwrap
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


class TestProbe:
    def test_probes_the_decode_attention_gemm_shape(self, monkeypatch):
        # the decode core's gemms are (d_head, KEY_BLOCK) and (KEY_BLOCK, d_head):
        # (16, 16) at the toy configs' d_head
        probed = []

        def spy(a, b, lead):
            probed.append(b.shape)
            return matmul_sequential(a, b)  # row-invariant, so every shape is visited

        monkeypatch.setattr(kernels, "_matmul_tiled", spy)
        assert kernels._rows_invariant(np.dtype(np.float32))
        assert (mole.model.KEY_BLOCK, mole.model.KEY_BLOCK) in probed


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


class TestRotary:
    def _pack(self, vec):
        # (T=1, H=1, d_head)
        return np.asarray(vec, dtype=np.float64).reshape(1, 1, -1)

    def test_position_zero_identity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2, 8))
        out = apply_rotary(x, np.array([0, 0, 0]), 0.5)
        assert np.array_equal(out, x)

    def test_pair_norm_preserved(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 2, 8))
        out = apply_rotary(x, np.arange(5), 1.0)
        # half-split pairing: pair i is (i, i + span/2)
        for i in range(4):
            before = x[..., i] ** 2 + x[..., i + 4] ** 2
            after = out[..., i] ** 2 + out[..., i + 4] ** 2
            assert np.max(np.abs(before - after)) < 1e-12

    def test_analytic_two_dims(self):
        pos = 3
        x = self._pack([1.0, 0.0])
        out = apply_rotary(x, np.array([pos]), 1.0)
        theta = float(pos)  # frequency for pair 0 is base**0 = 1
        assert np.allclose(out.ravel(), [math.cos(theta), math.sin(theta)], atol=1e-12)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 3, 8))
        pos = np.arange(4)
        back = apply_rotary(apply_rotary(x, pos, 0.5), pos, 0.5, inverse=True)
        assert np.max(np.abs(back - x)) < 1e-12

    def test_odd_span_rejected(self):
        x = np.zeros((1, 1, 6), dtype=np.float64)
        with pytest.raises(ShapeError):
            apply_rotary(x, np.array([0]), 0.5)  # span 3
