import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_mole

from mole.lut_store import (
    CODEBOOKS,
    HEADER_SIZE,
    MAGIC,
    NF3_CODEBOOK,
    NF4_CODEBOOK,
    BadMagicError,
    DimensionError,
    LutVersionError,
    PayloadLengthError,
    TicketError,
    codebook_half_max_gap,
    compression_ratio,
    dequantize_row,
    lut_file_size,
    open_lut,
    quantize_row,
    read_all_tables,
    write_lut,
)
from mole.reparam import LutTable, reparameterize


def reference_record(path, layer, token):
    """One token's (N, d) rows decoded on their own, straight from the file
    bytes and the documented layout, one value at a time for quantized rows."""
    _, _, _, vocab, n, d, code, block = struct.unpack_from("<8sIIIIIBI", path.read_bytes())
    dtype = ("fp32", "fp16", "nf4", "nf3")[code]
    if dtype in ("fp32", "fp16"):
        width = 4 if dtype == "fp32" else 2
        size = n * d * width
        raw = path.read_bytes()[HEADER_SIZE + (layer * vocab + token) * size:][:size]
        return np.frombuffer(raw, f"<f{width}").astype(np.float32).reshape(n, d)
    bits = 4 if dtype == "nf4" else 3
    block_bytes = 2 + bits * block // 8
    size = n * (d // block) * block_bytes
    raw = path.read_bytes()[HEADER_SIZE + (layer * vocab + token) * size:][:size]
    out = np.empty(n * d, np.float32)
    for b in range(n * d // block):
        blob = raw[b * block_bytes:(b + 1) * block_bytes]
        scale = np.float32(np.frombuffer(blob[:2], "<f2")[0])
        for v in range(block):
            c = sum(((blob[2 + (v * bits + k) // 8] >> ((v * bits + k) % 8)) & 1) << k
                    for k in range(bits))
            out[b * block + v] = CODEBOOKS[dtype][c] * scale
    return out.reshape(n, d)


def make_tables(seed=0, n_layers=2, vocab=11, n_experts=3, d=16):
    rng = np.random.default_rng(seed)
    return [
        LutTable(i, rng.standard_normal((vocab, n_experts, d)).astype(np.float32))
        for i in range(n_layers)
    ]


class TestCodebooks:
    def test_pinned_values(self):
        # frozen constants: 2^bits normal quantiles including 0 and +-1
        assert NF4_CODEBOOK.shape == (16,)
        assert NF3_CODEBOOK.shape == (8,)
        for cb in (NF4_CODEBOOK, NF3_CODEBOOK):
            assert cb[0] == -1.0 and cb[-1] == 1.0
            assert 0.0 in cb
            assert np.all(np.diff(cb) > 0)
        assert abs(NF4_CODEBOOK[1] - (-0.69619289060372)) < 1e-12
        assert abs(NF4_CODEBOOK[8] - 0.07958032909416937) < 1e-12
        assert abs(NF3_CODEBOOK[1] - (-0.4786291601159111)) < 1e-12
        assert abs(NF3_CODEBOOK[4] - 0.16093017270493618) < 1e-12

    def test_half_max_gap(self):
        for name in ("nf4", "nf3"):
            cb = CODEBOOKS[name]
            assert codebook_half_max_gap(name) == float(np.max(np.diff(cb)) / 2)


class TestQuantizeRow:
    def test_zero_block_exact(self):
        blocks = quantize_row(np.zeros(16, np.float32), bits=4, block_size=16)
        assert blocks[0].scale == 0.0
        back = dequantize_row(blocks, bits=4)
        assert np.array_equal(back, np.zeros(16, np.float32))

    def test_constant_block_exact(self):
        # +-1 in the codebook: constant rows with half-representable magnitude
        # reconstruct exactly
        for c in (0.5, -1.5, 3.0):
            row = np.full(16, c, dtype=np.float32)
            back = dequantize_row(quantize_row(row, 4, 16), 4)
            assert np.array_equal(back, row)

    @pytest.mark.parametrize("bits,block", [(4, 16), (3, 16), (4, 64), (3, 8)])
    def test_nearest_entry_oracle_and_error_bound(self, bits, block):
        rng = np.random.default_rng(bits * 100 + block)
        d = 128
        row = rng.standard_normal(d).astype(np.float32)
        blocks = quantize_row(row, bits, block)
        cb = CODEBOOKS["nf4" if bits == 4 else "nf3"]
        half_gap = codebook_half_max_gap("nf4" if bits == 4 else "nf3")
        recon = dequantize_row(blocks, bits)
        for bi, blk in enumerate(blocks):
            seg = row[bi * block : (bi + 1) * block]
            scale = np.float32(blk.scale)
            # exhaustive nearest-entry oracle
            for v, code in zip(seg, blk.codes):
                dists = np.abs(v / scale - cb)
                assert code == int(np.argmin(dists))
            # per-block error bound
            err = np.max(np.abs(seg - recon[bi * block : (bi + 1) * block]))
            assert err <= scale * half_gap + 1e-6

    @given(st.lists(st.floats(-100, 100, width=32), min_size=8, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_bound_holds_for_arbitrary_rows(self, values):
        row = np.array(values, dtype=np.float32)
        blocks = quantize_row(row, 3, 8)
        recon = dequantize_row(blocks, 3)
        scale = np.float32(blocks[0].scale)
        assert np.max(np.abs(row - recon)) <= scale * codebook_half_max_gap("nf3") + 1e-6

    def test_nonfinite_rejected(self):
        row = np.array([1.0, np.nan] + [0.0] * 14, dtype=np.float32)
        with pytest.raises(FloatingPointError):
            quantize_row(row, 4, 16)


class TestCompressionRatio:
    def test_nf4_768(self):
        assert abs(compression_ratio(4, 768) - 386 / 1536) < 1e-12
        assert abs(compression_ratio(4, 768) - 0.2513) < 1e-4

    def test_nf3_128(self):
        assert abs(compression_ratio(3, 128) - 50 / 256) < 1e-12
        assert abs(compression_ratio(3, 128) - 0.1953) < 1e-4

    def test_nonsense_widths_rejected(self):
        with pytest.raises(ValueError):
            compression_ratio(16, 768)
        with pytest.raises(ValueError):
            compression_ratio(3, 4)  # 12 bits: not whole bytes
        with pytest.raises(ValueError):
            compression_ratio(4, 0)


class TestFileFormat:
    def test_header_bytes(self, tmp_path):
        tables = make_tables()
        path = tmp_path / "t.lut"
        write_lut(tables, path, dtype="fp16")
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        version, n_layers, vocab, n_experts, d = struct.unpack_from("<IIIII", raw, 8)
        assert (version, n_layers, vocab, n_experts, d) == (1, 2, 11, 3, 16)
        dtype_code = raw[28]
        (block_size,) = struct.unpack_from("<I", raw, 29)
        assert dtype_code == 1 and block_size == 0
        assert raw[33:64] == b"\x00" * 31
        # payload begins with table 0, token 0, expert 0, dims little-endian f16
        first = np.frombuffer(raw[64 : 64 + 32], dtype="<f2")
        assert np.array_equal(first, tables[0].values[0, 0].astype(np.float16))

    def test_fp32_roundtrip_bit_exact(self, tmp_path):
        tables = make_tables()
        path = tmp_path / "t.lut"
        write_lut(tables, path, dtype="fp32")
        with open_lut(path) as h:
            for i, tab in enumerate(tables):
                rows = h.gather(i, np.arange(11))
                assert rows.tobytes() == tab.values.tobytes()

    def test_fp16_roundtrip_lossless_wrt_rounded_source(self, tmp_path):
        tables = make_tables()
        path = tmp_path / "t.lut"
        write_lut(tables, path, dtype="fp16")
        with open_lut(path) as h:
            rows = h.gather(0, np.arange(11))
        want = tables[0].values.astype(np.float16).astype(np.float32)
        assert rows.tobytes() == want.tobytes()

    def test_file_size_formula(self, tmp_path):
        tables = make_tables()
        for dtype, block in [("fp32", 0), ("fp16", 0), ("nf4", 16), ("nf3", 8)]:
            path = tmp_path / f"t-{dtype}.lut"
            nbytes = write_lut(tables, path, dtype=dtype, block_size=block)
            assert nbytes == path.stat().st_size
            assert nbytes == lut_file_size(2, 11, 3, 16, dtype, block)

    def test_paper_scale_fp16_size_arithmetic(self):
        size = lut_file_size(12, 50000, 4, 768, "fp16")
        assert size == 64 + 2 * 12 * 50000 * 4 * 768
        assert abs(size - 3.69e9) < 0.01e9

    def test_quantized_roundtrip_matches_row_api(self, tmp_path):
        tables = make_tables(seed=5)
        path = tmp_path / "q.lut"
        write_lut(tables, path, dtype="nf3", block_size=8)
        with open_lut(path) as h:
            rows = h.gather(1, np.array([4]))
        want = dequantize_row(quantize_row(tables[1].values[4, 0], 3, 8), 3)
        assert rows[0, 0].tobytes() == want.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.lut"
        path.write_bytes(b"NOTALUT!" + b"\x00" * 100)
        with pytest.raises(BadMagicError):
            open_lut(path)

    def test_version_mismatch(self, tmp_path):
        tables = make_tables()
        path = tmp_path / "v.lut"
        write_lut(tables, path, dtype="fp32")
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(LutVersionError):
            open_lut(path)

    def test_truncated_payload(self, tmp_path):
        tables = make_tables()
        path = tmp_path / "trunc.lut"
        write_lut(tables, path, dtype="fp32")
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(PayloadLengthError):
            open_lut(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "o.lut"
        head = struct.pack("<8sIIIIIBI", MAGIC, 1, 2**31, 2**31, 2**31, 1024, 0, 0)
        path.write_bytes(head + b"\x00" * (HEADER_SIZE - len(head)))
        with pytest.raises(DimensionError):
            open_lut(path)

    def test_invalid_block_for_unquantized(self, tmp_path):
        with pytest.raises(ValueError):
            write_lut(make_tables(), tmp_path / "b.lut", dtype="fp32", block_size=8)


class TestGatherAndTickets:
    def _handle(self, tmp_path, dtype="fp32", block=0):
        tables = make_tables(seed=3)
        path = tmp_path / "g.lut"
        write_lut(tables, path, dtype=dtype, block_size=block)
        return tables, open_lut(path)

    def test_repeated_ids_identical_rows(self, tmp_path):
        _, h = self._handle(tmp_path)
        rows = h.gather(0, np.array([5, 5]))
        assert np.array_equal(rows[0], rows[1])
        h.close()

    def test_every_row_matches_builder(self, tmp_path):
        p = tiny_mole(L=2, vocab=13)
        _, tables = reparameterize(p)
        path = tmp_path / "b.lut"
        write_lut(tables, path, dtype="fp32")
        with open_lut(path) as h:
            for layer in range(2):
                rows = h.gather(layer, np.arange(13))
                assert rows.tobytes() == tables[layer].values.tobytes()

    def test_transfer_accounting_exact(self, tmp_path):
        _, h = self._handle(tmp_path)
        assert h.bytes_read == 0
        h.gather(0, np.array([1, 2, 1]))
        per_id = 3 * 16 * 4  # N * d * fp32
        assert h.bytes_read == 3 * per_id  # no dedup of the repeated id
        h.gather(1, np.array([0]))
        assert h.bytes_read == 4 * per_id
        h.close()

    def test_transfer_accounting_quantized(self, tmp_path):
        _, h = self._handle(tmp_path, dtype="nf3", block=8)
        h.gather(0, np.array([7]))
        row_bytes = (16 // 8) * (2 + 3 * 8 // 8)  # 2 blocks x (scale + 3 bytes)
        assert h.bytes_read == 3 * row_bytes
        h.close()

    def test_prefetch_await_equals_gather(self, tmp_path):
        _, h = self._handle(tmp_path)
        ids = np.array([3, 1, 4])
        want = h.gather(0, ids)
        ticket = h.prefetch(0, ids)
        got = h.await_rows(ticket)
        assert got.tobytes() == want.tobytes()
        h.close()

    def test_outstanding_tickets_independent(self, tmp_path):
        _, h = self._handle(tmp_path)
        t0 = h.prefetch(0, np.array([1]))
        t1 = h.prefetch(1, np.array([2]))
        r1 = h.await_rows(t1)
        r0 = h.await_rows(t0)
        assert np.array_equal(r0, h.gather(0, np.array([1])))
        assert np.array_equal(r1, h.gather(1, np.array([2])))
        h.close()

    def test_double_consume_rejected(self, tmp_path):
        _, h = self._handle(tmp_path)
        t = h.prefetch(0, np.array([1]))
        h.await_rows(t)
        with pytest.raises(TicketError):
            h.await_rows(t)
        h.close()

    def test_threaded_prefetch_matches_sync(self, tmp_path):
        tables = make_tables(seed=3)
        path = tmp_path / "thr.lut"
        write_lut(tables, path, dtype="fp32")
        with open_lut(path, threads=1) as sync, open_lut(path, threads=4) as thr:
            ids = np.array([2, 9, 2, 0])
            a = sync.await_rows(sync.prefetch(1, ids))
            b = thr.await_rows(thr.prefetch(1, ids))
            assert a.tobytes() == b.tobytes()
            assert sync.bytes_read == thr.bytes_read

    def test_out_of_range(self, tmp_path):
        _, h = self._handle(tmp_path)
        with pytest.raises(IndexError):
            h.gather(7, np.array([0]))
        with pytest.raises(IndexError):
            h.gather(0, np.array([999]))
        h.close()

    @pytest.mark.parametrize("dtype, block", [("fp32", 0), ("fp16", 0), ("nf4", 8), ("nf3", 8)])
    def test_gather_equals_per_row_reference(self, tmp_path, dtype, block):
        tables = make_tables(seed=4)
        path = tmp_path / f"{dtype}.lut"
        write_lut(tables, path, dtype=dtype, block_size=block)
        ids = np.array([7, 0, 7, 10, 3, 7, 0])
        with open_lut(path) as h:
            got = h.gather(1, ids)
            read = h.bytes_read
        want = np.stack([reference_record(path, 1, int(i)) for i in ids])
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        record = lut_file_size(1, 1, 3, 16, dtype, block) - HEADER_SIZE
        assert read == ids.size * record  # repeats read and charged again

    def test_read_all_tables(self, tmp_path):
        tables, h = self._handle(tmp_path)
        h.close()
        back = read_all_tables(tmp_path / "g.lut")
        for a, b in zip(tables, back):
            assert a.values.tobytes() == b.values.tobytes()


class TestGoldenBytes:
    """Pin the full byte layout of a small deterministic file."""

    def test_golden_digest_fp16_and_nf3(self, tmp_path):
        import hashlib

        rng = np.random.default_rng(12345)
        tables = [
            LutTable(i, rng.standard_normal((5, 2, 8)).astype(np.float32))
            for i in range(2)
        ]
        p16 = tmp_path / "golden16.lut"
        p3 = tmp_path / "golden3.lut"
        write_lut(tables, p16, dtype="fp16")
        write_lut(tables, p3, dtype="nf3", block_size=8)
        d16 = hashlib.sha256(p16.read_bytes()).hexdigest()
        d3 = hashlib.sha256(p3.read_bytes()).hexdigest()
        # frozen after first write; any layout change must be deliberate
        assert d16 == "bf1160ec0f7d09970242c83d38bf9dc83c672269ef59c1b80af5525ee4d459d4"
        assert d3 == "d3a923b337f973d1cd891d1901bae791d11727bcb306461d2d4b81be4f18f3ca"
