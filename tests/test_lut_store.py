import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_mole

from mole import lut_store
from mole.lut_store import (
    CODEBOOKS,
    HEADER_SIZE,
    MAGIC,
    NF3_CODEBOOK,
    NF4_CODEBOOK,
    BadMagicError,
    DimensionError,
    LutFormatError,
    LutVersionError,
    PayloadLengthError,
    ReservedBytesError,
    TicketError,
    _quantize_blocks,
    codebook_half_max_gap,
    compression_ratio,
    lut_file_size,
    open_lut,
    read_all_tables,
    write_lut,
)
from mole.reparam import LutTable, reparameterize


def _unpack_codes(packed, bits, block_size):
    """Inverse of ``lut_store._pack_codes``: (..., bits * block_size / 8)
    bytes -> (..., block_size) uint8 codes, each group's integer read
    little-endian and its codes shifted out LSB-first."""
    per_group, width = lut_store._code_groups(bits)
    groups = packed.reshape(packed.shape[:-1] + (-1, width))
    word = groups[..., 0].astype(np.uint32)
    for k in range(1, width):
        word |= groups[..., k].astype(np.uint32) << np.uint32(8 * k)
    codes = np.empty(word.shape + (per_group,), np.uint8)
    for j in range(per_group):
        codes[..., j] = (word >> np.uint32(bits * j)) & np.uint32((1 << bits) - 1)
    return codes.reshape(packed.shape[:-1] + (block_size,))


def _dequantize_blocks(scales, codes, dtype):
    """Codebook entry times the block's float32 scale, code by code."""
    values = np.take(CODEBOOKS[dtype], codes)
    values *= scales.astype(np.float32)[..., None]
    return values.reshape(codes.shape[:-2] + (-1,))


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
        scales, codes = _quantize_blocks(np.zeros(16, np.float32), "nf4", block_size=16)
        assert scales[0] == 0.0
        back = _dequantize_blocks(scales, codes, "nf4")
        assert np.array_equal(back, np.zeros(16, np.float32))

    def test_constant_block_exact(self):
        # +-1 in the codebook: constant rows with half-representable magnitude
        # reconstruct exactly
        for c in (0.5, -1.5, 3.0):
            row = np.full(16, c, dtype=np.float32)
            back = _dequantize_blocks(*_quantize_blocks(row, "nf4", 16), "nf4")
            assert np.array_equal(back, row)

    @pytest.mark.parametrize("bits,block", [(4, 16), (3, 16), (4, 64), (3, 8)])
    def test_nearest_entry_oracle_and_error_bound(self, bits, block):
        rng = np.random.default_rng(bits * 100 + block)
        d = 128
        dtype = "nf4" if bits == 4 else "nf3"
        row = rng.standard_normal(d).astype(np.float32)
        scales, codes = _quantize_blocks(row, dtype, block)
        cb = CODEBOOKS[dtype]
        half_gap = codebook_half_max_gap(dtype)
        recon = _dequantize_blocks(scales, codes, dtype)
        for bi, (blk_scale, blk_codes) in enumerate(zip(scales, codes)):
            seg = row[bi * block : (bi + 1) * block]
            scale = np.float32(blk_scale)
            # exhaustive nearest-entry oracle
            for v, code in zip(seg, blk_codes):
                dists = np.abs(v / scale - cb)
                assert code == int(np.argmin(dists))
            # per-block error bound
            err = np.max(np.abs(seg - recon[bi * block : (bi + 1) * block]))
            assert err <= scale * half_gap + 1e-6

    @given(st.lists(st.floats(-100, 100, width=32), min_size=8, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_bound_holds_for_arbitrary_rows(self, values):
        row = np.array(values, dtype=np.float32)
        scales, codes = _quantize_blocks(row, "nf3", 8)
        recon = _dequantize_blocks(scales, codes, "nf3")
        scale = np.float32(scales[0])
        assert np.max(np.abs(row - recon)) <= scale * codebook_half_max_gap("nf3") + 1e-6

    def test_nonfinite_rejected(self):
        row = np.array([1.0, np.nan] + [0.0] * 14, dtype=np.float32)
        with pytest.raises(FloatingPointError):
            _quantize_blocks(row, "nf4", 16)

    @staticmethod
    def argmin_codes(values, dtype, block):
        """Nearest codebook entry by exhaustive |x - entry| argmin (lower index
        on ties), with the zero code for blocks whose stored scale is zero."""
        cb = CODEBOOKS[dtype]
        blocks = values.reshape(values.shape[:-1] + (-1, block)).astype(np.float32)
        scale = np.abs(blocks).max(axis=-1).astype(np.float16).astype(np.float32)
        normalized = blocks / np.where(scale > 0, scale, 1.0)[..., None]
        codes = np.abs(normalized[..., None] - cb).argmin(axis=-1).astype(np.uint8)
        return np.where(scale[..., None] > 0, codes, np.uint8(np.argmin(np.abs(cb))))

    @pytest.mark.parametrize("dtype", ["nf4", "nf3"])
    def test_codes_equal_argmin_reference(self, dtype):
        cb = CODEBOOKS[dtype]
        rng = np.random.default_rng(11)
        random = rng.standard_normal((64, 32)).astype(np.float32)
        random *= rng.choice([1e-3, 1.0, 50.0], (64, 1)).astype(np.float32)
        # every midpoint between neighbouring entries, exactly and one ulp
        # either side, each block led by 1.0 so the stored scale is exactly 1
        mid = ((cb[:-1] + cb[1:]) / 2).astype(np.float32)
        probes = np.concatenate([mid, np.nextafter(mid, np.float32(-2)),
                                 np.nextafter(mid, np.float32(2)), cb, -mid])
        probes = np.pad(probes, (0, -probes.size % 7))
        exact = np.concatenate([np.ones((probes.size // 7, 1), np.float32),
                                probes.reshape(-1, 7)], axis=1)
        # a zero scale, a scale that underflows half precision to zero, and a
        # subnormal half scale
        tiny = np.array([np.zeros(8), np.full(8, 1e-9), np.linspace(-3e-6, 6e-6, 8)],
                        np.float32)
        for values in (random, exact, tiny):
            _, codes = _quantize_blocks(values, dtype, 8)
            assert codes.dtype == np.uint8
            assert np.array_equal(codes, self.argmin_codes(values, dtype, 8))
        _, codes = _quantize_blocks(tiny, dtype, 8)
        assert np.all(codes[:2] == np.argmin(np.abs(cb)))
        assert len(set(codes[2].ravel().tolist())) > 1  # subnormal scale still codes


class TestThresholdCodes:
    """The encoder's frozen thresholds and the codes counted from them."""

    @staticmethod
    def takes_lower(x, lower, upper):
        return np.float32(x - lower) <= np.float32(upper - x)

    @pytest.mark.parametrize("dtype", ["nf4", "nf3"])
    def test_thresholds_follow_the_float32_rule(self, dtype):
        cb, thresholds = CODEBOOKS[dtype], lut_store.THRESHOLDS[dtype]
        assert thresholds.dtype == np.float32 and thresholds.size == cb.size - 1
        for lower, upper, t in zip(cb[:-1], cb[1:], thresholds):
            assert lower < t <= upper
            assert self.takes_lower(t, lower, upper)
            assert not self.takes_lower(np.nextafter(t, np.float32(np.inf)), lower, upper)

    @staticmethod
    def ulp_neighbourhoods(points, ulps=64):
        """Every float32 within ``ulps`` ulps of each point, the point included."""
        around = [points.astype(np.float32)]
        for direction in (-np.inf, np.inf):
            step = around[0]
            for _ in range(ulps):
                step = np.nextafter(step, np.float32(direction))
                around.append(step)
        return np.concatenate(around)

    @pytest.mark.parametrize("dtype", ["nf4", "nf3"])
    @pytest.mark.parametrize("block", [6, 24])
    def test_codes_equal_argmin_near_every_threshold_and_entry(self, dtype, block):
        cb = CODEBOOKS[dtype]
        probes = self.ulp_neighbourhoods(np.concatenate([lut_store.THRESHOLDS[dtype], cb]))
        probes = np.concatenate([probes, -probes])
        probes = np.pad(probes, (0, -probes.size % (block - 1)))
        # each block holds one +-1.0 at a position that walks the block, so
        # the stored scale is 1 and a probe is its own normalized value; a
        # block holding a probe just above 1 in magnitude still stores the
        # half scale 1, so that probe normalizes above 1
        blocks = probes.reshape(-1, block - 1)
        lead = np.arange(len(blocks)) % block
        rows = np.empty((len(blocks), block), np.float32)
        for b, (at, rest) in enumerate(zip(lead, blocks)):
            rows[b] = np.insert(rest, at, np.float32(1.0 if b % 2 else -1.0))
        # a block whose absmax 1 + 2^-12 rounds to the half scale 1.0
        over = np.resize(np.float32([1 + 2**-12, -(1 + 2**-12), 0.5]), block)
        values = np.concatenate([rows, over[None]])
        values = np.pad(values, ((0, -len(values) % (48 // block)), (0, 0))).reshape(-1, 48)
        scales, codes = _quantize_blocks(values, dtype, block)
        blocks = values.reshape(values.shape[0], -1, block)
        assert np.array_equal(scales, np.abs(blocks).max(axis=-1).astype(np.float16))
        assert np.any(np.abs(blocks) > scales.astype(np.float32)[..., None])  # |x| > 1
        assert np.array_equal(codes, TestQuantizeRow.argmin_codes(values, dtype, block))


class TestGroupDecode:
    """Each whole-byte code group decodes through one table row."""

    @staticmethod
    def oracle(packed, dtype, codes_per_row):
        """Codebook values of the codes ``_unpack_codes`` reads from ``packed``."""
        bits = lut_store.QUANT_BITS[dtype]
        return np.take(CODEBOOKS[dtype], _unpack_codes(packed, bits, codes_per_row))

    def decode(self, tmp_path, dtype, packed):
        """``gather`` of one-block rows whose scale is 1.0 and codes ``packed``."""
        codes_per_row = packed.shape[1] * 8 // lut_store.QUANT_BITS[dtype]
        scale = np.full((len(packed), 2), np.frombuffer(np.float16(1.0).tobytes(), np.uint8))
        path = tmp_path / f"{dtype}.lut"
        path.write_bytes(lut_store._pack_header(1, len(packed), 1, codes_per_row, dtype,
                                                codes_per_row)
                         + np.concatenate([scale, packed], axis=1).tobytes())
        with open_lut(path) as h:
            return h.gather(0, np.arange(len(packed)))[:, 0]

    def test_nf4_every_byte(self, tmp_path):
        packed = np.arange(256, dtype=np.uint8)[:, None]
        want = self.oracle(packed, "nf4", 2)
        assert np.array_equal(lut_store._decode_table("nf4"), want)
        assert self.decode(tmp_path, "nf4", packed).tobytes() == want.tobytes()

    def test_nf3_every_12_bit_pattern_in_both_halves(self, tmp_path):
        low = np.arange(4096, dtype=np.uint32)
        word = low | (4095 - low) << 12  # each pattern once in each half
        packed = np.stack([(word >> 8 * k).astype(np.uint8) for k in range(3)], axis=1)
        want = self.oracle(packed, "nf3", 8)
        assert np.array_equal(lut_store._decode_table("nf3"), want[:, :4])
        assert np.array_equal(lut_store._decode_table("nf3")[4095 - low], want[:, 4:])
        assert self.decode(tmp_path, "nf3", packed).tobytes() == want.tobytes()

    def test_tables_are_read_only(self):
        for dtype in ("nf4", "nf3"):
            table = lut_store._decode_table(dtype)
            assert table is lut_store._decode_table(dtype)  # built once
            with pytest.raises(ValueError):
                table[0, 0] = 0.0


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
        want = _dequantize_blocks(*_quantize_blocks(tables[1].values[4, 0], "nf3", 8), "nf3")
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

    @pytest.mark.parametrize("offset", range(33, HEADER_SIZE))
    def test_nonzero_reserved_byte_names_offset(self, fuzz_lut, tmp_path, offset):
        _, raw = fuzz_lut
        buf = bytearray(raw)
        buf[offset] = 0x40
        buf[HEADER_SIZE - 1] = 1  # a later non-zero byte: the first one is named
        path = tmp_path / "r.lut"
        path.write_bytes(bytes(buf))
        with pytest.raises(ReservedBytesError, match=f"reserved header byte {offset} is "
                                                      f"{buf[offset]}, must be 0"):
            open_lut(path)

    def test_invalid_block_for_unquantized(self, tmp_path):
        with pytest.raises(ValueError):
            write_lut(make_tables(), tmp_path / "b.lut", dtype="fp32", block_size=8)

    def test_failed_rewrite_leaves_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "a.lut"
        write_lut(make_tables(seed=1), path, dtype="nf4", block_size=8)
        before = path.read_bytes()
        encode, calls = lut_store._encode_rows, []

        def fail_second_layer(*args):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return encode(*args)

        monkeypatch.setattr(lut_store, "_encode_rows", fail_second_layer)
        with pytest.raises(OSError, match="disk full"):
            write_lut(make_tables(seed=2), path, dtype="nf4", block_size=8)
        assert len(calls) == 2  # the header and a layer were written first
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["a.lut"]

    @pytest.mark.parametrize("dtype", ["nf4", "nf3"])
    def test_encode_chunk_size_moves_no_byte(self, tmp_path, monkeypatch, dtype):
        import hashlib

        tables = make_tables(seed=6)  # 11 x 3 = 33 rows per layer
        digests = set()
        for rows in (1, 7, 33):
            monkeypatch.setattr(lut_store, "_ENCODE_ROWS", rows)
            path = tmp_path / f"{dtype}-{rows}.lut"
            write_lut(tables, path, dtype=dtype, block_size=8)
            digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
        assert len(digests) == 1

    def test_open_handle_survives_rewrite(self, tmp_path):
        path = tmp_path / "a.lut"
        old, new = make_tables(seed=1), make_tables(seed=2, vocab=5)
        write_lut(old, path, dtype="fp32")
        with open_lut(path) as h:
            write_lut(new, path, dtype="fp32")
            for layer, table in enumerate(old):
                assert h.gather(layer, np.arange(11)).tobytes() == table.values.tobytes()
        with open_lut(path) as h:
            assert h.gather(1, np.arange(5)).tobytes() == new[1].values.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_header_raises_only_format_errors(self, fuzz_lut, data):
        path, raw = fuzz_lut
        buf = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 3))):
            buf[data.draw(st.integers(8, HEADER_SIZE - 1))] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(buf))
        try:
            with open_lut(path) as h:  # the mutation may leave a valid header
                h.gather(0, np.array([0]))
        except LutFormatError:
            pass


@pytest.fixture(scope="module")
def fuzz_lut(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "h.lut"
    write_lut(make_tables(), path, dtype="nf4", block_size=8)
    return path, path.read_bytes()


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

    def test_out_of_range(self, tmp_path):
        _, h = self._handle(tmp_path)
        with pytest.raises(IndexError):
            h.gather(7, np.array([0]))
        with pytest.raises(IndexError):
            h.gather(0, np.array([999]))
        h.close()

    def test_closed_handle_raises_value_error_naming_path(self, tmp_path):
        _, h = self._handle(tmp_path)
        ticket = h.prefetch(0, np.array([1]))
        h.close()
        with pytest.raises(ValueError, match=f"{h.path}: LUT handle is closed"):
            h.gather(0, np.array([1]))
        with pytest.raises(ValueError, match=f"{h.path}: LUT handle is closed"):
            h.await_rows(ticket)
        with pytest.raises(ValueError, match="closed"):
            h.await_rows(h.prefetch(1, np.array([2])))

    def test_threads_share_counter_and_close(self, tmp_path):
        """Reader threads racing a close get their rows or ValueError, never
        BufferError, and every row returned is charged exactly once."""
        tables, h = self._handle(tmp_path)
        served, errors = [0] * 6, []

        def read(worker):
            ids = np.array([worker % 11, 4, worker % 11])
            try:
                for _ in range(400):
                    rows = h.gather(worker % 2, ids)
                    assert rows.tobytes() == tables[worker % 2].values[ids].tobytes()
                    served[worker] += ids.size
            except ValueError:
                pass
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read, args=(w,)) for w in range(6)]
            for w in workers:
                w.start()
            while sum(served) < 600 and any(w.is_alive() for w in workers):
                time.sleep(1e-4)
            h.close()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert h.bytes_read == sum(served) * 3 * 16 * 4

    def test_close_is_idempotent(self, tmp_path):
        _, h = self._handle(tmp_path)
        with h:
            h.gather(0, np.array([1]))
        h.close()
        h.close()
        assert h.bytes_read == 3 * 16 * 4

    @pytest.mark.parametrize("dtype, block", [("fp32", 0), ("fp16", 0), ("nf4", 8), ("nf3", 8)])
    def test_rows_are_owned_copies(self, tmp_path, dtype, block):
        _, h = self._handle(tmp_path, dtype, block)
        kept = [h.gather(layer, np.array([i, 4, i])) for layer in (0, 1) for i in range(11)]
        kept.append(h.await_rows(h.prefetch(1, np.array([3]))))
        want = [r.copy() for r in kept]
        h.close()  # no row is a view into the map, so unmapping succeeds
        for got, ref in zip(kept, want):
            assert got.flags.owndata or got.base.flags.owndata
            assert got.flags.writeable
            assert got.tobytes() == ref.tobytes()

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
