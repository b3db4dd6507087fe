import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_mole

from mole.atomic import atomic_write
from mole.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_model,
    read_tensors,
    save_model,
    write_tensors,
)


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.standard_normal((3, 4)).astype(np.float32),
        "b": rng.standard_normal(7),
        "c": (rng.standard_normal(5) * 100).astype(np.int64),
        "d.half": rng.standard_normal((2, 2)).astype(np.float16),
    }
    path = tmp_path / "t.ckpt"
    write_tensors(path, tensors)
    back = read_tensors(path)
    assert list(back) == list(tensors)
    for k in tensors:
        assert back[k].dtype == tensors[k].dtype
        assert back[k].tobytes() == tensors[k].tobytes()


def test_model_roundtrip(tmp_path):
    p = tiny_mole()
    path = tmp_path / "m.ckpt"
    save_model(path, p)
    q = load_model(path)
    assert q.cfg == p.cfg
    assert not q.inference_form
    assert set(q.tensors) == set(p.tensors)
    for k in p.tensors:
        assert q.tensors[k].tobytes() == p.tensors[k].tobytes()


def test_failed_save_leaves_old_checkpoint(tmp_path):
    """A save that fails part-way (a tensor late in the order has a dtype
    the format cannot hold) leaves the old checkpoint byte-identical and no
    temporary file beside it."""
    path = tmp_path / "m.ckpt"
    save_model(path, tiny_mole(seed=1))
    old = path.read_bytes()
    bad = tiny_mole(seed=2)
    bad.tensors["lm_head"] = bad.tensors["lm_head"].astype(np.int32)
    with pytest.raises(CheckpointError, match="lm_head"):
        save_model(path, bad)
    assert path.read_bytes() == old
    assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]


def test_atomic_text_write_replaces_only_on_success(tmp_path):
    """The helper behind the manifests and CSV files: a clean exit replaces
    the file, a raise inside the block keeps the old text."""
    path = tmp_path / "m.json"
    with atomic_write(path, "w") as f:
        f.write("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path, "w", newline="") as f:
            f.write("new, half written")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == ["m.json"]


def test_header_layout(tmp_path):
    path = tmp_path / "h.ckpt"
    write_tensors(path, {"x": np.zeros(2, dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    version, count = struct.unpack_from("<II", raw, 8)
    assert (version, count) == (VERSION, 1)
    name_len = struct.unpack_from("<H", raw, 16)[0]
    assert raw[18 : 18 + name_len] == b"x"


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        read_tensors(path)


def test_truncated(tmp_path):
    p = tiny_mole()
    path = tmp_path / "m.ckpt"
    save_model(path, p)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 17])
    with pytest.raises(CheckpointError):
        read_tensors(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "t.ckpt"
    write_tensors(path, {"x": np.zeros(2, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        read_tensors(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v.ckpt"
    write_tensors(path, {"x": np.zeros(1, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        read_tensors(path)


def _metadata_offsets(raw):
    """Byte offsets of a checkpoint's header, tensor table entries and
    config tensors: everything but the weight values."""
    offsets = list(range(16))
    off = 16
    for _ in range(struct.unpack_from("<I", raw, 12)[0]):
        (name_len,) = struct.unpack_from("<H", raw, off)
        name = raw[off + 2 : off + 2 + name_len].decode()
        rank = raw[off + 3 + name_len]
        head = 2 + name_len + 2 + 8 * rank
        shape = struct.unpack_from(f"<{rank}Q", raw, off + 4 + name_len)
        nbytes = int(np.prod(shape)) * (8 if name.startswith("__config") else 4)
        offsets += range(off, off + head + (nbytes if name.startswith("__config") else 0))
        off += head + nbytes
    return offsets


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_model(path, tiny_mole(L=1, d=16, n_heads=2, D_s=8, D_r=8, N=2, vocab=11))
    raw = path.read_bytes()
    return path, raw, _metadata_offsets(raw)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_raises_only_checkpoint_error(fuzz_checkpoint, data):
    path, raw, offsets = fuzz_checkpoint
    buf = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3))):
        buf[data.draw(st.sampled_from(offsets))] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(buf))
    try:
        load_model(path)  # the mutation may leave a valid checkpoint
    except CheckpointError:
        pass


@pytest.mark.parametrize("key, index, value, field", [
    ("__config_ints", 0, 3, "'variant'"), ("__config_ints", 0, -1, "'variant'"),
    ("__config_ints", 1, 0, "'L'"), ("__config_ints", 3, 5, "'n_heads'"),
    ("__config_ints", 8, 1, "'vocab'"),
    ("__config_floats", 0, np.nan, "'rotary_fraction'"),
    ("__config_floats", 0, np.inf, "'rotary_fraction'")])
def test_bad_config_names_field(tmp_path, key, index, value, field):
    path = tmp_path / "m.ckpt"
    save_model(path, tiny_mole())
    tensors = read_tensors(path)
    tensors[key][index] = value
    write_tensors(path, tensors)
    with pytest.raises(CheckpointError, match=field):
        load_model(path)


def test_config_tensor_of_wrong_dtype(tmp_path):
    path = tmp_path / "m.ckpt"
    save_model(path, tiny_mole())
    tensors = read_tensors(path)
    tensors["__config_ints"] = tensors["__config_ints"].astype(np.float64)
    write_tensors(path, tensors)
    with pytest.raises(CheckpointError, match="config tensors"):
        load_model(path)


def test_weights_must_match_config(tmp_path):
    p = tiny_mole()
    del p.tensors["layers.1.router"]
    path = tmp_path / "m.ckpt"
    save_model(path, p)
    with pytest.raises(CheckpointError, match="layers.1.router"):
        load_model(path)


def test_non_utf8_name_and_absurd_rank(tmp_path):
    path = tmp_path / "t.ckpt"
    write_tensors(path, {"xy": np.zeros(2, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    path.write_bytes(bytes(raw[:18]) + b"\xff\xfe" + bytes(raw[20:]))
    with pytest.raises(CheckpointError, match="utf-8"):
        read_tensors(path)
    write_tensors(path, {"x": np.zeros((), dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    raw[20] = 70  # rank 70 with zero extents: an empty tensor NumPy cannot shape
    path.write_bytes(bytes(raw[:21]) + b"\x00" * 8 * 70 + bytes(raw[21:]))
    with pytest.raises(CheckpointError, match="'x'"):
        read_tensors(path)


def test_load_model_trims_the_heap_where_it_can(tmp_path, monkeypatch):
    from mole import checkpoint

    p = tiny_mole()
    path = tmp_path / "m.ckpt"
    save_model(path, p)
    calls = []
    monkeypatch.setattr(checkpoint, "_malloc_trim", calls.append)
    q = load_model(path)
    assert calls == [0]
    # a C library without malloc_trim loads the same model
    monkeypatch.setattr(checkpoint, "_malloc_trim", None)
    r = load_model(path)
    for k in p.tensors:
        assert q.tensors[k].tobytes() == r.tensors[k].tobytes() == p.tensors[k].tobytes()
