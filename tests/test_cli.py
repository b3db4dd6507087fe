import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mole.checkpoint import read_tensors, write_tensors
from mole.cli import main
from mole.lut_store import write_lut
from mole.reparam import LutTable

TOY_CONFIG = {
    "model": {
        "variant": "mole", "L": 1, "d": 32, "n_heads": 4, "D_s": 48, "D_r": 24,
        "N": 2, "k": 2, "vocab": 61, "rotary_fraction": 0.25, "max_seq": 32,
    },
    "train": {
        "peak_lr": 2e-3, "total_steps": 12, "batch": 2, "seq_len": 16, "seed": 9,
    },
    "corpus": {"kind": "synthetic", "length": 2048, "pattern_period": 12, "seed": 4},
}


@pytest.fixture
def toy_config_path(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TOY_CONFIG))
    return path


def run(argv):
    return main([str(a) for a in argv])


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestTrain:
    def test_toy_run_emits_artifacts(self, toy_config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--config", toy_config_path, "--out", out]) == 0
        assert (out / "model.ckpt").exists()
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,lr,lm_loss,z_loss,balance_loss,total"
        assert len(trace) == 1 + 12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert "checkpoint" in manifest["outputs"]
        kernel = manifest["kernel"]
        assert set(kernel) == {"backend", "tile_rows", "numpy_version", "blas_name",
                               "blas_version", "OPENBLAS_NUM_THREADS"}
        assert set(kernel["backend"].values()) <= {"tiled-blas", "sequential"}
        assert kernel["numpy_version"] == np.__version__

    def test_missing_field_exit_2_names_field(self, tmp_path, capsys):
        bad = dict(TOY_CONFIG)
        bad["model"] = {k: v for k, v in TOY_CONFIG["model"].items() if k != "vocab"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run(["train", "--config", path, "--out", tmp_path / "x"]) == 2
        assert "vocab" in capsys.readouterr().err

    def test_nan_rotary_fraction_exit_2_names_field(self, tmp_path, capsys):
        bad = {**TOY_CONFIG, "model": {**TOY_CONFIG["model"], "rotary_fraction": float("nan")}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))  # JSON as Python writes and reads it: NaN
        assert run(["train", "--config", path, "--out", tmp_path / "x"]) == 2
        assert "'rotary_fraction'" in capsys.readouterr().err

    def test_same_seed_identical_digests(self, toy_config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["train", "--config", toy_config_path, "--out", a])
        run(["train", "--config", toy_config_path, "--out", b])
        assert digest(a / "model.ckpt") == digest(b / "model.ckpt")

    def test_loss_decreases(self, toy_config_path, tmp_path):
        out = tmp_path / "run"
        run(["train", "--config", toy_config_path, "--out", out, "--steps", "40"])
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        first = float(rows[0].split(",")[2])
        last = float(rows[-1].split(",")[2])
        assert last < first


class TestPipeline:
    @pytest.fixture
    def trained(self, toy_config_path, tmp_path):
        out = tmp_path / "run"
        run(["train", "--config", toy_config_path, "--out", out])
        return out / "model.ckpt"

    def test_reparam_verify_infer(self, trained, tmp_path, capsys):
        lut = tmp_path / "model.lut"
        assert run(["reparam", "--checkpoint", trained, "--out", lut]) == 0
        out = capsys.readouterr().out
        assert "1 layers x 61 ids x 2 experts x 32 dims" in out
        assert lut.exists()

        assert run(["verify", "--checkpoint", trained, "--lut", lut,
                    "--prompts", "10"]) == 0
        assert "PASS" in capsys.readouterr().out

        assert run(["infer", "--checkpoint", trained, "--lut", lut,
                    "--runtime", "mole-lut", "--prompt", "1,2,3",
                    "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "lane 0:" in out

    def test_infer_accepts_stripped_checkpoint(self, trained, tmp_path, capsys):
        lut = tmp_path / "model.lut"
        run(["reparam", "--checkpoint", trained, "--out", lut])
        capsys.readouterr()
        streams = []
        for ckpt in (trained, tmp_path / "model.lut.infer.ckpt"):
            assert run(["infer", "--checkpoint", ckpt, "--lut", lut, "--runtime", "mole-lut",
                        "--prompt", "1,2,3", "--prompt", "4,5", "--steps", "4"]) == 0
            streams.append(capsys.readouterr().out)
        assert streams[0] == streams[1] and "lane 1:" in streams[0]

    @pytest.mark.parametrize("prompt, bad", [("1,61", "'61'"), ("2,-3", "'-3'"),
                                             ("1,x", "'x'")])
    def test_infer_bad_prompt_token_exit_2_names_flag(self, trained, capsys, prompt, bad):
        # toy vocab is 61: ids 61 and -3 are out of range, x is no integer
        assert run(["infer", "--checkpoint", trained, "--prompt", "4,5",
                    "--prompt", prompt, "--steps", "2"]) == 2
        err = capsys.readouterr().err
        assert "--prompt" in err and f"token {bad}" in err and "[0, 61)" in err

    @pytest.mark.parametrize("flag, value", [("--steps", "0"), ("--steps", "-3"),
                                             ("--bandwidth-gbps", "0"),
                                             ("--bandwidth-gbps", "nan"),
                                             ("--bandwidth-gbps", "inf")])
    def test_infer_bad_decode_flag_exit_2_names_flag(self, trained, capsys, flag, value):
        argv = ["infer", "--checkpoint", trained, "--prompt", "4,5", "--steps", "2"]
        assert run(argv + [flag, value]) == 2
        captured = capsys.readouterr()
        assert f"config field '{flag}': must be positive" in captured.err
        assert "lane 0:" not in captured.out

    def test_corrupted_lut_verify_fails_exit_1(self, trained, tmp_path, capsys):
        lut = tmp_path / "model.lut"
        run(["reparam", "--checkpoint", trained, "--out", lut])
        raw = bytearray(lut.read_bytes())
        raw[64:4096] = b"\x7f" * (4096 - 64)  # stomp a payload span
        lut.write_bytes(bytes(raw))
        assert run(["verify", "--checkpoint", trained, "--lut", lut,
                    "--prompts", "10"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--prompts", "--max-len"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_verify_nonpositive_count_exit_2_names_flag(self, trained, tmp_path, capsys,
                                                        flag, value):
        lut = tmp_path / "model.lut"
        run(["reparam", "--checkpoint", trained, "--out", lut])
        capsys.readouterr()
        assert run(["verify", "--checkpoint", trained, "--lut", lut, flag, value]) == 2
        captured = capsys.readouterr()
        assert f"config field '{flag}': must be positive, got {value}" in captured.err
        assert "PASS" not in captured.out

    def test_truncated_lut_is_io_error(self, trained, tmp_path, capsys):
        lut = tmp_path / "model.lut"
        run(["reparam", "--checkpoint", trained, "--out", lut])
        lut.write_bytes(lut.read_bytes()[:-3])
        assert run(["verify", "--checkpoint", trained, "--lut", lut]) == 3
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "infer"])
    def test_lut_for_other_shape_exit_2_names_dims(self, trained, tmp_path, capsys, command):
        lut = tmp_path / "other.lut"
        write_lut([LutTable(0, np.zeros((61, 3, 32), np.float32))], lut)
        argv = [command, "--checkpoint", trained, "--lut", lut]
        if command == "infer":
            argv += ["--runtime", "mole-lut", "--prompt", "1,2,3", "--steps", "2"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "n_experts 3 (checkpoint has 2)" in err

    @pytest.mark.parametrize("command", ["reparam", "verify", "infer"])
    def test_bad_variant_index_exit_3_names_field(self, trained, tmp_path, capsys, command):
        tensors = read_tensors(trained)
        tensors["__config_ints"][0] = 7  # no such variant
        bad = tmp_path / "bad.ckpt"
        write_tensors(bad, tensors)
        rest = {"reparam": ["--out", tmp_path / "t.lut"], "verify": ["--lut", tmp_path / "t.lut"],
                "infer": ["--prompt", "1,2"]}[command]
        assert run([command, "--checkpoint", bad, *rest]) == 3
        assert "'variant'" in capsys.readouterr().err

    def test_dense_checkpoint_reparam_refused(self, tmp_path, capsys):
        cfg = {
            "model": {"variant": "dense", "L": 1, "d": 32, "n_heads": 4,
                      "D_s": 48, "D_r": 0, "N": 0, "k": 0, "vocab": 61,
                      "rotary_fraction": 0.25, "max_seq": 32},
            "train": {"total_steps": 2, "batch": 2, "seq_len": 8, "seed": 1},
            "corpus": {"kind": "synthetic", "length": 512,
                       "pattern_period": 8, "seed": 2},
        }
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "dense-run"
        run(["train", "--config", path, "--out", out])
        code = run(["reparam", "--checkpoint", out / "model.ckpt",
                    "--out", tmp_path / "x.lut"])
        assert code == 2
        assert "dense" in capsys.readouterr().err

    def test_quantize_ratio(self, trained, tmp_path, capsys):
        lut16 = tmp_path / "m16.lut"
        lut3 = tmp_path / "m3.lut"
        run(["reparam", "--checkpoint", trained, "--out", lut16, "--dtype", "fp16"])
        assert run(["quantize", "--lut", lut16, "--out", lut3,
                    "--dtype", "nf3", "--block-size", "8"]) == 0
        payload16 = lut16.stat().st_size - 64
        payload3 = lut3.stat().st_size - 64
        # nf3 blocks of 8 over fp16: (8*3/8 + 2) / (8*2)
        assert abs(payload3 / payload16 - 5 / 16) < 1e-12


class TestBenchAndReport:
    def test_bench_mole_constant_bytes(self, tmp_path, capsys):
        out = tmp_path / "meter.csv"
        assert run(["bench", "--runtime", "mole-lut", "--preset", "160M-mole-4e",
                    "--batch", "2", "--steps", "8", "--out", out]) == 0
        rows = out.read_text().splitlines()[1:]
        byte_col = {r.split(",")[3] for r in rows}
        assert len(byte_col) == 1

    def test_bench_moe_batch32_mean_loads(self, capsys):
        assert run(["bench", "--runtime", "moe-offload", "--preset", "160M-moe-10e",
                    "--batch", "32", "--steps", "4000", "--seed", "3"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert abs(summary["mean_experts_loaded_per_layer"] - 8.0) <= 0.2

    def test_bench_dense_zero_rows(self, capsys):
        assert run(["bench", "--runtime", "dense", "--preset", "410M-dense",
                    "--steps", "16"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["total_bytes"] == 0

    def test_report_paper_check_csv(self, capsys):
        assert run(["report"]) == 0
        captured = capsys.readouterr()
        rows = captured.out.strip().splitlines()
        assert rows[0] == "config,metric,computed,published,exact,status"
        statuses = [r.split(",")[-1] for r in rows[1:]]
        assert statuses.count("PASS") == 19 and statuses.count("WARN") == 1
        assert "19 PASS, 1 WARN, 0 FAIL" in captured.err

    def test_report_json(self, capsys):
        assert run(["report", "--format", "json"]) == 0
        cells = json.loads(capsys.readouterr().out)
        assert len(cells) == 20
        statuses = {c["status"] for c in cells}
        assert statuses == {"PASS", "WARN"}

    def test_report_custom_config(self, toy_config_path, capsys):
        assert run(["report", "--config", toy_config_path]) == 0
        out = capsys.readouterr().out
        assert "custom" in out and "PASS" not in out

    @pytest.mark.parametrize("flag", ["--steps", "--batch", "--bandwidth-gbps"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_bench_nonpositive_count_exit_2_names_field(self, flag, value, capsys):
        assert run(["bench", "--runtime", "dense", "--preset", "410M-dense",
                    flag, value]) == 2
        assert f"config field '{flag}': must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "1e300"])
    def test_bench_nonfinite_bandwidth_exit_2_names_flag(self, value, capsys):
        # 1e300 GB/s is finite, but not in bytes per second
        assert run(["bench", "--runtime", "moe-offload", "--preset", "410M-moe-10e",
                    "--bandwidth-gbps", value]) == 2
        captured = capsys.readouterr()
        assert "config field '--bandwidth-gbps': must be positive and finite" in captured.err
        assert captured.out == ""

    def test_unknown_preset_exit_2(self, capsys):
        assert run(["bench", "--runtime", "dense", "--preset", "nope"]) == 2
