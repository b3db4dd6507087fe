"""Operator entry point: train, reparam, verify, infer, bench, quantize,
report.

Every artifact-producing command drops a JSON manifest next to its outputs
(resolved configs, seeds, sha256 of inputs and outputs, and the matmul
kernel and BLAS that produced the bits) so runs can be reproduced
bit-for-bit.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, analyst, checkpoint, engine, kernels, lut_store, reparam, trainer
from .atomic import atomic_write
from .config import (
    PAPER_CONFIGS,
    ConfigError,
    CorpusConfig,
    ModelConfig,
    TrainConfig,
    load_config,
)
from .model import init_params

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Documented verification tolerances per LUT storage dtype. fp32 tables are
# bit-exact reconstructions of the training-form expert path. fp16 rows carry
# one half-precision rounding (2^-11 relative), allowed a 4x headroom for
# cross-layer growth. Quantized rows obey the per-block invariant
# |x - x_hat| <= scale * half_max_gap, so each layer's routed term (a convex
# combination of rows) is off by at most that fraction of its scale; the
# documented tolerance is twice the per-block bound, covering amplification
# through later layers. Observed worst cases on seeded tiny models run 7-30x
# below these limits.
VERIFY_TOLERANCES = {
    "fp32": 1e-5,
    "fp16": 2e-3,
    "nf4": 2 * lut_store.codebook_half_max_gap("nf4"),   # ~0.304
    "nf3": 2 * lut_store.codebook_half_max_gap("nf3"),   # ~0.521
}


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def kernel_provenance() -> dict:
    """What decides the bits of a run: the matmul kernel chosen per dtype,
    its tile height, NumPy and its BLAS, and the BLAS thread variable as set."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 has no dict mode
        blas = {}
    return {
        "backend": {np.dtype(t).name: kernels.backend(t) for t in kernels.FLOAT_DTYPES},
        "tile_rows": kernels.TILE_ROWS,
        "numpy_version": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def write_manifest(path: Path, command: str, config: dict, seed: int | None,
                   inputs: dict[str, str], outputs: dict[str, str]) -> None:
    manifest = {
        "tool_version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "kernel": kernel_provenance(),
        "inputs": {k: sha256_file(v) for k, v in inputs.items()},
        "outputs": {k: sha256_file(v) for k, v in outputs.items()},
    }
    with atomic_write(path, "w") as f:
        f.write(json.dumps(manifest, indent=2) + "\n")


def build_corpus(ccfg: CorpusConfig, vocab: int) -> np.ndarray:
    if ccfg.kind == "file":
        data = Path(ccfg.path).read_bytes()
        ids = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
        if vocab < 256:
            ids = ids % vocab
        return ids
    return trainer.synthetic_corpus(ccfg.length, ccfg.pattern_period, ccfg.seed, vocab)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    mcfg, tcfg, ccfg = load_config(args.config)
    if args.seed is not None:
        tcfg = TrainConfig(**{**asdict(tcfg), "betas": tcfg.betas, "seed": args.seed})
    if args.steps is not None:
        tcfg = TrainConfig(**{**asdict(tcfg), "betas": tcfg.betas,
                              "total_steps": args.steps})
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = build_corpus(ccfg, mcfg.vocab)
    params = init_params(mcfg, seed=tcfg.seed)
    result = trainer.train(params, corpus, tcfg, log_every=args.log_every)
    ckpt = out_dir / "model.ckpt"
    trace = out_dir / "trace.csv"
    checkpoint.save_model(ckpt, result.params)
    trainer.write_trace_csv(trace, result.trace)
    write_manifest(
        out_dir / "manifest.json", "train",
        {"model": asdict(mcfg), "train": asdict(tcfg), "corpus": asdict(ccfg),
         "config_path": str(args.config)},
        tcfg.seed,
        inputs={"config": args.config},
        outputs={"checkpoint": str(ckpt), "trace": str(trace)},
    )
    first, last = result.trace[0].lm, result.trace[-1].lm
    print(f"trained {mcfg.variant} for {tcfg.total_steps} steps: "
          f"lm loss {first:.4f} -> {last:.4f}")
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def cmd_reparam(args) -> int:
    params = checkpoint.load_model(args.checkpoint)
    if params.cfg.variant != "mole":
        print(f"error: re-parameterization applies to mole checkpoints; "
              f"this one is '{params.cfg.variant}' (its experts feed on hidden "
              f"states, so no finite lookup table exists)", file=sys.stderr)
        return EXIT_USAGE
    infer_params, tables = reparam.reparameterize(params)
    out = Path(args.out)
    nbytes = lut_store.write_lut(tables, out, dtype=args.dtype,
                                 block_size=args.block_size)
    infer_ckpt = out.with_suffix(out.suffix + ".infer.ckpt")
    checkpoint.save_model(infer_ckpt, infer_params)
    cfg = params.cfg
    print(f"LUT: {cfg.L} layers x {cfg.vocab} ids x {cfg.N} experts x {cfg.d} dims, "
          f"dtype {args.dtype}, {nbytes} bytes")
    print(f"inference checkpoint: {infer_ckpt}")
    write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"), "reparam",
        {"dtype": args.dtype, "block_size": args.block_size},
        None,
        inputs={"checkpoint": args.checkpoint},
        outputs={"lut": str(out), "inference_checkpoint": str(infer_ckpt)},
    )
    return EXIT_OK


def _random_prompts(cfg: ModelConfig, count: int, seed: int, max_len: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    prompts = []
    for _ in range(count):
        length = int(rng.integers(1, max_len + 1))
        prompts.append(rng.integers(0, cfg.vocab, size=length))
    return prompts


def cmd_verify(args) -> int:
    for flag, value in (("--prompts", args.prompts), ("--max-len", args.max_len)):
        if value <= 0:
            raise ConfigError(flag, f"must be positive, got {value}")
    params = checkpoint.load_model(args.checkpoint)
    if params.cfg.variant != "mole":
        print("error: verification compares the two mole forms; checkpoint "
              f"variant is '{params.cfg.variant}'", file=sys.stderr)
        return EXIT_USAGE
    with lut_store.open_lut(args.lut) as handle:
        cfg = params.cfg
        check_lut_matches(cfg, handle.header)
        tolerance = args.tolerance
        if tolerance is None:
            tolerance = VERIFY_TOLERANCES[handle.header.dtype]
        infer_params = reparam.inference_params(params)
        prompts = _random_prompts(cfg, args.prompts, args.seed,
                                  min(args.max_len, cfg.max_seq))
        report = reparam.verify_equivalence(params, infer_params, handle,
                                            prompts, tolerance)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def check_lut_matches(cfg: ModelConfig, header: lut_store.LutFileHeader) -> None:
    """Raise ConfigError naming each LUT header dim the checkpoint disagrees with."""
    dims = {"n_layers": (header.n_layers, cfg.L), "vocab": (header.vocab, cfg.vocab),
            "n_experts": (header.n_experts, cfg.N), "d": (header.d, cfg.d)}
    bad = [f"{name} {got} (checkpoint has {want})"
           for name, (got, want) in dims.items() if got != want]
    if bad:
        raise ConfigError("lut", "header dims do not match the checkpoint: " + ", ".join(bad))


def _parse_prompt(text: str, vocab: int) -> np.ndarray:
    """One ``--prompt`` value: comma-separated token ids in [0, vocab)."""
    ids = []
    for tok in text.split(","):
        try:
            ids.append(int(tok))
            valid = 0 <= ids[-1] < vocab
        except ValueError:
            valid = False
        if not valid:
            raise ConfigError("--prompt", f"token {tok!r} of {text!r} is not a token id "
                              f"of the checkpoint's vocab [0, {vocab})")
    return np.array(ids)


def _decode_flags(args) -> float:
    """Check ``--steps`` and ``--bandwidth-gbps`` of infer and bench; returns
    the link rate in bytes per second."""
    if args.steps <= 0:
        raise ConfigError("--steps", f"must be positive, got {args.steps}")
    rate = args.bandwidth_gbps * 1e9
    if not 0 < rate < math.inf:
        raise ConfigError("--bandwidth-gbps",
                          f"must be positive and finite, got {args.bandwidth_gbps}")
    return rate


def cmd_infer(args) -> int:
    rate = _decode_flags(args)
    params = checkpoint.load_model(args.checkpoint)
    prompts = [_parse_prompt(p, params.cfg.vocab) for p in args.prompt]
    lut = None
    run_params = params
    try:
        if args.runtime == "mole-lut":
            if not args.lut:
                print("error: --lut is required for the mole-lut runtime", file=sys.stderr)
                return EXIT_USAGE
            lut = lut_store.open_lut(args.lut)
            check_lut_matches(params.cfg, lut.header)
            run_params = reparam.inference_params(params)
        bw = analyst.BandwidthModel(bytes_per_second=rate)
        result = engine.greedy_decode(run_params, prompts, args.steps,
                                      runtime=args.runtime, lut=lut,
                                      seed=args.seed, bandwidth=bw)
    finally:
        if lut is not None:
            lut.close()
    for lane, toks in enumerate(result.tokens):
        print(f"lane {lane}: {','.join(str(t) for t in toks)}")
    if args.meter_out:
        _write_meter_csv(args.meter_out, result.meter)
        print(f"meter: {args.meter_out}")
    print(f"transferred {result.meter.total_bytes} bytes total")
    return EXIT_OK


def _write_meter_csv(path: str | Path, meter: engine.StepMeter) -> None:
    with atomic_write(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "lanes", "elements", "bytes", "experts_loaded", "sim_seconds"])
        for r in meter.records:
            w.writerow([r.step, r.lanes, r.elements, r.bytes, r.experts_loaded,
                        f"{r.sim_seconds:.9g}"])


def _resolve_shape(args) -> ModelConfig:
    if args.preset:
        if args.preset not in PAPER_CONFIGS:
            raise ConfigError("preset", f"unknown preset {args.preset!r}; "
                              f"choices: {', '.join(PAPER_CONFIGS)}")
        return PAPER_CONFIGS[args.preset]
    if not args.config:
        raise ConfigError("config", "bench needs --config or --preset")
    mcfg, _, _ = load_config(args.config)
    return mcfg


def cmd_bench(args) -> int:
    if args.batch <= 0:
        raise ConfigError("--batch", f"must be positive, got {args.batch}")
    rate = _decode_flags(args)
    cfg = _resolve_shape(args)
    variant = engine.RUNTIME_VARIANTS[args.runtime]
    if cfg.variant != variant:
        print(f"error: runtime {args.runtime} needs a {variant} "
              f"shape, got {cfg.variant}", file=sys.stderr)
        return EXIT_USAGE
    bw = analyst.BandwidthModel(bytes_per_second=rate)
    meter = engine.simulate_transfer_meter(cfg, args.batch, args.steps,
                                           seed=args.seed, bandwidth=bw)
    out = Path(args.out) if args.out else None
    if out:
        _write_meter_csv(out, meter)
        write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "bench",
                       {"runtime": args.runtime, "batch": args.batch,
                        "steps": args.steps,
                        "bandwidth_gbps": args.bandwidth_gbps,
                        "shape": asdict(cfg)},
                       args.seed, inputs={}, outputs={"meter": str(out)})
    recs = meter.decode_records()
    total_bytes = sum(r.bytes for r in recs)
    mean_loads = float(np.mean([r.experts_loaded for r in recs])) / max(1, cfg.L)
    summary = {
        "runtime": args.runtime,
        "batch": args.batch,
        "steps": args.steps,
        "mean_bytes_per_step": total_bytes / len(recs),
        "mean_experts_loaded_per_layer": mean_loads,
        "transfer_seconds_per_step": float(np.mean([r.sim_seconds for r in recs])),
        "total_bytes": total_bytes,
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_quantize(args) -> int:
    tables = lut_store.read_all_tables(args.lut)
    out = Path(args.out)
    nbytes = lut_store.write_lut(tables, out, dtype=args.dtype,
                                 block_size=args.block_size)
    src_bytes = Path(args.lut).stat().st_size
    print(f"{args.lut} ({src_bytes} bytes) -> {out} ({nbytes} bytes, "
          f"dtype {args.dtype}, block {args.block_size})")
    write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "quantize",
                   {"dtype": args.dtype, "block_size": args.block_size},
                   None, inputs={"lut": args.lut}, outputs={"lut": str(out)})
    return EXIT_OK


def cmd_report(args) -> int:
    if args.config:
        mcfg, _, _ = load_config(args.config)
        rows = analyst.table_report({"custom": mcfg})
        if args.format == "json":
            print(analyst.report_to_json(rows))
        else:
            w = csv.writer(sys.stdout)
            w.writerow(["config", "flops_per_layer", "vram_params_per_layer",
                        "offloaded_params", "loaded_params_per_token",
                        "offloaded_display", "loaded_display"])
            for r in rows:
                w.writerow([r.name, r.flops_per_layer, r.vram_params_per_layer,
                            r.offloaded_params, r.loaded_params_per_token,
                            r.offloaded_display, r.loaded_display])
        return EXIT_OK
    cells = analyst.paper_check()
    if args.format == "json":
        print(analyst.report_to_json(cells))
    else:
        w = csv.writer(sys.stdout)
        w.writerow(["config", "metric", "computed", "published", "exact", "status"])
        for c in cells:
            w.writerow([c.config, c.metric, c.display, c.expected, c.exact, c.status])
        n_pass = sum(1 for c in cells if c.status == "PASS")
        n_warn = sum(1 for c in cells if c.status == "WARN")
        n_fail = sum(1 for c in cells if c.status == "FAIL")
        print(f"# {n_pass} PASS, {n_warn} WARN, {n_fail} FAIL", file=sys.stderr)
    return EXIT_OK if all(c.status != "FAIL" for c in cells) else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mole", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a JSON config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--seed", type=int, default=None, help="override config seed")
    t.add_argument("--steps", type=int, default=None, help="override total steps")
    t.add_argument("--log-every", type=int, default=0)
    t.set_defaults(fn=cmd_train)

    r = sub.add_parser("reparam", help="pre-compute expert lookup tables")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--out", required=True, help="LUT file path")
    r.add_argument("--dtype", default="fp32", choices=sorted(lut_store.DTYPE_CODES))
    r.add_argument("--block-size", type=int, default=0)
    r.set_defaults(fn=cmd_reparam)

    v = sub.add_parser("verify", help="check LUT-form vs training-form logits")
    v.add_argument("--checkpoint", required=True)
    v.add_argument("--lut", required=True)
    v.add_argument("--tolerance", type=float, default=None,
                   help="override the per-dtype default tolerance")
    v.add_argument("--prompts", type=int, default=32)
    v.add_argument("--max-len", type=int, default=16)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify)

    i = sub.add_parser("infer", help="greedy decoding with transfer metering")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--lut", default=None)
    i.add_argument("--runtime", default="auto",
                   choices=["auto", *engine.RUNTIME_VARIANTS])
    i.add_argument("--prompt", action="append", required=True,
                   help="comma-separated token ids; repeat for more lanes")
    i.add_argument("--steps", type=int, default=16)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--bandwidth-gbps", type=float, default=16.0)
    i.add_argument("--meter-out", default=None)
    i.set_defaults(fn=cmd_infer)

    b = sub.add_parser("bench", help="model-free transfer simulation")
    b.add_argument("--runtime", required=True,
                   choices=["dense", "moe-offload", "mole-lut"])
    b.add_argument("--config", default=None)
    b.add_argument("--preset", default=None,
                   help=f"paper shape: {', '.join(PAPER_CONFIGS)}")
    b.add_argument("--batch", type=int, default=1)
    b.add_argument("--steps", type=int, default=512)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--bandwidth-gbps", type=float, default=16.0)
    b.add_argument("--out", default=None, help="meter CSV path")
    b.set_defaults(fn=cmd_bench)

    q = sub.add_parser("quantize", help="re-encode a LUT file")
    q.add_argument("--lut", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--dtype", required=True, choices=sorted(lut_store.DTYPE_CODES))
    q.add_argument("--block-size", type=int, default=0)
    q.set_defaults(fn=cmd_quantize)

    rep = sub.add_parser("report", help="complexity tables / paper-check")
    rep.add_argument("--config", default=None,
                     help="apply the formulas to a custom config instead")
    rep.add_argument("--format", default="csv", choices=["csv", "json"])
    rep.set_defaults(fn=cmd_report)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # CheckpointError and LutFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
