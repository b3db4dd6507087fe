"""Print a sha256 of every bit-level artifact of the model, under both matmul kernels.

    PYTHONPATH=src python tools/bit_digest.py

A change that claims to keep every bit prints the same lines before and
after. Each line is ``<kernel> <artifact> <sha256>``. The artifacts are all
float32, from seeded weights of the toy configs in ``configs/``:

- ``train``: the logits and, as one digest, every gradient of toy-mole,
  toy-moe and toy-dense on one batch of 8 x 48 (``trainer.backward``), and
  the same on a short batch of 4 x 12 (``toy-<name>.short``);
- ``adam``: toy-mole's params and Adam ``m`` and ``v`` after 10 steps of
  ``backward``, ``clip_gradients`` and ``adam_step``;
- ``lut``: toy-mole's table file in fp32, fp16, nf4 and nf3 (block 16 when
  quantized), and the rows ``gather`` returns from it for every id of every
  layer;
- ``verify``: the ``verify_equivalence`` report of each of those tables on
  16 prompts of lengths 1..64;
- ``decode``: the token stream and meter of a 32-lane ``greedy_decode``
  (prompt lengths 4..16, 4 steps) on the ``mole-lut`` (fp32 table),
  ``mole-train`` and ``moe-offload`` runtimes, and for the two mole
  runtimes, and for toy-moe at 1 and at 32 lanes, every logits row such a
  decode picks from (prefill and steps, through ``model.forward_tokens``),
  which a stream seldom shows;
- ``long``: one-lane decodes past ``max_seq`` (a 60-token prompt and 8
  steps, positions 0..67, across a key-block boundary) of toy-moe on the
  ``moe-offload`` runtime and of toy-dense: the stream, the meter and every
  logits row.

Every group runs under ``kernels.TILED`` and then ``kernels.SEQUENTIAL``,
forced whatever the local BLAS probe would pick: 2 x 43 lines. A run takes
about 8 s on a 2-core host.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
from pathlib import Path

import numpy as np

from mole import config, engine, kernels, lut_store, model, reparam, trainer
from mole.cli import VERIFY_TOLERANCES

ROOT = Path(__file__).resolve().parent.parent
SEED = 20


def sha(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and strings, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(str(part).encode())
    return h.hexdigest()


def toy(name: str, seed: int):
    """Seeded float32 params, train config and corpus of configs/toy-<name>.json."""
    mcfg, tcfg, ccfg = config.load_config(ROOT / "configs" / f"toy-{name}.json")
    corpus = trainer.synthetic_corpus(ccfg.length, ccfg.pattern_period, ccfg.seed,
                                      vocab=mcfg.vocab)
    return model.init_params(mcfg, seed), tcfg, corpus


def tensors(named: dict[str, np.ndarray]) -> str:
    return sha(*(part for name in sorted(named) for part in (name, named[name])))


def train_digests(batch_size: int = 8, seq: int = 48, tag: str = ""):
    for name in ("mole", "moe", "dense"):
        params, tcfg, corpus = toy(name, SEED)
        batch = trainer.sample_batch(corpus, np.random.default_rng(SEED), batch_size, seq)
        yield f"toy-{name}{tag}.logits", sha(model.model_forward(params, batch[0]))
        metrics, grads = trainer.backward(params, batch, tcfg)
        yield f"toy-{name}{tag}.grads", sha(repr(sorted(metrics.items())), tensors(grads))


def adam_digests():
    params, tcfg, corpus = toy("mole", SEED)
    rng = np.random.default_rng(SEED)
    state = trainer.AdamState.init(params)
    for step in range(10):
        _, grads = trainer.backward(params, trainer.sample_batch(corpus, rng, 8, 48), tcfg)
        trainer.clip_gradients(grads, tcfg.grad_clip)
        trainer.adam_step(params, grads, state, trainer.lr_at(step + 1, tcfg), tcfg)
    yield "toy-mole.adam10.params", tensors(params.tensors)
    yield "toy-mole.adam10.m", tensors(state.m)
    yield "toy-mole.adam10.v", tensors(state.v)


def verify_digests(workdir: Path):
    params, _, _ = toy("mole", SEED)
    infer, tables = reparam.reparameterize(params)
    rng = np.random.default_rng(SEED)
    prompts = [rng.integers(0, params.cfg.vocab, size=n)
               for n in np.linspace(1, 64, 16).round().astype(int)]
    for dtype, tolerance in VERIFY_TOLERANCES.items():
        path = workdir / f"{dtype}.lut"
        lut_store.write_lut(tables, path, dtype=dtype,
                            block_size=16 if dtype in lut_store.QUANT_BITS else 0)
        yield f"lut.{dtype}.file", hashlib.sha256(path.read_bytes()).hexdigest()
        with lut_store.open_lut(path) as lut:
            ids = np.arange(lut.header.vocab)
            yield f"lut.{dtype}.rows", sha(*(lut.gather(layer, ids)
                                             for layer in range(lut.header.n_layers)))
            report = reparam.verify_equivalence(params, infer, lut, prompts, tolerance)
        yield f"verify.{dtype}", sha(repr(dataclasses.asdict(report)))


def step_logits(params, prompts, steps, lut=None) -> str:
    """Digest of the logits of a packed prefill of ``prompts`` and of
    ``steps`` greedy one-token steps of every lane, with table rows from
    ``lut`` when it is given."""
    state = model.init_decode_state(params, len(prompts), max(map(len, prompts)) + steps)
    logits = [model.forward_tokens(params, prompts, state, lut=lut)]
    current = logits[0][np.cumsum(list(map(len, prompts))) - 1].argmax(axis=-1)
    for _ in range(steps):
        logits.append(model.forward_tokens(params, [[t] for t in current], state, lut=lut))
        current = logits[-1].argmax(axis=-1)
    return sha(*logits)


def decode_digests(workdir: Path):
    rng = np.random.default_rng(SEED)
    mole_params, _, _ = toy("mole", SEED)
    moe_params, _, _ = toy("moe", SEED)
    lengths = np.resize(np.arange(4, 17), 32)
    prompts = [rng.integers(0, 256, size=n) for n in lengths]
    infer, tables = reparam.reparameterize(mole_params)
    lut_store.write_lut(tables, workdir / "decode.lut", dtype="fp32")
    with lut_store.open_lut(workdir / "decode.lut") as lut:
        runs = [("mole-lut", engine.greedy_decode(infer, prompts, 4, "mole-lut", lut=lut))]
        yield "decode.mole-lut.logits", step_logits(infer, prompts, 4, lut)
    yield "decode.mole-train.logits", step_logits(mole_params, prompts, 4)
    yield "decode.moe-1.logits", step_logits(moe_params, prompts[:1], 4)
    yield "decode.moe-32.logits", step_logits(moe_params, prompts, 4)
    runs.append(("mole-train", engine.greedy_decode(mole_params, prompts, 4, "mole-train")))
    runs.append(("moe-offload", engine.greedy_decode(moe_params, prompts, 4, "moe-offload",
                                                     seed=SEED)))
    for runtime, result in runs:
        yield f"decode.{runtime}.stream", sha(np.asarray(result.tokens))
        yield f"decode.{runtime}.meter", sha(repr([dataclasses.astuple(r)
                                                  for r in result.meter.records]))


def long_digests():
    rng = np.random.default_rng(SEED)
    for name, runtime in (("moe", "moe-offload"), ("dense", "dense")):
        params, _, _ = toy(name, SEED)
        prompt = rng.integers(0, params.cfg.vocab, size=60)
        result = engine.greedy_decode(params, [prompt], 8, runtime, seed=SEED)
        yield f"long.{runtime}.stream", sha(result.ids)
        yield f"long.{runtime}.meter", sha(repr([dataclasses.astuple(r)
                                                for r in result.meter.records]))
        yield f"long.{runtime}.logits", step_logits(params, [prompt], 8)


def main() -> None:
    for kernel in (kernels.TILED, kernels.SEQUENTIAL):
        kernels._backends.clear()
        kernels._backends[np.dtype(np.float32)] = kernel
        with tempfile.TemporaryDirectory() as tmp:
            for group in (train_digests(), train_digests(4, 12, ".short"), adam_digests(),
                          verify_digests(Path(tmp)), decode_digests(Path(tmp)), long_digests()):
                for artifact, digest in group:
                    print(f"{kernel} {artifact} {digest}", flush=True)
    kernels._backends.clear()


if __name__ == "__main__":
    main()
