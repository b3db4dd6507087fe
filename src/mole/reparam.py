"""Re-parameterization: pre-compute routed-expert outputs into per-layer
lookup tables and verify that the table-driven model reproduces the
training-form model.

Table entry (i, j) is FFN_j(expert_norm(embedding_row_i)). Tables are built
in one pass over the embedding matrix, a chunk of vocab rows at a time so
memory stays bounded at large vocabularies. ``kernels.matmul`` fixes each
row's reduction by (K, N, dtype), however many rows share the call, so on a
given machine and BLAS a chunked build is bit-identical to re-computing any
single row on its own. Table size depends only on (vocab, N, d) — never on
the routed experts' hidden width.

Verification checks the forward that decoding serves: each form prefills a
group of prompts in one packed forward (``model.forward_tokens``), and each
prompt's logits are sliced out and compared. The attention core's padding
adds exact zeros and ``matmul`` fixes each row's reduction, so a prompt's
logits are byte-identical to its prefill alone, and its verdict does not
depend on which prompts share its group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import ShapeError
from .lut_store import LutTable, RowSource
from .model import (
    KEY_BLOCK,
    ModelParams,
    forward_tokens,
    init_decode_state,
    mole_expert_rows,
    param_names,
)

# Elements (2**20, 4 MiB of fp32) that one packed verify prefill may hold in
# the attention core's scores (the tiles of its plan, H x KEY_BLOCK x
# KEY_BLOCK each) or in its logits (rows x vocab); prompts are grouped to
# stay within it. The prefill's other activations take several times as
# much again.
VERIFY_GROUP_ELEMENTS = 1 << 20


class InMemoryLut(RowSource):
    """In-RAM table stack with the same row-source contract as a file
    handle, plus logical byte accounting."""

    def __init__(self, tables: list[LutTable]):
        self.tables = tables
        self.bytes_read = 0

    def gather(self, layer: int, ids: np.ndarray) -> np.ndarray:
        rows = self.tables[layer].values[np.asarray(ids)]
        self.bytes_read += rows.nbytes
        return rows


def build_layer_lut(
    params: ModelParams,
    layer_index: int,
    chunk_size: int = 4096,
) -> LutTable:
    """Pre-compute values[i, j] = FFN_j(expert_norm_layer(embedding row i))
    for every vocabulary id, as batched passes over the embedding matrix.

    Chunking only partitions the vocab axis; assembly into the output array
    is by index, so the result is byte-identical for any chunk size.
    """
    cfg = params.cfg
    if cfg.variant != "mole":
        raise ValueError(f"LUT build needs a mole model, got {cfg.variant!r}")
    emb = params.tensors["embedding"]
    lv = params.layer(layer_index)
    out = np.empty((cfg.vocab, cfg.N, cfg.d), dtype=emb.dtype)
    for start in range(0, cfg.vocab, chunk_size):
        rows = mole_expert_rows(lv, emb[start:start + chunk_size])  # (N, chunk, d)
        out[start:start + chunk_size] = rows.transpose(1, 0, 2)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(f"non-finite expert output in layer {layer_index} table")
    return LutTable(layer_index, out)


def reparameterize(params: ModelParams) -> tuple[ModelParams, list[LutTable]]:
    """Strip the routed experts into lookup tables.

    Returns (inference params, tables): the inference params keep the router
    and shared expert but drop every routed-expert tensor and the expert
    norm; exactly L tables come back, one per layer.
    """
    cfg = params.cfg
    if cfg.variant != "mole":
        raise ValueError(f"re-parameterization applies to mole models, got {cfg.variant!r}")
    if params.inference_form:
        raise ValueError("model is already in inference form")
    tables = [build_layer_lut(params, i) for i in range(cfg.L)]
    return inference_params(params).copy(), tables


def inference_params(params: ModelParams) -> ModelParams:
    """What the LUT form runs on: ``params`` without the routed experts and
    the expert norm (router and shared expert kept), sharing the tensors.
    Params already in inference form come back as they are."""
    if params.inference_form:
        return params
    keep = set(param_names(params.cfg, inference_form=True))
    return ModelParams(params.cfg, {k: v for k, v in params.tensors.items() if k in keep},
                       inference_form=True)


# ---------------------------------------------------------------------------
# Equivalence verification
# ---------------------------------------------------------------------------

@dataclass
class PromptCheck:
    prompt_index: int
    length: int
    rel_err: float
    passed: bool


@dataclass
class VerifyReport:
    passed: bool
    tolerance: float
    max_rel_err: float
    worst_prompt: int
    first_bad_layer: int | None
    checks: list[PromptCheck] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status}: {len(self.checks)} prompts, max rel err "
                 f"{self.max_rel_err:.3e} (tolerance {self.tolerance:.1e}), "
                 f"worst prompt {self.worst_prompt}"]
        if self.first_bad_layer is not None:
            lines.append(f"first diverging layer: {self.first_bad_layer}")
        return "\n".join(lines)


def logit_discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| scaled by the reference magnitude max |a|."""
    if a.shape != b.shape:
        raise ValueError(f"logit shapes disagree: {a.shape} vs {b.shape}")
    denom = max(float(np.max(np.abs(a))), 1e-12)
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64)))) / denom


def verify_equivalence(
    params: ModelParams,
    inference_params: ModelParams,
    lut,
    prompts: list[np.ndarray],
    tolerance: float = 1e-5,
) -> VerifyReport:
    """Compare training-form and LUT-form logits on every prompt.

    This checks the forward that ``greedy_decode`` serves. Consecutive
    prompts are grouped within ``VERIFY_GROUP_ELEMENTS``, and each form
    prefills a group in one ``forward_tokens`` call over a fresh
    ``DecodeState`` (the train form on ``params``, the LUT form on
    ``inference_params`` and ``lut``); each prompt's rows of the logits are
    then compared. A prompt's logits are those of its prefill alone, so the
    grouping moves no verdict; a prompt that alone exceeds the budget runs
    alone. Prompts must be non-empty and at most ``cfg.max_seq`` long.

    On failure the first layer whose hidden states diverge beyond the
    tolerance is identified (for the worst prompt, prefilled alone).
    """
    if not prompts:
        raise ValueError("verification needs at least one prompt")
    prompts = [np.ravel(np.asarray(p)) for p in prompts]
    max_seq = params.cfg.max_seq
    for idx, prompt in enumerate(prompts):
        if not 0 < prompt.size <= max_seq:
            raise ShapeError(f"prompt {idx} has {prompt.size} tokens; verify needs "
                             f"1 to max_seq={max_seq}")
    checks: list[PromptCheck] = []
    for group in _prompt_groups(params.cfg, [p.size for p in prompts]):
        lanes = [prompts[i] for i in group]
        ref, got = _prefill_both(params, inference_params, lut, lanes)
        bounds = np.cumsum([0] + [p.size for p in lanes])
        for i, start, stop in zip(group, bounds[:-1], bounds[1:]):
            err = logit_discrepancy(ref[start:stop], got[start:stop])
            checks.append(PromptCheck(i, prompts[i].size, err, err <= tolerance))
    worst = max(checks, key=lambda c: c.rel_err)
    passed = all(c.passed for c in checks)
    first_bad = None
    if not passed:
        first_bad = _locate_divergence(params, inference_params, lut,
                                       prompts[worst.prompt_index], tolerance)
    return VerifyReport(passed, tolerance, worst.rel_err, worst.prompt_index, first_bad,
                        checks)


def _prompt_groups(cfg, lengths: list[int]) -> list[range]:
    """Consecutive prompt index ranges whose packed prefill holds at most
    ``VERIFY_GROUP_ELEMENTS`` score or logit elements (a lone prompt always
    forms a group). Scores are counted as the tile plan scores them from an
    empty state: query chunk j of a prompt sees key blocks 0 .. j, so a
    prompt of c chunks scores c (c + 1) / 2 tiles. A group of one-token
    prompts scores the one-row grid instead, a sixteenth of that."""
    tile = cfg.n_heads * KEY_BLOCK * KEY_BLOCK
    groups: list[range] = []
    start = tiles = rows = 0
    for i, n in enumerate(lengths):
        chunks = -(-n // KEY_BLOCK)
        own = chunks * (chunks + 1) // 2
        if i > start and max((tiles + own) * tile, (rows + n) * cfg.vocab) > VERIFY_GROUP_ELEMENTS:
            groups.append(range(start, i))
            start, tiles, rows = i, 0, 0
        tiles, rows = tiles + own, rows + n
    groups.append(range(start, len(lengths)))
    return groups


def _prefill_both(params, inference_params, lut, lanes, ref_hidden=None, got_hidden=None):
    """Packed prefill logits (R, vocab) of ``lanes`` in the train form and
    in the LUT form, each over a fresh ``DecodeState``."""
    longest = max(p.size for p in lanes)
    ref = forward_tokens(params, lanes, init_decode_state(params, len(lanes), longest),
                         collect_hidden=ref_hidden)
    got = forward_tokens(inference_params, lanes,
                         init_decode_state(inference_params, len(lanes), longest),
                         lut=lut, collect_hidden=got_hidden)
    return ref, got


def _locate_divergence(params, inference_params, lut, prompt, tolerance) -> int | None:
    ref_h: list = []
    got_h: list = []
    _prefill_both(params, inference_params, lut, [prompt], ref_h, got_h)
    for i, (a, b) in enumerate(zip(ref_h, got_h)):
        if logit_discrepancy(a, b) > tolerance:
            return i
    return None
