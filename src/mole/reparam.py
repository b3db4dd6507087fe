"""Re-parameterization: pre-compute routed-expert outputs into per-layer
lookup tables and verify that the table-driven model reproduces the
training-form model.

Table entry (i, j) is FFN_j(expert_norm(embedding_row_i)). Tables are built
as batched passes over the full embedding matrix. ``kernels.matmul`` fixes
each row's reduction by (K, N, dtype), however many rows share the call, so
on a given machine and BLAS a batched build is bit-identical to
re-computing any single row on its own. Table size depends only on
(vocab, N, d) — never on the routed experts' hidden width.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import worker_threads
from .model import ModelParams, mole_expert_rows, model_forward, param_names

@dataclass
class LutTable:
    """One layer's pre-computed expert outputs, shape (vocab, N, d)."""

    layer_index: int
    values: np.ndarray
    precision: str = "fp32"

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError(f"table must be (vocab, N, d), got {self.values.shape}")


class _MemTicket:
    def __init__(self, fn):
        self._fn = fn
        self._consumed = False


class InMemoryLut:
    """In-RAM table stack with the same fetch contract as a file handle:
    gather / prefetch / await_rows, plus logical byte accounting."""

    def __init__(self, tables: list[LutTable]):
        self.tables = tables
        self.bytes_read = 0

    def gather(self, layer: int, ids: np.ndarray) -> np.ndarray:
        rows = self.tables[layer].values[np.asarray(ids)]
        self.bytes_read += rows.nbytes
        return rows

    def prefetch(self, layer: int, ids: np.ndarray) -> _MemTicket:
        ids = np.asarray(ids).copy()
        return _MemTicket(lambda: self.gather(layer, ids))

    def await_rows(self, ticket: _MemTicket) -> np.ndarray:
        if ticket._consumed:
            raise RuntimeError("fetch ticket already consumed")
        ticket._consumed = True
        return ticket._fn()


def build_layer_lut(
    params: ModelParams,
    layer_index: int,
    chunk_size: int = 4096,
) -> LutTable:
    """Pre-compute values[i, j] = FFN_j(expert_norm_layer(embedding row i))
    for every vocabulary id, as batched passes over the embedding matrix.

    Chunking (and the optional MOLE_RT_THREADS worker pool) only partitions
    the vocab axis; assembly into the output array is by index, so the
    result is byte-identical for any chunk size or thread count.
    """
    cfg = params.cfg
    if cfg.variant != "mole":
        raise ValueError(f"LUT build needs a mole model, got {cfg.variant!r}")
    emb = params.tensors["embedding"]
    lv = params.layer(layer_index)
    out = np.empty((cfg.vocab, cfg.N, cfg.d), dtype=emb.dtype)

    def fill(start: int, stop: int) -> None:
        rows = mole_expert_rows(lv, emb[start:stop])  # (N, chunk, d)
        out[start:stop] = rows.transpose(1, 0, 2)

    spans = [(s, min(s + chunk_size, cfg.vocab)) for s in range(0, cfg.vocab, chunk_size)]
    threads = worker_threads()
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda sp: fill(*sp), spans))
    else:
        for sp in spans:
            fill(*sp)
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
    keep = set(param_names(cfg, inference_form=True))
    weights = {k: v.copy() for k, v in params.tensors.items() if k in keep}
    return ModelParams(cfg, weights, inference_form=True), tables


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

    On failure the first layer whose hidden states diverge beyond the
    tolerance is identified (for the worst prompt).
    """
    checks: list[PromptCheck] = []
    worst = -1.0
    worst_idx = -1
    for idx, prompt in enumerate(prompts):
        ref = model_forward(params, prompt, form="train_form")
        got = model_forward(inference_params, prompt, form="lut_form", lut=lut)
        err = logit_discrepancy(ref, got)
        ok = err <= tolerance
        checks.append(PromptCheck(idx, len(np.ravel(prompt)), err, ok))
        if err > worst:
            worst, worst_idx = err, idx
    passed = all(c.passed for c in checks)
    first_bad = None
    if not passed:
        first_bad = _locate_divergence(params, inference_params, lut,
                                       prompts[worst_idx], tolerance)
    return VerifyReport(passed, tolerance, worst, worst_idx, first_bad, checks)


def _locate_divergence(params, inference_params, lut, prompt, tolerance) -> int | None:
    ref_h: list = []
    got_h: list = []
    model_forward(params, prompt, form="train_form", collect_hidden=ref_h)
    model_forward(inference_params, prompt, form="lut_form", lut=lut, collect_hidden=got_h)
    for i, (a, b) in enumerate(zip(ref_h, got_h)):
        if logit_discrepancy(a, b) > tolerance:
            return i
    return None
