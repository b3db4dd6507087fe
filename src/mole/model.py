"""Transformer blocks and full-model forward passes for three variants.

Variants:
  dense  -- attention + one shared FFN per block.
  moe    -- attention + top-k routed expert FFNs (no shared expert); the
            router consumes the post-attention-normalized hidden state.
  mole   -- attention + shared FFN + N always-active routed experts whose
            input is the *embedding row* of the current token, normalized by
            a per-layer expert norm. Because that input depends only on the
            token id, the routed experts admit a lookup-table inference form
            (see reparam / lut_store).

Block layout is sequential (attention sub-layer, then expert sub-layer), with
RMS pre-norms and residual connections around each. One layer loop and one
attention core serve every forward: training (``model_forward``, B lanes of
T tokens) and prefill, decode and verification (``forward_lanes``, packed
lanes of any lengths) all run over a ``DecodeState`` whose per-layer KV
arenas hold every lane, and the core's bits do not depend on padding or on
which tiles it scores, so a sequence gets the same bits in all of them. The
mole training form and LUT form differ only in where the expert rows come
from: expert FFNs on the embedding rows of the batch's distinct token ids,
gathered per position, or a row source (``prefetch``/``await_rows``)
reading pre-computed tables. Both combine the rows in one sub-layer, so
given identical rows they agree bit-for-bit.

Parameters live in a flat name -> ndarray dict (see ``init_params`` for the
naming scheme); that representation doubles as the checkpoint manifest and as
the shape mirror for gradients and optimizer state.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .config import ModelConfig
from .kernels import (
    TILE_ROWS,
    ShapeError,
    apply_rotary,
    gelu,
    matmul,
    rmsnorm,
    rotary_tables,
    softmax,
)

RMS_EPS = 1e-5
INIT_STD = 0.02
# Key positions per block of the attention core (``_attend_lanes``); KV
# arenas hold whole blocks.
KEY_BLOCK = 16
# Key column j minus query row i of a (KEY_BLOCK, KEY_BLOCK) score tile: a
# tile whose first query lies ``off`` positions past its first key hides
# the entries where this exceeds ``off``.
_KEY_AHEAD = np.arange(KEY_BLOCK) - np.arange(KEY_BLOCK)[:, None]


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass
class ModelParams:
    """A model: its configuration plus a flat dict of named weight tensors.

    ``inference_form`` marks a mole model whose routed experts have been
    stripped after table pre-computation (router and shared expert retained).
    """

    cfg: ModelConfig
    tensors: dict[str, np.ndarray]
    inference_form: bool = False

    @property
    def dtype(self) -> np.dtype:
        return self.tensors["embedding"].dtype

    def n_params(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def copy(self) -> "ModelParams":
        return ModelParams(self.cfg, {k: v.copy() for k, v in self.tensors.items()},
                           self.inference_form)

    def layer(self, i: int) -> "LayerView":
        return LayerView(self, i)


class LayerView:
    """One block's tensors, looked up by name once: the params' own arrays,
    not copies, so an in-place update of a tensor reaches every view of it.
    A tensor the block does not have (a dense block's router, a stripped
    mole block's experts) is None, and ``experts`` is then empty."""

    __slots__ = ("cfg", "index", "input_norm", "attn_wqkv", "attn_bqkv", "attn_wo",
                 "attn_bo", "post_attn_norm", "shared_w1", "shared_b1", "shared_w2",
                 "shared_b2", "router", "expert_norm", "experts")

    def __init__(self, params: ModelParams, i: int):
        t = params.tensors
        p = f"layers.{i}."
        self.cfg = params.cfg
        self.index = i
        self.input_norm = t[p + "input_norm.gain"]
        self.attn_wqkv, self.attn_bqkv = t[p + "attn.wqkv"], t[p + "attn.bqkv"]
        self.attn_wo, self.attn_bo = t[p + "attn.wo"], t[p + "attn.bo"]
        self.post_attn_norm = t[p + "post_attn_norm.gain"]
        self.shared_w1, self.shared_b1 = t.get(p + "shared.w1"), t.get(p + "shared.b1")
        self.shared_w2, self.shared_b2 = t.get(p + "shared.w2"), t.get(p + "shared.b2")
        self.router = t.get(p + "router")
        self.expert_norm = t.get(p + "expert_norm.gain")
        # (w1, b1, w2, b2) of each routed expert, in index order
        self.experts = tuple(
            tuple(t[f"{p}experts.{j}.{name}"] for name in ("w1", "b1", "w2", "b2"))
            for j in range(params.cfg.N) if f"{p}experts.{j}.w1" in t)


def param_names(cfg: ModelConfig, inference_form: bool = False) -> list[str]:
    """Canonical tensor name order (init, checkpoints, and Adam all follow it)."""
    names = ["embedding"]
    for i in range(cfg.L):
        p = f"layers.{i}"
        names += [f"{p}.input_norm.gain",
                  f"{p}.attn.wqkv", f"{p}.attn.bqkv",
                  f"{p}.attn.wo", f"{p}.attn.bo",
                  f"{p}.post_attn_norm.gain"]
        if cfg.has_shared:
            names += [f"{p}.shared.w1", f"{p}.shared.b1",
                      f"{p}.shared.w2", f"{p}.shared.b2"]
        if cfg.has_experts:
            names += [f"{p}.router"]
            if not inference_form:
                names += [f"{p}.expert_norm.gain"] if cfg.variant == "mole" else []
                for j in range(cfg.N):
                    q = f"{p}.experts.{j}"
                    names += [q + ".w1", q + ".b1", q + ".w2", q + ".b2"]
    names += ["final_norm.gain", "lm_head"]
    return names


def param_shape(name: str, cfg: ModelConfig) -> tuple[int, ...]:
    """Shape of the tensor ``name`` (see ``param_names``) under ``cfg``."""
    if name == "embedding":
        return (cfg.vocab, cfg.d)
    if name == "lm_head":
        return (cfg.d, cfg.vocab)
    if name.endswith(".gain"):
        return (cfg.d,)
    if name.endswith(".router"):
        return (cfg.N, cfg.d)
    if ".attn.wqkv" in name:
        return (cfg.d, 3 * cfg.d)
    if ".attn.bqkv" in name:
        return (3 * cfg.d,)
    if ".attn.wo" in name:
        return (cfg.d, cfg.d)
    if ".attn.bo" in name:
        return (cfg.d,)
    hidden = cfg.D_s if ".shared." in name else cfg.D_r
    if name.endswith(".w1"):
        return (cfg.d, hidden)
    if name.endswith(".b1"):
        return (hidden,)
    if name.endswith(".w2"):
        return (hidden, cfg.d)
    if name.endswith(".b2"):
        return (cfg.d,)
    raise KeyError(name)


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Seeded init: N(0, 0.02) projections, unit norm gains, zero biases."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name in param_names(cfg):
        shape = param_shape(name, cfg)
        if name.endswith(".gain"):
            t = np.ones(shape, dtype=dtype)
        elif name.endswith((".b1", ".b2", ".bqkv", ".bo")):
            t = np.zeros(shape, dtype=dtype)
        else:
            t = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
        tensors[name] = t
    return ModelParams(cfg, tensors)


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def topk_select(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, ascending index
    order, ties broken toward the lower index."""
    top = (-scores).argsort(axis=-1, kind="stable")[..., :k].copy()
    top.sort(axis=-1)
    return top


def route(router: np.ndarray, h_normed: np.ndarray, variant: str, k: int
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate every position of ``h_normed`` (..., d) by ``router``, a layer's
    (N, d) router transposed to the (d, N) operand of its ``matmul``: the
    row-major copy a ``DecodeState`` holds (``routers``), or a transposed
    view, which ``matmul`` copies on each call.

    Returns (logits (..., N), selected experts, their gates). moe selects the
    k best scores (ascending index) per position and softmaxes over those
    only; mole selects all N experts, ``arange(N)`` for every position, and
    softmaxes over all N scores.
    """
    if h_normed.ndim == 1:
        logits = matmul(h_normed[None], router)[0]
    else:
        logits = matmul(h_normed, router)
    if variant == "mole":
        return logits, np.arange(router.shape[1]), softmax(logits)
    if variant == "moe":
        sel = topk_select(logits, k)
        if sel.size == k:  # one position: its scores are the flat logits
            picked = logits.reshape(-1)[sel]
        else:
            rows = logits.reshape(-1, logits.shape[-1])
            picked = rows[np.arange(len(rows))[:, None], sel.reshape(len(rows), k)]
        return logits, sel, softmax(picked.reshape(sel.shape))
    raise ValueError(f"variant {variant!r} has no router")


# ---------------------------------------------------------------------------
# Sub-layer forwards (cache is an optional dict filled for backprop)
# ---------------------------------------------------------------------------

def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, T, d) -> (B, H, T, d_head)"""
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, H, T, d_head) -> (B, T, d)"""
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def attention_forward(
    layer: LayerView,
    x: np.ndarray,
    rotary: tuple[np.ndarray, np.ndarray],
    kv: tuple[np.ndarray, np.ndarray, PackedStep],
    cache: dict | None = None,
) -> np.ndarray:
    """Residual attention sub-layer: x + Attn(input_norm(x)).

    ``x`` holds the new rows of every lane, lane by lane: (1, R, d) for
    packed lanes of any lengths, or (B, T, d) for B lanes of T rows each.
    ``rotary`` is their (cos, sin) rows (``rotary_tables`` of the rows'
    positions, shaped like ``x`` without its last axis), which a model
    forward gathers once for all its layers from its ``DecodeState``; the
    queries and keys rotate in one call, as 2H heads. ``kv`` is the layer's
    key arena (lanes, H, blocks, d_head, KEY_BLOCK), stored as transposed
    key blocks, its value arena (lanes, H, blocks * KEY_BLOCK, d_head) and
    the step's ``PackedStep`` (which lane owns each row, where it goes, and
    which query/key tiles to score: the one-row grid of a decode step, or a
    tile plan that skips key blocks wholly after a query chunk). One
    fixed-split core writes the new keys and values and attends every lane
    over its own prefix, with bits that do not depend on padding or on the
    plan (``_attend_lanes``), so a lane gets the bits it gets alone, in
    training, prefill, decode and verification alike. ``cache`` receives
    what backprop needs.
    """
    cfg = layer.cfg
    b, t, d = x.shape
    h = cfg.n_heads
    xn = rmsnorm(x, layer.input_norm, RMS_EPS)
    qkv = matmul(xn, layer.attn_wqkv)
    qkv += layer.attn_bqkv
    qk = apply_rotary(qkv[..., : 2 * d].reshape(b, t, 2 * h, cfg.d_head), *rotary)
    v = qkv[..., 2 * d :].reshape(b, t, h, cfg.d_head)
    scale = x.dtype.type(1.0 / math.sqrt(cfg.d_head))
    merged = _attend_lanes(qk[..., :h, :], qk[..., h:, :], v, *kv, scale, cache=cache)
    out = matmul(merged, layer.attn_wo)
    out += layer.attn_bo
    out += x
    if cache is not None:
        cache.update(x_in=x, xn=xn, keys=kv[0], vals=kv[1], merged=merged, rotary=rotary)
    return out


def _attend_lanes(q, k_, v, keys, vals, step, scale, cache=None):
    """Write each lane's new keys/values (..., H, d_head), lane by lane,
    into the arenas at their positions ``step.pos``, then attend every lane
    over its own prefix in one fixed-split core; returns the context with
    heads merged, in the rows' layout: (1, R, d) or (B, T, d).

    ``keys`` (lanes, H, blocks, d_head, KEY_BLOCK) holds each block of
    ``KEY_BLOCK`` positions transposed, the row-major operand the scores
    ``matmul`` reads, so neither plan copies a key; ``vals`` (lanes, H,
    blocks * KEY_BLOCK, d_head) is read as blocks in place, as far as the
    longest lane reaches. ``step`` says which (query rows, key block) tiles
    to score:
    - the one-row grid (``step.tiles`` is None; one new row per lane, as in
      every decode step): each lane's query against every block, one
      ``matmul`` over (lanes, H, blocks). It needs no padding: its queries
      and its merged context are views of ``q`` and of the context, and its
      score max is one reduce over each lane's ``blocks * KEY_BLOCK``
      scores;
    - a tile plan (``TilePlan``; some lane brings more rows): new queries
      zero-padded per lane to whole ``KEY_BLOCK`` chunks, and for each
      (lane, chunk), only the blocks up to the one holding the chunk's last
      position, stacked into one ``matmul`` over (tiles, H); the score max
      folds block by block and then halves over the keys (``_score_max``).
    Scores are set to ``-inf`` past each query's position; their max over
    the scored blocks is exact. Each block's denominator sums exactly
    ``KEY_BLOCK`` exponentials, ``e @ V`` is one more ``matmul``, and the
    block partials are added in ascending block order into accumulators
    that start at ``+0.0``, then divided once. ``cache`` receives the
    queries (lanes, H, n, d_head) and the probabilities (lanes, H, n, blocks
    * KEY_BLOCK), zero on unscored tiles, which backprop reads.

    A lane's bits thus do not depend on padding, on the plan, alone or
    packed, in any arena, under either ``matmul`` kernel: both gemms have
    fixed (K, N) in both plans, so each row's bits are fixed whatever rows
    share the call, and a block past a query's position or the lane's
    written span (zero exponentials) adds exact ``+0.0``, so leaving it
    unscored changes no bit. The ``+0.0`` start matters: ``-0.0 + 0.0`` is
    ``+0.0``, so an accumulator seeded with a ``-0.0`` partial would flip
    sign on a trailing block, while one that starts at ``+0.0`` never holds
    ``-0.0``.
    """
    lanes, h, held, dh, width = keys.shape
    if width != KEY_BLOCK or vals.shape[2] != held * KEY_BLOCK:
        raise ShapeError(f"arenas of {held} key blocks of {width} slots and {vals.shape[2]} "
                         f"value slots do not hold whole blocks of {KEY_BLOCK} slots")
    keys[step.lane, :, step.block, :, step.slot] = k_.reshape(-1, h, dh)
    vals[step.lane, :, step.pos] = v.reshape(-1, h, dh)
    blocks = step.blocks
    kb = keys[:, :, :blocks]
    vb = vals[:, :, : blocks * KEY_BLOCK].reshape(lanes, h, blocks, KEY_BLOCK, dh)
    out_shape = q.shape[:2] + (h * dh,)
    if step.tiles is not None:
        qp = np.zeros((lanes, h, step.tiles.chunks * KEY_BLOCK, dh), dtype=q.dtype)
        qp[step.lane, :, step.row] = q.reshape(-1, h, dh)
        return _attend_tiles(qp, kb, vb, step, scale, cache, out_shape)
    # one row per lane, lane by lane: row r is lane r's only query
    qp = q.reshape(lanes, h, 1, dh)
    # the scores come back as a view of the padded gemm tiles; the scaled
    # scores are a packed copy, over which the elementwise steps below and
    # the next gemm's padding run several times faster
    e = matmul(qp[:, :, None], kb) * scale  # scores (lanes, H, blocks, 1, KEY_BLOCK)
    np.copyto(e, q.dtype.type(-np.inf), where=step.hidden)
    flat = e.reshape(lanes, h, blocks * KEY_BLOCK)
    flat -= np.maximum.reduce(flat, axis=-1, keepdims=True)
    np.exp(e, out=e)
    den_parts = np.add.reduce(e, axis=-1, keepdims=True)
    ctx_parts = matmul(e, vb)
    den = np.zeros((lanes, h, 1, 1), dtype=q.dtype)
    ctx = np.zeros((lanes, h, 1, dh), dtype=q.dtype)
    for blk in range(blocks):
        den += den_parts[:, :, blk]
        ctx += ctx_parts[:, :, blk]
    ctx /= den
    if cache is not None:
        probs = (e / den[:, :, None]).transpose(0, 1, 3, 2, 4)
        cache.update(q=qp, probs=probs.reshape(lanes, h, 1, blocks * KEY_BLOCK))
    return ctx.reshape(out_shape)


def _attend_tiles(qp, kb, vb, step, scale, cache, out_shape):
    """``_attend_lanes`` over the tiles of ``step.tiles``: ``qp`` (lanes, H,
    chunks * KEY_BLOCK, d_head) are the padded queries, ``kb`` (lanes, H,
    blocks, d_head, KEY_BLOCK) the transposed key blocks and ``vb`` (lanes,
    H, blocks, KEY_BLOCK, d_head) the value blocks."""
    tiles = step.tiles
    lanes, h, blocks, dh, _ = kb.shape
    qc = qp.reshape(lanes, h, tiles.chunks, KEY_BLOCK, dh)
    e = matmul(qc[tiles.lane, :, tiles.chunk],
               kb[tiles.lane, :, tiles.block])  # (tiles, H, KEY_BLOCK, KEY_BLOCK)
    e *= scale
    np.copyto(e, qp.dtype.type(-np.inf), where=tiles.hidden)
    # Tiles run block-major, and block b's tiles belong to groups (lane,
    # chunk) 0 .. width[b] - 1, so every per-group reduction below runs over
    # prefixes in ascending block order.
    ends = list(accumulate(tiles.width))
    top = _score_max(e[end - w : end] for end, w in zip(ends, tiles.width))
    e -= top[tiles.group]
    np.exp(e, out=e)
    den_parts = e.sum(axis=-1, keepdims=True)
    ctx_parts = matmul(e, vb[tiles.lane, :, tiles.block])
    den = np.zeros(top.shape, dtype=qp.dtype)
    ctx = np.zeros(top.shape[:-1] + (dh,), dtype=qp.dtype)
    for end, w in zip(ends, tiles.width):
        den[:w] += den_parts[end - w : end]
        ctx[:w] += ctx_parts[end - w : end]
    ctx /= den
    if cache is not None:
        e /= den[tiles.group]
        probs = np.zeros((lanes, h, tiles.chunks * KEY_BLOCK, blocks * KEY_BLOCK), dtype=qp.dtype)
        probs.reshape(lanes, h, tiles.chunks, KEY_BLOCK, blocks, KEY_BLOCK)[
            tiles.lane, :, tiles.chunk, :, tiles.block] = e
        cache.update(q=qp[:, :, : step.rows], probs=probs[:, :, : step.rows])
    return ctx[tiles.row_group, :, tiles.row_slot].reshape(out_shape)


def _score_max(parts) -> np.ndarray:
    """The max of a tile plan's attention scores over key blocks and keys.
    ``parts`` are the score tiles (g_b, H, KEY_BLOCK, KEY_BLOCK) block by
    block, whose rows are groups 0 .. g_b - 1 (g_b never rising); returns
    each group's max (g_0, H, KEY_BLOCK, 1). The blocks fold elementwise,
    then the keys halve: numpy's max over a 16-wide axis, or over blocks and
    keys at once, is several times slower than these elementwise maxima,
    and the max is exact in any order (only the sign of a zero max may
    differ, which no ``exp(s - max)`` sees)."""
    parts = iter(parts)
    top = next(parts).copy()
    for part in parts:
        w = len(part)
        np.maximum(top[:w], part, out=top[:w])
    while top.shape[-1] > 1:
        half = top.shape[-1] // 2
        top = np.maximum(top[..., :half], top[..., half:])
    return top


def ffn_forward(
    x: np.ndarray,
    w1: np.ndarray,
    b1: np.ndarray,
    w2: np.ndarray,
    b2: np.ndarray,
    cache: dict | None = None,
    tag: str = "",
) -> np.ndarray:
    """Two-layer GELU FFN."""
    pre = matmul(x, w1) + b1
    act = gelu(pre)
    out = matmul(act, w2) + b2
    if cache is not None:
        cache[tag + "pre"] = pre
        cache[tag + "act"] = act
    return out


def combine_expert_rows(gates: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Weighted sum over the expert axis, expert index ascending.

    gates: (..., N); rows: (N, ..., d). Shared by the training form and the
    LUT form so both combine in the same order. Their rows are identical
    because ``matmul`` fixes each row's reduction by (K, N, dtype), whatever
    the number of rows in the call, so the two forms agree bit-for-bit.
    """
    n = rows.shape[0]
    out = np.zeros(rows.shape[1:], dtype=rows.dtype)
    for j in range(n):
        out += gates[..., j, None] * rows[j]
    return out


def moe_layer_forward(
    layer: LayerView,
    x: np.ndarray,
    router: np.ndarray,
    cache: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k routed expert sub-layer (no shared expert): x + sum g_j FFN_j(hn),
    gated by ``router`` (the (d, N) operand of ``route``). Returns it with
    the selected experts (..., k), which offloading loads.

    Only the selected experts run. One stable sort groups the (row, slot)
    pairs by expert, rows ascending within each, so every expert multiplies
    one contiguous slice of a single gather of the normed rows, and the
    hidden layers share one ``gelu`` call. Each row adds its gated outputs
    in ascending expert index, as an expert-by-expert loop would. ``cache``
    receives, per expert, the pairs' ``lane``, ``tok`` and ``slot`` and the
    slices ``inp``, ``pre``, ``act`` and ``y`` of its rows (an empty dict
    for an expert no row selected).
    """
    cfg = layer.cfg
    hn = rmsnorm(x, layer.post_attn_norm, RMS_EPS)
    logits, sel, gates = route(router, hn, "moe", cfg.k)  # (B, T, N), (B, T, k) x 2
    flat_sel = sel.reshape(-1)
    if flat_sel.size == cfg.k:
        # a decode step's lone row: its k experts are distinct and ascending,
        # so its pairs are grouped by expert as they stand
        order = np.arange(cfg.k)
        spans = [(j, s, s + 1, layer.experts[j]) for s, j in enumerate(flat_sel.tolist())]
    else:
        order = np.argsort(flat_sel, kind="stable")  # pairs by expert, then (row, slot)
        ends = np.cumsum(np.bincount(flat_sel, minlength=cfg.N)).tolist()
        spans = [(j, lo, hi, layer.experts[j])
                 for j, (lo, hi) in enumerate(zip([0] + ends, ends)) if hi > lo]
    row = order // cfg.k
    inp = hn.reshape(-1, cfg.d)[row]
    pre = np.empty((row.size, cfg.D_r), dtype=x.dtype)
    for _, lo, hi, (w1, b1, _, _) in spans:
        np.add(matmul(inp[lo:hi], w1), b1, out=pre[lo:hi])
    # one GELU over every expert's rows: it is elementwise, so each row keeps its bits
    act = gelu(pre)
    y = np.empty((row.size, cfg.d), dtype=x.dtype)
    for _, lo, hi, (_, _, w2, b2) in spans:
        np.add(matmul(act[lo:hi], w2), b2, out=y[lo:hi])
    # A row's slots hold its experts in ascending index (``topk_select``), so
    # adding the gated outputs slot by slot adds them in that order, as an
    # expert-by-expert loop does; ``np.add.at`` would too, but it pages in
    # code nothing else runs, which raised the benchmark's peak RSS.
    gated = np.empty_like(y)
    gated[order] = gates.reshape(-1)[order, None] * y
    gated = gated.reshape(-1, cfg.k, cfg.d)
    out = x.reshape(-1, cfg.d) + gated[:, 0]
    for s in range(1, cfg.k):
        out += gated[:, s]
    if cache is not None:
        lane, tok, slot = np.unravel_index(order, sel.shape)
        experts: list[dict] = [{} for _ in range(cfg.N)]
        for j, lo, hi, _ in spans:
            experts[j].update(lane=lane[lo:hi], tok=tok[lo:hi], slot=slot[lo:hi],
                              inp=inp[lo:hi], pre=pre[lo:hi], act=act[lo:hi], y=y[lo:hi])
        cache.update(hn=hn, router_logits=logits, sel=sel, gates=gates, experts=experts)
    return out.reshape(x.shape), sel


def mole_expert_rows(
    layer: LayerView,
    e_rows: np.ndarray,
    cache: dict | None = None,
) -> np.ndarray:
    """Routed-expert outputs for embedding rows: rows[j] = FFN_j(expert_norm(e)).

    e_rows: (..., d) raw embedding rows; returns (N, ..., d).
    """
    cfg = layer.cfg
    en = rmsnorm(e_rows, layer.expert_norm, RMS_EPS)
    rows = np.empty((cfg.N,) + e_rows.shape, dtype=e_rows.dtype)
    for j in range(cfg.N):
        w1, b1, w2, b2 = layer.experts[j]
        ec = {} if cache is not None else None
        rows[j] = ffn_forward(en, w1, b1, w2, b2, cache=ec)
        if cache is not None:
            cache.setdefault("experts", []).append(ec)
    if cache is not None:
        cache["en"] = en
    return rows


def mole_layer_forward(
    layer: LayerView,
    x: np.ndarray,
    rows: np.ndarray | Callable[[], np.ndarray],
    router: np.ndarray,
    cache: dict | None = None,
) -> np.ndarray:
    """mole expert sub-layer: x + FFN_shared(post_attn_norm(x)) + sum_j g_j rows[j],
    gated by ``router`` (the (d, N) operand of ``route``).

    ``rows`` (N, ..., d) are the routed-expert outputs for the current
    tokens, or a no-argument callable returning them that runs after the
    shared expert. The training form passes one running the expert FFNs on
    the embedding rows of the distinct ids (``mole_expert_rows``) and
    gathering them per position; the LUT form one redeeming
    the ticket ``prefetch`` issued at layer entry, so the table rows are read
    inside ``await_rows``, after the router and the shared expert. Both
    forms combine here, so equal rows give equal bits.
    """
    cfg = layer.cfg
    hn = rmsnorm(x, layer.post_attn_norm, RMS_EPS)
    logits, _, gates = route(router, hn, "mole", cfg.N)
    shared = ffn_forward(hn, layer.shared_w1, layer.shared_b1,
                         layer.shared_w2, layer.shared_b2, cache=cache, tag="shared_")
    if callable(rows):
        rows = rows()
    if rows.shape[0] != cfg.N:
        raise ShapeError(f"expected {cfg.N} expert rows, got {rows.shape[0]}")
    routed = combine_expert_rows(gates, rows)
    if cache is not None:
        cache.update(hn=hn, router_logits=logits, gates=gates, rows=rows)
    return x + shared + routed


def dense_layer_forward(layer: LayerView, x: np.ndarray, cache: dict | None = None) -> np.ndarray:
    hn = rmsnorm(x, layer.post_attn_norm, RMS_EPS)
    shared = ffn_forward(hn, layer.shared_w1, layer.shared_b1,
                         layer.shared_w2, layer.shared_b2, cache=cache, tag="shared_")
    if cache is not None:
        cache["hn"] = hn
    return x + shared


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------

def embed(params: ModelParams, ids: np.ndarray) -> np.ndarray:
    """Gather embedding rows; ids (B, T) or (T,)."""
    ids = np.asarray(ids)
    emb = params.tensors["embedding"]
    if ids.size and (ids.min() < 0 or ids.max() >= emb.shape[0]):
        raise IndexError(f"token id out of range [0, {emb.shape[0]})")
    return emb[ids]


def model_forward(
    params: ModelParams,
    ids: np.ndarray,
    cache: dict | None = None,
) -> np.ndarray:
    """Training-form logits (B, T, vocab) for a batch of sequences ``ids``
    (B, T), each attending causally over its own tokens: one packed forward
    of B lanes of T new tokens into a fresh ``DecodeState``, so it runs the
    attention core of decoding and gives each sequence the bits it gets as a
    lane of ``forward_tokens``. ``cache`` (a dict) receives what backprop
    needs.
    """
    ids = np.atleast_2d(np.asarray(ids))
    b, t = ids.shape
    if t > params.cfg.max_seq:
        raise ShapeError(f"sequence length {t} exceeds max_seq {params.cfg.max_seq}")
    state = init_decode_state(params, b, t)
    step = pack_lanes(state.lengths, np.full(b, t))
    return _forward(params, ids, None, state, step, cache=cache)


def _forward(
    params: ModelParams,
    ids: np.ndarray,
    lut,
    state: DecodeState,
    step: PackedStep,
    cache: dict | None = None,
    collect_hidden: list | None = None,
    moe_sel: list | None = None,
) -> np.ndarray:
    """The layer loop of every forward: logits for token ``ids``, the new
    rows of the lanes of ``state`` laid out by ``step`` lane by lane, as one
    (1, R) block or as (B, T) for B lanes of T rows each. Each layer's
    attention writes into the state's arenas (see ``attention_forward``).

    ``lut`` selects the mole expert path: None runs the expert FFNs on the
    embedding rows of the distinct ids (the train form); a row source
    (prefetch(layer, ids) and await_rows(ticket)) serves pre-computed table
    rows (the LUT form), prefetched for every id at layer entry and awaited
    inside the expert sub-layer. Dense and moe ignore ``lut``.
    """
    cfg = params.cfg
    mole_lut = cfg.variant == "mole" and lut is not None
    if cfg.variant == "mole" and not mole_lut and params.inference_form:
        raise ValueError("a mole forward without a row source needs the routed expert tensors")
    x = embed(params, ids)
    flat = ids.reshape(-1)
    row_shape = (cfg.N,) + ids.shape + (cfg.d,)
    rotary = (state.cos[step.pos].reshape(ids.shape + state.cos.shape[1:]),
              state.sin[step.pos].reshape(ids.shape + state.sin.shape[1:]))
    if cache is not None:
        cache.update(ids=ids, layers=[])
    if cfg.variant == "mole" and not mole_lut:
        # A routed expert's output depends only on the token id: the expert
        # FFNs run once per distinct id, and each position gathers its rows.
        uniq, inv = np.unique(flat, return_inverse=True)
        # Zero rows pad the distinct rows to whole matmul tiles: matmul would
        # zero-pad a partial tile on every call anyway, and whole tiles keep
        # a step's allocation sizes the same from step to step. The pad
        # rows' outputs are never gathered and their gradients are zero.
        emb = params.tensors["embedding"]
        e_uniq = np.zeros((-(-uniq.size // TILE_ROWS) * TILE_ROWS, cfg.d), dtype=emb.dtype)
        np.take(emb, uniq, axis=0, out=e_uniq[: uniq.size])
        if cache is not None:
            cache.update(uniq=uniq, inv=inv, e_uniq=e_uniq)
    if not state.layers:
        state.layers = [params.layer(i) for i in range(cfg.L)]
        if cfg.has_experts:
            state.routers = [np.ascontiguousarray(lv.router.T) for lv in state.layers]
    for i, lv in enumerate(state.layers):
        lc: dict | None = {} if cache is not None else None
        ticket = lut.prefetch(i, flat) if mole_lut else None
        x = attention_forward(lv, x, rotary, (state.k[i], state.v[i], step), cache=lc)
        if lc is not None:
            lc["x_mid"] = x
        if cfg.variant == "dense":
            x = dense_layer_forward(lv, x, cache=lc)
        elif cfg.variant == "moe":
            x, sel = moe_layer_forward(lv, x, state.routers[i], cache=lc)
            if moe_sel is not None:
                moe_sel.append(sel.reshape(-1, cfg.k))
        elif mole_lut:
            # (B*T, N, d) table rows -> (N, B, T, d)
            x = mole_layer_forward(lv, x, lambda t=ticket: lut.await_rows(t).transpose(
                1, 0, 2).reshape(row_shape).astype(params.dtype, copy=False),
                state.routers[i], cache=lc)
        else:
            # (N, U padded, d) rows of the distinct ids -> (N, B, T, d)
            x = mole_layer_forward(lv, x, lambda lv=lv, lc=lc: mole_expert_rows(
                lv, e_uniq, cache=lc)[:, inv].reshape(row_shape), state.routers[i], cache=lc)
        if cache is not None:
            cache["layers"].append(lc)
        if collect_hidden is not None:
            collect_hidden.append(x.copy())
    xf = rmsnorm(x, params.tensors["final_norm.gain"], RMS_EPS)
    logits = matmul(xf, params.tensors["lm_head"])
    if cache is not None:
        cache.update(x_final_in=x, xf=xf)
    return logits


# ---------------------------------------------------------------------------
# Decode-time state
# ---------------------------------------------------------------------------

@dataclass
class DecodeState:
    """What one decode or training forward keeps from forward to forward
    (single owner), sized once by its lanes and ``capacity``:
    - the KV arenas, per layer: every lane's keys ``k[i]`` (lanes, H,
      blocks, d_head, ``KEY_BLOCK``) as transposed key blocks, the operand
      layout of the attention core's scores ``matmul`` (``key_rows`` gives
      the (lanes, H, slots, d_head) view), and values ``v[i]`` (lanes, H,
      slots, d_head), ``slots`` = blocks * ``KEY_BLOCK`` being ``capacity``
      rounded up to whole blocks. They are zero where nothing was written,
      so a block past a lane's span adds exact ``+0.0`` in the attention
      core (``_attend_lanes``);
    - ``lengths[b]``, lane b's cached length, the position of its next
      token, which may not pass ``capacity``;
    - ``cos``/``sin`` (slots, span / 2), the ``rotary_tables`` rows of every
      slot's position, built once: a forward gathers its rows' tables by
      position. They cover every slot, past ``max_seq`` too;
    - ``layers[i]``, layer i's tensors resolved once (``LayerView``: the
      params' own arrays), and ``routers[i]``, its router as ``route``'s
      row-major (d, N) operand, a copy; both are made at the state's first
      forward. A state serves one decode, verification group or training
      forward, over which the parameters do not change."""

    k: list[np.ndarray]
    v: list[np.ndarray]
    lengths: np.ndarray
    capacity: int
    cos: np.ndarray
    sin: np.ndarray
    layers: list[LayerView] = field(default_factory=list)
    routers: list[np.ndarray] = field(default_factory=list)


def init_decode_state(params: ModelParams, lanes: int, capacity: int) -> DecodeState:
    cfg = params.cfg
    blocks = -(-capacity // KEY_BLOCK)
    k_shape = (lanes, cfg.n_heads, blocks, cfg.d_head, KEY_BLOCK)
    v_shape = (lanes, cfg.n_heads, blocks * KEY_BLOCK, cfg.d_head)
    cos, sin = rotary_tables(np.arange(blocks * KEY_BLOCK), cfg.d_head, cfg.rotary_fraction,
                             params.dtype)
    return DecodeState(k=[np.zeros(k_shape, dtype=params.dtype) for _ in range(cfg.L)],
                       v=[np.zeros(v_shape, dtype=params.dtype) for _ in range(cfg.L)],
                       lengths=np.zeros(lanes, dtype=np.int64), capacity=capacity,
                       cos=cos, sin=sin)


def key_rows(keys: np.ndarray) -> np.ndarray:
    """A key arena (lanes, H, blocks, d_head, KEY_BLOCK) as one row per
    position, (lanes, H, blocks * KEY_BLOCK, d_head): the layout backprop
    multiplies by (a copy)."""
    lanes, h, blocks, dh, width = keys.shape
    return keys.swapaxes(-1, -2).reshape(lanes, h, blocks * width, dh)


@dataclass(frozen=True)
class TilePlan:
    """The tiles a step's attention core scores when some lane brings more
    than one new row. A group is one (lane, chunk of ``KEY_BLOCK`` query
    rows); it sees the key blocks up to the one holding its last row's
    position. Groups are ordered by that reach, farthest first, so the
    groups seeing block b are groups 0 .. ``width[b]`` - 1. Tile t is group
    ``group[t]``, that is ``chunk[t]`` of ``lane[t]``, against key block
    ``block[t]``, listed block by block; ``hidden`` (tiles, 1, KEY_BLOCK,
    KEY_BLOCK) is True where a query must not see the key. Packed row r is
    query ``row_slot[r]`` of group ``row_group[r]``; ``chunks`` is the most
    chunks any lane has."""

    lane: np.ndarray
    chunk: np.ndarray
    block: np.ndarray
    group: np.ndarray
    hidden: np.ndarray
    width: tuple[int, ...]
    row_group: np.ndarray
    row_slot: np.ndarray
    chunks: int


@dataclass(frozen=True)
class PackedStep:
    """The layout of one packed forward, shared by every layer's attention
    core: packed row r is new row ``row[r]`` of lane ``lane[r]``, at position
    ``pos[r]``, where its key and value go: column ``slot[r]`` of key block
    ``block[r]``. The core reads the first ``blocks`` key blocks; ``rows``
    is the step's largest new count. A step of one row per lane scores the
    one-row grid, every lane's query against every block, where ``hidden``
    (lanes, 1, blocks, 1, KEY_BLOCK) is True where the lane's query must not
    see the key at that position; any other step scores only the tiles of
    its ``TilePlan`` ``tiles`` (``hidden`` is then None)."""

    lane: np.ndarray
    row: np.ndarray
    pos: np.ndarray
    block: np.ndarray
    slot: np.ndarray
    blocks: int
    rows: int
    hidden: np.ndarray | None
    tiles: TilePlan | None = None


def pack_lanes(lengths: np.ndarray, counts: np.ndarray) -> PackedStep:
    """The ``PackedStep`` of ``counts[b]`` new rows per lane b, packed lane by
    lane, after its ``lengths[b]`` cached ones. A step of one row per lane
    (every decode step), row r being lane r's, gets the one-row grid, laid
    out without the ragged build; any other step (training, prefills,
    verification) gets a tile plan that skips the key blocks wholly after a
    query chunk. Both give every row the same bits (``_attend_lanes``)."""
    n = int(counts.max())
    if n == 1:
        lane = np.arange(len(counts))
        block, slot = np.divmod(lengths, KEY_BLOCK)
        blocks = int(block.max()) + 1
        hidden = np.arange(blocks * KEY_BLOCK) > lengths[:, None]
        return PackedStep(lane, np.zeros_like(lane), lengths.copy(), block, slot, blocks, 1,
                          hidden.reshape(len(counts), 1, blocks, 1, KEY_BLOCK))
    lane = np.repeat(np.arange(len(counts)), counts)
    row = np.arange(lane.size) - (np.cumsum(counts) - counts)[lane]
    pos = lengths[lane] + row
    block, slot = np.divmod(pos, KEY_BLOCK)
    blocks = -(-int((lengths + counts).max()) // KEY_BLOCK)
    return PackedStep(lane, row, pos, block, slot, blocks, n, None,
                      _plan_tiles(lengths, counts, lane, row, blocks))


def _plan_tiles(lengths, counts, lane, row, blocks) -> TilePlan:
    """The ``TilePlan`` of ``pack_lanes``'s step (``lane``/``row`` of each
    packed row, ``blocks`` key blocks)."""
    chunks = (counts + KEY_BLOCK - 1) // KEY_BLOCK
    g_lane = np.repeat(np.arange(len(counts)), chunks)
    first = np.cumsum(chunks) - chunks
    g_chunk = np.arange(g_lane.size) - first[g_lane]
    start = lengths[g_lane] + g_chunk * KEY_BLOCK  # each group's first position
    reach = (np.minimum(start + KEY_BLOCK, (lengths + counts)[g_lane]) - 1) // KEY_BLOCK
    # Rank the groups by reach, farthest first, ties by index: the one-hot
    # reach rows read from the last block down. A stable argsort pages in
    # sort code that nothing else runs, raising peak RSS.
    sees = reach[:, None] == np.arange(blocks)
    order = np.nonzero(sees.T[::-1])[1]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    width = np.cumsum(np.bincount(reach, minlength=blocks)[::-1])[::-1]
    block, group = np.nonzero(np.arange(order.size) < width[:, None])
    of_tile = order[group]
    hidden = _KEY_AHEAD > (start[of_tile] - block * KEY_BLOCK)[:, None, None, None]
    row_chunk, row_slot = np.divmod(row, KEY_BLOCK)
    return TilePlan(g_lane[of_tile], g_chunk[of_tile], block, group, hidden,
                    tuple(width.tolist()), rank[first[lane] + row_chunk], row_slot,
                    int(chunks.max()))


def forward_tokens(params: ModelParams, ids: list, state: DecodeState, lut=None,
                   collect_hidden: list | None = None) -> np.ndarray:
    """Prefill: pack every lane's tokens ``ids[b]`` (a prompt, or any
    non-empty run of new tokens) lane by lane and run them through
    ``forward_lanes``; returns logits (R, vocab), lane by lane."""
    ids = [np.ravel(np.asarray(t)) for t in ids]
    counts = np.array([t.size for t in ids], dtype=np.int64)
    packed = np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64)
    return forward_lanes(params, packed, counts, state, lut=lut, collect_hidden=collect_hidden)


def forward_lanes(
    params: ModelParams,
    ids: np.ndarray,
    counts: np.ndarray,
    state: DecodeState,
    lut=None,
    moe_sel: list | None = None,
    collect_hidden: list | None = None,
) -> np.ndarray:
    """One packed forward over ``counts[b]`` new tokens of each lane b, the
    R = ``counts.sum()`` token ``ids`` packed lane by lane, at positions
    ``state.lengths[b]`` onward and appended to its arena rows; returns
    logits (R, vocab), lane by lane. A decode step passes one token per
    lane, ``counts`` all ones, and builds no per-lane list.

    The R new rows form one (1, R, d) block, so every row-wise op (norms,
    projections, rotary, router, FFNs, LUT combine, top-k experts, head)
    runs once over all rows, and the attention core once over all lanes.
    ``matmul`` fixes each row's reduction whatever the row count, and the
    core's padding adds exact zeros, so each lane gets the bits it gets
    alone. Training runs the same loop (``model_forward``). ``lut``, a row
    source, serves a mole model's table rows (see ``_forward``). ``moe_sel``
    (a list) receives each moe layer's top-k selection (R, k), in layer
    order, and ``collect_hidden`` (a list) each block's output (1, R, d),
    which equivalence localization compares.
    """
    ids, counts = np.asarray(ids), np.asarray(counts)
    if len(counts) != len(state.lengths):
        raise ShapeError(f"{len(counts)} lanes of tokens for a state of "
                         f"{len(state.lengths)} lanes")
    if not (counts > 0).all():
        raise ShapeError(f"lane {int(np.argmax(counts <= 0))} has no new tokens")
    if ids.shape != (counts.sum(),):
        raise ShapeError(f"ids of shape {ids.shape} for {counts.sum()} packed new tokens")
    if np.any(state.lengths + counts > state.capacity):
        raise ShapeError("decode state capacity exceeded")
    step = pack_lanes(state.lengths, counts)
    logits = _forward(params, ids[None, :], lut, state, step,
                      collect_hidden=collect_hidden, moe_sel=moe_sel)
    state.lengths += counts
    return logits[0]


def greedy_pick(logits: np.ndarray) -> np.ndarray:
    """The argmax of every row of ``logits`` (..., vocab) in one call, ties
    broken toward the lower token id."""
    return logits.argmax(axis=-1)
