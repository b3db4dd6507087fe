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
RMS pre-norms and residual connections around each. One layer loop serves the
full-sequence forward (training, verification) and the packed-lane forward
(prefill, decode); they differ only in how attention sees its keys: its own
sequence, or a ``DecodeState`` whose per-layer KV arenas hold every lane.
The mole training form and LUT form differ only in where the expert rows
come from: expert FFNs on embedding rows, or a row source
(``prefetch``/``await_rows``) reading pre-computed tables. Both combine the
rows in one sub-layer, so given identical rows they agree bit-for-bit.

Parameters live in a flat name -> ndarray dict (see ``init_params`` for the
naming scheme); that representation doubles as the checkpoint manifest and as
the shape mirror for gradients and optimizer state.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .kernels import ShapeError, apply_rotary, gelu, matmul, rmsnorm, softmax

RMS_EPS = 1e-5
INIT_STD = 0.02
# Key positions per block of the decode attention core (``_attend_lanes``);
# decode arenas hold whole blocks.
KEY_BLOCK = 16


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
    """Read accessor for one block's tensors."""

    def __init__(self, params: ModelParams, i: int):
        self._t = params.tensors
        self._p = f"layers.{i}"
        self.cfg = params.cfg
        self.index = i

    def __getattr__(self, name: str) -> np.ndarray:
        # attn_wqkv -> layers.{i}.attn.wqkv, shared_w1 -> layers.{i}.shared.w1
        key = f"{self._p}.{name.replace('_', '.', 1)}"
        try:
            return self._t[key]
        except KeyError:
            raise AttributeError(key)

    def norm_gain(self, which: str) -> np.ndarray:
        return self._t[f"{self._p}.{which}.gain"]

    def expert(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        p = f"{self._p}.experts.{j}"
        return (self._t[p + ".w1"], self._t[p + ".b1"],
                self._t[p + ".w2"], self._t[p + ".b2"])

    @property
    def router(self) -> np.ndarray:
        return self._t[f"{self._p}.router"]


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
    order = np.argsort(-scores, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1)


def route(router: np.ndarray, h_normed: np.ndarray, variant: str, k: int
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate every position of ``h_normed`` (..., d).

    Returns (logits (..., N), selected experts, their gates). moe selects the
    k best scores (ascending index) per position and softmaxes over those
    only; mole selects all N experts, ``arange(N)`` for every position, and
    softmaxes over all N scores.
    """
    logits = matmul(np.atleast_2d(h_normed), router.T).reshape(
        h_normed.shape[:-1] + router.shape[:1])
    if variant == "mole":
        return logits, np.arange(router.shape[0]), softmax(logits)
    if variant == "moe":
        sel = topk_select(logits, k)
        return logits, sel, softmax(np.take_along_axis(logits, sel, axis=-1))
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
    positions: np.ndarray,
    kv: tuple[np.ndarray, np.ndarray, PackedStep] | None = None,
    cache: dict | None = None,
) -> np.ndarray:
    """Residual attention sub-layer: x + Attn(input_norm(x)).

    ``positions`` are the absolute positions of the rows of ``x``. Without
    ``kv``, each sequence of ``x`` (B, T, d) attends causally over its own
    rows and ``cache`` receives what backprop needs. With ``kv``, ``x``
    (1, R, d) packs the new rows of several lanes, and ``kv`` is the layer's
    key arena, value arena (lanes, H, slots, d_head), ``slots`` a multiple
    of ``KEY_BLOCK``, and the step's ``PackedStep`` (which lane owns each
    row, and where it goes). One fixed-split core writes the new keys and
    values and attends every lane over its own prefix, with bits that do not
    depend on padding (``_attend_lanes``), so a lane gets the bits it gets
    alone. The full-sequence form keeps the BLAS core (``_attend``); the two
    forms agree to rounding, not bit for bit.
    """
    cfg = layer.cfg
    b, t, d = x.shape
    xn = rmsnorm(x, layer.norm_gain("input_norm"), RMS_EPS)
    qkv = matmul(xn, layer.attn_wqkv) + layer.attn_bqkv
    q, k_, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
    q = split_heads(q, cfg.n_heads)
    k_ = split_heads(k_, cfg.n_heads)
    v = split_heads(v, cfg.n_heads)
    # rotary expects (..., T, H, dh)
    q = apply_rotary(q.transpose(0, 2, 1, 3), positions, cfg.rotary_fraction).transpose(0, 2, 1, 3)
    k_ = apply_rotary(k_.transpose(0, 2, 1, 3), positions, cfg.rotary_fraction).transpose(0, 2, 1, 3)

    scale = x.dtype.type(1.0 / np.sqrt(cfg.d_head))
    if kv is None:
        # causal mask: query at position p attends to key positions <= p
        mask = np.asarray(positions)[None, :] > np.asarray(positions)[:, None]
        probs, ctx = _attend(q, k_, v, mask, scale)
        merged = merge_heads(ctx)
    else:
        if cache is not None:
            raise ValueError("attention cache needs the full-sequence form (kv=None)")
        if b != 1:
            raise ShapeError(f"packed lanes need x of shape (1, R, d), got {x.shape}")
        merged = _attend_lanes(q, k_, v, *kv, scale)
    attn_out = matmul(merged, layer.attn_wo) + layer.attn_bo
    out = x + attn_out
    if cache is not None:
        cache.update(x_in=x, xn=xn, q=q, keys=k_, vals=v,
                     probs=probs, merged=merged, positions=positions)
    return out


def _attend(q, keys, vals, mask, scale):
    """Softmax attention core over the last two axes; ``mask`` (Tq, Tk) is
    True where a query must not see a key. Returns (probs, context)."""
    scores = matmul(q, keys.transpose(0, 1, 3, 2)) * scale
    scores = np.where(mask[None, None], q.dtype.type(-np.inf), scores)
    probs = softmax(scores)
    return probs, matmul(probs, vals)


def _attend_lanes(q, k_, v, keys, vals, step, scale):
    """Write each lane's new keys/values into the arenas at their positions
    ``step.pos``, then attend every lane over its own prefix in one
    fixed-split core; returns the packed context with heads merged (1, R, d).

    New queries are zero-padded per lane to the step's largest new count,
    and the arenas are read as blocks of ``KEY_BLOCK`` positions, as far as
    the longest lane reaches. Scores are one ``matmul`` over (lanes, H,
    blocks), set to ``-inf`` past each query's position; their max over all
    blocks is exact. Each block's denominator sums exactly ``KEY_BLOCK``
    exponentials, ``e @ V`` is one more ``matmul``, and the block partials
    are added in ascending block order into accumulators that start at
    ``+0.0``, then divided once.

    A lane's bits thus do not depend on padding, alone or packed, in any
    arena, under either ``matmul`` kernel: both gemms have fixed (K, N), so
    each row's bits are fixed whatever rows share the call, and a block past
    the lane's written span (zero exponentials, zero values) adds exact
    ``+0.0``. The ``+0.0`` start matters: ``-0.0 + 0.0`` is ``+0.0``, so an
    accumulator seeded with a ``-0.0`` partial would flip sign on a trailing
    block, while one that starts at ``+0.0`` never holds ``-0.0``.
    """
    lanes, h, slots, dh = keys.shape
    if slots % KEY_BLOCK:
        raise ShapeError(f"arena of {slots} slots is not a multiple of {KEY_BLOCK}")
    keys[step.lane, :, step.pos] = k_[0].transpose(1, 0, 2)
    vals[step.lane, :, step.pos] = v[0].transpose(1, 0, 2)
    _, _, blocks, n, _ = step.hidden.shape
    split = (lanes, h, blocks, KEY_BLOCK, dh)
    kb = keys[:, :, : blocks * KEY_BLOCK].reshape(split)
    vb = vals[:, :, : blocks * KEY_BLOCK].reshape(split)
    qp = np.zeros((lanes, h, n, dh), dtype=q.dtype)
    qp[step.lane, :, step.row] = q[0].transpose(1, 0, 2)
    e = matmul(qp[:, :, None], kb.swapaxes(-1, -2))  # scores (lanes, H, blocks, n, KEY_BLOCK)
    e *= scale
    np.copyto(e, q.dtype.type(-np.inf), where=step.hidden)
    e -= e.max(axis=(2, 4), keepdims=True)
    np.exp(e, out=e)
    den_parts = e.sum(axis=-1, keepdims=True)
    ctx_parts = matmul(e, vb)
    den = np.zeros((lanes, h, n, 1), dtype=q.dtype)
    ctx = np.zeros((lanes, h, n, dh), dtype=q.dtype)
    for blk in range(blocks):
        den += den_parts[:, :, blk]
        ctx += ctx_parts[:, :, blk]
    ctx /= den
    return ctx[step.lane, :, step.row].reshape(1, len(step.lane), h * dh)


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
    cache: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k routed expert sub-layer (no shared expert): x + sum g_j FFN_j(hn).
    Returns it with the selected experts (..., k), which offloading loads."""
    cfg = layer.cfg
    hn = rmsnorm(x, layer.norm_gain("post_attn_norm"), RMS_EPS)
    logits, sel, gates = route(layer.router, hn, "moe", cfg.k)  # (B, T, N), (B, T, k) x 2
    out = x.copy()
    expert_caches: list[dict] = [{} for _ in range(cfg.N)]
    for j in range(cfg.N):
        lane, tok, slot = np.nonzero(sel == j)
        if lane.size == 0:
            continue
        w1, b1, w2, b2 = layer.expert(j)
        inp = hn[lane, tok]  # (n_j, d)
        ec = expert_caches[j] if cache is not None else None
        y = ffn_forward(inp, w1, b1, w2, b2, cache=ec)
        g = gates[lane, tok, slot][:, None]
        out[lane, tok] += g * y  # (lane, tok) pairs are unique per expert
        if cache is not None:
            expert_caches[j].update(lane=lane, tok=tok, slot=slot, inp=inp, y=y)
    if cache is not None:
        cache.update(hn=hn, router_logits=logits, sel=sel, gates=gates,
                     experts=expert_caches)
    return out, sel


def mole_expert_rows(
    layer: LayerView,
    e_rows: np.ndarray,
    cache: dict | None = None,
) -> np.ndarray:
    """Routed-expert outputs for embedding rows: rows[j] = FFN_j(expert_norm(e)).

    e_rows: (..., d) raw embedding rows; returns (N, ..., d).
    """
    cfg = layer.cfg
    en = rmsnorm(e_rows, layer.norm_gain("expert_norm"), RMS_EPS)
    rows = np.empty((cfg.N,) + e_rows.shape, dtype=e_rows.dtype)
    for j in range(cfg.N):
        w1, b1, w2, b2 = layer.expert(j)
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
    cache: dict | None = None,
) -> np.ndarray:
    """mole expert sub-layer: x + FFN_shared(post_attn_norm(x)) + sum_j g_j rows[j].

    ``rows`` (N, ..., d) are the routed-expert outputs for the current
    tokens, or a no-argument callable returning them that runs after the
    shared expert. The training form passes one running the expert FFNs on
    the embedding rows (``mole_expert_rows``); the LUT form one redeeming
    the ticket ``prefetch`` issued at layer entry, so the table rows are read
    inside ``await_rows``, after the router and the shared expert. Both
    forms combine here, so equal rows give equal bits.
    """
    cfg = layer.cfg
    hn = rmsnorm(x, layer.norm_gain("post_attn_norm"), RMS_EPS)
    logits, _, gates = route(layer.router, hn, "mole", cfg.N)
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
    hn = rmsnorm(x, layer.norm_gain("post_attn_norm"), RMS_EPS)
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
    form: str = "train_form",
    lut=None,
    cache: dict | None = None,
    collect_hidden: list | None = None,
) -> np.ndarray:
    """logits (B, T, vocab) for a batch of full sequences, each attending
    causally over its own tokens.

    ``form`` selects the mole expert path: "train_form" runs the expert FFNs
    on embedding rows; "lut_form" fetches pre-computed rows from ``lut``
    (a row source: prefetch(layer, ids) and await_rows(ticket)). Dense and
    moe ignore ``form``. ``cache`` (a dict) receives what backprop needs;
    ``collect_hidden`` (a list) receives the post-block hidden states, used
    by equivalence localization.
    """
    ids = np.atleast_2d(np.asarray(ids))
    if ids.shape[1] > params.cfg.max_seq:
        raise ShapeError(f"sequence length {ids.shape[1]} exceeds max_seq {params.cfg.max_seq}")
    return _forward(params, ids, np.arange(ids.shape[1]), form, lut,
                    cache=cache, collect_hidden=collect_hidden)


def _forward(
    params: ModelParams,
    ids: np.ndarray,
    positions: np.ndarray,
    form: str,
    lut,
    state: DecodeState | None = None,
    step: PackedStep | None = None,
    cache: dict | None = None,
    collect_hidden: list | None = None,
    moe_sel: list | None = None,
) -> np.ndarray:
    """The layer loop of both forward forms: logits (B, T, vocab) for token
    ``ids`` (B, T) at absolute ``positions`` (T,).

    Without ``state`` every sequence attends causally over its own rows.
    With a DecodeState ``ids`` is one (1, R) block of packed lanes laid out
    by ``step``, and each layer's attention writes into its arenas (see
    ``attention_forward``). mole LUT rows are prefetched for every id at
    layer entry and awaited inside the expert sub-layer.
    """
    if form not in ("train_form", "lut_form"):
        raise ValueError(f"unknown form {form!r}")
    cfg = params.cfg
    mole_lut = cfg.variant == "mole" and form == "lut_form"
    if mole_lut and lut is None:
        raise ValueError("lut_form forward for a mole model needs a lut handle")
    if cfg.variant == "mole" and not mole_lut and params.inference_form:
        raise ValueError("train_form forward needs the routed expert tensors")
    x = embed(params, ids)
    e_rows = x  # raw embedding rows, the input of every layer's mole experts
    flat = ids.reshape(-1)
    row_shape = (cfg.N,) + ids.shape + (cfg.d,)
    if cache is not None:
        cache.update(ids=ids, x0=x, layers=[])
    for i in range(cfg.L):
        lv = params.layer(i)
        lc: dict | None = {} if cache is not None else None
        ticket = lut.prefetch(i, flat) if mole_lut else None
        x = attention_forward(lv, x, positions, cache=lc,
                              kv=None if state is None else (state.k[i], state.v[i], step))
        if lc is not None:
            lc["x_mid"] = x
        if cfg.variant == "dense":
            x = dense_layer_forward(lv, x, cache=lc)
        elif cfg.variant == "moe":
            x, sel = moe_layer_forward(lv, x, cache=lc)
            if moe_sel is not None:
                moe_sel.append(sel.reshape(-1, cfg.k))
        elif mole_lut:
            # (B*T, N, d) table rows -> (N, B, T, d)
            x = mole_layer_forward(lv, x, lambda t=ticket: lut.await_rows(t).transpose(
                1, 0, 2).reshape(row_shape).astype(params.dtype), cache=lc)
        else:
            x = mole_layer_forward(lv, x, lambda lv=lv, lc=lc: mole_expert_rows(
                lv, e_rows, cache=lc), cache=lc)
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
    """The KV arenas of one packed decode (single owner): per layer, every
    lane's keys ``k[i]`` and values ``v[i]`` (lanes, H, slots, d_head),
    ``slots`` being ``capacity`` rounded up to whole ``KEY_BLOCK``s;
    ``lengths[b]`` is lane b's cached length, the position of its next
    token, and may not pass ``capacity``. The arenas are zero where nothing
    was written, so a block past a lane's span adds exact ``+0.0`` in the
    attention core (``_attend_lanes``)."""

    k: list[np.ndarray]
    v: list[np.ndarray]
    lengths: np.ndarray
    capacity: int


def init_decode_state(params: ModelParams, lanes: int, capacity: int) -> DecodeState:
    cfg = params.cfg
    slots = -(-capacity // KEY_BLOCK) * KEY_BLOCK
    shape = (lanes, cfg.n_heads, slots, cfg.d_head)
    return DecodeState(k=[np.zeros(shape, dtype=params.dtype) for _ in range(cfg.L)],
                       v=[np.zeros(shape, dtype=params.dtype) for _ in range(cfg.L)],
                       lengths=np.zeros(lanes, dtype=np.int64), capacity=capacity)


@dataclass(frozen=True)
class PackedStep:
    """The layout of one packed forward, shared by every layer's attention
    core: packed row r is new row ``row[r]`` of lane ``lane[r]``, at position
    ``pos[r]``, where its key and value go. ``hidden`` (lanes, 1, blocks, n,
    KEY_BLOCK) is True where a lane's new query j must not see the key at
    that position of the first ``blocks`` key blocks; n is the step's
    largest new count."""

    lane: np.ndarray
    row: np.ndarray
    pos: np.ndarray
    hidden: np.ndarray


def pack_lanes(lengths: np.ndarray, counts: np.ndarray) -> PackedStep:
    """The ``PackedStep`` of ``counts[b]`` new rows per lane b, packed lane by
    lane, after its ``lengths[b]`` cached ones."""
    lane = np.repeat(np.arange(len(counts)), counts)
    row = np.arange(lane.size) - (np.cumsum(counts) - counts)[lane]
    blocks = -(-int((lengths + counts).max()) // KEY_BLOCK)
    key_pos = np.arange(blocks * KEY_BLOCK).reshape(blocks, 1, KEY_BLOCK)
    query_pos = lengths[:, None] + np.arange(int(counts.max()))
    hidden = key_pos[None] > query_pos[:, None, :, None]
    return PackedStep(lane, row, lengths[lane] + row, hidden[:, None])


def forward_tokens(params: ModelParams, ids: list, state: DecodeState,
                   form: str = "train_form", lut=None) -> np.ndarray:
    """Prefill: run every lane's prompt ``ids[b]`` through ``forward_lanes``
    into a fresh ``state``; returns logits (R, vocab), lane by lane."""
    return forward_lanes(params, ids, state, form=form, lut=lut)


def forward_lanes(
    params: ModelParams,
    ids: list,
    state: DecodeState,
    form: str = "train_form",
    lut=None,
    moe_sel: list | None = None,
) -> np.ndarray:
    """One packed forward over the new tokens ``ids[b]`` of each lane b, at
    positions ``state.lengths[b]`` onward and appended to its arena rows;
    returns logits (R, vocab), lane by lane.

    The R new rows form one (1, R, d) block, so every row-wise op (norms,
    projections, rotary, router, FFNs, LUT combine, top-k experts, head)
    runs once over all rows, and the attention core once over all lanes.
    ``matmul`` fixes each row's reduction whatever the row count, and the
    core's padding adds exact zeros, so each lane gets the bits it gets
    alone. The layer loop is ``model_forward``'s. ``moe_sel`` (a list)
    receives each moe layer's top-k selection (R, k), in layer order.
    """
    ids = [np.ravel(np.asarray(t)) for t in ids]
    if len(ids) != len(state.lengths):
        raise ShapeError(f"{len(ids)} lanes of tokens for a state of {len(state.lengths)} lanes")
    lens = np.array([t.size for t in ids], dtype=np.int64)
    if np.any(state.lengths + lens > state.capacity):
        raise ShapeError("decode state capacity exceeded")
    step = pack_lanes(state.lengths, lens)
    logits = _forward(params, np.concatenate(ids)[None, :], step.pos, form, lut,
                      state=state, step=step, moe_sel=moe_sel)
    state.lengths += lens
    return logits[0]


def greedy_pick(logits_row: np.ndarray) -> int:
    """Argmax with ties broken toward the lower token id."""
    return int(np.argmax(logits_row))
