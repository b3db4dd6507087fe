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
RMS pre-norms and residual connections around each. The training form and the
LUT form share the expert-combination helper so that, given identical rows,
they agree bit-for-bit.

Parameters live in a flat name -> ndarray dict (see ``init_params`` for the
naming scheme); that representation doubles as the checkpoint manifest and as
the shape mirror for gradients and optimizer state.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig
from .kernels import ShapeError, apply_rotary, gelu, matmul, rmsnorm, softmax

RMS_EPS = 1e-5
INIT_STD = 0.02


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


def _shape_of(name: str, cfg: ModelConfig) -> tuple[int, ...]:
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
        shape = _shape_of(name, cfg)
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

@dataclass
class GateResult:
    selected: tuple[int, ...]
    gates: dict[int, float]


def topk_select(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, ascending index
    order, ties broken toward the lower index."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1)


def route(router: np.ndarray, h_normed: np.ndarray, variant: str, k: int) -> GateResult:
    """Gate a single position. moe: softmax over the k best scores only;
    mole: softmax over all N scores."""
    scores = matmul(h_normed[None, :], router.T)[0]
    if variant == "mole":
        gates = softmax(scores)
        sel = tuple(range(scores.shape[0]))
    elif variant == "moe":
        sel_arr = topk_select(scores, k)
        gates_sel = softmax(scores[sel_arr])
        sel = tuple(int(j) for j in sel_arr)
        gates = gates_sel
    else:
        raise ValueError(f"variant {variant!r} has no router")
    return GateResult(sel, {j: float(g) for j, g in zip(sel, gates)})


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
    kv: dict | list[dict] | None = None,
    cache: dict | None = None,
    bounds: np.ndarray | None = None,
) -> np.ndarray:
    """Residual attention sub-layer: x + Attn(input_norm(x)).

    ``positions`` are the absolute positions of the rows of ``x``. Without
    ``kv``, each sequence of ``x`` (B, T, d) attends causally over its own
    rows and ``cache`` receives what backprop needs. With ``kv``, ``x``
    (1, R, d) packs the new rows of several lanes: lane b owns rows
    ``bounds[b]:bounds[b + 1]`` and ``kv[b]`` is its cache ("k"/"v" of shape
    (1, H, capacity, d_head), "len"); a single dict is one lane owning every
    row. New keys/values are appended and each lane attends over its own
    prefix (see ``_attend_lanes``), so a lane gets the bits it gets alone.
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
    else:
        if cache is not None:
            raise ValueError("attention cache needs the full-sequence form (kv=None)")
        if b != 1:
            raise ShapeError(f"packed lanes need x of shape (1, R, d), got {x.shape}")
        if isinstance(kv, dict):
            kv, bounds = [kv], (0, t)
        ctx = _attend_lanes(q, k_, v, kv, bounds, scale)
    merged = merge_heads(ctx)
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


def _attend_lanes(q, k_, v, kv, bounds, scale):
    """Append each lane's new keys/values to its cache, then run the
    attention core once per group of lanes with equal (cached, new) lengths.

    Within a group every lane has the same shapes and causal mask, and the
    stacked ``matmul`` computes each lane's matrices on their own, so
    grouping changes no bits."""
    h, dh = q.shape[1], q.shape[3]
    bounds = np.asarray(bounds)
    edges = bounds.tolist()
    groups: dict[tuple[int, int], list[int]] = {}
    for lane, c in enumerate(kv):
        lo, hi = edges[lane], edges[lane + 1]
        past = c["len"]
        if past + hi - lo > c["k"].shape[2]:
            raise ShapeError("KV cache capacity exceeded")
        c["k"][:, :, past : past + hi - lo] = k_[:, :, lo:hi]
        c["v"][:, :, past : past + hi - lo] = v[:, :, lo:hi]
        c["len"] = past + hi - lo
        groups.setdefault((past, hi - lo), []).append(lane)
    ctx = np.empty_like(q)
    for (past, n), lanes in groups.items():
        span = past + n
        rows = (bounds[lanes][:, None] + np.arange(n)).ravel()
        qg = q[0][:, rows].reshape(h, len(lanes), n, dh).transpose(1, 0, 2, 3)
        keys = np.concatenate([kv[b]["k"][:, :, :span] for b in lanes])
        vals = np.concatenate([kv[b]["v"][:, :, :span] for b in lanes])
        mask = np.arange(span)[None, :] > np.arange(past, span)[:, None]
        _, ctx_g = _attend(qg, keys, vals, mask, scale)
        ctx[0][:, rows] = ctx_g.transpose(1, 0, 2, 3).reshape(h, len(lanes) * n, dh)
    return ctx


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
) -> np.ndarray:
    """Top-k routed expert sub-layer (no shared expert): x + sum g_j FFN_j(hn)."""
    cfg = layer.cfg
    hn = rmsnorm(x, layer.norm_gain("post_attn_norm"), RMS_EPS)
    logits = matmul(hn, layer.router.T)  # (B, T, N)
    sel = topk_select(logits, cfg.k)  # (B, T, k)
    sel_scores = np.take_along_axis(logits, sel, axis=-1)
    gates = softmax(sel_scores)  # (B, T, k)
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
    return out


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


def mole_layer_forward_train(
    layer: LayerView,
    x: np.ndarray,
    e_rows: np.ndarray,
    cache: dict | None = None,
) -> np.ndarray:
    """Training-form mole sub-layer:
    x + FFN_shared(post_attn_norm(x)) + sum_j g_j FFN_j(expert_norm(e)).
    """
    hn = rmsnorm(x, layer.norm_gain("post_attn_norm"), RMS_EPS)
    logits = matmul(hn, layer.router.T)
    gates = softmax(logits)
    shared = ffn_forward(hn, layer.shared_w1, layer.shared_b1,
                         layer.shared_w2, layer.shared_b2, cache=cache, tag="shared_")
    rows = mole_expert_rows(layer, e_rows, cache=cache)
    routed = combine_expert_rows(gates, rows)
    if cache is not None:
        cache.update(hn=hn, router_logits=logits, gates=gates, rows=rows)
    return x + shared + routed


def mole_layer_forward_infer(
    layer: LayerView,
    x: np.ndarray,
    rows: np.ndarray | Callable[[], np.ndarray],
) -> np.ndarray:
    """LUT-form mole sub-layer; ``rows`` are pre-computed expert outputs
    (N, ..., d) fetched for the current token ids, or a no-argument callable
    returning them. The callable runs after the shared expert, so a fetch in
    flight overlaps the router and the shared expert."""
    cfg = layer.cfg
    hn = rmsnorm(x, layer.norm_gain("post_attn_norm"), RMS_EPS)
    logits = matmul(hn, layer.router.T)
    gates = softmax(logits)
    shared = ffn_forward(hn, layer.shared_w1, layer.shared_b1,
                         layer.shared_w2, layer.shared_b2)
    if callable(rows):
        rows = rows()
    if rows.shape[0] != cfg.N:
        raise ShapeError(f"expected {cfg.N} expert rows, got {rows.shape[0]}")
    routed = combine_expert_rows(gates, rows)
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
    """logits (B, T, vocab) for a batch of full sequences.

    ``form`` selects the mole expert path: "train_form" runs the expert FFNs
    on embedding rows; "lut_form" fetches pre-computed rows from ``lut``
    (an object with gather(layer, ids)). Dense and moe ignore ``form``.
    ``collect_hidden`` (a list) receives the post-block hidden states, used
    by equivalence localization.
    """
    if form not in ("train_form", "lut_form"):
        raise ValueError(f"unknown form {form!r}")
    cfg = params.cfg
    ids = np.atleast_2d(np.asarray(ids))
    if ids.shape[1] > cfg.max_seq:
        raise ShapeError(f"sequence length {ids.shape[1]} exceeds max_seq {cfg.max_seq}")
    mole_lut = cfg.variant == "mole" and form == "lut_form"
    if mole_lut and lut is None:
        raise ValueError("lut_form forward for a mole model needs a lut handle")
    if cfg.variant == "mole" and form == "train_form" and params.inference_form:
        raise ValueError("train_form forward needs the routed expert tensors")
    b, t = ids.shape
    x = embed(params, ids)
    e_rows = x  # raw embedding rows, threaded into every block's expert path
    positions = np.arange(t)
    if cache is not None:
        cache.update(ids=ids, x0=x, layers=[])
    for i in range(cfg.L):
        lv = params.layer(i)
        lc: dict | None = {} if cache is not None else None
        x = attention_forward(lv, x, positions, cache=lc)
        if cache is not None:
            lc["x_mid"] = x
        if cfg.variant == "dense":
            x = dense_layer_forward(lv, x, cache=lc)
        elif cfg.variant == "moe":
            x = moe_layer_forward(lv, x, cache=lc)
        elif mole_lut:
            flat = ids.reshape(-1)
            rows = lut.gather(i, flat)  # (B*T, N, d)
            rows = rows.transpose(1, 0, 2).reshape(cfg.N, b, t, cfg.d).astype(x.dtype)
            x = mole_layer_forward_infer(lv, x, rows)
        else:
            x = mole_layer_forward_train(lv, x, e_rows, cache=lc)
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
    """Per-lane KV caches for autoregressive decoding (single owner)."""

    kv: list[dict] = field(default_factory=list)  # per layer: {"k","v","len"}
    position: int = 0


def init_decode_state(params: ModelParams, max_len: int) -> DecodeState:
    cfg = params.cfg
    state = DecodeState()
    for _ in range(cfg.L):
        state.kv.append({
            "k": np.zeros((1, cfg.n_heads, max_len, cfg.d_head), dtype=params.dtype),
            "v": np.zeros((1, cfg.n_heads, max_len, cfg.d_head), dtype=params.dtype),
            "len": 0,
        })
    return state


def forward_tokens(params: ModelParams, ids, state: DecodeState | list[DecodeState],
                   form: str = "train_form", lut=None) -> np.ndarray:
    """Run new tokens through the model, extending the KV caches. One lane:
    ``ids`` (T,) and a DecodeState, returning logits (T, vocab). Several:
    per-lane id arrays and DecodeStates, run by ``forward_lanes``."""
    if isinstance(state, DecodeState):
        return forward_lanes(params, [ids], [state], form=form, lut=lut)
    return forward_lanes(params, ids, state, form=form, lut=lut)


def forward_lanes(
    params: ModelParams,
    ids: list,
    states: list[DecodeState],
    form: str = "train_form",
    lut=None,
    moe_sel: list | None = None,
) -> np.ndarray:
    """One packed forward over the new tokens ``ids[b]`` of each lane b,
    appended to ``states[b]``; returns logits (R, vocab), lane by lane.

    The R new rows form one (1, R, d) block with per-row positions, so every
    row-wise op (norms, projections, rotary, router, FFNs, LUT combine,
    top-k experts, head) runs once over all rows. Only the attention core is
    per lane group. ``matmul`` fixes each row's reduction whatever the row
    count and no lane is padded, so each lane gets the bits it gets alone.
    mole ``lut_form`` prefetches all R rows per layer at layer entry and
    awaits them after attention and the shared expert. ``moe_sel`` (a list)
    receives each moe layer's top-k selection (R, k), in layer order.
    """
    cfg = params.cfg
    ids = [np.ravel(np.asarray(t)) for t in ids]
    lens = [t.size for t in ids]
    for st, n in zip(states, lens):
        if st.position + n > st.kv[0]["k"].shape[2]:
            raise ShapeError("decode state capacity exceeded")
        if st.kv[0]["len"] != st.position:
            raise ShapeError("cache length disagrees with current position")
    flat = np.concatenate(ids)
    bounds = np.concatenate(([0], np.cumsum(lens)))
    positions = np.concatenate([np.arange(st.position, st.position + n)
                                for st, n in zip(states, lens)])
    x = embed(params, flat[None, :])
    e_rows = x
    mole_lut = cfg.variant == "mole" and form == "lut_form"
    for i in range(cfg.L):
        lv = params.layer(i)
        ticket = lut.prefetch(i, flat) if mole_lut else None
        x = attention_forward(lv, x, positions, kv=[st.kv[i] for st in states], bounds=bounds)
        if cfg.variant == "dense":
            x = dense_layer_forward(lv, x)
        elif cfg.variant == "moe":
            lc = {} if moe_sel is not None else None
            x = moe_layer_forward(lv, x, cache=lc)
            if lc is not None:
                moe_sel.append(lc["sel"][0])
        elif mole_lut:
            # (R, N, d) table rows -> (N, 1, R, d), awaited inside the layer
            x = mole_layer_forward_infer(lv, x, lambda t=ticket: lut.await_rows(t).transpose(
                1, 0, 2)[:, None].astype(params.dtype))
        else:
            x = mole_layer_forward_train(lv, x, e_rows)
    for st, n in zip(states, lens):
        st.position += n
    xf = rmsnorm(x, params.tensors["final_norm.gain"], RMS_EPS)
    return matmul(xf, params.tensors["lm_head"])[0]


def greedy_pick(logits_row: np.ndarray) -> int:
    """Argmax with ties broken toward the lower token id."""
    return int(np.argmax(logits_row))
