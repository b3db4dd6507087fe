"""Desk-scale training: hand-written reverse-mode gradients, Adam with
decoupled weight decay, warmup + cosine schedule, optional auxiliary router
losses for the moe variant, and a finite-difference gradient checker.

The backward pass walks the layer loop that ``model.model_forward`` shares
with decode in reverse, consuming the activation cache that the training-form
forward records. That forward runs the attention core of decoding, over the
B x T batch as B lanes of a fresh ``DecodeState``; the attention backward
reads the core's probabilities and the state's key and value arenas. mole
trains with the language-model loss alone; the auxiliary z / load-balance
terms exist as hooks for the moe variant and reproduce the pure-LM path
bit-for-bit when their coefficients are zero.

The mole routed experts ran once per distinct token id in the forward, so
their backward runs once per id too: each expert's upstream gradient for an
id is the sum of g_j * dx over the id's positions (one ``matmul`` with a
one-hot (ids, positions) matrix per layer; the zero rows that pad the
distinct ids to whole matmul tiles get zero gradients). Against a
per-position backward that changes only where the sums happen: the
routed-expert, ``expert_norm`` and ``embedding`` gradients differ in
summation order (a few float32 ulps), and every other gradient, as well as
every dense and moe gradient, is the same bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .config import ModelConfig, TrainConfig
from .kernels import apply_rotary, gelu_grad, matmul, rmsnorm_backward, softmax
from .model import (
    RMS_EPS,
    LayerView,
    ModelParams,
    key_rows,
    merge_heads,
    model_forward,
    split_heads,
)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def lm_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean token-level cross-entropy with a stable log-softmax."""
    logits = np.atleast_2d(logits)
    flat = logits.reshape(-1, logits.shape[-1])
    t = np.asarray(targets).reshape(-1)
    if t.shape[0] != flat.shape[0]:
        raise ValueError(f"{t.shape[0]} targets for {flat.shape[0]} positions")
    if t.size and (t.min() < 0 or t.max() >= flat.shape[1]):
        raise IndexError("target id out of range")
    shifted = flat - np.max(flat, axis=-1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=-1))
    nll = lse - shifted[np.arange(t.shape[0]), t]
    return float(np.mean(nll))


def lm_loss_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d(lm_loss)/d(logits): (softmax - onehot) / n_positions."""
    flat = logits.reshape(-1, logits.shape[-1])
    t = np.asarray(targets).reshape(-1)
    probs = softmax(flat)
    probs[np.arange(t.shape[0]), t] -= 1.0
    probs /= flat.dtype.type(t.shape[0])
    return probs.reshape(logits.shape)


def balance_loss(router_probs: np.ndarray, selections: np.ndarray, n_experts: int, k: int) -> float:
    """Load-balance penalty N * sum_j f_j * P_j.

    f_j = fraction of (token, slot) assignments that picked expert j
    (counts normalized by tokens * k), P_j = mean router probability of j.
    Uniform probabilities with perfectly balanced selections give exactly 1.
    """
    probs = router_probs.reshape(-1, n_experts)
    sel = selections.reshape(-1, k)
    tokens = probs.shape[0]
    counts = np.bincount(sel.reshape(-1), minlength=n_experts).astype(np.float64)
    f = counts / (tokens * k)
    p = probs.mean(axis=0, dtype=np.float64)
    return float(n_experts * np.sum(f * p))


def z_loss(router_logits: np.ndarray) -> float:
    """Mean over tokens of squared log-sum-exp of the router logits."""
    logits = router_logits.reshape(-1, router_logits.shape[-1])
    m = np.max(logits, axis=-1, keepdims=True)
    lse = np.log(np.sum(np.exp(logits - m), axis=-1)) + m[:, 0]
    return float(np.mean(np.square(lse)))


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _flat(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, x.shape[-1])


def _softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    inner = np.sum(dprobs * probs, axis=-1, keepdims=True, dtype=probs.dtype)
    return probs * (dprobs - inner)


def _ffn_backward(
    dout: np.ndarray,
    xin: np.ndarray,
    pre: np.ndarray,
    act: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    grads: dict[str, np.ndarray],
    prefix: str,
) -> np.ndarray:
    """Backprop a two-layer GELU FFN; returns d(input)."""
    dact = matmul(dout, w2.T)
    grads[prefix + ".w2"] += matmul(_flat(act).T, _flat(dout))
    grads[prefix + ".b2"] += np.sum(_flat(dout), axis=0, dtype=dout.dtype)
    dpre = dact * gelu_grad(pre)
    grads[prefix + ".w1"] += matmul(_flat(xin).T, _flat(dpre))
    grads[prefix + ".b1"] += np.sum(_flat(dpre), axis=0, dtype=dout.dtype)
    return matmul(dpre, w1.T)


def _attention_backward(
    layer: LayerView,
    lc: dict,
    dx_out: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Backprop x + Attn(input_norm(x)); returns d(x_in).

    ``lc`` is what ``attention_forward`` cached for B lanes of T rows in a
    fresh ``DecodeState``: the queries (B, H, T, d_head), the key and value
    arenas and the probabilities over their slots. The backward reads the
    keys one per position (``key_rows``). Slots past T hold zero keys and
    values at zero probability, so the backward reads the first T. The
    query and key gradients rotate back in one call, as 2H heads.
    """
    cfg = layer.cfg
    p = f"layers.{layer.index}"
    x_in, xn = lc["x_in"], lc["xn"]
    q, merged = lc["q"], lc["merged"]
    b, h, t, _ = q.shape
    keys, vals, probs = key_rows(lc["keys"])[:, :, :t], lc["vals"][:, :, :t], lc["probs"][..., :t]
    cos, sin = lc["rotary"]
    dtype = dx_out.dtype

    dmerged = matmul(dx_out, layer.attn_wo.T)
    grads[p + ".attn.wo"] += matmul(_flat(merged).T, _flat(dx_out))
    grads[p + ".attn.bo"] += np.sum(_flat(dx_out), axis=0, dtype=dtype)

    dctx = split_heads(dmerged, cfg.n_heads)
    dprobs = matmul(dctx, vals.transpose(0, 1, 3, 2))
    dvals = matmul(probs.transpose(0, 1, 3, 2), dctx)
    dscores = _softmax_backward(probs, dprobs) * dtype.type(1.0 / np.sqrt(cfg.d_head))
    dqk = np.concatenate([matmul(dscores, keys),
                          matmul(dscores.transpose(0, 1, 3, 2), q)], axis=1)  # (B, 2H, T, d_head)

    # undo the rotation (orthogonal, so the inverse rotation is the transpose)
    dqk = apply_rotary(dqk.transpose(0, 2, 1, 3), cos, -sin)  # (B, T, 2H, d_head)
    dqkv = np.concatenate([dqk.reshape(b, t, 2 * h * dqk.shape[-1]), merge_heads(dvals)],
                          axis=-1)
    dxn = matmul(dqkv, layer.attn_wqkv.T)
    grads[p + ".attn.wqkv"] += matmul(_flat(xn).T, _flat(dqkv))
    grads[p + ".attn.bqkv"] += np.sum(_flat(dqkv), axis=0, dtype=dtype)

    dx_norm, dgain = rmsnorm_backward(x_in, layer.input_norm, dxn, RMS_EPS)
    grads[p + ".input_norm.gain"] += dgain
    return dx_out + dx_norm


def _router_scatter_grads(
    layer: LayerView,
    hn: np.ndarray,
    dlogits: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Backprop logits = hn @ router.T; returns d(hn)."""
    p = f"layers.{layer.index}"
    grads[p + ".router"] += matmul(_flat(dlogits).T, _flat(hn))
    return matmul(dlogits, layer.router)


def _loss_metrics(cfg: ModelConfig, logits: np.ndarray, targets: np.ndarray,
                  cache: dict, tcfg: TrainConfig) -> dict[str, float]:
    """The training loss of one forward pass (``cache`` filled by
    ``model_forward``): the LM term, the moe router z and load-balance terms
    summed over layers, and their weighted "total"."""
    metrics = {"lm": lm_loss(logits, targets), "z": 0.0, "balance": 0.0}
    if cfg.variant == "moe":
        for lc in cache["layers"]:
            metrics["z"] += z_loss(lc["router_logits"])
            metrics["balance"] += balance_loss(
                softmax(lc["router_logits"]), lc["sel"], cfg.N, cfg.k)
    metrics["total"] = (
        metrics["lm"]
        + tcfg.z_loss_coeff * metrics["z"]
        + tcfg.balance_loss_coeff * metrics["balance"]
    )
    return metrics


def backward(
    params: ModelParams,
    batch: tuple[np.ndarray, np.ndarray],
    tcfg: TrainConfig,
) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Loss and exact reverse-mode gradients of the total training loss.

    ``batch`` is (ids, targets), both (B, T). Returns a metrics dict
    ("lm", "z", "balance", "total") and one gradient per parameter tensor.
    Top-k selection is a non-differentiable mask: gradients flow through the
    softmax over the selected scores only.
    """
    cfg = params.cfg
    ids, targets = batch
    ids = np.atleast_2d(ids)
    targets = np.atleast_2d(targets)
    use_aux = tcfg.z_loss_coeff != 0.0 or tcfg.balance_loss_coeff != 0.0
    if use_aux and cfg.variant != "moe":
        raise ValueError("auxiliary router losses apply to the moe variant only")

    cache: dict = {}
    logits = model_forward(params, ids, cache=cache)
    dtype = logits.dtype
    metrics = _loss_metrics(cfg, logits, targets, cache, tcfg)
    if not np.isfinite(metrics["total"]):
        raise FloatingPointError(f"non-finite training loss: {metrics}")

    grads = {name: np.zeros_like(params.tensors[name]) for name in params.tensors}

    # head
    dlogits = lm_loss_grad(logits, targets)
    grads["lm_head"] += matmul(_flat(cache["xf"]).T, _flat(dlogits))
    dxf = matmul(dlogits, params.tensors["lm_head"].T)
    # the logits and their gradient are the step's largest arrays; the
    # layer loop, where the step's memory peaks, does not read them
    del logits, dlogits
    dx, dgain = rmsnorm_backward(cache["x_final_in"], params.tensors["final_norm.gain"],
                                 dxf, RMS_EPS)
    grads["final_norm.gain"] += dgain

    if cfg.variant == "mole":
        # onehot[u, p] = 1 where position p holds the u-th distinct id, so
        # onehot @ v sums v over each id's positions; the rows past
        # uniq.size pad e_uniq to whole matmul tiles and stay zero
        uniq, e_uniq = cache["uniq"], cache["e_uniq"]
        onehot = np.zeros((e_uniq.shape[0], ids.size), dtype=dtype)
        onehot[cache["inv"], np.arange(ids.size)] = 1
        de_uniq = np.zeros_like(e_uniq)

    for i in reversed(range(cfg.L)):
        lv = params.layer(i)
        lc = cache["layers"][i]
        p = f"layers.{i}"
        x_mid, hn = lc["x_mid"], lc["hn"]

        dhn = np.zeros_like(hn)
        dx_mid = dx.copy()  # residual passthrough

        if cfg.has_shared:
            dhn += _ffn_backward(dx, hn, lc["shared_pre"], lc["shared_act"],
                                 lv.shared_w1, lv.shared_w2, grads, p + ".shared")
        if cfg.variant == "moe":
            dgates = np.zeros_like(lc["gates"])  # (B, T, k)
            for j in range(cfg.N):
                ec = lc["experts"][j]
                if not ec:
                    continue
                lane, tok, slot = ec["lane"], ec["tok"], ec["slot"]
                dout_tok = dx[lane, tok]
                g = lc["gates"][lane, tok, slot][:, None]
                dgates[lane, tok, slot] += np.sum(dout_tok * ec["y"], axis=-1, dtype=dtype)
                dinp = _ffn_backward(g * dout_tok, ec["inp"], ec["pre"], ec["act"],
                                     lv.experts[j][0], lv.experts[j][2],
                                     grads, f"{p}.experts.{j}")
                dhn[lane, tok] += dinp
            dsel_scores = _softmax_backward(lc["gates"], dgates)
            dlogits_r = np.zeros_like(lc["router_logits"])
            np.put_along_axis(dlogits_r, lc["sel"], dsel_scores, axis=-1)
            if use_aux:
                dlogits_r += _aux_loss_grads(lc, cfg, tcfg, dtype)
            dhn += _router_scatter_grads(lv, hn, dlogits_r, grads)
        elif cfg.variant == "mole":
            gates, rows = lc["gates"], lc["rows"]
            dgates = np.einsum("bts,nbts->btn", dx, rows).astype(dtype)
            # expert j's upstream for each distinct id: its positions' g_j * dx
            gdx = (gates[..., None] * dx[..., None, :]).reshape(ids.size, cfg.N * cfg.d)
            dup = matmul(onehot, gdx).reshape(e_uniq.shape[0], cfg.N, cfg.d)
            den = np.zeros_like(lc["en"])
            for j in range(cfg.N):
                ec = lc["experts"][j]
                den += _ffn_backward(dup[:, j], lc["en"], ec["pre"], ec["act"],
                                     lv.experts[j][0], lv.experts[j][2],
                                     grads, f"{p}.experts.{j}")
            de_l, dgain_e = rmsnorm_backward(e_uniq, lv.expert_norm,
                                             den, RMS_EPS)
            grads[p + ".expert_norm.gain"] += dgain_e
            de_uniq += de_l
            dlogits_r = _softmax_backward(gates, dgates)
            dhn += _router_scatter_grads(lv, hn, dlogits_r, grads)

        dpost, dgain_p = rmsnorm_backward(x_mid, lv.post_attn_norm, dhn, RMS_EPS)
        grads[p + ".post_attn_norm.gain"] += dgain_p
        dx_mid += dpost

        dx = _attention_backward(lv, lc, dx_mid, grads)

    np.add.at(grads["embedding"], ids.reshape(-1), _flat(dx))
    if cfg.variant == "mole":
        grads["embedding"][uniq] += de_uniq[: uniq.size]  # uniq holds each id once

    return metrics, grads


def _aux_loss_grads(lc: dict, cfg: ModelConfig, tcfg: TrainConfig, dtype) -> np.ndarray:
    """d(aux losses)/d(router logits) for one moe layer."""
    logits = lc["router_logits"]
    b, t, n = logits.shape
    tokens = b * t
    dlogits = np.zeros_like(logits)
    probs = softmax(logits)
    if tcfg.z_loss_coeff != 0.0:
        m = np.max(logits, axis=-1, keepdims=True)
        lse = np.log(np.sum(np.exp(logits - m), axis=-1, keepdims=True)) + m
        dlogits += dtype.type(tcfg.z_loss_coeff) * (2.0 * lse / tokens) * probs
    if tcfg.balance_loss_coeff != 0.0:
        counts = np.bincount(lc["sel"].reshape(-1), minlength=n).astype(np.float64)
        f = counts / (tokens * cfg.k)
        dp = np.broadcast_to((cfg.N * f / tokens).astype(dtype), probs.shape)
        dlogits += dtype.type(tcfg.balance_loss_coeff) * _softmax_backward(probs, dp)
    return dlogits


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------

def lr_at(step: int, tcfg: TrainConfig) -> float:
    """Linear warmup to the peak, then cosine decay to min_lr_fraction * peak."""
    if not (0 <= step <= tcfg.total_steps):
        raise ValueError(f"step {step} outside [0, {tcfg.total_steps}]")
    warmup = max(1, round(tcfg.warmup_fraction * tcfg.total_steps))
    peak = tcfg.peak_lr
    floor = tcfg.min_lr_fraction * peak
    if step <= warmup:
        return peak * step / warmup
    progress = (step - warmup) / (tcfg.total_steps - warmup)
    return floor + (peak - floor) * 0.5 * (1.0 + np.cos(np.pi * progress))


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so the global L2 norm is <= max_norm.
    Returns the pre-clip norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= g.dtype.type(scale)
    return norm


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={k: np.zeros_like(t) for k, t in params.tensors.items()},
            v={k: np.zeros_like(t) for k, t in params.tensors.items()},
        )


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    tcfg: TrainConfig,
) -> None:
    """Bias-corrected Adam update with decoupled weight decay, in place.

    Every temporary goes into one of two scratch buffers reused across the
    tensors; each elementwise operation is the one the textbook update
    ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` rounds, in its order.
    """
    b1, b2 = tcfg.betas
    state.step += 1
    t = state.step
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    size = max(p.size for p in params.tensors.values())
    scratch = np.empty((2, size), dtype=params.dtype)
    for name, p in params.tensors.items():
        g = grads[name]
        dt = p.dtype.type
        m = state.m[name]
        v = state.v[name]
        num, den = (s[: p.size].reshape(p.shape) for s in scratch)
        m *= dt(b1)
        np.multiply(g, dt(1.0 - b1), out=num)
        m += num
        v *= dt(b2)
        np.square(g, out=num)
        num *= dt(1.0 - b2)
        v += num
        np.divide(m, dt(c1), out=num)
        np.divide(v, dt(c2), out=den)
        np.sqrt(den, out=den)
        den += dt(tcfg.eps)
        num /= den
        num *= dt(lr)
        p -= num
        if tcfg.weight_decay:
            np.multiply(p, dt(lr * tcfg.weight_decay), out=num)
            p -= num


# ---------------------------------------------------------------------------
# Corpus and training loop
# ---------------------------------------------------------------------------

def synthetic_corpus(length: int, pattern_period: int, seed: int, vocab: int = 256) -> np.ndarray:
    """Byte corpus made by tiling a seeded random pattern."""
    rng = np.random.default_rng(seed)
    pattern = rng.integers(0, vocab, size=pattern_period, dtype=np.int64)
    reps = length // pattern_period + 1
    return np.tile(pattern, reps)[:length]


def sample_batch(
    corpus: np.ndarray, rng: np.random.Generator, batch: int, seq_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded window sampling; targets are inputs shifted one position."""
    if len(corpus) < seq_len + 2:
        raise ValueError(f"corpus of {len(corpus)} ids is shorter than seq_len + 2")
    starts = rng.integers(0, len(corpus) - seq_len - 1, size=batch)
    ids = np.stack([corpus[s : s + seq_len] for s in starts])
    targets = np.stack([corpus[s + 1 : s + seq_len + 1] for s in starts])
    return ids, targets


@dataclass
class TraceRow:
    step: int
    lr: float
    lm: float
    z: float
    balance: float
    total: float


@dataclass
class TrainResult:
    params: ModelParams
    trace: list[TraceRow] = field(default_factory=list)


def train(
    params: ModelParams,
    corpus: np.ndarray,
    tcfg: TrainConfig,
    log_every: int = 0,
) -> TrainResult:
    """Deterministic training loop: batch order, updates, and the final
    weights are pure functions of (params, corpus, tcfg)."""
    rng = np.random.default_rng(tcfg.seed)
    state = AdamState.init(params)
    trace: list[TraceRow] = []
    for step in range(tcfg.total_steps):
        batch = sample_batch(corpus, rng, tcfg.batch, tcfg.seq_len)
        metrics, grads = backward(params, batch, tcfg)
        clip_gradients(grads, tcfg.grad_clip)
        lr = lr_at(step + 1, tcfg)
        adam_step(params, grads, state, lr, tcfg)
        trace.append(TraceRow(step, lr, metrics["lm"], metrics["z"],
                              metrics["balance"], metrics["total"]))
        if log_every and (step % log_every == 0 or step == tcfg.total_steps - 1):
            print(f"step {step:>5}  lr {lr:.3e}  lm {metrics['lm']:.4f}  "
                  f"total {metrics['total']:.4f}")
    return TrainResult(params=params, trace=trace)


def write_trace_csv(path: str | Path, trace: list[TraceRow]) -> None:
    with atomic_write(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "lr", "lm_loss", "z_loss", "balance_loss", "total"])
        for r in trace:
            w.writerow([r.step, f"{r.lr:.10g}", f"{r.lm:.10g}", f"{r.z:.10g}",
                        f"{r.balance:.10g}", f"{r.total:.10g}"])


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def to_dtype(params: ModelParams, dtype) -> ModelParams:
    return ModelParams(params.cfg,
                       {k: v.astype(dtype) for k, v in params.tensors.items()},
                       params.inference_form)


def gradient_check(
    params: ModelParams,
    batch: tuple[np.ndarray, np.ndarray],
    tcfg: TrainConfig,
    rel_step: float = 1e-4,
) -> dict[str, float]:
    """Central-difference check of every parameter element in float64.

    Returns the relative error per tensor, defined as the scaled infinity
    norm max_i |analytic_i - fd_i| / max(||analytic||_inf, ||fd||_inf).
    Per-element ratios are meaningless for entries far below the tensor's
    gradient scale: with the stated step, truncation noise (~1e-7 absolute)
    swamps any entry of that size no matter how exact the analytic path is.
    """
    p64 = to_dtype(params, np.float64)

    def loss_of(p: ModelParams) -> float:
        cache: dict = {}
        logits = model_forward(p, batch[0], cache=cache)
        return _loss_metrics(p.cfg, logits, batch[1], cache, tcfg)["total"]

    _, grads = backward(p64, batch, tcfg)
    report: dict[str, float] = {}
    for name, tensor in p64.tensors.items():
        gflat = grads[name].reshape(-1)
        flat = tensor.reshape(-1)
        fd = np.empty_like(gflat)
        for idx in range(flat.size):
            orig = flat[idx]
            h = rel_step * max(1.0, abs(orig))
            flat[idx] = orig + h
            up = loss_of(p64)
            flat[idx] = orig - h
            down = loss_of(p64)
            flat[idx] = orig
            fd[idx] = (up - down) / (2.0 * h)
        scale = max(float(np.max(np.abs(gflat))), float(np.max(np.abs(fd))), 1e-10)
        report[name] = float(np.max(np.abs(gflat - fd))) / scale
    return report
