"""Workloads, inputs, output checks and metrics of the benchmark.

Every workload is a closed loop with one client: the next operation starts
only after the last one returned. Inputs (corpora, model seeds, prompts) are
pure functions of the workload seed. The benchmark calls the public
functions of ``trainer``, ``model``, ``reparam``, ``lut_store``, ``engine``
and ``checkpoint`` through their modules, so that ``tracer.Tracer`` can
rebind them for the traced run.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from mole import checkpoint, cli, config, engine, lut_store, model, reparam, trainer

from . import tracer as tracing

clock = time.perf_counter

# (name, unit, better) of the end-to-end metrics in BENCHMARK.json; every
# untraced run reports all of them. The workload-specific wall-clock metrics
# are printed by name but not listed: on a host whose speed drifts by up to 2x
# over minutes, their run-to-run spread exceeded the largest bound the
# benchmark may set. op_ref_p90 divides each operation's time by that of a
# fixed reference computation run right after it, which cancels most of the
# drift (see README.md).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("op_ref_p90", "ref", "lower"),
]

# (name, unit, better); printed by a traced run. "/op" is per measured
# operation, "/call" a mean over every call, set-up included.
PER_LAYER = [
    ("kernels.matmul.calls", "count/op", "lower"),
    ("kernels.matmul.m1_calls", "count/op", "lower"),
    ("kernels.matmul.self_ms", "ms/op", "lower"),
    ("kernels.matmul.share", "fraction", "lower"),
    ("kernels.matmul.gflop", "GFLOP/op", "lower"),
    ("kernels.matmul.gflops", "GFLOP/s", "higher"),
    ("kernels.pointwise.self_ms", "ms/op", "lower"),
    ("model.attention_forward.self_ms", "ms/op", "lower"),
    ("model.attention_forward.rows_per_call", "rows", "higher"),
    ("model.ffn_forward.self_ms", "ms/op", "lower"),
    ("model.combine_expert_rows.self_ms", "ms/op", "lower"),
    ("model.mole_expert_rows.ms", "ms/op", "lower"),
    ("model.moe_layer_forward.self_ms", "ms/op", "lower"),
    ("model.model_forward.train_form_ms", "ms/op", "lower"),
    ("model.model_forward.lut_form_ms", "ms/op", "lower"),
    ("model.forward_tokens.ms", "ms/op", "lower"),
    ("trainer.sample_batch.ms", "ms/op", "lower"),
    ("trainer.backward.self_ms", "ms/op", "lower"),
    ("trainer.clip_gradients.ms", "ms/op", "lower"),
    ("trainer.adam_step.ms", "ms/op", "lower"),
    ("reparam.build_layer_lut.ms", "ms/call", "lower"),
    ("reparam.reparameterize.ms", "ms/call", "lower"),
    ("reparam.verify_equivalence.self_ms", "ms/op", "lower"),
    ("lut_store.write_lut.ms", "ms/call", "lower"),
    ("lut_store.open_lut.ms", "ms/call", "lower"),
    ("lut_store.gather.calls", "count/op", "lower"),
    ("lut_store.gather.rows", "rows/op", "lower"),
    *[(f"lut_store.gather.us_per_row.{dt}", "us/row", "lower") for dt in tracing.LUT_DTYPES],
    ("lut_store.bytes_read", "B/op", "lower"),
    ("lut_store.prefetch.issue_us", "us/op", "lower"),
    ("lut_store.await_rows.wait_us", "us/op", "lower"),
    ("lut_store.await_rows.wait_share", "fraction", "lower"),
    ("engine.greedy_decode.self_ms", "ms/op", "lower"),
    ("engine.prefill_ms", "ms/call", "lower"),
    ("engine.step_ms_p50", "ms", "lower"),
    ("engine.step_ms_p90", "ms", "lower"),
    ("engine.lanes_per_step", "lanes", "higher"),
    ("engine.experts_loaded_per_layer_step", "count", "lower"),
    ("engine.cache_hit_ratio", "fraction", "higher"),
    ("engine.meter.bytes_per_step", "B/step", "lower"),
    ("checkpoint.save_model.ms", "ms/call", "lower"),
    ("checkpoint.load_model.ms", "ms/call", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

# Set-up runs at least SETUP_REPEATS times and for at least SETUP_SECONDS;
# setup_s is the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0


class Reference:
    """A fixed computation that calls no mole code, timed after every
    operation to gauge the machine's current speed. It mixes what the
    workloads do: an interpreter loop, small NumPy calls and matmuls, dict
    lookups, and a gather from an array larger than the L2 cache. It writes
    into buffers made once, so it does not fragment the heap the workload
    allocates from."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((64, 64))
        self.prod = np.empty_like(self.a)
        self.v = self.a[0].copy()
        self.w = np.empty_like(self.v)
        self.big = rng.random(1 << 19)  # 4 MiB
        self.idx = rng.integers(0, self.big.size, size=4096)
        self.rows = np.empty(self.idx.size)
        self.table = {i: i for i in range(1 << 16)}
        self.keys = [int(k) for k in rng.integers(0, 1 << 16, size=5000)]

    def seconds(self) -> float:
        t0 = clock()
        acc = 0
        for i in range(5000):
            acc += i * i
        for _ in range(200):
            np.multiply(self.v, 1.5, out=self.w)
            np.add(self.w, self.v, out=self.w)
            np.tanh(self.w, out=self.w)
            self.w.sum()
        for _ in range(30):
            np.matmul(self.a, self.a, out=self.prod)
        for k in self.keys:
            acc += self.table[k]
        for _ in range(20):
            np.take(self.big, self.idx, out=self.rows)
            self.rows.sum()
        self.big.sum()
        return clock() - t0


def subseed(seed: int, *tag: int) -> int:
    """An independent 32-bit seed for one input of the workload."""
    return int(np.random.SeedSequence([seed, *tag]).generate_state(1)[0])


def shuffled_prompts(rng: np.random.Generator, lengths, vocab: int) -> list[np.ndarray]:
    """Prompts whose lengths are a seeded permutation of a fixed multiset, so
    every seed gives the same amount of work; token ids are random."""
    return [rng.integers(0, vocab, size=int(n)) for n in rng.permutation(lengths)]


def train_step(params, adam, rng, corpus, tcfg, step: int) -> float:
    """One optimizer step through the trainer's public functions; returns
    the LM loss. The schedule holds its final rate past ``total_steps``."""
    batch = trainer.sample_batch(corpus, rng, tcfg.batch, tcfg.seq_len)
    metrics, grads = trainer.backward(params, batch, tcfg)
    trainer.clip_gradients(grads, tcfg.grad_clip)
    lr = trainer.lr_at(min(step + 1, tcfg.total_steps), tcfg)
    trainer.adam_step(params, grads, adam, lr, tcfg)
    return metrics["lm"]


def pipeline_model(cfg_path: Path, seed: int, steps: int, ckpt: Path):
    """The README walkthrough's first steps: train a few steps on the
    seeded synthetic corpus, save the checkpoint, load it back."""
    mcfg, tcfg, ccfg = config.load_config(cfg_path)
    corpus = trainer.synthetic_corpus(ccfg.length, ccfg.pattern_period,
                                      subseed(seed, 1), mcfg.vocab)
    params = model.init_params(mcfg, seed=subseed(seed, 2))
    adam = trainer.AdamState.init(params)
    rng = np.random.default_rng(subseed(seed, 3))
    for step in range(steps):
        train_step(params, adam, rng, corpus, tcfg, step)
    checkpoint.save_model(ckpt, params)
    return checkpoint.load_model(ckpt)


class Workload:
    """One closed-loop workload. ``setup`` is timed (``setup_s``),
    ``references`` is not; ``op`` is one timed operation and ``check`` returns
    None when its output is right, else the reason it is wrong."""

    min_ops = 5
    n_layers = 0
    cycle = 1  # operations after which the sequence of inputs repeats

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def references(self) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def tokens(self, out) -> int:
        raise NotImplementedError

    def meter(self, out):
        return None

    def handles(self) -> list:
        return []

    def named_metrics(self, records: list["OpRecord"]) -> list[tuple[str, float, str]]:
        """The workload's own metrics, as (name, value, unit), computed from
        the untraced operations."""
        return []

    def check_trace(self, records: list["OpRecord"], spans: list[list]) -> None:
        """Checks that need the spans of traced operations; a failure sets
        the record's ``error``."""

    def close(self) -> None:
        pass


class TrainWorkload(Workload):
    """Optimizer steps on configs/toy-mole.json (batch 8 x 48)."""

    min_ops = 32
    loss_window = (16, 32)  # measured steps averaged into train_loss_end

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.mcfg, self.tcfg, ccfg = config.load_config(root / "configs" / "toy-mole.json")
        self.n_layers = self.mcfg.L
        self.corpus = trainer.synthetic_corpus(ccfg.length, ccfg.pattern_period,
                                               subseed(seed, 1), self.mcfg.vocab)

    def setup(self):
        self.params = model.init_params(self.mcfg, seed=subseed(self.seed, 2))
        self.adam = trainer.AdamState.init(self.params)
        self.rng = np.random.default_rng(subseed(self.seed, 3))

    def op(self, i):
        return train_step(self.params, self.adam, self.rng, self.corpus, self.tcfg, i)

    def check(self, i, loss):
        return None if np.isfinite(loss) else f"non-finite loss {loss}"

    def tokens(self, loss):
        return self.tcfg.batch * self.tcfg.seq_len

    def named_metrics(self, records):
        plain = [r for r in records if not r.traced]
        lo, hi = self.loss_window
        window = [r.out for r in records if lo <= r.index < hi and r.error is None]
        return [
            ("train_tokens_per_s", tokens_per_s(plain, self), "tok/s"),
            ("train_step_ms_p50", latency_ms(plain, 50), "ms"),
            ("train_step_ms_p90", latency_ms(plain, 90), "ms"),
            ("train_loss_end", float(np.mean(window)) if window else float("nan"), "nats"),
        ]


class VerifyWorkload(Workload):
    """reparameterize -> write_lut -> open_lut -> verify_equivalence."""

    models = 2
    prompts = 16
    dtypes = (("fp32", 0), ("fp16", 0), ("nf4", 16), ("nf3", 16))
    cycle = 4  # (model, dtype) repeats every lcm(models, len(dtypes)) operations

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.cfg_path = root / "configs" / "toy-mole.json"
        mcfg = config.load_config(self.cfg_path)[0]
        self.n_layers = mcfg.L
        lengths = np.linspace(1, mcfg.max_seq, self.prompts).round().astype(int)
        self.prompt_set = shuffled_prompts(np.random.default_rng(subseed(seed, 4)),
                                           lengths, mcfg.vocab)

    def setup(self):
        self.pool = [pipeline_model(self.cfg_path, subseed(self.seed, 10 + k), 1,
                                    self.workdir / f"verify-{k}.ckpt")
                     for k in range(self.models)]

    def op(self, i):
        params = self.pool[i % self.models]
        dtype, block = self.dtypes[i % len(self.dtypes)]
        path = self.workdir / f"verify-{dtype}.lut"
        t0 = clock()
        infer, tables = reparam.reparameterize(params)
        lut_store.write_lut(tables, path, dtype=dtype, block_size=block)
        reparam_s = clock() - t0
        with lut_store.open_lut(path) as handle:
            report = reparam.verify_equivalence(params, infer, handle, self.prompt_set,
                                                cli.VERIFY_TOLERANCES[dtype])
        return dtype, report, reparam_s

    def check(self, i, out):
        dtype, report, _ = out
        if len(report.checks) != len(self.prompt_set):
            return f"{dtype}: {len(report.checks)} prompt checks"
        if not report.passed:
            return f"{dtype}: verification failed, max rel err {report.max_rel_err}"
        if dtype == "fp32" and report.max_rel_err != 0.0:
            return f"fp32 tables are not bit-exact (max rel err {report.max_rel_err})"
        return None

    def tokens(self, out):
        return sum(len(p) for p in self.prompt_set)

    def named_metrics(self, records):
        ok = [r for r in records if r.error is None and not r.traced]
        total = sum(r.seconds for r in ok)
        return [
            ("reparam_ms_p50", 1e3 * statistics.median(r.out[2] for r in ok) if ok
             else float("nan"), "ms"),
            ("verify_prompts_per_s", len(ok) * self.prompts / total if total else 0.0,
             "prompts/s"),
        ]


class DecodeWorkload(Workload):
    """Shared checks and metrics of the two greedy-decode workloads."""

    steps = 0

    def tokens(self, result):
        return len(result.tokens) * self.steps

    def meter(self, result):
        return result.meter

    def check(self, i, result):
        ref = self.refs[i % len(self.refs)]
        if result.tokens != ref:
            return "greedy streams differ from the resident reference runtime"
        recs = result.meter.decode_records()
        if len(recs) != self.steps:
            return f"meter has {len(recs)} decode steps, expected {self.steps}"
        for r in recs:
            want = self.step_bytes(r)
            if r.bytes != want:
                return f"step {r.step}: meter {r.bytes} bytes, expected {want}"
        return None

    def named_metrics(self, records):
        plain = [r for r in records if not r.traced]
        ok = [r.out for r in records if r.error is None]
        generated = sum(self.tokens(out) for out in ok)
        step_bytes = sum(rec.bytes for out in ok for rec in out.meter.decode_records())
        return [
            ("decode_tokens_per_s", tokens_per_s(plain, self), "tok/s"),
            ("decode_call_ms_p50", latency_ms(plain, 50), "ms"),
            ("decode_call_ms_p90", latency_ms(plain, 90), "ms"),
            ("transfer_bytes_per_token", step_bytes / generated if generated else 0.0,
             "B/token"),
        ]


class DecodeLutWorkload(DecodeWorkload):
    """32-lane greedy decode served from an fp32 LUT file (runtime mole-lut)."""

    lanes = 32
    steps = 4
    batches = 2
    cycle = batches
    prompt_lengths = np.resize(np.arange(4, 17), 32)

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.cfg_path = root / "configs" / "toy-mole.json"
        self.mcfg = config.load_config(self.cfg_path)[0]
        self.n_layers = self.mcfg.L
        rng = np.random.default_rng(subseed(seed, 5))
        self.pool = [shuffled_prompts(rng, self.prompt_lengths[: self.lanes], self.mcfg.vocab)
                     for _ in range(self.batches)]
        self.handle = None

    def setup(self):
        self.close()
        self.params = pipeline_model(self.cfg_path, subseed(self.seed, 6), 2,
                                     self.workdir / "decode.ckpt")
        self.infer, tables = reparam.reparameterize(self.params)
        path = self.workdir / "decode.lut"
        lut_store.write_lut(tables, path, dtype="fp32")
        self.handle = lut_store.open_lut(path)

    def references(self):
        self.refs = [engine.greedy_decode(self.params, batch, self.steps,
                                          runtime="mole-train").tokens
                     for batch in self.pool]

    def op(self, i):
        return engine.greedy_decode(self.infer, self.pool[i % self.batches], self.steps,
                                    runtime="mole-lut", lut=self.handle)

    def step_bytes(self, rec):
        cfg = self.mcfg
        return rec.lanes * cfg.N * cfg.L * cfg.d * 4

    def handles(self):
        return [self.handle]

    def check_trace(self, records, spans):
        """The bytes the handle reports through gather must equal the meter,
        and every requested row (repeats included) must be charged."""
        record_bytes = self.mcfg.N * self.mcfg.d * 4
        read: dict[int, list[int]] = {}
        for name, _, _, _, op, counts in spans:
            if name == "lut_store.gather" and isinstance(op, int):
                acc = read.setdefault(op, [0, 0])
                acc[0] += counts["bytes"]
                acc[1] += counts["rows"]
        for r in records:
            if r.error is not None:
                continue
            got, rows = read.get(r.index, [0, 0])
            if got != r.out.meter.total_bytes or got != rows * record_bytes:
                r.error = (f"gather read {got} bytes for {rows} rows; meter has "
                           f"{r.out.meter.total_bytes}")
                print(f"# op {r.index} failed: {r.error}", file=sys.stderr)

    def close(self):
        if self.handle is not None:
            self.handle.close()
            self.handle = None


class DecodeOffloadWorkload(DecodeWorkload):
    """Single-lane greedy decode on configs/toy-moe.json with offloaded
    experts (runtime moe-offload)."""

    steps = 16
    prompt_lengths = np.arange(4, 12)

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.cfg_path = root / "configs" / "toy-moe.json"
        self.mcfg = config.load_config(self.cfg_path)[0]
        self.n_layers = self.mcfg.L
        self.pool = shuffled_prompts(np.random.default_rng(subseed(seed, 7)),
                                     self.prompt_lengths, self.mcfg.vocab)
        self.cycle = len(self.pool)

    def setup(self):
        self.params = pipeline_model(self.cfg_path, subseed(self.seed, 8), 2,
                                     self.workdir / "offload.ckpt")

    def references(self):
        self.refs = [engine.greedy_decode(self.params, [p], self.steps, runtime="moe").tokens
                     for p in self.pool]

    def op(self, i):
        return engine.greedy_decode(self.params, [self.pool[i % len(self.pool)]], self.steps,
                                    runtime="moe-offload", seed=subseed(self.seed, 9))

    def step_bytes(self, rec):
        cfg = self.mcfg
        return rec.experts_loaded * 2 * cfg.d * cfg.D_r * 4


WORKLOADS = {
    "train": TrainWorkload,
    "verify": VerifyWorkload,
    "decode-lut-32": DecodeLutWorkload,
    "decode-offload-1": DecodeOffloadWorkload,
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    index: int
    seconds: float
    out: object
    error: str | None
    traced: bool = False
    ref_seconds: float = 0.0  # the reference computation, timed right after


def measure(wl: Workload, seconds: float, min_ops: int, first: int,
            tracer: tracing.Tracer | None = None,
            reference: Reference | None = None) -> list[OpRecord]:
    """Closed loop: run operations back to back for ``seconds`` (and at least
    ``min_ops`` of them), time each, then check its output. A raised
    exception or a failed check marks the operation failed. With a
    ``reference``, it is timed after each operation, before the check.

    With a tracer, operations run traced in alternate blocks of
    ``wl.cycle``, so traced and untraced operations get the same inputs and
    see the same machine conditions; the tracer is installed and removed
    outside the timed region."""
    records = []
    deadline = clock() + seconds
    i = first
    while len(records) < min_ops or clock() < deadline:
        traced = tracer is not None and (i // wl.cycle) % 2 == 1
        if traced:
            tracer.install(wl.handles())
            tracer.op = i
        out, error = None, None
        t0 = clock()
        try:
            out = wl.op(i)
        except Exception:
            error = traceback.format_exc()
        elapsed = clock() - t0
        if traced:
            tracer.op = None
            tracer.uninstall()
        ref_seconds = reference.seconds() if reference is not None else 0.0
        if error is None:
            try:
                error = wl.check(i, out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"# op {i} failed: {error}", file=sys.stderr)
        records.append(OpRecord(i, elapsed, out, error, traced, ref_seconds))
        i += 1
    return records


def tokens_per_s(records: list[OpRecord], wl: Workload) -> float:
    done = sum(wl.tokens(r.out) for r in records if r.error is None)
    total = sum(r.seconds for r in records)
    return done / total if total else 0.0


def latency_ms(records: list[OpRecord], q: int) -> float:
    return 1e3 * tracing.percentile([r.seconds for r in records], q)


def end_to_end(setup_times: list[float], records: list[OpRecord]) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ref_p90": tracing.percentile([r.seconds / r.ref_seconds for r in records], 90),
    }


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    e2e: dict[str, float]
    per_layer: dict[str, float] | None
    named: list[tuple[str, float, str]]
    attempted: int
    failed: int


def run(root: Path, name: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS, setup_seconds: float = SETUP_SECONDS,
        min_ops: int | None = None, trace_out: Path | None = None) -> RunResult:
    """Set up at least ``setup_repeats`` times and for at least
    ``setup_seconds``, compute references, warm up with one operation, then
    measure for ``seconds``. A traced run traces alternate
    blocks of operations: end-to-end metrics come from the untraced ones, per-layer
    metrics from the traced ones, and ``trace.overhead_frac`` is the
    throughput loss between the two."""
    # built first, so that its memory adds the same to peak_rss_mb in every run
    reference = Reference()
    workdir = root / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](root, seed, workdir)
    min_ops = wl.min_ops if min_ops is None else min_ops
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        min_ops = max(min_ops, 2 * wl.cycle)  # at least one traced block
    try:
        setup_times: list[float] = []
        while len(setup_times) < setup_repeats or sum(setup_times) < setup_seconds:
            if tracer is not None:
                tracer.install()
                tracer.op = "setup"
            t0 = clock()
            wl.setup()
            setup_times.append(clock() - t0)
            if tracer is not None:
                tracer.op = None
                tracer.uninstall()
        wl.references()
        reference.seconds()
        records = measure(wl, 0.0, 1, 0)
        warm_failed = sum(r.error is not None for r in records)
        records = measure(wl, seconds, min_ops, 1, tracer, reference)
        plain = [r for r in records if not r.traced]
        e2e = end_to_end(setup_times, plain)
        per_layer = None
        if tracer is not None:
            traced = [r for r in records if r.traced]
            wl.check_trace(traced, tracer.spans)
            untraced_rate = tokens_per_s(plain, wl)
            overhead = (1.0 - tokens_per_s(traced, wl) / untraced_rate) if untraced_rate else 0.0
            meters = [wl.meter(r.out) for r in traced if r.error is None]
            per_layer = tracing.layer_metrics(
                tracer.spans, len(traced), sum(r.seconds for r in traced), overhead,
                [m for m in meters if m is not None], wl.n_layers)
            if trace_out is not None:
                tracer.write(trace_out)
        failed = warm_failed + sum(r.error is not None for r in records)
        attempted = 1 + len(records)
        named = [("setup_s", e2e["setup_s"], "s"), ("peak_rss_mb", e2e["peak_rss_mb"], "MiB"),
                 ("fail_rate", failed / attempted, "failed/attempted")]
        named += wl.named_metrics(records)
        return RunResult(name, seed, trace, e2e, per_layer, named, attempted, failed)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git_commit(root: Path) -> str:
    # only the checkout's own .git: a git repository above it is another project
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest(root: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((root / "src" / "mole").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, result: RunResult) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "arch": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": blas_version,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "MOLE_RT_THREADS": os.environ.get("MOLE_RT_THREADS"),
        },
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "workload": result.workload,
        "seed": result.seed,
        "traced": result.traced,
        "operations": {"attempted": result.attempted,
                       "succeeded": result.attempted - result.failed,
                       "failed": result.failed},
    }
