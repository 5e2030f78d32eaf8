"""Per-layer tracing, installed from outside the package.

Each traced name is replaced, at the attribute its caller looks up at call
time, by a wrapper that records a span: inclusive time, and self time (the
span minus the time its child spans cover). Nothing inside ``src/`` changes.
Autodiff ops additionally get their returned ``Node._backward`` swapped for a
timed closure, so backward time is attributed to the op and to the model
stage that was active when the node was created.

Normalisation, per workload unit (one optimiser step, one ``separate`` call,
one evaluated utterance) unless stated:
- ``autodiff.op.*`` and ``layers.*`` times and ``autodiff.nodes_per_step``
  count only inside the unit's own spans, so dev-set evaluation inside
  ``train()`` does not leak into the per-step op table;
- GC figures and ``*_calls`` counts cover everything traced;
- every other ``*_ms`` metric is the mean inclusive time per call of the
  named function (0 when it was not called).
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import defaultdict

ALL = ("train_desk", "separate_long", "eval_oracle")
TRAIN = ("train_desk",)
SEPARATE = ("separate_long",)
EVAL = ("eval_oracle",)
TRAIN_EVAL = ("train_desk", "eval_oracle")

# Ops reported by name; every other traced op is folded into "other".
NAMED_OPS = ("affine", "lstm_sequence", "gather_rows", "layer_norm_rows", "overlap_add_frames",
             "mul", "sigmoid", "relu", "concat", "narrow", "dot", "log10")
STAGES = ("gconv", "layer_norm", "bilstm", "dnn", "head", "overlap_add", "loss")

# (module, attribute, metric, kind, workloads expected to call it)
# kind: "op" returns a Node; "stage" is a model stage; "fn" is a plain span;
# "op+stage" is both; "pairs" counts loss pairs built and used.
SITES = (
    ("furcasep.autodiff", "affine", "affine", "op", ALL),
    ("furcasep.autodiff", "gather_rows", "gather_rows", "op", ALL),
    ("furcasep.autodiff", "mul", "mul", "op", ALL),
    ("furcasep.autodiff", "sigmoid", "sigmoid", "op", ALL),
    ("furcasep.autodiff", "relu", "relu", "op", ALL),
    ("furcasep.autodiff", "concat", "concat", "op", ALL),
    ("furcasep.autodiff", "narrow", "narrow", "op", ALL),
    ("furcasep.autodiff", "dot", "dot", "op", TRAIN),
    ("furcasep.autodiff", "log10", "log10", "op", TRAIN),
    ("furcasep.autodiff", "add", "add", "op", TRAIN),
    ("furcasep.autodiff", "sub", "sub", "op", TRAIN),
    ("furcasep.autodiff", "scale", "scale", "op", TRAIN),
    ("furcasep.autodiff", "mul_scalar", "mul_scalar", "op", TRAIN),
    ("furcasep.autodiff", "add_scalar", "add_scalar", "op", TRAIN),
    ("furcasep.layers", "lstm_sequence", "lstm_sequence", "op", ALL),
    ("furcasep.layers", "layer_norm_rows", "layer_norm_rows", "op", ALL),
    ("furcasep.layers", "overlap_add_frames", "overlap_add_frames", "op+stage", ALL),
    ("furcasep.layers", "GConvLayer.forward_windows", "gconv", "stage", ALL),
    ("furcasep.layers", "LayerNorm.forward", "layer_norm", "stage", ALL),
    ("furcasep.layers", "BiLstmLayer.forward", "bilstm", "stage", ALL),
    ("furcasep.layers", "DenseLayer.forward", "dense", "stage", ALL),
    ("furcasep.layers", "usdr_loss", "loss", "stage", TRAIN),
    ("furcasep.layers", "_sdr_node", "sdr_pair", "pairs", TRAIN),
    ("furcasep.autodiff", "backward", "autodiff.backward", "fn", TRAIN),
    ("furcasep.model", "FurcaNet.forward_batch", "model.forward_batch", "fn", ALL),
    ("furcasep.model", "FurcaNet.reinit", "model.reinit", "fn", TRAIN),
    ("furcasep.cli", "load_checkpoint", "model.load_checkpoint", "fn", SEPARATE),
    ("furcasep.training", "batch_loss", "training.batch_loss", "fn", TRAIN),
    ("furcasep.training", "adam_step", "training.adam_step", "fn", TRAIN),
    ("furcasep.training", "mean_dev_sdr", "training.mean_dev_sdr", "fn", TRAIN),
    ("furcasep.training", "pit_assign", "metrics.pit_assign", "fn", TRAIN),
    ("furcasep.cli", "pit_assign", "metrics.pit_assign", "fn", EVAL),
    ("furcasep.metrics", "sdr", "metrics.sdr", "fn", TRAIN_EVAL),
    ("furcasep.cli", "sdr", "metrics.sdr", "fn", EVAL),
    ("furcasep.cli", "irm_separate", "spectral.irm_separate", "fn", EVAL),
    ("furcasep.spectral", "stft", "spectral.stft", "fn", EVAL),
    ("furcasep.spectral", "istft", "spectral.istft", "fn", EVAL),
    ("furcasep.spectral", "fft", "spectral.fft", "fn", EVAL),
    ("furcasep.signal", "frame", "signal.frame", "fn", ALL),
    ("furcasep.layers", "_overlap_add_padded", "signal.overlap_add", "fn", ALL),
    ("furcasep.cli", "read_wav", "signal.read_wav", "fn", SEPARATE),
    ("furcasep.cli", "write_wav", "signal.write_wav", "fn", SEPARATE),
    ("furcasep.corpus", "generate_corpus", "corpus.generate", "fn", ALL),
    ("furcasep.corpus", "load_corpus", "corpus.load", "fn", ALL),
    ("furcasep.cli", "evaluate_model", "cli.evaluate_model", "fn", EVAL),
    ("furcasep.cli", "cmd_separate", "cli.cmd_separate", "fn", SEPARATE),
)

# The spans that make up one workload unit, and the one whose calls count units.
UNIT_SPANS = {
    "train_desk": ("training.batch_loss", "autodiff.backward", "training.adam_step"),
    "separate_long": ("cli.cmd_separate",),
    "eval_oracle": ("cli.evaluate_model",),
}
UNIT_COUNTER = {
    "train_desk": "training.batch_loss",
    "separate_long": "cli.cmd_separate",
    "eval_oracle": "cli.evaluate_model",
}
SETUP_SPANS = ("corpus.generate", "corpus.load")

# Mean ms per call of these functions.
PER_CALL_MS = (
    ("autodiff.backward_ms", "autodiff.backward"),
    ("model.forward_batch_ms", "model.forward_batch"),
    ("model.load_checkpoint_ms", "model.load_checkpoint"),
    ("model.reinit_ms", "model.reinit"),
    ("training.adam_step_ms", "training.adam_step"),
    ("training.mean_dev_sdr_ms", "training.mean_dev_sdr"),
    ("metrics.pit_assign_ms", "metrics.pit_assign"),
    ("spectral.irm_separate_ms", "spectral.irm_separate"),
    ("spectral.stft_ms", "spectral.stft"),
    ("spectral.istft_ms", "spectral.istft"),
    ("signal.frame_ms", "signal.frame"),
    ("signal.overlap_add_ms", "signal.overlap_add"),
    ("signal.read_wav_ms", "signal.read_wav"),
    ("signal.write_wav_ms", "signal.write_wav"),
    ("corpus.generate_ms", "corpus.generate"),
    ("corpus.load_ms", "corpus.load"),
    ("cli.evaluate_model_ms", "cli.evaluate_model"),
    ("cli.cmd_separate_ms", "cli.cmd_separate"),
)
# Calls per workload unit.
PER_UNIT_CALLS = (
    ("metrics.sdr_calls", "metrics.sdr"),
    ("spectral.fft_calls", "spectral.fft"),
)


class TraceError(RuntimeError):
    """A traced name is missing, or did not fire on a workload that uses it."""


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not hasattr(owner, leaf):
        raise TraceError(f"traced name {module_name}.{attr} does not exist; update perfbench/tracing.py")
    return owner, leaf


class Tracer:
    """Span and counter store for one traced run of one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self._unit_spans = set(UNIT_SPANS[workload])
        self._originals = []
        self._installed = False
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._stages: list[str] = []
        self._unit_depth = 0
        self._gc_start = 0.0
        self.site_calls = defaultdict(int)  # (module, attr) -> calls
        self.setup_snapshot: dict[str, tuple[int, float]] = {}
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.op_fwd = defaultdict(float)  # op -> self seconds inside units
        self.op_bwd = defaultdict(float)
        self.stage_fwd = defaultdict(float)
        self.stage_bwd = defaultdict(float)
        self.nodes_created = 0
        self.nodes_backward = 0
        self.unit_nodes = 0
        self.pairs_built = 0
        self.pairs_used = 0
        self.gc_pause = 0.0
        self.gc_count = 0
        self.site_calls.clear()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        for module_name, attr, metric, kind, _ in SITES:
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf)
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, (module_name, attr), metric, kind))
        gc.callbacks.append(self._on_gc)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, leaf, original in reversed(self._originals):
            setattr(owner, leaf, original)
        self._originals.clear()
        gc.callbacks.remove(self._on_gc)
        self._installed = False

    def end_setup(self) -> None:
        """Keep the set-up spans (corpus generation and load) and clear the rest."""
        self.setup_snapshot = {name: (self.calls[name], self.inclusive[name]) for name in SETUP_SPANS}
        fired = {site for site, n in self.site_calls.items() if n}
        self.reset()
        for site in fired:
            self.site_calls[site] = 1

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause += time.perf_counter() - self._gc_start
            self.gc_count += 1

    # -- wrappers -----------------------------------------------------

    def _wrap(self, fn, site, metric, kind):
        tracer = self
        is_op = kind in ("op", "op+stage")
        fixed_stage = {"op+stage": "overlap_add", "stage": metric}.get(kind)
        is_unit = metric in self._unit_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.site_calls[site] += 1
            stage = fixed_stage
            if stage == "dense":  # the head is the one linear DenseLayer
                stage = "head" if args[0].activation == "linear" else "dnn"
            if stage is not None:
                tracer._stages.append(stage)
            node_stage = tracer._stages[-1] if tracer._stages else "unstaged"
            if is_unit:
                tracer._unit_depth += 1
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                in_unit = tracer._unit_depth > 0
                if is_unit:
                    tracer._unit_depth -= 1
                if stage is not None:
                    tracer._stages.pop()
                    if in_unit:
                        tracer.stage_fwd[stage] += elapsed
                if not is_op or kind == "op+stage":
                    name = metric if stage is None else f"stage.{stage}"
                    tracer.calls[name] += 1
                    tracer.inclusive[name] += elapsed
                if is_op and in_unit:
                    tracer.op_fwd[metric] += elapsed - frame[0]
            if is_op:
                tracer._time_backward(result, metric, node_stage, in_unit)
            elif kind == "pairs":
                tracer._count_pair(result)
            return result

        return wrapper

    def _time_backward(self, node, op, stage, in_unit) -> None:
        self.nodes_created += 1
        if in_unit:
            self.unit_nodes += 1
        inner = node._backward
        if inner is None:
            return

        def timed_backward():
            t0 = time.perf_counter()
            inner()
            elapsed = time.perf_counter() - t0
            self.nodes_backward += 1
            if self._unit_depth > 0:
                self.op_bwd[op] += elapsed
                self.stage_bwd[stage] += elapsed

        node._backward = timed_backward

    def _count_pair(self, node) -> None:
        self.pairs_built += 1
        inner = node._backward

        def counted_backward():
            self.pairs_used += 1
            inner()

        node._backward = counted_backward

    # -- results ------------------------------------------------------

    def check_fired(self) -> None:
        """Fail loudly when a traced name the workload uses never ran: a
        renamed or moved function must not silently report 0 ms."""
        silent = [f"{module}.{attr}" for module, attr, _, _, expected in SITES
                  if self.workload in expected and not self.site_calls[(module, attr)]]
        if silent:
            raise TraceError(f"traced names never called on {self.workload}: {', '.join(silent)}")

    def units(self) -> int:
        return self.calls[UNIT_COUNTER[self.workload]]

    def table(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics this tracer measures, as name -> (value, unit)."""
        units = self.units()
        if units < 1:
            raise TraceError(f"no traced {UNIT_COUNTER[self.workload]} call on {self.workload}")
        ms_per_unit = 1000.0 / units
        out: dict[str, tuple[float, str]] = {}
        other_fwd = sum(v for op, v in self.op_fwd.items() if op not in NAMED_OPS)
        other_bwd = sum(v for op, v in self.op_bwd.items() if op not in NAMED_OPS)
        for op in NAMED_OPS:
            out[f"autodiff.op.{op}.fwd_ms"] = (self.op_fwd[op] * ms_per_unit, "ms")
            out[f"autodiff.op.{op}.bwd_ms"] = (self.op_bwd[op] * ms_per_unit, "ms")
        out["autodiff.op.other.fwd_ms"] = (other_fwd * ms_per_unit, "ms")
        out["autodiff.op.other.bwd_ms"] = (other_bwd * ms_per_unit, "ms")
        out["autodiff.nodes_per_step"] = (self.unit_nodes / units, "count")
        used = self.nodes_backward / self.nodes_created if self.nodes_created else 0.0
        out["autodiff.tape_used_ratio"] = (used, "ratio")
        out["autodiff.gc_pause_ms"] = (self.gc_pause * ms_per_unit, "ms")
        out["autodiff.gc_collections"] = (self.gc_count / units, "count")
        for stage in STAGES:
            out[f"layers.{stage}.fwd_ms"] = (self.stage_fwd[stage] * ms_per_unit, "ms")
            out[f"layers.{stage}.bwd_ms"] = (self.stage_bwd[stage] * ms_per_unit, "ms")
        out["layers.unstaged.bwd_ms"] = (self.stage_bwd["unstaged"] * ms_per_unit, "ms")
        pairs = self.pairs_used / self.pairs_built if self.pairs_built else 0.0
        out["layers.loss.pairs_used_ratio"] = (pairs, "ratio")
        spans = {name: (self.calls[name], self.inclusive[name]) for _, name in PER_CALL_MS}
        spans.update(self.setup_snapshot)
        for metric, name in PER_CALL_MS:
            calls, seconds = spans[name]
            out[metric] = (1000.0 * seconds / calls if calls else 0.0, "ms")
        for metric, name in PER_UNIT_CALLS:
            out[metric] = (self.calls[name] / units, "count")
        return out
