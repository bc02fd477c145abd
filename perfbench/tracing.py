"""Per-layer tracing for the traced run of the benchmark.

The tracer wraps the program's public functions from outside: each name is
patched in every ``catsent`` module that holds it, so a caller that
imported it by name (``catsent.training.encode_batch``) sees the wrapper as
well as the defining module. ``Tape.record`` tags each tape entry with the
layer and primitive that recorded it, and ``Tape.backward`` charges the time
from one entry's backward closure to the next to that entry, so the
per-layer backward times add up to the whole backward pass.

Times accumulate into the current *bucket*; the benchmark closes a bucket at
every boundary it cares about (each ``log.append`` of a training call, each
prediction pass) and decides afterwards which buckets were training steps.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

PRIMITIVES = ("matmul", "add", "mul", "scale", "reshape", "transpose", "take",
              "stack", "reduce_sum", "gelu", "softmax", "masked_softmax",
              "clamped_log", "dropout", "layer_norm")

# layer tag of a tape entry -> the metric its backward time is charged to
BACKWARD_KEYS = {"encoder": "encoder.backward_ms", "heads": "heads.backward_ms",
                 "loss": "training.loss_backward_ms", None: "other.backward_ms"}

# per-step terms whose sum must match the step interval
STEP_TERMS = ("encoder.batch_ms", "encoder.forward_ms", "heads.forward_ms",
              "training.loss_forward_ms", "encoder.backward_ms",
              "heads.backward_ms", "training.loss_backward_ms",
              "other.backward_ms", "training.adam_ms")


class Tracer:
    """Accumulates per-layer counters while its patches are installed."""

    def __init__(self):
        self.bucket: dict[str, float] = defaultdict(float)
        self.phase_totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self.layers: list[str] = []
        self.ops: list[str] = []
        self.truncated: set[str] = set()
        self.expected_tokens: dict[str, int] = {}
        self._bwd_last = 0.0
        self._bwd_tag = None
        self._patches: list[tuple[object, str, object]] = []

    # -- accumulation --------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.bucket[key] += value
        self.phase_totals[self.phase][key] += value

    def close_bucket(self) -> dict[str, float]:
        out, self.bucket = dict(self.bucket), defaultdict(float)
        return out

    # -- patching ------------------------------------------------------------

    def _patch_name(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "catsent" or mod_name.startswith("catsent.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, name: str, make_wrapper) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def install(self) -> None:
        import catsent.encoder
        import catsent.heads
        import catsent.metrics
        import catsent.numerics as nx
        import catsent.training

        for op in PRIMITIVES:
            self._patch_name(nx, op, lambda fn, op=op: self._primitive(op, fn))
        self._patch_attr(nx.Tape, "record", self._record)
        self._patch_attr(nx.Tape, "backward", self._backward)
        self._patch_name(catsent.encoder, "encode_batch",
                         lambda fn: self._layer("encoder", "encoder.forward_ms", fn))
        self._patch_name(catsent.heads, "head_probs",
                         lambda fn: self._layer("heads", "heads.forward_ms", fn))
        self._patch_name(catsent.training, "loss_from_probs",
                         lambda fn: self._layer("loss", "training.loss_forward_ms", fn))
        self._patch_name(catsent.encoder, "batch_inputs", self._batch_inputs)
        self._patch_name(catsent.training, "prepare_inputs", self._prepare_inputs)
        self._patch_attr(catsent.training.Adam, "step",
                         lambda fn: self._timed("training.adam_ms", fn))
        self._patch_name(catsent.metrics, "build_prediction_set",
                         lambda fn: self._timed("metrics.build_ms", fn))
        self._patch_name(catsent.metrics, "compute_report",
                         lambda fn: self._timed("metrics.report_ms", fn))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------------

    def _timed(self, key: str, fn):
        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(key, (perf_counter() - t0) * 1e3)
                self.add(key + ".calls", 1)
        return wrapped

    def _layer(self, layer: str, key: str, fn):
        def wrapped(*args, **kwargs):
            self.layers.append(layer)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(key, (perf_counter() - t0) * 1e3)
                self.layers.pop()
        return wrapped

    def _primitive(self, op: str, fn):
        def wrapped(*args, **kwargs):
            self.ops.append(op)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.ops.pop()
                self.add(f"numerics.{op}.calls", 1)
                if not self.ops:   # nested primitives count inside the outer one
                    self.add(f"numerics.{op}.fwd_ms", dt * 1e3)
        return wrapped

    def _record(self, fn):
        tracer = self

        def record(tape, out, inputs, backward):
            layer = tracer.layers[-1] if tracer.layers else None
            op = tracer.ops[-1] if tracer.ops else "other"
            tracer.add("numerics.tape_entries", 1)
            if layer == "heads":
                tracer.add("heads.tape_entries", 1)
            tag = (BACKWARD_KEYS[layer], f"numerics.{op}.bwd_ms")

            def timed_backward(g):
                now = perf_counter()
                prev = tracer._bwd_tag or tag
                dt = (now - tracer._bwd_last) * 1e3
                tracer.add(prev[0], dt)
                tracer.add(prev[1], dt)
                tracer._bwd_last, tracer._bwd_tag = now, tag
                return backward(g)

            return fn(tape, out, inputs, timed_backward)
        return record

    def _backward(self, fn):
        tracer = self

        def backward(tape, loss, params):
            t0 = perf_counter()
            tracer._bwd_last, tracer._bwd_tag = t0, None
            try:
                return fn(tape, loss, params)
            finally:
                t1 = perf_counter()
                if tracer._bwd_tag is not None:
                    dt = (t1 - tracer._bwd_last) * 1e3
                    tracer.add(tracer._bwd_tag[0], dt)
                    tracer.add(tracer._bwd_tag[1], dt)
                tracer._bwd_tag = None
                tracer.add("numerics.backward_ms", (t1 - t0) * 1e3)
        return backward

    def _batch_inputs(self, fn):
        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            batch = fn(*args, **kwargs)
            self.add("encoder.batch_ms", (perf_counter() - t0) * 1e3)
            self.add("encoder.positions", batch.mask.size)
            self.add("encoder.padded", float((batch.mask == 0).sum()))
            return batch
        return wrapped

    def _prepare_inputs(self, fn):
        def wrapped(dataset, model):
            t0 = perf_counter()
            inputs = fn(dataset, model)
            self.add("encoder.prepare_ms", (perf_counter() - t0) * 1e3)
            for sample, enc in zip(dataset.samples, inputs):
                kept = enc.sent_span[1] - enc.sent_span[0]
                if kept < self.expected_tokens.get(sample.id, 0):
                    self.truncated.add(sample.id)
            return inputs
        return wrapped
