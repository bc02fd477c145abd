"""The benchmark workloads: set-up, the timed phases, and the checks.

A run has three parts. Set-up builds the corpus, writes it as JSON lines,
reads it back with ``load_dataset`` and builds the vocabulary and the
initial models. The timed part runs the workload's fixed training, then
whole rounds of prediction and reporting over the test set until the run's
seconds are used (at least ``MIN_ROUNDS`` rounds). The checks come last and
are not timed.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import catsent.metrics
import catsent.training
from catsent.checkpoint import load_model, save_model
from catsent.data import (ACSA_CATEGORIES, ACSA_DEFAULT_TARGET, ACSA_POLARITIES,
                          TACSA_CATEGORIES, TACSA_DEFAULT_TARGET, TACSA_POLARITIES,
                          CategorySchema, PolaritySet, load_dataset, sample_target,
                          split_incremental)
from catsent.encoder import Vocabulary
from catsent.experiments import (EXPERIMENT_ENCODER, EXPERIMENT_STAGE2,
                                 EXPERIMENT_TRAINING)
from catsent.heads import DecoderMode, HeadKind
from catsent.numerics import Tape
from catsent.training import TrainConfig, batch_loss, fresh_model

import checks
from corpus import CorpusSpec, gold_matrix, make_corpus, n_tokens, write_jsonl
from tracing import PRIMITIVES, STEP_TERMS

WARMUP_STEPS = 3         # first steps of every training call, not timed
MIN_ROUNDS = 5           # prediction rounds, even when the seconds are used up
REPORT_PASSES = 3        # report passes (all groups) per prediction pass
PASS_PROBE = {"predict": "memory", "report": "python"}
SETUP_PROBES = 3         # steps probes right after set-up; their median scales setup_s
GROUPS = ("all", "source", "target")
BATCHED_CHECK = 64       # inputs compared against one-sample predictions
GRAD_EPS = 1e-5
GRAD_SAMPLES = 8

ACSA_SCHEMA = (tuple(ACSA_CATEGORIES),
               tuple(c for c in ACSA_CATEGORIES if c not in ACSA_DEFAULT_TARGET),
               tuple(ACSA_DEFAULT_TARGET), tuple(ACSA_POLARITIES))
TACSA_SCHEMA = (tuple(TACSA_CATEGORIES),
                tuple(c for c in TACSA_CATEGORIES if c not in TACSA_DEFAULT_TARGET),
                tuple(TACSA_DEFAULT_TARGET), tuple(TACSA_POLARITIES))


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    head: HeadKind
    modes: tuple[DecoderMode, ...]
    epochs: int
    stage2_epochs: int = 0           # > 0: incremental, with a target stage
    rate: float = 1.0                # target sampling rate of stage 2
    checkpoint: bool = False         # serve the model through save/load


WORKLOADS = {w.name: w for w in (
    # Sentences fill max_len 64: the encoder's attention and the numerics
    # kernels dominate a step, the head makes five short attends.
    Workload("acsa-long",
             CorpusSpec(*ACSA_SCHEMA, n_train=640, n_valid=128, n_test=384,
                        length=(42, 54), mention_prob=0.5, cue_zone=36),
             HeadKind.CLS_ATT, (DecoderMode.SHARED,), epochs=6),
    # The paper's forgetting comparison at one seed: 8 two-token categories
    # make the category tail 25 of ~42 positions. The heads record 55% of the
    # tape entries but take 12% of a traced step; the encoder still takes 81%.
    Workload("tacsa-forgetting",
             CorpusSpec(*TACSA_SCHEMA, n_train=480, n_valid=96, n_test=576,
                        length=(6, 16), mention_prob=0.25, cue_zone=12),
             HeadKind.SEP_SENT_ATT, (DecoderMode.SHARED, DecoderMode.UNSHARED),
             epochs=5, stage2_epochs=3, rate=0.4),
    # Mixed lengths in batches of 64: the forward-only path, padding waste
    # and the per-pair loops of the metrics layer.
    Workload("predict-bulk",
             CorpusSpec(*ACSA_SCHEMA, n_train=320, n_valid=64, n_test=1536,
                        length=(3, 60), mention_prob=0.4, cue_zone=40),
             HeadKind.SEP, (DecoderMode.UNSHARED,), epochs=4, checkpoint=True),
)}


class HostProbe:
    """Fixed work that does not call the program, timed next to every timed
    operation to measure the host's speed at that moment.

    The host is a shared VM whose speed drifts by up to 2x over tens of
    seconds, and not by the same factor for all kinds of work. So there is
    one probe per kind of work the timed operations do: ``steps`` (small
    batched kernels under a Python loop) for training steps and set-up,
    ``memory`` (a softmax over a few MB) for prediction passes, and
    ``python`` (building dicts of strings and tuples) for the metrics layer.
    ``scale`` converts a time to what it would have been with the probe at
    its reference time. Each probe runs once untimed first, so it starts
    from warm caches whatever the program did before it.
    """

    REF_S = {"steps": 1.8e-3, "memory": 4.5e-3, "python": 1.1e-3}

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((8, 48, 32))
        self.b = rng.standard_normal((32, 48))
        self.s = rng.standard_normal((8, 4, 32, 32))
        self.x = rng.standard_normal((64, 4, 48, 48))
        self.e = np.empty_like(self.x)
        self.m = np.empty(self.x.shape[:-1] + (1,))
        self.samples: dict[str, list[float]] = {k: [] for k in self.REF_S}

    def _steps(self) -> None:
        for _ in range(5):
            np.matmul(self.a, self.b)
            e = np.exp(self.s - self.s.max(axis=-1, keepdims=True))
            e /= e.sum(axis=-1, keepdims=True)
        x = 0
        for i in range(5000):
            x += i & 7

    def _memory(self) -> None:
        # into preallocated buffers: the probe leaves the allocator as it was
        np.max(self.x, axis=-1, keepdims=True, out=self.m)
        np.subtract(self.x, self.m, out=self.e)
        np.exp(self.e, out=self.e)
        np.sum(self.e, axis=-1, keepdims=True, out=self.m)
        np.divide(self.e, self.m, out=self.e)

    @staticmethod
    def _python() -> dict:
        d = {}
        for i in range(3000):
            d[str(i % 300)] = (i, i * 0.5)
        return d

    def measure(self, kind: str) -> float:
        work = {"steps": self._steps, "memory": self._memory, "python": self._python}[kind]
        work()
        t = perf_counter()
        work()
        dt = perf_counter() - t
        self.samples[kind].append(dt)
        return dt

    @classmethod
    def scale(cls, seconds: float, kind: str, probe_s: float) -> float:
        return seconds * cls.REF_S[kind] / probe_s


class TimedLog(list):
    """The ``log`` handed to ``train``: stamps each appended entry, then
    probes the host; the next interval starts after the probe."""

    def __init__(self, tracer, probe: HostProbe):
        super().__init__()
        self.tracer, self.probe = tracer, probe
        self.ends: list[float] = []       # stamp of entry i
        self.starts: list[float] = []     # start of the interval after entry i
        self.probes: list[float] = []     # probe time after entry i
        self.buckets: list[dict] = []
        self.probe0 = probe.measure("steps")
        if tracer is not None:
            tracer.close_bucket()
        self.start = perf_counter()
        self.end = self.start             # set when the training call returns

    def append(self, entry):
        self.ends.append(perf_counter())
        super().append(entry)
        if self.tracer is not None:
            self.buckets.append(self.tracer.close_bucket())
        self.probes.append(self.probe.measure("steps"))
        self.starts.append(perf_counter())

    def interval(self, i: int) -> float:
        return self.ends[i] - (self.starts[i - 1] if i else self.start)

    def probe_near(self, i: int) -> float:
        """Mean of the probes on both sides of interval ``i``."""
        return 0.5 * ((self.probes[i - 1] if i else self.probe0) + self.probes[i])

    def wall(self, scaled: bool) -> float:
        """The call's time without the probes: raw, or at reference speed."""
        tail = self.end - (self.starts[-1] if self.starts else self.start)
        if not scaled:
            return sum(self.interval(i) for i in range(len(self))) + tail
        last = self.probes[-1] if self.probes else self.probe0
        return (sum(HostProbe.scale(self.interval(i), "steps", self.probe_near(i))
                    for i in range(len(self))) + HostProbe.scale(tail, "steps", last))


def validation_losses(log: TimedLog) -> list[list[float]]:
    """The validation losses each training call in ``log`` logged, one list
    per call in call order; a call starts with its step 1."""
    calls = []
    for entry in log:
        if entry["split"] == "train" and entry["step"] == 1:
            calls.append([])
        elif entry["split"] == "validation":
            calls[-1].append(entry["loss"])
    return calls


def classify_intervals(log: TimedLog):
    """Indices of timed training steps and of validation passes.

    A step counts when the entry before it belongs to the same training
    call (its step number is one less) and it is past the warm-up; the first
    interval of a call also holds input preparation. An interval closed by a
    validation entry is that validation pass alone.
    """
    steps, valid = [], []
    for i, entry in enumerate(log):
        if i == 0:
            continue
        prev = log[i - 1]
        if entry["split"] == "train":
            if entry["step"] == prev["step"] + 1 and entry["step"] > WARMUP_STEPS:
                steps.append(i)
        elif prev["split"] == "train":
            valid.append(i)
    return steps, valid


class Run:
    """One workload run at one seed."""

    def __init__(self, wl: Workload, seed: int, seconds: float, workdir: str,
                 process_age, tracer=None):
        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.workdir, self.process_age, self.tracer = workdir, process_age, tracer
        self.failures: list[str] = []
        self.attempted = 0
        self.layer: dict[str, float] = {}
        self.logs: list[TimedLog] = []
        self.predict_buckets: list[dict] = []
        self.grad_errors: list[float] = []
        self.probe: HostProbe | None = None    # built after set-up, outside setup_s
        self.timed: dict[str, list[tuple[float, float]]] = {"predict": [], "report": []}

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        wl, spec = self.wl, self.wl.corpus
        t = perf_counter()
        self.records = make_corpus(spec, self.seed)
        paths = {}
        for split, recs in self.records.items():
            paths[split] = os.path.join(self.workdir, f"{split}.jsonl")
            write_jsonl(recs, paths[split])
        self.layer["data.generate_s"] = perf_counter() - t
        if self.tracer is not None:
            self.tracer.expected_tokens = {r["id"]: n_tokens(r["text"])
                                           for recs in self.records.values() for r in recs}

        t = perf_counter()
        self.schema = CategorySchema(spec.categories, spec.source, spec.target)
        self.pol = PolaritySet(spec.polarities)
        self.ds = {split: load_dataset(path, self.schema, self.pol, split)
                   for split, path in paths.items()}
        self.layer["data.load_s"] = perf_counter() - t

        self.layer["data.split_s"] = 0.0
        if wl.stage2_epochs:
            t = perf_counter()
            self.src_tr, self.tgt_tr_all = split_incremental(self.ds["train"], self.schema)
            self.src_va, self.tgt_va = split_incremental(self.ds["valid"], self.schema)
            self.tgt_tr = sample_target(self.tgt_tr_all, wl.rate, self.seed)
            self.layer["data.split_s"] = perf_counter() - t

        vocab = Vocabulary.build([s.text for s in self.ds["train"].samples], self.schema)
        self.inits = {mode: fresh_model(self.schema, self.pol, vocab, EXPERIMENT_ENCODER,
                                        wl.head, mode, self.seed)
                      for mode in wl.modes}
        for key in ("checkpoint.save_ms", "checkpoint.load_ms", "checkpoint.bytes"):
            self.layer[key] = 0.0
        if wl.checkpoint:
            self.inits = {mode: self.roundtrip(m, f"init-{mode.value}.npz")
                          for mode, m in self.inits.items()}
        gc.collect()

    def roundtrip(self, model, name: str):
        path = os.path.join(self.workdir, name)
        t = perf_counter()
        save_model(model, path)
        t1 = perf_counter()
        loaded = load_model(path)
        t2 = perf_counter()
        self.layer["checkpoint.save_ms"] = (t1 - t) * 1e3
        self.layer["checkpoint.load_ms"] = (t2 - t1) * 1e3
        self.layer["checkpoint.bytes"] = float(os.path.getsize(path))
        return loaded

    # -- timed part ----------------------------------------------------------

    def train_configs(self):
        epochs = self.wl.epochs
        cfg = replace(EXPERIMENT_TRAINING, epochs=epochs, patience=epochs, seed=self.seed)
        e2 = self.wl.stage2_epochs
        cfg2 = replace(EXPERIMENT_STAGE2, epochs=e2, patience=e2, seed=self.seed + 1) if e2 else None
        return cfg, cfg2

    def train(self) -> None:
        cfg, cfg2 = self.train_configs()
        self.phase("train")
        # (what, model, valid dataset, fresh model it started from or None,
        #  validation losses the call logged)
        self.trained = []
        for mode, init in self.inits.items():
            log = TimedLog(self.tracer, self.probe)
            if cfg2 is None:
                model = catsent.training.train(self.ds["train"], self.ds["valid"], init, cfg, log)
                calls = [(mode.value, model, self.ds["valid"], init)]
            else:
                stage1, stage2 = catsent.training.run_incremental(
                    self.src_tr, self.src_va, self.tgt_tr, self.tgt_va, init, cfg, cfg2, log)
                # train keeps the best of the epochs it ran, so stage 2 can
                # end above the stage-1 model it started from
                calls = [(f"{mode.value} stage 1", stage1, self.src_va, init),
                         (f"{mode.value} stage 2", stage2, self.tgt_va, None)]
            log.end = perf_counter()
            self.logs.append(log)
            self.trained += [call + (losses,) for call, losses
                             in zip(calls, validation_losses(log), strict=True)]
        gc.collect()

    def served_models(self):
        return [(what, model) for what, model, *_ in self.trained]

    def timed_pass(self, kind: str, fn):
        """Run ``fn`` once, timed between two host probes."""
        probe = PASS_PROBE[kind]
        gc.collect()
        before = self.probe.measure(probe)
        t = perf_counter()
        out = fn()
        dt = perf_counter() - t
        after = self.probe.measure(probe)
        self.timed[kind].append((dt, 0.5 * (before + after)))
        return out

    def predict_rounds(self, t_measure: float) -> None:
        test = self.ds["test"]
        served = self.served_models()
        self.first = {}
        rounds = 0
        while rounds < MIN_ROUNDS or perf_counter() - t_measure < self.seconds:
            for what, model in served:
                self.phase("predict")
                if self.tracer is not None:
                    self.tracer.close_bucket()
                probs = self.timed_pass("predict",
                                        lambda: catsent.training.predict(model, test))
                if self.tracer is not None:
                    self.predict_buckets.append(self.tracer.close_bucket())
                self.phase("report")
                for _ in range(REPORT_PASSES):
                    reports = self.timed_pass("report", lambda: {
                        g: catsent.metrics.compute_report(test, probs, g) for g in GROUPS})
                self.attempted += 1 + REPORT_PASSES
                if what not in self.first:
                    self.first[what] = (probs, reports)
                    self.failures += [f"{what}: {m}" for m in checks.check_prob_rows(probs)]
                else:
                    self.failures += checks.check_identical(
                        self.first[what][0], probs, f"{what}: repeated predict pass")
            rounds += 1
        self.rounds = rounds
        gc.collect()
        # the peak of the timed part, before the checks import scipy and
        # run their own predict passes
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def execute(self) -> None:
        self.setup()
        self.setup_raw = self.process_age()
        self.probe = HostProbe()
        host = statistics.median(self.probe.measure("steps") for _ in range(SETUP_PROBES))
        self.setup_s = HostProbe.scale(self.setup_raw, "steps", host)
        t_measure = perf_counter()
        self.train()
        self.predict_rounds(t_measure)
        self.measured_s = perf_counter() - t_measure
        if self.tracer is not None:
            self.tracer.uninstall()
        self.phase("check")
        self.run_checks()

    # -- results -------------------------------------------------------------

    def step_rate(self, scaled: bool = True) -> float:
        batch = self.train_configs()[0].batch_size
        rates = []
        for log in self.logs:
            for i in classify_intervals(log)[0]:
                dt = log.interval(i)
                rates.append(batch / (HostProbe.scale(dt, "steps", log.probe_near(i))
                                      if scaled else dt))
        return statistics.median(rates)

    def pass_time(self, kind: str, scaled: bool = True) -> float:
        return statistics.median(HostProbe.scale(dt, PASS_PROBE[kind], p) if scaled else dt
                                 for dt, p in self.timed[kind])

    def end_to_end(self, scaled: bool = True) -> dict:
        test = self.ds["test"]
        pairs = len(test) * sum(self.group_size(g) for g in GROUPS)
        return {
            "setup_s": (self.setup_s if scaled else self.setup_raw, "s"),
            "train_samples_per_s": (self.step_rate(scaled), "samples/s"),
            "train_s": (sum(log.wall(scaled) for log in self.logs), "s"),
            "predict_samples_per_s": (len(test) / self.pass_time("predict", scaled), "samples/s"),
            "report_pairs_per_s": (pairs / self.pass_time("report", scaled), "pairs/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def group_size(self, group: str) -> int:
        return {"all": self.schema.n_cat, "source": len(self.schema.source_categories),
                "target": len(self.schema.target_categories)}[group]

    def count_operations(self) -> None:
        for log in self.logs:
            self.attempted += len(log)     # training steps and validation passes

    def per_layer(self) -> dict:
        tr = self.tracer
        out: dict[str, tuple[float, str]] = {}
        step_buckets, step_ms, valid_ms = [], [], []
        for log in self.logs:
            steps, valid = classify_intervals(log)
            step_buckets += [log.buckets[i] for i in steps]
            step_ms += [log.interval(i) * 1e3 for i in steps]
            valid_ms += [log.interval(i) * 1e3 for i in valid]

        def per_step(key):
            return float(np.mean([b.get(key, 0.0) for b in step_buckets]))

        for op in PRIMITIVES:
            out[f"numerics.{op}.calls"] = (per_step(f"numerics.{op}.calls"), "count")
            out[f"numerics.{op}.fwd_ms"] = (per_step(f"numerics.{op}.fwd_ms"), "ms")
            out[f"numerics.{op}.bwd_ms"] = (per_step(f"numerics.{op}.bwd_ms"), "ms")
        out["numerics.tape_entries"] = (per_step("numerics.tape_entries"), "count")
        out["numerics.backward_ms"] = (per_step("numerics.backward_ms"), "ms")
        totals = tr.phase_totals
        positions = sum(t.get("encoder.positions", 0.0) for t in totals.values())
        padded = sum(t.get("encoder.padded", 0.0) for t in totals.values())
        out["encoder.prepare_s"] = (totals["train"].get("encoder.prepare_ms", 0.0) / 1e3, "s")
        for key in ("batch_ms", "forward_ms", "backward_ms"):
            out[f"encoder.{key}"] = (per_step(f"encoder.{key}"), "ms")
        out["encoder.pad_fraction"] = (padded / positions, "fraction")
        out["encoder.truncated"] = (float(len(tr.truncated)), "count")
        for key, unit in (("forward_ms", "ms"), ("backward_ms", "ms"), ("tape_entries", "count")):
            out[f"heads.{key}"] = (per_step(f"heads.{key}"), unit)
        for key in ("loss_forward_ms", "loss_backward_ms", "adam_ms"):
            out[f"training.{key}"] = (per_step(f"training.{key}"), "ms")
        out["training.validation_ms"] = (float(np.mean(valid_ms)), "ms")

        def per_pass(key):
            return float(np.mean([b.get(key, 0.0) for b in self.predict_buckets]))

        out["predict.pass_ms"] = (float(np.mean([dt for dt, _ in self.timed["predict"]])) * 1e3,
                                  "ms")
        out["predict.prepare_ms"] = (per_pass("encoder.prepare_ms"), "ms")
        out["predict.batch_ms"] = (per_pass("encoder.batch_ms"), "ms")
        out["predict.encoder_ms"] = (per_pass("encoder.forward_ms"), "ms")
        out["predict.heads_ms"] = (per_pass("heads.forward_ms"), "ms")
        pt = totals["predict"]
        out["predict.pad_fraction"] = (pt["encoder.padded"] / pt["encoder.positions"], "fraction")
        rt = totals["report"]
        out["metrics.build_ms"] = (rt["metrics.build_ms"] / rt["metrics.build_ms.calls"], "ms")
        out["metrics.report_ms"] = (rt["metrics.report_ms"] / rt["metrics.report_ms.calls"], "ms")
        for key in ("data.generate_s", "data.load_s", "data.split_s"):
            out[key] = (self.layer[key], "s")
        for key in ("checkpoint.save_ms", "checkpoint.load_ms"):
            out[key] = (self.layer[key], "ms")
        out["checkpoint.bytes"] = (self.layer["checkpoint.bytes"], "bytes")

        layer_sum = sum(per_step(k) for k in STEP_TERMS)
        mean_step = float(np.mean(step_ms))
        out["trace.step_ms"] = (mean_step, "ms")
        out["trace.layer_sum_ms"] = (layer_sum, "ms")
        out["trace.coverage"] = (layer_sum / mean_step, "fraction")
        out["trace.steps"] = (float(len(step_ms)), "count")
        out["trace.train_samples_per_s"] = (self.step_rate(), "samples/s")
        for kind, samples in self.probe.samples.items():
            probe_s = statistics.median(samples)
            out[f"host.{kind}_probe_ms"] = (probe_s * 1e3, "ms")
            out[f"host.{kind}_speed"] = (HostProbe.REF_S[kind] / probe_s, "ratio")
        if abs(layer_sum / mean_step - 1.0) > 0.10:
            self.failures.append(f"per-layer step terms sum to {layer_sum:.2f} ms, "
                                 f"the step interval is {mean_step:.2f} ms")
        return out

    # -- checks --------------------------------------------------------------

    def gold(self, dataset) -> np.ndarray:
        return gold_matrix(dataset.samples, self.schema.categories, self.pol.labels)

    def valid_loss(self, model, dataset) -> float:
        probs = catsent.training.predict(model, dataset)
        return checks.masked_cross_entropy(probs, self.gold(dataset))

    def run_checks(self) -> None:
        f = self.failures
        for split, recs in self.records.items():
            loaded = [{"id": s.id, "text": s.text, "labels": s.labels}
                      for s in self.ds[split].samples]
            f += [f"{split}: {m}" for m in checks.check_roundtrip(recs, loaded)]
        if self.wl.stage2_epochs:
            for orig, src, tgt in ((self.ds["train"], self.src_tr, self.tgt_tr_all),
                                   (self.ds["valid"], self.src_va, self.tgt_va)):
                f += checks.check_split([s.labels for s in orig.samples],
                                        [s.labels for s in src.samples],
                                        [s.labels for s in tgt.samples],
                                        self.schema.source_categories,
                                        self.schema.target_categories)
            f += checks.check_sampled([s.id for s in self.tgt_tr.samples],
                                      [s.id for s in self.tgt_tr_all.samples], self.wl.rate)

        for what, model, valid, fresh, logged in self.trained:
            loss = self.valid_loss(model, valid)
            f += checks.check_valid_loss(model.provenance["best_valid_loss"], loss,
                                         logged, what)
            if fresh is not None:
                f += checks.check_below_fresh(loss, self.valid_loss(fresh, valid), what)

        gold = self.gold(self.ds["test"])
        cats = self.schema.categories
        columns = {"all": list(range(len(cats))),
                   "source": [cats.index(c) for c in self.schema.source_categories],
                   "target": [cats.index(c) for c in self.schema.target_categories]}
        for what, (probs, reports) in self.first.items():
            for g in GROUPS:
                ref = checks.reference_report(probs, gold, self.pol.labels, columns[g])
                f += [f"{what}: {m}" for m in
                      checks.check_report(reports[g].to_dict(), ref, g)]

        rng = np.random.default_rng(self.seed + 7919)
        grad_ds = replace(self.ds["valid"], samples=self.ds["valid"].samples[:GRAD_SAMPLES])
        for what, model in self.served_models():
            if what.endswith("stage 1"):
                continue
            f += [f"{what}: {m}" for m in self.gradient_check(model, grad_ds, rng)]

        if self.wl.checkpoint:
            what, model = self.served_models()[0]
            probs = self.first[what][0]
            test = self.ds["test"]
            few = replace(test, samples=test.samples[:BATCHED_CHECK])
            single = catsent.training.predict(model, few, batch_size=1)
            f += checks.check_close(probs[:BATCHED_CHECK], single)
            loaded = self.roundtrip(model, "trained.npz")
            f += checks.check_identical(probs, catsent.training.predict(loaded, test),
                                        "after the checkpoint round trip")

    def gradient_check(self, model, dataset, rng) -> list[str]:
        """Tape gradients of ``batch_loss`` against central differences of
        the masked cross-entropy recomputed from ``predict``."""
        params = model.params()
        tape = Tape()
        loss = batch_loss(list(dataset.samples), model, TrainConfig(l2_lambda=0.0), tape=tape)
        tape.backward(loss, params)
        grads = [p.grad.copy() for p in params]
        gold = self.gold(dataset)

        def probe():
            return checks.masked_cross_entropy(catsent.training.predict(model, dataset), gold)

        out = []
        if not abs(probe() - loss.item()) <= 1e-12 * max(1.0, abs(loss.item())):
            out.append(f"batch_loss {loss.item()!r} != recomputed {probe()!r}")
        # Two coordinates of every parameter array, whatever its role or
        # shape: one uniform, one where the tape gradient is nonzero (for an
        # embedding, a row the batch uses).
        analytic, numeric, labels = [], [], []
        for pi, p in enumerate(params):
            nonzero = np.flatnonzero(grads[pi])
            flat = [int(rng.integers(p.data.size))]
            if nonzero.size:
                flat.append(int(nonzero[rng.integers(nonzero.size)]))
            for coord in (np.unravel_index(k, p.shape) for k in flat):
                orig = p.data[coord]
                p.data[coord] = orig + GRAD_EPS
                up = probe()
                p.data[coord] = orig - GRAD_EPS
                down = probe()
                p.data[coord] = orig
                analytic.append(grads[pi][coord])
                numeric.append((up - down) / (2 * GRAD_EPS))
                labels.append(f"params()[{pi}]{tuple(int(c) for c in coord)}")
        self.grad_errors += list(checks.gradient_errors(analytic, numeric))
        return out + checks.check_gradients(np.array(analytic), np.array(numeric), labels)

    # -- input make-up -------------------------------------------------------

    def makeup(self) -> dict:
        lengths = [n_tokens(r["text"]) for recs in self.records.values() for r in recs]
        return {"sentence_tokens_min": min(lengths), "sentence_tokens_median":
                statistics.median(lengths), "sentence_tokens_max": max(lengths),
                "categories": self.schema.n_cat, "rounds": self.rounds,
                "measured_s": round(self.measured_s, 3)}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str,
        process_age) -> dict:
    wl = WORKLOADS[name]
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    r = Run(wl, seed, seconds, workdir, process_age, tracer)
    try:
        r.execute()
    finally:
        if tracer is not None:
            tracer.uninstall()
    r.count_operations()
    metrics = r.per_layer() if trace else r.end_to_end()
    result = {"correct": not r.failures, "attempted": r.attempted, "failed": 0,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, r
