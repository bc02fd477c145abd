"""Multi-task training: masked cross-entropy loss, Adam with linear
warmup/decay, early stopping, and the two-stage incremental workflow.

The per-sample loss sums cross-entropy over the categories that are
actually labeled in that sample; unlabeled categories contribute exactly
zero. This is what makes fine-tuning on target-only label maps well
defined. L2 regularization covers all weights, excluding bias vectors.
"""

from __future__ import annotations

import copy
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from . import numerics as nx
from .data import CategorySchema, Dataset, PolaritySet
from .encoder import (BatchEncoding, EncoderConfig, PreparedInputs, Vocabulary,
                      batch_inputs, encode_batch, encoder_param_names,
                      init_encoder_params, prepare_texts)
from .errors import (ConfigurationError, DataError, DivergenceError, EmptySpanError,
                     NumericDomainError)
from .heads import (DecoderMode, DecoderParams, HeadKind, head_probs,
                    init_decoder_params, read_positions)
from .numerics import NdArray, Tape


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-5
    warmup_ratio: float = 0.25
    epochs: int = 10
    l2_lambda: float = 0.01
    batch_size: int = 16
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ConfigurationError(f"warmup_ratio={self.warmup_ratio} outside [0, 1]")
        if min(self.epochs, self.batch_size, self.patience) <= 0:
            raise ConfigurationError("epochs, batch_size and patience must be positive")
        # chained comparisons also reject NaN, and an integer past the floats
        if not 0.0 < self.learning_rate <= sys.float_info.max:
            raise ConfigurationError(
                f"learning_rate={self.learning_rate} is not a positive finite number")
        if not 0.0 <= self.l2_lambda <= sys.float_info.max:
            raise ConfigurationError(
                f"l2_lambda={self.l2_lambda} is not a non-negative finite number")


@dataclass
class TrainedModel:
    encoder_config: EncoderConfig
    vocab: Vocabulary
    schema: CategorySchema
    polarities: PolaritySet
    head_kind: HeadKind
    enc_params: dict[str, NdArray]
    dec: DecoderParams
    provenance: dict = field(default_factory=dict)

    def param_items(self) -> list[tuple[str, NdArray]]:
        return ([(n, self.enc_params[n]) for n in encoder_param_names(self.encoder_config)]
                + [("dec.W", self.dec.W), ("dec.b", self.dec.b)])

    def params(self) -> list[NdArray]:
        return [p for _, p in self.param_items()]

    def clone(self) -> "TrainedModel":
        m = copy.copy(self)
        m.enc_params = {k: v.copy() for k, v in self.enc_params.items()}
        m.dec = DecoderParams(self.dec.mode, self.dec.W.copy(), self.dec.b.copy())
        m.provenance = copy.deepcopy(self.provenance)
        return m


def _is_bias(name: str) -> bool:
    last = name.split(".")[-1]
    return last.startswith(("b", "c")) or last.endswith("_b")


def fresh_model(schema: CategorySchema, polarities: PolaritySet, vocab: Vocabulary,
                encoder_config: EncoderConfig, head_kind: HeadKind,
                decoder_mode: DecoderMode, seed: int) -> TrainedModel:
    rng = np.random.default_rng(seed)
    enc = init_encoder_params(encoder_config, len(vocab), schema.n_cat + 1, rng)
    dec = init_decoder_params(decoder_mode, schema.n_cat, encoder_config.d,
                              polarities.size, rng)
    return TrainedModel(encoder_config, vocab, schema, polarities, head_kind,
                        enc, dec, provenance={"lineage": "fresh", "init_seed": seed})


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def prepare_inputs(dataset: Dataset, model: TrainedModel) -> PreparedInputs:
    """``dataset``'s encoder inputs for ``model``. They are built once per
    dataset and (vocabulary, ``max_len``) and kept in ``dataset.prepared``,
    so a later call only looks them up. A sep-sent-att head attends over
    each sentence, so for it a sentence without a token is a data error,
    whatever batch it would land in."""
    key = (model.vocab, model.encoder_config.max_len)
    prepared = next((p for k, p in dataset.prepared if k == key), None)
    if prepared is None:
        prepared = prepare_texts([s.text for s in dataset.samples], dataset.schema, *key)
        dataset.prepared.append((key, prepared))
    if model.head_kind is HeadKind.SEP_SENT_ATT and 0 in prepared.lengths:
        sample = dataset.samples[int(prepared.lengths.argmin())]
        raise EmptySpanError(f"sample {sample.id!r}: sentence span is empty, and the "
                             f"{model.head_kind.value} head attends over it")
    return prepared


def label_arrays(samples, schema: CategorySchema,
                 polarities: PolaritySet) -> tuple[np.ndarray, np.ndarray]:
    """(mask [B, n_cat], onehot [B, n_cat, s]); mask 0 where unlabeled."""
    B, n, s = len(samples), schema.n_cat, polarities.size
    mask = np.zeros((B, n), dtype=np.float64)
    onehot = np.zeros((B, n, s), dtype=np.float64)
    for b, sample in enumerate(samples):
        if not sample.labels:
            raise DataError(f"sample {sample.id!r} has no labels at all")
        for cat, pol in sample.labels.items():
            i = schema.index(cat)
            mask[b, i] = 1.0
            onehot[b, i, polarities.index(pol)] = 1.0
    return mask, onehot


def forward_probs(model: TrainedModel, batch: BatchEncoding, train_mode: bool,
                  rng: np.random.Generator | None, tape: Tape | None) -> NdArray:
    """The head's [B, n_cat, s] probabilities. The encoder's last layer
    runs its query side at the positions the head reads alone, taped or
    not."""
    states = encode_batch(batch, model.enc_params, model.encoder_config,
                          train_mode, rng, tape, read_positions(model.head_kind, batch))
    drop = model.encoder_config.dropout if train_mode else 0.0
    return head_probs(model.head_kind, states, model.dec, tape, drop, rng)


def loss_from_probs(probs: NdArray, label_mask: np.ndarray, onehot: np.ndarray,
                    model: TrainedModel, l2_lambda: float,
                    tape: Tape | None,
                    dec_rows: np.ndarray | None = None) -> NdArray:
    """Masked cross-entropy over labeled categories plus the L2 penalty.

    ``dec_rows`` (bool over the decoder rows, default all) restricts the
    penalty on W to the rows that train; a frozen row must not feel
    regularization pressure either.
    """
    B = probs.shape[0]
    logp = nx.clamped_log(probs, tape=tape)
    picked = nx.mul(logp, NdArray(onehot * label_mask[:, :, None]), tape)
    data_term = nx.scale(nx.reduce_sum(picked, tape=tape), -1.0 / B, tape)
    if l2_lambda == 0.0:
        return data_term
    W = model.dec.W
    rows = range(W.shape[0]) if dec_rows is None else np.flatnonzero(dec_rows)
    weights = [p for name, p in model.param_items() if not _is_bias(name) and p is not W]
    sq = nx.sum_squares(weights, W, rows, tape)             # one term per decoder row
    return nx.add(data_term, nx.scale(sq, l2_lambda / 2.0, tape), tape)


def batch_loss(samples, model: TrainedModel, config: TrainConfig,
               train_mode: bool = False, rng: np.random.Generator | None = None,
               tape: Tape | None = None) -> NdArray:
    """Eq.-style multi-task loss over one batch of Samples."""
    mask, onehot = label_arrays(samples, model.schema, model.polarities)
    inputs = prepare_inputs(Dataset(model.schema, model.polarities, tuple(samples)), model)
    batch = batch_inputs(inputs, np.arange(len(samples)))
    probs = forward_probs(model, batch, train_mode, rng, tape)
    return loss_from_probs(probs, mask, onehot, model, config.l2_lambda, tape)


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------


def lr_at(step: int, total_steps: int, peak: float, warmup_ratio: float) -> float:
    """Linear ramp 0 -> peak over the warmup span, then linear decay -> 0."""
    warmup = max(int(round(total_steps * warmup_ratio)), 1)
    if step < warmup:
        return peak * step / warmup
    if total_steps == warmup:
        return 0.0
    return peak * (total_steps - step) / (total_steps - warmup)


class Adam:
    """Adaptive-moment optimizer with external per-step learning rate."""

    def __init__(self, named_params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.named_params = list(named_params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.named_params}
        self.v = {n: np.zeros_like(p.data) for n, p in self.named_params}

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.named_params:
            g = p.grad
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


# ---------------------------------------------------------------------------
# training workflows
# ---------------------------------------------------------------------------


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def _valid_loss(model, inputs: PreparedInputs, mask, onehot, lanes: nx.Lanes) -> float:
    """Masked cross-entropy of the eval-loop probabilities, averaged over
    samples; 0 for an empty set."""
    if not inputs:
        return 0.0
    probs = NdArray(_predict_inputs(model, inputs, lanes))
    return loss_from_probs(probs, mask, onehot, model, 0.0, None).item()


@contextmanager
def _diverging_at(step: int):
    """Report a non-finite value met by a forward pass of the model being
    trained (NaN/Inf reaching a softmax) as divergence at ``step``."""
    try:
        yield
    except NumericDomainError as exc:
        raise DivergenceError(step, f"non-finite forward pass at step {step}: {exc}") from exc


def _labeled(dataset: Dataset) -> Dataset:
    """The samples with at least one label. An absent key means unlabeled,
    so a sample without any adds nothing to the loss (e.g. the target copy
    of a sample that names only source categories)."""
    return replace(dataset, samples=tuple(s for s in dataset.samples if s.labels))


def train(train_ds: Dataset, valid_ds: Dataset, init: TrainedModel,
          config: TrainConfig, log: list | None = None) -> TrainedModel:
    """Mini-batch Adam with warmup/decay and early stopping on valid loss.

    Returns a model carrying the parameters of the epoch with the lowest
    validation loss among the epochs it ran; ``best_valid_loss`` is that
    loss, the lowest one logged. The model it starts from is never scored
    as a candidate, so the result can be worse on validation than ``init``.
    Fully deterministic for a fixed config seed, on any number of CPUs:
    each step's encoder layers split the batch's rows across the available
    CPUs, and every sum across rows runs on the calling thread.
    """
    if train_ds.schema != init.schema or train_ds.polarities != init.polarities:
        raise ConfigurationError("dataset schema does not match model schema")
    if train_ds.samples and not any(s.labels for s in train_ds.samples):
        raise DataError("no training sample has a label")
    train_ds, valid_ds = _labeled(train_ds), _labeled(valid_ds)
    model = init.clone()
    rng = np.random.default_rng(config.seed)
    drop_rng = np.random.default_rng(config.seed + 1)

    tr_inputs = prepare_inputs(train_ds, model)
    tr_mask, tr_onehot = label_arrays(train_ds.samples, model.schema, model.polarities)
    va_inputs = prepare_inputs(valid_ds, model)
    va_mask, va_onehot = label_arrays(valid_ds.samples, model.schema, model.polarities)

    n = len(train_ds.samples)
    steps_per_epoch = max((n + config.batch_size - 1) // config.batch_size, 1)
    total_steps = steps_per_epoch * config.epochs
    # A category with no training label gets an exactly zero gradient from the
    # masked loss, which a fresh Adam turns into an exactly zero update. Kept
    # out of L2 as well, its unshared decoder row stays bit-identical.
    dec_rows = (tr_mask.any(axis=0) if model.dec.mode is DecoderMode.UNSHARED
                else np.ones(1, dtype=bool))
    params = model.params()
    opt = Adam(model.param_items())

    best_loss = np.inf
    best_params = None
    best_epoch = -1
    since_best = 0
    step = 0
    with nx.Lanes(_available_cpus()) as lanes:
        for epoch in range(config.epochs):
            for idx in _epoch_batches(n, config.batch_size, rng):
                t0 = perf_counter()
                tape = Tape(lanes)
                batch = batch_inputs(tr_inputs, idx)
                with _diverging_at(step):
                    probs = forward_probs(model, batch, True, drop_rng, tape)
                    loss = loss_from_probs(probs, tr_mask[idx], tr_onehot[idx], model,
                                           config.l2_lambda, tape, dec_rows)
                if not np.isfinite(loss.item()):
                    raise DivergenceError(step)
                tape.backward(loss, params)
                # One sweep for the norm and the check: a non-finite entry makes
                # the sum of squares non-finite. So can finite entries above ~1e154;
                # only then are the entries themselves looked at.
                grad_sq = sum(float(np.vdot(p.grad, p.grad)) for p in params)
                if not math.isfinite(grad_sq) and not all(np.isfinite(p.grad).all()
                                                          for p in params):
                    raise DivergenceError(step, f"non-finite gradient at step {step}")
                lr = lr_at(step, total_steps, config.learning_rate, config.warmup_ratio)
                opt.step(lr)
                step += 1
                if log is not None:
                    log.append({"step": step, "lr": lr, "loss": loss.item(),
                                "split": "train", "grad_norm": math.sqrt(grad_sq),
                                "ms": (perf_counter() - t0) * 1e3})
            with _diverging_at(step):
                val = _valid_loss(model, va_inputs, va_mask, va_onehot, lanes)
            if log is not None:
                log.append({"step": step, "lr": None, "loss": val, "split": "validation"})
            if val < best_loss:
                best_loss = val
                best_params = [p.data.copy() for p in params]
                best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                if since_best >= config.patience:
                    break
    if best_params is not None:
        for p, data in zip(params, best_params):
            p.data = data
    model.provenance = dict(model.provenance)
    model.provenance.update({
        "train_seed": config.seed,
        "best_epoch": best_epoch,
        "best_valid_loss": best_loss,
        "train_fingerprint": dataset_fingerprint(train_ds),
    })
    return model


def run_incremental(source_train: Dataset, source_valid: Dataset,
                    target_train: Dataset, target_valid: Dataset,
                    init: TrainedModel, config_src: TrainConfig,
                    config_tgt: TrainConfig,
                    log: list | None = None) -> tuple[TrainedModel, TrainedModel]:
    """Stage 1 on Sample-Source from fresh init; stage 2 fine-tunes on
    Sample-Target with a fresh optimizer and schedule.

    Stage 2 returns the best of its own epochs (``train``'s rule): it does
    not fall back to the stage-1 model, even when every stage-2 epoch
    scores worse on the target validation set than that model.
    """
    if source_train.schema != target_train.schema:
        raise ConfigurationError("source and target stages use different schemas")
    source_model = train(source_train, source_valid, init, config_src, log)
    source_model.provenance["workflow"] = "incremental-stage1"
    if not any(s.labels for s in target_train.samples):
        incremental = source_model.clone()
    else:
        incremental = train(target_train, target_valid, source_model, config_tgt, log)
    incremental.provenance["workflow"] = "incremental-stage2"
    incremental.provenance["lineage"] = "finetuned-from-stage1"
    return source_model, incremental


def predict(model: TrainedModel, dataset: Dataset, batch_size: int = 64) -> np.ndarray:
    """[N, n_cat, s] probabilities, dropout disabled, deterministic."""
    if dataset.schema != model.schema or dataset.polarities != model.polarities:
        raise ConfigurationError("dataset schema does not match model schema")
    with nx.Lanes(_available_cpus()) as lanes:
        return _predict_inputs(model, prepare_inputs(dataset, model), lanes, batch_size)


def _predict_inputs(model: TrainedModel, inputs: PreparedInputs, lanes: nx.Lanes,
                    batch_size: int = 64) -> np.ndarray:
    """The eval loop: [N, n_cat, s] probabilities of prepared inputs, rows
    in input order.

    Batches are cut from the inputs stably sorted by kept sentence width, so
    each batch pads its sentences to a width close to their own. They run on
    one lane per batch, up to every lane: with n lanes, lane k (lane 0 is the
    calling thread) runs batches k, k + n, ... Each batch writes only its
    own rows of the output, so the result does not depend on the lane count
    or on the order in which batches finish. The batches run untaped, so
    their primitives do not split them further. As in a training step, the
    last encoder layer runs its query side only at the positions the head
    reads (``forward_probs``), bitwise as the full layer would give them.
    """
    order = np.argsort(inputs.lengths, kind="stable")
    out = np.zeros((len(inputs), model.schema.n_cat, model.polarities.size))
    starts = range(0, len(inputs), batch_size)
    n = max(min(lanes.n, len(starts)), 1)

    def run(k: int) -> None:
        for i in starts[k::n]:
            idx = order[i:i + batch_size]
            batch = batch_inputs(inputs, idx)
            out[idx] = forward_probs(model, batch, False, None, None).data

    lanes.each(run, n)
    return out


def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                 # no affinity call on this platform
        return os.cpu_count() or 1


def dataset_fingerprint(dataset: Dataset) -> str:
    import hashlib

    h = hashlib.sha256()
    for s in dataset.samples:
        h.update(s.id.encode())
        h.update(s.text.encode())
        for k in sorted(s.labels):
            h.update(f"{k}={s.labels[k]}".encode())
    return h.hexdigest()[:16]
