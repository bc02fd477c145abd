"""Loss oracles, schedule pointwise checks, masked-label invariance, and
workflow behavior on tiny datasets."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import catsent.training

from catsent.data import (CategorySchema, PolaritySet, Sample, SyntheticSpec,
                          make_dataset, make_synthetic, split_incremental)
from catsent.encoder import EncoderConfig, Vocabulary, batch_inputs, encode_batch
from catsent.errors import ConfigurationError, DataError, DivergenceError
from catsent.heads import DecoderMode, HeadKind, head_probs, read_positions
from catsent.training import (Adam, TrainConfig, batch_loss, forward_probs,
                              fresh_model, label_arrays, loss_from_probs, lr_at,
                              predict, prepare_inputs, run_incremental, train)
import catsent.numerics as nx
from catsent.numerics import NdArray

POL = PolaritySet(("positive", "negative", "none"))
SCHEMA = CategorySchema(("food", "service"), ("food",), ("service",))
ENC = EncoderConfig(layers=1, heads=2, d=8, ff=16, max_len=32, dropout=0.1)


def tiny_dataset(n=8, seed=0):
    return make_synthetic(SyntheticSpec(SCHEMA, POL, n), seed)


def tiny_model(mode=DecoderMode.SHARED, seed=0, head=HeadKind.SEP, enc=ENC):
    ds = tiny_dataset()
    vocab = Vocabulary.build([s.text for s in ds.samples], SCHEMA)
    return fresh_model(SCHEMA, POL, vocab, enc, head, mode, seed)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(warmup_ratio=1.5)
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=0)
    for bad in ({"learning_rate": 0.0}, {"learning_rate": -1.0}, {"learning_rate": np.nan},
                {"learning_rate": np.inf}, {"learning_rate": 10 ** 400}, {"l2_lambda": -5.0},
                {"l2_lambda": np.nan}, {"l2_lambda": np.inf}, {"l2_lambda": 10 ** 400}):
        with pytest.raises(ConfigurationError):
            TrainConfig(**bad)
    TrainConfig(l2_lambda=0.0)


def test_label_arrays():
    samples = [Sample("a", "x", {"food": "positive"}),
               Sample("b", "y", {"food": "none", "service": "negative"})]
    mask, onehot = label_arrays(samples, SCHEMA, POL)
    assert mask.tolist() == [[1, 0], [1, 1]]
    assert onehot[0, 0].tolist() == [1, 0, 0]
    assert onehot[1, 0].tolist() == [0, 0, 1]
    assert onehot[1, 1].tolist() == [0, 1, 0]
    assert onehot[0, 1].sum() == 0


def test_label_arrays_rejects_fully_unlabeled():
    with pytest.raises(DataError):
        label_arrays([Sample("a", "x", {})], SCHEMA, POL)


def test_loss_scalar_oracle():
    """Loss == -(1/B) sum of log p at the gold index over labeled pairs."""
    rng = np.random.default_rng(3)
    model = tiny_model()
    B, n, s = 4, SCHEMA.n_cat, POL.size
    probs = rng.dirichlet(np.ones(s), size=(B, n))
    mask = (rng.random((B, n)) > 0.3).astype(float)
    mask[0] = [1, 0]
    gold = rng.integers(s, size=(B, n))
    onehot = np.zeros((B, n, s))
    for b in range(B):
        for i in range(n):
            onehot[b, i, gold[b, i]] = 1.0
    got = loss_from_probs(NdArray(probs), mask, onehot, model, 0.0, None).item()
    want = -sum(np.log(max(probs[b, i, gold[b, i]], 1e-12))
                for b in range(B) for i in range(n) if mask[b, i]) / B
    assert abs(got - want) < 1e-12


def test_loss_l2_term_recomputed():
    model = tiny_model()
    probs = NdArray(np.full((2, 2, 3), 1 / 3))
    mask = np.ones((2, 2))
    onehot = np.zeros((2, 2, 3))
    onehot[:, :, 0] = 1.0
    lam = 0.07
    with_l2 = loss_from_probs(probs, mask, onehot, model, lam, None).item()
    without = loss_from_probs(probs, mask, onehot, model, 0.0, None).item()
    sq = sum((p.data ** 2).sum() for name, p in model.param_items()
             if not (name.split(".")[-1].startswith(("b", "c"))
                     or name.endswith("_b")))
    assert abs((with_l2 - without) - lam / 2 * sq) < 1e-10


def test_unlabeled_categories_do_not_affect_loss():
    """Changing probabilities of masked categories leaves the loss fixed."""
    rng = np.random.default_rng(5)
    model = tiny_model()
    mask = np.array([[1.0, 0.0]])
    onehot = np.zeros((1, 2, 3))
    onehot[0, 0, 1] = 1.0
    onehot[0, 1, 2] = 1.0
    base = rng.dirichlet(np.ones(3), size=(1, 2))
    l0 = loss_from_probs(NdArray(base.copy()), mask, onehot, model, 0.0, None).item()
    base[0, 1] = rng.dirichlet(np.ones(3))
    l1 = loss_from_probs(NdArray(base), mask, onehot, model, 0.0, None).item()
    assert l0 == l1


def test_batch_loss_gradient_check():
    ds = tiny_dataset(4)
    model = tiny_model(DecoderMode.UNSHARED)
    cfg = TrainConfig(l2_lambda=0.0)
    params = model.params()

    def run():
        tape = nx.Tape()
        loss = batch_loss(ds.samples, model, cfg, tape=tape)
        tape.backward(loss, params)
        return loss.item()

    err = nx.grad_check(run, [model.dec.W, model.enc_params["emb_ln_g"]],
                        eps=1e-5,
                        forward=lambda: batch_loss(ds.samples, model, cfg).item())
    assert err < 1e-5, err


def sum_squares_chain(arrays, stacked, rows, tape):
    """The L2 sum of squares as primitives: mul, reduce_sum and add per
    array, each decoder row taken as its own term."""
    sq = None
    for p in list(arrays) + [nx.take(stacked, i, 0, tape) for i in rows]:
        term = nx.reduce_sum(nx.mul(p, p, tape), tape=tape)
        sq = term if sq is None else nx.add(sq, term, tape)
    return sq


@pytest.mark.parametrize("mode, dec_rows", [(DecoderMode.SHARED, None),
                                            (DecoderMode.UNSHARED, [False, True]),
                                            (DecoderMode.UNSHARED, None)],
                         ids=["shared", "unshared-frozen-row", "unshared"])
def test_l2_penalty_is_one_tape_entry_equal_to_the_per_array_chain(monkeypatch, mode,
                                                                   dec_rows):
    ds = tiny_dataset(6)
    mask, onehot = label_arrays(ds.samples, SCHEMA, POL)
    batch = batch_inputs(prepare_inputs(ds, tiny_model()), tiny_model().vocab)
    rows = None if dec_rows is None else np.array(dec_rows)
    runs = []
    for sum_squares in (nx.sum_squares, sum_squares_chain):
        monkeypatch.setattr(nx, "sum_squares", sum_squares)
        model = sharp_model(4, HeadKind.SEP_SENT_ATT, mode)
        tape = nx.Tape()
        probs = forward_probs(model, batch, True, np.random.default_rng(2), tape)
        before = len(tape._entries)
        loss = loss_from_probs(probs, mask, onehot, model, 0.03, tape, rows)
        tape.backward(loss, model.params())
        runs.append((loss.item(), [p.grad for p in model.params()],
                     len(tape._entries) - before))
    (loss, grads, entries), (want_loss, want_grads, chain_entries) = runs
    assert loss == want_loss
    for got, want in zip(grads, want_grads, strict=True):
        assert got.tobytes() == want.tobytes()
    assert entries == 4 + 3                 # the data term; sum_squares, scale, add
    model = tiny_model(mode)
    n_rows = model.dec.W.shape[0] if rows is None else int(rows.sum())
    n_terms = n_rows + sum(not catsent.training._is_bias(name) and p is not model.dec.W
                           for name, p in model.param_items())
    # mul and reduce_sum per term, the adds between terms, a take per row
    assert chain_entries == 4 + 3 * n_terms - 1 + n_rows + 2


def test_lr_schedule_pointwise():
    total, peak, ratio = 100, 2.0, 0.25
    warmup = 25
    for step in range(total):
        got = lr_at(step, total, peak, ratio)
        if step < warmup:
            want = peak * step / warmup
        else:
            want = peak * (total - step) / (total - warmup)
        assert abs(got - want) < 1e-15
    assert lr_at(0, 100, peak, ratio) == 0.0
    assert lr_at(100, 100, peak, ratio) == 0.0


def test_lr_schedule_full_warmup_edge():
    assert lr_at(10, 10, 1.0, 1.0) == 0.0


def test_adam_single_step_oracle():
    p = NdArray(np.array([1.0, -2.0]))
    p.grad = np.array([0.5, -1.0])
    opt = Adam([("p", p)])
    opt.step(0.1)
    # bias-corrected first step moves each coordinate by ~lr * sign(g)
    g = np.array([0.5, -1.0])
    m = 0.1 * g / (1 - 0.9)
    v = 0.001 * g * g / (1 - 0.999)
    want = np.array([1.0, -2.0]) - 0.1 * m / (np.sqrt(v) + 1e-8)
    assert np.allclose(p.data, want, atol=1e-12, rtol=0)


def test_train_is_deterministic():
    ds = tiny_dataset(12)
    va = tiny_dataset(6, seed=1)
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=7)
    a = train(ds, va, tiny_model(), cfg)
    b = train(ds, va, tiny_model(), cfg)
    for (na, pa), (nb, pb) in zip(a.param_items(), b.param_items()):
        assert na == nb and np.array_equal(pa.data, pb.data)


def wide_model(head=HeadKind.SEP, mode=DecoderMode.SHARED):
    """A model whose encoder arrays are large enough for a step to split
    them across lanes at batch 16."""
    ds = tiny_dataset()
    vocab = Vocabulary.build([s.text for s in ds.samples], SCHEMA)
    enc = EncoderConfig(layers=1, heads=2, d=64, ff=128, max_len=32, dropout=0.1)
    return fresh_model(SCHEMA, POL, vocab, enc, head, mode, 0)


@pytest.mark.parametrize("head", list(HeadKind))
def test_train_on_2_lanes_equals_train_on_1(monkeypatch, head):
    """Each step's rows split across CPUs; every parameter and logged loss
    stays bit for bit what one CPU gives."""
    ds, va = mixed_length_dataset(), mixed_length_dataset(n=9, seed=6)
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=16, seed=3)
    split = []
    real_each = nx.Lanes.each
    monkeypatch.setattr(nx.Lanes, "each", lambda self, fn, n=None: (
        split.append(self.n if n is None else min(n, self.n)), real_each(self, fn, n)))
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr("catsent.training._available_cpus", lambda: cpus)
        log = []
        before = threading.active_count()
        model = train(ds, va, wide_model(head, DecoderMode.UNSHARED), cfg, log)
        assert threading.active_count() == before        # the step pool ends with train
        runs.append((model, [r["loss"] for r in log]))
    assert max(split) == 2                                # the 2-lane run did split
    (one, one_log), (two, two_log) = runs
    assert np.array_equal(one_log, two_log)
    for (name, p1), (_, p2) in zip(one.param_items(), two.param_items()):
        assert np.array_equal(p1.data, p2.data), name


def test_a_2_lane_training_step_hands_over_twice_per_layer_op(monkeypatch):
    """Forward and backward, the embedding and each layer hand the batch's
    rows to the lanes once; no public primitive and no tape record runs off
    the calling thread."""
    layers = 2
    ds = tiny_dataset(16)
    model = fresh_model(SCHEMA, POL, tiny_model().vocab, replace(ENC, layers=layers),
                        HeadKind.SEP_SENT_ATT, DecoderMode.UNSHARED, 0)
    mask, onehot = label_arrays(ds.samples, SCHEMA, POL)
    batch = batch_inputs(prepare_inputs(ds, model), model.vocab)
    hand_overs, threads = [], set()
    real_each, real_record = nx.Lanes.each, nx.Tape.record
    monkeypatch.setattr(nx.Lanes, "each", lambda self, fn, n=None: (
        hand_overs.append(n), real_each(self, fn, n)))
    monkeypatch.setattr(nx.Tape, "record", lambda self, *args: (
        threads.add(threading.get_ident()), real_record(self, *args)))
    for name in ("matmul", "add", "mul", "scale", "reshape", "transpose", "take", "stack",
                 "reduce_sum", "gelu", "softmax", "masked_softmax", "clamped_log", "dropout",
                 "layer_norm", "attention", "sum_squares", "embedding", "transformer_layer"):
        monkeypatch.setattr(nx, name, lambda *args, fn=getattr(nx, name), **kw: (
            threads.add(threading.get_ident()), fn(*args, **kw))[1])
    with nx.Lanes(2) as lanes:
        tape = nx.Tape(lanes)
        probs = forward_probs(model, batch, True, np.random.default_rng(0), tape)
        loss = loss_from_probs(probs, mask, onehot, model, 0.01, tape)
        tape.backward(loss, model.params())
    assert len(hand_overs) == 2 * (layers + 1)
    assert threads == {threading.get_ident()}


def test_train_returns_its_best_epoch_when_every_epoch_is_worse_than_its_start():
    """``train`` weighs only the epochs it ran, never the model it starts
    from: the stage-2 rule of ``run_incremental``."""
    ds = tiny_dataset(12)
    teach = {"positive": "negative", "negative": "positive", "none": "positive"}
    flipped = replace(ds, samples=tuple(
        replace(s, labels={k: teach[v] for k, v in s.labels.items()}) for s in ds.samples))
    init = tiny_model()
    mask, onehot = label_arrays(ds.samples, SCHEMA, POL)

    def valid_loss(model):
        return loss_from_probs(NdArray(predict(model, ds)), mask, onehot, model,
                               0.0, None).item()

    log = []
    model = train(flipped, ds, init, TrainConfig(learning_rate=1e-2, epochs=3, batch_size=4,
                                                 patience=3), log)
    logged = [r["loss"] for r in log if r["split"] == "validation"]
    assert len(logged) == 3 and min(logged) > valid_loss(init)
    assert model.provenance["best_epoch"] == int(np.argmin(logged))
    assert model.provenance["best_valid_loss"] == min(logged) == valid_loss(model)
    assert not np.array_equal(model.enc_params["tok_emb"].data, init.enc_params["tok_emb"].data)


def test_train_does_not_mutate_init():
    ds = tiny_dataset(8)
    init = tiny_model()
    before = {n: p.data.copy() for n, p in init.param_items()}
    train(ds, tiny_dataset(4, seed=2), init,
          TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4))
    for n, p in init.param_items():
        assert np.array_equal(p.data, before[n])


def test_train_schema_guard():
    other = CategorySchema(("drinks",))
    ds = make_dataset([Sample("a", "x", {"drinks": "none"})], other, POL)
    with pytest.raises(ConfigurationError):
        train(ds, ds, tiny_model(), TrainConfig())


def test_train_records_provenance():
    ds = tiny_dataset(8)
    m = train(ds, tiny_dataset(4, seed=2), tiny_model(),
              TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=3))
    assert m.provenance["train_seed"] == 3
    assert m.provenance["best_epoch"] >= 0


def test_incremental_unshared_source_pairs_untouched():
    """Stage 2 must leave every source-category (W_i, b_i) bit-identical."""
    ds = make_synthetic(SyntheticSpec(SCHEMA, POL, 20), 0)
    src_tr, tgt_tr = split_incremental(ds, SCHEMA)
    va = make_synthetic(SyntheticSpec(SCHEMA, POL, 8), 1)
    src_va, tgt_va = split_incremental(va, SCHEMA)
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8)
    stage1, stage2 = run_incremental(src_tr, src_va, tgt_tr, tgt_va,
                                     tiny_model(DecoderMode.UNSHARED), cfg, cfg)
    i = SCHEMA.index("food")
    assert np.array_equal(stage1.dec.W.data[i], stage2.dec.W.data[i])
    assert np.array_equal(stage1.dec.b.data[i], stage2.dec.b.data[i])
    j = SCHEMA.index("service")
    assert not np.array_equal(stage1.dec.W.data[j], stage2.dec.W.data[j])


def test_incremental_shared_pair_changes():
    ds = make_synthetic(SyntheticSpec(SCHEMA, POL, 20), 0)
    src_tr, tgt_tr = split_incremental(ds, SCHEMA)
    va = make_synthetic(SyntheticSpec(SCHEMA, POL, 8), 1)
    src_va, tgt_va = split_incremental(va, SCHEMA)
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8)
    stage1, stage2 = run_incremental(src_tr, src_va, tgt_tr, tgt_va,
                                     tiny_model(DecoderMode.SHARED), cfg, cfg)
    assert not np.array_equal(stage1.dec.W.data[0], stage2.dec.W.data[0])


def test_incremental_empty_target_stage():
    ds = make_synthetic(SyntheticSpec(SCHEMA, POL, 12), 0)
    src_tr, tgt_tr = split_incremental(ds, SCHEMA)
    empty = ds.__class__(ds.schema, ds.polarities, (), ds.split_tag)
    cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=8)
    stage1, stage2 = run_incremental(src_tr, src_tr, empty, empty,
                                     tiny_model(), cfg, cfg)
    for (_, pa), (_, pb) in zip(stage1.param_items(), stage2.param_items()):
        assert np.array_equal(pa.data, pb.data)


def test_predict_shape_and_determinism():
    ds = tiny_dataset(6)
    model = tiny_model()
    a = predict(model, ds)
    b = predict(model, ds, batch_size=2)
    assert a.shape == (6, SCHEMA.n_cat, POL.size)
    assert np.allclose(a.sum(axis=-1), 1.0, atol=1e-12, rtol=0)
    assert np.allclose(a, b, atol=1e-12, rtol=0)


def mixed_length_dataset(n=37, seed=5):
    """Synthetic samples padded with 0-9 extra distractor pairs: 3-25 tokens."""
    rng = np.random.default_rng(seed)
    base = tiny_dataset(n, seed)
    samples = [replace(s, text=" ".join([s.text] + ["the place"] * int(rng.integers(0, 10))))
               for s in base.samples]
    return replace(base, samples=tuple(samples))


def sharp_model(seed=0, head=HeadKind.SEP_SENT_ATT, mode=DecoderMode.UNSHARED, enc=ENC):
    """A model whose outputs are far from uniform, so row mix-ups show."""
    model = tiny_model(mode, seed, head, enc)
    rng = np.random.default_rng(seed + 100)
    for p in model.params():
        p.data = rng.normal(0.0, 0.5, size=p.data.shape)
    return model


def input_order_probs(model, ds, batch_size):
    """Reference eval loop: batches cut in input order, no sorting."""
    inputs = prepare_inputs(ds, model)
    return np.concatenate([
        forward_probs(model, batch_inputs(inputs[i:i + batch_size], model.vocab),
                      False, None, None).data
        for i in range(0, len(inputs), batch_size)])


def test_predict_matches_the_input_order_loop_on_mixed_lengths():
    ds, model = mixed_length_dataset(), sharp_model()
    lengths = {len(s.text.split()) for s in ds.samples}
    assert max(lengths) - min(lengths) >= 10
    got = predict(model, ds, batch_size=8)
    want = input_order_probs(model, ds, 8)
    assert np.abs(got - want).max() <= 1e-12
    assert np.abs(want - want.mean(axis=0)).max() > 1e-2     # rows differ
    assert np.array_equal(got, predict(model, ds, batch_size=8))
    assert np.abs(predict(model, ds, batch_size=1) - want).max() <= 1e-12


def test_predict_rows_follow_a_permuted_dataset():
    ds, model = mixed_length_dataset(), sharp_model(1, HeadKind.CLS_ATT, DecoderMode.SHARED)
    perm = np.random.default_rng(9).permutation(len(ds))
    permuted = replace(ds, samples=tuple(ds.samples[i] for i in perm))
    assert np.abs(predict(model, permuted, batch_size=8)
                  - predict(model, ds, batch_size=8)[perm]).max() <= 1e-12


def test_predict_batches_are_sorted_and_pad_only_shorter_rows(monkeypatch):
    ds, model = mixed_length_dataset(), sharp_model()
    seen = []

    def recording_batch_inputs(inputs, vocab):
        batch = batch_inputs(inputs, vocab)
        seen.append(batch)
        return batch

    monkeypatch.setattr("catsent.training.batch_inputs", recording_batch_inputs)
    predict(model, ds, batch_size=8)
    assert len(seen) == 5
    prev_widest = 0
    for batch in sorted(seen, key=lambda b: b.sent_width):   # threads interleave calls
        lengths = batch.sent_mask.sum(axis=1)          # kept sentence tokens per row
        widest = lengths.max()
        assert widest == batch.sent_width
        padded_rows = np.nonzero((batch.mask == 0).any(axis=1))[0]
        assert all(lengths[r] < widest for r in padded_rows)
        assert (batch.mask == 0).sum() == (widest - lengths).sum()
        assert lengths.min() >= prev_widest             # batches do not overlap
        prev_widest = widest


def sorted_batch_probs(model, ds, batch_size, taped=False):
    """Reference eval loop: one thread, batches cut from the inputs stably
    sorted by kept sentence width; ``taped`` runs each on a tape."""
    inputs = prepare_inputs(ds, model)
    order = np.argsort([e.sent_span[1] - e.sent_span[0] for e in inputs], kind="stable")
    out = np.zeros((len(inputs), SCHEMA.n_cat, POL.size))
    for i in range(0, len(inputs), batch_size):
        idx = order[i:i + batch_size]
        out[idx] = forward_probs(model, batch_inputs([inputs[j] for j in idx], model.vocab),
                                 False, None, nx.Tape() if taped else None).data
    return out


def eval_batches(inputs):
    """Index lists of one row, of 7 rows of mixed lengths and of 3 rows of
    one length."""
    widths = np.array([e.sent_span[1] - e.sent_span[0] for e in inputs])
    common = np.bincount(widths).argmax()
    return {"B=1": [0], "padded-B=7": list(range(7)),
            "unpadded-B=3": np.flatnonzero(widths == common)[:3].tolist()}


def full_probs(model, batch, tape):
    """The head's probabilities, dropout off, over an encoding of every
    position."""
    states = encode_batch(batch, model.enc_params, model.encoder_config, tape=tape)
    return head_probs(model.head_kind, states, model.dec, tape)


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("mode", list(DecoderMode))
@pytest.mark.parametrize("head", list(HeadKind))
def test_forward_only_probs_keep_every_bit_of_the_taped_forward(head, mode, layers):
    """Taped or not, the last layer runs its query side at the positions the
    head reads alone. Without dropout both give the bits of an encoding of
    every position."""
    model = sharp_model(7, head, mode, replace(ENC, layers=layers))
    inputs = prepare_inputs(mixed_length_dataset(), model)
    for name, idx in eval_batches(inputs).items():
        batch = batch_inputs([inputs[i] for i in idx], model.vocab)
        assert len(idx) == int(name.split("=")[1])
        assert (batch.mask == 0).any() == name.startswith("padded")
        want = full_probs(model, batch, nx.Tape()).data
        lean = forward_probs(model, batch, False, None, None).data
        taped = forward_probs(model, batch, False, None, nx.Tape()).data
        assert lean.tobytes() == want.tobytes(), name
        assert taped.tobytes() == want.tobytes(), name


def step_grads(model, batch, mask, onehot):
    """Probabilities and every parameter gradient of one taped training
    step with dropout."""
    tape = nx.Tape()
    probs = forward_probs(model, batch, True, np.random.default_rng(3), tape)
    loss = loss_from_probs(probs, mask, onehot, model, 0.01, tape)
    tape.backward(loss, model.params())
    return probs.data, {name: p.grad for name, p in model.param_items()}


@pytest.mark.parametrize("mode", list(DecoderMode))
@pytest.mark.parametrize("head", list(HeadKind))
def test_a_training_step_at_the_read_positions_equals_the_full_step(monkeypatch, head, mode):
    """A step whose last layer runs its query side at the read positions
    keeps every bit of the probabilities of a step over every position, and
    its gradients to rounding: a product or a sum over fewer rows."""
    model = sharp_model(7, head, mode, replace(ENC, layers=2))
    ds = mixed_length_dataset()
    idx = list(range(7))
    batch = batch_inputs([prepare_inputs(ds, model)[i] for i in idx], model.vocab)
    mask, onehot = label_arrays([ds.samples[i] for i in idx], SCHEMA, POL)
    widths, real_layer = [], nx.transformer_layer

    def layer(*args, **kw):
        out = real_layer(*args, **kw)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(nx, "transformer_layer", layer)
    cut_probs, cut_grads = step_grads(model, batch, mask, onehot)
    T = batch.token_ids.shape[1]
    monkeypatch.setattr("catsent.training.read_positions", lambda kind, b: list(range(T)))
    all_probs, all_grads = step_grads(model, batch, mask, onehot)
    assert widths == [T, len(read_positions(head, batch)), T, T]
    assert cut_probs.tobytes() == all_probs.tobytes()
    for name, want in all_grads.items():
        # .bk's true gradient is 0 (softmax ignores a per-row shift): only
        # rounding is left in it
        bound = 1e-14 if name.endswith(".bk") else 1e-12 * np.abs(want).max()
        assert np.abs(cut_grads[name] - want).max() <= bound, name


@pytest.mark.parametrize("head", list(HeadKind))
def test_predict_on_1_and_2_lanes_equals_the_taped_loop(monkeypatch, head):
    ds, model = mixed_length_dataset(), sharp_model(4, head)
    got = []
    for cpus in (1, 2):
        monkeypatch.setattr("catsent.training._available_cpus", lambda: cpus)
        got.append(predict(model, ds, batch_size=8))
    assert np.array_equal(got[0], got[1])
    assert got[0].tobytes() == sorted_batch_probs(model, ds, 8, taped=True).tobytes()


@pytest.mark.parametrize("cpus", [None, 3], ids=["this-host", "3-cpus"])
@pytest.mark.parametrize("batch_size, n_batches", [(64, 1), (20, 2), (8, 5)])
def test_predict_threads_equal_the_serial_sorted_loop(monkeypatch, cpus, batch_size,
                                                      n_batches):
    ds, model = mixed_length_dataset(), sharp_model()
    assert -(-len(ds) // batch_size) == n_batches
    if cpus is not None:
        monkeypatch.setattr("catsent.training._available_cpus", lambda: cpus)
    before = threading.active_count()
    got = predict(model, ds, batch_size=batch_size)
    assert threading.active_count() == before           # no thread outlives the call
    assert np.array_equal(got, sorted_batch_probs(model, ds, batch_size))


def test_predict_rows_are_exact_with_more_threads_than_cpus(monkeypatch):
    ds, model = mixed_length_dataset(), sharp_model(2, HeadKind.CLS_ATT)
    want = sorted_batch_probs(model, ds, 1)
    monkeypatch.setattr("catsent.training._available_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = predict(model, ds, batch_size=1)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)


class BatchFailure(Exception):
    pass


@pytest.mark.parametrize("cpus", [2, 3], ids=["caller-fails", "worker-fails"])
def test_an_error_in_one_batch_leaves_predict_with_its_type(monkeypatch, cpus):
    """The last batch (5 rows) runs on the calling thread with 2 threads and
    on a worker with 3."""
    ds, model = mixed_length_dataset(), sharp_model()
    real = catsent.training.forward_probs

    def failing_forward_probs(model, batch, *args):
        if batch.token_ids.shape[0] == 5:
            raise BatchFailure("batch failed")
        return real(model, batch, *args)

    monkeypatch.setattr("catsent.training._available_cpus", lambda: cpus)
    monkeypatch.setattr("catsent.training.forward_probs", failing_forward_probs)
    before = threading.active_count()
    with pytest.raises(BatchFailure):
        predict(model, ds, batch_size=8)
    assert threading.active_count() == before


def test_logged_validation_loss_is_the_masked_cross_entropy_of_predict():
    ds = tiny_dataset(12)
    va = mixed_length_dataset(n=21, seed=3)
    # unlabel "service" in every other sample: the mask has to matter
    va = replace(va, samples=tuple(
        replace(s, labels={k: v for k, v in s.labels.items() if k == "food" or i % 2})
        for i, s in enumerate(va.samples)))
    log = []
    model = train(ds, va, sharp_model(), TrainConfig(learning_rate=1e-3, epochs=1,
                                                     batch_size=4), log)
    (logged,) = [r["loss"] for r in log if r["split"] == "validation"]
    probs = predict(model, va)
    nll = 0.0
    for b, sample in enumerate(va.samples):
        for cat, pol in sample.labels.items():
            p = probs[b, SCHEMA.index(cat), POL.index(pol)]
            nll -= np.log(max(p, 1e-12))
    assert abs(logged - nll / len(va)) <= 1e-12 * abs(logged)
    assert model.provenance["best_valid_loss"] == logged


def test_step_log_records_schedule():
    ds = tiny_dataset(8)
    log = []
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, warmup_ratio=0.5)
    train(ds, tiny_dataset(4, seed=2), tiny_model(), cfg, log)
    steps = [r for r in log if r["split"] == "train"]
    assert len(steps) == 4
    total = 4
    for k, rec in enumerate(steps):
        assert abs(rec["lr"] - lr_at(k, total, 1e-3, 0.5)) < 1e-15
    assert sum(r["split"] == "validation" for r in log) == 2


def test_label_less_samples_are_dropped_not_rejected():
    """An absent key means unlabeled: a sample with no label at all adds
    nothing, so training with it equals training without it."""
    ds = tiny_dataset(12)
    va = tiny_dataset(6, seed=1)
    blank = [Sample(f"blank-{i}", s.text, {}) for i, s in enumerate(ds.samples[:3])]
    padded = make_dataset(list(ds.samples) + blank, SCHEMA, POL)
    va_padded = make_dataset(list(va.samples) + blank, SCHEMA, POL)
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=7)
    a = train(ds, va, tiny_model(), cfg)
    b = train(padded, va_padded, tiny_model(), cfg)
    for (_, pa), (_, pb) in zip(a.param_items(), b.param_items()):
        assert np.array_equal(pa.data, pb.data)
    with pytest.raises(DataError):
        train(make_dataset(blank, SCHEMA, POL), va, tiny_model(), cfg)


class NanGradTape(nx.Tape):
    """A tape whose backward leaves one non-finite gradient entry."""

    def backward(self, loss, params):
        super().backward(loss, params)
        params[0].grad.flat[0] = np.nan


def test_nonfinite_gradient_raises_before_the_update(monkeypatch):
    monkeypatch.setattr("catsent.training.Tape", NanGradTape)
    monkeypatch.setattr("catsent.training._available_cpus", lambda: 2)
    init = wide_model()
    log = []
    before = threading.active_count()
    with pytest.raises(DivergenceError, match="gradient") as info:
        train(tiny_dataset(16), tiny_dataset(4, seed=2), init,
              TrainConfig(learning_rate=1e-3, epochs=1, batch_size=16), log)
    assert info.value.step == 0 and log == []
    assert threading.active_count() == before            # the step pool ended too
