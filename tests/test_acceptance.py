"""End-to-end acceptance gate.

Nine checks: gradient fidelity on the full loss for all head/decoder
combinations, equation-level oracles, splitter invariants, per-head
overfitting capacity, decoder-freezing mechanics, the forgetting
direction-of-effect comparison, mix-vs-incremental target parity,
determinism with checkpoint round trips, and metric edge cases. Each test
prints one summary line."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import catsent.numerics as nx
from catsent.checkpoint import load_model, save_model
from catsent.data import (CategorySchema, PolaritySet, SyntheticSpec,
                          make_synthetic, sample_target, split_incremental)
from catsent.encoder import EncoderConfig, Vocabulary
from catsent.errors import DataError
from catsent.experiments import (EXPERIMENT_STAGE2, EXPERIMENT_STAGE2_FULL,
                                 corpus_vocab, run_incremental_pipeline,
                                 run_mix_pipeline, source_extraction_f1,
                                 synthetic_corpus, target_extraction_f1)
from catsent.heads import (DecoderMode, HeadKind, attend, classify,
                           init_decoder_params)
from catsent.metrics import (Prediction, PredictionSet, SentimentSubset, auc,
                             build_prediction_set, extraction_scores,
                             sentiment_accuracy, strict_accuracy,
                             strict_extraction_accuracy)
from catsent.numerics import NdArray
from catsent.training import (TrainConfig, batch_loss, fresh_model,
                              loss_from_probs, predict, run_incremental,
                              train)

POL = PolaritySet(("positive", "negative", "none"))
SCHEMA = CategorySchema(("food", "service"), ("food",), ("service",))


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------


def test_acceptance_1_gradient_fidelity():
    """Full-loss gradients match finite differences for all six head and
    decoder combinations on a small two-layer model."""
    enc = EncoderConfig(layers=2, heads=2, d=16, ff=8, max_len=12, dropout=0.0)
    spec = SyntheticSpec(SCHEMA, POL, 2, mention_prob=1.0, n_distractors=0)
    ds = make_synthetic(spec, seed=0)
    vocab = Vocabulary.build([s.text for s in ds.samples], SCHEMA)
    cfg = TrainConfig(l2_lambda=0.0)
    t0 = time.time()
    worst = {}
    for kind in HeadKind:
        for mode in DecoderMode:
            model = fresh_model(SCHEMA, POL, vocab, enc, kind, mode, seed=1)
            params = model.params()

            def run():
                tape = nx.Tape()
                loss = batch_loss(ds.samples, model, cfg, tape=tape)
                tape.backward(loss, params)
                return loss.item()

            err = nx.grad_check(
                run, params, eps=1e-4,
                forward=lambda: batch_loss(ds.samples, model, cfg).item())
            worst[(kind.value, mode.value)] = err
            assert err < 1e-3, (kind, mode, err)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"grad checks took {elapsed:.1f}s"
    print(f"\n[acceptance 1] gradient fidelity: max err "
          f"{max(worst.values()):.2e} over 6 combos in {elapsed:.1f}s: PASS")


# ---------------------------------------------------------------------------
# 2. equation oracles
# ---------------------------------------------------------------------------


def test_acceptance_2_equation_oracles():
    """attend, classify, the masked loss, and the metrics all agree with
    independent scalar-loop implementations on 100+ random instances."""
    rng = np.random.default_rng(42)
    d, s = 6, 3

    for _ in range(100):
        q = rng.normal(size=d)
        kv = rng.normal(size=(rng.integers(1, 6), d))
        scores = kv @ q
        e = np.exp(scores - scores.max())
        want = (e / e.sum()) @ kv
        got = attend(NdArray(q), NdArray(kv)).data
        assert np.abs(got - want).max() < 1e-10

    dec = init_decoder_params(DecoderMode.UNSHARED, 3, d, s, rng)
    for _ in range(100):
        h = rng.normal(size=d)
        i = int(rng.integers(3))
        z = dec.W.data[i].T @ h + dec.b.data[i]
        ez = np.exp(z - z.max())
        got = classify(NdArray(h), dec, i).data
        assert np.abs(got - ez / ez.sum()).max() < 1e-10

    model = fresh_model(SCHEMA, POL, Vocabulary.build(["x"], SCHEMA),
                        EncoderConfig(layers=1, heads=2, d=8, ff=8, max_len=16),
                        HeadKind.SEP, DecoderMode.SHARED, 0)
    for _ in range(100):
        B = int(rng.integers(1, 5))
        probs = rng.dirichlet(np.ones(s), size=(B, 2))
        mask = (rng.random((B, 2)) > 0.3).astype(float)
        mask[:, 0] = 1.0
        gold = rng.integers(s, size=(B, 2))
        onehot = np.zeros((B, 2, s))
        for b in range(B):
            for i in range(2):
                onehot[b, i, gold[b, i]] = 1.0
        got = loss_from_probs(NdArray(probs), mask, onehot, model, 0.0, None).item()
        want = -sum(math.log(max(probs[b, i, gold[b, i]], 1e-12))
                    for b in range(B) for i in range(2) if mask[b, i]) / B
        assert abs(got - want) < 1e-10

    cats = ("a", "b")
    for _ in range(100):
        entries = []
        for sid in range(8):
            for c in cats:
                p = rng.dirichlet(np.ones(s))
                entries.append(Prediction(f"s{sid}", c, p,
                                          POL.labels[rng.integers(s)]))
        preds = PredictionSet(POL, cats, tuple(entries))
        tp = {c: 0 for c in cats}
        fp = {c: 0 for c in cats}
        fn = {c: 0 for c in cats}
        for e2 in entries:
            pred = (1 - e2.probs[POL.none_index]) > 0.5
            gold = e2.gold != "none"
            tp[e2.category] += pred and gold
            fp[e2.category] += pred and not gold
            fn[e2.category] += gold and not pred
        TP, FP, FN = sum(tp.values()), sum(fp.values()), sum(fn.values())
        p = TP / (TP + FP) if TP + FP else 0.0
        r = TP / (TP + FN) if TP + FN else 0.0
        micro = 2 * p * r / (p + r) if p + r else 0.0
        f1s = [1.0 if tp[c] + fp[c] + fn[c] == 0
               else 2 * tp[c] / (2 * tp[c] + fp[c] + fn[c]) for c in cats]
        assert extraction_scores(preds) == (p, r, micro, float(np.mean(f1s)))

        pairs = [(float(rng.integers(0, 4)) / 3, bool(rng.integers(2)))
                 for _ in range(12)]
        pos = [x for x, g in pairs if g]
        neg = [x for x, g in pairs if not g]
        want_auc = (sum(1.0 if a > b else 0.5 if a == b else 0.0
                        for a in pos for b in neg) / (len(pos) * len(neg))
                    if pos and neg else None)
        assert auc(pairs) == want_auc
    print("\n[acceptance 2] equation oracles: attend/classify/loss/metrics "
          "x100 instances each: PASS")


# ---------------------------------------------------------------------------
# 3. splitter correctness
# ---------------------------------------------------------------------------


def test_acceptance_3_splitter():
    ds = make_synthetic(SyntheticSpec(SCHEMA, POL, 500), seed=6)
    source, target = split_incremental(ds, SCHEMA)
    for orig, s, t in zip(ds.samples, source.samples, target.samples):
        assert s.text == orig.text and t.text == orig.text
        assert set(s.labels) <= set(SCHEMA.source_categories)
        assert set(t.labels) <= set(SCHEMA.target_categories)
        merged = dict(s.labels)
        merged.update(t.labels)
        assert merged == orig.labels
    for rate in (0.0, 0.25, 0.5, 0.75, 1.0):
        out = sample_target(target, rate, seed=3)
        assert len(out) == math.floor(rate * 500)
        assert out.samples == sample_target(target, rate, seed=3).samples
    print("\n[acceptance 3] splitter invariants on 500 samples and exact "
          "floor(rate*n) sampling: PASS")


# ---------------------------------------------------------------------------
# 4. capacity check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(HeadKind))
def test_acceptance_4_capacity(kind):
    """Each head memorizes a strongly cued 32-sample dataset to 100%
    sentiment accuracy within 50 epochs."""
    ds = make_synthetic(SyntheticSpec(SCHEMA, POL, 32, mention_prob=0.7), seed=8)
    vocab = Vocabulary.build([s.text for s in ds.samples], SCHEMA)
    enc = EncoderConfig(layers=2, heads=4, d=64, ff=256, max_len=48, dropout=0.0)
    cfg = TrainConfig(learning_rate=3e-3, warmup_ratio=0.25, epochs=50,
                      l2_lambda=0.0, batch_size=8, patience=50, seed=0)
    init = fresh_model(SCHEMA, POL, vocab, enc, kind, DecoderMode.UNSHARED, 0)
    t0 = time.time()
    best_acc = 0.0
    model = init
    # train in 10-epoch slices so we can stop at the first perfect epoch
    for sl in range(5):
        model = train(ds, ds, model, replace(cfg, epochs=10))
        probs = predict(model, ds)
        preds = build_prediction_set(ds, probs, "all")
        pol = POL
        hits = total = 0
        for e in preds.labeled():
            total += 1
            hits += pol.labels[int(np.argmax(e.probs))] == e.gold
        best_acc = hits / total
        if best_acc == 1.0:
            break
    elapsed = time.time() - t0
    assert best_acc == 1.0, f"{kind} reached only {best_acc:.3f}"
    assert elapsed < 120.0, f"{kind} took {elapsed:.1f}s"
    print(f"\n[acceptance 4] capacity ({kind.value}): 100% training "
          f"sentiment accuracy in {elapsed:.1f}s: PASS")


# ---------------------------------------------------------------------------
# 5. shared-decoder mechanics
# ---------------------------------------------------------------------------


def test_acceptance_5_decoder_mechanics():
    ds = make_synthetic(SyntheticSpec(SCHEMA, POL, 40), seed=9)
    va = make_synthetic(SyntheticSpec(SCHEMA, POL, 12), seed=10)
    src_tr, tgt_tr = split_incremental(ds, SCHEMA)
    src_va, tgt_va = split_incremental(va, SCHEMA)
    vocab = Vocabulary.build([s.text for s in ds.samples], SCHEMA)
    enc = EncoderConfig(layers=1, heads=2, d=8, ff=16, max_len=32)
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8)

    init = fresh_model(SCHEMA, POL, vocab, enc, HeadKind.SEP,
                       DecoderMode.UNSHARED, 0)
    s1, s2 = run_incremental(src_tr, src_va, tgt_tr, tgt_va, init, cfg, cfg)
    i = SCHEMA.index("food")
    j = SCHEMA.index("service")
    assert np.array_equal(s1.dec.W.data[i], s2.dec.W.data[i])
    assert np.array_equal(s1.dec.b.data[i], s2.dec.b.data[i])
    assert not np.array_equal(s1.dec.W.data[j], s2.dec.W.data[j])

    init = fresh_model(SCHEMA, POL, vocab, enc, HeadKind.SEP,
                       DecoderMode.SHARED, 0)
    s1, s2 = run_incremental(src_tr, src_va, tgt_tr, tgt_va, init, cfg, cfg)
    assert not np.array_equal(s1.dec.W.data[0], s2.dec.W.data[0])
    assert not np.array_equal(s1.dec.b.data[0], s2.dec.b.data[0])
    print("\n[acceptance 5] stage-2 decoder mechanics (frozen per-category "
          "pairs vs updated shared pair): PASS")


# ---------------------------------------------------------------------------
# 6 + 7. forgetting direction and target parity (shared fixture)
# ---------------------------------------------------------------------------

N_SEEDS = 5


@pytest.fixture(scope="module")
def experiment_runs():
    """Per seed: one incremental run per decoder mode with the brief stage-2
    fine-tune (forgetting check), one shared run continued with the
    full-length stage-2 fine-tune, and one mix run (parity check).

    The forgetting comparison uses the brief fine-tune because its question
    is how much source knowledge a short target stage erases; the parity
    comparison uses the full-length fine-tune because its question is the
    ceiling on target quality, with source retention not at issue."""
    forgetting_elapsed = 0.0
    runs = []
    for seed in range(N_SEEDS):
        corpus = synthetic_corpus(count=2000, seed=seed)
        vocab = corpus_vocab(corpus)
        _, tgt_tr = split_incremental(corpus.train, corpus.schema)
        _, tgt_va = split_incremental(corpus.valid, corpus.schema)
        rec = {"seed": seed}
        t0 = time.time()
        stage1 = {}
        for mode in DecoderMode:
            src_model, inc_model = run_incremental_pipeline(
                corpus, HeadKind.SEP_SENT_ATT, mode, 1.0, seed,
                stage2_config=EXPERIMENT_STAGE2, vocab=vocab)
            before = source_extraction_f1(src_model, corpus.test)
            after = source_extraction_f1(inc_model, corpus.test)
            rec[mode.value] = {"before": before, "after": after,
                               "drop": before - after}
            stage1[mode] = src_model
        forgetting_elapsed += time.time() - t0
        full = train(tgt_tr, tgt_va, stage1[DecoderMode.SHARED],
                     replace(EXPERIMENT_STAGE2_FULL, seed=seed + 1))
        rec["incremental_tgt_f1"] = target_extraction_f1(full, corpus.test)
        mix_model = run_mix_pipeline(corpus, HeadKind.SEP_SENT_ATT,
                                     DecoderMode.SHARED, 1.0, seed, vocab=vocab)
        rec["mix_tgt_f1"] = target_extraction_f1(mix_model, corpus.test)
        runs.append(rec)
    runs.append({"elapsed": forgetting_elapsed})
    return runs


def test_acceptance_6_forgetting_direction(experiment_runs):
    """Averaged over seeds, the unshared decoder forgets source categories
    by a clear margin more than the shared decoder does."""
    runs = experiment_runs[:-1]
    elapsed = experiment_runs[-1]["elapsed"]
    shared = float(np.mean([r["shared"]["drop"] for r in runs]))
    unshared = float(np.mean([r["unshared"]["drop"] for r in runs]))
    detail = ", ".join(
        f"s{r['seed']}: {r['unshared']['drop']:.3f}/{r['shared']['drop']:.3f}"
        for r in runs)
    assert unshared > shared + 0.02, (unshared, shared, detail)
    assert shared < 0.05, (shared, detail)
    assert elapsed < 15 * 60, f"experiment took {elapsed:.0f}s"
    print(f"\n[acceptance 6] forgetting direction: mean drop unshared "
          f"{unshared:.3f} > shared {shared:.3f} + 0.02, shared < 0.05 "
          f"({elapsed:.0f}s, per-seed unshared/shared: {detail}): PASS")


def test_acceptance_7_target_parity(experiment_runs):
    """Mix-training and shared incremental learning reach the same target
    extraction F1 on average."""
    runs = experiment_runs[:-1]
    mix = float(np.mean([r["mix_tgt_f1"] for r in runs]))
    inc = float(np.mean([r["incremental_tgt_f1"] for r in runs]))
    gap = abs(mix - inc)
    assert gap < 0.03, (mix, inc)
    print(f"\n[acceptance 7] target parity: |mix {mix:.3f} - incremental "
          f"{inc:.3f}| = {gap:.3f} < 0.03: PASS")


# ---------------------------------------------------------------------------
# 8. determinism and round trip
# ---------------------------------------------------------------------------


def test_acceptance_8_determinism_roundtrip(tmp_path):
    ds = make_synthetic(SyntheticSpec(SCHEMA, POL, 24), seed=11)
    va = make_synthetic(SyntheticSpec(SCHEMA, POL, 8), seed=12)
    vocab = Vocabulary.build([s.text for s in ds.samples], SCHEMA)
    enc = EncoderConfig(layers=1, heads=2, d=16, ff=32, max_len=32)
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8, seed=21)

    models = []
    for run in range(2):
        init = fresh_model(SCHEMA, POL, vocab, enc, HeadKind.CLS_ATT,
                           DecoderMode.SHARED, 5)
        models.append(train(ds, va, init, cfg))
    for (na, pa), (nb, pb) in zip(models[0].param_items(),
                                  models[1].param_items()):
        assert na == nb and np.array_equal(pa.data, pb.data)
    paths = [tmp_path / f"m{k}.npz" for k in range(2)]
    for m, p in zip(models, paths):
        save_model(m, p)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    before = predict(models[0], ds)
    after = predict(load_model(paths[0]), ds)
    assert np.abs(before - after).max() < 1e-12
    print("\n[acceptance 8] determinism (bit-identical checkpoints) and "
          "save/load/predict round trip < 1e-12: PASS")


# ---------------------------------------------------------------------------
# 9. metric edge cases
# ---------------------------------------------------------------------------


def test_acceptance_9_metric_edge_cases():
    assert auc([(0.3, True), (0.3, False), (0.3, True), (0.3, False)]) == 0.5

    pol5 = PolaritySet.acsa()
    rng = np.random.default_rng(14)
    entries = []
    for sid in range(40):
        p = rng.dirichlet(np.ones(5))
        p[pol5.index("conflict")] = 0.0
        p /= p.sum()
        entries.append(Prediction(f"s{sid}", "food", p,
                                  ("positive", "neutral", "negative")[rng.integers(3)]))
    preds = PredictionSet(pol5, ("food",), tuple(entries))
    assert (sentiment_accuracy(preds, SentimentSubset.FOUR_WAY)
            == sentiment_accuracy(preds, SentimentSubset.THREE_WAY))

    hot = {lab: np.eye(3)[POL.index(lab)] for lab in POL.labels}
    fixture = (
        Prediction("a", "food", hot["positive"], "positive"),
        Prediction("a", "service", hot["none"], "none"),
        Prediction("b", "food", hot["negative"], "positive"),
        Prediction("b", "service", hot["none"], "none"),
    )
    preds = PredictionSet(POL, ("food", "service"), fixture)
    assert strict_accuracy(preds) == 0.5
    partial = PredictionSet(POL, ("food", "service"), fixture[:3] + (
        Prediction("b", "service", hot["none"], None),))
    with pytest.raises(DataError):
        strict_accuracy(partial)
    with pytest.raises(DataError):
        strict_extraction_accuracy(partial)
    print("\n[acceptance 9] metric edge cases (tied AUC, 4-way==3-way, "
          "all-or-nothing strict accuracy): PASS")
