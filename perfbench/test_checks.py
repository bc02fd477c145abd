"""Each benchmark check passes on a correct value and fails on a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402

POL = ("positive", "neutral", "negative", "conflict", "none")


def softmax_rows(rng, shape):
    x = rng.normal(size=shape)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def flip_lowest_bit(a, index):
    b = np.array(a, dtype=np.float64)
    bits = b.reshape(-1).view(np.uint64)
    bits[index] ^= np.uint64(1)
    return b


def test_gradients_pass_on_central_differences_and_fail_when_perturbed():
    x = np.linspace(-1.0, 1.0, 7)
    f = lambda v: float(np.sum(np.sin(v) * v))   # noqa: E731
    eps = 1e-5
    numeric = []
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += eps
        down[i] -= eps
        numeric.append((f(up) - f(down)) / (2 * eps))
    analytic = np.cos(x) * x + np.sin(x)
    assert checks.check_gradients(analytic, np.array(numeric)) == []
    perturbed = analytic.copy()
    perturbed[2] *= 1.01
    assert len(checks.check_gradients(perturbed, np.array(numeric))) == 1
    assert checks.check_gradients(np.array([]), np.array([]))


def test_prob_rows_fail_on_a_row_that_does_not_sum_to_one():
    p = softmax_rows(np.random.default_rng(0), (4, 5, 5))
    assert checks.check_prob_rows(p) == []
    bad = p.copy()
    bad[2, 1, 0] += 1e-9
    assert checks.check_prob_rows(bad)
    negative = p.copy()
    negative[0, 0, :2] = [-0.1, negative[0, 0, 0] + negative[0, 0, 1] + 0.1]
    assert checks.check_prob_rows(negative)
    nan = p.copy()
    nan[1, 1, 1] = np.nan
    assert checks.check_prob_rows(nan)


def test_masked_cross_entropy_matches_a_loop_and_the_loss_check_can_fail():
    rng = np.random.default_rng(1)
    p = softmax_rows(rng, (6, 3, 4))
    gold = rng.integers(-1, 4, size=(6, 3))
    loop = 0.0
    for i in range(6):
        for j in range(3):
            if gold[i, j] >= 0:
                loop -= math.log(max(p[i, j, gold[i, j]], checks.LOG_FLOOR))
    ce = checks.masked_cross_entropy(p, gold)
    assert math.isclose(ce, loop / 6, rel_tol=1e-12)
    assert checks.check_valid_loss(ce, ce, [ce + 0.5, ce, ce + 0.1]) == []
    assert checks.check_valid_loss(ce * (1 + 1e-6), ce, [ce * (1 + 1e-6)])
    assert checks.check_valid_loss(ce, ce, [ce + 0.5, ce - 0.1])
    assert checks.check_below_fresh(ce, ce + 1.0) == []
    assert checks.check_below_fresh(ce, ce)


def loop_report(p, gold, columns):
    """Pair-by-pair recomputation, written like the report's definitions."""
    none = len(POL) - 1
    tp = fp = fn = 0
    per_cat = []
    scores = []
    for j in columns:
        t = f_ = n = 0
        for i in range(p.shape[0]):
            if gold[i, j] < 0:
                continue
            pred = 1.0 - p[i, j, none] > 0.5
            present = gold[i, j] != none
            scores.append((1.0 - p[i, j, none], present))
            t += pred and present
            f_ += pred and not present
            n += present and not pred
        tp, fp, fn = tp + t, fp + f_, fn + n
        per_cat.append(1.0 if t + f_ + n == 0 else 2 * t / (2 * t + f_ + n))
    precision, recall = tp / (tp + fp), tp / (tp + fn)
    pos = [s for s, g in scores if g]
    neg = [s for s, g in scores if not g]
    auc = sum((a > b) + 0.5 * (a == b) for a in pos for b in neg) / (len(pos) * len(neg))
    return precision, recall, 2 * precision * recall / (precision + recall), \
        float(np.mean(per_cat)), auc


def test_reference_report_matches_a_pairwise_loop():
    rng = np.random.default_rng(2)
    p = softmax_rows(rng, (40, 5, 5))
    gold = rng.integers(0, 5, size=(40, 5))
    gold[rng.random((40, 5)) < 0.2] = -1
    for columns in ([0, 1, 2, 3, 4], [1]):
        ref = checks.reference_report(p, gold, POL, columns)
        precision, recall, micro, macro, auc = loop_report(p, gold, columns)
        ex = ref["extraction"]
        assert ex["precision"] == pytest.approx(precision, abs=1e-15)
        assert ex["recall"] == pytest.approx(recall, abs=1e-15)
        assert ex["micro_f1"] == pytest.approx(micro, abs=1e-15)
        assert ex["macro_f1"] == pytest.approx(macro, abs=1e-15)
        assert ex["auc"] == pytest.approx(auc, abs=1e-15)
    tacsa = checks.reference_report(p[:, :, :3], np.minimum(gold, 2), POL[:2] + ("none",), [0])
    assert tacsa["sentiment"]["three_way_acc"] is None


def test_report_check_fails_on_a_wrong_f1():
    rng = np.random.default_rng(3)
    p = softmax_rows(rng, (30, 5, 5))
    gold = rng.integers(0, 5, size=(30, 5))
    ref = checks.reference_report(p, gold, POL, [0, 1, 2, 3, 4])
    report = {s: dict(v) for s, v in ref.items()}
    assert checks.check_report(report, ref, "all") == []
    report["extraction"]["macro_f1"] += 1e-6
    assert len(checks.check_report(report, ref, "all")) == 1
    report = {s: dict(v) for s, v in ref.items()}
    report["sentiment"]["binary_acc"] = None
    assert len(checks.check_report(report, ref, "all")) == 1


def test_predictions_fail_on_a_flipped_bit():
    p = softmax_rows(np.random.default_rng(4), (64, 5, 5))
    assert checks.check_identical(p, p.copy(), "round trip") == []
    flipped = flip_lowest_bit(p, 17)
    assert checks.check_identical(p, flipped, "round trip")
    assert checks.check_close(p, flipped) == []        # within 1e-12, not identical
    shifted = p.copy()
    shifted[5, 0, 0] += 1e-9
    assert checks.check_close(p, shifted)
    assert checks.check_close(p, p[:10])


def test_split_and_sampling_checks_fail_on_bad_splits():
    src_cats, tgt_cats = ("food", "price"), ("service",)
    orig = [{"food": "none", "price": "positive", "service": "negative"},
            {"food": "negative", "price": "none", "service": "none"}]
    src = [{k: v for k, v in o.items() if k in src_cats} for o in orig]
    tgt = [{k: v for k, v in o.items() if k in tgt_cats} for o in orig]
    assert checks.check_split(orig, src, tgt, src_cats, tgt_cats) == []
    overlap = [dict(t, food="none") for t in tgt]
    assert checks.check_split(orig, src, overlap, src_cats, tgt_cats)
    lost = [dict(src[0]), {"food": "negative"}]
    assert checks.check_split(orig, lost, tgt, src_cats, tgt_cats)
    assert checks.check_split(orig, src[:1], tgt, src_cats, tgt_cats)

    ids = [f"t-{i}" for i in range(10)]
    assert checks.check_sampled(ids[:4], ids, 0.45) == []
    assert checks.check_sampled(ids[:5], ids, 0.45)
    assert checks.check_sampled(["t-1", "t-1", "t-2", "t-3"], ids, 0.45)
    assert checks.check_sampled(["x-1", "t-1", "t-2", "t-3"], ids, 0.45)


def test_roundtrip_check_fails_on_a_changed_record():
    recs = [{"id": "a", "text": "food great", "labels": {"food": "positive"}}]
    assert checks.check_roundtrip(recs, [dict(r) for r in recs]) == []
    assert checks.check_roundtrip(recs, [dict(recs[0], text="food grate")])


def test_step_intervals_skip_warmup_validation_and_stage_boundaries():
    workloads = pytest.importorskip("workloads")
    log = workloads.TimedLog(None, workloads.HostProbe())
    entries = ([{"step": s, "split": "train"} for s in range(1, 6)]
               + [{"step": 5, "split": "validation"}]
               + [{"step": s, "split": "train"} for s in range(6, 8)]
               + [{"step": 7, "split": "validation"}]
               + [{"step": s, "split": "train"} for s in range(1, 6)])
    for e in entries:
        log.append(e)
    steps, valid = workloads.classify_intervals(log)
    assert [log[i]["step"] for i in steps] == [4, 5, 6, 7, 4, 5]
    assert valid == [5, 8]


def test_tracer_charges_backward_time_to_layers_and_restores_the_program():
    pytest.importorskip("catsent")
    import catsent.encoder
    import catsent.training
    from catsent.data import CategorySchema, PolaritySet, Sample, make_dataset
    from catsent.encoder import EncoderConfig, Vocabulary
    from catsent.heads import DecoderMode, HeadKind
    from catsent.numerics import Tape
    from tracing import Tracer

    schema = CategorySchema(("food", "service"))
    pol = PolaritySet(("positive", "negative", "none"))
    ds = make_dataset([Sample("a", "food great", {"food": "positive", "service": "none"}),
                       Sample("b", "service bad here", {"food": "none", "service": "negative"})],
                      schema, pol)
    vocab = Vocabulary.build([s.text for s in ds.samples], schema)
    model = catsent.training.fresh_model(
        schema, pol, vocab, EncoderConfig(layers=1, heads=2, d=8, ff=8, max_len=16, dropout=0.0),
        HeadKind.SEP_SENT_ATT, DecoderMode.UNSHARED, seed=0)
    original = catsent.training.encode_batch
    tracer = Tracer()
    tracer.install()
    try:
        assert catsent.training.encode_batch is not original
        tape = Tape()
        loss = catsent.training.batch_loss(list(ds.samples), model,
                                           catsent.training.TrainConfig(), tape=tape)
        tape.backward(loss, model.params())
        bucket = tracer.close_bucket()
    finally:
        tracer.uninstall()
    assert catsent.training.encode_batch is original
    assert catsent.encoder.encode_batch is original
    assert 0 < bucket["heads.tape_entries"] < bucket["numerics.tape_entries"]
    parts = sum(bucket.get(k, 0.0) for k in ("encoder.backward_ms", "heads.backward_ms",
                                              "training.loss_backward_ms", "other.backward_ms"))
    assert parts == pytest.approx(bucket["numerics.backward_ms"], rel=1e-6)
    assert bucket["encoder.forward_ms"] > 0 and bucket["training.loss_forward_ms"] > 0
