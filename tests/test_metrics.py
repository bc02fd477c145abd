"""Metric oracles: every score is recomputed with brute-force loops over
randomly generated prediction sets and must match exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catsent.data import (CategorySchema, PolaritySet, Sample, make_dataset)
from catsent.errors import ConfigurationError, DataError
from catsent.metrics import (MetricsReport, Prediction, PredictionSet,
                             SentimentSubset, auc, build_prediction_set,
                             compute_report, extraction_auc,
                             extraction_scores,
                             sentiment_accuracy, sentiment_auc,
                             strict_accuracy, strict_extraction_accuracy)

POL5 = PolaritySet(("positive", "neutral", "negative", "conflict", "none"))
POL3 = PolaritySet(("positive", "negative", "none"))
CATS = ("food", "service", "price")


def random_prediction_set(rng, polarities=POL5, n_samples=20,
                          labeled_prob=1.0):
    entries = []
    for s in range(n_samples):
        for cat in CATS:
            probs = rng.dirichlet(np.ones(polarities.size))
            gold = (polarities.labels[rng.integers(polarities.size)]
                    if rng.random() < labeled_prob else None)
            entries.append(Prediction(f"s{s}", cat, probs, gold))
    return PredictionSet(polarities, CATS, tuple(entries))


def brute_extraction(entries, cats, threshold=0.5):
    tp = {c: 0 for c in cats}
    fp = {c: 0 for c in cats}
    fn = {c: 0 for c in cats}
    for e in entries:
        if e.gold is None:
            continue
        pred = (1 - e.probs[-1]) > threshold       # "none" is the last polarity
        gold = e.gold != "none"
        tp[e.category] += pred and gold
        fp[e.category] += pred and not gold
        fn[e.category] += gold and not pred
    TP, FP, FN = sum(tp.values()), sum(fp.values()), sum(fn.values())
    p = TP / (TP + FP) if TP + FP else 0.0
    r = TP / (TP + FN) if TP + FN else 0.0
    micro = 2 * p * r / (p + r) if p + r else 0.0
    f1s = []
    for c in cats:
        denom = 2 * tp[c] + fp[c] + fn[c]
        f1s.append(1.0 if tp[c] + fp[c] + fn[c] == 0 else 2 * tp[c] / denom)
    return p, r, micro, float(np.mean(f1s))


def brute_auc(pairs):
    pos = [s for s, g in pairs if g]
    neg = [s for s, g in pairs if not g]
    if not pos or not neg:
        return None
    total = sum(1.0 if p > q else 0.5 if p == q else 0.0
                for p in pos for q in neg)
    return total / (len(pos) * len(neg))


def test_extraction_scores_oracle():
    rng = np.random.default_rng(0)
    for k in range(100):
        preds = random_prediction_set(rng, labeled_prob=0.8 if k % 2 else 1.0)
        assert extraction_scores(preds) == brute_extraction(preds.entries, CATS)


def test_extraction_threshold_respected():
    rng = np.random.default_rng(1)
    preds = random_prediction_set(rng)
    for th in (0.2, 0.5, 0.9):
        assert extraction_scores(preds, th) == brute_extraction(preds.entries, CATS, th)


def test_extraction_empty_raises():
    empty = PredictionSet(POL5, CATS, ())
    with pytest.raises(DataError):
        extraction_scores(empty)


def test_degenerate_category_f1_is_one():
    entries = tuple(Prediction(f"s{i}", "food",
                               np.array([0.0, 0, 0, 0, 1.0]), "none")
                    for i in range(4))
    preds = PredictionSet(POL5, ("food",), entries)
    _, _, micro, macro = extraction_scores(preds)
    assert macro == 1.0 and micro == 0.0


def test_sentiment_accuracy_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        preds = random_prediction_set(rng)
        for subset in SentimentSubset:
            classes = subset.value
            idx = [POL5.index(c) for c in classes]
            want_n = want_c = 0
            for e in preds.labeled():
                if e.gold in classes:
                    want_n += 1
                    want_c += classes[int(np.argmax(e.probs[idx]))] == e.gold
            want = want_c / want_n if want_n else None
            assert sentiment_accuracy(preds, subset) == want


def test_sentiment_accuracy_none_when_subset_missing():
    rng = np.random.default_rng(3)
    preds = random_prediction_set(rng, polarities=POL3)
    assert sentiment_accuracy(preds, SentimentSubset.THREE_WAY) is None
    assert sentiment_accuracy(preds, SentimentSubset.FOUR_WAY) is None
    assert sentiment_accuracy(preds, SentimentSubset.BINARY) is not None


def test_four_way_equals_three_way_without_conflict():
    """On conflict-free gold, restricting argmax to four classes can only
    differ through the conflict column; zero it and they agree exactly."""
    rng = np.random.default_rng(4)
    entries = []
    for s in range(30):
        probs = rng.dirichlet(np.ones(5))
        probs[POL5.index("conflict")] = 0.0
        probs /= probs.sum()
        gold = ("positive", "neutral", "negative")[rng.integers(3)]
        entries.append(Prediction(f"s{s}", "food", probs, gold))
    preds = PredictionSet(POL5, ("food",), tuple(entries))
    assert (sentiment_accuracy(preds, SentimentSubset.FOUR_WAY)
            == sentiment_accuracy(preds, SentimentSubset.THREE_WAY))


def test_strict_accuracy_all_or_nothing():
    # sample a: both categories right; sample b: one wrong -> 0.5
    hot = {lab: np.eye(3)[POL3.index(lab)] for lab in POL3.labels}
    entries = (
        Prediction("a", "food", hot["positive"], "positive"),
        Prediction("a", "service", hot["none"], "none"),
        Prediction("b", "food", hot["negative"], "positive"),
        Prediction("b", "service", hot["none"], "none"),
    )
    preds = PredictionSet(POL3, ("food", "service"), entries)
    assert strict_accuracy(preds) == 0.5
    # wrong polarity but right presence: extraction-strict still passes b
    assert strict_extraction_accuracy(preds) == 1.0
    entries_miss = entries[:2] + (
        Prediction("b", "food", hot["none"], "positive"),
        Prediction("b", "service", hot["none"], "none"),
    )
    preds_miss = PredictionSet(POL3, ("food", "service"), entries_miss)
    assert strict_extraction_accuracy(preds_miss) == 0.5


def test_strict_accuracy_rejects_partial_labels():
    entries = (
        Prediction("a", "food", np.eye(3)[0], "positive"),
        Prediction("a", "service", np.eye(3)[2], None),
    )
    preds = PredictionSet(POL3, ("food", "service"), entries)
    with pytest.raises(DataError):
        strict_accuracy(preds)
    with pytest.raises(DataError):
        strict_extraction_accuracy(preds)


def test_strict_accuracy_rejects_a_sample_missing_a_category():
    entries = (
        Prediction("a", "food", np.eye(3)[0], "positive"),
        Prediction("b", "food", np.eye(3)[0], "positive"),
        Prediction("b", "service", np.eye(3)[2], "none"),
    )
    preds = PredictionSet(POL3, ("food", "service"), entries)
    with pytest.raises(DataError):
        strict_accuracy(preds)
    # the presence decision needs only gold on the pairs there are
    assert strict_extraction_accuracy(preds) == 1.0


def test_auc_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        scores = [(float(rng.integers(0, 5)) / 4, bool(rng.integers(2)))
                  for _ in range(n)]
        assert auc(scores) == brute_auc(scores)


def test_auc_all_ties_is_half():
    scores = [(0.5, True), (0.5, False), (0.5, True), (0.5, False)]
    assert auc(scores) == 0.5


def test_auc_single_class_is_none():
    assert auc([(0.3, True), (0.7, True)]) is None
    assert auc([]) is None


def test_auc_perfect_separation():
    assert auc([(0.9, True), (0.8, True), (0.2, False)]) == 1.0
    assert auc([(0.1, True), (0.9, False)]) == 0.0


def test_extraction_and_sentiment_auc_oracles():
    rng = np.random.default_rng(6)
    for _ in range(100):
        preds = random_prediction_set(rng, n_samples=10)
        want = brute_auc([(1 - e.probs[POL5.none_index], e.gold != "none")
                          for e in preds.labeled()])
        assert extraction_auc(preds) == want
        per_cat = []
        ip, ineg = POL5.index("positive"), POL5.index("negative")
        for cat in CATS:
            pairs = []
            for e in preds.labeled():
                if e.category != cat or e.gold not in ("positive", "negative"):
                    continue
                denom = e.probs[ip] + e.probs[ineg]
                pairs.append((float(e.probs[ip] / denom) if denom > 0 else 0.5,
                              e.gold == "positive"))
            a = brute_auc(pairs)
            if a is not None:
                per_cat.append(a)
        want = float(np.mean(per_cat)) if per_cat else None
        assert sentiment_auc(preds) == want


def test_build_prediction_set_groups():
    schema = CategorySchema(("food", "service"), ("food",), ("service",))
    ds = make_dataset([Sample("a", "x", {"food": "positive"})], schema, POL3)
    probs = np.full((1, 2, 3), 1 / 3)
    full = build_prediction_set(ds, probs, "all")
    assert {e.category for e in full.entries} == {"food", "service"}
    src = build_prediction_set(ds, probs, "source")
    assert [e.category for e in src.entries] == ["food"]
    assert src.entries[0].gold == "positive"
    tgt = build_prediction_set(ds, probs, "target")
    assert tgt.entries[0].gold is None
    with pytest.raises(DataError):
        build_prediction_set(ds, probs, "bogus")
    plain = make_dataset([Sample("a", "x", {"food": "none"})],
                         CategorySchema(("food",)), POL3)
    with pytest.raises(DataError):
        build_prediction_set(plain, probs, "source")


def test_compute_report_absent_metrics_are_none():
    schema = CategorySchema(("food",))
    ds = make_dataset([Sample("a", "x", {"food": "positive"}),
                       Sample("b", "y", {"food": "positive"})], schema, POL3)
    probs = np.tile(np.array([0.8, 0.1, 0.1]), (2, 1, 1))
    report = compute_report(ds, probs)
    # single-class gold: no AUC; all-positive gold: no extraction negatives
    assert report.extraction["auc"] is None
    assert report.sentiment["auc"] is None
    assert report.sentiment["three_way_acc"] is None
    assert report.sentiment["binary_acc"] == 1.0
    assert report.extraction["recall"] == 1.0


def test_report_serialization_and_render():
    report = MetricsReport("all", {"micro_f1": 0.5, "auc": None},
                           {"binary_acc": 1.0})
    d = report.to_dict()
    assert d["group"] == "all" and d["extraction"]["auc"] is None
    text = report.render()
    assert "absent" in text and "0.5000" in text
    assert "micro_f1" in text


def test_entries_round_trip_the_hand_built_pairs():
    rows = np.eye(3)
    given_entries = (Prediction("b", "price", rows[0], None),
                     Prediction("a", "food", rows[1], "positive"),
                     Prediction("b", "food", rows[2], "none"))
    preds = PredictionSet(POL3, CATS, given_entries)
    assert [(e.sample_id, e.category, e.gold, e.probs.tolist()) for e in preds.entries] \
        == [(e.sample_id, e.category, e.gold, e.probs.tolist()) for e in given_entries]
    assert [e.sample_id for e in preds.labeled()] == ["a", "b"]
    for bad in (Prediction("a", "drinks", rows[0], "positive"),
                Prediction("a", "food", rows[0], "neutral")):
        with pytest.raises(DataError):
            PredictionSet(POL3, CATS, (bad,))


@pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5, float("inf")])
def test_compute_report_rejects_a_bad_threshold(threshold):
    ds = make_dataset([Sample("a", "x", {"food": "positive"})],
                      CategorySchema(("food",)), POL3)
    probs = np.full((1, 1, 3), 1 / 3)
    with pytest.raises(ConfigurationError):
        compute_report(ds, probs, "all", threshold)
    for edge in (0.0, 1.0):
        assert compute_report(ds, probs, "all", edge).extraction["recall"] == float(edge == 0.0)


# ---------------------------------------------------------------------------
# the array path against loops over the same pairs
# ---------------------------------------------------------------------------

SUBSETS = (("binary_acc", SentimentSubset.BINARY),
           ("three_way_acc", SentimentSubset.THREE_WAY),
           ("four_way_acc", SentimentSubset.FOUR_WAY))


def brute_report(entries, cats, pol, threshold):
    """Every ``compute_report`` number, by loops over ``Prediction``s."""
    precision, recall, micro, macro = brute_extraction(entries, cats, threshold)
    labeled = [e for e in entries if e.gold is not None]
    by_sample = {}
    for e in entries:
        by_sample.setdefault(e.sample_id, []).append(e)

    def strict(ok):
        if any(len(es) != len(cats) or any(e.gold is None for e in es)
               for es in by_sample.values()):
            return None
        return sum(all(ok(e) for e in es) for es in by_sample.values()) / len(by_sample)

    extraction = {
        "precision": precision, "recall": recall, "micro_f1": micro, "macro_f1": macro,
        "strict_accuracy": strict(lambda e: ((1 - e.probs[-1]) > threshold) == (e.gold != "none")),
        "auc": brute_auc([(1 - e.probs[-1], e.gold != "none") for e in labeled])}
    sentiment = {}
    for name, subset in SUBSETS:
        classes = subset.value
        if any(c not in pol.labels for c in classes):
            sentiment[name] = None
            continue
        idx = [pol.index(c) for c in classes]
        hits = [classes[int(np.argmax(e.probs[idx]))] == e.gold
                for e in labeled if e.gold in classes]
        sentiment[name] = sum(hits) / len(hits) if hits else None
    sentiment["strict_accuracy"] = strict(lambda e: pol.labels[int(np.argmax(e.probs))] == e.gold)
    ip, ineg = pol.index("positive"), pol.index("negative")
    per_cat = []
    for cat in cats:
        pairs = []
        for e in labeled:
            if e.category == cat and e.gold in ("positive", "negative"):
                denom = e.probs[ip] + e.probs[ineg]
                pairs.append((float(e.probs[ip] / denom) if denom > 0 else 0.5,
                              e.gold == "positive"))
        if (a := brute_auc(pairs)) is not None:
            per_cat.append(a)
    sentiment["auc"] = float(np.mean(per_cat)) if per_cat else None
    return {"extraction": extraction, "sentiment": sentiment}


def report_of(preds, threshold):
    """The ``compute_report`` numbers from any ``PredictionSet``."""
    def maybe(fn, *args):
        try:
            return fn(preds, *args)
        except DataError:
            return None

    scores = maybe(extraction_scores, threshold) or (None,) * 4
    return {"extraction": dict(zip(("precision", "recall", "micro_f1", "macro_f1"), scores),
                               strict_accuracy=maybe(strict_extraction_accuracy, threshold),
                               auc=extraction_auc(preds)),
            "sentiment": {**{name: sentiment_accuracy(preds, subset) for name, subset in SUBSETS},
                          "strict_accuracy": maybe(strict_accuracy),
                          "auc": sentiment_auc(preds)}}


def random_dataset(rng, schema, pol, n, unlabeled, decimals=1):
    samples = [Sample(f"s{i}", "x", {c: pol.labels[rng.integers(pol.size)]
                                     for c in schema.categories if rng.random() >= unlabeled})
               for i in range(n)]
    # one decimal: many equal scores, so every AUC has ties
    probs = np.round(rng.dirichlet(np.ones(pol.size), size=(n, schema.n_cat)), decimals)
    return make_dataset(samples, schema, pol), probs


@pytest.mark.parametrize("unlabeled", [0.0, 0.2])
@pytest.mark.parametrize("pol", [PolaritySet.acsa(), PolaritySet.tacsa()], ids=["acsa", "tacsa"])
def test_report_on_a_dataset_equals_the_loop_oracles(pol, unlabeled):
    rng = np.random.default_rng(pol.size * 10 + int(unlabeled * 10))
    cats = ("c0", "c1", "c2", "c3", "c4")
    schema = CategorySchema(cats, cats[:3], cats[3:])
    groups = {"all": cats, "source": cats[:3], "target": cats[3:]}
    for _ in range(4):
        ds, probs = random_dataset(rng, schema, pol, 40, unlabeled)
        for group, group_cats in groups.items():
            entries = [Prediction(s.id, c, probs[i, schema.index(c)], s.labels.get(c))
                       for i, s in enumerate(ds.samples) for c in group_cats]
            hand = PredictionSet(pol, group_cats, entries)
            built = build_prediction_set(ds, probs, group)
            for threshold in (0.2, 0.5, 0.9):
                want = brute_report(entries, group_cats, pol, threshold)
                got = compute_report(ds, probs, group, threshold).to_dict()
                assert {k: got[k] for k in want} == want
                assert report_of(hand, threshold) == report_of(built, threshold) == want
                assert (want["extraction"]["strict_accuracy"] is None) == (unlabeled > 0)


# ---------------------------------------------------------------------------
# properties over random sets
# ---------------------------------------------------------------------------

SCORES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


@st.composite
def pair_grids(draw):
    """(polarities, categories, probs [n, n_cat, s], gold [n][n_cat] or None)."""
    pol = draw(st.sampled_from([POL5, POL3]))
    cats = CATS[:draw(st.integers(1, 3))]
    n = draw(st.integers(1, 8))
    probs = np.array(draw(st.lists(SCORES, min_size=n * len(cats) * pol.size,
                                   max_size=n * len(cats) * pol.size)))
    golds = pol.labels + ((None,) if draw(st.booleans()) else ())
    gold = [[draw(st.sampled_from(golds)) for _ in cats] for _ in range(n)]
    return pol, cats, probs.reshape(n, len(cats), pol.size), gold


@settings(max_examples=80, deadline=None)
@given(pair_grids(), st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]))
def test_report_values_are_none_or_in_the_unit_interval(grid, threshold):
    pol, cats, probs, gold = grid
    samples = [Sample(f"s{i}", "x", {c: g for c, g in zip(cats, row) if g is not None})
               for i, row in enumerate(gold)]
    ds = make_dataset(samples, CategorySchema(cats), pol)
    if not any(s.labels for s in samples):
        with pytest.raises(DataError):
            compute_report(ds, probs, "all", threshold)
        return
    report = compute_report(ds, probs, "all", threshold)
    for v in [*report.extraction.values(), *report.sentiment.values()]:
        assert v is None or (type(v) is float and 0.0 <= v <= 1.0), report


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(SCORES, st.booleans()), max_size=30))
def test_auc_equals_the_pairwise_count(pairs):
    assert auc(pairs) == brute_auc(pairs)


@settings(max_examples=80, deadline=None)
@given(pair_grids(), st.randoms(use_true_random=False), st.sampled_from([0.2, 0.5, 0.9]))
def test_permuting_the_pairs_changes_no_number(grid, rnd, threshold):
    pol, cats, probs, gold = grid
    entries = [Prediction(f"s{i}", c, probs[i, j], gold[i][j])
               for i in range(len(gold)) for j, c in enumerate(cats)]
    shuffled = list(entries)
    rnd.shuffle(shuffled)
    assert (report_of(PredictionSet(pol, cats, shuffled), threshold)
            == report_of(PredictionSet(pol, cats, entries), threshold))
