"""Evaluation suite: category extraction scored via 1 - p(none), sentiment
accuracy over label subsets, strict per-sample accuracy, and rank-based AUC.

Metrics that are undefined for a dataset (no eligible pairs, single-class
gold, subset labels missing from the polarity set) are reported as None,
never as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset, PolaritySet
from .errors import ConfigurationError, DataError

BINARY = ("positive", "negative")
THREE_WAY = ("positive", "neutral", "negative")
FOUR_WAY = ("positive", "neutral", "negative", "conflict")


class SentimentSubset(Enum):
    BINARY = BINARY
    THREE_WAY = THREE_WAY
    FOUR_WAY = FOUR_WAY


@dataclass(frozen=True)
class Prediction:
    """One (sample, category) pair: probability row plus gold where known."""

    sample_id: str
    category: str
    probs: np.ndarray            # [s]
    gold: str | None


class PredictionSet:
    """(sample, category) pairs held as flat arrays, one row per pair:
    ``probs`` [M, s]; ``gold`` [M] polarity index, -1 where unlabeled;
    ``cat`` [M] index into ``categories``; ``sample`` [M] index into
    ``sample_ids``. Built from hand-made ``entries``, or from ``arrays``
    (probs, gold, cat, sample, sample_ids) by ``build_prediction_set``."""

    def __init__(self, polarities: PolaritySet, categories, entries=(), *, arrays=None):
        self.polarities, self.categories = polarities, tuple(categories)
        if arrays is None:
            entries = tuple(entries)
            try:
                gold = [-1 if e.gold is None else polarities.index(e.gold) for e in entries]
                cat = [self.categories.index(e.category) for e in entries]
            except ValueError as exc:
                raise DataError(f"prediction outside the set's labels: {exc}") from None
            ids: dict[str, int] = {}
            sample = [ids.setdefault(e.sample_id, len(ids)) for e in entries]
            probs = np.array([e.probs for e in entries], dtype=np.float64)
            arrays = (probs.reshape(len(gold), polarities.size), np.array(gold, dtype=np.intp),
                      np.array(cat, dtype=np.intp), np.array(sample, dtype=np.intp), tuple(ids))
        self.probs, self.gold, self.cat, self.sample, self.sample_ids = arrays

    @property
    def entries(self) -> tuple[Prediction, ...]:
        labels = self.polarities.labels
        return tuple(Prediction(self.sample_ids[s], self.categories[c], row,
                                None if g < 0 else labels[g])
                     for s, c, row, g in zip(self.sample.tolist(), self.cat.tolist(),
                                             self.probs, self.gold.tolist()))

    def labeled(self) -> list[Prediction]:
        return [e for e in self.entries if e.gold is not None]

    def present_score(self) -> np.ndarray:
        """[M] extraction score 1 - p(none)."""
        return 1.0 - self.probs[:, self.polarities.none_index]


def build_prediction_set(dataset: Dataset, probs: np.ndarray,
                         group: str = "all") -> PredictionSet:
    """Pair model probabilities with gold labels, restricted to a category
    group (all | source | target)."""
    schema = dataset.schema
    if group == "all":
        cats = schema.categories
    elif group == "source":
        cats = schema.source_categories
    elif group == "target":
        cats = schema.target_categories
    else:
        raise DataError(f"unknown category group {group!r}")
    if not cats:
        raise DataError(f"category group {group!r} is empty")
    probs = np.asarray(probs, dtype=np.float64)
    n, k, s = len(dataset), len(cats), dataset.polarities.size
    if probs.shape != (n, schema.n_cat, s):
        raise DataError(f"probabilities {probs.shape} do not match "
                        f"the dataset {(n, schema.n_cat, s)}")
    cols = [schema.index(c) for c in cats]
    return PredictionSet(dataset.polarities, cats, arrays=(
        probs[:, cols, :].reshape(n * k, s), dataset.gold_index[:, cols].reshape(n * k),
        np.tile(np.arange(k), n), np.repeat(np.arange(n), k),
        tuple(sample.id for sample in dataset.samples)))


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def extraction_scores(preds: PredictionSet, threshold: float = 0.5
                      ) -> tuple[float, float, float, float]:
    """(precision, recall, micro_f1, macro_f1) over labeled pairs.

    Predicted present iff 1 - p(none) > threshold. Macro-F1 gives a
    category with no gold positives and no predicted positives F1 = 1.
    """
    labeled = preds.gold >= 0
    if not labeled.any():
        raise DataError("extraction_scores on an empty prediction set")
    pred = preds.present_score()[labeled] > threshold
    gold = preds.gold[labeled] != preds.polarities.none_index
    cat, k = preds.cat[labeled], len(preds.categories)
    tp_c, fp_c, fn_c = (np.bincount(cat[hit], minlength=k)
                        for hit in (pred & gold, pred & ~gold, gold & ~pred))
    tp, fp, fn = int(tp_c.sum()), int(fp_c.sum()), int(fn_c.sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    micro = (2 * precision * recall / (precision + recall)
             if precision + recall else 0.0)
    denom = 2 * tp_c + fp_c + fn_c
    # degenerate category convention: nothing to find, nothing found -> 1
    cat_f1 = np.where(denom > 0, 2 * tp_c / np.maximum(denom, 1), 1.0)
    return precision, recall, micro, float(np.mean(cat_f1))


# ---------------------------------------------------------------------------
# sentiment
# ---------------------------------------------------------------------------


def sentiment_accuracy(preds: PredictionSet, subset: SentimentSubset) -> float | None:
    """Accuracy over pairs whose gold is in the subset; argmax restricted to
    the subset's classes. None when the subset does not apply."""
    pol = preds.polarities
    if any(c not in pol.labels for c in subset.value):
        return None
    idx = np.array([pol.index(c) for c in subset.value])
    rows = np.isin(preds.gold, idx)
    if not rows.any():
        return None
    pred = idx[np.argmax(preds.probs[rows][:, idx], axis=1)]
    return int(np.count_nonzero(pred == preds.gold[rows])) / int(np.count_nonzero(rows))


def _strict(preds: PredictionSet, wrong: np.ndarray, complete: bool, what: str) -> float:
    """Fraction of samples with no ``wrong`` pair. Every pair needs gold and,
    when ``complete``, every sample one pair per category."""
    n = len(preds.sample_ids)
    if n == 0:
        raise DataError(f"{what} on an empty prediction set")
    bad = np.bincount(preds.sample[preds.gold < 0], minlength=n) > 0
    if complete:
        bad |= np.bincount(preds.sample, minlength=n) != len(preds.categories)
    if bad.any():
        raise DataError(f"sample {preds.sample_ids[int(np.argmax(bad))]!r}: strict "
                        "accuracy needs gold for every scored category")
    failures = np.bincount(preds.sample[wrong], minlength=n)
    return int(np.count_nonzero(failures == 0)) / n


def strict_accuracy(preds: PredictionSet) -> float:
    """Fraction of samples with the full-argmax prediction correct for
    every scored category. Errors on partial labels."""
    wrong = np.argmax(preds.probs, axis=1) != preds.gold
    return _strict(preds, wrong, True, "strict_accuracy")


def strict_extraction_accuracy(preds: PredictionSet, threshold: float = 0.5) -> float:
    """All-or-nothing per sample on the presence decision alone."""
    wrong = ((preds.present_score() > threshold)
             != (preds.gold != preds.polarities.none_index))
    return _strict(preds, wrong, False, "strict_extraction_accuracy")


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


def _auc(score: np.ndarray, positive: np.ndarray) -> float | None:
    pos, neg = np.sort(score[positive]), np.sort(score[~positive])
    if not pos.size or not neg.size:
        return None
    # each pos counts the negs below it plus half its ties, summed exactly as
    # integers: lo + (hi - lo) / 2 = (lo + hi) / 2. Sorted queries are faster.
    lo, hi = np.searchsorted(neg, pos, "left"), np.searchsorted(neg, pos, "right")
    return int((lo + hi).sum()) / 2 / (pos.size * neg.size)


def auc(scores: list[tuple[float, bool]]) -> float | None:
    """ROC AUC via the rank statistic; ties contribute 1/2. None when the
    gold has a single class."""
    pairs = np.array(scores, dtype=np.float64).reshape(-1, 2)
    return _auc(pairs[:, 0], pairs[:, 1] != 0)


def extraction_auc(preds: PredictionSet) -> float | None:
    labeled = preds.gold >= 0
    return _auc(preds.present_score()[labeled],
                preds.gold[labeled] != preds.polarities.none_index)


def sentiment_auc(preds: PredictionSet) -> float | None:
    """Pairwise-renormalized positive score, per category, macro-averaged."""
    pol = preds.polarities
    ip, ineg = pol.index("positive"), pol.index("negative")
    rows = (preds.gold == ip) | (preds.gold == ineg)
    p_pos = preds.probs[rows, ip]
    denom = p_pos + preds.probs[rows, ineg]
    score = np.divide(p_pos, denom, out=np.full(denom.shape, 0.5), where=denom > 0)
    positive, cat = preds.gold[rows] == ip, preds.cat[rows]
    per_cat = [a for c in range(len(preds.categories))
               if (a := _auc(score[cat == c], positive[cat == c])) is not None]
    return float(np.mean(per_cat)) if per_cat else None


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class MetricsReport:
    """All evaluation numbers for one (dataset, model) pair and one group."""

    group: str
    extraction: dict[str, float | None]
    sentiment: dict[str, float | None]

    def to_dict(self) -> dict:
        return {"version": 1, "group": self.group,
                "extraction": self.extraction, "sentiment": self.sentiment}

    def render(self) -> str:
        lines = [f"group: {self.group}",
                 f"{'metric':<28}{'value':>10}"]
        for section, values in (("extra.", self.extraction), ("senti.", self.sentiment)):
            for name, v in values.items():
                shown = "absent" if v is None else f"{v:.4f}"
                lines.append(f"{section + ' ' + name:<28}{shown:>10}")
        return "\n".join(lines)


def check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:          # also rejects NaN
        raise ConfigurationError(f"threshold {threshold} outside [0, 1]")


def compute_report(dataset: Dataset, probs: np.ndarray, group: str = "all",
                   threshold: float = 0.5) -> MetricsReport:
    check_threshold(threshold)
    preds = build_prediction_set(dataset, probs, group)
    precision, recall, micro, macro = extraction_scores(preds, threshold)

    def maybe_strict(fn, *args):
        try:
            return fn(preds, *args)
        except DataError:
            return None

    extraction = {
        "precision": precision,
        "recall": recall,
        "micro_f1": micro,
        "macro_f1": macro,
        "strict_accuracy": maybe_strict(strict_extraction_accuracy, threshold),
        "auc": extraction_auc(preds),
    }
    sentiment = {
        "binary_acc": sentiment_accuracy(preds, SentimentSubset.BINARY),
        "three_way_acc": sentiment_accuracy(preds, SentimentSubset.THREE_WAY),
        "four_way_acc": sentiment_accuracy(preds, SentimentSubset.FOUR_WAY),
        "strict_accuracy": maybe_strict(strict_accuracy),
        "auc": sentiment_auc(preds),
    }
    return MetricsReport(group, extraction, sentiment)
