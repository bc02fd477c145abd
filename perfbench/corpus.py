"""Seeded synthetic corpora for the benchmark workloads.

Each sentence holds one cue phrase ("<category name> <sentiment word>") per
mentioned category, shuffled among filler words inside the first
``cue_zone`` tokens, then more filler up to a length drawn uniformly from
``length``; no sentence is longer than its upper end, so nearly every batch
reaches it. Truncation at ``max_len`` cuts filler, never a cue. Gold labels
follow the cues; every category of the schema is labeled ("none" when not
mentioned).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

# the tokenizer rule the README documents: lowercase words, hyphens kept
TOKEN_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")

CUES = {
    "positive": ("great", "wonderful", "excellent", "lovely"),
    "neutral": ("okay", "average", "fine"),
    "negative": ("terrible", "awful", "bad", "poor"),
    "conflict": ("mixed", "divisive"),
}

FILLER = tuple("""
the a an we they our their this that it was were is are quite very rather
busy crowded quiet overall honestly today yesterday evening night weekend
visited went came back again friends family table corner window street
town city area nearby after before during while then also just really
place spot room floor door music light sound view morning lunch dinner
""".split())


@dataclass(frozen=True)
class CorpusSpec:
    """Sizes and sentence shape of one workload's corpus."""

    categories: tuple[str, ...]
    source: tuple[str, ...]
    target: tuple[str, ...]
    polarities: tuple[str, ...]          # "none" last
    n_train: int
    n_valid: int
    n_test: int
    length: tuple[int, int]              # inclusive range of sentence tokens
    mention_prob: float
    cue_zone: int


def n_tokens(text: str) -> int:
    return len(TOKEN_RE.findall(text.lower()))


def make_records(spec: CorpusSpec, n: int, prefix: str,
                 rng: np.random.Generator) -> list[dict]:
    """``n`` JSON-ready records with ids ``<prefix>-<i>``."""
    sentiments = [p for p in spec.polarities if p != "none"]
    records = []
    for i in range(n):
        labels, phrases, used = {}, [], 0
        for cat in spec.categories:
            labels[cat] = "none"
            if rng.random() < spec.mention_prob:
                pol = sentiments[int(rng.integers(len(sentiments)))]
                cues = CUES[pol]
                phrase = f"{cat} {cues[int(rng.integers(len(cues)))]}"
                if used + n_tokens(phrase) <= spec.length[1]:
                    phrases.append(phrase)
                    labels[cat] = pol
                    used += n_tokens(phrase)
        length = int(rng.integers(spec.length[0], spec.length[1] + 1))
        zone = max(min(spec.cue_zone, length), used)
        pieces = phrases + [FILLER[j] for j in rng.integers(len(FILLER), size=zone - used)]
        words = [pieces[j] for j in rng.permutation(len(pieces))]
        words += [FILLER[j] for j in rng.integers(len(FILLER), size=max(length - zone, 0))]
        records.append({"id": f"{prefix}-{i}", "text": " ".join(words), "labels": labels})
    return records


def make_corpus(spec: CorpusSpec, seed: int) -> dict[str, list[dict]]:
    rng = np.random.default_rng(seed)
    return {"train": make_records(spec, spec.n_train, "tr", rng),
            "valid": make_records(spec, spec.n_valid, "va", rng),
            "test": make_records(spec, spec.n_test, "te", rng)}


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def gold_matrix(samples, categories, polarities) -> np.ndarray:
    """Polarity index per (sample, category); -1 where unlabeled."""
    gold = np.full((len(samples), len(categories)), -1, dtype=np.int64)
    for i, s in enumerate(samples):
        for j, cat in enumerate(categories):
            if cat in s.labels:
                gold[i, j] = polarities.index(s.labels[cat])
    return gold
