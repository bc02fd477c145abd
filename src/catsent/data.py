"""Dataset schemas, JSON-lines IO, incremental splits, synthetic generation.

A sample's label map may cover only part of the schema: an absent key means
"unlabeled" (skipped by the loss), which is distinct from the polarity
"none" (category not addressed). Datasets are immutable after load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DataError, SchemaError

ACSA_POLARITIES = ["positive", "neutral", "negative", "conflict", "none"]
TACSA_POLARITIES = ["positive", "negative", "none"]

ACSA_CATEGORIES = ["food", "service", "price", "ambience", "anecdotes/miscellaneous"]
ACSA_DEFAULT_TARGET = ["service"]

SENTIHOOD_ASPECTS = ["general", "price", "transit-location", "safety"]
TACSA_CATEGORIES = [f"{loc} {asp}" for loc in ("location-1", "location-2")
                    for asp in SENTIHOOD_ASPECTS]
TACSA_DEFAULT_TARGET = ["location-1 price", "location-2 price"]


@dataclass(frozen=True)
class PolaritySet:
    """Ordered polarity labels; "none" is always present and last."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ConfigurationError("duplicate polarity labels")
        if not self.labels or self.labels[-1] != "none":
            raise ConfigurationError('"none" must be the last polarity label')

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def none_index(self) -> int:
        return len(self.labels) - 1

    def index(self, label: str) -> int:
        return self.labels.index(label)

    @classmethod
    def acsa(cls) -> "PolaritySet":
        return cls(tuple(ACSA_POLARITIES))

    @classmethod
    def tacsa(cls) -> "PolaritySet":
        return cls(tuple(TACSA_POLARITIES))


@dataclass(frozen=True)
class CategorySchema:
    """Ordered category names, optionally partitioned into source/target."""

    categories: tuple[str, ...]
    source_categories: tuple[str, ...] = ()
    target_categories: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.categories:
            raise ConfigurationError("schema has no categories")
        if any(not c for c in self.categories):
            raise ConfigurationError("empty category name")
        if len(set(self.categories)) != len(self.categories):
            raise ConfigurationError("duplicate category names")
        if self.source_categories or self.target_categories:
            src, tgt = set(self.source_categories), set(self.target_categories)
            if src & tgt:
                raise ConfigurationError("source and target categories overlap")
            if src | tgt != set(self.categories):
                raise ConfigurationError("source+target must cover all categories")

    @property
    def n_cat(self) -> int:
        return len(self.categories)

    @property
    def has_split(self) -> bool:
        return bool(self.source_categories) and bool(self.target_categories)

    def index(self, name: str) -> int:
        return self.categories.index(name)


@dataclass(frozen=True)
class Sample:
    id: str
    text: str
    labels: dict[str, str]


@dataclass(frozen=True)
class Dataset:
    schema: CategorySchema
    polarities: PolaritySet
    samples: tuple[Sample, ...]
    split_tag: str = "train"

    def __len__(self) -> int:
        return len(self.samples)

    @cached_property
    def gold_index(self) -> np.ndarray:
        """[N, n_cat] polarity index of each sample's label per category, -1
        where unlabeled; built on first use and read-only."""
        index = {label: i for i, label in enumerate(self.polarities.labels)}
        gold = np.array([[index.get(s.labels.get(c), -1) for c in self.schema.categories]
                         for s in self.samples], dtype=np.intp)
        gold = gold.reshape(len(self.samples), self.schema.n_cat)
        gold.flags.writeable = False
        return gold


def _validate_sample(sample: Sample, schema: CategorySchema, polarities: PolaritySet) -> None:
    for cat, pol in sample.labels.items():
        if cat not in schema.categories:
            raise SchemaError(f"sample {sample.id!r}: unknown category {cat!r}")
        if pol not in polarities.labels:
            raise SchemaError(f"sample {sample.id!r}: unknown polarity {pol!r}")


def make_dataset(samples, schema, polarities, split_tag="train") -> Dataset:
    seen = set()
    for s in samples:
        if s.id in seen:
            raise SchemaError(f"duplicate sample id {s.id!r}")
        seen.add(s.id)
        _validate_sample(s, schema, polarities)
    return Dataset(schema, polarities, tuple(samples), split_tag)


# ---------------------------------------------------------------------------
# JSON-lines IO
# ---------------------------------------------------------------------------


def _open_data(path):
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from exc


def _parse_record(line: str, where: str) -> Sample:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(rec, dict):
        raise SchemaError(f"{where}: a record must be a JSON object")
    for key in ("id", "text", "labels"):
        if key not in rec:
            raise SchemaError(f"{where}: record has no {key!r} field")
    if not isinstance(rec["text"], str) or not isinstance(rec["labels"], dict):
        raise SchemaError(f"{where}: 'text' must be a string and 'labels' an object")
    return Sample(str(rec["id"]), rec["text"], dict(rec["labels"]))


def load_dataset(path, schema: CategorySchema, polarities: PolaritySet,
                 split_tag: str = "train") -> Dataset:
    """Read one-sample-per-line JSON; absent label keys stay absent."""
    samples = []
    with _open_data(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                samples.append(_parse_record(line, f"{path}:{lineno}"))
    return make_dataset(samples, schema, polarities, split_tag)


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in dataset.samples:
            fh.write(json.dumps({"id": s.id, "text": s.text, "labels": s.labels},
                                ensure_ascii=False) + "\n")


def load_schema(path) -> tuple[CategorySchema, PolaritySet]:
    with _open_data(path) as fh:
        try:
            rec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(rec, dict) or "categories" not in rec or "polarities" not in rec:
        raise SchemaError(f"{path}: a schema is an object with 'categories' and 'polarities'")
    for key in ("categories", "polarities", "source_categories", "target_categories"):
        names = rec.get(key, [])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise SchemaError(f"{path}: {key!r} must be a list of strings, not {names!r}")
    schema = CategorySchema(tuple(rec["categories"]),
                            tuple(rec.get("source_categories", ())),
                            tuple(rec.get("target_categories", ())))
    return schema, PolaritySet(tuple(rec["polarities"]))


def save_schema(schema: CategorySchema, polarities: PolaritySet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"categories": list(schema.categories),
                   "source_categories": list(schema.source_categories),
                   "target_categories": list(schema.target_categories),
                   "polarities": list(polarities.labels)}, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# incremental split
# ---------------------------------------------------------------------------


def split_incremental(dataset: Dataset, schema: CategorySchema) -> tuple[Dataset, Dataset]:
    """Copy the dataset twice keeping source-only / target-only labels."""
    if not schema.has_split:
        raise ConfigurationError("schema declares no source/target partition")
    src_keys = set(schema.source_categories)
    tgt_keys = set(schema.target_categories)
    src_samples, tgt_samples = [], []
    for s in dataset.samples:
        src_samples.append(replace(s, labels={k: v for k, v in s.labels.items() if k in src_keys}))
        tgt_samples.append(replace(s, labels={k: v for k, v in s.labels.items() if k in tgt_keys}))
    source = Dataset(schema, dataset.polarities, tuple(src_samples), dataset.split_tag)
    target = Dataset(schema, dataset.polarities, tuple(tgt_samples), dataset.split_tag)
    return source, target


def sample_target(target: Dataset, rate: float, seed: int) -> Dataset:
    """Uniform subset of floor(rate*n) samples, deterministic per seed."""
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"sampling rate {rate} outside [0, 1]")
    n = len(target.samples)
    if rate == 1.0:
        return target
    k = math.floor(rate * n)
    rng = np.random.default_rng(seed)
    idx = sorted(rng.choice(n, size=k, replace=False).tolist())
    return replace(target, samples=tuple(target.samples[i] for i in idx))


def concat_datasets(a: Dataset, b: Dataset) -> Dataset:
    """Union of two datasets over the same schema (ids disambiguated)."""
    if a.schema != b.schema or a.polarities != b.polarities:
        raise ConfigurationError("cannot concatenate datasets with different schemas")
    samples = [replace(s, id=f"{s.id}#a") for s in a.samples]
    samples += [replace(s, id=f"{s.id}#b") for s in b.samples]
    return Dataset(a.schema, a.polarities, tuple(samples), a.split_tag)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

# default cue vocabulary: sentiment word per (category-agnostic) polarity
_DEFAULT_CUES = {
    "positive": ["great", "wonderful", "excellent"],
    "neutral": ["okay", "average"],
    "negative": ["terrible", "awful", "bad"],
    "conflict": ["mixed", "divisive"],
}
_DISTRACTORS = ["the", "place", "we", "visited", "today", "was", "quite",
                "busy", "and", "crowded", "overall", "honestly"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator config: cue phrases decide the gold labels."""

    schema: CategorySchema
    polarities: PolaritySet
    count: int
    mention_prob: float = 0.5          # chance a category is addressed at all
    n_distractors: int = 3

    def cue_words(self, polarity: str) -> list[str]:
        words = _DEFAULT_CUES.get(polarity)
        if not words:
            raise ConfigurationError(f"no cue words configured for polarity {polarity!r}")
        return words


def make_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Cue-phrase corpus: "<category-word> <sentiment-word>" per mention.

    Gold labels follow the cues exactly, so the task is fully learnable; a
    category with no mention is labeled "none".
    """
    rng = np.random.default_rng(seed)
    sentiments = [p for p in spec.polarities.labels if p != "none"]
    # passed as ``p`` although uniform: choice draws from the stream
    # differently without it, and every synthetic corpus depends on the draws
    uniform = np.full(len(sentiments), 1.0 / len(sentiments))
    samples = []
    for i in range(spec.count):
        labels, phrases = {}, []
        for cat in spec.schema.categories:
            if rng.random() < spec.mention_prob:
                pol = sentiments[int(rng.choice(len(sentiments), p=uniform))]
                cue = spec.cue_words(pol)[int(rng.integers(len(spec.cue_words(pol))))]
                phrases.append(f"{cat} {cue}")
                labels[cat] = pol
            else:
                labels[cat] = "none"
        for _ in range(spec.n_distractors):
            phrases.append(_DISTRACTORS[int(rng.integers(len(_DISTRACTORS)))])
        order = rng.permutation(len(phrases))
        text = " ".join(phrases[j] for j in order)
        samples.append(Sample(f"syn-{i}", text, labels))
    return make_dataset(samples, spec.schema, spec.polarities)
