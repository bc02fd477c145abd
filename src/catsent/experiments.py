"""Reusable experiment drivers: synthetic corpora, the plain / mix /
incremental pipelines shared by the CLI and the experiments, and the
forgetting comparison (shared vs unshared decoder).

Seeding rule: every pipeline draws its fresh model, its target sample and
its (stage-1) training from the root ``seed``; stage 2 trains with
``seed + 1``. The seeds in the passed TrainConfigs are ignored."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .data import (CategorySchema, Dataset, PolaritySet, SyntheticSpec,
                   make_synthetic, sample_target, split_incremental,
                   concat_datasets)
from .encoder import EncoderConfig, Vocabulary
from .errors import ConfigurationError
from .heads import DecoderMode, HeadKind
from .metrics import build_prediction_set, extraction_scores
from .training import (TrainConfig, TrainedModel, fresh_model, predict,
                       run_incremental, train)

# Compositional location-aspect category names: every token of the target
# category's name also occurs inside some source category name, so a model
# trained on the source categories has usable zero-shot features for the
# target. This mirrors how pretrained encoders make a brand-new category
# name meaningful, at a scale where we train from scratch.
DEFAULT_SOURCE = ("location-1 food", "location-2 food",
                  "location-1 price", "location-2 service")
DEFAULT_TARGET = ("location-2 price",)


@dataclass(frozen=True)
class Corpus:
    schema: CategorySchema
    polarities: PolaritySet
    train: Dataset
    valid: Dataset
    test: Dataset


def synthetic_corpus(count: int = 2000, seed: int = 0,
                     source: tuple = DEFAULT_SOURCE,
                     target: tuple = DEFAULT_TARGET,
                     polarities: tuple = ("positive", "negative", "none"),
                     mention_prob: float = 0.5) -> Corpus:
    """Train/valid/test cue-phrase datasets over one source/target schema."""
    if count < 1:
        raise ConfigurationError(f"count={count}: a corpus needs at least one sample")
    if seed < 0:
        raise ConfigurationError(f"seed {seed} is negative")
    schema = CategorySchema(tuple(source) + tuple(target), tuple(source), tuple(target))
    pol = PolaritySet(tuple(polarities))
    spec = SyntheticSpec(schema, pol, count, mention_prob=mention_prob)
    train = make_synthetic(spec, seed)
    valid = replace(make_synthetic(replace(spec, count=max(count // 5, 20)), seed + 1),
                    split_tag="validation")
    test = replace(make_synthetic(replace(spec, count=max(count // 5, 20)), seed + 2),
                   split_tag="test")
    return Corpus(schema, pol, train, valid, test)


def corpus_vocab(corpus: Corpus) -> Vocabulary:
    return Vocabulary.build([s.text for s in corpus.train.samples], corpus.schema)


# desk-scale experiment defaults: small enough to train from scratch in
# seconds, big enough for the cue task
EXPERIMENT_ENCODER = EncoderConfig(layers=2, heads=4, d=32, ff=64,
                                   max_len=64, dropout=0.1)
EXPERIMENT_TRAINING = TrainConfig(learning_rate=1e-3, warmup_ratio=0.25,
                                  epochs=12, l2_lambda=1e-4,
                                  batch_size=32, patience=12, seed=0)
# gentle stage-2 fine-tune: used when the question is how much source
# knowledge survives the target stage
EXPERIMENT_STAGE2 = TrainConfig(learning_rate=7e-5, warmup_ratio=0.25,
                                epochs=6, l2_lambda=0.0,
                                batch_size=32, patience=6, seed=0)
# full-length stage-2 fine-tune: used when the question is how good the
# target categories can get, source retention not at issue
EXPERIMENT_STAGE2_FULL = TrainConfig(learning_rate=1e-3, warmup_ratio=0.25,
                                     epochs=4, l2_lambda=1e-4,
                                     batch_size=32, patience=4, seed=0)


def source_extraction_f1(model: TrainedModel, test: Dataset,
                         threshold: float = 0.5) -> float:
    probs = predict(model, test)
    preds = build_prediction_set(test, probs, "source")
    return extraction_scores(preds, threshold)[2]


def target_extraction_f1(model: TrainedModel, test: Dataset,
                         threshold: float = 0.5) -> float:
    probs = predict(model, test)
    preds = build_prediction_set(test, probs, "target")
    return extraction_scores(preds, threshold)[2]


def _fresh_model(corpus: Corpus, head: HeadKind, mode: DecoderMode, seed: int,
                 encoder_config: EncoderConfig,
                 vocab: Vocabulary | None) -> TrainedModel:
    return fresh_model(corpus.schema, corpus.polarities, vocab or corpus_vocab(corpus),
                       encoder_config, head, mode, seed)


def run_plain_pipeline(corpus: Corpus, head: HeadKind, mode: DecoderMode, seed: int,
                       encoder_config: EncoderConfig, train_config: TrainConfig,
                       log: list | None = None) -> TrainedModel:
    """One training run on every category's labels."""
    init = _fresh_model(corpus, head, mode, seed, encoder_config, None)
    return train(corpus.train, corpus.valid, init, replace(train_config, seed=seed), log)


def run_incremental_pipeline(corpus: Corpus, head: HeadKind, mode: DecoderMode,
                             rate: float, seed: int,
                             encoder_config: EncoderConfig = EXPERIMENT_ENCODER,
                             train_config: TrainConfig = EXPERIMENT_TRAINING,
                             stage2_config: TrainConfig | None = None,
                             vocab: Vocabulary | None = None,
                             log: list | None = None):
    """split -> stage-1 source training -> stage-2 target fine-tuning."""
    src_tr, tgt_tr = split_incremental(corpus.train, corpus.schema)
    src_va, tgt_va = split_incremental(corpus.valid, corpus.schema)
    tgt_tr = sample_target(tgt_tr, rate, seed)
    init = _fresh_model(corpus, head, mode, seed, encoder_config, vocab)
    cfg_src = replace(train_config, seed=seed)
    cfg_tgt = replace(stage2_config or EXPERIMENT_STAGE2, seed=seed + 1)
    return run_incremental(src_tr, src_va, tgt_tr, tgt_va, init, cfg_src,
                           cfg_tgt, log)


def run_mix_pipeline(corpus: Corpus, head: HeadKind, mode: DecoderMode,
                     rate: float, seed: int,
                     encoder_config: EncoderConfig = EXPERIMENT_ENCODER,
                     train_config: TrainConfig = EXPERIMENT_TRAINING,
                     vocab: Vocabulary | None = None,
                     log: list | None = None) -> TrainedModel:
    """split -> one training run on Sample-Source plus sampled Sample-Target."""
    src_tr, tgt_tr = split_incremental(corpus.train, corpus.schema)
    src_va, tgt_va = split_incremental(corpus.valid, corpus.schema)
    mix_tr = concat_datasets(src_tr, sample_target(tgt_tr, rate, seed))
    mix_va = concat_datasets(src_va, tgt_va)
    init = _fresh_model(corpus, head, mode, seed, encoder_config, vocab)
    model = train(mix_tr, mix_va, init, replace(train_config, seed=seed), log)
    model.provenance["workflow"] = "mix"
    return model


def forgetting_experiment(corpus: Corpus, head: HeadKind = HeadKind.SEP_SENT_ATT,
                          rate: float = 1.0, seed: int = 0,
                          encoder_config: EncoderConfig = EXPERIMENT_ENCODER,
                          train_config: TrainConfig = EXPERIMENT_TRAINING,
                          stage2_config: TrainConfig | None = None) -> dict:
    """Source-category extraction F1 before/after fine-tuning, shared vs
    unshared decoder. Reports the numbers; asserts nothing."""
    vocab = corpus_vocab(corpus)
    out = {"head": head.value, "rate": rate, "seed": seed}
    for mode in (DecoderMode.SHARED, DecoderMode.UNSHARED):
        src_model, inc_model = run_incremental_pipeline(
            corpus, head, mode, rate, seed, encoder_config, train_config,
            stage2_config, vocab)
        before = source_extraction_f1(src_model, corpus.test)
        after = source_extraction_f1(inc_model, corpus.test)
        out[mode.value] = {"before": before, "after": after,
                           "drop": before - after}
    out["shared_drop"] = out["shared"]["drop"]
    out["unshared_drop"] = out["unshared"]["drop"]
    return out
