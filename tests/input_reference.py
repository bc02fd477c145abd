"""The per-sample input assembly and the row-by-row batch loop that
``encoder.prepare_texts`` and ``encoder.batch_inputs`` replaced, kept as
their bitwise oracle.

``assemble_input`` builds one sample's unpadded layout as Python lists;
``batch_rows`` fills a batch from such samples one row at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from catsent.encoder import CLS, PAD, SEP, BatchEncoding, tokenize


@dataclass(frozen=True)
class EncodedInput:
    token_ids: list[int]
    segment_ids: list[int]
    cls_pos: int
    sent_span: tuple[int, int]           # [start, end) of sentence tokens
    cat_spans: list[tuple[int, int]]
    n_cat: int
    dropped: int                         # sentence tokens cut to fit max_len


def assemble_input(text, schema, vocab, max_len) -> EncodedInput:
    """[CLS] sentence [SEP] cat1 [SEP] ... catN [SEP], the sentence
    right-truncated to fit."""
    sentence_ids = tokenize(text, vocab)
    cat_ids = [tokenize(cat, vocab) for cat in schema.categories]
    fixed = 2 + sum(len(c) + 1 for c in cat_ids)
    assert fixed < max_len
    sent = list(sentence_ids[: max_len - fixed])
    ids = [vocab.id(CLS)] + sent + [vocab.id(SEP)]
    segs = [0] * len(ids)
    cat_spans = []
    for i, c in enumerate(cat_ids, start=1):
        cat_spans.append((len(ids), len(ids) + len(c)))
        ids.extend(c)
        ids.append(vocab.id(SEP))
        segs.extend([i] * (len(c) + 1))
    return EncodedInput(ids, segs, 0, (1, 1 + len(sent)), cat_spans, schema.n_cat,
                        len(sentence_ids) - len(sent))


def batch_rows(inputs: list[EncodedInput], vocab) -> BatchEncoding:
    """Stack inputs over one schema row by row; pads go at the end of the
    sentence span."""
    n_cat = inputs[0].n_cat
    cat_lens = [b - a for a, b in inputs[0].cat_spans]
    width = max(e.sent_span[1] - e.sent_span[0] for e in inputs)
    tail = 1 + sum(l + 1 for l in cat_lens)
    T = 1 + width + tail
    B = len(inputs)

    ids = np.full((B, T), vocab.id(PAD), dtype=np.int64)
    pos = np.zeros((B, T), dtype=np.int64)
    seg = np.zeros((B, T), dtype=np.int64)
    mask = np.zeros((B, T), dtype=np.float64)
    sent_mask = np.zeros((B, width), dtype=np.float64)

    tail_start = 1 + width
    sep_positions, cat_spans = [], []
    cursor = tail_start + 1
    for lc in cat_lens:
        cat_spans.append((cursor, cursor + lc))
        cursor += lc
        sep_positions.append(cursor)
        cursor += 1

    for b, enc in enumerate(inputs):
        s0, s1 = enc.sent_span
        L = s1 - s0
        ids[b, 0] = enc.token_ids[enc.cls_pos]
        ids[b, 1:1 + L] = enc.token_ids[s0:s1]
        ids[b, tail_start:] = enc.token_ids[s1:]
        seg[b, tail_start:] = enc.segment_ids[s1:]
        pos[b, 1:1 + L] = np.arange(1, 1 + L)
        pos[b, tail_start:] = np.arange(1 + L, 1 + L + tail)
        mask[b, 0] = 1.0
        mask[b, 1:1 + L] = 1.0
        mask[b, tail_start:] = 1.0
        sent_mask[b, :L] = 1.0

    return BatchEncoding(ids, pos, seg, mask, width, sent_mask,
                         sep_positions, cat_spans, n_cat)


def reference_batch(samples, model, idx) -> BatchEncoding:
    """The row loop's batch of ``samples[idx]`` for ``model``."""
    return batch_rows([assemble_input(samples[i].text, model.schema, model.vocab,
                                      model.encoder_config.max_len) for i in idx],
                      model.vocab)


def assert_same_batch(got: BatchEncoding, want: BatchEncoding) -> None:
    """Every array equal with the same dtype; every layout field equal."""
    for name in ("token_ids", "position_ids", "segment_ids", "mask", "sent_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("sent_width", "sep_positions", "cat_spans", "n_cat"):
        assert getattr(got, name) == getattr(want, name), name
