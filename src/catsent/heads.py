"""The three decoder head types mapping encoder states to polarity probs.

All heads share one classifier form: probs = softmax(W.h + b), where the
feature h is, per head kind:

  SEP           the separator state closing the category's span
  CLS_ATT       category token states attended by the [CLS] state
  SEP_SENT_ATT  sentence states attended by the separator state, then
                category token states attended by that sentence vector

Head attention is an unscaled dot product with no learned projections; all
trainable head capacity is in (W, b). The heads take the encoder's
BatchStates; attend and classify are shape-polymorphic and accept
single-sample tensors ([d], [L, d]) or tensors with a leading batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import numerics as nx
from .errors import ConfigurationError, DimensionError, EmptySpanError
from .numerics import NdArray, Tape


class HeadKind(Enum):
    SEP = "sep"
    CLS_ATT = "cls-att"
    SEP_SENT_ATT = "sep-sent-att"


class DecoderMode(Enum):
    SHARED = "shared"
    UNSHARED = "unshared"


@dataclass
class DecoderParams:
    """The classifier rows: W [n_dec, d, s] and b [n_dec, s], with one row
    (SHARED) or one row per category (UNSHARED)."""

    mode: DecoderMode
    W: NdArray                   # [n_dec, d, s]
    b: NdArray                   # [n_dec, s]

    def __post_init__(self):
        if self.W.ndim != 3 or self.b.shape != (self.W.shape[0], self.W.shape[2]):
            raise ConfigurationError(
                f"decoder shapes W {self.W.shape}, b {self.b.shape} are not [n, d, s], [n, s]")
        if self.mode is DecoderMode.SHARED and self.W.shape[0] != 1:
            raise ConfigurationError("SHARED decoder must hold exactly one (W, b) row")


def init_decoder_params(mode: DecoderMode, n_cat: int, d: int, s: int,
                        rng: np.random.Generator) -> DecoderParams:
    """W ~ uniform(-1/sqrt(d), 1/sqrt(d)), b = 0."""
    n = 1 if mode is DecoderMode.SHARED else n_cat
    scale = 1.0 / np.sqrt(d)
    W = np.stack([rng.uniform(-scale, scale, size=(d, s)) for _ in range(n)])
    return DecoderParams(mode, NdArray(W), NdArray(np.zeros((n, s))))


def classify(h: NdArray, dec: DecoderParams, cat_index: int,
             tape: Tape | None = None) -> NdArray:
    """softmax(W.h + b) with the row selected by the decoder mode."""
    row = 0 if dec.mode is DecoderMode.SHARED else cat_index
    _, d, s = dec.W.shape
    if h.shape[-1] != d:
        raise DimensionError(f"feature dim {h.shape[-1]} != decoder dim {d}")
    lead = h.shape[:-1]
    hm = nx.reshape(h, (-1, d), tape)
    logits = nx.add(nx.matmul(hm, nx.take(dec.W, row, 0, tape), tape),
                    nx.take(dec.b, row, 0, tape), tape)
    probs = nx.softmax(logits, tape)
    return nx.reshape(probs, lead + (s,), tape)


def attend(query: NdArray, keys_values: NdArray, tape: Tape | None = None,
           mask: np.ndarray | None = None) -> NdArray:
    """softmax(query . rows) weighted sum of rows (unscaled dot product).

    query [.., d], keys_values [.., L, d] -> [.., d]. ``mask`` (0/1 over L)
    restricts attention to real positions in padded batches.
    """
    L = keys_values.shape[-2]
    if L == 0:
        raise EmptySpanError("attention over an empty span")
    if query.shape[-1] != keys_values.shape[-1]:
        raise DimensionError(
            f"query dim {query.shape[-1]} != value dim {keys_values.shape[-1]}")
    q_col = nx.reshape(query, query.shape + (1,), tape)
    scores = nx.reshape(nx.matmul(keys_values, q_col, tape),
                        keys_values.shape[:-1], tape)
    if mask is None:
        weights = nx.softmax(scores, tape)
    else:
        weights = nx.masked_softmax(scores, mask, tape)
    w_row = nx.reshape(weights, weights.shape[:-1] + (1, L), tape)
    return nx.reshape(nx.matmul(w_row, keys_values, tape), query.shape, tape)


def read_positions(kind: HeadKind, batch) -> list[int]:
    """The sorted positions of ``batch``'s layout (a ``BatchEncoding``)
    whose final encoder states the head reads: SEP the separators, CLS_ATT
    [CLS] and the category tokens, SEP_SENT_ATT the sentence span (pads
    included), the separators and the category tokens."""
    cats = [p for a, b in batch.cat_spans for p in range(a, b)]
    if kind is HeadKind.SEP:
        return sorted(batch.sep_positions)
    if kind is HeadKind.CLS_ATT:
        return sorted([0] + cats)
    return sorted(list(range(1, 1 + batch.sent_width)) + batch.sep_positions + cats)


def head_probs(kind: HeadKind, states, dec: DecoderParams,
               tape: Tape | None = None, dropout_rate: float = 0.0,
               rng=None) -> NdArray:
    """Each category's head feature, dropped out and classified; output
    [.., n_cat, s]."""
    if kind is HeadKind.SEP_SENT_ATT and states.H_sent.shape[-2] == 0:
        raise EmptySpanError("sentence span is empty")
    rows = []
    for i in range(states.n_cat):
        if kind is HeadKind.CLS_ATT:
            h = attend(states.h_cls, states.H_cat[i], tape)
        else:
            h = nx.take(states.H_sep, i, -2, tape)
            if kind is HeadKind.SEP_SENT_ATT:
                h_sent = attend(h, states.H_sent, tape, mask=states.sent_mask)
                h = attend(h_sent, states.H_cat[i], tape)
        h = nx.dropout(h, dropout_rate, rng, tape)
        rows.append(classify(h, dec, i, tape))
    return nx.stack(rows, -2, tape)
