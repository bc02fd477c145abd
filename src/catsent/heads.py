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
    """Classifier (W, b) pairs: one pair (SHARED) or one per category."""

    mode: DecoderMode
    W: list[NdArray]             # each [d, s]
    b: list[NdArray]             # each [s]

    def __post_init__(self):
        n = 1 if self.mode is DecoderMode.SHARED else None
        if n is not None and (len(self.W) != n or len(self.b) != n):
            raise ConfigurationError("SHARED decoder must hold exactly one (W, b)")
        if len(self.W) != len(self.b):
            raise ConfigurationError("W/b count mismatch")

    def pair(self, cat_index: int) -> tuple[NdArray, NdArray]:
        if self.mode is DecoderMode.SHARED:
            return self.W[0], self.b[0]
        return self.W[cat_index], self.b[cat_index]

    @property
    def s(self) -> int:
        return self.W[0].shape[1]


def init_decoder_params(mode: DecoderMode, n_cat: int, d: int, s: int,
                        rng: np.random.Generator) -> DecoderParams:
    """W ~ uniform(-1/sqrt(d), 1/sqrt(d)), b = 0."""
    n = 1 if mode is DecoderMode.SHARED else n_cat
    scale = 1.0 / np.sqrt(d)
    W = [NdArray(rng.uniform(-scale, scale, size=(d, s))) for _ in range(n)]
    b = [NdArray(np.zeros(s)) for _ in range(n)]
    return DecoderParams(mode, W, b)


def classify(h: NdArray, dec: DecoderParams, cat_index: int,
             tape: Tape | None = None) -> NdArray:
    """softmax(W.h + b) with the pair selected by the decoder mode."""
    W, b = dec.pair(cat_index)
    d = W.shape[0]
    if h.shape[-1] != d:
        raise DimensionError(f"feature dim {h.shape[-1]} != decoder dim {d}")
    lead = h.shape[:-1]
    hm = nx.reshape(h, (-1, d), tape)
    logits = nx.add(nx.matmul(hm, W, tape), b, tape)
    probs = nx.softmax(logits, tape)
    return nx.reshape(probs, lead + (dec.s,), tape)


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


def _sep_state(states, i: int, tape) -> NdArray:
    """Row i of H_sep, with the category axis dropped."""
    H = states.H_sep
    d = H.shape[-1]
    return nx.reshape(nx.take(H, [i], -2, tape), H.shape[:-2] + (d,), tape)


def _feature_dropout(h: NdArray, rate: float, rng, tape) -> NdArray:
    if rate <= 0.0:
        return h
    return nx.dropout(h, rate, rng, tape)


def head_sep(states, dec: DecoderParams, tape: Tape | None = None,
             dropout_rate: float = 0.0, rng=None) -> NdArray:
    """Type 1: classify each category's separator state directly."""
    rows = []
    for i in range(states.n_cat):
        h = _feature_dropout(_sep_state(states, i, tape), dropout_rate, rng, tape)
        rows.append(classify(h, dec, i, tape))
    return nx.stack(rows, -2, tape)


def head_cls_att(states, dec: DecoderParams, tape: Tape | None = None,
                 dropout_rate: float = 0.0, rng=None) -> NdArray:
    """Type 2: category states attended by [CLS], then classify."""
    rows = []
    for i in range(states.n_cat):
        e_cat = attend(states.h_cls, states.H_cat[i], tape)
        e_cat = _feature_dropout(e_cat, dropout_rate, rng, tape)
        rows.append(classify(e_cat, dec, i, tape))
    return nx.stack(rows, -2, tape)


def head_sep_sent_att(states, dec: DecoderParams, tape: Tape | None = None,
                      dropout_rate: float = 0.0, rng=None) -> NdArray:
    """Type 3: separator attends sentence, result attends category states."""
    if states.H_sent.shape[-2] == 0:
        raise EmptySpanError("sentence span is empty")
    rows = []
    for i in range(states.n_cat):
        h_sent = attend(_sep_state(states, i, tape), states.H_sent, tape,
                        mask=states.sent_mask)
        e_cat = attend(h_sent, states.H_cat[i], tape)
        e_cat = _feature_dropout(e_cat, dropout_rate, rng, tape)
        rows.append(classify(e_cat, dec, i, tape))
    return nx.stack(rows, -2, tape)


_HEADS = {
    HeadKind.SEP: head_sep,
    HeadKind.CLS_ATT: head_cls_att,
    HeadKind.SEP_SENT_ATT: head_sep_sent_att,
}


def head_probs(kind: HeadKind, states, dec: DecoderParams,
               tape: Tape | None = None, dropout_rate: float = 0.0,
               rng=None) -> NdArray:
    """Dispatch to the head implementation; output [.., n_cat, s]."""
    return _HEADS[kind](states, dec, tape, dropout_rate, rng)
