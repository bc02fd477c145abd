"""Tokenization, category-name-augmented input assembly, transformer encoder.

Input layout per sample:

    [CLS] sentence tokens [SEP] cat1 tokens [SEP] ... catN tokens [SEP]

The encoder output is sliced into four state groups: the [CLS] state, the
sentence states, one separator state per category (the [SEP] closing that
category's span), and each category's token states.

Batches pad the sentence span to a common width; padded positions are
excluded from attention and keep the per-sample (unpadded) position ids, so
a batched forward is numerically identical to per-sample forwards.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .data import CategorySchema
from .errors import ConfigurationError
from .numerics import NdArray, Tape

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
SPECIAL_TOKENS = [PAD, UNK, CLS, SEP]

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")


@dataclass(frozen=True)
class Vocabulary:
    token_to_id: dict[str, int]

    def __post_init__(self):
        ids = sorted(self.token_to_id.values())
        if ids != list(range(len(ids))):
            raise ConfigurationError("vocabulary ids are not dense from 0")
        for tok in SPECIAL_TOKENS:
            if tok not in self.token_to_id:
                raise ConfigurationError(f"special token {tok} missing from vocabulary")

    def __len__(self) -> int:
        return len(self.token_to_id)

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, self.token_to_id[UNK])

    @classmethod
    def build(cls, texts, schema: CategorySchema) -> "Vocabulary":
        """Vocabulary over all words in ``texts`` plus the category names."""
        tok_map = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
        words = []
        for cat in schema.categories:
            words.extend(word_tokens(cat))
        for text in texts:
            words.extend(word_tokens(text))
        for w in sorted(set(words)):
            if w not in tok_map:
                tok_map[w] = len(tok_map)
        return cls(tok_map)


def word_tokens(text: str) -> list[str]:
    """Lowercase whitespace/punctuation split; hyphenated words stay whole."""
    return _TOKEN_RE.findall(text.lower())


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    ids = vocab.token_to_id
    unk = ids[UNK]
    return [ids.get(w, unk) for w in word_tokens(text)]


@dataclass(frozen=True)
class EncodedInput:
    token_ids: list[int]
    segment_ids: list[int]
    attention_mask: list[int]
    cls_pos: int
    sent_span: tuple[int, int]           # [start, end) of sentence tokens
    sep_positions: list[int]             # the [SEP] after each category
    cat_spans: list[tuple[int, int]]
    n_cat: int
    dropped: int                         # sentence tokens cut to fit max_len


def category_token_ids(schema: CategorySchema, vocab: Vocabulary) -> list[list[int]]:
    return [tokenize(cat, vocab) for cat in schema.categories]


def assemble_input(sentence_ids: list[int], schema: CategorySchema,
                   vocab: Vocabulary, max_len: int,
                   cat_ids: list[list[int]] | None = None) -> EncodedInput:
    """Build the [CLS] sentence [SEP] cat1 [SEP] ... layout.

    The sentence is right-truncated to fit; category names never are.
    ``cat_ids`` are ``category_token_ids(schema, vocab)``, passed in when
    many sentences are assembled over one schema.
    """
    if cat_ids is None:
        cat_ids = category_token_ids(schema, vocab)
    fixed = 2 + sum(len(c) + 1 for c in cat_ids)  # CLS + sent-SEP + cats
    if fixed >= max_len:
        raise ConfigurationError(
            f"category names need {fixed} positions, max_len={max_len} leaves no room")
    sent = list(sentence_ids[: max_len - fixed])

    ids = [vocab.id(CLS)] + sent + [vocab.id(SEP)]
    segs = [0] * len(ids)
    sent_span = (1, 1 + len(sent))
    sep_positions, cat_spans = [], []
    for i, c in enumerate(cat_ids, start=1):
        cat_spans.append((len(ids), len(ids) + len(c)))
        ids.extend(c)
        ids.append(vocab.id(SEP))
        sep_positions.append(len(ids) - 1)
        segs.extend([i] * (len(c) + 1))
    return EncodedInput(
        token_ids=ids,
        segment_ids=segs,
        attention_mask=[1] * len(ids),
        cls_pos=0,
        sent_span=sent_span,
        sep_positions=sep_positions,
        cat_spans=cat_spans,
        n_cat=schema.n_cat,
        dropped=len(sentence_ids) - len(sent),
    )


@dataclass
class BatchEncoding:
    """Samples stacked on a shared layout (sentence span padded to a width)."""

    token_ids: np.ndarray        # [B, T] int
    position_ids: np.ndarray     # [B, T] int, per-sample unpadded positions
    segment_ids: np.ndarray      # [B, T] int
    mask: np.ndarray             # [B, T] float, 0 on pads
    sent_width: int
    sent_mask: np.ndarray        # [B, W] float
    sep_positions: list[int]
    cat_spans: list[tuple[int, int]]
    n_cat: int


def batch_inputs(inputs: list[EncodedInput], vocab: Vocabulary) -> BatchEncoding:
    """Stack inputs over one schema; pads go at the end of the sentence span."""
    n_cat = inputs[0].n_cat
    cat_lens = [b - a for a, b in inputs[0].cat_spans]
    width = max(e.sent_span[1] - e.sent_span[0] for e in inputs)
    tail = 1 + sum(l + 1 for l in cat_lens)  # sent-SEP + category blocks
    T = 1 + width + tail
    B = len(inputs)
    pad_id = vocab.id(PAD)

    ids = np.full((B, T), pad_id, dtype=np.int64)
    pos = np.zeros((B, T), dtype=np.int64)
    seg = np.zeros((B, T), dtype=np.int64)
    mask = np.zeros((B, T), dtype=np.float64)
    sent_mask = np.zeros((B, width), dtype=np.float64)

    # shared tail layout indices
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
        sent = enc.token_ids[s0:s1]
        ids[b, 0] = enc.token_ids[enc.cls_pos]
        ids[b, 1:1 + L] = sent
        ids[b, tail_start:] = enc.token_ids[s1:]
        seg[b, tail_start:] = enc.segment_ids[s1:]
        # unpadded position ids: pads keep position 0, every real token gets
        # the position it would have without padding
        pos[b, 0] = 0
        pos[b, 1:1 + L] = np.arange(1, 1 + L)
        pos[b, tail_start:] = np.arange(1 + L, 1 + L + tail)
        mask[b, 0] = 1.0
        mask[b, 1:1 + L] = 1.0
        mask[b, tail_start:] = 1.0
        sent_mask[b, :L] = 1.0

    return BatchEncoding(ids, pos, seg, mask, width, sent_mask,
                         sep_positions, cat_spans, n_cat)


# ---------------------------------------------------------------------------
# encoder parameters and forward pass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 2
    heads: int = 4
    d: int = 64
    ff: int = 256
    max_len: int = 128
    dropout: float = 0.1

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ConfigurationError(f"d={self.d} not divisible by heads={self.heads}")
        if min(self.layers, self.heads, self.d, self.ff, self.max_len) <= 0:
            raise ConfigurationError("all encoder dimensions must be positive")


# one layer's parameters, in the order ``nx.transformer_layer`` takes them
LAYER_PARAMS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "ln1_g", "ln1_b",
                "w1", "c1", "w2", "c2", "ln2_g", "ln2_b")


def encoder_param_shapes(config: EncoderConfig, vocab_size: int,
                         n_segments: int) -> dict[str, tuple[int, ...]]:
    """Every encoder parameter's shape, in the order of its name."""
    d, ff = config.d, config.ff
    shapes = {"tok_emb": (vocab_size, d), "pos_emb": (config.max_len, d),
              "seg_emb": (n_segments, d), "emb_ln_g": (d,), "emb_ln_b": (d,)}
    ffn = {"w1": (d, ff), "c1": (ff,), "w2": (ff, d)}
    for l in range(config.layers):
        for name in LAYER_PARAMS:
            shapes[f"l{l}.{name}"] = ffn.get(name, (d, d) if name[0] == "w" else (d,))
    return shapes


def init_encoder_params(config: EncoderConfig, vocab_size: int, n_segments: int,
                        rng: np.random.Generator) -> dict[str, NdArray]:
    """Matrices ~ normal(0, 0.02), drawn in name order; layer-norm gains 1,
    biases and layer-norm offsets 0."""
    params = {}
    for name, shape in encoder_param_shapes(config, vocab_size, n_segments).items():
        if len(shape) == 2:
            params[name] = NdArray(rng.normal(0.0, 0.02, size=shape))
        else:
            params[name] = NdArray(np.ones(shape) if name.endswith("_g") else np.zeros(shape))
    return params


@dataclass
class BatchStates:
    """Encoder output views for a batch (leading axis B on every array)."""

    h_cls: NdArray               # [B, d]
    H_sent: NdArray              # [B, W, d]
    sent_mask: np.ndarray        # [B, W]
    H_sep: NdArray               # [B, n_cat, d]
    H_cat: list[NdArray]         # each [B, L_cat_i, d]
    n_cat: int


def encode_batch(batch: BatchEncoding, params: dict[str, NdArray],
                 config: EncoderConfig, train_mode: bool = False,
                 rng: np.random.Generator | None = None,
                 tape: Tape | None = None) -> BatchStates:
    """Run the transformer; slice final states into the four groups.

    The embedding block and each layer are one tape entry apiece
    (``nx.embedding``, ``nx.transformer_layer``).
    """
    if batch.token_ids.shape[1] > config.max_len:
        raise ConfigurationError(
            f"sequence length {batch.token_ids.shape[1]} exceeds position table {config.max_len}")
    drop = config.dropout if train_mode else 0.0
    if drop > 0.0 and rng is None:
        raise ConfigurationError("train_mode encoding needs an RNG for dropout")

    x = nx.embedding([params["tok_emb"], params["pos_emb"], params["seg_emb"]],
                     [batch.token_ids, batch.position_ids, batch.segment_ids],
                     params["emb_ln_g"], params["emb_ln_b"], drop, rng, tape)
    for l in range(config.layers):
        x = nx.transformer_layer(x, [params[f"l{l}.{name}"] for name in LAYER_PARAMS],
                                 config.heads, batch.mask, drop, rng, tape)

    B, T, d = x.shape
    W = batch.sent_width
    h_cls = nx.reshape(nx.take(x, [0], 1, tape), (B, d), tape)
    H_sent = nx.take(x, list(range(1, 1 + W)), 1, tape)
    H_sep = nx.take(x, batch.sep_positions, 1, tape)
    H_cat = [nx.take(x, list(range(a, b)), 1, tape) for a, b in batch.cat_spans]
    return BatchStates(h_cls, H_sent, batch.sent_mask, H_sep, H_cat, batch.n_cat)


def encoder_param_names(config: EncoderConfig) -> list[str]:
    return list(encoder_param_shapes(config, 0, 0))
