"""Tokenizer, input assembly, batching, and encoder forward-pass properties.

The load-bearing oracle here is pad invariance: encoding a batch of
different-length sentences must give each sample exactly the states it gets
when encoded alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catsent.numerics as nx
from catsent.data import CategorySchema
from catsent.encoder import (LAYER_PARAMS, EncoderConfig, Vocabulary, assemble_input,
                             batch_inputs, encode_batch,
                             encoder_param_names, init_encoder_params,
                             tokenize, word_tokens)
from catsent.errors import ConfigurationError
from catsent.heads import HeadKind, read_positions
from test_numerics import attention_subgraph, embedding_chain, layer_chain

SCHEMA = CategorySchema(("food", "service"))
TEXTS = ["the food was great", "service terrible honestly",
         "we waited a long-time for the food"]
VOCAB = Vocabulary.build(TEXTS, SCHEMA)
CONFIG = EncoderConfig(layers=2, heads=2, d=8, ff=16, max_len=32, dropout=0.1)


def make_params(seed=0):
    return init_encoder_params(CONFIG, len(VOCAB), SCHEMA.n_cat + 1,
                               np.random.default_rng(seed))


def enc_input(text):
    return assemble_input(tokenize(text, VOCAB), SCHEMA, VOCAB, CONFIG.max_len)


def encode_one(enc, params, tape=None):
    """The states of a one-sample batch."""
    return encode_batch(batch_inputs([enc], VOCAB), params, CONFIG, tape=tape)


def test_word_tokens():
    assert word_tokens("The Food, was GREAT!") == ["the", "food", "was", "great"]
    assert word_tokens("long-time wait") == ["long-time", "wait"]
    assert word_tokens("") == []


def test_vocabulary_unknown_maps_to_unk():
    assert VOCAB.id("zebra") == VOCAB.id("[UNK]")
    assert VOCAB.id("food") != VOCAB.id("[UNK]")


def test_vocabulary_includes_category_names():
    v = Vocabulary.build([], CategorySchema(("location-1 price",)))
    assert v.id("location-1") != v.id("[UNK]")
    assert v.id("price") != v.id("[UNK]")


def test_assemble_layout():
    enc = enc_input("the food was great")
    ids = enc.token_ids
    assert ids[enc.cls_pos] == VOCAB.id("[CLS]")
    s0, s1 = enc.sent_span
    assert ids[s0:s1] == tokenize("the food was great", VOCAB)
    assert ids[s1] == VOCAB.id("[SEP]")
    # one category span + closing SEP per category, in schema order
    assert len(enc.sep_positions) == 2 and len(enc.cat_spans) == 2
    for (a, b), sep, cat in zip(enc.cat_spans, enc.sep_positions,
                                SCHEMA.categories):
        assert ids[a:b] == tokenize(cat, VOCAB)
        assert ids[sep] == VOCAB.id("[SEP]")
        assert sep == b
    # segments: 0 for sentence+CLS+SEP, i for category block i
    assert enc.segment_ids[:s1 + 1] == [0] * (s1 + 1)
    for i, ((a, b), sep) in enumerate(zip(enc.cat_spans, enc.sep_positions), 1):
        assert enc.segment_ids[a:sep + 1] == [i] * (sep + 1 - a)


def test_assemble_truncates_sentence_not_categories():
    long_text = " ".join(["word"] * 100)
    enc = assemble_input(tokenize(long_text, VOCAB), SCHEMA, VOCAB, 16)
    assert len(enc.token_ids) <= 16
    for (a, b), cat in zip(enc.cat_spans, SCHEMA.categories):
        assert enc.token_ids[a:b] == tokenize(cat, VOCAB)


def test_assemble_rejects_impossible_budget():
    with pytest.raises(ConfigurationError):
        assemble_input([1, 2], SCHEMA, VOCAB, 6)


def test_batch_layout_and_masks():
    batch = batch_inputs([enc_input(t) for t in TEXTS], VOCAB)
    widths = [len(tokenize(t, VOCAB)) for t in TEXTS]
    assert batch.sent_width == max(widths)
    for b, w in enumerate(widths):
        assert batch.sent_mask[b, :w].all() and not batch.sent_mask[b, w:].any()
        assert batch.mask[b, 1 + w:1 + batch.sent_width].sum() == 0
        # positions continue unpadded across the pad gap
        tail_start = 1 + batch.sent_width
        assert batch.position_ids[b, tail_start] == 1 + w


PARAMS = make_params()
WORDS = sorted(VOCAB.token_to_id)[4:] + ["zebra"]      # no special tokens; one unknown


# up to 30 words: max_len 32 leaves 26 sentence positions, so long ones truncate
@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=30),
                min_size=1, max_size=5))
def test_pad_invariance(sentences):
    """Each row of a batch of random-length sentences has exactly the states
    of that sample's one-sample batch, padding notwithstanding."""
    inputs = [enc_input(" ".join(words)) for words in sentences]
    bs = encode_batch(batch_inputs(inputs, VOCAB), PARAMS, CONFIG)
    for b, enc in enumerate(inputs):
        single = encode_one(enc, PARAMS)
        L = enc.sent_span[1] - enc.sent_span[0]
        assert np.allclose(bs.h_cls.data[b], single.h_cls.data[0], atol=1e-12, rtol=0)
        assert np.allclose(bs.H_sent.data[b, :L], single.H_sent.data[0],
                           atol=1e-12, rtol=0)
        assert np.allclose(bs.H_sep.data[b], single.H_sep.data[0], atol=1e-12, rtol=0)
        for got, want in zip(bs.H_cat, single.H_cat):
            assert np.allclose(got.data[b], want.data[0], atol=1e-12, rtol=0)


@pytest.mark.parametrize("kind", list(HeadKind))
def test_encoding_at_the_head_positions_keeps_the_states_the_head_reads(kind):
    """Forward only, the last layer runs its query side at the head's read
    positions alone: the groups inside them keep every bit of the full
    encoding, and the others are None."""
    batch = batch_inputs([enc_input(t) for t in TEXTS], VOCAB)
    assert (batch.mask == 0).any()
    full = encode_batch(batch, PARAMS, CONFIG)
    part = encode_batch(batch, PARAMS, CONFIG, positions=read_positions(kind, batch))
    read = {HeadKind.SEP: {"H_sep"}, HeadKind.CLS_ATT: {"h_cls", "H_cat"},
            HeadKind.SEP_SENT_ATT: {"H_sent", "H_sep", "H_cat"}}[kind]
    for name in ("h_cls", "H_sent", "H_sep", "H_cat"):
        got, want = getattr(part, name), getattr(full, name)
        if name not in read:
            assert got is None, name
        elif name == "H_cat":
            assert [g.data.tobytes() for g in got] == [w.data.tobytes() for w in want]
        else:
            assert got.data.tobytes() == want.data.tobytes(), name


def test_encode_deterministic_in_eval_mode():
    params = make_params()
    a = encode_one(enc_input(TEXTS[0]), params)
    b = encode_one(enc_input(TEXTS[0]), params)
    assert np.array_equal(a.h_cls.data, b.h_cls.data)


def test_train_mode_requires_rng():
    params = make_params()
    batch = batch_inputs([enc_input(TEXTS[0])], VOCAB)
    with pytest.raises(ConfigurationError):
        encode_batch(batch, params, CONFIG, train_mode=True)


def test_sequence_length_guard():
    params = make_params()
    tiny = EncoderConfig(layers=1, heads=2, d=8, ff=16, max_len=8, dropout=0.0)
    batch = batch_inputs([enc_input(TEXTS[2])], VOCAB)
    with pytest.raises(ConfigurationError):
        encode_batch(batch, params, tiny)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EncoderConfig(d=10, heads=4)
    with pytest.raises(ConfigurationError):
        EncoderConfig(layers=0)


def test_param_names_cover_init():
    params = make_params()
    assert sorted(params) == sorted(encoder_param_names(CONFIG))


def test_encoder_gradients_flow_to_embeddings():
    params = make_params()
    tape = nx.Tape()
    states = encode_one(enc_input(TEXTS[0]), params, tape)
    loss = nx.reduce_sum(states.h_cls, tape=tape)
    plist = list(params.values())
    tape.backward(loss, plist)
    assert any(np.abs(p.grad).sum() > 0 for p in plist)
    # only embedding rows of used tokens receive gradient
    used = set(enc_input(TEXTS[0]).token_ids)
    rows = np.abs(params["tok_emb"].grad).sum(axis=1)
    for tok_id in range(len(VOCAB)):
        if tok_id not in used:
            assert rows[tok_id] == 0.0


def encoder_chain(batch, params, config, tape, attention):
    """The encoder as primitives: the embedding and layer chains, then the
    same output slices as ``encode_batch``."""
    x = embedding_chain([params["tok_emb"], params["pos_emb"], params["seg_emb"]],
                        [batch.token_ids, batch.position_ids, batch.segment_ids],
                        params["emb_ln_g"], params["emb_ln_b"], 0.0, None, tape)
    for l in range(config.layers):
        x = layer_chain(x, [params[f"l{l}.{n}"] for n in LAYER_PARAMS], config.heads,
                        batch.mask, 0.0, None, tape, attention)
    B, T, d = x.shape
    W = batch.sent_width
    return [nx.reshape(nx.take(x, [0], 1, tape), (B, d), tape),
            nx.take(x, list(range(1, 1 + W)), 1, tape),
            nx.take(x, batch.sep_positions, 1, tape)] + [
        nx.take(x, list(range(a, b)), 1, tape) for a, b in batch.cat_spans]


def test_fused_attention_matches_the_subgraph_in_every_parameter_gradient():
    """The encoder's layer ops against the primitive chain with attention
    built from primitives: the same states and, on any lane count, every
    parameter gradient."""
    config = EncoderConfig(layers=2, heads=4, d=32, ff=64, max_len=32, dropout=0.0)
    params = init_encoder_params(config, len(VOCAB), SCHEMA.n_cat + 1,
                                 np.random.default_rng(3))
    batch = batch_inputs([enc_input(t) for t in TEXTS], VOCAB)
    assert (batch.mask == 0).any()        # padded keys are exercised

    def run(states_of, n_lanes):
        with nx.Lanes(n_lanes) as ln:
            tape = nx.Tape(ln)
            states = states_of(tape)
            loss = None
            for state in states:
                w = nx.NdArray(np.random.default_rng(state.data.size).normal(size=state.shape))
                term = nx.reduce_sum(nx.mul(state, w, tape), tape=tape)
                loss = term if loss is None else nx.add(loss, term, tape)
            tape.backward(loss, list(params.values()))
        return states, {n: p.grad for n, p in params.items()}, len(tape._entries)

    def fused_states(tape):
        st = encode_batch(batch, params, config, tape=tape)
        return [st.h_cls, st.H_sent, st.H_sep] + st.H_cat

    ref_states, ref, ref_entries = run(
        lambda tape: encoder_chain(batch, params, config, tape, attention_subgraph), 1)
    for lanes in (1, 3):
        states, fused, fused_entries = run(fused_states, lanes)
        # 6 embedding entries and 30 per layer (13 of them the attention subgraph)
        assert fused_entries == ref_entries - 5 - 29 * config.layers
        for got, want in zip(states, ref_states, strict=True):
            assert np.array_equal(got.data, want.data)
        for name in ref:
            if name.endswith(".bk"):
                # true gradient 0 (a key bias shifts each score row by a constant)
                assert np.allclose(fused[name], ref[name], atol=1e-12, rtol=0), name
            else:
                assert np.array_equal(fused[name], ref[name]), name
