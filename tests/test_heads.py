"""Head-level oracles: attend and classify are re-computed with scalar
loops, and head outputs are checked for probability structure and for
shared-decoder weight tying."""

from types import SimpleNamespace

import numpy as np
import pytest

import catsent.numerics as nx
from catsent.encoder import BatchStates
from catsent.errors import (ConfigurationError, DimensionError,
                            EmptySpanError)
from catsent.heads import (DecoderMode, DecoderParams, HeadKind, attend,
                           classify, head_probs, init_decoder_params, read_positions)
from catsent.numerics import NdArray

RNG = np.random.default_rng(13)
D, S, NCAT = 6, 3, 3


def attend_oracle(q, kv):
    scores = kv @ q
    e = np.exp(scores - scores.max())
    w = e / e.sum()
    return w @ kv


def classify_oracle(h, W, b):
    z = W.T @ h + b
    e = np.exp(z - z.max())
    return e / e.sum()


def batch_states(h_cls, H_sent, H_sep, H_cat):
    """BatchStates over arrays with a leading batch axis; no padded sentences."""
    return BatchStates(NdArray(h_cls), NdArray(H_sent), np.ones(H_sent.shape[:2]),
                       NdArray(H_sep), [NdArray(h) for h in H_cat], NCAT)


def make_states(seed=0, batch=1):
    rng = np.random.default_rng(seed)
    H_cat = [rng.normal(size=(batch, 2 + i, D)) for i in range(NCAT)]
    return batch_states(rng.normal(size=(batch, D)), rng.normal(size=(batch, 5, D)),
                        rng.normal(size=(batch, NCAT, D)), H_cat)


def test_attend_matches_scalar_oracle():
    for _ in range(100):
        q = RNG.normal(size=D)
        kv = RNG.normal(size=(4, D))
        got = attend(NdArray(q), NdArray(kv)).data
        assert np.allclose(got, attend_oracle(q, kv), atol=1e-10, rtol=0)


def test_attend_batched_matches_per_row():
    q = RNG.normal(size=(3, D))
    kv = RNG.normal(size=(3, 4, D))
    got = attend(NdArray(q), NdArray(kv)).data
    for b in range(3):
        assert np.allclose(got[b], attend_oracle(q[b], kv[b]), atol=1e-10, rtol=0)


def test_attend_output_in_convex_hull():
    # the attended vector is a convex combination of the rows
    q = RNG.normal(size=D) * 5
    kv = RNG.normal(size=(4, D))
    out = attend(NdArray(q), NdArray(kv)).data
    w = np.linalg.lstsq(kv.T, out, rcond=None)[0]
    assert np.all(w > -1e-8) and abs(w.sum() - 1) < 1e-8


def test_attend_errors():
    with pytest.raises(EmptySpanError):
        attend(NdArray(np.ones(D)), NdArray(np.zeros((0, D))))
    with pytest.raises(DimensionError):
        attend(NdArray(np.ones(D)), NdArray(np.ones((3, D + 1))))


def test_classify_matches_scalar_oracle():
    dec = init_decoder_params(DecoderMode.UNSHARED, NCAT, D, S, RNG)
    for _ in range(100):
        h = RNG.normal(size=D)
        i = int(RNG.integers(NCAT))
        got = classify(NdArray(h), dec, i).data
        want = classify_oracle(h, dec.W.data[i], dec.b.data[i])
        assert np.allclose(got, want, atol=1e-10, rtol=0)


def test_classify_dim_guard():
    dec = init_decoder_params(DecoderMode.SHARED, NCAT, D, S, RNG)
    with pytest.raises(DimensionError):
        classify(NdArray(np.ones(D + 1)), dec, 0)


def test_decoder_param_counts():
    shared = init_decoder_params(DecoderMode.SHARED, NCAT, D, S, RNG)
    unshared = init_decoder_params(DecoderMode.UNSHARED, NCAT, D, S, RNG)
    assert shared.W.shape == (1, D, S) and shared.b.shape == (1, S)
    assert unshared.W.shape == (NCAT, D, S) and unshared.b.shape == (NCAT, S)
    two_W = NdArray(np.concatenate([shared.W.data] * 2))
    two_b = NdArray(np.concatenate([shared.b.data] * 2))
    with pytest.raises(ConfigurationError):
        DecoderParams(DecoderMode.SHARED, two_W, two_b)
    with pytest.raises(ConfigurationError):
        DecoderParams(DecoderMode.UNSHARED, unshared.W, shared.b)


@pytest.mark.parametrize("kind", list(HeadKind))
def test_head_output_shape_and_rows_sum_to_one(kind):
    states = make_states()
    dec = init_decoder_params(DecoderMode.UNSHARED, NCAT, D, S, RNG)
    probs = head_probs(kind, states, dec).data
    assert probs.shape == (1, NCAT, S)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12, rtol=0)


@pytest.mark.parametrize("kind", list(HeadKind))
def test_head_batched_matches_single(kind):
    batched = make_states(seed=1, batch=2)
    dec = init_decoder_params(DecoderMode.SHARED, NCAT, D, S, RNG)
    out = head_probs(kind, batched, dec).data
    assert out.shape == (2, NCAT, S)
    for b in range(2):
        one = slice(b, b + 1)
        single = batch_states(batched.h_cls.data[one], batched.H_sent.data[one],
                              batched.H_sep.data[one], [hc.data[one] for hc in batched.H_cat])
        want = head_probs(kind, single, dec).data
        assert np.allclose(out[b], want[0], atol=1e-12, rtol=0)


def decoder_row(mode, i):
    return 0 if mode is DecoderMode.SHARED else i


@pytest.mark.parametrize("mode", list(DecoderMode))
def test_sep_head_scalar_oracle(mode):
    states = make_states(seed=2)
    dec = init_decoder_params(mode, NCAT, D, S, RNG)
    probs = head_probs(HeadKind.SEP, states, dec).data[0]
    for i in range(NCAT):
        r = decoder_row(mode, i)
        want = classify_oracle(states.H_sep.data[0, i], dec.W.data[r], dec.b.data[r])
        assert np.allclose(probs[i], want, atol=1e-10, rtol=0)


@pytest.mark.parametrize("mode", list(DecoderMode))
def test_cls_att_head_scalar_oracle(mode):
    states = make_states(seed=3)
    dec = init_decoder_params(mode, NCAT, D, S, RNG)
    probs = head_probs(HeadKind.CLS_ATT, states, dec).data[0]
    for i in range(NCAT):
        r = decoder_row(mode, i)
        e_cat = attend_oracle(states.h_cls.data[0], states.H_cat[i].data[0])
        want = classify_oracle(e_cat, dec.W.data[r], dec.b.data[r])
        assert np.allclose(probs[i], want, atol=1e-10, rtol=0)


@pytest.mark.parametrize("mode", list(DecoderMode))
def test_sep_sent_att_head_scalar_oracle(mode):
    states = make_states(seed=4)
    dec = init_decoder_params(mode, NCAT, D, S, RNG)
    probs = head_probs(HeadKind.SEP_SENT_ATT, states, dec).data[0]
    for i in range(NCAT):
        r = decoder_row(mode, i)
        h_sent = attend_oracle(states.H_sep.data[0, i], states.H_sent.data[0])
        e_cat = attend_oracle(h_sent, states.H_cat[i].data[0])
        want = classify_oracle(e_cat, dec.W.data[r], dec.b.data[r])
        assert np.allclose(probs[i], want, atol=1e-10, rtol=0)


def test_shared_mode_ties_weights():
    """With identical features every category gets identical shared probs."""
    rng = np.random.default_rng(5)
    h = rng.normal(size=D)
    states = batch_states(h[None], rng.normal(size=(1, 4, D)), np.tile(h, (1, NCAT, 1)),
                          [np.tile(h, (1, 2, 1)) for _ in range(NCAT)])
    dec = init_decoder_params(DecoderMode.SHARED, NCAT, D, S, rng)
    probs = head_probs(HeadKind.SEP, states, dec).data[0]
    assert np.allclose(probs, probs[0], atol=1e-15, rtol=0)


def test_sep_sent_att_empty_sentence_rejected():
    states = make_states(seed=6)
    states = BatchStates(states.h_cls, NdArray(np.zeros((1, 0, D))), np.ones((1, 0)),
                         states.H_sep, states.H_cat, NCAT)
    dec = init_decoder_params(DecoderMode.SHARED, NCAT, D, S, RNG)
    with pytest.raises(EmptySpanError):
        head_probs(HeadKind.SEP_SENT_ATT, states, dec)


def test_head_gradients_reach_decoder():
    states = make_states(seed=7)
    dec = init_decoder_params(DecoderMode.SHARED, NCAT, D, S, RNG)
    tape = nx.Tape()
    probs = head_probs(HeadKind.SEP_SENT_ATT, states, dec, tape=tape)
    loss = nx.reduce_sum(nx.mul(probs, probs, tape), tape=tape)
    tape.backward(loss, [dec.W, dec.b])
    assert np.abs(dec.W.grad[0]).sum() > 0
    assert np.abs(dec.b.grad[0]).sum() > 0


# make_states' layout: [CLS] 5 sentence positions [SEP], then category spans of
# 2, 3 and 4 tokens, each closed by its [SEP]
LAYOUT = SimpleNamespace(sent_width=5, sep_positions=[9, 13, 18],
                         cat_spans=[(7, 9), (10, 13), (14, 18)])


def test_read_positions_name_the_states_each_head_reads():
    assert read_positions(HeadKind.SEP, LAYOUT) == [9, 13, 18]
    assert read_positions(HeadKind.CLS_ATT, LAYOUT) == [0, 7, 8, 10, 11, 12, 14, 15, 16, 17]
    assert read_positions(HeadKind.SEP_SENT_ATT, LAYOUT) == [
        p for p in range(19) if p not in (0, 6)]


@pytest.mark.parametrize("kind", list(HeadKind))
def test_a_head_needs_no_state_outside_its_read_positions(kind):
    """With every state group that has a position outside the head's read
    positions set to None, the head gives the same probabilities."""
    states = make_states(5, batch=2)
    dec = init_decoder_params(DecoderMode.UNSHARED, NCAT, D, S, np.random.default_rng(1))
    read = set(read_positions(kind, LAYOUT))

    def kept(positions, group):
        return group if read >= set(positions) else None

    cats = [p for a, b in LAYOUT.cat_spans for p in range(a, b)]
    partial = BatchStates(kept([0], states.h_cls), kept(range(1, 6), states.H_sent),
                          states.sent_mask, kept(LAYOUT.sep_positions, states.H_sep),
                          kept(cats, states.H_cat), NCAT)
    assert sum(g is None for g in (partial.h_cls, partial.H_sent, partial.H_sep,
                                   partial.H_cat)) == {HeadKind.SEP: 3, HeadKind.CLS_ATT: 2,
                                                       HeadKind.SEP_SENT_ATT: 1}[kind]
    want = head_probs(kind, states, dec).data
    assert head_probs(kind, partial, dec).data.tobytes() == want.tobytes()
