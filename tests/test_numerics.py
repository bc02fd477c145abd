"""Primitive-level oracles: every op is checked against plain numpy forward
math and central-difference gradients."""

import numpy as np
import pytest

import catsent.numerics as nx
from catsent.errors import DimensionError, NumericDomainError

RNG = np.random.default_rng(7)


def check_grad(build, shapes, eps=1e-6, tol=1e-6):
    """build(params, tape) -> scalar NdArray; compares tape grads to FD."""
    params = [nx.NdArray(RNG.normal(size=s)) for s in shapes]

    def run():
        tape = nx.Tape()
        loss = build(params, tape)
        tape.backward(loss, params)
        return loss.item()

    def fwd():
        return build(params, None).item()

    err = nx.grad_check(run, params, eps=eps, forward=fwd)
    assert err < tol, err


def scalar_sum(x, tape):
    return nx.reduce_sum(x, tape=tape)


def test_add_sub_mul_forward():
    for _ in range(100):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(3, 4))
        assert np.array_equal(nx.add(nx.NdArray(a), nx.NdArray(b)).data, a + b)
        assert np.array_equal(nx.mul(nx.NdArray(a), nx.NdArray(b)).data, a * b)


def test_elementwise_grads():
    check_grad(lambda p, t: scalar_sum(nx.mul(nx.add(p[0], p[1], t), p[2], t), t),
               [(3, 4), (3, 4), (3, 4)])
    check_grad(lambda p, t: scalar_sum(nx.add(p[0], nx.scale(p[1], -2.5, t), t), t),
               [(5,), (5,)])


def test_broadcast_grads():
    check_grad(lambda p, t: scalar_sum(nx.add(p[0], p[1], t), t), [(4, 3), (3,)])
    check_grad(lambda p, t: scalar_sum(nx.mul(p[0], p[1], t), t), [(2, 1, 3), (4, 3)])


def test_matmul_forward_oracle():
    for _ in range(100):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(4, 5))
        got = nx.matmul(nx.NdArray(a), nx.NdArray(b)).data
        assert np.allclose(got, a @ b, atol=1e-10, rtol=0)


def test_matmul_grads():
    check_grad(lambda p, t: scalar_sum(nx.matmul(p[0], p[1], t), t), [(3, 4), (4, 5)])
    check_grad(lambda p, t: scalar_sum(nx.matmul(p[0], p[1], t), t),
               [(2, 3, 4), (2, 4, 5)])
    check_grad(lambda p, t: scalar_sum(nx.matmul(p[0], p[1], t), t),
               [(2, 3, 4), (4, 5)])


def test_matmul_shape_errors():
    with pytest.raises(DimensionError):
        nx.matmul(nx.NdArray(np.ones(3)), nx.NdArray(np.ones((3, 2))))
    with pytest.raises(DimensionError):
        nx.matmul(nx.NdArray(np.ones((2, 3))), nx.NdArray(np.ones((4, 2))))


def test_reshape_transpose_take_stack_grads():
    check_grad(lambda p, t: scalar_sum(nx.reshape(p[0], (6, 2), t), t), [(3, 4)])
    check_grad(lambda p, t: scalar_sum(nx.transpose(p[0], (1, 0, 2), t), t),
               [(2, 3, 4)])
    check_grad(lambda p, t: scalar_sum(nx.take(p[0], [2, 0, 2], 0, t), t), [(4, 3)])
    check_grad(lambda p, t: scalar_sum(nx.take(p[0], [1, 1], 1, t), t), [(2, 3, 4)])
    check_grad(lambda p, t: scalar_sum(nx.stack([p[0], p[1]], 1, t), t),
               [(3, 4), (3, 4)])


def test_take_forward_matches_numpy():
    a = RNG.normal(size=(5, 4))
    idx = [[0, 2], [4, 4]]
    assert np.array_equal(nx.take(nx.NdArray(a), idx, 0).data, a[np.asarray(idx)])


def test_reduce_grads():
    check_grad(lambda p, t: nx.reduce_sum(p[0], tape=t), [(3, 4)])
    check_grad(lambda p, t: scalar_sum(nx.reduce_sum(p[0], axis=1, tape=t), t),
               [(3, 4)])
    check_grad(lambda p, t: scalar_sum(
        nx.reduce_sum(p[0], axis=-1, keepdims=True, tape=t), t), [(3, 4)])


def test_gelu_forward():
    x = np.linspace(-3, 3, 50)
    g = nx.gelu(nx.NdArray(x)).data
    expect = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))
    assert np.allclose(g, expect, atol=1e-12, rtol=0)


def test_gelu_grad_smooth_everywhere():
    # includes points near zero where relu would fail the FD check
    params = [nx.NdArray(np.linspace(-2, 2, 41))]
    check_grad(lambda p, t: scalar_sum(nx.gelu(p[0], t), t),
               [(41,)])


def gelu_reference(x, g):
    """The tanh-form gelu and its backward, each written as one expression."""
    c = np.sqrt(2.0 / np.pi)
    xx = x * x
    t = np.tanh(c * (x + 0.044715 * (xx * x)))
    dinner = c * (1.0 + 3 * 0.044715 * xx)
    return 0.5 * x * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def layer_norm_reference(x, gain, bias, g, eps=1e-6):
    """Layer norm with ``np.var`` and its backward, each written out."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    dxhat = g * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return xhat * gain + bias, dx, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))


def taped_output_and_grads(op, arrays, g):
    """op's output and the gradients of sum(op(...) * g) for each array."""
    params = [nx.NdArray(a, copy=True) for a in arrays]
    tape = nx.Tape()
    out = op(*params, tape=tape)
    tape.backward(nx.reduce_sum(nx.mul(out, nx.NdArray(g), tape), tape=tape), params)
    return out.data, [p.grad for p in params]


def test_gelu_and_layer_norm_equal_their_reference_formulas():
    x = RNG.normal(size=(6, 7, 24)) * 3 + 5
    gain, bias = RNG.normal(size=24), RNG.normal(size=24)
    g = RNG.normal(size=x.shape)

    out, (dx,) = taped_output_and_grads(nx.gelu, [x], g)
    want_out, want_dx = gelu_reference(x, g)
    assert np.array_equal(out, want_out) and np.array_equal(dx, want_dx)

    out, grads = taped_output_and_grads(nx.layer_norm, [x, gain, bias], g)
    want_out, *want_grads = layer_norm_reference(x, gain, bias, g)
    assert np.array_equal(out, want_out)
    for got, want in zip(grads, want_grads):
        assert np.array_equal(got, want)


def test_untaped_gelu_and_layer_norm_equal_taped_and_leave_the_input():
    x = RNG.normal(size=(5, 9, 16)) * 2 - 1
    kept = x.copy()
    gain, bias = nx.NdArray(RNG.normal(size=16)), nx.NdArray(RNG.normal(size=16))
    assert np.array_equal(nx.gelu(nx.NdArray(x)).data,
                          nx.gelu(nx.NdArray(x), nx.Tape()).data)
    assert np.array_equal(nx.layer_norm(nx.NdArray(x), gain, bias).data,
                          nx.layer_norm(nx.NdArray(x), gain, bias, tape=nx.Tape()).data)
    assert np.array_equal(x, kept)


def test_softmax_rows_sum_to_one():
    for _ in range(100):
        x = RNG.normal(size=(4, 6)) * 10
        p = nx.softmax(nx.NdArray(x)).data
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12, rtol=0)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        assert np.allclose(p, e / e.sum(axis=-1, keepdims=True), atol=1e-12, rtol=0)


def test_softmax_overflow_stability():
    p = nx.softmax(nx.NdArray(np.array([[1000.0, 0.0, -1000.0]]))).data
    assert np.isfinite(p).all() and abs(p.sum() - 1) < 1e-12


def test_softmax_rejects_nan():
    with pytest.raises(NumericDomainError):
        nx.softmax(nx.NdArray(np.array([np.nan, 0.0])))


def test_softmax_grad():
    check_grad(lambda p, t: scalar_sum(
        nx.mul(nx.softmax(p[0], t), p[1], t), t), [(3, 5), (3, 5)])


def test_masked_softmax_zeroes_masked():
    x = RNG.normal(size=(3, 6))
    mask = (RNG.random((3, 6)) > 0.4).astype(float)
    mask[0] = [1, 1, 0, 0, 0, 0]
    p = nx.masked_softmax(nx.NdArray(x), mask).data
    assert np.all(p[mask == 0] == 0.0)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12, rtol=0)
    # oracle: softmax over the kept entries only
    for row in range(3):
        keep = mask[row] > 0
        e = np.exp(x[row, keep] - x[row, keep].max())
        assert np.allclose(p[row, keep], e / e.sum(), atol=1e-12, rtol=0)


def test_masked_softmax_fully_masked_row_uniform():
    p = nx.masked_softmax(nx.NdArray(np.ones((1, 4))), np.zeros((1, 4))).data
    assert np.allclose(p, 0.25, atol=1e-15, rtol=0)


def test_masked_softmax_grad():
    mask = np.array([[1.0, 1, 0, 1], [0, 1, 1, 1]])
    check_grad(lambda p, t: scalar_sum(
        nx.mul(nx.masked_softmax(p[0], mask, t), p[1], t), t), [(2, 4), (2, 4)])


def test_clamped_log():
    x = np.array([1.0, 1e-15, 0.5])
    out = nx.clamped_log(nx.NdArray(x)).data
    assert np.allclose(out, np.log(np.maximum(x, 1e-12)), atol=1e-15, rtol=0)
    check_grad(lambda p, t: scalar_sum(nx.clamped_log(p[0], tape=t), t), [(6,)])


def test_dropout_zero_rate_identity():
    a = nx.NdArray(RNG.normal(size=(3, 3)))
    assert nx.dropout(a, 0.0, np.random.default_rng(0)) is a


def test_dropout_inverted_scaling():
    a = nx.NdArray(np.ones((200, 200)))
    out = nx.dropout(a, 0.3, np.random.default_rng(0)).data
    kept = out > 0
    assert np.allclose(out[kept], 1 / 0.7, atol=1e-12, rtol=0)
    assert abs(kept.mean() - 0.7) < 0.02


def test_layer_norm_stats_and_grad():
    x = RNG.normal(size=(4, 8)) * 3 + 1
    g = nx.NdArray(np.ones(8))
    b = nx.NdArray(np.zeros(8))
    out = nx.layer_norm(nx.NdArray(x), g, b).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-5)
    check_grad(lambda p, t: scalar_sum(
        nx.mul(nx.layer_norm(p[0], p[1], p[2], tape=t), p[3], t), t),
        [(3, 6), (6,), (6,), (3, 6)], eps=1e-6, tol=1e-5)


def test_unreachable_param_gets_zero_grad():
    a = nx.NdArray(np.ones(3))
    b = nx.NdArray(np.ones(3))
    tape = nx.Tape()
    loss = nx.reduce_sum(a, tape=tape)
    tape.backward(loss, [a, b])
    assert np.array_equal(a.grad, np.ones(3))
    assert np.array_equal(b.grad, np.zeros(3))


def test_grad_accumulates_over_reuse():
    a = nx.NdArray(np.array([2.0]))
    tape = nx.Tape()
    loss = nx.reduce_sum(nx.mul(a, a, tape), tape=tape)
    tape.backward(loss, [a])
    assert np.allclose(a.grad, [4.0], atol=1e-15, rtol=0)


# ---------------------------------------------------------------------------
# fused kernels against the primitive subgraphs they replace
# ---------------------------------------------------------------------------


def attention_subgraph(q, k, v, heads, key_mask, tape):
    """Multi-head attention built from primitives, one tape entry per op."""
    B, T, d = q.shape
    dh = d // heads

    def split_heads(t):
        return nx.transpose(nx.reshape(t, (B, T, heads, dh), tape), (0, 2, 1, 3), tape)

    qh, kh, vh = split_heads(q), split_heads(k), split_heads(v)
    scores = nx.scale(nx.matmul(qh, nx.transpose(kh, (0, 1, 3, 2), tape), tape),
                      1.0 / np.sqrt(dh), tape)
    weights = nx.masked_softmax(scores, key_mask[:, None, None, :], tape)
    ctx = nx.transpose(nx.matmul(weights, vh, tape), (0, 2, 1, 3), tape)
    return nx.reshape(ctx, (B, T, d), tape)


def padded_key_mask(B, T, rng):
    """Sentence-style padding: a run of dead keys inside each row, [CLS] live."""
    mask = np.ones((B, T))
    for b in range(B):
        n_pad = rng.integers(0, T // 3)
        mask[b, T // 2 - n_pad:T // 2] = 0.0
    return mask


@pytest.mark.parametrize("T", [64, 42])
def test_attention_matches_primitive_subgraph(T):
    rng = np.random.default_rng(T)
    B, heads, d = 32, 4, 32
    mask = padded_key_mask(B, T, rng)
    g = rng.normal(size=(B, T, d))
    qkv = [rng.normal(size=(B, T, d)) for _ in range(3)]
    results = []
    for build in (nx.attention, attention_subgraph):
        q, k, v = (nx.NdArray(a) for a in qkv)
        tape = nx.Tape()
        out = build(q, k, v, heads, mask, tape)
        tape.backward(nx.reduce_sum(nx.mul(out, nx.NdArray(g), tape), tape=tape),
                      [q, k, v])
        results.append((out.data, q.grad, k.grad, v.grad, len(tape._entries)))
    fused, ref = results
    for got, want in zip(fused[:4], ref[:4]):
        assert np.array_equal(got, want)
    assert fused[4] == 3 and ref[4] == 15   # attention + mul + sum vs 13 + 2


def test_attention_grad_check_with_a_fully_masked_sample():
    mask = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])   # sample 1: no live key
    w = nx.NdArray(RNG.normal(size=(2, 3, 4)))
    check_grad(lambda p, t: scalar_sum(
        nx.mul(nx.attention(p[0], p[1], p[2], 2, mask, t), w, t), t),
        [(2, 3, 4)] * 3)
    out = nx.attention(*(nx.NdArray(RNG.normal(size=(2, 3, 4))) for _ in range(2)),
                       w, 2, mask).data
    assert np.allclose(out[1], w.data[1].mean(axis=0), atol=1e-15, rtol=0)


@pytest.mark.parametrize("mask_kind", ["all-live", "padded", "dead-row"])
def test_untaped_attention_equals_taped(mask_kind):
    rng = np.random.default_rng(11)
    B, T, heads, d = 16, 42, 4, 32
    mask = {"all-live": np.ones((B, T)),
            "padded": padded_key_mask(B, T, rng),
            "dead-row": padded_key_mask(B, T, rng) * (np.arange(B) != 3)[:, None]}[mask_kind]
    q, k, v = (nx.NdArray(rng.normal(size=(B, T, d))) for _ in range(3))
    taped = nx.attention(q, k, v, heads, mask, nx.Tape()).data
    assert np.array_equal(nx.attention(q, k, v, heads, mask).data, taped)


def test_attention_rejects_mismatched_shapes():
    a = nx.NdArray(np.ones((1, 3, 4)))
    with pytest.raises(DimensionError):
        nx.attention(a, nx.NdArray(np.ones((1, 2, 4))), a, 2, np.ones((1, 3)))


def take_grad(a, indices, axis, g):
    tape = nx.Tape()
    out = nx.take(a, indices, axis, tape)
    tape.backward(nx.reduce_sum(nx.mul(out, nx.NdArray(g), tape), tape=tape), [a])
    return a.grad


def test_take_backward_matches_add_at_with_repeats():
    a = nx.NdArray(RNG.normal(size=(50, 8)))
    idx = RNG.integers(0, 20, size=(16, 24))           # many repeats, rows unused
    g = RNG.normal(size=(16, 24, 8))
    want = np.zeros((50, 8))
    np.add.at(want, idx.reshape(-1), g.reshape(-1, 8))
    assert np.array_equal(take_grad(a, idx, 0, g), want)   # same summation order


def test_take_backward_on_a_contiguous_span_and_scattered_columns():
    a = nx.NdArray(RNG.normal(size=(3, 10, 4)))
    for idx in ([4, 5, 6, 7], [2], [7, 1, 7, 3]):
        g = RNG.normal(size=(3, len(idx), 4))
        want = np.zeros((3, 10, 4))
        np.add.at(np.moveaxis(want, 1, 0), idx, np.moveaxis(g, 1, 0))
        assert np.array_equal(take_grad(a, idx, 1, g), want)
        assert np.array_equal(take_grad(a, idx, -2, g), want)


@pytest.mark.parametrize("indices, axis", [([[0, 1], [3, 4]], 1), ([[2, 2], [0, 4]], 1),
                                           ([[1], [0]], -1), (3, 1), (1, 0)])
def test_take_gradient_with_an_index_array_or_int_on_any_axis(indices, axis):
    a = nx.NdArray(RNG.normal(size=(2, 5, 3)))
    weights = nx.NdArray(RNG.normal(size=np.take(a.data, indices, axis).shape))

    def run():
        tape = nx.Tape()
        loss = scalar_sum(nx.mul(nx.take(a, indices, axis, tape), weights, tape), tape)
        tape.backward(loss, [a])
        return loss.item()

    assert nx.grad_check(run, [a]) < 1e-6


def masked_softmax_fallback(x, mask, g):
    """The masked softmax and its backward with every mask applied by where."""
    shifted = x + np.where(mask > 0, 0.0, -np.inf)
    m = shifted.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(shifted - m)
    z = e.sum(axis=-1, keepdims=True)
    p = np.where(z > 0, e / np.where(z > 0, z, 1.0), 1.0 / x.shape[-1])
    gx = p * (g - (g * p).sum(axis=-1, keepdims=True))
    return p, np.where(mask > 0, gx, 0.0)


@pytest.mark.parametrize("dead_row", [False, True])
def test_masked_softmax_fast_path_equals_fallback(dead_row):
    x = RNG.normal(size=(6, 9)) * 4
    mask = (RNG.random((6, 9)) > 0.5).astype(float)
    mask[:, 0] = 1.0
    if dead_row:
        mask[3] = 0.0
    g = RNG.normal(size=(6, 9))
    xv = nx.NdArray(x)
    tape = nx.Tape()
    p = nx.masked_softmax(xv, mask, tape)
    tape.backward(nx.reduce_sum(nx.mul(p, nx.NdArray(g), tape), tape=tape), [xv])
    want_p, want_gx = masked_softmax_fallback(x, mask, g)
    assert np.array_equal(p.data, want_p)
    assert np.array_equal(xv.grad, want_gx)


# ---------------------------------------------------------------------------
# layer ops against the primitive chains they replace, on 1, 2 and 3 lanes
# ---------------------------------------------------------------------------


class CountingLanes(nx.Lanes):
    """Lanes that remember the most lanes one call ran on."""

    used = 1

    def each(self, fn, n=None):
        self.used = max(self.used, self.n if n is None else min(n, self.n))
        super().each(fn, n)


def dead_last_sample(B, T, rng):
    """Padded keys, and no live key at all in the last sample: only the last
    lane holds it, and the other lanes' samples all have live keys."""
    mask = padded_key_mask(B, T, rng)
    mask[-1] = 0.0
    return mask


KEY_MASKS = {"all-live": lambda B, T, rng: np.ones((B, T)), "padded": padded_key_mask,
             "dead-row": dead_last_sample}


def embedding_chain(tables, indices, gain, bias, rate, rng, tape):
    """The embedding block as primitives: three takes, two adds, layer norm,
    dropout."""
    x = None
    for table, idx in zip(tables, indices):
        rows = nx.take(table, idx, 0, tape)
        x = rows if x is None else nx.add(x, rows, tape)
    return nx.dropout(nx.layer_norm(x, gain, bias, tape=tape), rate, rng, tape)


def layer_chain(x, weights, heads, key_mask, rate, rng, tape, attention=nx.attention):
    """One post-norm transformer layer as primitives, one tape entry per op."""
    wq, bq, wk, bk, wv, bv, wo, bo, g1, b1, w1, c1, w2, c2, g2, b2 = weights

    def linear(h, w, b):
        return nx.add(nx.matmul(h, w, tape), b, tape)

    ctx = attention(linear(x, wq, bq), linear(x, wk, bk), linear(x, wv, bv),
                    heads, key_mask, tape)
    att = nx.dropout(linear(ctx, wo, bo), rate, rng, tape)
    x = nx.layer_norm(nx.add(x, att, tape), g1, b1, tape=tape)
    ffn = nx.dropout(linear(nx.gelu(linear(x, w1, c1), tape), w2, c2), rate, rng, tape)
    return nx.layer_norm(nx.add(x, ffn, tape), g2, b2, tape=tape)


def layer_arrays(B, T, d, ff, rng):
    """A layer's input and its 16 weights, biases and layer-norm gains and
    offsets, all away from their initial values."""
    shapes = [(d, d), (d,)] * 4 + [(d,), (d,), (d, ff), (ff,), (ff, d), (d,), (d,), (d,)]
    return [rng.normal(size=(B, T, d))] + [rng.normal(scale=0.3, size=s) for s in shapes]


def op_run(build, arrays, lanes):
    """Output and the gradients of every array of ``build(arrays, tape)`` on
    a tape with ``lanes`` lanes, fed a fixed output gradient, with the tape
    entries and the most lanes one hand-over used."""
    with CountingLanes(lanes) as ln:
        tape = nx.Tape(ln)
        inputs = [nx.NdArray(a.copy()) for a in arrays]
        out = build(inputs, tape)
        entries = len(tape._entries)
        g = nx.NdArray(np.random.default_rng(1).normal(size=out.shape))
        tape.backward(scalar_sum(nx.mul(out, g, tape), tape), inputs)
    return [out.data] + [p.grad for p in inputs], entries, ln.used


def assert_same_bits(results, want, what):
    for i, (got, ref) in enumerate(zip(results, want, strict=True)):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (what, i)


@pytest.mark.parametrize("rate", [0.0, 0.2], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("mask_kind", sorted(KEY_MASKS))
@pytest.mark.parametrize("B", [1, 2, 5])
def test_transformer_layer_equals_the_primitive_chain_on_1_2_and_3_lanes(B, mask_kind, rate):
    T, d, ff, heads = 12, 16, 24, 4
    rng = np.random.default_rng(B)
    arrays = layer_arrays(B, T, d, ff, rng)
    mask = KEY_MASKS[mask_kind](B, T, rng)

    def op(p, tape):
        return nx.transformer_layer(p[0], p[1:], heads, mask, rate,
                                    np.random.default_rng(4), tape)

    want, chain_entries, _ = op_run(
        lambda p, tape: layer_chain(p[0], p[1:], heads, mask, rate,
                                    np.random.default_rng(4), tape), arrays, 1)
    assert chain_entries == 18 + 2 * (rate > 0)
    for lanes in (1, 2, 3):
        results, entries, used = op_run(op, arrays, lanes)
        assert entries == 1 and used == min(lanes, B)
        assert_same_bits(results, want, lanes)
    untaped = nx.transformer_layer(nx.NdArray(arrays[0]), [nx.NdArray(a) for a in arrays[1:]],
                                   heads, mask, rate, np.random.default_rng(4)).data
    assert untaped.tobytes() == want[0].tobytes()


@pytest.mark.parametrize("rate", [0.0, 0.2], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("B", [1, 2, 5])
def test_embedding_equals_the_primitive_chain_on_1_2_and_3_lanes(B, rate):
    T, d = 12, 16
    rng = np.random.default_rng(B)
    indices = [rng.integers(0, n, size=(B, T)) for n in (20, T, 3)]   # repeats in each
    arrays = ([rng.normal(size=(n, d)) for n in (20, T, 3)]
              + [rng.normal(size=d), rng.normal(size=d)])

    def chain(p, tape):
        return embedding_chain(p[:3], indices, p[3], p[4], rate, np.random.default_rng(4), tape)

    def op(p, tape):
        return nx.embedding(p[:3], indices, p[3], p[4], rate, np.random.default_rng(4), tape)

    want, chain_entries, _ = op_run(chain, arrays, 1)
    assert chain_entries == 6 + (rate > 0)
    for lanes in (1, 2, 3):
        results, entries, used = op_run(op, arrays, lanes)
        assert entries == 1 and used == min(lanes, B)
        assert_same_bits(results, want, lanes)
    params = [nx.NdArray(a) for a in arrays]
    untaped = nx.embedding(params[:3], indices, params[3], params[4], rate,
                           np.random.default_rng(4)).data
    assert untaped.tobytes() == want[0].tobytes()


# ---------------------------------------------------------------------------
# the kernels the layer ops split: the same bits on any number of lanes
# ---------------------------------------------------------------------------


def primitive_run(build, arrays, g):
    """Output and input gradients of the public primitive on a plain tape."""
    inputs = [nx.NdArray(a.copy()) for a in arrays]
    tape = nx.Tape()
    out = build(inputs, tape)
    tape.backward(scalar_sum(nx.mul(out, nx.NdArray(g), tape), tape), inputs)
    return [out.data] + [p.grad for p in inputs]


def split_gelu(lanes, g, x):
    xx, t, y, dx = (np.empty_like(x) for _ in range(4))
    lanes.split(len(x), lambda s: nx._gelu(x[s], xx[s], t[s], y[s]))

    def back(s):
        dx[s] = nx._gelu_grad(g[s], x[s], xx[s], t[s])

    lanes.split(len(x), back)
    return [y, dx]


def split_layer_norm(lanes, g, x, gain, bias):
    xhat, y, dx = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    inv = np.empty(x.shape[:-1] + (1,))
    lanes.split(len(x), lambda s: nx._layer_norm(x[s], gain, bias, xhat[s], inv[s], y[s],
                                                 nx.LN_EPS))

    def back(s):
        dx[s] = nx._layer_norm_grad(g[s], gain, xhat[s], inv[s])

    lanes.split(len(x), back)
    return [y, dx, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))]


def split_matmul(lanes, g, x, w):
    y, gx = np.empty(g.shape), np.empty_like(x)
    stack = np.empty((len(x),) + w.shape)
    lanes.split(len(x), lambda s: np.matmul(x[s], w, out=y[s]))
    lanes.split(len(x), lambda s: nx._linear_grad(g[s], x[s], w, gx[s], stack[s]))
    return [y, gx, stack.sum(axis=0)]


def split_dropout(lanes, g, x):
    keep = np.random.default_rng(4).random(x.shape)
    y, dx = np.empty_like(x), np.empty_like(x)

    def forward(s):
        np.multiply(x[s], nx._keep(keep[s], 0.3), out=y[s])

    lanes.split(len(x), forward)
    lanes.split(len(x), lambda s: np.multiply(g[s], keep[s], out=dx[s]))
    return [y, dx]


def split_attention(mask):
    def run(lanes, g, q, k, v):
        B, T, d = q.shape
        heads, c = 4, 1.0 / np.sqrt(d // 4)
        qh, kh, vh = (nx._heads(a, heads) for a in (q, k, v))
        bias = nx._key_bias(mask)
        p, y = np.empty((B, heads, T, T)), np.empty((B, T, heads, d // heads))
        live = []
        lanes.split(B, lambda s: live.append(
            nx._attention(qh[s], kh[s], vh[s], bias[s], c, p[s], y[s])))
        dead = None if all(live) else mask
        gq, gv = np.empty_like(y), np.empty_like(y)
        gk = np.empty((B, heads, d // heads, T))
        lanes.split(B, lambda s: nx._attention_grad(
            g[s], p[s], qh[s], kh[s], vh[s], c, None if dead is None else dead[s],
            gq[s], gk[s], gv[s]))
        return [y.reshape(B, T, d), *nx._merged(gq, gk, gv)]
    return run


# each case: (the public primitive, the layer ops' row-split use of its
# kernel, the shapes of its arrays for B samples)
SPLIT_PRIMITIVES = {
    "gelu": (lambda p, t: nx.gelu(p[0], t), split_gelu, lambda B: [(B, 8, 32)]),
    "layer_norm": (lambda p, t: nx.layer_norm(p[0], p[1], p[2], tape=t), split_layer_norm,
                   lambda B: [(B, 8, 32), (32,), (32,)]),
    "matmul": (lambda p, t: nx.matmul(p[0], p[1], t), split_matmul,
               lambda B: [(B, 8, 32), (32, 6)]),
    "dropout": (lambda p, t: nx.dropout(p[0], 0.3, np.random.default_rng(4), t),
                split_dropout, lambda B: [(B, 8, 32)]),
}
for _kind, _mask in KEY_MASKS.items():
    SPLIT_PRIMITIVES["attention-" + _kind] = (
        lambda p, t, mask=_mask: nx.attention(
            p[0], p[1], p[2], 4, mask(len(p[0].data), 16, np.random.default_rng(2)), t),
        lambda lanes, g, *a, mask=_mask: split_attention(
            mask(len(a[0]), 16, np.random.default_rng(2)))(lanes, g, *a),
        lambda B: [(B, 16, 32)] * 3)


@pytest.mark.parametrize("B", [1, 2, 5])
@pytest.mark.parametrize("name", sorted(SPLIT_PRIMITIVES))
def test_split_primitives_give_the_same_bits_on_1_2_and_3_lanes(name, B):
    """Each kernel run on row slices across lanes, as the layer ops run it
    (sums across rows on the calling thread), gives the public primitive's
    output and gradients bit for bit."""
    build, split, shapes = SPLIT_PRIMITIVES[name]
    rng = np.random.default_rng(B)
    arrays = [rng.normal(size=s) for s in shapes(B)]
    g = np.random.default_rng(1).normal(size=build([nx.NdArray(a) for a in arrays], None).shape)
    want = primitive_run(build, arrays, g)
    for lanes in (1, 2, 3):
        with CountingLanes(lanes) as ln:
            results = split(ln, g, *arrays)
        assert ln.used == min(lanes, B)                   # one row at least per lane
        assert_same_bits(results, want, (lanes, name))


def test_lanes_wait_for_every_lane_and_raise_a_lane_error():
    seen = []

    def fill(s):
        if s.start == 4:
            raise ZeroDivisionError("lane 2 failed")
        seen.append((s.start, s.stop))

    with nx.Lanes(3) as lanes:
        lanes.split(7, lambda s: seen.append((s.start, s.stop)))
        assert sorted(seen) == [(0, 2), (2, 4), (4, 7)]
        seen.clear()
        with pytest.raises(ZeroDivisionError):
            lanes.split(7, fill)
        assert sorted(seen) == [(0, 2), (2, 4)]
        seen.clear()
        lanes.split(2, lambda s: seen.append((s.start, s.stop)))   # fewer rows than lanes
        assert sorted(seen) == [(0, 1), (1, 2)]


def test_arrays_too_small_to_pay_for_a_hand_over_stay_on_one_lane():
    """One primitive's work does not pay for a hand-over, whatever its
    size: primitives run on the calling thread, and only the layer ops,
    a whole encoder block each, split their rows."""
    with CountingLanes(2) as lanes:
        nx.gelu(nx.NdArray(RNG.normal(size=(32, 16))), nx.Tape(lanes))     # a head's feature
        nx.gelu(nx.NdArray(RNG.normal(size=(32, 16, 32))), nx.Tape(lanes))
        nx.attention(*(nx.NdArray(RNG.normal(size=(4, 6, 8))) for _ in range(3)), 2,
                     np.ones((4, 6)), nx.Tape(lanes))
        assert lanes.used == 1
        arrays = layer_arrays(4, 6, 8, 16, RNG)
        nx.transformer_layer(nx.NdArray(arrays[0]), [nx.NdArray(a) for a in arrays[1:]], 2,
                             np.ones((4, 6)), 0.1, np.random.default_rng(0), nx.Tape(lanes))
        assert lanes.used == 2
