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
# row-split primitives: the same bits on any number of lanes
# ---------------------------------------------------------------------------


class CountingLanes(nx.Lanes):
    """Lanes that remember the most lanes one call ran on."""

    used = 1

    def each(self, fn, n=None):
        self.used = max(self.used, self.n if n is None else min(n, self.n))
        super().each(fn, n)


def lane_run(build, arrays, lanes):
    """Output and input gradients of ``build(inputs, tape)`` on a tape with
    ``lanes`` lanes, fed a fixed output gradient, and the lanes used."""
    with CountingLanes(lanes) as ln:
        tape = nx.Tape(ln)
        inputs = [nx.NdArray(a.copy()) for a in arrays]
        out = build(inputs, tape)
        g = nx.NdArray(np.random.default_rng(1).normal(size=out.shape))
        tape.backward(scalar_sum(nx.mul(out, g, tape), tape), inputs)
    return [out.data] + [p.grad for p in inputs], ln.used


def dead_last_sample(B, T, rng):
    """Padded keys, and no live key at all in the last sample: only the last
    lane holds it, and the other lanes' samples all have live keys."""
    mask = padded_key_mask(B, T, rng)
    mask[-1] = 0.0
    return mask


# rows of 64 x 256 = 2^14 entries: every batch of two or more rows is large
# enough to split
SPLIT_PRIMITIVES = {
    "gelu": (lambda p, t: nx.gelu(p[0], t), lambda B: [(B, 64, 256)]),
    "layer_norm": (lambda p, t: nx.layer_norm(p[0], p[1], p[2], tape=t),
                   lambda B: [(B, 64, 256), (256,), (256,)]),
    "matmul": (lambda p, t: nx.matmul(p[0], p[1], t), lambda B: [(B, 64, 256), (256, 8)]),
    "dropout": (lambda p, t: nx.dropout(p[0], 0.3, np.random.default_rng(4), t),
                lambda B: [(B, 64, 256)]),
}
for _kind, _mask in [("all-live", lambda B, T, rng: np.ones((B, T))),
                     ("padded", padded_key_mask), ("dead-row", dead_last_sample)]:
    SPLIT_PRIMITIVES["attention-" + _kind] = (
        lambda p, t, mask=_mask: nx.attention(
            p[0], p[1], p[2], 4, mask(len(p[0].data), 64, np.random.default_rng(2)), t),
        lambda B: [(B, 64, 256)] * 3)


@pytest.mark.parametrize("B", [1, 2, 5])
@pytest.mark.parametrize("name", sorted(SPLIT_PRIMITIVES))
def test_split_primitives_give_the_same_bits_on_1_2_and_3_lanes(name, B):
    build, shapes = SPLIT_PRIMITIVES[name]
    rng = np.random.default_rng(B)
    arrays = [rng.normal(size=s) for s in shapes(B)]
    want, _ = lane_run(build, arrays, 1)
    for lanes in (2, 3):
        results, used = lane_run(build, arrays, lanes)
        assert used == min(lanes, B)                    # one row at least per lane
        for got, ref in zip(results, want, strict=True):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (lanes, name)


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
    with CountingLanes(2) as lanes:
        nx.gelu(nx.NdArray(RNG.normal(size=(32, 16))), nx.Tape(lanes))     # a head's feature
        assert lanes.used == 1
        nx.gelu(nx.NdArray(RNG.normal(size=(32, 16, 32))), nx.Tape(lanes))
        assert lanes.used == 2
