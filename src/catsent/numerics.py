"""Dense float64 arrays with reverse-mode gradients over an explicit tape.

Every primitive takes an optional ``tape``; with ``tape=None`` it is a plain
forward computation. A tape is rebuilt for every forward pass and replayed
once backward. All math is float64 so finite-difference checks at eps=1e-4
are reliable.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericDomainError

LOG_FLOOR = 1e-12


class NdArray:
    """A dense real array with an optional gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data, copy: bool = False):
        arr = np.array(data, dtype=np.float64) if copy else np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def copy(self) -> "NdArray":
        return NdArray(self.data, copy=True)

    def __repr__(self) -> str:
        return f"NdArray(shape={self.data.shape})"


class Lanes:
    """The CPUs a tape's layer ops may use: the calling thread and, inside a
    ``with`` block, a pool of ``n - 1`` threads.

    ``split`` cuts the rows of a batch into one contiguous slice per lane.
    Each slice runs raw numpy kernels and writes only its own rows of
    buffers made beforehand; every sum across rows stays outside the
    slices, so a result does not depend on the lane count.
    """

    def __init__(self, n: int = 1):
        self.n = max(n, 1)
        self._pool = None

    def __enter__(self) -> "Lanes":
        if self.n > 1:
            # imported on first use: a one-lane program need not pay for it
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(self.n - 1)
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def each(self, fn: Callable[[int], None], n: int | None = None) -> None:
        """Run ``fn(k)`` for lanes k = 0 .. n - 1 (default all), lane 0 on
        the calling thread; return when every lane has finished, raising
        the first error."""
        n = self.n if n is None else min(n, self.n)
        futures = [self._pool.submit(fn, k) for k in range(1, n)]
        try:
            fn(0)
        finally:
            for f in futures:       # no lane may still write once the caller goes on
                f.exception()
        for f in futures:
            f.result()

    def split(self, rows: int, fn: Callable[[slice], None]) -> None:
        """Run ``fn(s)`` over contiguous slices ``s`` that cover
        ``range(rows)``, at most one per lane and one row at least; a single
        lane gets ``slice(None)``."""
        n = min(self.n, rows)
        if n <= 1:
            fn(slice(None))
            return
        cuts = [rows * k // n for k in range(n + 1)]
        self.each(lambda k: fn(slice(cuts[k], cuts[k + 1])), n)


_ONE_LANE = Lanes()


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Each entry holds the output array, the differentiable inputs, and a
    closure computing input gradients from the output gradient. ``record``
    and ``backward`` run on the one thread that owns the tape. The layer
    ops (``embedding``, ``transformer_layer``) hand the batch's rows to the
    tape's ``lanes`` once in their forward and once in their backward, and
    return when every lane is done; every other primitive runs on the
    calling thread alone.
    """

    def __init__(self, lanes: Lanes = _ONE_LANE):
        self.lanes = lanes
        self._entries: list[tuple[NdArray, tuple[NdArray, ...], Callable]] = []

    def record(self, out: NdArray, inputs: tuple[NdArray, ...], backward: Callable) -> None:
        self._entries.append((out, inputs, backward))

    def backward(self, loss: NdArray, params: Sequence[NdArray]) -> None:
        """Populate ``p.grad`` for every param; unreachable params get zeros."""
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for out, inputs, bwd in reversed(self._entries):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for inp, gin in zip(inputs, bwd(g)):
                if gin is None:
                    continue
                acc = grads.get(id(inp))
                if acc is None:
                    grads[id(inp)] = gin
                else:
                    grads[id(inp)] = acc + gin
        for p in params:
            g = grads.get(id(p))
            p.grad = np.zeros_like(p.data) if g is None else np.asarray(g, dtype=np.float64)


def _record(tape: Tape | None, out: NdArray, inputs, backward) -> NdArray:
    if tape is not None:
        tape.record(out, tuple(inputs), backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient ``g`` down to ``shape`` (reverses numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# kernels: the arithmetic of the heavier primitives on whatever rows they
# are given. A public primitive runs its kernel once over the whole array;
# the layer ops run the same kernels on each lane's rows.
# ---------------------------------------------------------------------------

LN_EPS = 1e-6
_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu(x: np.ndarray, xx: np.ndarray, t: np.ndarray, y: np.ndarray) -> None:
    """``y = gelu(x)``, keeping x² in ``xx`` and the tanh in ``t`` for the
    backward. With ``y is xx`` (forward only) the result is finished in
    place and neither is kept."""
    np.multiply(x, x, out=xx)
    np.multiply(xx, x, out=t)            # tanh(c * (x + 0.044715 x³)), built in place
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    if y is xx:                          # 0.5 x (1 + t) in xx's buffer
        t += 1.0
        np.multiply(x, 0.5, out=xx)
        xx *= t
    else:
        y[...] = 0.5 * x * (1.0 + t)


def _gelu_grad(g: np.ndarray, x: np.ndarray, xx: np.ndarray, t: np.ndarray) -> np.ndarray:
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * xx)
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def _layer_norm(X: np.ndarray, gain: np.ndarray, bias: np.ndarray, xhat: np.ndarray,
                inv: np.ndarray, y: np.ndarray, eps: float) -> None:
    """``y = xhat·gain + bias`` with ``xhat = (X − mean)·inv`` and ``inv =
    1/sqrt(var + eps)`` over the last axis. The variance is ``np.var``'s
    arithmetic on the one centred array that becomes ``xhat``. ``xhat`` may
    be ``X``, and ``y`` may be ``xhat`` when ``xhat`` is not kept."""
    np.subtract(X, X.mean(axis=-1, keepdims=True), out=xhat)
    var = np.square(xhat).sum(axis=-1, keepdims=True) / X.shape[-1]
    np.divide(1.0, np.sqrt(var + eps), out=inv)
    xhat *= inv
    np.multiply(xhat, gain, out=y)
    y += bias


def _layer_norm_grad(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                     inv: np.ndarray) -> np.ndarray:
    dxhat = g * gain
    return inv * (dxhat
                  - dxhat.mean(axis=-1, keepdims=True)
                  - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))


def _heads(t: np.ndarray, heads: int) -> np.ndarray:
    """[b, T, d] -> [b, h, T, d/h], a view."""
    b, T, d = t.shape
    return t.reshape(b, T, heads, d // heads).transpose(0, 2, 1, 3)


def _key_bias(key_mask: np.ndarray) -> np.ndarray:
    """The additive 0 / -inf score bias [B, 1, 1, T] of a key mask."""
    return np.where(key_mask > 0, 0.0, -np.inf)[:, None, None, :]


def _attention(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, bias: np.ndarray,
               c: float, p: np.ndarray, y: np.ndarray) -> bool:
    """Weights ``p`` [b, h, T, T] and head-split result ``y`` [b, T, h, dh]
    of head-split projections; returns whether every query row had a live
    key."""
    np.matmul(qh, kh.transpose(0, 1, 3, 2), out=p)
    p *= c
    p += bias
    live = _masked_exp_normalize(p)
    y[...] = np.matmul(p, vh).transpose(0, 2, 1, 3)
    return live


def _attention_grad(g: np.ndarray, p: np.ndarray, qh: np.ndarray, kh: np.ndarray,
                    vh: np.ndarray, c: float, dead_mask: np.ndarray | None,
                    gq: np.ndarray, gk: np.ndarray, gv: np.ndarray) -> None:
    """``dv = pᵀg``, ``ds = c·p⊙(gvᵀ − rowsum(gvᵀ⊙p))``, ``dq = ds·k`` and
    ``dk = dsᵀq`` of the result's gradient ``g`` [b, T, d]: dq and dv into
    [b, T, h, dh] buffers, dk into a [b, h, dh, T] one. ``dead_mask`` (the
    key mask, given when some query row had no live key) zeroes the masked
    scores."""
    gh = _heads(g, qh.shape[1])
    gv[...] = np.matmul(p.swapaxes(-1, -2), gh).transpose(0, 2, 1, 3)
    ds = np.matmul(gh, vh.swapaxes(-1, -2))     # dL/dp, made dL/dscores in place
    dot = (ds * p).sum(axis=-1, keepdims=True)
    ds -= dot
    ds *= p
    if dead_mask is not None:
        ds = np.where(dead_mask[:, None, None, :] > 0, ds, 0.0)
    ds *= c
    gq[...] = np.matmul(ds, kh).transpose(0, 2, 1, 3)
    np.matmul(qh.swapaxes(-1, -2), ds, out=gk)


def _attention_lean(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray,
                    key_mask: np.ndarray, c: float) -> np.ndarray:
    """Forward-only attention, [B, T, d]: one head's [B, T, T] weights at a
    time in one reused buffer, the same per-matrix products as
    ``_attention``."""
    B, heads, T, dh = qh.shape
    bias = np.where(key_mask > 0, 0.0, -np.inf)[:, None, :]
    s = np.empty((B, T, T))
    ctx = np.empty((B, heads, T, dh))
    for h in range(heads):
        np.matmul(qh[:, h], kh[:, h].transpose(0, 2, 1), out=s)
        s *= c
        s += bias
        _masked_exp_normalize(s)
        np.matmul(s, vh[:, h], out=ctx[:, h])
    return ctx.transpose(0, 2, 1, 3).reshape(B, T, heads * dh)


def _merged(gq: np.ndarray, gk: np.ndarray, gv: np.ndarray) -> tuple[np.ndarray, ...]:
    """The [B, T, d] views of the attention kernel's input gradients. dk keeps
    the [B, h, dh, T] memory order of dsᵀq: the k projection's weight and
    bias sums run over it in that order."""
    B, T = gq.shape[:2]
    return tuple(t.reshape(B, T, -1) for t in (gq, gk.transpose(0, 3, 1, 2), gv))


def _keep(keep: np.ndarray, rate: float) -> np.ndarray:
    """Turn uniform draws into inverted-dropout factors, in place."""
    return np.divide(keep >= rate, 1.0 - rate, out=keep)


def _scatter_add(gm: np.ndarray, flat: np.ndarray, rows: np.ndarray) -> None:
    """Set row i of ``gm`` to the sum of the ``rows`` whose index in ``flat``
    is i (0 where none is). One bincount over (index, column) bins adds
    repeats in index order, exactly as ``np.add.at`` does, at a fraction of
    its cost."""
    cols = gm.size // gm.shape[0]
    bins = (flat[:, None] * cols + np.arange(cols)).reshape(-1)
    gm[...] = np.bincount(bins, weights=rows.reshape(-1),
                          minlength=gm.size).reshape(gm.shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a: NdArray, b: NdArray, tape: Tape | None = None) -> NdArray:
    out = NdArray(a.data + b.data)
    return _record(tape, out, (a, b),
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: NdArray, b: NdArray, tape: Tape | None = None) -> NdArray:
    out = NdArray(a.data * b.data)
    return _record(tape, out, (a, b),
                   lambda g: (_unbroadcast(g * b.data, a.shape),
                              _unbroadcast(g * a.data, b.shape)))


def scale(a: NdArray, c: float, tape: Tape | None = None) -> NdArray:
    out = NdArray(a.data * c)
    return _record(tape, out, (a,), lambda g: (g * c,))


def matmul(a: NdArray, b: NdArray, tape: Tape | None = None) -> NdArray:
    """Batched matrix product; operands must be at least 2-D."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = NdArray(np.matmul(a.data, b.data))

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _record(tape, out, (a, b), backward)


def reshape(a: NdArray, shape, tape: Tape | None = None) -> NdArray:
    old = a.shape
    out = NdArray(a.data.reshape(shape))
    return _record(tape, out, (a,), lambda g: (g.reshape(old),))


def transpose(a: NdArray, axes, tape: Tape | None = None) -> NdArray:
    inv = np.argsort(axes)
    out = NdArray(np.transpose(a.data, axes))
    return _record(tape, out, (a,), lambda g: (np.transpose(g, inv),))


def take(a: NdArray, indices, axis: int, tape: Tape | None = None) -> NdArray:
    """Index-select along ``axis`` as ``np.take`` does: the index's axes
    replace ``axis`` (an int index drops it). The backward scatter-adds
    (repeats allowed).

    A contiguous run of indices scatters back by one slice assignment; any
    other index set is summed by one ``np.bincount``.
    """
    idx = np.asarray(indices, dtype=np.intp)
    axis %= a.ndim
    out = NdArray(np.take(a.data, idx, axis=axis))
    flat = idx.reshape(-1)
    span = (idx.ndim <= 1 and flat.size > 0
            and bool((np.diff(flat) == 1).all()))
    idx_axes = range(axis, axis + idx.ndim)

    def backward(g):
        ga = np.zeros_like(a.data)
        gm = np.moveaxis(ga, axis, 0)
        # one row of g per entry of the flattened index
        rows = np.moveaxis(g, idx_axes, range(idx.ndim)).reshape(
            (flat.size,) + gm.shape[1:])
        if span:
            gm[flat[0]:flat[-1] + 1] = rows
        elif flat.size:
            _scatter_add(gm, flat, rows)
        return (ga,)

    return _record(tape, out, (a,), backward)


def stack(arrays: Sequence[NdArray], axis: int, tape: Tape | None = None) -> NdArray:
    out = NdArray(np.stack([a.data for a in arrays], axis=axis))

    def backward(g):
        pieces = np.moveaxis(g, axis, 0)
        return tuple(pieces[i] for i in range(len(arrays)))

    return _record(tape, out, tuple(arrays), backward)


def reduce_sum(a: NdArray, axis=None, keepdims: bool = False,
               tape: Tape | None = None) -> NdArray:
    out = NdArray(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record(tape, out, (a,), backward)


def sum_squares(arrays: Sequence[NdArray], stacked: NdArray, rows: Sequence[int],
                tape: Tape | None = None) -> NdArray:
    """Σ ‖p‖² over ``arrays`` and over rows ``rows`` of ``stacked``, added
    term by term in that order, as one tape entry.

    The backward gives each array ``g·p + g·p``, the two factor gradients of
    ``p·p``, and each selected row of ``stacked`` the same; the rows add up
    as separate terms would (the other rows are 0).
    """
    rows = list(rows)
    total = None
    for x in [p.data for p in arrays] + [np.take(stacked.data, i, axis=0) for i in rows]:
        term = (x * x).sum()
        total = term if total is None else total + term
    out = NdArray(total)

    def backward(g):
        grads = [g * p.data + g * p.data for p in arrays]
        if not rows:
            return (*grads, None)
        gs = np.zeros_like(stacked.data)
        picked = stacked.data[rows]
        gs[rows] = g * picked + g * picked
        if len(rows) > 1:
            gs += 0.0          # as the rows' terms, each 0 off its row, added up: -0.0 -> 0.0
        return (*grads, gs)

    return _record(tape, out, (*arrays, stacked), backward)


def gelu(a: NdArray, tape: Tape | None = None) -> NdArray:
    """Smooth gelu (tanh form); the derivative is exact for this form, so
    finite-difference checks are kink-free."""
    x = a.data
    xx, t = np.empty_like(x), np.empty_like(x)
    if tape is None:
        _gelu(x, xx, t, xx)
        return NdArray(xx)
    y = np.empty_like(x)
    _gelu(x, xx, t, y)
    return _record(tape, NdArray(y), (a,), lambda g: (_gelu_grad(g, x, xx, t),))


def softmax(x: NdArray, tape: Tape | None = None) -> NdArray:
    """Stable softmax along the last axis."""
    if not np.isfinite(x.data).all():
        raise NumericDomainError("softmax input contains NaN/Inf")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = NdArray(p)

    def backward(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _record(tape, out, (x,), backward)


def masked_softmax(x: NdArray, mask: np.ndarray, tape: Tape | None = None) -> NdArray:
    """Softmax along the last axis restricted to positions where mask==1.

    Masked positions get exactly zero weight. A fully masked row yields a
    uniform distribution (such rows are themselves masked downstream).
    """
    p = x.data + np.where(mask > 0, 0.0, -np.inf)
    all_live = _masked_exp_normalize(p)
    out = NdArray(p)

    def backward(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        gx = p * (g - dot)
        # p is exactly 0 on masked entries of rows with a live entry
        return (gx if all_live else np.where(mask > 0, gx, 0.0),)

    return _record(tape, out, (x,), backward)


def _masked_exp_normalize(s: np.ndarray) -> bool:
    """Turn masked scores ``s`` (-inf where masked) into softmax weights in
    place; returns whether every row had a live entry.

    A row with no live entry becomes uniform. When every row has one, the
    division runs in place and no masked fallback is built.
    """
    m = s.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    # masked entries are -inf after the (finite) shift, so exp gives exact 0
    s -= m
    np.exp(s, out=s)
    z = s.sum(axis=-1, keepdims=True)
    if (z > 0).all():
        s /= z
        return True
    s[...] = np.where(z > 0, s / np.where(z > 0, z, 1.0), 1.0 / s.shape[-1])
    return False


def attention(q: NdArray, k: NdArray, v: NdArray, heads: int,
              key_mask: np.ndarray, tape: Tape | None = None) -> NdArray:
    """Multi-head scaled dot-product attention over ``[B, T, d]`` projections.

    Splits d into ``heads`` heads, attends every query to the keys where
    ``key_mask`` ([B, T], 0/1) is 1 and merges the heads back to [B, T, d].
    One tape entry; the backward is ``_attention_grad`` with c =
    1/sqrt(d/heads). Untaped, the forward holds one head's scores at a time.
    """
    B, T, d = q.shape
    if k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(f"attention shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    dh = d // heads
    c = 1.0 / np.sqrt(dh)
    qh, kh, vh = (_heads(t.data, heads) for t in (q, k, v))
    if tape is None:
        return NdArray(_attention_lean(qh, kh, vh, key_mask, c))
    p = np.empty((B, heads, T, T))
    y = np.empty((B, T, heads, dh))
    all_live = _attention(qh, kh, vh, _key_bias(key_mask), c, p, y)

    def backward(g):
        gq, gv = np.empty((B, T, heads, dh)), np.empty((B, T, heads, dh))
        gk = np.empty((B, heads, dh, T))
        _attention_grad(g, p, qh, kh, vh, c, None if all_live else key_mask, gq, gk, gv)
        return _merged(gq, gk, gv)

    return _record(tape, NdArray(y.reshape(B, T, d)), (q, k, v), backward)


def clamped_log(a: NdArray, floor: float = LOG_FLOOR, tape: Tape | None = None) -> NdArray:
    clamped = np.maximum(a.data, floor)
    out = NdArray(np.log(clamped))
    return _record(tape, out, (a,),
                   lambda g: (np.where(a.data > floor, g / clamped, 0.0),))


def dropout(a: NdArray, rate: float, rng: np.random.Generator,
            tape: Tape | None = None) -> NdArray:
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return a
    keep = _keep(rng.random(a.shape), rate)
    return _record(tape, NdArray(a.data * keep), (a,), lambda g: (g * keep,))


def layer_norm(x: NdArray, gain: NdArray, bias: NdArray, eps: float = LN_EPS,
               tape: Tape | None = None) -> NdArray:
    """Normalize the last axis to zero mean / unit variance, then affine
    (``_layer_norm``)."""
    X = x.data
    xhat = np.empty_like(X)
    inv = np.empty(X.shape[:-1] + (1,))
    # forward only, xhat is not kept and its buffer becomes the output
    y = xhat if tape is None else np.empty_like(X)
    _layer_norm(X, gain.data, bias.data, xhat, inv, y, eps)

    def backward(g):
        axes = tuple(range(g.ndim - 1))
        return (_layer_norm_grad(g, gain.data, xhat, inv),
                (g * xhat).sum(axis=axes), g.sum(axis=axes))

    return _record(tape, NdArray(y), (x, gain, bias), backward)


# ---------------------------------------------------------------------------
# layer ops: a whole encoder block as one tape entry
# ---------------------------------------------------------------------------


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    np.matmul(x, w, out=out)
    out += b


def _linear_grad(g: np.ndarray, x: np.ndarray, w: np.ndarray, gx: np.ndarray,
                 stack: np.ndarray) -> None:
    """The input gradient of ``x @ w`` into ``gx`` and the per-sample
    ``xᵀg`` into ``stack``; the caller sums the stack over the batch."""
    np.matmul(g, w.T, out=gx)
    np.matmul(x.swapaxes(-1, -2), g, out=stack)


def embedding(tables: Sequence[NdArray], indices: Sequence[np.ndarray],
              gain: NdArray, bias: NdArray, rate: float, rng: np.random.Generator | None,
              tape: Tape | None = None) -> NdArray:
    """``dropout(layer_norm(Σ_i tables[i][indices[i]]))`` over [B, T] index
    arrays, as one tape entry: the row lookups are added in order, then
    layer-normalized with ``gain``/``bias`` and dropped out at ``rate``.

    The dropout draw is made before the rows go to the tape's lanes; the
    backward's gain and bias sums and each table's scatter (``take``'s
    bincount) run on the calling thread over the whole batch.
    """
    idx = [np.asarray(i) for i in indices]
    B, T = idx[0].shape
    d = tables[0].shape[-1]
    keep = rng.random((B, T, d)) if rate > 0.0 else None
    e = np.empty((B, T, d))            # the summed rows, then xhat
    inv = np.empty((B, T, 1))
    y = e if tape is None else np.empty((B, T, d))

    def forward(s):
        np.take(tables[0].data, idx[0][s], axis=0, out=e[s])
        for table, ix in zip(tables[1:], idx[1:]):
            e[s] += np.take(table.data, ix[s], axis=0)
        _layer_norm(e[s], gain.data, bias.data, e[s], inv[s], y[s], LN_EPS)
        if keep is not None:
            y[s] *= _keep(keep[s], rate)

    if tape is None:
        forward(slice(None))
        return NdArray(y)
    lanes = tape.lanes
    lanes.split(B, forward)

    def backward(g):
        dy = g if keep is None else np.empty((B, T, d))
        de = np.empty((B, T, d))

        def rows(s):
            if keep is not None:
                np.multiply(g[s], keep[s], out=dy[s])
            de[s] = _layer_norm_grad(dy[s], gain.data, e[s], inv[s])

        lanes.split(B, rows)
        grads = []
        for table, ix in zip(tables, idx):
            gt = np.empty_like(table.data)
            _scatter_add(gt, ix.reshape(-1), de.reshape(B * T, d))
            grads.append(gt)
        return (*grads, (dy * e).sum(axis=(0, 1)), dy.sum(axis=(0, 1)))

    return _record(tape, NdArray(y), (*tables, gain, bias), backward)


def transformer_layer(x: NdArray, weights: Sequence[NdArray], heads: int,
                      key_mask: np.ndarray, rate: float,
                      rng: np.random.Generator | None,
                      tape: Tape | None = None) -> NdArray:
    """One post-norm transformer layer over ``x`` [B, T, d] as one tape entry:

        a  = dropout(attention(x·wq + bq, x·wk + bk, x·wv + bv) · wo + bo)
        y1 = layer_norm(x + a; ln1_g, ln1_b)
        f  = dropout(gelu(y1·w1 + c1) · w2 + c2)
        out = layer_norm(y1 + f; ln2_g, ln2_b)

    ``weights`` are (wq, bq, wk, bk, wv, bv, wo, bo, ln1_g, ln1_b, w1, c1,
    w2, c2, ln2_g, ln2_b); attention uses the keys where ``key_mask`` [B, T]
    is 1. The two dropout masks are drawn, in that order, before the rows
    go to the tape's lanes. Each lane runs its rows through the whole layer,
    forward and backward, with the kernels of the public primitives, so the
    output and every gradient are bitwise those of the primitive chain. The
    calling thread then sums the weight, bias and layer-norm gradients over
    the whole batch. Untaped, the layer runs on the calling thread with the
    forward-only kernels (one head's attention weights at a time, gelu and
    layer norm finished in place).
    """
    (wq, bq, wk, bk, wv, bv, wo, bo,
     g1, b1, w1, c1, w2, c2, g2, b2) = (w.data for w in weights)
    X = x.data
    B, T, d = X.shape
    ff = w1.shape[1]
    dh = d // heads
    c = 1.0 / np.sqrt(dh)
    taped = tape is not None
    keep1 = rng.random((B, T, d)) if rate > 0.0 else None
    keep2 = rng.random((B, T, d)) if rate > 0.0 else None
    q, k, v = np.empty((B, T, d)), np.empty((B, T, d)), np.empty((B, T, d))
    qh, kh, vh = _heads(q, heads), _heads(k, heads), _heads(v, heads)
    # untaped, nothing is kept: the blocks after attention reuse q's and k's
    # buffers and finish in place
    a = np.empty((B, T, d)) if taped else q    # attention block, then x + a, then its xhat
    y1 = np.empty((B, T, d)) if taped else a
    h, xx, t = np.empty((B, T, ff)), np.empty((B, T, ff)), np.empty((B, T, ff))
    hg = np.empty((B, T, ff)) if taped else xx
    f = np.empty((B, T, d)) if taped else k    # ffn block, then y1 + f, then its xhat
    out = np.empty((B, T, d)) if taped else f
    inv1, inv2 = np.empty((B, T, 1)), np.empty((B, T, 1))
    if taped:
        bias = _key_bias(key_mask)
        p = np.empty((B, heads, T, T))
        ctx = np.empty((B, T, heads, dh))
    live = []

    def forward(s):
        xs = X[s]
        for w, b, z in ((wq, bq, q), (wk, bk, k), (wv, bv, v)):
            _linear(xs, w, b, z[s])
        if taped:
            live.append(_attention(qh[s], kh[s], vh[s], bias[s], c, p[s], ctx[s]))
            ctx_s = ctx[s].reshape(-1, T, d)
        else:
            ctx_s = _attention_lean(qh[s], kh[s], vh[s], key_mask[s], c)
        _linear(ctx_s, wo, bo, a[s])
        if keep1 is not None:
            a[s] *= _keep(keep1[s], rate)
        np.add(xs, a[s], out=a[s])
        _layer_norm(a[s], g1, b1, a[s], inv1[s], y1[s], LN_EPS)
        _linear(y1[s], w1, c1, h[s])
        _gelu(h[s], xx[s], t[s], hg[s])
        _linear(hg[s], w2, c2, f[s])
        if keep2 is not None:
            f[s] *= _keep(keep2[s], rate)
        np.add(y1[s], f[s], out=f[s])
        _layer_norm(f[s], g2, b2, f[s], inv2[s], out[s], LN_EPS)

    if not taped:
        forward(slice(None))
        return NdArray(out)
    lanes = tape.lanes
    lanes.split(B, forward)
    dead_mask = None if all(live) else key_mask

    def backward(g):
        dx, dr2, dy1, dr1 = (np.empty((B, T, d)) for _ in range(4))    # dx holds d(ctx) first
        df = dr2 if keep2 is None else np.empty((B, T, d))
        da = dr1 if keep1 is None else np.empty((B, T, d))
        dhid = np.empty((B, T, ff))
        gq, gv = np.empty((B, T, heads, dh)), np.empty((B, T, heads, dh))
        gk = np.empty((B, heads, dh, T))
        dq, dk, dv = _merged(gq, gk, gv)
        stacks = [np.empty((B,) + w.shape) for w in (wq, wk, wv, wo, w1, w2)]
        sq, sk, sv, so, s1, s2 = stacks

        def rows(s):
            dr2[s] = _layer_norm_grad(g[s], g2, f[s], inv2[s])
            if keep2 is not None:
                np.multiply(dr2[s], keep2[s], out=df[s])
            _linear_grad(df[s], hg[s], w2, dhid[s], s2[s])
            dhid[s] = _gelu_grad(dhid[s], h[s], xx[s], t[s])
            _linear_grad(dhid[s], y1[s], w1, dy1[s], s1[s])
            np.add(dr2[s], dy1[s], out=dy1[s])            # the residual, then w1
            dr1[s] = _layer_norm_grad(dy1[s], g1, a[s], inv1[s])
            if keep1 is not None:
                np.multiply(dr1[s], keep1[s], out=da[s])
            xs, dxs = X[s], dx[s]
            _linear_grad(da[s], ctx[s].reshape(-1, T, d), wo, dxs, so[s])
            _attention_grad(dxs, p[s], qh[s], kh[s], vh[s], c,
                            None if dead_mask is None else dead_mask[s],
                            gq[s], gk[s], gv[s])
            # into x: the residual, then the v, k and q projections, in the
            # order the tape added the primitive chain's gradients
            np.add(dr1[s], np.matmul(dv[s], wv.T), out=dxs)
            dxs += np.matmul(dk[s], wk.T)
            dxs += np.matmul(dq[s], wq.T)
            for gz, st in ((dq, sq), (dk, sk), (dv, sv)):
                np.matmul(xs.swapaxes(-1, -2), gz[s], out=st[s])

        lanes.split(B, rows)
        wg = [_unbroadcast(st, st.shape[1:]) for st in stacks]
        bg = [_unbroadcast(gz, (gz.shape[-1],)) for gz in (dq, dk, dv, da, dhid, df)]
        return (dx, wg[0], bg[0], wg[1], bg[1], wg[2], bg[2], wg[3], bg[3],
                (dy1 * a).sum(axis=(0, 1)), dy1.sum(axis=(0, 1)),
                wg[4], bg[4], wg[5], bg[5],
                (g * f).sum(axis=(0, 1)), g.sum(axis=(0, 1)))

    return _record(tape, NdArray(out), (x, *weights), backward)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def grad_check(f: Callable[[], float], params: Sequence[NdArray],
               eps: float = 1e-4,
               forward: Callable[[], float] | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must run a full forward+backward pass (populating ``p.grad`` for
    every param) and return the scalar loss. It must be deterministic with
    dropout disabled. ``forward``, when given, is a cheaper loss-only
    evaluation used for the finite-difference probes.
    """
    loss0 = f()
    if not np.isfinite(loss0):
        raise NumericDomainError("grad_check: loss is not finite")
    probe = forward or f
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = probe()
            flat[i] = orig - eps
            down = probe()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    # restore analytic grads clobbered by any probe side effects
    for p, ga in zip(params, analytic):
        p.grad = ga
    return worst
