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
    """The CPUs a tape's primitives may use: the calling thread and, inside
    a ``with`` block, a pool of ``n - 1`` threads.

    ``split`` cuts the rows of a batch into one contiguous slice per lane.
    Each slice writes only its own rows of buffers made beforehand, and
    every sum across rows stays outside the slices, so a result does not
    depend on the lane count.
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
    and ``backward`` run on the one thread that owns the tape; a primitive
    may hand row slices of its own arrays to the tape's ``lanes`` and
    returns once they are done.
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


def _lanes(tape: Tape | None) -> Lanes:
    """The lanes a primitive splits its rows over; untaped, it never splits."""
    return _ONE_LANE if tape is None else tape.lanes


# Handing a slice to another thread costs tens of microseconds, about what
# a simple elementwise op takes over this many elements.
_MIN_SPLIT = 1 << 14


def _rows(x: np.ndarray) -> int:
    """Rows of the leading (batch) axis to split; a vector, or an array too
    small to be worth splitting, is one row."""
    return x.shape[0] if x.ndim > 1 and x.size >= _MIN_SPLIT else 1


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient ``g`` down to ``shape`` (reverses numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


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
    if tape is None or a.ndim != 3 or b.ndim != 2:
        out = NdArray(np.matmul(a.data, b.data))

        def backward(g):
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
            return ga, gb

        return _record(tape, out, (a, b), backward)
    # [B, T, d] @ [d, e]: one product per sample, on the tape's lanes; the
    # weight gradient sums the [B, d, e] stack of per-sample xᵀg here, once
    lanes, x, w = tape.lanes, a.data, b.data
    y = np.empty(x.shape[:-1] + w.shape[-1:])
    lanes.split(_rows(x), lambda s: np.matmul(x[s], w, out=y[s]))

    def rows_backward(g):
        gx, stack = np.empty_like(x), np.empty((len(x),) + w.shape)

        def rows(s):
            np.matmul(g[s], w.T, out=gx[s])
            np.matmul(x[s].swapaxes(-1, -2), g[s], out=stack[s])

        lanes.split(_rows(x), rows)
        return gx, _unbroadcast(stack, w.shape)

    return _record(tape, NdArray(y), (a, b), rows_backward)


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
    idx = np.asarray(indices)
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
            # one bincount over (index, column) bins adds repeats in index
            # order, exactly as np.add.at does, at a fraction of its cost
            cols = ga.size // gm.shape[0]
            bins = (flat[:, None] * cols + np.arange(cols)).reshape(-1)
            gm[...] = np.bincount(bins, weights=rows.reshape(-1),
                                  minlength=ga.size).reshape(gm.shape)
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


def gelu(a: NdArray, tape: Tape | None = None) -> NdArray:
    """Smooth gelu (tanh form); the derivative is exact for this form, so
    finite-difference checks are kink-free."""
    c = np.sqrt(2.0 / np.pi)
    x = a.data
    xx, t = np.empty_like(x), np.empty_like(x)
    y = xx if tape is None else np.empty_like(x)

    def forward(s):
        xs, xxs, ts = x[s], xx[s], t[s]
        np.multiply(xs, xs, out=xxs)
        np.multiply(xxs, xs, out=ts)     # tanh(c * (x + 0.044715 x³)), built in place
        ts *= 0.044715
        ts += xs
        ts *= c
        np.tanh(ts, out=ts)
        if tape is None:                 # forward only: 0.5 x (1 + t) in xx's buffer
            ts += 1.0
            np.multiply(xs, 0.5, out=xxs)
            xxs *= ts
        else:
            y[s] = 0.5 * xs * (1.0 + ts)

    lanes = _lanes(tape)
    lanes.split(_rows(x), forward)
    if tape is None:
        return NdArray(y)

    def backward(g):
        gx = np.empty_like(x)

        def rows(s):
            xs, ts = x[s], t[s]
            dinner = c * (1.0 + 3 * 0.044715 * xx[s])
            gx[s] = g[s] * (0.5 * (1.0 + ts) + 0.5 * xs * (1.0 - ts * ts) * dinner)

        lanes.split(_rows(x), rows)
        return (gx,)

    return _record(tape, NdArray(y), (a,), backward)


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
    One tape entry; the backward is
    ``dv = pᵀg``, ``ds = c·p⊙(gvᵀ − rowsum(gvᵀ⊙p))``, ``dq = ds·k``,
    ``dk = dsᵀq`` with c = 1/sqrt(d/heads). Untaped, the forward holds one
    head's scores at a time.
    """
    B, T, d = q.shape
    if k.shape != q.shape or v.shape != q.shape:
        raise DimensionError(f"attention shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    dh = d // heads
    c = 1.0 / np.sqrt(dh)

    def split(t):                                    # [b, T, d] -> [b, h, T, dh]
        return t.reshape(len(t), T, heads, dh).transpose(0, 2, 1, 3)

    def merge(t):                                    # [B, h, T, dh] -> [B, T, d]
        return t.transpose(0, 2, 1, 3).reshape(B, T, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    if tape is None:
        # Forward only: one head's [B, T, T] weights at a time in one reused
        # buffer, the same per-matrix products as the taped path below.
        bias = np.where(key_mask > 0, 0.0, -np.inf)[:, None, :]
        s = np.empty((B, T, T))
        ctx = np.empty((B, heads, T, dh))
        for h in range(heads):
            np.matmul(qh[:, h], kh[:, h].transpose(0, 2, 1), out=s)
            s *= c
            s += bias
            _masked_exp_normalize(s)
            np.matmul(s, vh[:, h], out=ctx[:, h])
        return NdArray(merge(ctx))
    # Taped: samples in row slices on the tape's lanes, each writing its own
    # rows of the weights p [B, h, T, T] and of the head-split [B, T, h, dh]
    # views of the results
    lanes = tape.lanes
    bias = np.where(key_mask > 0, 0.0, -np.inf)[:, None, None, :]
    p = np.empty((B, heads, T, T))
    y = np.empty((B, T, heads, dh))
    live = []

    def forward(s):
        ps = p[s]
        np.matmul(qh[s], kh[s].transpose(0, 1, 3, 2), out=ps)
        ps *= c
        ps += bias[s]
        live.append(_masked_exp_normalize(ps))
        y[s] = np.matmul(ps, vh[s]).transpose(0, 2, 1, 3)

    lanes.split(_rows(q.data), forward)
    all_live = all(live)              # one flag for the batch, as the backward needs

    def backward(g):
        gq, gv = np.empty((B, T, heads, dh)), np.empty((B, T, heads, dh))
        # dk keeps the [B, h, dh, T] memory order of dsᵀq: the k projection's
        # weight and bias sums run over it in that order
        gk = np.empty((B, heads, dh, T))

        def rows(s):
            ps, gh = p[s], split(g[s])
            gv[s] = np.matmul(ps.swapaxes(-1, -2), gh).transpose(0, 2, 1, 3)
            ds = np.matmul(gh, vh[s].swapaxes(-1, -2))  # dL/dp, made dL/dscores in place
            dot = (ds * ps).sum(axis=-1, keepdims=True)
            ds -= dot
            ds *= ps
            if not all_live:
                ds = np.where(key_mask[s, None, None, :] > 0, ds, 0.0)
            ds *= c
            gq[s] = np.matmul(ds, kh[s]).transpose(0, 2, 1, 3)
            np.matmul(qh[s].swapaxes(-1, -2), ds, out=gk[s])

        lanes.split(_rows(q.data), rows)
        return tuple(t.reshape(B, T, d) for t in (gq, gk.transpose(0, 3, 1, 2), gv))

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
    keep = rng.random(a.shape)       # drawn here, whatever the lanes
    y = np.empty_like(keep)
    lanes, rows = _lanes(tape), _rows(keep)

    def forward(s):
        np.divide(keep[s] >= rate, 1.0 - rate, out=keep[s])
        np.multiply(a.data[s], keep[s], out=y[s])

    lanes.split(rows, forward)

    def backward(g):
        gx = np.empty_like(keep)
        lanes.split(rows, lambda s: np.multiply(g[s], keep[s], out=gx[s]))
        return (gx,)

    return _record(tape, NdArray(y), (a,), backward)


def layer_norm(x: NdArray, gain: NdArray, bias: NdArray, eps: float = 1e-6,
               tape: Tape | None = None) -> NdArray:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The variance is ``np.var``'s arithmetic on the one centred array that
    also becomes ``xhat``.
    """
    X = x.data
    xhat = np.empty_like(X)
    inv = np.empty(X.shape[:-1] + (1,))
    # forward only, xhat is not kept and its buffer becomes the output
    y = xhat if tape is None else np.empty_like(X)

    def forward(s):
        xh, inv_s = xhat[s], inv[s]
        np.subtract(X[s], X[s].mean(axis=-1, keepdims=True), out=xh)
        var = np.square(xh).sum(axis=-1, keepdims=True) / X.shape[-1]
        np.divide(1.0, np.sqrt(var + eps), out=inv_s)
        xh *= inv_s
        ys = np.multiply(xh, gain.data, out=y[s])
        ys += bias.data

    lanes = _lanes(tape)
    lanes.split(_rows(X), forward)
    out = NdArray(y)

    def backward(g):
        dx = np.empty_like(X)

        def rows(s):
            xh = xhat[s]
            dxhat = g[s] * gain.data
            dx[s] = inv[s] * (dxhat
                              - dxhat.mean(axis=-1, keepdims=True)
                              - xh * (dxhat * xh).mean(axis=-1, keepdims=True))

        lanes.split(_rows(X), rows)
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _record(tape, out, (x, gain, bias), backward)


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
