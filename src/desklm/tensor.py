"""Float64 tensors with reverse-mode automatic differentiation.

Just enough machinery to train a small decoder-only transformer: numpy
holds the data, every op records a closure that knows how to push the
upstream gradient into its parents, and ``backward`` walks the tape in
reverse topological order.  Everything is 64-bit so finite-difference
gradient checks can be tight.

The tape lives no longer than it must.  An op over operands that need no
gradient records nothing, so a forward pass over such tensors (evaluation
wraps the parameters this way) keeps no intermediate alive.  ``backward``
frees each node's gradient and closure, and with it the arrays the closure
saved, as soon as the closure has run; only leaves keep their gradients,
and a consumed graph refuses a second ``backward``.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import ShapeError

# Keep the arrays of a few MB that each step frees in the heap for the next
# step, not handed back to the kernel and faulted in again as zeroed pages.
# CDLL(None) is this process; ctypes.util.find_library would start a child.
try:
    ctypes.CDLL(None).mallopt(-3, 32 << 20)     # M_MMAP_THRESHOLD, 32 MiB
    ctypes.CDLL(None).mallopt(-1, 128 << 20)    # M_TRIM_THRESHOLD, 128 MiB
except (AttributeError, OSError, TypeError):    # no glibc mallopt: keep the defaults
    pass


class RngState:
    """Deterministic random stream (PCG64).

    The same seed and the same sequence of calls produce the same values on
    every platform.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(int(n))

    def child(self, index: int) -> "RngState":
        """Derive an independent stream; deterministic in (seed, index)."""
        ss = np.random.SeedSequence([self.seed, int(index)])
        return RngState(int(ss.generate_state(1, dtype=np.uint64)[0]))


def trunc_normal(shape, mean: float, std: float, rng: RngState) -> np.ndarray:
    """Normal(mean, std) with draws outside +/- 2 std rejected and redrawn.

    Rejection (not clamping) keeps the density shape inside the window; the
    resulting standard deviation is about 0.88 * std.
    """
    if std <= 0:
        raise ValueError(f"trunc_normal requires std > 0, got {std}")
    n = int(np.prod(shape)) if shape else 1
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        draw = rng.standard_normal(n - filled)
        keep = draw[np.abs(draw) <= 2.0]
        take = min(keep.size, n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return (mean + std * out).reshape(shape)


class Tensor:
    """A numpy float64 array plus the tape hooks for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(_parents)
        self._backward_fn = None
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray):
        # A first arrival becomes grad, so an op hands over only an array that
        # nothing else reads or writes: one it has just made, or the upstream
        # gradient (or a view of it) given to one parent; backward drops it.
        # asarray copies nothing but a numpy scalar (0-d arithmetic's result).
        if self.grad is None:
            self.grad = np.asarray(g)
        else:
            self.grad += g

    def backward(self):
        """Backpropagate from this scalar through the recorded tape."""
        if self.data.shape != ():
            raise ShapeError(f"backward() requires a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            raise RuntimeError(f"backward() on a {self._op} tensor that needs no gradient")
        # Iterative topological sort; graphs can get long at many layers.
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents and node._backward_fn is None:
                raise RuntimeError(
                    f"backward() reached a {node._op} node whose tape an earlier "
                    "backward() already freed; rebuild the graph to differentiate again")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(topo):
            if node._parents:
                if node.grad is not None:
                    node._backward_fn(node.grad)
                # Leaves keep their gradients; interior nodes drop theirs and
                # the closure's saved arrays as soon as they are used.
                node.grad = node._backward_fn = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op})"


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _make(data, parents, op, backward_fn):
    """The output of op ``op`` (its function's name); taped only if a parent needs a gradient."""
    if not any(p.requires_grad for p in parents):
        return Tensor(data, _op=op)
    out = Tensor(data, requires_grad=True, _parents=parents, _op=op)
    out._backward_fn = backward_fn
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            b._accumulate(np.copy(gb) if gb is a.grad else gb)   # a owns g now

    return _make(data, (a, b), "add", fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), "mul", fn)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def fn(g):
        a._accumulate(g * s)

    return _make(a.data * s, (a,), "scale", fn)


def add_const(a: Tensor, arr) -> Tensor:
    """Add a constant array (no gradient flows into ``arr``)."""

    def fn(g):
        a._accumulate(_unbroadcast(g, a.shape))

    return _make(a.data + np.asarray(arr, dtype=np.float64), (a,), "add_const", fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product a[m,k] @ b[k,n]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def fn(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(data, (a, b), "matmul", fn)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul over equal leading dims: (...,m,k) @ (...,k,n)."""
    if a.data.ndim != b.data.ndim or a.data.ndim < 3:
        raise ShapeError(f"bmm expects equal-rank >=3 operands, got {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"bmm shapes incompatible: {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)

    def fn(g):
        if a.requires_grad:
            a._accumulate(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            b._accumulate(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _make(data, (a, b), "bmm", fn)


def reshape(a: Tensor, shape) -> Tensor:
    def fn(g):
        a._accumulate(g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), "reshape", fn)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def fn(g):
        a._accumulate(g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), "transpose", fn)


def embedding(weight: Tensor, ids) -> Tensor:
    """Row gather: weight[V,d] indexed by integer ids (any shape)."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= weight.shape[0]):
        raise ValueError("embedding id out of range")
    data = weight.data[ids]

    def fn(g):
        if weight.grad is None:
            weight.grad = np.zeros_like(weight.data)
        np.add.at(weight.grad, ids.reshape(-1), g.reshape(-1, weight.shape[1]))

    return _make(data, (weight,), "embedding", fn)


def swish(a: Tensor) -> Tensor:
    """swish(z) = z * sigmoid(z)."""
    # exp(-z) overflowing to inf gives sigmoid its exact limit of 0, so the
    # overflow warning carries no information; keep the output clean.
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-a.data))
    data = a.data * sig

    def fn(g):
        a._accumulate(g * (sig * (1.0 + a.data * (1.0 - sig))))

    return _make(data, (a,), "swish", fn)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """out_i = gain_i * x_i / sqrt(mean_j(x_j^2) + eps), over the last axis."""
    if gain.data.ndim != 1 or x.shape[-1] != gain.shape[0]:
        raise ShapeError(f"rms_norm gain {gain.shape} does not match x {x.shape}")
    if eps < 0:
        raise ValueError("rms_norm eps must be >= 0")
    d = x.shape[-1]
    ms = np.mean(x.data ** 2, axis=-1, keepdims=True)
    s = np.sqrt(ms + eps)
    xn = x.data / s
    data = xn * gain.data

    def fn(g):
        if x.requires_grad:
            gg = g * gain.data
            dot = np.sum(gg * x.data, axis=-1, keepdims=True)
            x._accumulate(gg / s - x.data * (dot / (d * s ** 3)))
        if gain.requires_grad:
            gain._accumulate(np.sum(g * xn, axis=tuple(range(g.ndim - 1))))

    return _make(data, (x, gain), "rms_norm", fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Classic LayerNorm over the last axis, with gain and bias."""
    if gain.data.ndim != 1 or x.shape[-1] != gain.shape[0] or bias.shape != gain.shape:
        raise ShapeError("layer_norm gain/bias must be 1-D matching x's last axis")
    d = x.shape[-1]
    mu = np.mean(x.data, axis=-1, keepdims=True)
    var = np.mean((x.data - mu) ** 2, axis=-1, keepdims=True)
    s = np.sqrt(var + eps)
    xn = (x.data - mu) / s
    data = xn * gain.data + bias.data

    def fn(g):
        if x.requires_grad:
            gg = g * gain.data
            m1 = np.mean(gg, axis=-1, keepdims=True)
            m2 = np.mean(gg * xn, axis=-1, keepdims=True)
            x._accumulate((gg - m1 - xn * m2) / s)
        red = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            gain._accumulate(np.sum(g * xn, axis=red))
        if bias.requires_grad:
            bias._accumulate(np.sum(g, axis=red))

    return _make(data, (x, gain, bias), "layer_norm", fn)


def _rope_angles(positions, d_head: int, theta: float):
    if d_head % 2 != 0:
        raise ShapeError(f"rope needs an even head dim, got {d_head}")
    positions = np.asarray(positions, dtype=np.float64)
    freqs = theta ** (-np.arange(0, d_head, 2, dtype=np.float64) / d_head)
    ang = positions[:, None] * freqs[None, :]
    return np.cos(ang), np.sin(ang)


def rope_rotate(x: Tensor, positions, theta: float = 10000.0) -> Tensor:
    """Rotary position embedding on x[..., T, d_head].

    Adjacent pairs (2i, 2i+1) are rotated by angle m * theta^(-2i/d_head)
    for position m.  A pure rotation, so vector norms are preserved.
    """
    cos, sin = _rope_angles(positions, x.shape[-1], theta)
    if cos.shape[0] != x.shape[-2]:
        raise ShapeError(f"rope got {cos.shape[0]} positions for seq length {x.shape[-2]}")
    xe, xo = x.data[..., 0::2], x.data[..., 1::2]
    data = np.empty_like(x.data)
    data[..., 0::2] = xe * cos - xo * sin
    data[..., 1::2] = xe * sin + xo * cos

    def fn(g):
        ge, go = g[..., 0::2], g[..., 1::2]
        gx = np.empty_like(g)
        gx[..., 0::2] = ge * cos + go * sin
        gx[..., 1::2] = -ge * sin + go * cos
        x._accumulate(gx)

    return _make(data, (x,), "rope_rotate", fn)


def softmax_last(a: Tensor) -> Tensor:
    """Softmax over the last axis.  -inf entries get exactly zero weight."""
    z = a.data - np.max(a.data, axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / np.sum(e, axis=-1, keepdims=True)

    def fn(g):
        dot = np.sum(g * p, axis=-1, keepdims=True)
        a._accumulate(p * (g - dot))

    return _make(p, (a,), "softmax_last", fn)


# Query rows per attention tile, a multiple of 8 so tile edges meet the block
# edges of ``_rowsum``.  A one-row last tile (numpy's gemv) joins the previous.
ATTN_TILE = 32


def _rowsum(x: np.ndarray, n: int) -> np.ndarray:
    """Sum over x's last axis (kept), grouped as numpy's pairwise sum groups a
    row of ``n`` whose entries past ``x.shape[-1]`` are zeros: one block up to
    128, else split at n // 2 rounded down to a multiple of 8."""
    if n <= 128:
        return np.sum(x, axis=-1, keepdims=True)
    half = n // 2 - n // 2 % 8
    if x.shape[-1] <= half:
        return _rowsum(x, half)
    return _rowsum(x[..., :half], half) + _rowsum(x[..., half:], n - half)


def _key_tiles(row_tiles, tiles):
    """(c0, columns [c0, c1) over queries [c0:]) of each key tile."""
    for i, (c0, c1) in enumerate(tiles):
        yield c0, np.concatenate([x[..., c0:c1] for x in row_tiles[i:]], axis=-2)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, bias, scale: float) -> Tensor:
    """softmax(q @ k^T * scale + bias) @ v over [B, H, T, hd] operands, as one
    tape node.  ``bias`` broadcasts to [B, H, T, T] and must hide (-inf) every
    key after its query, as ``model.attention_bias`` does.

    Query tile [r0, r1) of ATTN_TILE rows sees keys [:r1] only; in backward,
    key tile [c0, c1) sees queries [c0:] only.  The skipped entries are exact
    zeros of P.  With a power-of-two scale folded into q, the tests pin the
    result bit-identical to the primitive chain at T = 7, 33, 40, 130 and 256,
    and within 1e-15 relative at every T from 2 to 300: BLAS may round a
    partial tile's products unlike the same rows of the full ones.  Backward
    keeps P: dS = P * (dP - rowsum(dP * P)) with dP = g @ v^T.
    """
    if q.data.ndim != 4 or k.shape != q.shape or v.shape[:-1] != q.shape[:-1]:
        raise ShapeError(f"causal_attention expects [B, H, T, hd] operands, "
                         f"got q {q.shape}, k {k.shape}, v {v.shape}")
    t = q.shape[-2]
    bias = np.broadcast_to(bias, np.broadcast_shapes(np.shape(bias), (t, t)))
    if ((bias != -np.inf) & ~np.tri(t, dtype=bool)).any():
        raise ValueError("causal_attention: the bias must hide (-inf) every key after its query")
    qs = q.data * scale
    edges = [*range(0, t - 1 or 1, ATTN_TILE), t]
    tiles = list(zip(edges, edges[1:]))
    ps = []
    for r0, r1 in tiles:
        s = np.matmul(qs[..., r0:r1, :], np.swapaxes(k.data[..., :r1, :], -1, -2))
        s += bias[..., r0:r1, :r1]
        s -= np.max(s, axis=-1, keepdims=True)
        p = np.exp(s, out=s)
        p /= _rowsum(p, t)
        ps.append(p)
    data = np.concatenate([np.matmul(p, v.data[..., :r1, :])
                           for p, (_, r1) in zip(ps, tiles)], axis=-2)

    def fn(g):
        if v.requires_grad:
            v._accumulate(np.concatenate([np.matmul(np.swapaxes(pc, -1, -2), g[..., c0:, :])
                                          for c0, pc in _key_tiles(ps, tiles)], axis=-2))
        ds = []
        for p, (r0, r1) in zip(ps, tiles):
            d = np.matmul(g[..., r0:r1, :], np.swapaxes(v.data[..., :r1, :], -1, -2))
            d -= _rowsum(d * p, t)
            d *= p
            ds.append(d)
        if q.requires_grad:
            q._accumulate(np.concatenate([np.matmul(d, k.data[..., :r1, :])
                                          for d, (_, r1) in zip(ds, tiles)], axis=-2) * scale)
        if k.requires_grad:
            k._accumulate(np.concatenate([
                np.swapaxes(np.matmul(np.swapaxes(qs[..., c0:, :], -1, -2), dc), -1, -2)
                for c0, dc in _key_tiles(ds, tiles)], axis=-2))

    return _make(data, (q, k, v), "causal_attention", fn)


def softmax_cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean negative log-likelihood in nats over (optionally masked) rows.

    logits: [N, V]; targets: N integer class ids; mask: optional length-N
    0/1 weights selecting which rows count.  Uses max-subtraction for
    numerical stability.  Uniform logits give exactly ln(V).
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross entropy expects [N, V] logits, got {logits.shape}")
    targets = np.asarray(targets)
    n, v = logits.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match logits {logits.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ValueError("cross entropy target id out of range")
    if mask is None:
        w = np.ones(n, dtype=np.float64)
    else:
        w = np.asarray(mask, dtype=np.float64)
        if w.shape != (n,):
            raise ShapeError(f"mask shape {w.shape} does not match logits rows {n}")
    total = w.sum()
    if total <= 0:
        raise ValueError("cross entropy mask selects no rows")

    zmax = np.max(logits.data, axis=-1, keepdims=True)
    e = np.exp(logits.data - zmax)
    esum = np.sum(e, axis=-1, keepdims=True)
    lse = np.log(esum[:, 0]) + zmax[:, 0]
    picked = logits.data[np.arange(n), targets]
    data = np.sum(w * (lse - picked)) / total

    def fn(g):
        p = e / esum
        p[np.arange(n), targets] -= 1.0
        p *= (g * w / total)[:, None]
        logits._accumulate(p)

    return _make(data, (logits,), "softmax_cross_entropy", fn)


def swiglu_ffn(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor) -> Tensor:
    """(swish(x @ w_gate) * (x @ w_up)) @ w_down, no bias terms anywhere."""
    d = x.shape[-1]
    if w_gate.shape[0] != d or w_up.shape != w_gate.shape or w_down.shape != (w_gate.shape[1], d):
        raise ShapeError(
            f"swiglu shapes inconsistent: x {x.shape}, gate {w_gate.shape}, "
            f"up {w_up.shape}, down {w_down.shape}")
    lead = x.shape[:-1]
    x2 = reshape(x, (-1, d)) if x.data.ndim != 2 else x
    h = mul(swish(matmul(x2, w_gate)), matmul(x2, w_up))
    out = matmul(h, w_down)
    return reshape(out, lead + (d,)) if x.data.ndim != 2 else out


def sum_all(a: Tensor) -> Tensor:
    def fn(g):
        a._accumulate(np.broadcast_to(g, a.shape).copy())   # the view is read-only

    return _make(a.data.sum(), (a,), "sum_all", fn)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def fn(g):
        a._accumulate(np.full(a.shape, float(g) / n))

    return _make(a.data.mean(), (a,), "mean_all", fn)
