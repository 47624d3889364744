"""Float64 tensors with reverse-mode automatic differentiation.

Just enough machinery to train a small decoder-only transformer: numpy
holds the data, every op records a closure that knows how to push the
upstream gradient into its parents, and ``backward`` walks the tape in
reverse topological order.  Everything is 64-bit so finite-difference
gradient checks can be tight.
"""

from __future__ import annotations


import numpy as np

from .errors import ShapeError


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

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Backpropagate from this scalar through the recorded tape."""
        if self.data.shape != ():
            raise ShapeError(f"backward() requires a scalar, got shape {self.data.shape}")
        # Iterative topological sort; graphs can get long at many layers.
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op})"


def _needs_grad(*tensors) -> bool:
    return any(t.requires_grad for t in tensors)


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
    out = Tensor(data, requires_grad=_needs_grad(*parents), _parents=parents, _op=op)
    if out.requires_grad:
        out._backward_fn = backward_fn(out)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bw(out):
        def fn(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))
        return fn

    return _make(data, (a, b), "add", bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bw(out):
        def fn(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))
        return fn

    return _make(data, (a, b), "mul", bw)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bw(out):
        def fn(g):
            a._accumulate(g * s)
        return fn

    return _make(a.data * s, (a,), "scale", bw)


def add_const(a: Tensor, arr) -> Tensor:
    """Add a constant array (no gradient flows into ``arr``)."""

    def bw(out):
        def fn(g):
            a._accumulate(_unbroadcast(g, a.shape))
        return fn

    return _make(a.data + np.asarray(arr, dtype=np.float64), (a,), "add_const", bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product a[m,k] @ b[k,n]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def bw(out):
        def fn(g):
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
        return fn

    return _make(data, (a, b), "matmul", bw)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul over equal leading dims: (...,m,k) @ (...,k,n)."""
    if a.data.ndim != b.data.ndim or a.data.ndim < 3:
        raise ShapeError(f"bmm expects equal-rank >=3 operands, got {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"bmm shapes incompatible: {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)

    def bw(out):
        def fn(g):
            if a.requires_grad:
                a._accumulate(np.matmul(g, np.swapaxes(b.data, -1, -2)))
            if b.requires_grad:
                b._accumulate(np.matmul(np.swapaxes(a.data, -1, -2), g))
        return fn

    return _make(data, (a, b), "bmm", bw)


def reshape(a: Tensor, shape) -> Tensor:
    def bw(out):
        def fn(g):
            a._accumulate(g.reshape(a.shape))
        return fn

    return _make(a.data.reshape(shape), (a,), "reshape", bw)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bw(out):
        def fn(g):
            a._accumulate(g.transpose(inv))
        return fn

    return _make(a.data.transpose(axes), (a,), "transpose", bw)


def embedding(weight: Tensor, ids) -> Tensor:
    """Row gather: weight[V,d] indexed by integer ids (any shape)."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= weight.shape[0]):
        raise ValueError("embedding id out of range")
    data = weight.data[ids]

    def bw(out):
        def fn(g):
            if weight.grad is None:
                weight.grad = np.zeros_like(weight.data)
            np.add.at(weight.grad, ids.reshape(-1), g.reshape(-1, weight.shape[1]))
        return fn

    return _make(data, (weight,), "embedding", bw)


def swish(a: Tensor) -> Tensor:
    """swish(z) = z * sigmoid(z)."""
    # exp(-z) overflowing to inf gives sigmoid its exact limit of 0, so the
    # overflow warning carries no information; keep the output clean.
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-a.data))
    data = a.data * sig

    def bw(out):
        def fn(g):
            a._accumulate(g * (sig * (1.0 + a.data * (1.0 - sig))))
        return fn

    return _make(data, (a,), "swish", bw)


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

    def bw(out):
        def fn(g):
            if x.requires_grad:
                gg = g * gain.data
                dot = np.sum(gg * x.data, axis=-1, keepdims=True)
                x._accumulate(gg / s - x.data * (dot / (d * s ** 3)))
            if gain.requires_grad:
                gain._accumulate(np.sum(g * xn, axis=tuple(range(g.ndim - 1))))
        return fn

    return _make(data, (x, gain), "rms_norm", bw)


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

    def bw(out):
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
        return fn

    return _make(data, (x, gain, bias), "layer_norm", bw)


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

    def bw(out):
        def fn(g):
            ge, go = g[..., 0::2], g[..., 1::2]
            gx = np.empty_like(g)
            gx[..., 0::2] = ge * cos + go * sin
            gx[..., 1::2] = -ge * sin + go * cos
            x._accumulate(gx)
        return fn

    return _make(data, (x,), "rope", bw)


def softmax_last(a: Tensor) -> Tensor:
    """Softmax over the last axis.  -inf entries get exactly zero weight."""
    z = a.data - np.max(a.data, axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / np.sum(e, axis=-1, keepdims=True)

    def bw(out):
        def fn(g):
            dot = np.sum(g * p, axis=-1, keepdims=True)
            a._accumulate(p * (g - dot))
        return fn

    return _make(p, (a,), "softmax", bw)


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
    z = logits.data - zmax
    lse = np.log(np.sum(np.exp(z), axis=-1)) + zmax[:, 0]
    picked = logits.data[np.arange(n), targets]
    data = np.sum(w * (lse - picked)) / total

    def bw(out):
        def fn(g):
            p = np.exp(z)
            p /= p.sum(axis=-1, keepdims=True)
            p[np.arange(n), targets] -= 1.0
            logits._accumulate(p * (g * w / total)[:, None])
        return fn

    return _make(data, (logits,), "cross_entropy", bw)


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
    def bw(out):
        def fn(g):
            a._accumulate(np.broadcast_to(g, a.shape).copy() if a.shape else g)
        return fn

    return _make(a.data.sum(), (a,), "sum", bw)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def bw(out):
        def fn(g):
            a._accumulate(np.full(a.shape, float(g) / n))
        return fn

    return _make(a.data.mean(), (a,), "mean", bw)
