"""Reverse-mode autodiff over dense float64 numpy arrays.

A Tensor wraps an ndarray plus an optional record of the operation that
produced it. Each operation builds the output value eagerly with numpy and
attaches a closure that routes upstream gradients to its inputs. backward()
walks the recorded graph once, in reverse topological order, and deposits
gradients on the leaf tensors that requested them. Inside no_graph() nothing
is recorded, so a forward's intermediates are freed as soon as they are dead.

The operation set is deliberately small: exactly the pieces needed by the
encoders, the contrastive loss, and the sequence predictor in this package.
Everything is float64; there is no device or dtype dispatch.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operation inputs have incompatible shapes."""


class GraphError(RuntimeError):
    """Raised when backward() is asked for gradients it cannot produce."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        # populated by _from_op for non-leaf nodes
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray, Callable], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def _tracked(self) -> bool:
        return self.requires_grad or self._backward is not None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


# one flag per process: no code in this package runs ops from two threads
_recording = True


@contextlib.contextmanager
def no_graph():
    """Record no graph inside the block: op outputs have no parents and no backward.

    For forwards whose result no backward() reads (inference, validation).
    The values computed are the same as with recording on.
    """
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _from_op(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if not _recording:
        return out
    tracked = tuple(p for p in parents if p._tracked)
    if tracked:
        out._parents = tracked
        out._backward = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were introduced or stretched by broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad.reshape(shape)


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: cannot broadcast shapes {a.shape} and {b.shape}") from None


def backward(loss: Tensor, params: Iterable[Tensor] | None = None) -> None:
    """Populate .grad on every requires_grad tensor reachable from loss.

    Gradients are overwritten, not accumulated across calls. Tensors listed
    in params that the loss does not depend on receive a zero gradient of
    matching shape, so an optimizer can step over a full parameter set.
    """
    if loss.data.shape != ():
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._backward is None:
        raise GraphError("backward called on a tensor with no recorded computation")

    # reverse topological order via iterative post-order DFS
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent._backward is not None and id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    leaves: dict[int, Tensor] = {}

    def accum(t: Tensor, g: np.ndarray) -> None:
        if not t._tracked:
            return
        key = id(t)
        if key in grads:
            grads[key] = grads[key] + g
        else:
            grads[key] = np.asarray(g, dtype=np.float64)
        if t.requires_grad:
            leaves[key] = t

    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        node._backward(g, accum)

    for key, t in leaves.items():
        t.grad = grads[key]
    if params is not None:
        for t in params:
            if id(t) not in leaves:
                t.grad = np.zeros_like(t.data)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra operations


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)

    def back(g, accum):
        if a._tracked:
            accum(a, _unbroadcast(g, a.shape))
        if b._tracked:
            accum(b, _unbroadcast(g, b.shape))

    return _from_op(a.data + b.data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)

    def back(g, accum):
        if a._tracked:
            accum(a, _unbroadcast(g * b.data, a.shape))
        if b._tracked:
            accum(b, _unbroadcast(g * a.data, b.shape))

    return _from_op(a.data * b.data, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g, accum):
        accum(a, g * c)

    return _from_op(a.data * c, (a,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for shapes {a.shape} and {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul: batch dimensions incompatible for shapes {a.shape} and {b.shape}") from None

    if b.ndim == 2:
        # (..., d) @ (d, k) is one 2-d GEMM over the flattened leading axes,
        # forward and backward; numpy would run one GEMM per leading index
        rows = math.prod(a.shape[:-1])
        a2 = a.data.reshape(rows, a.shape[-1])

        def back_linear(g, accum):
            g2 = g.reshape(rows, b.shape[1])
            if a._tracked:
                accum(a, (g2 @ b.data.T).reshape(a.shape))
            if b._tracked:
                accum(b, a2.T @ g2)

        return _from_op((a2 @ b.data).reshape(a.shape[:-1] + b.shape[1:]), (a, b), back_linear)

    def back(g, accum):
        if a._tracked:
            accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b._tracked:
            accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _from_op(a.data @ b.data, (a, b), back)


def relu(x: Tensor) -> Tensor:
    def back(g, accum):
        accum(x, g * (x.data > 0.0))

    return _from_op(np.maximum(x.data, 0.0), (x,), back)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def back(g, accum):
        accum(x, s * (g - (g * s).sum(axis=-1, keepdims=True)))

    return _from_op(s, (x,), back)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under softmax(logits)."""
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-d, got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ShapeError(
            f"cross_entropy: targets shape {targets.shape} does not match logits {logits.shape}"
        )
    if not np.issubdtype(targets.dtype, np.integer):
        raise ShapeError("cross_entropy: targets must be integers")
    n, c = logits.shape
    if targets.min() < 0 or targets.max() >= c:
        raise ShapeError(f"cross_entropy: target outside [0, {c})")
    m = logits.data.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(logits.data - m).sum(axis=-1, keepdims=True))
    logp = logits.data - lse
    rows = np.arange(n)
    loss = -logp[rows, targets].mean()

    def back(g, accum):
        gl = np.exp(logp)
        gl[rows, targets] -= 1.0
        accum(logits, gl * (float(g) / n))

    return _from_op(np.float64(loss), (logits,), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} and bias {bias.shape} must both be ({d},) for input {x.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def back(g, accum):
        reduce_axes = tuple(range(g.ndim - 1))
        accum(gain, (g * xhat).sum(axis=reduce_axes))
        accum(bias, g.sum(axis=reduce_axes))
        dxhat = g * gain.data
        accum(
            x,
            inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)),
        )

    return _from_op(xhat * gain.data + bias.data, (x, gain, bias), back)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; callers apply it in training only."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def back(g, accum):
        accum(x, g * mask)

    return _from_op(x.data * mask, (x,), back)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not parts:
        raise ShapeError("concat: needs at least one input")
    shapes = [p.shape for p in parts]
    base = list(shapes[0])
    ax = axis if axis >= 0 else len(base) + axis
    for s in shapes[1:]:
        if len(s) != len(base) or any(i != ax and s[i] != base[i] for i in range(len(base))):
            raise ShapeError(f"concat: incompatible shapes {shapes} along axis {axis}")
    sizes = [s[ax] for s in shapes]
    offsets = np.cumsum(sizes)[:-1]

    def back(g, accum):
        for part, piece in zip(parts, np.split(g, offsets, axis=ax)):
            accum(part, piece)

    return _from_op(np.concatenate([p.data for p in parts], axis=ax), tuple(parts), back)


def gather_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows of a 2-d table; output shape is idx.shape + (row_dim,)."""
    idx = np.asarray(idx)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows: table must be 2-d, got {table.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather_rows: indices must be integers")
    rows = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ShapeError(f"gather_rows: index outside [0, {rows})")

    def back(g, accum):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.shape[1]))
        accum(table, gt)

    return _from_op(table.data[idx], (table,), back)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from None

    def back(g, accum):
        accum(x, g.reshape(x.shape))

    return _from_op(data, (x,), back)


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    if axes is None:
        if x.ndim < 2:
            raise ShapeError(f"transpose: needs at least 2 axes, got shape {x.shape}")
        axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose: axes {axes} are not a permutation for shape {x.shape}")
    inverse = tuple(np.argsort(axes))

    def back(g, accum):
        accum(x, g.transpose(inverse))

    return _from_op(x.data.transpose(axes), (x,), back)


def tsum(x: Tensor) -> Tensor:
    """Sum of every element, as a scalar."""

    def back(g, accum):
        accum(x, np.broadcast_to(g, x.shape))

    return _from_op(x.data.sum(), (x,), back)


def tmean(x: Tensor) -> Tensor:
    """Mean of every element, as a scalar."""

    def back(g, accum):
        accum(x, np.broadcast_to(g, x.shape) / x.data.size)

    return _from_op(x.data.mean(), (x,), back)


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row (last axis) to unit Euclidean norm."""
    n = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True) + eps)
    y = x.data / n

    def back(g, accum):
        accum(x, (g - y * (g * y).sum(axis=-1, keepdims=True)) / n)

    return _from_op(y, (x,), back)


def multi_head_attention(
    x: Tensor,
    n_heads: int,
    wq: Tensor,
    bq: Tensor,
    wk: Tensor,
    bk: Tensor,
    wv: Tensor,
    bv: Tensor,
    wo: Tensor,
    bo: Tensor,
    query_pos: np.ndarray | None = None,
) -> Tensor:
    """Causal scaled dot-product attention over (batch, time, d) with h heads.

    Position i attends to positions 0..i only, so with left-aligned sequences
    no real position reads padding. With `query_pos` (one position per batch
    row) only that position queries, keys and values still come from every
    position, and the output is (batch, d).
    """
    if x.ndim != 3:
        raise ShapeError(f"multi_head_attention: input must be (batch, time, d), got {x.shape}")
    b, t, d = x.shape
    if d % n_heads != 0:
        raise ShapeError(f"multi_head_attention: d={d} not divisible by {n_heads} heads")
    hd = d // n_heads

    def linear(v: Tensor, w: Tensor, bias: Tensor) -> Tensor:
        return add(matmul(v, w), bias)

    def split_heads(v: Tensor) -> Tensor:
        return transpose(reshape(v, (b, -1, n_heads, hd)), (0, 2, 1, 3))

    if query_pos is None:
        x_q, q_pos = x, np.arange(t)[None, :]
    else:
        query_pos = np.asarray(query_pos)
        if query_pos.shape != (b,) or not np.all((query_pos >= 0) & (query_pos < t)):
            raise ShapeError(f"multi_head_attention: query_pos must be {b} positions in [0, {t}), got {query_pos}")
        x_q, q_pos = gather_rows(reshape(x, (b * t, d)), np.arange(b) * t + query_pos), query_pos[:, None]
    q = split_heads(linear(x_q, wq, bq))
    k = split_heads(linear(x, wk, bk))
    v = split_heads(linear(x, wv, bv))
    scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
    # one rule for every query layout: a key after its query is masked (axis 1 spans the heads)
    scores = add(scores, Tensor(np.where(np.arange(t) > q_pos[..., None], -1e30, 0.0)[:, None]))
    attn = softmax(scores)
    ctx = reshape(transpose(matmul(attn, v), (0, 2, 1, 3)), x_q.shape)
    return linear(ctx, wo, bo)
