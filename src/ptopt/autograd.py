"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: dense arrays and only the operations the
allocation models need. Matrix operations act on the last two axes, so a
leading batch axis carries a whole minibatch of windows through one node per
op; ``matmul`` and ``add`` broadcast a shared weight, bias or mask over it.
While a :class:`Tape` is active, every op that touches a differentiable
tensor appends one node; :func:`backward` replays
the tape once in reverse and accumulates gradients into ``Tensor.grad``.
Tapes are thread-local, so a tape and its tensors belong to one thread for
the duration of a forward/backward pass.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray
LAYER_NORM_EPS = 1e-5


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(RuntimeError):
    """An operation was invoked outside its documented contract."""


_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "tapes", None)
    if stack is None:
        stack = _LOCAL.tapes = []
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A dense float64 array plus a gradient slot of the same shape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of the operations of one forward pass.

    Each node is an ``(inputs, out, back)`` tuple. Nodes are appended in
    execution order, so every node's inputs precede it and a single reverse
    sweep visits each node exactly once.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[tuple[tuple[Tensor, ...], Tensor, Callable]] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tape_stack().pop()


class no_grad:
    """Context that suspends recording (validation / inference passes)."""

    def __enter__(self):
        _tape_stack().append(None)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()


def _emit(inputs: tuple[Tensor, ...], out_data: Array, back: Callable) -> Tensor:
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append((inputs, out, back))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every differentiable tensor reachable from ``loss``.

    Gradients accumulate across fan-out: a tensor consumed by several later
    nodes receives the sum of all path gradients.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for inputs, out, back in reversed(tape.nodes):
        g = out.grad
        if g is None:
            continue
        for t, gi in zip(inputs, back(g)):
            if gi is None or not t.requires_grad:
                continue
            t.grad = gi if t.grad is None else t.grad + gi


# ---------------------------------------------------------------------------
# primitives


def _sum_to(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the leading axes that broadcasting added."""
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))) if extra else g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.

    ``(..., m, k) @ (k, n)`` shares one matrix across the leading axes;
    ``(..., m, k) @ (..., k, n)`` multiplies matching slices.
    """
    ad, bd = a.data, b.data
    if (
        ad.ndim < 2
        or bd.ndim < 2
        or ad.shape[-1] != bd.shape[-2]
        or (bd.ndim > 2 and bd.shape[:-2] != ad.shape[:-2])
    ):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")

    def back(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        if bd.ndim == 2:
            # a shared matrix: one product over every leading index at once
            gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = np.swapaxes(ad, -1, -2) @ g
        return ga, gb

    return _emit((a, b), ad @ bd, back)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also match only the trailing axes of ``a``
    (a bias row or an attention mask shared over leading axes)."""
    if b.data.ndim <= a.data.ndim and a.shape[a.data.ndim - b.data.ndim :] == b.shape:
        return _emit((a, b), a.data + b.data, lambda g: (g, _sum_to(g, b.shape)))
    raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} - {b.shape}")
    return _emit((a, b), a.data - b.data, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} * {b.shape}")
    ad, bd = a.data, b.data
    return _emit((a, b), ad * bd, lambda g: (g * bd, g * ad))


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"div: incompatible shapes {a.shape} / {b.shape}")
    ad, bd = a.data, b.data
    return _emit((a, b), ad / bd, lambda g: (g / bd, -g * ad / (bd * bd)))


def shift(x: Tensor, c: float) -> Tensor:
    return _emit((x,), x.data + c, lambda g: (g,))


def scale(x: Tensor, c: float) -> Tensor:
    return _emit((x,), x.data * c, lambda g: (g * c,))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _emit(tuple(parts), np.concatenate([p.data for p in parts], axis=axis), back)


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    xd = x.data
    if axis is None:
        return _emit((x,), np.sum(xd), lambda g: (np.full_like(xd, float(g)),))

    def back(g):
        return (np.broadcast_to(np.expand_dims(g, axis), xd.shape).copy(),)

    return _emit((x,), np.sum(xd, axis=axis), back)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    xd = x.data
    if axis is None:
        n = xd.size
        return _emit((x,), np.mean(xd), lambda g: (np.full_like(xd, float(g) / n),))
    n = xd.shape[axis]

    def back(g):
        return (np.broadcast_to(np.expand_dims(g / n, axis), xd.shape).copy(),)

    return _emit((x,), np.mean(xd, axis=axis), back)


def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)
    return _emit((x,), y, lambda g: (g * (0.5 / y),))


def absolute(x: Tensor) -> Tensor:
    xd = x.data
    return _emit((x,), np.abs(xd), lambda g: (g * np.sign(xd),))


def sin(x: Tensor) -> Tensor:
    xd = x.data
    return _emit((x,), np.sin(xd), lambda g: (g * np.cos(xd),))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _emit((x,), y, lambda g: (g * (1.0 - y * y),))


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.data.ndim < 2:
        raise ShapeError(f"transpose: expected a tensor of rank >= 2, got shape {x.shape}")
    return _emit((x,), np.swapaxes(x.data, -1, -2).copy(), lambda g: (np.swapaxes(g, -1, -2),))


def broadcast_to(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Repeat ``x`` over new leading axes, e.g. a matrix shared by a batch."""
    shape = tuple(shape)
    if x.data.ndim > len(shape) or shape[len(shape) - x.data.ndim :] != x.shape:
        raise ShapeError(f"broadcast_to: cannot broadcast {x.shape} to {shape}")
    return _emit((x,), np.broadcast_to(x.data, shape), lambda g: (_sum_to(g, x.shape),))


def slice_(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    if not -x.data.ndim <= axis < x.data.ndim or not (0 <= start < stop <= x.shape[axis]):
        raise ShapeError(f"slice: [{start}:{stop}] out of range for axis {axis} of {x.shape}")
    key = (slice(None),) * (axis % x.data.ndim) + (slice(start, stop),)

    def back(g):
        full = np.zeros_like(x.data)
        full[key] = g
        return (full,)

    return _emit((x,), x.data[key].copy(), back)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape
    return _emit((x,), x.data.reshape(shape), lambda g: (g.reshape(old),))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def back(g):
        return (y * (g - np.sum(g * y, axis=axis, keepdims=True)),)

    return _emit((x,), y, back)


def elu(x: Tensor) -> Tensor:
    xd = x.data
    y = np.where(xd > 0, xd, np.expm1(np.minimum(xd, 0.0)))
    return _emit((x,), y, lambda g: (g * np.where(xd > 0, 1.0, y + 1.0),))


def sigmoid(x: Tensor) -> Tensor:
    # exp(-x) overflows to inf for x < -709, which gives exactly 0
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.data))
    return _emit((x,), y, lambda g: (g * y * (1.0 - y),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine.

    Population variance plus ``LAYER_NORM_EPS``; ``gain`` and ``bias`` must
    be 1-D of the last-axis length.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match last axis of {x.shape}")
    xd, gd = x.data, gain.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv

    def back(g):
        dxhat = g * gd
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
        )
        return dx, _sum_to(g * xhat, gd.shape), _sum_to(g, gd.shape)

    return _emit((x, gain, bias), xhat * gd + bias.data, back)


def sign_const(x: Tensor) -> Tensor:
    """Elementwise sign with sign(0) = +1, treated as a constant in backward.

    The result never carries a gradient: sign is piecewise constant, so its
    derivative is zero almost everywhere.
    """
    return Tensor(np.where(x.data >= 0, 1.0, -1.0))
