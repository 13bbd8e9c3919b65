"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: dense arrays and only the operations that
ptopt's models and loss run. Matrix operations act on the last two axes, so a
leading batch axis carries a whole minibatch of windows through one node per
op, with a shared weight or bias broadcast over it.
While a :class:`Tape` is active, every op that touches a differentiable
tensor appends one node; :func:`backward` replays
the tape once in reverse and accumulates gradients into ``Tensor.grad``.
Active tapes form one module-level stack: ptopt runs no threads, and a
``no_grad`` block pushes None over the tape it suspends.

A node costs a few microseconds of Python dispatch, so the models run on a
few coarse ops, each one node with a closed-form backward: ``dense``
(matmul plus bias), ``embed`` (Time2Vec features, concat and projection),
``mha`` (every attention head at once, optionally causal), ``glu``,
``residual_layer_norm``, ``lstm`` (the whole recurrence, with
backpropagation through time) and ``signed_softmax`` (the allocation head's
map from scores to weights). ``ptopt.objective.sharpe_loss`` records its
node through :func:`emit`. Their op-by-op compositions, and the primitives
only they use, are the test oracles in ``tests/helpers.py``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ptopt.errors import ContractError

Array = np.ndarray
LAYER_NORM_EPS = 1e-5
MASK_BLOCK = -1e9  # an additive attention-mask entry that blocks a pair


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


_TAPES: list = []  # the active tapes, innermost last; None while no_grad suspends recording


def active_tape() -> "Tape | None":
    return _TAPES[-1] if _TAPES else None


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
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.pop()


class no_grad:
    """Context that suspends recording (validation / inference passes)."""

    def __enter__(self):
        _TAPES.append(None)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()


def emit(inputs: tuple[Tensor, ...], out_data: Array, back: Callable) -> Tensor:
    """Wrap ``out_data``, the result of an op on ``inputs``, and record one tape node while a tape
    is active and an input requires a gradient; ``back(g)`` returns one gradient (or None) per input."""
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append((inputs, out, back))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every differentiable leaf reachable from ``loss``.

    Gradients accumulate across fan-out: a tensor consumed by several later
    nodes receives the sum of all path gradients. An op output's gradient is
    complete when the sweep reaches its node, which clears it after use, so
    every op output (``loss`` too) ends with ``grad`` None; the tape keeps its nodes.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for inputs, out, back in reversed(tape.nodes):
        g, out.grad = out.grad, None
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
    return np.add.reduce(g, axis=tuple(range(extra))) if extra else g


def _shared_grad(x: Array, g: Array) -> Array:
    """Gradient of a matrix that multiplies every row of ``x``: one product over all rows."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} * {b.shape}")
    ad, bd = a.data, b.data
    return emit((a, b), ad * bd, lambda g: (g * bd if a.requires_grad else None, g * ad if b.requires_grad else None))


def mean(x: Tensor) -> Tensor:
    """The mean of every element of ``x``."""
    xd = x.data
    n = xd.size
    return emit((x,), np.mean(xd), lambda g: (np.full_like(xd, float(g) / n),))


def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape
    return emit((x,), x.data.reshape(shape), lambda g: (g.reshape(old),))


def _row_max(x: Array) -> Array:
    """``np.max(x, axis=-1, keepdims=True)``, one column at a time.

    Rows of a window's width are short, and numpy reduces a short last axis
    row by row; a maximum is exact in any order, so the result is the same.
    """
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j : j + 1], out=m)
    return m


def signed_softmax(x: Tensor) -> Tensor:
    """``sign(x) * softmax(x)`` over the last axis, with sign(0) = +1: every row
    has unit gross exposure.

    The sign is piecewise constant, so its derivative is zero almost
    everywhere and the gradient flows through the softmax magnitudes only.
    """
    xd = x.data
    e = np.exp(xd - _row_max(xd))
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    sign = np.where(xd >= 0, 1.0, -1.0)

    def back(g):
        gp = g * sign
        return (p * (gp - np.add.reduce(gp * p, axis=-1, keepdims=True)),)

    return emit((x,), sign * p, back)


def elu(x: Tensor) -> Tensor:
    xd = x.data
    y = np.where(xd > 0, xd, np.expm1(np.minimum(xd, 0.0)))
    return emit((x,), y, lambda g: (g * np.where(xd > 0, 1.0, y + 1.0),))


def _row_mean(x: Array) -> Array:
    """``x.mean(axis=-1, keepdims=True)``, the same arithmetic without its Python wrapper."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


# ---------------------------------------------------------------------------
# fused blocks: one node each, with a closed-form backward


def _affine_check(op: str, x: Array, w: Tensor, b: Tensor) -> None:
    if x.ndim < 2 or w.data.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"{op}: incompatible shapes {x.shape} @ {w.shape} + {b.shape}")


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b``: a (k, n) matrix and an (n,) bias shared over the leading axes of ``x``."""
    xd, wd = x.data, w.data
    _affine_check("dense", xd, w, b)

    def back(g):
        return (g @ wd.T if x.requires_grad else None), _shared_grad(xd, g), _sum_to(g, b.shape)

    return emit((x, w, b), xd @ wd + b.data, back)


def glu(x: Tensor, w_value: Tensor, b_value: Tensor, w_gate: Tensor, b_gate: Tensor) -> Tensor:
    """Gated linear unit ``(x @ w_value + b_value) * sigmoid(x @ w_gate + b_gate)``."""
    xd, wv, wg = x.data, w_value.data, w_gate.data
    _affine_check("glu", xd, w_value, b_value)
    _affine_check("glu", xd, w_gate, b_gate)
    a = xd @ wv + b_value.data
    with np.errstate(over="ignore"):  # exp(-x) overflows to inf for x < -709, which gives exactly 0
        s = 1.0 / (1.0 + np.exp(-(xd @ wg + b_gate.data)))

    def back(g):
        ga = g * s
        gz = g * a * s * (1.0 - s)
        gx = ga @ wv.T + gz @ wg.T if x.requires_grad else None
        return gx, _shared_grad(xd, ga), _sum_to(ga, b_value.shape), _shared_grad(xd, gz), _sum_to(gz, b_gate.shape)

    return emit((x, w_value, b_value, w_gate, b_gate), a * s, back)


def residual_layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer norm of ``x + y`` over the last axis (population variance plus
    ``LAYER_NORM_EPS``), then ``* gain + bias``, both 1-D of the last-axis length."""
    if x.shape != y.shape:
        raise ShapeError(f"residual_layer_norm: incompatible shapes {x.shape} + {y.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"residual_layer_norm: gain/bias {gain.shape}/{bias.shape} do not match width {d}")
    gd = gain.data
    s = x.data + y.data
    xc = s - _row_mean(s)
    inv = 1.0 / np.sqrt(_row_mean(xc * xc) + LAYER_NORM_EPS)
    xhat = xc * inv

    def back(g):
        dxhat = g * gd
        dx = inv * (dxhat - _row_mean(dxhat) - xhat * _row_mean(dxhat * xhat))
        return dx, dx, _sum_to(g * xhat, gd.shape), _sum_to(g, gd.shape)

    return emit((x, y, gain, bias), xhat * gd + bias.data, back)


def embed(x: Tensor, omega: Tensor, phi: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Append Time2Vec features of each row's position to ``x`` (..., rows, n), then ``@ w + b``.

    Position t has the features ``[omega_0*t + phi_0, sin(omega_i*t + phi_i)...]``,
    ``omega`` and ``phi`` of length k+1 and ``w`` of shape (n+k+1, width). The
    features depend on position only, so one copy serves every window of a batch.
    """
    xd = x.data
    if xd.ndim < 2 or omega.data.ndim != 1 or phi.shape != omega.shape:
        raise ShapeError(f"embed: incompatible shapes {x.shape}, omega {omega.shape}, phi {phi.shape}")
    *lead, rows, n = xd.shape
    pos = np.arange(rows, dtype=np.float64)
    a = pos[:, None] * omega.data + phi.data
    feats = np.concatenate([a[:, :1], np.sin(a[:, 1:])], axis=1)
    z = np.concatenate([xd, np.broadcast_to(feats, (*lead, *feats.shape))], axis=-1)
    _affine_check("embed", z, w, b)

    def back(g):
        gz = g @ w.data.T
        gf = _sum_to(gz[..., n:], feats.shape)
        ga = np.concatenate([gf[:, :1], gf[:, 1:] * np.cos(a[:, 1:])], axis=1)
        gx = gz[..., :n] if x.requires_grad else None
        return gx, pos @ ga, ga.sum(axis=0), _shared_grad(z, g), _sum_to(g, b.shape)

    return emit((x, omega, phi, w, b), z @ w.data + b.data, back)


def mha(
    x: Tensor, memory: Tensor | None,
    wq: Sequence[Tensor], wk: Sequence[Tensor], wv: Sequence[Tensor], wo: Tensor,
    scale: float, causal: bool = False,
) -> Tensor:
    """Multi-head scaled dot-product attention of ``x`` (..., m, d) over ``memory`` (..., n, d),
    or over ``x`` itself (self-attention) when ``memory`` is None.

    Head i projects with ``wq[i]``, ``wk[i]`` and ``wv[i]``, each (d, dk), and
    the heads run as a batch axis. Scores are divided by ``scale``; with
    ``causal``, query row i attends to key rows j <= i only, as ``MASK_BLOCK``
    added to every score with j > i. The heads' outputs are concatenated and
    mixed by ``wo`` (h*dk, d). Each input is projected, and receives its
    gradient, in one product with all of its matrices side by side.
    """
    h = len(wq)
    d, dk = wq[0].shape
    xd = x.data
    md = xd if memory is None else memory.data
    lead, m, n = xd.shape[:-2], xd.shape[-2], md.shape[-2]
    if (
        xd.ndim < 2 or xd.shape[-1] != d or md.shape[:-2] != lead or md.shape[-1] != d
        or any(w.shape != (d, dk) for w in (*wq, *wk, *wv)) or wo.shape != (h * dk, d)
    ):
        raise ShapeError(f"mha: incompatible shapes {xd.shape}, {md.shape} with {h} heads of {(d, dk)}")
    # each input with its roles (0 = q, 1 = k, 2 = v) and their matrices stacked in role order
    roles = [(x, (0, 1, 2))] if memory is None else [(x, (0,)), (memory, (1, 2))]
    groups = [(t, idx, np.array([w.data for i in idx for w in (wq, wk, wv)[i]])) for t, idx in roles]
    proj = [None] * 3  # per role, (..., h, rows, dk)
    for t, idx, w in groups:
        y = t.data[..., None, :, :] @ w
        for j, i in enumerate(idx):
            proj[i] = y[..., j * h : (j + 1) * h, :, :]
    Q, K, V = proj
    scores = (Q @ K.swapaxes(-1, -2)) * (1.0 / scale)
    if causal:
        scores = scores + np.where(np.arange(n) > np.arange(m)[:, None], MASK_BLOCK, 0.0)
    e = np.exp(scores - _row_max(scores))
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    mixed = _merge_heads(p @ V)
    wod = wo.data

    def back(g):
        g_heads = g[..., None, :, :] @ wod.reshape(h, dk, d).swapaxes(-1, -2)
        g_s = g_heads @ V.swapaxes(-1, -2)
        g_s = p * (g_s - np.add.reduce(g_s * p, axis=-1, keepdims=True)) * (1.0 / scale)
        g_proj = (g_s @ K, g_s.swapaxes(-1, -2) @ Q, p.swapaxes(-1, -2) @ g_heads)
        g_in, g_w = [], [None] * 3
        for t, idx, w in groups:
            gy = _merge_heads(np.concatenate([g_proj[i] for i in idx], axis=-3))
            g_in.append(gy @ _merge_heads(w).T if t.requires_grad else None)
            gw = _shared_grad(t.data, gy)  # (d, roles * h * dk): one column block per matrix
            for j, i in enumerate(idx):
                g_w[i] = [gw[:, c * dk : (c + 1) * dk] for c in range(j * h, (j + 1) * h)]
        return (*g_in, *g_w[0], *g_w[1], *g_w[2], _shared_grad(mixed, g))

    return emit((*(t for t, _, _ in groups), *wq, *wk, *wv, wo), mixed @ wod, back)


def lstm(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """The hidden states (..., rows, hidden) of an LSTM run over the rows of ``x`` (..., rows, n).

    ``wx`` (n, 4*hidden), ``wh`` (hidden, 4*hidden) and ``b`` (4*hidden,) pack
    the input, forget, candidate and output gates in that order; the state
    starts at zero. Each step's state is a (..., 1, hidden) row, so a window
    takes the same vector-matrix kernel whatever the batch, and the backward
    pass runs through time, summing the ``wh`` gradient from the last step back.
    """
    xd, wxd, whd = x.data, wx.data, wh.data
    _affine_check("lstm", xd, wx, b)
    h_size = wx.shape[1] // 4
    if xd.shape[-2] < 1 or h_size < 1 or wx.shape[1] != 4 * h_size or wh.shape != (h_size, 4 * h_size):
        raise ShapeError(f"lstm: incompatible shapes {x.shape}, wx {wx.shape}, wh {wh.shape}")
    inputs = xd @ wxd + b.data
    h = c = np.zeros(xd.shape[:-2] + (1, h_size))
    hs = [h]  # the zero state, then the state after each step
    steps = []  # per step: the gates, the previous cell and tanh of the new one
    with np.errstate(over="ignore"):  # as in glu
        for t in range(xd.shape[-2]):
            z = inputs[..., t : t + 1, :] + h @ whd
            gate_in = 1.0 / (1.0 + np.exp(-z[..., :h_size].copy()))
            gate_forget = 1.0 / (1.0 + np.exp(-z[..., h_size : 2 * h_size].copy()))
            candidate = np.tanh(z[..., 2 * h_size : 3 * h_size].copy())
            gate_out = 1.0 / (1.0 + np.exp(-z[..., 3 * h_size :].copy()))
            c_prev, c = c, gate_forget * c + gate_in * candidate
            tanh_c = np.tanh(c)
            h = gate_out * tanh_c
            hs.append(h)
            steps.append((gate_in, gate_forget, candidate, gate_out, c_prev, tanh_c))

    def back(g):
        g_inputs = []
        g_wh = dh_next = dc_next = None
        for t in reversed(range(len(steps))):
            gate_in, gate_forget, candidate, gate_out, c_prev, tanh_c = steps[t]
            dh = g[..., t : t + 1, :]
            if dh_next is not None:
                dh = dh + dh_next
            dc = (dh * gate_out) * (1.0 - tanh_c * tanh_c)
            if dc_next is not None:
                dc = dc_next + dc
            dz = np.concatenate([
                (dc * candidate) * gate_in * (1.0 - gate_in),
                (dc * c_prev) * gate_forget * (1.0 - gate_forget),
                (dc * gate_in) * (1.0 - candidate * candidate),
                (dh * tanh_c) * gate_out * (1.0 - gate_out),
            ], axis=-1)
            dh_next, dc_next = dz @ whd.T, dc * gate_forget
            g_step = _shared_grad(hs[t], dz)
            g_wh = g_step if g_wh is None else g_wh + g_step
            g_inputs.append(dz)
        g_inputs = np.concatenate(g_inputs[::-1], axis=-2)
        gx = g_inputs @ wxd.T if x.requires_grad else None
        return gx, _shared_grad(xd, g_inputs), g_wh, _sum_to(g_inputs, b.shape)

    return emit((x, wx, wh, b), np.concatenate(hs[1:], axis=-2), back)


def _merge_heads(y: Array) -> Array:
    """(..., heads, rows, dk) -> (..., rows, heads*dk): the heads side by side."""
    y = y.swapaxes(-2, -3)
    return y.reshape(*y.shape[:-2], y.shape[-2] * y.shape[-1])

