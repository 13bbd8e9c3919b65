"""Shared test oracles, written independently of the library internals.

The gradient oracle is central finite differences; the statistics oracles
are direct transcriptions of the defining formulas on plain numpy arrays.
The fused tape ops (``ag.dense``, ``ag.embed``, ``ag.mha``, ``ag.glu``,
``ag.residual_layer_norm``, ``ag.lstm``, ``ag.signed_softmax``,
``objective.sharpe_loss``) have
op-by-op oracles here, down to whole PT and LSTM forward passes, built from
tape primitives; those that only the oracles use live here too, recorded
through ``ag.emit``. Tests compare library output against these, never the
other way round.
"""

from __future__ import annotations

import datetime as dt
import tracemalloc
from typing import Callable, Sequence

import numpy as np

import ptopt.autograd as ag
from ptopt.autograd import ContractError, ShapeError, Tensor
from ptopt.data import PriceTable, ReturnTable, SynthConfig, synth_generate, write_csv
from ptopt.errors import DataError

FD_STEP = 1e-5
# relative-error floor: below this magnitude the fd quotient is dominated
# by roundoff, so errors are measured against the floor instead
REL_FLOOR = 1e-4


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = REL_FLOOR) -> float:
    """Largest elementwise relative error with a small-magnitude floor."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    assert a.shape == n.shape
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def softmax_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def time2vec_encode(t_index: int, layer) -> np.ndarray:
    """Time2Vec features of one window position: [w0*t+p0, sin(wi*t+pi)...]."""
    a = layer.omega.data * float(t_index) + layer.phi.data
    return np.concatenate([a[:1], np.sin(a[1:])])


def mlp_forward(x: np.ndarray, model) -> np.ndarray:
    """Allocation of an MLP model for one (window, n_assets) trailing window."""
    h = np.asarray(x, dtype=np.float64).reshape(1, -1)
    for layer in model.layer[:-1]:
        z = h @ layer.W.data + layer.b.data
        h = np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))
    s = (h @ model.layer[-1].W.data + model.layer[-1].b.data)[0]
    return np.where(s >= 0, 1.0, -1.0) * softmax_rows(s)


def portfolio_returns_oracle(
    weights: np.ndarray, returns: np.ndarray, cost: float, prev0: np.ndarray | None = None
) -> np.ndarray:
    """Net daily portfolio returns from lagged weights minus turnover costs.

    ``weights[i]`` is held while ``returns[i]`` accrues; turnover on day i
    is measured against ``weights[i-1]``, with ``prev0`` (default all-zero)
    standing in before the first day.
    """
    w = np.asarray(weights, dtype=np.float64)
    r = np.asarray(returns, dtype=np.float64)
    head = np.zeros(w.shape[1]) if prev0 is None else np.asarray(prev0, dtype=np.float64)
    prev = np.vstack([head, w[:-1]])
    gross = (w * r).sum(axis=1)
    turnover = np.abs(w - prev).sum(axis=1)
    return gross - cost * turnover


def run_backtest_oracle(stream, table, cost_rate: float):
    """``metrics.run_backtest`` as a date dict and a Python contiguity loop.

    Returns ``(earn_dates, net)``; raises the library's ``AlignmentError``
    with the library's messages.
    """
    from ptopt.errors import AlignmentError

    index = {d: i for i, d in enumerate(table.dates)}
    rows = []
    for d in stream.dates:
        i = index.get(d)
        if i is None:
            raise AlignmentError(f"weight date {d} not present in the return table")
        if i + 1 >= len(table.dates):
            raise AlignmentError(f"no realized return after weight date {d}")
        rows.append(i)
    for prev_row, row, d in zip(rows, rows[1:], stream.dates[1:]):
        if row != prev_row + 1:
            raise AlignmentError(f"weight dates skip trading days before {d}")
    w = stream.weights
    realized = table.returns[[i + 1 for i in rows]]
    prev = np.vstack([np.zeros(table.n_assets), w[:-1]])
    net = (w * realized).sum(axis=1) - cost_rate * np.abs(w - prev).sum(axis=1)
    return [table.dates[i + 1] for i in rows], net


def sharpe_oracle(r: np.ndarray, eps: float = 1e-12) -> float:
    """Mean over uncentered-std Sharpe with the stabilizing eps under the root."""
    r = np.asarray(r, dtype=np.float64)
    m = r.mean()
    var = np.mean(r * r) - m * m
    return float(m / np.sqrt(var + eps))


def metrics_oracle(returns) -> dict:
    """Plain-Python reimplementation of the seven report statistics.

    Deliberately shares no code with the library: loops, running maxima and
    (peak - level)/peak drawdowns instead of vectorized expressions.
    """
    rs = [float(x) for x in returns]
    n = len(rs)
    mean = sum(rs) / n
    sd = (sum((x - mean) ** 2 for x in rs) / n) ** 0.5
    downside = (sum(min(x, 0.0) ** 2 for x in rs) / n) ** 0.5
    k = 252**0.5

    def ratio(num, den, mult):
        if den == 0.0:
            return float("inf") if num >= 0 else float("-inf")
        return num / den * mult

    level, peak, mdd = 1.0, 1.0, 0.0
    for x in rs:
        level *= 1.0 + x
        peak = max(peak, level)
        mdd = max(mdd, (peak - level) / peak)

    ann_return = mean * 252
    return {
        "returns": ann_return,
        "vol": sd * k,
        "sharpe": ratio(mean, sd, k),
        "sortino": ratio(mean, downside, k),
        "mdd": mdd,
        "calmar": ratio(ann_return, mdd, 1.0),
        "pct_positive": sum(1 for x in rs if x > 0) / n,
    }


def rolling_sharpe_oracle(r: np.ndarray, window: int) -> np.ndarray:
    """Annualized Sharpe of each trailing window, one window at a time.

    Zero dispersion reads as a signed infinity, +inf for a non-negative mean.
    """
    r = np.asarray(r, dtype=np.float64)
    out = np.empty(r.size - window + 1)
    for i in range(out.size):
        chunk = r[i : i + window]
        mean, sd = float(chunk.mean()), float(chunk.std())
        if sd == 0.0:
            out[i] = np.inf if mean >= 0 else -np.inf
        else:
            out[i] = mean / sd * np.sqrt(252.0)
    return out


def mv_weights_oracle(returns: np.ndarray, decision_rows, lookback: int, ridge: float) -> np.ndarray:
    """Per-day mean-variance weights: np.cov and one solve for each decision row.

    Row p of ``decision_rows`` reads the ``lookback`` return rows ending at p.
    """
    out = []
    for p in decision_rows:
        window = returns[p + 1 - lookback : p + 1]
        mu = window.mean(axis=0)
        sigma = np.atleast_2d(np.cov(window, rowvar=False, ddof=1))
        raw = np.linalg.solve(sigma + ridge * np.eye(len(mu)), mu)
        gross = np.abs(raw).sum()
        out.append(np.full(len(mu), 1.0 / len(mu)) if gross == 0.0 else raw / gross)
    return np.array(out)


def forward_fill_oracle(prices: np.ndarray) -> np.ndarray:
    """Each missing cell takes the cell above it once its column has been observed."""
    out = np.array(prices, dtype=np.float64)
    t, n = out.shape
    for j in range(n):
        seen = False
        for i in range(t):
            if np.isnan(out[i, j]):
                if seen:
                    out[i, j] = out[i - 1, j]
            else:
                seen = True
    return out


def clean_and_return_oracle(table: PriceTable) -> ReturnTable:
    """``clean_and_return`` on the whole matrix at once: one forward-fill index
    for every cell, one gathered block of filled prices and one division."""
    observed = ~np.isnan(table.prices)
    short = np.flatnonzero(observed.sum(axis=0) < 2)
    if short.size:
        raise DataError(f"ticker {table.tickers[short[0]]} has fewer than 2 observations")
    start = int(observed.argmax(axis=0).max())
    t, n = observed.shape
    if t - start < 2:
        raise DataError("fewer than 2 rows after aligning ticker starts")
    last = np.where(observed, np.arange(t, dtype=np.int32)[:, None], 0)
    np.maximum.accumulate(last, axis=0, out=last)
    block = table.prices[last[start:], np.arange(n)]
    returns = block[1:] / block[:-1]
    returns -= 1.0
    return ReturnTable(table.dates[start + 1 :], list(table.tickers), returns)


def write_gapped_csv(path, days: int, assets: int, gaps: float, seed: int = 0) -> None:
    """A synthetic price CSV of ``days`` x ``assets`` with a ``gaps`` share of empty cells."""
    raw = synth_generate(SynthConfig(n_assets=assets, n_days=days, seed=seed))
    prices = raw.prices.copy()
    prices[np.random.default_rng(seed).random(prices.shape) < gaps] = np.nan
    write_csv(PriceTable(raw.dates, raw.tickers, prices), path)


def traced_peak(fn):
    """``fn()`` and its tracemalloc peak in bytes above the memory traced when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return fn(), tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def load_csv_oracle(path) -> tuple[list, list[str], np.ndarray]:
    """Dates, tickers and prices of a well-formed price CSV, read cell by cell,
    the rows sorted by date (stably); an empty cell is NaN."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line]
    tickers = lines[0].split(",")[1:]
    rows = [line.split(",") for line in lines[1:]]
    rows.sort(key=lambda cells: dt.date.fromisoformat(cells[0]))
    prices = np.full((len(rows), len(tickers)), np.nan)
    for i, cells in enumerate(rows):
        for j, cell in enumerate(cells[1:]):
            if cell:
                prices[i, j] = float(cell)
    return [dt.date.fromisoformat(cells[0]) for cells in rows], tickers, prices


def lag1_autocorr(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    return float(np.corrcoef(x[:-1], x[1:])[0, 1])


def model_grad_errors(model, loss_fn, coords_per_param=None, rng=None, h=FD_STEP):
    """Per-parameter max relative error between tape and finite-difference grads.

    ``loss_fn`` must rebuild the forward pass from the model's current
    parameter values on every call. With ``coords_per_param`` set, only a
    random subset of coordinates per parameter is probed.
    """
    params = model.parameters()
    for p in params.values():
        p.grad = None
    with ag.Tape() as tape:
        loss = loss_fn()
        ag.backward(loss, tape)
    grads = {n: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for n, p in params.items()}

    errs = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        g = grads[name].reshape(-1)
        if coords_per_param is None or coords_per_param >= flat.size:
            idx = np.arange(flat.size)
        else:
            idx = np.sort(rng.choice(flat.size, size=coords_per_param, replace=False))
        numeric = np.zeros(len(idx))
        for j, i in enumerate(idx):
            orig = flat[i]
            flat[i] = orig + h
            with ag.no_grad():
                fp = loss_fn().item()
            flat[i] = orig - h
            with ag.no_grad():
                fm = loss_fn().item()
            flat[i] = orig
            numeric[j] = (fp - fm) / (2.0 * h)
        errs[name] = max_rel_err(g[idx], numeric)
    return errs


class NamedAdam:
    """Bias-corrected Adam as a loop over named arrays, one update per array.

    The oracle of ``ptopt.training.Adam``, which runs the same elementwise
    expressions once over a flat vector.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros_like(x) for name, x in params.items()}
        self.v = {name: np.zeros_like(x) for name, x in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        for name, x in self.params.items():
            g = grads[name]
            self.m[name] = self.BETA1 * self.m[name] + (1.0 - self.BETA1) * g
            self.v[name] = self.BETA2 * self.v[name] + (1.0 - self.BETA2) * g * g
            m_hat = self.m[name] / (1.0 - self.BETA1**t)
            v_hat = self.v[name] / (1.0 - self.BETA2**t)
            self.params[name] = x - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


class RecordingExecutor:
    """Stands in for ``ProcessPoolExecutor`` without starting a process.

    It runs the initializer and every mapped call in-process, and keeps its
    worker count, its initializer arguments and each payload a worker would
    be sent.
    """

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers, self.initargs, self.payloads, self.shut = max_workers, initargs, [], False
        initializer(*initargs)

    def map(self, fn, items):
        items = list(items)
        self.payloads.extend(items)
        return map(fn, items)

    def shutdown(self, cancel_futures=False):
        self.shut = True


def record_executors(monkeypatch) -> list:
    """Make every ``concurrent.futures.ProcessPoolExecutor`` a RecordingExecutor
    for the test's duration; return the list of those constructed."""
    import concurrent.futures

    import ptopt.training as tr

    made = []

    def make(**kwargs):
        made.append(RecordingExecutor(**kwargs))
        return made[-1]

    monkeypatch.setattr(tr, "_worker_table", None)  # the in-process initializer sets it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make)
    return made


# ---------------------------------------------------------------------------
# fine-grained tape primitives, used only by the compositions below


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
            gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = np.swapaxes(ad, -1, -2) @ g
        return ga, gb

    return ag.emit((a, b), ad @ bd, back)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also match only the trailing axes of ``a``
    (a bias row shared over leading axes)."""
    extra = a.data.ndim - b.data.ndim
    if extra >= 0 and a.shape[extra:] == b.shape:
        return ag.emit((a, b), a.data + b.data, lambda g: (g, g.sum(axis=tuple(range(extra))) if extra else g))
    raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}")


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return ag.emit(tuple(parts), np.concatenate([p.data for p in parts], axis=axis), back)


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """The mean over one axis; ``ag.mean`` takes the mean of every element."""
    xd = x.data
    n = xd.shape[axis]

    def back(g):
        return (np.broadcast_to(np.expand_dims(g / n, axis), xd.shape).copy(),)

    return ag.emit((x,), np.mean(xd, axis=axis), back)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return ag.emit((x,), y, lambda g: (g * (1.0 - y * y),))


def slice_(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    if not -x.data.ndim <= axis < x.data.ndim or not (0 <= start < stop <= x.shape[axis]):
        raise ShapeError(f"slice: [{start}:{stop}] out of range for axis {axis} of {x.shape}")
    key = (slice(None),) * (axis % x.data.ndim) + (slice(start, stop),)

    def back(g):
        full = np.zeros_like(x.data)
        full[key] = g
        return (full,)

    return ag.emit((x,), x.data[key].copy(), back)


def sigmoid(x: Tensor) -> Tensor:
    # exp(-x) overflows to inf for x < -709, which gives exactly 0
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.data))
    return ag.emit((x,), y, lambda g: (g * y * (1.0 - y),))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    xd = x.data
    e = np.exp(xd - np.max(xd, axis=-1, keepdims=True))
    y = e / np.sum(e, axis=-1, keepdims=True)

    def back(g):
        return (y * (g - np.sum(g * y, axis=-1, keepdims=True)),)

    return ag.emit((x,), y, back)


def sign_const(x: Tensor) -> Tensor:
    """Elementwise sign with sign(0) = +1, a constant: the result never carries a gradient."""
    return Tensor(np.where(x.data >= 0, 1.0, -1.0))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} - {b.shape}")
    return ag.emit((a, b), a.data - b.data, lambda g: (g, -g))


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"div: incompatible shapes {a.shape} / {b.shape}")
    ad, bd = a.data, b.data
    return ag.emit((a, b), ad / bd, lambda g: (g / bd, -g * ad / (bd * bd)))


def shift(x: Tensor, c: float) -> Tensor:
    return ag.emit((x,), x.data + c, lambda g: (g,))


def scale(x: Tensor, c: float) -> Tensor:
    return ag.emit((x,), x.data * c, lambda g: (g * c,))


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    xd = x.data
    if axis is None:
        return ag.emit((x,), np.sum(xd), lambda g: (np.full_like(xd, float(g)),))

    def back(g):
        return (np.broadcast_to(np.expand_dims(g, axis), xd.shape).copy(),)

    return ag.emit((x,), np.sum(xd, axis=axis), back)


def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)
    return ag.emit((x,), y, lambda g: (g * (0.5 / y),))


def absolute(x: Tensor) -> Tensor:
    xd = x.data
    return ag.emit((x,), np.abs(xd), lambda g: (g * np.sign(xd),))


def sin(x: Tensor) -> Tensor:
    xd = x.data
    return ag.emit((x,), np.sin(xd), lambda g: (g * np.cos(xd),))


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.data.ndim < 2:
        raise ShapeError(f"transpose: expected a tensor of rank >= 2, got shape {x.shape}")
    return ag.emit((x,), np.swapaxes(x.data, -1, -2).copy(), lambda g: (np.swapaxes(g, -1, -2),))


def broadcast_to(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Repeat ``x`` over new leading axes, e.g. a matrix shared by a batch."""
    shape = tuple(shape)
    extra = len(shape) - x.data.ndim
    if extra < 0 or shape[extra:] != x.shape:
        raise ShapeError(f"broadcast_to: cannot broadcast {x.shape} to {shape}")
    return ag.emit((x,), np.broadcast_to(x.data, shape), lambda g: (g.sum(axis=tuple(range(extra))),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``ag.residual_layer_norm`` without the residual, from primitives: a row mean
    is a product with a (d, d) matrix of 1/d, which repeats the mean across the row."""
    d = x.shape[-1]
    means = Tensor(np.full((d, d), 1.0 / d))
    xc = sub(x, matmul(x, means))
    var = matmul(ag.mul(xc, xc), means)
    xhat = div(xc, sqrt(shift(var, ag.LAYER_NORM_EPS)))
    return add(ag.mul(xhat, broadcast_to(gain, x.shape)), bias)


def causal_mask(n: int) -> np.ndarray:
    """Additive (n, n) mask letting position i attend to positions j <= i only."""
    return np.triu(np.full((n, n), ag.MASK_BLOCK), k=1)


# ---------------------------------------------------------------------------
# op-by-op compositions: the oracles of the fused tape ops


def dense_composed(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


def time2vec_matrix(n_rows: int, layer) -> Tensor:
    """Stacked time features for positions 0..n_rows-1, shape (n_rows, k+1)."""
    t = Tensor(np.arange(n_rows, dtype=np.float64).reshape(n_rows, 1))
    width = layer.omega.data.size  # k + 1
    a = add(matmul(t, ag.reshape(layer.omega, (1, width))), layer.phi)
    return concat([slice_(a, 1, 0, 1), sin(slice_(a, 1, 1, width))], axis=1)


def embed_composed(x: Tensor, time2vec, proj) -> Tensor:
    """Time features appended to the rows of ``x`` (a window or a stack), then ``proj``."""
    t2v = time2vec_matrix(x.shape[-2], time2vec)
    t2v = broadcast_to(t2v, x.shape[:-1] + t2v.shape[-1:])
    return dense_composed(concat([x, t2v], axis=-1), proj.W, proj.b)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention with an optional additive (rows, rows) mask."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query/key width mismatch: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key/value row mismatch: {k.shape} vs {v.shape}")
    raw = matmul(q, transpose(k))
    scores = ag.mul(raw, Tensor(np.full(raw.shape, 1.0 / scale)))  # the argument shadows the primitive scale()
    if mask is not None:
        if mask.shape != scores.shape[-2:]:
            raise ShapeError(f"mask shape {mask.shape} does not match scores {scores.shape}")
        if np.any(np.all(mask <= ag.MASK_BLOCK / 2, axis=1)):
            raise ContractError("attention mask blocks an entire row")
        scores = add(scores, Tensor(mask))
    return matmul(softmax(scores), v)


def mha_composed(q_in: Tensor, k_in: Tensor, v_in: Tensor, layer, mask: np.ndarray | None = None) -> Tensor:
    """Multi-head attention as a loop over the heads of an ``MHALayer``."""
    heads = [
        attention(
            matmul(q_in, layer.wq[i]), matmul(k_in, layer.wk[i]), matmul(v_in, layer.wv[i]),
            layer.scale, mask,
        )
        for i in range(layer.n_heads)
    ]
    mixed = heads[0] if layer.n_heads == 1 else concat(heads, axis=-1)
    return matmul(mixed, layer.wo)


def signed_softmax_composed(scores: Tensor) -> Tensor:
    """``sign(s) * softmax(s)`` with the sign a constant: the oracle of ``ag.signed_softmax``."""
    return ag.mul(sign_const(scores), softmax(scores))


def glu_composed(x: Tensor, value, gate) -> Tensor:
    """``value(x) * sigmoid(gate(x))`` for two ``Dense`` layers."""
    return ag.mul(dense_composed(x, value.W, value.b), sigmoid(dense_composed(x, gate.W, gate.b)))


def residual_layer_norm_composed(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    return layer_norm(add(x, y), gain, bias)


def _no_drop(x: Tensor) -> Tensor:
    return x


def grn_composed(z: Tensor, layer, drop: Callable[[Tensor], Tensor] = _no_drop) -> Tensor:
    """The gated residual block of a ``GRNLayer``; ``drop`` acts on the GLU output."""
    g2 = ag.elu(dense_composed(z, layer.inner.W, layer.inner.b))
    g1 = dense_composed(g2, layer.outer.W, layer.outer.b)
    gated = drop(glu_composed(g1, layer.glu_value, layer.glu_gate))
    return residual_layer_norm_composed(z, gated, layer.ln_gain, layer.ln_bias)


def pt_weights_composed(model, block: np.ndarray, rng: np.random.Generator | None = None) -> Tensor:
    """A ``PortfolioTransformer``'s weight rows for a (B, 2*window, n) block stack.

    With ``rng`` and a positive dropout, masks are drawn, in this order, after
    each embedding, after each attention and after each GLU: the draws of the
    model's own training pass.
    """
    tau = model.config.window
    drop = model._drop_fn(rng)

    def embed(x):
        return drop(embed_composed(Tensor(x), model.t2v, model.input_proj))

    enc = embed(block[:, :tau])
    for layer in model.enc:
        a = residual_layer_norm_composed(enc, drop(mha_composed(enc, enc, enc, layer.mha)), layer.ln_gain, layer.ln_bias)
        enc = grn_composed(a, layer.grn, drop)
    dec = embed(block[:, tau:])
    for layer in model.dec:
        self_att = drop(mha_composed(dec, dec, dec, layer.self_mha, causal_mask(tau)))
        a = residual_layer_norm_composed(dec, self_att, layer.ln1_gain, layer.ln1_bias)
        cross = drop(mha_composed(a, enc, enc, layer.cross_mha))
        b = residual_layer_norm_composed(a, cross, layer.ln2_gain, layer.ln2_bias)
        dec = grn_composed(b, layer.grn, drop)
    scores = dense_composed(dec, model.head.W, model.head.b)
    return signed_softmax_composed(scores)


def lstm_composed(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """The LSTM recurrence as one tape node per op and step, with the
    (..., 1, hidden) state rows and gate copies of ``ag.lstm``."""
    h_size = wh.shape[0]
    inputs = ag.dense(x, wx, b)
    h = Tensor(np.zeros(x.shape[:-2] + (1, h_size)))
    c = Tensor(np.zeros(x.shape[:-2] + (1, h_size)))
    states = []
    for t in range(x.shape[-2]):
        z = add(slice_(inputs, -2, t, t + 1), matmul(h, wh))
        gate_in = sigmoid(slice_(z, -1, 0, h_size))
        gate_forget = sigmoid(slice_(z, -1, h_size, 2 * h_size))
        candidate = tanh(slice_(z, -1, 2 * h_size, 3 * h_size))
        gate_out = sigmoid(slice_(z, -1, 3 * h_size, 4 * h_size))
        c = add(ag.mul(gate_forget, c), ag.mul(gate_in, candidate))
        h = ag.mul(gate_out, tanh(c))
        states.append(h)
    return concat(states, axis=-2)


def lstm_forward_composed(x: np.ndarray, model) -> Tensor:
    """An ``LSTMModel``'s weight rows for one (rows, n) window or a (B, rows, n) stack."""
    states = lstm_composed(Tensor(np.asarray(x, dtype=np.float64)), model.wx, model.wh, model.b)
    return signed_softmax_composed(model.head(states))


def portfolio_returns(weights: Tensor, window, costs) -> Tensor:
    """Net daily portfolio returns of a ``ReturnsWindow``, on the tape.

    Row t contributes sum(weights[t] * realized[t]) minus ``cost_rate`` times
    the L1 distance between weight row t and the previous row. The result
    drops the asset axis: (days,) or (windows, days).
    """
    if weights.data.ndim not in (2, 3):
        raise ShapeError(f"weights must be (days, assets) or (windows, days, assets), got shape {weights.shape}")
    *lead, t, n = weights.shape
    if window.realized.shape != weights.shape:
        raise ShapeError(f"returns shape {window.realized.shape} does not match weights {weights.shape}")
    prev0 = window.prev_weights if window.prev_weights is not None else np.zeros(n)

    gross = reduce_sum(ag.mul(weights, Tensor(window.realized)), axis=-1)
    first = Tensor(np.broadcast_to(prev0, (*lead, 1, n)))
    prev = concat([first, slice_(weights, -2, 0, t - 1)], axis=-2) if t > 1 else first
    turnover = reduce_sum(absolute(sub(weights, prev)), axis=-1)
    return sub(gross, scale(turnover, costs.cost_rate))


def sharpe(returns: Tensor, eps: float = 1e-12) -> Tensor:
    """Per-period Sharpe ratio over the last axis, ``eps``-guarded variance, on the tape."""
    if returns.data.ndim not in (1, 2) or returns.shape[-1] < 2:
        raise ContractError(f"sharpe needs at least 2 returns per window, got shape {returns.shape}")
    m = mean_axis(returns, -1)
    var = sub(mean_axis(ag.mul(returns, returns), -1), ag.mul(m, m))
    return div(m, sqrt(shift(var, eps)))


def sharpe_loss_composed(weights: Tensor, window, costs) -> Tensor:
    return scale(sharpe(portfolio_returns(weights, window, costs)), -1.0)


def backward_keeping_grads(loss: Tensor, tape) -> None:
    """``ag.backward`` without freeing: every op output keeps its gradient."""
    loss.grad = np.ones_like(loss.data)
    for inputs, out, back in reversed(tape.nodes):
        if out.grad is None:
            continue
        for t, gi in zip(inputs, back(out.grad)):
            if gi is not None and t.requires_grad:
                t.grad = gi if t.grad is None else t.grad + gi


def tape_value_and_grads(fn, inputs: dict[str, np.ndarray], coef_seed: int = 0):
    """``fn``'s value on fresh leaf tensors of ``inputs`` (a dict of arrays, passed
    to ``fn`` as a dict of tensors), and the gradient of a fixed random
    weighting of that value with respect to each input; an input the value
    does not reach gets zeros."""
    leaves = {name: Tensor(np.array(x, dtype=np.float64), requires_grad=True) for name, x in inputs.items()}
    with ag.Tape() as tape:
        out = fn(leaves)
        coef = np.random.default_rng(coef_seed).standard_normal(out.shape)
        ag.backward(reduce_sum(ag.mul(out, Tensor(coef))), tape)
    grads = {name: t.grad if t.grad is not None else np.zeros_like(t.data) for name, t in leaves.items()}
    return out.data, grads


def finite_diff_grads(fn, inputs: dict[str, np.ndarray], coef_seed: int = 0) -> dict[str, np.ndarray]:
    """Central differences of the weighting that ``tape_value_and_grads`` differentiates."""
    arrays = {name: np.array(x, dtype=np.float64) for name, x in inputs.items()}

    def weighted(values):
        with ag.no_grad():
            out = fn({name: Tensor(x) for name, x in values.items()}).data
        return float(np.sum(out * np.random.default_rng(coef_seed).standard_normal(out.shape)))

    return {
        name: finite_diff_grad(lambda x, name=name: weighted({**arrays, name: x}), arrays[name].copy())
        for name in arrays
    }


def scaled_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest absolute difference, relative to the larger of 1 and ``b``'s largest magnitude."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    return float(np.max(np.abs(a - b), initial=0.0) / max(1.0, float(np.max(np.abs(b), initial=0.0))))


def assert_fused_matches_composed(fused, composed, inputs: dict[str, np.ndarray], fd: bool = True) -> None:
    """A fused op equals its op-by-op composition within 1e-12 on the value and
    on the gradient with respect to every input, and (with ``fd``) its
    gradients pass the finite-difference check."""
    value, grads = tape_value_and_grads(fused, inputs)
    ref_value, ref_grads = tape_value_and_grads(composed, inputs)
    assert scaled_gap(value, ref_value) <= 1e-12
    for name in inputs:
        assert scaled_gap(grads[name], ref_grads[name]) <= 1e-12, name
    if fd:
        numeric = finite_diff_grads(fused, inputs)
        for name in inputs:
            assert max_rel_err(grads[name], numeric[name]) < 1e-4, name
