"""Shared test oracles, written independently of the library internals.

The gradient oracle is central finite differences; the statistics oracles
are direct transcriptions of the defining formulas on plain numpy arrays.
Tests compare library output against these, never the other way round.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

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
    for layer in model.layers[:-1]:
        z = h @ layer.W.data + layer.b.data
        h = np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))
    s = (h @ model.layers[-1].W.data + model.layers[-1].b.data)[0]
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


def lag1_autocorr(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    return float(np.corrcoef(x[:-1], x[1:])[0, 1])


def model_grad_errors(model, loss_fn, coords_per_param=None, rng=None, h=FD_STEP):
    """Per-parameter max relative error between tape and finite-difference grads.

    ``loss_fn`` must rebuild the forward pass from the model's current
    parameter values on every call. With ``coords_per_param`` set, only a
    random subset of coordinates per parameter is probed.
    """
    import ptopt.autograd as ag

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
