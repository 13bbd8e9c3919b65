"""Baseline allocation strategies: mean-variance, MLP, LSTM, equal weight.

The neural baselines share the allocation head and Sharpe objective of the
attention model, so performance differences isolate the architecture. The
mean-variance rule is the classical two-step estimate-then-optimize
portfolio: tangency direction of trailing sample moments, normalized to
unit gross exposure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import ptopt.autograd as ag
from ptopt.autograd import Tensor
from ptopt.errors import DataError, NumericError
from ptopt.model import Dense, Layer, PortfolioTransformer, WindowConfig, _pack, _uniform_init, batched_weights, last_rows

# ---------------------------------------------------------------------------
# mean-variance


@dataclass(frozen=True)
class MVConfig:
    """Trailing-window moment estimation for the mean-variance rule.

    ``ridge`` is added to the covariance diagonal before inversion; zero is
    allowed for exact-algebra tests but leaves singular covariances fatal.
    """

    lookback: int = 50
    ridge: float = 1e-6

    def __post_init__(self):
        if self.lookback < 2:
            raise ValueError(f"lookback must be >= 2, got {self.lookback}")
        if self.ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")


def equal_weights(n_assets: int) -> np.ndarray:
    return np.full(n_assets, 1.0 / n_assets)


def tangency_weights(mu: np.ndarray, sigma: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Max-Sharpe direction inv(sigma + ridge*I) @ mu, L1-normalized.

    ``mu`` may be one ``(n,)`` vector with an ``(n, n)`` sigma or a ``(D, n)``
    stack with ``(D, n, n)``; all D systems go through one solve. A zero
    direction (for example mu = 0) falls back to equal weights, row by row.
    """
    mu = np.asarray(mu, dtype=np.float64)
    n = mu.shape[-1]
    loaded = np.array(sigma, dtype=np.float64)  # a copy, loaded with the ridge in place
    diagonal = np.arange(n)
    loaded[..., diagonal, diagonal] += ridge
    try:
        raw = np.linalg.solve(loaded, mu[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"covariance not invertible: {exc}") from exc
    gross = np.abs(raw).sum(axis=-1, keepdims=True)
    return np.divide(raw, gross, out=np.full_like(raw, 1.0 / n), where=gross != 0.0)


def mv_weights(history: np.ndarray, cfg: MVConfig) -> np.ndarray:
    """Tangency weights from the trailing ``lookback`` rows of returns.

    ``history`` is one ``(rows, n)`` history, giving ``(n,)`` weights, or a
    ``(D, rows, n)`` stack of them, giving ``(D, n)``.
    """
    history = np.asarray(history, dtype=np.float64)
    if history.ndim not in (2, 3) or history.shape[-2] < cfg.lookback:
        raise DataError(f"need at least {cfg.lookback} return rows, got shape {history.shape}")
    mu, sigma = _moments(history[..., -cfg.lookback :, :])
    return tangency_weights(mu, sigma, cfg.ridge)


def _moments(window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance over the rows of each window, as np.cov computes them."""
    mu = window.mean(axis=-2)
    centred = window - mu[..., None, :]
    sigma = np.matmul(centred.swapaxes(-1, -2), centred)
    sigma *= 1.0 / (window.shape[-2] - 1)
    return mu, sigma


# ---------------------------------------------------------------------------
# MLP


@dataclass(frozen=True)
class MLPConfig(WindowConfig):
    hidden: tuple[int, ...] = (32,)
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError(f"bad hidden sizes {self.hidden}")


class MLPModel(Layer):
    """Dense stack over the flattened trailing window, one weight row out."""

    kind = "mlp"
    config_class = MLPConfig

    def __init__(self, config: MLPConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        widths = [config.window * config.n_assets, *config.hidden, config.n_assets]
        self.layer = [Dense(a, b, rng) for a, b in zip(widths, widths[1:])]
        self.vector = _pack(self.parameters())

    def forward(self, blocks: np.ndarray, rng=None) -> Tensor:
        """One weight row per decoder position of each block of a checked (B, 2*window, n_assets) stack.

        Row j of a block reads the trailing window block[j+1 : window+j+1];
        all of them, for every block of the stack, go through one matmul.
        """
        tau, n = self.config.window, self.config.n_assets
        # (B, tau+1, n, tau) views of every length-tau run; drop the oldest
        trailing = sliding_window_view(blocks, tau, axis=1)[:, 1:].transpose(0, 1, 3, 2)
        h = Tensor(trailing.reshape(blocks.shape[0], tau, tau * n))  # flattened trailing windows
        for layer in self.layer[:-1]:
            h = ag.elu(layer(h))
        return ag.signed_softmax(self.layer[-1](h))

    window_weights = batched_weights
    day_weights = last_rows


# ---------------------------------------------------------------------------
# LSTM


@dataclass(frozen=True)
class LSTMConfig(WindowConfig):
    hidden: int = 16
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")


class LSTMModel(Layer):
    """Single-layer LSTM over the window with per-step allocation scores.

    Gate order in the packed projections is input, forget, candidate,
    output.
    """

    kind = "lstm"
    config_class = LSTMConfig

    def __init__(self, config: LSTMConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        n, h = config.n_assets, config.hidden
        self.wx = _uniform_init(rng, n, (n, 4 * h))
        self.wh = _uniform_init(rng, h, (h, 4 * h))
        self.b = Tensor(np.zeros(4 * h), requires_grad=True)
        self.head = Dense(h, n, rng)
        self.vector = _pack(self.parameters())

    def forward(self, blocks: np.ndarray, rng=None) -> Tensor:
        """One weight row per row of the newer half of each block of a checked (B, 2*window, n_assets) stack."""
        return lstm_forward(blocks[:, self.config.window :], self)

    window_weights = batched_weights
    day_weights = last_rows


def lstm_forward(x: np.ndarray, model: LSTMModel) -> Tensor:
    """Run the recurrence over a window; weight row t uses rows 0..t only.

    ``x`` is one (rows, n_assets) window or a (B, rows, n_assets) stack, whose
    width ``ag.lstm`` checks; the whole recurrence is one ``ag.lstm`` tape node.
    """
    return ag.signed_softmax(model.head(ag.lstm(Tensor(x), model.wx, model.wh, model.b)))


# every trainable model class by its strategy and checkpoint kind
MODEL_KINDS = {cls.kind: cls for cls in (PortfolioTransformer, LSTMModel, MLPModel)}
