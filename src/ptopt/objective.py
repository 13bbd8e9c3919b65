"""Differentiable training objective: cost-adjusted returns and Sharpe loss.

The loss of a window is the negated per-period Sharpe ratio of the net
portfolio returns. Net returns subtract a proportional transaction cost on
turnover, where the position before the first row of a window is taken from
``ReturnsWindow.prev_weights`` (an all-cash zero book by default). Every
function also takes a stack of windows along a leading axis and returns one
value per window.

Annualization is intentionally absent here: it is a constant factor that
cannot move the optimum, so it lives with the backtest statistics instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import ptopt.autograd as ag
from ptopt.autograd import ContractError, ShapeError, Tensor

EPS = 1e-12


@dataclass(frozen=True)
class CostModel:
    """Proportional transaction cost per unit of turnover."""

    cost_rate: float = 0.0002

    def __post_init__(self):
        if self.cost_rate < 0:
            raise ValueError(f"cost_rate must be non-negative, got {self.cost_rate}")


@dataclass
class ReturnsWindow:
    """Realized next-day returns aligned with the weights that earn them.

    ``realized[..., t, :]`` accrues to weight row t; turnover of row 0 is
    charged against ``prev_weights`` (zero book when omitted), the same book
    for every window of a stack.
    """

    realized: np.ndarray
    prev_weights: np.ndarray | None = None

    def __post_init__(self):
        self.realized = np.asarray(self.realized, dtype=np.float64)
        if self.realized.ndim not in (2, 3):
            raise ShapeError(
                f"realized must be (days, assets) or (windows, days, assets), got shape {self.realized.shape}"
            )
        if self.prev_weights is not None:
            self.prev_weights = np.asarray(self.prev_weights, dtype=np.float64)
            if self.prev_weights.shape != self.realized.shape[-1:]:
                raise ShapeError(
                    f"prev_weights shape {self.prev_weights.shape} does not match "
                    f"{self.realized.shape[-1]} assets"
                )


def portfolio_returns(weights: Tensor, window: ReturnsWindow, costs: CostModel) -> Tensor:
    """Net daily portfolio returns for a window (or a stack) of weight rows.

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

    gross = ag.reduce_sum(ag.mul(weights, Tensor(window.realized)), axis=-1)
    first = Tensor(np.broadcast_to(prev0, (*lead, 1, n)))
    prev = ag.concat([first, ag.slice_(weights, -2, 0, t - 1)], axis=-2) if t > 1 else first
    turnover = ag.reduce_sum(ag.absolute(ag.sub(weights, prev)), axis=-1)
    return ag.sub(gross, ag.scale(turnover, costs.cost_rate))


def sharpe(returns: Tensor) -> Tensor:
    """Per-period Sharpe ratio over the last axis, ``EPS``-guarded variance."""
    if returns.data.ndim not in (1, 2) or returns.shape[-1] < 2:
        raise ContractError(f"sharpe needs at least 2 returns per window, got shape {returns.shape}")
    m = ag.mean(returns, axis=-1)
    var = ag.sub(ag.mean(ag.mul(returns, returns), axis=-1), ag.mul(m, m))
    return ag.div(m, ag.sqrt(ag.shift(var, EPS)))


def sharpe_loss(weights: Tensor, window: ReturnsWindow, costs: CostModel) -> Tensor:
    """Negated Sharpe of the cost-adjusted window returns (to be minimized),
    one loss per window of a stack."""
    return ag.scale(sharpe(portfolio_returns(weights, window, costs)), -1.0)
