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
from ptopt.autograd import Tensor
from ptopt.errors import NumericError, check_bounds

EPS = 1e-12


@dataclass(frozen=True)
class CostModel:
    """Proportional transaction cost per unit of turnover."""

    cost_rate: float = 0.0002

    def __post_init__(self):
        check_bounds(self, cost_rate=0)


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
            raise ValueError(
                f"realized must be (days, assets) or (windows, days, assets), got shape {self.realized.shape}"
            )
        if self.prev_weights is not None:
            self.prev_weights = np.asarray(self.prev_weights, dtype=np.float64)
            if self.prev_weights.shape != self.realized.shape[-1:]:
                raise ValueError(
                    f"prev_weights shape {self.prev_weights.shape} does not match "
                    f"{self.realized.shape[-1]} assets"
                )


def net_returns(weights: np.ndarray, realized: np.ndarray, prev, cost_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """The cost model of the loss and the backtest: ``(net, diff)`` per weight row.

    ``diff[t]`` is weight row t minus row t-1, the first row minus ``prev`` (a
    book, or 0.0 for the zero book). Row t nets sum(weights[t] * realized[t])
    minus ``cost_rate`` times the L1 norm of ``diff[t]``. Leading axes stack windows.
    """
    diff = weights.copy()
    diff[..., 1:, :] -= weights[..., :-1, :]
    diff[..., 0, :] -= prev
    return np.add.reduce(weights * realized, axis=-1) - np.add.reduce(np.abs(diff), axis=-1) * cost_rate, diff


def sharpe_loss(weights: Tensor, window: ReturnsWindow, costs: CostModel) -> Tensor:
    """Negated Sharpe of the ``net_returns`` of each window of a stack (to be minimized), as one
    tape node: mean over ``EPS``-guarded population standard deviation, per window."""
    wd, realized = weights.data, window.realized
    if wd.ndim not in (2, 3):
        raise ValueError(f"weights must be (days, assets) or (windows, days, assets), got shape {weights.shape}")
    if realized.shape != wd.shape:
        raise ValueError(f"returns shape {realized.shape} does not match weights {weights.shape}")
    t = wd.shape[-2]
    if t < 2:
        raise NumericError(f"sharpe needs at least 2 returns per window, got {t}")
    cost_rate = costs.cost_rate
    net, diff = net_returns(wd, realized, 0.0 if window.prev_weights is None else window.prev_weights, cost_rate)
    m = np.add.reduce(net, axis=-1) / t
    sd = np.sqrt(np.add.reduce(net * net, axis=-1) / t - m * m + EPS)

    def back(g):
        # d sharpe / d net_t = (1 - m (net_t - m) / sd^2) / (T sd)
        g_net = (-g / (t * sd))[..., None] * (1.0 - (m / (sd * sd))[..., None] * (net - m[..., None]))
        g_diff = (-cost_rate * g_net)[..., None] * np.sign(diff)
        gw = g_net[..., None] * realized + g_diff
        gw[..., :-1, :] -= g_diff[..., 1:, :]
        return (gw,)

    return ag.emit((weights,), (m / sd) * -1.0, back)
