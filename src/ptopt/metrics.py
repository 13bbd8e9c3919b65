"""Backtest simulation and out-of-sample performance statistics.

The seven report fields are annualized return, annualized volatility,
Sharpe, Sortino, maximum drawdown, Calmar, and the fraction of strictly
positive days. Annualization uses 252 trading days; standard deviations are
population form. Degenerate ratios (zero dispersion, zero drawdown) are
reported as signed infinities rather than raised, since tiny synthetic
backtests legitimately produce them.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ptopt.autograd import ContractError
from ptopt.data import ReturnTable
from ptopt.errors import AlignmentError, DataError
from ptopt.model import blockwise
from ptopt.objective import CostModel, net_returns

TRADING_DAYS = 252
_BACKTEST_BLOCK = 256  # days per block of run_backtest: its temporaries are a block x assets, not days x assets
_ROLLING_BLOCK = 256  # windows per block of rolling_sharpe: its temporaries are a block x window, not windows x window


@dataclass
class EquityCurve:
    """Dated stream of realized net daily returns plus its running product."""

    dates: list[dt.date]
    daily_returns: np.ndarray

    def __post_init__(self):
        self.daily_returns = np.asarray(self.daily_returns, dtype=np.float64)
        if len(self.dates) != len(self.daily_returns):
            raise DataError("dates and daily_returns lengths differ")
        if np.any(self.daily_returns <= -1):
            raise DataError("daily return <= -100% is not representable as equity")
        self.cumulative = np.cumprod(1.0 + self.daily_returns)


@dataclass(frozen=True)
class MetricsReport:
    returns: float
    vol: float
    sharpe: float
    sortino: float
    mdd: float
    calmar: float
    pct_positive: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class WeightStream:
    """Daily allocation decisions; row t is the book held after day t's close."""

    dates: list[dt.date]
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[0] != len(self.dates):
            raise DataError(f"weight matrix shape {self.weights.shape} does not match {len(self.dates)} dates")


def _ratio_or_sentinel(numerator, denominator, annualize: float = 1.0) -> np.ndarray:
    """``numerator / denominator * annualize`` elementwise; where the denominator is 0, ±inf by the
    numerator's sign (+inf for 0). ``np.divide``, since ``/`` on two Python floats raises at 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(numerator, denominator) * annualize
    return np.where(denominator == 0.0, np.where(numerator >= 0, math.inf, -math.inf), ratio)


def max_drawdown(cumulative: np.ndarray) -> float:
    """Largest peak-to-trough fraction, with starting capital 1 as a peak."""
    levels = np.concatenate([[1.0], np.asarray(cumulative, dtype=np.float64)])
    peaks = np.maximum.accumulate(levels)
    return float(np.max(1.0 - levels / peaks))


def compute_metrics(curve: EquityCurve) -> MetricsReport:
    r = curve.daily_returns
    if r.size < 2:
        raise ContractError(f"need at least 2 daily returns, got {r.size}")
    mean = float(r.mean())
    sd = float(r.std())
    ann_return = mean * TRADING_DAYS
    root_days = math.sqrt(TRADING_DAYS)
    downside = float(np.sqrt(np.mean(np.minimum(r, 0.0) ** 2)))
    mdd = max_drawdown(curve.cumulative)
    return MetricsReport(
        returns=ann_return,
        vol=sd * root_days,
        sharpe=float(_ratio_or_sentinel(mean, sd, root_days)),
        sortino=float(_ratio_or_sentinel(mean, downside, root_days)),
        mdd=mdd,
        calmar=float(_ratio_or_sentinel(ann_return, mdd)),
        pct_positive=float(np.mean(r > 0)),
    )


def rolling_sharpe(curve: EquityCurve, window: int = TRADING_DAYS) -> tuple[list[dt.date], np.ndarray]:
    """Annualized Sharpe over each trailing ``window`` of daily returns.

    The windows' means and deviations form ``_ROLLING_BLOCK`` windows at a
    time, through ``ptopt.model.blockwise``; each window's figures do not
    depend on the blocking.
    """
    r = curve.daily_returns
    if r.size < window:
        raise ContractError(f"curve length {r.size} shorter than window {window}")
    chunks = sliding_window_view(r, window)
    values = np.empty(len(chunks))
    blockwise(lambda b: _ratio_or_sentinel(b.mean(axis=-1), b.std(axis=-1), math.sqrt(TRADING_DAYS)), chunks, values, _ROLLING_BLOCK)
    return curve.dates[window - 1 :], values


def run_backtest(stream: WeightStream, table: ReturnTable, costs: CostModel) -> EquityCurve:
    """Realize a weight stream against next-day returns under the cost model.

    The weight dated d is held over the following trading day and earns that
    day's returns net of the costs of ``objective.net_returns``: turnover against
    the previous day's book, all-zero before the first day. The table's dates
    ascend, as ``load_csv`` sorts them. Net returns form ``_BACKTEST_BLOCK``
    days at a time; a day's sums do not depend on the blocking.
    """
    if stream.weights.shape[1] != table.n_assets:
        raise AlignmentError(
            f"weight stream has {stream.weights.shape[1]} assets, return table {table.n_assets}"
        )
    table_days = np.fromiter(map(dt.date.toordinal, table.dates), np.int64)
    stream_days = np.fromiter(map(dt.date.toordinal, stream.dates), np.int64)
    rows = np.searchsorted(table_days, stream_days)
    found = np.append(table_days, 0)[rows] == stream_days  # a row past the end reads 0, no date's ordinal
    bad = np.flatnonzero(~found | (rows + 1 >= len(table_days)))
    if bad.size:
        d = stream.dates[bad[0]]
        if not found[bad[0]]:
            raise AlignmentError(f"weight date {d} not present in the return table")
        raise AlignmentError(f"no realized return after weight date {d}")
    skips = np.flatnonzero(np.diff(rows) != 1)
    if skips.size:
        raise AlignmentError(f"weight dates skip trading days before {stream.dates[skips[0] + 1]}")

    w = stream.weights
    net = np.empty(len(rows))
    for lo in range(0, len(rows), _BACKTEST_BLOCK):
        block = slice(lo, lo + _BACKTEST_BLOCK)
        net[block] = net_returns(w[block], table.returns[rows[block] + 1], w[lo - 1] if lo else 0.0, costs.cost_rate)[0]
    earn_dates = table.dates[rows[0] + 1 : rows[-1] + 2] if len(rows) else []
    return EquityCurve(earn_dates, net)


# ---------------------------------------------------------------------------
# plot-ready serialization


def write_rows(path, header: list[str], rows) -> None:
    """The writer of every output CSV: ``header``, then ``rows`` (floats as ``repr`` strings), ``\\n``-ended."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_series_csv(keys: list, columns: dict[str, np.ndarray], path, key: str = "date") -> None:
    """A ``key`` column of ``str(k)`` (ISO for a date), then one column per name, each value as ``repr(float)``."""
    series = [np.asarray(values, dtype=np.float64).tolist() for values in columns.values()]
    write_rows(path, [key, *columns], ([str(k), *map(repr, values)] for k, *values in zip(keys, *series)))


def write_equity_csv(curve: EquityCurve, path) -> None:
    write_series_csv(curve.dates, {"value": curve.cumulative}, path)


def write_rolling_sharpe_csv(curve: EquityCurve, path) -> None:
    """The trailing-year Sharpe series; a curve shorter than a year writes the header alone."""
    dates, values = rolling_sharpe(curve) if len(curve.daily_returns) >= TRADING_DAYS else ([], [])
    write_series_csv(dates, {"value": values}, path)
