"""Price table IO, return construction, calendar splits, synthetic markets.

CSV schema (bit-exact round trip): header ``date,<TICKER1>,...``, ISO-8601
dates, decimal price literals, empty cell = missing value, UTF-8, comma
separated. Missing prices are forward-filled (never backward: that would
leak the future into the past) and leading rows before every ticker's first
observation are dropped.
"""

from __future__ import annotations

import datetime as dt
from array import array
from dataclasses import dataclass

import numpy as np

from ptopt.errors import DataError, ParseError


@dataclass
class PriceTable:
    """Raw daily prices; NaN marks a missing observation."""

    dates: list[dt.date]
    tickers: list[str]
    prices: np.ndarray

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=np.float64)
        t, n = len(self.dates), len(self.tickers)
        if self.prices.shape != (t, n):
            raise DataError(f"price matrix shape {self.prices.shape} != ({t}, {n})")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise DataError(f"dates not strictly increasing at {b}")
        present = self.prices[~np.isnan(self.prices)]
        if np.any(present <= 0):
            raise DataError("prices must be positive")


@dataclass
class ReturnTable:
    """Daily simple returns, fully observed (post-cleaning)."""

    dates: list[dt.date]
    tickers: list[str]
    returns: np.ndarray

    def __post_init__(self):
        self.returns = np.asarray(self.returns, dtype=np.float64)
        if self.returns.shape != (len(self.dates), len(self.tickers)):
            raise DataError("return matrix shape does not match dates/tickers")
        if np.any(~np.isfinite(self.returns)) or np.any(self.returns <= -1):
            raise DataError("returns must be finite and > -1")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)


def _price(path, lineno: int, ticker: str, cell: str) -> float:
    """One cell: empty is missing, anything else a finite positive number."""
    if cell == "":
        return np.nan
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: bad price {cell!r} for {ticker}") from None
    if not 0 < value < np.inf:
        raise DataError(f"{path}:{lineno}: non-positive price {cell} for {ticker}")
    return value


def _check_prices(path, lines: list[str], tickers: list[str], rows: list, prices: np.ndarray) -> None:
    """Raise the error of the first bad cell in file order, if ``prices`` has one.

    ``prices`` holds the parsed values of ``rows``. A literal ``nan`` parses
    to the NaN of an empty cell, so a row with more NaNs than empty cells
    holds one.
    """
    if not rows:
        return
    linenos = np.array([r[1] for r in rows], dtype=np.int64)
    empties = np.array([r[2] for r in rows], dtype=np.int64)
    bad = ((prices <= 0) | np.isinf(prices)).any(axis=1) | (np.isnan(prices).sum(axis=1) > empties)
    if bad.any():
        lineno = int(linenos[bad].min())
        for ticker, cell in zip(tickers, lines[lineno - 1].split(",")[1:]):
            _price(path, lineno, ticker, cell)


def load_csv(path) -> PriceTable:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "date":
        raise ParseError(f"{path}:1: header must be 'date,<TICKER1>,...', got {lines[0]!r}")
    tickers = header[1:]
    if any(t == "" for t in tickers):
        raise ParseError(f"{path}:1: empty ticker name in header")

    # (date, line number, empty cells, prices); values are checked once, as a matrix
    rows: list[tuple[dt.date, int, int, array]] = []
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            if line == "":
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(cells)}")
            try:
                day = dt.date.fromisoformat(cells[0])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad date {cells[0]!r}") from None
            try:
                prices = [float(cell) if cell else np.nan for cell in cells[1:]]
            except ValueError:
                prices = [_price(path, lineno, t, cell) for t, cell in zip(tickers, cells[1:])]
            # packed doubles: 8 bytes a price where a list of floats holds 32
            rows.append((day, lineno, cells.count(""), array("d", prices)))
    except (ParseError, DataError):
        # a bad price on an earlier line is reported first, as a cell-by-cell read would
        _check_prices(path, lines, tickers, rows, np.array([r[3] for r in rows]))
        raise

    rows.sort(key=lambda r: r[0])
    prices = np.empty((len(rows), len(tickers)))
    for i, row in enumerate(rows):
        prices[i] = row[3]
    _check_prices(path, lines, tickers, rows, prices)
    for (a, *_), (b, *_) in zip(rows, rows[1:]):
        if a == b:
            raise DataError(f"{path}: duplicate date {a}")
    return PriceTable([r[0] for r in rows], tickers, prices)


def write_csv(table: PriceTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["date", *table.tickers]) + "\n")
        for day, row in zip(table.dates, table.prices):
            fh.write(",".join([day.isoformat(), *("" if np.isnan(x) else repr(float(x)) for x in row)]) + "\n")


def _forward_filled(prices: np.ndarray, observed: np.ndarray, start: int) -> np.ndarray:
    """Rows ``start:`` of ``prices``, each gap holding its column's latest observed price."""
    t, n = prices.shape
    # each row reads the latest observed row of its column at or above it
    last = np.where(observed, np.arange(t)[:, None], 0)
    np.maximum.accumulate(last, axis=0, out=last)
    return prices[last[start:], np.arange(n)]


def clean_and_return(table: PriceTable) -> ReturnTable:
    """Forward-fill gaps, align starts, and convert prices to simple returns."""
    observed = ~np.isnan(table.prices)
    short = np.flatnonzero(observed.sum(axis=0) < 2)
    if short.size:
        raise DataError(f"ticker {table.tickers[short[0]]} has fewer than 2 observations")
    start = int(observed.argmax(axis=0).max())
    if len(observed) - start < 2:
        raise DataError("fewer than 2 rows after aligning ticker starts")
    block = _forward_filled(table.prices, observed, start)
    returns = block[1:] / block[:-1]
    returns -= 1.0
    return ReturnTable(table.dates[start + 1 :], list(table.tickers), returns)


# ---------------------------------------------------------------------------
# walk-forward calendar


@dataclass(frozen=True)
class Split:
    """One walk-forward fold: expanding train block, one test year.

    Indices refer to rows of the ReturnTable the split was built from.
    Training rows are [0, train_end); the final slice from val_start is the
    chronological validation holdout; test rows are [train_end, test_end).
    """

    test_year: int
    train_end: int
    val_start: int
    test_end: int


@dataclass
class WalkForwardSchedule:
    splits: list[Split]

    def __post_init__(self):
        for prev, s in zip([None, *self.splits], self.splits):
            if not (0 < s.val_start < s.train_end < s.test_end):
                raise ValueError(f"malformed split for {s.test_year}")
            if prev is not None and (s.test_year != prev.test_year + 1 or s.train_end != prev.test_end):
                raise ValueError(f"splits not consecutive at {s.test_year}")


def yearly_splits(table: ReturnTable, first_test_year: int) -> WalkForwardSchedule:
    """One split per full calendar year from ``first_test_year`` onward.

    A year counts as full when data continues into the next year or its last
    observation falls in the final trading days of December.
    """
    years = np.array([d.year for d in table.dates])
    last_date = table.dates[-1]
    test_years = []
    for year in range(first_test_year, last_date.year + 1):
        if not np.any(years == year):
            continue
        complete = np.any(years > year) or (last_date.month == 12 and last_date.day >= 20)
        if complete:
            test_years.append(year)
    if not test_years:
        raise DataError(f"no complete test year at or after {first_test_year}")
    if test_years[0] != first_test_year:
        raise DataError(f"no data for first test year {first_test_year}")

    splits = []
    for year in test_years:
        train_end = int(np.searchsorted(years, year))
        test_end = int(np.searchsorted(years, year + 1))
        if train_end == 0:
            raise DataError(f"no training data before test year {year}")
        val_rows = train_end // 10
        if val_rows == 0:
            raise DataError(f"training range before {year} too short for a validation slice")
        splits.append(Split(year, train_end, train_end - val_rows, test_end))
    return WalkForwardSchedule(splits)


# ---------------------------------------------------------------------------
# synthetic market


@dataclass(frozen=True)
class SynthConfig:
    """Geometric random walk with a planted momentum signal.

    Per-asset drift and volatility are drawn once from the given ranges.
    Each day's log return adds ``momentum`` times the asset's trailing mean
    log return over ``momentum_window`` days, giving learning-based
    strategies a recoverable edge when the coefficient is positive.
    """

    n_assets: int
    n_days: int
    seed: int = 0
    drift_range: tuple[float, float] = (0.0, 4e-4)
    vol_range: tuple[float, float] = (0.01, 0.02)
    momentum: float = 0.0
    momentum_window: int = 5
    start: dt.date = dt.date(2014, 1, 2)
    start_price: float = 100.0

    def __post_init__(self):
        if self.n_assets < 1 or self.n_days < 2:
            raise ValueError("need n_assets >= 1 and n_days >= 2")
        if self.vol_range[0] <= 0 or self.vol_range[1] < self.vol_range[0]:
            raise ValueError(f"bad volatility range {self.vol_range}")
        if self.momentum_window < 1:
            raise ValueError("momentum_window must be >= 1")
        if self.start_price <= 0:
            raise ValueError("start_price must be positive")


def trading_days(start: dt.date, n: int) -> list[dt.date]:
    """The next n weekdays starting at or after ``start``."""
    out = []
    day = start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def synth_generate(cfg: SynthConfig) -> PriceTable:
    rng = np.random.default_rng(cfg.seed)
    drift = rng.uniform(cfg.drift_range[0], cfg.drift_range[1], cfg.n_assets)
    vol = rng.uniform(cfg.vol_range[0], cfg.vol_range[1], cfg.n_assets)
    shocks = rng.standard_normal((cfg.n_days - 1, cfg.n_assets))

    log_r = np.zeros((cfg.n_days - 1, cfg.n_assets))
    for t in range(cfg.n_days - 1):
        lo = max(0, t - cfg.momentum_window)
        signal = log_r[lo:t].mean(axis=0) if t > 0 else np.zeros(cfg.n_assets)
        log_r[t] = drift + cfg.momentum * signal + vol * shocks[t]

    levels = np.vstack([np.zeros(cfg.n_assets), np.cumsum(log_r, axis=0)])
    prices = cfg.start_price * np.exp(levels)
    dates = trading_days(cfg.start, cfg.n_days)
    tickers = [f"A{i + 1}" for i in range(cfg.n_assets)]
    return PriceTable(dates, tickers, prices)
