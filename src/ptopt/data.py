"""Price table IO, return construction, calendar splits, synthetic markets.

CSV schema (bit-exact round trip): header ``date,<TICKER1>,...``, ISO-8601
dates, decimal price literals, empty cell = missing value, UTF-8, comma
separated. ``load_csv`` streams the file line by line into one flat buffer
of packed doubles, so ingest holds the price matrix, never the file text.
Missing prices are forward-filled (never backward: that would leak the
future into the past) and leading rows before every ticker's first
observation are dropped.
"""

from __future__ import annotations

import datetime as dt
import io
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
    sha256: str | None = None  # hex digest of the bytes ``load_csv`` parsed this table from

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=np.float64)
        t, n = len(self.dates), len(self.tickers)
        if self.prices.shape != (t, n):
            raise DataError(f"price matrix shape {self.prices.shape} != ({t}, {n})")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise DataError(f"dates not strictly increasing at {b}")
        if np.any(self.prices <= 0):  # NaN, a missing price, compares False
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
        r = self.returns  # two reductions and no temporary matrix: NaN fails both comparisons
        if r.size and not (r.min() > -1 and r.max() < np.inf):
            raise DataError("returns must be finite and > -1")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)


def _first_fault(path, tickers: list[str]) -> DataError:
    """The error of the first bad line of a CSV that failed to load, found by reading it again.

    Lines are checked in file order, each for its field count, then its
    date, then its prices left to right: an empty cell is missing, anything
    else must be a finite positive number.
    """
    with open(path, encoding="utf-8") as fh:
        fh.readline()  # the header, already checked
        for lineno, line in enumerate(fh, start=2):
            if line == "\n":
                continue
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(tickers) + 1:
                return ParseError(f"{path}:{lineno}: expected {len(tickers) + 1} fields, got {len(cells)}")
            try:
                dt.date.fromisoformat(cells[0])
            except ValueError:
                return ParseError(f"{path}:{lineno}: bad date {cells[0]!r}")
            for ticker, cell in zip(tickers, cells[1:]):
                if cell == "":
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    return ParseError(f"{path}:{lineno}: bad price {cell!r} for {ticker}")
                if not 0 < value < np.inf:
                    return DataError(f"{path}:{lineno}: non-positive price {cell} for {ticker}")
    return DataError(f"{path}: file changed while it was read")


class _Hashed(io.FileIO):
    """A file that feeds ``digest`` each byte it reads through ``readinto``, as a ``BufferedReader`` reads."""

    def __init__(self, path, digest):
        self.digest = digest
        super().__init__(path)

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        self.digest.update(memoryview(buffer)[:n])
        return n


def load_csv(path) -> PriceTable:
    """Read a price CSV, streaming its rows into one flat buffer of packed doubles.

    The header is ``date`` and then each ticker once, none of them empty. Only
    ``\\n``, ``\\r\\n`` and ``\\r`` end a line. Rows are sorted by date
    (stably) when the file lists them out of order. A bad field count, date
    or price raises a ``ParseError`` or ``DataError`` naming the first bad
    line in file order; a duplicate date raises a ``DataError`` naming it.
    Bytes that are not UTF-8 raise the decoder's ``UnicodeDecodeError``.
    The table's ``sha256`` is of the bytes parsed, hashed in the same read.
    """
    import hashlib  # here, not at import: only a load needs libcrypto

    digest = hashlib.sha256()
    with io.TextIOWrapper(io.BufferedReader(_Hashed(path, digest)), encoding="utf-8") as fh:
        line = fh.readline()
        if not line:
            raise ParseError(f"{path}: empty file")
        line = line.rstrip("\n")
        header = line.split(",")
        if len(header) < 2 or header[0] != "date":
            raise ParseError(f"{path}:1: header must be 'date,<TICKER1>,...', got {line!r}")
        tickers = header[1:]
        if any(t == "" for t in tickers):
            raise ParseError(f"{path}:1: empty ticker name in header")
        if len(set(tickers)) < len(tickers):
            duplicate = next(t for i, t in enumerate(tickers) if t in tickers[:i])
            raise ParseError(f"{path}:1: duplicate ticker {duplicate!r} in header")

        dates: list[dt.date] = []
        values = array("d")  # every price, row after row: 8 bytes a cell
        empty = 0  # empty cells, each parsed to NaN; a literal nan would be one NaN more
        try:
            for line in fh:
                if line == "\n":
                    continue
                cells = line.rstrip("\n").split(",")
                if len(cells) != len(header):
                    raise ValueError  # like a bad date or price: named below
                dates.append(dt.date.fromisoformat(cells[0]))
                del cells[0]
                empty += cells.count("")
                values.fromlist([float(cell) if cell else np.nan for cell in cells])
        except UnicodeDecodeError:
            raise  # not a bad cell: the bytes are not UTF-8
        except ValueError:
            raise _first_fault(path, tickers) from None  # an earlier bad price comes first

    prices = np.frombuffer(values).reshape(len(dates), len(tickers))
    # every cell is empty or a finite positive price; NaN fails both comparisons
    if np.count_nonzero(prices > 0) - np.count_nonzero(prices == np.inf) + empty != prices.size:
        raise _first_fault(path, tickers)
    if any(a >= b for a, b in zip(dates, dates[1:])):
        order = sorted(range(len(dates)), key=dates.__getitem__)
        dates = [dates[i] for i in order]
        prices = prices[order]
        for a, b in zip(dates, dates[1:]):
            if a == b:
                raise DataError(f"{path}: duplicate date {a}")
    return PriceTable(dates, tickers, prices, digest.hexdigest())


def write_csv(table: PriceTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["date", *table.tickers]) + "\n")
        for day, row in zip(table.dates, table.prices):
            # one row's floats at a time, never the whole matrix as a list; NaN alone differs from itself
            fh.write(",".join([day.isoformat(), *("" if x != x else repr(x) for x in row.tolist())]) + "\n")


def clean_and_return(table: PriceTable) -> ReturnTable:
    """Forward-fill gaps, align starts, and convert prices to simple returns.

    Two loops over tickers: the first counts each column's observations and
    finds its first one, the second forms the column's forward-fill index and
    divides its filled prices straight into its column of one preallocated
    returns matrix. Scratch is a few column lengths, whatever the universe.
    """
    prices = table.prices
    t, n = prices.shape
    first = np.empty(n, dtype=np.intp)
    for j in range(n):
        seen = ~np.isnan(prices[:, j])
        if np.count_nonzero(seen) < 2:
            raise DataError(f"ticker {table.tickers[j]} has fewer than 2 observations")
        first[j] = seen.argmax()
    start = int(first.max())
    if t - start < 2:
        raise DataError("fewer than 2 rows after aligning ticker starts")

    returns = np.empty((t - start - 1, n))
    for j in range(n):
        column = prices[:, j]
        index = np.arange(t)
        index[np.isnan(column)] = 0  # the row of the latest observed price, once accumulated
        np.maximum.accumulate(index, out=index)
        filled = column[index[start:]]
        np.divide(filled[1:], filled[:-1], out=returns[:, j])
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
        if not self.splits:
            raise ValueError("a schedule needs at least one split")
        for prev, s in zip([None, *self.splits], self.splits):
            if not (0 < s.val_start < s.train_end < s.test_end):
                raise ValueError(f"malformed split for {s.test_year}")
            if prev is not None and (s.test_year != prev.test_year + 1 or s.train_end != prev.test_end):
                raise ValueError(f"splits not consecutive at {s.test_year}")


def yearly_splits(table: ReturnTable, first_test_year: int) -> WalkForwardSchedule:
    """One split per full calendar year from ``first_test_year`` onward.

    A year counts as full when data continues into the next year or its last
    observation falls in the final trading days of December; a year with no row raises.
    """
    years = np.array([d.year for d in table.dates])
    last_date = table.dates[-1]
    test_years = range(first_test_year, last_date.year + int(last_date.month == 12 and last_date.day >= 20))
    if not test_years:
        raise DataError(f"no complete test year at or after {first_test_year}")

    splits = []
    for year in test_years:
        train_end = int(np.searchsorted(years, year))
        test_end = int(np.searchsorted(years, year + 1))
        if train_end == test_end:
            raise DataError(f"no data for test year {year}")
        if train_end == 0:
            raise DataError(f"no training data before test year {year}")
        val_rows = train_end // 10
        if val_rows == 0:
            raise DataError(f"training range before {year} too short for a validation slice")
        splits.append(Split(year, train_end, train_end - val_rows, test_end))
    return WalkForwardSchedule(splits)


# ---------------------------------------------------------------------------
# synthetic market


SYNTH_DRIFT_RANGE = (0.0, 4e-4)  # per-asset daily log drift
SYNTH_VOL_RANGE = (0.01, 0.02)  # per-asset daily log volatility
SYNTH_MOMENTUM_WINDOW = 5  # days in the trailing mean the momentum term reads
SYNTH_START = dt.date(2014, 1, 2)
SYNTH_START_PRICE = 100.0


@dataclass(frozen=True)
class SynthConfig:
    """Geometric random walk with a planted momentum signal.

    Per-asset drift and volatility are drawn once from ``SYNTH_DRIFT_RANGE``
    and ``SYNTH_VOL_RANGE``. Each day's log return adds ``momentum`` times the
    asset's trailing mean log return over ``SYNTH_MOMENTUM_WINDOW`` days, giving
    learning-based strategies a recoverable edge when the coefficient is positive.
    """

    n_assets: int
    n_days: int
    seed: int = 0
    momentum: float = 0.0

    def __post_init__(self):
        if self.n_assets < 1 or self.n_days < 2:
            raise ValueError("need n_assets >= 1 and n_days >= 2")


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
    drift = rng.uniform(SYNTH_DRIFT_RANGE[0], SYNTH_DRIFT_RANGE[1], cfg.n_assets)
    vol = rng.uniform(SYNTH_VOL_RANGE[0], SYNTH_VOL_RANGE[1], cfg.n_assets)
    shocks = rng.standard_normal((cfg.n_days - 1, cfg.n_assets))

    log_r = np.zeros((cfg.n_days - 1, cfg.n_assets))
    for t in range(cfg.n_days - 1):
        lo = max(0, t - SYNTH_MOMENTUM_WINDOW)
        signal = log_r[lo:t].mean(axis=0) if t > 0 else np.zeros(cfg.n_assets)
        log_r[t] = drift + cfg.momentum * signal + vol * shocks[t]

    levels = np.vstack([np.zeros(cfg.n_assets), np.cumsum(log_r, axis=0)])
    prices = SYNTH_START_PRICE * np.exp(levels)
    dates = trading_days(SYNTH_START, cfg.n_days)
    tickers = [f"A{i + 1}" for i in range(cfg.n_assets)]
    return PriceTable(dates, tickers, prices)
