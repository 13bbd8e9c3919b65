"""Tests for CSV ingestion, cleaning, calendar splits, and synthetic data."""

import datetime as dt
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptopt import data
from ptopt.data import (
    PriceTable,
    ReturnTable,
    Split,
    SynthConfig,
    WalkForwardSchedule,
    clean_and_return,
    load_csv,
    synth_generate,
    trading_days,
    write_csv,
    yearly_splits,
)
from ptopt.errors import DataError

from helpers import (
    clean_and_return_oracle, forward_fill_oracle, lag1_autocorr, load_csv_oracle, traced_peak, trading_days_oracle, write_gapped_csv,
)


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# load_csv


def test_load_small_file(tmp_path):
    path = write(tmp_path, "date,AAA,BBB\n2020-01-02,100,50\n2020-01-03,101,49.5\n2020-01-06,102.5,50\n")
    table = load_csv(path)
    assert table.tickers == ["AAA", "BBB"]
    assert len(table.dates) == 3
    assert table.prices.shape == (3, 2)
    assert table.dates[0] == dt.date(2020, 1, 2)


def test_load_sorts_out_of_order_dates(tmp_path):
    path = write(tmp_path, "date,AAA\n2020-01-03,101\n2020-01-02,100\n")
    table = load_csv(path)
    assert table.dates == [dt.date(2020, 1, 2), dt.date(2020, 1, 3)]
    np.testing.assert_array_equal(table.prices[:, 0], [100.0, 101.0])


def test_load_rejects_duplicate_date(tmp_path):
    path = write(tmp_path, "date,AAA\n2020-01-02,100\n2020-01-02,101\n")
    with pytest.raises(DataError, match="2020-01-02"):
        load_csv(path)


def test_load_missing_cells_become_nan(tmp_path):
    path = write(tmp_path, "date,AAA,BBB\n2020-01-02,100,\n2020-01-03,,50\n")
    table = load_csv(path)
    assert np.isnan(table.prices[0, 1]) and np.isnan(table.prices[1, 0])


@pytest.mark.parametrize(
    "text,line",
    [
        ("time,AAA\n2020-01-02,100\n", 1),
        ("date,AAA\n2020-01-02,100,7\n", 2),
        ("date,AAA\n02/01/2020,100\n", 2),
        ("date,AAA\n2020-01-02,abc\n", 2),
    ],
)
def test_load_parse_errors_carry_line_numbers(tmp_path, text, line):
    path = write(tmp_path, text)
    with pytest.raises(DataError, match=f":{line}" if line > 1 else "header"):
        load_csv(path)


def test_load_rejects_nonpositive_price(tmp_path):
    path = write(tmp_path, "date,AAA\n2020-01-02,-5\n")
    with pytest.raises(DataError):
        load_csv(path)
    path = write(tmp_path, "date,AAA\n2020-01-02,0\n", name="zero.csv")
    with pytest.raises(DataError):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e400", "-0", "0.0", "-5"])
def test_load_rejects_non_finite_and_non_positive_cells(tmp_path, cell):
    path = write(tmp_path, f"date,AAA,BBB\n2020-01-02,100,50\n2020-01-03,101,{cell}\n")
    kind = "non-finite" if cell in ("nan", "NaN", "inf", "1e400") else "non-positive"  # -inf is both: it is not > 0
    with pytest.raises(DataError, match=f":3: {kind} price {cell} for BBB$"):
        load_csv(path)


def test_load_rejects_literal_nan_beside_an_empty_cell(tmp_path):
    # an empty cell and a literal nan parse to the same NaN
    path = write(tmp_path, "date,AAA,BBB,CCC\n2020-01-02,100,50,20\n2020-01-03,,nan,21\n")
    with pytest.raises(DataError, match=":3: non-finite price nan for BBB$"):
        load_csv(path)


def test_load_reports_the_first_bad_cell_in_file_order(tmp_path):
    # line 4 sorts first by date, but line 3 comes first in the file
    text = "date,AAA,BBB\n2020-01-03,100,50\n2020-01-06,inf,51\n2020-01-02,99,-5\n"
    with pytest.raises(DataError, match=":3: non-finite price inf for AAA$"):
        load_csv(write(tmp_path, text))
    # within a row, the leftmost bad cell
    with pytest.raises(DataError, match=":2: non-positive price 0 for AAA$"):
        load_csv(write(tmp_path, "date,AAA,BBB\n2020-01-02,0,-1\n", name="row.csv"))


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("date,AAA\n2020-01-02,-5\n2020-01-03,abc\n", DataError, ":2: non-positive price -5 for AAA"),
        ("date,AAA\n2020-01-02,-5\n2020-01-03,1,2\n", DataError, ":2: non-positive price -5 for AAA"),
        ("date,AAA\n2020-01-02,-5\nxx,1\n", DataError, ":2: non-positive price -5 for AAA"),
        ("date,AAA,BBB\n2020-01-02,-5,abc\n", DataError, ":2: non-positive price -5 for AAA"),
        ("date,AAA,BBB\n2020-01-02,abc,-5\n", DataError, ":2: bad price 'abc' for AAA"),
        ("date,AAA\n2020-01-02,-5\n2020-01-02,1\n", DataError, ":2: non-positive price -5 for AAA"),
        ("", DataError, ": empty file"),
        ("\n2020-01-02,1\n", DataError, ":1: header must be 'date,<TICKER1>,...', got ''"),
        # the header names each ticker once, none of them empty
        ("date,A,,B\n2020-01-02,1,2,3\n", DataError, ":1: empty ticker name in header"),
        ("date,A,A\n2020-01-02,1,2\n", DataError, ":1: duplicate ticker 'A' in header"),
        ("date,B,A,C,A,B\n", DataError, ":1: duplicate ticker 'A' in header"),
        # line numbers count blank lines, whatever ends a line
        ("date,AAA\r\n\r\n2020-01-02,100\r\n2020-01-03,0\r\n", DataError, ":4: non-positive price 0 for AAA"),
        ("date,AAA\n\n\n2020-01-02,1,2\n", DataError, ":4: expected 2 fields, got 3"),
        ("date,AAA\n2020-01-02,1\n\n2020-01-03,\n2020-01-06,x\n", DataError, ":5: bad price 'x' for AAA"),
        # a duplicate is found among the sorted dates
        ("date,AAA\n2020-01-03,1\n2020-01-02,2\n2020-01-03,3\n", DataError, ": duplicate date 2020-01-03"),
        # a literal nan or inf is a bad price, also beside empty cells and before a duplicate date
        ("date,AAA,BBB\n2020-01-02,,nan\n", DataError, ":2: non-finite price nan for BBB"),
        ("date,AAA,BBB\n2020-01-02,1,2\n2020-01-02,Infinity,\n", DataError, ":3: non-finite price Infinity for AAA"),
        # the first fault in file order wins: a bad price on an earlier line than a
        # field-count error, and a field-count error on an earlier line than a bad price
        ("date,AAA\n2020-01-02,1\n2020-01-03,-1\n2020-01-06,1,2\n", DataError, ":3: non-positive price -1 for AAA"),
        ("date,AAA\n2020-01-02,1,2\n2020-01-03,-1\n", DataError, ":2: expected 2 fields, got 3"),
        # a byte-order mark after the start of the file is part of a cell
        ("\ufeffdate,AAA\n2020-01-02,\ufeff1\n", DataError, ":2: bad price '\\ufeff1' for AAA"),
        ("\ufeff\ufeffdate,AAA\n", DataError, ":1: header must be 'date,<TICKER1>,...', got '\\ufeffdate,AAA'"),
    ],
)
def test_load_reports_the_first_fault_in_file_order(tmp_path, text, error, message):
    path = tmp_path / "prices.csv"
    path.write_bytes(text.encode("utf-8"))  # line endings as written
    with pytest.raises(error) as err:
        load_csv(path)
    assert type(err.value) is error
    assert str(err.value) == f"{path}{message}"


D2, D3, D6 = dt.date(2020, 1, 2), dt.date(2020, 1, 3), dt.date(2020, 1, 6)


@pytest.mark.parametrize(
    "text,dates,prices",
    [
        # CRLF and a lone CR end a line as LF does
        ("date,AAA,BBB\r\n2020-01-02,100,\r\n2020-01-03,101,50\r\n", [D2, D3], [[100.0, np.nan], [101.0, 50.0]]),
        ("date,AAA,BBB\r2020-01-02,100,\r2020-01-03,101,50\r", [D2, D3], [[100.0, np.nan], [101.0, 50.0]]),
        # blank lines are skipped wherever they are; the last line needs no newline
        ("date,AAA\n\n2020-01-02,100\n\n\n2020-01-03,101", [D2, D3], [[100.0], [101.0]]),
        # a header alone is an empty table
        ("date,AAA,BBB\n", [], np.empty((0, 2))),
        # rows out of order are sorted, each keeping its prices
        ("date,AAA\n2020-01-06,3\n2020-01-02,1\n2020-01-03,\n", [D2, D3, D6], [[1.0], [np.nan], [3.0]]),
    ],
    ids=["crlf", "cr", "blank_lines", "header_only", "unsorted"],
)
def test_load_edge_cases_give_exact_tables(tmp_path, text, dates, prices):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))
    table = load_csv(path)
    assert table.dates == dates
    np.testing.assert_array_equal(table.prices, prices, strict=True)


def test_a_bad_price_in_a_later_batch_is_named_by_its_file_line(tmp_path):
    # a batch holds at least BATCH_CHARS characters of lines, each line ending in one \n once
    # read, so the bad line is in the third batch; each batch before it holds blank lines
    row = "2020-01-02,100,100\r\n"
    block = ["\r\n"] * 100 + [row] * (data.BATCH_CHARS // (len(row) - 1) + 10)
    text = "date,AAA,BBB\r\n" + "".join(2 * block) + "2020-01-02,100,-5\r\n" + row
    assert 2 * data.BATCH_CHARS < text.replace("\r\n", "\n").index("-5") < 3 * data.BATCH_CHARS
    lineno = text.count("\n") - 1
    for bad, message in (("-5", "non-positive price -5"), ("x", "bad price 'x'")):
        path = tmp_path / "batches.csv"
        path.write_bytes(text.replace("-5", bad).encode("utf-8"))
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}:{lineno}: {message} for BBB"


LOAD = """import sys
from ptopt.data import load_csv
from ptopt.errors import DataError
try:
    load_csv(sys.argv[1])
except DataError as err:
    print(err)
"""


def _load_in_a_subprocess(path, prelude="", **run):
    env = {**os.environ, "PYTHONPATH": str(Path(data.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", prelude + LOAD, str(path)],
                          env=env, capture_output=True, text=True, timeout=60, **run)
    assert done.returncode == 0 and not done.stderr, done.stderr
    return done.stdout


def test_a_bad_line_read_from_a_pipe_is_named():
    # the input is read once: a pipe cannot be read again to find the bad line
    text = "date,AAA\n2020-01-02,1\n\n2020-01-03,0\n2020-01-06,2\n"
    assert _load_in_a_subprocess("/dev/stdin", input=text) == "/dev/stdin:4: non-positive price 0 for AAA\n"


def test_a_bad_line_read_from_a_fifo_is_named(tmp_path):
    # a named pipe opened a second time would wait for a writer that never comes
    fifo = tmp_path / "prices.fifo"
    os.mkfifo(fifo)
    feed = ("import sys, threading\n"
            "def feed():\n"
            "    with open(sys.argv[1], 'w', encoding='utf-8') as fh:\n"
            "        fh.write('date,AAA\\n2020-01-02,1\\n2020-01-03,abc\\n')\n"
            "threading.Thread(target=feed, daemon=True).start()\n")
    assert _load_in_a_subprocess(fifo, feed) == f"{fifo}:3: bad price 'abc' for AAA\n"


def test_a_byte_order_mark_before_the_header_is_skipped(tmp_path):
    text = "date,AAA,BBB\n2020-01-02,100,\n2020-01-03,101,50\n"
    plain, marked = write(tmp_path, text), write(tmp_path, "\ufeff" + text, name="bom.csv")
    table, again = load_csv(plain), load_csv(marked)
    assert again.dates == table.dates and again.tickers == table.tickers
    np.testing.assert_array_equal(again.prices, table.prices, strict=True)
    assert again.sha256 == hashlib.sha256(marked.read_bytes()).hexdigest() != table.sha256


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_newlines_end_a_line(tmp_path, sep):
    # str.splitlines() would end a line at each of these; reading a file's lines does not
    path = write(tmp_path, f"date,AAA\n2020-01-02,100{sep}2020-01-03,101\n")
    with pytest.raises(DataError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}:2: expected 2 fields, got 3"


@pytest.mark.parametrize("row", [1, 900])
def test_load_lets_a_decode_error_through(tmp_path, row):
    # bytes that are not UTF-8 raise a DataError quoting the decoder's error, in
    # the first 8 KiB the file reads (row 1) or in a later one (row 900), not a
    # bad-field error about an earlier line. The decoder counts its position within
    # the chunk being decoded, not within the file.
    lines = [f"2020-01-02,{i}".encode() for i in range(1, 1001)]
    lines[row] = b"2020-01-02,1\xff"
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"date,AAA\n" + b"\n".join(lines) + b"\n")
    with pytest.raises(DataError) as err:
        load_csv(path)
    assert type(err.value) is DataError
    message = str(err.value)
    assert message.startswith(f"{path}: not UTF-8: 'utf-8' codec can't decode byte 0xff in position ")
    assert message.endswith(": invalid start byte")
    assert err.value.__cause__ is None and err.value.__suppress_context__


def test_load_matches_cell_by_cell_oracle(tmp_path):
    path = tmp_path / "gapped.csv"
    write_gapped_csv(path, days=300, assets=7, gaps=0.05, seed=4)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    order = np.random.default_rng(4).permutation(len(rows))
    path.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n", encoding="utf-8")
    table = load_csv(path)
    dates, tickers, prices = load_csv_oracle(path)
    assert table.dates == dates and table.tickers == tickers
    np.testing.assert_array_equal(table.prices, prices)
    assert 0 < np.isnan(table.prices).sum() < table.prices.size


def test_ingest_peak_memory_per_matrix_byte(tmp_path):
    """On a 2,000x50 CSV with 1% gaps, ``load_csv`` peaks within 2x the price
    matrix's bytes (it measures 1.3x; reading the whole file and its list of
    lines peaked at 6.1x). ``clean_and_return`` peaks within 1.45x the matrix
    above the table it is given (1.36x: the returns and one block of rows; the
    whole-matrix fill, with its filled block beside the returns, took 2.0x)."""
    path = tmp_path / "wide.csv"
    write_gapped_csv(path, days=2000, assets=50, gaps=0.01, seed=5)
    table, load_peak = traced_peak(lambda: load_csv(path))
    _, clean_peak = traced_peak(lambda: clean_and_return(table))
    matrix = table.prices.nbytes
    assert matrix == 2000 * 50 * 8
    assert load_peak <= 2.0 * matrix
    assert clean_peak <= 1.45 * matrix


def test_ingest_report_stores_two_sides(tmp_path):
    script = Path(__file__).parent / "layer_report.py"
    env = {**os.environ, "PYTHONPATH": str(Path(data.__file__).resolve().parents[1])}
    out = tmp_path / "layers.json"
    args = ["--days", "800", "--assets", "3", "--gaps", "0.05", "--model-days", "560", "--repeats", "2", "--json", str(out)]
    rows = {"load_csv", "clean_and_return", "mv_walk", "run_backtest", "rolling_sharpe", "pt_fit", "evaluate_loss", "day_weights",
            "pt_step", "lstm_step", "mlp_step"}
    for label in ("parent", "change"):
        run = subprocess.run([sys.executable, str(script), *args, "--label", label],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stdout + run.stderr
        assert all(name in run.stdout for name in rows)
    (entry,) = json.loads(out.read_text(encoding="utf-8"))["workloads"]
    assert entry["workload"]["days"] == 800 and set(entry["sides"]) == {"parent", "change"}
    side = entry["sides"]["change"]
    assert side["matrix_bytes"] == 800 * 3 * 8 and set(side["rows"]) == rows
    assert all(row["peak_bytes"] > 0 and row["s"]["samples"] == 2 for row in side["rows"].values())


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    prices = 100.0 * np.exp(rng.standard_normal((30, 4)) * 0.05)
    prices[5, 2] = np.nan
    prices[0, 3] = np.nan
    prices[1, 3] = np.nan
    table = PriceTable(trading_days(dt.date(2019, 3, 1), 30), ["W", "X", "Y", "Z"], prices)
    path = tmp_path / "round.csv"
    write_csv(table, path)
    again = load_csv(path)
    assert again.dates == table.dates
    assert again.tickers == table.tickers
    np.testing.assert_array_equal(again.prices, table.prices)
    write_csv(again, tmp_path / "round2.csv")
    assert (tmp_path / "round.csv").read_bytes() == (tmp_path / "round2.csv").read_bytes()


# ---------------------------------------------------------------------------
# clean_and_return


def days(n, start=dt.date(2020, 1, 2)):
    return trading_days(start, n)


@pytest.mark.parametrize("make, message", [
    (lambda: PriceTable(days(2), ["A"], np.ones((3, 1))), r"price matrix shape \(3, 1\) != \(2, 1\)"),
    (lambda: PriceTable(days(2)[::-1], ["A"], np.ones((2, 1))), "dates not strictly increasing at 2020-01-02"),
    # NaN is a missing price; infinity, like zero, is no price
    (lambda: PriceTable(days(2), ["A", "B"], [[1.0, np.nan], [np.inf, 1.0]]), "prices must be finite and positive"),
    (lambda: PriceTable(days(2), ["A", "B"], [[1.0, np.nan], [0.0, 1.0]]), "prices must be finite and positive"),
    (lambda: ReturnTable(days(2), ["A"], np.zeros((2, 2))), "return matrix shape does not match dates/tickers"),
    (lambda: ReturnTable(days(2), ["A"], [[0.0], [-1.0]]), "returns must be finite and > -1"),
    (lambda: ReturnTable(days(2), ["A"], [[np.nan], [0.0]]), "returns must be finite and > -1"),
    (lambda: ReturnTable(days(2), ["A"], [[0.0], [np.inf]]), "returns must be finite and > -1"),
], ids=["price_shape", "price_dates", "infinite_price", "zero_price", "return_shape", "total_loss", "nan_return", "infinite_return"])
def test_tables_refuse_what_they_cannot_hold(make, message):
    with pytest.raises(DataError, match=message):
        make()


def test_forward_fill_and_returns():
    table = PriceTable(days(3), ["AAA"], np.array([[100.0], [np.nan], [102.0]]))
    out = clean_and_return(table)
    np.testing.assert_allclose(out.returns[:, 0], [0.0, 0.02])
    assert out.dates == table.dates[1:]


def test_constant_prices_give_zero_returns():
    table = PriceTable(days(4), ["AAA"], np.full((4, 1), 55.0))
    np.testing.assert_array_equal(clean_and_return(table).returns, np.zeros((3, 1)))


def test_leading_missing_block_dropped():
    prices = np.array([[np.nan, 10.0], [np.nan, 11.0], [100.0, 12.0], [101.0, 12.0], [99.0, 13.0]])
    table = PriceTable(days(5), ["AAA", "BBB"], prices)
    out = clean_and_return(table)
    # output starts once both tickers have been observed
    assert out.dates == table.dates[3:]
    assert out.returns.shape == (2, 2)
    np.testing.assert_allclose(out.returns[0], [0.01, 0.0])


def test_too_few_observations_rejected():
    table = PriceTable(days(3), ["AAA", "BBB"], np.array([[100.0, np.nan], [101.0, np.nan], [102.0, 5.0]]))
    with pytest.raises(DataError, match="BBB"):
        clean_and_return(table)


def test_too_few_observations_names_the_first_such_ticker():
    prices = np.array([[100.0, np.nan, np.nan], [101.0, np.nan, 7.0], [102.0, 5.0, np.nan]])
    with pytest.raises(DataError, match="ticker BBB has"):
        clean_and_return(PriceTable(days(3), ["AAA", "BBB", "CCC"], prices))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_fill_matches_per_cell_oracle(seed):
    rng = np.random.default_rng(seed)
    t, n = 120, 7
    prices = 50 * np.exp(np.cumsum(rng.standard_normal((t, n)) * 0.02, axis=0))
    prices[rng.random((t, n)) < 0.25] = np.nan
    for j, lead in enumerate(rng.permutation(n) * 3):  # leading gaps of 0, 3, ..., 18 rows
        prices[:lead, j] = np.nan
        prices[lead, j] = 50.0
    prices[-1, n - 1] = np.nan  # a gap on the last row
    table = PriceTable(days(t), [f"T{j}" for j in range(n)], prices)
    filled = forward_fill_oracle(prices)
    start = int(np.max(np.argmax(~np.isnan(prices), axis=0)))
    out = clean_and_return(table)
    assert start >= 18 and out.dates == table.dates[start + 1 :]
    np.testing.assert_array_equal(out.returns, filled[start + 1 :] / filled[start:-1] - 1.0)
    np.testing.assert_array_equal(out.returns[-1, n - 1], 0.0)


def gapped_prices(t, n, seed, gaps=0.1):
    """A t x n price matrix, a ``gaps`` share of its cells missing but every column's first."""
    rng = np.random.default_rng(seed)
    prices = 50 * np.exp(np.cumsum(rng.standard_normal((t, n)) * 0.02, axis=0))
    prices[rng.random((t, n)) < gaps] = np.nan
    prices[0] = 50.0
    return prices


# The 256-row edges these cases name are where an earlier fill carried its state
# from block to block; the per-ticker fill sees them as ordinary gaps.
def gap_across_block_edges():
    prices = gapped_prices(552, 4, seed=1)
    prices[251:261, 1] = np.nan
    prices[511:514, 2] = np.nan
    return prices


def last_seen_before_start():
    """Column 2 lists at row 266, the aligned start; column 0, last seen at
    row 3, is missing from there to row 276."""
    prices = gapped_prices(512, 3, seed=2)
    prices[4:276, 0] = np.nan
    prices[:266, 2] = np.nan
    return prices


def one_block_and_a_row():
    prices = gapped_prices(257, 3, seed=3)
    prices[255:, 1] = np.nan  # a gap on the last two rows
    return prices


def one_return_row():
    """Column 1 lists on the second-to-last row, so the aligned start leaves one return."""
    prices = gapped_prices(30, 3, seed=5, gaps=0.3)
    prices[:, 1] = np.nan
    prices[28:, 1] = [50.0, 51.0]
    prices[-1, 0] = np.nan
    return prices


FILL_CASES = {
    "gap_across_block_edges": gap_across_block_edges,
    "last_seen_before_start": last_seen_before_start,
    "fewer_rows_than_a_block": lambda: gapped_prices(40, 3, seed=4),
    "one_block_and_a_row": one_block_and_a_row,
    "column_major_prices": lambda: np.asfortranarray(gap_across_block_edges()),
    "one_return_row": one_return_row,
    "strided_column_slice": lambda: gapped_prices(300, 11, seed=6, gaps=0.2)[:, 1::3],
}


@pytest.mark.parametrize("case", FILL_CASES)
def test_blocked_fill_equals_the_whole_matrix_fill(case):
    prices = FILL_CASES[case]()
    table = PriceTable(days(len(prices)), [f"T{j}" for j in range(prices.shape[1])], prices)
    out, expected = clean_and_return(table), clean_and_return_oracle(table)
    assert out.dates == expected.dates
    assert np.array_equal(out.returns, expected.returns)
    if case == "last_seen_before_start":
        assert out.dates[0] == table.dates[267] and np.isnan(prices[266, 0])
        assert np.array_equal(out.returns[:9, 0], np.zeros(9))  # row 3's price carried past the start
    if case == "one_return_row":
        assert out.returns.shape == (1, 3) and out.dates == table.dates[-1:]
    if case == "strided_column_slice":
        assert not table.prices.flags.c_contiguous and not table.prices.flags.f_contiguous


def test_clean_and_return_peak_does_not_grow_with_the_universe():
    """Above its returns matrix, ``clean_and_return`` holds a few column lengths
    of scratch (a column's fill index, its filled prices and NaN masks) and the
    list of dates, whatever the number of tickers: at 160 tickers it may take
    at most three column lengths more than at 40."""
    t = 3000
    above = []
    for n in (40, 160):
        table = PriceTable(days(t), [f"T{j}" for j in range(n)], gapped_prices(t, n, seed=6, gaps=0.01))
        out, peak = traced_peak(lambda: clean_and_return(table))
        assert out.returns.shape == (t - 1, n)
        above.append(peak - out.returns.nbytes)
    assert above[1] <= above[0] + 3 * 8 * t, above


def test_cleaning_leaves_no_gaps():
    rng = np.random.default_rng(9)
    prices = 50 * np.exp(np.cumsum(rng.standard_normal((60, 3)) * 0.02, axis=0))
    mask = rng.random((60, 3)) < 0.2
    prices[mask] = np.nan
    prices[0] = 50.0
    out = clean_and_return(PriceTable(days(60), ["P", "Q", "R"], prices))
    assert np.all(np.isfinite(out.returns))
    assert np.all(out.returns > -1)


# ---------------------------------------------------------------------------
# yearly splits


def synthetic_table(start=dt.date(2014, 1, 2), end=dt.date(2018, 12, 30)):
    dates = []
    day = start
    while day <= end:
        if day.weekday() < 5:
            dates.append(day)
        day += dt.timedelta(days=1)
    rng = np.random.default_rng(1)
    return ReturnTable(dates, ["A1", "A2"], rng.standard_normal((len(dates), 2)) * 0.01)


def test_three_splits_2014_to_2018():
    table = synthetic_table()
    schedule = yearly_splits(table, 2016)
    assert [s.test_year for s in schedule.splits] == [2016, 2017, 2018]
    for s in schedule.splits:
        train_dates = table.dates[: s.train_end]
        test_dates = table.dates[s.train_end : s.test_end]
        assert max(train_dates) < min(test_dates)
        assert {d.year for d in test_dates} == {s.test_year}
        val_dates = table.dates[s.val_start : s.train_end]
        assert len(val_dates) == s.train_end // 10
        assert set(val_dates) <= set(train_dates)
    # expanding train: each next split consumes the previous test year
    for a, b in zip(schedule.splits, schedule.splits[1:]):
        assert b.train_end == a.test_end
        assert set(table.dates[: a.train_end]) < set(table.dates[: b.train_end])


def test_partial_last_year_excluded():
    table = synthetic_table(end=dt.date(2018, 6, 15))
    schedule = yearly_splits(table, 2016)
    assert [s.test_year for s in schedule.splits] == [2016, 2017]


def test_full_final_year_included_without_next_year_data():
    table = synthetic_table(end=dt.date(2018, 12, 28))
    assert [s.test_year for s in yearly_splits(table, 2016).splits] == [2016, 2017, 2018]


def test_insufficient_span_rejected():
    table = synthetic_table(end=dt.date(2015, 6, 1))
    with pytest.raises(DataError):
        yearly_splits(table, 2016)
    with pytest.raises(DataError):
        yearly_splits(synthetic_table(start=dt.date(2016, 3, 1)), 2016)
    # six rows before 2016: too few for a tenth of them to be a validation slice
    with pytest.raises(DataError, match="training range before 2016 too short for a validation slice"):
        yearly_splits(synthetic_table(start=dt.date(2015, 12, 24)), 2016)


def test_splits_cover_test_years_disjointly():
    table = synthetic_table()
    schedule = yearly_splits(table, 2016)
    seen = []
    for s in schedule.splits:
        seen.extend(range(s.train_end, s.test_end))
    first = schedule.splits[0].train_end
    assert seen == list(range(first, schedule.splits[-1].test_end))


@pytest.mark.parametrize(
    "splits, message",
    [
        ([], "at least one split"),
        ([Split(2016, 250, 225, 500), Split(2017, 490, 441, 750)], "not consecutive at 2017"),
        ([Split(2016, 250, 225, 500), Split(2018, 500, 450, 750)], "not consecutive at 2018"),
        ([Split(2016, 250, 250, 500)], "malformed split for 2016"),
    ],
    ids=["empty", "overlapping", "skipped_year", "empty_validation"],
)
def test_schedule_refuses_what_is_not_one_run_of_test_years(splits, message):
    # walk_forward dates its whole stream as one slice of the table, from the first split on
    with pytest.raises(ValueError, match=message):
        WalkForwardSchedule(splits)


# ---------------------------------------------------------------------------
# synthetic market


def test_synth_shapes_and_determinism():
    cfg = SynthConfig(n_assets=4, n_days=300, seed=7)
    a, b = synth_generate(cfg), synth_generate(cfg)
    assert a.prices.shape == (300, 4)
    assert a.dates == b.dates and np.array_equal(a.prices, b.prices)
    c = synth_generate(SynthConfig(n_assets=4, n_days=300, seed=8))
    assert not np.array_equal(a.prices, c.prices)
    assert np.all(a.prices > 0)
    assert all(d.weekday() < 5 for d in a.dates)


def test_synth_without_momentum_is_serially_uncorrelated():
    cfg = SynthConfig(n_assets=3, n_days=2000, seed=42, momentum=0.0)
    returns = clean_and_return(synth_generate(cfg)).returns
    for j in range(3):
        assert abs(lag1_autocorr(returns[:, j])) < 0.1


def test_synth_momentum_plants_positive_autocorrelation():
    cfg = SynthConfig(n_assets=3, n_days=2000, seed=42, momentum=0.6)
    returns = clean_and_return(synth_generate(cfg)).returns
    n = returns.shape[0]
    for j in range(3):
        assert lag1_autocorr(returns[:, j]) > 2.0 / np.sqrt(n)


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_assets=0, n_days=100)
    with pytest.raises(ValueError):
        SynthConfig(n_assets=2, n_days=1)


def test_trading_days_skip_weekends():
    out = trading_days(dt.date(2021, 1, 1), 5)
    assert out[0] == dt.date(2021, 1, 1)  # a Friday
    assert out[1] == dt.date(2021, 1, 4)  # the following Monday
    assert len(out) == 5


@pytest.mark.parametrize("weekday", range(7))
def test_trading_days_match_a_day_by_day_walk(weekday):
    start = dt.date(2021, 1, 4) + dt.timedelta(days=weekday)  # from Monday 2021-01-04 to Sunday 2021-01-10
    for n in (0, 1, 5, 5000):
        out = trading_days(start, n)
        assert out == trading_days_oracle(start, n)
        assert all(type(day) is dt.date for day in out)
