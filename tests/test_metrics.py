"""Tests for backtest simulation and the seven performance statistics."""

import datetime as dt
import math

import numpy as np
import pytest

from ptopt.autograd import ContractError, Tensor
from ptopt.data import ReturnTable, trading_days
from ptopt.errors import AlignmentError, DataError
from ptopt.metrics import (
    _BACKTEST_BLOCK,
    _ROLLING_BLOCK,
    EquityCurve,
    WeightStream,
    compute_metrics,
    max_drawdown,
    rolling_sharpe,
    run_backtest,
    write_equity_csv,
    write_rolling_sharpe_csv,
    write_series_csv,
)
from ptopt.objective import EPS, CostModel, ReturnsWindow, sharpe_loss

from helpers import metrics_oracle, rolling_sharpe_oracle, run_backtest_oracle, traced_peak

ROOT252 = math.sqrt(252)


def curve_from(returns, start=dt.date(2020, 1, 2)):
    returns = np.asarray(returns, dtype=np.float64)
    return EquityCurve(trading_days(start, len(returns)), returns)


# ---------------------------------------------------------------------------
# compute_metrics


def test_sharpe_hand_case_annualized():
    report = compute_metrics(curve_from([0.01, 0.03]))
    assert report.sharpe == pytest.approx(2.0 * ROOT252, abs=1e-9)
    assert report.sharpe == pytest.approx(31.749, abs=1e-3)


def test_sortino_hand_case():
    report = compute_metrics(curve_from([0.02, -0.01]))
    daily = 0.005 / math.sqrt(0.0001 / 2)
    assert daily == pytest.approx(0.7071, abs=1e-4)
    assert report.sortino == pytest.approx(daily * ROOT252, abs=1e-9)


def test_mdd_hand_case():
    # cumulative path [1.0, 1.2, 0.9, 1.1]
    returns = [0.2, 0.9 / 1.2 - 1.0, 1.1 / 0.9 - 1.0]
    report = compute_metrics(curve_from(returns))
    assert report.mdd == pytest.approx(0.25, abs=1e-12)
    assert max_drawdown(np.array([1.0, 1.2, 0.9, 1.1])) == pytest.approx(0.25, abs=1e-12)


def test_mdd_counts_drawdown_from_initial_capital():
    assert max_drawdown(np.array([0.9, 1.5])) == pytest.approx(0.1, abs=1e-12)


def test_pct_positive_excludes_zero_days():
    report = compute_metrics(curve_from([0.01, -0.02, 0.0, 0.03]))
    assert report.pct_positive == 0.5


def test_annualized_return_and_vol():
    r = np.array([0.01, -0.005, 0.002, 0.007])
    report = compute_metrics(curve_from(r))
    assert report.returns == pytest.approx(r.mean() * 252, abs=1e-15)
    assert report.vol == pytest.approx(r.std() * ROOT252, abs=1e-15)


def test_zero_dispersion_sentinels():
    up = compute_metrics(curve_from([0.01, 0.01, 0.01]))
    assert up.sharpe == math.inf
    assert up.sortino == math.inf  # no down days
    assert up.calmar == math.inf  # no drawdown
    down = compute_metrics(curve_from([-0.01, -0.01]))
    assert down.sharpe == -math.inf
    flat = compute_metrics(curve_from([0.0, 0.0]))
    assert flat.sharpe == math.inf and flat.mdd == 0.0


def test_metrics_needs_two_returns():
    with pytest.raises(ContractError):
        compute_metrics(curve_from([0.01]))


def test_metrics_match_independent_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        r = rng.standard_normal(rng.integers(5, 400)) * 0.02
        report = compute_metrics(curve_from(r))
        expected = metrics_oracle(r)
        for key, want in expected.items():
            assert getattr(report, key) == pytest.approx(want, abs=1e-10), key


def test_mdd_ignores_days_above_historical_trough_ratio():
    base = [0.2, -0.25, 0.1]
    mdd0 = compute_metrics(curve_from(base)).mdd
    extended = base + [0.0, 0.05, 0.3, -0.05]  # never revisits a 25% drop from peak
    assert compute_metrics(curve_from(extended)).mdd == pytest.approx(mdd0, abs=1e-15)


def test_equity_curve_validation():
    with pytest.raises(DataError):
        EquityCurve([dt.date(2020, 1, 2)], np.array([0.01, 0.02]))
    with pytest.raises(DataError):
        curve_from([0.01, -1.0])


def test_metrics_report_json_is_flat_and_sorted():
    report = compute_metrics(curve_from([0.01, 0.03, -0.02]))
    doc = report.to_json()
    assert doc.index("calmar") < doc.index("mdd") < doc.index("sharpe")
    import json

    parsed = json.loads(doc)
    assert sorted(parsed) == ["calmar", "mdd", "pct_positive", "returns", "sharpe", "sortino", "vol"]


# ---------------------------------------------------------------------------
# rolling sharpe


def test_rolling_sharpe_length_and_dates():
    curve = curve_from(np.random.default_rng(2).standard_normal(300) * 0.01)
    dates, values = rolling_sharpe(curve, window=252)
    assert len(values) == 300 - 252 + 1
    assert dates[0] == curve.dates[251]
    assert dates[-1] == curve.dates[-1]


def test_rolling_sharpe_constant_window_sentinel():
    curve = curve_from([0.01] * 10)
    _, values = rolling_sharpe(curve, window=5)
    assert np.all(values == math.inf)


def test_rolling_sharpe_detects_regime_change():
    rng = np.random.default_rng(5)
    sd = 0.01
    good = sd * 2.0 / ROOT252 + rng.standard_normal(300) * sd
    flat = rng.standard_normal(300) * sd
    _, values = rolling_sharpe(curve_from(np.concatenate([good, flat])), window=252)
    assert values[0] > 1.0
    assert values[-1] < 1.0
    assert values[0] > values[-1]


@pytest.mark.parametrize("window", [2, 5, 63, 252])
def test_rolling_sharpe_matches_per_window_loop(window):
    r = np.random.default_rng(window).standard_normal(1500) * 0.01
    r[300:600] = 0.0  # zero dispersion, zero mean: +inf
    r[900:1200] = -0.0078125  # zero dispersion, negative mean: -inf (2**-7 sums exactly)
    dates, values = rolling_sharpe(curve_from(r), window=window)
    expected = rolling_sharpe_oracle(r, window)
    np.testing.assert_array_equal(values, expected)
    assert np.isposinf(expected).any() and np.isneginf(expected).any()
    assert len(dates) == len(values)


@pytest.mark.parametrize("windows", [1, _ROLLING_BLOCK, _ROLLING_BLOCK + 1, 3 * _ROLLING_BLOCK + 7])
def test_blocked_rolling_sharpe_matches_the_loop_at_every_block_boundary(windows):
    r = np.random.default_rng(windows).standard_normal(windows + 251) * 0.01
    dates, values = rolling_sharpe(curve_from(r))
    assert len(dates) == len(values) == windows
    assert np.array_equal(values, rolling_sharpe_oracle(r, 252))


def test_rolling_sharpe_peak_does_not_grow_with_curve_length():
    """8,000 days may peak above 1,000 by the result (a value and a date per
    window) and per-window temporaries of the same length: under 100 bytes per
    added day. Every window's deviation at once grew by 4 KB per day."""
    peaks = []
    for days in (1000, 8000):
        curve = curve_from(np.random.default_rng(days).standard_normal(days) * 0.01)
        peaks.append(traced_peak(lambda: rolling_sharpe(curve))[1])
    assert peaks[1] - peaks[0] <= 100 * 7000, peaks


def test_rolling_sharpe_rejects_short_curve():
    with pytest.raises(ContractError):
        rolling_sharpe(curve_from([0.01, 0.02]), window=5)


# ---------------------------------------------------------------------------
# run_backtest


def table_from(returns, start=dt.date(2020, 1, 2)):
    returns = np.asarray(returns, dtype=np.float64)
    names = [f"A{i + 1}" for i in range(returns.shape[1])]
    return ReturnTable(trading_days(start, len(returns)), names, returns)


def test_static_weights_track_first_asset_minus_entry_cost():
    rng = np.random.default_rng(8)
    table = table_from(rng.standard_normal((10, 2)) * 0.01)
    w = np.tile([1.0, 0.0], (9, 1))
    stream = WeightStream(table.dates[:-1], w)
    curve = run_backtest(stream, table, CostModel(0.0002))
    expected = table.returns[1:, 0].copy()
    expected[0] -= 0.0002
    np.testing.assert_allclose(curve.daily_returns, expected, atol=1e-15)
    assert curve.dates == table.dates[1:]


def test_zero_weights_zero_returns():
    table = table_from(np.random.default_rng(3).standard_normal((6, 3)) * 0.01)
    stream = WeightStream(table.dates[:-1], np.zeros((5, 3)))
    curve = run_backtest(stream, table, CostModel(0.0002))
    np.testing.assert_array_equal(curve.daily_returns, np.zeros(5))


def test_daily_flip_costs_four_bps():
    table = table_from(np.zeros((7, 2)))
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    curve = run_backtest(WeightStream(table.dates[:-1], w), table, CostModel(0.0002))
    np.testing.assert_allclose(curve.daily_returns[0], -0.0002, atol=1e-18)
    np.testing.assert_allclose(curve.daily_returns[1:], -0.0004, atol=1e-18)


def test_costless_static_book_reproduces_dot_product():
    rng = np.random.default_rng(4)
    table = table_from(rng.standard_normal((8, 3)) * 0.02)
    w = np.tile([0.5, -0.25, 0.25], (7, 1))
    curve = run_backtest(WeightStream(table.dates[:-1], w), table, CostModel(0.0))
    np.testing.assert_array_equal(curve.daily_returns, table.returns[1:] @ w[0])


def test_backtest_matches_the_loop_oracle_bit_for_bit():
    rng = np.random.default_rng(12)
    table = table_from(rng.standard_normal((320, 5)) * 0.01)
    w = rng.standard_normal((300, 5))
    w /= np.abs(w).sum(axis=1, keepdims=True)
    stream = WeightStream(table.dates[10:310], w)
    curve = run_backtest(stream, table, CostModel(0.0007))
    dates, net = run_backtest_oracle(stream, table, 0.0007)
    assert curve.dates == dates
    assert np.array_equal(curve.daily_returns, net)


@pytest.mark.parametrize("days", [1, _BACKTEST_BLOCK, _BACKTEST_BLOCK + 1, 3 * _BACKTEST_BLOCK + 7])
def test_blocked_backtest_matches_the_loop_oracle_at_every_block_boundary(days):
    rng = np.random.default_rng(days)
    table = table_from(rng.standard_normal((days + 3, 4)) * 0.01)
    w = rng.standard_normal((days, 4))
    w /= np.abs(w).sum(axis=1, keepdims=True)
    stream = WeightStream(table.dates[1 : days + 1], w)
    curve = run_backtest(stream, table, CostModel(0.0007))
    dates, net = run_backtest_oracle(stream, table, 0.0007)
    assert curve.dates == dates
    assert np.array_equal(curve.daily_returns, net)


def test_the_loss_charges_the_backtests_costs():
    """The Sharpe that ``sharpe_loss`` trains on is the Sharpe of ``run_backtest``'s
    daily returns, bit for bit, over a stream that crosses a block boundary."""
    days = _BACKTEST_BLOCK + 60
    rng = np.random.default_rng(21)
    table = table_from(rng.standard_normal((days + 1, 4)) * 0.01)
    weights = rng.standard_normal((days, 4))
    weights /= np.abs(weights).sum(axis=1, keepdims=True)
    realized = table.returns[1:]
    costs = CostModel(0.0007)
    net = run_backtest(WeightStream(table.dates[:-1], weights), table, costs).daily_returns
    m = np.add.reduce(net) / days
    sd = np.sqrt(np.add.reduce(net * net) / days - m * m + EPS)
    single = sharpe_loss(Tensor(weights), ReturnsWindow(realized), costs).item()
    stacked = sharpe_loss(Tensor(weights[None]), ReturnsWindow(realized[None]), costs).data[0]
    assert m / sd == -single == -stacked


def test_backtest_peak_does_not_grow_with_days_times_assets():
    """4,000 days x 50 assets may peak above 1,000 days by the returned curve
    (net returns, their running product and a list of dates) and the per-day
    date indices (a few int64 per day) alone: under 100 bytes per added day.
    Whole-stream held returns and turnover grew by 800 bytes per day."""
    peaks = []
    for days in (1000, 4000):
        rng = np.random.default_rng(days)
        table = table_from(rng.standard_normal((days + 1, 50)) * 0.01)
        stream = WeightStream(table.dates[:-1], rng.standard_normal((days, 50)) / 50)
        peaks.append(traced_peak(lambda: run_backtest(stream, table, CostModel(0.0002)))[1])
    assert peaks[1] - peaks[0] <= 100 * 3000, peaks


def test_alignment_errors():
    table = table_from(np.zeros((8, 2)))
    days = table.dates
    cases = [
        ([dt.date(2021, 6, 1), days[1]], "weight date 2021-06-01 not present"),
        ([days[0], days[1], dt.date(2020, 1, 4), days[3]], "weight date 2020-01-04 not present"),
        # weight on the final table date has no next-day return to earn
        ([days[-1]], f"no realized return after weight date {days[-1]}"),
        # skipping a trading day breaks the daily-adjustment contract
        ([days[0], days[2]], f"skip trading days before {days[2]}"),
        ([*days[:5], days[6]], f"skip trading days before {days[6]}"),
    ]
    for dates, message in cases:
        stream = WeightStream(dates, np.zeros((len(dates), 2)))
        with pytest.raises(AlignmentError, match=message) as caught:
            run_backtest(stream, table, CostModel())
        with pytest.raises(AlignmentError) as expected:
            run_backtest_oracle(stream, table, 0.0002)
        assert str(caught.value) == str(expected.value)
    with pytest.raises(AlignmentError):
        run_backtest(WeightStream(days[:2], np.zeros((2, 3))), table, CostModel())


# ---------------------------------------------------------------------------
# serialization


def test_series_csv_round_trips_floats(tmp_path):
    dates = trading_days(dt.date(2020, 1, 2), 3)
    values = np.array([1.0, 1.0 + 1e-16, 0.1 + 0.2])
    path = tmp_path / "series.csv"
    write_series_csv(dates, {"value": values}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "date,value"
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert got == [float(v) for v in values]
    write_series_csv(dates, {"a": values, "b": -values}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "date,a,b"
    assert lines[3] == f"2020-01-06,{0.1 + 0.2!r},{-(0.1 + 0.2)!r}"


def test_rolling_sharpe_csv_of_a_curve_shorter_than_a_year_is_the_header(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "rolling.csv"
    write_rolling_sharpe_csv(curve_from(rng.normal(0.0, 0.01, 251)), path)
    assert path.read_bytes() == b"date,value\n"
    curve = curve_from(rng.normal(0.0, 0.01, 252))
    write_rolling_sharpe_csv(curve, path)
    dates, values = rolling_sharpe(curve)
    assert path.read_text().splitlines() == ["date,value", f"{dates[0].isoformat()},{float(values[0])!r}"]


def test_equity_csv_writes_cumulative(tmp_path):
    curve = curve_from([0.1, -0.05])
    path = tmp_path / "equity.csv"
    write_equity_csv(curve, path)
    lines = path.read_text().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(1.1)
    assert float(lines[2].split(",")[1]) == pytest.approx(1.1 * 0.95)
