"""Output checks for one benchmark command; run outside the timed region.

The report statistics are recomputed here from the written equity series
with plain numpy rather than through ``ptopt.metrics``, so a fast path that
breaks the metrics code cannot also break its own check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ptopt.data import ReturnTable, WalkForwardSchedule
from ptopt.metrics import WeightStream, run_backtest, write_equity_csv
from ptopt.model import load_checkpoint
from ptopt.objective import CostModel

DAYS = 252
METRIC_TOLERANCE = 1e-10
GROSS_TOLERANCE = 1e-9


def _recompute(cumulative: np.ndarray) -> dict[str, float]:
    levels = np.concatenate([[1.0], cumulative])
    r = levels[1:] / levels[:-1] - 1.0
    mean, sd = r.mean(), r.std()
    downside = math.sqrt(np.mean(np.minimum(r, 0.0) ** 2))
    mdd = float(np.max(1.0 - levels / np.maximum.accumulate(levels)))
    stats = {
        "returns": mean * DAYS,
        "vol": sd * math.sqrt(DAYS),
        "sharpe": mean / sd * math.sqrt(DAYS),
        "sortino": mean / downside * math.sqrt(DAYS),
        "mdd": mdd,
        "calmar": mean * DAYS / mdd,
        "pct_positive": np.mean(r > 0),
    }
    return {key: float(value) for key, value in stats.items()}


def _compare_report(label: str, reported: dict[str, float], cumulative: np.ndarray) -> list[str]:
    expected = _recompute(cumulative)
    problems = []
    for key, want in expected.items():
        got = reported.get(key)
        if got is None or not math.isfinite(got):
            problems.append(f"{label}: {key} is {got!r}, want a finite value")
        elif abs(got - want) > METRIC_TOLERANCE * max(1.0, abs(want)):
            problems.append(f"{label}: {key} = {got!r}, recomputed from the equity series {want!r}")
    return problems


def _read_columns(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _test_days(schedule: WalkForwardSchedule) -> int:
    return schedule.splits[-1].test_end - schedule.splits[0].train_end


def check_run(out: Path, table: ReturnTable, schedule: WalkForwardSchedule, load=load_checkpoint):
    """Checks for ``ptopt run``; returns (out-of-sample Sharpe, problems).

    Replays every test-day decision from the saved checkpoints: the backtest
    of the replayed weights must reproduce ``equity.csv`` byte for byte.
    """
    problems = []
    config = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]
    report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    _, rows = _read_columns(out / "equity.csv")
    if len(rows) != _test_days(schedule):
        problems.append(f"equity.csv has {len(rows)} rows, want {_test_days(schedule)} test days")
    problems += _compare_report("metrics.json", report, np.array([float(v) for _, v in rows]))

    tau = config["window"]
    dates, weights = [], []
    for split in schedule.splits:
        model = load(out / f"checkpoint_{split.test_year}.ckpt")
        for p in range(split.train_end - 1, split.test_end - 1):
            dates.append(table.dates[p])
            weights.append(model.day_weights(table.returns[p - 2 * tau + 1 : p + 1]))
    weights = np.vstack(weights)
    worst = float(np.max(np.abs(np.abs(weights).sum(axis=1) - 1.0)))
    if worst > GROSS_TOLERANCE:
        problems.append(f"replayed weights miss unit gross exposure by {worst:.3e}")
    replay = out / "replayed_equity.csv"
    write_equity_csv(run_backtest(WeightStream(dates, weights), table, CostModel(config["cost_rate"])), replay)
    if replay.read_bytes() != (out / "equity.csv").read_bytes():
        problems.append("checkpoint replay does not reproduce equity.csv byte for byte")
    return report["sharpe"], problems


def check_compare(out: Path, table: ReturnTable, schedule: WalkForwardSchedule, load=None):
    """Checks for ``ptopt compare``; returns (first strategy's Sharpe, problems).

    ``load`` is unused: compare writes no checkpoints.
    """
    problems = []
    metric_names, report_rows = _read_columns(out / "comparison.csv")
    strategies, curve_rows = _read_columns(out / "equity_curves.csv")
    if len(curve_rows) != _test_days(schedule):
        problems.append(f"equity_curves.csv has {len(curve_rows)} rows, want {_test_days(schedule)} test days")
    if [row[0] for row in report_rows] != strategies[1:]:
        problems.append("comparison.csv and equity_curves.csv list different strategies")
        return math.nan, problems
    for col, row in enumerate(report_rows, start=1):
        reported = {name: float(v) for name, v in zip(metric_names[1:], row[1:])}
        cumulative = np.array([float(r[col]) for r in curve_rows])
        problems += _compare_report(f"comparison.csv[{row[0]}]", reported, cumulative)
    return float(report_rows[0][metric_names.index("sharpe")]), problems
