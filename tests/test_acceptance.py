"""Acceptance suite: ten go/no-go checks at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion;
each test also prints an explicit PASS line with its headline numbers
(visible with ``-s`` or ``-rA``). Tolerances are part of the contract and
must not be loosened here.
"""

import datetime as dt
import json
import time

import numpy as np

import ptopt.cli as cli
import ptopt.training as tr
from helpers import metrics_oracle, model_grad_errors, portfolio_returns_oracle, sharpe_oracle, walk
from ptopt.autograd import Tensor
from ptopt.benchmarks import LSTMConfig, LSTMModel, MVConfig, mv_weights, tangency_weights
from ptopt.data import SynthConfig, clean_and_return, synth_generate, trading_days, yearly_splits
from ptopt.metrics import EquityCurve, compute_metrics, run_backtest
from ptopt.model import PTConfig, PortfolioTransformer
from ptopt.objective import CostModel, ReturnsWindow, sharpe_loss


def report(n: int, text: str) -> None:
    print(f"criterion {n:02d} PASS - {text}")


def test_criterion_01_gradient_fidelity():
    start = time.perf_counter()
    model = PortfolioTransformer(
        PTConfig(n_assets=3, window=8, d_model=8, n_heads=2, t2v_k=3, n_layers=1, seed=11)
    )
    rng = np.random.default_rng(0)
    block = rng.normal(0.0, 0.01, size=(16, 3))
    realized = rng.normal(0.0005, 0.01, size=(8, 3))

    def loss_fn():
        return sharpe_loss(model.window_weights(block), ReturnsWindow(realized), CostModel())

    errs = model_grad_errors(model, loss_fn, h=1e-5)
    elapsed = time.perf_counter() - start
    worst = max(errs.values())
    assert worst < 1e-4, f"worst gradient error {worst} in {max(errs, key=errs.get)}"
    assert elapsed < 60.0
    report(1, f"max rel err {worst:.2e} over {len(errs)} parameter groups in {elapsed:.1f}s")


def test_criterion_02_constraint_suite():
    cfg = dict(n_assets=3, window=4, d_model=8, n_heads=2, t2v_k=2, n_layers=1)
    rng = np.random.default_rng(7)
    draws = 0
    for model_seed in range(100):
        model = PortfolioTransformer(PTConfig(seed=model_seed, **cfg))
        for _ in range(10):
            block = rng.normal(0.0, 0.02, size=(8, 3))
            w = model.window_weights(block).data
            assert np.all(np.abs(np.abs(w).sum(axis=1) - 1.0) <= 1e-9)
            assert np.all(np.abs(w) <= 1.0 + 1e-9)
            draws += 1
    assert draws == 1000
    report(2, "1000 draws: every row has unit gross exposure and |w| <= 1")


def test_criterion_03_causality_suite():
    tau = 8
    model = PortfolioTransformer(
        PTConfig(n_assets=3, window=tau, d_model=8, n_heads=2, t2v_k=2, n_layers=1, seed=4)
    )
    rng = np.random.default_rng(21)
    worst_pt = 0.0
    for _ in range(100):
        block = rng.normal(0.0, 0.02, size=(2 * tau, 3))
        j = int(rng.integers(1, tau))
        bent = block.copy()
        bent[tau + j] += rng.normal(0.0, 0.05, size=3)
        base = model.window_weights(block).data
        after = model.window_weights(bent).data
        worst_pt = max(worst_pt, float(np.abs(base[:j] - after[:j]).max()))
    assert worst_pt < 1e-12

    lstm = LSTMModel(LSTMConfig(n_assets=3, window=tau, hidden=6, seed=9))
    worst_lstm = 0.0
    for _ in range(100):
        block = rng.normal(0.0, 0.02, size=(2 * tau, 3))
        j = int(rng.integers(1, tau))
        bent = block.copy()
        bent[tau + j] += rng.normal(0.0, 0.05, size=3)
        base = lstm.window_weights(block).data
        after = lstm.window_weights(bent).data
        worst_lstm = max(worst_lstm, float(np.abs(base[:j] - after[:j]).max()))
    assert worst_lstm < 1e-12
    report(3, f"100 perturbations each: past rows moved <= {max(worst_pt, worst_lstm):.1e}")


def test_criterion_04_loss_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for case in range(100):
        tau = int(rng.integers(2, 11))
        n = int(rng.integers(2, 6))
        w = rng.normal(0.0, 0.7, size=(tau, n))
        realized = rng.normal(0.0005, 0.01, size=(tau, n))
        prev = rng.normal(0.0, 0.5, size=n) if case % 3 == 0 else None
        cost = 0.0002 if case % 4 else 0.0
        graph = sharpe_loss(Tensor(w), ReturnsWindow(realized, prev), CostModel(cost)).item()
        oracle = -sharpe_oracle(portfolio_returns_oracle(w, realized, cost, prev))
        diff = abs(graph - oracle) / max(1.0, abs(oracle))
        worst = max(worst, diff)
    assert worst <= 1e-12
    report(4, f"100 cases incl. turnover at 2 bps: worst deviation {worst:.1e}")


def test_criterion_05_metrics_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(30, 400))
        r = rng.normal(0.0004, 0.012, size=n)
        dates = trading_days(dt.date(2014, 1, 2), n)
        got = json.loads(compute_metrics(EquityCurve(dates, r)).to_json())
        want = metrics_oracle(r)
        for key, value in want.items():
            diff = abs(got[key] - value) / max(1.0, abs(value))
            worst = max(worst, diff)
    assert worst <= 1e-10

    # hand case: equity levels 1.0 -> 1.2 -> 0.9 -> 1.1 lose a quarter off the peak
    levels = np.array([1.0, 1.2, 0.9, 1.1])
    r = np.diff(levels) / levels[:-1]
    m = compute_metrics(EquityCurve(trading_days(dt.date(2014, 1, 2), 3), r))
    assert abs(m.mdd - 0.25) <= 1e-12

    # hand case: daily Sharpe of [0.01, 0.03] is exactly 2
    m2 = compute_metrics(EquityCurve(trading_days(dt.date(2014, 1, 2), 2), np.array([0.01, 0.03])))
    assert abs(m2.sharpe / np.sqrt(252.0) - 2.0) <= 1e-9
    report(5, f"100 streams worst deviation {worst:.1e}; MDD 0.25 and Sharpe 2.0 hand cases exact")


def test_criterion_06_mean_variance_correctness():
    w = tangency_weights(np.array([0.01, 0.02]), np.diag([4e-4, 4e-4]), ridge=0.0)
    assert np.max(np.abs(w - np.array([1.0 / 3.0, 2.0 / 3.0]))) <= 1e-9

    rng = np.random.default_rng(8)
    history = rng.normal(0.0005, 0.01, size=(60, 3))
    cfg = MVConfig(lookback=50, ridge=0.0)
    base = mv_weights(history, cfg)
    for lam in (0.5, 3.0, 20.0):
        scaled = mv_weights(lam * history, cfg)
        assert np.max(np.abs(scaled - base)) <= 1e-9
    report(6, "diagonal hand case [1/3, 2/3] and scale invariance within 1e-9")


def test_criterion_07_walk_forward_integrity():
    n_days = sum(
        1
        for offset in range((dt.date(2018, 12, 31) - dt.date(2014, 1, 2)).days + 1)
        if (dt.date(2014, 1, 2) + dt.timedelta(days=offset)).weekday() < 5
    )
    table = clean_and_return(synth_generate(SynthConfig(n_assets=4, n_days=n_days, seed=2)))
    assert table.dates[-1] == dt.date(2018, 12, 31)
    schedule = yearly_splits(table, 2016)
    splits = schedule.splits
    assert len(splits) == 3
    assert [s.test_year for s in splits] == [2016, 2017, 2018]
    for prev, split in zip([None] + list(splits[:-1]), splits):
        train_dates = table.dates[: split.train_end]
        test_dates = table.dates[split.train_end : split.test_end]
        val_dates = table.dates[split.val_start : split.train_end]
        assert max(train_dates) < min(test_dates)  # no lookahead
        assert all(d.year == split.test_year for d in test_dates)
        assert set(val_dates) <= set(train_dates)
        if prev is not None:
            assert split.train_end > prev.train_end  # expanding train range
            assert table.dates[: prev.train_end] == train_dates[: prev.train_end]
            assert train_dates[-1] == table.dates[prev.test_end - 1]  # consumes prior test year
    report(7, "2014-2018 calendar: 3 splits, expanding, date-verified no-lookahead")


def test_criterion_08_learning_smoke_test():
    start = time.perf_counter()
    prices = synth_generate(SynthConfig(n_assets=4, n_days=2000, seed=1, momentum=0.6))
    table = clean_and_return(prices)
    schedule = yearly_splits(table, 2020)
    assert len(schedule.splits) == 1
    cfg = tr.TrainConfig(batch_size=64, learning_rate=3e-3, max_epochs=50, patience=5, seed=0)
    combo = {"d_model": 8, "n_heads": 2, "t2v_k": 3, "n_layers": 1}
    pt_run = walk(table, schedule, "pt", tau=8, base_cfg=cfg, seed=3, base_combo=combo)
    ew_run = walk(table, schedule, "equal_weight", tau=8, seed=3)
    costs = CostModel()
    pt = compute_metrics(run_backtest(pt_run.stream, table, costs))
    ew = compute_metrics(run_backtest(ew_run.stream, table, costs))
    history = pt_run.outcomes[0].history
    best = int(np.argmin([h.val_loss for h in history]))
    elapsed = time.perf_counter() - start
    assert len(history) <= 50
    assert history[best].train_loss < history[0].train_loss
    assert pt.sharpe > ew.sharpe
    assert elapsed < 600.0
    report(
        8,
        f"planted momentum: PT sharpe {pt.sharpe:.2f} > equal-weight {ew.sharpe:.2f}, "
        f"train loss {history[0].train_loss:.4f} -> {history[best].train_loss:.4f} in {elapsed:.0f}s",
    )


def test_criterion_09_run_determinism(tmp_path):
    data = tmp_path / "prices.csv"
    assert cli.main(["synth", "--assets", "3", "--days", "790", "--seed", "5", "--out", str(data)]) == 0
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(
            ["run", "--strategy", "mlp", "--data", str(data), "--out", str(out),
             "--seed", "7", "--window", "4", "--max-epochs", "2"]
        )
        assert code == 0
        blobs.append((out / "metrics.json").read_bytes())
    assert blobs[0] == blobs[1]
    report(9, "two identical runs produced byte-identical metrics.json")


def test_criterion_10_benchmark_parity_harness(tmp_path):
    data = tmp_path / "prices.csv"
    assert cli.main(["synth", "--assets", "3", "--days", "790", "--seed", "5", "--out", str(data)]) == 0
    out = tmp_path / "cmp"
    code = cli.main(
        ["compare", "--strategies", "pt", "lstm", "mlp", "mv", "equal_weight",
         "--data", str(data), "--out", str(out), "--window", "4", "--max-epochs", "1", "--seed", "2"]
    )
    assert code == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "strategy,returns,vol,sharpe,sortino,mdd,calmar,pct_positive"
    assert [line.split(",")[0] for line in lines[1:]] == ["pt", "lstm", "mlp", "mv", "equal_weight"]
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 8
        assert all(np.isfinite(float(c)) for c in cells[1:])
    curves = (out / "equity_curves.csv").read_text().splitlines()
    assert curves[0] == "date,pt,lstm,mlp,mv,equal_weight"
    assert all(len(line.split(",")) == 6 for line in curves[1:])
    report(10, "five strategies through one pipeline; seven-column table written")
