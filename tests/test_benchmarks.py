"""Tests for the mean-variance, MLP, and LSTM baseline strategies."""

import datetime
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ptopt
import ptopt.autograd as ag
from ptopt.autograd import Tensor
from ptopt.benchmarks import (
    LSTMConfig,
    LSTMModel,
    MLPConfig,
    MLPModel,
    MVConfig,
    equal_weights,
    lstm_forward,
    mv_weights,
    tangency_weights,
)
import ptopt.training as tr
from ptopt.data import (
    PriceTable, ReturnTable, Split, SynthConfig, WalkForwardSchedule, clean_and_return, synth_generate, trading_days, yearly_splits,
)
from ptopt.errors import DataError, NumericError
from ptopt.model import load_checkpoint, save_checkpoint
from ptopt.objective import CostModel, ReturnsWindow, sharpe_loss
from ptopt.training import walk_forward

from helpers import (
    assert_fused_matches_composed,
    lstm_composed,
    lstm_forward_composed,
    mlp_forward,
    model_grad_errors,
    mv_weights_oracle,
    reduce_sum,
    traced_peak,
)

RNG = np.random.default_rng(31)


def moment_matched_history(mu, var, reps=1):
    """Rows whose sample mean and (diagonal) sample covariance match exactly."""
    mu = np.asarray(mu, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    # 4-row orthogonal sign design: sample covariance is exactly diagonal
    signs = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.float64)
    spread = np.sqrt(3.0 * var / 4.0)
    rows = mu + signs * spread
    return np.tile(rows, (reps, 1))


# ---------------------------------------------------------------------------
# mean-variance


def test_tangency_hand_case():
    w = tangency_weights(np.array([0.1, 0.05]), np.diag([0.04, 0.01]))
    np.testing.assert_allclose(w, [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)


def test_tangency_symmetric_assets_split_evenly():
    w = tangency_weights(np.array([0.02, 0.02, 0.02]), 0.04 * np.eye(3))
    np.testing.assert_allclose(w, equal_weights(3), atol=1e-12)


def test_tangency_zero_mean_falls_back_to_equal():
    w = tangency_weights(np.zeros(4), np.eye(4))
    np.testing.assert_array_equal(w, equal_weights(4))


def test_mv_weights_recovers_hand_case_from_history():
    history = moment_matched_history([0.1, 0.05], [0.04, 0.01])
    w = mv_weights(history, MVConfig(lookback=4, ridge=0.0))
    np.testing.assert_allclose(w, [1.0 / 3.0, 2.0 / 3.0], atol=1e-9)


def test_mv_weights_scale_invariance_without_ridge():
    history = RNG.standard_normal((60, 3)) * 0.01 + 2e-4
    cfg = MVConfig(lookback=50, ridge=0.0)
    base = mv_weights(history, cfg)
    for lam in (0.5, 3.0, 17.0):
        np.testing.assert_allclose(mv_weights(lam * history, cfg), base, atol=1e-9)


def test_mv_ridge_keeps_degenerate_history_solvable():
    col = RNG.standard_normal(50) * 0.01
    history = np.column_stack([col, col])  # perfectly correlated pair
    w = mv_weights(history, MVConfig(lookback=50, ridge=1e-6))
    assert np.all(np.isfinite(w))
    assert abs(np.abs(w).sum() - 1.0) < 1e-12
    with pytest.raises(NumericError):
        mv_weights(history, MVConfig(lookback=50, ridge=0.0))


def test_mv_weights_unit_gross_exposure():
    history = RNG.standard_normal((80, 5)) * 0.02
    w = mv_weights(history, MVConfig())
    assert abs(np.abs(w).sum() - 1.0) < 1e-12


def test_mv_requires_enough_history():
    with pytest.raises(DataError):
        mv_weights(np.zeros((30, 2)), MVConfig(lookback=50))


def test_mv_weights_stack_equals_single_histories():
    cfg = MVConfig(lookback=50, ridge=0.0)
    stack = RNG.standard_normal((5, 60, 4)) * 0.01 + 2e-4
    pairs = RNG.standard_normal((30, 4)) * 0.01
    stack[2, 0::2], stack[2, 1::2] = pairs, -pairs  # each row followed by its negative: zero mean
    np.testing.assert_array_equal(mv_weights(stack[2], cfg), equal_weights(4))
    weights = mv_weights(stack, cfg)
    assert weights.shape == (5, 4)
    np.testing.assert_array_equal(weights, np.array([mv_weights(history, cfg) for history in stack]))
    np.testing.assert_array_equal(weights[2], equal_weights(4))
    assert np.all(np.abs(np.abs(weights).sum(axis=1) - 1.0) < 1e-12)


def test_tangency_stack_matches_rows_and_keeps_sigma():
    mu = RNG.standard_normal((3, 4)) * 0.01
    a = RNG.standard_normal((3, 4, 4))
    sigma = a @ a.swapaxes(-1, -2) * 1e-4
    before = sigma.copy()
    w = tangency_weights(mu, sigma, ridge=0.5)
    np.testing.assert_array_equal(sigma, before)
    np.testing.assert_array_equal(w, np.array([tangency_weights(m, s, ridge=0.5) for m, s in zip(mu, sigma)]))


def test_mv_weights_singular_matrix_in_a_stack_raises():
    stack = RNG.standard_normal((3, 50, 3)) * 0.01
    stack[1, :, 2] = 0.0  # a flat asset: one singular covariance among three
    with pytest.raises(NumericError):
        mv_weights(stack, MVConfig(lookback=50, ridge=0.0))
    assert np.all(np.isfinite(mv_weights(stack, MVConfig(lookback=50, ridge=1e-6))))


def test_mv_weights_rejects_short_or_misshapen_stacks():
    with pytest.raises(DataError):
        mv_weights(np.zeros((3, 30, 2)), MVConfig(lookback=50))
    with pytest.raises(DataError):
        mv_weights(np.zeros((2, 3, 60, 2)), MVConfig(lookback=50))


def test_walk_forward_mv_equals_per_day_oracle():
    """Chunked, batched weights equal np.cov plus one solve per test day."""
    raw = synth_generate(SynthConfig(n_assets=24, n_days=820, seed=4))
    rng = np.random.default_rng(4)
    prices = raw.prices.copy()
    prices[rng.random(prices.shape) < 0.05] = np.nan
    for j, lead in enumerate(rng.integers(0, 40, 24)):
        prices[:lead, j] = np.nan
        prices[lead, j] = 100.0
    table = clean_and_return(PriceTable(raw.dates, raw.tickers, prices))
    schedule = yearly_splits(table, 2015)
    assert [s.test_year for s in schedule.splits] == [2015, 2016]
    chunk = tr._MV_STACK_BYTES // (8 * 24 * 24)
    first = schedule.splits[0]
    assert (first.test_end - first.train_end) % chunk  # so one chunk holds the last 2015 and the first 2016 days
    cfg = MVConfig()
    weights = walk_forward(table, schedule, "mv").weights
    decisions = range(schedule.splits[0].train_end - 1, schedule.splits[-1].test_end - 1)
    np.testing.assert_array_equal(weights, mv_weights_oracle(table.returns, decisions, cfg.lookback, cfg.ridge))


def mv_market(days, n, seed=0):
    rng = np.random.default_rng(seed)
    dates = trading_days(datetime.date(2020, 1, 2), days)
    return ReturnTable(dates, [f"A{j}" for j in range(n)], rng.normal(0.0005, 0.01, (days, n)))


@pytest.mark.parametrize("chunk", [1, 3, 64, 200])
def test_mv_walk_weights_do_not_depend_on_the_chunk(chunk, monkeypatch):
    table = mv_market(400, 12)
    schedule = WalkForwardSchedule([Split(2020, 250, 225, 400)])  # 150 test days
    expected = walk_forward(table, schedule, "mv").weights
    monkeypatch.setattr(tr, "_MV_STACK_BYTES", chunk * 8 * 12 * 12)
    assert np.array_equal(walk_forward(table, schedule, "mv").weights, expected)


def test_mv_walk_peak_does_not_grow_with_assets():
    """Over 20 test days, the MV walk's temporaries (its peak above the weights
    it returns) at 160 assets stay within those at 40 assets plus 64 KiB: a
    chunk holds one (days, n, n) stack of ``_MV_STACK_BYTES`` or a single day.
    One call for all 20 days took 14 times as much at 160 assets as at 40."""
    temporaries = []
    for n in (40, 160):
        table = mv_market(80, n, seed=n)
        schedule = WalkForwardSchedule([Split(2020, 60, 54, 80)])
        result, peak = traced_peak(lambda: walk_forward(table, schedule, "mv"))
        temporaries.append(peak - result.weights.nbytes)
    assert temporaries[1] <= temporaries[0] + 64 * 1024, temporaries


# ---------------------------------------------------------------------------
# MLP


def test_mlp_forward_shape_and_constraint():
    model = MLPModel(MLPConfig(n_assets=3, window=4, hidden=(8,), seed=2))
    w = model.day_weights(RNG.standard_normal((8, 3)) * 0.02)
    assert w.shape == (3,)
    assert abs(np.abs(w).sum() - 1.0) < 1e-9


def test_mlp_zero_output_layer_gives_equal_long_weights():
    model = MLPModel(MLPConfig(n_assets=4, window=3, hidden=(5,), seed=3))
    model.layer[-1].W.data[...] = 0.0
    model.layer[-1].b.data[...] = 0.0
    w = model.day_weights(RNG.standard_normal((6, 4)))
    np.testing.assert_allclose(w, equal_weights(4), atol=1e-15)


def test_mlp_window_weights_use_trailing_blocks():
    """Row j of the training output equals the standalone forward pass on
    the block's j-th trailing window."""
    tau = 4
    model = MLPModel(MLPConfig(n_assets=2, window=tau, hidden=(6,), seed=4))
    block = RNG.standard_normal((2 * tau, 2)) * 0.02
    rows = model.window_weights(block).data
    assert rows.shape == (tau, 2)
    for j in range(tau):
        np.testing.assert_allclose(rows[j], mlp_forward(block[j + 1 : tau + j + 1], model), atol=1e-14)


def test_mlp_gradients_match_finite_differences():
    model = MLPModel(MLPConfig(n_assets=3, window=3, hidden=(4,), seed=5))
    block = np.random.default_rng(6).standard_normal((6, 3)) * 0.02
    realized = np.random.default_rng(7).standard_normal((3, 3)) * 0.02

    def loss_fn():
        return sharpe_loss(model.window_weights(block), ReturnsWindow(realized=realized), CostModel())

    errs = model_grad_errors(model, loss_fn)
    assert max(errs.values()) < 1e-4


def test_mlp_shape_errors():
    model = MLPModel(MLPConfig(n_assets=3, window=4))
    with pytest.raises(ValueError, match=r"block shape \(8, 2\) != \(8, 3\)"):
        model.window_weights(np.zeros((8, 2)))
    with pytest.raises(ValueError, match=r"block shape \(7, 3\) != \(8, 3\)"):
        model.window_weights(np.zeros((7, 3)))


# ---------------------------------------------------------------------------
# LSTM


def test_lstm_zero_parameters_give_constant_equal_weights():
    model = LSTMModel(LSTMConfig(n_assets=3, window=4, hidden=5, seed=8))
    for t in model.parameters().values():
        t.data[...] = 0.0
    w = lstm_forward(RNG.standard_normal((4, 3)), model).data
    np.testing.assert_allclose(w, np.tile(equal_weights(3), (4, 1)), atol=1e-15)


def test_lstm_respects_recurrence_direction():
    model = LSTMModel(LSTMConfig(n_assets=3, window=5, hidden=6, seed=9))
    x = RNG.standard_normal((5, 3)) * 0.02
    base = lstm_forward(x, model).data
    for j in range(5):
        bumped = x.copy()
        bumped[j] += 0.05
        out = lstm_forward(bumped, model).data
        if j > 0:
            assert np.max(np.abs(out[:j] - base[:j])) < 1e-12
        assert not np.allclose(out[j], base[j])


def test_lstm_unit_gross_exposure():
    model = LSTMModel(LSTMConfig(n_assets=4, window=6, hidden=8, seed=10))
    w = lstm_forward(RNG.standard_normal((6, 4)), model).data
    np.testing.assert_allclose(np.abs(w).sum(axis=1), np.ones(6), atol=1e-9)


def test_lstm_gradients_match_finite_differences():
    model = LSTMModel(LSTMConfig(n_assets=2, window=3, hidden=3, seed=11))
    block = np.random.default_rng(12).standard_normal((6, 2)) * 0.02
    realized = np.random.default_rng(13).standard_normal((3, 2)) * 0.02

    def loss_fn():
        return sharpe_loss(model.window_weights(block), ReturnsWindow(realized=realized), CostModel())

    errs = model_grad_errors(model, loss_fn)
    assert max(errs.values()) < 1e-4


def test_lstm_deterministic_init():
    a = LSTMModel(LSTMConfig(n_assets=3, window=4, hidden=5, seed=1))
    b = LSTMModel(LSTMConfig(n_assets=3, window=4, hidden=5, seed=1))
    for name, t in a.parameters().items():
        assert np.array_equal(t.data, b.parameters()[name].data)


def test_lstm_shape_errors():
    model = LSTMModel(LSTMConfig(n_assets=3, window=4))
    with pytest.raises(ValueError, match="lstm: incompatible shapes"):
        lstm_forward(np.zeros((4, 2)), model)
    with pytest.raises(ValueError, match=r"block shape \(4, 3\) != \(8, 3\)"):
        model.window_weights(np.zeros((4, 3)))


def weights_and_grads(forward, model, x, coef):
    """``forward(x, model)`` and the gradient of every parameter for a fixed weighting of it."""
    params = model.parameters()
    for p in params.values():
        p.grad = None
    with ag.Tape() as tape:
        weights = forward(x, model)
        ag.backward(reduce_sum(ag.mul(weights, Tensor(coef))), tape)
    return weights.data, {name: p.grad for name, p in params.items()}


LSTM_LEADS = {"rank2": (), "B1": (1,), "B5": (5,)}


@pytest.mark.parametrize("lead", LSTM_LEADS.values(), ids=LSTM_LEADS.keys())
@pytest.mark.parametrize("hidden", [1, 3, 16])
def test_lstm_matches_composition(hidden, lead):
    """The fused recurrence equals the per-step loop bit for bit, on the weights and
    every parameter gradient, and its gradients pass the finite-difference check."""
    rng = np.random.default_rng(hidden)
    model = LSTMModel(LSTMConfig(n_assets=3, window=4, hidden=hidden, seed=hidden))
    model.b.data[:] = rng.standard_normal(model.b.shape)
    x = rng.standard_normal((*lead, 4, 3))
    coef = rng.standard_normal((*lead, 4, 3))
    weights, grads = weights_and_grads(lstm_forward, model, x, coef)
    ref_weights, ref_grads = weights_and_grads(lstm_forward_composed, model, x, coef)
    assert np.array_equal(weights, ref_weights)
    assert grads.keys() == ref_grads.keys() == {"wx", "wh", "b", "head.W", "head.b"}
    for name, g in ref_grads.items():
        assert np.array_equal(grads[name], g), name
    inputs = {"x": x, "wx": model.wx.data, "wh": model.wh.data, "b": model.b.data}
    args = tuple(inputs)
    assert_fused_matches_composed(
        lambda t: ag.lstm(*(t[n] for n in args)), lambda t: lstm_composed(*(t[n] for n in args)), inputs,
        fd=hidden < 16,
    )


def test_lstm_rejects_bad_shapes():
    x, wx, wh, b = Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 8))), Tensor(np.zeros((2, 8))), Tensor(np.zeros(8))
    ag.lstm(x, wx, wh, b)
    for bad in (
        (x, Tensor(np.zeros((2, 8))), wh, b),  # wx rows != n_assets
        (x, Tensor(np.zeros((3, 6))), wh, Tensor(np.zeros(6))),  # wx columns not 4 * hidden
        (x, wx, Tensor(np.zeros((3, 8))), b),  # wh rows != hidden
        (x, wx, Tensor(np.zeros((2, 6))), b),  # wh columns != 4 * hidden
        (x, wx, Tensor(np.zeros(8)), b),  # wh not a matrix
        (x, wx, wh, Tensor(np.zeros(4))),  # b != 4 * hidden
        (Tensor(np.zeros(3)), wx, wh, b),  # no row axis
    ):
        with pytest.raises(ValueError, match="lstm: incompatible shapes"):
            ag.lstm(*bad)


def test_default_lstm_training_step_tape_length():
    """One default LSTM step (B=32, forward, loss and mean) records 5 tape nodes:
    the recurrence, the head, the signed softmax, the loss and the mean. A
    recurrence that goes back to op-by-op recording fails this."""
    model = LSTMModel(LSTMConfig(n_assets=6, window=8))
    rng = np.random.default_rng(0)
    with ag.Tape() as tape:
        weights = model.window_weights(rng.normal(0.0, 0.01, (32, 16, 6)))
        ag.mean(sharpe_loss(weights, ReturnsWindow(rng.normal(0.0, 0.01, (32, 8, 6))), CostModel()))
    assert len(tape.nodes) == 5


# ---------------------------------------------------------------------------
# checkpoints


def test_mlp_config_hidden_is_a_tuple_of_ints():
    want = MLPConfig(n_assets=3, window=4, hidden=(6, 4))
    assert MLPConfig(n_assets=3, window=4, hidden=[6, 4]) == want
    assert MLPConfig(n_assets=3, window=4, hidden=6).hidden == (6,)
    # an entry that is not exactly an int is refused, not truncated
    for bad in ([], [32.5], [True], True):
        with pytest.raises(ValueError):
            MLPConfig(n_assets=3, window=4, hidden=bad)


def test_checkpoint_loads_with_only_the_model_module_imported(tmp_path):
    path = tmp_path / "lstm.ckpt"
    save_checkpoint(LSTMModel(LSTMConfig(n_assets=3, window=4, hidden=5, seed=15)), path)
    env = {**os.environ, "PYTHONPATH": str(Path(ptopt.__file__).resolve().parents[1])}
    probe = f"from ptopt.model import load_checkpoint; print(load_checkpoint({str(path)!r}).kind)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "lstm"


def test_benchmark_checkpoint_round_trips(tmp_path):
    for model in (
        MLPModel(MLPConfig(n_assets=3, window=4, hidden=(6, 4), seed=14)),
        LSTMModel(LSTMConfig(n_assets=3, window=4, hidden=5, seed=15)),
    ):
        path = tmp_path / f"{model.kind}.ckpt"
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        assert clone.config == model.config
        for name, t in model.parameters().items():
            assert np.array_equal(clone.parameters()[name].data, t.data)


def test_committed_lstm_checkpoint_day_weights_match_composition():
    model = load_checkpoint(Path(__file__).parent / "data" / "lstm.ckpt")
    tau, n = model.config.window, model.config.n_assets
    blocks = np.random.default_rng(32).normal(0.0, 0.02, (50, 2 * tau, n))
    with ag.no_grad():
        oracle = lstm_forward_composed(np.ascontiguousarray(blocks)[:, tau:], model).data[:, -1]
    assert np.array_equal(model.day_weights(blocks), oracle)
