"""Tests for cost-adjusted portfolio returns and the Sharpe loss.

``sharpe_loss`` is one fused tape op; ``portfolio_returns`` and ``sharpe``
are its op-by-op oracle in ``tests/helpers.py``, checked here against the
plain numpy oracles.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ptopt.autograd as ag
from ptopt.autograd import Tape, Tensor
from ptopt.errors import NumericError
from ptopt.objective import EPS, CostModel, ReturnsWindow, sharpe_loss

from helpers import (
    assert_fused_matches_composed,
    finite_diff_grad,
    max_rel_err,
    portfolio_returns,
    portfolio_returns_oracle,
    sharpe,
    sharpe_loss_composed,
    sharpe_oracle,
)

RNG = np.random.default_rng(7)


def test_single_day_without_turnover():
    w = Tensor([[0.5, -0.5]])
    window = ReturnsWindow(realized=[[0.02, 0.01]], prev_weights=[0.5, -0.5])
    out = portfolio_returns(w, window, CostModel()).data
    assert abs(out[0] - 0.005) < 1e-15


def test_single_day_with_turnover_hand_case():
    """0.005 gross minus 2 bps on 0.4 of turnover nets 0.00492."""
    w = Tensor([[0.5, -0.5]])
    window = ReturnsWindow(realized=[[0.02, 0.01]], prev_weights=[0.3, -0.7])
    out = portfolio_returns(w, window, CostModel(cost_rate=0.0002)).data
    assert abs(out[0] - 0.00492) < 1e-12
    oracle = portfolio_returns_oracle(w.data, window.realized, 0.0002, prev0=[0.3, -0.7])
    np.testing.assert_allclose(out, oracle, atol=1e-15)


def test_zero_cost_is_plain_dot_product():
    w = RNG.standard_normal((6, 4))
    r = RNG.standard_normal((6, 4)) * 0.02
    out = portfolio_returns(Tensor(w), ReturnsWindow(realized=r), CostModel(cost_rate=0.0)).data
    np.testing.assert_allclose(out, (w * r).sum(axis=1), atol=1e-15)


def test_episode_start_charges_against_zero_book():
    w = np.array([[0.25, -0.75]])
    out = portfolio_returns(Tensor(w), ReturnsWindow(realized=np.zeros((1, 2))), CostModel(0.01)).data
    # turnover is the full gross exposure of the first row
    assert abs(out[0] - (-0.01 * 1.0)) < 1e-15


def test_multi_day_matches_scalar_oracle():
    w = RNG.standard_normal((8, 3))
    r = RNG.standard_normal((8, 3)) * 0.02
    prev0 = RNG.standard_normal(3)
    out = portfolio_returns(Tensor(w), ReturnsWindow(realized=r, prev_weights=prev0), CostModel(0.0002)).data
    np.testing.assert_allclose(out, portfolio_returns_oracle(w, r, 0.0002, prev0), atol=1e-15)


def test_portfolio_returns_shape_mismatch():
    with pytest.raises(ValueError, match=r"returns shape \(3, 3\) does not match weights \(3, 2\)"):
        portfolio_returns(Tensor(np.zeros((3, 2))), ReturnsWindow(realized=np.zeros((3, 3))), CostModel())
    with pytest.raises(ValueError, match=r"prev_weights shape \(3,\) does not match 2 assets"):
        ReturnsWindow(realized=np.zeros((3, 2)), prev_weights=np.zeros(3))
    with pytest.raises(ValueError, match=r"realized must be \(days, assets\) or \(windows, days, assets\), got shape \(3,\)"):
        ReturnsWindow(realized=np.zeros(3))


def test_sharpe_hand_case():
    """[0.01, 0.03] has mean 0.02 and sd 0.01; eps shifts 2.0 by about 1e-8."""
    out = sharpe(Tensor([0.01, 0.03])).item()
    assert abs(out - sharpe_oracle(np.array([0.01, 0.03]))) < 1e-12
    assert abs(out - 2.0) < 1e-7


def test_sharpe_zero_variance_is_finite():
    c = 0.02
    out = sharpe(Tensor([c, c, c])).item()
    assert np.isfinite(out)
    assert out == pytest.approx(c / np.sqrt(EPS), rel=1e-9)


def test_sharpe_negation_antisymmetry():
    r = RNG.standard_normal(20) * 0.01
    assert abs(sharpe(Tensor(r)).item() + sharpe(Tensor(-r)).item()) < 1e-15


def test_sharpe_requires_two_returns():
    with pytest.raises(NumericError, match=r"sharpe needs at least 2 returns per window, got shape \(1,\)"):
        sharpe(Tensor([0.01]))


@pytest.mark.parametrize("cost_rate", [0.0, 0.001])
@pytest.mark.parametrize("with_prev", [False, True], ids=["zero_book", "prev_book"])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "rank3"])
def test_fused_loss_matches_composition(lead, with_prev, cost_rate):
    r = RNG.standard_normal((*lead, 6, 4)) * 0.02
    window = ReturnsWindow(realized=r, prev_weights=RNG.standard_normal(4) * 0.3 if with_prev else None)
    costs = CostModel(cost_rate=cost_rate)
    assert_fused_matches_composed(
        lambda t: sharpe_loss(t["w"], window, costs),
        lambda t: sharpe_loss_composed(t["w"], window, costs),
        {"w": RNG.standard_normal((*lead, 6, 4)) * 0.5},
    )


def test_loss_contract_and_shape_errors():
    with pytest.raises(NumericError, match="sharpe needs at least 2 returns per window, got 1"):
        sharpe_loss(Tensor(np.zeros((1, 2))), ReturnsWindow(realized=np.zeros((1, 2))), CostModel())
    with pytest.raises(ValueError, match=r"returns shape \(3, 3\) does not match weights \(3, 2\)"):
        sharpe_loss(Tensor(np.zeros((3, 2))), ReturnsWindow(realized=np.zeros((3, 3))), CostModel())
    with pytest.raises(ValueError, match=r"weights must be \(days, assets\) or \(windows, days, assets\), got shape \(3,\)"):
        sharpe_loss(Tensor(np.zeros(3)), ReturnsWindow(realized=np.zeros((3, 1))), CostModel())


def test_loss_prefers_positive_returns():
    w = Tensor(np.full((5, 2), 0.5))
    up = ReturnsWindow(realized=np.full((5, 2), 0.01))
    down = ReturnsWindow(realized=np.full((5, 2), -0.01))
    zero_cost = CostModel(cost_rate=0.0)
    assert sharpe_loss(w, up, zero_cost).item() < sharpe_loss(w, down, zero_cost).item()


def test_loss_gradient_matches_finite_differences():
    w0 = RNG.standard_normal((6, 3)) * 0.5
    r = RNG.standard_normal((6, 3)) * 0.02
    prev0 = RNG.standard_normal(3) * 0.3
    window = ReturnsWindow(realized=r, prev_weights=prev0)
    costs = CostModel(cost_rate=0.0002)

    with Tape() as tape:
        w = Tensor(w0.copy(), requires_grad=True)
        ag.backward(sharpe_loss(w, window, costs), tape)

    def f(wv):
        with ag.no_grad():
            return sharpe_loss(Tensor(wv), window, costs).item()

    numeric = finite_diff_grad(f, w0.copy())
    assert max_rel_err(w.grad, numeric) < 1e-4


def test_costless_loss_ignores_return_scale():
    w = Tensor(RNG.standard_normal((6, 3)))
    r = RNG.standard_normal((6, 3))
    zero_cost = CostModel(cost_rate=0.0)
    base = sharpe_loss(w, ReturnsWindow(realized=r), zero_cost).item()
    scaled = sharpe_loss(w, ReturnsWindow(realized=3.7 * r), zero_cost).item()
    assert abs(base - scaled) < 1e-9


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60)
@given(st.lists(st.floats(-2, 2), min_size=3, max_size=20), st.floats(0.5, 2.0))
def test_sharpe_scale_invariance(rs, lam):
    r = np.array(rs)
    assume(np.var(r) > 0.1)
    a = sharpe(Tensor(r)).item()
    b = sharpe(Tensor(lam * r)).item()
    assert abs(a - b) < 1e-9


@settings(max_examples=60)
@given(
    st.lists(st.floats(-0.05, 0.05), min_size=2, max_size=10),
    st.floats(0.0, 0.001),
    st.floats(0.0, 0.001),
)
def test_uniform_turnover_cost_monotonicity(rs, c_low, extra):
    """With equal turnover on every day the cost is a pure mean shift, so
    raising the rate can only raise the loss. Alternating the book each day
    against a mirrored starting book keeps the turnover at 2 on every single
    day, first day included. (Unequal turnover does not admit this guarantee:
    trimming only the best day of a window shrinks dispersion faster than
    the mean and can raise the Sharpe.)
    """
    n = len(rs)
    w = np.array([[0.75, -0.25] if t % 2 == 0 else [-0.25, 0.75] for t in range(n)])
    r = np.column_stack([np.array(rs), np.zeros(n)])
    window = ReturnsWindow(realized=r, prev_weights=np.array([-0.25, 0.75]))
    lo = sharpe_loss(Tensor(w), window, CostModel(c_low)).item()
    hi = sharpe_loss(Tensor(w), window, CostModel(c_low + extra)).item()
    assert hi >= lo - 1e-12


@settings(max_examples=60)
@given(st.integers(2, 8), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_loss_agrees_with_scalar_oracle(t, n, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((t, n))
    r = rng.standard_normal((t, n)) * 0.02
    prev0 = rng.standard_normal(n) * 0.5
    loss = sharpe_loss(Tensor(w), ReturnsWindow(realized=r, prev_weights=prev0), CostModel(0.0002)).item()
    expected = -sharpe_oracle(portfolio_returns_oracle(w, r, 0.0002, prev0))
    assert abs(loss - expected) < 1e-12
