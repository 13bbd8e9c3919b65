"""No lookahead through the trained walk-forward path.

Each trained strategy runs the walk-forward three ways: a plain fit per
split, a search on every split, and one search reused by the later split.
The returns are then perturbed from row ``c`` onward, for ``c`` at the second
split's ``val_start``, at its ``train_end`` and inside its test year. Every
weight row decided before ``c`` must not move, and every split trained on
rows before ``c`` (``train_end <= c``) must ship the same model: the same
parameter vector, training history, trials (but for their wall time) and
checkpoint bytes. That covers the validation slice, early stopping, the
search and the blocked forwards of test days. The mean-variance and equal
weight rules run the plain way under the same cuts, which covers the weight
matrix that every split writes its rows into.
"""

from functools import cache

import numpy as np
import pytest

import ptopt.training as tr
from ptopt.data import ReturnTable, SynthConfig, clean_and_return, synth_generate, yearly_splits
from ptopt.model import save_checkpoint

TAU = 2
CFG = tr.TrainConfig(batch_size=128, max_epochs=2, patience=1, seed=0)  # two epochs, so early stopping can choose
SPACES = {"pt": {"d_model": [4], "dropout": [0.0, 0.1]}, "lstm": {"hidden": [2, 3]}, "mlp": {"hidden": [[3], [4]]}}
WAYS = ("fit", "search", "search_once")
CUTS = ("val_start", "train_end", "test_day")

# 800 trading days from 2014-01-02, tested from 2015: two splits, 2015 and 2016
TABLE = clean_and_return(synth_generate(SynthConfig(n_assets=3, n_days=800, seed=21, momentum=0.3)))
SCHEDULE = yearly_splits(TABLE, 2015)


def run(table, strategy, way):
    space = None if way == "fit" else tr.HyperparamSpace(axes=SPACES[strategy], budget=2)
    return tr.walk_forward(
        table, SCHEDULE, strategy, tau=TAU, space=space, base_cfg=CFG, seed=3,
        search_each_split=way != "search_once", base_combo={"d_model": 4} if strategy == "pt" else None,
    )


@cache
def unperturbed(strategy, way):
    return run(TABLE, strategy, way)


def cut_row(name: str) -> int:
    split = SCHEDULE.splits[1]
    return {"val_start": split.val_start, "train_end": split.train_end, "test_day": (split.train_end + split.test_end) // 2}[name]


def perturbed_from(c: int) -> ReturnTable:
    returns = TABLE.returns.copy()
    returns[c:] = np.random.default_rng(c).normal(0.0, 0.02, returns[c:].shape)
    return ReturnTable(TABLE.dates, TABLE.tickers, returns)


def trial_rows(outcome):
    return [(t.index, t.params, t.train_loss, t.val_loss) for t in outcome.trials]


def test_the_market_has_two_splits_and_each_cut_falls_where_it_should():
    first, second = SCHEDULE.splits
    assert (first.test_year, second.test_year) == (2015, 2016)
    assert first.train_end < cut_row("val_start") < cut_row("train_end") < cut_row("test_day") < second.test_end


def assert_rows_before_cut_hold(a, b, c: int, moves: bool = True) -> None:
    """Weight rows decided before row ``c`` are equal; with ``moves``, a later one differs."""
    assert a.stream.dates == b.stream.dates
    row_of = {d: r for r, d in enumerate(TABLE.dates)}
    decided = np.array([row_of[d] for d in a.stream.dates])
    before = decided < c
    assert before.any() and (~before).any()
    assert np.array_equal(a.stream.weights[before], b.stream.weights[before])
    if moves:
        assert not np.array_equal(a.stream.weights[~before], b.stream.weights[~before])  # the perturbation shows


@pytest.mark.parametrize("cut", CUTS)
@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("strategy", tr.TRAINED_STRATEGIES)
def test_no_weight_or_model_reads_a_return_from_its_future(strategy, way, cut, tmp_path):
    c = cut_row(cut)
    a = unperturbed(strategy, way)
    b = run(perturbed_from(c), strategy, way)
    assert_rows_before_cut_hold(a, b, c)

    for i, (split, x, y) in enumerate(zip(SCHEDULE.splits, a.outcomes, b.outcomes)):
        if split.train_end > c:
            continue
        assert x.params == y.params
        assert np.array_equal(x.model.vector, y.model.vector)
        assert x.history == y.history
        assert trial_rows(x) == trial_rows(y)
        save_checkpoint(x.model, tmp_path / f"a{i}.ckpt")
        save_checkpoint(y.model, tmp_path / f"b{i}.ckpt")
        assert (tmp_path / f"a{i}.ckpt").read_bytes() == (tmp_path / f"b{i}.ckpt").read_bytes()


@pytest.mark.parametrize("cut", CUTS)
@pytest.mark.parametrize("strategy", ("mv", "equal_weight"))
def test_no_rule_weight_reads_a_return_from_its_future(strategy, cut):
    c = cut_row(cut)
    a = unperturbed(strategy, "fit")
    b = run(perturbed_from(c), strategy, "fit")
    assert_rows_before_cut_hold(a, b, c, moves=strategy != "equal_weight")  # equal weight rows never move
    assert [(x.test_year, x.params) for x in a.outcomes] == [(y.test_year, y.params) for y in b.outcomes]
