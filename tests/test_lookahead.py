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

The command line has two twins of its own, for every strategy, without a
search, with ``--budget`` and with ``--budget --search-once``. They start from
a gapped price CSV, so they cover ``load_csv``, the forward fill and
``yearly_splits`` too:

- the CSV cut after 31 December 2016 gives ``equity.csv`` rows equal to the
  whole file's through 2016;
- the CSV with every price from the first day of 2016 altered gives the same
  checkpoints, ``history.csv`` and trials (but for their wall time), and the
  same ``equity.csv`` rows through 2015.

Neither twin can see a weight that reads the very return it earns (a test
day's stack one row late): each equity row holds that return on both sides.
The walk-forward tests above catch it.
"""

import datetime as dt
import json
from functools import cache

import numpy as np
import pytest

import ptopt.cli as cli
import ptopt.training as tr
from ptopt.data import (
    PriceTable, ReturnTable, SynthConfig, clean_and_return, synth_generate, trading_days, write_csv, yearly_splits,
)
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


# ---------------------------------------------------------------------------
# the command line, from a price CSV

CUT_YEAR = 2016
# 670 trading days from 2014-09-01 to 2017-03-24, tested from 2015: two splits, 2015 and 2016
CSV_DATES = trading_days(dt.date(2014, 9, 1), 670)
CUT_START, CUT_END = (int(np.searchsorted([d.year for d in CSV_DATES], y)) for y in (CUT_YEAR, CUT_YEAR + 1))  # its rows
CLI_FLAGS = ["--window", "2", "--max-epochs", "1", "--patience", "1", "--first-test-year", "2015", "--seed", "3"]
CLI_WAYS = {"fit": [], "search": ["--budget", "2"], "search_once": ["--budget", "2", "--search-once"]}


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """``run(csv, strategy, way)``: the output directory of one cached ``ptopt run``.

    The CSV names ``full``, ``cut`` (rows after CUT_YEAR dropped) and ``bent``
    (every price from the first day of CUT_YEAR altered). A2 has a 20-day gap
    that ends with CUT_YEAR (A2 is next priced on the first day after it).
    """
    root = tmp_path_factory.mktemp("cli_lookahead")
    prices = synth_generate(SynthConfig(n_assets=3, n_days=len(CSV_DATES), seed=21, momentum=0.3)).prices.copy()
    rng = np.random.default_rng(21)
    prices[rng.random(prices.shape) < 0.05] = np.nan
    prices[:30, 2] = np.nan  # A3 lists on row 30, the aligned start
    prices[CUT_END - 20 : CUT_END, 1] = np.nan
    prices[[0, CUT_END], 1] = prices[30, 2] = 100.0
    bent = prices.copy()
    bent[CUT_START:] *= np.exp(rng.normal(0.0, 0.02, bent[CUT_START:].shape))
    tickers = ["A1", "A2", "A3"]
    write_csv(PriceTable(CSV_DATES, tickers, prices), root / "full.csv")
    write_csv(PriceTable(CSV_DATES[:CUT_END], tickers, prices[:CUT_END]), root / "cut.csv")
    write_csv(PriceTable(CSV_DATES, tickers, bent), root / "bent.csv")
    space = root / "space.json"
    space.write_text(json.dumps({name: {"axes": axes} for name, axes in SPACES.items()}), encoding="utf-8")
    done = set()

    def run(csv, strategy, way):
        out = root / f"{csv}-{strategy}-{way}"
        if out not in done:
            flags = CLI_WAYS[way] + (["--space", str(space)] if way != "fit" else [])
            code = cli.main(["run", "--strategy", strategy, "--data", str(root / f"{csv}.csv"),
                             "--out", str(out), *CLI_FLAGS, *flags])
            assert code == 0
            done.add(out)
        return out

    return run


def equity_through(out, year):
    _, *rows = (out / "equity.csv").read_text(encoding="utf-8").splitlines()
    return [row for row in rows if int(row[:4]) <= year]


@pytest.mark.parametrize("way", CLI_WAYS)
@pytest.mark.parametrize("strategy", tr.STRATEGIES)
def test_cli_equity_through_a_year_ignores_every_later_row(strategy, way, cli_runs):
    full, cut = cli_runs("full", strategy, way), cli_runs("cut", strategy, way)
    rows = equity_through(full, CUT_YEAR)
    assert rows[-1].startswith(CSV_DATES[CUT_END - 1].isoformat())
    assert (cut / "equity.csv").read_text(encoding="utf-8").splitlines()[1:] == rows


def without_seconds(out):
    return [row.rsplit(",", 1)[0] for row in (out / "trials.csv").read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("way", CLI_WAYS)
@pytest.mark.parametrize("strategy", tr.TRAINED_STRATEGIES)
def test_cli_models_of_a_year_ignore_its_rows(strategy, way, cli_runs):
    full, bent = cli_runs("full", strategy, way), cli_runs("bent", strategy, way)
    assert equity_through(full, CUT_YEAR - 1) == equity_through(bent, CUT_YEAR - 1)
    assert equity_through(full, CUT_YEAR) != equity_through(bent, CUT_YEAR)  # the altered prices show
    for year in (CUT_YEAR - 1, CUT_YEAR):
        name = f"checkpoint_{year}.ckpt"
        assert (full / name).read_bytes() == (bent / name).read_bytes()
    assert (full / "history.csv").read_bytes() == (bent / "history.csv").read_bytes()
    trials = without_seconds(full)
    assert trials == without_seconds(bent) and len(trials) == 1 + {"fit": 0, "search": 4, "search_once": 2}[way]
