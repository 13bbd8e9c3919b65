"""The benchmark's workloads: seeded input markets and the ptopt command each runs.

Every workload drives ``ptopt.cli.main`` with a price CSV generated from the
benchmark seed; the program never sees the seed itself, so ``--seed`` keeps
its CLI default and the hyperparameter picks of a search are the same on
every market. ``--patience`` equals ``--max-epochs`` so early stopping can
never shorten a fit and two commits always do the same amount of training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ptopt.data import PriceTable, SynthConfig, synth_generate, write_csv

MOMENTUM = 0.6  # planted signal of the learning smoke-test market
MAX_EPOCHS = 1  # also the patience, so early stopping never shortens a fit


@dataclass(frozen=True)
class Workload:
    name: str
    assets: int
    days: int
    first_test_year: int
    strategies: tuple[str, ...]
    flags: tuple[str, ...] = ()
    missing_share: float = 0.0
    listing_spread: int = 0  # tickers start trading at a random row in [0, listing_spread)

    def prices(self, seed: int) -> PriceTable:
        table = synth_generate(SynthConfig(n_assets=self.assets, n_days=self.days, seed=seed, momentum=MOMENTUM))
        if not self.missing_share and not self.listing_spread:
            return table
        rng = np.random.default_rng([seed, self.assets])
        prices = table.prices.copy()
        missing = rng.random(prices.shape) < self.missing_share
        starts = rng.integers(0, max(self.listing_spread, 1), self.assets)
        for j, start in enumerate(starts):
            prices[:start, j] = np.nan
            missing[start, j] = False  # a listing starts with an observed price
        prices[missing] = np.nan
        return PriceTable(table.dates, table.tickers, prices)

    def write_input(self, seed: int, path) -> None:
        write_csv(self.prices(seed), path)

    def argv(self, data, out) -> list[str]:
        if len(self.strategies) == 1:
            head = ["run", "--strategy", self.strategies[0]]
        else:
            head = ["compare", "--strategies", *self.strategies]
        return [
            *head, "--data", str(data), "--out", str(out),
            "--first-test-year", str(self.first_test_year),
            "--max-epochs", str(MAX_EPOCHS), "--patience", str(MAX_EPOCHS), *self.flags,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Tape-bound: autograd, model, objective and training.fit do nearly all
        # the work; one test year (2020) with 1,391 train windows.
        Workload("pt_walkforward", assets=4, days=2000, first_test_year=2020, strategies=("pt",)),
        # The same tape used by LSTM and MLP recurrences, many short fits and a
        # 2-worker grid search that pickles the window lists into every trial.
        Workload(
            "baseline_search", assets=6, days=800, first_test_year=2016,
            strategies=("lstm", "mlp", "mv", "equal_weight"),
            flags=("--budget", "2", "--jobs", "2", "--search-once"),
        ),
        # No autograd at all: CSV parsing, forward fill, per-day 50x50 solves and
        # the backtest loops over 17 test years.
        Workload(
            "wide_ingest", assets=50, days=5000, first_test_year=2016,
            strategies=("mv", "equal_weight"), missing_share=0.01, listing_spread=200,
        ),
    )
}
