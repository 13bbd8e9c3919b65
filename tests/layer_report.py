"""Layer time and memory report: ingest, the PT fit and its whole-split passes, one train step
of each window model, the MV walk and the backtest.

It runs each row on one of two seeded (seed 0) markets:

- a generated ``--days`` x ``--assets`` price CSV with a ``--gaps`` share of
  empty cells: ``load_csv``, ``clean_and_return``, the mean-variance
  walk-forward from the CSV's third calendar year (``mv_walk``),
  ``run_backtest`` of its weights and the trailing-year ``rolling_sharpe``
  of that backtest's curve;
- a ``--model-days`` x 4-asset momentum market, whose last complete calendar
  year is the test year (at the default 2,000 days, the ``pt_walkforward``
  benchmark's split: 1,391 train, 149 validation and 262 test windows): a
  one-epoch default PT fit (``pt_fit``), ``evaluate_loss`` on the validation
  windows, ``day_weights`` on the test year's windows and, for the default
  config of each window model, one ``training.train_step`` (``pt_step``,
  ``lstm_step``, ``mlp_step``): the gather of a 32-window minibatch of the
  training samples, forward, loss, backward and Adam step, as ``fit`` runs it.

For each row it prints the median seconds of ``--repeats`` untraced calls
(15), with quartiles, and the ``tracemalloc`` peak above the memory held before the
call; the ingest, MV and backtest rows also per byte of the price matrix. BLAS runs one thread.
With ``--json`` the figures are stored in that file under ``--label``, beside
the sides of earlier runs of the same workload (the file keeps one entry per
workload), so that one file holds one harness run on two source trees:

    PYTHONPATH=/path/to/parent/src python3 tests/layer_report.py --label parent --json layers.json
    PYTHONPATH=src python3 tests/layer_report.py --label change --json layers.json

It lives beside ``helpers.py``, whose CSV generator and peak tracer it runs.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from collections.abc import Callable
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):  # before numpy loads
    os.environ[_var] = "1"

import numpy as np

import ptopt.training as tr
from ptopt.data import SynthConfig, clean_and_return, load_csv, synth_generate, yearly_splits
from ptopt.metrics import rolling_sharpe, run_backtest
from ptopt.objective import CostModel

from helpers import traced_peak, write_gapped_csv

TAU = 8
CSV_ROWS = ("load_csv", "clean_and_return", "mv_walk", "run_backtest")  # peaks also given per matrix byte


def _seconds(fn, repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(times), "samples": repeats}


def csv_rows(path) -> tuple[dict, int]:
    """The rows run on the CSV, and its price matrix's bytes."""
    prices = load_csv(path)
    table = clean_and_return(prices)
    schedule = yearly_splits(table, table.dates[0].year + 2)
    stream = tr.walk_forward(table, schedule, "mv").stream
    curve = run_backtest(stream, table, CostModel())
    return {
        "load_csv": lambda: load_csv(path),
        "clean_and_return": lambda: clean_and_return(prices),
        "mv_walk": lambda: tr.walk_forward(table, schedule, "mv"),
        "run_backtest": lambda: run_backtest(stream, table, CostModel()),
        "rolling_sharpe": lambda: rolling_sharpe(curve),
    }, prices.prices.nbytes


def train_step(strategy: str, train) -> Callable[[], float]:
    """One ``training.train_step`` of the default ``strategy`` model on a fixed minibatch gathered from ``train``."""
    model = tr.build_model(strategy, 4, TAU, {}, seed=0)
    params = list(model.parameters().values())
    optimizer = tr.Adam(model.vector, tr.TrainConfig.learning_rate)
    index = np.random.default_rng(0).permutation(len(train))[: tr.TrainConfig.batch_size]
    drop_rng = np.random.default_rng(0)
    return lambda: tr.train_step(model, params, optimizer, train[index], CostModel(), drop_rng, 0, 0)


def model_rows(days: int) -> dict:
    """The rows run on the momentum market: one PT fit, its two whole-split passes and a train step per model."""
    table = clean_and_return(synth_generate(SynthConfig(n_assets=4, n_days=days, seed=0, momentum=0.6)))
    split = yearly_splits(table, table.dates[0].year + 1).splits[-1]
    train, valid = tr.split_windows(table, split, TAU)
    task = (0, {}, "pt", split, TAU, tr.TrainConfig(max_epochs=1, patience=1), CostModel(), 0)  # a walk's unsearched fit
    model = tr.build_model("pt", 4, TAU, {}, seed=0)
    model.vector[:] = tr._run_trial(task, table)[1].vector
    test = tr._ending_at(table.returns, 2 * TAU, split.train_end - 1, split.test_end - split.train_end)  # walk_forward's view
    return {
        "pt_fit": lambda: tr._run_trial(task, table),
        "evaluate_loss": lambda: tr.evaluate_loss(model, valid, CostModel()),
        "day_weights": lambda: model.day_weights(test),
        **{f"{kind}_step": train_step(kind, train) for kind in tr.TRAINED_STRATEGIES},
    }


def measure(path, model_days: int, repeats: int) -> dict:
    rows, matrix = csv_rows(path)
    rows.update(model_rows(model_days))
    side = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "matrix_bytes": matrix,
        "rows": {},
    }
    for name, fn in rows.items():
        _, peak = traced_peak(fn)
        row = {"s": _seconds(fn, repeats), "peak_bytes": peak}
        if name in CSV_ROWS:
            row["peak_per_matrix_byte"] = peak / matrix
        side["rows"][name] = row
    return side


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=5000)
    parser.add_argument("--assets", type=int, default=50)
    parser.add_argument("--gaps", type=float, default=0.01, help="share of empty cells")
    parser.add_argument("--model-days", type=int, default=2000, help="days of the 4-asset market the PT rows run on")
    parser.add_argument("--repeats", type=int, default=15, help="untraced calls per row, at least 2")
    parser.add_argument("--label", default="current", help="the name of this side in the --json file")
    parser.add_argument("--json", help="file to store the figures in, beside those of other labels")
    args = parser.parse_args()
    workload = {"days": args.days, "assets": args.assets, "gaps": args.gaps, "model_days": args.model_days}

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        write_gapped_csv(path, args.days, args.assets, args.gaps)
        side = measure(path, args.model_days, args.repeats)

    print(f"{args.days} days x {args.assets} assets, {args.gaps:.1%} gaps, matrix {side['matrix_bytes']:,} bytes; "
          f"PT rows on {args.model_days} days x 4 assets")
    for name, row in side["rows"].items():
        t = row["s"]
        per_byte = f" = {row['peak_per_matrix_byte']:.2f}x the matrix" if "peak_per_matrix_byte" in row else ""
        print(f"{name.ljust(16)}  median {t['median']:.4f} s (q1 {t['q1']:.4f}, q3 {t['q3']:.4f}, n={t['samples']})  "
              f"peak {row['peak_bytes']:,} bytes{per_byte}")

    if args.json:
        out = Path(args.json)
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"workloads": []}
        entry = next((e for e in doc["workloads"] if e["workload"] == workload), None)
        if entry is None:
            entry = {"workload": workload, "sides": {}}
            doc["workloads"].append(entry)
        entry["sides"][args.label] = side
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote side {args.label!r} of {workload} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
