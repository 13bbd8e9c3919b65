"""Command-line driver: data synthesis, single-strategy runs, comparisons.

Three subcommands share one pipeline. ``synth`` writes a price CSV,
``run`` walks one strategy forward and drops its artifacts into a fresh
output directory, ``compare`` does the same for several strategies against
identical splits and cost model and renders a side-by-side table.

Exit codes, all chosen by ``main``, map the ``ptopt.errors`` hierarchy: 0
success, 1 usage (argparse's, or any other ValueError), 2 DataError or
OSError, 3 NumericError. Every ``run``/``compare`` writes a manifest.json
recording the effective config (every flag that changes results), seed,
package, Python and numpy versions, and a checksum of the input file, so any
result can be traced back to what produced it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ptopt import __version__
from ptopt.data import SynthConfig, clean_and_return, load_csv, synth_generate, write_csv, yearly_splits
from ptopt.errors import DataError, NumericError, check_bounds
from ptopt.metrics import (
    MetricsReport,
    compute_metrics,
    run_backtest,
    write_equity_csv,
    write_rolling_sharpe_csv,
    write_rows,
    write_series_csv,
)
from ptopt.model import PTConfig, save_checkpoint
from ptopt.objective import CostModel
from ptopt.training import (
    STRATEGIES,
    TRAINED_STRATEGIES,
    HyperparamSpace,
    TrainConfig,
    TrainedWalk,
    TrialPool,
    plan_walk,
    walk_forward,
    walk_outcomes,
)

METRIC_COLUMNS = tuple(f.name for f in fields(MetricsReport))
LOWER_IS_BETTER = {"vol", "mdd"}


@dataclass(frozen=True)
class RunConfig:
    """The result-affecting flags of run/compare; its defaults are the flags' defaults."""

    data: str
    out_dir: str
    seed: int = 0
    cost_rate: float = CostModel.cost_rate
    first_test_year: int = 2016
    t2v_k: int = PTConfig.t2v_k
    window: int = 8
    space_path: str | None = None
    budget: int = 0
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    search_once: bool = False

    def __post_init__(self):
        check_bounds(self, seed=0, budget=0)


@functools.cache  # the code a process runs is the tree it imported
def version_string() -> str:
    """git-describe of the source checkout ptopt runs from, else the package version."""
    root = Path(__file__).resolve().parents[2]
    if (root / ".git").exists():  # git would otherwise describe a repository that merely encloses the package
        try:
            out = subprocess.run(
                ["git", "-C", str(root), "describe", "--tags", "--always", "--dirty"],
                capture_output=True, text=True, timeout=5,
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):  # no git, or it hung past the timeout
            pass
    return f"v{__version__}"


def _earlier_output(out: Path) -> bool:
    """Whether ``out`` holds the ``manifest.json`` of an earlier run or compare: the one directory ``--force`` replaces."""
    try:
        return json.loads((out / "manifest.json").read_text(encoding="utf-8")).get("command") in ("run", "compare")
    except (OSError, ValueError, AttributeError):
        return False


def check_out_dir(path: str, force: bool, data: str) -> Path:
    """Refuse an output path that cannot take this run, before any work.

    ``_publishing`` fills an empty directory in place, and else writes a hidden sibling whole and renames it into
    place, so it needs write access there. ``--force`` replaces only an earlier run's or compare's directory, and
    never one that holds the input or the working directory. Returns the resolved path: the one checked here and
    written by ``_publishing``.
    """
    out, real = Path(path), Path(path).resolve()
    existing = next(p for p in (real, *real.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"output path {out}: {existing} exists and is not a directory")
    if existing == real and any(real.iterdir()):
        if not force:
            raise ValueError(f"output directory {out} is not empty; pass --force to overwrite")
        if not _earlier_output(real):
            raise ValueError(f"output directory {out} holds no manifest.json of a run or compare; --force replaces only those")
        try:
            holds_cwd = Path.cwd().is_relative_to(real)
        except FileNotFoundError:  # a working directory that no longer exists holds nothing
            holds_cwd = False
        if os.path.ismount(real) or real in Path(data).resolve().parents or holds_cwd:
            raise ValueError(f"--force cannot replace {real}: it is a mount point or holds the input or the working directory")
        existing = real.parent
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ValueError(f"output path {out}: cannot write in {existing}")
    return real


def write_manifest(out: Path, command: str, cfg: dict, version: str, input_sha256: str) -> None:
    """``version`` is read before the input is loaded and ``input_sha256`` is of
    the bytes ``load_csv`` parsed, so the manifest describes the input the run read.
    The BLAS build (null before numpy 1.26) and its thread variables go in too: results can differ across them."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas")
    doc = {
        "command": command,
        "config": cfg,
        "seed": cfg["seed"],
        "version": version,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None if blas is None else {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "input_sha256": input_sha256,
    }
    (out / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _plan_walks(cfg: RunConfig, strategies, keys) -> dict[str, TrainedWalk]:
    """The checked ``plan_walk`` of each trained strategy among ``strategies``, given its ``--space`` entry and
    ``--budget``. A space file keyed by strategy may name only trained strategies among ``keys``. ``--t2v-k``
    sets pt's base combo."""
    given = {}
    if cfg.space_path is not None:
        try:
            given = HyperparamSpace.from_json(Path(cfg.space_path).read_text(encoding="utf-8"))
        except ValueError as err:  # bad bytes, bad JSON or a malformed space
            raise ValueError(f"--space {cfg.space_path}: {err}") from None
        if isinstance(given, HyperparamSpace):
            given = dict.fromkeys(strategies, given)
        else:
            stray = [name for name in given if name not in keys or name not in TRAINED_STRATEGIES]
            if stray:
                raise ValueError(f"--space has an entry for {stray[0]!r}, not a trained strategy of this command")
    base_cfg, costs = TrainConfig(max_epochs=cfg.max_epochs, patience=cfg.patience), CostModel(cfg.cost_rate)
    return {
        s: plan_walk(s, cfg.window, given.get(s), cfg.budget, {"t2v_k": cfg.t2v_k} if s == "pt" else None, base_cfg, costs, cfg.seed)
        for s in strategies if s in TRAINED_STRATEGIES
    }


@contextlib.contextmanager
def _publishing(out: Path):
    """Yield the directory to write every file into, ``manifest.json`` last. An empty ``out`` (a mount point,
    say) is filled in place and emptied again on failure. Else a fresh hidden sibling is filled and renamed to
    ``out``, after an earlier run or compare there is moved aside; that one is deleted only after the rename and
    put back on any failure. So ``out`` never holds two runs' files, nor a part of one beside a manifest."""
    if out.is_dir() and not any(out.iterdir()):
        try:
            yield out
        except BaseException:
            for p in out.iterdir():
                p.unlink()
            raise
        return
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.{os.getpid()}")
    aside = tmp.with_name(tmp.name + ".old")
    tmp.mkdir()
    try:
        yield tmp
        if _earlier_output(out):  # any other directory at out makes the rename below fail, and stays as it is
            out.rename(aside)
        tmp.rename(out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        if aside.exists():
            aside.rename(out)
        raise
    shutil.rmtree(aside, ignore_errors=True)  # there is none if out was not there


def _write_run_artifacts(out: Path, outcomes: list, curve, report: MetricsReport) -> None:
    (out / "metrics.json").write_text(report.to_json() + "\n", encoding="utf-8")
    write_equity_csv(curve, out / "equity.csv")
    write_rolling_sharpe_csv(curve, out / "rolling_sharpe.csv")
    write_rows(out / "trials.csv", ["test_year", "trial", "params", "train_loss", "val_loss", "seconds"], (
        [o.test_year, t.index, json.dumps(t.params, sort_keys=True), repr(t.train_loss), repr(t.val_loss), repr(t.seconds)]
        for o in outcomes for t in o.trials
    ))
    write_rows(out / "history.csv", ["test_year", "epoch", "train_loss", "val_loss"], (
        [o.test_year, e.epoch, repr(e.train_loss), repr(e.val_loss)] for o in outcomes for e in o.history
    ))
    for outcome in outcomes:
        save_checkpoint(outcome.model, out / f"checkpoint_{outcome.test_year}.ckpt")


def render_table(rows: list[tuple[str, MetricsReport]]) -> str:
    """Aligned text table, one strategy per row, best value per column starred."""
    values = {name: asdict(report) for name, report in rows}
    best: dict[str, float] = {}
    for col in METRIC_COLUMNS:
        series = [values[name][col] for name, _ in rows]
        best[col] = min(series) if col in LOWER_IS_BETTER else max(series)
    cells = [["strategy", *METRIC_COLUMNS]]
    for name, _ in rows:
        row = [name]
        for col in METRIC_COLUMNS:
            v = values[name][col]
            row.append(f"{v:.4f}" + ("*" if v == best[col] else ""))
        cells.append(row)
    widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
    lines = []
    for r in cells:
        lines.append("  ".join(c.ljust(widths[i]) if i == 0 else c.rjust(widths[i]) for i, c in enumerate(r)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg = SynthConfig(n_assets=args.assets, n_days=args.days, seed=args.seed, momentum=args.momentum)
    write_csv(synth_generate(cfg), args.out)
    print(f"wrote {args.days} rows x {args.assets} assets to {args.out}")
    return 0


def _walk_each(args, strategies: list[str], keys, keep) -> tuple[RunConfig, Path, str, str, list]:
    """The pipeline of ``run`` and ``compare``: check the flags and the output path, load and split
    the data once, check every strategy against it, send every trained strategy's fits to one trial
    pool as one batch, then walk each strategy forward and back-test it. ``keep(outcomes, curve, report)``
    takes each strategy's turn before the next strategy's outcomes are picked; only what it returns outlives it.
    Returns the config, output path, version, input digest and what was kept.
    """
    cfg = _run_config(args)
    out = check_out_dir(cfg.out_dir, args.force, cfg.data)
    walks = _plan_walks(cfg, strategies, keys)
    costs, kept = CostModel(cfg.cost_rate), []
    version = version_string()
    prices = load_csv(cfg.data)
    digest, table = prices.sha256, clean_and_return(prices)
    del prices  # the raw matrix is not held through the walks
    schedule = yearly_splits(table, cfg.first_test_year)
    with TrialPool(table, args.jobs) as pool:
        for strategy, outcomes in zip(strategies, walk_outcomes(schedule, strategies, walks, pool, cfg.search_once)):
            curve = run_backtest(walk_forward(table, schedule, strategy, outcomes), table, costs)
            kept.append(keep(outcomes, curve, compute_metrics(curve)))
            del outcomes  # its models go before the next strategy's are picked, unless kept
    return cfg, out, version, digest, kept


def cmd_run(args) -> int:
    cfg, out, *provenance, [turn] = _walk_each(args, [args.strategy], TRAINED_STRATEGIES, lambda *turn: turn)
    outcomes, curve, report = turn
    with _publishing(out) as tmp:
        _write_run_artifacts(tmp, outcomes, curve, report)
        write_manifest(tmp, "run", {**asdict(cfg), "strategy": args.strategy}, *provenance)
    print(f"{args.strategy}: sharpe {report.sharpe:.4f} over {len(curve.dates)} test days -> {Path(cfg.out_dir)}")
    return 0


def cmd_compare(args) -> int:
    """Walk every listed strategy forward on the same splits and write their table and curves.

    Only each strategy's equity curve and report outlive its turn, so the
    command holds one strategy's weight stream and models at a time.
    """
    if len(args.strategies) < 2:
        raise ValueError("compare needs at least 2 strategies")
    if len(set(args.strategies)) != len(args.strategies):
        raise ValueError("duplicate strategy in compare list")
    cfg, out, *provenance, turns = _walk_each(args, args.strategies, args.strategies, lambda _, curve, report: (curve, report))
    curves, reports = zip(*turns)
    with _publishing(out) as tmp:
        columns = {c: [getattr(report, c) for report in reports] for c in METRIC_COLUMNS}
        write_series_csv(args.strategies, columns, tmp / "comparison.csv", key="strategy")
        table_text = render_table(list(zip(args.strategies, reports)))
        (tmp / "comparison.txt").write_text(table_text, encoding="utf-8")
        cumulative = {s: curve.cumulative for s, curve in zip(args.strategies, curves)}
        write_series_csv(curves[0].dates, cumulative, tmp / "equity_curves.csv")
        write_manifest(tmp, "compare", {**asdict(cfg), "strategies": args.strategies}, *provenance)
    print(table_text, end="")
    return 0


def _run_config(args) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


# ---------------------------------------------------------------------------
# argument parsing


def _add_shared_run_flags(p) -> None:
    """The run/compare flags; each one that sets a RunConfig field shares its name and default."""
    p.add_argument("--data", required=True, help="input price CSV")
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--cost-rate", type=float, help="cost per unit turnover")
    p.add_argument("--first-test-year", type=int)
    p.add_argument("--t2v-k", type=int, help="periodic embedding components")
    p.add_argument("--window", type=int, help="decision window length")
    p.add_argument("--space", dest="space_path", help="hyperparameter space JSON: one space, or spaces keyed by strategy")
    p.add_argument("--budget", type=int, help="grid-search trials per split (0 = no search)")
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--jobs", type=int, default=1, help="most worker processes for the fits, one pool per command")
    p.add_argument("--search-once", action="store_true", help="reuse the first split's search result")
    p.add_argument("--force", action="store_true", help="replace an earlier run's or compare's output directory")
    p.set_defaults(**{f.name: f.default for f in fields(RunConfig) if f.default is not MISSING})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ptopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic price CSV")
    p_synth.add_argument("--assets", type=int, required=True)
    p_synth.add_argument("--days", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=SynthConfig.seed)
    p_synth.add_argument("--momentum", type=float, default=SynthConfig.momentum)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="walk one strategy forward and write artifacts")
    p_run.add_argument("--strategy", required=True, choices=STRATEGIES)
    _add_shared_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several strategies through the identical pipeline")
    p_cmp.add_argument("--strategies", nargs="+", required=True, choices=STRATEGIES)
    _add_shared_run_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse's usage error (status 2) is a usage error here; --help exits 0
        return 1 if exit_.code else 0
    try:
        if getattr(args, "jobs", 1) < 1:  # checked here, not in RunConfig: --jobs never changes results
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except (DataError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
