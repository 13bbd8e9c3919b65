"""What tier-1 catches: one-line mutants of the code, each run against the whole suite.

    python3 tests/mutation_report.py

``CATALOGUE`` lists ``(file, old, new, why)`` entries. For each, the script
copies ``src``, ``tests``, ``perfbench`` and ``pyproject.toml`` into a temporary
directory, replaces the one occurrence of ``old`` in ``file`` with ``new``, and
runs ``python -m pytest -x -q -p no:cacheprovider`` there, one subprocess at a
time, leaving out the catalogue's own check. It writes ``MUTATION.json`` at
the repository root: for each entry, the first failing test or ``survived``,
and the seconds taken. A caught mutant stops at its first failure; a survivor
runs the whole suite.

An entry that survives needs a test that catches it, or a note in its ``why``
saying why it is equivalent. ``tests/test_mutation_report.py`` checks, in
tier-1 and without running a mutant, that every ``old`` occurs exactly once.
"""

import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# the catalogue check is left out: on a mutant's copy it fails by construction
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--ignore=tests/test_mutation_report.py"]

TRAINING, OBJECTIVE, CLI, ERRORS = "src/ptopt/training.py", "src/ptopt/objective.py", "src/ptopt/cli.py", "src/ptopt/errors.py"
CATALOGUE = [
    # the split's fit: one random_grid_search pick per trained split
    (TRAINING, "1, self.seed + k\n", "1, self.seed + k + 1\n",
     "an unsearched split fits at seed + split_idx"),
    (TRAINING, "self.seed + 104729 * k", "self.seed + 104723 * k",
     "a searched split's generator and trials start at seed + 104729 * split_idx"),
    (TRAINING, "once = search_once and len(splits) > 1", "once = False and len(splits) > 1",
     "--search-once searches the first split only"),
    (TRAINING, "if self.budget and winner is None:", "if self.budget:",
     "a split given a winner fits it once, whether or not the walk searches"),
    (TRAINING, "w.plan(k, split, _best(firsts[s])[0].params)", "w.plan(k, split, firsts[s][-1][0].params)",
     "with --search-once, the later splits fit the first split's winner"),
    (TRAINING, "split_windows(table, splits[0], walks[s].tau)", "split_windows(table, splits[-1], walks[s].tau)",
     "the pre-flight checks a trained strategy's first split, the one with the fewest windows"),
    (TRAINING, "            stack.callback(executor.shutdown, cancel_futures=True)\n", "",
     "a walk shuts the executor it started when it ends, raises or is closed: no worker outlives the command"),
    (TRAINING, "    for s in strategies:\n        if s == ", "    for s in strategies[::-1]:\n        if s == ",
     "the pre-flight checks the strategies in listed order, so the first listed strategy's error comes first"),
    (TRAINING, "splits[0].train_end < MVConfig.lookback", "splits[0].train_end <= MVConfig.lookback",
     "MV walks a first split with exactly its lookback's rows before it"),
    (TRAINING, "if first < 0:", "if first < -1:",
     "a view that would start before row 0 is a data error, not a wrapped read of the last rows"),
    (TRAINING, "(isinstance(d[1], TrainingError), d[0].val_loss)", "(not isinstance(d[1], TrainingError), d[0].val_loss)",
     "a trial whose fit raised ranks last"),
    (TRAINING, "d[0].val_loss))", "d[0].val_loss, -d[0].index))",
     "a tie on validation loss goes to the earliest trial"),
    (TRAINING, "best.params, best.seed)", "best.params, best.seed - best.index)",
     "the shipped model is built at its winning trial's seed"),
    (TRAINING, "[t for t, _ in done] if searched else []", "[t for t, _ in done]",
     "a split that did not search lists no trial, so trials.csv holds searches only"),
    (TRAINING, "bool(w.budget) and not", "not",
     "a walk without a budget searches no split"),
    (TRAINING, "(once and k)", "(once and k > 1)",
     "under --search-once, a later split's one fit of the winner lists no trial"),
    (TRAINING, "if len(outcomes) != expected:", "if len(outcomes) > expected:",
     "a trained walk given fewer outcomes than splits raises, not returns unfilled rows"),
    (TRAINING, "fit_config(base_cfg, combo, seed + index)", "fit_config(base_cfg, combo, seed + 2 * index)",
     "trial i fits at seed + i"),
    (TRAINING, "raise OSError(f\"a trial worker died: {err}\") from None", "raise",
     "a trial worker the OS killed is a data error (exit 2), not a traceback out of cli.main"),
    (TRAINING, "budget or space.budget", "space.budget",
     "--budget sets a search's draws per split over a --space file's budget and the default grid's"),
    # the fit
    (TRAINING, "if val_loss < best_val:", "if val_loss <= best_val:",
     "early stopping keeps the first of tied epochs"),
    (TRAINING, "elif epoch - best_epoch >= cfg.patience:", "elif epoch - best_epoch > cfg.patience:",
     "a fit stops after patience epochs without a better validation loss"),
    (TRAINING, "cfg.seed + epoch)", "cfg.seed + 1)",
     "each epoch shuffles its batches at its own seed"),
    (TRAINING, "drop_rng = np.random.default_rng(cfg.seed)", "drop_rng = np.random.default_rng(cfg.seed + 1)",
     "dropout draws from the train seed"),
    (TRAINING, "m_hat = self.m / (1.0 - self.BETA1**t)", "m_hat = self.m",
     "Adam corrects its first moment's bias"),
    ("src/ptopt/model.py", "bound = np.sqrt(1.0 / fan_in)", "bound = np.sqrt(2.0 / fan_in)",
     "dense weights start uniform in +-sqrt(1 / fan_in)"),
    # the row layout
    (TRAINING, "first = last - length + 1", "first = last - length + 2",
     "_ending_at's rows end at row last: one row later reads the future"),
    (TRAINING, "count = min(hi - 2, r.shape[0] - 2)", "count = min(hi - 1, r.shape[0] - 2)",
     "build_windows' last sample earns rows before hi only"),
    (TRAINING, "lo + tau - 2)  # the first decision row", "lo + tau - 1)  # the first decision row",
     "build_windows' first sample is the first whose realized rows all lie at or after lo"),
    # the backtest and the cost model
    ("src/ptopt/metrics.py", "table.returns[rows[block] + 1]", "table.returns[rows[block]]",
     "a weight dated d earns the next trading day's returns"),
    (OBJECTIVE, "diff[..., 0, :] -= prev", "diff[..., 0, :] += prev",
     "the first row's turnover is against the opening book"),
    (OBJECTIVE, "- np.add.reduce(np.abs(diff), axis=-1) * cost_rate", "+ np.add.reduce(np.abs(diff), axis=-1) * cost_rate",
     "costs are subtracted from the gross return"),
    (OBJECTIVE, "(1.0 - (m / (sd * sd))", "(np.nextafter(1.0, 2.0) - (m / (sd * sd))",
     "a one-ulp change to the Sharpe loss's backward"),
    ("src/ptopt/metrics.py", "np.where(numerator >= 0, math.inf", "np.where(numerator > 0, math.inf",
     "a zero ratio over zero dispersion reads +inf, by the numerator's sign rule"),
    ("src/ptopt/metrics.py", "if not np.all(self.daily_returns > -1):", "if np.any(self.daily_returns <= -1):",
     "a NaN net return ruins the equity curve as a day at or below -100% does"),
    # the exit-code map and the checks that pick an exit code
    (CLI, "        return 3\n", "        return 2\n",
     "a NumericError exits 3"),
    (CLI, "return 1 if exit_.code else 0", "return exit_.code",
     "argparse's usage error exits 1, not argparse's own status 2"),
    (TRAINING, "        if stray:\n", "        if False:\n",
     "a --space entry for no trained strategy of the command is a usage error naming it and the file"),
    ("src/ptopt/metrics.py", 'raise NumericError(f"need at least 2 daily returns', 'raise ValueError(f"need at least 2 daily returns',
     "too short a curve for its statistics is a numeric failure (exit 3), not a usage error"),
    (TRAINING, "if s in walks and n < 2:", "if s in walks and n < 1:",
     "a trained strategy on fewer than 2 assets is a data error (exit 2), not a setting error"),
    ("src/ptopt/data.py", 'raise DataError(f"no data for test year {year}")', "continue",
     "a year missing from the data is a data error, not a broken schedule"),
    # the one read of the input
    ("src/ptopt/data.py", "lineno += len(lines)", 'lineno += len(lines) - lines.count("\\n")',
     "a batch's first line number counts every line before it, blank lines too"),
    ("src/ptopt/data.py", "np.frombuffer(values[start:])", "np.frombuffer(values[len(values):])",
     "each batch's price check covers every cell that batch parsed"),
    ("src/ptopt/data.py", " or np.any(self.prices == np.inf)", "",
     "a price table holds no infinite price: synth refuses a market whose prices overflow, as the loader would"),
    ("src/ptopt/data.py", 'np.errstate(over="ignore")', 'np.errstate(over="warn")',
     "synth's overflowing market prints its one data error line, not numpy's warning before it"),
    # the one range rule of every config
    (ERRORS, "value < math.inf:", "value <= math.inf:",
     "an infinite --cost-rate is a usage error before the data is read"),
    (ERRORS, "if not -math.inf < value < math.inf:", "if value != value:",
     "synth refuses an infinite --momentum"),
    (ERRORS, "if value < lo:", "if value <= lo:",
     "a config field at its lower bound builds"),
    ("src/ptopt/model.py", "cast == value or cast != cast)", "cast == value)",
     "a float NaN in a config is refused as not finite, not as not a float"),
    (TRAINING, "model_config(strategy, 2, tau, combo, seed=0)", "model_config(strategy, 2, tau, {}, seed=0)",
     "--t2v-k is checked with pt's settings before the data is read"),
    (TRAINING, "            fit_config(TrainConfig(), combo, 0)\n", "",
     "a search skips a combo whose fit settings cannot build, and a space with none is refused before the data is read"),
    ("src/ptopt/model.py", "except (KeyError, TypeError, ValueError) as err:", "except (TypeError, ValueError) as err:",
     "a checkpoint parameter entry without its shape or data raises ValueError naming it"),
    ("src/ptopt/model.py", "type(x) not in (int, float)]", "type(x) not in (int, float, bool, str)]",
     "checkpoint data are JSON numbers: a string or a boolean is refused, not cast"),
    # the command line
    (CLI, "with contextlib.closing(walk_outcomes(table, schedule, strategies, walks, args.jobs, cfg.search_once)) as walked:",
     "if walked := walk_outcomes(table, schedule, strategies, walks, args.jobs, cfg.search_once):",
     "a pipeline that fails between two walks shuts the workers before its error leaves, not when its traceback goes"),
    (CLI, "sort_keys=True, indent=2)", "sort_keys=True, indent=3)",
     "manifest.json's bytes are pinned, not only its parsed JSON"),
    (CLI, 'p.add_argument("--data", required=True', 'p.add_argument("--data", required=False',
     "a command without --data exits 1 before any output"),
    (TRAINING, "if space is None and budget > 0:", "if space is None and budget > 1:",
     "--budget 1 runs a search of one trial, which trials.csv lists"),
    (CLI, "            aside.rename(out)\n", "            pass\n",
     "a forced run that fails to rename its directory into place puts the old one back"),
    (CLI, 'Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))',
     'out.with_name(f".{out.name}.{os.getpid()}"); stage.mkdir()',
     "a run stages in a directory unique to it: what a killed run with the same pid left behind blocks nothing"),
    (CLI, "        tmp.mkdir()\n", "        tmp.mkdir(0o700)\n",
     "the published directory has a plain mkdir's mode, not the 0700 of the staging directory"),
    (CLI, "        if not _earlier_output(real):\n", "        if False:\n",
     "--force over a directory without an earlier run's or compare's manifest.json exits 1 before any work"),
    (CLI, "    if out.is_dir() and not any(out.iterdir()):\n", "    if False:\n",
     "an empty --out that cannot be renamed, a mount point say, is filled in place"),
    (CLI, "Path(path), Path(path).resolve()", "Path(path), Path(path)",
     "--out is checked as the path it resolves to, the one the run writes: '.' or a symlink"),
    (CLI, " or holds_cwd:", ":",
     "--force never replaces the working directory or one of its ancestors: the caller's shell would sit in a deleted directory"),
]


def first_failure(output: str) -> str:
    """The first test pytest's summary names as failed or errored, else its last line. The test's ID
    runs to pytest's `` - `` separator or the end of the line: a parametrized ID may hold spaces."""
    found = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", output, re.MULTILINE)
    if found:
        return found.group(1)
    lines = output.strip().splitlines()
    return lines[-1] if lines else "no output"


def run_mutant(file: str, old: str, new: str) -> tuple[str, float]:
    """(the first failing test or ``survived``, seconds) of the suite on a copy with the mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, work / name)
        target = work / file
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{file}: expected one occurrence of {old!r}, found {text.count(old)}")
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        done = subprocess.run(PYTEST, cwd=work, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    return ("survived" if done.returncode == 0 else first_failure(done.stdout + done.stderr)), seconds


def main() -> int:
    out = ROOT / "MUTATION.json"
    entries = []
    for i, (file, old, new, why) in enumerate(CATALOGUE):
        result, seconds = run_mutant(file, old, new)
        print(f"{i:2d} {seconds:6.1f} s  {result}  ({file}: {why})", flush=True)
        entries.append({"file": file, "old": old, "new": new, "why": why, "result": result, "seconds": round(seconds, 1)})
    doc = {
        "command": "python3 tests/mutation_report.py",
        "python": platform.python_version(),
        "survived": sum(e["result"] == "survived" for e in entries),
        "entries": entries,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"{len(entries)} mutants: {len(entries) - doc['survived']} caught, {doc['survived']} survived -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
