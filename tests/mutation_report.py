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

TRAINING, OBJECTIVE, CLI = "src/ptopt/training.py", "src/ptopt/objective.py", "src/ptopt/cli.py"
CATALOGUE = [
    # the split's fit: one random_grid_search per trained split
    (TRAINING, "costs, seed + split_idx, pool)", "costs, seed + split_idx + 1, pool)",
     "an unsearched split fits at seed + split_idx"),
    (TRAINING, "seed + 104729 * split_idx", "seed + 104723 * split_idx",
     "a searched split's generator and trials start at seed + 104729 * split_idx"),
    (TRAINING, "(search_each_split or split_idx == 0)", "(search_each_split or split_idx <= 1)",
     "--search-once searches the first split only"),
    (TRAINING, "(isinstance(d[1], TrainingError), d[0].val_loss)", "(not isinstance(d[1], TrainingError), d[0].val_loss)",
     "a trial whose fit raised ranks last"),
    (TRAINING, "d[0].val_loss))", "d[0].val_loss, -d[0].index))",
     "a tie on validation loss goes to the earliest trial"),
    (TRAINING, "best.params, seed + best.index)", "best.params, seed)",
     "the shipped model is built at its winning trial's seed"),
    (TRAINING, "outcome.trials = []", "outcome.trials = outcome.trials",
     "an unsearched split lists no trial, so trials.csv holds searches only"),
    (TRAINING, "replace(base_cfg, seed=seed + index,", "replace(base_cfg, seed=seed + 2 * index,",
     "trial i fits at seed + i"),
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
    # the exit-code map and the checks that pick an exit code
    (CLI, "        return 3\n", "        return 2\n",
     "a NumericError exits 3"),
    ("src/ptopt/errors.py", "class ContractError(NumericError):", "class ContractError(RuntimeError):",
     "a ContractError is a NumericError, so it exits 3"),
    (TRAINING, "    if n < 2:\n", "    if n < 1:\n",
     "a trained strategy on fewer than 2 assets is a data error (exit 2), not a setting error"),
    ("src/ptopt/data.py", 'raise DataError(f"no data for test year {year}")', "continue",
     "a year missing from the data is a data error, not a broken schedule"),
    (CLI, "space, base_combos.get(strategy))", "space, None)",
     "--t2v-k is checked with pt's settings before the data is read"),
    ("src/ptopt/model.py", "except (KeyError, TypeError, ValueError) as err:", "except (TypeError, ValueError) as err:",
     "a checkpoint parameter entry without its shape or data raises ValueError naming it"),
]


def first_failure(output: str) -> str:
    """The first test pytest's summary names as failed or errored, else its last line."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
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
