"""Byte parity of two source trees: the outputs of nine commands and the errors of six, file by file.

    python3 tests/parity_report.py PARENT_TREE CHANGE_TREE

Each tree is a checkout or an export of this repository. For each, in its own
subprocess with ``OPENBLAS_NUM_THREADS=1`` and that tree's ``src`` and
``perfbench`` first on the path, the script writes the seed-1 markets of
``perfbench/workloads.py`` and runs nine commands:

- the three perfbench workload commands, each on its own market;
- on the baseline_search market, with ``--first-test-year 2015 --max-epochs 2``:
  ``run --strategy pt --budget 2 --patience 1``,
  ``compare --strategies pt lstm mlp mv equal_weight --budget 2 --search-once``,
  ``run --strategy mlp --budget 2 --search-once --jobs 2``, ``run --strategy lstm``,
  ``compare --strategies lstm mlp mv --jobs 2``, whose unsearched fits of
  both test years go to the pool as one batch, and
  ``compare --strategies lstm mlp mv --budget 2 --search-once --jobs 2``, whose
  two searched walks send both rounds of the batch to the pool's workers;
- on a short-history market (the 3-asset, 800-day seed-1 synth from
  2015-12-01 on, tested from 2016), four commands that fail on the data:
  ``run --strategy mv``, ``run --strategy lstm --budget 2 --jobs 2``,
  ``compare --strategies lstm mv mlp --budget 2 --search-once --jobs 2`` and
  ``compare --strategies lstm mv --window 2 --budget 2 --jobs 2``, and two
  usage errors: ``run --strategy nope`` and ``run --strategy mv --bogus``. Each
  one's exit code and stderr, which names no path, go to ``errors/<name>.txt``.

It then prints one line per file, the markets included: identical, identical
apart from ignored fields, or how it differs, and a count of each. Ignored are
the fields that name where and from what checkout a run ran, the manifest's
``config.data``, ``config.out_dir`` and ``version``, and the wall-clock
``seconds`` column of ``trials.csv``. It exits 1 if any file differs otherwise
or exists on one side only.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("pt_walkforward", "baseline_search", "wide_ingest")
SEED = 1
MARKET = "baseline_search"  # the market of the six commands below
SHARED = ["--first-test-year", "2015", "--max-epochs", "2"]
COMMANDS = {
    "run_pt_search": ["run", "--strategy", "pt", "--budget", "2", "--patience", "1"],
    "compare_all": ["compare", "--strategies", "pt", "lstm", "mlp", "mv", "equal_weight", "--budget", "2", "--search-once"],
    "run_mlp_jobs": ["run", "--strategy", "mlp", "--budget", "2", "--search-once", "--jobs", "2"],
    "run_lstm": ["run", "--strategy", "lstm"],
    "compare_unsearched_jobs": ["compare", "--strategies", "lstm", "mlp", "mv", "--jobs", "2"],
    "compare_search_once_jobs": ["compare", "--strategies", "lstm", "mlp", "mv", "--budget", "2", "--search-once", "--jobs", "2"],
}
SHORT = ["--first-test-year", "2016"]  # of the failing commands below, on the short-history market
FAILING = {
    "run_mv_short": ["run", "--strategy", "mv"],
    "run_lstm_short_jobs": ["run", "--strategy", "lstm", "--budget", "2", "--jobs", "2"],
    "compare_search_once_short": ["compare", "--strategies", "lstm", "mv", "mlp", "--budget", "2", "--search-once", "--jobs", "2"],
    "compare_mv_after_trained_short": ["compare", "--strategies", "lstm", "mv", "--window", "2", "--budget", "2", "--jobs", "2"],
    "run_invalid_choice": ["run", "--strategy", "nope"],
    "run_unknown_flag": ["run", "--strategy", "mv", "--bogus"],
}
IDENTICAL, IGNORED_ONLY = "identical", "identical apart from ignored fields"


def run_commands(tree: Path, work: Path) -> None:
    """Write the markets and run the fifteen commands on ``tree``'s code, into ``work``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import ptopt
    from ptopt.cli import main
    from workloads import WORKLOADS as MARKETS

    if not Path(ptopt.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"imported ptopt from {ptopt.__file__}, not from {tree}")
    (work / "inputs").mkdir(parents=True)
    runs = []
    for name in WORKLOADS:
        data = work / "inputs" / f"{name}.csv"
        MARKETS[name].write_input(SEED, data)
        runs.append((name, MARKETS[name].argv(data, work / name)))
    data = work / "inputs" / f"{MARKET}.csv"
    runs += [(name, [*argv, "--data", str(data), "--out", str(work / name), *SHARED]) for name, argv in COMMANDS.items()]
    for name, argv in runs:
        if main(argv) != 0:
            raise SystemExit(f"{name} failed: ptopt {' '.join(argv)}")
    short = work / "inputs" / "short_history.csv"
    main(["synth", "--assets", "3", "--days", "800", "--seed", "1", "--out", str(short)])
    header, *rows = short.read_text().splitlines(keepends=True)
    short.write_text(header + "".join(row for row in rows if row[:10] >= "2015-12-01"))
    (work / "errors").mkdir()
    for name, argv in FAILING.items():
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--data", str(short), "--out", str(work / name), *SHORT])
        (work / "errors" / f"{name}.txt").write_text(f"exit {code}\n{err.getvalue()}", encoding="utf-8")


def _compared(name: str, data: bytes):
    """What of an output the comparison reads: a manifest without its ignored
    fields, a ``trials.csv`` without ``seconds``, else the bytes."""
    if name == "manifest.json":
        doc = json.loads(data)
        doc.pop("version", None)
        for key in ("data", "out_dir"):
            doc.get("config", {}).pop(key, None)
        return doc
    if name == "trials.csv":
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        drop = rows[0].index("seconds")
        return [row[:drop] + row[drop + 1 :] for row in rows]
    return data


def _how(a, b) -> str:
    """Where two differing ``_compared`` forms first differ."""
    if isinstance(a, dict):
        keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        return "fields " + ", ".join(keys)
    if isinstance(a, list):
        row = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return f"{len(a)} against {len(b)} rows, first difference in row {row}"
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = a[:at].count(b"\n") + 1
    return f"{len(a)} against {len(b)} bytes, first difference at byte {at} (line {line})"


def verdict(a: Path, b: Path) -> str:
    """``IDENTICAL``, ``IGNORED_ONLY``, or ``differs: `` and where, for two versions of one output."""
    x, y = a.read_bytes(), b.read_bytes()
    if x == y:
        return IDENTICAL
    x, y = _compared(a.name, x), _compared(b.name, y)
    return IGNORED_ONLY if x == y else f"differs: {_how(x, y)}"


def compare_trees(parent: Path, change: Path) -> dict[str, str]:
    """The verdict on every file under either directory, by relative path."""
    files = {side: {p.relative_to(side).as_posix() for p in side.rglob("*") if p.is_file()} for side in (parent, change)}
    found = {}
    for name in sorted(files[parent] | files[change]):
        if name not in files[change] or name not in files[parent]:
            found[name] = "only in " + ("parent" if name in files[parent] else "change")
        else:
            found[name] = verdict(parent / name, change / name)
    return found


def main(argv: list[str]) -> int:
    if argv[:1] == ["--side"]:  # the subprocess of one tree
        run_commands(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        work = {side: Path(tmp) / side for side in ("parent", "change")}
        for side, tree in zip(work, argv):
            done = subprocess.run(
                [sys.executable, __file__, "--side", str(Path(tree).resolve()), str(work[side])],
                env=env, capture_output=True, text=True,
            )
            if done.returncode != 0:
                print(f"{side} tree {tree} failed:\n{done.stderr}", file=sys.stderr)
                return 2
        found = compare_trees(work["parent"], work["change"])
    for name, line in found.items():
        print(f"{name}: {line}")
    counts = {kind: sum(line == kind for line in found.values()) for kind in (IDENTICAL, IGNORED_ONLY)}
    rest = len(found) - sum(counts.values())
    print(f"{len(found)} files: {counts[IDENTICAL]} {IDENTICAL}, {counts[IGNORED_ONLY]} {IGNORED_ONLY}, {rest} otherwise")
    return 1 if rest else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
