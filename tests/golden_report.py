"""Golden outcomes: three small commands whose outputs ``tests/test_golden.py`` pins.

On a ``synth --assets 3 --days 700 --seed 1 --momentum 0.4`` market, each with
``--first-test-year 2015 --window 4 --max-epochs 3 --patience 1``, it runs
``run --strategy pt``, ``run --strategy lstm --budget 2`` and a ``compare`` of
all five strategies with ``--budget 2 --search-once``, in-process. For each it
records every ``metrics.json`` and ``comparison.csv`` value, every checkpoint's
final parameter vector and the sha256 of every output but ``manifest.json``
(``trials.csv`` without its ``seconds`` column), beside the manifest's ``blas``
record. Written as ``tests/data/golden.json`` by

    PYTHONPATH=src python3 tests/golden_report.py

A change that means to alter outputs rewrites that file, and its CHANGES entry says why.
"""

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from ptopt.cli import main as cli_main
from ptopt.model import load_checkpoint

GOLDEN = Path(__file__).parent / "data" / "golden.json"
SYNTH = ["synth", "--assets", "3", "--days", "700", "--seed", "1", "--momentum", "0.4"]
SHARED = ["--first-test-year", "2015", "--window", "4", "--max-epochs", "3", "--patience", "1"]
COMMANDS = {
    "run_pt": ["run", "--strategy", "pt"],
    "run_lstm": ["run", "--strategy", "lstm", "--budget", "2"],
    "compare": ["compare", "--strategies", "pt", "lstm", "mlp", "mv", "equal_weight", "--budget", "2", "--search-once"],
}


def _digest(path: Path) -> str:
    """sha256 of the file; for ``trials.csv``, of its rows without the wall-clock ``seconds`` column."""
    if path.name != "trials.csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("seconds")
    return hashlib.sha256(json.dumps([row[:drop] + row[drop + 1 :] for row in rows]).encode()).hexdigest()


def _outcome(out: Path) -> dict:
    """The values, checkpoint vectors and digests of one command's output directory."""
    values = {}
    if (out / "metrics.json").exists():
        values["metrics.json"] = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    if (out / "comparison.csv").exists():
        with open(out / "comparison.csv", encoding="utf-8", newline="") as fh:
            values["comparison.csv"] = {row.pop("strategy"): {k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)}
    return {
        "values": values,
        "vectors": {p.name: load_checkpoint(p).vector.tolist() for p in sorted(out.glob("*.ckpt"))},
        "sha256": {p.name: _digest(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"},
    }


def outcomes(workdir: Path) -> dict:
    """Run the market and the three commands under ``workdir``: the manifests' ``blas``
    record and, under ``commands``, the outcome of each command by name."""
    data = workdir / "prices.csv"
    if cli_main([*SYNTH, "--out", str(data)]) != 0:
        raise RuntimeError("synth failed")
    found = {}
    for name, argv in COMMANDS.items():
        out = workdir / name
        if cli_main([*argv, "--data", str(data), "--out", str(out), *SHARED]) != 0:
            raise RuntimeError(f"{name} failed")
        found[name] = _outcome(out)
    blas = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["blas"]
    return {"blas": blas, "commands": found}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        found = outcomes(Path(tmp))
    GOLDEN.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {', '.join(found['commands'])} to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
