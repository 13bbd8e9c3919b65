"""Ingest time and memory report: ``load_csv`` and ``clean_and_return`` on a generated price CSV.

Writes a synthetic ``--days`` x ``--assets`` price CSV with a ``--gaps``
share of empty cells (seed 0), then prints, for each stage, the median
seconds of 15 untraced calls and the ``tracemalloc`` peak above the memory
held before the call, also per byte of the price matrix. With ``--json``
the figures are stored in that file under ``--label``, beside the sides of
earlier runs of the same workload, so that one file holds one harness run
on two source trees:

    PYTHONPATH=/path/to/parent/src python3 tests/ingest_report.py --label parent --json ingest.json
    PYTHONPATH=src python3 tests/ingest_report.py --label change --json ingest.json

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
from pathlib import Path

import numpy as np

from ptopt.data import clean_and_return, load_csv

from helpers import traced_peak, write_gapped_csv

REPEATS = 15  # untraced calls per stage, for the median and quartiles


def _seconds(fn) -> dict:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(times), "samples": REPEATS}


def measure(path) -> dict:
    table, load_peak = traced_peak(lambda: load_csv(path))
    _, clean_peak = traced_peak(lambda: clean_and_return(table))
    matrix = table.prices.nbytes
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "matrix_bytes": matrix,
        "load_csv_s": _seconds(lambda: load_csv(path)),
        "clean_and_return_s": _seconds(lambda: clean_and_return(table)),
        "load_csv_peak_bytes": load_peak,
        "load_csv_peak_per_matrix_byte": load_peak / matrix,
        "clean_and_return_peak_bytes": clean_peak,
        "clean_and_return_peak_per_matrix_byte": clean_peak / matrix,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=2000)
    parser.add_argument("--assets", type=int, default=50)
    parser.add_argument("--gaps", type=float, default=0.01, help="share of empty cells")
    parser.add_argument("--label", default="current", help="the name of this side in the --json file")
    parser.add_argument("--json", help="file to store the figures in, beside those of other labels")
    args = parser.parse_args()
    workload = {"days": args.days, "assets": args.assets, "gaps": args.gaps}

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        write_gapped_csv(path, args.days, args.assets, args.gaps)
        side = measure(path)

    print(f"{args.days} days x {args.assets} assets, {args.gaps:.1%} gaps, "
          f"matrix {side['matrix_bytes']:,} bytes")
    for stage in ("load_csv", "clean_and_return"):
        t = side[f"{stage}_s"]
        print(f"{stage.ljust(16)}  median {t['median']:.4f} s (q1 {t['q1']:.4f}, q3 {t['q3']:.4f}, n={t['samples']})  "
              f"peak {side[f'{stage}_peak_bytes']:,} bytes = {side[f'{stage}_peak_per_matrix_byte']:.2f}x the matrix")

    if args.json:
        out = Path(args.json)
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"workload": workload, "sides": {}}
        if doc["workload"] != workload:
            print(f"{out} holds another workload {doc['workload']}; not overwritten", file=sys.stderr)
            return 1
        doc["sides"][args.label] = side
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote side {args.label!r} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
