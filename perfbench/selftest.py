"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py [--seed N]

Runs every workload traced twice with the same seed and checks that:

- each per-layer metric is non-zero on the workload meant to exercise it,
  and every ``autograd.*`` metric is zero on ``wide_ingest``;
- the exact work counts repeat between the two runs;
- the trace confirms why each workload exists: on ``pt_walkforward`` the
  self time of autograd, model, objective and training is at least 80% of
  ``cli.main``; on ``wide_ingest`` those layers take under 5% while data,
  ``benchmarks.mv_weights`` and metrics take at least 80%.

Exits 0 when every check holds, 1 otherwise. Takes about a minute.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pt_walkforward", "baseline_search", "wide_ingest")
EXACT_COUNTS = (
    "autograd.tape_nodes",
    "training.windows",
    "training.optimizer_steps",
    "training.trial_payload_bytes",
    "benchmarks.mv_weights.calls",
)
# First matching prefix names the workload a per-layer metric must be non-zero on.
EXERCISED_BY = (
    ("autograd.nodes_per_window.lstm", "baseline_search"),
    ("autograd.nodes_per_window.mlp", "baseline_search"),
    ("training.random_grid_search", "baseline_search"),
    ("training.trial", "baseline_search"),
    ("benchmarks.lstm_forward", "baseline_search"),
    ("benchmarks.mlp_window_weights", "baseline_search"),
    ("benchmarks.", "wide_ingest"),
    ("data.", "wide_ingest"),
    ("metrics.rolling_sharpe", "pt_walkforward"),  # only `ptopt run` writes rolling_sharpe.csv
    ("metrics.write_series_csv", "pt_walkforward"),
    ("metrics.", "wide_ingest"),
    ("cli.render_table", "wide_ingest"),
    ("", "pt_walkforward"),
)
LEARNING_LAYERS = ("autograd", "model", "objective", "training")


def exercised_by(metric: str) -> str:
    return next(workload for prefix, workload in EXERCISED_BY if metric.startswith(prefix))


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    declared = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]

    problems = []
    values = {}
    for workload in WORKLOADS:
        first, second = traced_run(workload, seed), traced_run(workload, seed)
        for run in (first, second):
            if not run["correct"] or run["failed"]:
                problems.append(f"{workload}: {run['failed']} of {run['attempted']} runs failed their output checks")
        values[workload] = {k: v["value"] for k, v in first["metrics"].items()}
        again = {k: v["value"] for k, v in second["metrics"].items()}
        for name in EXACT_COUNTS:
            if values[workload][name] != again[name]:
                problems.append(f"{workload}: {name} is {values[workload][name]} then {again[name]} on the same seed")
        if not math.isfinite(values[workload]["trace.overhead_s"]):
            problems.append(f"{workload}: trace.overhead_s not reported")

    for name in declared:
        if name != "trace.overhead_s" and not values[exercised_by(name)][name]:
            problems.append(f"{name} is 0 on {exercised_by(name)}, the workload meant to exercise it")
    for name in declared:
        if name.startswith("autograd.") and values["wide_ingest"][name]:
            problems.append(f"{name} is {values['wide_ingest'][name]} on wide_ingest, want 0")

    def share(workload, names):
        v = values[workload]
        return sum(v[n] for n in names) / v["cli.main.s"]

    learning = [f"{layer}.self.s" for layer in LEARNING_LAYERS]
    ingest = ["data.self.s", "benchmarks.mv_weights.s", "metrics.self.s"]
    shares = {
        "pt_walkforward learning layers": (share("pt_walkforward", learning), ">=", 0.8),
        "wide_ingest learning layers": (share("wide_ingest", learning), "<", 0.05),
        "wide_ingest data+mv_weights+metrics": (share("wide_ingest", ingest), ">=", 0.8),
    }
    for label, (value, op, limit) in shares.items():
        print(f"{label}: {value:.1%} of cli.main (want {op} {limit:.0%})")
        if not (value >= limit if op == ">=" else value < limit):
            problems.append(f"{label} take {value:.1%} of cli.main, want {op} {limit:.0%}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
