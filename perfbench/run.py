"""Walk-forward benchmark of ptopt: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload pt_walkforward --seed 1 --seconds 30 --trace 0

Run from a checkout; the benchmark imports ptopt from ``src/`` beside it and
writes only under ``.perfbench_work/``. It generates the workload's price
CSV from ``--seed``, times ``ptopt.cli.main`` on it in this process for
``--seconds`` seconds (every command gets a fresh output directory and its
outputs are checked, untimed), and prints one line per metric with its unit
and sample count. ``setup_s`` and ``run_s`` are rescaled to a reference host
speed measured by calibration units run between the commands (see
``_calibration_unit``); the raw wall medians are printed beside them. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics, taken
from spans recorded around ptopt's entry points (see ``spans.py``) on
commands alternating with untraced ones.
"""

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_MIN_SAMPLES = 5
SETUP_SHARE = 0.2  # set-up probe time per second of command time
# Reported times are rescaled to a host on which one calibration unit takes
# REF_UNIT_S: time x REF_UNIT_S / (mean unit time over the run).
REF_UNIT_S = 0.010
CALIBRATION_SHARE = 0.1  # calibration time per second of command time


def _import_ptopt() -> None:
    """Put the checkout's ``src/`` first on the path; refuse any other ptopt."""
    if not (SRC / "ptopt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ptopt sources at {SRC}; run from a ptopt checkout")
    sys.path.insert(0, str(SRC))
    import ptopt

    if Path(ptopt.__file__).resolve().parent != (SRC / "ptopt").resolve():
        raise SystemExit(f"perfbench: imported ptopt from {ptopt.__file__}, not from {SRC}")


def _environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    rev = ""
    if (ROOT / ".git").exists():  # git would otherwise report an enclosing repository
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ptopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": rev or "none",
        "source_sha256": digest.hexdigest(),
    }


def _setup_seconds(data: Path, first_test_year: int) -> float:
    """Import plus ingest from a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), str(data), str(first_test_year)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def _calibration_unit() -> float:
    """Seconds taken by a fixed piece of work outside ptopt.

    The work mixes interpreted float arithmetic with small LAPACK solves, as
    ptopt's own loops do. Shared hosts run identical work at speeds up to 2x
    apart, in phases that last from a fraction of a second to minutes; units
    run between the commands sample those phases, and their mean rescales the
    run's times (see ``REF_UNIT_S``).
    """
    import numpy as np

    a = np.random.default_rng(0).random((50, 50)) + np.eye(50)
    start = time.perf_counter()
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    for _ in range(200):
        np.linalg.solve(a, a[0])
    return time.perf_counter() - start


def _calibrate(after_seconds: float) -> list[float]:
    """Calibration units worth CALIBRATION_SHARE of the command just run."""
    units, spent = [], 0.0
    while spent < CALIBRATION_SHARE * after_seconds or not units:
        units.append(_calibration_unit())
        spent += units[-1]
    return units


def _peak_rss_mib() -> float:
    """ru_maxrss of this process or of its children (the search pool), in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


@dataclass
class Sample:
    seconds: float
    ok: bool
    sharpe: float | None = None
    layers: dict | None = None
    spans: list | None = None


def _run_once(workload, data: Path, out: Path, table, schedule, check, tracer=None) -> Sample:
    """One timed command plus its untimed checks."""
    import ptopt.cli
    from ptopt.model import load_checkpoint

    gc.collect()
    argv = workload.argv(data, out)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is not None:
                tracer.install()
            try:
                start = time.perf_counter()
                code = ptopt.cli.main(argv)
                seconds = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
        if code != 0:
            print(f"perfbench: ptopt {' '.join(argv)} exited {code}", file=sys.stderr)
            return Sample(seconds, False)
        if tracer is None:
            sharpe, problems = check(out, table, schedule, load_checkpoint)
        else:
            sharpe, problems = check(out, table, schedule, lambda p: tracer.call("model.load_checkpoint", load_checkpoint, p))
            problems += [
                f"a fit ran {run} epochs, want max_epochs = {want}" for run, want in tracer.fit_epochs if run != want
            ]
        for problem in problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        if tracer is None:
            return Sample(seconds, not problems, sharpe)
        return Sample(seconds, not problems, sharpe, tracer.metrics(), tracer.spans)
    except Exception:  # a crashing command or check counts as a failed run, and the benchmark goes on
        traceback.print_exc()
        return Sample(float("nan"), False)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _measure(workload, data: Path, seconds: float, trace: bool, scratch: Path):
    """Repeat the command until ``seconds`` have passed; alternate traced runs.

    The first command is a warm-up: checked, but not timed into any metric,
    because the first run in a process also pays for growing the heap. Unless
    tracing, each command is followed by calibration units and, while the
    probes have taken less than SETUP_SHARE of the command time, by one
    set-up probe, so both sample the same phases of the host as the commands.
    """
    import checks
    import spans
    from ptopt.data import clean_and_return, load_csv, yearly_splits

    table = clean_and_return(load_csv(data))
    schedule = yearly_splits(table, workload.first_test_year)
    check = checks.check_run if len(workload.strategies) == 1 else checks.check_compare
    deadline = time.perf_counter() + seconds
    warm = [_run_once(workload, data, scratch / "warm", table, schedule, check)]
    plain, traced, units, setup = [], [], [], []
    command_time = 0.0
    while True:
        use_trace = trace and len(plain) > len(traced)
        sample = _run_once(
            workload, data, scratch / f"out{len(plain) + len(traced)}", table, schedule, check,
            spans.Tracer() if use_trace else None,
        )
        (traced if use_trace else plain).append(sample)
        if not trace:
            seconds_run = sample.seconds if math.isfinite(sample.seconds) else 0.0
            units += _calibrate(seconds_run)
            command_time += seconds_run
            if sum(setup) <= SETUP_SHARE * command_time:
                setup.append(_setup_seconds(data, workload.first_test_year))
        if time.perf_counter() >= deadline and (traced or not trace):
            break
    while not trace and len(setup) < SETUP_MIN_SAMPLES:
        setup.append(_setup_seconds(data, workload.first_test_year))
        units += _calibrate(setup[-1])
    return warm, plain, traced, units, setup


def _median(values):
    return statistics.median(values) if values else float("nan")


def _spread(values) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" (quartiles {q1:.4f} .. {q3:.4f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A hermetic run: PT_SEED would silently override every --seed, and OpenBLAS
    # threads would oversubscribe the cores the search pool's two workers use.
    # Both must be settled before numpy is first imported.
    os.environ.pop("PT_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_ptopt()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    scratch = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch)
    data = scratch / "prices.csv"
    try:
        workload.write_input(args.seed, data)
        warm, plain, traced, units, setup = _measure(workload, data, args.seconds, bool(args.trace), scratch)
        # The set-up probes are children too, but each holds a subset of what
        # this process held (import plus ingest of the same CSV).
        peak_rss = _peak_rss_mib()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    samples = warm + plain + traced
    ok = [s for s in samples if s.ok]
    sharpes = {s.sharpe for s in ok}
    failed = len(samples) - len(ok)
    if len(sharpes) > 1:  # the allocator must be deterministic for a given market
        print(f"perfbench: oos_sharpe differs between identical runs: {sorted(sharpes)}", file=sys.stderr)
        failed = len(samples)
    run_times = [s.seconds for s in plain if math.isfinite(s.seconds)]

    # Host-speed rescaling of the times; 1 when tracing, which reports no run_s.
    scale = REF_UNIT_S / statistics.mean(units) if units else 1.0
    measured = {
        "setup_s": (
            _median(setup) * scale,
            f"median of {len(setup)} fresh interpreters, {_median(setup):.4f} s wall{_spread(setup)}",
        ),
        "run_s": (
            _median(run_times) * scale,
            f"median of {len(run_times)} runs, {_median(run_times):.4f} s wall{_spread(run_times)}",
        ),
        "peak_rss_mb": (peak_rss, "1 reading: max ru_maxrss of this process and its children"),
        "ok_ratio": ((len(samples) - failed) / len(samples), f"{len(samples) - failed} of {len(samples)} runs passed the output checks"),
    }
    if args.trace:
        layers = [s.layers for s in traced if s.ok]
        overhead = _median([s.seconds for s in traced if s.ok]) - _median(run_times)
        wanted = spec["per_layer"]
        measured = {
            m["name"]: (
                overhead if m["name"] == "trace.overhead_s" else _median([layer.get(m["name"], 0) for layer in layers]),
                f"median of {len(layers)} traced runs",
            )
            for m in wanted
        }
    else:
        wanted = spec["end_to_end"]

    env = _environment()
    sharpe = next(iter(sharpes), None)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# oos_sharpe {sharpe!r}: identical on every run of this market, so a guard rather than a bounded metric")
    if units:
        print(
            f"# times rescaled by {scale:.4f} to a host where a calibration unit takes {REF_UNIT_S * 1e3:g} ms:"
            f" {len(units)} units, mean {statistics.mean(units) * 1e3:.3f} ms{_spread(units)}"
        )
    if args.trace:
        print("# spans inside the search pool's worker processes are not collected; the search is one parent span")
    metrics = {}
    for m in wanted:
        value, count = measured[m["name"]]
        metrics[m["name"]] = {"value": value if math.isfinite(value) else None, "unit": m["unit"]}
        print(f"{m['name']:<36} {value:>16.6f} {m['unit']:<12} {count}")

    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "environment": env, "oos_sharpe": sharpe, "setup_s_samples": setup, "run_s_samples": run_times,
                "calibration_unit_samples": units, "scale": scale, **result,
            },
            indent=2,
        ) + "\n",
        encoding="utf-8",
    )
    if traced:
        with open(results_dir / f"{workload.name}-seed{args.seed}-spans.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent"])
            writer.writerows(traced[-1].spans or [])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
