"""Span recording around ptopt's public entry points, installed from outside.

A :class:`Tracer` replaces each traced function with a wrapper that records
a span (name, start, end, parent) and, for some entry points, a work count.
ptopt's modules import each other by name (``from ptopt.training import
fit``), so a wrapper is installed on every module attribute bound to the
traced function, not only where it is defined. Methods are wrapped on their
class. Nothing in ``src/ptopt`` is edited; :meth:`Tracer.uninstall` puts every
original back.

Spans recorded inside the grid-search pool's forked workers stay in those
processes and are lost: the search shows up as one parent span
(``training.random_grid_search``) whose self time is the wait for the pool.

The only autograd entry point with a span is ``backward``, so
``autograd.self.s`` is backward time alone. The forward tape operations
(matmul, add, softmax, layer_norm and the rest) count towards the self time
of the layer that calls them, mostly ``model`` and ``objective``.
"""

from __future__ import annotations

import concurrent.futures
import pickle
import statistics
import sys
import time
from collections import Counter

import ptopt.autograd as ag
import ptopt.benchmarks as bm
import ptopt.cli
import ptopt.data
import ptopt.metrics
import ptopt.model as md
import ptopt.objective
import ptopt.training as tr

MODULES = ("autograd", "model", "objective", "training", "benchmarks", "metrics", "data", "cli")

# (span name, owner, attribute). Module functions are rebound wherever a
# ptopt module holds them; methods are rebound on their class.
FUNCTION_SPANS = (
    ("autograd.backward", ag, "backward"),
    ("model.embed_window", md, "embed_window"),
    ("model.multi_head_attention", md, "multi_head_attention"),
    ("model.grn", md, "grn"),
    ("model.save_checkpoint", md, "save_checkpoint"),
    ("model.load_checkpoint", md, "load_checkpoint"),
    ("objective.sharpe_loss", ptopt.objective, "sharpe_loss"),
    ("training.build_windows", tr, "build_windows"),
    ("training.fit", tr, "fit"),
    ("training.evaluate_loss", tr, "evaluate_loss"),
    ("training.random_grid_search", tr, "random_grid_search"),
    ("training.walk_forward", tr, "walk_forward"),
    ("benchmarks.lstm_forward", bm, "lstm_forward"),
    ("benchmarks.mv_weights", bm, "mv_weights"),
    ("data.load_csv", ptopt.data, "load_csv"),
    ("data.clean_and_return", ptopt.data, "clean_and_return"),
    ("data.yearly_splits", ptopt.data, "yearly_splits"),
    ("metrics.run_backtest", ptopt.metrics, "run_backtest"),
    ("metrics.compute_metrics", ptopt.metrics, "compute_metrics"),
    ("metrics.rolling_sharpe", ptopt.metrics, "rolling_sharpe"),
    ("metrics.write_series_csv", ptopt.metrics, "write_series_csv"),
    ("cli.main", ptopt.cli, "main"),
    ("cli.write_manifest", ptopt.cli, "write_manifest"),
    ("cli.render_table", ptopt.cli, "render_table"),
)
METHOD_SPANS = (
    ("model.encoder_layer", md.EncoderLayer, "forward"),
    ("model.decoder_layer", md.DecoderLayer, "forward"),
    ("model.window_weights", md.PortfolioTransformer, "window_weights"),
    ("model.day_weights", md.PortfolioTransformer, "day_weights"),
    ("benchmarks.mlp_window_weights", bm.MLPModel, "window_weights"),
    (None, bm.LSTMModel, "window_weights"),  # counted only: its forward is the lstm_forward span
    ("training.adam_step", tr.Adam, "step"),
)
# Taped nodes added by one training window (forward plus loss), per model kind.
WINDOW_KINDS = {md.PortfolioTransformer: "pt", bm.LSTMModel: "lstm", bm.MLPModel: "mlp"}


def _ptopt_modules():
    return [m for name, m in sys.modules.items() if name == "ptopt" or name.startswith("ptopt.")]


def _tape_len() -> int | None:
    tape = ag.active_tape()
    return None if tape is None else len(tape.nodes)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Records spans and counts while installed; aggregates them afterwards."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index (-1 = root)
        self.counts: Counter = Counter()
        self.fit_epochs: list[tuple[int, int]] = []  # (epochs run, max_epochs) per fit in this process
        self._nodes: Counter = Counter()
        self._windows: Counter = Counter()
        self._last_kind: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrap(self, name, fn, after=None, nodes_of=None):
        """``fn`` inside a span (unless ``name`` is None), then ``after(result, *args)``.

        ``nodes_of`` is a model kind, or "loss" for the loss of the window
        last run: the tape nodes the call adds are counted towards it.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            before = _tape_len() if nodes_of else None
            index = tracer._open(name) if name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    tracer._close(index)
            if before is not None:
                tracer._count_nodes(nodes_of, _tape_len() - before)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters at the same boundaries -----------------------------------

    def _count_nodes(self, kind: str, nodes: int) -> None:
        if kind == "loss":
            kind = self._last_kind
        else:
            self._windows[kind] += 1
            self._last_kind = kind
        if kind is not None:
            self._nodes[kind] += nodes

    def _on_backward(self, _result, *args, **kwargs):
        self.counts["autograd.tape_nodes"] += len(_arg(args, kwargs, 1, "tape").nodes)

    def _on_build_windows(self, windows, *args, **kwargs):
        self.counts["training.windows"] += len(windows)

    def _on_fit(self, result, *args, **kwargs):
        self.counts["training.epochs"] += len(result.history)
        self.fit_epochs.append((len(result.history), _arg(args, kwargs, 3, "cfg").max_epochs))

    def _on_step(self, *args, **kwargs):
        self.counts["training.optimizer_steps"] += 1

    def _on_search(self, result, *args, **kwargs):
        self.counts["training.trials"] += len(result.trials)

    def _on_load_csv(self, table, *args, **kwargs):
        self.counts["data.cells"] += table.prices.size

    def _payload_counting_pool(self):
        tracer = self

        class PayloadCountingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                tracer.counts["training.trial_payload_bytes"] += len(pickle.dumps((fn, args, kwargs)))
                return super().submit(fn, *args, **kwargs)

        return PayloadCountingPool

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for module in _ptopt_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "autograd.backward": self._on_backward,
            "training.build_windows": self._on_build_windows,
            "training.fit": self._on_fit,
            "training.random_grid_search": self._on_search,
            "training.adam_step": self._on_step,
            "data.load_csv": self._on_load_csv,
        }
        for name, owner, attr in FUNCTION_SPANS:
            fn = getattr(owner, attr)
            nodes_of = "loss" if name == "objective.sharpe_loss" else None
            self._rebind(fn, self._wrap(name, fn, after.get(name), nodes_of))
        for name, cls, attr in METHOD_SPANS:
            fn = vars(cls)[attr]
            nodes_of = WINDOW_KINDS[cls] if attr == "window_weights" else None
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, after.get(name), nodes_of))
        self._rebind(concurrent.futures.ProcessPoolExecutor, self._payload_counting_pool())

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers: inclusive seconds and calls per span name, self
        seconds per module, work counts, and day_weights latency percentiles."""
        out = Counter()
        child = Counter()
        for name, start, end, parent in self.spans:
            out[f"{name}.s"] += end - start
            out[f"{name}.calls"] += 1
            if parent >= 0:
                child[parent] += end - start
        # Self time counts only the command's own spans, those under cli.main;
        # a span outside it (the replay check's load_checkpoint) keeps its
        # inclusive time only.
        for module in MODULES:
            out[f"{module}.self.s"] = 0.0
        in_main = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            in_main.append(name == "cli.main" or (parent >= 0 and in_main[parent]))
            if in_main[index]:
                out[f"{name.split('.')[0]}.self.s"] += (end - start) - child[index]
        out.update(self.counts)
        for kind in WINDOW_KINDS.values():
            windows = self._windows[kind]
            out[f"autograd.nodes_per_window.{kind}"] = self._nodes[kind] / windows if windows else 0
        day_ms = [(end - start) * 1e3 for name, start, end, _ in self.spans if name == "model.day_weights"]
        if len(day_ms) >= 2:
            out["model.day_weights.ms_p50"] = statistics.median(day_ms)
            out["model.day_weights.ms_p90"] = statistics.quantiles(day_ms, n=10)[8]
        return dict(out)
