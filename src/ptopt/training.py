"""Optimization and the walk-forward protocol.

Training maximizes the cost-adjusted Sharpe of overlapping return windows
with Adam and early stopping on a chronological validation holdout (the
final slice of each training segment; a random holdout would leak future
rows into training). Hyperparameters come from uniform random sampling of a
small grid's cross-product. The walk-forward loop retrains once per test
year on all history to date and emits one allocation per test day.

Every source of randomness is a seeded generator: batch shuffles derive
from the train seed plus the epoch index, trial models from the master
seed plus the trial index, so identical inputs reproduce identical runs.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from dataclasses import dataclass, fields, replace
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import ptopt.autograd as ag
from ptopt.autograd import Tensor
from ptopt.benchmarks import MODEL_KINDS, MVConfig, equal_weights, mv_weights
from ptopt.data import ReturnTable, Split, WalkForwardSchedule
from ptopt.errors import DataError, TrainingError
from ptopt.metrics import WeightStream
from ptopt.model import _cast_fields, blockwise
from ptopt.objective import CostModel, ReturnsWindow, sharpe_loss

# bytes of one (days, n, n) stack of the MV walk, whose mv_weights call holds about three such
# stacks: a chunk is this budget over n * n doubles in days, at least one (13 days at 50 assets)
_MV_STACK_BYTES = 256 * 1024

TRAINED_STRATEGIES = tuple(MODEL_KINDS)
STRATEGIES = (*TRAINED_STRATEGIES, "mv", "equal_weight")


class Adam:
    """Bias-corrected Adam over one flat parameter vector, updated in place."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, g: np.ndarray) -> None:
        if g.shape != self.params.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {self.params.shape}")
        self.step_count += 1
        t = self.step_count
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * g
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * g * g
        m_hat = self.m / (1.0 - self.BETA1**t)
        v_hat = self.v / (1.0 - self.BETA2**t)
        self.params -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-3
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        _cast_fields(self)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


def _ending_at(r: np.ndarray, length: int, last: int, count: int) -> np.ndarray:
    """Read-only (count, length, n) view: the ``length`` rows of ``r`` ending at row last+i, for each i < count."""
    if count <= 0:
        return np.empty((0, length, r.shape[1]))
    first = last - length + 1
    return sliding_window_view(r, length, axis=0)[first : first + count].transpose(0, 2, 1)


def build_windows(table: ReturnTable, tau: int, lo: int, hi: int) -> np.ndarray:
    """Every daily-stride training sample whose realized rows lie inside rows [lo, hi), as one
    read-only (count, 2*tau+1, n) view of ``table.returns``.

    Sample i is the 2*tau+1 rows ending one row after its decision row d: rows ``[:-1]`` are the
    block the model reads, ending at d, and rows ``[-tau:]`` are the returns its tau weight rows earn.
    """
    r = table.returns
    first = max(2 * tau - 1, lo + tau - 2)  # the first decision row
    count = min(hi - 2, r.shape[0] - 2) - first + 1
    return _ending_at(r, 2 * tau + 1, first + 1, count)


def split_windows(table: ReturnTable, split: Split, tau: int) -> tuple[np.ndarray, np.ndarray]:
    """The train and validation windows of a split: before and from ``val_start``."""
    return build_windows(table, tau, 0, split.val_start), build_windows(table, tau, split.val_start, split.train_end)


def make_batches(windows, batch_size: int, seed: int) -> Iterator:
    """Shuffle ``windows`` (anything indexable by an index array) into batches, each
    gathered only when the returned iterator reaches it; the arguments are checked at the call."""
    if not len(windows):
        raise TrainingError("cannot batch an empty window list")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(windows))
    return (windows[order[i : i + batch_size]] for i in range(0, len(order), batch_size))


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class FitResult:
    history: list[EpochStats]
    best_epoch: int
    best_val: float
    vector: np.ndarray  # the fitted ``model.vector``, in ``model.parameters()`` order


def _window_losses(model, samples: np.ndarray, costs: CostModel, rng=None) -> Tensor:
    """The loss of each ``build_windows`` sample: its block's weights against the returns they earn."""
    weights = model.window_weights(samples[:, :-1], rng=rng)
    return sharpe_loss(weights, ReturnsWindow(samples[:, -model.config.window :]), costs)


def evaluate_loss(model, windows: np.ndarray, costs: CostModel) -> float:
    """Mean window loss over every window, from the gradient-free forwards of ``ptopt.model.blockwise``.

    A window's loss does not depend on its batch, so one ``np.mean`` over the
    blocks' losses gives the bits of ``ag.mean`` over a single forward.
    """
    losses = blockwise(lambda w: _window_losses(model, w, costs).data, windows, np.empty(len(windows)))
    return float(np.mean(losses))


def train_step(model, params: list[Tensor], optimizer: Adam, batch: np.ndarray, costs: CostModel, rng, epoch: int, b_idx: int) -> float:
    """One Adam step on ``model``'s mean window loss over ``batch``; returns the loss.

    ``params`` are ``model.parameters()``' tensors, in order, and ``optimizer`` holds ``model.vector``.
    A non-finite loss raises, naming ``epoch`` and ``b_idx``, before any gradient or update."""
    for p in params:
        p.grad = None
    with ag.Tape() as tape:
        loss = ag.mean(_window_losses(model, batch, costs, rng))
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss {value} in epoch {epoch}, batch {b_idx}")
        ag.backward(loss, tape)
    optimizer.step(np.concatenate([p.grad for p in params], axis=None))
    return value


def fit(model, train_windows: np.ndarray, valid_windows: np.ndarray, cfg: TrainConfig, costs: CostModel = CostModel()) -> FitResult:
    """Train with the Sharpe loss until patience on validation runs out.

    Adam updates ``model.vector`` in place, which ends holding the best epoch's
    values and is returned as ``FitResult.vector``.
    """
    if not len(train_windows) or not len(valid_windows):
        raise TrainingError("fit needs non-empty train and validation window sets")
    params = list(model.parameters().values())
    flat = model.vector
    optimizer = Adam(flat, cfg.learning_rate)
    drop_rng = np.random.default_rng(cfg.seed)

    history: list[EpochStats] = []
    best_val = np.inf
    best_epoch = -1
    best_params = flat.copy()

    for epoch in range(cfg.max_epochs):
        loss_sum = 0.0
        for b_idx, batch in enumerate(make_batches(train_windows, cfg.batch_size, cfg.seed + epoch)):
            loss_sum += train_step(model, params, optimizer, batch, costs, drop_rng, epoch, b_idx) * len(batch)
        val_loss = evaluate_loss(model, valid_windows, costs)
        history.append(EpochStats(epoch=epoch, train_loss=loss_sum / len(train_windows), val_loss=val_loss))

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = flat.copy()
        elif epoch - best_epoch >= cfg.patience:
            break

    flat[:] = best_params
    return FitResult(history=history, best_epoch=best_epoch, best_val=best_val, vector=flat)


# ---------------------------------------------------------------------------
# hyperparameter search


@dataclass
class HyperparamSpace:
    """Candidate values per hyperparameter plus a sampling budget."""

    axes: dict[str, list]
    budget: int = 100

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if any(not values for values in self.axes.values()):
            raise ValueError("every axis needs at least one candidate")

    def combinations(self) -> list[dict]:
        return [dict(zip(self.axes, combo)) for combo in itertools.product(*self.axes.values())]

    @classmethod
    def from_json(cls, text: str) -> "HyperparamSpace | dict[str, HyperparamSpace]":
        """Parse a space file: one space, ``{"axes": {...}, "budget": n}``, or an
        object of such spaces keyed by strategy name."""
        doc = json.loads(text)
        if isinstance(doc, dict) and doc and "axes" not in doc and all(isinstance(v, dict) for v in doc.values()):
            return {name: cls._from_doc(entry, f"{name}: ") for name, entry in doc.items()}
        return cls._from_doc(doc)

    @classmethod
    def _from_doc(cls, doc, where: str = "") -> "HyperparamSpace":
        axes = doc.get("axes") if isinstance(doc, dict) else None
        if not isinstance(axes, dict) or not all(isinstance(v, list) for v in axes.values()):
            raise ValueError(f"{where}space JSON must be an object whose 'axes' maps names to lists")
        budget = doc.get("budget", cls.budget)
        if isinstance(budget, bool) or not isinstance(budget, int):
            raise ValueError(f"{where}space JSON 'budget' must be an integer, got {budget!r}")
        return cls(axes=axes, budget=budget)


_FIT_CANDIDATES = {
    "learning_rate": [1e-3, 3e-3, 1e-2],
    "batch_size": [16, 32],
}
_DEFAULT_AXES = {
    "pt": {
        "d_model": [8, 16, 32],
        "n_heads": [2, 4],
        "t2v_k": [3, 5],
        "n_layers": [1, 2],
        **_FIT_CANDIDATES,
        "dropout": [0.0, 0.1],
    },
    "lstm": {
        "hidden": [8, 16, 32],
        **_FIT_CANDIDATES,
    },
    "mlp": {
        "hidden": [[32], [64], [32, 16]],
        **_FIT_CANDIDATES,
    },
}


def default_space(strategy: str) -> HyperparamSpace:
    """The grid a ``--budget`` search samples when no ``--space`` file is given."""
    if strategy not in _DEFAULT_AXES:
        raise ValueError(f"no hyperparameter space for strategy {strategy!r}")
    return HyperparamSpace(axes={name: list(values) for name, values in _DEFAULT_AXES[strategy].items()})


# the combo keys each trainable strategy's model_config reads: every field of its
# config but the three a run sets itself. _run_trial reads FIT_AXES.
MODEL_AXES = {
    kind: tuple(f.name for f in fields(cls.config_class) if f.name not in ("n_assets", "window", "seed"))
    for kind, cls in MODEL_KINDS.items()
}
FIT_AXES = ("learning_rate", "batch_size")


def check_axes(space: HyperparamSpace, strategy: str) -> None:
    """Reject an axis that neither the strategy's model nor its fit reads."""
    known = MODEL_AXES[strategy] + FIT_AXES
    unknown = [name for name in space.axes if name not in known]
    if unknown:
        raise ValueError(f"{strategy} reads no hyperparameter {unknown[0]!r}; its axes are {', '.join(known)}")


def model_config(strategy: str, n_assets: int, tau: int, combo: dict, seed: int):
    """The validated architecture config of a trainable strategy; an axis the combo leaves out keeps its default."""
    if strategy not in MODEL_AXES:
        raise ValueError(f"not a trainable strategy: {strategy!r}")
    cls = MODEL_KINDS[strategy].config_class
    axes = {name: combo.get(name, getattr(cls, name)) for name in MODEL_AXES[strategy]}
    return cls(n_assets=n_assets, window=tau, seed=seed, **axes)


def build_model(strategy: str, n_assets: int, tau: int, combo: dict, seed: int):
    """Instantiate a trainable strategy model from sampled hyperparameters."""
    return MODEL_KINDS[strategy](model_config(strategy, n_assets, tau, combo, seed))


def _combo_error(strategy: str, n_assets: int, tau: int, combo: dict) -> str | None:
    """Why ``combo`` builds no valid model, or None if it does."""
    try:
        model_config(strategy, n_assets, tau, combo, seed=0)
    except ValueError as exc:
        return str(exc)
    return None


@dataclass
class Trial:
    index: int
    params: dict
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class SplitOutcome:
    """A trained split's combo and trials, the model it ships and that model's training curve."""

    test_year: int
    params: dict
    trials: list[Trial]
    model: object
    history: list[EpochStats]


_worker_table: ReturnTable | None = None  # a pool worker's table, set once by _init_worker


def _init_worker(table: ReturnTable) -> None:
    global _worker_table
    _worker_table = table


def _run_trial(payload, table: ReturnTable | None = None) -> tuple[Trial, FitResult | TrainingError]:
    """Fit the model ``combo`` describes on ``split``'s windows at seed ``seed + index``, on ``table``
    or in a pool worker on the table it was started with. Every fit of a walk runs here, so a
    search scores on validation exactly the model it ships. A fit's TrainingError is returned."""
    index, combo, strategy, split, tau, base_cfg, costs, seed = payload
    table = _worker_table if table is None else table
    train, valid = split_windows(table, split, tau)
    if not len(train) or not len(valid):
        raise DataError(f"training range before {split.test_year} too short for window length {tau}")
    cfg = replace(base_cfg, seed=seed + index, **{name: combo.get(name, getattr(base_cfg, name)) for name in FIT_AXES})
    start = time.perf_counter()
    try:
        result = fit(build_model(strategy, table.n_assets, tau, combo, cfg.seed), train, valid, cfg, costs)
        train_loss, val_loss = result.history[result.best_epoch].train_loss, result.best_val
    except TrainingError as exc:  # without its traceback, which would hold the fit's frames alive
        result, train_loss, val_loss = exc.with_traceback(None), np.inf, np.inf
    return Trial(index=index, params=combo, train_loss=train_loss, val_loss=val_loss, seconds=time.perf_counter() - start), result


class TrialPool(contextlib.AbstractContextManager):
    """Runs ``_run_trial`` tasks on ``table``: in-process, or with ``jobs > 1`` on one lazily
    started ``ProcessPoolExecutor`` whose workers get the table once, through the
    initializer, and serve every later batch. Leaving the context shuts it down."""

    def __init__(self, table: ReturnTable, jobs: int = 1):
        self.table, self.jobs, self._executor = table, jobs, None

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)

    def run(self, payloads: list) -> list[tuple[Trial, FitResult | TrainingError]]:
        if self.jobs <= 1:
            return [_run_trial(p, self.table) for p in payloads]
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor  # here, so an import of ptopt loads no pool
            self._executor = ProcessPoolExecutor(max_workers=self.jobs, initializer=_init_worker, initargs=(self.table,))
        return list(self._executor.map(_run_trial, payloads))


def random_grid_search(
    space: HyperparamSpace,
    strategy: str,
    table: ReturnTable,
    split: Split,
    tau: int,
    base_cfg: TrainConfig,
    costs: CostModel = CostModel(),
    seed: int = 0,
    pool: TrialPool | None = None,
) -> SplitOutcome:
    """Sample the grid uniformly with replacement and ship the best trial's model.

    Trial ``i`` fits on ``split``'s train and validation windows at seed ``seed + i``, on ``pool``
    (which must hold ``table``) or in-process. Ties on validation loss go to the earliest
    trial index, and a trial whose fit raised ranks last; if every one did, raise TrainingError
    naming the test year and the earliest trial's error. The winner's model is built from its
    combo and seed and takes the fitted vector.
    """
    pool = pool or TrialPool(table)
    if pool.table is not table:
        raise ValueError("the trial pool holds another return table")
    check_axes(space, strategy)
    every = space.combinations()
    errors = [_combo_error(strategy, table.n_assets, tau, c) for c in every]
    combos = [c for c, error in zip(every, errors) if error is None]
    if not combos:
        raise ValueError(f"hyperparameter space contains no valid combination; the first, {every[0]}, fails: {errors[0]}")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(combos), size=space.budget)
    done = pool.run([(i, combos[k], strategy, split, tau, base_cfg, costs, seed) for i, k in enumerate(picks)])
    best, fit_result = min(done, key=lambda d: (isinstance(d[1], TrainingError), d[0].val_loss))
    if isinstance(fit_result, TrainingError):  # every trial failed, and min kept the earliest
        year = f"test year {split.test_year}"
        where = year if len(done) == 1 else f"all {len(done)} trials for {year} failed; trial {best.index}"
        raise TrainingError(f"{where}: {fit_result}")
    model = build_model(strategy, table.n_assets, tau, best.params, seed + best.index)
    model.vector[:] = fit_result.vector
    return SplitOutcome(split.test_year, best.params, [t for t, _ in done], model, fit_result.history)


# ---------------------------------------------------------------------------
# walk-forward


@dataclass
class WalkForwardResult:
    stream: WeightStream
    outcomes: list[SplitOutcome]


def walk_forward(
    table: ReturnTable,
    schedule: WalkForwardSchedule,
    strategy: str,
    tau: int = 8,
    space: HyperparamSpace | None = None,
    base_cfg: TrainConfig = TrainConfig(),
    costs: CostModel = CostModel(),
    seed: int = 0,
    pool: TrialPool | None = None,
    search_each_split: bool = True,
    base_combo: dict | None = None,
) -> WalkForwardResult:
    """Retrain per test year on all prior data and emit daily allocations.

    Rows go into one ``(test days, n)`` matrix, dated the decision day and
    earning the following trading day's returns. A rule fills it once, over the
    whole test stream, and returns no outcomes. MV does so in one ``blockwise``
    pass of as many days per ``mv_weights`` call as fit one ``(days, n, n)`` stack
    in ``_MV_STACK_BYTES``, so its temporaries do not grow with the universe.
    A trained strategy walks split by split, one ``random_grid_search`` outcome each, on ``pool``
    (in-process if None), which must hold ``table``. With a ``space``, a search scored on the
    chronological validation slice picks the winner; a split that does not search (each without a
    space, the later ones unless ``search_each_split``) runs a one-trial search of the base combo,
    or of the first split's winner, at seed ``seed + split_idx`` and lists no trial. A
    ``base_combo`` key the space leaves out joins it as a one-value axis.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    n = table.n_assets
    start = schedule.splits[0].train_end - 1  # the stream's first decision row; the splits are consecutive
    dates = table.dates[start : schedule.splits[-1].test_end - 1]
    weights = np.empty((len(dates), n))
    if strategy == "equal_weight":
        weights[:] = equal_weights(n)
    elif strategy == "mv":
        mv = MVConfig()
        if schedule.splits[0].train_end < mv.lookback:  # the first split has the fewest rows before it
            raise DataError(f"need {mv.lookback} rows before {schedule.splits[0].test_year} for the mean-variance window")
        histories = _ending_at(table.returns, mv.lookback, start, len(dates))  # each test day's trailing rows, as views
        blockwise(lambda h: mv_weights(h, mv), histories, weights, max(1, _MV_STACK_BYTES // (8 * n * n)))
    if strategy not in TRAINED_STRATEGIES:
        return WalkForwardResult(stream=WeightStream(dates, weights), outcomes=[])

    outcomes: list[SplitOutcome] = []
    combo = base_combo or {}
    if space is not None and base_combo:
        space = replace(space, axes={**space.axes, **{k: [v] for k, v in base_combo.items() if k not in space.axes}})
    for split_idx, split in enumerate(schedule.splits):
        first = split.train_end - 1  # one decision per test-year return row, dated the prior trading day
        rows = weights[first - start : split.test_end - 1 - start]  # this split's rows of the stream
        if space is not None and (search_each_split or split_idx == 0):
            outcome = random_grid_search(space, strategy, table, split, tau, base_cfg, costs, seed + 104729 * split_idx, pool)
            combo = outcome.params
        else:  # a one-trial search: its generator draws index 0, so the trial fits at seed + split_idx
            one = HyperparamSpace(axes={k: [v] for k, v in combo.items()}, budget=1)
            outcome = random_grid_search(one, strategy, table, split, tau, base_cfg, costs, seed + split_idx, pool)
            outcome.trials = []
        # every test day of the split, through the gradient-free forwards of ptopt.model.blockwise
        rows[:] = outcome.model.day_weights(_ending_at(table.returns, 2 * tau, first, len(rows)))
        outcomes.append(outcome)

    return WalkForwardResult(stream=WeightStream(dates, weights), outcomes=outcomes)
