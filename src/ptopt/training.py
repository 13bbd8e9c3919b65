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
from ptopt.errors import DataError, TrainingError, check_bounds
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
        check_bounds(self, batch_size=1, learning_rate=0, max_epochs=1, patience=1)


def _ending_at(r: np.ndarray, length: int, last: int, count: int) -> np.ndarray:
    """Read-only (count, length, n) view: the ``length`` rows of ``r`` ending at row last+i, for each i < count.
    A view that would start before row 0 raises DataError."""
    if count <= 0:
        return np.empty((0, length, r.shape[1]))
    first = last - length + 1
    if first < 0:
        raise DataError(f"{length} rows ending at row {last} start before the first row")
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
        check_bounds(self, budget=1)
        if any(not values for values in self.axes.values()):
            raise ValueError("every axis needs at least one candidate")

    def combinations(self) -> list[dict]:
        return [dict(zip(self.axes, combo)) for combo in itertools.product(*self.axes.values())]

    @classmethod
    def from_json(cls, text: str, names: tuple[str, ...]) -> dict[str, "HyperparamSpace"]:
        """Parse a space file: one space, ``{"axes": {...}, "budget": n}``, for each of ``names``, or an object of such
        spaces keyed by strategy name, every entry parsed before a key outside ``names`` is refused."""
        doc = json.loads(text)
        if not (isinstance(doc, dict) and doc and "axes" not in doc and all(isinstance(v, dict) for v in doc.values())):
            return dict.fromkeys(names, cls._from_doc(doc))
        spaces = {name: cls._from_doc(entry, f"{name}: ") for name, entry in doc.items()}
        stray = [name for name in spaces if name not in names]
        if stray:
            raise ValueError(f"has an entry for {stray[0]!r}, not a trained strategy of this command")
        return spaces

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
    return HyperparamSpace(axes={name: list(values) for name, values in _DEFAULT_AXES[strategy].items()})


# the combo keys each trainable strategy's model_config reads: every field of its
# config but the three a run sets itself. fit_config reads FIT_AXES.
MODEL_AXES = {
    kind: tuple(f.name for f in fields(cls.config_class) if f.name not in ("n_assets", "window", "seed"))
    for kind, cls in MODEL_KINDS.items()
}
FIT_AXES = ("learning_rate", "batch_size")


def model_config(strategy: str, n_assets: int, tau: int, combo: dict, seed: int):
    """The validated architecture config of a trainable strategy; an axis the combo leaves out keeps its default."""
    cls = MODEL_KINDS[strategy].config_class
    axes = {name: combo.get(name, getattr(cls, name)) for name in MODEL_AXES[strategy]}
    return cls(n_assets=n_assets, window=tau, seed=seed, **axes)


def build_model(strategy: str, n_assets: int, tau: int, combo: dict, seed: int):
    """Instantiate a trainable strategy model from sampled hyperparameters."""
    return MODEL_KINDS[strategy](model_config(strategy, n_assets, tau, combo, seed))


def fit_config(base_cfg: TrainConfig, combo: dict, seed: int) -> TrainConfig:
    """The validated fit config of a trial: ``base_cfg`` at ``seed``, with the combo's FIT_AXES."""
    return replace(base_cfg, seed=seed, **{name: combo.get(name, getattr(base_cfg, name)) for name in FIT_AXES})


def valid_combos(space: HyperparamSpace, strategy: str, tau: int) -> list[dict]:
    """The combos of ``space`` whose model and fit configs build, in grid order, the model's at 2 assets. An
    axis that neither the model nor its fit reads raises ValueError, and so does a space with no valid combo."""
    known = MODEL_AXES[strategy] + FIT_AXES
    unknown = [name for name in space.axes if name not in known]
    if unknown:
        raise ValueError(f"{strategy} reads no hyperparameter {unknown[0]!r}; its axes are {', '.join(known)}")
    every, combos, first_error = space.combinations(), [], None
    for combo in every:
        try:
            model_config(strategy, 2, tau, combo, 0)
            fit_config(TrainConfig(), combo, 0)
            combos.append(combo)
        except ValueError as exc:
            first_error = first_error or exc
    if not combos:
        raise ValueError(f"hyperparameter space contains no valid combination; the first, {every[0]}, fails: {first_error}")
    return combos


@dataclass(frozen=True)
class TrainedWalk:
    """How a trained walk fits split ``k``: a search of ``budget`` draws of ``combos`` at seed ``seed + 104729 * k``, or
    else one trial, listed nowhere, of a given winner or, at a ``budget`` of 0, of the one combo, at seed ``seed + k``. A
    search draws uniformly with replacement from its seed's generator, and its trial ``i`` fits at that seed plus ``i``."""

    strategy: str
    tau: int
    combos: list[dict]
    budget: int
    base_cfg: TrainConfig
    costs: CostModel
    seed: int

    def plan(self, k: int, split: Split, winner: dict | None = None) -> list:
        """The ``_run_trial`` payloads of split ``k``, ``split``: a search if the walk has a budget and no ``winner`` is given."""
        if self.budget and winner is None:
            combos, budget, seed = self.combos, self.budget, self.seed + 104729 * k
        else:
            combos, budget, seed = self.combos if winner is None else [winner], 1, self.seed + k
        picks = np.random.default_rng(seed).integers(0, len(combos), size=budget)
        return [(i, combos[j], self.strategy, split, self.tau, self.base_cfg, self.costs, seed) for i, j in enumerate(picks)]


def plan_walk(
    strategy: str, tau: int, space: HyperparamSpace | None, budget: int, base_combo: dict | None, base_cfg: TrainConfig,
    costs: CostModel, seed: int,
) -> TrainedWalk:
    """The checked plan of a ``strategy`` walk: a search of ``space``, else of the default grid if ``budget`` > 0,
    of ``budget`` draws a split, else the space's own, from the combos ``valid_combos`` keeps, each ``base_combo``
    key the space leaves out a one-value axis; else one fit of the base combo, which must be valid, at a budget of
    0. Configs are checked at 2 assets, the fewest a model takes: ``walk_outcomes`` checks the table's count."""
    combo = base_combo or {}
    if space is None and budget > 0:
        space = default_space(strategy)
    if space is None:  # the base combo's own error, which names its setting
        model_config(strategy, 2, tau, combo, seed=0)
        return TrainedWalk(strategy, tau, [combo], 0, base_cfg, costs, seed)
    axes = {**space.axes, **{k: [v] for k, v in combo.items() if k not in space.axes}}
    combos = valid_combos(replace(space, axes=axes), strategy, tau)
    return TrainedWalk(strategy, tau, combos, budget or space.budget, base_cfg, costs, seed)


@dataclass
class Trial:
    index: int
    params: dict
    train_loss: float
    val_loss: float
    seconds: float
    seed: int  # the seed its model was built and fitted at


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
    cfg = fit_config(base_cfg, combo, seed + index)
    start = time.perf_counter()
    try:
        result = fit(build_model(strategy, table.n_assets, tau, combo, cfg.seed), train, valid, cfg, costs)
        train_loss, val_loss = result.history[result.best_epoch].train_loss, result.best_val
    except TrainingError as exc:  # without its traceback, which would hold the fit's frames alive
        result, train_loss, val_loss = exc.with_traceback(None), np.inf, np.inf
    return Trial(index, combo, train_loss, val_loss, time.perf_counter() - start, cfg.seed), result


def _best(done: list) -> tuple:
    """The split's winning ``(Trial, result)``: least validation loss, then earliest; a failed fit ranks last."""
    return min(done, key=lambda d: (isinstance(d[1], TrainingError), d[0].val_loss))


def random_grid_search(walk: TrainedWalk, split: Split, done: list, n_assets: int, searched: bool) -> SplitOutcome:
    """The pick of ``walk``'s ``split`` from its ``(Trial, result)`` pairs in plan order: the best, listing all if ``searched``.

    If the ``_best`` trial's fit failed, so did every one's: raise TrainingError naming the test year and
    its error. The winner's model is built from its combo at its trial's seed and takes the fitted vector.
    """
    best, fit_result = _best(done)
    if isinstance(fit_result, TrainingError):
        year = f"test year {split.test_year}"
        where = year if len(done) == 1 else f"all {len(done)} trials for {year} failed; trial {best.index}"
        raise TrainingError(f"{where}: {fit_result}")
    model = build_model(walk.strategy, n_assets, walk.tau, best.params, best.seed)
    model.vector[:] = fit_result.vector
    return SplitOutcome(split.test_year, best.params, [t for t, _ in done] if searched else [], model, fit_result.history)


def walk_outcomes(
    table: ReturnTable, schedule: WalkForwardSchedule, strategies: list[str], walks: dict[str, TrainedWalk], jobs: int = 1,
    search_once: bool = False,
) -> Iterator[list[SplitOutcome]]:
    """Each of ``strategies``' outcomes of every split of ``schedule``, one list per strategy, in order (``[]`` for a
    rule), picked as the caller asks for it from one batch of every walk's ``_run_trial`` tasks on ``table``. The batch
    goes out after each strategy, in order, passes the first split (the one with the fewest rows): MV needs its lookback
    rows, a trained strategy 2 assets and a training and a validation window, else DataError. Under ``search_once`` a
    walk searches its first split only and the batch goes in two rounds: every walk's first split, then each later
    split's one fit of its first split's winner. If a round can run two fits at once, every round runs on one
    ``ProcessPoolExecutor`` of min(``jobs``, largest round) workers, which get the table once, through the initializer;
    else in-process. The executor is shut when the walk ends, raises or is closed. The walks read one stream of results
    in listed order: a list is picked when asked for, after every earlier one, and a split whose every fit failed raises
    then, never before an earlier walk's failure."""
    splits, n = schedule.splits, table.n_assets
    for s in strategies:
        if s == "mv" and splits[0].train_end < MVConfig.lookback:
            raise DataError(f"need {MVConfig.lookback} rows before {splits[0].test_year} for the mean-variance window")
        if s in walks and n < 2:
            raise DataError(f"{s} needs at least 2 assets, got {n}")
        if s in walks and not all(map(len, split_windows(table, splits[0], walks[s].tau))):
            raise DataError(f"training range before {splits[0].test_year} too short for window length {walks[s].tau}")
    trained = {s: walks[s] for s in strategies if s in walks}
    once = search_once and len(splits) > 1 and any(w.budget for w in trained.values())
    plans = {s: [w.plan(k, split) for k, split in enumerate(splits[: 1 if once else None])] for s, w in trained.items()}
    workers = min(jobs, max(sum(len(p) for ps in plans.values() for p in ps), once * len(trained) * (len(splits) - 1)))
    with contextlib.ExitStack() as stack:
        send = lambda payloads: map(_run_trial, payloads, itertools.repeat(table))
        if workers > 1:
            from concurrent.futures import BrokenExecutor, ProcessPoolExecutor  # here, so an import of ptopt loads no pool
            executor = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(table,))
            stack.callback(executor.shutdown, cancel_futures=True)
            def reading(results):  # a worker the OS killed breaks the pool: an OSError, so cli.main exits 2
                try:
                    yield from results
                except BrokenExecutor as err:
                    raise OSError(f"a trial worker died: {err}") from None
            send = lambda payloads: reading(executor.map(_run_trial, payloads))
        done, firsts = send([t for ps in plans.values() for p in ps for t in p]), {}
        if once:  # if every trial of a first split failed, its walk raises before its later fits are read
            firsts = {s: [next(done) for _ in ps[0]] for s, ps in plans.items()}
            for s, w in trained.items():
                plans[s] += [w.plan(k, split, _best(firsts[s])[0].params) for k, split in enumerate(splits[1:], 1)]
            done = send([t for ps in plans.values() for p in ps[1:] for t in p])
        for s in strategies:  # a split searches if its walk has a budget, unless it fits the first split's winner
            results, w = itertools.chain(firsts.pop(s, ()), done), trained.get(s)
            yield [
                random_grid_search(w, split, [next(results) for _ in plan], n, bool(w.budget) and not (once and k))
                for k, (split, plan) in enumerate(zip(splits, plans.get(s, ())))
            ]


# ---------------------------------------------------------------------------
# walk-forward


def walk_forward(
    table: ReturnTable, schedule: WalkForwardSchedule, strategy: str, outcomes: list[SplitOutcome] = (),
) -> WeightStream:
    """Emit daily allocations over every test year of ``schedule``.

    Rows go into one ``(test days, n)`` matrix, dated the decision day and
    earning the following trading day's returns. A rule fills it once, over the
    whole test stream, and takes no outcomes. MV does so in one ``blockwise``
    pass of as many days per ``mv_weights`` call as fit one ``(days, n, n)`` stack
    in ``_MV_STACK_BYTES``, so its temporaries do not grow with the universe.
    A trained strategy takes one outcome per split, as ``walk_outcomes`` picks them,
    and fills the split's rows from the outcome's model, retrained on all prior data.
    The walk checks no data: ``walk_outcomes`` does, before any fit, and a view before row 0 raises.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    expected = len(schedule.splits) if strategy in TRAINED_STRATEGIES else 0
    if len(outcomes) != expected:
        raise ValueError(f"a {strategy} walk of {len(schedule.splits)} splits takes {expected} outcomes, got {len(outcomes)}")
    n = table.n_assets
    start = schedule.splits[0].train_end - 1  # the stream's first decision row; the splits are consecutive
    dates = table.dates[start : schedule.splits[-1].test_end - 1]
    weights = np.empty((len(dates), n))
    if strategy == "equal_weight":
        weights[:] = equal_weights(n)
    elif strategy == "mv":
        mv = MVConfig()
        histories = _ending_at(table.returns, mv.lookback, start, len(dates))  # each test day's trailing rows, as views
        blockwise(lambda h: mv_weights(h, mv), histories, weights, max(1, _MV_STACK_BYTES // (8 * n * n)))
    for split, outcome in zip(schedule.splits, outcomes):
        first = split.train_end - 1  # one decision per test-year return row, dated the prior trading day
        rows = weights[first - start : split.test_end - 1 - start]  # this split's rows of the stream
        # every test day of the split, through the gradient-free forwards of ptopt.model.blockwise
        rows[:] = outcome.model.day_weights(_ending_at(table.returns, 2 * outcome.model.config.window, first, len(rows)))
    return WeightStream(dates, weights)
