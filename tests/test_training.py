"""Optimizer, fitting loop, grid search, and walk-forward protocol tests."""

import csv
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import ptopt.autograd as ag
import ptopt.cli as cli
import ptopt.training as tr
from ptopt.autograd import Tensor
from ptopt.data import ReturnTable, Split, SynthConfig, WalkForwardSchedule, clean_and_return, synth_generate, yearly_splits
from ptopt.errors import DataError, TrainingError
from ptopt.metrics import EquityCurve, MetricsReport, run_backtest
from ptopt.model import PTConfig, PortfolioTransformer, _pack
from ptopt.objective import CostModel

from helpers import NamedAdam, concat, matmul, record_executors, search, walk


def make_table(n_days, n_assets=3, seed=5, momentum=0.0):
    prices = synth_generate(SynthConfig(n_assets=n_assets, n_days=n_days, seed=seed, momentum=momentum))
    return clean_and_return(prices)


# ---------------------------------------------------------------------------
# Adam


@pytest.mark.parametrize("g", [7.3, -0.2, 1e-4, -250.0])
def test_adam_first_step_moves_by_lr_times_sign(g):
    x = np.array([1.5])
    tr.Adam(x, lr=0.1).step(np.array([g]))
    # eps in the denominator shades the step slightly below lr for tiny g
    assert np.isclose(x[0] - 1.5, -0.1 * np.sign(g), rtol=1e-3)


def test_adam_zero_gradient_leaves_parameter_unchanged():
    x = np.array([2.0, -3.0])
    tr.Adam(x, lr=0.1).step(np.zeros(2))
    assert np.array_equal(x, [2.0, -3.0])


def test_adam_matches_reference_update_and_converges_on_quadratic():
    # oracle: the same update rule in plain scalar arithmetic
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    x_ref, m, v = 1.0, 0.0, 0.0
    x = np.array([1.0])
    opt = tr.Adam(x, lr=lr)
    for t in range(1, 201):
        g = 2.0 * x_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x_ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        opt.step(2.0 * x)
        assert np.isclose(x[0], x_ref, atol=1e-12)
    assert abs(x[0]) < 0.05


def test_adam_rejects_mismatched_gradient_shape():
    with pytest.raises(ValueError):
        tr.Adam(np.zeros(3), lr=0.1).step(np.zeros(2))


def test_flat_adam_equals_the_per_name_oracle_over_pt_parameters():
    model = PortfolioTransformer(PTConfig(n_assets=4, window=8))
    params = model.parameters()
    oracle = NamedAdam({name: p.data.copy() for name, p in params.items()}, lr=3e-3)
    opt = tr.Adam(model.vector, lr=3e-3)
    rng = np.random.default_rng(0)
    for _ in range(60):
        # magnitudes from 1e-6 to 1e2, so eps and the bias corrections both matter
        grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.uniform(-6, 2) for name, p in params.items()}
        oracle.step(grads)
        opt.step(np.concatenate(list(grads.values()), axis=None))
    for name, p in params.items():
        assert np.array_equal(p.data, oracle.params[name]), name


@pytest.mark.parametrize(
    "strategy, combo",
    [
        ("pt", {"n_layers": 2, "n_heads": 4, "t2v_k": 5, "dropout": 0.1}),
        ("lstm", {}),
        ("mlp", {"hidden": [32, 16]}),
    ],
    ids=["pt", "lstm", "mlp"],
)
def test_one_training_step_gives_every_parameter_a_gradient(strategy, combo):
    # train_step gathers one flat gradient from every parameter, so none may be left without one
    table = make_table(120, momentum=0.4)
    batch = tr.build_windows(table, 8, 0, 100)[np.arange(16)]
    model = tr.build_model(strategy, 3, 8, combo, seed=4)
    params = list(model.parameters().values())
    tr.train_step(model, params, tr.Adam(model.vector, 1e-3), batch, CostModel(), np.random.default_rng(0), 0, 0)
    missing = [name for name, p in model.parameters().items() if p.grad is None or p.grad.shape != p.shape]
    assert not missing


# ---------------------------------------------------------------------------
# window building and batching


def decision_rows(table, samples):
    """The decision row of each sample, found by matching it against every run of rows of the table;
    a sample's last row is the day after its decision."""
    length = samples.shape[1]
    runs = sliding_window_view(table.returns, length, axis=0).transpose(0, 2, 1)
    return [int(np.flatnonzero((runs == s).all(axis=(1, 2)))[0]) + length - 2 for s in samples]


def test_build_windows_alignment():
    table = make_table(80)
    tau = 4
    samples = tr.build_windows(table, tau, 0, 50)
    r = table.returns
    decisions = range(2 * tau - 1, 49)
    assert samples.shape == (len(decisions), 2 * tau + 1, 3)
    assert not samples.flags.writeable
    for sample, d in zip(samples, decisions):
        assert np.array_equal(sample[: 2 * tau], r[d - 2 * tau + 1 : d + 1])
        assert np.array_equal(sample[-tau:], r[d - tau + 2 : d + 2])


def test_build_windows_daily_stride():
    table = make_table(60)
    idx = decision_rows(table, tr.build_windows(table, 4, 0, 40))
    assert idx == list(range(idx[0], idx[0] + len(idx)))


def test_build_windows_respects_realized_range():
    table = make_table(80)
    tau = 5
    for d in decision_rows(table, tr.build_windows(table, tau, 30, 60)):
        first_realized = d - tau + 2
        last_realized = d + 1
        assert first_realized >= 30
        assert last_realized <= 59


def test_build_windows_realized_is_one_day_ahead_of_block():
    # the block ends on the decision row, the earned rows end one row later
    table = make_table(60)
    sample = tr.build_windows(table, 4, 0, 40)[0]
    d = 2 * 4 - 1  # the first decision row with a full block
    assert np.array_equal(sample[-1], table.returns[d + 1])
    assert np.array_equal(sample[:-1][-1], table.returns[d])


def test_make_batches_sizes_with_remainder():
    windows = np.arange(10)
    sizes = [len(b) for b in tr.make_batches(windows, 4, seed=0)]
    assert sizes == [4, 4, 2]


def test_make_batches_is_a_partition():
    windows = np.arange(23)
    batches = tr.make_batches(windows, 5, seed=3)
    flat = [x for b in batches for x in b]
    assert sorted(flat) == list(windows)


def test_make_batches_same_seed_same_order():
    windows = np.arange(12)
    a = tr.make_batches(windows, 4, seed=9)
    b = tr.make_batches(windows, 4, seed=9)
    assert [x.tolist() for x in a] == [x.tolist() for x in b]


def test_make_batches_seed_varies_order():
    windows = np.arange(12)
    orders = {tuple(x for b in tr.make_batches(windows, 4, seed=s) for x in b) for s in range(5)}
    assert len(orders) >= 2


def test_make_batches_rejects_empty_list():
    with pytest.raises(TrainingError):
        tr.make_batches([], 4, seed=0)


# ---------------------------------------------------------------------------
# fit


class Steerable:
    """One-parameter model whose loss direction is planted in the block.

    Scores of a block are [[k * theta, 0]] * 2 where k is block[0, 0], so the
    training data can be arranged to push theta up while validation data
    punishes it.
    """

    kind = "steerable"
    config = SimpleNamespace(window=2)

    def __init__(self, theta=0.0):
        self.theta = Tensor(np.array([[theta]]), requires_grad=True)
        self.vector = _pack(self.parameters())

    def parameters(self):
        return {"theta": self.theta}

    def window_weights(self, blocks, rng=None):
        k = Tensor(blocks[:, :1, :1])
        scaled = matmul(k, self.theta)
        row = concat([scaled, Tensor(np.zeros_like(k.data))], axis=-1)
        return ag.signed_softmax(concat([row, row], axis=-2))


def steer_window(up, realized_first):
    """One sample in the ``build_windows`` layout at window 2: row 0 steers, the last 2 rows are earned."""
    sample = np.zeros((5, 2))
    sample[0, 0] = 1.0 if up else -1.0
    sample[-2:, 0] = realized_first
    return sample[None]


def test_fit_patience_one_stops_after_two_epochs_and_restores():
    # training pushes theta up, validation strictly worsens as it rises
    train = steer_window(True, 0.02)
    valid = steer_window(True, -0.02)
    model = Steerable()
    cfg = tr.TrainConfig(batch_size=1, learning_rate=0.1, max_epochs=50, patience=1, seed=0)
    result = tr.fit(model, train, valid, cfg, CostModel(0.0))
    assert len(result.history) == 2
    assert result.best_epoch == 0
    assert result.history[1].val_loss > result.history[0].val_loss
    assert tr.evaluate_loss(model, valid, CostModel(0.0)) == result.history[0].val_loss


def test_fit_restored_loss_equals_best_observed():
    table = make_table(160, momentum=0.4)
    train = tr.build_windows(table, 4, 0, 100)
    valid = tr.build_windows(table, 4, 100, 140)
    model = tr.build_model("mlp", 3, 4, {"hidden": (6,)}, seed=2)
    result = tr.fit(model, train, valid, tr.TrainConfig(max_epochs=5, learning_rate=3e-3, seed=1))
    best = min(h.val_loss for h in result.history)
    assert result.best_val == best
    assert tr.evaluate_loss(model, valid, CostModel()) == best


def test_fit_train_loss_decreases_on_planted_signal():
    table = make_table(200, seed=3, momentum=0.5)
    train = tr.build_windows(table, 4, 0, 130)
    valid = tr.build_windows(table, 4, 130, 160)
    model = PortfolioTransformer(PTConfig(n_assets=3, window=4, d_model=8, n_heads=2, t2v_k=2, n_layers=1, seed=7))
    result = tr.fit(model, train, valid, tr.TrainConfig(batch_size=32, learning_rate=3e-3, max_epochs=4, seed=1))
    assert result.history[-1].train_loss < result.history[0].train_loss


def test_fit_identical_seeds_identical_history():
    table = make_table(140, seed=11)
    train = tr.build_windows(table, 4, 0, 90)
    valid = tr.build_windows(table, 4, 90, 120)
    histories = []
    for _ in range(2):
        model = tr.build_model("lstm", 3, 4, {"hidden": 5}, seed=4)
        result = tr.fit(model, train, valid, tr.TrainConfig(max_epochs=3, seed=6))
        histories.append([(h.epoch, h.train_loss, h.val_loss) for h in result.history])
    assert histories[0] == histories[1]


def test_fit_keeps_the_first_of_tied_epochs():
    # at learning rate 0 every epoch's validation loss ties, so epoch 0 stays best and patience runs out
    table = make_table(200, momentum=0.4)
    train = tr.build_windows(table, 4, 0, 140)
    valid = tr.build_windows(table, 4, 140, 180)
    model = tr.build_model("mlp", 3, 4, {"hidden": (6,)}, seed=2)
    result = tr.fit(model, train, valid, tr.TrainConfig(learning_rate=0.0, max_epochs=20, patience=3))
    assert result.best_epoch == 0
    assert len(result.history) == 3 + 1


def test_fit_aborts_on_non_finite_loss_naming_batch():
    train = steer_window(True, 0.02)
    valid = steer_window(True, 0.01)
    model = Steerable(theta=np.nan)
    with pytest.raises(TrainingError, match=r"epoch 0, batch 0"):
        tr.fit(model, train, valid, tr.TrainConfig(batch_size=1, max_epochs=2))


def test_fit_rejects_empty_window_lists():
    model = Steerable()
    with pytest.raises(TrainingError):
        tr.fit(model, steer_window(True, 0.01)[[]], steer_window(True, 0.01), tr.TrainConfig())
    with pytest.raises(TrainingError):
        tr.fit(model, steer_window(True, 0.01), steer_window(True, 0.01)[[]], tr.TrainConfig())


# ---------------------------------------------------------------------------
# hyperparameter search


def test_space_combinations_cross_product():
    space = tr.HyperparamSpace(axes={"a": [1, 2], "b": [10, 20, 30]}, budget=5)
    combos = space.combinations()
    assert len(combos) == 6
    assert {"a": 2, "b": 30} in combos


def test_space_rejects_an_empty_axis():
    with pytest.raises(ValueError):
        tr.HyperparamSpace(axes={"a": []})


def test_space_json_roundtrip():
    spaces = tr.HyperparamSpace.from_json('{"axes": {"hidden": [4, 8]}, "budget": 7}', ("lstm", "mlp"))
    space = spaces["lstm"]
    assert space.axes == {"hidden": [4, 8]}
    assert space.budget == 7
    # one space is every name's
    assert spaces == {"lstm": space, "mlp": space}
    for bad in (
        "{}", "[1, 2]", '{"axes": [4, 8]}', '{"axes": {"hidden": 4}}',
        '{"axes": {"hidden": [4]}, "budget": null}', '{"axes": {"hidden": [4]}, "budget": [1]}',
        '{"axes": {"hidden": [4]}, "budget": true}', '{"axes": {"hidden": [4]}, "budget": 2.5}',
    ):
        with pytest.raises(ValueError):
            tr.HyperparamSpace.from_json(bad, ("lstm",))


def test_space_json_keyed_by_strategy():
    text = '{"lstm": {"axes": {"hidden": [4]}, "budget": 3}, "pt": {"axes": {"d_model": [8]}}}'
    spaces = tr.HyperparamSpace.from_json(text, ("pt", "lstm", "mlp"))
    assert spaces == {
        "lstm": tr.HyperparamSpace(axes={"hidden": [4]}, budget=3),
        "pt": tr.HyperparamSpace(axes={"d_model": [8]}),
    }
    # a bad entry is named
    with pytest.raises(ValueError, match="^pt: "):
        tr.HyperparamSpace.from_json('{"lstm": {"axes": {"hidden": [4]}}, "pt": {"axes": {"d_model": 8}}}', ("pt", "lstm"))
    # a key outside the names is refused, but only after every entry parsed: a bad entry is reported first
    with pytest.raises(ValueError, match="^has an entry for 'pt', not a trained strategy of this command$"):
        tr.HyperparamSpace.from_json(text, ("lstm",))
    with pytest.raises(ValueError, match="^pt: "):
        tr.HyperparamSpace.from_json('{"pt": {"axes": {"d_model": 8}}, "lstm": {"axes": {"hidden": [4]}}}', ("lstm",))


def search_fixture(momentum=0.5):
    table = make_table(170, seed=3, momentum=momentum)
    return table, Split(test_year=2014, train_end=150, val_start=110, test_end=170)


def test_search_budget_and_single_combo():
    table, split = search_fixture()
    space = tr.HyperparamSpace(axes={"hidden": [4]}, budget=3)
    result = search(
        space, "lstm", table, split, 4, tr.TrainConfig(max_epochs=1), seed=0
    )
    assert len(result.trials) == 3
    assert all(t.params == {"hidden": 4} for t in result.trials)
    assert result.params == {"hidden": 4}


def test_search_zero_learning_rate_loses():
    table, split = search_fixture()
    space = tr.HyperparamSpace(axes={"hidden": [4], "learning_rate": [0.0, 1e-2]}, budget=6)
    result = search(
        space, "mlp", table, split, 4, tr.TrainConfig(max_epochs=10), seed=1
    )
    sampled = {t.params["learning_rate"] for t in result.trials}
    assert sampled == {0.0, 1e-2}
    assert result.params["learning_rate"] == 1e-2
    frozen = min(t.val_loss for t in result.trials if t.params["learning_rate"] == 0.0)
    moving = min(t.val_loss for t in result.trials if t.params["learning_rate"] == 1e-2)
    assert moving < frozen


def tie_trials(monkeypatch, fail_first=False):
    """Make every trial end at the same validation loss, each with its own one-value fit; with
    ``fail_first``, trial 0's fit fails instead."""
    def tied(payload, table=None):
        i, combo, *_, seed = payload  # each trial at the seed _run_trial fits it at
        if fail_first and i == 0:
            return tr.Trial(i, combo, np.inf, np.inf, 0.0, seed + i), TrainingError("non-finite loss")
        return tr.Trial(i, combo, 0.0, 1.0, 0.0, seed + i), tr.FitResult([], 0, 1.0, np.array([float(i)]))

    monkeypatch.setattr(tr, "_run_trial", tied)


def test_search_breaks_a_tie_for_the_earliest_trial(monkeypatch):
    table, split = search_fixture()
    tie_trials(monkeypatch)
    space = tr.HyperparamSpace(axes={"hidden": [3, 5]}, budget=2)
    result = search(space, "lstm", table, split, 4, tr.TrainConfig(), seed=7)
    assert result.params == result.trials[0].params
    assert result.model.config.seed == 7 + 0
    assert set(result.model.vector.tolist()) == {0.0}  # trial 0's one-value vector, broadcast


def test_search_ships_a_trial_that_trained_over_an_earlier_one_that_failed(monkeypatch):
    table, split = search_fixture()
    tie_trials(monkeypatch, fail_first=True)
    space = tr.HyperparamSpace(axes={"hidden": [3, 5]}, budget=2)
    result = search(space, "lstm", table, split, 4, tr.TrainConfig(), seed=7)
    assert result.params == result.trials[1].params
    assert result.model.config.seed == 7 + 1
    assert set(result.model.vector.tolist()) == {1.0}


def test_the_pick_reads_its_walk_split_and_trials_alone():
    # hand-made (Trial, result) pairs: no payload anywhere, and seeds no plan would give
    walk = tr.plan_walk("lstm", 4, tr.HyperparamSpace({"hidden": [3, 5]}, 3), 0, None, tr.TrainConfig(), CostModel(), 0)
    split = Split(test_year=2014, train_end=150, val_start=110, test_end=170)

    def pair(index, hidden, val_loss, seed, failed=False):
        trial = tr.Trial(index, {"hidden": hidden}, 0.0, val_loss, 0.0, seed)
        if failed:
            return trial, TrainingError("non-finite loss")
        vector = np.full(tr.build_model("lstm", 3, 4, {"hidden": hidden}, 0).vector.size, float(index))
        return trial, tr.FitResult([tr.EpochStats(0, 0.5, val_loss)], 0, val_loss, vector)

    done = [pair(0, 3, 2.0, 11), pair(1, 5, 1.0, 42), pair(2, 3, 1.0, 43)]
    outcome = tr.random_grid_search(walk, split, done, 3, True)
    # trials 1 and 2 tie: the earlier ships, built at its own trial's seed, with its fitted vector and curve
    assert (outcome.test_year, outcome.params) == (2014, {"hidden": 5})
    assert (outcome.model.config.seed, outcome.model.config.hidden, outcome.model.config.n_assets) == (42, 5, 3)
    assert set(outcome.model.vector.tolist()) == {1.0}
    assert outcome.history == done[1][1].history
    # the trials are listed only when the split searched
    assert outcome.trials == [t for t, _ in done]
    assert tr.random_grid_search(walk, split, done, 3, False).trials == []
    # a failed fit ranks last, and an all-failed split raises naming its year
    assert tr.random_grid_search(walk, split, [pair(0, 5, -np.inf, 7, failed=True), *done], 3, True).model.config.seed == 42
    failed = [pair(0, 3, np.inf, 11, failed=True), pair(1, 5, np.inf, 12, failed=True)]
    with pytest.raises(TrainingError, match="^all 2 trials for test year 2014 failed; trial 0: non-finite loss$"):
        tr.random_grid_search(walk, split, failed, 3, True)
    with pytest.raises(TrainingError, match="^test year 2014: non-finite loss$"):
        tr.random_grid_search(walk, split, failed[1:], 3, False)


def test_search_filters_invalid_combinations():
    table, split = search_fixture()
    space = tr.HyperparamSpace(
        axes={"d_model": [8], "n_heads": [3, 2], "t2v_k": [2], "n_layers": [1]}, budget=2
    )
    result = search(
        space, "pt", table, split, 4, tr.TrainConfig(max_epochs=1), seed=0
    )
    assert all(t.params["n_heads"] == 2 for t in result.trials)


def test_combo_filter_validates_configs_like_built_models():
    # oracle: the filter as it was, building every model to catch ValueError
    def builds(strategy, combo):
        try:
            tr.build_model(strategy, 4, 8, combo, seed=0)
        except ValueError:
            return False
        return True

    for strategy in tr.TRAINED_STRATEGIES:
        combos = tr.default_space(strategy).combinations()
        kept = tr.valid_combos(tr.default_space(strategy), strategy, 8)
        assert kept == [c for c in combos if builds(strategy, c)]
        assert len(kept) == len(combos)
    space = tr.HyperparamSpace(axes={"d_model": [8, 12], "n_heads": [2, 3], "t2v_k": [2]})
    user, kept = space.combinations(), tr.valid_combos(space, "pt", 8)
    assert kept == [c for c in user if builds("pt", c)]
    assert kept == [{"d_model": 8, "n_heads": 2, "t2v_k": 2}, {"d_model": 12, "n_heads": 2, "t2v_k": 2}, {"d_model": 12, "n_heads": 3, "t2v_k": 2}]


@pytest.mark.parametrize("strategy", tr.TRAINED_STRATEGIES)
def test_an_empty_combo_builds_the_config_class_defaults(strategy):
    config_class = tr.MODEL_KINDS[strategy].config_class
    assert tr.model_config(strategy, 4, 8, {}, 3) == config_class(n_assets=4, window=8, seed=3)


def test_axes_and_strategies_derive_from_the_model_table():
    assert tr.MODEL_AXES == {
        "pt": ("d_model", "n_heads", "t2v_k", "n_layers", "attention_scale_mode", "dropout"),
        "lstm": ("hidden",),
        "mlp": ("hidden",),
    }
    assert tr.TRAINED_STRATEGIES == ("pt", "lstm", "mlp")
    assert tr.STRATEGIES == ("pt", "lstm", "mlp", "mv", "equal_weight")


def test_space_file_numbers_become_declared_field_types():
    cfg = tr.model_config("pt", 4, 8, {"d_model": 8.0, "n_heads": "2", "dropout": 0}, 0)
    assert (cfg.d_model, cfg.n_heads, cfg.dropout) == (8, 2, 0.0)
    assert (type(cfg.d_model), type(cfg.n_heads), type(cfg.dropout)) == (int, int, float)
    assert type(tr.model_config("lstm", 4, 8, {"hidden": 4.0}, 0).hidden) is int
    # a value the field cannot hold exactly is rejected, never truncated
    for combo in ({"d_model": 8.5}, {"n_layers": True}, {"dropout": False}, {"t2v_k": [3]}, {"attention_scale_mode": 1}):
        with pytest.raises(ValueError):
            tr.model_config("pt", 4, 8, combo, 0)
    with pytest.raises(ValueError, match="d_model"):
        PTConfig(n_assets=4, window=8, d_model=8.5, n_heads=2)
    with pytest.raises(ValueError):
        tr.model_config("lstm", 4, 8, {"hidden": 3.9}, 0)
    for bad in ({"max_epochs": 1.5}, {"batch_size": True}, {"learning_rate": "fast"}):
        with pytest.raises(ValueError):
            tr.TrainConfig(**bad)
    # so a search drops a combo holding one, as it drops any invalid combo
    space = tr.HyperparamSpace(axes={"d_model": [8.5, 8.0], "n_heads": [2]})
    assert tr.valid_combos(space, "pt", 8) == [{"d_model": 8.0, "n_heads": 2}]


class _ReadKeys(dict):
    """A combo that records which keys are read from it."""

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("strategy", tr.TRAINED_STRATEGIES)
def test_axes_are_exactly_the_keys_a_fit_reads(strategy, monkeypatch):
    combo = _ReadKeys()
    tr.model_config(strategy, 4, 8, combo, seed=0)
    assert combo.read == set(tr.MODEL_AXES[strategy])

    def no_fit(*a, **k):
        raise TrainingError("non-finite loss nan in epoch 0, batch 0")

    monkeypatch.setattr(tr, "fit", no_fit)
    table, split = search_fixture()
    combo = _ReadKeys()
    [task] = tr.TrainedWalk(strategy, 8, [combo], 0, tr.TrainConfig(), CostModel(), 0).plan(0, split)
    trial, result = tr._run_trial(task, table)
    assert combo.read == set(tr.MODEL_AXES[strategy]) | set(tr.FIT_AXES)
    # a failed fit comes back as its error, and its trial ranks last
    assert isinstance(result, TrainingError) and "epoch 0, batch 0" in str(result)
    assert result.__traceback__ is None  # it keeps none of the fit's frames alive
    assert trial.val_loss == np.inf


@pytest.mark.parametrize(
    "strategy,axes",
    [
        ("pt", {"d_modle": [8, 16]}),
        ("pt", {"d_model": [8], "hidden": [4]}),
        ("lstm", {"hidden": [4], "d_model": [8]}),
        ("mlp", {"dropout": [0.1]}),
    ],
)
def test_search_rejects_an_axis_no_model_reads(strategy, axes):
    table, split = search_fixture()
    space = tr.HyperparamSpace(axes=axes, budget=2)
    unknown = next(a for a in axes if a not in tr.MODEL_AXES[strategy])
    with pytest.raises(ValueError, match=repr(unknown)):
        search(space, strategy, table, split, 4, tr.TrainConfig(max_epochs=1))
    schedule = yearly_splits(make_table(600), 2015)
    with pytest.raises(ValueError, match=repr(unknown)):
        walk(make_table(600), schedule, strategy, tau=4, space=space, base_cfg=tr.TrainConfig(max_epochs=1))


def test_search_accepts_every_default_axis_and_the_fit_axes():
    for strategy in tr.TRAINED_STRATEGIES:
        tr.valid_combos(tr.default_space(strategy), strategy, 8)
        tr.valid_combos(tr.HyperparamSpace(axes={"learning_rate": [1e-3], "batch_size": [8]}), strategy, 8)


def test_search_no_valid_combination_raises():
    table, split = search_fixture()
    space = tr.HyperparamSpace(axes={"d_model": [8], "n_heads": [3], "t2v_k": [2], "n_layers": [1]})
    with pytest.raises(ValueError):
        search(space, "pt", table, split, 4, tr.TrainConfig(max_epochs=1))


def test_search_deterministic_across_runs():
    table, split = search_fixture()
    space = tr.HyperparamSpace(axes={"hidden": [3, 5]}, budget=3)
    runs = [
        search(space, "lstm", table, split, 4, tr.TrainConfig(max_epochs=1), seed=2)
        for _ in range(2)
    ]
    a, b = ([(t.params["hidden"], t.train_loss, t.val_loss) for t in r.trials] for r in runs)
    assert a == b


def test_search_parallel_matches_serial():
    table, split = search_fixture()
    space = tr.HyperparamSpace(axes={"hidden": [3, 5]}, budget=2)
    serial = search(space, "lstm", table, split, 4, tr.TrainConfig(max_epochs=1), seed=2, jobs=1)
    parallel = search(space, "lstm", table, split, 4, tr.TrainConfig(max_epochs=1), seed=2, jobs=2)
    assert [(t.params, t.train_loss, t.val_loss) for t in serial.trials] == [
        (t.params, t.train_loss, t.val_loss) for t in parallel.trials
    ]
    assert serial.model.config.seed == parallel.model.config.seed
    assert np.array_equal(serial.model.vector, parallel.model.vector)


@pytest.fixture
def recording_executor(monkeypatch):
    return record_executors(monkeypatch)


def test_search_payloads_carry_neither_table_nor_windows(recording_executor):
    import pickle

    space = tr.HyperparamSpace(axes={"hidden": [3, 5]}, budget=2)
    sizes = []
    for n_days in (800, 1600):
        table = make_table(n_days, seed=3)
        split = Split(test_year=2014, train_end=n_days - 100, val_start=n_days - 200, test_end=n_days)
        search(space, "lstm", table, split, 4, tr.TrainConfig(max_epochs=1), seed=2, jobs=2)
        executor = recording_executor[-1]
        assert executor.initargs == (table,)  # the table goes to each worker once, at start-up
        assert len(executor.payloads) == 2
        for payload in executor.payloads:
            assert not any(isinstance(item, (ReturnTable, np.ndarray)) for item in payload)
        sizes.append({len(pickle.dumps(payload)) for payload in executor.payloads})
    # a payload does not grow with the table
    assert sizes[0] == sizes[1]


def test_a_walk_starts_one_executor_only_for_a_round_of_two_fits_and_shuts_it(recording_executor):
    table = make_table(300, seed=3, momentum=0.5)
    schedule = WalkForwardSchedule([Split(2014, 200, 160, 250), Split(2015, 250, 210, 300)])
    space = tr.HyperparamSpace(axes={"hidden": [3, 5]}, budget=2)
    cfg = tr.TrainConfig(max_epochs=1)
    serial = walk(table, schedule, "lstm", tau=4, space=space, base_cfg=cfg, seed=2, jobs=1).outcomes
    # one fit a round: a one-trial search of one split, or --search-once's one-trial search and one later fit
    walk(table, WalkForwardSchedule(schedule.splits[:1]), "lstm", tau=4, space=replace(space, budget=1), base_cfg=cfg, jobs=2)
    walk(table, schedule, "lstm", tau=4, space=replace(space, budget=1), base_cfg=cfg, jobs=2, search_once=True)
    assert recording_executor == []
    pooled = walk(table, schedule, "lstm", tau=4, space=space, base_cfg=cfg, seed=2, jobs=8).outcomes
    [executor] = recording_executor
    # both splits' searches on one executor of as many workers as the round has fits, shut when the walk ends
    assert executor.max_workers == 4 and executor.shut and len(executor.payloads) == 4
    for a, b in zip(serial, pooled):
        assert [(t.params, t.val_loss) for t in a.trials] == [(t.params, t.val_loss) for t in b.trials]


def test_a_walk_shuts_its_executor_when_a_fit_fails_or_it_is_closed(recording_executor, monkeypatch):
    table = make_table(300, seed=3, momentum=0.5)
    schedule = WalkForwardSchedule([Split(2014, 200, 160, 250), Split(2015, 250, 210, 300)])
    walks = {s: tr.plan_walk(s, 4, None, 2, None, tr.TrainConfig(max_epochs=1), CostModel(), 0) for s in ("lstm", "mlp")}
    walked = tr.walk_outcomes(table, schedule, ["lstm", "mlp"], walks, 2)
    assert recording_executor == []  # nothing starts before the first list is asked for
    assert len(next(walked)) == 2
    assert len(recording_executor) == 1 and not recording_executor[0].shut
    walked.close()
    assert recording_executor[0].shut

    def explode(*a, **k):
        raise TrainingError("non-finite loss")

    monkeypatch.setattr(tr, "fit", explode)
    with pytest.raises(TrainingError, match="all 2 trials for test year 2014 failed"):
        next(tr.walk_outcomes(table, schedule, ["lstm"], walks, 2))
    assert len(recording_executor) == 2 and recording_executor[1].shut


def test_trials_csv_roundtrip(tmp_path):
    trials = [
        tr.Trial(index=0, params={"hidden": 4, "learning_rate": 1e-3}, train_loss=-0.25, val_loss=-0.125, seconds=1.5, seed=3),
        tr.Trial(index=1, params={"hidden": 8, "learning_rate": 3e-3}, train_loss=-0.3, val_loss=np.inf, seconds=0.75, seed=4),
    ]
    model = tr.build_model("lstm", 2, 4, {"hidden": 4}, seed=0)
    outcome = tr.SplitOutcome(test_year=2016, params={}, trials=trials, model=model, history=[])
    cli._write_run_artifacts(tmp_path, [outcome], EquityCurve([], []), MetricsReport(*[0.0] * 7))
    path = tmp_path / "trials.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["test_year", "trial", "params", "train_loss", "val_loss", "seconds"]
    assert [row[0] for row in rows[1:]] == ["2016", "2016"]
    assert json.loads(rows[1][2]) == {"hidden": 4, "learning_rate": 1e-3}
    assert float(rows[1][4]) == -0.125
    assert float(rows[2][4]) == np.inf


# ---------------------------------------------------------------------------
# walk-forward


def wf_table(n_days=790, seed=5, momentum=0.0):
    return make_table(n_days, seed=seed, momentum=momentum)


def test_search_trials_fit_the_final_model_architecture(monkeypatch):
    # a base_combo key that the space leaves out reaches every trial too
    built = []
    build = tr.build_model

    def recording_build(strategy, n_assets, tau, combo, seed):
        model = build(strategy, n_assets, tau, combo, seed)
        built.append(replace(model.config, seed=0))
        return model

    monkeypatch.setattr(tr, "build_model", recording_build)
    table = wf_table()
    space = tr.HyperparamSpace(axes={"d_model": [8], "n_heads": [2]}, budget=2)
    result = walk(
        table, yearly_splits(table, 2016), "pt", tau=4, space=space,
        base_cfg=tr.TrainConfig(max_epochs=1), base_combo={"t2v_k": 2},
    )
    assert len(built) == 3  # two trials, then the winner rebuilt to ship
    assert built[-1].t2v_k == 2
    assert all(cfg == built[-1] for cfg in built)
    assert [t.params for t in result.outcomes[0].trials] == [{"d_model": 8, "n_heads": 2, "t2v_k": 2}] * 2


def test_walk_forward_equal_weight_dates_and_rows():
    table = wf_table()
    schedule = yearly_splits(table, 2016)
    split = schedule.splits[0]
    stream = tr.walk_forward(table, schedule, "equal_weight")
    n_test = split.test_end - split.train_end
    assert len(stream.dates) == n_test
    assert stream.dates[0] == table.dates[split.train_end - 1]
    assert stream.dates[-1] == table.dates[split.test_end - 2]
    assert np.allclose(stream.weights, 1.0 / 3.0)


@pytest.mark.parametrize("strategy", tr.STRATEGIES)
def test_a_multi_split_stream_is_one_run_of_decision_days(strategy):
    # criterion 07's calendar: 2014-2018, three test years from 2016
    n_days = int(np.busday_count("2014-01-02", "2019-01-01"))
    table = clean_and_return(synth_generate(SynthConfig(n_assets=4, n_days=n_days, seed=2)))
    schedule = yearly_splits(table, 2016)
    splits = schedule.splits
    assert len(splits) == 3
    stream = walk(table, schedule, strategy, tau=4, base_cfg=tr.TrainConfig(max_epochs=1)).stream
    assert stream.dates == table.dates[splits[0].train_end - 1 : splits[-1].test_end - 1]
    assert stream.weights.shape == (len(stream.dates), 4)


def test_walk_forward_curve_covers_exactly_the_test_rows():
    table = wf_table()
    schedule = yearly_splits(table, 2016)
    split = schedule.splits[0]
    curve = run_backtest(tr.walk_forward(table, schedule, "mv"), table, CostModel())
    assert list(curve.dates) == list(table.dates[split.train_end : split.test_end])
    assert all(d.year == 2016 for d in curve.dates)


def test_walk_forward_mv_ignores_future_rows():
    table = wf_table()
    altered = wf_table(seed=99)
    returns = table.returns.copy()
    cut = len(returns) - 60
    returns[cut:] = altered.returns[cut:]
    from ptopt.data import ReturnTable

    bent = ReturnTable(dates=table.dates, tickers=table.tickers, returns=returns)
    schedule = yearly_splits(table, 2016)
    a = tr.walk_forward(table, schedule, "mv")
    b = tr.walk_forward(bent, schedule, "mv")
    date_to_row = {d: i for i, d in enumerate(a.dates)}
    for d, i in date_to_row.items():
        decision_row = table.dates.index(d)
        if decision_row < cut - 1:
            assert np.array_equal(a.weights[i], b.weights[i])


def test_walk_forward_trained_strategy_unit_gross():
    table = wf_table(n_days=560, seed=8)
    schedule = yearly_splits(table, 2015)
    result = walk(
        table, schedule, "mlp", tau=4, base_cfg=tr.TrainConfig(max_epochs=2, seed=0), seed=3
    )
    gross = np.abs(result.stream.weights).sum(axis=1)
    assert np.allclose(gross, 1.0, atol=1e-9)
    assert result.outcomes[0].params == {}
    assert len(result.outcomes[0].history) >= 1


def test_walk_forward_search_once_reuses_first_split_choice():
    table = wf_table(n_days=1050, seed=13)
    schedule = yearly_splits(table, 2016)
    assert len(schedule.splits) == 2
    space = tr.HyperparamSpace(axes={"hidden": [3, 5]}, budget=2)
    result = walk(
        table, schedule, "lstm", tau=4, space=space,
        base_cfg=tr.TrainConfig(max_epochs=1, seed=0), seed=1, search_once=True,
    )
    assert len(result.outcomes[0].trials) == 2
    assert result.outcomes[1].trials == []
    assert result.outcomes[1].params == result.outcomes[0].params
    # a split that did not search fits as before, at seed + split_idx
    later = result.outcomes[1]
    walk_at_seed_1 = tr.TrainedWalk("lstm", 4, [later.params], 0, tr.TrainConfig(max_epochs=1, seed=0), CostModel(), 1)
    [task] = walk_at_seed_1.plan(1, schedule.splits[1], later.params)
    _, fit = tr._run_trial(task, table)
    assert later.model.config.seed == 2
    assert np.array_equal(later.model.vector, fit.vector)
    assert later.history == fit.history


@pytest.mark.parametrize("jobs", [1, 2])
def test_searched_split_ships_the_winning_trial(jobs):
    table = wf_table(n_days=1050, seed=13)
    schedule = yearly_splits(table, 2016)
    space = tr.HyperparamSpace(axes={"hidden": [3, 5], "learning_rate": [1e-3, 1e-2]}, budget=3)
    cfg = tr.TrainConfig(max_epochs=2, seed=0)
    result = walk(table, schedule, "lstm", tau=4, space=space, base_cfg=cfg, seed=1, jobs=jobs)
    for split_idx, (split, outcome) in enumerate(zip(schedule.splits, result.outcomes)):
        winner = min(outcome.trials, key=lambda t: t.val_loss)
        seed = 1 + 104729 * split_idx + winner.index
        assert outcome.model.config.seed == seed
        # the shipped model is the winner's fit, not a refit at another seed
        [task] = tr.TrainedWalk("lstm", 4, [winner.params], 0, cfg, CostModel(), seed).plan(0, split, winner.params)
        _, solo = tr._run_trial(task, table)
        assert np.array_equal(outcome.model.vector, solo.vector)
        assert outcome.history == solo.history
        assert solo.best_val == winner.val_loss


@pytest.mark.parametrize("tied", [False, True], ids=["in_process", "tied_pool"])
@pytest.mark.parametrize("budget, search_once", [(0, False), (2, False), (2, True)], ids=["unsearched", "budget_2", "budget_2_search_once"])
def test_one_batch_gives_each_walk_its_solo_outcomes(budget, search_once, tied, monkeypatch):
    # the walks share one stream of results: each list must take its own walk's, in order
    table = make_table(300, seed=3, momentum=0.5)
    schedule = WalkForwardSchedule([Split(2014, 200, 160, 250), Split(2015, 250, 210, 300)])
    axes = {"lstm": {"hidden": [3, 5]}, "mlp": {"hidden": [[3], [4]]}}
    walks = {
        s: tr.plan_walk(s, 4, tr.HyperparamSpace(axes[s], budget) if budget else None, 0, None, tr.TrainConfig(max_epochs=1), CostModel(), 1)
        for s in axes
    }
    if tied:
        tie_trials(monkeypatch)
    batch = list(tr.walk_outcomes(table, schedule, ["lstm", "mv", "mlp"], walks, 1, search_once))
    assert len(batch) == 3 and batch[1] == []
    for strategy, outcomes in (("lstm", batch[0]), ("mlp", batch[2])):
        [solo] = tr.walk_outcomes(table, schedule, [strategy], {strategy: walks[strategy]}, 1, search_once)
        assert len(outcomes) == len(solo) == 2
        for a, b in zip(outcomes, solo):
            assert (a.test_year, a.params, a.history, a.model.config) == (b.test_year, b.params, b.history, b.model.config)
            assert [(t.index, t.params, t.train_loss, t.val_loss) for t in a.trials] == [
                (t.index, t.params, t.train_loss, t.val_loss) for t in b.trials
            ]
            assert np.array_equal(a.model.vector, b.model.vector)
        assert [len(o.trials) for o in outcomes] == [budget, 0 if search_once else budget]


@pytest.mark.parametrize("strategy, given", [("lstm", 1), ("lstm", 3), ("mv", 1), ("equal_weight", 2)])
def test_walk_forward_takes_one_outcome_per_trained_split_and_none_for_a_rule(strategy, given):
    # given one outcome, a two-split lstm walk returned its second year's rows unfilled
    table = wf_table(n_days=1050, seed=13)
    schedule = yearly_splits(table, 2016)
    model = tr.build_model("lstm", table.n_assets, 4, {}, seed=0)
    outcomes = [tr.SplitOutcome(2016 + k, {}, [], model, []) for k in range(given)]
    expected = 2 if strategy == "lstm" else 0
    with pytest.raises(ValueError, match=f"a {strategy} walk of 2 splits takes {expected} outcomes, got {given}"):
        tr.walk_forward(table, schedule, strategy, outcomes=outcomes)


def test_search_where_every_trial_fails_raises(monkeypatch):
    def explode(*a, **k):
        raise TrainingError("non-finite loss")

    monkeypatch.setattr(tr, "fit", explode)
    table = wf_table()
    space = tr.HyperparamSpace(axes={"hidden": [3, 5]}, budget=3)
    with pytest.raises(TrainingError, match="all 3 trials for test year 2016 failed; trial 0: non-finite loss"):
        walk(table, yearly_splits(table, 2016), "lstm", tau=4, space=space, base_cfg=tr.TrainConfig(max_epochs=1))


def test_walk_forward_deterministic():
    table = wf_table()
    schedule = yearly_splits(table, 2016)
    a = walk(table, schedule, "mv", seed=0).stream
    b = walk(table, schedule, "mv", seed=0).stream
    assert np.array_equal(a.weights, b.weights)
    assert a.dates == b.dates


def test_walk_forward_rejects_unknown_strategy():
    table = wf_table()
    schedule = yearly_splits(table, 2016)
    with pytest.raises(ValueError, match="equal_weight"):
        tr.walk_forward(table, schedule, "xgboost")


@pytest.mark.parametrize("order, message", [
    (["equal_weight", "lstm", "mv"], "training range before 2014 too short for window length 4"),
    (["mv", "lstm"], "need 50 rows before 2014 for the mean-variance window"),
], ids=["trained_first", "rule_first"])
def test_walk_outcomes_checks_each_strategy_in_order_before_it_plans_a_task(order, message, monkeypatch):
    # the first split has a training window but no validation window and too few rows for MV;
    # the later one has both windows and the rows
    table = wf_table()
    schedule = WalkForwardSchedule([Split(2014, 12, 11, 260), Split(2015, 260, 234, 510)])
    walks = {"lstm": tr.plan_walk("lstm", 4, None, 0, None, tr.TrainConfig(max_epochs=1), CostModel(), 0)}

    def unplanned(*args):
        raise AssertionError("a task was planned before every strategy was checked")

    monkeypatch.setattr(tr.TrainedWalk, "plan", unplanned)
    with pytest.raises(DataError, match=message):
        next(tr.walk_outcomes(table, schedule, order, walks))


def schedule_after(train_end):
    """One 250-day test year, 2014, after ``train_end`` rows."""
    return WalkForwardSchedule([Split(2014, train_end, train_end - 10, train_end + 250)])


def test_mv_needs_its_lookback_rows_before_the_first_test_day():
    table, lookback = wf_table(), tr.MVConfig.lookback
    # exactly the lookback's rows: the first decision reads rows 0 .. lookback - 1
    assert list(tr.walk_outcomes(table, schedule_after(lookback), ["mv"], {})) == [[]]
    weights = tr.walk_forward(table, schedule_after(lookback), "mv").weights
    assert np.array_equal(weights[0], tr.mv_weights(table.returns[None, :lookback], tr.MVConfig())[0])
    with pytest.raises(DataError, match=f"need {lookback} rows before 2014 for the mean-variance window"):
        next(tr.walk_outcomes(table, schedule_after(lookback - 1), ["mv"], {}))


def test_a_walk_reads_no_row_before_row_0():
    # without the pre-flight, MV's first view would start at row -1, a slice index that counts from the end
    lookback = tr.MVConfig.lookback
    with pytest.raises(DataError, match=f"{lookback} rows ending at row {lookback - 2} start before the first row"):
        tr.walk_forward(wf_table(), schedule_after(lookback - 1), "mv")
