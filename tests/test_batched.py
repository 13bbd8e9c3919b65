"""A stack of windows through one forward pass equals the windows one by one.

Every trainable model takes (B, 2*tau, n) block stacks; a single block is
the batch of one. These tests pin the batched path to the single-window
results it replaces: weights bit for bit, the mean Sharpe loss and every
parameter gradient within 1e-12, and the walk-forward's test-day weights
bit for bit against a checkpoint replayed one day at a time, and, for drawn
configs, a strided stack bit for bit against its blocks one at a time. A fit
on strided sample views equals one on contiguous copies bit for bit. The
passes that run a whole split a block of windows at a time (``day_weights``,
``evaluate_loss``) equal one forward bit for bit across block boundaries,
and their ``tracemalloc`` peak does not grow with the number of windows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptopt.autograd as ag
import ptopt.training as tr
from helpers import model_grad_errors, traced_peak
from ptopt.benchmarks import LSTMConfig, LSTMModel, MLPConfig, MLPModel
from ptopt.data import SynthConfig, clean_and_return, synth_generate, yearly_splits
from ptopt.model import _INFER_BLOCK, PTConfig, PortfolioTransformer, batched_weights, load_checkpoint, save_checkpoint
from ptopt.objective import CostModel, ReturnsWindow, sharpe_loss

# The sizes of the default configs: at toy widths a vector-matrix and a
# matrix-matrix product can round alike and hide a kernel mismatch.
TAU, N = 8, 4
TOL = 1e-12

MODELS = {
    "pt": lambda: PortfolioTransformer(PTConfig(n_assets=N, window=TAU, d_model=16, n_heads=2, t2v_k=3, n_layers=2, seed=5)),
    "lstm": lambda: LSTMModel(LSTMConfig(n_assets=N, window=TAU, hidden=16, seed=6)),
    "mlp": lambda: MLPModel(MLPConfig(n_assets=N, window=TAU, hidden=(32, 16), seed=7)),
}


def stack(batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 0.02, (batch, 2 * TAU, N)), rng.normal(0.0005, 0.01, (batch, TAU, N))


def samples(count, seed=0):
    """``count`` random training samples in the ``build_windows`` layout: (count, 2*TAU+1, N)."""
    return np.random.default_rng(seed).normal(0.0005, 0.02, (count, 2 * TAU + 1, N))


def loss_and_grads(model, blocks, realized):
    params = model.parameters()
    for p in params.values():
        p.grad = None
    with ag.Tape() as tape:
        loss = ag.mean(sharpe_loss(model.window_weights(blocks), ReturnsWindow(realized), CostModel()))
        ag.backward(loss, tape)
    return loss.item(), {name: p.grad.copy() for name, p in params.items()}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_batched_weights_equal_single_windows(kind):
    # day_weights runs the stack in blocks, so this size crosses two block boundaries
    count = 2 * _INFER_BLOCK + 5
    model = MODELS[kind]()
    blocks, _ = stack(count)
    batched = model.window_weights(blocks).data
    days = model.day_weights(blocks)
    assert batched.shape == (count, TAU, N) and days.shape == (count, N)
    for i, block in enumerate(blocks):
        assert np.array_equal(batched[i], model.window_weights(block).data)
        assert np.array_equal(days[i], model.day_weights(block))


@st.composite
def any_model(draw, kind):
    """A model of ``kind`` at up to 6 assets, window 10 and realistic widths."""
    shape = {"n_assets": draw(st.integers(2, 6)), "window": draw(st.integers(2, 10)), "seed": draw(st.integers(0, 99))}
    if kind == "pt":
        d_model = draw(st.integers(1, 32))
        n_heads = draw(st.sampled_from([h for h in range(1, d_model + 1) if d_model % h == 0]))
        mode = draw(st.sampled_from(["d_model", "d_k"]))
        layers = draw(st.integers(1, 2))
        return PortfolioTransformer(
            PTConfig(**shape, d_model=d_model, n_heads=n_heads, n_layers=layers, attention_scale_mode=mode)
        )
    if kind == "lstm":
        return LSTMModel(LSTMConfig(**shape, hidden=draw(st.integers(1, 32))))
    return MLPModel(MLPConfig(**shape, hidden=tuple(draw(st.lists(st.integers(1, 64), min_size=1, max_size=2)))))


@pytest.mark.parametrize("kind", sorted(MODELS))
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data(), batch=st.integers(1, 70) | st.integers(_INFER_BLOCK + 1, 70))  # the second crosses a block
def test_any_stack_equals_its_blocks_one_at_a_time(kind, data, batch):
    """Every row of ``window_weights`` and ``day_weights`` of a stack equals its block run alone,
    for any config; the stack is the strided view ``walk_forward`` passes, and ``day_weights``
    crosses an ``_INFER_BLOCK`` boundary from 65 blocks on."""
    model = data.draw(any_model(kind))
    tau, n = model.config.window, model.config.n_assets
    returns = np.random.default_rng(batch).normal(0.0, 0.02, (batch + 2 * tau - 1, n))
    blocks = tr._ending_at(returns, 2 * tau, 2 * tau - 1, batch)
    weights, days = model.window_weights(blocks).data, model.day_weights(blocks)
    for i, block in enumerate(blocks):
        assert np.array_equal(weights[i], model.window_weights(block).data)
        assert np.array_equal(days[i], model.day_weights(block))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_batched_loss_and_gradients_equal_single_window_mean(kind):
    model = MODELS[kind]()
    blocks, realized = stack(6, seed=1)
    loss, grads = loss_and_grads(model, blocks, realized)

    # reference: one tape per window, losses and gradients averaged by hand
    single = [loss_and_grads(model, b[None], r[None]) for b, r in zip(blocks, realized)]
    ref_loss = np.mean([s[0] for s in single])
    assert abs(loss - ref_loss) <= TOL
    for name, g in grads.items():
        ref = np.mean([s[1][name] for s in single], axis=0)
        assert np.max(np.abs(g - ref)) <= TOL * np.max(np.abs(ref)), name


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_blocked_validation_loss_equals_one_forward(kind):
    model = MODELS[kind]()
    count = 2 * _INFER_BLOCK + 5
    windows = samples(count, seed=4)
    with ag.no_grad():
        weights = model.window_weights(windows[:, :-1])
        whole = ag.mean(sharpe_loss(weights, ReturnsWindow(windows[:, -TAU:]), CostModel())).item()
    assert tr.evaluate_loss(model, windows, CostModel()) == whole


def contiguous_forwards(model):
    """``model`` with every forward reading a contiguous copy of its blocks."""
    model.window_weights = lambda blocks, rng=None: batched_weights(model, np.ascontiguousarray(blocks), rng)
    return model


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_fit_on_strided_samples_equals_fit_on_contiguous_blocks(kind):
    """``fit`` hands the forward strided views (``samples[:, :-1]`` of each gathered batch,
    ``blockwise`` slices of the ``build_windows`` view): its vector and history, backward
    passes included, equal a fit whose every forward reads a contiguous copy."""
    table = clean_and_return(synth_generate(SynthConfig(n_assets=N, n_days=300, seed=2, momentum=0.4)))
    train, valid = tr.build_windows(table, TAU, 0, 200), tr.build_windows(table, TAU, 200, 300)
    cfg = tr.TrainConfig(max_epochs=2, seed=1)
    strided = tr.fit(MODELS[kind](), train, valid, cfg)
    contiguous = tr.fit(contiguous_forwards(MODELS[kind]()), train, valid, cfg)
    assert np.array_equal(strided.vector, contiguous.vector)
    assert strided.history == contiguous.history


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_batched_loss_gradients_match_finite_differences(kind):
    model = MODELS[kind]()
    blocks, realized = stack(3, seed=2)

    def loss_fn():
        return ag.mean(sharpe_loss(model.window_weights(blocks), ReturnsWindow(realized), CostModel()))

    errs = model_grad_errors(model, loss_fn, coords_per_param=4, rng=np.random.default_rng(3))
    assert max(errs.values()) < 1e-4, max(errs, key=errs.get)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_block_stack_rejects_bad_shapes(kind):
    model = MODELS[kind]()
    for bad in (np.zeros((2 * TAU, N + 1)), np.zeros((3, 2 * TAU - 1, N)), np.zeros((1, 1, 2 * TAU, N))):
        with pytest.raises(ag.ShapeError):
            model.window_weights(bad)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_walk_forward_test_days_equal_checkpoint_replay(kind, tmp_path):
    """The split's one-forward test-day weights equal day_weights of the
    saved checkpoint replayed one block at a time, bit for bit, with and
    without a search; a searched split's checkpoint is its winning trial,
    at that trial's seed."""
    table = clean_and_return(synth_generate(SynthConfig(n_assets=N, n_days=560, seed=8, momentum=0.4)))
    schedule = yearly_splits(table, 2015)
    combo = {"d_model": 16, "n_heads": 2, "t2v_k": 3} if kind == "pt" else {}
    split = schedule.splits[0]
    days = range(split.train_end - 1, split.test_end - 1)
    for space in (None, tr.HyperparamSpace(axes={"learning_rate": [1e-3, 1e-2]}, budget=2)):
        result = tr.walk_forward(
            table, schedule, kind, tau=TAU, space=space, base_cfg=tr.TrainConfig(max_epochs=1, seed=0), seed=3, base_combo=combo
        )
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.outcomes[0].model, path)
        replay = load_checkpoint(path)
        if space is not None:
            winner = min(result.outcomes[0].trials, key=lambda t: t.val_loss)
            assert replay.config.seed == 3 + winner.index
        assert len(result.stream.weights) == len(days)
        for row, p in zip(result.stream.weights, days):
            assert np.array_equal(row, replay.day_weights(table.returns[p - 2 * TAU + 1 : p + 1]))


# Peak memory of the blocked passes: 16 blocks of windows may peak above 4
# blocks by the larger result (for evaluate_loss, its one loss per window)
# and this slack (allocator and bookkeeping noise) alone. One forward over
# every window grew by megabytes.
PEAK_SLACK = 32 * 1024


def test_day_weights_peak_does_not_grow_with_windows():
    model = MODELS["pt"]()
    small, _ = stack(4 * _INFER_BLOCK, seed=5)
    large, _ = stack(16 * _INFER_BLOCK, seed=5)
    _, small_peak = traced_peak(lambda: model.day_weights(small))
    _, large_peak = traced_peak(lambda: model.day_weights(large))
    returned = 12 * _INFER_BLOCK * N * 8
    assert large_peak - small_peak <= returned + PEAK_SLACK, (small_peak, large_peak)


def test_evaluate_loss_peak_does_not_grow_with_windows():
    model = MODELS["pt"]()
    peaks = []
    for count in (4 * _INFER_BLOCK, 16 * _INFER_BLOCK):
        windows = samples(count, seed=6)
        peaks.append(traced_peak(lambda: tr.evaluate_loss(model, windows, CostModel()))[1])
    losses = 12 * _INFER_BLOCK * 8
    assert peaks[1] - peaks[0] <= losses + PEAK_SLACK, peaks
