"""Tests for the attention allocation network and its building blocks.

The model's blocks run as fused tape ops; their op-by-op compositions in
``tests/helpers.py`` are the oracles, down to a whole forward pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptopt.autograd as ag
from ptopt.autograd import Tensor
from ptopt.errors import NumericError
from ptopt.model import (
    GRNLayer,
    MHALayer,
    PTConfig,
    PortfolioTransformer,
    Time2VecLayer,
    embed_window,
    grn,
    load_checkpoint,
    multi_head_attention,
    save_checkpoint,
)
from ptopt.objective import CostModel, ReturnsWindow, sharpe_loss

from helpers import (
    attention,
    causal_mask,
    concat,
    embed_composed,
    grn_composed,
    layer_norm,
    matmul,
    model_grad_errors,
    pt_weights_composed,
    reduce_sum,
    scaled_gap,
    sharpe_loss_composed,
    softmax_rows,
    time2vec_encode,
    time2vec_matrix,
)

RNG = np.random.default_rng(11)

TINY = PTConfig(n_assets=3, window=4, d_model=8, n_heads=2, t2v_k=2, n_layers=1, seed=5)


def tiny_model(**overrides) -> PortfolioTransformer:
    cfg = PTConfig(**{**TINY.__dict__, **overrides})
    return PortfolioTransformer(cfg)


# ---------------------------------------------------------------------------
# config


@pytest.mark.parametrize(
    "bad",
    [
        dict(n_assets=1),
        dict(window=1),
        dict(n_heads=3),
        dict(n_heads=0),
        dict(d_model=1, n_heads=2),
        dict(t2v_k=0),
        dict(n_layers=0),
        dict(attention_scale_mode="sqrt"),
        dict(dropout=1.0),
        dict(dropout=-0.1),
    ],
)
def test_config_invariants_rejected(bad):
    with pytest.raises(ValueError):
        PTConfig(**{**TINY.__dict__, **bad})


def test_config_defaults():
    cfg = PTConfig(n_assets=5, window=6, d_model=16, n_heads=4, t2v_k=3)
    assert cfg.n_layers == 1
    assert cfg.attention_scale_mode == "d_model"
    assert cfg.dropout == 0.0


# ---------------------------------------------------------------------------
# time2vec


def test_time2vec_linear_component():
    layer = Time2VecLayer(2, np.random.default_rng(0))
    layer.omega.data[:] = [1.0, np.pi / 2, 0.3]
    layer.phi.data[:] = [0.0, 0.0, 0.1]
    out = time2vec_matrix(4, layer).data
    assert out[3, 0] == pytest.approx(3.0)
    assert out[1, 1] == pytest.approx(1.0)


def embedded_time_features(n_rows: int, layer: Time2VecLayer) -> np.ndarray:
    """The features ``ag.embed`` appends, read through a zero-width window and an identity map."""
    width = layer.omega.data.size  # the linear component and the k sinusoids
    x = Tensor(np.zeros((n_rows, 0)))
    return ag.embed(x, layer.omega, layer.phi, Tensor(np.eye(width)), Tensor(np.zeros(width))).data


@given(st.integers(0, 1000), st.integers(0, 2**31 - 1))
def test_time2vec_periodic_range(t, seed):
    layer = Time2VecLayer(4, np.random.default_rng(seed))
    out = time2vec_matrix(t + 1, layer).data
    assert np.all(np.abs(out[:, 1:]) <= 1.0 + 1e-12)
    assert np.array_equal(embedded_time_features(t + 1, layer), out)


def test_time2vec_matrix_matches_per_position():
    model = tiny_model()
    x = np.zeros((4, 3))
    m = embed_window(x, model)
    for t in range(4):
        row = model.input_proj(
            ag.reshape(concat([Tensor(x[t]), Tensor(time2vec_encode(t, model.t2v))], axis=0), (1, 6))
        )
        np.testing.assert_allclose(m.data[t], row.data[0], atol=1e-14)


# ---------------------------------------------------------------------------
# embedding


def test_embed_window_shape_and_locality():
    model = tiny_model()
    x = RNG.standard_normal((4, 3)) * 0.02
    base = embed_window(x, model).data
    assert base.shape == (4, 8)
    bumped = x.copy()
    bumped[2] += 0.01
    out = embed_window(bumped, model).data
    assert np.array_equal(out[[0, 1, 3]], base[[0, 1, 3]])
    assert not np.array_equal(out[2], base[2])


def test_embed_window_zero_input_rows_vary_with_position():
    model = tiny_model()
    out = embed_window(np.zeros((4, 3)), model).data
    assert not np.allclose(out[0], out[1])


@pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "rank3"])
def test_embed_window_matches_composition(lead):
    model = tiny_model()
    x = RNG.standard_normal((*lead, 4, 3)) * 0.02
    out = embed_window(x, model).data
    assert scaled_gap(out, embed_composed(Tensor(x), model.t2v, model.input_proj).data) <= 1e-12


def test_embed_window_rejects_wrong_width():
    with pytest.raises(ValueError, match="embed: incompatible shapes"):
        embed_window(np.zeros((4, 5)), tiny_model())


# ---------------------------------------------------------------------------
# attention


def test_attention_single_position_returns_value_row():
    q = Tensor(RNG.standard_normal((1, 4)))
    k = Tensor(RNG.standard_normal((1, 4)))
    v = Tensor(RNG.standard_normal((1, 6)))
    out = attention(q, k, v, scale=2.0).data
    np.testing.assert_allclose(out, v.data, atol=1e-14)


def test_attention_uniform_scores_average_values():
    q = Tensor(np.zeros((3, 4)))
    k = Tensor(RNG.standard_normal((5, 4)))
    v = Tensor(RNG.standard_normal((5, 2)))
    out = attention(q, k, v, scale=2.0).data
    np.testing.assert_allclose(out, np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-12)


def test_attention_causal_first_row_sees_only_itself():
    q = Tensor(RNG.standard_normal((3, 4)))
    k = Tensor(RNG.standard_normal((3, 4)))
    va, vb = RNG.standard_normal((3, 2)), RNG.standard_normal((3, 2))
    vb[0] = va[0]
    mask = causal_mask(3)
    out_a = attention(q, k, Tensor(va), 2.0, mask).data
    out_b = attention(q, k, Tensor(vb), 2.0, mask).data
    np.testing.assert_allclose(out_a[0], va[0], atol=1e-12)
    np.testing.assert_allclose(out_a[0], out_b[0], atol=1e-15)


def test_attention_rejects_fully_masked_row():
    mask = np.full((2, 2), -1e9)
    x = Tensor(np.zeros((2, 2)))
    with pytest.raises(NumericError, match="attention mask blocks an entire row"):
        attention(x, x, x, 1.0, mask)


def test_attention_shape_errors():
    with pytest.raises(ValueError, match="query/key width mismatch"):
        attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 2))), 1.0)
    with pytest.raises(ValueError, match="key/value row mismatch"):
        attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))), Tensor(np.zeros((2, 2))), 1.0)


# ---------------------------------------------------------------------------
# multi-head attention


def test_single_head_is_attention_with_linear_maps():
    layer = MHALayer(d_model=4, n_heads=1, scale=2.0, rng=np.random.default_rng(3))
    x = Tensor(RNG.standard_normal((3, 4)))
    out = multi_head_attention(x, None, layer).data
    inner = attention(
        matmul(x, layer.wq[0]), matmul(x, layer.wk[0]), matmul(x, layer.wv[0]), 2.0
    )
    np.testing.assert_allclose(out, matmul(inner, layer.wo).data, atol=1e-14)


def test_mha_output_shape_follows_queries():
    layer = MHALayer(d_model=6, n_heads=3, scale=np.sqrt(6), rng=np.random.default_rng(4))
    q = Tensor(RNG.standard_normal((5, 6)))
    kv = Tensor(RNG.standard_normal((7, 6)))
    assert multi_head_attention(q, kv, layer).shape == (5, 6)


def test_mha_gradients_match_finite_differences():
    layer = MHALayer(d_model=4, n_heads=2, scale=2.0, rng=np.random.default_rng(5))
    x0 = RNG.standard_normal((3, 4))
    coef = RNG.standard_normal((3, 4))

    class Wrap:
        def parameters(self):
            return {"q0": layer.wq[0], "v1": layer.wv[1], "o": layer.wo}

    def loss_fn():
        x = Tensor(x0)
        return reduce_sum(ag.mul(multi_head_attention(x, None, layer, causal=True), Tensor(coef)))

    errs = model_grad_errors(Wrap(), loss_fn)
    assert max(errs.values()) < 1e-4


# ---------------------------------------------------------------------------
# gated residual block


def test_grn_closed_gate_reduces_to_layer_norm():
    layer = GRNLayer(d_model=6, rng=np.random.default_rng(6))
    layer.glu_gate.b.data[:] = -1e3
    z = Tensor(RNG.standard_normal((4, 6)))
    out = grn(z, layer).data
    expected = layer_norm(z, layer.ln_gain, layer.ln_bias).data
    np.testing.assert_allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "rank3"])
def test_grn_matches_composition(lead):
    layer = GRNLayer(d_model=6, rng=np.random.default_rng(9))
    z0 = RNG.standard_normal((*lead, 4, 6))
    coef = Tensor(RNG.standard_normal((*lead, 4, 6)))
    runs = []
    for block in (grn, grn_composed):
        for p in layer.parameters().values():
            p.grad = None
        with ag.Tape() as tape:
            z = Tensor(z0, requires_grad=True)
            out = block(z, layer)
            ag.backward(reduce_sum(ag.mul(out, coef)), tape)
        runs.append((out.data, z.grad, {n: p.grad for n, p in layer.parameters().items()}))
    (out, gz, grads), (ref, ref_gz, ref_grads) = runs
    assert scaled_gap(out, ref) <= 1e-12
    assert scaled_gap(gz, ref_gz) <= 1e-12
    for name in ref_grads:
        assert scaled_gap(grads[name], ref_grads[name]) <= 1e-12, name


def test_grn_preserves_shape():
    layer = GRNLayer(d_model=6, rng=np.random.default_rng(7))
    assert grn(Tensor(RNG.standard_normal((4, 6))), layer).shape == (4, 6)


def test_grn_gradients_match_finite_differences():
    layer = GRNLayer(d_model=4, rng=np.random.default_rng(8))
    z0 = RNG.standard_normal((3, 4))
    coef = RNG.standard_normal((3, 4))

    class Wrap:
        def parameters(self):
            return layer.parameters()

    errs = model_grad_errors(Wrap(), lambda: reduce_sum(ag.mul(grn(Tensor(z0), layer), Tensor(coef))))
    assert max(errs.values()) < 1e-4


# ---------------------------------------------------------------------------
# output head


def test_head_reference_row():
    w = ag.signed_softmax(Tensor([[2.0, -1.0]])).data[0]
    np.testing.assert_allclose(w, [0.9526, -0.0474], atol=1e-4)
    assert abs(np.abs(w).sum() - 1.0) < 1e-12


def test_head_ties_split_evenly():
    # tied non-negative scores split long; tied negative scores split short
    for c in (0.0, 1.7, 40.0):
        w = ag.signed_softmax(Tensor([[c, c]])).data[0]
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)
    w = ag.signed_softmax(Tensor([[-3.0, -3.0]])).data[0]
    np.testing.assert_allclose(w, [-0.5, -0.5], atol=1e-15)


@settings(max_examples=80)
@given(st.lists(st.floats(-40, 40), min_size=2, max_size=10), st.integers(1, 3))
def test_head_unit_gross_exposure(scores, rows):
    s = np.tile(np.array(scores), (rows, 1))
    w = ag.signed_softmax(Tensor(s)).data
    np.testing.assert_allclose(np.abs(w).sum(axis=1), 1.0, atol=1e-9)
    assert np.all(w <= 1.0) and np.all(w >= -1.0)


def test_head_sign_pattern_follows_scores():
    s = np.array([[1.5, -0.2, 0.0, -7.0]])
    w = ag.signed_softmax(Tensor(s)).data[0]
    np.testing.assert_array_equal(np.sign(w[[0, 2]] + 1e-300), [1.0, 1.0])
    assert w[1] < 0 and w[3] < 0
    np.testing.assert_allclose(np.abs(w), softmax_rows(s)[0], atol=1e-15)


# ---------------------------------------------------------------------------
# full forward


def test_forward_shape_and_constraint():
    model = tiny_model()
    x_enc = RNG.standard_normal((4, 3)) * 0.02
    x_dec = RNG.standard_normal((4, 3)) * 0.02
    w = model.window_weights(np.vstack([x_enc, x_dec])).data
    assert w.shape == (4, 3)
    np.testing.assert_allclose(np.abs(w).sum(axis=1), 1.0, atol=1e-9)


def test_forward_rejects_bad_shapes():
    model = tiny_model()
    with pytest.raises(ValueError, match=r"block shape \(8, 2\) != \(8, 3\)"):
        model.window_weights(np.zeros((8, 2)))
    with pytest.raises(ValueError, match=r"block shape \(7, 3\) != \(8, 3\)"):
        model.window_weights(np.zeros((7, 3)))


def test_forward_is_causal_in_decoder_rows():
    model = tiny_model()
    x_enc = RNG.standard_normal((4, 3)) * 0.02
    x_dec = RNG.standard_normal((4, 3)) * 0.02
    base = model.window_weights(np.vstack([x_enc, x_dec])).data
    for j in range(4):
        bumped = x_dec.copy()
        bumped[j] += 0.05
        out = model.window_weights(np.vstack([x_enc, bumped])).data
        if j > 0:
            assert np.max(np.abs(out[:j] - base[:j])) < 1e-12
        assert not np.allclose(out[j], base[j])


def test_forward_depends_on_encoder_window():
    model = tiny_model()
    x_enc = RNG.standard_normal((4, 3)) * 0.02
    x_dec = RNG.standard_normal((4, 3)) * 0.02
    base = model.window_weights(np.vstack([x_enc, x_dec])).data
    bumped = x_enc.copy()
    bumped[0] += 0.05
    assert not np.allclose(model.window_weights(np.vstack([bumped, x_dec])).data, base)


def test_forward_deterministic_for_fixed_seed():
    a, b = tiny_model(), tiny_model()
    pa, pb = a.parameters(), b.parameters()
    assert list(pa) == list(pb)
    for name in pa:
        assert np.array_equal(pa[name].data, pb[name].data)
    x_enc = RNG.standard_normal((4, 3))
    x_dec = RNG.standard_normal((4, 3))
    assert np.array_equal(a.window_weights(np.vstack([x_enc, x_dec])).data, b.window_weights(np.vstack([x_enc, x_dec])).data)


def test_forward_seed_changes_parameters():
    a, b = tiny_model(), tiny_model(seed=6)
    assert not np.array_equal(a.input_proj.W.data, b.input_proj.W.data)


def test_permuting_assets_permutes_weights():
    model = tiny_model()
    perm = np.array([2, 0, 1])
    permuted = tiny_model()
    n = model.config.n_assets
    pw = permuted.input_proj.W.data.copy()
    pw[:n] = model.input_proj.W.data[:n][perm]
    permuted.input_proj.W.data[:] = pw
    permuted.head.W.data[:] = model.head.W.data[:, perm]
    permuted.head.b.data[:] = model.head.b.data[perm]

    x_enc = RNG.standard_normal((4, 3)) * 0.02
    x_dec = RNG.standard_normal((4, 3)) * 0.02
    base = model.window_weights(np.vstack([x_enc, x_dec])).data
    out = permuted.window_weights(np.vstack([x_enc[:, perm], x_dec[:, perm]])).data
    np.testing.assert_allclose(out, base[:, perm], atol=1e-12)


def test_scale_mode_changes_outputs():
    x_enc = RNG.standard_normal((4, 3))
    x_dec = RNG.standard_normal((4, 3))
    a = tiny_model().window_weights(np.vstack([x_enc, x_dec])).data
    b = tiny_model(attention_scale_mode="d_k").window_weights(np.vstack([x_enc, x_dec])).data
    assert not np.allclose(a, b)


def test_day_weights_is_last_decoder_row():
    model = tiny_model()
    block = RNG.standard_normal((8, 3)) * 0.02
    w = model.window_weights(block).data
    np.testing.assert_array_equal(model.day_weights(block), w[-1])


def test_dropout_training_path_differs_but_keeps_constraint():
    model = tiny_model(dropout=0.4)
    block = RNG.standard_normal((8, 3)) * 0.02
    w1 = model.window_weights(block, rng=np.random.default_rng(1)).data
    w2 = model.window_weights(block, rng=np.random.default_rng(2)).data
    assert not np.allclose(w1, w2)
    np.testing.assert_allclose(np.abs(w1).sum(axis=1), 1.0, atol=1e-9)
    # inference path ignores dropout entirely
    assert np.array_equal(model.day_weights(block), model.day_weights(block))


def test_model_gradients_match_finite_differences_sampled():
    """Spot-check three coordinates of every parameter group end to end."""
    model = tiny_model()
    block = np.random.default_rng(21).standard_normal((8, 3)) * 0.02
    realized = np.random.default_rng(22).standard_normal((4, 3)) * 0.02
    window = ReturnsWindow(realized=realized)
    costs = CostModel()

    def loss_fn():
        return sharpe_loss(model.window_weights(block), window, costs)

    errs = model_grad_errors(model, loss_fn, coords_per_param=3, rng=np.random.default_rng(23))
    worst = max(errs.values())
    assert worst < 1e-4, f"worst group error {worst}"


def loss_and_grads(model, weights_fn, loss_fn, realized):
    params = model.parameters()
    for p in params.values():
        p.grad = None
    with ag.Tape() as tape:
        loss = ag.mean(loss_fn(weights_fn(), ReturnsWindow(realized, prev_weights=np.full(3, 1 / 3)), CostModel()))
        ag.backward(loss, tape)
    return loss.item(), {name: p.grad.copy() for name, p in params.items()}


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("batch", [None, 3], ids=["rank2", "rank3"])
def test_forward_and_every_gradient_match_composition(batch, heads):
    model = tiny_model(n_heads=heads, n_layers=2)
    rng = np.random.default_rng(heads)
    lead = () if batch is None else (batch,)
    block = rng.standard_normal((*lead, 8, 3)) * 0.02
    realized = rng.standard_normal((*lead, 4, 3)) * 0.02
    stack = block if batch else block[None]

    def oracle_weights():
        w = pt_weights_composed(model, stack)
        return w if batch else ag.reshape(w, w.shape[1:])

    fused = loss_and_grads(model, lambda: model.window_weights(block), sharpe_loss, realized)
    composed = loss_and_grads(model, oracle_weights, sharpe_loss_composed, realized)
    assert scaled_gap(fused[0], composed[0]) <= 1e-12
    for name, g in composed[1].items():
        assert scaled_gap(fused[1][name], g) <= 1e-12, name
    assert scaled_gap(model.window_weights(block).data, oracle_weights().data) <= 1e-12


def test_dropout_masks_fall_where_the_composition_draws_them():
    """Masks after each embedding, each attention and each GLU, in that order."""
    model = tiny_model(dropout=0.1)
    block = RNG.standard_normal((2, 8, 3)) * 0.02
    realized = RNG.standard_normal((2, 4, 3)) * 0.02
    fused = loss_and_grads(
        model, lambda: model.window_weights(block, rng=np.random.default_rng(4)), sharpe_loss, realized
    )
    composed = loss_and_grads(
        model, lambda: pt_weights_composed(model, block, np.random.default_rng(4)), sharpe_loss_composed, realized
    )
    assert fused[0] != loss_and_grads(model, lambda: model.window_weights(block), sharpe_loss, realized)[0]
    assert scaled_gap(fused[0], composed[0]) <= 1e-12
    for name, g in composed[1].items():
        assert scaled_gap(fused[1][name], g) <= 1e-12, name


def test_default_training_step_tape_length():
    """One default PT step (B=32, forward, loss and mean) records 22 tape nodes:
    the embedding, attention, GLU, residual norm, dense, signed-softmax head
    and loss blocks each take one. An op that goes back to op-by-op recording fails this."""
    model = PortfolioTransformer(PTConfig(n_assets=4, window=8))
    rng = np.random.default_rng(0)
    with ag.Tape() as tape:
        weights = model.window_weights(rng.normal(0.0, 0.01, (32, 16, 4)))
        ag.mean(sharpe_loss(weights, ReturnsWindow(rng.normal(0.0, 0.01, (32, 8, 4))), CostModel()))
    assert len(tape.nodes) == 22


def test_gradient_report_passes_at_small_size():
    script = Path(__file__).parent / "gradient_report.py"
    env = {**os.environ, "PYTHONPATH": str(Path(ag.__file__).resolve().parents[1])}
    args = ["--assets", "3", "--window", "4", "--d-model", "4", "--heads", "2", "--layers", "1"]
    out = subprocess.run([sys.executable, str(script), *args], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "(OK)" in out.stdout


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_roundtrip(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    clone = load_checkpoint(path)
    assert clone.config == model.config
    for name, t in model.parameters().items():
        assert np.array_equal(clone.parameters()[name].data, t.data)
    x_enc = RNG.standard_normal((4, 3))
    x_dec = RNG.standard_normal((4, 3))
    assert np.array_equal(clone.window_weights(np.vstack([x_enc, x_dec])).data, model.window_weights(np.vstack([x_enc, x_dec])).data)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    # a bad header, then a good header naming no model kind
    for text in ("NOTACKPT\n{}", 'PTCKPT1\n{"kind": "nosuch", "config": {}, "params": {}}'):
        path.write_text(text)
        with pytest.raises(ValueError):
            load_checkpoint(path)


def test_checkpoint_survives_parameter_mutation(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    model.head.W.data[...] += 1.0
    clone = load_checkpoint(path)
    assert not np.array_equal(clone.head.W.data, model.head.W.data)


@pytest.mark.parametrize("kind", ["pt", "lstm", "mlp"])
def test_committed_checkpoints_resave_byte_for_byte(kind, tmp_path):
    """``tests/data/<kind>.ckpt`` came from ``save_checkpoint`` at commit 7721424,
    before parameter naming moved into ``model._collect``: a 2-layer, 2-head PT
    (d_model=4, t2v_k=1), an LSTM (hidden=3) and an MLP (hidden=(4, 3)), all on
    2 assets and window 2. Names, order, config and values must all survive."""
    fixture = Path(__file__).parent / "data" / f"{kind}.ckpt"
    model = load_checkpoint(fixture)
    assert model.kind == kind
    save_checkpoint(model, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == fixture.read_bytes()


def test_committed_checkpoint_day_weights_match_composition():
    model = load_checkpoint(Path(__file__).parent / "data" / "pt.ckpt")
    tau, n = model.config.window, model.config.n_assets
    blocks = np.random.default_rng(31).normal(0.0, 0.02, (50, 2 * tau, n))
    with ag.no_grad():
        oracle = pt_weights_composed(model, blocks).data[:, -1]
    assert scaled_gap(model.day_weights(blocks), oracle) <= 1e-12


def test_checkpoint_config_with_a_bool_for_an_int_is_rejected(tmp_path):
    text = (Path(__file__).parent / "data" / "pt.ckpt").read_text()
    assert '"n_layers": 2' in text
    path = tmp_path / "bool.ckpt"
    path.write_text(text.replace('"n_layers": 2', '"n_layers": true'))
    with pytest.raises(ValueError, match="n_layers"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, match", [
    (lambda doc: doc.pop("kind"), "no 'kind' entry"),
    (lambda doc: doc.pop("params"), "no 'params' entry"),
    (lambda doc: doc["config"].update(depth=2), "'depth'"),
    (lambda doc: doc["config"].pop("n_assets"), "'n_assets'"),
    (lambda doc: doc["params"]["wh"].pop("shape"), "parameter 'wh' is malformed: KeyError: 'shape'"),
    (lambda doc: doc["params"]["wh"].pop("data"), "parameter 'wh' is malformed: KeyError: 'data'"),
    (lambda doc: doc["params"].update(b=[0.0] * 12), "parameter 'b' is malformed: TypeError"),
    (lambda doc: doc["params"]["head.W"]["data"].pop(), "parameter 'head.W' is malformed: ValueError: cannot reshape"),
    # a whole document in place of the object
    (["kind", "config", "params"], "checkpoint is a JSON list, not an object"),
    (5, "checkpoint is a JSON int, not an object"),
    (lambda doc: doc.update(kind=["lstm"]), r"unknown model kind \['lstm'\] in checkpoint"),
    (lambda doc: doc.update(params=list(doc["params"])), "checkpoint 'params' entry is a JSON list, not an object"),
    (lambda doc: doc["params"]["wh"]["data"].__setitem__(1, float("nan")), "checkpoint parameter 'wh' is not finite"),
    (lambda doc: doc["params"]["b"]["data"].__setitem__(0, -float("inf")), "checkpoint parameter 'b' is not finite"),
], ids=["no_kind", "no_params", "unknown_field", "missing_field", "no_shape", "no_data", "not_an_object", "short_data",
        "list_document", "number_document", "list_kind", "list_params", "nan_data", "infinite_data"])
def test_malformed_checkpoint_raises_value_error(edit, match, tmp_path):
    magic, body = (Path(__file__).parent / "data" / "lstm.ckpt").read_text().split("\n", 1)
    doc = json.loads(body)
    if callable(edit):
        edit(doc)
    else:
        doc = edit
    path = tmp_path / "bad.ckpt"
    path.write_text(f"{magic}\n{json.dumps(doc)}\n")
    with pytest.raises(ValueError, match=match):
        load_checkpoint(path)
