"""Value and gradient tests for the tape-based tensor engine.

Every differentiable primitive, the library's and the oracle-only ones in
``tests/helpers.py``, is checked against a central finite difference
oracle; forward values are checked against direct numpy expressions
evaluated in the test itself. Each fused op is checked against its op-by-op
composition in ``tests/helpers.py``, on the value and on every input
gradient, and against finite differences.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import ptopt.autograd as ag
from ptopt.autograd import Tape, Tensor
from ptopt.errors import NumericError
from ptopt.model import PTConfig, PortfolioTransformer
from ptopt.objective import CostModel, ReturnsWindow, sharpe_loss

from helpers import (
    absolute,
    add,
    assert_fused_matches_composed,
    backward_keeping_grads,
    broadcast_to,
    causal_mask,
    concat,
    dense_composed,
    div,
    embed_composed,
    finite_diff_grad,
    glu_composed,
    layer_norm,
    matmul,
    max_rel_err,
    mean_axis,
    mha_composed,
    reduce_sum,
    residual_layer_norm_composed,
    scale,
    shift,
    sigmoid,
    sign_const,
    signed_softmax_composed,
    sin,
    slice_,
    softmax,
    softmax_rows,
    sqrt,
    sub,
    tanh,
    tape_value_and_grads,
    transpose,
)

RNG = np.random.default_rng(0)

GRAD_TOL = 1e-6


def run_grad_check(x0, forward):
    """Compare tape gradients against finite differences of the forward pass."""
    x0 = np.asarray(x0, dtype=np.float64)

    def loss_value(xv):
        with ag.no_grad():
            return forward(Tensor(xv)).item()

    with Tape() as tape:
        x = Tensor(x0.copy(), requires_grad=True)
        loss = forward(x)
        ag.backward(loss, tape)
    assert x.grad is not None
    numeric = finite_diff_grad(loss_value, x0.copy())
    return max_rel_err(x.grad, numeric)


# fixed coefficient arrays so losses have generic, nonzero gradients
C23 = RNG.standard_normal((2, 3))
C32 = RNG.standard_normal((3, 2))
C3 = RNG.standard_normal(3)
C22 = RNG.standard_normal((2, 2))
X23 = RNG.standard_normal((2, 3))
P23 = RNG.uniform(0.5, 1.5, (2, 3))
# a batch of two (2, 3) matrices and coefficient arrays to match
X423 = RNG.standard_normal((4, 2, 3))
X432 = RNG.standard_normal((4, 3, 2))
C423 = RNG.standard_normal((4, 2, 3))
C422 = RNG.standard_normal((4, 2, 2))
C432 = RNG.standard_normal((4, 3, 2))


def weighted_sum(y, coef):
    return reduce_sum(ag.mul(y, Tensor(coef)))


GRAD_CASES = [
    ("add", X23, lambda x: weighted_sum(add(x, Tensor(C23)), C23 + 1.0)),
    ("add_bias", C3, lambda b: weighted_sum(add(Tensor(X23), b), C23)),
    ("sub_left", X23, lambda x: weighted_sum(sub(x, Tensor(C23)), C23 + 0.5)),
    ("sub_right", X23, lambda x: weighted_sum(sub(Tensor(C23), x), C23 + 0.5)),
    ("mul", X23, lambda x: weighted_sum(ag.mul(x, Tensor(C23)), C23 - 0.2)),
    ("div_num", X23, lambda x: weighted_sum(div(x, Tensor(P23)), C23)),
    ("div_den", P23, lambda x: weighted_sum(div(Tensor(C23), x), C23)),
    ("shift_scale", X23, lambda x: reduce_sum(ag.mul(scale(shift(x, 2.5), 3.0), Tensor(C23)))),
    ("neg", X23, lambda x: weighted_sum(scale(x, -1.0), C23)),
    ("matmul_left", X23, lambda x: weighted_sum(matmul(x, Tensor(C32)), C22)),
    ("matmul_right", C32, lambda x: weighted_sum(matmul(Tensor(X23), x), C22)),
    ("concat0", X23, lambda x: weighted_sum(concat([x, Tensor(C23)], axis=0), np.vstack([C23, X23]))),
    ("concat1", X23, lambda x: weighted_sum(concat([Tensor(C23), x], axis=1), np.hstack([C23, X23]))),
    ("sum_all", X23, lambda x: reduce_sum(ag.mul(x, Tensor(C23)))),
    ("sum_axis0", X23, lambda x: weighted_sum(reduce_sum(x, axis=0), C3)),
    ("sum_axis1", X23, lambda x: weighted_sum(reduce_sum(x, axis=1), C22[0])),
    ("mean_all", X23, lambda x: ag.mean(ag.mul(x, Tensor(C23)))),
    ("mean_axis0", X23, lambda x: weighted_sum(mean_axis(x, 0), C3)),
    ("mean_axis1", X23, lambda x: weighted_sum(mean_axis(x, 1), C22[0])),
    ("sqrt", P23, lambda x: weighted_sum(sqrt(x), C23)),
    ("abs", P23 + 0.5, lambda x: weighted_sum(absolute(x), C23)),
    ("abs_neg", -(P23 + 0.5), lambda x: weighted_sum(absolute(x), C23)),
    ("sin", X23, lambda x: weighted_sum(sin(x), C23)),
    ("tanh", X23, lambda x: weighted_sum(tanh(x), C23)),
    ("transpose", X23, lambda x: weighted_sum(transpose(x), C32)),
    ("slice_rows", X23, lambda x: weighted_sum(slice_(x, 0, 1, 2), C23[:1])),
    ("slice_cols", X23, lambda x: weighted_sum(slice_(x, 1, 0, 2), C22)),
    ("reshape", X23, lambda x: weighted_sum(ag.reshape(x, (3, 2)), C32)),
    ("softmax", X23, lambda x: weighted_sum(softmax(x), C23)),
    ("elu", X23, lambda x: weighted_sum(ag.elu(x), C23)),
    ("sigmoid", X23, lambda x: weighted_sum(sigmoid(x), C23)),
    ("layer_norm_x", X23, lambda x: weighted_sum(layer_norm(x, Tensor(C3 + 2.0), Tensor(C3)), C23)),
    ("layer_norm_gain", C3 + 2.0, lambda g: weighted_sum(layer_norm(Tensor(X23), g, Tensor(C3)), C23)),
    ("layer_norm_bias", C3, lambda b: weighted_sum(layer_norm(Tensor(X23), Tensor(C3 + 2.0), b), C23)),
    ("batched_matmul_left", X423, lambda x: weighted_sum(matmul(x, Tensor(C32)), C422)),
    ("batched_matmul_shared", C32, lambda w: weighted_sum(matmul(Tensor(X423), w), C422)),
    ("batched_matmul_pairs_left", X423, lambda x: weighted_sum(matmul(x, Tensor(X432)), C422)),
    ("batched_matmul_pairs_right", X432, lambda y: weighted_sum(matmul(Tensor(X423), y), C422)),
    ("batched_add_bias", C3, lambda b: weighted_sum(add(Tensor(X423), b), C423)),
    ("batched_add_mask", X23, lambda m: weighted_sum(add(Tensor(X423), m), C423)),
    ("batched_transpose", X423, lambda x: weighted_sum(transpose(x), C432)),
    ("broadcast_to", X23, lambda x: weighted_sum(broadcast_to(x, (4, 2, 3)), C423)),
    ("batched_slice_last", X423, lambda x: weighted_sum(slice_(x, -1, 1, 3), C422)),
    ("batched_concat_last", X423, lambda x: weighted_sum(concat([x, Tensor(C423)], axis=-1), np.concatenate([C423, X423], axis=-1))),
    ("batched_mean_last", X423, lambda x: weighted_sum(mean_axis(x, -1), C422[..., 0])),
    ("batched_softmax", X423, lambda x: weighted_sum(softmax(x), C423)),
    ("batched_layer_norm", X423, lambda x: weighted_sum(layer_norm(x, Tensor(C3 + 2.0), Tensor(C3)), C423)),
    ("batched_layer_norm_gain", C3 + 2.0, lambda g: weighted_sum(layer_norm(Tensor(X423), g, Tensor(C3)), C423)),
    (
        "composite",
        X23,
        lambda x: ag.mean(
            ag.mul(
                softmax(ag.elu(matmul(x, Tensor(C32)))),
                sigmoid(layer_norm(matmul(x, Tensor(C32)), Tensor(C22[0] + 1.5), Tensor(C22[1]))),
            )
        ),
    ),
]


@pytest.mark.parametrize("name,x0,forward", GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
def test_gradients_match_finite_differences(name, x0, forward):
    assert run_grad_check(x0, forward) < GRAD_TOL


# ---------------------------------------------------------------------------
# forward values


def test_tensor_is_float64():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.shape == (2, 2)
    assert t.data.size == 4


def test_elementwise_values():
    a = Tensor([[1.0, -2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(add(a, b).data, [[6.0, 4.0], [10.0, 12.0]])
    np.testing.assert_array_equal(sub(a, b).data, [[-4.0, -8.0], [-4.0, -4.0]])
    np.testing.assert_array_equal(ag.mul(a, b).data, [[5.0, -12.0], [21.0, 32.0]])
    np.testing.assert_allclose(div(a, b).data, a.data / b.data)
    np.testing.assert_array_equal(absolute(a).data, np.abs(a.data))
    np.testing.assert_allclose(sin(a).data, np.sin(a.data))
    np.testing.assert_allclose(tanh(a).data, np.tanh(a.data))


def test_bias_add_broadcasts_rows():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(add(a, b).data, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])


def test_matmul_value():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    np.testing.assert_array_equal(matmul(a, b).data, [[17.0], [39.0]])


def test_batched_ops_match_per_slice_results():
    """A leading batch axis gives, slice by slice, the unbatched result."""
    w = Tensor(C32)
    bias = Tensor(C22[0])
    shared = add(matmul(Tensor(X423), w), bias).data
    pairs = matmul(Tensor(X423), Tensor(X432)).data
    flipped = transpose(Tensor(X423)).data
    for i in range(4):
        np.testing.assert_array_equal(shared[i], add(matmul(Tensor(X423[i]), w), bias).data)
        np.testing.assert_array_equal(pairs[i], matmul(Tensor(X423[i]), Tensor(X432[i])).data)
        np.testing.assert_array_equal(flipped[i], X423[i].T)


def test_reductions_and_reshapes():
    x = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert reduce_sum(x).item() == 21.0
    np.testing.assert_array_equal(reduce_sum(x, axis=0).data, [5.0, 7.0, 9.0])
    assert ag.mean(x).item() == 3.5
    np.testing.assert_array_equal(transpose(x).data, x.data.T)
    np.testing.assert_array_equal(ag.reshape(x, (3, 2)).data, x.data.reshape(3, 2))
    np.testing.assert_array_equal(slice_(x, 1, 1, 3).data, x.data[:, 1:3])
    np.testing.assert_array_equal(concat([x, x], axis=0).data, np.vstack([x.data, x.data]))


def test_softmax_reference_point():
    out = softmax(Tensor([2.0, -1.0])).data
    np.testing.assert_allclose(out, [0.952574126822433, 0.047425873177567], atol=1e-12)


def test_softmax_is_overflow_safe():
    out = softmax(Tensor([1000.0, 0.0])).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)


def test_elu_matches_definition_and_survives_large_negatives():
    x = np.array([-1000.0, -1.0, 0.0, 2.0])
    out = ag.elu(Tensor(x)).data
    expected = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
    np.testing.assert_allclose(out, expected)
    assert np.all(np.isfinite(out))


def test_sigmoid_matches_expit():
    x = np.array([-1000.0, -745.0, -709.0, -30.0, -1.0, 0.0, 1.0, 30.0, 709.0, 745.0, 1000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(Tensor(x)).data
    assert np.all(np.isfinite(out))
    assert np.all((out >= 0.0) & (out <= 1.0))
    np.testing.assert_allclose(out, expit(x), rtol=0, atol=1e-15)


def test_layer_norm_hand_case():
    x = np.array([-1.0, 0.0, 1.0])
    out = ag.residual_layer_norm(Tensor(x), Tensor(np.zeros(3)), Tensor(np.ones(3)), Tensor(np.zeros(3))).data
    expected = (x - x.mean()) / np.sqrt(x.var() + 1e-5)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_sign_const_values_and_zero_convention():
    out = sign_const(Tensor([-2.0, 0.0, 3.0]))
    np.testing.assert_array_equal(out.data, [-1.0, 1.0, 1.0])
    assert not out.requires_grad


def test_sign_const_blocks_gradient():
    """Gradient flows only through the non-sign factor of w = sign(s) * p(s)."""
    s0 = np.array([0.4, -1.2, 2.0])
    with Tape() as tape:
        s = Tensor(s0.copy(), requires_grad=True)
        w = ag.mul(sign_const(s), softmax(s))
        loss = reduce_sum(ag.mul(w, Tensor(np.array([1.0, 2.0, 3.0]))))
        ag.backward(loss, tape)
    signs = np.where(s0 >= 0, 1.0, -1.0)

    def f(sv):
        p = softmax_rows(sv)
        return float(np.sum(signs * p * np.array([1.0, 2.0, 3.0])))

    numeric = finite_diff_grad(f, s0.copy())
    assert max_rel_err(s.grad, numeric) < GRAD_TOL


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_skips_a_node_off_the_loss_s_path():
    x = Tensor([2.0, -3.0], requires_grad=True)
    with Tape() as tape:
        off = ag.mul(x, x)  # taped, but no gradient reaches it: its backward must not run on None
        ag.backward(reduce_sum(scale(x, 3.0)), tape)
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])
    assert off.grad is None


def test_fanout_gradients_accumulate():
    with Tape() as tape:
        x = Tensor([2.0, -3.0], requires_grad=True)
        y = reduce_sum(add(ag.mul(x, x), scale(x, 3.0)))
        ag.backward(y, tape)
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 3.0)


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_backward_frees_op_gradients_and_keeps_leaf_gradients(dropout):
    """After backward every op output holds no gradient and the tape keeps its
    nodes; each parameter's gradient equals a sweep that frees nothing."""
    model = PortfolioTransformer(PTConfig(n_assets=4, window=8, n_layers=2, dropout=dropout, seed=3))
    rng = np.random.default_rng(4)
    blocks, realized = rng.normal(0.0, 0.02, (8, 16, 4)), rng.normal(0.0, 0.01, (8, 8, 4))
    grads = []
    for sweep in (ag.backward, backward_keeping_grads):
        for p in model.parameters().values():
            p.grad = None
        with Tape() as tape:
            weights = model.window_weights(blocks, rng=np.random.default_rng(5))
            loss = ag.mean(sharpe_loss(weights, ReturnsWindow(realized), CostModel()))
            nodes = len(tape.nodes)
            sweep(loss, tape)
        assert len(tape.nodes) == nodes
        outputs = [out for _, out, _ in tape.nodes]
        assert all(out.grad is None for out in outputs) == (sweep is ag.backward)
        grads.append({name: p.grad for name, p in model.parameters().items()})
    for name, g in grads[0].items():
        assert np.array_equal(g, grads[1][name]), name


def test_backward_rejects_nonscalar_loss():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ag.mul(x, x)
        with pytest.raises(NumericError, match=r"backward needs a scalar loss, got shape \(2,\)"):
            ag.backward(y, tape)


def test_no_grad_suppresses_recording():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        with ag.no_grad():
            y = ag.mul(x, x)
        assert tape.nodes == []
        assert not y.requires_grad


def test_constant_ops_stay_off_the_tape():
    with Tape() as tape:
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        ag.mul(a, b)
        assert tape.nodes == []


def test_ops_without_tape_still_compute():
    x = Tensor([1.0, 4.0], requires_grad=True)
    y = sqrt(x)
    np.testing.assert_array_equal(y.data, [1.0, 2.0])


def test_backward_is_deterministic():
    def run():
        with Tape() as tape:
            x = Tensor(X23.copy(), requires_grad=True)
            loss = ag.mean(softmax(matmul(x, Tensor(C32))))
            ag.backward(loss, tape)
        return x.grad

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# shape and contract violations


@pytest.mark.parametrize(
    "bad",
    [
        lambda: matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))),
        lambda: add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2)))),
        lambda: sub(Tensor(np.zeros(3)), Tensor(np.zeros(2))),
        lambda: ag.mul(Tensor(np.zeros(3)), Tensor(np.zeros(2))),
        lambda: div(Tensor(np.zeros(3)), Tensor(np.ones(2))),
        lambda: transpose(Tensor(np.zeros(3))),
        lambda: matmul(Tensor(np.zeros((4, 2, 3))), Tensor(np.zeros((5, 3, 2)))),
        lambda: matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2)))),
        lambda: add(Tensor(np.zeros((4, 2, 3))), Tensor(np.zeros((3, 3)))),
        lambda: add(Tensor(np.zeros(3)), Tensor(np.zeros((2, 3)))),
        lambda: broadcast_to(Tensor(np.zeros((2, 3))), (4, 3, 2)),
        lambda: slice_(Tensor(np.zeros((2, 3))), 2, 0, 1),
        lambda: slice_(Tensor(np.zeros((2, 3))), 0, 1, 5),
        lambda: slice_(Tensor(np.zeros((2, 3))), 1, 2, 2),
        lambda: concat([], axis=0),
        lambda: layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(2)), Tensor(np.zeros(3))),
        lambda: ag.residual_layer_norm(
            Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.ones(2)), Tensor(np.zeros(3))
        ),
        lambda: ag.residual_layer_norm(
            Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.ones(3)), Tensor(np.zeros(3))
        ),
        lambda: ag.embed(Tensor(np.zeros(3)), Tensor(np.zeros(2)), Tensor(np.zeros(2)), Tensor(np.zeros((5, 4))), Tensor(np.zeros(4))),
    ],
)
def test_shape_violations_raise(bad):
    # the op's own check, which names the op, and not numpy's ValueError from deeper in
    with pytest.raises(ValueError, match=r"^(matmul|add|sub|mul|div|transpose|broadcast_to|slice|concat|residual_layer_norm|embed): "):
        bad()


# ---------------------------------------------------------------------------
# properties


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
def test_softmax_is_a_distribution(xs):
    out = softmax(Tensor(np.array(xs))).data
    assert np.all(out >= 0.0)
    assert abs(out.sum() - 1.0) < 1e-9


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
def test_sign_const_is_unit_magnitude(xs):
    out = sign_const(Tensor(np.array(xs))).data
    assert set(np.unique(out)) <= {-1.0, 1.0}


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
def test_elu_lower_bound(xs):
    out = ag.elu(Tensor(np.array(xs))).data
    assert np.all(out > -1.0 - 1e-15)


@settings(max_examples=50)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=8), st.integers(1, 4))
def test_layer_norm_centers_rows(row, reps):
    x = np.tile(np.array(row), (reps, 1))
    d = x.shape[1]
    out = layer_norm(Tensor(x), Tensor(np.ones(d)), Tensor(np.zeros(d))).data
    assert np.all(np.abs(out.mean(axis=1)) < 1e-9)


# ---------------------------------------------------------------------------
# fused ops against their op-by-op compositions (tests/helpers.py)

LEADS = {"rank2": (), "rank3": (3,)}


@pytest.mark.parametrize("lead", LEADS.values(), ids=LEADS.keys())
def test_dense_matches_composition(lead):
    inputs = {"x": RNG.standard_normal((*lead, 5, 3)), "w": RNG.standard_normal((3, 2)), "b": RNG.standard_normal(2)}
    assert_fused_matches_composed(
        lambda t: ag.dense(t["x"], t["w"], t["b"]), lambda t: dense_composed(t["x"], t["w"], t["b"]), inputs
    )


@pytest.mark.parametrize("lead", LEADS.values(), ids=LEADS.keys())
def test_glu_matches_composition(lead):
    names = ("wv", "bv", "wg", "bg")
    inputs = {"x": RNG.standard_normal((*lead, 4, 3)), "wv": RNG.standard_normal((3, 3)), "bv": RNG.standard_normal(3),
              "wg": RNG.standard_normal((3, 3)), "bg": RNG.standard_normal(3)}

    def composed(t):
        value, gate = SimpleNamespace(W=t["wv"], b=t["bv"]), SimpleNamespace(W=t["wg"], b=t["bg"])
        return glu_composed(t["x"], value, gate)

    assert_fused_matches_composed(lambda t: ag.glu(t["x"], *(t[n] for n in names)), composed, inputs)


@pytest.mark.parametrize("lead", LEADS.values(), ids=LEADS.keys())
def test_residual_layer_norm_matches_composition(lead):
    inputs = {"x": RNG.standard_normal((*lead, 4, 5)), "y": RNG.standard_normal((*lead, 4, 5)),
              "gain": RNG.uniform(0.5, 1.5, 5), "bias": RNG.standard_normal(5)}
    args = ("x", "y", "gain", "bias")
    assert_fused_matches_composed(
        lambda t: ag.residual_layer_norm(*(t[n] for n in args)),
        lambda t: residual_layer_norm_composed(*(t[n] for n in args)),
        inputs,
    )


@pytest.mark.parametrize("lead", LEADS.values(), ids=LEADS.keys())
def test_embed_matches_composition(lead):
    # 3 assets, k = 2 sinusoids, width 4
    inputs = {"x": RNG.standard_normal((*lead, 5, 3)), "omega": RNG.uniform(-1, 1, 3), "phi": RNG.uniform(-1, 1, 3),
              "w": RNG.standard_normal((6, 4)), "b": RNG.standard_normal(4)}
    args = ("x", "omega", "phi", "w", "b")

    def composed(t):
        t2v = SimpleNamespace(omega=t["omega"], phi=t["phi"], k=2)
        return embed_composed(t["x"], t2v, SimpleNamespace(W=t["w"], b=t["b"]))

    assert_fused_matches_composed(lambda t: ag.embed(*(t[n] for n in args)), composed, inputs)


@pytest.mark.parametrize("lead", LEADS.values(), ids=LEADS.keys())
def test_signed_softmax_equals_composition_bit_for_bit(lead):
    # a zero score takes the +1 sign; a tied row and a wide spread exercise the max shift
    x = RNG.standard_normal((*lead, 4, 5)) * 3.0
    x[..., 0, 0] = 0.0
    x[..., 1, :] = -2.0
    x[..., 2, 1] = 800.0
    inputs = {"x": x}
    value, grads = tape_value_and_grads(lambda t: ag.signed_softmax(t["x"]), inputs)
    ref_value, ref_grads = tape_value_and_grads(lambda t: signed_softmax_composed(t["x"]), inputs)
    np.testing.assert_array_equal(value, ref_value)
    np.testing.assert_array_equal(grads["x"], ref_grads["x"])
    smooth = {"x": np.where(x == 0.0, 0.5, x)}  # finite differences would straddle the sign's jump at 0
    assert_fused_matches_composed(lambda t: ag.signed_softmax(t["x"]), lambda t: signed_softmax_composed(t["x"]), smooth)


def test_mul_backward_skips_an_input_without_gradient():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with Tape() as tape:
        ag.mul(x, Tensor(np.array([0.0, 2.0])))  # a constant, like a dropout keep mask
    (_, _, back), = tape.nodes
    gx, g_keep = back(np.array([3.0, 5.0]))
    np.testing.assert_array_equal(gx, [0.0, 10.0])
    assert g_keep is None


# the two attentions the model runs: one tensor (self-attention, with and
# without causal masking), or queries over a longer memory (cross-attention)
MHA_MODES = {
    "self": (("x", "x", "x"), 5, False),
    "self_masked": (("x", "x", "x"), 5, True),
    "cross": (("x", "kv", "kv"), 6, False),
}


def mha_case(heads, lead, mode, d=8):
    roles, n, causal = MHA_MODES[mode]
    dk = d // heads
    inputs = {name: RNG.standard_normal((*lead, 5 if name == "x" else n, d)) for name in dict.fromkeys(roles)}
    for role in "qkv":
        inputs.update({f"w{role}{i}": RNG.standard_normal((d, dk)) / np.sqrt(d) for i in range(heads)})
    inputs["wo"] = RNG.standard_normal((d, d)) / np.sqrt(d)
    scale = np.sqrt(d)

    def weights(t, role):
        return [t[f"w{role}{i}"] for i in range(heads)]

    def fused(t):
        memory = None if roles[1] == "x" else t[roles[1]]
        return ag.mha(t["x"], memory, weights(t, "q"), weights(t, "k"), weights(t, "v"), t["wo"], scale, causal)

    def composed(t):
        layer = SimpleNamespace(wq=weights(t, "q"), wk=weights(t, "k"), wv=weights(t, "v"), wo=t["wo"],
                                scale=scale, n_heads=heads)
        return mha_composed(*(t[name] for name in roles), layer, causal_mask(5) if causal else None)

    return fused, composed, inputs


@pytest.mark.parametrize("mode", MHA_MODES)
@pytest.mark.parametrize("lead", LEADS.values(), ids=LEADS.keys())
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_mha_matches_composition(heads, lead, mode):
    fused, composed, inputs = mha_case(heads, lead, mode)
    # the finite-difference sweep once per mode and head count
    assert_fused_matches_composed(fused, composed, inputs, fd=lead == ())


def test_mha_rejects_bad_shapes():
    _, _, inputs = mha_case(2, (), "cross")
    x, w = Tensor(inputs["x"]), Tensor(inputs["wq0"])
    memory = Tensor(inputs["kv"][:, :6])  # 6 columns where the model is 8 wide
    with pytest.raises(ValueError, match="mha: incompatible shapes"):
        ag.mha(x, memory, [w, w], [w, w], [w, w], Tensor(inputs["wo"]), 1.0)

