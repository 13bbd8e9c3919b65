"""Every model owns its parameters as one vector, and nothing rebinds a parameter.

A model's constructor packs its tensors into ``model.vector``, and each
tensor's data stays a view of its slice: Adam, checkpoint loads and the
shipping of a searched split all write through that vector. The first tests
read ``src/ptopt`` by syntax and fail on any assignment to a ``.data``
attribute outside the two places that make one; the others check the views
after each way a model comes to hold its parameters, that no trainable
tensor lives outside ``parameters()``, and that a checkpoint of any config
loads under the same names.
"""

import ast
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptopt.training as tr
from ptopt.autograd import Tensor
from ptopt.data import SynthConfig, clean_and_return, synth_generate, yearly_splits
from ptopt.model import load_checkpoint, save_checkpoint

from helpers import walk

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ptopt"
# a Tensor sets its data when it is made, and ``_pack`` makes it a view of the model's vector
ALLOWED = {("autograd", "Tensor.__init__"), ("model", "_pack")}


def data_assignments(tree) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function or class, line) of every binding of a ``.data`` attribute."""
    found = []

    def visit(node, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr == "data" and isinstance(node.ctx, (ast.Store, ast.Del)):
            found.append((scope, node.lineno))
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("setattr", "__setattr__")
            and len(node.args) > 1 and isinstance(node.args[1], ast.Constant) and node.args[1].value == "data"
        ):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_no_code_in_src_rebinds_a_parameter():
    sites = {
        (path.stem, scope, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, line in data_assignments(ast.parse(path.read_text(encoding="utf-8")))
    }
    stray = sorted(f"{module}.py:{line} in {scope or 'module'}" for module, scope, line in sites if (module, scope) not in ALLOWED)
    assert not stray, f"write into a parameter's data in place instead of rebinding it: {stray}"
    assert {(module, scope) for module, scope, _ in sites} == ALLOWED


def test_the_rebinding_check_sees_every_form_of_binding():
    tree = ast.parse(
        "class Model:\n"
        "    def load(self, t, x):\n        t.data = x\n"
        "    def write(self, t, x):\n        t.data[...] = x\n        t.grad = x\n"
        "def pair(a, b, x):\n    a.data, b = x, x\n"
        "def aug(t):\n    t.data += 1.0\n"
        "def by_name(t, x):\n    setattr(t, 'data', x)\n    object.__setattr__(t, 'data', x)\n"
    )
    assert [scope for scope, _ in data_assignments(tree)] == ["Model.load", "pair", "aug", "by_name", "by_name"]


def reachable_trainables(obj, seen=None) -> list[Tensor]:
    """Every ``requires_grad`` Tensor reachable from ``obj`` through attributes, lists, tuples and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType, types.MethodType)):
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj] if obj.requires_grad else []
    if isinstance(obj, (list, tuple)):
        children = obj
    elif isinstance(obj, dict):
        children = obj.values()
    else:
        children = vars(obj).values() if hasattr(obj, "__dict__") else ()
    return [t for child in children for t in reachable_trainables(child, seen)]


def assert_views_of_vector(model) -> None:
    """Each parameter's data is the C-contiguous slice of ``model.vector`` at its offset in checkpoint order,
    and every trainable tensor the model holds is exactly one entry of ``parameters()``."""
    named = [id(p) for p in model.parameters().values()]
    assert len(set(named)) == len(named), "a tensor is named twice"
    assert {id(t) for t in reachable_trainables(model)} == set(named), "a trainable tensor outside parameters()"
    vector = model.vector
    assert vector.dtype == np.float64 and vector.ndim == 1
    start = vector.__array_interface__["data"][0]
    offset = 0
    for name, p in model.parameters().items():
        assert p.data.__array_interface__["data"][0] == start + 8 * offset, name
        assert p.data.flags.c_contiguous and p.data.dtype == np.float64, name
        offset += p.data.size
    assert offset == vector.size


KINDS = {"pt": {"n_layers": 2, "dropout": 0.1, "d_model": 4}, "lstm": {"hidden": 3}, "mlp": {"hidden": [4, 3]}}
TABLE = clean_and_return(synth_generate(SynthConfig(n_assets=3, n_days=560, seed=4, momentum=0.3)))
CFG = tr.TrainConfig(batch_size=128, max_epochs=2, seed=0)


def built(kind):
    return tr.build_model(kind, 3, 2, KINDS[kind], seed=1)


def loaded(kind, tmp_path):
    model = built(kind)
    model.vector[:] = np.arange(model.vector.size) / model.vector.size  # not the constructor's values
    save_checkpoint(model, tmp_path / "model.ckpt")
    clone = load_checkpoint(tmp_path / "model.ckpt")
    assert np.array_equal(clone.vector, model.vector)
    return clone


def fitted(kind, tmp_path):
    model = built(kind)
    train, valid = tr.build_windows(TABLE, 2, 0, 200), tr.build_windows(TABLE, 2, 200, 250)
    result = tr.fit(model, train, valid, CFG)
    assert result.vector is model.vector
    return model


def shipped(kind, tmp_path):
    space = tr.HyperparamSpace(axes={name: [value] for name, value in KINDS[kind].items()}, budget=2)
    result = walk(TABLE, yearly_splits(TABLE, 2015), kind, tau=2, space=space, base_cfg=CFG, seed=1)
    (outcome,) = result.outcomes
    assert len(outcome.trials) == 2
    return outcome.model


@pytest.mark.parametrize("make", [lambda k, _: built(k), loaded, fitted, shipped], ids=["built", "loaded", "fitted", "shipped"])
@pytest.mark.parametrize("kind", KINDS)
def test_every_parameter_is_a_view_of_the_model_vector(kind, make, tmp_path):
    assert_views_of_vector(make(kind, tmp_path))


@pytest.mark.parametrize("hide", [lambda t: (t,), lambda t: {"extra": t}, lambda t: [(t,)]], ids=["tuple", "dict", "list_of_tuple"])
def test_a_trainable_tensor_outside_parameters_is_caught(hide):
    model = built("mlp")
    model.layer[0].extra = hide(Tensor(np.zeros(2), requires_grad=True))
    with pytest.raises(AssertionError, match="outside parameters"):
        assert_views_of_vector(model)


def pt_combo(draw):
    n_heads = draw(st.integers(1, 3))
    return {
        "d_model": n_heads * draw(st.integers(1, 3)), "n_heads": n_heads, "t2v_k": draw(st.integers(1, 3)),
        "n_layers": draw(st.integers(1, 2)), "dropout": draw(st.sampled_from([0.0, 0.25])),
        "attention_scale_mode": draw(st.sampled_from(["d_model", "d_k"])),
    }


COMBOS = {
    "pt": pt_combo,
    "lstm": lambda draw: {"hidden": draw(st.integers(1, 5))},
    "mlp": lambda draw: {"hidden": draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))},
}


@st.composite
def model_specs(draw):
    kind = draw(st.sampled_from(sorted(COMBOS)))
    return kind, draw(st.integers(2, 3)), draw(st.integers(2, 3)), COMBOS[kind](draw), draw(st.integers(0, 2**16))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(spec=model_specs())
def test_checkpoint_round_trips_any_config(spec, tmp_path_factory):
    kind, n_assets, tau, combo, seed = spec
    model = tr.build_model(kind, n_assets, tau, combo, seed=seed)
    rng = np.random.default_rng(seed)
    model.vector[:] = rng.normal(0.0, 0.5, model.vector.size)  # not the constructor's values
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(model, path)
    clone = load_checkpoint(path)
    assert list(clone.parameters()) == list(model.parameters())
    assert clone.vector.tobytes() == model.vector.tobytes()
    assert_views_of_vector(clone)
    blocks = rng.normal(0.0, 0.02, (5, 2 * tau, n_assets))
    assert np.array_equal(clone.day_weights(blocks), model.day_weights(blocks))
