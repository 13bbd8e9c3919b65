"""perfbench's tracer still finds every entry point it wraps.

``perfbench/spans.py`` rebinds ptopt's functions and model methods by name from
outside. A rename or a moved method in ``src/ptopt`` does not break it loudly:
the span just records nothing, and the benchmark's per-layer metrics read 0.
This runs the three trained strategies in-process under the tracer and
requires each span and count that they feed to be non-zero, then requires that
uninstalling put back every module attribute and model method it replaced.
"""

import sys
from pathlib import Path

import ptopt.cli as cli
from ptopt.benchmarks import MODEL_KINDS
from ptopt.model import batched_weights, last_rows

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

FED = (
    "model.window_weights.calls",
    "model.day_weights.calls",
    "benchmarks.lstm_forward.calls",
    "benchmarks.mlp_window_weights.calls",
    "autograd.nodes_per_window.pt",
    "autograd.nodes_per_window.lstm",
    "autograd.nodes_per_window.mlp",
    "training.fit.calls",
)


def module_bindings() -> dict:
    """Every attribute of every ptopt module, by ``module.attribute``."""
    modules = [m for name, m in sys.modules.items() if name == "ptopt" or name.startswith("ptopt.")]
    return {f"{m.__name__}.{k}": v for m in modules for k, v in vars(m).items()}


def test_tracer_binds_every_model_entry_point(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    data = tmp_path / "prices.csv"
    assert cli.main(["synth", "--assets", "3", "--days", "700", "--seed", "1", "--out", str(data)]) == 0
    before = module_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for kind in ("pt", "lstm", "mlp"):  # no --jobs: every fit runs in this process
            argv = ["run", "--strategy", kind, "--data", str(data), "--out", str(tmp_path / kind)]
            assert cli.main([*argv, "--first-test-year", "2015", "--window", "4", "--max-epochs", "1"]) == 0
    finally:
        tracer.uninstall()

    metrics = tracer.metrics()
    assert [name for name in FED if not metrics.get(name)] == []
    after = module_bindings()
    assert [name for name, value in before.items() if after.get(name) is not value] == []
    for cls in MODEL_KINDS.values():
        assert vars(cls)["window_weights"] is batched_weights and vars(cls)["day_weights"] is last_rows
