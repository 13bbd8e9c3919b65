"""The one range rule, ``errors.check_bounds``, on every bounded field of every config that calls it."""

import math

import pytest

from ptopt.benchmarks import LSTMConfig, MVConfig
from ptopt.cli import RunConfig
from ptopt.data import SynthConfig
from ptopt.model import PTConfig, WindowConfig
from ptopt.objective import CostModel
from ptopt.training import HyperparamSpace, TrainConfig

WINDOW = {"n_assets": 2, "window": 2}
# (config, the other fields it needs, bounded field, lower bound, the word of the message refusing a non-finite
# value): a config that casts an int field refuses NaN and infinity in the cast ("must be int") before its bounds
BOUNDED = [
    (WindowConfig, WINDOW, "n_assets", 2, "int"),
    (WindowConfig, WINDOW, "window", 2, "int"),
    (PTConfig, WINDOW, "t2v_k", 1, "int"),
    (PTConfig, WINDOW, "n_layers", 1, "int"),
    (LSTMConfig, WINDOW, "hidden", 1, "int"),
    (MVConfig, {}, "lookback", 2, "finite"),
    (MVConfig, {}, "ridge", 0.0, "finite"),
    (TrainConfig, {}, "batch_size", 1, "int"),
    (TrainConfig, {}, "learning_rate", 0.0, "finite"),
    (TrainConfig, {}, "max_epochs", 1, "int"),
    (TrainConfig, {}, "patience", 1, "int"),
    (HyperparamSpace, {"axes": {"hidden": [4]}}, "budget", 1, "finite"),
    (RunConfig, {"data": "p.csv", "out_dir": "o"}, "seed", 0, "finite"),
    (RunConfig, {"data": "p.csv", "out_dir": "o"}, "budget", 0, "finite"),
    (CostModel, {}, "cost_rate", 0.0, "finite"),
    (SynthConfig, {"n_assets": 1, "n_days": 2}, "n_assets", 1, "finite"),
    (SynthConfig, {"n_assets": 1, "n_days": 2}, "n_days", 2, "finite"),
    (SynthConfig, {"n_assets": 1, "n_days": 2}, "momentum", -math.inf, "finite"),
]


@pytest.mark.parametrize("config, base, field, lo, word", [
    pytest.param(*row, id=f"{row[0].__name__}-{row[2]}") for row in BOUNDED
])
def test_a_bounded_field_must_be_finite_and_at_least_its_bound(config, base, field, lo, word):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as err:
            config(**{**base, field: value})
        assert str(err.value) == f"{field} must be {word}, got {value}"
    if math.isfinite(lo):  # momentum takes any finite value
        with pytest.raises(ValueError) as err:
            config(**{**base, field: lo - 1})
        assert str(err.value) == f"{field} must be >= {lo:g}, got {lo - 1}"
        assert getattr(config(**{**base, field: lo}), field) == lo
