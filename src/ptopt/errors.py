"""Exception types shared across the package, and the one range rule of every config.

The hierarchy is the CLI's exit-code map, so keep it flat: ``cli.main`` exits 2
on a DataError (bad input data), 3 on a NumericError (a failure of a run's
arithmetic) and 1 on any other ValueError (a usage error, a shape mismatch
among them). The search catches a fit's TrainingError and ranks that trial last.

``check_bounds`` is the range rule: each config's ``__post_init__`` calls it
once, and its ValueError (exit 1) names the first field that is not a finite
number at or above its bound, so NaN and infinity fail it too.
"""

import math


class DataError(ValueError):
    """Input data violates a documented contract (bad price, bad schema, ...)."""


class NumericError(RuntimeError):
    """A numeric procedure failed (singular system, non-finite value, ...)."""


class TrainingError(NumericError):
    """Training aborted; message names the offending epoch/batch."""


def check_bounds(config, **lower) -> None:
    """Raise ValueError unless each named field of ``config``, in the order given, is finite and >= its bound."""
    for name, lo in lower.items():
        value = getattr(config, name)
        if not -math.inf < value < math.inf:  # NaN fails both comparisons; an int of any size passes
            raise ValueError(f"{name} must be finite, got {value}")
        if value < lo:
            raise ValueError(f"{name} must be >= {lo}, got {value}")
