"""Exception types shared across the package.

The hierarchy is the CLI's exit-code map, so keep it flat: ``cli.main`` exits 2
on a DataError (bad input data), 3 on a NumericError (a failure of a run's
arithmetic) and 1 on any other ValueError (a usage error, a shape mismatch
among them). The search catches a fit's TrainingError and ranks that trial last.
"""


class DataError(ValueError):
    """Input data violates a documented contract (bad price, bad schema, ...)."""


class NumericError(RuntimeError):
    """A numeric procedure failed (singular system, non-finite value, ...)."""


class TrainingError(NumericError):
    """Training aborted; message names the offending epoch/batch."""
