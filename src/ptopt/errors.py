"""Exception types shared across the package.

The hierarchy is the CLI's exit-code map, so keep it flat: bad input data is
a DataError (exit 2), a failure of a run's arithmetic a NumericError (exit 3)
and any other ValueError a usage error (exit 1).
"""


class DataError(ValueError):
    """Input data violates a documented contract (bad price, bad schema, ...)."""


class ParseError(DataError):
    """A file could not be parsed; message carries the offending line."""


class AlignmentError(DataError):
    """Weight dates and return dates do not line up day by day."""


class NumericError(RuntimeError):
    """A numeric procedure failed (singular system, non-finite value, ...)."""


class TrainingError(NumericError):
    """Training aborted; message names the offending epoch/batch."""


class ContractError(NumericError):
    """An operation was invoked outside its documented contract."""
