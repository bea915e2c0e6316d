"""Exception hierarchy shared by all ldpclab modules.

One class per outcome: the CLI maps `PreconditionError` to exit 2,
`ResourceGuardError` to exit 3 and `NumericError` to exit 4.  The three
subclasses below exist because code tells them apart.
"""


class LdpcLabError(Exception):
    """Base class for all ldpclab errors."""


class PreconditionError(LdpcLabError):
    """A documented precondition of an operation was violated."""


class ResourceGuardError(LdpcLabError):
    """An enumeration, table, search or state space exceeds its guard limit."""


class NumericError(LdpcLabError):
    """An internal numeric consistency check failed."""


class MalformedInput(PreconditionError, ValueError):
    """Input data (a file, a matrix, a distribution) is unreadable or
    holds an entry outside the field or a vector of the wrong length."""


class CodeTooLarge(ResourceGuardError):
    """An enumeration past `ensembles.ENUM_GUARD`; `cli._sweep` reads it as
    null for a random linear code."""


class StateSpaceTooLarge(ResourceGuardError):
    """The layer DP past `WORK_GUARD`; `ldpc-contain` reads it as
    `exact_probability: null`."""
