"""Exception hierarchy shared by all ldpclab modules."""


class LdpcLabError(Exception):
    """Base class for all ldpclab errors."""


class PreconditionError(LdpcLabError):
    """A documented precondition of an operation was violated."""


class ResourceGuardError(LdpcLabError):
    """An enumeration or state space exceeds its guard limit."""


class NumericError(LdpcLabError):
    """An internal numeric consistency check failed."""


# --- input data ---

class MalformedInput(PreconditionError, ValueError):
    """Input data (a file, a matrix, a distribution) is unreadable or
    holds an entry outside the field or a vector of the wrong length."""


# --- field construction ---

class NonPrime(PreconditionError):
    pass


class FieldTooLarge(PreconditionError):
    pass


# --- linear algebra ---

class TooManySubspaces(ResourceGuardError):
    pass


# --- ensembles ---

class BadRate(PreconditionError):
    pass


class DivisibilityViolation(PreconditionError):
    pass


class LengthMismatch(PreconditionError):
    pass


class CodeTooLarge(ResourceGuardError):
    pass


# --- row distributions ---

class NotInLtau(PreconditionError):
    pass


class DegenerateDistribution(PreconditionError):
    pass


class KernelFullSpace(PreconditionError):
    pass


class TooManyDualVectors(ResourceGuardError):
    pass


class SupportTooLarge(ResourceGuardError):
    pass


class SearchBudgetExhausted(ResourceGuardError):
    pass


# --- fourier ---

class TableTooLarge(ResourceGuardError):
    pass


class NonRealResult(NumericError):
    pass


class NotSmoothEnough(PreconditionError):
    pass


class EvenSparsity(PreconditionError):
    pass


class NotSmooth(PreconditionError):
    pass


class StateSpaceTooLarge(ResourceGuardError):
    pass


# --- gv distance ---

class OutOfDomain(PreconditionError):
    pass


class BisectionNoBracket(NumericError):
    pass


class NonIntegralWeight(PreconditionError):
    pass


class PreconditionViolated(PreconditionError):
    pass


class NoCertifiableS(LdpcLabError):
    pass
