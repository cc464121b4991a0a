"""Exception hierarchy. CLI exit codes hang off the three base classes."""


class TracegenError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class DataError(TracegenError):
    """Invalid input: monoid files, letters, pairs, serialized traces."""

    exit_code = 3


class BudgetError(TracegenError):
    """A configured resource cap was exceeded."""

    exit_code = 4


class NumericError(TracegenError):
    """Numerical precondition violated, or an iteration failed to converge."""

    exit_code = 5


# -- data ------------------------------------------------------------------

class DuplicateLetter(DataError):
    pass


class ReflexivePair(DataError):
    pass


class AsymmetricPair(DataError):
    pass


class UnknownLetterInPair(DataError):
    pass


class AlphabetTooLarge(DataError):
    pass


class UnknownLetter(DataError):
    pass


class InvalidMonoidFile(DataError):
    pass


class InvalidTrace(DataError):
    pass


class ReducibleMonoid(DataError):
    """Raised where an operation is only defined for irreducible monoids."""


class InsufficientSamples(DataError):
    pass


# -- budgets ---------------------------------------------------------------

class CliqueExplosion(BudgetError):
    pass


class BudgetExceeded(BudgetError):
    pass


class RejectBudgetExhausted(BudgetError):
    pass


class IterationCap(BudgetError):
    pass


# -- numerics --------------------------------------------------------------

class NoRootFound(NumericError):
    pass


class ParameterOutOfRange(NumericError):
    pass


class DegenerateState(NumericError):
    pass


class DoubleOverflow(NumericError):
    """A value printed as a double lies past the largest double."""
