"""Exception types shared across the library.

DomainError (and subclasses) mark precondition violations; BudgetError and
PrecisionError mark computations that were abandoned rather than answered
wrongly; SelfCheckError marks a result that failed its own cross-check.  The
CLI maps these onto distinct exit codes.
"""


class DomainError(ValueError):
    """Input violates an operation's stated precondition."""


class SweepError(DomainError):
    """The diagonal sweep reached a state its preconditions exclude."""

    def __init__(self, diagonal, message):
        where = "post-sweep validation" if diagonal is None else f"diagonal {diagonal}"
        super().__init__(f"sweep invariant violated at {where}: {message}")
        self.diagonal = diagonal


class BudgetError(RuntimeError):
    """An enumeration or search budget ran out before the goal was met.

    ``achieved`` carries whatever partial result was certified so far.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class CapError(BudgetError):
    """Instance exceeds the configured exact-search cap."""


class PrecisionError(RuntimeError):
    """An exact comparison could not be decided at maximum precision."""


class SelfCheckError(RuntimeError):
    """A certified result disagreed with an independent second route.

    It marks a defect in the program, not in the input.
    """
