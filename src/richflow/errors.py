"""Exception types shared across the package."""

from __future__ import annotations


class GraphInputError(ValueError):
    """Malformed graph or certificate input (parse errors, loops, bad ids)."""


class PreconditionError(ValueError):
    """An operation was called with inputs violating its stated precondition."""


class AdmissibilityError(PreconditionError):
    """The graph is not rich flow admissible; carries the witness verdict."""

    def __init__(self, verdict) -> None:
        super().__init__(verdict.describe())
        self.verdict = verdict

    def __reduce__(self):
        # Rebuild from the verdict, not from the message in args, so the error
        # survives pickling (a batch worker process raising it, for one).
        return type(self), (self.verdict,)


class BudgetExhaustedError(RuntimeError):
    """A bounded search ran out of its node or time budget before finishing."""


class InternalDefectError(RuntimeError):
    """A step that is guaranteed to succeed failed; always an implementation bug."""
