"""Exception taxonomy for the toolkit.

Every error raised on a user-facing path derives from ToolkitError so the
CLI can map failures to exit codes: input problems exit 2, internal
inconsistencies exit 3.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class InputError(ToolkitError):
    """A problem with user-supplied input (CLI exit code 2)."""


class InternalInconsistency(ToolkitError):
    """The library derived contradictory structure (CLI exit code 3)."""


class ParseError(InputError):
    """Syntax error in an expression or piecewise DSL string.

    Carries the byte offset of the offending token and the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " or ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class DomainError(InputError):
    """Evaluation outside the mathematical domain of an operation."""


class UnboundParameter(InputError):
    """An expression was evaluated with a parameter left unbound."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"parameter '{name}' is unbound")


class UnsupportedOperation(InputError):
    """Structural operation not defined for this node (e.g. d/dx abs)."""


class NotMonotone(InputError):
    """A map claimed monotone fails a monotonicity check."""


class InconsistentEnv(InputError):
    """The assumption set derives a strict inequality a < a."""


class UndecidableComparison(InputError):
    """A comparison needed by a pipeline is not decided by the assumptions."""

    def __init__(self, lhs: object, rhs: object):
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"cannot order {lhs} against {rhs} under the stated assumptions")


class OverlappingGuards(InputError):
    """Two piecewise branches claim the same point."""


class GapInGuards(InputError):
    """The piecewise branches leave part of the line uncovered."""


class DiscontinuousOnDomain(InputError):
    """Adjacent finite pieces disagree at a shared breakpoint."""


class NotLsc(InputError):
    """A breakpoint value sits strictly above an adjacent limit."""


class NonConvex(InputError):
    """Convexity fails; carries a witness triple (a, m, b)."""

    def __init__(self, message: str, witness: tuple | None = None):
        self.witness = witness
        if witness is not None:
            message += f" (witness x-triple {witness[0]}, {witness[1]}, {witness[2]})"
        super().__init__(message)


class NegativeScalar(InputError):
    """A nonnegative scalar argument was provably negative."""


class EmptyOperator(InputError):
    """An operation needs a nonempty graph but the operator is empty."""


class ConstantPinFailure(InternalInconsistency):
    """No usable graph point was found to pin an integration constant."""


class NoFirstMoment(InputError):
    """The distribution has no finite first moment."""


class UnsupportedTail(InputError):
    """A tail limit falls outside the supported asymptotic family."""


class POutOfRange(InputError):
    """A probability argument lies outside (0, 1)."""


class DimensionMismatch(InputError):
    """Vector length does not match the number of separable coordinates."""


class WindowOutsideDomain(InputError):
    """A numeric oracle window misses the effective domain entirely."""


class MaxIterations(InternalInconsistency):
    """An iterative numeric fallback failed to converge."""
