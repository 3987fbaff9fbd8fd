"""Exception hierarchy shared by all modules.

Input problems (bad syntax, unknown symbols, malformed structures) and
resource guards get their own classes so callers can map them to exit
codes; VerificationError is reserved for claims the library itself
re-checks and finds violated, which always indicates a bug.
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class RegexSyntaxError(ToolkitError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ToolkitError):
    """A symbol outside the declared alphabet appeared in a pattern or word."""


class AlphabetMismatchError(ToolkitError):
    """Two automata were combined but their alphabets differ."""


class NotMinimalError(ToolkitError):
    """An operation requiring a minimal automaton received a non-minimal one."""


class MonoidSizeError(ToolkitError):
    """The transition monoid exceeded the configured element limit."""


class NonSquareLengthError(ToolkitError):
    """A block word's length is not a perfect square."""


class PackError(ToolkitError):
    """A block contained more than one marked letter and cannot be packed."""


class MalformedPairSetError(ToolkitError):
    """A pair set or column set violated its shape constraints."""


class DegeneracyError(ToolkitError):
    """Parameters left no room for the requested search (e.g. k > r - 1)."""


class NotTangledError(ToolkitError):
    """An encoding was requested for a family that is not tangled."""


class CircuitStructureError(ToolkitError):
    """A circuit violated its declared shape (fan-in bound, literal range)."""


class SizeGuardError(ToolkitError):
    """A construction was requested outside its supported size range."""


class SearchBudgetError(SizeGuardError):
    """Parameters exceed the configured search caps."""


class PreconditionError(ToolkitError):
    """A documented precondition of an operation does not hold."""


class VerificationError(ToolkitError):
    """A self-check that must hold by construction failed; this is a bug."""
