"""Exception types shared across the package."""


class McgcError(Exception):
    """Base class for all domain errors raised by this package."""


class InputError(McgcError, ValueError):
    """A precondition on caller-supplied values does not hold."""


class GraphError(McgcError):
    """The graph does not admit the requested traversal."""


class SelfCheckError(McgcError):
    """A generator produced output that failed its own validation.

    Signals an implementation bug, not bad input.
    """


class PlanError(McgcError):
    """An interleaving-plan precondition failed.

    ``failed`` names the specific condition that was violated.
    """

    def __init__(self, failed: str, message: str):
        super().__init__(message)
        self.failed = failed


class PaletteError(McgcError):
    """Operands use overlapping or ill-formed color palettes."""


class ComposeError(McgcError):
    """No valid interleaving plan exists within the color budget."""


class CollisionError(McgcError):
    """Two blocks of a grid map to the same color multiset."""

    def __init__(self, first, second):
        super().__init__(f"blocks at {first} and {second} share a color multiset")
        self.first = first
        self.second = second


class DecodeError(McgcError):
    """A multiset could not be decoded to a grid position."""


class CardinalityError(DecodeError):
    """The reported multiset has the wrong size or palette."""


class UnknownBlockError(DecodeError):
    """The multiset is well formed but is not a code symbol."""


class UnsupportedParameterError(McgcError):
    """No formula or construction covers the requested parameters."""


class TrackingError(McgcError):
    """The simulator decoded a position different from the true one."""
