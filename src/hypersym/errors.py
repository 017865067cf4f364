"""Exception hierarchy shared by all hypersym modules.

Every error raised by the library derives from HypersymError so callers
(notably the CLI) can map failures to stable exit codes.
"""

from __future__ import annotations


class HypersymError(Exception):
    """Base class for all hypersym errors."""


class HypergraphError(HypersymError, ValueError):
    """Invalid hypergraph structure; `index` is the 0-based position of the
    edge at fault."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class EdgeSizeError(HypergraphError):
    """An edge does not have exactly `uniformity` vertices."""


class RepeatedVertexError(HypergraphError):
    """An edge lists the same vertex more than once."""


class VertexRangeError(HypergraphError):
    """An edge references a vertex index outside [1, vertex_count]."""


class DuplicateEdgeError(HypergraphError):
    """The same vertex set appears twice in the edge list."""


class DisconnectedError(HypersymError):
    """Operation requires a connected hypergraph."""


class ParameterError(HypersymError, ValueError):
    """A parameter is outside its admissible range."""


class ModulusMismatchError(HypersymError, ValueError):
    """Operands carry different moduli."""


class DimensionMismatchError(HypersymError, ValueError):
    """Operand shapes are incompatible."""


class BudgetExceededError(HypersymError):
    """A generator would emit more edges than the configured budget."""


class ConvergenceError(HypersymError):
    """Power iteration did not reach the requested tolerance.

    Carries the last Collatz-Wielandt bracket so the caller can inspect
    how far the iteration got instead of silently accepting a bad value.
    """

    def __init__(self, message: str, bracket: tuple[float, float], iterations: int):
        super().__init__(message)
        self.bracket = bracket
        self.iterations = iterations


class FileFormatError(HypersymError):
    """A text file failed to parse; `line` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InternalConsistencyError(HypersymError):
    """A relation that must hold by theory failed on computed data.

    Raised by built-in self-checks (divisor closure, divisibility chains,
    bracket monotonicity). Indicates a bug, never bad user input.
    """
