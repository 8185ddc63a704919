"""Exception types shared across the package.

The CLI maps these onto exit codes: bad input 1, computation errors 2,
capacity errors 3, internal errors (ConsistencyError, a bug) 4.
"""


class DiracGraphError(Exception):
    """Base class for all package-specific errors."""


class EdgeListError(DiracGraphError, ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class GraphMismatchError(DiracGraphError, ValueError):
    """Two graphs that were expected to share a vertex list do not."""


class CapacityError(DiracGraphError):
    """Requested an exact computation beyond its combinatorial size cap."""


class ComputationError(DiracGraphError):
    """A well-formed request that has no answer (disconnected graph, ...)."""


class UnsolvableError(ComputationError):
    """Linear problem with a right-hand side meeting the kernel."""

    def __init__(self, kernel_norm: float, message: str | None = None):
        self.kernel_norm = kernel_norm
        super().__init__(
            message
            or f"right-hand side has kernel component of norm {kernel_norm:.3e}"
        )


class ConsistencyError(DiracGraphError):
    """Internal invariant violated (signals a bug, not a user error)."""
