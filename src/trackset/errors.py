"""Exceptions shared across the solver modules."""


class CycleError(Exception):
    """Raised when a digraph expected to be acyclic contains a cycle."""


class EdgeError(ValueError):
    """Raised by a graph constructor for one bad input edge; ``index`` is its position."""

    def __init__(self, index: int, msg: str):
        super().__init__(msg)
        self.index = index


class InputError(ValueError):
    """Raised for a request that the program refuses as given, such as a generator size
    out of range: the CLI exits 2 for it, and 4 for any other ValueError."""


class CapExceeded(Exception):
    """Raised when an enumeration produces more paths than the caller's cap.

    ``count`` is the number of paths materialized when the cap was hit;
    the true total is at least this.
    """

    def __init__(self, count: int):
        super().__init__(f"path cap exceeded: {count} paths materialized")
        self.count = count


class InternalError(Exception):
    """Raised when a solver self-check fails: the program, not the input, is wrong."""
