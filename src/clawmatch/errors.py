"""Exception types shared across the library.

Precondition violations (bad user input) and internal invariant failures
are kept apart so the CLI can map them to different exit codes.
"""

from __future__ import annotations


class GraphError(Exception):
    """Base class for all library errors."""


class ParseError(GraphError):
    """Malformed graph document; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotSimple(GraphError):
    """Operation requires a simple graph but got loops or parallel edges."""


class NotCubic(GraphError):
    """Some vertex does not have degree 3."""

    def __init__(self, vertex: int, degree: int):
        super().__init__(f"vertex {vertex} has degree {degree}, expected 3")
        self.vertex = vertex
        self.degree = degree


class NotClawFree(GraphError):
    """An induced claw was found; the witness is attached."""

    def __init__(self, claw):
        super().__init__(f"induced claw at center {claw.center} with leaves {claw.leaves}")
        self.claw = claw


class NotTwoEdgeConnected(GraphError):
    """Graph is disconnected or has a bridge; the witness bridge is attached when one exists."""

    def __init__(self, message: str, bridge: int | None = None):
        super().__init__(message)
        self.bridge = bridge


class InvalidBase(GraphError):
    """Base multigraph fails the cubic / 2-edge-connected / loop-free contract."""


class StructureViolation(GraphError):
    """Internal decomposition invariant failed on input that passed validation."""


def _count_text(count: int) -> str:
    """count in decimal below 2^64; from 2^64 on, 2^k for a power of two, else at least 2^k.

    k is bit_length - 1, so no wording of a count converts a large int to
    decimal and none depends on Python's int-to-str digit limit.
    """
    if count < 1 << 64:
        return str(count)
    k = count.bit_length() - 1
    return f"2^{k}" if count == 1 << k else f"at least 2^{k}"


class CapExceeded(GraphError):
    """Enumeration would exceed the caller's cap; carries the required count,
    or cap + 1 where only an enumeration could tell it.  The message words
    both counts by _count_text, so a count from 2^64 on reads by its bit
    length while .required stays exact."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"enumeration needs {_count_text(required)} items, cap is {_count_text(cap)}"
        )
        self.required = required
        self.cap = cap


class NoTwoFactor(GraphError):
    """No 2-factor exists (unreachable for cubic bridgeless hosts)."""


class DegreeViolation(GraphError):
    """An edge set violates the degree contract of its role."""


class BoundFailure(GraphError):
    """Certificate fell below the exponential bound; fatal, carries a dump."""

    def __init__(self, message: str, dump: str = ""):
        super().__init__(message if not dump else f"{message}\n{dump}")
        self.dump = dump
