"""Exception types shared across the package.

Every domain error raised by graphspine derives from :class:`GraphSpineError`,
so callers (in particular the CLI) can distinguish mathematical refusals from
genuine crashes.
"""

from __future__ import annotations


class GraphSpineError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------------------
# parsing / construction


class MalformedLine(GraphSpineError):
    def __init__(self, lineno: int, line: str, reason: str):
        super().__init__(f"line {lineno}: {reason}: {line!r}")
        self.lineno = lineno
        self.line = line
        self.reason = reason


class InvalidGraph(GraphSpineError):
    """Structural violation when building a MetricGraph."""


class NonPositiveLength(InvalidGraph):
    pass


class Disconnected(InvalidGraph):
    pass


class DuplicateEdgeId(InvalidGraph):
    pass


class NotOuterSpace(GraphSpineError):
    """Graph violates the rank >= 2 / minimum degree 3 convention."""


class NotUnitVolume(GraphSpineError):
    pass


class InvalidMap(GraphSpineError):
    """Rotation system does not define a connected combinatorial map."""


# ---------------------------------------------------------------------------
# cycle search


class NoCycle(GraphSpineError):
    """The graph is a tree (or forest): no embedded cycle exists."""


class BudgetExceeded(GraphSpineError):
    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class InvariantViolation(GraphSpineError):
    """A computed answer failed its own postcondition.  Signals a bug, not a
    property of the input; raised explicitly, so it also holds under
    ``python -O``."""


# ---------------------------------------------------------------------------
# graph surgery


class ContractionOfCycle(GraphSpineError):
    """The selected edge set contains a loop or a cycle."""


class ForeignCycle(GraphSpineError):
    """A cycle refers to edges that do not belong to the given graph."""


# ---------------------------------------------------------------------------
# flow


class DegenerateStage(GraphSpineError):
    """Internal inconsistency: the non-systole edge set contains a cycle at
    stage completion.  Signals a bug, not a property of the input."""


class CapExceeded(GraphSpineError):
    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class FlowStateError(GraphSpineError):
    """The flow state does not admit the requested operation."""


# ---------------------------------------------------------------------------
# maps / datasets


class NotCubic(GraphSpineError):
    pass


class UnknownDataset(GraphSpineError):
    def __init__(self, name: str, known):
        super().__init__(f"unknown dataset {name!r}; known: {', '.join(known)}")
        self.name = name
