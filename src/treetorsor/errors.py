"""Exception types shared across the package."""

from __future__ import annotations


class TorsorError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TorsorError):
    """Malformed graph or divisor text."""


class ValidationError(TorsorError):
    """A structurally well-formed input violates a graph invariant.

    ``kind`` is one of ``loop``, ``disconnected``, ``rotation-mismatch``,
    ``duplicate-id``, ``empty`` (a graph with no edges).
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class MissingVertex(TorsorError):
    """A vertex function or divisor references an unknown vertex."""


class DegreeMismatch(TorsorError):
    """A divisor has the wrong degree (or a negative coefficient) for the operation."""


class EdgeInTree(TorsorError):
    """Fundamental cycles are only defined for non-tree edges."""


class NotIncident(TorsorError):
    """The given edge is not incident to the given vertex."""


class UnknownEdge(TorsorError):
    """An edge argument names no edge of the graph."""


class NotSpanningTree(TorsorError):
    """The edge set handed in as a tree is not a spanning tree of the graph."""


class NotBreakDivisor(TorsorError):
    """The divisor handed to an inverse Bernardi algorithm is not a break divisor."""


class NotPlanar(TorsorError):
    """Planar duality requires topological genus 0."""


class HasBridge(TorsorError):
    """Planar duality requires a bridgeless graph (a bridge would dualize to a loop)."""


class NotACycle(TorsorError):
    """The dart sequence does not form a simple directed cycle."""


class NotSimple(TorsorError):
    """The conjecture search requires a simple base graph (no multi-edges)."""


class ChipAtSink(TorsorError):
    """A rotor step was requested at the sink vertex."""
