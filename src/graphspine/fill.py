"""Systole profile, systole support and the fill predicates.

A ``SystoleProfile`` holds one graph and its systoles, enumerated once; each
consumer (lattice, fill, membership, deformation, flow) takes it alone.  A
family of curves topologically fills when every component of the complement
of their union is contractible (equivalently: no embedded cycle is point-wise
disjoint from the union), and geometrically fills when the union is the whole
graph.  A ``Membership`` is the three verdicts W, V and V' alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import InvariantViolation, NotOuterSpace
from .graphs import Cycle, MetricGraph, _DisjointSets, cycle_vertices, rank
from .cycles import DEFAULT_CYCLE_CAP, minimum_cycles
from .homology import LatticeVerdict, is_well_rounded, systole_lattice


@dataclass(frozen=True)
class SystoleSupport:
    """Union of the systoles: edges, vertices, and exact total length."""

    edge_ids: frozenset[int]
    vertex_ids: frozenset[int]
    total_length: Fraction

    def covers(self, g: MetricGraph) -> bool:
        return len(self.edge_ids) == g.num_edges


def support_of(g: MetricGraph, cycles: Sequence[Cycle]) -> SystoleSupport:
    edges: set[int] = set()
    verts: set[int] = set()
    for c in cycles:
        edges |= c.edge_ids
        verts |= cycle_vertices(g, c)
    total = sum((g.lengths[eid] for eid in edges), Fraction(0))
    return SystoleSupport(frozenset(edges), frozenset(verts), total)


@dataclass(frozen=True)
class SystoleProfile:
    """The systoles of one graph, as built by ``systole_profile``: the graph,
    its girth, the canonical systole tuple and their support.  The lattice
    verdict is computed on first use, then kept."""

    graph: MetricGraph
    girth: Fraction
    systoles: tuple[Cycle, ...]
    support: SystoleSupport

    @cached_property
    def lattice(self) -> LatticeVerdict:
        return systole_lattice(self)


def systole_profile(g: MetricGraph, cap: int = DEFAULT_CYCLE_CAP) -> SystoleProfile:
    """Enumerate the systoles of g once (at most ``cap`` cycles)."""
    girth, systoles = minimum_cycles(g, cap=cap)
    return SystoleProfile(g, girth, systoles, support_of(g, systoles))


def systole_support(profile: SystoleProfile) -> SystoleSupport:
    return profile.support


def _complement_is_forest(g: MetricGraph, support: SystoleSupport) -> bool:
    inside = support.vertex_ids
    sets = _DisjointSets(g.num_vertices)
    # an outside edge within one component (a loop included) closes a cycle
    return all(sets.union(e.u, e.v) for e in g.edges
               if e.u not in inside and e.v not in inside)


def topologically_fills(profile: SystoleProfile) -> bool:
    """Whether every cycle of the graph meets the systole union in at least a point."""
    return _complement_is_forest(profile.graph, profile.support)


def geometrically_fills(profile: SystoleProfile) -> bool:
    """Whether the systoles cover every edge."""
    return profile.support.covers(profile.graph)


@dataclass(frozen=True)
class Membership:
    in_W: bool
    in_V: bool
    in_Vprime: bool


def classify_membership(profile: SystoleProfile) -> Membership:
    """Well-rounded / topological fill / geometric fill verdicts.

    Only defined for rank >= 2 (the moduli space convention starts there).
    """
    g = profile.graph
    if rank(g) < 2:
        raise NotOuterSpace(f"membership classification needs rank >= 2, got {rank(g)}")
    support = profile.support
    m = Membership(is_well_rounded(profile), _complement_is_forest(g, support),
                   support.covers(g))
    if (m.in_W or m.in_Vprime) and not m.in_V:
        raise InvariantViolation(f"{g.name} lies in W or V' but not in V")
    return m
