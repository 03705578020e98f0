"""Embedded-cycle search engine.

Weighted girth, the complete set of minimum cycles and bounded enumeration
of all embedded cycles.  All weights are exact non-negative rationals
(``Fraction`` or ``int``); ties are ties, never epsilons.  Each public search
scales the weights once by their common denominator D and then adds and
compares plain integers; lengths come back as ``Fraction(n, D)``.
``minimum_cycles`` scales once and hands the integer weights on to the girth
search and the enumeration.

There is one shortest-path search, ``_trees``: a tree per root r on the
vertices >= r.  ``girth_value`` reads its best candidate, and
``cycles_up_to_length`` prunes its walks with the trees' distances, since
every vertex of a cycle of weight <= L whose least vertex is r lies within
L/2 of r in G[>= r] (Horton 1987; Vismara 1997).

A shortest non-trivial closed curve in a graph never repeats a vertex (it
would split there into two shorter ones), so only embedded cycles are ever
enumerated and the search space is finite.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Mapping, Optional

from .errors import BudgetExceeded, InvariantViolation, NoCycle
from .graphs import Cycle, MetricGraph

DEFAULT_CYCLE_CAP = 10**7


def _as_weights(g: MetricGraph, weights: Optional[Mapping[int, Fraction]]) -> Mapping[int, Fraction]:
    if weights is None:
        return g.lengths
    missing = {e.id for e in g.edges} - set(weights)
    if missing:
        raise ValueError(f"weights missing for edges {sorted(missing)}")
    return weights


def _scaled(g: MetricGraph, weights: Optional[Mapping[int, Fraction]]) -> tuple[dict[int, int], int]:
    """The integer weights ``w·D`` and D, the lcm of the weight denominators.
    A weight that is not a Fraction or an int (a float, a string) has no
    denominator and raises ValueError; so does a negative weight, which
    would break the searches' distance bounds."""
    w = _as_weights(g, weights)
    try:
        den = lcm(*(w[e.id].denominator for e in g.edges))
    except AttributeError:
        raise ValueError("every weight must be a Fraction or an int") from None
    scaled = {e.id: w[e.id].numerator * (den // w[e.id].denominator) for e in g.edges}
    if min(scaled.values(), default=0) < 0:
        raise ValueError("every weight must be non-negative")
    return scaled, den


def _scaled_floor(x: Rational, den: int) -> int:
    """floor(x·D): an integer length L satisfies L <= x·D iff L <= floor(x·D).
    A float bound would be rounded, so only a Fraction or an int is taken."""
    if not isinstance(x, Rational):
        raise ValueError(f"the bound must be a Fraction or an int, got {x!r}")
    return x.numerator * den // x.denominator


def bridge_ids(g: MetricGraph) -> frozenset[int]:
    """Edges on no cycle at all.  Loops are never bridges; a parallel pair is
    never a bridge.  No search needs them: the name stays for the benchmark.

    These are the edges of ``g.spanning_tree`` on no chord's fundamental
    cycle: the fundamental cycles span the cycle space, so a cycle through a
    tree edge is a sum of them and one of them passes that edge.  Each
    chord's two ends walk up the tree to their meeting point.
    """
    order, parent = g.spanning_tree
    depth = {order[0]: 0}
    for v in order[1:]:
        depth[v] = depth[parent[v][1]] + 1
    tree = {eid for eid, _ in parent.values()}
    on_cycle: set[int] = set()
    for e in g.edges:
        if e.id in tree:
            continue
        x, y = e.u, e.v
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            eid, x = parent[x]
            on_cycle.add(eid)
    return frozenset(tree - on_cycle)


def _trees(g: MetricGraph, w: Mapping[int, int]) -> tuple[Optional[int], list[tuple[int, dict[int, int], int]]]:
    """The girth search on integer weights: the girth (None for a forest)
    and per root r its tree as (r, settled distances in G[>= r], stop).

    A loop is a candidate by itself.  Every other candidate comes from one
    shortest-path tree per root r, grown on the vertices >= r only: a
    non-tree edge xy closes the walk r..x, xy, y..r of weight
    d(x) + w(xy) + d(y), whose edges taken mod 2 hold a cycle no heavier than
    the walk; and a shortest cycle whose least vertex is r has a non-tree
    edge whose walk weighs exactly its length, with both ends within half
    that length of r.  So each tree stops once 2·d reaches the best candidate
    so far, and ``stop`` is that best: a vertex the tree did not settle lies
    at least stop/2 from r.  A root with fewer than two edges to larger
    vertices is the least vertex of no cycle but a loop and grows no tree.
    """
    no_cycle = sum(w.values()) + 1  # heavier than any cycle
    best = min((w[e.id] for e in g.edges if e.is_loop), default=no_cycle)
    adj = g.adjacency
    trees = []
    for root in range(g.num_vertices):
        if len([y for _, y in adj[root] if y > root]) < 2:
            continue
        dist: dict[int, int] = {root: 0}
        via = {root: -1}  # the tree edge into each reached vertex
        done: dict[int, int] = {}
        heap = [(0, root)]
        while heap:
            d, x = heapq.heappop(heap)
            if x in done:
                continue
            if 2 * d >= best:
                break
            done[x] = d
            tree_edge = via[x]
            for eid, y in adj[x]:
                if y < root:
                    continue
                dy = done.get(y)
                if dy is not None:
                    # x == y only on a loop, a candidate of its own
                    if eid != tree_edge and x != y:
                        cand = d + w[eid] + dy
                        if cand < best:
                            best = cand
                    continue
                nd = d + w[eid]
                old = dist.get(y)
                if old is None or nd < old:
                    dist[y] = nd
                    via[y] = eid
                    heapq.heappush(heap, (nd, y))
        trees.append((root, done, best))
    return (None if best == no_cycle else best), trees


def girth_value(g: MetricGraph, weights: Optional[Mapping[int, Fraction]] = None) -> Optional[Fraction]:
    """Minimum weight over embedded cycles, or None for a forest."""
    w, den = _scaled(g, weights)
    best = _trees(g, w)[0]
    return None if best is None else Fraction(best, den)


def cycles_up_to_length(g: MetricGraph, bound: Fraction,
                        weights: Optional[Mapping[int, Fraction]] = None,
                        cap: int = DEFAULT_CYCLE_CAP) -> tuple[Cycle, ...]:
    """All embedded cycles of weight <= bound, complete and duplicate-free.

    The loops come first.  Every other cycle is rooted at its least vertex r
    and walked as a simple path from r back to r on the vertices > r, pruned
    by the distances of the girth search's tree at r: the rest of a cycle
    from a vertex y back to r weighs at least d(y) if the tree settled y, and
    at least stop/2 if not.  Each cycle is met in both directions; the one
    whose first edge id is smaller is kept.
    """
    w, den = _scaled(g, weights)
    limit = _scaled_floor(bound, den)
    if limit < 0:
        return ()
    found: list[Cycle] = []

    def emit(steps) -> None:
        found.append(Cycle.make(g, steps))
        if len(found) > cap:
            raise BudgetExceeded(f"more than {cap} cycles within bound", len(found))

    for e in g.edges:
        if e.is_loop and w[e.id] <= limit:
            emit(((e.id, 0),))
    adj = g.adjacency
    edge_by_id = g.edge_by_id

    for root, dist, stop in _trees(g, w)[1]:
        slack = 2 * limit - stop  # prune an unsettled y once nd + stop/2 > limit
        # DFS over simple paths from root on the vertices > root (the hottest
        # loop); a frame is (vertex, path weight, its remaining incident edges)
        visited = {root}
        steps: list[tuple[int, int]] = []
        stack = [(root, 0, iter(adj[root]))]
        while stack:
            x, used, todo = stack[-1]
            for eid, y in todo:
                if y <= root:
                    # back at the root; with no steps yet, a loop (emitted above)
                    if (y == root and steps and steps[0][0] < eid
                            and used + w[eid] <= limit):
                        emit(steps + [(eid, 0 if x == edge_by_id[eid].u else 1)])
                    continue
                if y in visited:
                    continue
                nd = used + w[eid]
                dy = dist.get(y)
                if nd + dy > limit if dy is not None else 2 * nd > slack:
                    continue
                visited.add(y)
                steps.append((eid, 0 if x == edge_by_id[eid].u else 1))
                stack.append((y, nd, iter(adj[y])))
                break
            else:
                stack.pop()
                if stack:
                    steps.pop()
                    visited.discard(x)

    uniq = sorted(set(found), key=Cycle.sort_key)
    if len(uniq) != len(found):
        raise InvariantViolation("rooted enumeration emitted a duplicate cycle")
    return tuple(uniq)


def minimum_cycles(g: MetricGraph, weights: Optional[Mapping[int, Fraction]] = None,
                   cap: int = DEFAULT_CYCLE_CAP) -> tuple[Fraction, tuple[Cycle, ...]]:
    """Girth together with the complete, canonically sorted set of cycles
    attaining it.  The weights are scaled once; the girth search and the
    enumeration both run on the integer weights."""
    w, den = _scaled(g, weights)
    girth = girth_value(g, w)
    if girth is None:
        raise NoCycle("graph has no embedded cycle")
    cycles = cycles_up_to_length(g, girth, weights=w, cap=cap)
    if not cycles or any(sum(w[eid] for eid, _ in c.steps) != girth for c in cycles):
        raise InvariantViolation(
            f"the minimum cycles found do not all have length {girth / den}")
    return girth / den, cycles


def all_systoles(g: MetricGraph, cap: int = DEFAULT_CYCLE_CAP) -> tuple[Cycle, ...]:
    """Every embedded cycle of minimal length, canonical and sorted."""
    return minimum_cycles(g, cap=cap)[1]
