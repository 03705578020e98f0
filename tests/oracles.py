"""Independent brute-force oracles used to freeze expected values.

Everything here works by exhaustive enumeration over edge subsets or through
sympy's integer Smith normal form, deliberately sharing no code path with the
implementations under test; the one exception is ``oracle_next_event``, the
flow's earlier event search, which enumerates every minimum cycle on each
Newton step.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from graphspine.cycles import minimum_cycles
from graphspine.errors import DegenerateStage, InvariantViolation
from graphspine.fill import systole_profile
from graphspine.flow import (
    NEW_SYSTOLES,
    STAGE_COMPLETE,
    Event,
    FlowState,
    _contracted_snapshot,
    _leg_lengths,
)
from graphspine.graphs import Cycle, MetricGraph, cycle_vertices


def subset_as_cycle(g: MetricGraph, edge_ids: tuple[int, ...]):
    """The subset as an embedded cycle (walked into step order), or None."""
    edges = [g.edge_by_id[eid] for eid in edge_ids]
    if len(edges) == 1 and edges[0].is_loop:
        return Cycle.make(g, ((edges[0].id, 0),))
    if any(e.is_loop for e in edges):
        return None
    degree: dict[int, int] = {}
    for e in edges:
        degree[e.u] = degree.get(e.u, 0) + 1
        degree[e.v] = degree.get(e.v, 0) + 1
    if any(d != 2 for d in degree.values()):
        return None
    if len(degree) != len(edges):
        return None
    # walk it; a disjoint union of cycles will not close over every edge
    start = edges[0].u
    steps = []
    used = set()
    current = start
    for _ in range(len(edges)):
        nxt = next((e for e in edges if e.id not in used and current in (e.u, e.v)), None)
        if nxt is None:
            return None
        direction = 0 if nxt.u == current else 1
        steps.append((nxt.id, direction))
        used.add(nxt.id)
        current = nxt.v if direction == 0 else nxt.u
    if current != start or len(used) != len(edges):
        return None
    return Cycle.make(g, steps)


def oracle_cycles(g: MetricGraph) -> set[Cycle]:
    """Every embedded cycle, by checking all nonempty edge subsets."""
    ids = [e.id for e in g.edges]
    found: set[Cycle] = set()
    for k in range(1, len(ids) + 1):
        for subset in combinations(ids, k):
            c = subset_as_cycle(g, subset)
            if c is not None:
                found.add(c)
    return found


def oracle_fundamental_cycle(g: MetricGraph, tree_edge_ids, chord_id: int) -> Cycle:
    """The one embedded cycle inside tree + chord, oriented along the chord."""
    allowed = set(tree_edge_ids) | {chord_id}
    (c,) = [c for c in oracle_cycles(g) if c.edge_ids <= allowed]
    return c if (chord_id, 0) in c.steps else c.reverse()


def oracle_pair_lengths(g: MetricGraph) -> dict[frozenset[int], list[Fraction]]:
    """The sorted lengths of the edges joining each unordered vertex pair; a
    vertex's loops are under the one-element set of that vertex."""
    pairs: dict[frozenset[int], list[Fraction]] = {}
    for e in g.edges:
        pairs.setdefault(frozenset((e.u, e.v)), []).append(e.length)
    return {pair: sorted(lengths) for pair, lengths in pairs.items()}


def oracle_carries_pair_lengths(g1: MetricGraph, g2: MetricGraph, vertex_map) -> bool:
    """Whether the vertex map carries the lengths joining every vertex pair of
    g1 onto those joining the image pair in g2, and misses no pair of g2."""
    pairs1, pairs2 = oracle_pair_lengths(g1), oracle_pair_lengths(g2)
    return (len(pairs1) == len(pairs2)
            and all(pairs2.get(frozenset(vertex_map[x] for x in pair)) == lengths
                    for pair, lengths in pairs1.items()))


def oracle_isomorphic(g1: MetricGraph, g2: MetricGraph) -> bool:
    """Whether some vertex bijection carries every pair's lengths, by trying
    all V! permutations."""
    return (g1.num_vertices == g2.num_vertices
            and any(oracle_carries_pair_lengths(g1, g2, perm)
                    for perm in permutations(range(g1.num_vertices))))


def oracle_bridges(g: MetricGraph) -> set[int]:
    """The non-loop edges whose deletion disconnects their two ends: for each
    edge, the set reached from one end over the other edges is grown until
    it stops growing."""
    bridges = set()
    for e in g.edges:
        if e.u == e.v:
            continue
        reached = {e.u}
        grown = True
        while grown:
            grown = False
            for f in g.edges:
                if f.id != e.id and (f.u in reached) != (f.v in reached):
                    reached |= {f.u, f.v}
                    grown = True
        if e.v not in reached:
            bridges.add(e.id)
    return bridges


def oracle_orientable(m) -> bool:
    """No twisted loop, and some assignment s of +-1 to the vertices, tried
    all 2^V, has s(u)·s(v)·twist(e) = 1 on every non-loop edge."""
    g = m.graph
    twist = {e.id: -1 if e.id in m.twists else 1 for e in g.edges}
    if any(e.u == e.v and twist[e.id] == -1 for e in g.edges):
        return False
    return any(all(s[e.u] * s[e.v] * twist[e.id] == 1 for e in g.edges if e.u != e.v)
               for s in product((1, -1), repeat=g.num_vertices))


def oracle_support_betti(g: MetricGraph, edge_ids) -> int:
    """First Betti number of the subgraph on ``edge_ids``: its number of edges
    minus the rank of its vertex-edge boundary matrix, through sympy."""
    boundary = sympy.zeros(g.num_vertices, len(edge_ids))
    for j, eid in enumerate(sorted(edge_ids)):
        e = g.edge_by_id[eid]
        boundary[e.u, j] -= 1
        boundary[e.v, j] += 1
    return len(edge_ids) - boundary.rank()


def oracle_face_orbits(rotations) -> list[tuple[tuple[int, int], ...]]:
    """The orbits of sigma o alpha of an untwisted rotation system, each read
    from its least dart, in sorted order."""
    after = {rot[i - 1]: rot[i] for rot in rotations for i in range(len(rot))}
    seen: set = set()
    orbits = []
    for start in sorted(after):
        if start in seen:
            continue
        walk = []
        d = start
        while d not in seen:
            seen.add(d)
            walk.append(d)
            d = after[(d[0], 1 - d[1])]
        orbits.append(tuple(walk))
    return sorted(orbits)


def oracle_map_automorphisms(m) -> list[tuple[dict, dict]]:
    """Every automorphism of the map as (dart bijection, sense per vertex),
    by trying all 4E images (target dart, sense) of the first dart with
    sense +1.  Each image is spread along sigma and alpha, first assignment
    winning, and kept only if it then passes a full check of the definition:
    a dart bijection commuting with alpha that carries sigma to sigma^m(v),
    with m(w) = m(v) * twist(d) * twist(image of d) across each dart d."""
    after = {rot[i - 1]: rot[i] for rot in m.rotations for i in range(len(rot))}
    before = {b: a for a, b in after.items()}
    vertex = {(e.id, 0): e.u for e in m.graph.edges} | {(e.id, 1): e.v for e in m.graph.edges}
    darts = sorted(vertex)

    def flip(d):
        return d[0], 1 - d[1]

    def twist(d):
        return -1 if d[0] in m.twists else 1

    def turn(d, s):
        return after[d] if s == 1 else before[d]

    found = []
    for target in darts:
        for eps in (1, -1):
            psi, sense = {darts[0]: target}, {vertex[darts[0]]: eps}
            queue = [darts[0]]
            for d in queue:
                s = sense[vertex[d]]
                sense.setdefault(vertex[flip(d)], s * twist(d) * twist(psi[d]))
                for nd, img in ((after[d], turn(psi[d], s)), (flip(d), flip(psi[d]))):
                    if nd not in psi:
                        psi[nd] = img
                        queue.append(nd)
            if (sorted(psi) == darts and sorted(psi.values()) == darts
                    and all(psi[flip(d)] == flip(psi[d])
                            and psi[after[d]] == turn(psi[d], sense[vertex[d]])
                            and sense[vertex[flip(d)]]
                            == sense[vertex[d]] * twist(d) * twist(psi[d])
                            for d in darts)):
                found.append((psi, sense))
    return found


def oracle_length(g: MetricGraph, c: Cycle) -> Fraction:
    return sum((g.lengths[eid] for eid in c.edge_ids), Fraction(0))


def oracle_systoles(g: MetricGraph) -> tuple[Fraction, set[Cycle]]:
    cycles = oracle_cycles(g)
    assert cycles, "oracle: graph has no cycle"
    girth = min(oracle_length(g, c) for c in cycles)
    return girth, {c for c in cycles if oracle_length(g, c) == girth}


def oracle_support(g: MetricGraph) -> tuple[set[int], set[int], Fraction]:
    _, systoles = oracle_systoles(g)
    edge_ids: set[int] = set()
    vertex_ids: set[int] = set()
    for c in systoles:
        edge_ids |= set(c.edge_ids)
        vertex_ids |= set(cycle_vertices(g, c))
    s = sum((g.lengths[eid] for eid in edge_ids), Fraction(0))
    return edge_ids, vertex_ids, s


def oracle_topologically_fills(g: MetricGraph) -> bool:
    """No embedded cycle is point-wise disjoint from the systole union."""
    _, vertex_ids, _ = oracle_support(g)
    for c in oracle_cycles(g):
        if not (set(cycle_vertices(g, c)) & vertex_ids):
            return False
    return True


def oracle_lattice(classes, ambient_rank: int):
    """(rank, divisors, index) through sympy's Smith normal form."""
    if not classes:
        return 0, (), None
    m = sympy.Matrix([list(row) for row in classes])
    snf = sympy_snf(m, domain=sympy.ZZ)
    divisors = tuple(
        int(abs(snf[i, i]))
        for i in range(min(snf.rows, snf.cols))
        if snf[i, i] != 0
    )
    r = len(divisors)
    index = None
    if r == ambient_rank:
        index = 1
        for d in divisors:
            index *= d
    return r, divisors, index


def oracle_next_event(state: FlowState) -> Event:
    """The flow's next event by enumerating every minimum cycle on each Newton
    step and stepping to the least root among them."""
    g, sigma = state.profile.graph, state.profile.girth
    support_ids = state.profile.support.edge_ids
    s = state.profile.support.total_length
    mu_end = 1 / s
    mu = mu_end
    while True:
        weights = _leg_lengths(g, support_ids, s, mu)
        girth, mins = minimum_cycles(g, weights=weights)
        target = sigma * mu
        if girth > target:
            raise InvariantViolation(f"girth {girth} exceeds the systole length {target}")
        if girth == target:
            extras = tuple(c for c in mins if c not in set(state.profile.systoles))
            if mu == mu_end:
                graph_after, contracted = _contracted_snapshot(state, mu)
            elif extras:
                graph_after, contracted = g.with_lengths(weights), ()
            else:
                raise InvariantViolation("gap vanished with no new cycle")
            u_star = state.u * mu
            return Event(
                kind=NEW_SYSTOLES if extras else STAGE_COMPLETE, stage=state.stage_index,
                u_star=u_star, t_approx=math.log(float(u_star)), new_cycles=extras,
                contracted_edge_ids=contracted, after=systole_profile(graph_after),
            )
        roots = []
        for c in mins:
            a = sum((g.lengths[eid] for eid in c.edge_ids if eid in support_ids), Fraction(0))
            b = sum((g.lengths[eid] for eid in c.edge_ids if eid not in support_ids), Fraction(0))
            roots.append(b / ((sigma - a) * (1 - s) + b * s))
        nxt = min(roots)
        if not 1 < nxt < mu:
            raise DegenerateStage(f"Newton step to {nxt} leaves (1, {mu})")
        mu = nxt
