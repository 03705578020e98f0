"""Metric multigraphs with exact rational edge lengths.

Vertices are integers ``0..V-1``.  Loops and parallel edges are allowed.
Every length is a :class:`fractions.Fraction`; no decision anywhere in this
package is made in floating point.  Each graph grows one spanning tree,
which decides connectivity and orders the isomorphism search; the homology
basis, the bridges and map orientability read the same tree.  A
length-preserving isomorphism is returned as its vertex map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    BudgetExceeded,
    ContractionOfCycle,
    Disconnected,
    DuplicateEdgeId,
    InvalidGraph,
    MalformedLine,
    NonPositiveLength,
    NotOuterSpace,
)

# search-tree nodes (vertex images assigned) one ``are_isomorphic`` call may visit
ISOMORPHISM_NODE_BUDGET = 10**5


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    v: int
    length: Fraction

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def other(self, vertex: int) -> int:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"vertex {vertex} is not an endpoint of edge {self.id}")


@dataclass(frozen=True)
class MetricGraph:
    """Connected multigraph with positive rational edge lengths."""

    num_vertices: int
    edges: tuple[Edge, ...]
    name: str = "graph"

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.id)))
        if self.num_vertices < 1:
            raise InvalidGraph("a metric graph needs at least one vertex")
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise DuplicateEdgeId(f"duplicate edge id {e.id}")
            seen.add(e.id)
            if e.id < 0:
                raise InvalidGraph(f"negative edge id {e.id}")
            if not (0 <= e.u < self.num_vertices and 0 <= e.v < self.num_vertices):
                raise InvalidGraph(f"edge {e.id} endpoint out of range")
            if not isinstance(e.length, Fraction):
                raise InvalidGraph(f"edge {e.id} length must be a Fraction")
            if e.length <= 0:
                raise NonPositiveLength(f"edge {e.id} has non-positive length {e.length}")
        if len(self.spanning_tree[0]) != self.num_vertices:
            raise Disconnected(f"graph {self.name!r} is not connected")

    # -- derived views ------------------------------------------------------

    @cached_property
    def edge_by_id(self) -> Mapping[int, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, the incident (edge_id, other_endpoint) pairs.

        A loop at ``v`` appears twice at ``v``.
        """
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for e in self.edges:
            adj[e.u].append((e.id, e.v))
            adj[e.v].append((e.id, e.u))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def spanning_tree(self) -> tuple[tuple[int, ...], Mapping[int, tuple[int, int]]]:
        """The minimum-edge-id BFS tree from vertex 0: the vertices in the
        order reached, and each non-root vertex's (tree edge, parent)."""
        order = [0]
        parent: dict[int, tuple[int, int]] = {}
        for x in order:  # a FIFO queue: the loop also visits what it appends
            for eid, y in self.adjacency[x]:
                if y != 0 and y not in parent:
                    parent[y] = (eid, x)
                    order.append(y)
        return tuple(order), parent

    @cached_property
    def volume(self) -> Fraction:
        return sum((e.length for e in self.edges), Fraction(0))

    @cached_property
    def lengths(self) -> Mapping[int, Fraction]:
        return {e.id: e.length for e in self.edges}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def with_lengths(self, lengths: Mapping[int, Fraction]) -> "MetricGraph":
        """The same graph with new lengths; each must be an int or a Fraction."""
        for e in self.edges:
            if not isinstance(lengths[e.id], (int, Fraction)):
                raise InvalidGraph(f"edge {e.id} length must be an int or a Fraction")
        new_edges = tuple(replace(e, length=Fraction(lengths[e.id])) for e in self.edges)
        return MetricGraph(self.num_vertices, new_edges, self.name)


def rank(g: MetricGraph) -> int:
    """First Betti number E - V + 1 of a connected graph."""
    return g.num_edges - g.num_vertices + 1


def require_outer_space(g: MetricGraph) -> None:
    """Enforce the moduli-space convention: rank >= 2 and no vertex of degree
    1 or 2 (loops count twice)."""
    if rank(g) < 2:
        raise NotOuterSpace(f"rank {rank(g)} < 2")
    for v in range(g.num_vertices):
        if g.degree(v) < 3:
            raise NotOuterSpace(f"vertex {v} has degree {g.degree(v)} < 3")


def normalize_volume(g: MetricGraph) -> MetricGraph:
    """Rescale all lengths by one rational so the total is exactly 1."""
    scale = Fraction(1) / g.volume
    if scale == 1:
        return g
    return g.with_lengths({e.id: e.length * scale for e in g.edges})


# ---------------------------------------------------------------------------
# cycles


def _least_rotation(seq: tuple, reversal: tuple) -> tuple:
    """Lexicographically minimal rotation of a cyclic sequence or of its
    given reversal.

    Gives one distinguished representative per unoriented cyclic curve,
    which is what makes cycle sets diffable and reports deterministic.
    """
    k = len(seq)
    return min([seq[i:] + seq[:i] for i in range(k)]
               + [reversal[i:] + reversal[:i] for i in range(k)])


@dataclass(frozen=True, eq=False)
class Cycle:
    """An embedded closed curve: an oriented cyclic sequence of steps.

    A step ``(edge_id, direction)`` traverses the edge from u to v when
    ``direction == 0`` and from v to u otherwise.  Equality and hashing ignore
    orientation and starting point (canonical form), but the stored steps keep
    the orientation they were built with, so homology classes can distinguish
    a cycle from its reverse.
    """

    steps: tuple[tuple[int, int], ...]

    @cached_property
    def canonical_key(self) -> tuple[tuple[int, int], ...]:
        return _least_rotation(self.steps, self.reverse().steps)

    @cached_property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(eid for eid, _ in self.steps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cycle):
            return NotImplemented
        return self.canonical_key == other.canonical_key

    def __hash__(self) -> int:
        return hash(self.canonical_key)

    def __len__(self) -> int:
        return len(self.steps)

    def reverse(self) -> "Cycle":
        return Cycle(tuple((eid, 1 - d) for eid, d in reversed(self.steps)))

    def canonical(self) -> "Cycle":
        return Cycle(self.canonical_key)

    def sort_key(self):
        key = self.canonical_key
        return tuple(eid for eid, _ in key), tuple(d for _, d in key)

    def format(self) -> str:
        return " ".join(f"{eid}{'+' if d == 0 else '-'}" for eid, d in self.steps)

    @staticmethod
    def make(g: MetricGraph, steps: Sequence[tuple[int, int]]) -> "Cycle":
        """Validate embeddedness against ``g`` and build the cycle in canonical
        form."""
        steps = tuple(steps)
        if not steps:
            raise InvalidGraph("a cycle needs at least one step")
        tails = []
        prev_head: Optional[int] = None
        eids = set()
        for eid, d in steps:
            e = g.edge_by_id.get(eid)
            if e is None:
                raise InvalidGraph(f"cycle step refers to unknown edge {eid}")
            if d not in (0, 1):
                raise InvalidGraph(f"bad direction {d}")
            if eid in eids:
                raise InvalidGraph(f"cycle repeats edge {eid}")
            eids.add(eid)
            tail, head = (e.u, e.v) if d == 0 else (e.v, e.u)
            if prev_head is not None and tail != prev_head:
                raise InvalidGraph("consecutive steps do not share a vertex")
            tails.append(tail)
            prev_head = head
        if prev_head != tails[0]:
            raise InvalidGraph("cycle does not close up")
        if len(set(tails)) != len(tails):
            raise InvalidGraph("cycle visits a vertex twice")
        return Cycle(steps).canonical()


def cycle_length(g: MetricGraph, c: Cycle) -> Fraction:
    return sum((g.lengths[eid] for eid, _ in c.steps), Fraction(0))


def cycle_vertices(g: MetricGraph, c: Cycle) -> frozenset[int]:
    verts = set()
    for eid, _ in c.steps:
        e = g.edge_by_id[eid]
        verts.add(e.u)
        verts.add(e.v)
    return frozenset(verts)


# ---------------------------------------------------------------------------
# forest contraction


class _DisjointSets:
    """Union-find on 0..n-1 in which the smaller root wins every union, so
    each root is the least member of its set."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False if they were one set already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def contract_forest(g: MetricGraph, edge_ids: Iterable[int]) -> MetricGraph:
    """Contract a set of non-loop edges containing no cycle.

    Surviving edges keep their lengths and ids; the rank is preserved.
    """
    ids = frozenset(edge_ids)
    for eid in ids:
        e = g.edge_by_id.get(eid)
        if e is None:
            raise InvalidGraph(f"unknown edge id {eid}")
        if e.is_loop:
            raise ContractionOfCycle(f"edge {eid} is a loop")

    sets = _DisjointSets(g.num_vertices)
    for eid in sorted(ids):
        e = g.edge_by_id[eid]
        if not sets.union(e.u, e.v):
            raise ContractionOfCycle(f"selected edges contain a cycle through edge {eid}")

    # new vertex i is the component with the i-th smallest least vertex
    roots = sorted({sets.find(v) for v in range(g.num_vertices)})
    new_index = {r: i for i, r in enumerate(roots)}
    vertex_map = tuple(new_index[sets.find(v)] for v in range(g.num_vertices))

    new_edges = tuple(
        Edge(e.id, vertex_map[e.u], vertex_map[e.v], e.length)
        for e in g.edges
        if e.id not in ids
    )
    return MetricGraph(len(roots), new_edges, g.name)


# ---------------------------------------------------------------------------
# isomorphism


def _pair_table(g: MetricGraph) -> dict[tuple[int, int], tuple[Fraction, ...]]:
    """Sorted lengths of the edges joining u and v under (min, max); loops at v under (v, v)."""
    table: dict[tuple[int, int], list[Fraction]] = {}
    for e in g.edges:
        table.setdefault((min(e.u, e.v), max(e.u, e.v)), []).append(e.length)
    return {pair: tuple(sorted(lengths)) for pair, lengths in table.items()}


def _vertex_signatures(g: MetricGraph, table) -> list[tuple]:
    """Per vertex: degree, its loop lengths and its other incident lengths."""
    loops: list[tuple[Fraction, ...]] = [() for _ in range(g.num_vertices)]
    incident: list[list[Fraction]] = [[] for _ in range(g.num_vertices)]
    for (a, b), lengths in table.items():
        if a == b:
            loops[a] = lengths
        else:
            incident[a].extend(lengths)
            incident[b].extend(lengths)
    return [(g.degree(v), loops[v], tuple(sorted(incident[v]))) for v in range(g.num_vertices)]


def are_isomorphic(g1: MetricGraph, g2: MetricGraph) -> Optional[tuple[int, ...]]:
    """A length-preserving isomorphism g1 -> g2 as its vertex map, or None.

    Deterministic backtracking over vertex images, refined by degree and
    incident-length signatures.  The vertices of g1 are assigned in the
    order of its spanning tree, so only the neighbours of a vertex's tree
    parent's image are tried as its image, and it must carry that pair's
    lengths.  A map that carries the lengths joining each vertex pair, loops
    included, extends to a length-preserving edge bijection.  The
    backtracking is exponential in the worst case, so it raises
    BudgetExceeded once it has assigned more than
    ``ISOMORPHISM_NODE_BUDGET`` vertex images.
    """
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return None
    pairs1, pairs2 = _pair_table(g1), _pair_table(g2)
    sig1, sig2 = _vertex_signatures(g1, pairs1), _vertex_signatures(g2, pairs2)
    if sorted(sig1) != sorted(sig2):
        return None

    n = g1.num_vertices
    order, parent = g1.spanning_tree
    nbrs2 = [sorted({y for _, y in a}) for a in g2.adjacency]
    mapping: dict[int, int] = {}
    used: set[int] = set()
    nodes = 0

    def consistent(v1: int, v2: int) -> bool:
        if sig1[v1] != sig2[v2]:
            return False
        for w1, w2 in mapping.items():
            if (pairs1.get((min(v1, w1), max(v1, w1)), ())
                    != pairs2.get((min(v2, w2), max(v2, w2)), ())):
                return False
        return True

    def backtrack(i: int) -> bool:
        nonlocal nodes
        if i == n:
            return True
        v1 = order[i]
        for v2 in nbrs2[mapping[parent[v1][1]]] if i else range(n):
            if v2 in used or not consistent(v1, v2):
                continue
            nodes += 1
            if nodes > ISOMORPHISM_NODE_BUDGET:
                raise BudgetExceeded(
                    f"isomorphism search visited more than {ISOMORPHISM_NODE_BUDGET} nodes", nodes)
            mapping[v1] = v2
            used.add(v2)
            if backtrack(i + 1):
                return True
            del mapping[v1]
            used.discard(v2)
        return False

    if not backtrack(0):
        return None
    return tuple(mapping[v] for v in range(n))


# ---------------------------------------------------------------------------
# file format


def _parse_int(token: str) -> int:
    """An optional ``-`` and ASCII digits, nothing else: ``int()`` alone also
    takes ``+1``, ``1_0`` and non-ASCII digits."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _parse_fraction(token: str, lineno: int, line: str) -> Fraction:
    try:
        if "/" in token:
            num_s, den_s = token.split("/", 1)
            num, den = _parse_int(num_s), _parse_int(den_s)
            if den == 0:
                raise MalformedLine(lineno, line, "zero denominator")
            return Fraction(num, den)
        return Fraction(_parse_int(token))
    except ValueError:
        raise MalformedLine(lineno, line, f"not a rational: {token!r}") from None


def parse_graph_file(text: str):
    """Low-level parser shared by graphs and maps.

    Returns ``(name, num_vertices, edges, rotations, twists)`` where
    ``rotations`` maps a vertex to its cyclic dart list (``(edge_id, end)``)
    and ``twists`` is a set of edge ids.  Rotation and twist lines are
    optional; see the maps module.
    """
    name: Optional[str] = None
    num_vertices: Optional[int] = None
    edges: list[Edge] = []
    rotations: dict[int, list[tuple[int, int]]] = {}
    twists: set[int] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "graph":
            if len(parts) < 2:
                raise MalformedLine(lineno, raw, "graph line needs a name")
            name = line.split(None, 1)[1]
        elif kind == "vertices":
            if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
                raise MalformedLine(lineno, raw, "vertices line needs a count")
            num_vertices = int(parts[1])
        elif kind == "edge":
            if len(parts) != 5:
                raise MalformedLine(lineno, raw, "edge line needs: id u v length")
            try:
                eid, u, v = _parse_int(parts[1]), _parse_int(parts[2]), _parse_int(parts[3])
            except ValueError:
                raise MalformedLine(lineno, raw, "edge ids and endpoints must be integers") from None
            length = _parse_fraction(parts[4], lineno, raw)
            edges.append(Edge(eid, u, v, length))
        elif kind == "rotation":
            head, _, rest = line.partition(":")
            head_parts = head.split()
            if len(head_parts) != 2 or not (head_parts[1].isascii() and head_parts[1].isdigit()):
                raise MalformedLine(lineno, raw, "rotation line needs: rotation <v>: darts")
            v = int(head_parts[1])
            darts = []
            for tok in rest.split():
                try:
                    eid_s, end_s = tok.split(".")
                    darts.append((_parse_int(eid_s), _parse_int(end_s)))
                except ValueError:
                    raise MalformedLine(lineno, raw, f"bad dart {tok!r}") from None
            if v in rotations:
                raise MalformedLine(lineno, raw, f"duplicate rotation for vertex {v}")
            rotations[v] = darts
        elif kind == "twists":
            for tok in parts[1:]:
                try:
                    twists.add(_parse_int(tok))
                except ValueError:
                    raise MalformedLine(lineno, raw, f"bad twist id {tok!r}") from None
        else:
            raise MalformedLine(lineno, raw, f"unknown directive {kind!r}")

    if name is None:
        raise MalformedLine(0, "", "missing 'graph <name>' line")
    if num_vertices is None:
        raise MalformedLine(0, "", "missing 'vertices <V>' line")
    return name, num_vertices, edges, rotations, twists


def parse_graph(text: str) -> MetricGraph:
    """Parse the line-based graph format into a validated MetricGraph."""
    name, num_vertices, edges, _, _ = parse_graph_file(text)
    return MetricGraph(num_vertices, tuple(edges), name)


def serialize_graph(g: MetricGraph) -> str:
    lines = [f"graph {g.name}", f"vertices {g.num_vertices}"]
    for e in g.edges:
        lines.append(f"edge {e.id} {e.u} {e.v} {e.length.numerator}/{e.length.denominator}")
    return "\n".join(lines) + "\n"
