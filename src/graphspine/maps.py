"""Combinatorial maps: graphs embedded in surfaces via rotation systems.

A dart is one of the two sides ``(edge_id, 0|1)`` of an edge (end 0 sits at
the endpoint u, end 1 at v; a loop contributes both darts at its one vertex).
``alpha`` swaps the two darts of each edge and ``sigma`` rotates the darts
counterclockwise around their base vertex; faces are the orbits of
sigma o alpha.

Non-orientable embeddings are supported through an optional set of twisted
edges (a signed rotation system); crossing a twisted edge flips the local
sense of rotation.  One signed tracer serves both kinds of map; without
twists it reduces to the plain sigma o alpha orbits above.  Orientability
is decided along the skeleton's spanning tree.

Automorphisms act freely on the 4E flags (a dart and a local sense), so
|Aut| is the size of the base flag's orbit.  The search keeps each
automorphism it finds as a generator, closes the orbit under the generators,
and propagates only to flags outside the orbit and outside every orbit
already refuted: a handful of propagations per map instead of 4E.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .errors import InvalidGraph, InvalidMap, InvariantViolation, MalformedLine, NotCubic
from .graphs import Cycle, Edge, MetricGraph, parse_graph_file, rank, serialize_graph
from .cycles import DEFAULT_CYCLE_CAP
from .fill import SystoleProfile, systole_profile

Dart = tuple[int, int]


@dataclass(frozen=True)
class CombinatorialMap:
    graph: MetricGraph
    rotations: tuple[tuple[Dart, ...], ...]
    twists: frozenset[int] = frozenset()

    def __post_init__(self):
        g = self.graph
        object.__setattr__(self, "rotations", tuple(tuple(r) for r in self.rotations))
        object.__setattr__(self, "twists", frozenset(self.twists))
        if len(self.rotations) != g.num_vertices:
            raise InvalidMap("one rotation per vertex required")
        expected: dict[int, list[Dart]] = {v: [] for v in range(g.num_vertices)}
        for e in g.edges:
            expected[e.u].append((e.id, 0))
            expected[e.v].append((e.id, 1))
        for v, rot in enumerate(self.rotations):
            if sorted(rot) != sorted(expected[v]):
                raise InvalidMap(f"rotation at vertex {v} does not list its darts exactly once")
        for eid in self.twists:
            if eid not in g.edge_by_id:
                raise InvalidMap(f"twist on unknown edge {eid}")

    # -- permutations -------------------------------------------------------

    @cached_property
    def darts(self) -> tuple[Dart, ...]:
        return tuple(sorted((e.id, end) for e in self.graph.edges for end in (0, 1)))

    @cached_property
    def alpha(self) -> Mapping[Dart, Dart]:
        return {(eid, end): (eid, 1 - end) for eid, end in self.darts}

    @cached_property
    def sigma(self) -> Mapping[Dart, Dart]:
        nxt: dict[Dart, Dart] = {}
        for rot in self.rotations:
            for i, d in enumerate(rot):
                nxt[d] = rot[(i + 1) % len(rot)]
        return nxt

    @cached_property
    def sigma_inv(self) -> Mapping[Dart, Dart]:
        return {v: k for k, v in self.sigma.items()}

    @cached_property
    def dart_vertex(self) -> Mapping[Dart, int]:
        out: dict[Dart, int] = {}
        for e in self.graph.edges:
            out[(e.id, 0)] = e.u
            out[(e.id, 1)] = e.v
        return out

    def twist_sign(self, edge_id: int) -> int:
        return -1 if edge_id in self.twists else 1

    @cached_property
    def is_orientable(self) -> bool:
        """Whether the twist signs can be removed by flipping local rotations
        (always true when there are no twists).  A twisted loop is intrinsic:
        flipping its vertex negates both ends.  The signs are propagated
        along the graph's spanning tree, then every edge is checked; any
        tree gives the same answer."""
        g = self.graph
        if any(g.edge_by_id[eid].is_loop for eid in self.twists):
            return False
        order, parent = g.spanning_tree
        sign = {order[0]: 1}
        for v in order[1:]:
            eid, p = parent[v]
            sign[v] = sign[p] * self.twist_sign(eid)
        return all(
            e.is_loop or sign[e.u] * sign[e.v] * self.twist_sign(e.id) == 1
            for e in g.edges
        )

    @cached_property
    def faces(self) -> MapFaces:
        return trace_faces(self)

    def skeleton_unit(self) -> MetricGraph:
        g = self.graph
        ones = tuple(Edge(e.id, e.u, e.v, Fraction(1)) for e in g.edges)
        return MetricGraph(g.num_vertices, ones, g.name)


# ---------------------------------------------------------------------------
# face tracing


@dataclass(frozen=True)
class FaceWalk:
    darts: tuple[Dart, ...]
    cycle: Optional[Cycle]  # None when the walk is not an embedded cycle

    def __len__(self) -> int:
        return len(self.darts)


@dataclass(frozen=True)
class MapFaces:
    faces: tuple[FaceWalk, ...]
    euler_characteristic: int
    orientable: bool
    genus: Optional[int]        # orientable genus when orientable
    crosscaps: Optional[int]    # non-orientable genus otherwise

    @property
    def count(self) -> int:
        return len(self.faces)


def _walk_to_face(m: CombinatorialMap, walk: Sequence[Dart]) -> FaceWalk:
    try:
        return FaceWalk(tuple(walk), Cycle.make(m.graph, walk))
    except InvalidGraph:
        return FaceWalk(tuple(walk), None)


def _face_orbits(m: CombinatorialMap) -> list[tuple[Dart, ...]]:
    """Each face once, as the darts of one boundary walk.

    States are (dart, local sense); a step crosses the dart's edge, flipping
    the sense on a twisted edge, and turns by sigma or its inverse.  A face
    is covered by two state orbits, one per direction, and the reverse of
    state (d, o) is (alpha(d), -o * twist(d)), so marking each traced state
    and its reverse as seen traces every face exactly once.  Starts run
    through (d, +1) in dart order before any (d, -1), so an untwisted map
    gives exactly its sigma o alpha orbits.
    """
    seen: set[tuple[Dart, int]] = set()
    walks: list[tuple[Dart, ...]] = []
    for start in [(d, o) for o in (1, -1) for d in m.darts]:
        if start in seen:
            continue
        walk = []
        d, o = start
        while True:
            walk.append(d)
            seen.add((d, o))
            o *= m.twist_sign(d[0])
            d = m.alpha[d]
            seen.add((d, -o))
            d = m.sigma[d] if o == 1 else m.sigma_inv[d]
            if (d, o) == start:
                break
        walks.append(tuple(walk))
    return walks


def trace_faces(m: CombinatorialMap) -> MapFaces:
    """Faces of the embedding, with embeddedness of each boundary walk and
    the Euler characteristic V - E + F."""
    faces = tuple(_walk_to_face(m, walk) for walk in sorted(_face_orbits(m)))
    g = m.graph
    euler = g.num_vertices - g.num_edges + len(faces)
    orientable = m.is_orientable
    if sum(len(f) for f in faces) != 2 * g.num_edges or (orientable and euler % 2):
        raise InvariantViolation(f"faces of {g.name} do not run twice along each edge "
                                 f"of a surface with chi = {euler}")
    genus = crosscaps = None
    if orientable:
        genus = (2 - euler) // 2
    else:
        crosscaps = 2 - euler
    return MapFaces(faces, euler, orientable, genus, crosscaps)


# ---------------------------------------------------------------------------
# type and counting identities


@dataclass(frozen=True)
class MapTypeReport:
    uniform: bool
    p: Optional[int]
    q: Optional[int]
    degree_multiset: tuple[int, ...]
    face_length_multiset: tuple[int, ...]


def map_type_check(m: CombinatorialMap) -> MapTypeReport:
    degrees = tuple(sorted(len(rot) for rot in m.rotations))
    face_lengths = tuple(sorted(len(f) for f in m.faces.faces))
    uniform = len(set(degrees)) == 1 and len(set(face_lengths)) == 1
    return MapTypeReport(
        uniform=uniform,
        p=face_lengths[0] if uniform else None,
        q=degrees[0] if uniform else None,
        degree_multiset=degrees,
        face_length_multiset=face_lengths,
    )


@dataclass(frozen=True)
class EulerRelations:
    V: int
    E: int
    F: int
    p: int
    n: int
    vertex_edge_identity: bool   # 3V == 2E
    edge_face_identity: bool     # 2E == pF
    rank_identity: bool          # n == 1 + V/2
    face_count_identity: bool    # pF == 6(n - 1)

    @property
    def all_pass(self) -> bool:
        return (self.vertex_edge_identity and self.edge_face_identity
                and self.rank_identity and self.face_count_identity)


def euler_relations(m: CombinatorialMap) -> EulerRelations:
    """Exact verification of the counting identities of cubic uniform maps."""
    t = map_type_check(m)
    if not t.uniform or t.q != 3:
        raise NotCubic(f"need a uniform cubic map, got degrees {t.degree_multiset}")
    g = m.graph
    V, E = g.num_vertices, g.num_edges
    F = m.faces.count
    p = t.p
    n = rank(g)
    return EulerRelations(
        V=V, E=E, F=F, p=p, n=n,
        vertex_edge_identity=(3 * V == 2 * E),
        edge_face_identity=(2 * E == p * F),
        rank_identity=(V % 2 == 0 and n == 1 + V // 2),
        face_count_identity=(p * F == 6 * (n - 1)),
    )


# ---------------------------------------------------------------------------
# automorphisms and flag transitivity


Flag = tuple[Dart, int]
Automorphism = tuple[Mapping[Dart, Dart], Mapping[int, int]]


@dataclass(frozen=True)
class FlagTransitivityReport:
    transitive: bool
    aut_order: int
    flag_count: int


def _propagate(m: CombinatorialMap, base: Dart, target: Dart, eps: int) -> Optional[Automorphism]:
    """Extend dart image base -> target with local sense eps at the base
    vertex to a full map automorphism, or fail.

    An automorphism is a dart bijection commuting with alpha and carrying
    sigma to sigma^(m(v)) for per-vertex senses m, consistent with the twist
    signs; on untwisted maps m is constant, giving exactly the
    orientation-preserving (m = +1) and reversing (m = -1) automorphisms.
    Returns the dart bijection and the senses m.
    """
    psi: dict[Dart, Dart] = {base: target}
    sense: dict[int, int] = {m.dart_vertex[base]: eps}
    stack = [base]

    def assign(d: Dart, img: Dart) -> bool:
        known = psi.get(d)
        if known is not None:
            return known == img
        psi[d] = img
        stack.append(d)
        return True

    while stack:
        d = stack.pop()
        img = psi[d]
        v = m.dart_vertex[d]
        s = sense[v]
        nd = m.sigma[d]
        nimg = m.sigma[img] if s == 1 else m.sigma_inv[img]
        if not assign(nd, nimg):
            return None
        ad, aimg = m.alpha[d], m.alpha[img]
        w = m.dart_vertex[ad]
        mw = s * m.twist_sign(d[0]) * m.twist_sign(img[0])
        if w in sense:
            if sense[w] != mw:
                return None
        else:
            sense[w] = mw
        if not assign(ad, aimg):
            return None
    if len(psi) != len(m.darts) or len(set(psi.values())) != len(psi):
        return None
    return psi, sense


def _close(m: CombinatorialMap, generators: Sequence[Automorphism],
           flags: set[Flag], frontier: list[Flag]) -> None:
    """Add to ``flags`` every image of the frontier under the group the
    generators span; g.(d, e) = (g(d), e * sense_g(vertex(d)))."""
    while frontier:
        d, eps = frontier.pop()
        v = m.dart_vertex[d]
        for psi, sense in generators:
            image = (psi[d], eps * sense[v])
            if image not in flags:
                flags.add(image)
                frontier.append(image)


@dataclass(frozen=True)
class MapAutomorphisms:
    """Generators of the automorphism group and the orbit of the base flag
    (first dart, sense +1) under it."""

    generators: tuple[Automorphism, ...]
    orbit: frozenset[Flag]


def map_automorphisms(m: CombinatorialMap) -> MapAutomorphisms:
    """The automorphism group, as generators and the base flag's orbit.

    An automorphism is fixed by the image of one flag (a dart and a local
    sense), so the group acts freely on the 4E flags and its order is the
    size of the base flag's orbit.  Flags are tried in order; one already in
    the orbit is skipped, and each other one is either reached by
    propagation, which adds a generator and re-closes the orbit, or refuted.
    If no automorphism takes the base flag to a flag, none takes it to any
    image of that flag under the generators found, so the flag's whole orbit
    under them is refuted at once.  At most 4E propagations of O(E) each, so
    the search is polynomial; in practice a handful (3 on the Klein quartic).
    """
    base = m.darts[0]
    generators: list[Automorphism] = []
    orbit: set[Flag] = {(base, 1)}
    refuted: set[Flag] = set()
    for flag in [(d, eps) for d in m.darts for eps in (1, -1)]:
        if flag in orbit or flag in refuted:
            continue
        found = _propagate(m, base, *flag)
        if found is None:
            refuted.add(flag)
            _close(m, generators, refuted, [flag])
        else:
            generators.append(found)
            _close(m, generators, orbit, list(orbit))
    return MapAutomorphisms(tuple(generators), frozenset(orbit))


def flag_transitivity(m: CombinatorialMap) -> FlagTransitivityReport:
    """A map is flag-transitive exactly when its automorphism group is as
    large as the flag count 4E (the action on flags is free)."""
    order = len(map_automorphisms(m).orbit)
    flags = 4 * m.graph.num_edges
    return FlagTransitivityReport(transitive=order == flags, aut_order=order, flag_count=flags)


# ---------------------------------------------------------------------------
# systoles versus faces


@dataclass(frozen=True)
class FaceSystoleReport:
    """The faces of a map against ``profile``, the systoles of its skeleton
    with every edge of length 1."""

    profile: SystoleProfile
    p: int
    equal: bool
    face_count: int
    extra_min_cycles: tuple[Cycle, ...]


def systoles_equal_faces(m: CombinatorialMap, cap: int = DEFAULT_CYCLE_CAP) -> FaceSystoleReport:
    """Whether the unit-weight minimum cycles are exactly the face boundaries.

    Decided by exhaustive enumeration of all cycles up to the girth on the
    skeleton with every edge of length 1.
    """
    t = map_type_check(m)
    if not t.uniform:
        raise InvalidMap("face/systole comparison needs a uniform map")
    profile = systole_profile(m.skeleton_unit(), cap=cap)
    mins = profile.systoles
    faces = m.faces
    face_cycles = {f.cycle for f in faces.faces if f.cycle is not None}
    all_embedded = all(f.cycle is not None for f in faces.faces)
    equal = profile.girth == t.p and all_embedded and set(mins) == face_cycles
    extras = tuple(sorted((c for c in mins if c not in face_cycles), key=Cycle.sort_key))
    return FaceSystoleReport(
        profile=profile, p=t.p, equal=equal,
        face_count=faces.count, extra_min_cycles=extras,
    )


# ---------------------------------------------------------------------------
# file format


def parse_map(text: str) -> CombinatorialMap:
    name, num_vertices, edges, rotations, twists = parse_graph_file(text)
    if not rotations:
        raise MalformedLine(0, "", "map requires rotation lines")
    g = MetricGraph(num_vertices, tuple(edges), name)
    stray = set(rotations) - set(range(num_vertices))
    if stray:
        raise InvalidMap(f"rotation for unknown vertex {sorted(stray)}")
    rots = []
    for v in range(num_vertices):
        if v not in rotations:
            raise InvalidMap(f"missing rotation for vertex {v}")
        rots.append(tuple(rotations[v]))
    return CombinatorialMap(g, tuple(rots), frozenset(twists))


def serialize_map(m: CombinatorialMap) -> str:
    out = serialize_graph(m.graph).rstrip("\n").splitlines()
    for v, rot in enumerate(m.rotations):
        if rot:
            k = rot.index(min(rot))
            rot = rot[k:] + rot[:k]
        darts = " ".join(f"{eid}.{end}" for eid, end in rot)
        out.append(f"rotation {v}: {darts}")
    if m.twists:
        out.append("twists " + " ".join(str(i) for i in sorted(m.twists)))
    return "\n".join(out) + "\n"
