import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspine import graphs
from graphspine.datasets import DATASET_NAMES, bundled_graph
from graphspine.errors import (
    BudgetExceeded,
    ContractionOfCycle,
    Disconnected,
    DuplicateEdgeId,
    InvalidGraph,
    MalformedLine,
    NonPositiveLength,
    NotOuterSpace,
)
from graphspine.graphs import (
    Cycle,
    Edge,
    MetricGraph,
    are_isomorphic,
    contract_forest,
    cycle_length,
    normalize_volume,
    parse_graph,
    rank,
    require_outer_space,
    serialize_graph,
)

from .conftest import make_dumbbell, make_theta
from .oracles import oracle_carries_pair_lengths, oracle_isomorphic
from .strategies import multigraphs, random_relabeling, relabel_graph

THETA_FILE = """\
# three parallel strands
graph theta
vertices 2
edge 0 0 1 1/3
edge 1 0 1 1/3
edge 2 0 1 1/3
"""


def test_parse_theta():
    g = parse_graph(THETA_FILE)
    assert g.num_vertices == 2
    assert g.num_edges == 3
    assert g.name == "theta"
    assert all(e.length == Fraction(1, 3) for e in g.edges)


def test_parse_rejects_zero_length():
    with pytest.raises(NonPositiveLength):
        parse_graph("graph g\nvertices 2\nedge 0 0 1 0/1\nedge 1 0 1 1/2\n")


def test_parse_negative_numbers_reach_validation():
    # a leading minus parses, so the graph checks, not the parser, refuse it
    with pytest.raises(NonPositiveLength):
        parse_graph("graph g\nvertices 2\nedge 0 0 1 -1/2\nedge 1 0 1 1/2\n")
    with pytest.raises(InvalidGraph, match="negative edge id"):
        parse_graph("graph g\nvertices 2\nedge -1 0 1 1/2\nedge 1 0 1 1/2\n")


def test_parse_rejects_disconnected():
    text = "graph g\nvertices 4\nedge 0 0 1 1/2\nedge 1 2 3 1/2\n"
    with pytest.raises(Disconnected):
        parse_graph(text)


def test_parse_rejects_duplicate_id():
    text = "graph g\nvertices 2\nedge 0 0 1 1/2\nedge 0 0 1 1/2\n"
    with pytest.raises(DuplicateEdgeId):
        parse_graph(text)


def test_parse_rejects_garbage():
    with pytest.raises(MalformedLine):
        parse_graph("graph g\nvertices 2\nedge 0 0 1 0.5\n")
    with pytest.raises(MalformedLine):
        parse_graph("graph g\nvertices two\n")
    with pytest.raises(MalformedLine):
        parse_graph("vertices 2\nedge 0 0 1 1/2\n")
    # str.isdigit accepts superscripts, which int() then rejects
    with pytest.raises(MalformedLine):
        parse_graph("graph g\nvertices \u00b2\n")
    with pytest.raises(MalformedLine):
        parse_graph("graph g\nvertices 2\nedge 0 0 1 1/1\nrotation \u00b9: 0.1\n")
    # int() alone takes digit separators, a plus sign and non-ASCII digits
    with pytest.raises(MalformedLine):
        parse_graph("graph g\nvertices 2\nedge 0 0 1 1_0\n")
    with pytest.raises(MalformedLine):
        parse_graph("graph g\nvertices 2\nedge 0 0 1 +1\n")
    with pytest.raises(MalformedLine):
        parse_graph("graph g\nvertices 2\nedge \u0661 0 1 1/1\n")
    with pytest.raises(MalformedLine):
        parse_graph("graph g\nvertices 1\nedge 0 0 0 1/1\nrotation 0: +0.0 0.1\n")
    with pytest.raises(MalformedLine):
        parse_graph("graph g\nvertices 1\nedge 0 0 0 1/1\ntwists 0_0\n")


def test_serialize_parse_roundtrip(theta):
    assert parse_graph(serialize_graph(theta)) == theta


@given(multigraphs())
@settings(max_examples=60, deadline=None)
def test_roundtrip_random(g):
    assert parse_graph(serialize_graph(g)) == g


def test_normalize_examples():
    g = make_theta(Fraction(1), Fraction(1), Fraction(1))
    assert [e.length for e in normalize_volume(g).edges] == [Fraction(1, 3)] * 3
    g2 = make_theta()
    assert normalize_volume(g2) == g2
    g3 = make_theta(Fraction(2), Fraction(3), Fraction(5))
    assert [e.length for e in normalize_volume(g3).edges] == [
        Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]


@given(multigraphs())
@settings(max_examples=60, deadline=None)
def test_normalize_idempotent_and_ratio_preserving(g):
    n1 = normalize_volume(g)
    assert n1.volume == 1
    assert normalize_volume(n1) == n1
    for a, b in zip(g.edges, n1.edges):
        assert a.length * n1.edges[0].length == b.length * g.edges[0].length


def test_rank_examples(theta, k4):
    assert rank(theta) == 2
    assert rank(k4) == 3


def test_rank_klein_skeleton():
    from graphspine.datasets import bundled_graph

    g = bundled_graph("klein_73")
    assert (g.num_vertices, g.num_edges) == (56, 84)
    assert rank(g) == 29


def test_outer_space_mode(theta, dumbbell_eq):
    require_outer_space(theta)
    require_outer_space(dumbbell_eq)
    path = MetricGraph(2, (Edge(0, 0, 1, Fraction(1)), Edge(1, 0, 1, Fraction(1))), "banana")
    with pytest.raises(NotOuterSpace):
        require_outer_space(path)  # degree-2 vertices


def _vertex_map(g, contracted):
    """Each vertex's image under a contraction, read off the endpoints of the
    surviving edges (which keep their ids)."""
    image = {}
    for e in contracted.edges:
        old = g.edge_by_id[e.id]
        for before, after in ((old.u, e.u), (old.v, e.v)):
            assert image.setdefault(before, after) == after
    return tuple(image[v] for v in range(g.num_vertices))


def test_contract_bar_gives_rose(dumbbell_eq):
    contracted = contract_forest(dumbbell_eq, {2})
    assert contracted.num_vertices == 1
    assert sorted(e.id for e in contracted.edges) == [0, 1]
    assert all(e.is_loop for e in contracted.edges)
    assert set(dumbbell_eq.edge_by_id) - set(contracted.edge_by_id) == {2}
    vertex_map = _vertex_map(dumbbell_eq, contracted)
    assert vertex_map[0] == vertex_map[1]
    assert rank(contracted) == rank(dumbbell_eq)


def test_contract_empty_is_identity(theta):
    contracted = contract_forest(theta, set())
    assert contracted == theta
    assert set(contracted.edge_by_id) == set(theta.edge_by_id)


def test_contract_rejects_cycles(theta, dumbbell_eq):
    with pytest.raises(ContractionOfCycle):
        contract_forest(theta, {0, 1})
    with pytest.raises(ContractionOfCycle):
        contract_forest(dumbbell_eq, {0})  # loop


def test_contract_preserves_lengths(k4):
    contracted = contract_forest(k4, {0})
    assert all(e.length == Fraction(1, 6) for e in contracted.edges)
    assert rank(contracted) == 3


def test_contract_numbers_components_by_least_vertex(k4):
    # new vertex i is the component with the i-th smallest least vertex
    contracted = contract_forest(k4, {2, 3})  # edges 0-3 and 1-2
    assert _vertex_map(k4, contracted) == (0, 1, 1, 0)
    contracted = contract_forest(k4, {1, 5})  # edges 0-2 and 2-3
    assert _vertex_map(k4, contracted) == (0, 1, 0, 0)
    assert [(e.id, e.u, e.v) for e in contracted.edges] == [
        (0, 0, 1), (2, 0, 0), (3, 1, 0), (4, 1, 0)]


def test_isomorphism_examples(theta, dumbbell_eq):
    relabeled = relabel_graph(theta, (1, 0), {0: 2, 1: 0, 2: 1})
    iso = are_isomorphic(theta, relabeled)
    assert iso is not None
    assert are_isomorphic(theta, dumbbell_eq) is None
    other = make_dumbbell(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert are_isomorphic(dumbbell_eq, other) is None  # lengths differ


@given(multigraphs())
@settings(max_examples=40, deadline=None)
def test_isomorphism_reflexive_and_symmetric(g):
    assert are_isomorphic(g, g) is not None
    mangled, _, _ = random_relabeling(random.Random(7), g)
    forward = are_isomorphic(g, mangled)
    backward = are_isomorphic(mangled, g)
    assert forward is not None and backward is not None


def test_isomorphism_search_has_a_budget(monkeypatch, k4):
    relabeled, _, _ = random_relabeling(random.Random(3), k4)
    # every vertex of K4 looks alike, so the search assigns at least 4 images
    monkeypatch.setattr(graphs, "ISOMORPHISM_NODE_BUDGET", 3)
    with pytest.raises(BudgetExceeded) as excinfo:
        are_isomorphic(k4, relabeled)
    assert excinfo.value.count == 4
    monkeypatch.setattr(graphs, "ISOMORPHISM_NODE_BUDGET", 4)
    assert are_isomorphic(k4, relabeled) is not None


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_isomorphism_search_follows_the_spanning_tree(monkeypatch, name):
    # each vertex after the first has a mapped neighbour, so a relabelled
    # copy is found within 10 images per vertex, vertex-transitive maps too
    g = bundled_graph(name)
    monkeypatch.setattr(graphs, "ISOMORPHISM_NODE_BUDGET", 10 * g.num_vertices)
    for seed in range(5):
        copy, _, _ = random_relabeling(random.Random(seed), g)
        vertex_map = are_isomorphic(g, copy)
        assert vertex_map is not None
        assert oracle_carries_pair_lengths(g, copy, vertex_map)


def test_isomorphism_respects_lengths_on_edges(theta):
    relabeled, _, _ = random_relabeling(random.Random(3), theta)
    vertex_map = are_isomorphic(theta, relabeled)
    assert oracle_carries_pair_lengths(theta, relabeled, vertex_map)


@given(multigraphs(max_vertices=6), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@settings(max_examples=50, deadline=None)
def test_isomorphism_matches_the_permutation_oracle(g, seed, unit):
    if unit:  # with every length tied, the vertex signatures tell little apart
        g = g.with_lengths(dict.fromkeys(g.lengths, 1))
    rng = random.Random(seed)
    copy, _, _ = random_relabeling(rng, g)
    vertex_map = are_isomorphic(g, copy)
    assert vertex_map is not None
    assert oracle_carries_pair_lengths(g, copy, vertex_map)
    # near misses: one edge takes another edge's length, one endpoint moves
    e, f = rng.choice(copy.edges), rng.choice(copy.edges)
    variants = [copy.with_lengths({**copy.lengths, e.id: f.length})]
    w = rng.randrange(copy.num_vertices)
    moved = [Edge(x.id, w, x.v, x.length) if x.id == e.id else x for x in copy.edges]
    try:
        variants.append(MetricGraph(copy.num_vertices, tuple(moved), copy.name))
    except Disconnected:
        pass
    for h in variants:
        vertex_map = are_isomorphic(g, h)
        assert (vertex_map is not None) == oracle_isomorphic(g, h)
        assert vertex_map is None or oracle_carries_pair_lengths(g, h, vertex_map)


def test_with_lengths_refuses_inexact_lengths(theta):
    # a float would become its binary expansion, a string a parsed rational
    for bad in (0.1, "1/3"):
        with pytest.raises(InvalidGraph):
            theta.with_lengths({0: bad, 1: Fraction(1, 3), 2: Fraction(1, 3)})
    assert theta.with_lengths({0: 1, 1: 2, 2: Fraction(1, 2)}).volume == Fraction(7, 2)


# -- cycles as values --------------------------------------------------------


def test_cycle_equality_ignores_rotation_and_reflection(theta):
    a = Cycle.make(theta, ((0, 0), (1, 1)))
    b = Cycle.make(theta, ((1, 0), (0, 1)))
    assert a == b
    assert hash(a) == hash(b)
    assert a.canonical_key == b.canonical_key


def test_cycle_reverse_is_equal_but_distinct_steps(theta):
    a = Cycle.make(theta, ((0, 0), (1, 1)))
    assert a.reverse() == a
    assert a.reverse().steps != a.steps


def test_cycle_rejects_vertex_repeat(dumbbell_eq):
    # loop plus bar revisits the loop vertex
    with pytest.raises(InvalidGraph):
        Cycle.make(dumbbell_eq, ((0, 0), (2, 0), (1, 0), (2, 1)))


def test_cycle_rejects_open_walk(theta):
    with pytest.raises(InvalidGraph):
        Cycle.make(theta, ((0, 0),))


def test_cycle_length_exact(k4):
    c = Cycle.make(k4, ((0, 0), (3, 0), (1, 1)))
    assert cycle_length(k4, c) == Fraction(1, 2)


def test_isomorphism_reflexive_on_bundled():
    from graphspine.datasets import DATASET_NAMES, bundled_graph

    for name in DATASET_NAMES:
        g = bundled_graph(name)
        assert are_isomorphic(g, g) is not None


@given(multigraphs())
@settings(max_examples=40, deadline=None)
def test_contract_random_forest_preserves_rank(g):
    rng = random.Random(g.num_edges * 31 + g.num_vertices)
    non_loops = [e.id for e in g.edges if not e.is_loop]
    rng.shuffle(non_loops)
    chosen: set[int] = set()
    parent = list(range(g.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid in non_loops:
        e = g.edge_by_id[eid]
        ru, rv = find(e.u), find(e.v)
        if ru != rv and rng.random() < 0.6:
            parent[ru] = rv
            chosen.add(eid)
    contracted = contract_forest(g, chosen)
    assert rank(contracted) == rank(g)
    assert set(contracted.edge_by_id) == {e.id for e in g.edges} - chosen
