import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspine.deformation import systole_equality_system
from graphspine.errors import NotOuterSpace
from graphspine.fill import (
    classify_membership,
    geometrically_fills,
    systole_profile,
    systole_support,
    topologically_fills,
)
from graphspine.graphs import Cycle, rank
from graphspine.homology import build_basis, cycle_class, is_well_rounded, systole_lattice
from .oracles import oracle_lattice, oracle_support, oracle_systoles, oracle_topologically_fills
from .strategies import multigraphs, outer_graphs


def test_support_theta(theta):
    s = systole_support(systole_profile(theta))
    assert s.edge_ids == {0, 1, 2}
    assert s.total_length == 1


def test_support_dumbbells(dumbbell_eq, dumbbell_uneq):
    s = systole_support(systole_profile(dumbbell_eq))
    assert s.edge_ids == {0, 1}
    assert s.total_length == Fraction(2, 3)
    s2 = systole_support(systole_profile(dumbbell_uneq))
    assert s2.edge_ids == {0}
    assert s2.total_length == Fraction(1, 4)


def test_fill_examples(theta, dumbbell_eq, dumbbell_uneq):
    theta, dumbbell_eq, dumbbell_uneq = map(systole_profile, (theta, dumbbell_eq, dumbbell_uneq))
    assert topologically_fills(theta)
    assert geometrically_fills(theta)
    assert topologically_fills(dumbbell_eq)       # complement is the open bar
    assert not geometrically_fills(dumbbell_eq)
    assert not topologically_fills(dumbbell_uneq)  # long loop is disjoint
    assert not geometrically_fills(dumbbell_uneq)


def test_membership_examples(theta, dumbbell_eq, dumbbell_uneq):
    m = classify_membership(systole_profile(dumbbell_eq))
    assert (m.in_W, m.in_V, m.in_Vprime) == (True, True, False)
    m2 = classify_membership(systole_profile(theta))
    assert (m2.in_W, m2.in_V, m2.in_Vprime) == (True, True, True)
    m3 = classify_membership(systole_profile(dumbbell_uneq))
    assert (m3.in_W, m3.in_V, m3.in_Vprime) == (False, False, False)


def test_membership_refuses_rank_one():
    from graphspine.graphs import MetricGraph, Edge

    loop = MetricGraph(1, (Edge(0, 0, 0, Fraction(1)),), "circle")
    with pytest.raises(NotOuterSpace):
        classify_membership(systole_profile(loop))


@given(multigraphs(max_edges=8))
@settings(max_examples=80, deadline=None)
def test_support_matches_oracle(g):
    s = systole_support(systole_profile(g))
    edge_ids, vertex_ids, total = oracle_support(g)
    assert s.edge_ids == edge_ids
    assert s.vertex_ids == vertex_ids
    assert s.total_length == total


@given(multigraphs(max_edges=8))
@settings(max_examples=80, deadline=None)
def test_topological_fill_matches_oracle(g):
    assert topologically_fills(systole_profile(g)) == oracle_topologically_fills(g)


@given(multigraphs(max_edges=8))
@settings(max_examples=60, deadline=None)
def test_geometric_implies_topological(g):
    if geometrically_fills(systole_profile(g)):
        assert topologically_fills(systole_profile(g))


@given(outer_graphs())
@settings(max_examples=40, deadline=None)
def test_containment_laws(g):
    m = classify_membership(systole_profile(g))
    if m.in_W:
        assert m.in_V
    if m.in_Vprime:
        assert m.in_V


@given(multigraphs(max_edges=8))
@settings(max_examples=40, deadline=None)
def test_predicates_relabeling_invariant(g):
    from .strategies import random_relabeling

    mangled, _, _ = random_relabeling(random.Random(23), g)
    p, q = systole_profile(g), systole_profile(mangled)
    assert topologically_fills(p) == topologically_fills(q)
    assert geometrically_fills(p) == geometrically_fills(q)


@given(st.one_of(multigraphs(max_edges=8), outer_graphs()))
@settings(max_examples=60, deadline=None)
def test_profile_matches_oracle_and_every_consumer(g):
    p = systole_profile(g)
    girth, systoles = oracle_systoles(g)
    assert (p.girth, set(p.systoles)) == (girth, systoles)
    assert p.systoles == tuple(sorted(systoles, key=Cycle.sort_key))
    edge_ids, vertex_ids, total = oracle_support(g)
    assert (p.support.edge_ids, p.support.vertex_ids, p.support.total_length) == (
        edge_ids, vertex_ids, total)
    basis = build_basis(g)
    want = oracle_lattice([cycle_class(g, basis, c) for c in systoles], rank(g))
    assert (p.lattice.rank, p.lattice.divisors, p.lattice.index) == want
    assert p.lattice == systole_lattice(p)
    assert is_well_rounded(p) == (p.lattice.rank == rank(g))
    # every consumer reads the graph from the profile
    covers = edge_ids == {e.id for e in g.edges}
    assert systole_support(p) == p.support
    assert topologically_fills(p) == oracle_topologically_fills(g)
    assert geometrically_fills(p) == covers
    system = systole_equality_system(p)
    lengths = [e.length for e in g.edges]
    assert len(system) == len(systoles)
    assert all(sum(r * x for r, x in zip(row, lengths)) == 0 for row in system[:-1])
    if rank(g) >= 2:
        m = classify_membership(p)
        assert (m.in_W, m.in_V, m.in_Vprime) == (
            want[0] == rank(g), oracle_topologically_fills(g), covers)
