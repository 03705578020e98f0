import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphspine.errors import BudgetExceeded, NoCycle
from graphspine.flow import _leg_lengths
from graphspine.graphs import Edge, MetricGraph, cycle_length, normalize_volume
from graphspine.cycles import (
    all_systoles,
    bridge_ids,
    cycles_up_to_length,
    girth_value,
    minimum_cycles,
)
from graphspine.datasets import bundled_dataset, bundled_graph

from .conftest import run_python
from .oracles import (
    oracle_bridges,
    oracle_cycles,
    oracle_length,
    oracle_support,
    oracle_systoles,
)
from .strategies import multigraphs, random_relabeling, relabel_cycle


def test_girth_theta(theta):
    length, (witness, *_) = minimum_cycles(theta)
    assert length == Fraction(2, 3)
    assert witness.edge_ids == {0, 1}


def test_girth_dumbbell_tie_break(dumbbell_eq):
    length, (witness, *_) = minimum_cycles(dumbbell_eq)
    assert length == Fraction(1, 3)
    assert witness.edge_ids == {0}  # smaller loop id wins the tie


def test_girth_unit_klein():
    g = bundled_graph("klein_73")
    length, _ = minimum_cycles(g)  # bundled skeleton has unit lengths
    assert length == 7


def test_girth_beats_the_first_candidate_by_one_unit():
    # edge 0 closes a triangle first; the 2-cycle on edges 3, 4 must still
    # win, although its search is cut at one unit below the best so far
    one = Fraction(1)
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (3, 4), (2, 3)]
    g = MetricGraph(5, tuple(Edge(i, u, v, one) for i, (u, v) in enumerate(pairs)), "tri-bigon")
    girth, (witness,) = minimum_cycles(g)
    assert girth == 2 and witness.edge_ids == {3, 4}


def test_no_cycle_on_tree():
    tree = MetricGraph(2, (Edge(0, 0, 1, Fraction(1)),), "edgelet")
    with pytest.raises(NoCycle):
        minimum_cycles(tree)


def test_all_systoles_theta(theta):
    systoles = all_systoles(theta)
    assert len(systoles) == 3
    assert all(cycle_length(theta, c) == Fraction(2, 3) for c in systoles)


def test_all_systoles_k4(k4):
    systoles = all_systoles(k4)
    assert len(systoles) == 4
    assert all(len(c) == 3 for c in systoles)
    assert all(cycle_length(k4, c) == Fraction(1, 2) for c in systoles)


def test_all_systoles_unequal_dumbbell(dumbbell_uneq):
    systoles = all_systoles(dumbbell_uneq)
    assert len(systoles) == 1
    assert systoles[0].edge_ids == {0}


def test_cycles_up_to_length_theta(theta):
    assert len(cycles_up_to_length(theta, Fraction(2, 3))) == 3


def test_float_bound_is_refused(theta):
    # the binary value of 2/3 lies below the exact girth, so a float bound
    # would silently return no cycle at all
    with pytest.raises(ValueError):
        cycles_up_to_length(theta, 2 / 3)


def test_string_bound_is_refused(theta):
    with pytest.raises(ValueError):
        cycles_up_to_length(theta, "2/3")


def test_float_weight_is_refused(theta, k4):
    with pytest.raises(ValueError):
        minimum_cycles(theta, weights={e.id: 0.5 for e in theta.edges})
    # a negative weight would break the searches' distance bounds (a girth
    # of -7 where the lightest cycle weighs -3)
    with pytest.raises(ValueError):
        girth_value(k4, {e.id: -5 if e.id == 0 else 1 for e in k4.edges})


def test_cycles_up_to_length_k4(k4):
    cycles = cycles_up_to_length(k4, Fraction(2, 3))
    assert len(cycles) == 7  # 4 triangles + 3 squares
    triangles = [c for c in cycles if len(c) == 3]
    squares = [c for c in cycles if len(c) == 4]
    assert (len(triangles), len(squares)) == (4, 3)


def test_heawood_six_cycles_exceed_faces():
    m = bundled_dataset("heawood_torus")
    g = m.skeleton_unit()
    six_cycles = cycles_up_to_length(g, 6)
    assert all(len(c) == 6 for c in six_cycles)  # girth 6: nothing shorter
    assert len(six_cycles) == 28 > 7


def test_budget_cap(k4):
    with pytest.raises(BudgetExceeded):
        cycles_up_to_length(k4, Fraction(2, 3), cap=3)


def test_long_ring_enumerates_without_recursion():
    n = 1500
    ring = MetricGraph(n, tuple(Edge(i, i, (i + 1) % n, Fraction(1)) for i in range(n)), "ring")
    cycles = cycles_up_to_length(ring, Fraction(n))
    assert len(cycles) == 1 and len(cycles[0]) == n


def test_minimum_cycles_postcondition_survives_optimize():
    # under -O a bare assert would let (girth, ()) through
    proc = run_python("-O", "-c", "\n".join([
        "from graphspine import cycles",
        "from graphspine.datasets import bundled_graph",
        "from graphspine.errors import InvariantViolation",
        "true_girth = cycles.girth_value",
        "cycles.girth_value = lambda g, weights=None: true_girth(g, weights) / 2",
        "try:",
        "    print(__debug__, cycles.minimum_cycles(bundled_graph('theta')))",
        "except InvariantViolation:",
        "    print(__debug__, 'InvariantViolation')",
    ]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "InvariantViolation"]


def test_bridges_excluded(dumbbell_eq):
    assert bridge_ids(dumbbell_eq) == {2}
    assert all(2 not in c.edge_ids for c in cycles_up_to_length(dumbbell_eq, Fraction(1)))


@given(multigraphs(max_vertices=7), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_bridges_match_the_oracle(g, seed):
    # the generated trees hang each vertex below a smaller one; a relabelled
    # copy takes that order away from the spanning tree's depths
    for h in (g, random_relabeling(random.Random(seed), g)[0]):
        assert bridge_ids(h) == oracle_bridges(h)


@given(multigraphs(max_edges=9))
@settings(max_examples=80, deadline=None)
def test_minimum_cycles_match_oracle(g):
    girth, mins = minimum_cycles(g)
    oracle_girth, oracle_mins = oracle_systoles(g)
    assert girth == oracle_girth
    assert set(mins) == oracle_mins


@given(multigraphs(max_edges=9), st.lists(st.integers(min_value=0, max_value=4),
                                            min_size=9, max_size=9))
@settings(max_examples=150, deadline=None)
def test_tree_girth_matches_oracle(g, numerators):
    # loops and parallel edges come with the multigraphs; weights may be 0
    # (the flow's stage end), equal (unit skeletons) or plain ints
    for weights in (None, {e.id: numerators[i] for i, e in enumerate(g.edges)},
                    {e.id: Fraction(numerators[i], 1 + i % 3) for i, e in enumerate(g.edges)}):
        w = g.lengths if weights is None else weights
        want = min(sum(w[eid] for eid in c.edge_ids) for c in oracle_cycles(g))
        assert girth_value(g, weights) == want


@given(multigraphs(max_edges=9), st.lists(st.integers(min_value=0, max_value=4),
                                            min_size=9, max_size=9))
@settings(max_examples=50, deadline=None)
def test_bounded_enumeration_matches_oracle(g, numerators):
    # weights may be 0, as on the collapsed forest at the flow's stage end
    everything = oracle_cycles(g)
    for weights in (None, {e.id: numerators[i] for i, e in enumerate(g.edges)}):
        w = g.lengths if weights is None else weights
        length = {c: sum(w[eid] for eid in c.edge_ids) for c in everything}
        lengths = sorted(set(length.values()))
        bound = lengths[min(1, len(lengths) - 1)]  # second-smallest when it exists
        got = set(cycles_up_to_length(g, bound, weights))
        assert got == {c for c in everything if length[c] <= bound}


@given(multigraphs(max_edges=8))
@settings(max_examples=40, deadline=None)
def test_systole_invariants(g):
    girth, mins = minimum_cycles(g)
    assert all(cycle_length(g, c) == girth for c in mins)
    assert minimum_cycles(g)[0] == girth
    for c in mins:
        assert len(set(c.edge_ids)) == len(c)


@given(multigraphs(max_edges=8))
@settings(max_examples=40, deadline=None)
def test_systoles_commute_with_relabeling(g):
    mangled, _, emap = random_relabeling(random.Random(11), g)
    mapped = {relabel_cycle(c, emap) for c in all_systoles(g)}
    assert mapped == set(all_systoles(mangled))


@st.composite
def flow_weighted(draw):
    """A volume-1 multigraph with the lengths the flow gives it at a random
    mu in (1, 1/s), s the length of the systole support: large coprime
    denominators."""
    g = normalize_volume(draw(multigraphs(max_edges=9)))
    support, _, s = oracle_support(g)
    assume(s < 1)
    p = draw(st.integers(min_value=1, max_value=10**4 - 1))
    mu = 1 + (1 / s - 1) * Fraction(p, 10**4)
    return g, _leg_lengths(g, frozenset(support), s, mu)


@given(flow_weighted())
@settings(max_examples=150, deadline=None)
def test_weighted_minimum_cycles_match_oracle(case):
    g, weights = case
    girth, mins = minimum_cycles(g, weights=weights)
    oracle_girth, oracle_mins = oracle_systoles(g.with_lengths(weights))
    assert girth == oracle_girth
    assert set(mins) == oracle_mins


@given(flow_weighted())
@settings(max_examples=150, deadline=None)
def test_weighted_bounded_enumeration_matches_oracle(case):
    g, weights = case
    weighted = g.with_lengths(weights)
    everything = oracle_cycles(weighted)
    lengths = sorted({oracle_length(weighted, c) for c in everything})
    # the girth itself (the bound is tied) and the next length when it exists
    for bound in lengths[:2]:
        got = set(cycles_up_to_length(g, bound, weights=weights))
        assert got == {c for c in everything if oracle_length(weighted, c) <= bound}
