import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspine.errors import CapExceeded, NotOuterSpace, NotUnitVolume
from graphspine.graphs import (
    Edge,
    MetricGraph,
    are_isomorphic,
    normalize_volume,
    rank,
)
from graphspine.cycles import minimum_cycles
from graphspine.fill import geometrically_fills, systole_profile, systole_support
from graphspine.flow import (
    NEW_SYSTOLES,
    STAGE_COMPLETE,
    Event,
    FlowState,
    _leg_lengths,
    apply_event,
    next_event,
    retract_to_spine,
)

from .conftest import make_dumbbell, make_theta, run_python
from .oracles import oracle_next_event, oracle_support_betti
from .strategies import outer_graphs, random_cubic_graph, random_outer_graph, random_relabeling


def _lengths_at(state, mu):
    """Edge lengths at ``mu`` along the state's stage line."""
    support = state.profile.support
    return _leg_lengths(state.profile.graph, support.edge_ids, support.total_length, mu)


def test_flow_lengths_identity_at_one(dumbbell_eq):
    state = FlowState.initial(systole_profile(dumbbell_eq))
    assert _lengths_at(state, Fraction(1)) == dumbbell_eq.lengths


def test_flow_lengths_dumbbell_collapse(dumbbell_eq):
    state = FlowState.initial(systole_profile(dumbbell_eq))
    lengths = _lengths_at(state, Fraction(3, 2))
    assert lengths == {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(0)}


def test_flow_lengths_theta(theta_long):
    state = FlowState.initial(systole_profile(theta_long))
    lengths = _lengths_at(state, Fraction(4, 3))
    assert lengths == {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}


def test_next_event_dumbbell_unequal(dumbbell_uneq):
    state = FlowState.initial(systole_profile(dumbbell_uneq))
    event = next_event(state)
    assert event.kind == NEW_SYSTOLES
    assert event.u_star == Fraction(10, 7)
    assert [c.edge_ids for c in event.new_cycles] == [frozenset({1})]
    assert math.isclose(event.t_approx, math.log(10 / 7))


def test_next_event_dumbbell_equal(dumbbell_eq):
    event = next_event(FlowState.initial(systole_profile(dumbbell_eq)))
    assert event.kind == STAGE_COMPLETE
    assert event.u_star == Fraction(3, 2)
    assert event.contracted_edge_ids == (2,)


def test_next_event_theta_long(theta_long):
    event = next_event(FlowState.initial(systole_profile(theta_long)))
    assert event.kind == NEW_SYSTOLES
    assert event.u_star == Fraction(4, 3)
    assert len(event.new_cycles) == 2
    assert all(0 in c.edge_ids for c in event.new_cycles)


def test_retract_theta_long(theta_long):
    traj = retract_to_spine(theta_long)
    assert len(traj.events) == 1
    assert traj.final.girth == Fraction(2, 3)
    assert are_isomorphic(traj.final.graph, make_theta()) is not None


def test_retract_dumbbell_equal(dumbbell_eq):
    traj = retract_to_spine(dumbbell_eq)
    assert [e.kind for e in traj.events] == [STAGE_COMPLETE]
    assert traj.events[0].u_star == Fraction(3, 2)
    assert traj.final.girth == Fraction(1, 2)
    assert traj.final.graph.num_vertices == 1
    assert sorted(e.length for e in traj.final.graph.edges) == [Fraction(1, 2)] * 2


def test_retract_dumbbell_unequal(dumbbell_uneq):
    traj = retract_to_spine(dumbbell_uneq)
    assert [e.kind for e in traj.events] == [NEW_SYSTOLES, STAGE_COMPLETE]
    assert traj.events[0].u_star == Fraction(10, 7)
    assert traj.events[1].u_star == Fraction(2)
    assert sorted(e.length for e in traj.final.graph.edges) == [Fraction(1, 2)] * 2


def test_retract_already_covered_is_empty(theta):
    traj = retract_to_spine(theta)
    assert traj.events == ()
    assert traj.final.graph == theta


def test_retract_requires_unit_volume():
    g = make_theta(Fraction(1), Fraction(1), Fraction(1))
    with pytest.raises(NotUnitVolume):
        retract_to_spine(g)


def test_retract_requires_outer_space():
    lollipop = MetricGraph(
        2, (Edge(0, 0, 0, Fraction(1, 2)), Edge(1, 0, 1, Fraction(1, 4)),
            Edge(2, 0, 1, Fraction(1, 4))), "lollipop")
    with pytest.raises(NotOuterSpace):
        retract_to_spine(lollipop)  # rank 2 but a degree-2 vertex... rank is 2


def _two_thetas() -> MetricGraph:
    # two equal theta pairs joined by two connectors: the four long cycles
    # reach the minimum exactly when the connectors collapse
    h = Fraction(1, 6)
    return MetricGraph(4, (
        Edge(0, 0, 1, h), Edge(1, 0, 1, h),
        Edge(2, 2, 3, h), Edge(3, 2, 3, h),
        Edge(4, 1, 2, h), Edge(5, 3, 0, h)), "tie")


def test_tie_at_stage_end_merges_contraction():
    traj = retract_to_spine(_two_thetas())
    assert len(traj.events) == 1
    event = traj.events[0]
    assert event.kind == NEW_SYSTOLES
    assert event.u_star == Fraction(3, 2)
    assert len(event.new_cycles) == 4
    assert event.contracted_edge_ids == (4, 5)
    assert traj.final.graph.num_vertices == 2
    assert traj.final.graph.num_edges == 4
    assert traj.final.girth == Fraction(1, 2)


def test_cap_exceeded_carries_partial_trajectory(dumbbell_uneq):
    with pytest.raises(CapExceeded) as excinfo:
        retract_to_spine(dumbbell_uneq, max_events_per_stage=0)
    assert excinfo.value.trajectory is not None
    assert excinfo.value.trajectory.events == ()


def test_retraction_commutes_with_relabeling():
    rng = random.Random(20240817)
    for _ in range(10):
        g = random_outer_graph(rng, 2, 4)
        mangled, _, _ = random_relabeling(rng, g)
        t1 = retract_to_spine(g)
        t2 = retract_to_spine(mangled)
        assert [e.u_star for e in t1.events] == [e.u_star for e in t2.events]
        assert [e.kind for e in t1.events] == [e.kind for e in t2.events]
        assert are_isomorphic(t1.final.graph, t2.final.graph) is not None


def _check_trajectory_invariants(g, traj):
    initial = systole_profile(g)
    assert traj.initial == initial
    sigma_prev = initial.girth
    betti_prev = oracle_support_betti(g, systole_support(initial).edge_ids)
    stage_prev = 1
    stage_edges = g.num_edges
    u_prev = Fraction(0)
    stage_event_count = 0
    contractions = 0
    for event in traj.events:
        snapshot = event.after.graph
        assert snapshot.volume == 1
        profile = systole_profile(snapshot)
        assert event.after == profile
        sigma = profile.girth
        assert sigma >= sigma_prev
        betti = oracle_support_betti(snapshot, systole_support(profile).edge_ids)
        assert betti >= betti_prev
        assert event.stage == stage_prev
        assert event.u_star > u_prev
        if event.kind == NEW_SYSTOLES:
            stage_event_count += 1
            assert stage_event_count <= stage_edges
        if event.contracted_edge_ids:
            contractions += 1
            stage_event_count = 0
            stage_prev += 1
            stage_edges = snapshot.num_edges
            u_prev = Fraction(0)
        else:
            u_prev = event.u_star
        sigma_prev, betti_prev = sigma, betti
    assert contractions <= max(g.num_vertices - 1, 0) or g.num_vertices == 1
    final = systole_profile(traj.final.graph)
    assert traj.final == final
    assert geometrically_fills(final)
    assert rank(traj.final.graph) == rank(g)


@given(outer_graphs(rank_lo=2, rank_hi=4))
@settings(max_examples=40, deadline=None)
def test_trajectory_invariants_random(g):
    traj = retract_to_spine(g)
    _check_trajectory_invariants(g, traj)


def test_next_event_refuses_covered_state(theta):
    from graphspine.errors import FlowStateError

    state = FlowState.initial(systole_profile(theta))
    with pytest.raises(FlowStateError):
        next_event(state)


def test_forest_check_flags_cycles(theta):
    from graphspine.errors import DegenerateStage
    from graphspine.flow import _forest_or_die

    with pytest.raises(DegenerateStage):
        _forest_or_die(theta, frozenset({0, 1}))
    _forest_or_die(theta, frozenset({0}))


def test_flow_invariants_survive_optimize():
    # under -O bare asserts would let a doubled systole length through until
    # the stage end failed with DegenerateStage
    proc = run_python("-O", "-c", "\n".join([
        "from graphspine import flow",
        "from graphspine.datasets import bundled_graph",
        "from graphspine.errors import InvariantViolation",
        "true_minimum_cycles = flow.minimum_cycles",
        "def doubled(g, **kwargs):",
        "    girth, cycles = true_minimum_cycles(g, **kwargs)",
        "    return 2 * girth, cycles",
        "flow.minimum_cycles = doubled",
        "try:",
        "    print(__debug__, flow.retract_to_spine(bundled_graph('dumbbell_unequal')))",
        "except InvariantViolation:",
        "    print(__debug__, 'InvariantViolation')",
    ]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "InvariantViolation"]


def _fields(event: Event) -> list:
    return [getattr(event, f.name) for f in dataclasses.fields(Event)]


def _assert_events_match_oracle(g: MetricGraph) -> None:
    """Along the whole flow line of g, every event equals the enumerate-all
    oracle's, field by field (the post-event profile included)."""
    state = FlowState.initial(systole_profile(g))
    while not state.done:
        event = next_event(state)
        assert _fields(event) == _fields(oracle_next_event(state))
        state = apply_event(state, event)


@given(outer_graphs(rank_lo=2, rank_hi=4), st.booleans())
@settings(max_examples=40, deadline=None)
def test_next_event_matches_enumerating_oracle(g, equal_lengths):
    # equal lengths put ties at the stage end
    if equal_lengths:
        g = normalize_volume(g.with_lengths({e.id: Fraction(1) for e in g.edges}))
    _assert_events_match_oracle(g)


@pytest.mark.parametrize("g", [make_dumbbell(), _two_thetas(),
                               make_dumbbell(Fraction(1, 4), Fraction(5, 12), Fraction(1, 3))],
                         ids=["dumbbell_equal", "two_thetas", "dumbbell_unequal"])
def test_next_event_matches_oracle_on_stage_end_ties(g):
    _assert_events_match_oracle(g)


def test_stage_end_tie_sets_stay_small():
    # at the stage end every non-systole edge has length 0, and on this graph
    # the cycles through the collapsed forest that tie there number in the
    # hundreds of thousands; the event search must never list them
    g = random_cubic_graph("flow:0:48", 48)
    capped = retract_to_spine(g, cycle_cap=1000)
    full = retract_to_spine(g)
    assert [_fields(e) for e in capped.events] == [_fields(e) for e in full.events]
    assert capped.events and geometrically_fills(systole_profile(capped.final.graph))
    sigma, stage_edges, stage_events, contractions = minimum_cycles(g)[0], g.num_edges, 0, 0
    for event in capped.events:
        after = event.after.graph
        assert after.volume == 1 and rank(after) == rank(g)
        assert event.after.girth >= sigma
        sigma = event.after.girth
        if event.kind == NEW_SYSTOLES:
            stage_events += 1
            assert stage_events <= stage_edges
        if event.contracted_edge_ids:
            contractions += 1
            stage_edges, stage_events = after.num_edges, 0
    assert contractions <= g.num_vertices - 1


def test_newton_step_guards_survive_optimize():
    # _newton_step(L, L', sigma, mu) steps to (L - L'mu)/(sigma - L'); under -O
    # bare asserts would let a slope at sigma or a root outside (1, mu) through
    proc = run_python("-O", "-c", "\n".join([
        "from fractions import Fraction as F",
        "from graphspine.errors import InvariantViolation",
        "from graphspine.flow import _newton_step",
        "print(__debug__)",
        "for length, slope in [(2, 0), (1, 1), (1, 0), (3, 0)]:",
        "    try:",
        "        print(_newton_step(F(length), F(slope), F(1), F(3)))",
        "    except InvariantViolation:",
        "        print('InvariantViolation')",
    ]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "2", "InvariantViolation",
                                   "InvariantViolation", "InvariantViolation"]
