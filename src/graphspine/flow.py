"""Exact event-driven retraction toward the locus where systoles cover the
whole graph.

Within a stage the systole edges expand by a factor u while the remaining
edges shrink by (1 - u*s)/(1 - s), keeping the volume at exactly 1.  Every
edge length is linear in u, so each event parameter is the root of a linear
rational equation and the whole trajectory is computed exactly.  An event is
either a set of new cycles reaching the minimal length (they join the systole
set and the flow direction is recomputed) or the collapse of the non-systole
forest, which is then contracted and a new stage begins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    CapExceeded,
    DegenerateStage,
    FlowStateError,
    NotUnitVolume,
    ParameterOutOfRange,
)
from .graphs import (
    Cycle,
    MetricGraph,
    _DisjointSets,
    contract_forest,
    cycle_length,
    rank,
    require_outer_space,
)
from .cycles import DEFAULT_CYCLE_CAP, minimum_cycles
from .fill import SystoleSupport, support_of

NEW_SYSTOLES = "new-systoles"
STAGE_COMPLETE = "stage-complete"

_NEWTON_GUARD = 10_000


@dataclass(frozen=True)
class FlowState:
    """A point on a flow line.

    ``u`` is the multiplicative parameter accumulated since the start of the
    current stage (u = 1 right after a contraction); ``sigma`` is the current
    systole length, ``stage_sigma`` and ``stage_s`` the systole length and
    support length at stage start.  Volume stays exactly 1 throughout.
    """

    graph: MetricGraph
    systoles: tuple[Cycle, ...]
    support: SystoleSupport
    sigma: Fraction
    u: Fraction
    stage_sigma: Fraction
    stage_s: Fraction
    stage_index: int = 1

    @staticmethod
    def initial(g: MetricGraph, cycle_cap: int = DEFAULT_CYCLE_CAP) -> "FlowState":
        sigma, systoles = minimum_cycles(g, cap=cycle_cap)
        support = support_of(g, systoles)
        return FlowState(
            graph=g, systoles=systoles, support=support, sigma=sigma,
            u=Fraction(1), stage_sigma=sigma, stage_s=support.total_length,
        )

    def check(self) -> None:
        assert self.graph.volume == 1
        assert all(cycle_length(self.graph, c) == self.sigma for c in self.systoles)
        assert self.sigma == self.u * self.stage_sigma
        assert 1 <= self.u
        assert self.u * self.stage_s <= 1

    @property
    def done(self) -> bool:
        return self.support.covers(self.graph)


def _leg_lengths(g: MetricGraph, support_ids: frozenset[int], s: Fraction,
                 mu: Fraction) -> dict[int, Fraction]:
    t_factor = (1 - mu * s) / (1 - s)
    return {
        e.id: e.length * (mu if e.id in support_ids else t_factor)
        for e in g.edges
    }


def flow_lengths_at(state: FlowState, u: Fraction) -> dict[int, Fraction]:
    """Edge lengths at flow parameter ``u`` (total exactly 1).

    ``u`` is stage-cumulative: valid between state.u and state.u / s where s
    is the current support length.
    """
    u = Fraction(u)
    s = state.support.total_length
    if s >= 1:
        raise FlowStateError("systoles already cover the graph")
    lo, hi = state.u, state.u / s
    if not (lo <= u <= hi):
        raise ParameterOutOfRange(f"u = {u} outside [{lo}, {hi}]")
    lengths = _leg_lengths(state.graph, state.support.edge_ids, s, u / state.u)
    assert sum(lengths.values()) == 1
    return lengths


@dataclass(frozen=True)
class Event:
    """One exact event of the flow.

    ``new_cycles`` are written on the pre-event graph.  When a tie lands
    exactly at the end of the stage, the event is classified as new-systoles
    but carries the contraction of the collapsed forest as well; the next
    stage then starts from the contracted snapshot.
    """

    kind: str
    stage: int
    u_star: Fraction
    t_approx: float
    new_cycles: tuple[Cycle, ...]
    contracted_edge_ids: tuple[int, ...]
    graph_after: MetricGraph
    sigma_after: Fraction


def _forest_or_die(g: MetricGraph, edge_ids: frozenset[int]) -> None:
    sets = _DisjointSets(g.num_vertices)
    for eid in sorted(edge_ids):
        e = g.edge_by_id[eid]
        if e.is_loop:
            raise DegenerateStage(f"non-systole loop {eid} survives to stage end")
        if not sets.union(e.u, e.v):
            raise DegenerateStage("non-systole edges contain a cycle at stage end")


def _contracted_snapshot(state: FlowState, mu: Fraction) -> tuple[MetricGraph, tuple[int, ...]]:
    """Contract the collapsed non-systole forest; surviving edges carry their
    lengths at the event parameter."""
    g = state.graph
    t_ids = frozenset(e.id for e in g.edges if e.id not in state.support.edge_ids)
    _forest_or_die(g, t_ids)
    contracted, _ = contract_forest(g, t_ids)
    scaled = contracted.with_lengths({eid: g.lengths[eid] * mu for eid in contracted.lengths})
    assert scaled.volume == 1
    return scaled, tuple(sorted(t_ids))


def next_event(state: FlowState, cycle_cap: int = DEFAULT_CYCLE_CAP) -> Event:
    """The least u > state.u at which a non-systole cycle reaches the minimal
    length, or the completion of the stage when no crossing exists.

    The crossing is found by a parametric Newton iteration on the concave
    piecewise-linear gap between the cheapest competing cycle and the systole
    length: evaluate at the stage end, step to the root of the active linear
    piece, repeat; convergence is exact and finite.
    """
    g = state.graph
    if state.done:
        raise FlowStateError("systoles already cover the graph")
    support_ids = state.support.edge_ids
    s = state.support.total_length
    sigma = state.sigma
    systole_set = set(state.systoles)
    mu_end = Fraction(1) / s
    mu = mu_end

    for _ in range(_NEWTON_GUARD):
        weights = _leg_lengths(g, support_ids, s, mu)
        girth, mins = minimum_cycles(g, weights=weights, cap=cycle_cap)
        target = sigma * mu
        assert girth <= target
        if girth == target:
            extras = tuple(c for c in mins if c not in systole_set)
            if extras:
                u_star = state.u * mu
                if mu == mu_end:
                    # tie exactly at stage end: the collapsed forest is
                    # contracted in the same event
                    graph_after, contracted = _contracted_snapshot(state, mu)
                else:
                    graph_after = g.with_lengths(weights)
                    contracted = ()
                return Event(
                    kind=NEW_SYSTOLES, stage=state.stage_index, u_star=u_star,
                    t_approx=math.log(float(u_star)), new_cycles=extras,
                    contracted_edge_ids=contracted, graph_after=graph_after,
                    sigma_after=sigma * mu,
                )
            assert mu == mu_end, "gap vanished strictly inside the leg with no new cycle"
            graph_after, contracted = _contracted_snapshot(state, mu)
            u_star = state.u * mu
            return Event(
                kind=STAGE_COMPLETE, stage=state.stage_index, u_star=u_star,
                t_approx=math.log(float(u_star)), new_cycles=(),
                contracted_edge_ids=contracted, graph_after=graph_after,
                sigma_after=sigma * mu,
            )
        # Newton step: move to the largest crossing not above any active line
        roots = []
        for c in mins:
            a = sum((g.lengths[eid] for eid in c.edge_ids if eid in support_ids), Fraction(0))
            b = sum((g.lengths[eid] for eid in c.edge_ids if eid not in support_ids), Fraction(0))
            assert b > 0, "an all-systole-edge cycle cannot cross the systole length"
            denom = (sigma - a) * (1 - s) + b * s
            assert denom > 0
            roots.append(b / denom)
        nxt = min(roots)
        assert 1 < nxt < mu
        mu = nxt
    raise DegenerateStage("event search failed to converge")


def apply_event(state: FlowState, event: Event,
                cycle_cap: int = DEFAULT_CYCLE_CAP) -> FlowState:
    g2 = event.graph_after
    sigma2, systoles2 = minimum_cycles(g2, cap=cycle_cap)
    support2 = support_of(g2, systoles2)
    if event.kind == NEW_SYSTOLES and not event.contracted_edge_ids:
        # same stage continues with the enlarged systole set
        assert sigma2 == event.sigma_after
        assert set(systoles2) == set(state.systoles) | set(event.new_cycles)
        new_state = FlowState(
            graph=g2, systoles=systoles2, support=support2, sigma=sigma2,
            u=event.u_star, stage_sigma=state.stage_sigma, stage_s=state.stage_s,
            stage_index=state.stage_index,
        )
    else:
        assert sigma2 == event.sigma_after
        new_state = FlowState(
            graph=g2, systoles=systoles2, support=support2, sigma=sigma2,
            u=Fraction(1), stage_sigma=sigma2, stage_s=support2.total_length,
            stage_index=state.stage_index + 1,
        )
    new_state.check()
    return new_state


@dataclass(frozen=True)
class Trajectory:
    initial: MetricGraph
    events: tuple[Event, ...]
    final_graph: MetricGraph
    final_systoles: tuple[Cycle, ...]
    final_sigma: Fraction
    final_support: SystoleSupport

    @property
    def num_stages(self) -> int:
        return 1 + sum(1 for e in self.events if e.contracted_edge_ids)


def retract_to_spine(g: MetricGraph, *, max_events_per_stage: Optional[int] = None,
                     max_contractions: Optional[int] = None,
                     cycle_cap: int = DEFAULT_CYCLE_CAP) -> Trajectory:
    """Run the flow until the systoles cover the whole graph.

    Caps default to ten times the provable bounds (at most E new-systole
    events per stage, at most V - 1 contractions); hitting one raises
    CapExceeded with the partial trajectory attached, never truncates.
    """
    require_outer_space(g)
    if g.volume != 1:
        raise NotUnitVolume(f"volume is {g.volume}, expected exactly 1")
    event_cap = max_events_per_stage if max_events_per_stage is not None else 10 * g.num_edges
    contraction_cap = max_contractions if max_contractions is not None else 10 * g.num_vertices

    state = FlowState.initial(g, cycle_cap=cycle_cap)
    state.check()
    events: list[Event] = []
    stage_events = 0
    contractions = 0

    def partial() -> Trajectory:
        return Trajectory(g, tuple(events), state.graph, state.systoles,
                          state.sigma, state.support)

    while not state.done:
        event = next_event(state, cycle_cap=cycle_cap)
        if event.kind == NEW_SYSTOLES:
            stage_events += 1
            if stage_events > event_cap:
                raise CapExceeded(
                    f"more than {event_cap} new-systole events in one stage", partial())
        if event.contracted_edge_ids:
            contractions += 1
            if contractions > contraction_cap:
                raise CapExceeded(
                    f"more than {contraction_cap} contractions", partial())
            stage_events = 0
        prev_support = state.support
        state = apply_event(state, event, cycle_cap=cycle_cap)
        events.append(event)
        if event.kind == NEW_SYSTOLES and not event.contracted_edge_ids:
            assert prev_support.edge_ids < state.support.edge_ids, \
                "support must grow at a new-systoles event"

    assert state.support.covers(state.graph)
    assert rank(state.graph) == rank(g)
    return Trajectory(g, tuple(events), state.graph, state.systoles,
                      state.sigma, state.support)
