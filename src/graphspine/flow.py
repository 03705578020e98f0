"""Exact event-driven retraction toward the locus where systoles cover the
whole graph.

Within a stage the systole edges expand by a factor u while the remaining
edges shrink by (1 - u*s)/(1 - s), keeping the volume at exactly 1.  Every
edge length is linear in u, so each event parameter is the root of a linear
rational equation and the whole trajectory is computed exactly.  An event is
either a set of new cycles reaching the minimal length (they join the systole
set and the flow direction is recomputed) or the collapse of the non-systole
forest, which is then contracted and a new stage begins.

The event search is a parametric shortest-cycle Newton iteration (Karp &
Orlin 1981; Radzik 1992): each step is one exact girth search on integer
weights that order the cycles by length and then by slope, and the minimum
cycles are enumerated once, at the event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import (
    CapExceeded,
    ContractionOfCycle,
    DegenerateStage,
    FlowStateError,
    InvariantViolation,
    NotUnitVolume,
)
from .graphs import (
    Cycle,
    MetricGraph,
    contract_forest,
    cycle_length,
    rank,
    require_outer_space,
)
from .cycles import DEFAULT_CYCLE_CAP, _scaled, girth_value, minimum_cycles
from .fill import SystoleProfile, support_of, systole_profile

NEW_SYSTOLES = "new-systoles"
STAGE_COMPLETE = "stage-complete"

_NEWTON_GUARD = 10_000


@dataclass(frozen=True)
class FlowState:
    """A point on a flow line.

    ``profile`` holds the current graph and its systoles; ``u`` is the
    multiplicative parameter accumulated since the start of the current stage
    (u = 1 right after a contraction), ``stage_sigma`` and ``stage_s`` the
    systole length and support length at stage start.  Volume stays exactly 1
    throughout.
    """

    profile: SystoleProfile
    u: Fraction
    stage_sigma: Fraction
    stage_s: Fraction
    stage_index: int = 1

    @staticmethod
    def initial(profile: SystoleProfile) -> "FlowState":
        return FlowState(profile=profile, u=Fraction(1), stage_sigma=profile.girth,
                         stage_s=profile.support.total_length)

    def check(self) -> None:
        g, sigma = self.profile.graph, self.profile.girth
        if not (1 <= self.u and self.u * self.stage_s <= 1
                and sigma == self.u * self.stage_sigma and g.volume == 1
                and all(cycle_length(g, c) == sigma for c in self.profile.systoles)):
            raise InvariantViolation(f"flow state at u = {self.u} is off its stage line")

    @property
    def done(self) -> bool:
        return self.profile.support.covers(self.profile.graph)


def _leg_lengths(g: MetricGraph, support_ids: frozenset[int], s: Fraction,
                 mu: Fraction) -> dict[int, Fraction]:
    t_factor = (1 - mu * s) / (1 - s)
    return {
        e.id: e.length * (mu if e.id in support_ids else t_factor)
        for e in g.edges
    }


@dataclass(frozen=True)
class Event:
    """One exact event of the flow.

    ``new_cycles`` are written on the pre-event graph.  When a tie lands
    exactly at the end of the stage, the event is classified as new-systoles
    but carries the contraction of the collapsed forest as well; the next
    stage then starts from the contracted snapshot.  ``after`` is the profile
    of the post-event graph, so applying the event enumerates nothing again.
    """

    kind: str
    stage: int
    u_star: Fraction
    t_approx: float
    new_cycles: tuple[Cycle, ...]
    contracted_edge_ids: tuple[int, ...]
    after: SystoleProfile


def _forest_or_die(g: MetricGraph, edge_ids: frozenset[int]) -> MetricGraph:
    try:
        return contract_forest(g, edge_ids)
    except ContractionOfCycle as exc:
        raise DegenerateStage(f"non-systole edges at stage end: {exc}") from None


def _contracted_snapshot(state: FlowState, mu: Fraction) -> tuple[MetricGraph, tuple[int, ...]]:
    """Contract the collapsed non-systole forest; surviving edges carry their
    lengths at the event parameter."""
    g = state.profile.graph
    t_ids = frozenset(e.id for e in g.edges if e.id not in state.profile.support.edge_ids)
    contracted = _forest_or_die(g, t_ids)
    scaled = contracted.with_lengths({eid: g.lengths[eid] * mu for eid in contracted.lengths})
    if scaled.volume != 1:
        raise InvariantViolation(f"contracted graph has volume {scaled.volume}")
    return scaled, tuple(sorted(t_ids))


def _newton_step(length: Fraction, slope: Fraction, sigma: Fraction, mu: Fraction) -> Fraction:
    """Root of the active line L + L'·(r - mu) = sigma·r below ``mu``."""
    if not sigma > slope:
        raise InvariantViolation(f"a cycle of slope {slope} cannot cross the systole length")
    root = (length - slope * mu) / (sigma - slope)
    if not 1 < root < mu:
        raise InvariantViolation(f"Newton step to {root} leaves (1, {mu})")
    return root


def next_event(state: FlowState, cycle_cap: int = DEFAULT_CYCLE_CAP) -> Event:
    """The least u > state.u at which a non-systole cycle reaches the minimal
    length, or the completion of the stage when no crossing exists.

    The crossing is found by a parametric Newton iteration on the concave
    piecewise-linear gap between the cheapest competing cycle and the systole
    length: evaluate at the stage end, step to the root of the active linear
    piece, repeat; convergence is exact and finite.  The active piece is the
    least cycle L at mu with the largest slope L', found by one girth search
    on the packed integer weights P·K + Q: P is w_e(mu) and Q is -w'_e, both
    scaled to integers, and K = 2·sum|Q| + 1 keeps the order lexicographic.
    Every packed weight is positive (an edge of length 0 at the stage end has
    Q > 0).  The minimum cycles are enumerated only at the event.
    """
    if state.done:
        raise FlowStateError("systoles already cover the graph")
    g, sigma = state.profile.graph, state.profile.girth
    support_ids = state.profile.support.edge_ids
    s = state.profile.support.total_length
    systole_set = set(state.profile.systoles)
    mu_end = Fraction(1) / s
    mu = mu_end
    # w_e(mu) is l_e·mu on the support and l_e·(1 - mu·s)/(1 - s) off it.  With
    # l_e = ls[e]/d, s = sn/sd and mu = a/b, w_e(mu)·d·b·(sd - sn) and
    # -w'_e·d·(sd - sn) are integers.
    ls, d = _scaled(g, None)
    sn, sd = s.numerator, s.denominator
    q = {eid: -x * (sd - sn) if eid in support_ids else x * sn for eid, x in ls.items()}
    half = sum(abs(x) for x in q.values())
    k = 2 * half + 1
    slope_den = d * (sd - sn)

    for _ in range(_NEWTON_GUARD):
        a, b = mu.numerator, mu.denominator
        grow, shrink = a * (sd - sn), b * sd - a * sn
        packed = girth_value(g, {
            eid: x * (grow if eid in support_ids else shrink) * k + q[eid]
            for eid, x in ls.items()}).numerator
        # packed = P(C)·k + Q(C) with |Q(C)| <= half, so P(C) rounds out
        scaled_length = (packed + half) // k
        length = Fraction(scaled_length, slope_den * b)
        slope = Fraction(scaled_length * k - packed, slope_den)
        target = sigma * mu
        if length > target:
            raise InvariantViolation(f"girth {length} exceeds the systole length {target}")
        if length < target:
            mu = _newton_step(length, slope, sigma, mu)
            continue
        weights = _leg_lengths(g, support_ids, s, mu)
        girth, mins = minimum_cycles(g, weights=weights, cap=cycle_cap)
        if girth != length:
            raise InvariantViolation(f"the minimum cycles have length {girth}, "
                                     f"the girth search found {length}")
        extras = tuple(c for c in mins if c not in systole_set)
        if mu == mu_end:
            # the collapsed forest is contracted in this event, also when
            # new cycles tie exactly at the stage end; the next stage starts
            # from the systoles of the contracted graph
            contracted_graph, contracted = _contracted_snapshot(state, mu)
            after = systole_profile(contracted_graph, cap=cycle_cap)
        elif extras:
            # the same stage continues: the minimum cycles are the systoles
            # of the graph at mu, on more edges
            g2, contracted = g.with_lengths(weights), ()
            after = SystoleProfile(g2, girth, mins, support_of(g2, mins))
        else:
            raise InvariantViolation(
                "gap vanished strictly inside the leg with no new cycle")
        if after.girth != target:
            raise InvariantViolation(f"systole length {after.girth} after the event, "
                                     f"{target} predicted")
        u_star = state.u * mu
        return Event(
            kind=NEW_SYSTOLES if extras else STAGE_COMPLETE, stage=state.stage_index,
            u_star=u_star, t_approx=math.log(float(u_star)), new_cycles=extras,
            contracted_edge_ids=contracted, after=after,
        )
    raise DegenerateStage("event search failed to converge")


def apply_event(state: FlowState, event: Event) -> FlowState:
    before, after = state.profile, event.after
    if event.contracted_edge_ids:
        new_state = replace(FlowState.initial(after), stage_index=state.stage_index + 1)
    else:
        new_state = replace(state, profile=after, u=event.u_star)
        if not (set(before.systoles) <= set(after.systoles)
                and before.support.edge_ids < after.support.edge_ids):
            raise InvariantViolation("the new systoles are not those the event found")
    new_state.check()
    return new_state


@dataclass(frozen=True)
class Trajectory:
    """The profiles where the flow starts and ends, and the events between."""

    initial: SystoleProfile
    events: tuple[Event, ...]
    final: SystoleProfile

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

    state = FlowState.initial(systole_profile(g, cap=cycle_cap))
    state.check()
    initial = state.profile
    events: list[Event] = []
    stage_events = 0
    contractions = 0

    def partial() -> Trajectory:
        return Trajectory(initial, tuple(events), state.profile)

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
        state = apply_event(state, event)
        events.append(event)

    final_rank = rank(state.profile.graph)
    if final_rank != rank(g):
        raise InvariantViolation(f"the flow changed the rank from {rank(g)} to {final_rank}")
    return partial()
