"""Bundled verification suite: desk-scale checks of the package's core
claims, runnable as ``graphspine verify-paper``.

Each check recomputes from the bundled datasets and reports PASS or FAIL;
the Klein chain reports CONDITIONAL-SKIP when its hypothesis (minimum cycles
= face boundaries) does not hold, which would also be a valid outcome.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .graphs import Edge, MetricGraph, are_isomorphic, normalize_volume
from .homology import is_well_rounded
from .fill import classify_membership, geometrically_fills, systole_profile
from .flow import NEW_SYSTOLES, STAGE_COMPLETE, retract_to_spine
from .deformation import local_deformation_dimension, vcd_witness
from .maps import euler_relations, flag_transitivity, systoles_equal_faces
from .datasets import bundled_dataset

PASS = "PASS"
FAIL = "FAIL"
CONDITIONAL_SKIP = "CONDITIONAL-SKIP"

# both dumbbells retract to this rose of two loops of length 1/2
ROSE = MetricGraph(1, tuple(Edge(i, 0, 0, Fraction(1, 2)) for i in range(2)), "rose")


class Bundled:
    """What the checks of one run read: each bundled dataset parsed once (so
    each map's faces are traced once), and each map's faces compared with its
    minimum cycles once."""

    def __init__(self) -> None:
        self.load = functools.cache(bundled_dataset)
        self.faces = functools.cache(lambda name: systoles_equal_faces(self.load(name)))


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str


def _check(name: str, condition: bool, detail: str) -> CheckResult:
    return CheckResult(name, PASS if condition else FAIL, detail)


def check_theta_analysis(data: Bundled) -> CheckResult:
    g = data.load("theta").graph
    profile = systole_profile(g)
    m = classify_membership(profile)
    rec = local_deformation_dimension(profile)
    girth, systoles = profile.girth, profile.systoles
    ok = (
        girth == Fraction(2, 3)
        and len(systoles) == 3
        and m.in_W and m.in_V and m.in_Vprime
        and profile.lattice.index == 1
        and rec.dim == 0
    )
    return _check(
        "theta-analysis", ok,
        f"3 systoles of 2/3 (got {len(systoles)} of {girth}), membership "
        f"({m.in_W},{m.in_V},{m.in_Vprime}), lattice index {profile.lattice.index}, dim {rec.dim}")


def check_dumbbell_membership(data: Bundled) -> CheckResult:
    g = data.load("dumbbell_equal").graph
    m = classify_membership(systole_profile(g))
    ok = m.in_W and m.in_V and not m.in_Vprime
    return _check(
        "dumbbell-equal-membership", ok,
        f"equal-loop dumbbell is well-rounded and fills topologically but not "
        f"geometrically: ({m.in_W},{m.in_V},{m.in_Vprime})")


def check_dumbbell_equal_retraction(data: Bundled) -> CheckResult:
    traj = retract_to_spine(data.load("dumbbell_equal").graph)
    sigma0, final = traj.initial.girth, traj.final
    ok = (
        len(traj.events) == 1
        and traj.events[0].kind == STAGE_COMPLETE
        and traj.events[0].u_star == Fraction(3, 2)
        and sigma0 == Fraction(1, 3)
        and final.girth == Fraction(1, 2)
        and are_isomorphic(final.graph, ROSE) is not None
    )
    return _check(
        "dumbbell-equal-retraction", ok,
        f"one stage-complete event at u = {traj.events[0].u_star}, systole "
        f"{sigma0} -> {final.girth}, final graph rose(1/2,1/2)")


def check_dumbbell_unequal_retraction(data: Bundled) -> CheckResult:
    g = data.load("dumbbell_unequal")
    traj = retract_to_spine(g)
    kinds = [e.kind for e in traj.events]
    ok = (
        len(traj.events) == 2
        and kinds == [NEW_SYSTOLES, STAGE_COMPLETE]
        and traj.events[0].u_star == Fraction(10, 7)
        and len(traj.events[0].new_cycles) == 1
        and are_isomorphic(traj.final.graph, ROSE) is not None
    )
    return _check(
        "dumbbell-unequal-retraction", ok,
        f"long loop joins at u* = {traj.events[0].u_star}, then one "
        f"contraction ends at rose(1/2,1/2)")


def check_theta_unbalanced_retraction(data: Bundled) -> CheckResult:
    theta = data.load("theta").graph
    g = theta.with_lengths({0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)})
    traj = retract_to_spine(g)
    ok = (
        len(traj.events) == 1
        and traj.events[0].kind == NEW_SYSTOLES
        and traj.events[0].u_star == Fraction(4, 3)
        and are_isomorphic(traj.final.graph, theta) is not None
    )
    return _check(
        "theta-unbalanced-retraction", ok,
        f"single event at u* = {traj.events[0].u_star} lands on the "
        f"equilateral theta")


def check_k4_analysis(data: Bundled) -> CheckResult:
    g = normalize_volume(data.load("tetrahedron").graph)
    profile = systole_profile(g)
    girth, systoles, verdict = profile.girth, profile.systoles, profile.lattice
    rec = vcd_witness(profile)
    ok = (
        girth == Fraction(1, 2)
        and len(systoles) == 4
        and is_well_rounded(profile) and verdict.index == 1
        and geometrically_fills(profile)
        and rec.deformation.E == 6 and rec.deformation.F == 4
        and rec.dim == 2 and rec.vcd == 3 and not rec.exceeds
    )
    return _check(
        "k4-analysis", ok,
        f"4 triangle systoles of 1/2, lattice index {verdict.index}, "
        f"geometric fill, dim {rec.dim} <= vcd {rec.vcd}")


def check_euler_relations(data: Bundled) -> CheckResult:
    names = ["theta", "tetrahedron", "cube", "petersen_projective",
             "heawood_torus", "klein_73"]
    details = []
    ok = True
    for name in names:
        m = data.load(name)
        rel = euler_relations(m)
        ok = ok and rel.all_pass
        details.append(f"{name}{{{rel.p},3}}")
    return _check(
        "euler-relations-cubic", ok,
        "3V = 2E = pF, n = 1 + V/2, pF = 6(n-1) on " + ", ".join(details))


def check_flag_transitivity(data: Bundled) -> CheckResult:
    tet = flag_transitivity(data.load("tetrahedron"))
    cube = flag_transitivity(data.load("cube"))
    dumb = flag_transitivity(data.load("dumbbell_equal"))
    ok = (
        tet.transitive and tet.aut_order == 24
        and cube.transitive and cube.aut_order == 48
        and not dumb.transitive
    )
    return _check(
        "flag-transitivity", ok,
        f"tetrahedron {tet.aut_order}=4E, cube {cube.aut_order}=4E, "
        f"dumbbell {dumb.aut_order}<12")


def check_face_systole_agreement(data: Bundled) -> CheckResult:
    expected = {
        "theta": True,
        "tetrahedron": True,
        "cube": True,
        "heawood_torus": False,
        "petersen_projective": False,
    }
    ok = True
    bits = []
    for name, want in expected.items():
        rep = data.faces(name)
        ok = ok and rep.equal == want
        min_cycle_count = len(rep.profile.systoles)
        if not want:
            ok = ok and min_cycle_count > rep.face_count
        bits.append(f"{name}: {min_cycle_count} min cycles vs {rep.face_count} faces")
    return _check("face-systole-agreement", ok, "; ".join(bits))


def check_klein_counting(data: Bundled) -> CheckResult:
    rel = euler_relations(data.load("klein_73"))
    rep = data.faces("klein_73")
    ok = (rel.V, rel.E, rel.F, rel.n, rel.p) == (56, 84, 24, 29, 7) and rel.all_pass
    return _check(
        "klein-counting", ok,
        f"V=56 E=84 F=24 n=29 p=7; unit girth {rep.profile.girth} with "
        f"{len(rep.profile.systoles)} minimum cycles")


def check_klein_chain(data: Bundled) -> CheckResult:
    rep = data.faces("klein_73")
    if not rep.equal:
        extras = ", ".join(c.format() for c in rep.extra_min_cycles[:5])
        return CheckResult(
            "klein-conditional-chain", CONDITIONAL_SKIP,
            f"{len(rep.extra_min_cycles)} non-face minimum cycles ({extras} ...); "
            f"the downstream chain does not apply to this quotient")
    # the unit skeleton's profile: scaling every length alike changes neither
    # the systoles nor their lattice, fill or deformation dimension
    profile, verdict = rep.profile, rep.profile.lattice
    fills = geometrically_fills(profile)
    rec = vcd_witness(profile)
    ok = (
        not is_well_rounded(profile)
        and verdict.rank <= 23
        and verdict.index is None
        and fills
        and rec.deformation.dim >= 60
        and rec.vcd == 55
        and rec.exceeds
    )
    return _check(
        "klein-conditional-chain", ok,
        f"systoles are exactly the 24 faces; lattice rank {verdict.rank} < 29 "
        f"(infinite index), geometric fill, dim {rec.deformation.dim} >= 60 > "
        f"{rec.vcd} = vcd")


CHECKS: tuple[tuple[str, Callable[[Bundled], CheckResult]], ...] = (
    ("theta-analysis", check_theta_analysis),
    ("dumbbell-equal-membership", check_dumbbell_membership),
    ("dumbbell-equal-retraction", check_dumbbell_equal_retraction),
    ("dumbbell-unequal-retraction", check_dumbbell_unequal_retraction),
    ("theta-unbalanced-retraction", check_theta_unbalanced_retraction),
    ("k4-analysis", check_k4_analysis),
    ("euler-relations-cubic", check_euler_relations),
    ("flag-transitivity", check_flag_transitivity),
    ("face-systole-agreement", check_face_systole_agreement),
    ("klein-counting", check_klein_counting),
    ("klein-conditional-chain", check_klein_chain),
)


def run_checks(name_filter: Optional[str] = None) -> list[CheckResult]:
    data = Bundled()
    return [
        fn(data) for name, fn in CHECKS
        if name_filter is None or name_filter in name
    ]
