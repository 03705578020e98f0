"""Command-line front end.

Subcommands: ``analyze``, ``retract``, ``dimension``, ``map-check``, and
``verify-paper``.  Input is a graph file path or the name of a bundled
dataset.  Reports are deterministic; ``--json`` emits a structured report in
which every rational appears as a "num/den" string (floats only in fields
suffixed ``_approx``).

Exit status: 0 on success, 1 on domain errors (with a structured message),
2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from .errors import GraphSpineError
from .graphs import (
    MetricGraph,
    normalize_volume,
    parse_graph,
    rank,
    require_outer_space,
    serialize_graph,
)
from .cycles import DEFAULT_CYCLE_CAP
from .homology import is_well_rounded
from .fill import classify_membership, geometrically_fills, systole_profile, topologically_fills
from .flow import retract_to_spine
from .deformation import vcd_witness
from .maps import (
    euler_relations,
    flag_transitivity,
    map_type_check,
    parse_map,
    systoles_equal_faces,
)
from .datasets import DATASET_NAMES, dataset_text
from .verify import FAIL, run_checks


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _fraction_json(obj: Any) -> str:
    if isinstance(obj, Fraction):
        return _fmt(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _to_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_fraction_json)


def _emit_json(payload: Any) -> None:
    print(_to_json(payload))


def _load_text(spec: str) -> str:
    path = Path(spec)
    if path.exists():
        try:
            return path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphSpineError(f"cannot read {spec}: {exc}") from None
    name = spec.removesuffix(".graph")
    if name in DATASET_NAMES:
        return dataset_text(name)
    raise GraphSpineError(f"no such file or bundled dataset: {spec}")


def _load_graph(spec: str, permissive: bool) -> MetricGraph:
    g = parse_graph(_load_text(spec))
    if not permissive:
        require_outer_space(g)
    return g


def _cycle_json(c) -> list:
    return [[eid, d] for eid, d in c.steps]


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    g = _load_graph(args.file, args.permissive)
    profile = systole_profile(g, cap=args.cycle_cap)
    girth, systoles, support, verdict = (
        profile.girth, profile.systoles, profile.support, profile.lattice)
    topo = topologically_fills(profile)
    geo = geometrically_fills(profile)
    well = is_well_rounded(profile)
    report: dict[str, Any] = {
        "graph": g.name,
        "V": g.num_vertices,
        "E": g.num_edges,
        "rank": rank(g),
        "volume": g.volume,
        "systole_length": girth,
        "systole_count": len(systoles),
        "systoles": [_cycle_json(c) for c in systoles],
        "support": {
            "edge_ids": sorted(support.edge_ids),
            "vertex_ids": sorted(support.vertex_ids),
            "total_length": support.total_length,
        },
        "lattice": {
            "rank": verdict.rank,
            "divisors": list(verdict.divisors),
            "index": verdict.index if verdict.index is not None else "infinite",
        },
        "well_rounded": well,
        "fills": {"topological": topo, "geometric": geo},
    }
    if rank(g) >= 2:
        m = classify_membership(profile)
        report["membership"] = {"W": m.in_W, "V": m.in_V, "Vprime": m.in_Vprime}
    if args.json:
        _emit_json(report)
        return 0
    yn = lambda b: "yes" if b else "no"
    print(f"graph {g.name}: V={g.num_vertices} E={g.num_edges} rank={rank(g)} "
          f"volume={_fmt(g.volume)}")
    print(f"systole length: {_fmt(girth)}")
    print(f"systoles ({len(systoles)}):")
    for c in systoles:
        print(f"  {c.format()}")
    print(f"support: {len(support.edge_ids)}/{g.num_edges} edges, "
          f"total length {_fmt(support.total_length)}")
    index = verdict.index if verdict.index is not None else "infinite"
    print(f"lattice: rank {verdict.rank}, divisors {list(verdict.divisors)}, index {index}")
    print(f"well-rounded: {yn(well)}")
    print(f"fills: topological {yn(topo)}, geometric {yn(geo)}")
    if "membership" in report:
        m = report["membership"]
        print(f"membership (W, V, V'): {yn(m['W'])}, {yn(m['V'])}, {yn(m['Vprime'])}")
    return 0


def cmd_retract(args) -> int:
    g = _load_graph(args.file, permissive=False)
    normalized = False
    if g.volume != 1:
        g = normalize_volume(g)
        normalized = True
    traj = retract_to_spine(
        g,
        max_events_per_stage=args.max_events,
        max_contractions=args.max_contractions,
        cycle_cap=args.cycle_cap,
    )
    events_payload = []
    for i, e in enumerate(traj.events, start=1):
        events_payload.append({
            "index": i,
            "stage": e.stage,
            "kind": e.kind,
            "u_star": e.u_star,
            "t_approx": e.t_approx,
            "new_cycles": [_cycle_json(c) for c in e.new_cycles],
            "contracted_edge_ids": list(e.contracted_edge_ids),
            "graph_after": serialize_graph(e.after.graph),
            "systole_length_after": e.after.girth,
        })
    payload = {
        "graph": g.name,
        "volume_normalized": normalized,
        "initial": serialize_graph(traj.initial.graph),
        "events": events_payload,
        "final": {
            "graph": serialize_graph(traj.final.graph),
            "systole_length": traj.final.girth,
            "systole_count": len(traj.final.systoles),
            "stages": traj.num_stages,
        },
    }
    if args.trace:
        try:
            Path(args.trace).write_text(_to_json(payload) + "\n")
        except OSError as exc:
            raise GraphSpineError(f"cannot write {args.trace}: {exc}") from None
    if args.json:
        _emit_json(payload)
        return 0
    if normalized:
        print("note: volume normalized to 1 before the flow")
    print(f"retraction of {g.name}: {len(traj.events)} event(s), "
          f"{traj.num_stages} stage(s)")
    for i, e in enumerate(traj.events, start=1):
        bits = [f"event {i} [stage {e.stage}] u* = {_fmt(e.u_star)} "
                f"(t ~ {e.t_approx:.6f}) {e.kind}"]
        if e.new_cycles:
            bits.append("  new systoles: " + "; ".join(c.format() for c in e.new_cycles))
        if e.contracted_edge_ids:
            bits.append(f"  contracted edges: {list(e.contracted_edge_ids)}")
        print("\n".join(bits))
    print(f"final systole length: {_fmt(traj.final.girth)} "
          f"({len(traj.final.systoles)} systoles, graph covered)")
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def cmd_dimension(args) -> int:
    g = _load_graph(args.file, permissive=False)
    rec = vcd_witness(systole_profile(g, cap=args.cycle_cap))
    payload = {
        "graph": g.name,
        "E": rec.deformation.E,
        "F": rec.deformation.F,
        "rank_diff": rec.deformation.rank_diff,
        "dim": rec.dim,
        "lower_bound": rec.deformation.lower_bound,
        "has_positive_direction": rec.deformation.has_positive_direction,
        "n": rec.n,
        "vcd": rec.vcd,
        "exceeds_vcd": rec.exceeds,
    }
    if args.json:
        _emit_json(payload)
        return 0
    print(f"graph {g.name}: E={rec.deformation.E}, F={rec.deformation.F} systoles")
    print(f"difference-row rank: {rec.deformation.rank_diff}")
    print(f"local deformation dimension: {rec.dim} (lower bound E-F = "
          f"{rec.deformation.lower_bound})")
    print(f"vcd comparison: dim {rec.dim} vs 2n-3 = {rec.vcd} -> "
          f"{'exceeds' if rec.exceeds else 'does not exceed'}")
    return 0


def cmd_map_check(args) -> int:
    m = parse_map(_load_text(args.file))
    faces = m.faces
    t = map_type_check(m)
    ft = flag_transitivity(m)
    payload: dict[str, Any] = {
        "map": m.graph.name,
        "V": m.graph.num_vertices,
        "E": m.graph.num_edges,
        "F": faces.count,
        "euler_characteristic": faces.euler_characteristic,
        "orientable": faces.orientable,
        "genus": faces.genus,
        "crosscaps": faces.crosscaps,
        "uniform": t.uniform,
        "p": t.p,
        "q": t.q,
        "degree_multiset": list(t.degree_multiset),
        "face_length_multiset": list(t.face_length_multiset),
        "flag_transitive": ft.transitive,
        "aut_order": ft.aut_order,
        "flag_count": ft.flag_count,
    }
    if t.uniform:
        rep = systoles_equal_faces(m, cap=args.cycle_cap)
        payload["faces_equal_min_cycles"] = {
            "girth": rep.profile.girth,
            "p": rep.p,
            "equal": rep.equal,
            "face_count": rep.face_count,
            "min_cycle_count": len(rep.profile.systoles),
            "extra_min_cycles": [_cycle_json(c) for c in rep.extra_min_cycles],
        }
        if t.q == 3:
            rel = euler_relations(m)
            payload["euler_relations"] = {
                "vertex_edge": rel.vertex_edge_identity,
                "edge_face": rel.edge_face_identity,
                "rank": rel.rank_identity,
                "face_count": rel.face_count_identity,
                "n": rel.n,
            }
    if args.json:
        _emit_json(payload)
        return 0
    print(f"map {m.graph.name}: V={payload['V']} E={payload['E']} F={payload['F']} "
          f"chi={payload['euler_characteristic']}")
    surface = (f"orientable genus {faces.genus}" if faces.orientable
               else f"non-orientable, {faces.crosscaps} crosscap(s)")
    print(f"surface: {surface}")
    if t.uniform:
        print(f"type: {{{t.p},{t.q}}} uniform")
    else:
        print(f"not uniform: degrees {list(t.degree_multiset)}, "
              f"face lengths {list(t.face_length_multiset)}")
    print(f"flag-transitive: {'yes' if ft.transitive else 'no'} "
          f"(aut order {ft.aut_order} of {ft.flag_count} flags)")
    if "faces_equal_min_cycles" in payload:
        rep = payload["faces_equal_min_cycles"]
        print(f"minimum cycles vs faces: girth {_fmt(rep['girth'])}, "
              f"{rep['min_cycle_count']} minimum cycles, {rep['face_count']} faces "
              f"-> {'equal' if rep['equal'] else 'not equal'}")
    if "euler_relations" in payload:
        rel = payload["euler_relations"]
        ok = all(rel[k] for k in ("vertex_edge", "edge_face", "rank", "face_count"))
        print(f"cubic counting identities: {'pass' if ok else 'FAIL'} (n = {rel['n']})")
    return 0


def cmd_verify_paper(args) -> int:
    results = run_checks(args.filter)
    if args.json:
        _emit_json([dataclasses.asdict(r) for r in results])
    else:
        width = max((len(r.name) for r in results), default=0)
        for r in results:
            print(f"{r.name.ljust(width)}  {r.status:16s} {r.detail}")
        n_fail = sum(1 for r in results if r.status == FAIL)
        print(f"{len(results)} check(s): {len(results) - n_fail} ok, {n_fail} failed")
    return 1 if any(r.status == FAIL for r in results) else 0


# ---------------------------------------------------------------------------


def _cap(text: str) -> int:
    """argparse type of the search caps: a plain integer >= 0."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphspine",
        description="Exact systole geometry of finite metric graphs.",
    )
    parser.add_argument("--json", action="store_true", help="emit a structured report")
    parser.add_argument("--permissive", action="store_true",
                        help="allow vertices of degree 1 or 2 and rank 1 graphs")
    parser.add_argument("--cycle-cap", type=_cap, default=DEFAULT_CYCLE_CAP,
                        help="abort enumeration beyond this many cycles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="systoles, lattice, fill and membership report")
    p.add_argument("file", help="graph file or bundled dataset name")

    p = sub.add_parser("retract", help="run the retraction flow to the covered locus")
    p.add_argument("file")
    p.add_argument("--trace", help="write the trajectory as JSON to this path")
    p.add_argument("--max-events", type=_cap, default=None,
                   help="cap on new-systole events per stage")
    p.add_argument("--max-contractions", type=_cap, default=None)

    p = sub.add_parser("dimension", help="systole-preserving deformation dimension")
    p.add_argument("file")

    p = sub.add_parser("map-check", help="faces, type, symmetry and cycle checks of a map")
    p.add_argument("file")

    p = sub.add_parser("verify-paper", help="run the bundled verification suite")
    p.add_argument("--filter", default=None, help="only run checks whose name contains this")

    return parser


_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    # looked up at each call, so a rebound cmd_* is the one that runs
    commands = {"analyze": cmd_analyze, "retract": cmd_retract, "dimension": cmd_dimension,
                "map-check": cmd_map_check, "verify-paper": cmd_verify_paper}
    try:
        return commands[args.command](args)
    except GraphSpineError as exc:
        message = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        if args.json:
            print(json.dumps(message, indent=2, sort_keys=True), file=sys.stderr)
        else:
            print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
