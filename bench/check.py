"""Correctness checks for benchmark jobs.

Every job is checked three ways, none of which calls into graphspine:

* against ``references.json`` - the exit status and a digest of the
  ``--json`` stdout recorded at the seed commit (for every seed on
  ``paper`` and ``flow``, whose inputs do not depend on the seed; for the
  recorded seed only on ``census``);
* against the bundled ``.props`` sidecar, field by field, for jobs on a
  bundled dataset;
* against invariants that need no reference: exit status 0, no FAIL in
  ``verify-paper``, W => V and V' => V in ``analyze``, and a ``retract``
  whose final systoles cover the final graph (checked here with an
  independent exact Dijkstra).
"""

from __future__ import annotations

import hashlib
import heapq
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

REFERENCES = Path(__file__).resolve().parent / "references.json"

# .props key -> path into the --json payload, per subcommand.  map-check
# reports the faces_equal_min_cycles block only for uniform maps.
PROPS_FIELDS = {
    "analyze": {
        "V": ("V",), "E": ("E",), "rank": ("rank",), "volume": ("volume",),
        "systole_length": ("systole_length",), "systole_count": ("systole_count",),
    },
    "dimension": {"E": ("E",)},
    "map-check": {
        "V": ("V",), "E": ("E",), "F": ("F",),
        "euler_characteristic": ("euler_characteristic",),
        "orientable": ("orientable",), "genus": ("genus",), "crosscaps": ("crosscaps",),
        "uniform": ("uniform",), "p": ("p",), "q": ("q",),
        "flag_transitive": ("flag_transitive",), "aut_order": ("aut_order",),
        "girth": ("faces_equal_min_cycles", "girth"),
        "min_cycle_count": ("faces_equal_min_cycles", "min_cycle_count"),
        "faces_equal_min_cycles": ("faces_equal_min_cycles", "equal"),
    },
}


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def load_references(workload, seed: int) -> dict[str, list]:
    """Job id -> [exit status, stdout digest], or {} when none apply."""
    if not REFERENCES.is_file():
        return {}
    refs = json.loads(REFERENCES.read_text())
    if workload.seeded_inputs and seed != refs["seed"]:
        return {}
    return refs["workloads"].get(workload.name, {})


def _value(text):
    """A props or payload scalar, with rationals as Fractions."""
    if isinstance(text, str) and "/" in text:
        return Fraction(text)
    if text in ("true", "false"):
        return text == "true"
    if isinstance(text, str):
        try:
            return int(text)
        except ValueError:
            return text
    return text


def read_props(path: Path) -> dict:
    props = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, value = line.split(None, 1)
            props[key] = _value(value)
    return props


def parse_graph_text(text: str) -> tuple[int, list[tuple[int, int, Fraction]]]:
    num_vertices = 0
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "vertices":
            num_vertices = int(parts[1])
        elif parts and parts[0] == "edge":
            edges.append((int(parts[2]), int(parts[3]), Fraction(parts[4])))
    return num_vertices, edges


def _distance(num_vertices: int, edges, source: int, target: int, skip: int) -> Optional[Fraction]:
    adj: list[list[tuple[int, Fraction]]] = [[] for _ in range(num_vertices)]
    for i, (u, v, w) in enumerate(edges):
        if i != skip and u != v:
            adj[u].append((v, w))
            adj[v].append((u, w))
    dist = {source: Fraction(0)}
    heap = [(Fraction(0), source)]
    done = set()
    while heap:
        d, x = heapq.heappop(heap)
        if x in done:
            continue
        if x == target:
            return d
        done.add(x)
        for y, w in adj[x]:
            if y not in dist or d + w < dist[y]:
                dist[y] = d + w
                heapq.heappush(heap, (d + w, y))
    return None


def systoles_cover(graph_text: str, sigma: Fraction) -> bool:
    """Every edge lies on a cycle of length ``sigma`` and none is shorter.

    The shortest cycle through a non-loop edge uv is its length plus the
    distance from u to v without it; through a loop, the loop itself.
    """
    n, edges = parse_graph_text(graph_text)
    for i, (u, v, w) in enumerate(edges):
        rest = Fraction(0) if u == v else _distance(n, edges, u, v, i)
        if rest is None or w + rest != sigma:
            return False
    return bool(edges)


MISSING = "<missing>"


def _at(payload, path):
    for key in path:
        if not isinstance(payload, dict) or key not in payload:
            return MISSING
        payload = payload[key]
    return payload


def contracts_forest(job, stdout: str) -> bool:
    """Whether a correct ``retract`` contracted a forest at some event."""
    return (job.command == "retract"
            and any(e["contracted_edge_ids"] for e in json.loads(stdout)["events"]))


def problems(job, status: int, stdout: str, refs: dict, props_dir: Path) -> list[str]:
    """Everything wrong with one job's outcome; empty when it is correct."""
    found = []
    ref = refs.get(job.id)
    if ref is not None and [status, digest(stdout)] != ref:
        found.append(f"differs from reference: exit {status}, digest {digest(stdout)} != {ref}")
    if status != 0:
        return found + [f"exit status {status}"]
    try:
        return found + _payload_problems(job, json.loads(stdout), props_dir)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return found + [f"malformed output: {exc!r}"]


def _payload_problems(job, payload, props_dir: Path) -> list[str]:
    found = []
    if job.dataset is not None:
        props = read_props(props_dir / f"{job.dataset}.props")
        for key, path in PROPS_FIELDS.get(job.command, {}).items():
            got = _at(payload, path)
            if got is MISSING and path[0] == "faces_equal_min_cycles" and not payload["uniform"]:
                continue
            if key in props and _value(got) != props[key]:
                found.append(f"{key}: {got!r} != props {props[key]!r}")

    if job.command == "verify-paper":
        failed = [r["name"] for r in payload if r["status"] == "FAIL"]
        if failed:
            found.append(f"verify-paper FAIL: {failed}")
    elif job.command == "analyze" and "membership" in payload:
        m = payload["membership"]
        if (m["W"] and not m["V"]) or (m["Vprime"] and not m["V"]):
            found.append(f"membership violates W => V, V' => V: {m}")
    elif job.command == "retract":
        final = payload["final"]
        _, edges = parse_graph_text(final["graph"])
        if sum(w for _, _, w in edges) != 1:
            found.append("final volume is not 1")
        if not systoles_cover(final["graph"], Fraction(final["systole_length"])):
            found.append("final systoles do not cover the graph")
    return found
