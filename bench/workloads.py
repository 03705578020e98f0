"""The benchmark's workloads: seeded, fixed lists of CLI jobs.

A workload is a deterministic function of its seed that yields *rounds*;
a round is a short list of jobs that belong together (one pass over the
bundled datasets, one sweep over the cubic sizes, one census graph through
its three subcommands).  Runs stop only at round boundaries, so every run
has the same mix of jobs whatever its length.

Why each workload exists (see README.md for the metric table):

* ``paper`` - every subcommand on every bundled dataset it accepts, plus
  ``verify-paper``.  Equilateral maps with large tie sets: unit-length
  girth, repeated systole enumeration, Smith normal form, rational rank and
  the map layer.  The flow finishes in at most one event here.
* ``flow`` - ``retract`` on random simple cubic graphs with random rational
  lengths.  Dominated by the weighted event search in ``flow.next_event``;
  bypasses homology, maps and any unit-length shortcut.  A 30-second run
  holds only about a dozen graphs of each size, whose times vary by a
  factor of three, so the graphs are the same for every seed and the seed
  only orders each round: otherwise the choice of graphs would move the
  metrics more than the machine does.
* ``census`` - many small random outer-space multigraphs through
  ``analyze``, ``dimension`` and ``retract``.  Same layers as ``paper`` on
  tiny inputs, so per-call fixed cost dominates and any precomputation that
  only pays off on large graphs shows up as a regression.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import gen

DATASETS = (
    "theta",
    "dumbbell_equal",
    "dumbbell_unequal",
    "rose2",
    "tetrahedron",
    "cube",
    "petersen_projective",
    "heawood_torus",
    "klein_73",
)
PAPER_COMMANDS = ("analyze", "dimension", "map-check", "retract")
FLOW_SIZES = (8, 12, 16, 20, 24)
CENSUS_COMMANDS = ("analyze", "dimension", "retract")
CENSUS_RANKS = (2, 3, 4, 5)

# Rounds run by a traced run: a fixed job set, so its counts repeat exactly.
TRACE_ROUNDS = {"paper": 1, "flow": 2, "census": 100}

# job_tail_ms percentile per workload: the highest of p99.9, p99, p90, p75
# and p50 with at least ten jobs beyond it in a 30-second run at the seed
# commit.  It is fixed, so a faster or slower program, which runs more or
# fewer jobs, is still measured at the same percentile.
TAIL_PERCENTILE = {"paper": 90, "flow": 75, "census": 99}


@dataclass(frozen=True)
class Job:
    """One in-process call ``graphspine.cli.main(["--json", command, file])``.

    ``file`` is a path relative to the work directory, written from ``text``
    before the job runs; ``dataset`` names the bundled dataset whose
    ``.props`` sidecar the output is checked against.
    """

    id: str
    command: str
    file: Optional[str] = None
    text: Optional[str] = None
    dataset: Optional[str] = None

    @property
    def argv(self) -> list[str]:
        return ["--json", self.command] + ([self.file] if self.file else [])


def dataset_text(root: Path, name: str) -> str:
    return (root / "src" / "graphspine" / "data" / f"{name}.graph").read_text()


def is_map_text(text: Optional[str]) -> bool:
    return text is not None and any(line.startswith("rotation") for line in text.splitlines())


class Paper:
    name = "paper"
    seeded_inputs = False  # the seed only orders each pass

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.jobs = [Job("verify-paper", "verify-paper")]
        for name in DATASETS:
            text = dataset_text(root, name)
            for command in PAPER_COMMANDS:
                if command == "map-check" and not is_map_text(text):
                    continue  # the two plain graphs carry no rotation system
                self.jobs.append(Job(f"{command}:{name}", command, f"{name}.graph", text, name))

    def round(self, k: int) -> list[Job]:
        jobs = list(self.jobs)
        random.Random(f"paper:{self.seed}:{k}").shuffle(jobs)
        return jobs


class Flow:
    name = "flow"
    seeded_inputs = False  # the seed only orders each round

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def round(self, k: int) -> list[Job]:
        jobs = []
        for v in FLOW_SIZES:
            name = f"cubic{v}-{k}"
            text = gen.cubic_graph_text(f"flow:{k}:{v}", v, name)
            jobs.append(Job(f"retract:{name}", "retract", f"{name}.graph", text))
        random.Random(f"flow:{self.seed}:{k}").shuffle(jobs)
        return jobs


class Census:
    name = "census"
    seeded_inputs = True

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def round(self, k: int) -> list[Job]:
        # ranks take turns, so every run has the same rank mix
        name = f"outer-{k}"
        rank = CENSUS_RANKS[k % len(CENSUS_RANKS)]
        text = gen.outer_graph_text(f"census:{self.seed}:{k}", rank, name)
        return [Job(f"{command}:{name}", command, f"{name}.graph", text)
                for command in CENSUS_COMMANDS]


WORKLOADS = {w.name: w for w in (Paper, Flow, Census)}
