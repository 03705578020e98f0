"""Record the benchmark's reference outputs and baseline numbers.

    python3 bench/record.py references
        Run every job of the recorded rounds of the default seed and store
        its exit status and stdout digest in bench/references.json.

    python3 bench/record.py baseline --commit REV
        Run each workload 10 times untraced (seeds 1..10) and once traced
        (seed 0), for BENCHMARK.json's run_seconds each, print each
        end-to-end metric's median and spread (interquartile range /
        median), and write bench/baseline.json.

Run from the root of a source checkout, with nothing else running.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import check
import run
import workloads

# Rounds of the default seed with stored references: more than a 30-second
# run covers at the seed commit.
REFERENCE_SEED = 0
REFERENCE_ROUNDS = {"paper": 1, "flow": 40, "census": 2400}
RUNS = 10


def record_references() -> None:
    sys.path.insert(0, str(run.SRC))
    import graphspine.cli as cli

    workdir = run.ROOT / ".bench_work" / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    refs = {}
    for name, rounds in REFERENCE_ROUNDS.items():
        workload = workloads.WORKLOADS[name](run.ROOT, REFERENCE_SEED)
        jobs = [job for k in range(rounds) for job in workload.round(k)]
        for job in jobs:
            if job.file:
                (workdir / job.file).write_text(job.text)
        outcomes = [run.run_job(cli, job, workdir) for job in jobs]
        refs[name] = {o.job.id: [o.status, check.digest(o.stdout)] for o in outcomes}
        print(f"{name}: {len(refs[name])} jobs")
    blocks = []
    for name in sorted(refs):
        entries = ",\n".join(f"      {json.dumps(k)}: {json.dumps(v)}"
                             for k, v in sorted(refs[name].items()))
        blocks.append(f"    {json.dumps(name)}: {{\n{entries}\n    }}")
    check.REFERENCES.write_text(f'{{\n  "seed": {REFERENCE_SEED},\n  "workloads": {{\n'
                                + ",\n".join(blocks) + "\n  }\n}\n")


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and its ``name = value`` lines."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    notes = dict(line.split(" = ", 1) for line in lines[:-1] if " = " in line)
    return json.loads(lines[-1]), notes


def record_baseline(commit: str) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    baseline = {
        "commit": commit,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}, {os.cpu_count()} cpus",
        "run_seconds": seconds,
        "end_to_end": {},
        "tail_percentile": {},
        "shares": {},
        "per_layer_seed0": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        results = [bench(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        assert all(r["correct"] for r, _ in results), f"{name}: a run failed its checks"
        table = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r, _ in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            table[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": (q3 - q1) / med, "values": values}
            print(f"{name:7s} {metric['name']:12s} median {med:10.4f} {metric['unit']:4s} "
                  f"spread {(q3 - q1) / med:.4f}  (bound {metric['bound']})")
        baseline["end_to_end"][name] = table
        baseline["tail_percentile"][name] = [notes["job_tail_ms"].split("(", 1)[1].rstrip(")")
                                             for _, notes in results]
        baseline["shares"][name] = {
            k: statistics.median([float(notes[k]) for _, notes in results])
            for k in results[0][1] if k.startswith("share.")}
        traced, _ = bench(name, 0, seconds, 1)
        baseline["per_layer_seed0"][name] = {k: v["value"] for k, v in traced["metrics"].items()}
    (run.BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("references")
    p = sub.add_parser("baseline")
    p.add_argument("--commit", required=True)
    args = parser.parse_args()
    if args.what == "references":
        record_references()
    else:
        record_baseline(args.commit)


if __name__ == "__main__":
    main()
