"""graphspine benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {paper,flow,census} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each job is one in-process call of ``graphspine.cli.main`` with
``--json`` on a ``.graph`` file written under ``.bench_work/``.  Jobs run
one after another in a single thread, a whole round at a time, until the
jobs have taken ``--seconds`` of wall time in total.  Times are reported in
reference seconds, which factor out the machine's changing speed (see
speed.py).  Every job is checked (see check.py).  Human-readable lines go
first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
job set (``TRACE_ROUNDS`` rounds) once untraced and once traced, checks that
both give the same outputs, and reports the per-layer metrics of the traced
run; its spans are written to ``.bench_work/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import check
import spans
from speed import SpeedProbe
from workloads import TAIL_PERCENTILE, TRACE_ROUNDS, WORKLOADS, is_map_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 21


class Outcome:
    """One executed job: its exit status, stdout, time and problems found."""

    def __init__(self, job, status: int, stdout: str, start: float, seconds: float):
        self.job, self.status, self.stdout = job, status, stdout
        self.start, self.seconds = start, seconds
        self.problems: list[str] = []
        self.contracts_forest = False
        self.plain_seconds = seconds  # a traced job's untraced time


def run_job(cli, job, workdir: Path) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            contextlib.chdir(workdir):
        # Each CLI call of a user starts in a fresh process.  Collecting what
        # earlier jobs left behind keeps a job from paying for their garbage
        # and makes the collector's work inside the job repeat from run to run.
        gc.collect()
        start = time.perf_counter()
        try:
            status = cli.main(job.argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a job that raises is a failed job, not a failed run
            status = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    outcome = Outcome(job, status, out.getvalue(), start, seconds)
    if status == -1:
        outcome.problems.append("raised: " + err.getvalue().strip().splitlines()[-1])
    return outcome


def run_jobs(cli, rounds, workdir: Path, refs: dict, tracer=None):
    """Run and check every job of the given rounds, in order; yield each Outcome.

    With a tracer, each job runs once untraced and once traced, alternating
    which goes first so that neither run always meets a warmer process; the
    traced outcome is yielded, with the untraced time in ``plain_seconds``.
    """
    n = 0
    for jobs in rounds:
        for job in jobs:
            if job.file:
                (workdir / job.file).write_text(job.text)
            if tracer is None:
                outcome = run_job(cli, job, workdir)
            else:
                tracer.job = job.id
                first_plain = n % 2 == 0
                plain = run_job(cli, job, workdir) if first_plain else None
                with spans.installed(tracer):
                    outcome = run_job(cli, job, workdir)
                plain = plain or run_job(cli, job, workdir)
                outcome.plain_seconds = plain.seconds
                if (plain.status, plain.stdout) != (outcome.status, outcome.stdout):
                    outcome.problems.append("traced output differs from the untraced run")
            outcome.problems += check.problems(
                job, outcome.status, outcome.stdout, refs, SRC / "graphspine" / "data")
            if not outcome.problems:
                outcome.contracts_forest = check.contracts_forest(job, outcome.stdout)
            n += 1
            yield outcome


class Tally:
    """What the metrics need from a run's jobs.

    No job, outcome or output is kept, so the memory the benchmark holds
    does not grow with the number of jobs and ``peak_rss_mb`` measures the
    program, not the run length.
    """

    SHOWN_FAILURES = 20

    def __init__(self):
        self.starts = array("d")
        self.seconds = array("d")
        self.plain_seconds = array("d")
        self.failures: list[str] = []
        self.failed = 0
        self.equal_lengths = self.map_input = self.contracts_forest = 0

    def add(self, outcome: Outcome) -> None:
        job = outcome.job
        self.starts.append(outcome.start)
        self.seconds.append(outcome.seconds)
        self.plain_seconds.append(outcome.plain_seconds)
        if outcome.problems:
            self.failed += 1
            if len(self.failures) < self.SHOWN_FAILURES:
                self.failures.append(f"{job.id}: {'; '.join(outcome.problems)}")
        if job.text is not None:
            lengths = {w for _, _, w in check.parse_graph_text(job.text)[1]}
            self.equal_lengths += len(lengths) == 1
        self.map_input += is_map_text(job.text)
        self.contracts_forest += outcome.contracts_forest

    def shares(self) -> dict[str, float]:
        """Share of jobs with each input property an optimisation may rely on."""
        n = len(self.seconds)
        return {
            "share.equal_lengths": self.equal_lengths / n,
            "share.map_input": self.map_input / n,
            "share.contracts_forest": self.contracts_forest / n,
        }


def percentile(sorted_values: list[float], p: float) -> float:
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def measure_setup(probe: SpeedProbe) -> float:
    """Time of a fresh interpreter importing graphspine.cli, in reference seconds."""
    probe.sample()
    start = time.perf_counter()
    # no timeout: waiting with one polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import graphspine.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)),
                   check=True, stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - start
    probe.sample()
    return probe.reference_seconds(start, seconds)


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphspine" / "cli.py").is_file():
        print(f"error: no graphspine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphspine.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported graphspine from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # What exists now lives for the whole run: exempt it from collection, so
    # that the collection before each job only visits what jobs created.
    gc.collect()
    gc.freeze()

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    refs = check.load_references(workload, args.seed)
    work = ROOT / ".bench_work"
    workdir = work / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    try:
        if args.trace:
            metrics, tally = traced_run(cli, workload, args, workdir, work, refs)
        else:
            metrics, tally = untraced_run(cli, workload, args, workdir, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(tally.seconds)
    for line in tally.failures:
        print(f"FAILED {line}")
    for name, value in tally.shares().items():
        print(f"{name} = {value:.4f}")
    print(f"failed_ratio = {tally.failed / attempted:.6f} ratio "
          f"({tally.failed} of {attempted} jobs)")
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not tally.failed,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def job_metrics(times, p: float) -> dict[str, float]:
    times = sorted(times)
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_p50_ms": percentile(times, 50) * 1000,
        "job_tail_ms": percentile(times, p) * 1000,
    }


def untraced_run(cli, workload, args, workdir, refs):
    # Set-up samples are spread over the run, so they meet the same machine
    # conditions as the jobs; the median is reported.  Times are measured in
    # wall seconds and reported in reference seconds (see speed.py).
    probe = SpeedProbe()
    setups = [measure_setup(probe)]
    tally = Tally()
    spent, k = 0.0, 0
    while spent < args.seconds:
        for outcome in run_jobs(cli, [workload.round(k)], workdir, refs):
            spent += outcome.seconds
            tally.add(outcome)
            probe.sample_if_due()
        k += 1
        if len(setups) < SETUP_REPEATS * min(1.0, spent / args.seconds):
            setups.append(measure_setup(probe))
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(probe))
    p = TAIL_PERCENTILE[workload.name]
    times = [probe.reference_seconds(start, seconds)
             for start, seconds in zip(tally.starts, tally.seconds)]
    metrics = job_metrics(times, p)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = declared_metrics("end_to_end")
    for name, value in metrics.items():
        note = f"  (p{p:g} of {len(times)} jobs)" if name == "job_tail_ms" else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    for name, value in job_metrics(tally.seconds, p).items():
        print(f"wall.{name} = {value:.6g} {units[name]}")
    print(f"reference_task_ms = {statistics.median(probe.took) * 1000:.4g} ms "
          f"(median of {len(probe.took)} samples)")
    return metrics, tally


def traced_run(cli, workload, args, workdir, work, refs):
    rounds = [workload.round(k) for k in range(TRACE_ROUNDS[workload.name])]
    tracer = spans.Tracer()
    tally = Tally()
    for outcome in run_jobs(cli, rounds, workdir, refs, tracer):
        tally.add(outcome)
    metrics = spans.layer_metrics(tracer.spans, sorted(spans.public_functions()))
    metrics["trace.overhead_ratio"] = sum(tally.seconds) / sum(tally.plain_seconds)
    (work / f"spans-{workload.name}-{args.seed}.json").write_text(json.dumps({
        "metrics": metrics,
        "spans": tracer.spans,
    }, default=str))
    busiest = sorted((v, k) for k, v in metrics.items() if k.endswith(".self_s"))[-12:]
    for value, name in reversed(busiest):
        print(f"{name} = {value:.6g} s")
    return metrics, tally


if __name__ == "__main__":
    sys.exit(main())
