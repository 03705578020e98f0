"""Tests of the benchmark itself: generators, checks and the traced run.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
import graphspine.cli as cli  # noqa: E402

COUNTS = (".calls", ".cycles_out", ".newton_iters", ".candidate_cycles", ".cells", ".unique_ratio")


def degrees(text: str) -> tuple[int, list[int], list]:
    n, edges = check.parse_graph_text(text)
    deg = [0] * n
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
    return n, deg, edges


def test_cubic_generator_is_seeded_simple_and_cubic():
    for v in (8, 24):
        text = gen.cubic_graph_text("s", v, "g")
        assert text == gen.cubic_graph_text("s", v, "g")
        assert text != gen.cubic_graph_text("t", v, "g")
        n, deg, edges = degrees(text)
        assert n == v and deg == [3] * v
        pairs = [(u, w) for u, w, _ in edges]
        assert all(u != w for u, w in pairs) and len(set(pairs)) == len(pairs)
        assert all(1 <= x.numerator and x.denominator <= 12 for *_, x in edges)


def test_outer_generator_has_its_rank_and_no_low_degree():
    for rank in (2, 3, 4, 5):
        for seed in range(20):
            text = gen.outer_graph_text(seed, rank, "g")
            assert text == gen.outer_graph_text(seed, rank, "g")
            n, deg, edges = degrees(text)
            assert len(edges) - n + 1 == rank
            assert min(deg) >= 3


def paper_jobs(*ids):
    return [job for job in workloads.Paper(ROOT, 0).jobs if job.id in ids]


def function_bindings() -> dict:
    """Every function-valued attribute of every graphspine module."""
    found = {}
    for name, module in sys.modules.items():
        if name == "graphspine" or name.startswith("graphspine."):
            for attr, value in vars(module).items():
                if callable(value):
                    found[(name, attr)] = value
    found["CHECKS"] = sys.modules["graphspine.verify"].CHECKS
    return found


def traced_counts(jobs, workdir) -> tuple[dict, list]:
    tracer = spans.Tracer()
    outcomes = list(run.run_jobs(cli, [jobs], workdir, {}, tracer))
    metrics = spans.layer_metrics(tracer.spans, sorted(spans.public_functions()))
    return {k: v for k, v in metrics.items() if k.endswith(COUNTS)}, outcomes


def test_traced_runs_repeat_match_untraced_and_unwrap(tmp_path):
    jobs = (paper_jobs("analyze:klein_73", "retract:cube", "map-check:petersen_projective")
            + workloads.Flow(ROOT, 3).round(0)[:2] + workloads.Census(ROOT, 3).round(1))
    before = function_bindings()
    first, outcomes = traced_counts(jobs, tmp_path)
    second, _ = traced_counts(jobs, tmp_path)
    # run_jobs flags a traced output that differs from the untraced one
    assert [o.problems for o in outcomes] == [[]] * len(jobs)
    assert first == second
    assert first["cycles.minimum_cycles.calls"] > 0
    assert first["flow.next_event.calls"] > 0
    assert function_bindings() == before


def test_counts_reproduce_roadmap_baseline(tmp_path):
    tracer = spans.Tracer()
    jobs = paper_jobs("analyze:klein_73", "verify-paper")
    list(run.run_jobs(cli, [jobs], tmp_path, {}, tracer))
    calls = {}
    for s in tracer.spans:
        if s.name == "cycles.minimum_cycles":
            calls[s.job] = calls.get(s.job, 0) + 1
    assert calls == {"analyze:klein_73": 7, "verify-paper": 37}
    shapes = {s.extra for s in tracer.spans
              if s.name == "homology.smith_normal_form" and s.job == "analyze:klein_73"}
    assert shapes == {(24, 29)}
    assert {s.name for s in tracer.spans if s.job == "verify-paper"} >= {
        "verify.run_checks", "verify.check_klein_chain"}


def test_self_time_excludes_children():
    spans_ = [spans.Span("a", 0.0, 10.0, -1, "j", None),
              spans.Span("b", 1.0, 4.0, 0, "j", None),
              spans.Span("c", 2.0, 3.0, 1, "j", None),
              spans.Span("b", 5.0, 6.0, 0, "j", None)]
    assert spans.self_times(spans_) == [6.0, 2.0, 1.0, 1.0]


def test_checks_catch_wrong_outputs(tmp_path):
    job, = paper_jobs("analyze:klein_73")
    (tmp_path / job.file).write_text(job.text)
    good = run.run_job(cli, job, tmp_path)
    assert check.problems(job, good.status, good.stdout, {}, run.SRC / "graphspine" / "data") == []
    refs = {job.id: [0, "0" * 16]}
    assert check.problems(job, good.status, good.stdout, refs, run.SRC / "graphspine" / "data")
    wrong = json.loads(good.stdout)
    wrong["rank"] += 1
    assert check.problems(job, 0, json.dumps(wrong), {}, run.SRC / "graphspine" / "data")
    assert check.problems(job, 1, "", {}, run.SRC / "graphspine" / "data")


def test_coverage_check_is_exact():
    theta = "vertices 2\nedge 0 0 1 1/3\nedge 1 0 1 1/3\nedge 2 0 1 1/3\n"
    assert check.systoles_cover(theta, Fraction(2, 3))
    lopsided = "vertices 2\nedge 0 0 1 1/4\nedge 1 0 1 1/4\nedge 2 0 1 1/2\n"
    assert not check.systoles_cover(lopsided, Fraction(1, 2))
    rose = "vertices 1\nedge 0 0 0 1/2\nedge 1 0 0 1/2\n"
    assert check.systoles_cover(rose, Fraction(1, 2))


def test_speed_scale_uses_the_samples_around_a_job():
    probe = speed.SpeedProbe()
    w = speed.INTERVAL_S
    for at, took in ((0.0, 0.001), (w, 0.002), (2 * w, 0.002), (10 * w, 0.004)):
        probe.at.append(at)
        probe.took.append(took)
    # a job in a spell where the task took twice its reference time
    assert probe.reference_seconds(w, 0.01) == 0.005
    # no sample near: the next one after it
    assert probe.scale(6 * w, 6 * w) == 0.25
    # after the last sample: the last one
    assert probe.scale(20 * w, 20 * w) == 0.25


def test_tail_percentile_has_ten_jobs_beyond_it_in_every_baseline_run():
    baseline = json.loads((BENCH / "baseline.json").read_text())
    for name, p in workloads.TAIL_PERCENTILE.items():
        for note in baseline["tail_percentile"][name]:
            assert note.startswith(f"p{p:g} of ")
            jobs = int(note.split()[2])
            assert jobs * (100 - p) / 100 >= 10


def test_flow_seed_orders_the_same_graphs():
    one, two = workloads.Flow(ROOT, 1).round(3), workloads.Flow(ROOT, 2).round(3)
    assert set(one) == set(two)
    assert one != two
    assert workloads.Census(ROOT, 1).round(3) != workloads.Census(ROOT, 2).round(3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
