import json
from fractions import Fraction

import pytest

import graphspine.cycles
import graphspine.datasets
import graphspine.homology
import graphspine.maps
from graphspine.cli import main
from graphspine.graphs import parse_graph, serialize_graph

from .conftest import make_theta, run_python

RATIONAL = r"^-?\d+/\d+$"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_bundled_theta(capsys):
    code, out, _ = run_cli(capsys, "analyze", "theta")
    assert code == 0
    assert "systole length: 2/3" in out
    assert "systoles (3):" in out
    assert "membership (W, V, V'): yes, yes, yes" in out


def test_analyze_json_uses_rational_strings(capsys, tmp_path):
    path = tmp_path / "theta.graph"
    path.write_text(serialize_graph(make_theta()))
    code, out, _ = run_cli(capsys, "--json", "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["systole_length"] == "2/3"
    assert report["volume"] == "1/1"
    assert report["lattice"]["index"] == 1
    assert report["membership"] == {"W": True, "V": True, "Vprime": True}

    def no_floats(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into JSON report")
        if isinstance(node, dict):
            for k, v in node.items():
                if not str(k).endswith("_approx"):
                    no_floats(v)
        elif isinstance(node, list):
            for v in node:
                no_floats(v)

    no_floats(report)


def test_analyze_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "--json", "analyze", "theta")
    _, out2, _ = run_cli(capsys, "--json", "analyze", "theta")
    assert out1 == out2


def test_retract_with_trace(capsys, tmp_path):
    trace = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "retract", "dumbbell_unequal", "--trace", str(trace))
    assert code == 0
    assert "u* = 10/7" in out
    payload = json.loads(trace.read_text())
    assert [e["kind"] for e in payload["events"]] == ["new-systoles", "stage-complete"]
    assert payload["events"][0]["u_star"] == "10/7"
    final = parse_graph(payload["final"]["graph"])
    assert final.num_vertices == 1
    assert payload["final"]["systole_length"] == "1/2"


def test_retract_normalizes_volume(capsys, tmp_path):
    g = make_theta(Fraction(1), Fraction(1), Fraction(1))
    path = tmp_path / "big.graph"
    path.write_text(serialize_graph(g))
    code, out, _ = run_cli(capsys, "retract", str(path))
    assert code == 0
    assert "volume normalized" in out


def test_dimension_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "dimension", "theta")
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 0 and report["F"] == 3 and report["vcd"] == 1


def test_map_check_cube(capsys):
    code, out, _ = run_cli(capsys, "--json", "map-check", "cube")
    assert code == 0
    report = json.loads(out)
    assert report["F"] == 6 and report["p"] == 4 and report["q"] == 3
    assert report["flag_transitive"] is True and report["aut_order"] == 48
    assert report["faces_equal_min_cycles"]["equal"] is True
    assert report["euler_relations"]["n"] == 5


def test_verify_paper(capsys):
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    assert "FAIL" not in out
    assert "klein-conditional-chain" in out


def test_python_m_entry_point():
    proc = run_python("-m", "graphspine", "--json", "verify-paper")
    assert proc.returncode == 0, proc.stderr
    assert "klein-conditional-chain" in proc.stdout


def test_verify_paper_same_under_optimize():
    plain = run_python("-m", "graphspine", "--json", "verify-paper")
    optimized = run_python("-O", "-m", "graphspine", "--json", "verify-paper")
    assert plain.returncode == 0, plain.stderr
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


def test_verify_paper_filter(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--filter", "klein")
    assert code == 0
    assert "theta-analysis" not in out
    assert "klein-counting" in out


def counted(monkeypatch, module, name) -> list:
    """Rebind ``module.name`` to a wrapper that logs each call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_commands_enumerate_the_systoles_once(capsys, monkeypatch):
    enumerations = counted(monkeypatch, graphspine.cycles, "cycles_up_to_length")
    snfs = counted(monkeypatch, graphspine.homology, "smith_normal_form")
    parses = counted(monkeypatch, graphspine.datasets, "parse_map")
    tracings = counted(monkeypatch, graphspine.maps, "trace_faces")

    def run(*argv) -> tuple[int, ...]:
        for calls in (enumerations, snfs, parses, tracings):
            calls.clear()
        assert run_cli(capsys, *argv)[0] == 0
        return len(enumerations), len(snfs), len(parses), len(tracings)

    assert run("analyze", "klein_73") == (1, 1, 0, 0)
    assert run("dimension", "klein_73") == (1, 0, 0, 0)
    # one enumeration per graph a check reads (the Klein skeleton's faces are
    # compared with its minimum cycles once for both Klein checks), plus the
    # retraction flow's own: one per stage start and one per event; each
    # bundled map is parsed and traced once per run, and again by the next run
    assert run("verify-paper") == (18, 4, 7, 6)
    assert run("verify-paper") == (18, 4, 7, 6)


def test_domain_error_exit_code(capsys, tmp_path):
    path = tmp_path / "circle.graph"
    path.write_text("graph circle\nvertices 1\nedge 0 0 0 1/1\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert "NotOuterSpace" in err
    # permissive mode accepts it
    code2, out2, _ = run_cli(capsys, "--permissive", "analyze", str(path))
    assert code2 == 0
    assert "systole length: 1/1" in out2
    # unreadable input: a directory, and a file that is not UTF-8
    latin1 = tmp_path / "latin1.graph"
    latin1.write_bytes(b"graph caf\xe9\nvertices 1\nedge 0 0 0 1/1\n")
    for spec in (tmp_path, latin1):
        code3, _, err3 = run_cli(capsys, "--json", "analyze", str(spec))
        assert code3 == 1
        assert json.loads(err3)["error"]["kind"] == "GraphSpineError"
    # unwritable trace: a directory, and a path in a missing directory
    for trace in (tmp_path, tmp_path / "missing" / "trace.json"):
        code4, out4, err4 = run_cli(capsys, "--json", "retract", "theta", "--trace", str(trace))
        assert code4 == 1 and out4 == ""
        error = json.loads(err4)["error"]
        assert error["kind"] == "GraphSpineError"
        assert error["message"].startswith(f"cannot write {trace}")
    # the cap reaches the enumeration of every command that takes it: the
    # Klein quartic skeleton has exactly 24 minimum cycles
    for command in ("analyze", "dimension", "map-check"):
        code5, _, err5 = run_cli(capsys, "--cycle-cap", "23", command, "klein_73")
        assert code5 == 1 and "BudgetExceeded" in err5
        code6, _, _ = run_cli(capsys, "--cycle-cap", "24", command, "klein_73")
        assert code6 == 0


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    # caps are plain integers >= 0
    for argv in (["--cycle-cap", "-1", "analyze", "theta"],
                 ["retract", "theta", "--max-events", "-1"],
                 ["retract", "theta", "--max-contractions", "-1"],
                 ["retract", "theta", "--max-events", "+2"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "expected an integer >= 0" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "retract", "theta", "--max-events", "0",
                           "--max-contractions", "0")
    assert code == 0 and "0 event(s)" in out
    code, _, err = run_cli(capsys, "--cycle-cap", "0", "analyze", "theta")
    assert code == 1 and "BudgetExceeded" in err

