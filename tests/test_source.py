import ast
import json
from pathlib import Path

import graphspine

PACKAGE = Path(graphspine.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# The documented data API: these read a bundled dataset and its golden .props
# sidecar for callers outside the package; nothing inside needs them.
DATA_API = {"bundled_graph", "dataset_properties"}


def test_package_has_no_assert_statement():
    # python -O drops assert statements, so a guard written as one would
    # stop guarding; every check in the package raises explicitly
    sources = sorted(PACKAGE.glob("*.py"))
    assert "flow.py" in {p.name for p in sources}
    found = [f"{p.name}:{node.lineno}" for p in sources
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _referenced_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_has_a_user():
    # an exported name is wired into a command, a check or the benchmark:
    # package code or a script uses it (a def or class statement alone is no
    # use), or BENCHMARK.json traces it as <layer>.<name>
    exports = {alias.asname or alias.name: node.module
               for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names}
    assert "smith_normal_form" in exports
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(_referenced_names, sources + sorted((ROOT / "scripts").glob("*.py"))))
    traced = {".".join(m["name"].split(".")[:2])
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    unused = sorted(name for name, module in exports.items()
                    if name not in used | DATA_API and f"{module}.{name}" not in traced)
    assert unused == [], unused


def test_systole_consumers_take_the_profile_alone():
    # a consumer of the systoles reads the graph from its profile, so a
    # profile never meets another graph, no systole tuple travels beside a
    # graph it may not belong to, and no parameter left at None makes a
    # consumer enumerate again on its own, out of reach of --cycle-cap
    mixed, loose, fallback = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            where = f"{path.name}:{node.name}"
            if any(a.annotation is not None and "SystoleProfile" in ast.unparse(a.annotation)
                   for a in args) and len(args) != 1:
                mixed.append(where)
            loose += [f"{where}({a.arg})" for a in args if a.arg == "systoles"]
            defaults = dict(zip(reversed(node.args.posonlyargs + node.args.args),
                                reversed(node.args.defaults)))
            defaults.update(zip(node.args.kwonlyargs, node.args.kw_defaults))
            fallback += [f"{where}({a.arg})" for a, d in defaults.items()
                         if a.arg == "profile"
                         and isinstance(d, ast.Constant) and d.value is None]
    assert (mixed, loose, fallback) == ([], [], [])


# Certificates that tests check again, so they are kept without a package
# reader: U of U*A*W == D (checked against sympy) and the automorphism
# generators (their closure is checked against the exhaustive oracle).
UNREAD_CERTIFICATES = {"SmithNormalForm.U", "MapAutomorphisms.generators"}


def _result_fields(path: Path) -> set[str]:
    """``Class.name`` for every field and property of each dataclass."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.ClassDef)
                and any("dataclass" in ast.unparse(d) for d in node.decorator_list)):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                found.add(f"{node.name}.{item.target.id}")
            elif isinstance(item, ast.FunctionDef) and any(
                    ast.unparse(d) in ("property", "cached_property") for d in item.decorator_list):
                found.add(f"{node.name}.{item.name}")
    return found


def _attribute_reads(path: Path) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_result_field_has_a_reader():
    # a field a function builds is read somewhere by package, script or
    # benchmark code; the scan goes by attribute name only, so it is a floor
    # (a field that shares its name with a read one passes unread)
    fields = set().union(*map(_result_fields, PACKAGE.glob("*.py")))
    assert "LatticeVerdict.index" in fields and "SystoleProfile.lattice" in fields
    readers = (list(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
               + sorted((ROOT / "bench").glob("*.py")))
    read = set().union(*map(_attribute_reads, readers))
    unread = sorted(f for f in fields - UNREAD_CERTIFICATES if f.split(".")[1] not in read)
    assert unread == [], unread


def test_only_the_searches_read_the_adjacency():
    # connectivity, the homology basis, the bridges and orientability read
    # the graph's one spanning tree; only graphs.py (which grows it) and the
    # shortest-path searches in cycles.py walk the adjacency themselves
    readers = sorted(path.name for path in PACKAGE.glob("*.py")
                     if "adjacency" in _attribute_reads(path))
    assert readers == ["cycles.py", "graphs.py"]
