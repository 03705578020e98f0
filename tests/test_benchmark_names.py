"""The benchmark's traced run reads per-function metrics by name.

Every ``<layer>.<function>.<metric>`` entry in ``BENCHMARK.json`` must name a
function that ``graphspine.<layer>`` still defines; deleting or renaming one
breaks ``bench/run.py --trace 1``.  The file is only read here.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_per_layer_functions_exist():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    functions = sorted({tuple(n.split(".")[:2]) for n in names if n.count(".") == 2})
    assert functions
    missing = []
    for layer, name in functions:
        module = importlib.import_module(f"graphspine.{layer}")
        obj = getattr(module, name, None)
        if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
            missing.append(f"{layer}.{name}")
    assert not missing, f"BENCHMARK.json names functions that are gone: {missing}"
