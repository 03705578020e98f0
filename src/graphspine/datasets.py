"""Bundled example graphs and maps.

Each dataset ships as a ``.graph`` file (maps carry rotation lines) together
with a ``.props`` sidecar of expected properties, both regenerated by
``scripts/make_datasets.py``.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from typing import Union

from .errors import UnknownDataset
from .graphs import MetricGraph, parse_graph
from .maps import CombinatorialMap, parse_map

DATASET_NAMES = (
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


def _read(filename: str) -> str:
    return (resources.files("graphspine") / "data" / filename).read_text()


def dataset_text(name: str) -> str:
    """Raw file contents of a bundled dataset."""
    if name not in DATASET_NAMES:
        raise UnknownDataset(name, DATASET_NAMES)
    return _read(f"{name}.graph")


def bundled_dataset(name: str) -> Union[CombinatorialMap, MetricGraph]:
    """Load a bundled object; a CombinatorialMap when the file carries
    rotations, a plain MetricGraph otherwise."""
    text = dataset_text(name)
    if any(line.startswith("rotation") for line in text.splitlines()):
        return parse_map(text)
    return parse_graph(text)


def bundled_graph(name: str) -> MetricGraph:
    """The metric graph of a bundled dataset (the skeleton for maps)."""
    obj = bundled_dataset(name)
    return obj.graph if isinstance(obj, CombinatorialMap) else obj


def dataset_properties(name: str) -> dict:
    """Parse the key-value sidecar; ints, rationals and booleans are typed."""
    if name not in DATASET_NAMES:
        raise UnknownDataset(name, DATASET_NAMES)
    props: dict = {}
    for line in _read(f"{name}.props").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, value = line.split(None, 1)
        if value in ("true", "false"):
            props[key] = value == "true"
        elif "/" in value:
            props[key] = Fraction(value)
        else:
            try:
                props[key] = int(value)
            except ValueError:
                props[key] = value
    return props
