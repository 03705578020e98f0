import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import graphspine
from graphspine.graphs import Edge, MetricGraph


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with ``args``, importing the graphspine under test."""
    src = str(Path(graphspine.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def make_theta(a=Fraction(1, 3), b=Fraction(1, 3), c=Fraction(1, 3)) -> MetricGraph:
    return MetricGraph(2, (Edge(0, 0, 1, a), Edge(1, 0, 1, b), Edge(2, 0, 1, c)), "theta")


def make_dumbbell(a=Fraction(1, 3), b=Fraction(1, 3), bar=Fraction(1, 3)) -> MetricGraph:
    return MetricGraph(2, (Edge(0, 0, 0, a), Edge(1, 1, 1, b), Edge(2, 0, 1, bar)),
                       "dumbbell")


def make_rose2(a=Fraction(1, 2), b=Fraction(1, 2)) -> MetricGraph:
    return MetricGraph(1, (Edge(0, 0, 0, a), Edge(1, 0, 0, b)), "rose2")


def make_k4(length=Fraction(1, 6)) -> MetricGraph:
    edges = []
    eid = 0
    for u in range(4):
        for v in range(u + 1, 4):
            edges.append(Edge(eid, u, v, length))
            eid += 1
    return MetricGraph(4, tuple(edges), "k4")


@pytest.fixture
def theta():
    return make_theta()


@pytest.fixture
def theta_long():
    return make_theta(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


@pytest.fixture
def dumbbell_eq():
    return make_dumbbell()


@pytest.fixture
def dumbbell_uneq():
    return make_dumbbell(Fraction(1, 4), Fraction(5, 12), Fraction(1, 3))


@pytest.fixture
def rose2():
    return make_rose2()


@pytest.fixture
def k4():
    return make_k4()
