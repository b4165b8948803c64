import sys
from itertools import count, islice
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from roleforge.graph import _FIB, DirectedGraph
from roleforge.louvain import Partition

# shared six-node fixture: two communities, cross links 0->3 and 4->0
G1_EDGES = [(0, 1), (1, 0), (1, 2), (0, 3), (4, 0), (3, 4), (4, 5), (5, 3)]
G1_ASSIGN = [0, 0, 0, 1, 1, 1]

# two disjoint directed 3-cycles
TWO_CYCLES_EDGES = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
TWO_CYCLES_ASSIGN = [0, 0, 0, 1, 1, 1]


def graph_from_edges(edges, n):
    if not edges:
        e = np.empty(0, dtype=np.int64)
        return DirectedGraph.from_arcs(e, e, n)
    src, dst = zip(*edges)
    return DirectedGraph.from_arcs(np.array(src), np.array(dst), n)


def colliding_ids(size):
    """`size` ascending ids below 2**63 that all share densify's rank-table
    slot 0 in every table of up to 2**32 slots: id * _FIB mod 2**64 is a
    small j for each."""
    inverse = pow(int(_FIB), -1, 2**64)
    return sorted(islice((x for j in count(1) if (x := j * inverse % 2**64) < 2**63), size))


def random_edges(rng, n, m):
    """m distinct random arcs without self-loops."""
    edges = set()
    while len(edges) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.add((u, v))
    return sorted(edges)


def random_assign(rng, n, n_comms):
    labels = rng.integers(0, n_comms, size=n)
    return Partition.from_labels(labels).assign.tolist()


@pytest.fixture
def g1():
    return graph_from_edges(G1_EDGES, 6)


@pytest.fixture
def g1_partition():
    return Partition.from_labels(G1_ASSIGN)


@pytest.fixture
def two_cycles():
    return graph_from_edges(TWO_CYCLES_EDGES, 6)
