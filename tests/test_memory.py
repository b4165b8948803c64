"""Memory of ingest, the community profile and Louvain, in bytes per arc
(and per node for what Louvain holds between sweeps), and of the k-means
workers' parent, in multiples of the matrix.

On this graph ingest peaks at 34.4 B/arc, with ids below 10n and with ids
of up to 19 digits alike, and at 35.0 with ids that all share one slot of
the densify's rank table, returning a graph that holds 17.0 B/arc: its two
index arrays and its per-node arrays, with the unit weights a zero-stride
view (a real weight array shared by both sides made it 25.0).  The profile
adds 10.9 B/arc.  The ingest peak is the densify: the 2m endpoints, a sorted
copy of them and its run mask, 34 B/arc.  The rank table comes after the
copy is freed and takes at most its bytes; the endpoints that binary-search
add one chunk's temporaries.  The bounds leave room for allocator noise,
and fail when ingest or the profile holds one more int64 array over the m
arcs.

On a sparse planted graph swept in shuffled order, Louvain's first local
moves peak at 27.3 B/arc.  Beside the graph they hold per-node arrays and
lists (indptrs, strengths, labels, community strengths and the two link
integers `own` and `top`) and the link dict of the one node being
evaluated.  At each sweep start they hold at most 22.2 B/node more than at
the first, the previous sweep's order; a per-arc list or a dict kept per
node would show here.  Kept per-node link dicts peaked at 115.1 B/arc and
held 716 B/node more at the start of the third sweep.  The first
aggregation, of a unit-weight graph, peaks at 16.0 B/arc: the community
keys, sorted in place, and the labels of the arcs' heads.  Carrying unit
weights through an argsort, as a weighted level does, read 24.0; one more
int64 array over the arcs reads 24.0 too.

With k = 2..15 scored in three worker processes, each on the same
2,250-row sample and each refitting its best k on all rows, the parent of
`select_k` peaks at 2.18 times the bytes of a 20,000 x 8 matrix: the one
payload every worker reads (1.0), and per worker its reply, one fit of all
rows, both as the pickled bytes read from the pipe and unpickled.  Full
selection in the workers read 2.65.  One pickled copy of the matrix per
worker, and every k's fit sent back, made it 8.53.
"""

import dataclasses
import tracemalloc

import numpy as np

from roleforge import clustering, louvain, synth
from roleforge.graph import DirectedGraph, load_edge_list
from roleforge.measures import community_profile

from conftest import colliding_ids

LOAD_PEAK_B_PER_ARC = 39
GRAPH_HELD_B_PER_ARC = 18
PROFILE_PEAK_B_PER_ARC = 16
LOCAL_MOVE_PEAK_B_PER_ARC = 32
# what the local moves hold at a sweep start beyond what they held at the first
SWEEP_HELD_B_PER_NODE = 26
AGGREGATE_PEAK_B_PER_ARC = 18
SELECT_K_PARENT_PEAK_MATRICES = 3.0


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory behind `a`."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _held_bytes(g: DirectedGraph) -> int:
    """Bytes of the distinct buffers behind a graph's arrays: a buffer two
    arrays share counts once, and a zero-stride view only its one value."""
    owners = [_owner(a) for f in dataclasses.fields(g) if isinstance(a := getattr(g, f.name), np.ndarray)]
    return sum({id(o): o.nbytes for o in owners}.values())


def _traced_peaks(tmp_path, id_range=None, ids=None):
    """(graph, ingest peak, profile peak beyond the graph) in bytes, with the
    node ids `ids`, or else a sorted sample of range(id_range)."""
    g, part, _ = synth.capitalist_community_network(n_comms=10, comm_size=1000, n_capitalists=100, seed=5)
    rng = np.random.default_rng(0)
    ids = np.sort(rng.choice(id_range, size=g.n, replace=False)) if ids is None else np.asarray(ids)
    order = rng.permutation(g.m)
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in
                            zip(ids[g.arc_src[order]].tolist(), ids[g.out_indices[order]].tolist())))
    del g
    tracemalloc.start()
    try:
        h = load_edge_list(path)
        held, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        community_profile(h, part)
        profile_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert (h.n, h.m) == (10_100, 249_809)
    assert h.node_ids.tolist() == ids.tolist()
    return h, load_peak, profile_peak


def test_ingest_and_profile_peak_bytes_per_arc(tmp_path):
    h, load_peak, profile_peak = _traced_peaks(tmp_path, 10 * 10_100)
    assert load_peak / h.m <= LOAD_PEAK_B_PER_ARC, load_peak / h.m
    held = _held_bytes(h) / h.m
    assert held <= GRAPH_HELD_B_PER_ARC, held
    assert profile_peak / h.m <= PROFILE_PEAK_B_PER_ARC, profile_peak / h.m


def test_ingest_peak_bytes_per_arc_with_spread_ids(tmp_path):
    # ids of up to 19 digits, parsed in bulk like short ones, and ids that all
    # share one rank-table slot, so that every endpoint takes the binary search
    for kwargs in ({"id_range": 2**62}, {"ids": colliding_ids(10_100)}):
        h, load_peak, _ = _traced_peaks(tmp_path, **kwargs)
        assert load_peak / h.m <= LOAD_PEAK_B_PER_ARC, (kwargs.keys(), load_peak / h.m)


def test_unit_weights_hold_no_per_arc_buffer(tmp_path):
    g, truth = synth.planted_partition_graph(5, 200, seed=1)
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in zip(g.arc_src.tolist(), g.out_indices.tolist())))
    for h in (g, load_edge_list(path)):
        assert h.out_weights is h.in_weights
        assert h.out_weights.dtype == np.float64 and h.out_weights.shape == (h.m,)
        assert (h.out_weights == 1).all()
        assert _owner(h.out_weights).nbytes == 8
    # weighted graphs hold one real weight per arc on each side
    agg = louvain.aggregate_graph(g, truth)
    weighted = DirectedGraph.from_arcs([0, 1, 1], [1, 0, 0], 2, simple=False)
    for h in (agg, weighted):
        for w in (h.out_weights, h.in_weights):
            assert w.dtype == np.float64 and _owner(w).nbytes == 8 * h.m
    assert weighted.out_weights.tolist() == [1.0, 2.0]
    assert agg.total_weight == g.m


class _SweepRecorder:
    """A seeded shuffled-order rng that records the traced memory held at
    the start of each local-move sweep, when the phase asks for its order."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.held = []

    def permutation(self, n):
        self.held.append(tracemalloc.get_traced_memory()[0])
        return self.rng.permutation(n)


def test_louvain_peak_bytes_per_arc():
    # sparse planted communities swept in shuffled order: many nodes move for
    # many sweeps, so the link weights churn
    g = synth.planted_partition_graph(10, 200, intra_out=5, inter_out=3, seed=1)[0]
    _ = g.out_strengths, g.in_strengths, g.total_weight
    rec = _SweepRecorder(0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        labels, sweeps, _ = louvain._local_move_phase(g, 1e-9, rec)
        move_peak = tracemalloc.get_traced_memory()[1] - base
        part = louvain.Partition.from_labels(labels)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        louvain.aggregate_graph(g, part)
        aggregate_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (g.m, sweeps) == (15_828, 11)
    assert move_peak / g.m <= LOCAL_MOVE_PEAK_B_PER_ARC, move_peak / g.m
    # no link weights are kept per node from one sweep to the next
    held = max(h - rec.held[0] for h in rec.held) / g.n
    assert held <= SWEEP_HELD_B_PER_NODE, rec.held
    assert aggregate_peak / g.m <= AGGREGATE_PEAK_B_PER_ARC, aggregate_peak / g.m
    louvain.louvain_directed(g)
    assert "arc_src" not in vars(g)


def test_select_k_parent_peak_in_matrices(monkeypatch):
    monkeypatch.setattr(clustering, "_WORKER_MIN_WORK", 0)
    monkeypatch.setattr(clustering, "_usable_cpus", lambda: 3)
    x = np.random.default_rng(0).standard_normal((20_000, 8))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = clustering.select_k(x, 2, 15, restarts=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.k == 15
    assert peak / x.nbytes <= SELECT_K_PARENT_PEAK_MATRICES, peak / x.nbytes
