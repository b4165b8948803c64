import itertools

import numpy as np
import pytest

from roleforge import louvain
from roleforge.errors import UndefinedModularityError
from roleforge.graph import DirectedGraph
from roleforge.louvain import Partition, aggregate_graph, directed_modularity, louvain_directed
from roleforge.synth import planted_partition_graph

from conftest import (TWO_CYCLES_ASSIGN, TWO_CYCLES_EDGES, graph_from_edges,
                      random_assign, random_edges)
from oracles import oracle_best_partition, oracle_local_move_phase, oracle_modularity


def test_modularity_two_cycles_planted(two_cycles):
    p = Partition.from_labels(TWO_CYCLES_ASSIGN)
    assert directed_modularity(two_cycles, p) == 0.5


def test_modularity_all_in_one(two_cycles):
    p = Partition.from_labels([0] * 6)
    assert directed_modularity(two_cycles, p) == 0.0


def test_modularity_singletons_nonpositive():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(3, 25))
        edges = random_edges(rng, n, 2 * n)
        g = graph_from_edges(edges, n)
        p = Partition.from_labels(list(range(n)))
        q = directed_modularity(g, p)
        assert q <= 0
        expected = -sum(ko * ki for ko, ki in zip(g.out_degrees, g.in_degrees)) / g.m**2
        assert q == pytest.approx(expected, abs=1e-12)


def test_modularity_requires_arcs():
    g = graph_from_edges([], 3)
    with pytest.raises(UndefinedModularityError):
        directed_modularity(g, Partition.from_labels([0, 0, 0]))


def test_modularity_matches_oracle():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(3, 40))
        edges = random_edges(rng, n, min(4 * n, n * (n - 1) // 2))
        g = graph_from_edges(edges, n)
        assign = random_assign(rng, n, int(rng.integers(1, 7)))
        q = directed_modularity(g, Partition.from_labels(assign))
        assert q == pytest.approx(oracle_modularity(edges, n, assign), abs=1e-12)
        assert -1.0 <= q <= 1.0


def test_aggregate_singletons_is_copy(g1):
    p = Partition.from_labels(list(range(6)))
    a = aggregate_graph(g1, p)
    assert a.n == g1.n and a.m == g1.m
    assert a.out_indptr.tolist() == g1.out_indptr.tolist()
    assert a.out_indices.tolist() == g1.out_indices.tolist()
    assert a.out_weights.tolist() == g1.out_weights.tolist()


def test_aggregate_all_in_one(g1):
    a = aggregate_graph(g1, Partition.from_labels([0] * 6))
    assert a.n == 1
    assert a.out_indices.tolist() == [0]
    assert a.out_weights.tolist() == [float(g1.m)]


def test_aggregate_g1(g1, g1_partition):
    a = aggregate_graph(g1, g1_partition)
    assert a.n == 2
    arcs = {(int(u), int(v)): w for u, v, w in
            zip(np.repeat(np.arange(2), np.diff(a.out_indptr)), a.out_indices, a.out_weights)}
    assert arcs == {(0, 0): 3.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 3.0}
    assert a.total_weight == g1.total_weight


def test_aggregation_preserves_modularity():
    rng = np.random.default_rng(23)
    for trial in range(20):
        n = int(rng.integers(4, 50))
        edges = random_edges(rng, n, 3 * n)
        g = graph_from_edges(edges, n)
        p = Partition.from_labels(random_assign(rng, n, int(rng.integers(2, 8))))
        q = directed_modularity(g, p)
        agg = aggregate_graph(g, p)
        q_agg = directed_modularity(agg, Partition.from_labels(list(range(agg.n))))
        assert q_agg == pytest.approx(q, abs=1e-12)


def test_louvain_recovers_two_cycles(two_cycles):
    part, trace = louvain_directed(two_cycles)
    assert part.n_comms == 2
    assert part.assign[0] == part.assign[1] == part.assign[2]
    assert part.assign[3] == part.assign[4] == part.assign[5]
    assert trace.modularity[-1] == 0.5
    # exhaustive search confirms this is the optimum
    best_q, _ = oracle_best_partition(TWO_CYCLES_EDGES, 6)
    assert best_q == pytest.approx(0.5, abs=1e-12)


def test_louvain_single_cycle_merges():
    g = graph_from_edges([(0, 1), (1, 2), (2, 0)], 3)
    part, _ = louvain_directed(g)
    assert part.n_comms == 1
    best_q, _ = oracle_best_partition([(0, 1), (1, 2), (2, 0)], 3)
    assert directed_modularity(g, part) == pytest.approx(best_q, abs=1e-12)


def test_louvain_rejects_empty_graph():
    with pytest.raises(UndefinedModularityError):
        louvain_directed(graph_from_edges([], 4))


def test_louvain_rejects_nan_min_gain():
    # NaN compares false with every gain, so no move would ever be made
    g = graph_from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)], 6)
    assert louvain_directed(g)[0].n_comms == 2
    with pytest.raises(ValueError, match="min_gain"):
        louvain_directed(g, min_gain=float("nan"))


def test_louvain_trace_and_partition_invariants():
    rng = np.random.default_rng(5)
    for trial in range(15):
        n = int(rng.integers(5, 60))
        edges = random_edges(rng, n, 3 * n)
        g = graph_from_edges(edges, n)
        part, trace = louvain_directed(g)
        qs = trace.modularity
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        assert sorted(set(part.assign.tolist())) == list(range(part.n_comms))
        assert (part.sizes() > 0).all()
        assert len(trace.sweeps) == len(trace.moves) == len(qs)


def test_louvain_natural_order_is_reproducible():
    rng = np.random.default_rng(9)
    edges = random_edges(rng, 40, 150)
    g = graph_from_edges(edges, 40)
    p1, t1 = louvain_directed(g, seed=1)
    p2, t2 = louvain_directed(g, seed=99)  # natural order ignores the seed
    assert p1.assign.tolist() == p2.assign.tolist()
    assert t1.modularity == t2.modularity


def test_louvain_shuffled_order_seeded():
    rng = np.random.default_rng(13)
    edges = random_edges(rng, 30, 120)
    g = graph_from_edges(edges, 30)
    p1, _ = louvain_directed(g, seed=4, order="shuffled")
    p2, _ = louvain_directed(g, seed=4, order="shuffled")
    assert p1.assign.tolist() == p2.assign.tolist()


def test_louvain_matches_exhaustive_on_tiny_graphs():
    rng = np.random.default_rng(31)
    hits = 0
    trials = 12
    for trial in range(trials):
        n = int(rng.integers(4, 8))
        edges = random_edges(rng, n, min(2 * n, n * (n - 1) // 2))
        g = graph_from_edges(edges, n)
        part, _ = louvain_directed(g)
        q = directed_modularity(g, part)
        best_q, _ = oracle_best_partition(edges, n)
        assert q <= best_q + 1e-12
        if q >= best_q - 1e-12:
            hits += 1
    assert hits >= trials * 0.6  # the full-rate check lives in the acceptance suite


def test_local_moves_strictly_improve_modularity():
    # every accepted move gains more than min_gain, so any pass with moves
    # must lift Q from scratch by more than min_gain
    rng = np.random.default_rng(61)
    min_gain = 1e-9
    for trial in range(15):
        n = int(rng.integers(5, 120))
        edges = random_edges(rng, n, 3 * n)
        g = graph_from_edges(edges, n)
        part, trace = louvain_directed(g, min_gain=min_gain)
        q_singletons = directed_modularity(g, Partition.from_labels(list(range(n))))
        if part.n_comms < n:
            assert trace.modularity[0] > q_singletons + min_gain
        qs = trace.modularity
        for a, b in zip(qs, qs[1:-1]):  # every non-final pass made moves
            assert b > a + min_gain


def test_weighted_modularity_matches_oracle():
    # aggregated graphs carry weights and self-loops; check Q against the oracle
    rng = np.random.default_rng(41)
    for trial in range(10):
        n = int(rng.integers(4, 30))
        edges = random_edges(rng, n, 3 * n)
        g = graph_from_edges(edges, n)
        p = Partition.from_labels(random_assign(rng, n, 4))
        agg = aggregate_graph(g, p)
        agg_edges = [(int(u), int(v)) for u, v in
                     zip(np.repeat(np.arange(agg.n), np.diff(agg.out_indptr)), agg.out_indices)]
        weights = agg.out_weights.tolist()
        labels = random_assign(rng, agg.n, 2)
        q = directed_modularity(agg, Partition.from_labels(labels))
        assert q == pytest.approx(oracle_modularity(agg_edges, agg.n, labels, weights), abs=1e-12)


def _oracle_cases():
    """(graph, shuffle seeds) pairs for the differential test."""
    rng = np.random.default_rng(71)
    for trial in range(30):
        n = int(rng.integers(4, 80))
        yield graph_from_edges(random_edges(rng, n, min(int(rng.integers(n, 4 * n)), n * (n - 1) // 2)), n), (5,)
    for seed in range(3):
        yield planted_partition_graph(4, 25, intra_out=4, inter_out=2, seed=seed)[0], (5,)
    yield planted_partition_graph(6, 40, seed=3)[0], (5,)
    # sparse planted graphs under several sweep orders: there a neighbour
    # sometimes leaves a community for good, so a kept weight falls to 0
    for seed in range(4):
        yield planted_partition_graph(10, 20, intra_out=3, inter_out=2, seed=seed)[0], range(6)
    # tie-heavy: disjoint one-way and two-way cycles of equal length
    for length, both in ((3, False), (4, False), (4, True), (5, True)):
        edges = [(c * length + i, c * length + (i + 1) % length) for c in range(6) for i in range(length)]
        if both:
            edges += [(v, u) for u, v in edges]
        yield graph_from_edges(sorted(edges), 6 * length), (5,)


def test_louvain_matches_oracle(monkeypatch):
    # the kept neighbour-community weights must reproduce the from-scratch loop bit for bit
    def oracle_phase(g, min_gain, rng):
        moved, assign = oracle_local_move_phase(g, min_gain, rng)
        return assign, 0, int(moved)

    for g, seeds in _oracle_cases():
        runs = [("natural", 0)] + [("shuffled", seed) for seed in seeds]
        for (order, seed), min_gain in itertools.product(runs, (0.0, 1e-9, 1e-3)):
            part, trace = louvain_directed(g, min_gain=min_gain, seed=seed, order=order)
            with monkeypatch.context() as mp:
                mp.setattr(louvain, "_local_move_phase", oracle_phase)
                want, want_trace = louvain_directed(g, min_gain=min_gain, seed=seed, order=order)
            assert part.assign.tobytes() == want.assign.tobytes()
            assert trace.modularity == want_trace.modularity
            assert min(trace.sweeps) >= 1 and trace.moves[-1] == 0
            assert all(m > 0 for m in trace.moves[:-1])
            assert all(s >= 2 for s, m in zip(trace.sweeps, trace.moves) if m)


def test_louvain_rejects_non_integer_weights():
    src, dst = np.array([0, 1, 2, 0]), np.array([1, 2, 0, 2])
    for weights in ([1.0, 2.0, 0.5, 1.0], [1.0, 0.0, 1.0, 1.0], [1.0, -1.0, 2.0, 1.0]):
        g = DirectedGraph.from_arcs(src, dst, 3, weights=weights, simple=False)
        with pytest.raises(ValueError, match="positive integers"):
            louvain_directed(g)
    whole = DirectedGraph.from_arcs(src, dst, 3, weights=[1.0, 2.0, 3.0, 1.0], simple=False)
    assert louvain_directed(whole)[0].n_comms >= 1
