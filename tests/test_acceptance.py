"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats as sstats

from roleforge.capitalists import classify_ratio, detect_capitalists, overlap_index
from roleforge.cli import PipelineConfig, read_tsv, run_pipeline
from roleforge.clustering import davies_bouldin, kmeans, select_k
from roleforge.graph import save_edge_list
from roleforge.louvain import Partition, aggregate_graph, directed_modularity, louvain_directed
from roleforge.measures import (community_profile, embeddedness_values, participation_coefficients,
                                role_measures)
from roleforge.stats import one_way_anova, regularized_incomplete_beta
from roleforge.synth import capitalist_community_network

from conftest import TWO_CYCLES_EDGES, graph_from_edges, random_assign, random_edges
from oracles import oracle_best_partition, oracle_kmeans, oracle_measures, oracle_node_stats


def _done(name, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPT {name}: PASS ({elapsed:.1f}s)")


def test_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for trial in range(100):
        n = int(rng.integers(5, 201))
        edges = random_edges(rng, n, min(3 * n, n * (n - 1) // 2))
        g = graph_from_edges(edges, n)
        assign = random_assign(rng, n, int(rng.integers(2, 9)))
        p = Partition.from_labels(assign)

        mat = role_measures(g, p)
        assert np.abs(mat - np.array(oracle_measures(edges, n, assign))).max() <= 1e-9

        # the per-node stats as the pipeline computes them: the measures stage,
        # and the overlap and k_out / k_in of detect_capitalists
        profile = community_profile(g, p)
        emb_vec = embeddedness_values(profile)
        part_vec = participation_coefficients(profile)
        for u, (emb, part, ov, rt) in enumerate(oracle_node_stats(edges, n, assign)):
            if emb is None:
                assert np.isnan(emb_vec[u])
            else:
                assert abs(emb_vec[u] - emb) <= 1e-9
            assert abs(part_vec[u] - part) <= 1e-9
            assert abs(overlap_index(g, u) - ov) <= 1e-9
            if rt is not None:
                assert abs(int(g.out_degrees[u]) / int(g.in_degrees[u]) - rt) <= 1e-9
    _done("oracle equivalence (100 random graphs)", t0, 30)


def test_modularity_correctness():
    t0 = time.monotonic()
    cycles = graph_from_edges(TWO_CYCLES_EDGES, 6)
    planted = Partition.from_labels([0, 0, 0, 1, 1, 1])
    assert directed_modularity(cycles, planted) == 0.5
    part, trace = louvain_directed(cycles)
    assert part.n_comms == 2
    assert part.assign[0] == part.assign[1] == part.assign[2]
    assert part.assign[3] == part.assign[4] == part.assign[5]
    assert trace.modularity[-1] == 0.5

    rng = np.random.default_rng(2024)
    hits = 0
    trials = 50
    for trial in range(trials):
        n = int(rng.integers(4, 9))
        edges = random_edges(rng, n, min(2 * n, n * (n - 1) // 2))
        g = graph_from_edges(edges, n)
        res, _ = louvain_directed(g)
        q = directed_modularity(g, res)
        best_q, _ = oracle_best_partition(edges, n)
        assert q <= best_q + 1e-12
        if q >= best_q - 1e-12:
            hits += 1
    assert hits >= 0.8 * trials, f"optimum reached on {hits}/{trials}"
    _done(f"modularity correctness (optimum on {hits}/{trials} tiny graphs)", t0, 60)


def test_louvain_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    graphs = [graph_from_edges(TWO_CYCLES_EDGES, 6)]
    for trial in range(20):
        n = int(rng.integers(5, 120))
        graphs.append(graph_from_edges(random_edges(rng, n, 3 * n), n))
    for g in graphs:
        part, trace = louvain_directed(g)
        qs = trace.modularity
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:])), "Q trace decreased"
        p = Partition.from_labels(random_assign(rng, g.n, max(2, g.n // 10)))
        q = directed_modularity(g, p)
        agg = aggregate_graph(g, p)
        q_agg = directed_modularity(agg, Partition.from_labels(list(range(agg.n))))
        assert abs(q_agg - q) <= 1e-12, "aggregation changed Q"
    _done("louvain invariants (trace monotone, aggregation preserves Q)", t0, 60)


def _blobs(k, n_per, seed, sigma=0.1, sep=6.0, dim=8):
    rng = np.random.default_rng(seed)
    centers = sep * np.eye(dim)[:k]
    return np.vstack([centers[i] + sigma * rng.standard_normal((n_per, dim)) for i in range(k)])


def test_clustering_selection():
    t0 = time.monotonic()
    for k_true in range(2, 9):
        recovered = 0
        for seed in range(10):
            x = _blobs(k_true, 100, seed=1000 * k_true + seed)
            res = select_k(x, 2, 15, seed=seed, restarts=4)
            if res.k == k_true:
                recovered += 1
        assert recovered >= 9, f"k={k_true}: recovered {recovered}/10"

    rng = np.random.default_rng(17)
    for trial in range(5):
        x = rng.standard_normal((300, 4))
        res = kmeans(x, 5, seed=trial, restarts=2)
        trace = oracle_kmeans(x, 5, seed=trial, restarts=2)[3]
        assert res.n_iter == len(trace) - 1, "kmeans and the oracle ran different iteration counts"
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9 * max(1.0, a), "inertia increased between iterations"

    pts0 = np.array([[0.0], [0.0], [2.0], [2.0]])
    assert davies_bouldin(pts0, kmeans(pts0, 2, seed=0)) == pytest.approx(0.0, abs=1e-12)
    pts1 = np.array([[0.0], [1.0], [9.0], [10.0]])
    assert davies_bouldin(pts1, kmeans(pts1, 2, seed=0)) == pytest.approx(1.0 / 9.0, abs=1e-12)
    _done("clustering (blob k recovery, inertia monotone, DB fixtures)", t0, 120)


def test_capitalist_detection():
    t0 = time.monotonic()
    g, _, planted = capitalist_community_network(comm_size=490, n_capitalists=50, seed=42)
    records = detect_capitalists(g, overlap_min=0.8, in_degree_min=500)
    found = {r.node for r in records}
    truth = set(planted.tolist())
    assert found == truth, (len(found - truth), len(truth - found))
    assert g.n == 9850
    _done("capitalist detection (precision=recall=1 on 9850 nodes)", t0, 60)


def test_classification_table():
    t0 = time.monotonic()
    table = {
        (500, 0.69): ("low", "FMIFY"), (500, 0.7): ("low", "FMIFY"), (500, 1.0): ("low", "IFYFM"),
        (10000, 0.69): ("low", "FMIFY"), (10000, 0.7): ("low", "FMIFY"), (10000, 1.0): ("low", "IFYFM"),
        (10001, 0.69): ("high", "passive"), (10001, 0.7): ("high", "FMIFY"), (10001, 1.0): ("high", "IFYFM"),
    }
    for (k_in, r), expected in table.items():
        assert classify_ratio(k_in, r) == expected, (k_in, r)
    _done("classification boundary table (9 cells)", t0, 10)


def test_stats_criteria():
    t0 = time.monotonic()
    res = one_way_anova([1, 2, 3, 4, 5, 6], [0, 0, 0, 1, 1, 1])
    assert res.F == 13.5
    assert (res.df_between, res.df_within) == (1, 4)
    assert abs(res.p - 0.021) <= 1e-3

    grid = [0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0]
    for a in grid:
        for b in grid:
            for x in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                lhs = regularized_incomplete_beta(a, b, x)
                rhs = regularized_incomplete_beta(b, a, 1.0 - x)
                assert abs(lhs + rhs - 1.0) <= 1e-10

    rng = np.random.default_rng(54321)
    groups = np.repeat([0, 1, 2], 10)
    ps = [one_way_anova(rng.standard_normal(30), groups).p for _ in range(1000)]
    ks = sstats.kstest(ps, "uniform")
    assert ks.pvalue > 0.01, f"null p-values not uniform (KS p={ks.pvalue:.4f})"
    _done("stats (ANOVA fixture, beta identity grid, null KS uniformity)", t0, 60)


def test_end_to_end_structural(tmp_path):
    t0 = time.monotonic()
    g, _, planted = capitalist_community_network(seed=7)
    path = tmp_path / "network.txt"
    save_edge_list(g, path)
    cfg = PipelineConfig(input=str(path), output_dir=str(tmp_path / "out"),
                         seed=0, kmeans_restarts=4)
    run_pipeline(cfg)

    header, crows, _ = read_tsv(tmp_path / "out" / "centroids.tsv")
    d_out = header.index("D_out")
    i_ext_out = header.index("I_ext_out")
    good = {int(r[0]) for r in crows if float(r[d_out]) > 0 and float(r[i_ext_out]) > 0}
    _, clrows, _ = read_tsv(tmp_path / "out" / "clusters.tsv")
    group_of = {int(r[0]): int(r[1]) for r in clrows}
    frac = sum(1 for u in planted.tolist() if group_of[u] in good) / len(planted)
    assert frac >= 0.7, f"only {frac:.2%} of planted capitalists in connector-signature groups"
    _done(f"end-to-end structural reproduction ({frac:.0%} in positive D_out/I_ext_out groups)",
          t0, 300)


def test_run_determinism(tmp_path):
    t0 = time.monotonic()
    from roleforge.synth import planted_partition_graph
    g, _ = planted_partition_graph(5, 30, seed=3)
    path = tmp_path / "net.txt"
    save_edge_list(g, path)
    manifests = []
    for name in ("d1", "d2"):
        cfg = PipelineConfig(input=str(path), output_dir=str(tmp_path / name), seed=11)
        manifests.append(run_pipeline(cfg))
    assert manifests[0] == manifests[1]
    m1 = json.loads((tmp_path / "d1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "d2" / "manifest.json").read_text())
    assert m1 == m2
    _done("determinism (identical manifests for identical config/seed)", t0, 120)
