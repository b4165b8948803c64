import numpy as np
import pytest

from roleforge.capitalists import (IN_DEGREE_FLOOR, CapitalistRecord, classify_ratio, crosstab,
                                   detect_capitalists, overlap_index)
from roleforge.graph import DirectedGraph
from roleforge.synth import capitalist_community_network

from conftest import graph_from_edges, random_edges
from oracles import oracle_overlap, oracle_ratio


def star_graph(followers, followees, n):
    """Node 0 with the given follower and followee id sets."""
    edges = [(v, 0) for v in followers] + [(0, v) for v in followees]
    return graph_from_edges(edges, n)


def test_overlap_identical_sets():
    g = star_graph({1, 2, 3}, {1, 2, 3}, 4)
    assert overlap_index(g, 0) == 1.0


def test_overlap_disjoint_sets():
    g = star_graph({1, 2}, {3, 4}, 5)
    assert overlap_index(g, 0) == 0.0


def test_overlap_partial():
    g = star_graph({1, 2, 3, 4}, {2, 3, 4, 5, 6}, 7)
    assert overlap_index(g, 0) == 0.75


def test_overlap_zero_when_either_side_empty():
    g = graph_from_edges([(1, 0)], 2)
    assert overlap_index(g, 0) == 0.0
    assert overlap_index(g, 1) == 0.0


def test_overlap_matches_oracle_and_transpose_invariance():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(4, 40))
        edges = random_edges(rng, n, 4 * n)
        g = graph_from_edges(edges, n)
        t = graph_from_edges([(v, u) for u, v in edges], n)  # every arc reversed
        for u in range(n):
            ov = overlap_index(g, u)
            assert ov == pytest.approx(oracle_overlap(edges, n, u), abs=1e-12)
            assert overlap_index(t, u) == ov


def test_ratio():
    # followers 1..k_in and followees k_in+1..k_in+k_out: overlap 0, so admit any overlap
    for k_in, k_out, want in ((600, 600, 1.0), (1000, 700, 0.7), (500, 0, 0.0)):
        followers = range(1, k_in + 1)
        edges = [(v, 0) for v in followers] + [(0, v) for v in range(k_in + 1, k_in + k_out + 1)]
        n = k_in + k_out + 1
        records = detect_capitalists(graph_from_edges(edges, n), overlap_min=0.0)
        assert [(r.node, r.k_in, r.k_out) for r in records] == [(0, k_in, k_out)]
        assert records[0].ratio == want == oracle_ratio(edges, n, 0)


BOUNDARY_CASES = [
    (500, 0.69, ("low", "FMIFY")),
    (500, 0.7, ("low", "FMIFY")),
    (500, 1.0, ("low", "IFYFM")),
    (10000, 0.69, ("low", "FMIFY")),
    (10000, 0.7, ("low", "FMIFY")),
    (10000, 1.0, ("low", "IFYFM")),
    (10001, 0.69, ("high", "passive")),
    (10001, 0.7, ("high", "FMIFY")),
    (10001, 1.0, ("high", "IFYFM")),
]


@pytest.mark.parametrize("k_in,r,expected", BOUNDARY_CASES)
def test_classify_ratio_boundaries(k_in, r, expected):
    assert classify_ratio(k_in, r) == expected


def test_classify_ratio_of_degree_pairs():
    # the ratio detect_capitalists passes in is k_out / k_in
    assert classify_ratio(5000, 6500 / 5000) == ("low", "IFYFM")
    assert classify_ratio(20000, 10000 / 20000) == ("high", "passive")
    assert classify_ratio(20000, 17000 / 20000) == ("high", "FMIFY")
    with pytest.raises(ValueError):
        classify_ratio(499, 499 / 499)


def test_detection_floor_and_threshold(tmp_path):
    # planted node 0: 600 reciprocal partners -> overlap 1, detected
    partners = list(range(1, 601))
    edges = [(0, v) for v in partners] + [(v, 0) for v in partners]
    g = graph_from_edges(edges, 601)
    records = detect_capitalists(g)
    assert [r.node for r in records] == [0]
    assert records[0].overlap == 1.0
    assert records[0].band == "low"
    # in-degree 499 with perfect overlap stays below the floor
    partners = list(range(1, 500))
    edges = [(0, v) for v in partners] + [(v, 0) for v in partners]
    g2 = graph_from_edges(edges, 500)
    assert detect_capitalists(g2) == []


def test_detection_rejects_floor_below_classification_floor():
    # no node passes the overlap test, so only an up-front check can reject the floor
    g = star_graph({1, 2}, {3, 4}, 5)
    for floor in (0, IN_DEGREE_FLOOR - 1):
        with pytest.raises(ValueError, match="in_degree_min"):
            detect_capitalists(g, in_degree_min=floor)


def test_detection_monotone_in_thresholds():
    g, _, planted = capitalist_community_network(n_comms=8, comm_size=250, n_capitalists=15, seed=9)
    base = {r.node for r in detect_capitalists(g, overlap_min=0.5, in_degree_min=500)}
    taller = {r.node for r in detect_capitalists(g, overlap_min=0.5, in_degree_min=532)}
    assert taller <= base
    # the planted in-degrees run from 509 to 552, so the taller floor splits them
    assert len(base) == 15 and len(taller) == 8

    # A planted account's followers are among its targets, so its overlap is 1.
    # 300 followers from outside the targets of each of the first 5 lower theirs.
    rng = np.random.default_rng(0)
    src, dst = [g.arc_src], [g.out_indices]
    for u in planted[:5].tolist():
        outside = np.setdiff1d(np.arange(planted[0]), g.out_neighbors(u))
        src.append(rng.choice(outside, size=300, replace=False))
        dst.append(np.full(300, u))
    g = DirectedGraph.from_arcs(np.concatenate(src), np.concatenate(dst), g.n)
    overlaps = [overlap_index(g, u) for u in planted.tolist()]
    assert 0.85 < min(overlaps[:5]) and max(overlaps[:5]) < 0.9 and overlaps[5:] == [1.0] * 10
    base = {r.node for r in detect_capitalists(g, overlap_min=0.8, in_degree_min=500)}
    tighter = {r.node for r in detect_capitalists(g, overlap_min=0.9, in_degree_min=500)}
    assert tighter <= base
    assert base == set(planted.tolist()) and tighter == set(planted[5:].tolist())


def test_detection_planted_small():
    g, _, planted = capitalist_community_network(n_comms=8, comm_size=250, n_capitalists=15, seed=9)
    records = detect_capitalists(g, overlap_min=0.8, in_degree_min=500)
    assert {r.node for r in records} == set(planted.tolist())
    k_ins = [r.k_in for r in records]
    assert k_ins == sorted(k_ins, reverse=True)


def test_crosstab_concentration():
    assign = np.array([0] * 70 + [1] * 30)
    recs = [CapitalistRecord(i, 600, 500, 1.0, 500 / 600, "low", "FMIFY") for i in range(10)]
    tables = crosstab(recs, assign, 2)
    row_a, row_b = tables[("low", "FMIFY")]
    assert row_a.tolist() == [100.0, 0.0]
    # 7/3 split over groups of size 70/30
    recs = [CapitalistRecord(i, 600, 500, 1.0, 500 / 600, "low", "FMIFY") for i in range(7)]
    recs += [CapitalistRecord(70 + i, 600, 500, 1.0, 500 / 600, "low", "FMIFY") for i in range(3)]
    row_a, row_b = crosstab(recs, assign, 2)[("low", "FMIFY")]
    assert row_a.tolist() == pytest.approx([70.0, 30.0], abs=1e-12)
    assert row_b.tolist() == pytest.approx([10.0, 10.0], abs=1e-12)
    # a group label outside [0, k) is rejected, not broadcast into a wrong table
    with pytest.raises(ValueError, match="group labels"):
        crosstab(recs, assign, 1)
    with pytest.raises(ValueError, match="group labels"):
        crosstab(recs, assign - 1, 2)


def test_crosstab_rows_sum_to_100_and_empty_slices_are_zero():
    rng = np.random.default_rng(31)
    assign = rng.integers(0, 4, size=200)
    recs = []
    for i in range(40):
        k_in = int(rng.integers(500, 30000))
        r = float(rng.uniform(0.2, 2.0))
        band, behavior = classify_ratio(k_in, r)
        recs.append(CapitalistRecord(int(rng.integers(0, 200)), k_in, int(r * k_in), 0.9, r,
                                     band, behavior))
    tables = crosstab(recs, assign, 4)
    for (band, behavior), (row_a, row_b) in tables.items():
        present = any(rec.band == band and rec.behavior == behavior for rec in recs)
        if present:
            assert abs(row_a.sum() - 100.0) < 0.01
        else:
            assert row_a.tolist() == [0.0] * 4
            assert row_b.tolist() == [0.0] * 4
