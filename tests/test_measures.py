import math
from dataclasses import fields

import numpy as np
import pytest

from roleforge import measures
from roleforge.louvain import Partition
from roleforge.measures import (community_profile, embeddedness_values, ga_role,
                                participation_coefficients, role_measures,
                                z_score_within_community)

from conftest import G1_ASSIGN, G1_EDGES, graph_from_edges, random_assign, random_edges
from oracles import (oracle_embeddedness, oracle_measures, oracle_participation,
                     oracle_profile, oracle_z)


def test_z_score_basic():
    p = Partition.from_labels([0, 0, 0])
    z = z_score_within_community([1, 1, 4], p)
    expected = [(1 - 2) / math.sqrt(2), (1 - 2) / math.sqrt(2), (4 - 2) / math.sqrt(2)]
    assert z == pytest.approx(expected, abs=1e-12)
    assert z[2] == pytest.approx(1.4142, abs=1e-4)


def test_z_score_constant_and_singleton():
    p = Partition.from_labels([0, 0, 0, 1])
    z = z_score_within_community([5, 5, 5, 7], p)
    assert z.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_z_score_constant_community_with_inexact_values():
    # rounding can leave these a tiny positive variance: they must still give 0
    for values in ([0.1] * 7, [0.7] * 3, [1 / 3] * 33):
        assign = [0] * len(values)
        z = z_score_within_community(values, Partition.from_labels(assign))
        assert z.tolist() == [0.0] * len(values)
        assert oracle_z(values, assign) == [0.0] * len(values)
    # a constant community beside a varying one leaves the varying one's scores alone
    z = z_score_within_community([0.1, 0.1, 0.1, 1.0, 2.0], Partition.from_labels([0, 0, 0, 1, 1]))
    assert z.tolist() == [0.0, 0.0, 0.0, -1.0, 1.0]


def test_z_score_matches_oracle():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(2, 50))
        assign = random_assign(rng, n, int(rng.integers(1, 6)))
        values = rng.integers(0, 10, size=n).astype(float)
        # a common offset cancels catastrophically in E[x^2] - mean^2, not in deviations from the mean
        for offset in (0.0, 1e6, 1e8):
            z = z_score_within_community(values + offset, Partition.from_labels(assign))
            assert z == pytest.approx(oracle_z((values + offset).tolist(), assign), abs=1e-12), offset


def test_profile_g1(g1, g1_partition):
    prof = community_profile(g1, g1_partition)
    # node 0: one internal and one external link in each direction
    assert (prof.k_int_out[0], prof.k_ext_out[0], prof.eps_out[0], prof.lambda_out[0]) == (1, 1, 1, 0.0)
    assert (prof.k_int_in[0], prof.k_ext_in[0], prof.eps_in[0], prof.lambda_in[0]) == (1, 1, 1, 0.0)
    oracle = oracle_profile(G1_EDGES, 6, G1_ASSIGN)
    for u in range(6):
        for d, k_int, k_ext, eps, lam in (
            ("out", prof.k_int_out, prof.k_ext_out, prof.eps_out, prof.lambda_out),
            ("in", prof.k_int_in, prof.k_ext_in, prof.eps_in, prof.lambda_in),
        ):
            assert k_int[u] == oracle[u][d]["k_int"]
            assert k_ext[u] == oracle[u][d]["k_ext"]
            assert eps[u] == oracle[u][d]["eps"]
            assert lam[u] == pytest.approx(oracle[u][d]["lam"], abs=1e-12)


def test_profile_all_internal_node():
    g = graph_from_edges([(0, 1), (0, 2), (1, 0)], 3)
    p = Partition.from_labels([0, 0, 0])
    prof = community_profile(g, p)
    assert prof.k_ext_out[0] == 0
    assert prof.eps_out[0] == 0
    assert prof.lambda_out[0] == 0.0


def test_profile_two_external_communities():
    # node 0 sends 3 links into community 1 and 1 link into community 2
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    assign = [0, 1, 1, 1, 2]
    g = graph_from_edges(edges, 5)
    prof = community_profile(g, Partition.from_labels(assign))
    assert prof.eps_out[0] == 2
    assert prof.lambda_out[0] == pytest.approx(1.0, abs=1e-12)  # population sd of {3, 1}


def test_profile_lambda_including_zero_communities():
    # node 0 links 3 times to community 1 and once to community 2; a third
    # external community it never reaches does not enter lambda
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    assign = [0, 1, 1, 1, 2, 3]
    prof = community_profile(graph_from_edges(edges, 6), Partition.from_labels(assign))
    oracle = oracle_profile(edges, 6, assign)
    assert prof.eps_out[0] == oracle[0]["out"]["eps"] == 2
    assert prof.lambda_out[0] == oracle[0]["out"]["lam"] == 1.0  # population sd of {3, 1}


def test_role_measures_g1(g1, g1_partition):
    mat = role_measures(g1, g1_partition)
    # community 0 has k_int_out values {1, 2, 0} for nodes {0, 1, 2}
    assert mat[1, 0] == pytest.approx((2 - 1) / math.sqrt(2.0 / 3.0), abs=1e-12)
    assert mat[1, 0] == pytest.approx(1.2247, abs=1e-4)
    oracle = oracle_measures(G1_EDGES, 6, G1_ASSIGN)
    assert mat == pytest.approx(np.array(oracle), abs=1e-12)


def test_role_measures_identical_profiles_are_zero(two_cycles):
    # every node of a 3-cycle has the same profile, so all z-scores vanish
    mat = role_measures(two_cycles, Partition.from_labels([0, 0, 0, 1, 1, 1]))
    assert np.all(mat == 0.0)


def test_role_measures_match_oracle_on_random_graphs():
    rng = np.random.default_rng(29)
    for trial in range(25):
        n = int(rng.integers(4, 60))
        edges = random_edges(rng, n, 3 * n)
        g = graph_from_edges(edges, n)
        assign = random_assign(rng, n, int(rng.integers(2, 7)))
        mat = role_measures(g, Partition.from_labels(assign))
        assert mat == pytest.approx(np.array(oracle_measures(edges, n, assign)), abs=1e-9)


def test_role_measure_columns_are_normalized():
    rng = np.random.default_rng(37)
    n = 80
    edges = random_edges(rng, n, 300)
    g = graph_from_edges(edges, n)
    p = Partition.from_labels(random_assign(rng, n, 4))
    mat = role_measures(g, p)
    for c in range(p.n_comms):
        rows = mat[p.assign == c]
        for j in range(8):
            col = rows[:, j]
            if np.any(col != 0.0):
                assert col.mean() == pytest.approx(0.0, abs=1e-9)
                assert col.std() == pytest.approx(1.0, abs=1e-9)


def test_transpose_duality():
    rng = np.random.default_rng(43)
    for trial in range(10):
        n = int(rng.integers(4, 40))
        edges = random_edges(rng, n, 3 * n)
        g = graph_from_edges(edges, n)
        p = Partition.from_labels(random_assign(rng, n, 4))
        mat = role_measures(g, p)
        mat_t = role_measures(graph_from_edges([(v, u) for u, v in edges], n), p)  # every arc reversed
        swap = [1, 0, 3, 2, 5, 4, 7, 6]
        assert np.array_equal(mat_t, mat[:, swap])


def test_embeddedness(g1, g1_partition):
    vals_g1 = embeddedness_values(community_profile(g1, g1_partition))
    assert vals_g1[0] == 0.5
    g = graph_from_edges([(0, 1), (1, 0)], 3)
    p = Partition.from_labels([0, 0, 1])
    vals = embeddedness_values(community_profile(g, p))
    assert vals[0] == 1.0
    assert np.isnan(vals[2])  # no links: undefined
    g_ext = graph_from_edges([(0, 1)], 2)
    p_ext = Partition.from_labels([0, 1])
    assert embeddedness_values(community_profile(g_ext, p_ext))[0] == 0.0
    for u in range(6):
        assert vals_g1[u] == pytest.approx(oracle_embeddedness(G1_EDGES, 6, G1_ASSIGN, u), abs=1e-12)


def test_participation(g1, g1_partition):
    assert participation_coefficients(community_profile(g1, g1_partition))[0] == 0.5
    # single community -> 0
    g = graph_from_edges([(0, 1), (2, 0)], 3)
    p = Partition.from_labels([0, 0, 0])
    assert participation_coefficients(community_profile(g, p))[0] == 0.0
    # 4 links spread evenly over 4 communities -> 0.75
    g4 = graph_from_edges([(0, 1), (0, 2), (3, 0), (4, 0)], 5)
    p4 = Partition.from_labels([0, 1, 2, 3, 0])
    assert participation_coefficients(community_profile(g4, p4))[0] == pytest.approx(0.75, abs=1e-12)
    # no links -> 0 by convention
    g_iso = graph_from_edges([(0, 1)], 3)
    assert participation_coefficients(community_profile(g_iso, Partition.from_labels([0, 0, 1])))[2] == 0.0


def test_participation_matches_oracle_and_vectorized():
    rng = np.random.default_rng(53)
    for trial in range(10):
        n = int(rng.integers(4, 40))
        edges = random_edges(rng, n, 3 * n)
        g = graph_from_edges(edges, n)
        assign = random_assign(rng, n, 5)
        p = Partition.from_labels(assign)
        vec = participation_coefficients(community_profile(g, p))
        for u in range(n):
            assert vec[u] == pytest.approx(oracle_participation(edges, n, assign, u), abs=1e-12)
            assert 0.0 <= vec[u] < 1.0


def test_profile_slices_match_oracle_and_one_slice(monkeypatch):
    """Node slices of a few arcs give the oracle's counts and, bit for bit, the one-slice profile."""
    rng = np.random.default_rng(61)
    for trial in range(8):
        n = int(rng.integers(8, 40))
        # node n - 1 stays isolated; node 0 is a hub with more arcs than a slice holds
        arcs = set(random_edges(rng, n - 1, 2 * n))
        arcs |= {(0, v) for v in range(1, n - 1, 2)} | {(v, 0) for v in range(2, n - 1, 3)}
        edges = sorted(arcs)
        g = graph_from_edges(edges, n)
        assign = random_assign(rng, n, int(rng.integers(2, 6)))
        p = Partition.from_labels(assign)
        monkeypatch.setattr(measures, "_PROFILE_ARCS", 1 << 40)
        whole = community_profile(g, p)
        monkeypatch.setattr(measures, "_PROFILE_ARCS", 5)
        sliced = community_profile(g, p)
        for f in fields(sliced):
            a, b = getattr(sliced, f.name), getattr(whole, f.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        oracle = oracle_profile(edges, n, assign)
        for d in ("out", "in"):
            for key in ("k_int", "k_ext", "eps"):
                assert getattr(sliced, f"{key}_{d}").tolist() == [oracle[u][d][key] for u in range(n)]
            assert getattr(sliced, f"lambda_{d}") == pytest.approx([oracle[u][d]["lam"] for u in range(n)],
                                                                   abs=1e-12)
        part = participation_coefficients(sliced)
        assert part == pytest.approx([oracle_participation(edges, n, assign, u) for u in range(n)], abs=1e-12)


def test_ga_role_branches():
    assert ga_role(3.0, 0.0) == "provincial hub"
    assert ga_role(0.0, 0.0) == "ultra-peripheral non-hub"
    assert ga_role(2.5, 0.5) == "connector hub"  # boundary z goes to the hub branch
    assert ga_role(2.4999, 0.5) == "peripheral non-hub"
    assert ga_role(0.0, 0.7) == "connector non-hub"
    assert ga_role(0.0, 0.95) == "kinless non-hub"
    assert ga_role(5.0, 0.9) == "kinless hub"
