import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from roleforge import clustering
from roleforge.clustering import (CONNECTOR_MIN, ORPHAN_MIN, PIVOT_MIN, ClusteringResult, _assign_step,
                                  davies_bouldin, kmeans, label_role, renumber_by_size, select_k,
                                  standardize)
from roleforge.errors import ConfigError, DegenerateClusteringError, UndefinedValueError

from oracles import oracle_davies_bouldin, oracle_kmeans


def blobs(k, n_per, seed, sigma=0.1, sep=6.0, dim=8):
    rng = np.random.default_rng(seed)
    centers = sep * np.eye(dim)[:k]
    pts = [centers[i] + sigma * rng.standard_normal((n_per, dim)) for i in range(k)]
    return np.vstack(pts)


def best_two_partition_inertia(points):
    """Exhaustive check over all assignments of points to 2 groups."""
    pts = np.asarray(points, dtype=float)
    best = np.inf
    for labels in itertools.product([0, 1], repeat=len(pts)):
        labels = np.array(labels)
        if labels.min() == labels.max():
            continue
        inertia = 0.0
        for c in (0, 1):
            grp = pts[labels == c]
            inertia += ((grp - grp.mean(axis=0)) ** 2).sum()
        best = min(best, inertia)
    return best


def test_standardize_basic():
    out = standardize(np.array([[1.0], [3.0]]))
    assert out.ravel().tolist() == [-1.0, 1.0]


def test_standardize_constant_column():
    out = standardize(np.array([[2.0, 1.0], [2.0, 3.0]]))
    assert out[:, 0].tolist() == [0.0, 0.0]
    assert out[:, 1].tolist() == [-1.0, 1.0]


def test_standardize_idempotent():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 4))
    once = standardize(x)
    twice = standardize(once)
    assert np.abs(twice - once).max() <= 1e-12
    assert once.mean(axis=0) == pytest.approx(np.zeros(4), abs=1e-12)
    assert once.std(axis=0) == pytest.approx(np.ones(4), abs=1e-12)


def test_kmeans_two_clusters_1d():
    pts = np.array([[0.0], [1.0], [9.0], [10.0]])
    res = kmeans(pts, 2, seed=0)
    assert sorted(res.centroids.ravel().tolist()) == [0.5, 9.5]
    assert res.inertia == pytest.approx(1.0, abs=1e-12)
    assert res.inertia == pytest.approx(best_two_partition_inertia(pts), abs=1e-12)


def test_kmeans_degenerate_k():
    pts = np.array([[0.0], [2.0], [4.0]])
    res1 = kmeans(pts, 1, seed=0)
    assert res1.centroids.ravel().tolist() == [2.0]
    assert res1.inertia == pytest.approx(pts.var() * 3, abs=1e-12)
    resn = kmeans(pts, 3, seed=0)
    assert resn.inertia == 0.0
    assert sorted(resn.centroids.ravel().tolist()) == [0.0, 2.0, 4.0]


def test_kmeans_k_exceeds_n():
    with pytest.raises(ConfigError):
        kmeans(np.zeros((3, 2)), 4)


def test_kmeans_rejects_nan_tol():
    # a NaN tol would never stop early: every fit would run all max_iter iterations
    x = np.random.default_rng(0).normal(size=(200, 3))
    with pytest.raises(ConfigError, match="tol"):
        kmeans(x, 3, tol=float("nan"))


def test_kmeans_fixed_point_and_nonempty():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((120, 5))
    res = kmeans(x, 6, seed=3)
    counts = np.bincount(res.assign, minlength=6)
    assert (counts > 0).all()
    d = ((x[:, None, :] - res.centroids[None]) ** 2).sum(axis=2)
    assert np.array_equal(d.argmin(axis=1), res.assign)


def test_kmeans_inertia_trace_non_increasing():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((200, 3))
    res = kmeans(x, 4, seed=0, restarts=3)
    trace = res.inertia_trace
    assert len(trace) >= 2
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-9 * max(1.0, a)


def test_kmeans_row_permutation_invariance():
    rng = np.random.default_rng(13)
    x = blobs(3, 40, seed=5)
    res = kmeans(x, 3, seed=2)
    perm = rng.permutation(len(x))
    res_p = kmeans(x[perm], 3, seed=2)
    # same centroids (as a set) and the same grouping of the permuted rows
    c1 = sorted(map(tuple, np.round(res.centroids, 9)))
    c2 = sorted(map(tuple, np.round(res_p.centroids, 9)))
    assert c1 == c2
    relabel = {}
    for i, j in zip(res_p.assign, res.assign[perm]):
        relabel.setdefault(int(i), int(j))
        assert relabel[int(i)] == int(j)


def oracle_inputs():
    """Gaussian data, tie-heavy rounded data with every row duplicated, and 1-D data.

    n = 500 and 404 leave 4 rows past a multiple of 8.  With OpenBLAS's
    Haswell kernels, computing the distance product in the k x n layout
    instead of n x k rounds those rows differently once k >= 12, which the
    k range below reaches.
    """
    rng = np.random.default_rng(29)
    ties = np.round(rng.standard_normal((202, 4)), 1)
    return {
        "gaussian": rng.standard_normal((500, 3)),
        "ties": np.vstack([ties, ties]),
        "one_dim": np.round(rng.standard_normal(150), 1),
    }


@pytest.mark.parametrize("name", ["gaussian", "ties", "one_dim"])
@pytest.mark.parametrize("seed", [0, 7])
def test_kmeans_bitwise_matches_oracle(name, seed):
    x = oracle_inputs()[name]
    for k in range(2, 16):
        res = kmeans(x, k, seed=seed)
        assign, centroids, inertia, trace = oracle_kmeans(x, k, seed=seed)
        assert res.assign.dtype == np.int64
        assert np.array_equal(res.assign, assign), k
        assert res.centroids.tobytes() == centroids.tobytes(), k
        assert np.float64(res.inertia).tobytes() == np.float64(inertia).tobytes(), k
        assert np.array(res.inertia_trace).tobytes() == np.array(trace).tobytes(), k


@pytest.mark.parametrize("name", ["gaussian", "ties", "one_dim"])
def test_select_k_matches_oracle(name):
    x = oracle_inputs()[name]
    best = None
    for k in range(2, 9):
        assign, centroids, inertia, _ = oracle_kmeans(x, k, seed=3, restarts=4)
        try:
            db = davies_bouldin(x, ClusteringResult(k=k, assign=assign, centroids=centroids,
                                                    inertia=inertia))
        except DegenerateClusteringError:
            continue
        if best is None or db < best[1]:
            best = (k, db)
    res = select_k(x, 2, 8, seed=3, restarts=4)
    assert (res.k, res.db_index) == best


@pytest.fixture
def forced_workers(monkeypatch):
    """select_k fits every k range in three worker processes, whatever the input size."""
    monkeypatch.setattr(clustering, "_WORKER_MIN_WORK", 0)
    monkeypatch.setattr(clustering, "_usable_cpus", lambda: 3)


@pytest.mark.parametrize("name", ["gaussian", "ties", "one_dim"])
@pytest.mark.parametrize("seed", [0, 7])
def test_worker_fits_match_inline(name, seed, forced_workers):
    x = oracle_inputs()[name]
    params = dict(seed=seed, max_iter=100, tol=1e-6, restarts=10)
    ks = list(range(2, 16))
    inline = [clustering._fit_k(x, k, **params) for k in ks]
    for k, a, b in zip(ks, inline, clustering._fit_in_workers(x, ks, params, 3)):
        assert (a is None) == (b is None), k
        if a is None:
            continue
        assert b.k == k and b.assign.dtype == np.int64
        assert np.array_equal(a.assign, b.assign), k
        assert a.centroids.tobytes() == b.centroids.tobytes(), k
        assert np.float64(a.inertia).tobytes() == np.float64(b.inertia).tobytes(), k
        assert np.array(a.inertia_trace).tobytes() == np.array(b.inertia_trace).tobytes(), k
        assert np.float64(a.db_index).tobytes() == np.float64(b.db_index).tobytes(), k
    chosen = min((r for r in inline if r is not None), key=lambda r: r.db_index)  # first minimum: smallest k
    res = select_k(x, 2, 15, **params)
    assert (res.k, res.db_index) == (chosen.k, chosen.db_index)
    assert np.array_equal(res.assign, chosen.assign)


@pytest.mark.parametrize("code", [
    "import sys; sys.stdin.buffer.read(); sys.exit('worker failed on purpose')",
    # fails before reading its input, with more stderr than a pipe holds
    "import sys; sys.stderr.write('x' * (1 << 20) + '\\n'); sys.exit('worker failed on purpose')",
])
def test_failing_worker_raises_promptly(code, forced_workers, monkeypatch):
    monkeypatch.setattr(clustering, "_WORKER_CODE", code)
    x = np.random.default_rng(3).standard_normal((20_000, 8))  # an input larger than a pipe holds
    t0 = time.monotonic()
    with pytest.raises(ChildProcessError, match="worker failed on purpose"):
        select_k(x, 2, 4, restarts=1)
    assert time.monotonic() - t0 < 60


def test_workers_start_from_a_stdin_script():
    script = "\n".join([
        "import numpy as np",
        "from roleforge import clustering",
        "clustering._WORKER_MIN_WORK = 0",
        "clustering._usable_cpus = lambda: 2",
        "x = np.random.default_rng(5).standard_normal((90, 3))",
        "print(clustering.select_k(x, 2, 6, restarts=2).k)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(clustering.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-"], input=script, capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    x = np.random.default_rng(5).standard_normal((90, 3))
    assert done.stdout.strip() == str(select_k(x, 2, 6, restarts=2).k)


@pytest.mark.parametrize("distinct,k", [(2, 4), (3, 5)])
def test_kmeans_fewer_distinct_rows_than_k_is_degenerate(distinct, k):
    x = np.repeat(np.arange(distinct, dtype=np.float64)[:, None] * [1.0, 2.0], 10, axis=0)
    with pytest.raises(DegenerateClusteringError):
        kmeans(x, k, seed=0)


def test_select_k_skips_k_above_the_distinct_rows():
    x = np.repeat([[0.0, 0.0], [1.0, 1.0]], 10, axis=0)
    res = select_k(x, 2, 4)
    assert res.k == 2 and res.db_index == 0.0
    with pytest.raises(DegenerateClusteringError, match="every k"):
        select_k(np.ones((30, 8)), 2, 4)


def test_assign_step_ties_to_lowest_group():
    x = np.array([[0.0], [1.0], [2.0]])
    x_sq = (x * x).sum(axis=1)
    cases = (([[0.0], [2.0]], [0, 0, 1], [0.0, 1.0, 0.0]),
             ([[2.0], [0.0]], [1, 0, 0], [0.0, 1.0, 0.0]),
             ([[2.0], [1.0], [1.0], [0.0]], [3, 1, 0], [0.0, 0.0, 0.0]))
    for c, want_assign, want_d in cases:
        assign, point_d = _assign_step(x, x_sq, np.array(c))
        assert assign.tolist() == want_assign
        assert point_d.tolist() == want_d


def test_kmeans_restarts_never_hurt():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((80, 4))
    single = kmeans(x, 5, seed=9, restarts=1)
    multi = kmeans(x, 5, seed=9, restarts=8)
    assert multi.inertia <= single.inertia + 1e-12


def test_davies_bouldin_zero_scatter():
    pts = np.array([[0.0], [0.0], [2.0], [2.0]])
    res = kmeans(pts, 2, seed=0)
    assert davies_bouldin(pts, res) == 0.0


def test_davies_bouldin_hand_value():
    pts = np.array([[0.0], [1.0], [9.0], [10.0]])
    res = kmeans(pts, 2, seed=0)
    db = davies_bouldin(pts, res)
    assert db == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert db == pytest.approx(
        oracle_davies_bouldin(pts.tolist(), res.assign.tolist(), res.centroids.tolist()), abs=1e-12
    )


def test_davies_bouldin_duplication_invariant():
    pts = blobs(3, 30, seed=21)
    res = kmeans(pts, 3, seed=1)
    db = davies_bouldin(pts, res)
    doubled = np.vstack([pts, pts])
    res2 = ClusteringResult(k=3, assign=np.concatenate([res.assign, res.assign]),
                            centroids=res.centroids, inertia=2 * res.inertia)
    assert davies_bouldin(doubled, res2) == pytest.approx(db, abs=1e-12)


def test_davies_bouldin_errors():
    pts = np.array([[0.0], [1.0]])
    res = kmeans(pts, 1, seed=0)
    with pytest.raises(UndefinedValueError):
        davies_bouldin(pts, res)
    bad = ClusteringResult(k=2, assign=np.array([0, 1]), centroids=np.array([[0.5], [0.5]]),
                           inertia=0.0)
    with pytest.raises(DegenerateClusteringError):
        davies_bouldin(pts, bad)


def test_select_k_recovers_blob_count():
    for k_true in (2, 6):
        x = blobs(k_true, 100, seed=100 + k_true)
        res = select_k(x, 2, min(15, len(x)), seed=0, restarts=4)
        assert res.k == k_true
        assert res.db_index >= 0.0


def test_select_k_validates_range():
    x = np.zeros((10, 2))
    with pytest.raises(ConfigError):
        select_k(x, 5, 3)
    with pytest.raises(ConfigError):
        select_k(x, 2, 11)
    with pytest.raises(ConfigError):
        select_k(x, 1, 4)


def test_renumber_by_size():
    res = ClusteringResult(k=3, assign=np.array([2, 2, 2, 0, 0, 1]),
                           centroids=np.array([[10.0], [20.0], [30.0]]), inertia=0.0)
    out = renumber_by_size(res)
    assert out.assign.tolist() == [0, 0, 0, 1, 1, 2]
    assert out.centroids.ravel().tolist() == [30.0, 10.0, 20.0]


# group mean vectors in measure-column order, with their expected names
LABEL_CASES = [
    ((-0.12, -0.03, -0.55, -0.80, -0.09, -0.04, -0.12, -0.06), "non-pivot ultra-périphérique"),
    ((94.22, 311.27, 7.18, 88.40, 113.87, 283.79, 112.79, 285.57), "pivot orphelin"),
    ((5.52, 1.40, 5.60, 3.10, 5.28, 1.43, 6.76, 2.34), "pivot connecteur"),
    ((-0.04, 0.00, -0.37, 0.69, -0.07, 0.00, -0.10, -0.01), "non-pivot périphérique (entrant)"),
    ((-0.03, -0.01, 0.60, 0.19, -0.03, -0.02, -0.04, -0.02), "non-pivot périphérique (sortant)"),
    ((0.48, 0.12, 1.96, 1.70, 0.35, 0.12, 0.53, 0.19), "non-pivot connecteur"),
]


@pytest.mark.parametrize("centroid,expected", LABEL_CASES)
def test_label_role(centroid, expected):
    assert label_role(centroid) == expected


def test_label_role_cut_points_are_inclusive():
    # a mean exactly at its cut point reaches it; the next float below does not
    def just_below(cut):
        return float(np.nextafter(cut, -np.inf))

    c = [0.2, 0.2, 0.6, 0.2, 0.1, 0.1, 0.1, 0.1]
    assert label_role(c) == "non-pivot connecteur"
    c[0] = PIVOT_MIN
    assert label_role(c) == "pivot connecteur"
    c[0] = just_below(PIVOT_MIN)
    assert label_role(c) == "non-pivot connecteur"
    c[0] = 0.2
    c[2] = CONNECTOR_MIN
    assert label_role(c) == "non-pivot connecteur"
    c[2] = just_below(CONNECTOR_MIN)
    assert label_role(c) == "non-pivot périphérique (sortant)"
    c = [ORPHAN_MIN] * 8
    assert label_role(c) == "pivot orphelin"
    c[7] = just_below(ORPHAN_MIN)
    assert label_role(c) == "pivot connecteur"
