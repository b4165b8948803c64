import itertools
from dataclasses import replace

import numpy as np
import pytest

from roleforge import clustering
from roleforge.clustering import (CONNECTOR_MIN, ORPHAN_MIN, PIVOT_MIN, ClusteringResult,
                                  davies_bouldin, kmeans, label_role, renumber_by_size, select_k,
                                  standardize)
from roleforge.errors import ConfigError, DegenerateClusteringError, UndefinedValueError

from oracles import (_oracle_assign_step, _oracle_init_centroids, oracle_davies_bouldin, oracle_kmeans,
                     oracle_sample_positions, oracle_stream)


def blobs(k, n_per, seed, sigma=0.1, sep=6.0, dim=8):
    return sized_blobs([n_per] * k, seed, sigma, sep, dim)


def sized_blobs(sizes, seed, sigma=0.1, sep=6.0, dim=8):
    """One Gaussian blob of each size, centred on the axes, sep apart."""
    rng = np.random.default_rng(seed)
    centers = sep * np.eye(dim)[:len(sizes)]
    pts = [centers[i] + sigma * rng.standard_normal((size, dim)) for i, size in enumerate(sizes)]
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
    # the mean of these constants is not exactly the constant, so the deviations
    # from it are not exactly 0: the column must still standardize to 0
    for value, n in ((0.1, 7), (0.7, 3), (1 / 3, 33), (3.3, 7)):
        assert standardize(np.full((n, 1), value)).tolist() == [[0.0]] * n, (value, n)


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", ["standardize", "kmeans", "select_k", "davies_bouldin"])
def test_entry_points_reject_non_finite_values(entry, value):
    # a NaN row used to get the label k, an inf row NaN probabilities, and
    # standardize a silent all-zero column
    x = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0], [2.0, 1.0]])
    fit = kmeans(x, 2)
    bad = x.copy()
    bad[4, 0] = value
    call = {"standardize": lambda: standardize(bad), "kmeans": lambda: kmeans(bad, 2),
            "select_k": lambda: select_k(bad, 2, 3), "davies_bouldin": lambda: davies_bouldin(bad, fit)}
    with pytest.raises(ConfigError, match="non-finite"):
        call[entry]()


def test_kmeans_fixed_point_and_nonempty():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((120, 5))
    res = kmeans(x, 6, seed=3)
    counts = np.bincount(res.assign, minlength=6)
    assert (counts > 0).all()
    d = ((x[:, None, :] - res.centroids[None]) ** 2).sum(axis=2)
    assert np.array_equal(d.argmin(axis=1), res.assign)


def test_kmeans_inertia_trace_non_increasing():
    # kmeans keeps no trace; the oracle's, on the same inputs, is checked,
    # and kmeans must report as many Lloyd iterations as the oracle ran
    rng = np.random.default_rng(11)
    x = rng.standard_normal((200, 3))
    res = kmeans(x, 4, seed=0, restarts=3)
    trace = oracle_kmeans(x, 4, seed=0, restarts=3)[3]
    assert len(trace) >= 2
    assert res.n_iter == len(trace) - 1
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


@pytest.mark.parametrize("name,max_iter", [("gaussian", 100), ("ties", 100), ("one_dim", 100), ("gaussian", 2)],
                         ids=["gaussian", "ties", "one_dim", "gaussian-max_iter2"])
@pytest.mark.parametrize("seed", [0, 7])
def test_kmeans_bitwise_matches_oracle(name, max_iter, seed):
    x = oracle_inputs()[name]
    for k in range(2, 16):
        res = kmeans(x, k, seed=seed, max_iter=max_iter)
        assign, centroids, inertia, trace = oracle_kmeans(x, k, seed=seed, max_iter=max_iter)
        assert res.assign.dtype == np.int64
        assert np.array_equal(res.assign, assign), k
        assert res.centroids.tobytes() == centroids.tobytes(), k
        assert np.float64(res.inertia).tobytes() == np.float64(inertia).tobytes(), k
        assert res.n_iter == len(trace) - 1, k
        # no restart on these Gaussian rows converges within two iterations,
        # so a fit capped at two stops at the cap and must say so
        assert max_iter != 2 or res.n_iter == 2, k


def with_sorted_db(x, res):
    """res carrying its db_index on the rows in canonical (lexicographic)
    order, where select_k computes every db_index."""
    x = clustering._as_rows(x)
    order = np.lexsort(x.T[::-1])
    return replace(res, db_index=davies_bouldin(x[order], replace(res, assign=res.assign[order])))


@pytest.mark.parametrize("name", ["gaussian", "ties", "one_dim"])
def test_select_k_matches_oracle(name):
    x = oracle_inputs()[name]
    best = None
    for k in range(2, 9):
        assign, centroids, inertia, _ = oracle_kmeans(x, k, seed=3, restarts=4)
        try:
            db = with_sorted_db(x, ClusteringResult(k=k, assign=assign, centroids=centroids,
                                                    inertia=inertia)).db_index
        except DegenerateClusteringError:
            continue
        if best is None or db < best[1]:
            best = (k, db)
    res = select_k(x, 2, 8, seed=3, restarts=4)
    assert (res.k, res.db_index) == best


def assert_same_fit(got, want, what=None):
    """Two fits (or two Nones) agree byte for byte in every field."""
    assert (got is None) == (want is None), what
    if want is None:
        return
    assert got.k == want.k, what
    assert got.assign.dtype == want.assign.dtype == np.int64, what
    assert np.array_equal(got.assign, want.assign), what
    assert got.centroids.tobytes() == want.centroids.tobytes(), what
    assert np.float64(got.inertia).tobytes() == np.float64(want.inertia).tobytes(), what
    assert got.n_iter == want.n_iter, what
    assert np.float64(got.db_index).tobytes() == np.float64(want.db_index).tobytes(), what


def assert_same_reply(got, want, what=None):
    """Two (db, k, fit) replies (or two Nones) agree byte for byte."""
    assert (got is None) == (want is None), what
    if want is None:
        return
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes(), what
    assert got[1] == want[1] == got[2].k, what
    assert_same_fit(got[2], want[2], what)


def test_best_fit_ties_go_to_smaller_k(monkeypatch):
    # the sample db of each k, the same on all rows; k=6 is degenerate
    dbs = {9: 0.5, 6: None, 5: 0.25, 3: 0.25, 4: 0.75}

    def fits(rows, ks, **params):
        for k in ks:
            if dbs[k] is not None:
                yield ClusteringResult(k=k, assign=np.zeros(len(rows), dtype=np.int64), centroids=np.zeros((k, 1)),
                                       inertia=0.0, db_index=dbs[k])

    monkeypatch.setattr(clustering, "_fits", fits)
    x = np.arange(12.0)
    params = dict(sample_size=6, seed=0, max_iter=1, tol=1.0, restarts=1)
    # neither the order of the k values nor the order of their fits decides
    for ks in itertools.permutations(dbs):
        db, k, fit = clustering._fit_chunk(x, list(ks), **params)
        assert (db, k, fit.k) == (0.25, 3, 3), ks
    dbs.update(dict.fromkeys(dbs))
    assert clustering._fit_chunk(x, list(dbs), **params) is None


def few_distinct_rows():
    """30 rows with 3 distinct values: seeding for k > 3 runs out of rows off the centers."""
    return np.repeat(np.arange(3.0)[:, None] * [1.0, 2.0], 10, axis=0)


@pytest.mark.parametrize("name", ["gaussian", "ties", "one_dim", "few_distinct"])
def test_seeding_for_k_is_a_prefix_of_the_seeding_for_k_max(name):
    x = few_distinct_rows() if name == "few_distinct" else oracle_inputs()[name]
    ws = clustering._Workspace(clustering._as_rows(x), 15)
    for seed in (0, 7):
        full = ws.seeds(15, seed, restarts=3)
        for k in range(1, 16):
            for r, (chosen, longer) in enumerate(zip(ws.seeds(k, seed, restarts=3), full)):
                assert chosen.tolist() == longer[:k].tolist(), (k, r)
                want = _oracle_init_centroids(ws.x, k, oracle_stream(f"k-means seed {seed} restart {r}"))
                assert ws.x[chosen].tobytes() == want.tobytes(), (k, r)


class _Draws:
    """A stream whose random() returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_seeding_never_takes_a_row_of_zero_weight():
    ws = clustering._Workspace(clustering._as_rows(np.array([0.0, 0.0, 1.0, 3.0, 3.0])), 3)
    # u = 0: the first row whose running sum exceeds 0, not the copy of row 0
    # before it; u * total rounded up to the total (random() < 1 gets there
    # only on subnormal totals): the last row of positive weight
    for draws, want in (((0.0, 0.0), [0, 2]), ((0.9, 1.0), [4, 2]), ((0.9, 0.0, 0.0), [4, 0, 2])):
        assert ws._seed_rows(len(want), _Draws(*draws)).tolist() == want, draws
        assert _oracle_init_centroids(ws.x, len(want), _Draws(*draws)).tobytes() == ws.x[want].tobytes(), draws


@pytest.mark.parametrize("name", ["gaussian", "ties", "one_dim"])
def test_chunk_fits_equal_kmeans(name):
    x = oracle_inputs()[name]
    fit_params = dict(seed=3, max_iter=100, tol=1e-6, restarts=4)
    params = dict(sample_size=len(x), **fit_params)
    ks = list(range(2, 16))
    want = {}
    for k in ks:
        try:
            res = with_sorted_db(x, kmeans(x, k, **fit_params))
            want[k] = res.db_index, k, res
        except DegenerateClusteringError:
            want[k] = None
    # a one-k chunk replies with that k's fit
    for k in ks:
        assert_same_reply(clustering._fit_chunk(x, [k], **params), want[k], k)
    # the whole range replies with the first k of lowest db
    best = min((r for r in want.values() if r is not None), key=lambda r: r[0])
    assert_same_reply(clustering._fit_chunk(x, ks, **params), best)
    assert_same_fit(select_k(x, 2, 15, **fit_params), best[2])


def above_the_sample(name, monkeypatch):
    """An input with more rows than select_k's sample at k_max=15: an oracle
    input with the sample cut to 8 rows per k (120 rows), or 3,000 Gaussian
    rows against the default 2,250."""
    if name == "large":
        x = np.random.default_rng(37).standard_normal((3_000, 3))
    else:
        monkeypatch.setattr(clustering, "SAMPLE_ROWS_PER_K", 8)
        x = oracle_inputs()[name]
    assert 15 * clustering.SAMPLE_ROWS_PER_K < len(x)
    return x


SAMPLED = ["gaussian", "ties", "one_dim", "large"]


@pytest.mark.parametrize("name", SAMPLED)
def test_sampled_select_k_is_kmeans_at_the_chosen_k(name, monkeypatch):
    x = above_the_sample(name, monkeypatch)
    params = dict(seed=5, max_iter=100, tol=1e-6, restarts=4)
    res = select_k(x, 2, 15, **params)
    assert_same_fit(res, with_sorted_db(x, kmeans(x, res.k, **params)))
    # the k is the choice on the sample alone
    sample = clustering._sample_rows(clustering._as_rows(x), 15 * clustering.SAMPLE_ROWS_PER_K, 5)
    assert select_k(sample, 2, 15, **params).k == res.k


def assert_permuting_rows_permutes_labels(x):
    """select_k of x[perm] is select_k of x with permuted labels, bit for bit
    in every field."""
    perm = np.random.default_rng(41).permutation(len(x))
    res = select_k(x, 2, 15, seed=2, restarts=4)
    assert_same_fit(select_k(x[perm], 2, 15, seed=2, restarts=4), replace(res, assign=res.assign[perm]))


@pytest.mark.parametrize("name", SAMPLED)
def test_sampled_select_k_row_permutation_only_permutes_labels(name, monkeypatch):
    if name != "large":
        # at most as many rows as the sample: every row is scored
        x = oracle_inputs()[name]
        assert len(x) <= 15 * clustering.SAMPLE_ROWS_PER_K
        assert_permuting_rows_permutes_labels(x)
    assert_permuting_rows_permutes_labels(above_the_sample(name, monkeypatch))


def test_sample_stream_is_no_restarts_stream():
    x = oracle_inputs()["ties"]
    order = np.lexsort(x.T[::-1])
    for seed in range(4):
        sample = [oracle_stream(f"k-means seed {seed} sample").random() for _ in range(4)]
        for r in range(64):
            restart = oracle_stream(f"k-means seed {seed} restart {r}")
            assert [restart.random() for _ in range(4)] != sample, (seed, r)
        pos = oracle_sample_positions(len(x), 50, seed)
        assert clustering._sample_rows(x, 50, seed).tobytes() == x[order[pos]].tobytes()


def test_draws_are_pinned():
    # Python keeps random()'s sequence for a version-2 string seed; any change
    # to it would move every fit, so the draws are pinned here as literals
    # positions among 100 rows in canonical order: the rows of arange(100)
    sample = {seed: clustering._sample_rows(clustering._as_rows(np.arange(100.0)), 8, seed).ravel().tolist()
              for seed in (0, 7)}
    assert sample == {0: [2, 4, 15, 28, 29, 75, 76, 81], 7: [25, 27, 30, 49, 52, 77, 87, 90]}, sample
    x = np.array([[i % 7, i * i % 11] for i in range(60)], dtype=np.float64)
    ws = clustering._Workspace(x, 15)
    rows = {seed: [chosen.tolist() for chosen in ws.seeds(15, seed, 2)] for seed in (0, 7)}
    assert rows == {
        0: [[9, 34, 53, 42, 16, 57, 21, 6, 7, 45, 25, 39, 51, 12, 28],
            [56, 11, 43, 45, 15, 41, 26, 4, 29, 59, 38, 6, 40, 27, 16]],
        7: [[19, 48, 26, 59, 47, 31, 0, 15, 53, 6, 42, 40, 37, 43, 35],
            [22, 44, 16, 57, 59, 9, 7, 40, 54, 12, 42, 13, 48, 28, 43]],
    }, rows


def test_degenerate_refit_falls_to_the_next_k_by_sample_db(monkeypatch):
    x = above_the_sample("gaussian", monkeypatch)
    fit_params = dict(seed=1, max_iter=100, tol=1e-6, restarts=2)
    ks = list(range(2, 9))
    sample = clustering._sample_rows(x, 64, 1)
    ranked = sorted((res.db_index, res.k) for res in clustering._fits(sample, ks, **fit_params))
    assert len(ranked) == len(ks)
    fits = clustering._fits

    def fits_degenerate_at(bad):
        # a fit on all rows at a k in bad is degenerate: _fits yields nothing for it
        def fit(rows, ks, **kw):
            return (res for res in fits(rows, ks, **kw) if len(rows) < len(x) or res.k not in bad)
        return fit

    # the two best k on the sample are degenerate on all rows: the third is fitted
    monkeypatch.setattr(clustering, "_fits", fits_degenerate_at({k for _, k in ranked[:2]}))
    db, k, fit = clustering._fit_chunk(x, ks, sample_size=64, **fit_params)
    assert (db, k) == ranked[2]
    assert_same_fit(fit, with_sorted_db(x, kmeans(x, k, **fit_params)))
    monkeypatch.setattr(clustering, "_fits", fits_degenerate_at(set(ks)))
    assert clustering._fit_chunk(x, ks, sample_size=64, **fit_params) is None
    with pytest.raises(DegenerateClusteringError, match="every k"):
        select_k(x, 2, 8, **fit_params)


@pytest.mark.parametrize("bad", [dict(restarts=0), dict(max_iter=0), dict(tol=float("nan")), dict(tol=-1.0),
                                 dict(tol=0.0), dict(seed=-1)])
def test_fit_params_are_checked_before_any_fit(bad):
    x = np.random.default_rng(4).standard_normal((60, 3))
    with pytest.raises(ConfigError, match=next(iter(bad))):
        select_k(x, 2, 5, **bad)
    with pytest.raises(ConfigError, match=next(iter(bad))):
        kmeans(x, 3, **bad)


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
    cases = (([[0.0], [2.0]], [0, 0, 1], [0.0, 1.0, 0.0]),
             ([[2.0], [0.0]], [1, 0, 0], [0.0, 1.0, 0.0]),
             ([[2.0], [1.0], [1.0], [0.0]], [3, 1, 0], [0.0, 0.0, 0.0]))
    for c, want_assign, want_d in cases:
        assign, point_d = clustering._Workspace(x, len(c)).assign(np.array(c))
        assert assign.tolist() == want_assign
        assert point_d.tolist() == want_d


def test_assign_step_matches_oracle_when_distances_round_below_zero():
    # rows of norm ~1.7e8 a few units apart: x_sq + |c|^2 - 2 x.c cancels to
    # -8, 0 or 8 for centroids equal to nearby rows, so several entries of a
    # row are <= 0 and the most negative is not always the lowest group id
    x = 1e8 + np.random.default_rng(31).integers(0, 4, size=(64, 3)).astype(float)
    ws = clustering._Workspace(x, 6)
    c = ws.x[[0, 5, 17, 30, 31, 63]].copy()
    raw = ws.x_sq[:, None] + (c * c).sum(axis=1)[None, :] - 2.0 * (ws.x @ c.T)
    nonpositive = raw <= 0
    assert (nonpositive.sum(axis=1) > 1).any()
    assert (nonpositive.any(axis=1) & (raw.argmin(axis=1) != nonpositive.argmax(axis=1))).any()
    assign, point_d = ws.assign(c)
    want_assign, want_d = _oracle_assign_step(ws.x, ws.x_sq, c)
    assert assign.tolist() == want_assign.tolist()
    assert point_d.tobytes() == want_d.tobytes()


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


def test_sampled_choice_equals_full_choice_and_finds_a_rare_group(monkeypatch):
    # 4,000 rows against a sample of 1,500 (k_max=10); one blob holds 1% of
    # the rows, about 15 of them in the sample
    n, k_max = 4_000, 10
    assert clustering.SAMPLE_ROWS_PER_K * k_max < n
    recovered = 0
    for k_true in range(3, 9):
        for seed in range(5):
            rare = n // 100
            x = sized_blobs([rare] + [(n - rare) // (k_true - 1)] * (k_true - 1), seed=100 * k_true + seed)
            sampled = select_k(x, 2, k_max, seed=seed, restarts=2)
            with monkeypatch.context() as m:
                m.setattr(clustering, "SAMPLE_ROWS_PER_K", n)
                full = select_k(x, 2, k_max, seed=seed, restarts=2)
            assert_same_fit(sampled, full, (k_true, seed))
            recovered += sampled.k == k_true
    assert recovered >= 27, recovered


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
