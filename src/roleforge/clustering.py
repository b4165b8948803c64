"""Measure-space clustering: standardization, k-means, Davies-Bouldin model
selection, and rule-based group naming."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateClusteringError, UndefinedValueError, check_finite, check_seed
from .stats import group_z_scores


@dataclass(frozen=True)
class ClusteringResult:
    """A k-means clustering; db_index stays NaN until a validity pass fills it.

    n_iter is the number of Lloyd iterations the winning restart ran.
    """

    k: int
    assign: np.ndarray
    centroids: np.ndarray
    inertia: float
    db_index: float = float("nan")
    n_iter: int = 0


def standardize(mat) -> np.ndarray:
    """Center and scale every column to mean 0, population sd 1: the z-score
    rule of `stats.group_z_scores` with all rows as one group.

    A column of equal values becomes all-zero.  Already standardized input is
    a fixed point up to rounding.  A non-finite value raises ConfigError.
    """
    x = np.asarray(mat, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ConfigError("standardize needs a non-empty 2-D matrix")
    x = _as_rows(x)
    one = np.zeros(x.shape[0], dtype=np.intp)
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        out[:, j] = group_z_scores(x[:, j], one, 1)
    return out


def _as_rows(mat) -> np.ndarray:
    """mat as a float64 matrix of row vectors; 1-D input is one column.
    Raises ConfigError if mat holds a non-finite value."""
    x = np.asarray(mat, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ConfigError("the input holds a non-finite value")
    return x[:, None] if x.ndim == 1 else x


def _repair_empty(x, c, assign, point_d, counts):
    """Reseed every empty group from the point farthest from its centroid.

    Only a point off its centroid, in a group it does not leave empty, can
    fill a group.  When the farthest point cannot, the clustering is
    degenerate, as it is whenever the data have fewer distinct rows than
    groups.
    """
    changed = False
    for empty in np.flatnonzero(counts == 0):
        far = int(point_d.argmax())
        if point_d[far] == 0 or counts[assign[far]] < 2:
            raise DegenerateClusteringError(f"no point can fill empty group {int(empty)}")
        counts[assign[far]] -= 1
        assign[far] = empty
        counts[empty] += 1
        c[empty] = x[far]
        point_d[far] = 0.0
        changed = True
    return changed


class _Workspace:
    """Rows in canonical (lexicographic) order, and the buffers their k-means fits reuse.

    Every choice a fit makes is taken on the canonical rows, so permuting the
    caller's rows permutes the labels and changes nothing else.  The buffers
    are sized for k_max groups and serve every restart and Lloyd iteration
    of every fit at k <= k_max.
    """

    def __init__(self, x, k_max):
        self.order = np.lexsort(x.T[::-1])
        self.x = x[self.order]
        n, dim = self.x.shape
        self.x_sq = (self.x * self.x).sum(axis=1)
        self.rows = np.empty((n, dim))  # seeding differences, then the rows gathered by group
        self.point_d = np.empty(n)
        self.labels = np.empty(n, dtype=np.min_scalar_type(k_max))
        self._d = np.empty(k_max * n)
        self._xc = np.empty(n * k_max)
        self._ties = np.empty(k_max * n, dtype=self.labels.dtype)

    def _sq_dist(self, i, out):
        np.subtract(self.x, self.x[i], out=self.rows)
        np.multiply(self.rows, self.rows, out=self.rows)
        return self.rows.sum(axis=1, out=out)

    def _seed_rows(self, k, rng) -> np.ndarray:
        """Seeded k-means++ rows: k distinct rows, each new one weighted by
        squared distance to the nearest already-chosen center.

        Each row takes one draw u = rng.random(): the first is row floor(u * n),
        each later one the first row whose running sum of weights exceeds u
        times their total, so never a row of weight 0 (if rounding leaves no
        such row, the last row of positive weight).  When every weight is 0,
        the first row not yet chosen is taken without a draw.  No draw
        depends on k, so the rows for k are the first k of the rows for any
        larger k from the same stream.
        """
        n = self.x.shape[0]
        chosen = np.empty(k, dtype=np.int64)
        chosen[0] = int(rng.random() * n)
        d2 = self._sq_dist(chosen[0], np.empty(n))
        near, running = np.empty(n), np.empty(n)
        for j in range(1, k):
            total = np.cumsum(d2, out=running)[-1]
            if total > 0:
                idx = int(np.searchsorted(running, rng.random() * total, side="right"))
                if idx == n:
                    idx = int(np.flatnonzero(d2)[-1])
            else:
                idx = int(np.setdiff1d(np.arange(n), chosen[:j], assume_unique=True)[0])
            chosen[j] = idx
            np.minimum(d2, self._sq_dist(idx, near), out=d2)
        return chosen

    def assign(self, c):
        """Nearest centroid of every row, as narrow unsigned labels, and its squared distance.

        Works on a k x n distance matrix so every pass runs over a contiguous
        length-n row rather than n rows of length k.  The values are bitwise
        those of x_sq + |c|^2 - 2 x.c: scaling c by -2 is exact, the product
        is the same n x k BLAS call, and the addition is commutative.  Any
        other BLAS layout (`c @ x.T`, or writing through `out=d.T`) may round
        differently, since BLAS kernels for the tail rows of a block need not
        accumulate in the same order.  Only the minimum is clamped at 0:
        min_j max(d_j, 0) = max(min_j d_j, 0), and the entries that reach it
        are those with d_j <= it.  Both returned arrays are buffers the next
        call overwrites.
        """
        k, n = c.shape[0], self.x.shape[0]
        d = self._d[:k * n].reshape(k, n)
        xc = self._xc[:n * k].reshape(n, k)
        np.add((c * c).sum(axis=1)[:, None], self.x_sq, out=d)
        d += np.matmul(self.x, (-2.0 * c).T, out=xc).T
        point_d = np.minimum.reduce(d, axis=0, out=self.point_d)
        np.maximum(point_d, 0.0, out=point_d)
        # Ties resolve to the lowest group id: a match in row j scores k - j and
        # the highest score wins.
        ties = np.less_equal(d, point_d, out=self._ties[:k * n].reshape(k, n))
        ties *= np.arange(k, 0, -1, dtype=ties.dtype)[:, None]
        labels = np.maximum.reduce(ties, axis=0, out=self.labels)
        return np.subtract(k, labels, out=labels), point_d

    def _lloyd(self, c, max_iter, tol):
        """(assign, centroids, inertia, Lloyd iterations run) of one restart from centroids c."""
        x, k = self.x, c.shape[0]
        for n_iter in range(1, max_iter + 1):
            assign, point_d = self.assign(c)
            counts = np.bincount(assign, minlength=k)
            _repair_empty(x, c, assign, point_d, counts)
            # group sums in canonical row order: deterministic reduction.  A stable
            # sort has one result, so sorting the narrow labels (radix-sorted by
            # NumPy) gives the permutation the int64 labels would.
            idx = np.argsort(assign, kind="stable")
            starts = np.cumsum(counts) - counts
            # mode="clip" writes straight into out; idx is always in range
            sums = np.add.reduceat(x.take(idx, axis=0, out=self.rows, mode="clip"), starts, axis=0)
            new_c = sums / counts[:, None]
            shift = np.sqrt(((new_c - c) ** 2).sum(axis=1)).max()
            c = new_c
            if shift < tol:
                break
        assign, point_d = self.assign(c)
        for _ in range(k):
            counts = np.bincount(assign, minlength=k)
            if not _repair_empty(x, c, assign, point_d, counts):
                break
            assign, point_d = self.assign(c)
        return assign, c, float(point_d.sum()), n_iter

    def fit(self, seeds, max_iter, tol) -> ClusteringResult:
        """The lowest-inertia Lloyd run over restarts seeded with the given row ids."""
        best = None
        for chosen in seeds:
            assign_c, c, inertia, n_iter = self._lloyd(self.x[chosen], max_iter, tol)
            if best is None or inertia < best[0]:
                best = (inertia, assign_c.copy(), c, n_iter)
        inertia, assign_c, c, n_iter = best
        assign = np.empty(assign_c.size, dtype=np.int64)
        assign[self.order] = assign_c
        return ClusteringResult(k=c.shape[0], assign=assign, centroids=c, inertia=inertia, n_iter=n_iter)

    def seeds(self, k, seed, restarts) -> list[np.ndarray]:
        """The seed row ids of every restart; restart r draws from its own stream of the seed."""
        return [self._seed_rows(k, _stream(f"k-means seed {seed} restart {r}")) for r in range(restarts)]


def _stream(name: str) -> random.Random:
    """A generator of its own for the stream of draws `name`.

    A string seed (version 2) is hashed whole, so streams of different names
    are unrelated.  The fits draw only `random()`, the one method whose
    sequence Python keeps across versions for a given seed.
    """
    rng = random.Random()
    rng.seed(name, version=2)
    return rng


def check_fit_params(restarts: int, max_iter: int, tol: float) -> None:
    """The rules of the `kmeans_restarts`, `kmeans_max_iter` and `kmeans_tol` keys."""
    for key, value in (("kmeans_restarts", restarts), ("kmeans_max_iter", max_iter)):
        if value < 1:
            raise ConfigError(f"{key} must be at least 1, got {value}")
    check_finite("kmeans_tol", tol)
    if tol <= 0:
        raise ConfigError(f"kmeans_tol must be positive, got {tol!r}")


def check_k_range(k_min: int, k_max: int) -> None:
    """The rules of the `k_min` and `k_max` keys."""
    if k_min < 2:
        raise ConfigError(f"k_min must be at least 2, got {k_min}")
    if k_max < k_min:
        raise ConfigError(f"k_max must be at least k_min ({k_min}), got {k_max}")


def kmeans(mat, k, *, seed: int = 0, max_iter: int = 100, tol: float = 1e-6, restarts: int = 10) -> ClusteringResult:
    """Lloyd's algorithm with seeded restarts; the lowest-inertia run wins.

    Iterations stop once the largest centroid movement drops below tol or
    max_iter is reached; a final assignment pass makes the result a fixed
    point.  Empty groups are repaired by reseeding from the point farthest
    from its centroid.  The seed is applied to the data in canonical
    (lexicographically sorted) row order, so permuting input rows yields the
    same clustering up to the row permutation.
    """
    x = _as_rows(mat)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} must satisfy 1 <= k <= n={n}")
    check_fit_params(restarts, max_iter, tol)
    check_seed(seed)
    ws = _Workspace(x, k)
    return ws.fit(ws.seeds(k, seed, restarts), max_iter, tol)


def davies_bouldin(mat, result: ClusteringResult) -> float:
    """Davies-Bouldin validity index; lower is better.

    Uses Euclidean scatter (mean distance of a group's points to its
    centroid) over Euclidean centroid separation.  Raises on fewer than two
    groups, and flags coincident centroids as a degenerate clustering.
    """
    x = _as_rows(mat)
    k = result.k
    if k < 2:
        raise UndefinedValueError("the Davies-Bouldin index needs at least 2 groups")
    a = result.assign
    c = result.centroids
    counts = np.bincount(a, minlength=k)
    if (counts == 0).any():
        raise DegenerateClusteringError("clustering has an empty group")
    dist = np.sqrt(((x - c[a]) ** 2).sum(axis=1))
    scatter = np.bincount(a, weights=dist, minlength=k) / counts
    sep = np.sqrt(((c[:, None, :] - c[None, :, :]) ** 2).sum(axis=2))
    off = ~np.eye(k, dtype=bool)
    if (sep[off] == 0).any():
        raise DegenerateClusteringError("coincident centroids")
    ratio = (scatter[:, None] + scatter[None, :]) / np.where(off, sep, np.inf)
    return float(ratio.max(axis=1).mean())


# select_k scores its k range on a sample of at most this many rows per k
# of k_max (2,250 at the default k_max of 15), then refits the chosen k on
# all rows.
SAMPLE_ROWS_PER_K = 150


def _sample_rows(x, size, seed) -> np.ndarray:
    """`size` rows of x at distinct positions, in canonical (lexicographic)
    order.

    The positions index the rows in canonical order, so permuting x leaves
    the sample unchanged.  Floyd's algorithm draws them from the seed's
    sample stream, which is no restart's stream: for each j from n - size
    to n - 1 it draws t = floor(u * (j + 1)) and takes t, or j if t is
    already taken.
    """
    order = np.lexsort(x.T[::-1])
    n = x.shape[0]
    rng = _stream(f"k-means seed {seed} sample")
    taken = set()
    for j in range(n - size, n):
        t = int(rng.random() * (j + 1))
        taken.add(j if t in taken else t)
    return x[order[np.sort(np.fromiter(taken, dtype=np.int64, count=size))]]


def _fits(x, ks, *, seed, max_iter, tol, restarts):
    """The k-means fit at each k of ks whose clustering is not degenerate,
    carrying its db_index computed on the rows in canonical order.

    Each restart is seeded once, for the largest k, and every k starts from
    the first k of those rows: the fit at each k equals `kmeans` at that k.
    """
    ws = _Workspace(x, max(ks))
    seeds = ws.seeds(max(ks), seed, restarts)
    for k in ks:
        try:
            res = ws.fit([chosen[:k] for chosen in seeds], max_iter, tol)
            res = replace(res, db_index=davies_bouldin(ws.x, replace(res, assign=res.assign[ws.order])))
        except DegenerateClusteringError:
            continue
        yield res


def _fit_chunk(x, ks, *, sample_size, **params):
    """(db on the sample, k, fit on all rows carrying its db_index) for the
    k of ks of lowest sample db, a tie going to the smaller k; None when no
    k gives a fit.

    ks are scored on `_sample_rows(x, sample_size, seed)`, which is every
    row when sample_size is n.  The best k is then fitted on all rows; when
    that fit is degenerate, the next k in order of sample db is fitted
    instead.
    """
    x = _as_rows(x)
    sample = _sample_rows(x, sample_size, params["seed"])
    for db, k in sorted((res.db_index, res.k) for res in _fits(sample, ks, **params)):
        for res in _fits(x, [k], **params):
            return db, k, res
    return None


def select_k(mat, k_min: int = 2, k_max: int = 15, *, seed: int = 0, max_iter: int = 100,
             tol: float = 1e-6, restarts: int = 10) -> ClusteringResult:
    """Best clustering over k in [k_min, k_max] by minimal Davies-Bouldin.

    The k values are scored on a seeded sample of min(n, SAMPLE_ROWS_PER_K
    * k_max) rows (`_sample_rows`), and the chosen k is fitted on all rows:
    the result is `kmeans` at that k, carrying its db_index on all rows.
    Every db_index is computed on the rows in canonical order, so permuting
    the rows permutes the labels and changes nothing else.  Ties break
    toward smaller k.  k values whose clustering is degenerate are skipped;
    when the chosen k is degenerate on all rows, the next k by sample db
    takes its place.  Every k is scored in the calling process
    (`_fit_chunk`).
    """
    x = _as_rows(mat)
    n = x.shape[0]
    check_k_range(k_min, k_max)
    if k_max > n:
        raise ConfigError(f"k_max={k_max} exceeds the number of points n={n}")
    check_fit_params(restarts, max_iter, tol)
    check_seed(seed)
    best = _fit_chunk(x, range(k_min, k_max + 1), sample_size=min(n, SAMPLE_ROWS_PER_K * k_max), seed=seed,
                      max_iter=max_iter, tol=tol, restarts=restarts)
    if best is None:
        raise DegenerateClusteringError("every k in the range produced a degenerate clustering")
    return best[2]


def renumber_by_size(result: ClusteringResult) -> ClusteringResult:
    """Relabel groups by descending size (ties by old id) for stable reports."""
    sizes = np.bincount(result.assign, minlength=result.k)
    order = np.lexsort((np.arange(result.k), -sizes))
    remap = np.empty(result.k, dtype=np.int64)
    remap[order] = np.arange(result.k)
    return replace(result, assign=remap[result.assign], centroids=result.centroids[order])


# Cut points, in standardized centroid space, for naming role groups.  They
# are reporting heuristics over the objective clustering, not ground truth:
# pivot triggers on the internal intensities, connector on positive external
# intensity plus a diversity excess, orphan on every mean being large.
PIVOT_MIN = 1.0
CONNECTOR_MIN = 0.5
ORPHAN_MIN = 5.0


def label_role(centroid) -> str:
    """Rule-based role name for a group centroid (8-vector, measure column order).

    The prefix is "pivot" when either internal intensity mean reaches
    PIVOT_MIN, else "non-pivot".  The category is: orphan when every mean is
    at least ORPHAN_MIN; connector when both external intensity means are
    positive and some diversity mean reaches CONNECTOR_MIN; ultra-peripheral
    when all eight means are negative; peripheral otherwise, suffixed by the
    dominant diversity direction when it is positive.
    """
    c = np.asarray(centroid, dtype=np.float64).ravel()
    if c.shape[0] != 8:
        raise ValueError("a role centroid has 8 components")
    i_int = c[0:2]
    d = c[2:4]
    i_ext = c[4:6]
    prefix = "pivot" if i_int.max() >= PIVOT_MIN else "non-pivot"
    if c.min() >= ORPHAN_MIN:
        return f"{prefix} orphelin"
    if i_ext.min() > 0 and d.max() >= CONNECTOR_MIN:
        return f"{prefix} connecteur"
    if c.max() < 0:
        return f"{prefix} ultra-périphérique"
    d_out, d_in = float(d[0]), float(d[1])
    if max(d_out, d_in) > 0:
        suffix = " (sortant)" if d_out >= d_in else " (entrant)"
    else:
        suffix = ""
    return f"{prefix} périphérique{suffix}"
