"""Measure-space clustering: standardization, k-means, Davies-Bouldin model
selection, and rule-based group naming."""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateClusteringError, UndefinedValueError


@dataclass(frozen=True)
class ClusteringResult:
    """A k-means clustering; db_index stays NaN until a validity pass fills it.

    inertia_trace holds the per-iteration inertia of the winning restart
    (non-increasing by construction of Lloyd iterations).
    """

    k: int
    assign: np.ndarray
    centroids: np.ndarray
    inertia: float
    db_index: float = float("nan")
    inertia_trace: tuple[float, ...] = ()


def standardize(mat) -> np.ndarray:
    """Center and scale every column to mean 0, population sd 1.

    Constant columns become all-zero.  Already standardized input is a fixed
    point up to rounding.
    """
    x = np.asarray(mat, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ConfigError("standardize needs a non-empty 2-D matrix")
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    out = np.zeros_like(x)
    ok = sd > 0
    out[:, ok] = (x[:, ok] - mu[ok]) / sd[ok]
    return out


def _as_rows(mat) -> np.ndarray:
    """mat as a float64 matrix of row vectors; 1-D input is one column."""
    x = np.asarray(mat, dtype=np.float64)
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

        No draw depends on k, so the rows for k are the first k of the rows
        for any larger k from the same rng state.
        """
        n = self.x.shape[0]
        chosen = np.empty(k, dtype=np.int64)
        chosen[0] = int(rng.integers(n))
        d2 = self._sq_dist(chosen[0], np.empty(n))
        near = np.empty(n)
        for j in range(1, k):
            total = d2.sum()
            if total > 0:
                idx = int(rng.choice(n, p=d2 / total))
            else:
                remaining = np.setdiff1d(np.arange(n), chosen[:j], assume_unique=True)
                idx = int(remaining[0]) if remaining.size else int(rng.integers(n))
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
        x, k = self.x, c.shape[0]
        trace = []
        for _ in range(max_iter):
            assign, point_d = self.assign(c)
            counts = np.bincount(assign, minlength=k)
            _repair_empty(x, c, assign, point_d, counts)
            trace.append(float(point_d.sum()))
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
        inertia = float(point_d.sum())
        trace.append(inertia)
        return assign, c, inertia, tuple(trace)

    def fit(self, seeds, max_iter, tol) -> ClusteringResult:
        """The lowest-inertia Lloyd run over restarts seeded with the given row ids."""
        best = None
        for chosen in seeds:
            assign_c, c, inertia, trace = self._lloyd(self.x[chosen], max_iter, tol)
            if best is None or inertia < best[0]:
                best = (inertia, assign_c.copy(), c, trace)
        inertia, assign_c, c, trace = best
        assign = np.empty(assign_c.size, dtype=np.int64)
        assign[self.order] = assign_c
        return ClusteringResult(k=c.shape[0], assign=assign, centroids=c, inertia=inertia,
                                inertia_trace=trace)

    def seeds(self, k, seed, restarts) -> list[np.ndarray]:
        """The seed row ids of every restart; restart r draws from default_rng([seed, r])."""
        return [self._seed_rows(k, np.random.default_rng([seed, r])) for r in range(restarts)]


def _check_fit_params(seed, max_iter, tol, restarts) -> None:
    """Raise ConfigError unless the k-means parameters can drive a fit."""
    if restarts < 1 or max_iter < 1 or not tol > 0 or seed < 0:
        raise ConfigError(f"k-means needs restarts >= 1, max_iter >= 1, tol > 0 and seed >= 0, got "
                          f"restarts={restarts}, max_iter={max_iter}, tol={tol!r}, seed={seed}")


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
    _check_fit_params(seed, max_iter, tol, restarts)
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

# select_k scores its k range in worker processes once (sample rows) *
# (number of k) * restarts reaches this.  A worker is a fresh interpreter
# that takes 0.07-0.25 s to start and import this module, depending on
# machine load.  Inline k-means costs 0.9-1.1 us per unit of that work (row
# subsets of the roles-6k matrix, 2 vCPU), and two workers break even near
# 200,000 units: 0.19 s either way at n=1,430.  The test fixtures stay
# inline.  roles-6k is 315,000 units, 0.30 s inline against 0.25 s in
# workers.  The 50,000-row acceptance matrix is as many units, yet 0.46 s
# inline against 0.53 s in workers, since each worker also refits its own
# best k on all rows; workers keep numpy.random (about 6 MiB) out of the parent.
_WORKER_MIN_WORK = 200_000

# Each worker runs its BLAS on one thread: workers that each start a
# multi-threaded BLAS oversubscribe the cores.  The products, and so the
# fits, are byte-identical at one and at two threads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every worker reads one payload, (x, params) pickled once, on stdin, and
# gets its k values as command-line arguments; it writes its reply, the
# `_fit_chunk` of those k values, pickled on stdout.  It starts from
# `python -c`, not multiprocessing: spawn re-imports the caller's __main__ (a
# script on stdin cannot be re-imported, and top-level demo code would run
# again), and fork inherits the parent's BLAS threads.
_WORKER_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from roleforge.clustering import _serve_fits; _serve_fits()")


def _best_reply(replies):
    """The (db, k, fit) reply of lowest db, a tie going to the smaller k;
    None when every reply is None.  The rule is explicit so that neither the
    order in which a chunk runs its k values nor the order of the chunks
    decides."""
    return min((r for r in replies if r is not None), key=lambda r: r[:2], default=None)


def _sample_rows(x, size, seed) -> np.ndarray:
    """`size` rows of x at distinct positions, in canonical (lexicographic)
    order.

    The positions are drawn in the canonical order of the rows, so permuting
    x leaves the sample unchanged.  They come from the first child of the
    seed's SeedSequence, a stream that no restart's default_rng([seed, r])
    shares.
    """
    order = np.lexsort(x.T[::-1])
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return x[order[np.sort(rng.choice(x.shape[0], size=size, replace=False))]]


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
    """The reply for ks: (db on the sample, k, fit on all rows carrying its
    db_index), for the k of lowest sample db, a tie going to the smaller k;
    None when no k gives a fit.

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


def _serve_fits() -> None:
    """Worker entry point: fit the k values named after the package path
    (sys.argv[2:]) on the payload read from stdin, reply on stdout."""
    x, params = pickle.load(sys.stdin.buffer)
    ks = [int(k) for k in sys.argv[2:]]
    pickle.dump(_fit_chunk(x, ks, **params), sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_in_workers(x, ks, params, n_workers) -> list:
    """_fit_chunk over ks split into n_workers worker processes: the reply
    of each worker's k values, one entry per worker.

    The matrix is pickled once, into one payload that every worker reads;
    each worker gets its k values on its command line.  Raises
    ChildProcessError, quoting the end of its stderr, when a worker exits
    non-zero.
    """
    # Only this path starts processes; `import roleforge` stays without them.
    import subprocess
    from concurrent.futures import ThreadPoolExecutor

    # The cost of a fit grows with k: deal the largest k first, round-robin.
    chunks = [ks[::-1][i::n_workers] for i in range(n_workers)]
    cmd = [sys.executable, "-c", _WORKER_CODE, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    env = dict(os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    payload = pickle.dumps((x, params), pickle.HIGHEST_PROTOCOL)
    with contextlib.ExitStack() as stack:  # closes every pipe and reaps every worker
        procs = [stack.enter_context(subprocess.Popen(cmd + [str(k) for k in chunk], stdin=subprocess.PIPE,
                                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env))
                 for chunk in chunks]
        # communicate() feeds stdin while draining stdout and stderr, so no
        # worker blocks on a full pipe; one thread per worker runs them at once.
        with ThreadPoolExecutor(len(procs)) as pool:
            talks = [pool.submit(p.communicate, payload) for p in procs]
            try:
                replies = [t.result() for t in talks]
            finally:
                # on an error or an interrupt, stop the workers still running
                for p in procs:
                    if p.poll() is None:
                        p.kill()
    for p, (_, err) in zip(procs, replies):
        if p.returncode != 0:
            tail = err.decode("utf-8", "replace").strip()[-2000:]
            raise ChildProcessError(f"a k-means worker exited with status {p.returncode}; "
                                    f"its stderr ends:\n{tail}")
    return [pickle.loads(out) for out, _ in replies]


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
    takes its place.  On large samples with more than one usable CPU the k
    values are split among up to one worker process per CPU, each with
    single-threaded BLAS.  Every worker draws the same sample, fits its own
    best k on all rows and sends back that fit with its sample db; the best
    of those, by the same rule, is the result of scoring every k inline.
    """
    x = _as_rows(mat)
    n = x.shape[0]
    if k_min < 2 or k_min > k_max:
        raise ConfigError(f"invalid k range [{k_min}, {k_max}]")
    if k_max > n:
        raise ConfigError(f"k_max={k_max} exceeds the number of points n={n}")
    _check_fit_params(seed, max_iter, tol, restarts)
    ks = list(range(k_min, k_max + 1))
    sample_size = min(n, SAMPLE_ROWS_PER_K * k_max)
    params = dict(sample_size=sample_size, seed=seed, max_iter=max_iter, tol=tol, restarts=restarts)
    n_workers = min(_usable_cpus(), len(ks)) if sample_size * len(ks) * restarts >= _WORKER_MIN_WORK else 1
    if n_workers > 1:
        best = _best_reply(_fit_in_workers(x, ks, params, n_workers))
    else:
        best = _fit_chunk(x, ks, **params)
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
