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


def _init_centroids(x, k, rng):
    # Seeded sampling of k distinct rows, each new one weighted by squared
    # distance to the nearest already-chosen center.
    n = x.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(n), chosen[:j])
            idx = int(remaining[0]) if remaining.size else int(rng.integers(n))
        chosen[j] = idx
        d2 = np.minimum(d2, ((x - x[idx]) ** 2).sum(axis=1))
    return x[chosen].copy()


def _assign_step(x, x_sq, c):
    """Nearest centroid of every row, as narrow unsigned labels, and its squared distance.

    Works on a k x n distance matrix so every pass runs over a contiguous
    length-n row rather than n rows of length k.  The values are bitwise
    those of x_sq + |c|^2 - 2 x.c: scaling c by -2 is exact, the product is
    the same n x k BLAS call, and the addition is commutative.  Any other
    BLAS layout (`c @ x.T`, or writing through `out=d.T`) may round
    differently, since BLAS kernels for the tail rows of a block need not
    accumulate in the same order.
    """
    k = c.shape[0]
    d = (c * c).sum(axis=1)[:, None] + x_sq[None, :]
    d += (x @ (-2.0 * c).T).T
    np.maximum(d, 0.0, out=d)
    point_d = np.minimum.reduce(d, axis=0)
    # Ties resolve to the lowest group id: a match in row j scores k - j and
    # the highest score wins.
    score = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    assign = k - np.maximum.reduce((d == point_d) * score, axis=0)
    return assign, point_d


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


def _lloyd(x, k, rng, max_iter, tol):
    # x rows are in canonical (lexicographic) order, so every choice below is
    # invariant under permutations of the caller's input rows.
    n = x.shape[0]
    x_sq = (x * x).sum(axis=1)
    c = _init_centroids(x, k, rng)
    trace = []
    for _ in range(max_iter):
        assign, point_d = _assign_step(x, x_sq, c)
        counts = np.bincount(assign, minlength=k)
        _repair_empty(x, c, assign, point_d, counts)
        trace.append(float(point_d.sum()))
        # group sums in canonical row order: deterministic reduction.  A stable
        # sort has one result, so sorting the narrow labels (radix-sorted by
        # NumPy) gives the permutation the int64 labels would.
        idx = np.argsort(assign, kind="stable")
        starts = np.cumsum(counts) - counts
        sums = np.add.reduceat(x.take(idx, axis=0), starts, axis=0)
        new_c = sums / counts[:, None]
        shift = np.sqrt(((new_c - c) ** 2).sum(axis=1)).max()
        c = new_c
        if shift < tol:
            break
    assign, point_d = _assign_step(x, x_sq, c)
    for _ in range(k):
        counts = np.bincount(assign, minlength=k)
        if not _repair_empty(x, c, assign, point_d, counts):
            break
        assign, point_d = _assign_step(x, x_sq, c)
    trace.append(float(point_d.sum()))
    return assign, c, float(point_d.sum()), tuple(trace)


def kmeans(mat, k, *, seed: int = 0, max_iter: int = 100, tol: float = 1e-6, restarts: int = 10) -> ClusteringResult:
    """Lloyd's algorithm with seeded restarts; the lowest-inertia run wins.

    Iterations stop once the largest centroid movement drops below tol or
    max_iter is reached; a final assignment pass makes the result a fixed
    point.  Empty groups are repaired by reseeding from the point farthest
    from its centroid.  The seed is applied to the data in canonical
    (lexicographically sorted) row order, so permuting input rows yields the
    same clustering up to the row permutation.
    """
    x = np.asarray(mat, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} must satisfy 1 <= k <= n={n}")
    if restarts < 1 or max_iter < 1 or not tol > 0:
        raise ConfigError("restarts and max_iter must be >= 1 and tol > 0")
    order = np.lexsort(x.T[::-1])
    xc = x[order]
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        assign_c, c, inertia, trace = _lloyd(xc, k, rng, max_iter, tol)
        if best is None or inertia < best[0]:
            best = (inertia, assign_c, c, trace)
    inertia, assign_c, c, trace = best
    assign = np.empty(n, dtype=np.int64)
    assign[order] = assign_c
    return ClusteringResult(k=k, assign=assign, centroids=c, inertia=inertia, inertia_trace=trace)


def davies_bouldin(mat, result: ClusteringResult) -> float:
    """Davies-Bouldin validity index; lower is better.

    Uses Euclidean scatter (mean distance of a group's points to its
    centroid) over Euclidean centroid separation.  Raises on fewer than two
    groups, and flags coincident centroids as a degenerate clustering.
    """
    x = np.asarray(mat, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
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


# select_k fits its k range in worker processes once n * (number of k) *
# restarts reaches this.  A worker is a fresh interpreter that takes about
# 0.25 s to import this module; k-means costs 6-9 us per unit of that work
# (roles-6k matrix, 2 vCPU), so two workers break even near 80,000 units.
# The test fixtures (at most 45,000) stay inline; roles-6k is 848,400.
_WORKER_MIN_WORK = 200_000

# Each worker runs its BLAS on one thread: workers that each start a
# multi-threaded BLAS oversubscribe the cores.  The products, and so the
# fits, are byte-identical at one and at two threads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A worker reads (x, ks, params) pickled on stdin and writes the list of fits
# pickled on stdout.  It starts from `python -c`, not multiprocessing: spawn
# re-imports the caller's __main__ (a script on stdin cannot be re-imported,
# and top-level demo code would run again), and fork inherits the parent's
# BLAS threads.
_WORKER_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from roleforge.clustering import _serve_fits; _serve_fits()")


def _fit_k(x, k, *, seed, max_iter, tol, restarts) -> ClusteringResult | None:
    """The k-means fit at k carrying its db_index, or None when it is degenerate."""
    try:
        res = kmeans(x, k, seed=seed, max_iter=max_iter, tol=tol, restarts=restarts)
        return replace(res, db_index=davies_bouldin(x, res))
    except DegenerateClusteringError:
        return None


def _serve_fits() -> None:
    """Worker entry point: fit the k values sent on stdin, reply on stdout."""
    x, ks, params = pickle.load(sys.stdin.buffer)
    pickle.dump([_fit_k(x, k, **params) for k in ks], sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_in_workers(x, ks, params, n_workers) -> list:
    """_fit_k over ks in n_workers worker processes, in the order of ks.

    Raises ChildProcessError, quoting the end of its stderr, when a worker
    exits non-zero.
    """
    # Only this path starts processes; `import roleforge` stays without them.
    import subprocess
    from concurrent.futures import ThreadPoolExecutor

    # The cost of a fit grows with k: deal the largest k first, round-robin.
    chunks = [ks[::-1][i::n_workers] for i in range(n_workers)]
    cmd = [sys.executable, "-c", _WORKER_CODE, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    env = dict(os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    with contextlib.ExitStack() as stack:  # closes every pipe and reaps every worker
        procs = [stack.enter_context(subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                                      stderr=subprocess.PIPE, env=env))
                 for _ in chunks]
        # communicate() feeds stdin while draining stdout and stderr, so no
        # worker blocks on a full pipe; one thread per worker runs them at once.
        with ThreadPoolExecutor(len(procs)) as pool:
            talks = [pool.submit(p.communicate, pickle.dumps((x, chunk, params), pickle.HIGHEST_PROTOCOL))
                     for p, chunk in zip(procs, chunks)]
            try:
                replies = [t.result() for t in talks]
            finally:
                # on an error or an interrupt, stop the workers still running
                for p in procs:
                    if p.poll() is None:
                        p.kill()
    fits = {}
    for p, chunk, (out, err) in zip(procs, chunks, replies):
        if p.returncode != 0:
            tail = err.decode("utf-8", "replace").strip()[-2000:]
            raise ChildProcessError(f"a k-means worker exited with status {p.returncode}; "
                                    f"its stderr ends:\n{tail}")
        fits.update(zip(chunk, pickle.loads(out)))
    return [fits[k] for k in ks]


def select_k(mat, k_min: int = 2, k_max: int = 15, *, seed: int = 0, max_iter: int = 100,
             tol: float = 1e-6, restarts: int = 10) -> ClusteringResult:
    """Best clustering over k in [k_min, k_max] by minimal Davies-Bouldin.

    Ties break toward smaller k; k values whose clustering is degenerate are
    skipped.  The returned result carries its db_index.  On large inputs
    with more than one usable CPU the k values are fitted in up to one
    worker process per CPU, each with single-threaded BLAS; the result is
    the same as fitting them inline.
    """
    x = np.asarray(mat, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if k_min < 2 or k_min > k_max:
        raise ConfigError(f"invalid k range [{k_min}, {k_max}]")
    if k_max > n:
        raise ConfigError(f"k_max={k_max} exceeds the number of points n={n}")
    ks = list(range(k_min, k_max + 1))
    params = dict(seed=seed, max_iter=max_iter, tol=tol, restarts=restarts)
    n_workers = min(_usable_cpus(), len(ks)) if n * len(ks) * restarts >= _WORKER_MIN_WORK else 1
    if n_workers > 1:
        fits = _fit_in_workers(x, ks, params, n_workers)
    else:
        fits = (_fit_k(x, k, **params) for k in ks)
    best = None
    for res in fits:
        if res is not None and (best is None or res.db_index < best.db_index):
            best = res
    if best is None:
        raise DegenerateClusteringError("every k in the range produced a degenerate clustering")
    return best


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
