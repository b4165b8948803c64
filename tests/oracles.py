"""Naive reference implementations used as independent oracles.

Everything here works on plain edge lists (list of (u, v) pairs), integer
label lists, and Python dicts/sets, enumerating arcs directly.  Nothing is
shared with the package's CSR/vectorized code paths.  The k-means oracle is
the exception: it keeps the straightforward n x k NumPy form of the Lloyd
step, because the package must reproduce its arithmetic bit for bit; its
k-means++ and sample draws are plain Python loops over `random()`.  The
edge-list oracle is the other one: it is the per-line text-mode reader, and
builds its graph with the package's `DirectedGraph.from_arcs`, counting
the dropped self-loops and duplicate arcs itself.  The
local-move oracle is the sweep loop that recomputes every node's
neighbour-community weights from its arcs on each visit.  The
planted-partition oracle draws its arcs on its own, with no planted
accounts in the loop, and returns them for `from_arcs`.
"""

import logging
import random
from array import array
from math import sqrt

import numpy as np

from roleforge.errors import EdgeListParseError, RoleForgeError
from roleforge.graph import DirectedGraph, check_direction


def neighbor_lists(edges, n):
    out_nb = [[] for _ in range(n)]
    in_nb = [[] for _ in range(n)]
    for u, v in edges:
        out_nb[u].append(v)
        in_nb[v].append(u)
    return out_nb, in_nb


def oracle_degrees(edges, n, u):
    k_in = sum(1 for a, b in edges if b == u)
    k_out = sum(1 for a, b in edges if a == u)
    return k_in, k_out, k_in + k_out


def _pop_std(values):
    if not values:
        return 0.0
    mu = sum(values) / len(values)
    return sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def oracle_profile(edges, n, assign):
    """Per node: dict of k_int/k_ext/eps/lam for both directions; lam is the
    spread of the link counts over the external communities reached."""
    out_nb, in_nb = neighbor_lists(edges, n)
    prof = []
    for u in range(n):
        entry = {}
        for direction, nbrs in (("out", out_nb[u]), ("in", in_nb[u])):
            k_int = sum(1 for v in nbrs if assign[v] == assign[u])
            ext_counts = {}
            for v in nbrs:
                if assign[v] != assign[u]:
                    ext_counts[assign[v]] = ext_counts.get(assign[v], 0) + 1
            entry[direction] = {
                "k_int": k_int,
                "k_ext": len(nbrs) - k_int,
                "eps": len(ext_counts),
                "lam": _pop_std(list(ext_counts.values())),
            }
        prof.append(entry)
    return prof


def oracle_z(values, assign):
    n = len(values)
    z = [0.0] * n
    for c in set(assign):
        members = [u for u in range(n) if assign[u] == c]
        vals = [values[u] for u in members]
        if min(vals) == max(vals):
            continue
        sd = _pop_std(vals)
        mu = sum(vals) / len(vals)
        for u in members:
            z[u] = (values[u] - mu) / sd
    return z


def oracle_measures(edges, n, assign):
    """n x 8 rows in the order I_int_out, I_int_in, D_out, D_in, I_ext_out,
    I_ext_in, H_out, H_in."""
    prof = oracle_profile(edges, n, assign)
    raw_cols = []
    for direction_field in (("out", "k_int"), ("in", "k_int"), ("out", "eps"), ("in", "eps"),
                            ("out", "k_ext"), ("in", "k_ext"), ("out", "lam"), ("in", "lam")):
        d, f = direction_field
        raw_cols.append([prof[u][d][f] for u in range(n)])
    z_cols = [oracle_z(col, assign) for col in raw_cols]
    return [[z_cols[j][u] for j in range(8)] for u in range(n)]


def oracle_embeddedness(edges, n, assign, u, direction="total"):
    out_nb, in_nb = neighbor_lists(edges, n)
    nbrs = []
    if direction in ("out", "total"):
        nbrs += out_nb[u]
    if direction in ("in", "total"):
        nbrs += in_nb[u]
    if not nbrs:
        return None
    return sum(1 for v in nbrs if assign[v] == assign[u]) / len(nbrs)


def oracle_participation(edges, n, assign, u):
    out_nb, in_nb = neighbor_lists(edges, n)
    nbrs = out_nb[u] + in_nb[u]
    if not nbrs:
        return 0.0
    counts = {}
    for v in nbrs:
        counts[assign[v]] = counts.get(assign[v], 0) + 1
    return 1.0 - sum((c / len(nbrs)) ** 2 for c in counts.values())


def oracle_overlap(edges, n, u):
    out_nb, in_nb = neighbor_lists(edges, n)
    sin, sout = set(in_nb[u]), set(out_nb[u])
    lo = min(len(sin), len(sout))
    if lo == 0:
        return 0.0
    return len(sin & sout) / lo


def oracle_ratio(edges, n, u):
    k_in, k_out, _ = oracle_degrees(edges, n, u)
    if k_in == 0:
        return None
    return k_out / k_in


def oracle_node_stats(edges, n, assign):
    """Per node: (embeddedness or None, participation, overlap, ratio or None).

    Single pass over prebuilt neighbor lists; counting stays per-node and
    dict-based.
    """
    out_nb, in_nb = neighbor_lists(edges, n)
    stats = []
    for u in range(n):
        nbrs = out_nb[u] + in_nb[u]
        if nbrs:
            k_int = sum(1 for v in nbrs if assign[v] == assign[u])
            emb = k_int / len(nbrs)
            counts = {}
            for v in nbrs:
                counts[assign[v]] = counts.get(assign[v], 0) + 1
            part = 1.0 - sum((c / len(nbrs)) ** 2 for c in counts.values())
        else:
            emb = None
            part = 0.0
        sin, sout = set(in_nb[u]), set(out_nb[u])
        lo = min(len(sin), len(sout))
        overlap = len(sin & sout) / lo if lo else 0.0
        rt = len(out_nb[u]) / len(in_nb[u]) if in_nb[u] else None
        stats.append((emb, part, overlap, rt))
    return stats


def oracle_modularity(edges, n, assign, weights=None):
    """Direct evaluation of the directed modularity double sum."""
    w = weights if weights is not None else [1.0] * len(edges)
    total = sum(w)
    s_out = [0.0] * n
    s_in = [0.0] * n
    internal = 0.0
    for (u, v), wt in zip(edges, w):
        s_out[u] += wt
        s_in[v] += wt
        if assign[u] == assign[v]:
            internal += wt
    expected = 0.0
    for u in range(n):
        for v in range(n):
            if assign[u] == assign[v]:
                expected += s_out[u] * s_in[v]
    return internal / total - expected / (total * total)


def all_partitions(n):
    """Every set partition of range(n) as a label tuple (restricted growth strings)."""
    def rec(i, labels, top):
        if i == n:
            yield tuple(labels)
            return
        for c in range(top + 2):
            labels.append(c)
            yield from rec(i + 1, labels, max(top, c))
            labels.pop()

    if n == 0:
        yield ()
        return
    yield from rec(0, [], -1)


def oracle_best_partition(edges, n):
    """(best Q, best labels) by exhaustive search; only feasible for small n."""
    best_q = None
    best_labels = None
    for labels in all_partitions(n):
        q = oracle_modularity(edges, n, list(labels))
        if best_q is None or q > best_q:
            best_q, best_labels = q, labels
    return best_q, best_labels


def oracle_local_move_phase(g: DirectedGraph, min_gain: float, rng) -> tuple[bool, list[int]]:
    """Greedy node relocation sweeps until no move improves Q by more than min_gain.

    Returns (whether any move happened, community label per node).  The gain
    of moving u into community C, with u detached from its own community, is

        (w(u->C) + w(C->u)) / w - (s_out(u) * S_in(C) + s_in(u) * S_out(C)) / w^2

    which equals the exact from-scratch change of Q between the two
    assignments.  Equal-gain targets resolve to the lowest community id.
    """
    n = g.n
    w = g.total_weight
    w2 = w * w
    out_ptr = g.out_indptr.tolist()
    out_idx = g.out_indices.tolist()
    out_w = g.out_weights.tolist()
    in_ptr = g.in_indptr.tolist()
    in_idx = g.in_indices.tolist()
    in_w = g.in_weights.tolist()
    s_out = g.out_strengths.tolist()
    s_in = g.in_strengths.tolist()

    assign = list(range(n))
    S_out = s_out.copy()
    S_in = s_in.copy()
    natural = list(range(n))
    moved_any = False
    while True:
        sweep = natural if rng is None else rng.permutation(n).tolist()
        moves = 0
        for u in sweep:
            cu = assign[u]
            link: dict[int, float] = {}
            for i in range(out_ptr[u], out_ptr[u + 1]):
                v = out_idx[i]
                if v != u:
                    c = assign[v]
                    link[c] = link.get(c, 0.0) + out_w[i]
            for i in range(in_ptr[u], in_ptr[u + 1]):
                v = in_idx[i]
                if v != u:
                    c = assign[v]
                    link[c] = link.get(c, 0.0) + in_w[i]
            so = s_out[u]
            si = s_in[u]
            S_out[cu] -= so
            S_in[cu] -= si
            stay_gain = link.get(cu, 0.0) / w - (so * S_in[cu] + si * S_out[cu]) / w2
            best_c = cu
            best_gain = stay_gain
            for c in sorted(link):
                if c == cu:
                    continue
                gain = link[c] / w - (so * S_in[c] + si * S_out[c]) / w2
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            if best_c != cu and best_gain - stay_gain > min_gain:
                assign[u] = best_c
                S_out[best_c] += so
                S_in[best_c] += si
                moves += 1
            else:
                S_out[cu] += so
                S_in[cu] += si
        if moves == 0:
            break
        moved_any = True
    return moved_any, assign


def oracle_davies_bouldin(points, assign, centroids):
    """Direct evaluation: mean within-group distance over centroid distance."""
    k = len(centroids)
    dim = len(centroids[0])
    scatter = []
    for c in range(k):
        members = [p for p, a in zip(points, assign) if a == c]
        dists = [sqrt(sum((x[j] - centroids[c][j]) ** 2 for j in range(dim))) for x in members]
        scatter.append(sum(dists) / len(dists))
    total = 0.0
    for i in range(k):
        worst = 0.0
        for j in range(k):
            if i == j:
                continue
            sep = sqrt(sum((centroids[i][d] - centroids[j][d]) ** 2 for d in range(dim)))
            worst = max(worst, (scatter[i] + scatter[j]) / sep)
        total += worst
    return total / k


def oracle_stream(name):
    """The generator of the stream of k-means draws `name`: random.Random
    seeded with the string, version 2."""
    rng = random.Random()
    rng.seed(name, version=2)
    return rng


def _oracle_init_centroids(x, k, rng):
    """k-means++ rows from rng.random() alone: the first is row floor(u * n),
    each later one the first row whose running sum of squared distances
    exceeds u times their total (else the last row of positive weight), or
    the first row not yet chosen when every distance is 0."""
    n = x.shape[0]
    chosen = [int(rng.random() * n)]
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1).tolist()
    for _ in range(1, k):
        running, total = [], 0.0
        for w in d2:
            total += w
            running.append(total)
        if total > 0:
            target = rng.random() * total
            above = [i for i in range(n) if running[i] > target]
            idx = above[0] if above else max(i for i in range(n) if d2[i] > 0)
        else:
            idx = min(set(range(n)) - set(chosen))
        chosen.append(idx)
        d2 = [min(a, b) for a, b in zip(d2, ((x - x[idx]) ** 2).sum(axis=1).tolist())]
    return x[chosen].copy()


def oracle_sample_positions(n, size, seed):
    """The sorted positions, among n rows in canonical order, that the sample
    of `size` rows at `seed` takes: Floyd's algorithm, each t drawn as
    floor(u * (j + 1))."""
    rng = oracle_stream(f"k-means seed {seed} sample")
    taken = []
    for j in range(n - size, n):
        t = int(rng.random() * (j + 1))
        taken.append(j if t in taken else t)
    return sorted(taken)


def _oracle_assign_step(x, x_sq, c):
    d = x_sq[:, None] + (c * c).sum(axis=1)[None, :] - 2.0 * (x @ c.T)
    np.maximum(d, 0.0, out=d)
    assign = d.argmin(axis=1)
    return assign, d[np.arange(x.shape[0]), assign]


def _oracle_repair_empty(x, c, assign, point_d, counts):
    changed = False
    for empty in np.flatnonzero(counts == 0):
        far = int(point_d.argmax())
        counts[assign[far]] -= 1
        assign[far] = empty
        counts[empty] += 1
        c[empty] = x[far]
        point_d[far] = 0.0
        changed = True
    return changed


def _oracle_lloyd(x, k, rng, max_iter, tol):
    x_sq = (x * x).sum(axis=1)
    c = _oracle_init_centroids(x, k, rng)
    trace = []
    for _ in range(max_iter):
        assign, point_d = _oracle_assign_step(x, x_sq, c)
        counts = np.bincount(assign, minlength=k)
        _oracle_repair_empty(x, c, assign, point_d, counts)
        trace.append(float(point_d.sum()))
        idx = np.argsort(assign, kind="stable")
        bounds = np.searchsorted(assign[idx], np.arange(k))
        sums = np.add.reduceat(x[idx], bounds, axis=0)
        new_c = sums / counts[:, None]
        shift = np.sqrt(((new_c - c) ** 2).sum(axis=1)).max()
        c = new_c
        if shift < tol:
            break
    assign, point_d = _oracle_assign_step(x, x_sq, c)
    for _ in range(k):
        counts = np.bincount(assign, minlength=k)
        if not _oracle_repair_empty(x, c, assign, point_d, counts):
            break
        assign, point_d = _oracle_assign_step(x, x_sq, c)
    trace.append(float(point_d.sum()))
    return assign, c, float(point_d.sum()), tuple(trace)


def oracle_kmeans(mat, k, seed=0, max_iter=100, tol=1e-6, restarts=10):
    """(assign, centroids, inertia, inertia_trace) of seeded k-means.

    The Lloyd step in its direct row-major form: an n x k distance matrix,
    a per-row argmin (ties to the lowest group id), and centroid sums by
    `np.add.reduceat` over the rows stably sorted by int64 label.  Restarts,
    seeding and the canonical row order follow `roleforge.clustering.kmeans`.
    """
    x = np.asarray(mat, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    order = np.lexsort(x.T[::-1])
    xc = x[order]
    best = None
    for r in range(restarts):
        rng = oracle_stream(f"k-means seed {seed} restart {r}")
        assign_c, c, inertia, trace = _oracle_lloyd(xc, k, rng, max_iter, tol)
        if best is None or inertia < best[2]:
            best = (assign_c, c, inertia, trace)
    assign_c, c, inertia, trace = best
    assign = np.empty(x.shape[0], dtype=np.int64)
    assign[order] = assign_c
    return assign, c, inertia, trace


def oracle_load_edge_list(path, convention="src-follows-dst"):
    """`roleforge.graph.load_edge_list` as a loop over the lines of a text-mode
    file, read as utf-8-sig: a leading byte-order mark is skipped.  A data
    line holding a character other than printable ASCII and tab, or an "_",
    is a non-integer field."""
    check_direction(convention)
    srcs, dsts = array("q"), array("q")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line_no, raw in enumerate(fh, 1):
                s = raw.strip()
                if not s or s[0] in "#%":
                    continue
                if any(not " " <= ch <= "~" and ch != "\t" or ch == "_" for ch in raw.removesuffix("\n")):
                    raise EdgeListParseError(line_no, f"non-integer field in {s!r}")
                parts = s.split()
                if len(parts) != 2:
                    raise EdgeListParseError(line_no, f"expected two integers, got {len(parts)} field(s)")
                try:
                    a, b = int(parts[0]), int(parts[1])
                except ValueError:
                    raise EdgeListParseError(line_no, f"non-integer field in {s!r}") from None
                if a < 0 or b < 0:
                    raise EdgeListParseError(line_no, "negative node id")
                try:
                    srcs.append(a)
                    dsts.append(b)
                except OverflowError:
                    raise EdgeListParseError(line_no, "node id above 2**63 - 1") from None
    except UnicodeDecodeError as exc:
        raise RoleForgeError(f"{path} is not UTF-8 text ({exc.reason})") from None
    if convention == "dst-follows-src":
        srcs, dsts = dsts, srcs
    m = len(srcs)
    ids, dense = np.unique(np.concatenate([np.frombuffer(srcs, dtype=np.int64),
                                           np.frombuffer(dsts, dtype=np.int64)]), return_inverse=True)
    loops = sum(a == b for a, b in zip(srcs, dsts))
    dups = m - loops - len({(a, b) for a, b in zip(srcs, dsts) if a != b})
    if loops or dups:
        logging.getLogger("roleforge.graph").warning(
            "ingest dropped %d self-loop(s) and %d duplicate arc(s)", loops, dups)
    return DirectedGraph.from_arcs(dense[:m], dense[m:], n=ids.size, node_ids=ids)


def oracle_planted_partition_arcs(n_comms, comm_size, intra_out=8, inter_out=2, seed=0):
    """(src, dst, labels) of a planted-partition draw: every node draws
    intra_out targets inside its community, then every node inter_out
    targets anywhere, all from one default_rng(seed)."""
    n = n_comms * comm_size
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_comms), comm_size)
    src_intra = np.repeat(np.arange(n), intra_out)
    dst_intra = labels[src_intra] * comm_size + rng.integers(0, comm_size, size=src_intra.size)
    src_inter = np.repeat(np.arange(n), inter_out)
    dst_inter = rng.integers(0, n, size=src_inter.size)
    return np.concatenate([src_intra, src_inter]), np.concatenate([dst_intra, dst_inter]), labels
