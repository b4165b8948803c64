"""Community detection by greedy optimization of directed modularity.

The quality function is the Leicht-Newman directed modularity

    Q = (1/w) * sum_{u,v} [A_uv - s_out(u) * s_in(v) / w] * delta(c_u, c_v)

with w the total arc weight (the arc count m on unweighted graphs) and
s_out/s_in the node strengths.  The optimizer is the classic two-phase
local-move / contract loop, run to convergence.
"""

from __future__ import annotations

from array import array
from collections import _count_elements
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigError, UndefinedModularityError, check_finite, check_seed
from .graph import DirectedGraph, _run_starts, _summed_keys

ORDERS = ("natural", "shuffled")


def check_louvain_params(min_gain: float, order: str) -> None:
    """The rules of the `min_gain` and `order` keys."""
    check_finite("min_gain", min_gain)
    if min_gain < 0:
        raise ConfigError(f"min_gain must be non-negative, got {min_gain!r}")
    if order not in ORDERS:
        raise ConfigError(f"order must be one of {', '.join(ORDERS)}, got {order!r}")


@dataclass(frozen=True)
class Partition:
    """Node -> community assignment with contiguous, non-empty community ids."""

    assign: np.ndarray
    n_comms: int

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Partition from arbitrary integer labels, renumbered to [0, n_comms)."""
        labels = np.asarray(labels, dtype=np.int64)
        uniq, dense = np.unique(labels, return_inverse=True)
        return cls(assign=dense.astype(np.int64, copy=False), n_comms=int(uniq.size))

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assign, minlength=self.n_comms)

    def covers(self, g: DirectedGraph) -> bool:
        return self.assign.shape[0] == g.n


@dataclass
class LouvainTrace:
    """Per-pass diagnostics: node-level modularity, local-move sweeps and moves."""

    modularity: list[float]
    sweeps: list[int]
    moves: list[int]


def _check_covers(g: DirectedGraph, p: Partition) -> None:
    if not p.covers(g):
        raise ValueError(f"partition covers {p.assign.shape[0]} nodes, graph has {g.n}")


def directed_modularity(g: DirectedGraph, p: Partition) -> float:
    """Directed modularity of a partition, in [-1, 1].

    Self-loop weight (present only on aggregated graphs) counts once in the
    arc term and once in each strength, which makes the value invariant
    under community contraction.
    """
    if g.m == 0:
        raise UndefinedModularityError("modularity is undefined for a graph with no arcs")
    _check_covers(g, p)
    w = g.total_weight
    a = p.assign
    # the sources' labels are a temporary: a cached arc_src would hold 8 B/arc for the run
    internal = np.repeat(a, g.out_degrees) == a[g.out_indices]
    internal_w = float(g.out_weights[internal].sum())
    s_out_c = np.bincount(a, weights=g.out_strengths, minlength=p.n_comms)
    s_in_c = np.bincount(a, weights=g.in_strengths, minlength=p.n_comms)
    return internal_w / w - float(s_out_c @ s_in_c) / (w * w)


def aggregate_graph(g: DirectedGraph, p: Partition) -> DirectedGraph:
    """Contract each community to one node, summing arc weights.

    Internal weight becomes a self-loop on the community node; total weight
    is conserved.  The arcs' community keys assign[src] * span + assign[dst]
    are built from the out-CSR, with no array of the arcs' sources.  On a
    unit-weight graph the keys are sorted in place and each distinct key's
    weight is the length of its run: beside the graph this holds the keys
    and the labels of the arcs' heads, 16 bytes per arc.  A weighted graph's
    keys go through `_summed_keys`, which sorts them once, carrying the
    weights, and sums each run of equal keys: the keys, their argsort and
    the sorted weights, 24 bytes per arc.  The weights are integers held as
    float64, so every sum is exact.
    """
    _check_covers(g, p)
    a = p.assign
    if a.size and (a.min() < 0 or a.max() >= p.n_comms):
        raise ValueError(f"partition label outside [0, {p.n_comms})")
    span = max(p.n_comms, 1)
    keys = np.repeat(a * span, g.out_degrees)
    keys += a[g.out_indices]
    if (g.out_weights == 1).all():
        keys.sort()
        starts = np.flatnonzero(_run_starts(keys))
        weights = np.diff(starts, append=keys.size).astype(np.float64)
        keys = keys[starts]
    else:
        keys, weights = _summed_keys(keys, g.out_weights)
    return DirectedGraph._from_keys(keys, span, np.arange(p.n_comms, dtype=np.int64), weights)


def _local_move_phase(g: DirectedGraph, min_gain: float, rng) -> tuple[list[int], int, int]:
    """Greedy node relocation sweeps until no move improves Q by more than min_gain.

    Returns (community label per node, sweeps run, moves made).  The gain of
    moving u into community C, with u detached from its own community, is

        (w(u->C) + w(C->u)) / w - (s_out(u) * S_in(C) + s_in(u) * S_out(C)) / w^2

    which equals the exact from-scratch change of Q between the two
    assignments.  Equal-gain targets resolve to the lowest community id.

    Between evaluations no node keeps its link weights x_C = w(u->C) +
    w(C->u) (self-loops excluded), only two integers: `own[u]`, exactly
    x_cu for its own community cu, and `top[u]`, an upper bound on x_C over
    every other community C (at first u's out+in strength).  When u moves
    from cu to b, each arc between u and a neighbour v of weight x adds x
    to `own[v]` if v is in b; otherwise v's link to b grows by x, so x is
    added to `top[v]`, and taken from `own[v]` if v is in cu.  The mover's
    own weight becomes x_b, and its top the largest of its other weights,
    x_cu among them.

    Arc weights are positive integers (ingest gives 1, aggregation sums
    them) and are summed as Python ints, so every sum is exact and
    order-free: `own` equals from-scratch sums, and with a total weight of
    at most 2^53 each weight converts to float64 without rounding.

    An evaluation first computes the gain of staying from `own[u]` and
    skips u without reading its arcs when top[u] / w <= stay_gain.  That is
    exact: with P = s_out(u) * S_in(C) + s_in(u) * S_out(C) >= 0, a
    candidate's gain fl(fl(x_C / w) - fl(P / w^2)) is at most fl(x_C / w),
    since rounding is monotone and fl(x_C / w) is a float, and fl(x_C / w)
    <= fl(top[u] / w) since x_C <= top[u] and division by w > 0 is monotone
    too.  So no candidate beats staying, and an equal gain never moves a
    node.  Otherwise u's link weights are counted from its arcs into a
    dict that lives for this evaluation, `top[u]` becomes their exact
    maximum, and the same bound skips the scan or, within it, every
    candidate with fl(x_C / w) below the best gain so far.

    No list of length m is built; each node's arcs are read as slices of
    the CSR arrays.  On a unit-weight graph no weight is read: a node's
    link weights are counts, made by `collections._count_elements`, the C
    loop behind `Counter`; a weighted level reads int64 copies of its
    weights.  The indptrs and node strengths are flat arrays of 8 bytes
    per node, so beside the graph the phase holds only per-node lists and
    the link dict of the node under evaluation.  The community
    strengths S_out and S_in stay lists: they are read for every
    candidate, and flat arrays, which box a new float on each read, made
    the phase 8% slower.
    """
    n = g.n
    w = g.total_weight
    w2 = w * w
    out_ptr = array("q", g.out_indptr.tobytes())
    in_ptr = array("q", g.in_indptr.tobytes())
    out_idx = g.out_indices
    in_idx = g.in_indices
    # positive integer weights that sum to m are all 1: no weight is read
    unit = g.total_weight == g.m
    out_w = None if unit else g.out_weights.astype(np.int64)
    in_w = None if unit else g.in_weights.astype(np.int64)
    ones = repeat(1)
    s_out = array("d", g.out_strengths.tobytes())
    s_in = array("d", g.in_strengths.tobytes())

    def arcs(u):
        """Neighbours of u's out-arcs, then of its in-arcs, and their weights."""
        a, b = out_ptr[u], out_ptr[u + 1]
        c, d = in_ptr[u], in_ptr[u + 1]
        nbrs = out_idx[a:b].tolist() + in_idx[c:d].tolist()
        return nbrs, ones if unit else out_w[a:b].tolist() + in_w[c:d].tolist()

    assign = list(range(n))
    S_out = s_out.tolist()
    S_in = s_in.tolist()
    own = [0] * n
    top = (g.out_strengths + g.in_strengths).astype(np.int64).tolist()
    sweeps = total_moves = 0
    while True:
        sweep = range(n) if rng is None else rng.permutation(n).tolist()
        sweeps += 1
        moves = 0
        for u in sweep:
            cu = assign[u]
            so = s_out[u]
            si = s_in[u]
            S_out[cu] -= so
            S_in[cu] -= si
            x_own = own[u]
            stay_gain = x_own / w - (so * S_in[cu] + si * S_out[cu]) / w2
            best_c = cu
            best_gain = stay_gain
            if top[u] / w > stay_gain:
                nbrs, wts = arcs(u)
                link = {}
                if unit:
                    _count_elements(link, map(assign.__getitem__, nbrs))
                else:
                    for v, x in zip(nbrs, wts):
                        c = assign[v]
                        link[c] = link.get(c, 0) + x
                # u's own community, its self-loops included, is not a candidate
                link.pop(cu, None)
                top[u] = t = max(link.values(), default=0)
                if t / w > stay_gain:
                    for c, x in link.items():
                        gain = x / w
                        if gain >= best_gain:
                            gain -= (so * S_in[c] + si * S_out[c]) / w2
                            if gain > best_gain or (gain == best_gain and c < best_c):
                                best_gain = gain
                                best_c = c
            if best_c != cu and best_gain - stay_gain > min_gain:
                assign[u] = best_c
                S_out[best_c] += so
                S_in[best_c] += si
                moves += 1
                for v, x in zip(nbrs, wts):
                    cv = assign[v]
                    if cv == best_c:
                        own[v] += x
                    else:
                        top[v] += x
                        if cv == cu:
                            own[v] -= x
                # u's self-loops went to own[u] above; its own weight is set here
                own[u] = link.pop(best_c)
                top[u] = max(x_own, max(link.values(), default=0))
            else:
                S_out[cu] += so
                S_in[cu] += si
        total_moves += moves
        if moves == 0:
            return assign, sweeps, total_moves


def louvain_directed(
    g: DirectedGraph,
    *,
    min_gain: float = 1e-9,
    seed: int = 0,
    order: str = "natural",
) -> tuple[Partition, LouvainTrace]:
    """Two-phase community detection; returns the node-level partition and trace.

    order="natural" sweeps nodes in id order and is bit-reproducible;
    order="shuffled" draws a fresh seeded sweep order per pass.  Each pass
    runs local moves to convergence, records the node-level modularity, and
    contracts communities before the next pass.  A graph where no move
    improves Q returns the singleton partition after one pass.

    Arc weights must be positive integers summing to at most 2^53 (every
    ingested graph and its aggregates qualify); other weights raise
    ValueError, because the local moves rely on exact weight sums.
    """
    check_louvain_params(min_gain, order)
    check_seed(seed)
    if g.m == 0:
        raise UndefinedModularityError("cannot run community detection on a graph with no arcs")
    wts = g.out_weights
    if not ((wts > 0).all() and (wts == np.floor(wts)).all() and g.total_weight <= 2.0**53):
        raise ValueError("arc weights must be positive integers summing to at most 2^53")
    rng = np.random.default_rng(seed) if order == "shuffled" else None

    assign_full = np.arange(g.n, dtype=np.int64)
    level = g
    trace = LouvainTrace([], [], [])
    while True:
        labels, sweeps, moves = _local_move_phase(level, min_gain, rng)
        part = Partition.from_labels(labels)
        assign_full = part.assign[assign_full]
        flat = Partition(assign_full, part.n_comms)
        trace.modularity.append(directed_modularity(g, flat))
        trace.sweeps.append(sweeps)
        trace.moves.append(moves)
        if moves == 0 or part.n_comms == level.n:
            return flat, trace
        level = aggregate_graph(level, part)
