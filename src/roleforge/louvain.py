"""Community detection by greedy optimization of directed modularity.

The quality function is the Leicht-Newman directed modularity

    Q = (1/w) * sum_{u,v} [A_uv - s_out(u) * s_in(v) / w] * delta(c_u, c_v)

with w the total arc weight (the arc count m on unweighted graphs) and
s_out/s_in the node strengths.  The optimizer is the classic two-phase
local-move / contract loop, run to convergence.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedModularityError
from .graph import DirectedGraph, _summed_keys

ORDERS = ("natural", "shuffled")


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
    are built from the out-CSR, with no array of the arcs' sources, and
    `_summed_keys` sorts them once, carrying the weights, and sums each run
    of equal keys.  The weights are integers held as float64, so every sum
    is exact.  Beside the graph this holds the keys, their argsort and the
    sorted weights, about 24 bytes per arc.
    """
    _check_covers(g, p)
    a = p.assign
    if a.size and (a.min() < 0 or a.max() >= p.n_comms):
        raise ValueError(f"partition label outside [0, {p.n_comms})")
    span = max(p.n_comms, 1)
    keys = np.repeat(a * span, g.out_degrees)
    keys += a[g.out_indices]
    keys, weights = _summed_keys(keys, g.out_weights)
    return DirectedGraph._from_keys(keys, span, np.arange(p.n_comms, dtype=np.int64), weights)


def _int_weights(w: np.ndarray) -> np.ndarray:
    """Arc weights as int64: a zero-stride view of one weight, as a unit-weight
    graph holds, stays a view; any other weight array is copied."""
    if w.size and w.strides == (0,):
        return np.broadcast_to(np.int64(w[0]), w.shape)
    return w.astype(np.int64)


def _local_move_phase(g: DirectedGraph, min_gain: float, rng) -> tuple[list[int], int, int]:
    """Greedy node relocation sweeps until no move improves Q by more than min_gain.

    Returns (community label per node, sweeps run, moves made).  The gain of
    moving u into community C, with u detached from its own community, is

        (w(u->C) + w(C->u)) / w - (s_out(u) * S_in(C) + s_in(u) * S_out(C)) / w^2

    which equals the exact from-scratch change of Q between the two
    assignments.  Equal-gain targets resolve to the lowest community id.

    A node's link weights w(u->C) + w(C->u) (self-loops excluded) are split
    in two: its own community's in `own[u]`, every other community's in a
    dict {C: weight}.  The first sweep builds each node's dict from its arcs
    and drops it.  From the second sweep on a node keeps its dict after its
    first evaluation, and every move updates the kept weights of the mover
    and its neighbours: a weight to a neighbour's own community goes to
    `own`, and the mover's own weight becomes its weight to the target, the
    community it left entering its dict.  A kept weight that falls to 0 is
    set to 0 in place, and the node's dict is rebuilt without its zeros at
    its next evaluation, before any scan.  CPython never shrinks a dict on
    deletion and regrows one that sees deletes and inserts to 3x its used
    slots, so deleting at once let a churned dict hold several times its
    live entries; a rebuilt dict holds only them.  So no scan ever sees a
    zero or the node's own community, and the candidates are exactly the
    other communities with a neighbour.

    Arc weights are positive integers (ingest gives 1, aggregation sums
    them) and are summed as Python ints, so every sum is exact and
    order-free: the kept weights equal from-scratch sums, and with a total
    weight of at most 2^53 each converts to float64 without rounding.

    The scan is skipped when x / w <= stay_gain for the largest kept weight
    x.  That is exact: with P = s_out(u) * S_in(C) + s_in(u) * S_out(C) >= 0,
    a candidate's gain fl(fl(x_C / w) - fl(P / w^2)) is at most fl(x_C / w),
    since rounding is monotone and fl(x_C / w) is a float, and fl(x_C / w)
    <= fl(x / w) since division by w > 0 is monotone too.  So no candidate
    beats staying, and an equal gain never moves a node.

    No list of length m is built; each node's arcs are read as slices of
    the CSR arrays.  Unit weights are read through an int64 zero-stride
    view, not a copy, and the indptrs and node strengths are flat arrays of
    8 bytes per node, so beside the graph the phase holds, per arc, only
    the kept link dicts.  The community strengths S_out and S_in stay
    lists: they are read for every candidate, and flat arrays, which box a
    new float on each read, made the phase 8% slower.
    """
    n = g.n
    w = g.total_weight
    w2 = w * w
    out_ptr = array("q", g.out_indptr.tobytes())
    in_ptr = array("q", g.in_indptr.tobytes())
    out_idx = g.out_indices
    in_idx = g.in_indices
    out_w = _int_weights(g.out_weights)
    # unit-weight graphs share one weight view between both sides
    in_w = out_w if g.in_weights is g.out_weights else _int_weights(g.in_weights)
    s_out = array("d", g.out_strengths.tobytes())
    s_in = array("d", g.in_strengths.tobytes())

    def arcs(u):
        """Neighbours and weights of u's out-arcs, then its in-arcs."""
        a, b = out_ptr[u], out_ptr[u + 1]
        c, d = in_ptr[u], in_ptr[u + 1]
        return zip(out_idx[a:b].tolist() + in_idx[c:d].tolist(),
                   out_w[a:b].tolist() + in_w[c:d].tolist())

    assign = list(range(n))
    S_out = s_out.tolist()
    S_in = s_in.tolist()
    links: list[dict[int, int] | None] = [None] * n
    own = [0] * n
    stale = bytearray(n)  # stale[u]: u's kept dict holds a zero
    sweeps = total_moves = 0
    while True:
        sweep = range(n) if rng is None else rng.permutation(n).tolist()
        sweeps += 1
        moves = 0
        for u in sweep:
            cu = assign[u]
            link = links[u]
            if link is None:
                link = {}
                for v, x in arcs(u):
                    if v != u:
                        c = assign[v]
                        link[c] = link.get(c, 0) + x
                x_own = link.pop(cu, 0)
                if sweeps > 1:
                    links[u] = link
                    own[u] = x_own
            else:
                x_own = own[u]
                if stale[u]:
                    link = links[u] = {c: x for c, x in link.items() if x}
                    stale[u] = 0
            so = s_out[u]
            si = s_in[u]
            S_out[cu] -= so
            S_in[cu] -= si
            stay_gain = x_own / w - (so * S_in[cu] + si * S_out[cu]) / w2
            best_c = cu
            best_gain = stay_gain
            if link and max(link.values()) / w > stay_gain:
                for c, x in link.items():
                    gain = x / w - (so * S_in[c] + si * S_out[c]) / w2
                    if gain > best_gain or (gain == best_gain and c < best_c):
                        best_gain = gain
                        best_c = c
            if best_c != cu and best_gain - stay_gain > min_gain:
                assign[u] = best_c
                S_out[best_c] += so
                S_in[best_c] += si
                moves += 1
                if sweeps > 1:
                    own[u] = link[best_c]
                    link[best_c] = 0
                    stale[u] = 1
                    if x_own:
                        link[cu] = x_own
                    for v, x in arcs(u):
                        lv = links[v]
                        if lv is not None and v != u:
                            cv = assign[v]
                            if cv == cu:
                                own[v] -= x
                            else:
                                left = lv[cu] - x
                                lv[cu] = left
                                if not left:
                                    stale[v] = 1
                            if cv == best_c:
                                own[v] += x
                            else:
                                lv[best_c] = lv.get(best_c, 0) + x
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
    if g.m == 0:
        raise UndefinedModularityError("cannot run community detection on a graph with no arcs")
    if order not in ORDERS:
        raise ValueError("order must be 'natural' or 'shuffled'")
    if not min_gain >= 0:
        raise ValueError("min_gain must be non-negative")
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
