"""Community detection by greedy optimization of directed modularity.

The quality function is the Leicht-Newman directed modularity

    Q = (1/w) * sum_{u,v} [A_uv - s_out(u) * s_in(v) / w] * delta(c_u, c_v)

with w the total arc weight (the arc count m on unweighted graphs) and
s_out/s_in the node strengths.  The optimizer is the classic two-phase
local-move / contract loop, run to convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedModularityError
from .graph import DirectedGraph

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
    internal = a[g.arc_src] == a[g.out_indices]
    internal_w = float(g.out_weights[internal].sum())
    s_out_c = np.bincount(a, weights=g.out_strengths, minlength=p.n_comms)
    s_in_c = np.bincount(a, weights=g.in_strengths, minlength=p.n_comms)
    return internal_w / w - float(s_out_c @ s_in_c) / (w * w)


def aggregate_graph(g: DirectedGraph, p: Partition) -> DirectedGraph:
    """Contract each community to one node, summing arc weights.

    Internal weight becomes a self-loop on the community node; total weight
    is conserved.
    """
    _check_covers(g, p)
    return DirectedGraph.from_arcs(
        p.assign[g.arc_src],
        p.assign[g.out_indices],
        n=p.n_comms,
        weights=g.out_weights,
        simple=False,
    )


def _local_move_phase(g: DirectedGraph, min_gain: float, rng) -> tuple[list[int], int, int]:
    """Greedy node relocation sweeps until no move improves Q by more than min_gain.

    Returns (community label per node, sweeps run, moves made).  The gain of
    moving u into community C, with u detached from its own community, is

        (w(u->C) + w(C->u)) / w - (s_out(u) * S_in(C) + s_in(u) * S_out(C)) / w^2

    which equals the exact from-scratch change of Q between the two
    assignments.  Equal-gain targets resolve to the lowest community id.

    The first sweep computes each node's neighbour-community weights
    ({C: w(u->C) + w(C->u)}, self-loops excluded) from its arcs and drops
    them.  From the second sweep on a node keeps them after its first
    evaluation, and every move updates the kept weights of the mover's
    neighbours, deleting a community whose weight falls to 0.  Arc weights
    are positive integers (ingest gives 1, aggregation sums them) and are
    summed as Python ints, so every sum is exact and order-free: the kept
    weights equal from-scratch sums, the candidates are exactly the
    communities with a neighbour, and with a total weight of at most 2^53
    each weight converts to float64 without rounding.  No list of length m
    is built; each node's arcs are read as slices of the CSR arrays.
    """
    n = g.n
    w = g.total_weight
    w2 = w * w
    out_ptr = g.out_indptr.tolist()
    in_ptr = g.in_indptr.tolist()
    out_idx = g.out_indices
    in_idx = g.in_indices
    out_w = g.out_weights.astype(np.int64)
    in_w = g.in_weights.astype(np.int64)
    s_out = g.out_strengths.tolist()
    s_in = g.in_strengths.tolist()

    def arcs(u):
        """Neighbours and weights of u's out-arcs, then its in-arcs."""
        a, b = out_ptr[u], out_ptr[u + 1]
        c, d = in_ptr[u], in_ptr[u + 1]
        return zip(out_idx[a:b].tolist() + in_idx[c:d].tolist(),
                   out_w[a:b].tolist() + in_w[c:d].tolist())

    assign = list(range(n))
    S_out = s_out.copy()
    S_in = s_in.copy()
    links: list[dict[int, int] | None] = [None] * n
    natural = list(range(n))
    sweeps = total_moves = 0
    while True:
        sweep = natural if rng is None else rng.permutation(n).tolist()
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
                if sweeps > 1:
                    links[u] = link
            so = s_out[u]
            si = s_in[u]
            S_out[cu] -= so
            S_in[cu] -= si
            stay_gain = link.get(cu, 0) / w - (so * S_in[cu] + si * S_out[cu]) / w2
            best_c = cu
            best_gain = stay_gain
            for c, x in link.items():
                if c == cu:
                    continue
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
                    for v, x in arcs(u):
                        lv = links[v]
                        if lv is not None and v != u:
                            left = lv[cu] - x
                            if left == 0:
                                del lv[cu]
                            else:
                                lv[cu] = left
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
