"""Immutable directed graphs stored as dual (out and in) CSR adjacency."""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EdgeListParseError, RoleForgeError

log = logging.getLogger(__name__)

CONVENTIONS = ("src-follows-dst", "dst-follows-src")
DIRECTIONS = ("in", "out")


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph with per-node sorted neighbor lists in both directions.

    Arc u->v means u follows v: v is an out-neighbor (followee) of u and u is
    an in-neighbor (follower) of v.  Instances are immutable after
    construction.

    Ingested graphs are simple: no self-loops, no duplicate arcs, unit
    weights.  Weighted arcs and self-loops occur only in graphs produced by
    community aggregation.
    """

    n: int
    m: int
    out_indptr: np.ndarray
    out_indices: np.ndarray
    out_weights: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    in_weights: np.ndarray
    node_ids: np.ndarray  # dense id -> original id

    @classmethod
    def from_arcs(cls, src, dst, n, *, weights=None, node_ids=None, simple=True) -> "DirectedGraph":
        """Build a graph from parallel arc endpoint arrays.

        With simple=True (the ingest path) self-loops and duplicate arcs are
        dropped with a counted warning and every kept arc gets weight 1.
        With simple=False (the aggregation path) self-loops are kept and the
        weights of coincident arcs are summed.
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        n = int(n)
        if n < 0:
            raise ValueError("n must be non-negative")
        if src.size:
            if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n:
                raise ValueError("arc endpoint outside [0, n)")
        span = max(n, 1)
        arcs_in = src.size
        if simple and not (keep := src != dst).all():
            src, dst = src[keep], dst[keep]
        uniq, inv = np.unique(src * span + dst, return_inverse=True)
        if simple:
            loops, dups = arcs_in - src.size, src.size - uniq.size
            if loops or dups:
                log.warning("ingest dropped %d self-loop(s) and %d duplicate arc(s)", loops, dups)
            w = np.ones(uniq.size, dtype=np.float64)
        else:
            w0 = np.ones(src.size) if weights is None else np.asarray(weights, dtype=np.float64).ravel()
            w = np.bincount(inv, weights=w0, minlength=uniq.size)
        src, dst = uniq // span, uniq % span

        # np.unique sorted by (src, dst), so this is a valid sorted out-CSR.
        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=out_indptr[1:])
        order = np.lexsort((src, dst))
        in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=in_indptr[1:])
        ids = np.arange(n, dtype=np.int64) if node_ids is None else np.asarray(node_ids, dtype=np.int64)
        if ids.shape[0] != n:
            raise ValueError("node_ids must have length n")
        return cls(
            n=n,
            m=int(src.size),
            out_indptr=out_indptr,
            out_indices=dst,
            out_weights=w,
            in_indptr=in_indptr,
            in_indices=src[order],
            in_weights=w[order],
            node_ids=ids,
        )

    def out_neighbors(self, u: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[u]:self.out_indptr[u + 1]]

    def in_neighbors(self, u: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[u]:self.in_indptr[u + 1]]

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_indptr)

    @cached_property
    def arc_src(self) -> np.ndarray:
        """Source node of every arc, in out-CSR order."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees)

    @cached_property
    def in_arc_dst(self) -> np.ndarray:
        """Target node of every arc, in in-CSR order."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.in_degrees)

    @cached_property
    def out_strengths(self) -> np.ndarray:
        return np.bincount(self.arc_src, weights=self.out_weights, minlength=self.n)

    @cached_property
    def in_strengths(self) -> np.ndarray:
        return np.bincount(self.out_indices, weights=self.out_weights, minlength=self.n)

    @cached_property
    def total_weight(self) -> float:
        return float(self.out_weights.sum())

    def transpose(self) -> "DirectedGraph":
        """Graph with every arc reversed (followers and followees swapped)."""
        return DirectedGraph(
            n=self.n,
            m=self.m,
            out_indptr=self.in_indptr,
            out_indices=self.in_indices,
            out_weights=self.in_weights,
            in_indptr=self.out_indptr,
            in_indices=self.out_indices,
            in_weights=self.out_weights,
            node_ids=self.node_ids,
        )


def load_edge_list(path, convention: str = "src-follows-dst") -> DirectedGraph:
    """Read a directed graph from a two-integers-per-line text file.

    Lines starting with '#' or '%' and blank lines are skipped.  Under the
    default convention a line "a b" yields the arc a->b (a follows b);
    "dst-follows-src" reverses this.  Node ids may be arbitrary non-negative
    integers; they are remapped to dense ids [0, n) in ascending order and
    the original ids are kept on the graph for reporting.

    Raises EdgeListParseError (with the line number) on malformed lines and
    RoleForgeError on a file that is not UTF-8 text.  An empty file yields
    the empty graph, not an error.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    srcs, dsts = array("q"), array("q")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                s = raw.strip()
                if not s or s[0] in "#%":
                    continue
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
    return DirectedGraph.from_arcs(dense[:m], dense[m:], n=ids.size, node_ids=ids)


def save_edge_list(g: DirectedGraph, path) -> None:
    """Write the canonical edge list: arcs sorted by endpoints, original ids."""
    ids = g.node_ids
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in zip(g.arc_src.tolist(), g.out_indices.tolist()):
            fh.write(f"{ids[u]} {ids[v]}\n")


def degrees(g: DirectedGraph, u: int) -> tuple[int, int, int]:
    """(k_in, k_out, k_total) of node u."""
    if not 0 <= u < g.n:
        raise IndexError(f"node {u} out of range for a graph with {g.n} nodes")
    k_in = int(g.in_indptr[u + 1] - g.in_indptr[u])
    k_out = int(g.out_indptr[u + 1] - g.out_indptr[u])
    return k_in, k_out, k_in + k_out


def community_link_counts(g: DirectedGraph, u: int, partition, direction: str) -> dict[int, int]:
    """Arc counts of u's neighbors in `direction`, grouped by neighbor community.

    Communities receiving no link are absent from the returned mapping, so
    the values always sum to u's degree in that direction.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    if not 0 <= u < g.n:
        raise IndexError(f"node {u} out of range for a graph with {g.n} nodes")
    if partition.assign.shape[0] != g.n:
        raise ValueError("partition does not cover the graph")
    nbrs = g.out_neighbors(u) if direction == "out" else g.in_neighbors(u)
    comms, counts = np.unique(partition.assign[nbrs], return_counts=True)
    return {int(c): int(k) for c, k in zip(comms, counts)}
