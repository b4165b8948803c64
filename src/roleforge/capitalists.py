"""Detection and banding of reciprocal-follow (social capitalist) accounts.

Detection is purely topological: a node qualifies when its follower set and
followee set overlap heavily and its in-degree clears a floor.  Detected
accounts are then banded by in-degree and classified by the out/in degree
ratio: FMIFY accounts promise follow-backs (more followers than followees),
IFYFM accounts mass-follow hoping for follow-backs (ratio above 1), and
high-degree accounts with a low ratio are passive, having stopped the
strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph

IN_DEGREE_FLOOR = 500
LOW_BAND_MAX = 10000
PASSIVE_RATIO_MAX = 0.7

# every (band, behavior) slice, in report order
SLICES = (("low", "FMIFY"), ("low", "IFYFM"), ("high", "passive"), ("high", "FMIFY"), ("high", "IFYFM"))


@dataclass(frozen=True)
class CapitalistRecord:
    node: int
    k_in: int
    k_out: int
    overlap: float
    ratio: float
    band: str
    behavior: str


def overlap_index(g: DirectedGraph, u: int) -> float:
    """|followers ∩ followees| / min(|followers|, |followees|), 0 when a set is empty."""
    if not 0 <= u < g.n:
        raise IndexError(f"node {u} out of range for a graph with {g.n} nodes")
    nin = g.in_neighbors(u)
    nout = g.out_neighbors(u)
    lo = min(nin.size, nout.size)
    if lo == 0:
        return 0.0
    inter = np.intersect1d(nin, nout, assume_unique=True).size
    return inter / lo


def classify_ratio(k_in: int, r: float) -> tuple[str, str]:
    """(band, behavior) from the in-degree band and the out/in ratio.

    Bands partition the admissible in-degrees: low is [500, 10000], high is
    above 10000.  Low band: ratio < 1 is FMIFY, else IFYFM.  High band:
    ratio < 0.7 is passive, 0.7 <= ratio < 1 is FMIFY, ratio >= 1 is IFYFM.
    Boundaries are half-open ascending, so every (k_in, ratio) pair maps to
    exactly one class.
    """
    if k_in < IN_DEGREE_FLOOR:
        raise ValueError(f"classification requires in-degree >= {IN_DEGREE_FLOOR}, got {k_in}")
    if k_in <= LOW_BAND_MAX:
        return "low", ("FMIFY" if r < 1.0 else "IFYFM")
    if r < PASSIVE_RATIO_MAX:
        return "high", "passive"
    return "high", ("FMIFY" if r < 1.0 else "IFYFM")


def detect_capitalists(g: DirectedGraph, *, overlap_min: float = 0.8,
                       in_degree_min: int = IN_DEGREE_FLOOR) -> list[CapitalistRecord]:
    """All nodes with in-degree >= in_degree_min and overlap >= overlap_min.

    Records come back classified and sorted by descending in-degree (node id
    breaks ties).  Raising either threshold can only shrink the result.
    """
    if not 0.0 <= overlap_min <= 1.0:
        raise ValueError(f"overlap_min {overlap_min} outside [0, 1]")
    if in_degree_min < IN_DEGREE_FLOOR:
        raise ValueError(f"in_degree_min {in_degree_min} below the classification floor {IN_DEGREE_FLOOR}")
    records = []
    for u in np.flatnonzero(g.in_degrees >= in_degree_min).tolist():
        ov = overlap_index(g, u)
        if ov >= overlap_min:
            k_in = int(g.in_degrees[u])
            k_out = int(g.out_degrees[u])
            r = k_out / k_in
            band, behavior = classify_ratio(k_in, r)
            records.append(CapitalistRecord(u, k_in, k_out, ov, r, band, behavior))
    records.sort(key=lambda rec: (-rec.k_in, rec.node))
    return records


def crosstab(records, assign, k: int) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
    """Two percentage rows per (band, behavior) slice against k groups.

    `assign` holds the group, in [0, k), of every node a record may name.
    Row A is the share of the slice's accounts falling in each group (rows
    sum to 100 when the slice is non-empty); row B is the share of each
    group's nodes that belong to the slice.  Empty slices yield all-zero
    rows.
    """
    assign = np.asarray(assign)
    if assign.size and (assign.min() < 0 or assign.max() >= k):
        raise ValueError(f"group labels must lie in [0, {k})")
    group_sizes = np.bincount(assign, minlength=k).astype(np.float64)
    tables = {}
    for band, behavior in SLICES:
        nodes = [rec.node for rec in records if rec.band == band and rec.behavior == behavior]
        if nodes:
            counts = np.bincount(assign[np.asarray(nodes)], minlength=k).astype(np.float64)
        else:
            counts = np.zeros(k)
        total = counts.sum()
        row_a = counts / total * 100.0 if total > 0 else np.zeros(k)
        row_b = np.divide(counts, group_sizes, out=np.zeros(k), where=group_sizes > 0) * 100.0
        tables[(band, behavior)] = (row_a, row_b)
    return tables
