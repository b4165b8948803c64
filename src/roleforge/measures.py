"""Community-role measures over a directed graph and a partition.

Four per-node quantities are computed separately for out-links (followees)
and in-links (followers), then expressed as z-scores relative to the node's
own community:

  internal intensity  I_int = Z(k_int)    links kept inside the community
  diversity           D     = Z(eps)      distinct external communities reached
  external intensity  I_ext = Z(k_ext)    links leaving the community
  heterogeneity       H     = Z(lambda)   spread of the link counts over the
                                          external communities reached

All standard deviations are population ones: the community is the whole
population of interest.  Constant (or singleton) communities z-score to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph
from .stats import group_moments, group_z_scores

MEASURE_COLUMNS = ("I_int_out", "I_int_in", "D_out", "D_in", "I_ext_out", "I_ext_in", "H_out", "H_in")


@dataclass(frozen=True)
class NodeCommunityProfile:
    """Raw per-node connectivity counts relative to a partition (length-n arrays)."""

    k_int_out: np.ndarray
    k_ext_out: np.ndarray
    eps_out: np.ndarray
    lambda_out: np.ndarray
    k_int_in: np.ndarray
    k_ext_in: np.ndarray
    eps_in: np.ndarray
    lambda_in: np.ndarray
    link_sq: np.ndarray


def z_score_within_community(values, partition) -> np.ndarray:
    """Z-score of `values` relative to each node's community, by the rule of
    `stats.group_z_scores`: population sd, and a community whose values are
    all equal (a singleton included) z-scores to exactly 0."""
    if len(values) != partition.assign.shape[0]:
        raise ValueError("values must have one entry per node")
    return group_z_scores(values, partition.assign, partition.n_comms)


# community_profile works through node ranges of at most this many out- plus
# in-arcs (a node with more forms a range alone), so its temporaries stay
# O(slice) beside the length-n results.
_PROFILE_ARCS = 1 << 16


def _node_slices(arc_ends: np.ndarray, limit: int):
    """(lo, hi) node ranges covering [0, n) in order, each of at most `limit`
    arcs or of one node; `arc_ends` is the cumulative arc count per node, as
    an indptr is.  With n = 0 the one range is (0, 0)."""
    lo, n = 0, arc_ends.size - 1
    while True:
        hi = max(int(np.searchsorted(arc_ends, arc_ends[lo] + limit, side="right")) - 1, min(lo + 1, n))
        yield lo, hi
        if hi == n:
            return
        lo = hi


def _direction_profile(nbr, deg, own, assign, n_comms):
    """Profile fields of one arc direction for the nodes of a slice, plus its
    sorted external (slice node, community) keys and their link counts as
    floats.  `nbr` is the slice's neighbour column, `deg` and `own` the
    degree and community of each slice node."""
    n = own.size
    src = np.repeat(np.arange(n), deg)
    nbr_comm = assign[nbr]
    internal = nbr_comm == own[src]
    k_int = np.bincount(src[internal], minlength=n)
    k_ext = deg - k_int
    key = src[~internal] * np.int64(n_comms) + nbr_comm[~internal]
    uniq, counts = np.unique(key, return_counts=True)
    counts = counts.astype(np.float64)
    eps, _, ssd = group_moments(counts, uniq // n_comms, n)
    return k_int, k_ext, eps, np.sqrt(ssd / np.maximum(eps, 1)), uniq, counts


def community_profile(g: DirectedGraph, partition) -> NodeCommunityProfile:
    """Internal/external degree split, community reach, and spread per node.

    For each node and arc direction: k_int and k_ext partition the degree by
    the neighbor's community; eps counts the distinct external communities
    reached; lambda is the population standard deviation of the link counts
    over those eps communities (0 when eps is 0), so an external community
    the node never links to does not count.  link_sq sums, over every
    community, the square of the node's in- plus out-link count to it.
    """
    if partition.assign.shape[0] != g.n:
        raise ValueError("partition does not cover the graph")
    a = partition.assign
    nc = partition.n_comms
    parts = []
    for lo, hi in _node_slices(g.out_indptr + g.in_indptr, _PROFILE_ARCS):
        ko_int, ko_ext, eps_o, lam_o, keys_o, counts_o = _direction_profile(
            g.out_indices[g.out_indptr[lo]:g.out_indptr[hi]], g.out_degrees[lo:hi], a[lo:hi], a, nc)
        ki_int, ki_ext, eps_i, lam_i, keys_i, counts_i = _direction_profile(
            g.in_indices[g.in_indptr[lo]:g.in_indptr[hi]], g.in_degrees[lo:hi], a[lo:hi], a, nc)
        # both directions' external links per distinct (node, community) pair; every
        # sum here is of exact integers, so neither the slicing nor the summation
        # order can matter, and each pair falls in the one slice that holds its node
        pairs, inverse = np.unique(np.concatenate([keys_o, keys_i]), return_inverse=True)
        ext = np.bincount(inverse, weights=np.concatenate([counts_o, counts_i]))
        k_int = (ko_int + ki_int).astype(np.float64)
        link_sq = np.bincount(pairs // nc, weights=ext * ext, minlength=hi - lo) + k_int * k_int
        parts.append((ko_int, ko_ext, eps_o, lam_o, ki_int, ki_ext, eps_i, lam_i, link_sq))
    # the tuple follows the field order of NodeCommunityProfile
    return NodeCommunityProfile(*(np.concatenate(column) for column in zip(*parts)))


def measures_from_profile(profile: NodeCommunityProfile, partition) -> np.ndarray:
    """The n x 8 measure matrix (column order per MEASURE_COLUMNS) from raw counts."""
    cols = (
        profile.k_int_out, profile.k_int_in,
        profile.eps_out, profile.eps_in,
        profile.k_ext_out, profile.k_ext_in,
        profile.lambda_out, profile.lambda_in,
    )
    return np.column_stack([z_score_within_community(c, partition) for c in cols])


def role_measures(g: DirectedGraph, partition) -> np.ndarray:
    """The eight directional role measures as an n x 8 matrix.

    Columns follow MEASURE_COLUMNS: each is the within-community z-score of
    the matching raw profile field.
    """
    return measures_from_profile(community_profile(g, partition), partition)


def embeddedness_values(profile: NodeCommunityProfile) -> np.ndarray:
    """Total-direction embeddedness per node; NaN where a node has no links."""
    k_int = (profile.k_int_out + profile.k_int_in).astype(np.float64)
    k = k_int + profile.k_ext_out + profile.k_ext_in
    out = np.full(k.shape, np.nan)
    ok = k > 0
    out[ok] = k_int[ok] / k[ok]
    return out


def participation_coefficients(profile: NodeCommunityProfile) -> np.ndarray:
    """1 minus the sum of squared per-community link fractions, per node.

    Counts in- and out-links together (the coefficient is direction
    agnostic).  A node with no links gets 0 by convention; every value lies
    in [0, 1).
    """
    k_tot = (profile.k_int_out + profile.k_ext_out + profile.k_int_in + profile.k_ext_in).astype(np.float64)
    p = np.zeros(k_tot.shape)
    ok = k_tot > 0
    p[ok] = 1.0 - profile.link_sq[ok] / k_tot[ok] ** 2
    return p


# Cut points of the classical 7-role typology (Guimerà & Amaral 2005): a hub
# has an internal z-score of at least GA_Z_HUB; within each branch the
# participation coefficient is compared against the ascending cuts.
GA_Z_HUB = 2.5
GA_NONHUB_CUTS = (0.05, 0.62, 0.80)
GA_HUB_CUTS = (0.30, 0.75)

_NONHUB_ROLES = ("ultra-peripheral non-hub", "peripheral non-hub", "connector non-hub", "kinless non-hub")
_HUB_ROLES = ("provincial hub", "connector hub", "kinless hub")


def ga_role(z: float, p_coef: float) -> str:
    """Seven-class role from the internal z-score and the participation coefficient.

    z >= GA_Z_HUB selects the hub branch (boundary inclusive); within a branch
    the participation coefficient is compared against ascending cut points.
    """
    if z >= GA_Z_HUB:
        cuts, names = GA_HUB_CUTS, _HUB_ROLES
    else:
        cuts, names = GA_NONHUB_CUTS, _NONHUB_ROLES
    for cut, name in zip(cuts, names):
        if p_coef < cut:
            return name
    return names[-1]
