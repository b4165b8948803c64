"""Seeded synthetic graphs for demos, benchmarks, and tests."""

from __future__ import annotations

import numpy as np

from .graph import DirectedGraph
from .louvain import Partition


def planted_partition_graph(n_comms: int, comm_size: int, intra_out: int = 8,
                            inter_out: int = 2, seed: int = 0) -> tuple[DirectedGraph, Partition]:
    """Directed planted-community graph plus its ground-truth partition.

    Every node draws intra_out targets inside its community and inter_out
    targets anywhere, so communities are much denser inside than between:
    the members of `capitalist_community_network` with no planted accounts.
    """
    g, truth, _ = capitalist_community_network(n_comms, comm_size, n_capitalists=0,
                                               member_intra_out=intra_out, member_inter_out=inter_out,
                                               seed=seed)
    return g, truth


def planted_capitalist_graph(n: int = 10000, n_capitalists: int = 50, partner_count: int = 600,
                             reciprocal_fraction: float = 0.95, background_out: int = 20,
                             seed: int = 0) -> tuple[DirectedGraph, np.ndarray]:
    """Sparse random background with a few heavily reciprocal accounts planted in.

    Each planted account follows partner_count distinct accounts and is
    followed back by a reciprocal_fraction of them, so its in-degree clears
    the usual detection floor and its overlap index sits near 1.  Background
    nodes keep tiny in-degrees and near-zero overlap.  Returns the graph and
    the sorted planted node ids.
    """
    rng = np.random.default_rng(seed)
    planted = np.sort(rng.choice(n, size=n_capitalists, replace=False))
    srcs = [np.repeat(np.arange(n), background_out)]
    dsts = [rng.integers(0, n, size=n * background_out)]
    for u in planted.tolist():
        partners = rng.choice(n - 1, size=partner_count, replace=False)
        partners = partners + (partners >= u)  # shift past u to avoid a self-loop
        srcs.append(np.full(partner_count, u))
        dsts.append(partners)
        n_back = int(round(reciprocal_fraction * partner_count))
        srcs.append(partners[:n_back])
        dsts.append(np.full(n_back, u))
    g = DirectedGraph.from_arcs(np.concatenate(srcs), np.concatenate(dsts), n)
    return g, planted


def capitalist_community_network(n_comms: int = 20, comm_size: int = 2490, n_capitalists: int = 200,
                                 member_intra_out: int = 10, member_inter_out: int = 2,
                                 cap_intra_out: int = 30, cap_ext_out: int = 700,
                                 followback: float = 0.85, seed: int = 0,
                                 ) -> tuple[DirectedGraph, Partition, np.ndarray]:
    """Planted communities plus mass-following accounts spread across them.

    Regular members mostly follow inside their own community.  The planted
    accounts follow a large, community-diverse target set and receive
    follow-backs from a fixed fraction of it, which keeps their out/in ratio
    above 1 while their external out-connectivity dwarfs that of their
    community peers.  Returns (graph, ground-truth partition, planted ids).
    """
    rng = np.random.default_rng(seed)
    n_reg = n_comms * comm_size
    n = n_reg + n_capitalists
    labels = np.concatenate([
        np.repeat(np.arange(n_comms), comm_size),
        np.arange(n_capitalists) % n_comms,
    ])
    srcs = []
    dsts = []
    reg = np.arange(n_reg)
    src_intra = np.repeat(reg, member_intra_out)
    dst_intra = labels[src_intra] * comm_size + rng.integers(0, comm_size, size=src_intra.size)
    src_inter = np.repeat(reg, member_inter_out)
    dst_inter = rng.integers(0, n_reg, size=src_inter.size)
    srcs += [src_intra, src_inter]
    dsts += [dst_intra, dst_inter]
    for i in range(n_capitalists):
        u = n_reg + i
        home = labels[u]
        intra = home * comm_size + rng.integers(0, comm_size, size=cap_intra_out)
        ext = rng.integers(0, n_reg, size=cap_ext_out)
        targets = np.concatenate([intra, ext])
        srcs.append(np.full(targets.size, u))
        dsts.append(targets)
        back = targets[rng.random(targets.size) < followback]
        srcs.append(back)
        dsts.append(np.full(back.size, u))
    g = DirectedGraph.from_arcs(np.concatenate(srcs), np.concatenate(dsts), n)
    return g, Partition.from_labels(labels), np.arange(n_reg, n)
