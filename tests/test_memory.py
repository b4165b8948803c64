"""Peak traced memory of ingest and the community profile, in bytes per arc.

On this graph ingest peaks at 36.2 B/arc, with ids below 10n and with ids
of up to 19 digits alike, returning a graph that holds 25.0 B/arc, and the
profile adds 10.9 B/arc.  The ingest peak is the densify: the 2m endpoints,
their argsort and a bool mask, 34 B/arc, plus one chunk's temporaries.  The
bounds leave room for allocator noise, and fail when ingest or the profile
holds one more int64 array over the m arcs.
"""

import tracemalloc

import numpy as np

from roleforge import synth
from roleforge.graph import load_edge_list
from roleforge.measures import community_profile

LOAD_PEAK_B_PER_ARC = 39
PROFILE_PEAK_B_PER_ARC = 16


def _traced_peaks(tmp_path, id_range):
    """(graph, ingest peak, profile peak beyond the graph) in bytes, with the
    node ids a sorted sample of range(id_range)."""
    g, part, _ = synth.capitalist_community_network(n_comms=10, comm_size=1000, n_capitalists=100, seed=5)
    rng = np.random.default_rng(0)
    ids = np.sort(rng.choice(id_range, size=g.n, replace=False))
    order = rng.permutation(g.m)
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in
                            zip(ids[g.arc_src[order]].tolist(), ids[g.out_indices[order]].tolist())))
    del g
    tracemalloc.start()
    try:
        h = load_edge_list(path)
        held, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        community_profile(h, part)
        profile_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert (h.n, h.m) == (10_100, 249_809)
    assert h.node_ids.tolist() == ids.tolist()
    return h, load_peak, profile_peak


def test_ingest_and_profile_peak_bytes_per_arc(tmp_path):
    h, load_peak, profile_peak = _traced_peaks(tmp_path, 10 * 10_100)
    assert load_peak / h.m <= LOAD_PEAK_B_PER_ARC, load_peak / h.m
    assert profile_peak / h.m <= PROFILE_PEAK_B_PER_ARC, profile_peak / h.m


def test_ingest_peak_bytes_per_arc_with_spread_ids(tmp_path):
    # ids of up to 19 digits, parsed in bulk like short ones
    h, load_peak, _ = _traced_peaks(tmp_path, 2**62)
    assert load_peak / h.m <= LOAD_PEAK_B_PER_ARC, load_peak / h.m
