"""Peak traced memory of ingest and the community profile, in bytes per arc.

On this graph ingest peaks at 50.4 B/arc, returning a graph that holds
25.0 B/arc, and the profile adds 10.9 B/arc.  The bounds leave room for
allocator noise, and fail when ingest holds one more int64 array over all
2m endpoints or the profile one more int64 array over the m arcs.
"""

import tracemalloc

import numpy as np

from roleforge import synth
from roleforge.graph import load_edge_list
from roleforge.measures import community_profile

LOAD_PEAK_B_PER_ARC = 60
PROFILE_PEAK_B_PER_ARC = 16


def test_ingest_and_profile_peak_bytes_per_arc(tmp_path):
    g, part, _ = synth.capitalist_community_network(n_comms=10, comm_size=1000, n_capitalists=100, seed=5)
    rng = np.random.default_rng(0)
    ids = np.sort(rng.choice(10 * g.n, size=g.n, replace=False))
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
    assert load_peak / h.m <= LOAD_PEAK_B_PER_ARC, load_peak / h.m
    assert profile_peak / h.m <= PROFILE_PEAK_B_PER_ARC, profile_peak / h.m
