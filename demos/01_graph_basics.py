"""Load a directed follow graph from an edge list and inspect neighborhoods.

The toy network has two tight groups {0,1,2} and {3,4,5} joined by two
cross links.  Arc u->v means "u follows v": out-neighbors are followees,
in-neighbors are followers.
"""

import tempfile
from pathlib import Path

from roleforge import Partition, community_profile, load_edge_list

EDGE_LINES = """\
# toy follow network
0 1
1 0
1 2
0 3
4 0
3 4
4 5
5 3
"""

with tempfile.TemporaryDirectory() as td:
    path = Path(td) / "toy.txt"
    path.write_text(EDGE_LINES)
    g = load_edge_list(path)

print(f"loaded n={g.n} nodes, m={g.m} arcs")
for u in range(g.n):
    print(f"  node {u}: followers={g.in_degrees[u]} followees={g.out_degrees[u]} "
          f"out-neighbors={g.out_neighbors(u).tolist()}")

partition = Partition.from_labels([0, 0, 0, 1, 1, 1])
prof = community_profile(g, partition)
print("\nlinks of node 0 inside / outside its community, and external communities reached:")
print(f"  outgoing: {prof.k_int_out[0]} / {prof.k_ext_out[0]}, reach {prof.eps_out[0]}")
print(f"  incoming: {prof.k_int_in[0]} / {prof.k_ext_in[0]}, reach {prof.eps_in[0]}")
