"""The eight directional role measures, embeddedness, and participation.

Each measure is a z-score relative to the node's own community, computed
separately for out-links and in-links, so a value of 2 means "two standard
deviations above this community's norm".
"""

import numpy as np

from roleforge import MEASURE_COLUMNS, community_profile, ga_role, louvain_directed, role_measures
from roleforge.measures import embeddedness_values, participation_coefficients
from roleforge.synth import planted_partition_graph

g, _ = planted_partition_graph(n_comms=5, comm_size=40, intra_out=8, inter_out=2, seed=3)
partition, _ = louvain_directed(g)
mat = role_measures(g, partition)

print(f"measure matrix: {mat.shape[0]} nodes x {mat.shape[1]} columns")
print("columns:", ", ".join(MEASURE_COLUMNS))

most_diverse = int(np.argmax(mat[:, MEASURE_COLUMNS.index("D_out")]))
print(f"\nnode with the highest outgoing diversity: {most_diverse}")
for name, value in zip(MEASURE_COLUMNS, mat[most_diverse]):
    print(f"  {name:>10} = {value:+.3f}")

profile = community_profile(g, partition)
e = embeddedness_values(profile)[most_diverse]
p = participation_coefficients(profile)[most_diverse]
z = mat[most_diverse, MEASURE_COLUMNS.index("I_int_out")]
print(f"  embeddedness = {e:.3f}, participation = {p:.3f}")
# ga_role is a library function: no artifact of `role-forge run` holds its labels
print(f"  classical 7-class role (z={z:+.2f}, P={p:.2f}): {ga_role(z, p)}")

# per-community z-scores average out to zero inside every community
for c in range(partition.n_comms):
    rows = mat[partition.assign == c]
    print(f"community {c}: column means {np.round(rows.mean(axis=0), 12).tolist()}")
