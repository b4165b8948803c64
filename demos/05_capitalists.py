"""Detect social capitalists and band them by in-degree and ratio.

Fifty mass-following accounts, most of whose targets follow them back, are
planted among twenty communities of 490 ordinary members.  Detection uses
only the graph topology: the overlap between follower and followee sets plus
an in-degree floor.
"""

from collections import Counter

from roleforge import detect_capitalists, overlap_index
from roleforge.synth import capitalist_community_network

g, _, planted = capitalist_community_network(comm_size=490, n_capitalists=50, seed=42)
print(f"graph: n={g.n} m={g.m}, planted capitalists: {len(planted)}")

records = detect_capitalists(g, overlap_min=0.8, in_degree_min=500)
found = {r.node for r in records}
truth = set(planted.tolist())
precision = len(found & truth) / len(found)
recall = len(found & truth) / len(truth)
print(f"detected {len(records)} accounts: precision={precision:.2f} recall={recall:.2f}")

print("\nband/behavior mix:",
      dict(Counter((r.band, r.behavior) for r in records)))
print("\ntop five by in-degree:")
print("node   k_in  k_out  overlap  ratio  band  behavior")
for r in records[:5]:
    print(f"{r.node:>5}  {r.k_in:>4}  {r.k_out:>5}  {r.overlap:.3f}  {r.ratio:5.2f}  {r.band:<4}  {r.behavior}")

ordinary = next(u for u in range(g.n) if u not in truth)
print(f"\nfor contrast, ordinary node {ordinary}: overlap={overlap_index(g, ordinary):.3f}, "
      f"k_in={int(g.in_degrees[ordinary])}")
