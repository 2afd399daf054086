"""
The K_{24s+13} family at s = 1: a minimum-genus biembedding of K_37
===================================================================

The 666 edges of K_37 split into two circulant halves by current class:
X1 on one surface, X2 on the other.  Each half is the derived embedding of
a 6-vertex current graph over Z_37, and both land exactly on the genus
lower bound, so the biembedding is optimal.
"""

from biembed import (
    FamilyParameter,
    bigenus_lower_bound,
    build_pair,
    current_sets,
    derive_embedding,
    family_genus,
    render_report,
    surface_stats,
    verify_family,
)

p = FamilyParameter(1)
print(f"s = {p.s}, n = {p.n}")

x1, x2 = current_sets(p)
print("X1 =", sorted(x1.x))
print("X2 =", sorted(x2.x))

pair = build_pair(p)
half = derive_embedding(pair.first)
stats = surface_stats(half)
print(f"first half: {stats.e} edges, {stats.f} triangles, genus {stats.genus}")
print("formula genus 24s²+13s+1 =", family_genus(p.s))
print("lower bound for K_37    =", bigenus_lower_bound(p.n))

# The full certificate, each half read from its circuit log: current sets,
# edge partition, connectivity, triangularity, and the genus target.
print()
print(render_report(verify_family(p)), end="")
