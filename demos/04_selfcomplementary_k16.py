"""
Doubling a self-complementary embedding into a biembedding of K_16
==================================================================

A graph isomorphic to its own complement covers exactly half of K_n.
Embed it once with all triangular faces, relabel the same embedding
through the antimorphism, and the two copies tile K_16 across two genus-3
surfaces — the minimum possible.
"""

from biembed import (
    SeedNeighborhood,
    build_from_seed,
    load_bundled_table,
    relabel,
    render_report,
    search_triangular,
    standard_antimorphism,
    verify_table,
)

rs, form = load_bundled_table(16)
sigma = standard_antimorphism(form)

# The whole 60-edge graph is forced by the neighborhood of vertex 0:
# membership alternates around every orbit of vertex pairs under sigma.
seed = SeedNeighborhood(frozenset(rs.rotation[0]))
print("seed neighborhood of 0:", sorted(seed.neighbors))
rebuilt = build_from_seed(form, seed)
print("seed rebuilds the table graph:", rebuilt == rs.graph)

second = relabel(rs, sigma)
shared = rs.graph.edges & second.graph.edges
print("edges:", len(rs.graph.edges), "+", len(second.graph.edges), "shared:", len(shared))

print()
print(render_report(verify_table(rs, form)), end="")

# The bundled rotation is not the only triangular embedding: a bounded
# backtracking search finds a fresh one from the bare graph.  It always
# closes a face at the dart with the fewest candidate faces left, and
# finds this one after 2,845 tries.
fresh = search_triangular(rs.graph, budget=2_000_000)
print()
print("fresh embedding found:", fresh is not None)
if fresh is not None:
    print("fresh row 0:", fresh.rotation[0])
