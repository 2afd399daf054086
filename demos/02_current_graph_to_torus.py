"""
From a two-vertex current graph to K_7 on the torus
===================================================

A current graph is a tiny embedded graph whose edges carry elements of
Z_n.  When it passes four structural checks, walking its single face and
reading off the currents gives a recipe (the circuit log) that unrolls
into a triangular embedding of a much larger graph — here all of K_7.
"""

from biembed import (
    CurrentGraph,
    circuit_log,
    derive_embedding,
    surface_stats,
    validate_current_graph,
)

# Two vertices joined by three parallel edges.  Entering currents at
# vertex 0 are 1, 2, 4 in rotation order; they sum to 7 = 0 (mod 7), so
# Kirchhoff's law holds at both ends.
theta = CurrentGraph(
    7,
    (
        ((1, 6), (1, 5), (1, 3)),
        ((0, 2), (0, 4), (0, 1)),
    ),
)

report = validate_current_graph(theta)
print("one face:", report.one_face)
print("cubic:", report.cubic)
print("Kirchhoff:", report.kirchhoff)
print("distinct currents:", report.distinct_currents)

print("circuit log:", circuit_log(theta))

# Row v of the derived embedding is row 0 shifted by v: one walk of the
# face determines all of K_7.
rs = derive_embedding(theta)
stats = surface_stats(rs)
print(f"derived: K_{stats.v} with {stats.e} edges, {stats.f} faces, genus {stats.genus}")
print("row 0:", rs.rotation[0])
print("row 1:", rs.rotation[1])
