"""
Rotation systems, face tracing, and genus
=========================================

A rotation system pins down an embedding of a graph in an orientable
surface by fixing the cyclic order of neighbors around every vertex.
The rows are the whole map: the graph is every pair they list.  Tracing
faces and counting them recovers the surface via Euler's formula.
"""

from biembed import RotationSystem, surface_stats, trace_faces

# The triangle, neighbors in ascending order: this is the sphere.
rs = RotationSystem(((1, 2), (2, 0), (0, 1)))
faces = trace_faces(rs)
print("triangle faces:", sorted(faces.lengths()))
print("triangle genus:", surface_stats(rs).genus)

# K_4 with every rotation ascending gives a non-planar-looking count: only
# two faces survive, so the surface is the torus.
ascending = tuple(tuple(w for w in range(4) if w != v) for v in range(4))
rs_asc = RotationSystem(ascending)
print("K4 ascending rotations:", sorted(trace_faces(rs_asc).lengths()), "faces")
print("K4 ascending genus:", surface_stats(rs_asc).genus)

# Reordering three of the rotations drops the same graph onto the sphere
# as the tetrahedron: four triangles.
rows = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
rs_tet = RotationSystem(rows)
print("tetrahedron faces:", sorted(trace_faces(rs_tet).lengths()))
print("tetrahedron genus:", surface_stats(rs_tet).genus)
