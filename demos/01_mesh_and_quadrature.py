"""Meshes, edge classification and quadrature.

Builds the structured triangulations used throughout, shows how edges are
sorted into two-sided (interior, then periodic pairs) / top-bottom (gamma1)
/ lateral sets, how the lateral boundary is identified periodically
(including the fused corner ridges),
how the vertices of gamma1 become the point faces of its surface mesh,
and checks the quadrature rules against closed-form integrals.
"""

import math

import numpy as np

from dgdyn import (
    build_structured_mesh,
    classify_edges,
    edge_quadrature,
    triangle_quadrature,
)

print("structured meshes of the unit square")
print(f"{'level':>5} {'triangles':>10} {'vertices':>9} {'h':>12}")
for level in range(0, 6):
    mesh = build_structured_mesh(level)
    print(f"{level:5d} {mesh.n_triangles:10d} {mesh.n_vertices:9d} {mesh.h:12.6f}")

print("\nedge classification, periodic lateral boundary")
print(f"{'level':>5} {'interior':>9} {'gamma1':>7} {'pairs':>6} {'ridges':>7}")
for level in range(0, 4):
    mesh = build_structured_mesh(level)
    edges = classify_edges(mesh, "periodic")
    # the pairs are the two-sided edges whose second side is across the seam
    pairs = int(np.any(edges.two_sided.shift != 0.0, axis=1).sum())
    print(
        f"{level:5d} {len(edges.two_sided) - pairs:9d} {len(edges.gamma1):7d} "
        f"{pairs:6d} {len(edges.ridges):7d}"
    )

mesh = build_structured_mesh(3)
edges = classify_edges(mesh, "periodic")
print("\ninvariants at level 3:")
print(f"  sum of triangle areas      = {0.5 * mesh.det_jacobians.sum():.15f} (domain area 1)")
print(f"  sum of gamma1 edge lengths = {edges.gamma1.measure.sum():.15f} (2 * width = 2)")
ridges = edges.ridges
print(f"  all {len(ridges)} ridges are point faces (zero Jacobian, measure 1) with normal +x:",
      bool((ridges.jacobian == 0.0).all() and (ridges.measure == 1.0).all() and (ridges.normal == [1.0, 0.0]).all()))
print(f"  fused corner ridges reach the second side at x = 0: {ridges.shift[ridges.v0[:, 0] == 1.0].tolist()}")

print("\ndirichlet_lateral mode separates the lateral edges and unfuses corners")
edges_d = classify_edges(mesh, "dirichlet_lateral")
print(f"  dirichlet edges: {len(edges_d.dirichlet)}, ridges: {len(edges_d.ridges)}, "
      f"one-sided corners: {len(edges_d.corners)} with normals {edges_d.corners.normal[:, 0].tolist()}")

print("\ntriangle quadrature: integral of x^a y^b vs a! b! / (a+b+2)!")
rule = triangle_quadrature(6)
for a, b in ((0, 0), (1, 1), (4, 0), (2, 3)):
    approx = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
    exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
    print(f"  x^{a} y^{b}: {approx:.15f} vs {exact:.15f}")

erule = edge_quadrature(5)
print(f"\nedge rule with {len(erule.points)} points: int x^5 = "
      f"{erule.weights @ erule.points**5:.15f} (exact 1/6)")
