"""Polytope machinery behind the operating-range construction.

Shows H-polytopes and vertex arrays, redundancy removal, Fourier-Motzkin
projection, triangulation with exact volumes, and the rejection-free
uniform sampler.
"""

import numpy as np

from stationopt.polytope import (
    HPolytope,
    enumerate_vertices,
    project_out,
    remove_redundant,
    sample_uniform,
    triangulate,
)

# A box cut by a diagonal plane: x + y + z <= 2.2 inside [0,1]^3.
A = np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3))])
b = np.array([-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, -2.2])
poly = HPolytope(A, b)

print("== vertex enumeration ==")
verts = enumerate_vertices(poly)
print(f"  {len(verts)} vertices of the cut cube:")
print(verts)

print("\n== redundancy removal ==")
padded = HPolytope(
    np.vstack([poly.A, [[1.0, 0.0, 0.0]], poly.A[:1]]),
    np.concatenate([poly.b, [-5.0], poly.b[:1]]),  # slack plane + duplicate
)
reduced = remove_redundant(padded)
print(f"  {padded.n_rows} half spaces -> {reduced.n_rows} facets")

print("\n== projection onto (x, y) ==")
shadow = project_out(poly, 2)
print(f"  {shadow.n_rows} half spaces [a_x, a_y, offset] of the shadow, a x + offset <= 0:")
print(np.column_stack([shadow.A, shadow.b]))

print("\n== triangulation and volume ==")
corners, volumes = triangulate(verts)
print(f"  {len(corners)} tetrahedra, total volume {volumes.sum():.9f}")
print(f"  (cube volume 1 minus the clipped corner {(3 * 1.0 - 2.2) ** 3 / 6:.9f})")

print("\n== uniform sampling ==")
points = sample_uniform(verts, 50_000, seed=42)
inside = sum(poly.contains(p) for p in points[:1000])
print(f"  first 1000 samples inside the region: {inside}/1000")
print(f"  sample mean {np.round(points.mean(axis=0), 4)} (centroid pulled off 0.5 by the cut)")
