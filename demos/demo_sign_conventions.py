"""
Relative signs of parallel paths
================================

The mesh ideal is generated with +1 coefficients; relative signs between
parallel paths are not imposed, they emerge from reduction. Exchanging
the two middles of one mesh flips the sign, so any two parallel paths
differ by (-1)^(number of flips).

No mesh has more than two middles, so every relation either kills one
path or equates two paths up to -1. The reduction is therefore a signed
union-find: one class per component, zero when the component holds a
killed path. It runs depth by depth on classes of path prefixes, not on
the paths; the flip edges are listed only when the report is asked.
"""

from meshknit import mesh, quiver

fam = quiver.build_dihedral_family(10)

# Six parallel monotone paths from (4,4) to (0,0), all in one flip
# component. Reports on up to 120 paths are labelled "dense" and also
# give the hom dimension (the number of live components) and pair counts.
report = mesh.path_sign_check(fam, fam.vertex(4, 4), fam.vertex(0, 0), window=8)
print(f"{report.num_paths} parallel paths, method={report.method}")
print(f"signs relative to the first path: {report.signs}")
print(f"flip edges found: {len(report.flip_edges)}, "
      f"verified pairs: {report.verified_pairs}, "
      f"counterexamples: {report.counterexamples}")
print(f"graded hom dimension after reduction: {report.hom_dim}")

# Larger families are labelled "certificate": each flip edge is an
# exhibited relation instance and connectivity of the flip graph covers
# every pair. The label is kept because the benchmark checks it; both
# labels come from the same union-find.
big = mesh.path_sign_check(fam, fam.vertex(10, 10), fam.vertex(0, 0), window=12)
print(f"(10,10) -> (0,0): {big.num_paths} paths, method={big.method}, "
      f"connected={big.connected}, ok={big.all_ok}")

# At a rim vertex of the ZA-infinity component the mesh has a single
# middle, so the unique double-step path is a relation all by itself.
za = quiver.build_za_inf(6)
rim = mesh.path_sign_check(za, za.vertex(1, 1), za.vertex(1, 0), window=6)
print(f"za-inf rim composite: {rim.num_paths} path, forced zero: {rim.zero_paths}")
