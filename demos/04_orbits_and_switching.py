"""Walkthrough: counting distinct conjugates via graph connectivity.

Flipping signs at vertices of the nonzero pattern (switching) can only
produce as many distinct matrices as the connectivity allows: with t
connected components there are exactly 2^(n-t) distinct conjugates and
2^(t-1) sign vectors that fix the matrix.

Run: python demos/04_orbits_and_switching.py
"""

from signconj import Matrix, graph_components, orbit_size

examples = [
    ("zero matrix (no edges)", Matrix.zero(3)),
    ("one edge plus an isolated self-loop", Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 5]])),
    ("all ones (complete pattern)", Matrix([[1, 1, 1]] * 3)),
]

for label, a in examples:
    print(f"\n{label}: {a}")
    comps = graph_components(a)
    print(f"  component labels {comps.labels}, t = {comps.count}")
    report = orbit_size(a)
    print(f"  distinct conjugates: 2^(n-t) = {report.orbit_size}")
    print(f"  fixing vectors:      2^(t-1) = {report.stabilizer_size}")
    print(f"  product is always 2^(n-1):   {report.orbit_size * report.stabilizer_size}")
    print("  enumerated orbit:")
    for m in report.enumerated:
        print("    ", m)
    print("  stabilizer:", ", ".join(f"({c})" for c in report.stabilizer))
