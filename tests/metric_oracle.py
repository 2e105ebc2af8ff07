"""Per-node triangles and clustering by neighbor-list intersection: the
slow, obvious reference.

This is the triangle count that the sparse product `A * (A @ A)` in
`graphstitch.metrics` replaced: a per-edge loop intersecting the sorted
neighbor lists of its endpoints. Tests compare the fast per-node counts and
the mean local clustering of `degree_stats` against it exactly.
"""

import numpy as np


def per_node_triangles(g):
    """t[v] = number of triangles containing v."""
    t = np.zeros(g.n, dtype=np.int64)
    for u, v in g.edge_array.tolist():
        common = np.intersect1d(g.neighbors(u), g.neighbors(v), assume_unique=True)
        # each triangle's three edges each credit the opposite vertex once
        t[common] += 1
    return t


def clustering(g):
    """Mean local clustering over non-isolated nodes (degree < 2 counts 0),
    NaN when every node is isolated; the same arithmetic as degree_stats."""
    deg = g.degrees
    active = deg > 0
    if not active.any():
        return float("nan")
    possible = deg * (deg - 1) / 2.0
    local = np.zeros(g.n)
    two_plus = deg >= 2
    local[two_plus] = per_node_triangles(g)[two_plus] / possible[two_plus]
    return float(local[active].mean())
