"""Heavy-tailed Chung-Lu edge lists, written in O(n + m) time and memory.

Each pair (u, v) is an edge independently with probability
min(1, w_u * w_v / sum(w)), where the expected degrees w follow a power law
w_i ~ (i + 1) ** (-1 / (exponent - 1)) scaled to the requested mean degree
(Chung & Lu, 2002). Pairs are visited with the geometric skipping of Miller
& Hagberg (2011), so the n(n-1)/2 candidate pairs are never materialised;
edges stream to the file as they are drawn.
"""

import math

import numpy as np


def expected_degrees(n, mean_degree, exponent):
    """Power-law expected degrees, sorted non-increasing, mean `mean_degree`."""
    w = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0))
    return w * (mean_degree * n / w.sum())


def chung_lu_edges(n, mean_degree, exponent, seed):
    """Yield the edges (u, v), u < v, of one Chung-Lu draw on nodes 0..n-1.

    Node labels are a seeded permutation of the weight order, so the hubs
    are not the lowest IDs.
    """
    rng = np.random.default_rng(seed)
    w = expected_degrees(n, mean_degree, exponent).tolist()
    total = math.fsum(w)
    label = rng.permutation(n).tolist()
    for u in range(n - 1):
        v = u + 1
        p = min(w[u] * w[v] / total, 1.0)
        while v < n and p > 0.0:
            if p < 1.0:
                # skip the run of pairs that all fail at probability p
                v += int(math.log(1.0 - rng.random()) / math.log1p(-p))
            if v >= n:
                break
            q = min(w[u] * w[v] / total, 1.0)
            if rng.random() < q / p:
                a, b = label[u], label[v]
                yield (a, b) if a < b else (b, a)
            p = q
            v += 1


def write_chung_lu(path, n, mean_degree, exponent, seed):
    """Write one Chung-Lu draw as a 'u v' edge list; returns the edge count."""
    m = 0
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in chung_lu_edges(n, mean_degree, exponent, seed):
            fh.write(f"{u} {v}\n")
            m += 1
    return m
