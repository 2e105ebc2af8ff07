"""The non-edge sampler as a per-candidate loop: the slow, obvious reference.

This is the sampler that batch rejection against `Graph.edge_codes` in
`graphstitch.linkpred` replaced. It walks each 4,096-pair batch one
candidate at a time against a set of (u, v) tuples. Tests compare the fast
sampler's pairs, their order and its draw count against it.
"""

import numpy as np

from graphstitch.errors import NegativeSamplingExhausted
from graphstitch.linkpred import MAX_NEGATIVE_DRAWS


def sample_non_edges(g, count, rng, budget=MAX_NEGATIVE_DRAWS):
    """`count` distinct node pairs that are not edges of g, in draw order."""
    forbidden = g.edge_set()
    chosen = []
    seen = set()
    draws = 0
    while len(chosen) < count:
        if draws >= budget:
            raise NegativeSamplingExhausted(
                f"drew {draws} candidate pairs for {count} non-edges; graph too dense")
        batch = min(4096, budget - draws)
        cand = rng.integers(0, g.n, size=(batch, 2))
        draws += batch
        for u, v in cand.tolist():
            if u == v:
                continue
            pair = (u, v) if u < v else (v, u)
            if pair in forbidden or pair in seen:
                continue
            seen.add(pair)
            chosen.append(pair)
            if len(chosen) == count:
                break
    return np.array(chosen, dtype=np.int64)
