"""The non-edge sampler as a per-candidate loop: the slow, obvious reference.

This is the sampler that batch rejection against `Graph.edge_codes` in
`graphstitch.linkpred` replaced. It walks each 4,096-pair batch one
candidate at a time against a set of (u, v) tuples. Tests compare the fast
sampler's pairs, their order and its draw count against it.

`train_link_predictor` is the trainer's epoch loop before it gathered each
epoch's endpoint rows once and scattered the gradient in one call: separate
gathers for the scores and the gradient, and four `np.add.at` scatters.
"""

import numpy as np

from graphstitch.errors import NegativeSamplingExhausted
from graphstitch.linkpred import MAX_NEGATIVE_DRAWS, _sample_non_edges
from graphstitch.rng import substream


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


def train_link_predictor(synthetic, h=16, epochs=500, lr=1.0, seed=0):
    """(z, bias, per-epoch loss trace), one np.add.at per endpoint group."""
    n = synthetic.n
    pos = synthetic.edge_array
    m = pos.shape[0]
    z = substream(seed, "lp-init").normal(0.0, 0.1, size=(n, h))
    bias = 0.0
    trace = np.zeros(epochs)
    for epoch in range(epochs):
        rng = substream(seed, "lp-epoch", epoch)
        neg = _sample_non_edges(synthetic, m, rng)
        s_pos = 1.0 / (1.0 + np.exp(-((z[pos[:, 0]] * z[pos[:, 1]]).sum(axis=1) + bias)))
        s_neg = 1.0 / (1.0 + np.exp(-((z[neg[:, 0]] * z[neg[:, 1]]).sum(axis=1) + bias)))
        trace[epoch] = float(-(np.log(np.clip(s_pos, 1e-12, None)).sum()
                               + np.log(np.clip(1.0 - s_neg, 1e-12, None)).sum()) / (2 * m))
        gp = -(1.0 - s_pos) / (2 * m)
        gn = s_neg / (2 * m)
        dz = np.zeros_like(z)
        np.add.at(dz, pos[:, 0], gp[:, None] * z[pos[:, 1]])
        np.add.at(dz, pos[:, 1], gp[:, None] * z[pos[:, 0]])
        np.add.at(dz, neg[:, 0], gn[:, None] * z[neg[:, 1]])
        np.add.at(dz, neg[:, 1], gn[:, None] * z[neg[:, 0]])
        db = gp.sum() + gn.sum()
        z -= lr * dz
        bias -= lr * db
    return z, float(bias), trace
