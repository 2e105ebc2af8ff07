"""Stochastic block model fixture for self-contained end-to-end runs."""

import numpy as np

from .errors import InvalidParameter
from .graphs import Graph
from .rng import substream


def block_labels(block_sizes):
    sizes = np.asarray(block_sizes, dtype=np.int64)
    if sizes.size == 0 or (sizes < 1).any():
        raise InvalidParameter("block sizes must be positive")
    return np.repeat(np.arange(sizes.size), sizes)


def sbm_graph(block_sizes, p_in, p_out, seed=0):
    """Per-pair Bernoulli SBM: p_in within a block, p_out across."""
    for p in (p_in, p_out):
        if not 0.0 <= p <= 1.0:
            raise InvalidParameter(f"edge probability {p} outside [0, 1]")
    labels = block_labels(block_sizes)
    n = labels.size
    # row by row: memory O(n) rather than O(n^2), and the same draws as one
    # rng.random over every pair in row-major upper-triangle order
    rng = substream(seed, "sbm")
    later = []
    for u in range(n):
        probs = np.where(labels[u + 1:] == labels[u], p_in, p_out)
        later.append(u + 1 + np.flatnonzero(rng.random(n - 1 - u) < probs))
    first = np.repeat(np.arange(n), [row.size for row in later])
    return Graph(n, np.column_stack([first, np.concatenate(later)]))
