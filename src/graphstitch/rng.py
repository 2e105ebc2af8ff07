"""Deterministic named RNG substreams.

Every random choice in the package flows from one root seed through
substreams addressed by string/int paths, e.g. substream(seed, "rw", rep).
Re-running any unit of work with the same seed therefore reproduces
it exactly, independent of what ran before.
"""

from hashlib import blake2b

import numpy as np


def _path_entropy(part):
    # stable 64-bit entropy word per path component
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError("substream path ints must be non-negative")
        return int(part)
    digest = blake2b(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def substream(seed, *path):
    """Generator for the substream named by `path` under root `seed`."""
    entropy = [int(seed)] + [_path_entropy(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def as_generator(seed):
    """Accept either an int seed or an existing np.random.Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))
