"""Fixed work that measures the machine's speed, not the program's.

    python3 bench/calibrate.py

The benchmark times this script as a child process next to every chain.
It does the same work on every run and imports nothing from graphstitch,
so no change to the program moves it: only the machine's speed does. Its
mix follows the pipeline's: interpreter start-up and the numpy and scipy
imports, short numpy calls in a Python loop, small dense matrix products,
dict updates and one sparse shortest-path pass.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


def main():
    rng = np.random.default_rng(0)
    n = 400
    rows = rng.integers(0, n, size=4000)
    cols = rng.integers(0, n, size=4000)
    g = sp.coo_matrix((np.ones(4000), (rows, cols)), shape=(n, n)).tocsr()
    a = rng.standard_normal((64, 64))
    acc = 0.0
    for i in range(1500):
        lo = (i * 7) % 3000
        acc += np.intersect1d(np.sort(cols[lo:lo + 60]), rows[:60]).size
        acc += float(np.tanh(a @ a[:, :16]).sum())
    counts = {}
    for i in range(100_000):
        counts[i % 1013] = counts.get(i % 1013, 0) + i
    acc += float(csgraph.shortest_path(g, directed=False, unweighted=True)[0].sum())
    return acc + len(counts)


if __name__ == "__main__":
    main()
