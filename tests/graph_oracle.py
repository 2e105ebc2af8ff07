"""Graph adjacency, induced subgraphs and Ego halving: the slow, obvious
reference.

These are the kernels the ones in `graphstitch.graphs` and
`graphstitch.sampling` replaced: `Graph`'s CSR built by a `lexsort` of both
edge orientations and its scipy adjacency built from COO triplets, a
per-node loop over neighbor lists for `induced_subgraph`, scipy components
of a whole `Graph` for the component labels and the largest component, and
an Ego halving loop that builds an intermediate `Graph` for every round, a
random walk that steps one walk at a time off its own (node, repetition)
substream, and an SBM that draws every node pair in one call. `build_corpus`
and `write_corpus_jsonl` are the corpus as it was built and written before
it was packed: each sample induced and formatted on its own. Tests compare
the fast kernels, corpora, RW walks and SBM graphs against them.
"""

import json

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from graphstitch.errors import InvalidNodeSet
from graphstitch.graphs import Graph
from graphstitch.rng import substream
from graphstitch.sampling import SampleCorpus, SubgraphSample
from graphstitch.sbm import block_labels


def csr_arrays(g):
    """(indptr, neighbors) of g, sorting both edge orientations by (row, col)."""
    arr = g.edge_array
    rows = np.concatenate([arr[:, 0], arr[:, 1]])
    cols = np.concatenate([arr[:, 1], arr[:, 0]])
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows, minlength=g.n) if rows.size else np.zeros(g.n, dtype=np.int64)
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64), cols[order]


def to_csr(g):
    """Symmetric int64 0/1 adjacency of g, built from COO triplets."""
    arr = g.edge_array
    rows = np.concatenate([arr[:, 0], arr[:, 1]])
    cols = np.concatenate([arr[:, 1], arr[:, 0]])
    data = np.ones(rows.size, dtype=np.int64)
    return sp.csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


def induced_subgraph(g, nodes):
    s = np.asarray(nodes, dtype=np.int64).ravel()
    if s.size == 0:
        raise InvalidNodeSet("node set must be non-empty")
    uniq = np.unique(s)
    if uniq.size != s.size:
        raise InvalidNodeSet("node set contains duplicates")
    s = uniq
    if s[0] < 0 or s[-1] >= g.n:
        raise InvalidNodeSet("node set member out of range")

    src = []
    dst = []
    for i, u in enumerate(s.tolist()):
        nb = g.neighbors(u)
        nb = nb[nb > u]
        if nb.size == 0:
            continue
        pos = np.searchsorted(s, nb)
        pos = np.minimum(pos, s.size - 1)
        ok = s[pos] == nb
        if ok.any():
            js = pos[ok]
            src.append(np.full(js.size, i, dtype=np.int64))
            dst.append(js)
    if src:
        edges = np.column_stack([np.concatenate(src), np.concatenate(dst)])
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return Graph(int(s.size), edges), s.copy()


def largest_connected_component(g):
    if g.n < 1:
        raise ValueError("graph must have at least one node")
    _, labels = csgraph.connected_components(g.to_csr(), directed=False)
    sizes = np.bincount(labels)
    best = sizes.max()
    cand = np.flatnonzero(sizes == best)
    _, first = np.unique(labels, return_index=True)
    label = cand[np.argmin(first[cand])]
    return np.flatnonzero(labels == label).astype(np.int64)


def component_labels(g):
    """Each node's component in g, labelled by the smallest node ID in it."""
    _, labels = csgraph.connected_components(g.to_csr(), directed=False)
    _, first = np.unique(labels, return_index=True)
    return first[labels].astype(np.int64)


def induced_lcc(g, nodes):
    """Parent IDs of the largest component of the subgraph induced on nodes."""
    sub, id_map = induced_subgraph(g, nodes)
    return id_map[largest_connected_component(sub)]


def two_hop_neighborhood(g, v):
    n1 = g.neighbors(v)
    parts = [np.array([v], dtype=np.int64), n1]
    for u in n1.tolist():
        parts.append(g.neighbors(u))
    return np.unique(np.concatenate(parts))


def ego_sets(g, k, d, seed=0):
    """The node set of each Ego sample, in (node, repetition) order."""
    sets = []
    for v in range(g.n):
        for rep in range(d):
            rng = substream(seed, "ego", v, rep)
            nodes = two_hop_neighborhood(g, v)
            while nodes.size > k:
                drop = rng.choice(nodes.size, size=nodes.size // 2, replace=False)
                nodes = induced_lcc(g, np.delete(nodes, drop))
            sets.append(nodes)
    return sets


def sample_ego(g, k, d, seed=0):
    samples = [SubgraphSample(*induced_subgraph(g, nodes), g.n)
               for nodes in ego_sets(g, k, d, seed)]
    return SampleCorpus(samples, "Ego", k, d)


def lockstep_walk_sets(g, k, d, seed=0):
    """The visited set of each lockstep RW walk (one substream per
    repetition), in (start node, repetition) order, each by np.unique."""
    walks = np.repeat(np.arange(g.n), d * (k + 1)).reshape(g.n, d, k + 1)
    moving = np.flatnonzero(g.degrees > 0)
    for rep in range(d):
        rng = substream(seed, "rw", rep)
        cur = moving
        for step in range(1, k + 1):
            cur = g.random_neighbors(cur, rng)
            walks[moving, rep, step] = cur
    return [np.unique(walk) for walk in walks.reshape(-1, k + 1)]


def sample_random_walk(g, k, d, seed=0):
    samples = []
    for v in range(g.n):
        for rep in range(d):
            rng = substream(seed, "rw", v, rep)
            cur = v
            visited = {v}
            for _ in range(k):
                nb = g.neighbors(cur)
                if nb.size == 0:
                    break
                cur = int(nb[rng.integers(nb.size)])
                visited.add(cur)
            sub, id_map = induced_subgraph(g, sorted(visited))
            samples.append(SubgraphSample(sub, id_map, g.n))
    return SampleCorpus(samples, "RW", k, d)


def sbm_graph(block_sizes, p_in, p_out, seed=0):
    """sbm.sbm_graph's graph, drawn over all n(n-1)/2 pairs at once."""
    labels = block_labels(block_sizes)
    n = labels.size
    iu, ju = np.triu_indices(n, k=1)
    probs = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = substream(seed, "sbm").random(iu.size) < probs
    return Graph(n, np.column_stack([iu[keep], ju[keep]]))


def build_corpus(g, scheme, k, d=5, count=None, seed=0):
    """sampling.build_corpus's samples, in its order, as a list of
    SubgraphSample each made from its own per-node induced_subgraph; Unif
    needs `count`."""
    if scheme == "Unif":
        sets = [substream(seed, "unif", i).choice(g.n, size=k, replace=False)
                for i in range(count)]
    elif scheme == "RW":
        sets = lockstep_walk_sets(g, k, d, seed)
    else:
        sets = ego_sets(g, k, d, seed)
    perm = substream(seed, "shuffle").permutation(len(sets))
    return [SubgraphSample(*induced_subgraph(g, sets[i]), g.n) for i in perm]


def write_corpus_jsonl(samples, path):
    """One json.dumps line per sample, from its local Graph's edge array."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            obj = {"edges": sample.local.edge_array.tolist(), "ids": sample.id_map.tolist()}
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
