"""Subgraph corpus construction from a single parent graph.

Three schemes produce small node-ID-labeled patches of the observation:
uniform k-subsets, random-walk visit sets, and pruned 2-hop ego
neighborhoods. Samples keep original node IDs (via id_map) so a generator
trained on the corpus can later be stitched back into a full graph.

A corpus is a few flat arrays: every sample's sorted parent IDs and the 0/1
state of each of its local pairs, with per-sample offsets (the `ptr` layout
of PyTorch Geometric's Batch). The samplers draw node sets and induce them
all at once, by looking up pair codes in the parent's sorted `edge_codes`;
no sample becomes a Graph unless its `local` is asked for.
"""

import itertools
import math
import re
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter
# induced_subgraph is not called here, but bench/tracing.py times it under
# this module's name, so the name stays bound
from .graphs import (Graph, gather_segments, in_sorted, induced_subgraph,  # noqa: F401
                     largest_connected_component, sorted_unique)
from .rng import substream

SCHEMES = ("Unif", "RW", "Ego")
UNIF_CAP = 10000  # ceiling on the default Unif corpus size; the coverage bound is loose
# pair codes looked up at once when inducing node sets; each takes about
# 40 bytes of temporaries, so a chunk adds about 5 MB at the peak
LOOKUP_CHUNK = 1 << 17
LINE_CHUNK = 4096  # corpus.jsonl lines formatted, or checked, at once


@lru_cache(maxsize=64)
def local_pairs(k):
    """Row-major upper-triangle pair indices (i, j), i < j, for k nodes."""
    iu, ju = np.triu_indices(k, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _offsets(counts):
    """ptr array of segments of the given lengths: each one's start, then
    the total."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _pair_states(sizes, owner, i, j):
    """Packed 0/1 pair states of samples of sizes `sizes`, each sample's
    pairs in local_pairs order, with local pair (i[e], j[e]), i < j, of
    sample owner[e] present."""
    pair_ptr = _offsets(sizes * (sizes - 1) // 2)
    states = np.zeros(pair_ptr[-1], dtype=np.int8)
    k = sizes[owner]
    # row i of the upper triangle starts at i*(2k - i - 1)/2
    states[pair_ptr[owner] + i * (2 * k - i - 1) // 2 + j - i - 1] = 1
    return states


class SubgraphSample:
    """A patch of the parent graph: its sorted original node IDs `id_map`
    (local node i is parent node id_map[i]) and, from `edge_states()`, the
    read-only 0/1 state of each local pair in local_pairs order.

    Made from the patch's local Graph, or with local=None from its pair
    states, as SampleCorpus makes views of its arrays; `local` is then built
    on first access.
    """

    def __init__(self, local, id_map, n_parent, states=None):
        if states is None:
            if local.n != len(id_map):
                raise ValueError("id_map length must match local node count")
            ea = local.edge_array
            states = _pair_states(np.array([local.n]), np.zeros(len(ea), dtype=np.int64),
                                  ea[:, 0], ea[:, 1])
            states.setflags(write=False)
        self.id_map, self.n_parent, self._states, self._local = id_map, n_parent, states, local

    @property
    def num_nodes(self):
        return len(self.id_map)

    @property
    def local(self):
        """The patch as a Graph on nodes 0..num_nodes-1."""
        if self._local is None:
            iu, ju = local_pairs(self.num_nodes)
            on = self._states.astype(bool)
            self._local = Graph(self.num_nodes, np.column_stack([iu[on], ju[on]]))
        return self._local

    def edge_states(self):
        return self._states


class SampleCorpus:
    """Samples packed into flat read-only arrays: sample s holds the sorted
    parent IDs ids[ptr[s]:ptr[s+1]] and the pair states
    states[pair_ptr[s]:pair_ptr[s+1]], in local_pairs order; `corpus[s]` is
    a view SubgraphSample of those slices. Made from a list of samples, which
    it packs, or by `packed` from the arrays.
    """

    def __init__(self, samples, scheme, k, d):
        self.scheme, self.k, self.d = scheme, k, d
        ids = [np.asarray(s.id_map, dtype=np.int64) for s in samples]
        self._pack(np.concatenate([np.empty(0, np.int64)] + ids),
                   _offsets([len(a) for a in ids]),
                   np.concatenate([np.empty(0, np.int8)] + [s.edge_states() for s in samples]),
                   samples[0].n_parent if samples else 0)

    @classmethod
    def packed(cls, ids, ptr, states, n_parent, scheme, k, d):
        corpus = cls([], scheme, k, d)
        corpus._pack(ids, ptr, states, n_parent)
        return corpus

    def _pack(self, ids, ptr, states, n_parent):
        self.ids, self.ptr, self.states, self.n_parent = ids, ptr, states, n_parent
        self.sizes = np.diff(ptr)
        self.pair_ptr = _offsets(self.sizes * (self.sizes - 1) // 2)
        for arr in (ids, ptr, states, self.sizes, self.pair_ptr):
            arr.setflags(write=False)

    @property
    def samples(self):
        """The samples, as a list of views."""
        return list(self)

    def __len__(self):
        return len(self.ptr) - 1

    def __getitem__(self, s):
        s = range(len(self))[s]  # IndexError past either end
        return SubgraphSample(None, self.ids[self.ptr[s]:self.ptr[s + 1]], self.n_parent,
                              self.states[self.pair_ptr[s]:self.pair_ptr[s + 1]])

    def __iter__(self):
        return (self[s] for s in range(len(self)))


def required_sample_count(n, k, delta):
    """Coverage-style bound on how many uniform k-subsets to draw.

    ceil((n/k)^2 * ln(n) * ln(1/delta)); at least 1. Deliberately loose
    for real graphs, hence the UNIF_CAP ceiling in build_corpus.
    """
    if not 1 <= k <= n:
        raise InvalidParameter(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0.0 < delta < 1.0:
        raise InvalidParameter(f"delta must be in (0, 1), got {delta}")
    value = (n / k) ** 2 * math.log(n) * math.log(1.0 / delta)
    return max(1, math.ceil(value))


def _induce(g, ids, ptr, scheme, k, d):
    """The corpus of g's subgraphs induced on the sorted node sets
    ids[ptr[s]:ptr[s+1]].

    Samples of one size share their local pairs, so each size class looks
    up the pair codes of its samples in g's sorted edge_codes, at most
    LOOKUP_CHUNK codes at a time.
    """
    sizes = np.diff(ptr)
    pair_ptr = _offsets(sizes * (sizes - 1) // 2)
    states = np.zeros(pair_ptr[-1], dtype=np.int8)
    codes = g.edge_codes
    for size in sorted_unique(sizes[sizes > 1]).tolist() if codes.size else ():
        iu, ju = local_pairs(size)
        members = np.flatnonzero(sizes == size)
        step = max(1, LOOKUP_CHUNK // iu.size)
        for lo in range(0, members.size, step):
            part = members[lo:lo + step, None]
            nodes = ids[ptr[part] + np.arange(size)]
            # rows ascend, so column iu holds each pair's smaller ID
            want = nodes[:, iu]
            want *= g.n
            want += nodes[:, ju]
            states[pair_ptr[part] + np.arange(iu.size)] = in_sorted(codes, want)
    return SampleCorpus.packed(ids, ptr, states, g.n, scheme, k, d)


def _uniform_sets(g, k, count, seed):
    if not 1 <= k <= g.n:
        raise InvalidParameter(f"need 1 <= k <= n, got k={k}, n={g.n}")
    if count < 1:
        raise InvalidParameter("count must be >= 1")
    draws = np.array([substream(seed, "unif", i).choice(g.n, size=k, replace=False)
                      for i in range(count)])
    return np.sort(draws, axis=1).ravel(), np.arange(count + 1, dtype=np.int64) * k


def _check_k_d(k, d):
    if k < 1:
        raise InvalidParameter("k must be >= 1")
    if d < 1:
        raise InvalidParameter("d must be >= 1")


def _walk_sets(g, k, d, seed):
    _check_k_d(k, d)
    walks = np.repeat(np.arange(g.n), d * (k + 1)).reshape(g.n, d, k + 1)
    moving = np.flatnonzero(g.degrees > 0)
    for rep in range(d):
        rng = substream(seed, "rw", rep)
        cur = moving
        for step in range(1, k + 1):
            cur = g.random_neighbors(cur, rng)
            walks[moving, rep, step] = cur
    # one sort of every walk; a node's first place in its sorted walk keeps it
    walks = walks.reshape(-1, k + 1)
    walks.sort(axis=1)
    first = np.ones(walks.shape, dtype=bool)
    np.not_equal(walks[:, 1:], walks[:, :-1], out=first[:, 1:])
    return walks[first], _offsets(first.sum(axis=1))


def _ego_sets(g, k, d, seed):
    _check_k_d(k, d)
    sets = []
    for v in range(g.n):
        for rep in range(d):
            rng = substream(seed, "ego", v, rep)
            nodes = two_hop_neighborhood(g, v)
            while nodes.size > k:
                drop = rng.choice(nodes.size, size=nodes.size // 2, replace=False)
                nodes = largest_connected_component(g, np.delete(nodes, drop))
            sets.append(nodes)
    return np.concatenate([np.empty(0, np.int64)] + sets), _offsets([s.size for s in sets])


def sample_uniform(g, k, count, seed=0):
    """`count` induced subgraphs on uniformly chosen k-subsets of nodes."""
    return _induce(g, *_uniform_sets(g, k, count, seed), "Unif", k, None)


def sample_random_walk(g, k, d, seed=0):
    """d walks of k edge-traversals from every node, in (start node,
    repetition) order; the sample is the subgraph induced on the visited set
    (<= k+1 distinct nodes). The walks of one repetition step in lockstep off
    one substream; a walk from an isolated node stays put (a singleton).
    """
    return _induce(g, *_walk_sets(g, k, d, seed), "RW", k, d)


def two_hop_neighborhood(g, v):
    """Sorted node IDs of the closed 2-hop neighborhood of v."""
    n1 = g.neighbors(v)
    n2, _ = g.neighbor_slices(n1)
    return sorted_unique(np.concatenate([[v], n1, n2]))


def sample_ego(g, k, d, seed=0):
    """d pruned 2-hop ego samples per node.

    Start from the closed 2-hop neighborhood; while it has more than k
    nodes, delete floor(|V|/2) uniformly chosen nodes and keep the largest
    connected component of what remains. Output is always connected and
    has at most k nodes (or is the full 2-hop set when already small).
    Each halving labels components straight off g's neighbor lists; the
    kept node sets are induced together at the end.
    """
    return _induce(g, *_ego_sets(g, k, d, seed), "Ego", k, d)


def build_corpus(g, scheme, k, d=5, count=None, delta=0.05, seed=0):
    """Sample a training corpus and shuffle it with a seeded permutation.

    Unif takes `count` samples (default: coverage bound capped at
    UNIF_CAP); RW and Ego take d samples per node.
    """
    if scheme not in SCHEMES:
        raise InvalidParameter(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if g.n == 0:
        raise InvalidParameter("cannot sample a corpus from a graph with no nodes")
    if scheme == "Unif":
        if count is None:
            count = min(required_sample_count(g.n, k, delta), UNIF_CAP)
        ids, ptr = _uniform_sets(g, k, count, seed)
        d = None
    elif scheme == "RW":
        ids, ptr = _walk_sets(g, k, d, seed)
    else:
        ids, ptr = _ego_sets(g, k, d, seed)
    perm = substream(seed, "shuffle").permutation(len(ptr) - 1)
    ids, sizes = gather_segments(ids, ptr, perm)
    return _induce(g, ids, _offsets(sizes), scheme, k, d)


@lru_cache(maxsize=64)
def _pair_texts(k):
    """"[i,j]" of each local pair of k nodes, in local_pairs order."""
    return [f"[{i},{j}]" for i, j in zip(*(a.tolist() for a in local_pairs(k)))]


def write_corpus_jsonl(corpus, path):
    """One sample per line: {"edges": [[i,j],...], "ids": [...]}, written as
    json.dumps(obj, sort_keys=True, separators=(",", ":")) writes it, with
    the edges ascending."""
    sizes, ptr, pair_ptr = corpus.sizes, corpus.ptr, corpus.pair_ptr
    # the pair texts of every size in the corpus, one table after another
    first = np.zeros(int(sizes.max(initial=0)) + 1, dtype=np.int64)
    texts = []
    for size in sorted_unique(sizes).tolist():
        first[size] = len(texts)
        texts += _pair_texts(size)
    texts = np.array(texts, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(corpus), LINE_CHUNK):
            hi = min(lo + LINE_CHUNK, len(corpus))
            at = np.flatnonzero(corpus.states[pair_ptr[lo]:pair_ptr[hi]]) + pair_ptr[lo]
            owner = np.searchsorted(pair_ptr, at, side="right") - 1
            edges = texts[first[sizes[owner]] + at - pair_ptr[owner]].tolist()
            eptr = np.searchsorted(at, pair_ptr[lo:hi + 1]).tolist()
            ids = list(map(str, corpus.ids[ptr[lo]:ptr[hi]].tolist()))
            iptr = (ptr[lo:hi + 1] - ptr[lo]).tolist()
            fh.write("".join(f'{{"edges":[{",".join(edges[eptr[s]:eptr[s + 1]])}],'
                             f'"ids":[{",".join(ids[iptr[s]:iptr[s + 1]])}]}}\n'
                             for s in range(hi - lo)))


# a line as write_corpus_jsonl writes it, though perhaps with leading zeros;
# numbers of more than 18 digits, which int64 may not hold, do not match
_LINE = re.compile(rb'\{"edges":\[((?:\[N,N\](?:,\[N,N\])*)?)\],"ids":\[(N(?:,N)*)\]\}\n'
                   .replace(b"N", rb"[0-9]{1,18}"))


def _digit(chars):
    """Whether each ASCII code is a digit's."""
    return (chars >= ord("0")) & (chars <= ord("9"))


def _not_rising(values, line):
    """Whether each value is not above the one before it on the same line."""
    bad = np.zeros(values.size, dtype=bool)
    bad[1:] = (values[1:] <= values[:-1]) & (line[1:] == line[:-1])
    return bad


def _block_samples(lines, n_parent, path, start):
    """(ids, sizes, states) of a block of the lines of corpus `path`, the
    first of them line `start`; InvalidParameter naming the first bad line
    and what is wrong with it otherwise."""
    matches = [_LINE.fullmatch(line) for line in lines]
    cut = next((at for at, m in enumerate(matches) if m is None), len(lines))
    matches = matches[:cut]
    sizes = np.array([m[2].count(b",") + 1 for m in matches], dtype=np.int64)
    ids = np.fromstring(b",".join(m[2] for m in matches), dtype=np.int64, sep=",")
    pairs = np.fromstring(b",".join(m[1] for m in matches if m[1]).translate(None, b"[]"),
                          dtype=np.int64, sep=",")
    i, j = pairs[0::2], pairs[1::2]
    owner = np.repeat(np.arange(cut), [m[1].count(b"[") for m in matches])
    id_line = np.repeat(np.arange(cut), sizes)
    k = sizes[owner]
    # leading zeros: a 0 after a non-digit and before a digit (a matched line
    # starts with { and ends with a newline, so both neighbours exist)
    block = b"".join(lines[:cut])
    text = np.frombuffer(block, dtype=np.uint8)
    zero = np.flatnonzero(text == ord("0"))
    zero = zero[_digit(text[zero + 1]) & ~_digit(text[zero - 1])]
    # the first line failing each check, in the order a line's faults are
    # named; len(lines) when no line does
    end = len(lines)
    firsts = [
        (block.count(b"\n", 0, zero[0]) if zero.size else end, "not JSON: a leading zero"),
        (id_line[(ids >= n_parent) | _not_rising(ids, id_line)].min(initial=end),
         f"ids must be strictly increasing ints in [0, {n_parent})"),
        (owner[(i >= k) | (j >= k)].min(initial=end), "edges: edge endpoint out of range"),
        (owner[i == j].min(initial=end), "edges: self-loops are not allowed"),
        (owner[(i > j) | _not_rising(i * k + j, owner)].min(initial=end),
         "edges must be [i,j] pairs with i < j, in ascending order"),
        (cut, 'not JSON in the form write_corpus_jsonl writes, {"edges":[[i,j],...],'
              '"ids":[id,...]} and a newline: no spaces, keys in that order, integers '
              "of at most 18 digits"),
    ]
    at, why = min(firsts, key=lambda first: first[0])
    if at < end:
        raise InvalidParameter(f"corpus {path} line {start + at}: {why}")
    return ids, sizes, _pair_states(sizes, owner, i, j)


def read_corpus_jsonl(path, n_parent, scheme, k, d=None):
    """Read a corpus as write_corpus_jsonl writes it; InvalidParameter naming
    the file and the first line that is not such a line of a sample of a
    graph on n_parent nodes, or saying the file holds no samples.

    Every line must match _LINE in full, its final newline included; the
    numbers of a block of LINE_CHUNK lines are then parsed and checked at
    once."""
    parts = []  # (ids, sizes, states) of each block read so far, in order
    with open(path, "rb") as fh:
        for start in itertools.count(1, LINE_CHUNK):
            lines = list(itertools.islice(fh, LINE_CHUNK))
            if not lines:
                break
            parts.append(_block_samples(lines, n_parent, path, start))
    if not parts:
        raise InvalidParameter(f"corpus {path}: no samples")
    ids, sizes, states = (np.concatenate(arrays) for arrays in zip(*parts))
    return SampleCorpus.packed(ids, _offsets(sizes), states, n_parent, scheme, k, d)


def corpus_stats(corpus):
    """Sidecar payload: enough metadata to reload the corpus + summaries."""
    sizes = corpus.sizes
    edges = np.zeros(len(corpus), dtype=np.int64)
    paired = np.flatnonzero(np.diff(corpus.pair_ptr) > 0)
    if paired.size:  # reduceat sums each start to the next, so skip empty ones
        edges[paired] = np.add.reduceat(corpus.states, corpus.pair_ptr[paired],
                                        dtype=np.int64)
    hist = np.bincount(sizes)
    total_pairs = corpus.states.size
    return {
        "count": len(corpus),
        "scheme": corpus.scheme,
        "k": corpus.k,
        "d": corpus.d,
        "n_parent": corpus.n_parent,
        "size_histogram": {str(sz): int(c) for sz, c in enumerate(hist) if c},
        "edge_density": (float(edges.sum()) / total_pairs) if total_pairs else 0.0,
        "mean_edges": float(edges.mean()) if len(corpus) else 0.0,
    }
