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
import json
import math
import re
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter
# induced_subgraph is not called here, but bench/tracing.py times it under
# this module's name, so the name stays bound
from .graphs import Graph, induced_subgraph, largest_connected_component  # noqa: F401
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
    pairs in local_pairs order, with local pair (i[e], j[e]) of sample
    owner[e] present: i != j in either order, repeats allowed."""
    pair_ptr = _offsets(sizes * (sizes - 1) // 2)
    states = np.zeros(pair_ptr[-1], dtype=np.int8)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    k = sizes[owner]
    # row lo of the upper triangle starts at lo*(2k - lo - 1)/2
    states[pair_ptr[owner] + lo * (2 * k - lo - 1) // 2 + hi - lo - 1] = 1
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
        self.samples = samples

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

    @samples.setter
    def samples(self, samples):
        ids = [np.asarray(s.id_map, dtype=np.int64) for s in samples]
        self._pack(np.concatenate([np.empty(0, np.int64)] + ids),
                   _offsets([len(a) for a in ids]),
                   np.concatenate([np.empty(0, np.int8)] + [s.edge_states() for s in samples]),
                   samples[0].n_parent if samples else 0)

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
    for size in np.unique(sizes[sizes > 1]).tolist() if codes.size else ():
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
            at = np.searchsorted(codes, want)
            np.minimum(at, codes.size - 1, out=at)
            states[pair_ptr[part] + np.arange(iu.size)] = codes[at] == want
    return SampleCorpus.packed(ids, ptr, states, g.n, scheme, k, d)


def _take(ids, ptr, order):
    """(ids, ptr) of the node sets ids[ptr[s]:ptr[s+1]] taken in `order`."""
    sizes = np.diff(ptr)[order]
    out = _offsets(sizes)
    shift = np.repeat(ptr[:-1][order] - out[:-1], sizes)
    return ids[shift + np.arange(out[-1])], out


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
    return np.unique(np.concatenate([[v], n1, n2]))


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
    return _induce(g, *_take(ids, ptr, perm), scheme, k, d)


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
    for size in np.unique(sizes).tolist():
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


def _line_sample(line, n_parent):
    """(ids, sizes, states) of the one sample a corpus.jsonl line holds;
    InvalidParameter saying what is wrong with the line otherwise."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"not JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise InvalidParameter("not a JSON object")
    missing = [key for key in ("edges", "ids") if key not in obj]
    if missing:
        raise InvalidParameter(f"missing {missing}")
    ids, edges = obj["ids"], obj["edges"]
    if not (isinstance(ids, list) and ids and all(type(v) is int for v in ids)
            and ids == sorted(set(ids)) and ids[0] >= 0 and ids[-1] < n_parent):
        raise InvalidParameter(f"ids must be strictly increasing ints in [0, {n_parent})")
    try:
        edges = np.asarray(edges) if isinstance(edges, list) else None
    except ValueError:  # a ragged list
        edges = None
    if edges is None or edges.size and (edges.dtype.kind != "i" or edges.shape[1:] != (2,)):
        raise InvalidParameter("edges must be a list of [i, j] int pairs")
    edges = edges.astype(np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= len(ids)):
        raise InvalidParameter("edges: edge endpoint out of range")
    if (edges[:, 0] == edges[:, 1]).any():
        raise InvalidParameter("edges: self-loops are not allowed")
    sizes = np.array([len(ids)])
    return (np.array(ids, dtype=np.int64), sizes,
            _pair_states(sizes, np.zeros(len(edges), dtype=np.int64), edges[:, 0], edges[:, 1]))


# a line as write_corpus_jsonl writes it, though perhaps with leading zeros:
# blocks of such lines are checked at once, and any other line on its own
_WRITTEN_LINE = re.compile(r'\{"edges":\[((?:\[[0-9]+,[0-9]+\](?:,\[[0-9]+,[0-9]+\])*)?)\],'
                           r'"ids":\[([0-9]+(?:,[0-9]+)*)\]\}[ \t\n\r]*')
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)


def _ints(texts):
    """The decimal integers in ASCII texts, each a run of digits, as int64;
    None if one has a leading zero (not JSON) or more than 18 digits."""
    text = np.frombuffer(",".join(texts).encode(), dtype=np.uint8)
    digit = (text >= ord("0")) & (text <= ord("9"))
    flips = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = flips[0::2], flips[1::2]
    lengths = ends - starts
    if lengths.size and (lengths.max() > 18 or ((text[starts] == ord("0")) & (lengths > 1)).any()):
        return None
    # each digit times ten to the power of its distance to the end of its run
    place = np.repeat(ends, lengths) - np.flatnonzero(digit) - 1
    values = (text[digit] - ord("0")).astype(np.int64) * _POWERS_OF_TEN[place]
    return np.add.reduceat(values, _offsets(lengths)[:-1]) if lengths.size else values


def _written_samples(matches, n_parent):
    """(ids, sizes, states) of lines matched by _WRITTEN_LINE, or None unless
    every one of them holds a sample _line_sample accepts."""
    ids = _ints(m[2] for m in matches)
    pairs = _ints(m[1] for m in matches)
    if ids is None or pairs is None:
        return None
    pairs = pairs.reshape(-1, 2)
    sizes = np.array([m[2].count(",") + 1 for m in matches])
    owner = np.repeat(np.arange(len(matches)), [m[1].count("[") for m in matches])
    rising = np.diff(ids) > 0
    rising[_offsets(sizes)[1:-1] - 1] = True  # from one line to the next
    i, j = pairs[:, 0], pairs[:, 1]
    k = sizes[owner]
    if not (rising.all() and ids.max() < n_parent and (i < k).all() and (j < k).all()
            and (i != j).all()):
        return None
    return ids, sizes, _pair_states(sizes, owner, i, j)


def read_corpus_jsonl(path, n_parent, scheme, k, d=None):
    """Read a corpus written by write_corpus_jsonl; InvalidParameter naming
    the file and the line unless every line holds a sample of a graph on
    n_parent nodes and there is at least one."""
    parts = []  # (ids, sizes, states) of the lines read so far, in order
    with open(path, "r", encoding="utf-8") as fh:
        for start in itertools.count(1, LINE_CHUNK):
            lines = list(itertools.islice(fh, LINE_CHUNK))
            if not lines:
                break
            matches = [_WRITTEN_LINE.fullmatch(line) for line in lines]
            part = _written_samples(matches, n_parent) if all(matches) else None
            if part is not None:
                parts.append(part)
                continue
            # a line in another form, blank or bad: parse each on its own
            for num, line in enumerate(lines, start):
                try:
                    if line.strip():
                        parts.append(_line_sample(line, n_parent))
                except InvalidParameter as exc:
                    raise InvalidParameter(f"corpus {path} line {num}: {exc}") from None
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
