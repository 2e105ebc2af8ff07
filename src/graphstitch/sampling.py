"""Subgraph corpus construction from a single parent graph.

Three schemes produce small node-ID-labeled patches of the observation:
uniform k-subsets, random-walk visit sets, and pruned 2-hop ego
neighborhoods. Samples keep original node IDs (via id_map) so a generator
trained on the corpus can later be stitched back into a full graph.
"""

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter
from .graphs import Graph, induced_subgraph, largest_connected_component
from .rng import substream

SCHEMES = ("Unif", "RW", "Ego")
UNIF_CAP = 10000  # ceiling on the default Unif corpus size; the coverage bound is loose


@lru_cache(maxsize=64)
def local_pairs(k):
    """Row-major upper-triangle pair indices (i, j), i < j, for k nodes."""
    iu, ju = np.triu_indices(k, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


@dataclass
class SubgraphSample:
    """A patch of the parent graph: local structure + original node IDs."""

    local: Graph
    id_map: np.ndarray  # sorted original IDs, len == local.n
    n_parent: int
    _edge_states: np.ndarray | None = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.local.n != len(self.id_map):
            raise ValueError("id_map length must match local node count")

    @property
    def num_nodes(self):
        return self.local.n

    def edge_states(self):
        """0/1 state per local (i, j) pair in local_pairs order (cached,
        read-only)."""
        if self._edge_states is None:
            k = self.local.n
            iu, ju = local_pairs(k)
            adj = np.zeros((k, k), dtype=bool)
            ea = self.local.edge_array
            adj[ea[:, 0], ea[:, 1]] = True
            states = adj[iu, ju].astype(np.int8)
            states.setflags(write=False)
            self._edge_states = states
        return self._edge_states


@dataclass
class SampleCorpus:
    samples: list
    scheme: str
    k: int
    d: int | None

    @property
    def n_parent(self):
        return self.samples[0].n_parent

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]

    def __iter__(self):
        return iter(self.samples)


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


def sample_uniform(g, k, count, seed=0):
    """`count` induced subgraphs on uniformly chosen k-subsets of nodes."""
    if not 1 <= k <= g.n:
        raise InvalidParameter(f"need 1 <= k <= n, got k={k}, n={g.n}")
    if count < 1:
        raise InvalidParameter("count must be >= 1")
    samples = []
    for i in range(count):
        rng = substream(seed, "unif", i)
        ids = rng.choice(g.n, size=k, replace=False)
        sub, id_map = induced_subgraph(g, ids)
        samples.append(SubgraphSample(sub, id_map, g.n))
    return SampleCorpus(samples, "Unif", k, None)


def sample_random_walk(g, k, d, seed=0):
    """d walks of k edge-traversals from every node, in (start node,
    repetition) order; the sample is the subgraph induced on the visited set
    (<= k+1 distinct nodes). The walks of one repetition step in lockstep off
    one substream; a walk from an isolated node stays put (a singleton).
    """
    if k < 1:
        raise InvalidParameter("k must be >= 1")
    if d < 1:
        raise InvalidParameter("d must be >= 1")
    walks = np.repeat(np.arange(g.n), d * (k + 1)).reshape(g.n, d, k + 1)
    moving = np.flatnonzero(g.degrees > 0)
    for rep in range(d):
        rng = substream(seed, "rw", rep)
        cur = moving
        for step in range(1, k + 1):
            cur = g.random_neighbors(cur, rng)
            walks[moving, rep, step] = cur
    samples = []
    for walk in walks.reshape(-1, k + 1):
        sub, id_map = induced_subgraph(g, np.unique(walk))
        samples.append(SubgraphSample(sub, id_map, g.n))
    return SampleCorpus(samples, "RW", k, d)


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
    Each halving labels components straight off g's neighbor lists; only
    the kept node set becomes a Graph.
    """
    if k < 1:
        raise InvalidParameter("k must be >= 1")
    if d < 1:
        raise InvalidParameter("d must be >= 1")
    samples = []
    for v in range(g.n):
        for rep in range(d):
            rng = substream(seed, "ego", v, rep)
            nodes = two_hop_neighborhood(g, v)
            while nodes.size > k:
                drop = rng.choice(nodes.size, size=nodes.size // 2, replace=False)
                nodes = largest_connected_component(g, np.delete(nodes, drop))
            sub, id_map = induced_subgraph(g, nodes)
            samples.append(SubgraphSample(sub, id_map, g.n))
    return SampleCorpus(samples, "Ego", k, d)


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
        corpus = sample_uniform(g, k, count, seed=seed)
    elif scheme == "RW":
        corpus = sample_random_walk(g, k, d, seed=seed)
    else:
        corpus = sample_ego(g, k, d, seed=seed)
    perm = substream(seed, "shuffle").permutation(len(corpus))
    corpus.samples = [corpus.samples[i] for i in perm]
    return corpus


def write_corpus_jsonl(corpus, path):
    """One sample per line: {"edges": [[i,j],...], "ids": [...]}."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample in corpus:
            obj = {"edges": sample.local.edge_array.tolist(), "ids": sample.id_map.tolist()}
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _sample_from_json(line, n_parent):
    """The SubgraphSample one corpus.jsonl line holds; InvalidParameter
    saying what is wrong with the line otherwise."""
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
    try:
        return SubgraphSample(Graph(len(ids), edges), np.array(ids, dtype=np.int64), n_parent)
    except ValueError as exc:  # an endpoint out of range, or a self-loop
        raise InvalidParameter(f"edges: {exc}") from None


def read_corpus_jsonl(path, n_parent, scheme, k, d=None):
    """Read a corpus written by write_corpus_jsonl; InvalidParameter naming
    the file and the line unless every line holds a sample of a graph on
    n_parent nodes and there is at least one."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for num, line in enumerate(fh, 1):
            if line.strip():
                try:
                    samples.append(_sample_from_json(line, n_parent))
                except InvalidParameter as exc:
                    raise InvalidParameter(f"corpus {path} line {num}: {exc}") from None
    if not samples:
        raise InvalidParameter(f"corpus {path}: no samples")
    return SampleCorpus(samples, scheme, k, d)


def corpus_stats(corpus):
    """Sidecar payload: enough metadata to reload the corpus + summaries."""
    sizes = np.array([s.num_nodes for s in corpus], dtype=np.int64)
    edges = np.array([s.local.num_edges for s in corpus], dtype=np.int64)
    pairs = sizes * (sizes - 1) // 2
    hist = np.bincount(sizes)
    total_pairs = int(pairs.sum())
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
