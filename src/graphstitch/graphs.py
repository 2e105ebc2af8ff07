"""Undirected simple graphs on contiguous integer node IDs.

One representation serves the whole pipeline: the observed graph, every
sampled patch, and the synthetic output are all a node count plus a
canonical (min,max)-ordered duplicate-free edge array. Neighbor lists are
built once at construction as CSR-style arrays; everything downstream
(samplers, metric kernels, BFS) works off slices of those. Elsewhere an edge
is its int64 pair code (`pair_codes`); every Graph keeps its sorted codes.
"""

from dataclasses import dataclass

import numpy as np

# scipy is imported inside the functions that compute with it: at module
# level it would add about 0.3 s to the start of every CLI command, and most
# commands never call them
from .errors import InvalidNodeSet, ParseError


def pair_codes(u, v, n):
    """int64 code min(u, v) * n + max(u, v) of each pair (u[i], v[i]) of
    int64 node IDs on n nodes; codes ascend as (min, max) rows would sort."""
    # n <= ~1e6 keeps the codes comfortably inside int64
    return np.minimum(u, v) * np.int64(n) + np.maximum(u, v)


def decode_pairs(codes, n):
    """(min, max) rows of pair codes on n nodes: the inverse of pair_codes."""
    return np.column_stack([codes // n, codes % n])


def sorted_unique(a):
    """np.unique(a): the sorted distinct entries of a, flattened, NaNs
    collapsed to one. np.unique imports numpy.ma on its first call, about
    9 ms of a CLI command's start-up; this sorts and keeps each run's first."""
    s = np.sort(np.ravel(a))
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    if s.dtype.kind in "fc":  # NaNs sort last: drop each one after the first
        keep[1:] &= ~np.isnan(s[:-1])
    return s[keep]


def in_sorted(a, x):
    """Whether each entry of x occurs in the sorted array a."""
    if not a.size:
        return np.zeros(np.shape(x), dtype=bool)
    return a[np.minimum(np.searchsorted(a, x), a.size - 1)] == x


def gather_segments(values, ptr, which):
    """The segments values[ptr[i]:ptr[i + 1]] for i in `which`, concatenated
    in that order, and their lengths, in O(len(which) + output)."""
    which = np.asarray(which, dtype=np.int64)
    starts = ptr[which]
    counts = ptr[which + 1] - starts
    # position of each gathered entry: its segment start plus its offset
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return values[shift + np.arange(shift.size)], counts


def scatter_add(index, rows, size):
    """(size, C) array whose row r sums the rows[q] with index[q] == r, one
    at a time in the order of q (bincount), with the bits of a 0/1 product."""
    c = rows.shape[1]
    codes = np.asarray(index, dtype=np.int64)[:, None] * c + np.arange(c)
    return np.bincount(codes.ravel(), weights=rows.ravel(),
                       minlength=size * c).reshape(size, c)


class Graph:
    """Immutable undirected simple graph on nodes 0..n-1.

    Edges are deduplicated and stored sorted as (u, v) with u < v; the same
    edges as sorted, unique pair codes are the read-only `edge_codes`.
    Self-loops are rejected; drop them before construction.
    """

    def __init__(self, n, edges=()):
        n = int(n)
        if n < 0:
            raise ValueError("node count must be non-negative")
        self.n = n
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError("edge endpoint out of range")
            if (arr[:, 0] == arr[:, 1]).any():
                raise ValueError("self-loops are not allowed")
        codes = sorted_unique(pair_codes(arr[:, 0], arr[:, 1], n))
        codes.flags.writeable = False
        self.edge_codes = codes
        self.edge_array = arr = decode_pairs(codes, n)
        self.num_edges = int(arr.shape[0])

        # both orientations as row*n + col codes: sorted, they are the CSR
        both = np.sort(np.concatenate([codes, arr[:, 1] * np.int64(n) + arr[:, 0]]))
        self._nbrs = both % n
        self._indptr = np.searchsorted(both, np.arange(n + 1, dtype=np.int64) * n)
        self._csr = None
        self._edge_set = None

    @property
    def degrees(self):
        return np.diff(self._indptr)

    def neighbors(self, u):
        """Sorted neighbor IDs of u (a view; do not mutate)."""
        return self._nbrs[self._indptr[u]:self._indptr[u + 1]]

    def neighbor_slices(self, nodes):
        """Concatenated sorted neighbor slices of `nodes`, in their order,
        and the length of each slice."""
        return gather_segments(self._nbrs, self._indptr, nodes)

    def random_neighbors(self, nodes, rng):
        """A uniform random neighbor of each of `nodes` (all of degree >= 1)."""
        starts = self._indptr[nodes]
        return self._nbrs[starts + rng.integers(self._indptr[nodes + 1] - starts)]

    def has_edge(self, u, v):
        return bool(in_sorted(self.neighbors(u), v))

    def edge_set(self):
        """Frozen set of (u, v) tuples with u < v (cached)."""
        if self._edge_set is None:
            self._edge_set = frozenset(map(tuple, self.edge_array.tolist()))
        return self._edge_set

    def to_csr(self):
        """Symmetric 0/1 adjacency as scipy CSR (cached)."""
        if self._csr is None:
            import scipy.sparse as sp
            data = np.ones(self._nbrs.size, dtype=np.int64)
            self._csr = sp.csr_matrix((data, self._nbrs, self._indptr),
                                      shape=(self.n, self.n))
        return self._csr

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self):
        return hash((self.n, self.num_edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


@dataclass
class LoadReport:
    """What load_edge_list kept and cleaned up, for logging, sidecar files
    and readers that need the file's order."""

    self_loops_dropped: int
    duplicates_collapsed: int
    id_map: np.ndarray | None  # original label per new index when relabel=True
    pairs: np.ndarray  # the kept (u, v) rows in file order, as Graph got them


def _is_decimal(token):
    """ASCII decimal digits only; int() also takes '+3', '1_0' and non-ASCII digits."""
    return token.isascii() and token.isdigit()


def load_edge_list(lines, relabel=False, check_n=None):
    """Parse an edge-list text into (Graph, LoadReport).

    Format: one 'u v' pair per line, '#' comment lines ignored, optional
    first content line 'n=<int>' declaring the node count (which preserves
    trailing isolated nodes); IDs and the count are ASCII decimal digits.
    Self-loops are dropped and counted; duplicate and reversed duplicate
    pairs collapse to one undirected edge, also counted. With relabel=True
    the distinct node labels are remapped to 0..n-1 in sorted order and the
    original labels returned in the report. check_n, when given, is called
    with the node count before any array of that size is made, so a reader
    can refuse a header that declares billions of nodes.
    """
    header_n = None
    us = []
    vs = []
    self_loops = 0
    seen_content = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not seen_content and line.startswith("n="):
            seen_content = True
            if not _is_decimal(line[2:]):
                raise ParseError(f"line {lineno}: bad node-count header {line!r}")
            header_n = int(line[2:])
            continue
        seen_content = True
        tokens = line.split()
        if len(tokens) != 2 or not all(map(_is_decimal, tokens)):
            raise ParseError(f"line {lineno}: expected 'u v' in ASCII decimal digits, "
                             f"got {line!r}")
        u, v = int(tokens[0]), int(tokens[1])
        if u == v:
            self_loops += 1
            continue
        us.append(u)
        vs.append(v)

    pairs = np.column_stack([np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)]) \
        if us else np.empty((0, 2), dtype=np.int64)

    max_id = int(pairs.max()) if pairs.size else -1
    if header_n is not None and header_n <= max_id:
        raise ParseError(f"header n={header_n} does not cover max node ID {max_id}")
    id_map = None
    if relabel:
        id_map = sorted_unique(pairs)
        n = int(id_map.size)
        pairs = np.searchsorted(id_map, pairs)
    else:
        n = max_id + 1 if header_n is None else header_n
    if check_n is not None:
        check_n(n)

    g = Graph(n, pairs)
    return g, LoadReport(self_loops, pairs.shape[0] - g.num_edges, id_map, pairs)


def load_edge_list_file(path, relabel=False, check_n=None):
    """load_edge_list of a file; ParseError naming the file otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_edge_list(fh, relabel=relabel, check_n=check_n)
    except (ParseError, UnicodeDecodeError) as exc:
        raise ParseError(f"edge list {path}: {exc}") from None


def save_edge_list(g, path, order=None):
    """Write g in the load_edge_list format (n= header keeps isolated nodes).

    Edges go out as (min, max) lines, in the order of `order` when given
    (g's pair codes, each once) and ascending otherwise.
    """
    rows = g.edge_array
    if order is not None:
        order = np.asarray(order, dtype=np.int64)
        if not np.array_equal(np.sort(order), g.edge_codes):
            raise ValueError("order must list each of g's pair codes once")
        rows = decode_pairs(order, g.n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n={g.n}\n")
        for u, v in rows.tolist():
            fh.write(f"{u} {v}\n")


def _node_set(g, nodes):
    """`nodes` as a sorted int64 array; InvalidNodeSet if empty, duplicated
    or out of range."""
    s = np.asarray(nodes, dtype=np.int64).ravel()
    if s.size == 0:
        raise InvalidNodeSet("node set must be non-empty")
    uniq = sorted_unique(s)
    if uniq.size != s.size:
        raise InvalidNodeSet("node set contains duplicates")
    s = uniq
    if s[0] < 0 or s[-1] >= g.n:
        raise InvalidNodeSet("node set member out of range")
    return s


def _induced_pairs(g, s):
    """Local (row, col) pairs, both directions, of the subgraph induced on
    the sorted node set s, in CSR order (rows ascending, then cols)."""
    nb, counts = g.neighbor_slices(s)
    rows = np.repeat(np.arange(s.size, dtype=np.int64), counts)
    # local index of every parent node, -1 outside s (O(n) to fill per call)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[s] = np.arange(s.size)
    pos = pos[nb]
    # integer indices: a boolean mask this irregular gathers several times slower
    ok = np.flatnonzero(pos >= 0)
    return rows[ok], pos[ok]


def induced_subgraph(g, nodes):
    """Subgraph induced by `nodes`, relabeled to 0..k-1.

    Returns (sub, id_map) with id_map sorted ascending so that
    sub node i corresponds to g node id_map[i].
    """
    s = _node_set(g, nodes)
    rows, cols = _induced_pairs(g, s)
    upper = rows < cols
    return Graph(int(s.size), np.column_stack([rows[upper], cols[upper]])), s


def _component_labels(size, rows, cols):
    """(labels, rounds): each of `size` nodes labelled by the smallest node
    index in its component, and the number of hooking rounds that took.
    `rows` and `cols` are the local pairs of a symmetric graph.

    Each round every node, and every root for its whole tree, takes the
    smallest label found across an edge (min-label hooking); pointer jumping
    then flattens the trees until every node points at its root. A round
    that changes nothing leaves equal labels on both ends of every edge.
    Whole trees hook at once, so the rounds grow like log(size), not like
    the diameter, as plain label propagation would.
    """
    label = np.arange(size, dtype=np.int64)
    rounds = 0
    while True:
        rounds += 1
        hooked = label.copy()
        across = label[cols]
        np.minimum.at(hooked, rows, across)
        np.minimum.at(hooked, label[rows], across)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            return label, rounds
        label = hooked


def largest_connected_component(g, nodes=None):
    """Sorted node IDs of the largest component of the subgraph induced on
    `nodes` (default: all of g); ties break to the one containing the
    smallest node ID."""
    if nodes is None:
        if g.n < 1:
            raise ValueError("graph must have at least one node")
        s = np.arange(g.n, dtype=np.int64)
    else:
        s = _node_set(g, nodes)
    labels, _ = _component_labels(s.size, *_induced_pairs(g, s))
    # each label is the smallest local index in its component, and argmax
    # takes the first of the largest: the one holding the smallest ID
    return s[labels == np.argmax(np.bincount(labels, minlength=s.size))]


def is_connected(g):
    if g.n == 0:
        return True
    return largest_connected_component(g).size == g.n


def graph_summary(g):
    """(number of non-isolated nodes, number of edges)."""
    return int((g.degrees > 0).sum()), g.num_edges
