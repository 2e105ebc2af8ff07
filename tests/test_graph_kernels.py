"""Gather-based induced subgraphs and components, and packed Unif, RW and
Ego corpora, against the per-node, Graph-per-round and per-sample kernels
in graph_oracle, the pair codes every
Graph keeps, and the CSR built from them (with its scipy wrapper, per-node
triangles and clustering) against graph_oracle and metric_oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import graph_oracle as oracle
import metric_oracle
from graphstitch.errors import InvalidNodeSet
from graphstitch.graphs import (Graph, _component_labels, _induced_pairs, decode_pairs,
                                induced_subgraph, largest_connected_component, pair_codes)
from graphstitch.metrics import _per_node_triangles, degree_stats
from graphstitch.sampling import (SCHEMES, SampleCorpus, build_corpus, two_hop_neighborhood,
                                  write_corpus_jsonl)
from graphstitch.sbm import sbm_graph


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def chung_lu_like(n, mean_degree, exponent, seed):
    """Heavy-tailed graph: pair (i, j) is an edge with prob min(1, w_i w_j / W)
    for power-law weights w, labels shuffled so hubs are not the low IDs."""
    rng = np.random.default_rng(seed)
    w = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0))
    w *= mean_degree * n / w.sum()
    total = w.sum()
    # one row of the upper triangle at a time keeps memory O(n) at n = 20k;
    # the draws are those of one rng.random over all pairs in triu order
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for i in range(n - 1):
        keep = rng.random(n - 1 - i) < np.minimum(1.0, w[i] * w[i + 1:] / total)
        j = i + 1 + np.flatnonzero(keep)
        pairs.append(np.column_stack([np.full(j.size, i), j]))
    label = rng.permutation(n)
    return Graph(n, label[np.concatenate(pairs)])


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 24))
    if n == 1:
        return Graph(1)
    iu, ju = np.triu_indices(n, k=1)
    p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    keep = np.random.default_rng(seed).random(iu.size) < p
    return Graph(n, np.column_stack([iu[keep], ju[keep]]))


graphs = st.one_of(
    random_graphs(),
    st.integers(0, 30).map(star),
    st.integers(0, 10**6).map(lambda seed: chung_lu_like(60, 4.0, 2.2, seed)),
)


def complete(n):
    iu, ju = np.triu_indices(n, k=1)
    return Graph(n, np.column_stack([iu, ju]))


# `graphs` plus the node counts it leaves out (n = 0) and the extremes of density
any_graphs = st.one_of(
    graphs,
    st.integers(0, 12).map(Graph),
    st.integers(0, 16).map(complete),
)


@st.composite
def tied_graphs(draw):
    """Several largest components of equal size, smaller ones and isolated
    nodes, each component a path or a clique, under shuffled labels."""
    big = draw(st.integers(2, 6))
    sizes = ([big] * draw(st.integers(2, 8))
             + draw(st.lists(st.integers(1, big - 1), max_size=4))
             + [1] * draw(st.integers(0, 6)))
    clique = draw(st.booleans())
    edges, start = [], 0
    for size in sizes:
        block = range(start, start + size)
        edges += itertools.combinations(block, 2) if clique else zip(block, block[1:])
        start += size
    label = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(start)
    return Graph(start, label[np.array(edges, dtype=np.int64).reshape(-1, 2)])


def shuffled_path(n, seed):
    p = np.random.default_rng(seed).permutation(n)
    return Graph(n, np.column_stack([p[:-1], p[1:]]))


@pytest.fixture(scope="module")
def large_graphs():
    return {"shuffled-path": shuffled_path(20_000, seed=1),
            "chung-lu": chung_lu_like(20_000, 4.0, 2.2, seed=0)}


@st.composite
def graph_and_nodes(draw):
    g = draw(graphs)
    nodes = draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n,
                          unique=True))
    return g, nodes


check = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@check
@given(graphs, st.integers(0, 2**32 - 1))
def test_edge_codes_sorted_unique_and_decode(g, seed):
    # the same edges shuffled, some reversed and some repeated
    rng = np.random.default_rng(seed)
    ea = g.edge_array[rng.permutation(g.num_edges)]
    flip = rng.random(g.num_edges) < 0.5
    ea[flip] = ea[flip, ::-1]
    h = Graph(g.n, np.concatenate([ea, ea[:g.num_edges // 2]]))
    codes = h.edge_codes
    assert codes.dtype == np.int64 and not codes.flags.writeable
    assert codes.tolist() == sorted({min(u, v) * g.n + max(u, v) for u, v in ea.tolist()})
    assert np.array_equal(pair_codes(ea[:, 0], ea[:, 1], g.n),
                          pair_codes(ea[:, 1], ea[:, 0], g.n))
    assert np.array_equal(decode_pairs(codes, g.n), g.edge_array)
    assert np.array_equal(h.edge_array, g.edge_array)


class TestAdjacency:
    @check
    @given(any_graphs)
    def test_csr_arrays_match_oracle(self, g):
        indptr, nbrs = oracle.csr_arrays(g)
        assert g._indptr.dtype == indptr.dtype and np.array_equal(g._indptr, indptr)
        assert g._nbrs.dtype == nbrs.dtype and np.array_equal(g._nbrs, nbrs)

    @check
    @given(any_graphs)
    def test_to_csr_matches_oracle(self, g):
        got, want = g.to_csr(), oracle.to_csr(g)
        assert got.shape == want.shape == (g.n, g.n)
        assert got.dtype == want.dtype == np.int64
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @check
    @given(any_graphs)
    def test_per_node_triangles_match_oracle(self, g):
        got = _per_node_triangles(g)
        want = metric_oracle.per_node_triangles(g)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @check
    @given(any_graphs)
    def test_clustering_matches_oracle(self, g):
        got = degree_stats(g)[1]
        want = metric_oracle.clustering(g)
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestInducedSubgraph:
    @check
    @given(graph_and_nodes())
    def test_matches_oracle(self, case):
        g, nodes = case
        sub, id_map = induced_subgraph(g, nodes)
        want_sub, want_ids = oracle.induced_subgraph(g, nodes)
        assert sub == want_sub
        assert id_map.dtype == want_ids.dtype and np.array_equal(id_map, want_ids)

    def test_whole_graph_is_identity(self):
        g = chung_lu_like(80, 5.0, 2.3, seed=3)
        sub, id_map = induced_subgraph(g, np.arange(g.n)[::-1])
        assert sub == g and id_map.tolist() == list(range(g.n))

    def test_singleton_and_isolated(self):
        g = Graph(5, [(0, 1)])
        for nodes in ([3], [0], [2, 3, 4]):
            sub, id_map = induced_subgraph(g, nodes)
            assert sub.num_edges == 0 and id_map.tolist() == sorted(nodes)


class TestLargestComponent:
    @check
    @given(graph_and_nodes())
    def test_subset_matches_oracle(self, case):
        g, nodes = case
        got = largest_connected_component(g, nodes)
        want = oracle.induced_lcc(g, nodes)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @check
    @given(graphs)
    def test_whole_graph_matches_oracle(self, g):
        got = largest_connected_component(g)
        want = oracle.largest_connected_component(g)
        assert np.array_equal(got, want)
        shuffled = np.random.default_rng(g.n).permutation(g.n)
        assert np.array_equal(largest_connected_component(g, shuffled), want)

    @check
    @given(st.one_of(graphs, tied_graphs()))
    def test_labels_are_smallest_id_in_component(self, g):
        labels, _ = _component_labels(g.n, *_induced_pairs(g, np.arange(g.n)))
        assert np.array_equal(labels, oracle.component_labels(g))

    @check
    @given(tied_graphs(), st.data())
    def test_ties_match_oracle(self, g, data):
        assert np.array_equal(largest_connected_component(g),
                              oracle.largest_connected_component(g))
        nodes = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n,
                                   unique=True))
        assert np.array_equal(largest_connected_component(g, nodes),
                              oracle.induced_lcc(g, nodes))

    @pytest.mark.parametrize("name", ["shuffled-path", "chung-lu"])
    def test_large_graphs_match_oracle(self, large_graphs, name):
        g = large_graphs[name]
        assert np.array_equal(largest_connected_component(g),
                              oracle.largest_connected_component(g))
        half = np.random.default_rng(2).choice(g.n, g.n // 2, replace=False)
        assert np.array_equal(largest_connected_component(g, half),
                              oracle.induced_lcc(g, half))

    def test_rounds_grow_like_log_n(self, large_graphs):
        # plain label propagation would take a round per step of the 20k diameter
        g = large_graphs["shuffled-path"]
        labels, rounds = _component_labels(g.n, *_induced_pairs(g, np.arange(g.n)))
        assert not labels.any()
        assert rounds <= math.ceil(math.log2(g.n)) + 2

    def test_disconnected_set_ties_to_smallest_id(self):
        # {4, 5} and {1, 2} are both size 2 once 3 is left out
        g = Graph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (0, 6)])
        assert largest_connected_component(g, [5, 4, 2, 1]).tolist() == [1, 2]
        assert largest_connected_component(g, [6, 5, 3]).tolist() == [3]

    def test_empty_graph(self):
        with pytest.raises(ValueError):
            largest_connected_component(Graph(0))


class TestInvalidNodeSet:
    @pytest.mark.parametrize("nodes", [[], [1, 1], [0, 4], [-1, 2]])
    def test_raises(self, nodes):
        g = Graph(4, [(0, 1)])
        with pytest.raises(InvalidNodeSet):
            induced_subgraph(g, nodes)
        with pytest.raises(InvalidNodeSet):
            largest_connected_component(g, nodes)


@check
@given(graphs, st.data())
def test_two_hop_matches_oracle(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    assert np.array_equal(two_hop_neighborhood(g, v), oracle.two_hop_neighborhood(g, v))


def isolated_and_cycles():
    """Four isolated nodes (singleton walks and ego sets) beside a path and a
    triangle, on which every k-step walk revisits nodes."""
    return Graph(12, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])


CORPUS_GRAPHS = pytest.mark.parametrize("g, k, d", [
    (sbm_graph([24, 24, 24, 24], 0.8, 0.1, seed=1), 12, 2),
    (chung_lu_like(300, 6.0, 2.3, seed=5), 10, 1),
    (isolated_and_cycles(), 6, 3),
], ids=["dense-sbm", "heavy-tailed", "isolated-revisits"])


def oracle_bytes(g, scheme, k, d, path):
    oracle.write_corpus_jsonl(oracle.build_corpus(g, scheme, k, d, count=50, seed=7), path)
    return path.read_bytes()


@pytest.mark.parametrize("scheme", SCHEMES)
@CORPUS_GRAPHS
def test_packed_corpus_matches_per_sample_oracle(tmp_path, g, k, d, scheme):
    got = build_corpus(g, scheme, k, d, count=50, seed=7)
    want = oracle.build_corpus(g, scheme, k, d, count=50, seed=7)
    assert len(got) == len(want)
    for view, sample in zip(got, want):
        assert np.array_equal(view.id_map, sample.id_map)
        assert np.array_equal(view.edge_states(), sample.edge_states())
        assert view.local == sample.local
    packed = SampleCorpus(want, scheme, k, d)
    for name in ("ids", "ptr", "states", "pair_ptr"):
        assert np.array_equal(getattr(got, name), getattr(packed, name)), name
    write_corpus_jsonl(got, tmp_path / "got.jsonl")
    assert (tmp_path / "got.jsonl").read_bytes() == \
        oracle_bytes(g, scheme, k, d, tmp_path / "want.jsonl")
    if scheme == "RW" and g.n == 12:  # singletons, and walks that came back
        assert (got.sizes == 1).any() and (got.sizes[got.sizes > 1] < k + 1).all()


@pytest.mark.parametrize("g, k, d", [
    (sbm_graph([24, 24, 24, 24], 0.8, 0.1, seed=1), 12, 2),
    (chung_lu_like(300, 6.0, 2.3, seed=5), 10, 1),
], ids=["dense-sbm", "heavy-tailed"])
def test_ego_corpus_byte_identical_to_oracle(tmp_path, g, k, d):
    write_corpus_jsonl(build_corpus(g, "Ego", k, d, seed=7), tmp_path / "got.jsonl")
    assert (tmp_path / "got.jsonl").read_bytes() == \
        oracle_bytes(g, "Ego", k, d, tmp_path / "want.jsonl")
    # the halving loop actually ran: some 2-hop balls were above k
    assert max(two_hop_neighborhood(g, v).size for v in range(g.n)) > 2 * k
