import io

import numpy as np
import pytest

from graphstitch.errors import InvalidNodeSet, ParseError
from graphstitch.graphs import (Graph, graph_summary, induced_subgraph,
                                is_connected, largest_connected_component,
                                load_edge_list, pair_codes, save_edge_list,
                                load_edge_list_file)


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return Graph(n, np.column_stack([iu[keep], ju[keep]]))


def components_oracle(g):
    """Union-find, no scipy."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edge_array.tolist():
        parent[find(u)] = find(v)
    comps = {}
    for v in range(g.n):
        comps.setdefault(find(v), []).append(v)
    return sorted(comps.values(), key=lambda c: (-len(c), c[0]))


class TestGraph:
    def test_canonical_dedup(self):
        g = Graph(4, [(2, 1), (1, 2), (0, 3), (3, 0), (1, 2)])
        assert g.edge_array.tolist() == [[0, 3], [1, 2]]
        assert g.num_edges == 2

    def test_rejects_self_loop_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3, [(-1, 0)])

    def test_neighbors_sorted_and_degrees(self):
        g = Graph(5, [(0, 4), (0, 1), (0, 2), (2, 4)])
        assert g.neighbors(0).tolist() == [1, 2, 4]
        assert g.degrees.tolist() == [3, 1, 2, 0, 2]
        assert g.has_edge(4, 0) and not g.has_edge(1, 2)

    def test_empty(self):
        g = Graph(0)
        assert g.num_edges == 0 and g.n == 0
        g2 = Graph(3)
        assert g2.degrees.tolist() == [0, 0, 0]


class TestLoadEdgeList:
    def test_basic_with_header_and_comments(self):
        text = "# comment\nn=6\n0 1\n# another\n2 3\n\n3 2\n4 4\n"
        g, rep = load_edge_list(io.StringIO(text))
        assert g.n == 6
        assert g.edge_array.tolist() == [[0, 1], [2, 3]]
        assert rep.self_loops_dropped == 1
        assert rep.duplicates_collapsed == 1
        assert rep.id_map is None

    def test_without_header_n_is_max_plus_one(self):
        g, _ = load_edge_list(["0 1", "5 2"])
        assert g.n == 6

    def test_header_too_small(self):
        with pytest.raises(ParseError):
            load_edge_list(["n=2", "0 5"])

    def test_bad_tokens(self):
        with pytest.raises(ParseError):
            load_edge_list(["0 1 2"])
        with pytest.raises(ParseError):
            load_edge_list(["a b"])
        with pytest.raises(ParseError):
            load_edge_list(["-1 2"])
        # int() reads each of these; the format's IDs are ASCII decimal digits
        for lines, at in ((["0 1", "1_0 2"], 2), (["n=1_2", "0 1"], 1), (["+3 2"], 1),
                          (["\u0663 2"], 1)):
            with pytest.raises(ParseError, match=f"line {at}:"):
                load_edge_list(lines)

    def test_relabel(self):
        g, rep = load_edge_list(["10 40", "40 7"], relabel=True)
        assert g.n == 3
        assert rep.id_map.tolist() == [7, 10, 40]
        # 10-40 -> 1-2, 40-7 -> 2-0
        assert g.edge_array.tolist() == [[0, 2], [1, 2]]

    @pytest.mark.parametrize("relabel", [False, True])
    def test_header_below_max_id_rejected_in_both_modes(self, relabel):
        with pytest.raises(ParseError):
            load_edge_list(["n=5", "0 9", "1 2"], relabel=relabel)

    @pytest.mark.parametrize("relabel,n", [(False, 10), (True, 4)])
    def test_header_covering_max_id_loads_in_both_modes(self, relabel, n):
        g, _ = load_edge_list(["n=10", "0 9", "1 2"], relabel=relabel)
        assert g.n == n and g.num_edges == 2

    def test_roundtrip_preserves_isolated(self, tmp_path):
        g = Graph(7, [(0, 1), (2, 5)])
        path = tmp_path / "g.edgelist"
        save_edge_list(g, path)
        g2, _ = load_edge_list_file(path)
        assert g2 == g

    def test_saved_order_reads_back_in_order(self, tmp_path):
        g = Graph(6, [(0, 1), (2, 5), (1, 4), (3, 4)])
        order = [2 * 6 + 5, 0 * 6 + 1, 3 * 6 + 4, 1 * 6 + 4]
        path = tmp_path / "g.edgelist"
        save_edge_list(g, path, order=order)
        assert path.read_text() == "n=6\n2 5\n0 1\n3 4\n1 4\n"
        g2, rep = load_edge_list_file(path)
        assert g2 == g
        assert pair_codes(rep.pairs[:, 0], rep.pairs[:, 1], 6).tolist() == order
        with pytest.raises(ValueError):
            save_edge_list(g, path, order=order[:-1])

    def test_empty_input(self):
        g, rep = load_edge_list([])
        assert g.n == 0 and g.num_edges == 0


def test_random_neighbors_one_draw_per_node():
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    nodes = np.array([0, 3, 5, 0, 4], dtype=np.int64)
    rng = np.random.default_rng(3)
    got = g.random_neighbors(nodes, rng)
    assert all(g.has_edge(u, v) for u, v in zip(nodes.tolist(), got.tolist()))
    # the same draws as one integers() call over the nodes' degrees
    offsets = np.random.default_rng(3).integers(g.degrees[nodes])
    assert got.tolist() == [int(g.neighbors(u)[i]) for u, i in zip(nodes, offsets)]


class TestInducedSubgraph:
    def test_example(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
        sub, id_map = induced_subgraph(g, [3, 0, 1])
        assert id_map.tolist() == [0, 1, 3]
        assert sub.edge_array.tolist() == [[0, 1], [0, 2]]

    def test_validation(self):
        g = Graph(4, [(0, 1)])
        with pytest.raises(InvalidNodeSet):
            induced_subgraph(g, [])
        with pytest.raises(InvalidNodeSet):
            induced_subgraph(g, [1, 1])
        with pytest.raises(InvalidNodeSet):
            induced_subgraph(g, [0, 4])

    def test_against_pairwise_scan(self):
        for seed in range(20):
            g = random_graph(15, 0.3, seed)
            rng = np.random.default_rng(100 + seed)
            s = np.sort(rng.choice(15, size=6, replace=False))
            sub, id_map = induced_subgraph(g, s)
            expect = {(i, j) for i in range(6) for j in range(i + 1, 6)
                      if g.has_edge(int(s[i]), int(s[j]))}
            assert set(map(tuple, sub.edge_array.tolist())) == expect
            assert id_map.tolist() == s.tolist()


class TestLargestComponent:
    def test_tie_break_smallest_id(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert largest_connected_component(g).tolist() == [0, 1]

    def test_no_edges(self):
        g = Graph(3)
        assert largest_connected_component(g).tolist() == [0]

    def test_against_union_find(self):
        for seed in range(30):
            g = random_graph(20, 0.08, seed)
            got = largest_connected_component(g).tolist()
            assert got == components_oracle(g)[0]

    def test_is_connected(self):
        assert is_connected(Graph(3, [(0, 1), (1, 2)]))
        assert not is_connected(Graph(3, [(0, 1)]))


def test_graph_summary_ignores_isolated():
    g = Graph(10, [(0, 1), (1, 2)])
    assert graph_summary(g) == (3, 2)
