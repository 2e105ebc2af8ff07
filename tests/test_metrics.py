import itertools
import math

import numpy as np
import pytest

from graphstitch import metrics
from graphstitch.errors import DegenerateDegrees
from graphstitch.graphs import Graph
from graphstitch.metrics import (characteristic_path_length, comparison_csv,
                                 comparison_text, count_squares,
                                 count_triangles, degree_stats,
                                 power_law_exponent, stats_report)


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return Graph(n, np.column_stack([iu[keep], ju[keep]]))


def complete_graph(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


# -- brute-force oracles ------------------------------------------------------

def triangles_oracle(g):
    es = g.edge_set()
    count = 0
    for u, v, w in itertools.combinations(range(g.n), 3):
        if (u, v) in es and (v, w) in es and (u, w) in es:
            count += 1
    return count


def squares_oracle(g):
    """Count node subsets inducing at least one 4-cycle, per labeling."""
    es = g.edge_set()

    def has(a, b):
        return (min(a, b), max(a, b)) in es

    count = 0
    for quad in itertools.combinations(range(g.n), 4):
        # three distinct cyclic orderings of 4 labeled nodes
        a, b, c, d = quad
        for perm in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            w, x, y, z = perm
            if has(w, x) and has(x, y) and has(y, z) and has(z, w):
                count += 1
    return count


def clustering_oracle(g):
    es = g.edge_set()
    vals = []
    for v in range(g.n):
        nb = g.neighbors(v)
        d = nb.size
        if d == 0:
            continue
        if d < 2:
            vals.append(0.0)
            continue
        links = sum(1 for a, b in itertools.combinations(nb.tolist(), 2)
                    if (min(a, b), max(a, b)) in es)
        vals.append(2.0 * links / (d * (d - 1)))
    return float(np.mean(vals)) if vals else float("nan")


def assortativity_oracle(g):
    deg = g.degrees
    xs, ys = [], []
    for u, v in g.edge_array.tolist():
        xs += [deg[u], deg[v]]
        ys += [deg[v], deg[u]]
    xs = np.array(xs, dtype=float)
    ys = np.array(ys, dtype=float)
    sx = xs.std()
    sy = ys.std()
    if sx == 0 or sy == 0:
        return float("nan")
    return float(((xs - xs.mean()) * (ys - ys.mean())).mean() / (sx * sy))


def cpl_oracle(g, component):
    """BFS from every component node, pure python."""
    comp = set(component.tolist())
    total = 0
    for src in component.tolist():
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.neighbors(u).tolist():
                    if w in comp and w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(dist.values())
    nc = len(comp)
    return total / (nc * (nc - 1))


# -- tests --------------------------------------------------------------------

class TestTriangles:
    def test_known_shapes(self):
        assert count_triangles(complete_graph(4)) == 4
        assert count_triangles(complete_graph(5)) == 10
        assert count_triangles(Graph(3, [(0, 1), (1, 2), (0, 2)])) == 1
        assert count_triangles(Graph(4, [(0, 1), (1, 2), (2, 3)])) == 0

    def test_random_vs_oracle(self):
        for seed in range(25):
            g = random_graph(11, 0.35, seed)
            assert count_triangles(g) == triangles_oracle(g)

    def test_inconsistent_per_node_raises(self, monkeypatch):
        g = complete_graph(3)
        monkeypatch.setattr(metrics, "_per_node_triangles", lambda g: np.array([1, 1, 0]))
        with pytest.raises(RuntimeError, match="multiple of 3"):
            count_triangles(g)


class TestSquares:
    def test_known_shapes(self):
        assert count_squares(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == 1
        assert count_squares(complete_graph(4)) == 3
        assert count_squares(Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])) == 0

    def test_random_vs_oracle(self):
        for seed in range(25):
            g = random_graph(10, 0.4, seed)
            assert count_squares(g) == squares_oracle(g)


class TestDegreeStats:
    def test_star_assortativity(self):
        # K_{1,3}: degrees perfectly anticorrelated across edges
        md, cc, r = degree_stats(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert md == 3
        assert cc == 0.0
        assert np.isclose(r, -1.0, atol=1e-12)

    def test_regular_graph_nan(self):
        _, _, r = degree_stats(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert math.isnan(r)

    def test_clustering_triangle_plus_pendant(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        _, cc, _ = degree_stats(g)
        # nodes: 1, 1, 1/3, 0 -> mean 7/12
        assert np.isclose(cc, 7 / 12, atol=1e-12)

    def test_random_vs_oracles(self):
        for seed in range(25):
            g = random_graph(12, 0.3, seed)
            md, cc, r = degree_stats(g)
            assert md == int(g.degrees.max())
            assert np.isclose(cc, clustering_oracle(g), atol=1e-12)
            ro = assortativity_oracle(g)
            if math.isnan(ro):
                assert math.isnan(r)
            else:
                assert np.isclose(r, ro, atol=1e-9)

    def test_empty(self):
        md, cc, r = degree_stats(Graph(3))
        assert md == 0 and math.isnan(cc) and math.isnan(r)


class TestPowerLaw:
    def test_pinned_value(self):
        # degrees {1,1,1}: alpha = 1 + 3 / (3 ln 2) = 1 + 1/ln 2
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        assert np.isclose(power_law_exponent(g), 1 + 1 / math.log(2), rtol=1e-12)

    def test_matches_direct_formula(self):
        g = random_graph(30, 0.1, 3)
        deg = g.degrees
        deg = deg[deg >= 1]
        expect = 1 + deg.size / np.log(deg / 0.5).sum()
        assert np.isclose(power_law_exponent(g), expect, rtol=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateDegrees):
            power_law_exponent(Graph(3))
        with pytest.raises(DegenerateDegrees):
            power_law_exponent(Graph(2, [(0, 1)]), d_min=2)


class TestCPL:
    def test_path_graph(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        # ordered-pair distances: mean of 1,1,1,2,2,3 doubled
        assert np.isclose(characteristic_path_length(g), 20 / 12, atol=1e-12)

    def test_uses_largest_component(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        assert np.isclose(characteristic_path_length(g), 8 / 6, atol=1e-12)

    def test_random_vs_bfs_oracle(self):
        from graphstitch.graphs import largest_connected_component
        for seed in range(10):
            g = random_graph(14, 0.2, seed)
            if g.num_edges == 0:
                continue
            comp = largest_connected_component(g)
            if comp.size < 2:
                continue
            assert characteristic_path_length(g) == cpl_oracle(g, comp)

    def test_no_edges_nan(self):
        assert math.isnan(characteristic_path_length(Graph(3)))


class TestStatsReport:
    def test_full_report(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 2)])
        rep = stats_report(g)
        assert rep.num_nodes == 5
        assert rep.num_edges == 6
        assert rep.triangles == 2
        assert rep.max_degree == 4
        assert rep.flags == ()
        d = rep.to_dict()
        assert d["cpl"] == rep.cpl

    def test_matches_standalone_calls(self):
        # stats_report reports exactly what the standalone calls return
        for seed in range(3):
            g = random_graph(30, 0.2, seed)
            rep = stats_report(g)
            max_degree, clustering, assort = degree_stats(g)
            assert rep.triangles == count_triangles(g)
            assert (rep.max_degree, rep.clustering, rep.assortativity) == \
                (max_degree, clustering, assort)

    def test_flags_on_degenerate(self):
        rep = stats_report(Graph(4))
        assert "assortativity_degenerate" in rep.flags
        assert "cpl_degenerate" in rep.flags
        assert rep.to_dict()["cpl"] is None

    def test_comparison_outputs(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        reports = {"real": stats_report(g), "synthetic": stats_report(g)}
        csv = comparison_csv(reports)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("label,num_nodes,")
        assert len(lines) == 3
        txt = comparison_text(reports)
        assert "real" in txt and "synthetic" in txt
        # aligned: all rows same width
        widths = {len(row) for row in txt.splitlines()}
        assert len(widths) == 1
