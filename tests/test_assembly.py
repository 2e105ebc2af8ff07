import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphstitch import assembly
from graphstitch.assembly import (assemble, generate_subgraph,
                                  progressive_assemble, snapshot_graphs, _union_loop)
from graphstitch.denoiser import DenoiserParams, TrainConfig, train
from graphstitch.diffusion import build_schedule
from graphstitch.errors import InvalidParameter, StalledAssembly
from graphstitch.graphs import Graph, load_edge_list_file, save_edge_list
from graphstitch.sampling import SubgraphSample, build_corpus


def trained_toy(steps=30):
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                  (7, 0), (0, 4), (2, 6)])
    corpus = build_corpus(g, "RW", k=4, d=3, seed=0)
    sched = build_schedule(10, corpus)
    params, _ = train(corpus, sched, TrainConfig(steps=steps, batch=8,
                                                 learning_rate=3e-3, h=8,
                                                 L=1, seed=0))
    return g, corpus, sched, params


class TestGenerateSubgraph:
    def test_decodes_to_valid_sample(self):
        _, _, sched, params = trained_toy()
        for seed in range(6):
            sub = generate_subgraph(params, sched, k=4, seed=seed)
            assert sub.n_parent == 8
            assert sub.num_nodes <= 4
            assert np.all(np.diff(sub.id_map) > 0)
            assert (sub.id_map >= 0).all() and (sub.id_map < 8).all()
            # local graph is simple: no self loops by construction
            ea = sub.local.edge_array
            assert (ea[:, 0] < ea[:, 1]).all()

    def test_deterministic(self):
        _, _, sched, params = trained_toy(steps=5)
        a = generate_subgraph(params, sched, k=3, seed=11)
        b = generate_subgraph(params, sched, k=3, seed=11)
        assert a.id_map.tolist() == b.id_map.tolist()
        assert a.local == b.local

    def test_k_one(self):
        _, _, sched, params = trained_toy(steps=2)
        sub = generate_subgraph(params, sched, k=1, seed=0)
        assert sub.num_nodes == 1 and sub.local.num_edges == 0


def fixed_feeder(subs):
    """Deterministic generator stub cycling through prebuilt samples."""
    def make(i):
        return subs[i % len(subs)]
    return make


def sample_of(n_parent, ids, edges):
    ids = np.asarray(sorted(ids), dtype=np.int64)
    lookup = {int(v): i for i, v in enumerate(ids)}
    local = Graph(len(ids), [(lookup[u], lookup[v]) for u, v in edges])
    return SubgraphSample(local, ids, n_parent)


class TestUnionLoop:
    def test_stops_at_threshold_with_overshoot(self):
        subs = [sample_of(10, [0, 1, 2], [(0, 1), (1, 2), (0, 2)]),
                sample_of(10, [3, 4, 5], [(3, 4), (4, 5), (3, 5)]),
                sample_of(10, [6, 7, 8], [(6, 7), (7, 8), (6, 8)])]
        acc = _union_loop(fixed_feeder(subs), 10, 4)
        assert acc.subgraphs_used == 2
        assert acc.num_edges == 6
        assert acc.overshoot == 2
        assert len(acc.entry_codes) == 6

    def test_duplicate_edges_do_not_recount(self):
        subs = [sample_of(5, [0, 1], [(0, 1)]),
                sample_of(5, [0, 1], [(0, 1)]),
                sample_of(5, [1, 2], [(1, 2)]),
                sample_of(5, [2, 3], [(2, 3)])]
        acc = _union_loop(fixed_feeder(subs), 5, 3)
        assert acc.num_edges == 3
        assert acc.subgraphs_used == 4
        assert acc.overshoot == 0

    def test_stall_raises(self, monkeypatch):
        monkeypatch.setattr(assembly, "STALL_LIMIT", 7)
        subs = [sample_of(4, [0, 1], [(0, 1)])]
        with pytest.raises(StalledAssembly) as exc:
            _union_loop(fixed_feeder(subs), 4, 5)
        assert exc.value.edges == 1
        assert exc.value.subgraphs_used == 8  # 1 productive + 7 stalled

    def test_multiple_thresholds_one_insert(self):
        subs = [sample_of(8, range(6),
                          [(i, j) for i in range(6) for j in range(i + 1, 6)])]
        acc = _union_loop(fixed_feeder(subs), 8, 15)
        assert acc.subgraphs_used == 1
        graphs = snapshot_graphs(acc.entry_codes, acc.union_sizes, [2, 5, 15], 8)
        assert [g.num_edges for g in graphs] == [15, 15, 15]
        assert graphs[0] is graphs[1] is graphs[2]  # one prefix, one Graph

    def test_snapshots_are_sorted_pair_codes(self):
        subs = [sample_of(9, [2, 5, 7], [(5, 7), (2, 5)]),
                sample_of(9, [0, 5], [(0, 5)]),
                sample_of(9, [1, 2, 5], [(1, 5), (2, 5)])]
        acc = _union_loop(fixed_feeder(subs), 9, 4)
        assert acc.subgraphs_used == 3 and acc.overshoot == 0
        graphs = snapshot_graphs(acc.entry_codes, acc.union_sizes, [2, 4], 9)
        assert [g.n for g in graphs] == [9, 9]
        assert graphs[0].edge_codes.tolist() == [2 * 9 + 5, 5 * 9 + 7]
        assert graphs[1].edge_codes.tolist() == [0 * 9 + 5, 1 * 9 + 5, 2 * 9 + 5,
                                                 5 * 9 + 7]
        assert graphs[1].edge_codes.dtype == np.int64

    def test_entry_order_and_union_sizes(self):
        subs = [sample_of(9, [2, 5, 7], [(5, 7), (2, 5)]),
                sample_of(9, [0, 5], [(0, 5)]),
                sample_of(9, [2, 5, 7], [(2, 5)]),
                sample_of(9, [1, 2, 5], [(2, 5), (1, 5)])]
        acc = _union_loop(fixed_feeder(subs), 9, 4)
        assert acc.union_sizes == [2, 3, 3, 4]
        # grouped by the subgraph that first added them, ascending within
        assert acc.entry_codes.tolist() == [2 * 9 + 5, 5 * 9 + 7, 0 * 9 + 5, 1 * 9 + 5]
        assert acc.entry_codes.dtype == np.int64


def test_snapshot_graphs_take_the_prefix_of_the_crossing_subgraph():
    codes = np.array([7, 3, 9, 1, 4], dtype=np.int64)  # pairs (0, v) on 10 nodes
    sizes = [2, 2, 3, 5]
    graphs = snapshot_graphs(codes, sizes, [1, 2, 3, 3, 4, 5], 10)
    assert [g.edge_codes.tolist() for g in graphs] == [
        [3, 7], [3, 7], [3, 7, 9], [3, 7, 9], [1, 3, 4, 7, 9], [1, 3, 4, 7, 9]]


N_FED = 7
fed_subgraph = st.lists(st.tuples(st.integers(0, N_FED - 1), st.integers(0, N_FED - 1))
                        .filter(lambda e: e[0] != e[1]), max_size=6)


@settings(max_examples=150, deadline=None)
@given(feed=st.lists(fed_subgraph, min_size=1, max_size=6), data=st.data())
def test_snapshot_graphs_match_the_brute_force_union(feed, data):
    edge_sets = [{(min(e), max(e)) for e in edges} for edges in feed]
    unions = []
    for edges in edge_sets:
        unions.append((unions[-1] if unions else set()) | edges)
    assume(unions[-1])  # a feed that adds no edge stalls: test_stall_raises
    thresholds = sorted(data.draw(st.lists(st.integers(1, len(unions[-1])),
                                           min_size=1, max_size=6)))
    subs = [sample_of(N_FED, {v for e in edges for v in e}, edges) for edges in edge_sets]
    acc = _union_loop(fixed_feeder(subs), N_FED, thresholds[-1])
    graphs = snapshot_graphs(acc.entry_codes, acc.union_sizes, thresholds, N_FED)
    for t, g in zip(thresholds, graphs):
        want = next(u for u in unions if len(u) >= t)
        assert g.n == N_FED
        assert set(map(tuple, g.edge_array.tolist())) == want


class TestAssemble:
    def test_reaches_target(self):
        g, _, sched, params = trained_toy()
        synth, acc = assemble(params, sched, target_edges=8, k=4, seed=3)
        assert synth.n == 8
        assert synth.num_edges >= 8
        assert acc.overshoot == synth.num_edges - 8
        assert acc.overshoot <= 4 * 3 // 2 - 1

    def test_deterministic(self):
        _, _, sched, params = trained_toy(steps=10)
        a, acc_a = assemble(params, sched, 6, 4, seed=5)
        b, acc_b = assemble(params, sched, 6, 4, seed=5)
        assert a == b and acc_a.subgraphs_used == acc_b.subgraphs_used

    def test_entry_order_file_loads_to_the_assembled_graph(self, tmp_path):
        _, _, sched, params = trained_toy(steps=10)
        synth, acc = assemble(params, sched, 8, 4, seed=3)
        path = tmp_path / "synthetic.edgelist"
        save_edge_list(synth, path, order=acc.entry_codes)
        assert load_edge_list_file(path)[0] == synth
        assert acc.union_sizes[-1] == synth.num_edges == len(acc.entry_codes)

    def test_validation(self):
        _, _, sched, params = trained_toy(steps=2)
        with pytest.raises(InvalidParameter):
            assemble(params, sched, 0, 4, seed=0)
        with pytest.raises(InvalidParameter):
            generate_subgraph(params, sched, 0, seed=0)


class TestProgressive:
    def test_snapshots_monotone(self):
        _, _, sched, params = trained_toy()
        snaps = progressive_assemble(params, sched, [0.25, 0.5, 1.0],
                                     total_edges=8, k=4, seed=1)
        assert [f for f, _ in snaps] == [0.25, 0.5, 1.0]
        edge_sets = [set(map(tuple, g.edge_array.tolist())) for _, g in snaps]
        assert edge_sets[0] <= edge_sets[1] <= edge_sets[2]
        assert snaps[0][1].num_edges >= 2  # ceil(0.25 * 8)
        assert snaps[2][1].num_edges >= 8

    def test_single_run_consistency_with_assemble(self):
        # both drive the same substream, so the full-fraction snapshot
        # matches a direct assemble call
        _, _, sched, params = trained_toy(steps=10)
        snaps = progressive_assemble(params, sched, [1.0], 6, 4, seed=9)
        direct, _ = assemble(params, sched, 6, 4, seed=9)
        assert snaps[0][1] == direct

    def test_bad_fractions(self):
        _, _, sched, params = trained_toy(steps=2)
        for bad in ([], [0.0, 1.0], [0.5, 0.5], [0.9, 0.4], [1.2]):
            with pytest.raises(InvalidParameter):
                progressive_assemble(params, sched, bad, 5, 3, seed=0)

