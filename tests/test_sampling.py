import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import graph_oracle as oracle
from graphstitch import sampling
from graphstitch.errors import InvalidParameter
from graphstitch.graphs import Graph, is_connected
from graphstitch.rng import substream
from graphstitch.sampling import (SCHEMES, build_corpus, corpus_stats, local_pairs,
                                  read_corpus_jsonl, required_sample_count,
                                  sample_ego, sample_random_walk,
                                  sample_uniform, two_hop_neighborhood,
                                  write_corpus_jsonl)
from graphstitch.sbm import sbm_graph


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestRequiredSampleCount:
    def test_pinned_value(self):
        # oracle computed by hand: 25 * ln(100) * ln(20) = 344.897... -> 345
        assert required_sample_count(100, 20, 0.05) == 345

    def test_formula_matches_direct_evaluation(self):
        for n, k, delta in [(50, 5, 0.1), (1000, 14, 0.05), (30, 30, 0.5)]:
            expect = max(1, math.ceil((n / k) ** 2 * math.log(n)
                                      * math.log(1 / delta)))
            assert required_sample_count(n, k, delta) == expect

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            required_sample_count(5, 6, 0.05)
        with pytest.raises(InvalidParameter):
            required_sample_count(5, 0, 0.05)
        with pytest.raises(InvalidParameter):
            required_sample_count(5, 2, 1.5)


class TestUniform:
    def test_sizes_and_id_maps(self):
        g = path_graph(10)
        corpus = sample_uniform(g, k=4, count=25, seed=3)
        assert len(corpus) == 25
        for s in corpus:
            assert s.num_nodes == 4
            assert np.all(np.diff(s.id_map) > 0)
            assert s.n_parent == 10

    def test_k_larger_than_n(self):
        with pytest.raises(InvalidParameter):
            sample_uniform(path_graph(3), k=4, count=1)

    def test_induced_edges_correct(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        corpus = sample_uniform(g, k=3, count=40, seed=0)
        for s in corpus:
            for i, j in s.local.edge_array.tolist():
                assert g.has_edge(int(s.id_map[i]), int(s.id_map[j]))


class TestRandomWalk:
    def test_visit_cap(self):
        g = path_graph(30)
        corpus = sample_random_walk(g, k=5, d=3, seed=1)
        assert len(corpus) == 3 * 30
        assert all(s.num_nodes <= 6 for s in corpus)

    def test_isolated_start_singleton(self):
        g = Graph(4, [(1, 2)])
        corpus = sample_random_walk(g, k=3, d=1, seed=0)
        by_start = {int(s.id_map[0]): s for s in corpus if s.num_nodes == 1}
        assert 0 in by_start and 3 in by_start

    def test_walk_stays_in_neighborhoods(self):
        # on a path, a k-step walk from v cannot leave [v-k, v+k]
        g = path_graph(40)
        corpus = sample_random_walk(g, k=4, d=2, seed=7)
        for s in corpus:
            ids = s.id_map
            assert ids.max() - ids.min() <= 8


class TestLockstepWalk:
    """sample_random_walk against the one-walk-at-a-time loop in graph_oracle."""

    @pytest.mark.parametrize("k,d,seed", [(1, 1, 0), (3, 2, 5), (6, 3, 11)])
    def test_forced_walks_match_oracle(self, k, d, seed):
        # a perfect matching on 0..5 plus isolated 6 and 7: every walk is forced
        g = Graph(8, [(0, 3), (1, 5), (2, 4)])
        got = sample_random_walk(g, k, d, seed=seed)
        want = oracle.sample_random_walk(g, k, d, seed=seed)
        assert len(got) == len(want) == 8 * d
        for a, b in zip(got, want):
            assert a.id_map.tolist() == b.id_map.tolist()
            assert a.local == b.local

    def test_visited_set_frequencies_match_oracle(self):
        # irregular: degrees 3, 2, 2, 2, 1 and a triangle
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])
        got = [Counter() for _ in range(g.n)]
        want = [Counter() for _ in range(g.n)]
        for seed in range(20):
            for counts, sample in ((got, sample_random_walk), (want, oracle.sample_random_walk)):
                # samples come in (start node, repetition) order, 200 per start
                for i, s in enumerate(sample(g, 2, 200, seed=seed)):
                    counts[i // 200][tuple(s.id_map.tolist())] += 1
        for a, b in zip(got, want):
            total = sum(a.values())
            assert total == sum(b.values()) == 20 * 200
            tv = 0.5 * sum(abs(a[key] - b[key]) for key in set(a) | set(b)) / total
            assert tv < 0.05

    def test_consecutive_positions_are_edges(self, monkeypatch):
        g = Graph(9, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3), (6, 7)])
        steps = []
        draw = Graph.random_neighbors

        def recording(self, nodes, rng):
            nxt = draw(self, nodes, rng)
            steps.append((nodes.copy(), nxt))
            return nxt

        monkeypatch.setattr(Graph, "random_neighbors", recording)
        k, d = 5, 3
        sample_random_walk(g, k, d, seed=4)
        assert len(steps) == k * d
        for i, (cur, nxt) in enumerate(steps):
            if i % k == 0:  # a repetition starts from every node with a neighbor
                assert cur.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
            else:
                assert np.array_equal(cur, steps[i - 1][1])
            assert all(g.has_edge(u, v) for u, v in zip(cur.tolist(), nxt.tolist()))

    def test_one_substream_per_repetition(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return substream(*args)

        monkeypatch.setattr(sampling, "substream", counting)
        sample_random_walk(path_graph(30), k=4, d=3, seed=2)
        assert calls == [(2, "rw", rep) for rep in range(3)]

    def test_all_isolated(self):
        corpus = sample_random_walk(Graph(3), k=4, d=2, seed=0)
        assert [s.id_map.tolist() for s in corpus] == [[0], [0], [1], [1], [2], [2]]


class TestEgo:
    def test_two_hop(self):
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        assert two_hop_neighborhood(g, 0).tolist() == [0, 1, 2, 4, 5]

    def test_connected_and_bounded(self):
        g = star(9)
        corpus = sample_ego(g, k=5, d=4, seed=2)
        for s in corpus:
            assert s.num_nodes <= 5
            assert is_connected(s.local)

    def test_small_neighborhood_returned_whole(self):
        g = path_graph(12)
        corpus = sample_ego(g, k=6, d=1, seed=0)
        # sample_ego emits in node order; an interior node's closed 2-hop
        # set on a path has 5 nodes <= k so it is returned whole
        assert corpus.samples[6].id_map.tolist() == [4, 5, 6, 7, 8]

    def test_random_graphs_connected(self):
        rng = np.random.default_rng(0)
        iu, ju = np.triu_indices(25, k=1)
        keep = rng.random(iu.size) < 0.15
        g = Graph(25, np.column_stack([iu[keep], ju[keep]]))
        corpus = sample_ego(g, k=8, d=2, seed=5)
        for s in corpus:
            assert s.num_nodes <= 8
            assert is_connected(s.local)


class TestBuildCorpus:
    def test_deterministic(self):
        g = path_graph(15)
        a = build_corpus(g, "RW", k=4, d=2, seed=9)
        b = build_corpus(g, "RW", k=4, d=2, seed=9)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert sa.id_map.tolist() == sb.id_map.tolist()
            assert sa.local == sb.local

    def test_shuffled_relative_to_generation(self):
        g = path_graph(30)
        raw = sample_random_walk(g, k=3, d=1, seed=11)
        shuffled = build_corpus(g, "RW", k=3, d=1, seed=11)
        raw_ids = [s.id_map.tolist() for s in raw]
        shuf_ids = [s.id_map.tolist() for s in shuffled]
        assert sorted(map(tuple, raw_ids)) == sorted(map(tuple, shuf_ids))
        assert raw_ids != shuf_ids

    def test_unif_cap(self, monkeypatch):
        monkeypatch.setattr(sampling, "UNIF_CAP", 50)
        g = path_graph(60)
        corpus = build_corpus(g, "Unif", k=3, seed=0)
        assert len(corpus) == 50

    def test_unknown_scheme(self):
        with pytest.raises(InvalidParameter):
            build_corpus(path_graph(5), "BFS", k=2)

    @pytest.mark.parametrize("scheme", ["rw", "uniform", "random_walk", "ego", "EGO"])
    def test_scheme_names_are_exact(self, scheme):
        with pytest.raises(InvalidParameter, match=re.escape(str(sampling.SCHEMES))):
            build_corpus(path_graph(8), scheme, k=3, d=1, count=2)


# the start of the reason a line out of the written form is rejected with
FORM = "not JSON in the form write_corpus_jsonl writes"
ORDER = "edges must be [i,j] pairs with i < j, in ascending order"


class TestSerialization:
    def test_jsonl_roundtrip(self, tmp_path):
        g = path_graph(12)
        corpus = build_corpus(g, "Ego", k=5, d=2, seed=4)
        path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(corpus, path)
        back = read_corpus_jsonl(path, corpus.n_parent, corpus.scheme,
                                 corpus.k, corpus.d)
        assert len(back) == len(corpus)
        for sa, sb in zip(corpus, back):
            assert sa.id_map.tolist() == sb.id_map.tolist()
            assert sa.local == sb.local

    def test_line_format(self, tmp_path):
        g = Graph(4, [(0, 1), (1, 2)])
        corpus = sample_uniform(g, k=3, count=1, seed=0)
        path = tmp_path / "c.jsonl"
        write_corpus_jsonl(corpus, path)
        obj = json.loads(path.read_text().splitlines()[0])
        assert set(obj) == {"ids", "edges"}
        assert all(len(e) == 2 for e in obj["edges"])

    def test_corpus_stats(self):
        g = path_graph(10)
        corpus = build_corpus(g, "RW", k=3, d=1, seed=0)
        stats = corpus_stats(corpus)
        assert stats["count"] == 10
        assert stats["n_parent"] == 10
        assert sum(stats["size_histogram"].values()) == 10
        assert 0.0 <= stats["edge_density"] <= 1.0

    def test_corpus_stats_match_per_sample_sums(self):
        # singletons (no pairs) among the samples, first and last included
        g = Graph(9, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6)])
        corpus = build_corpus(g, "RW", k=3, d=2, seed=1)
        assert corpus.sizes[0] == 1 or corpus.sizes[-1] == 1
        stats = corpus_stats(corpus)
        edges = np.array([s.local.num_edges for s in corpus])
        pairs = sum(s.num_nodes * (s.num_nodes - 1) // 2 for s in corpus)
        assert stats["mean_edges"] == float(edges.mean())
        assert stats["edge_density"] == float(edges.sum()) / pairs
        assert stats["size_histogram"] == Counter(str(s.num_nodes) for s in corpus)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_write_read_write_same_bytes(self, tmp_path, scheme):
        g = sbm_graph([15, 15], 0.4, 0.05, seed=2)
        first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
        corpus = build_corpus(g, scheme, k=6, d=2, count=40, seed=3)
        write_corpus_jsonl(corpus, first)
        back = read_corpus_jsonl(first, g.n, scheme, 6, corpus.d)
        write_corpus_jsonl(back, again)
        assert again.read_bytes() == first.read_bytes()
        for name in ("ids", "ptr", "states"):
            assert np.array_equal(getattr(back, name), getattr(corpus, name))

    @pytest.mark.parametrize("line, why", [
        (b'{"edges": [[0, 2]], "ids": [0, 1, 5]}\n', FORM),  # spaces
        (b'{"ids":[0,1,5],"edges":[[0,2]]}\n', FORM),  # other key order
        (b'\n', FORM),  # blank
        (b'{"edges":[[0,2]],"ids":[0,1,5]}\r\n', FORM),  # CRLF
        (b'{"edges":[[0,2]],"ids":[0,1,5\xff]}\n', FORM),  # not UTF-8
        (b'{"edges":[[0,2]],"ids":[0,1,5.0]}\n', FORM),
        (b'{"edges":[[0,2]],"ids":[0,1,-5]}\n', FORM),
        (b'{"edges":[[2,0]],"ids":[0,1,5]}\n', ORDER),  # reversed
        (b'{"edges":[[0,2],[0,2]],"ids":[0,1,5]}\n', ORDER),  # repeated
        (b'{"edges":[[1,2],[0,2]],"ids":[0,1,5]}\n', ORDER),  # descending
    ])
    def test_lines_in_another_form_rejected(self, tmp_path, monkeypatch, line, why):
        # written lines, read in blocks of two, around the line at each place
        monkeypatch.setattr(sampling, "LINE_CHUNK", 2)
        good = b'{"edges":[[0,1]],"ids":[3,7]}\n'
        path = tmp_path / "c.jsonl"
        for at in range(1, 6):
            path.write_bytes(good * (at - 1) + line + good * (5 - at))
            with pytest.raises(InvalidParameter, match=re.escape(f"{path} line {at}: {why}")):
                read_corpus_jsonl(path, 10, "RW", 3, 1)

    @pytest.mark.parametrize("bad, why", [
        ('{"edges":[[0,1]],"ids":[03,7]}', "not JSON"),
        ('{"edges":[[0,2]],"ids":[3,7]}', "edges: edge endpoint out of range"),
        ('{"edges":[[1,1]],"ids":[3,7]}', "edges: self-loops are not allowed"),
        ('{"edges":[],"ids":[7,3]}', "ids must be strictly increasing"),
        ('{"edges":[],"ids":[3,10]}', "ids must be strictly increasing"),
        ('{"edges":[],"ids":[3,99999999999999999999]}', FORM),
    ])
    def test_bad_written_line_named_in_any_block(self, tmp_path, monkeypatch, bad, why):
        monkeypatch.setattr(sampling, "LINE_CHUNK", 3)
        good = '{"edges":[[0,1]],"ids":[3,7]}\n'
        path = tmp_path / "c.jsonl"
        for at in range(1, 6):
            path.write_text(good * (at - 1) + bad + "\n" + good * (6 - at))
            with pytest.raises(InvalidParameter, match=re.escape(f"line {at}: {why}")):
                read_corpus_jsonl(path, 10, "RW", 3, 1)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.sampled_from(SCHEMES), seed=st.integers(0, 3), chunk=st.integers(1, 4),
       edit=st.sampled_from(["replace", "insert", "delete"]), data=st.data())
def test_one_byte_edit_is_rejected_or_read_as_written(tmp_path, scheme, seed, chunk, edit,
                                                      data):
    """The reader accepts exactly what the writer can write: after one byte
    of a written corpus is replaced, inserted or deleted, it either names the
    file and a line of it, or reads a corpus whose rewrite is the edited file."""
    g = sbm_graph([5, 5], 0.5, 0.1, seed=seed)
    corpus = build_corpus(g, scheme, k=4, d=1, count=6, seed=seed)
    path, again = tmp_path / "c.jsonl", tmp_path / "again.jsonl"
    write_corpus_jsonl(corpus, path)
    text = path.read_bytes()
    # half of the edits put a digit at a digit, where most of them keep the form
    digits = [at for at, byte in enumerate(text) if chr(byte).isdigit()]
    at = data.draw(st.one_of(st.sampled_from(digits),
                             st.integers(0, len(text) - (edit != "insert"))), label="at")
    byte = bytes([data.draw(st.one_of(st.sampled_from(b"0123456789"), st.integers(0, 255)),
                            label="byte")])
    edited = {"replace": text[:at] + byte + text[at + 1:],
              "insert": text[:at] + byte + text[at:],
              "delete": text[:at] + text[at + 1:]}[edit]
    path.write_bytes(edited)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "LINE_CHUNK", chunk)
        try:
            back = read_corpus_jsonl(path, g.n, scheme, 4, corpus.d)
        except InvalidParameter as exc:
            named = re.fullmatch(rf"corpus {re.escape(str(path))} line ([0-9]+): .+", str(exc))
            assert named, str(exc)
            assert 1 <= int(named[1]) <= edited.count(b"\n") + (not edited.endswith(b"\n"))
            return
    write_corpus_jsonl(back, again)
    assert again.read_bytes() == edited


def test_view_edge_states_read_only_and_fixed():
    corpus = build_corpus(sbm_graph([8, 8], 0.5, 0.1, seed=0), "RW", k=4, d=1, seed=2)
    for s in (corpus[3], corpus[-1]):
        states = s.edge_states()
        assert states.dtype == np.int8 and not states.flags.writeable
        assert not s.id_map.flags.writeable
        assert s.edge_states() is states
        assert s._local is None  # no Graph until local is read
        assert s.local.num_edges == int(states.sum())


def test_edge_states_cached_read_only():
    g = Graph(4, [(0, 1), (1, 3), (2, 3)])
    s = sample_uniform(g, k=4, count=1, seed=0)[0]
    states = s.edge_states()
    assert states.tolist() == [1, 0, 0, 0, 1, 1]
    assert states.dtype == np.int8 and not states.flags.writeable
    assert s.edge_states() is states


def test_local_pairs_order():
    iu, ju = local_pairs(4)
    assert list(zip(iu.tolist(), ju.tolist())) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
