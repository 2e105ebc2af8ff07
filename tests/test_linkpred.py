import itertools

import numpy as np
import pytest

import linkpred_oracle as oracle
from graphstitch.errors import InvalidParameter, NegativeSamplingExhausted
from graphstitch.graphs import Graph
from graphstitch.linkpred import (average_precision, build_eval_set, evaluate,
                                  ranking_auc, train_link_predictor,
                                  EmbeddingModel, _sample_non_edges)
from graphstitch.rng import substream
from graphstitch.sbm import sbm_graph


def auc_oracle(pos, neg):
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def ap_oracle(pos, neg):
    """Walk the descending ranking, averaging precision at positive hits;
    ties handled by threshold grouping (score >= threshold retrieved)."""
    thresholds = sorted(set(pos) | set(neg), reverse=True)
    best = []
    prev_recall = 0.0
    total = 0.0
    for thr in thresholds:
        tp = sum(1 for s in pos if s >= thr)
        fp = sum(1 for s in neg if s >= thr)
        recall = tp / len(pos)
        total += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
    return total


class TestRankingMetrics:
    def test_hand_example(self):
        pos = [0.9, 0.4]
        neg = [0.6, 0.1]
        assert np.isclose(ranking_auc(pos, neg), 0.75, atol=1e-12)
        assert np.isclose(average_precision(pos, neg), 5 / 6, atol=1e-12)

    def test_perfect_and_inverted(self):
        assert ranking_auc([0.9, 0.8], [0.2, 0.1]) == 1.0
        assert ranking_auc([0.1, 0.2], [0.8, 0.9]) == 0.0
        assert average_precision([0.9, 0.8], [0.2, 0.1]) == 1.0

    def test_all_tied(self):
        pos = [0.5] * 4
        neg = [0.5] * 6
        assert ranking_auc(pos, neg) == 0.5
        assert np.isclose(average_precision(pos, neg), 0.4, atol=1e-12)

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            # duplicate-heavy scores to stress tie handling
            pos = rng.integers(0, 6, size=rng.integers(1, 10)) / 5.0
            neg = rng.integers(0, 6, size=rng.integers(1, 10)) / 5.0
            assert np.isclose(ranking_auc(pos, neg),
                              auc_oracle(pos.tolist(), neg.tolist()), atol=1e-12)
            assert np.isclose(average_precision(pos, neg),
                              ap_oracle(pos.tolist(), neg.tolist()), atol=1e-12)


class TestEvalSet:
    def test_counts_and_disjointness(self):
        g = sbm_graph([15, 15], 0.4, 0.05, seed=1)
        ev = build_eval_set(g, 0.9, seed=3)
        expect = int(np.ceil(0.9 * g.num_edges))
        assert ev.positives.shape == (expect, 2)
        assert ev.negatives.shape == (expect, 2)
        es = g.edge_set()
        for u, v in ev.positives.tolist():
            assert (min(u, v), max(u, v)) in es
        negs = {(min(u, v), max(u, v)) for u, v in ev.negatives.tolist()}
        assert len(negs) == expect
        assert not negs & es

    def test_deterministic(self):
        g = sbm_graph([10, 10], 0.5, 0.1, seed=0)
        a = build_eval_set(g, 0.5, seed=7)
        b = build_eval_set(g, 0.5, seed=7)
        assert np.array_equal(a.positives, b.positives)
        assert np.array_equal(a.negatives, b.negatives)

    def test_validation(self):
        g = Graph(4, [(0, 1)])
        with pytest.raises(InvalidParameter):
            build_eval_set(g, 0.0, seed=0)
        with pytest.raises(InvalidParameter):
            build_eval_set(Graph(4), 0.5, seed=0)

    def test_dense_graph_exhausts(self):
        # complete graph: no non-edges to find
        g = Graph(5, list(itertools.combinations(range(5), 2)))
        with pytest.raises(NegativeSamplingExhausted):
            _sample_non_edges(g, 1, substream(0, "x"), budget=2000)


class CountingRng:
    """A Generator that counts its integers() calls."""

    def __init__(self, seed):
        self.gen = substream(seed, "non-edges")
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.gen.integers(*args, **kwargs)


def near_complete(n, missing, seed):
    """K_n less `missing` random pairs."""
    iu, ju = np.triu_indices(n, k=1)
    keep = np.ones(iu.size, dtype=bool)
    keep[np.random.default_rng(seed).choice(iu.size, missing, replace=False)] = False
    return Graph(n, np.column_stack([iu[keep], ju[keep]]))


class TestNonEdgeSampler:
    """Batch rejection on pair codes against the per-candidate loop."""

    def run_both(self, g, count, budget=None, seed=0):
        kw = {} if budget is None else {"budget": budget}
        out = []
        for fn in (_sample_non_edges, oracle.sample_non_edges):
            rng = CountingRng(seed)
            try:
                pairs = fn(g, count, rng, **kw)
            except NegativeSamplingExhausted as exc:
                pairs = str(exc)
            out.append((pairs, rng.calls, rng.gen.bit_generator.state))
        return out

    @pytest.mark.parametrize("g, count", [
        (sbm_graph([40, 40], 0.2, 0.02, seed=4), 300),
        (sbm_graph([96, 96], 0.3, 0.02, seed=1), 5000),
        (Graph(2), 1),
        (Graph(3, [(0, 2)]), 2),
        (Graph(4, [(1, 2), (0, 3)]), 4),
    ], ids=["sparse", "sparse-many-batches", "n2", "n3", "n4-all"])
    def test_matches_oracle(self, g, count):
        (got, calls, state), (want, want_calls, want_state) = self.run_both(g, count)
        assert np.array_equal(got, want)
        assert calls == want_calls and state == want_state

    def test_dense_many_rejections(self):
        # 13 non-edges among 7,140 pairs: a batch draws each about 0.6 times
        g = near_complete(120, 13, seed=2)
        for count in (1, 7, 13):
            (got, calls, state), (want, want_calls, want_state) = \
                self.run_both(g, count, seed=count)
            assert np.array_equal(got, want) and got.shape == (count, 2)
            assert calls == want_calls and state == want_state
        assert calls > 3

    @pytest.mark.parametrize("budget", [2000, 4096, 10000])
    def test_exhaustion_after_same_draws(self, budget):
        g = Graph(6, list(itertools.combinations(range(6), 2)))
        (got, calls, state), (want, want_calls, want_state) = \
            self.run_both(g, 1, budget=budget)
        assert got == want == f"drew {budget} candidate pairs for 1 non-edges; graph too dense"
        assert calls == want_calls == -(-budget // 4096)
        assert state == want_state

    def test_budget_ends_mid_batch(self):
        # 13,000 draws are three full batches and a short one of 712: with
        # seed 3 the short batch finds the last non-edge, with seed 0 it
        # does not and the sampler raises, as the loop does
        g = near_complete(120, 13, seed=2)
        results = []
        for seed in (0, 3):
            (got, calls, state), (want, want_calls, want_state) = \
                self.run_both(g, 13, budget=13000, seed=seed)
            results.append(type(want).__name__)
            if isinstance(want, str):
                assert got == want
            else:
                assert np.array_equal(got, want)
            assert calls == want_calls == 4 and state == want_state
        assert results == ["str", "ndarray"]


def random_pairs_graph(n, draws, seed):
    """A graph on n nodes from `draws` random pairs, self-pairs dropped."""
    pairs = np.random.default_rng(seed).integers(0, n, size=(draws, 2))
    return Graph(n, pairs[pairs[:, 0] != pairs[:, 1]])


@pytest.mark.parametrize("g", [random_pairs_graph(192, 470, seed=5),
                               sbm_graph([40, 40], 0.6, 0.3, seed=6)],
                         ids=["sparse-192", "dense-sbm"])
def test_prefix_sampler_matches_whole_batch_over_epochs(g):
    # the epochs of train_link_predictor: count = m, one substream per epoch
    for epoch in range(50):
        got_rng, want_rng = (substream(9, "lp-epoch", epoch) for _ in range(2))
        got = _sample_non_edges(g, g.num_edges, got_rng)
        want = oracle.sample_non_edges_whole_batch(g, g.num_edges, want_rng)
        assert np.array_equal(got, want) and got.shape == (g.num_edges, 2)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestTraining:
    def test_loss_decreases(self):
        g = sbm_graph([12, 12], 0.5, 0.05, seed=2)
        _, trace = train_link_predictor(g, h=8, epochs=60, lr=0.1, seed=0)
        assert trace[-5:].mean() < trace[:5].mean()

    def test_deterministic(self):
        g = sbm_graph([10, 10], 0.4, 0.05, seed=5)
        m1, t1 = train_link_predictor(g, h=4, epochs=10, seed=1)
        m2, t2 = train_link_predictor(g, h=4, epochs=10, seed=1)
        assert np.array_equal(m1.z, m2.z) and m1.bias == m2.bias
        assert np.array_equal(t1, t2)

    @pytest.mark.parametrize("g,h,epochs", [
        (sbm_graph([12, 12], 0.5, 0.05, seed=2), 8, 40),
        (sbm_graph([40, 40, 40], 0.3, 0.02, seed=4), 16, 25),
    ])
    def test_matches_epoch_loop_oracle(self, g, h, epochs):
        model, trace = train_link_predictor(g, h=h, epochs=epochs, seed=3)
        z, bias, want_trace = oracle.train_link_predictor(g, h=h, epochs=epochs, seed=3)
        assert np.array_equal(model.z, z)
        assert model.bias == bias
        assert np.array_equal(trace, want_trace)

    def test_zero_epochs(self):
        g = Graph(4, [(0, 1), (2, 3)])
        model, trace = train_link_predictor(g, h=3, epochs=0, seed=0)
        assert trace.size == 0 and model.z.shape == (4, 3)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            train_link_predictor(Graph(3), h=2, epochs=1)
        with pytest.raises(InvalidParameter):
            train_link_predictor(Graph(3, [(0, 1)]), h=0)


class TestEvaluate:
    def test_block_structure_learned(self):
        # predictor trained on one SBM draw should rank held-out edges of
        # the same communities above non-edges
        real = sbm_graph([20, 20], 0.45, 0.03, seed=10)
        model, _ = train_link_predictor(real, h=8, epochs=400, lr=0.5, seed=0)
        ev = build_eval_set(real, 0.5, seed=4)
        auc, ap = evaluate(model, ev)
        assert auc > 0.7
        assert ap > 0.6

    def test_random_model_near_half(self):
        real = sbm_graph([20, 20], 0.4, 0.05, seed=3)
        rng = np.random.default_rng(0)
        model = EmbeddingModel(rng.normal(0, 0.01, size=(40, 8)), 0.0)
        ev = build_eval_set(real, 0.9, seed=1)
        auc, _ = evaluate(model, ev)
        assert abs(auc - 0.5) < 0.15

    def test_scores_shape(self):
        model = EmbeddingModel(np.eye(3), 0.0)
        s = model.scores([(0, 1), (1, 1)])
        assert s.shape == (2,)
        assert np.isclose(s[0], 0.5) and s[1] > 0.5
