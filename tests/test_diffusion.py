import numpy as np
import pytest

from graphstitch.diffusion import (NoiseSchedule, build_schedule,
                                   corpus_marginals, cosine_alpha_bar,
                                   forward_noise, posterior_step, prior_sample,
                                   reverse_step, transition_apply,
                                   _posterior_batch)
from graphstitch.errors import DegeneratePosterior, InvalidParameter
from graphstitch.graphs import Graph
from graphstitch.sampling import SubgraphSample, build_corpus
from graphstitch.sbm import sbm_graph


def toy_corpus():
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])
    return build_corpus(g, "RW", k=3, d=2, seed=0)


def mini_schedule(a, ab_prev, m_x, m_e=(0.5, 0.5)):
    """Two-step schedule hitting (alpha, alpha_bar_prev) at t=2."""
    alpha = np.array([ab_prev, a])
    alpha_bar = np.array([1.0, ab_prev, ab_prev * a])
    return NoiseSchedule(2, alpha, alpha_bar, np.asarray(m_x), np.asarray(m_e))


def posterior_oracle(x_t, p_hat, a, ab_prev, m):
    """Literal mixture with materialized transition matrices."""
    S = len(m)
    Q_t = a * np.eye(S) + (1 - a) * np.outer(np.ones(S), m)
    Qb_prev = ab_prev * np.eye(S) + (1 - ab_prev) * np.outer(np.ones(S), m)
    Qb_t = Qb_prev @ Q_t
    out = np.zeros(S)
    for x in range(S):
        if Qb_t[x, x_t] <= 0.0:
            continue
        w = Q_t[:, x_t] * Qb_prev[x, :]
        out += p_hat[x] * w / w.sum()
    return out / out.sum()


class TestSchedule:
    def test_cosine_endpoints(self):
        for T in (1, 5, 100, 500):
            ab = cosine_alpha_bar(T)
            assert ab[0] == 1.0
            assert (np.diff(ab) < 0).all()
            assert ab[T] <= 1e-4

    def test_build_schedule_alpha_consistency(self):
        sched = build_schedule(50, toy_corpus())
        assert np.allclose(np.cumprod(sched.alpha), sched.alpha_bar[1:], rtol=1e-12)
        assert ((0 < sched.alpha) & (sched.alpha < 1)).all()

    def test_marginals_from_corpus(self):
        g = Graph(3, [(0, 1)])
        s1 = SubgraphSample(Graph(2, [(0, 1)]), np.array([0, 1]), 3)
        s2 = SubgraphSample(Graph(2, []), np.array([1, 2]), 3)
        corpus = build_corpus(g, "RW", k=1, d=1, seed=0)
        corpus.samples = [s1, s2]
        m_x, m_e = corpus_marginals(corpus)
        assert np.allclose(m_x, [0.25, 0.5, 0.25])
        assert np.allclose(m_e, [0.5, 0.5])

    def test_node_marginal_matches_per_sample_loop(self):
        corpus = build_corpus(sbm_graph([20, 20], 0.3, 0.05, seed=2), "RW", k=5,
                              d=2, seed=1)
        counts = np.zeros(corpus.n_parent)
        for sample in corpus:
            np.add.at(counts, sample.id_map, 1.0)
        m_x, _ = corpus_marginals(corpus)
        assert m_x.tobytes() == (counts / counts.sum()).tobytes()

    def test_serialization_roundtrip(self, tmp_path):
        sched = build_schedule(20, toy_corpus())
        path = tmp_path / "schedule.json"
        sched.save(path)
        back = NoiseSchedule.load(path)
        assert back.T == sched.T
        assert np.array_equal(back.alpha_bar, sched.alpha_bar)
        assert np.array_equal(back.alpha, sched.alpha)
        assert np.array_equal(back.m_x, sched.m_x)
        back.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_unmixed_terminal_raises(self, monkeypatch):
        # an exception, not an assert, so it also holds under python -O
        monkeypatch.setattr("graphstitch.diffusion.cosine_alpha_bar",
                            lambda T, s: np.linspace(1.0, 0.5, T + 1))
        with pytest.raises(InvalidParameter, match="alpha_bar\\[T\\]"):
            build_schedule(10, toy_corpus())

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            build_schedule(0, toy_corpus())
        with pytest.raises(InvalidParameter):
            NoiseSchedule(1, [0.5], [1.0, 0.5], [0.5, 0.6], [0.5, 0.5])
        with pytest.raises(InvalidParameter, match="positive before its last entry"):
            NoiseSchedule(2, [0.0, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5], [0.5, 0.5])


class TestTransitionApply:
    def test_pinned_example(self):
        sched = mini_schedule(0.7, 0.9, m_x=[0.2, 0.3, 0.5])
        out = transition_apply(np.array([1.0, 0.0, 0.0]), 2, "node", sched)
        assert np.allclose(out, [0.76, 0.09, 0.15], atol=1e-12)

    def test_composition_equals_closed_form(self):
        sched = build_schedule(30, toy_corpus())
        rng = np.random.default_rng(1)
        for which in ("node", "edge"):
            m = sched.marginal(which)
            dist = rng.random(len(m))
            dist /= dist.sum()
            stepped = dist.copy()
            for t in range(1, 13):
                stepped = transition_apply(stepped, t, which, sched)
            ab = sched.alpha_bar[12]
            closed = ab * dist + (1 - ab) * m
            assert np.abs(stepped - closed).max() < 1e-12

    def test_preserves_total_mass(self):
        sched = build_schedule(10, toy_corpus())
        out = transition_apply(np.full(6, 1 / 6), 5, "node", sched)
        assert np.isclose(out.sum(), 1.0, atol=1e-12)


class TestForwardNoise:
    def test_deterministic_and_shapes(self):
        corpus = toy_corpus()
        sched = build_schedule(25, corpus)
        sample = corpus[0]
        a = forward_noise(sample, 10, sched, seed=42)
        b = forward_noise(sample, 10, sched, seed=42)
        assert np.array_equal(a.x_t, b.x_t) and np.array_equal(a.e_t, b.e_t)
        k = sample.num_nodes
        assert a.x_t.shape == (k,) and a.e_t.shape == (k * (k - 1) // 2,)
        assert a.base is sample and a.t == 10

    def test_small_t_mostly_clean(self):
        corpus = toy_corpus()
        sched = build_schedule(500, corpus)
        sample = max(corpus, key=lambda s: s.num_nodes)
        flips = 0
        for i in range(200):
            noisy = forward_noise(sample, 1, sched, seed=i)
            flips += int((noisy.x_t != sample.id_map).sum())
            flips += int((noisy.e_t != sample.edge_states()).sum())
        assert flips <= 5  # alpha_bar_1 ~ 1 at T=500

    def test_freeze_nodes(self):
        corpus = toy_corpus()
        sched = build_schedule(10, corpus)
        sample = corpus[0]
        noisy = forward_noise(sample, 10, sched, seed=0, freeze_nodes=True)
        assert np.array_equal(noisy.x_t, sample.id_map)

    def test_t_range(self):
        corpus = toy_corpus()
        sched = build_schedule(10, corpus)
        with pytest.raises(InvalidParameter):
            forward_noise(corpus[0], 0, sched, seed=0)
        with pytest.raises(InvalidParameter):
            forward_noise(corpus[0], 11, sched, seed=0)


class TestPosterior:
    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            S = int(rng.integers(2, 6))
            m = rng.random(S) + 0.05
            m /= m.sum()
            a = float(rng.uniform(0.05, 0.999))
            ab_prev = float(rng.uniform(0.05, 1.0))
            p_hat = rng.random(S)
            p_hat /= p_hat.sum()
            x_t = int(rng.integers(S))
            sched = mini_schedule(a, ab_prev, m_x=m)
            got = posterior_step(x_t, p_hat, 2, sched, "node")
            want = posterior_oracle(x_t, p_hat, a, ab_prev, m)
            assert np.abs(got - want).max() < 1e-12

    def test_chapman_kolmogorov_identity(self):
        # sum_j q(x_t | j) q(j | clean) == q(x_t | clean) for the rank-1 family
        rng = np.random.default_rng(3)
        for _ in range(20):
            S = int(rng.integers(2, 7))
            m = rng.random(S) + 0.01
            m /= m.sum()
            a = float(rng.uniform(0.01, 1.0))
            ab = float(rng.uniform(0.01, 1.0))
            Q_t = a * np.eye(S) + (1 - a) * np.outer(np.ones(S), m)
            Qb = ab * np.eye(S) + (1 - ab) * np.outer(np.ones(S), m)
            assert np.abs(Qb @ Q_t - (ab * a) * np.eye(S)
                          - (1 - ab * a) * np.outer(np.ones(S), m)).max() < 1e-12

    def test_t1_returns_masked_p_hat(self):
        # T=1 schedule: alpha_bar_prev = 1, so the reverse step targets the
        # clean state directly and reduces to p_hat on the support
        m = np.array([0.25, 0.25, 0.5])
        sched = NoiseSchedule(1, np.array([0.8]), np.array([1.0, 0.8]),
                              m, np.array([0.5, 0.5]))
        p_hat = np.array([0.1, 0.6, 0.3])
        out = posterior_step(2, p_hat, 1, sched, "node")
        assert np.allclose(out, p_hat, atol=1e-12)

    def test_degenerate_raises(self):
        m = np.array([0.5, 0.5, 0.0])
        sched = mini_schedule(0.7, 0.9, m_x=m)
        p_hat = np.array([0.5, 0.5, 0.0])
        # x_t = 2 has marginal 0, so only clean=2 could explain it, but
        # p_hat gives that no mass
        with pytest.raises(DegeneratePosterior):
            posterior_step(2, p_hat, 2, sched, "node")

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        m = np.array([0.3, 0.3, 0.4])
        sched = mini_schedule(0.6, 0.7, m_x=m)
        states = rng.integers(0, 3, size=8)
        p_hat = rng.random((8, 3))
        p_hat /= p_hat.sum(1, keepdims=True)
        batch = _posterior_batch(states, p_hat, 2, sched, "node")
        for i in range(8):
            single = posterior_step(int(states[i]), p_hat[i], 2, sched, "node")
            assert np.allclose(batch[i], single, atol=1e-15)


class TestReverseStep:
    def test_walks_down_to_zero(self):
        corpus = toy_corpus()
        sched = build_schedule(8, corpus)
        noisy = prior_sample(4, sched, seed=5)
        assert noisy.t == 8
        k = 4
        uniform_x = np.full((k, 6), 1 / 6)
        uniform_e = np.full((k * (k - 1) // 2, 2), 0.5)
        while noisy.t > 0:
            noisy = reverse_step(noisy, uniform_x, uniform_e, sched, seed=noisy.t)
        assert noisy.t == 0
        assert noisy.x_t.shape == (4,)
        assert set(noisy.x_t.tolist()) <= set(range(6))
        assert set(noisy.e_t.tolist()) <= {0, 1}

    def test_deterministic(self):
        corpus = toy_corpus()
        sched = build_schedule(6, corpus)
        noisy = prior_sample(3, sched, seed=1)
        p_x = np.full((3, 6), 1 / 6)
        p_e = np.full((3, 2), 0.5)
        a = reverse_step(noisy, p_x, p_e, sched, seed=9)
        b = reverse_step(noisy, p_x, p_e, sched, seed=9)
        assert np.array_equal(a.x_t, b.x_t) and np.array_equal(a.e_t, b.e_t)

    def test_single_node_subgraph(self):
        corpus = toy_corpus()
        sched = build_schedule(5, corpus)
        noisy = prior_sample(1, sched, seed=2)
        assert noisy.e_t.size == 0
        out = reverse_step(noisy, np.full((1, 6), 1 / 6), np.empty((0, 2)),
                           sched, seed=0)
        assert out.t == 4 and out.e_t.size == 0


def test_prior_sample_matches_marginals():
    corpus = toy_corpus()
    sched = build_schedule(10, corpus)
    rng_draws = [prior_sample(5, sched, seed=i) for i in range(400)]
    xs = np.concatenate([d.x_t for d in rng_draws])
    freq = np.bincount(xs, minlength=6) / xs.size
    assert np.abs(freq - sched.m_x).max() < 0.05
