import dataclasses
import hashlib
import json

import numpy as np
import pytest

from diffusion_oracle import _posterior_batch
from graphstitch.diffusion import (NoiseSchedule, NoisySample, build_schedule,
                                   corpus_marginals, cosine_alpha_bar,
                                   forward_noise, posterior_step, prior_sample,
                                   reverse_step, _mixture)
from graphstitch.errors import DegeneratePosterior, InvalidParameter
from graphstitch.graphs import Graph
from graphstitch.sampling import SampleCorpus, SubgraphSample, build_corpus
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
        s1 = SubgraphSample(Graph(2, [(0, 1)]), np.array([0, 1]), 3)
        s2 = SubgraphSample(Graph(2, []), np.array([1, 2]), 3)
        corpus = SampleCorpus([s1, s2], "RW", 1, 1)
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

    def test_cdf_is_built_once_and_not_saved(self, tmp_path):
        sched = build_schedule(20, toy_corpus())
        cdf = sched.m_x.cumsum()
        assert np.array_equal(sched.cdf, cdf / cdf[-1]) and sched.cdf[-1] == 1.0
        sched.save(tmp_path / "schedule.json")
        assert "cdf" not in json.loads((tmp_path / "schedule.json").read_text())
        assert "cdf" not in [f.name for f in dataclasses.fields(NoiseSchedule)]

    @pytest.mark.parametrize("n", [1, 2, 7, 120, 983])
    def test_draw_nodes_is_generator_choice(self, n):
        # the same draws and the same generator state afterwards
        rng = np.random.default_rng(n)
        m = rng.random(n) * (rng.random(n) < 0.7)
        m[0] += 0.5
        m /= m.sum()
        sched = NoiseSchedule(1, [0.5], [1.0, 0.5], m, [0.5, 0.5])
        for seed in range(40):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            size = seed % 9
            assert np.array_equal(sched.draw_nodes(a, size), b.choice(n, size=size, p=m))
            assert a.random() == b.random()

    def test_load_digest_is_the_sha256_of_the_file(self, tmp_path):
        sched = build_schedule(20, toy_corpus())
        assert sched.digest is None
        path = tmp_path / "schedule.json"
        sched.save(path)
        assert NoiseSchedule.load(path).digest == hashlib.sha256(path.read_bytes()).hexdigest()

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
        # a p_hat whose length is not the marginal's, or an x_t out of range
        for x_t, p, which in ((0, p_hat[:2], "node"), (0, p_hat, "edge"),
                              (0, p_hat[None, :], "node"), (3, p_hat, "node"),
                              (-1, p_hat, "node"), (2, p_hat[:2], "edge")):
            with pytest.raises(InvalidParameter):
                posterior_step(x_t, p, 2, sched, which)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        m = np.array([0.3, 0.3, 0.4])
        states = rng.integers(0, 3, size=8)
        p_hat = rng.random((8, 3))
        p_hat /= p_hat.sum(1, keepdims=True)
        cases = [  # (m_x, m_e, which, states, p_hat)
            (m, (0.5, 0.5), "node", states, p_hat),
            (m, (0.5, 0.5), "node", states,
             rng.random((8, 3)) * rng.uniform(0.01, 50.0, (8, 1))),  # unnormalised
            # m[x_t] = 0 and p_hat[x_t] > 0: a point mass that stays at x_t = 2
            ([0.5, 0.5, 0.0], (0.5, 0.5), "node", np.array([2, 0, 2, 1]),
             rng.random((4, 3)) + 0.1),
            (m, (0.8, 0.2), "edge", rng.integers(0, 2, size=8), rng.random((8, 2))),
        ]
        for m_x, m_e, which, states, p_hat in cases:
            sched = mini_schedule(0.6, 0.7, m_x=m_x, m_e=m_e)
            batch = _posterior_batch(states, p_hat, 2, sched, which)
            for x_t, row, want in zip(states.tolist(), p_hat, batch):
                got = posterior_step(x_t, row, 2, sched, which)
                assert np.abs(got - want).max() < 1e-12
                if sched.marginal(which)[x_t] == 0:
                    assert got[x_t] == 1.0


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


def implied_rows(states, p_hat, t, sched, which):
    """The rows _mixture's three components add up to, and its totals."""
    rows = np.arange(len(states))
    p_obs = p_hat[rows, states]
    k_p, k_m, stay, total = _mixture(states, p_obs, p_hat.sum(axis=1) - p_obs, t,
                                     sched, which)
    out = k_p[:, None] * p_hat + k_m[:, None] * sched.marginal(which)
    out[rows, states] = stay
    return out, total


def cosine_schedule(T, m_x, m_e=(0.5, 0.5)):
    ab = cosine_alpha_bar(T)
    return NoiseSchedule(T, ab[1:] / ab[:-1], ab, np.asarray(m_x), np.asarray(m_e))


class TestMixtureSampler:
    """reverse_step draws each element by the inverse CDF of its
    _posterior_batch row, from the row's three-way mixture."""

    @pytest.mark.parametrize("which", ["node", "edge"])
    def test_implied_distribution_is_the_posterior(self, which):
        rng = np.random.default_rng(5)
        for _ in range(60):
            S = 2 if which == "edge" else int(rng.integers(2, 9))
            m = rng.random(S) * (rng.random(S) < 0.7)
            m[rng.integers(S)] += 0.2
            m /= m.sum()
            T = int(rng.integers(2, 40))
            sched = (cosine_schedule(T, m) if which == "node"
                     else cosine_schedule(T, np.full(3, 1 / 3), m))
            states = rng.integers(0, S, 12)
            states[0] = int(np.argmin(m))  # a row whose state has m = 0, when one does
            p_hat = rng.random((12, S)) * rng.uniform(0.01, 50.0, (12, 1))  # unnormalised
            for t in (1, T, int(rng.integers(1, T + 1))):
                out, total = implied_rows(states, p_hat, t, sched, which)
                assert np.allclose(out.sum(axis=1), total, rtol=1e-12, atol=0)
                want = _posterior_batch(states, p_hat, t, sched, which)
                assert np.abs(out / total[:, None] - want).max() < 1e-12
                point = m[states] == 0
                assert (want[point, states[point]] == 1.0).all()

    @pytest.mark.parametrize("t", [1, 2, 5, 8])
    def test_draws_pass_a_chi_square_test_against_the_posterior(self, t):
        S, N = 6, 20000
        rng = np.random.default_rng(t)
        sched = cosine_schedule(8, [0.3, 0.0, 0.1, 0.25, 0.15, 0.2], [0.7, 0.3])
        p_x = rng.random((S, S)) * rng.uniform(0.5, 3.0, (S, 1))
        p_x[2, 4] = 0.0
        p_e = rng.random((2, 2))
        x_t = np.repeat(np.arange(S), N)
        e_t = np.repeat(np.arange(2), N).astype(np.int8)
        out = reverse_step(NoisySample(None, t, x_t, e_t), p_x[x_t], p_e[e_t], sched, seed=t)
        for before, after, p_hat, which in ((x_t, out.x_t, p_x, "node"),
                                            (e_t, out.e_t, p_e, "edge")):
            states = np.arange(len(p_hat))
            want = _posterior_batch(states, p_hat, t, sched, which)
            for x in states:
                counts = np.bincount(after[before == x], minlength=len(states))
                support = want[x] > 0
                assert counts[~support].sum() == 0  # a row whose m[x_t] = 0 stays put
                expected = N * want[x][support]
                chi2 = ((counts[support] - expected) ** 2 / expected).sum()
                df = support.sum() - 1
                assert chi2 <= df + 6 * np.sqrt(2 * df), (which, x, chi2, df)

    def test_draws_are_the_inverse_cdf_of_the_posterior_rows(self):
        # one uniform per element, k for the nodes and then one per pair,
        # searched on the cumulative posterior row in index order
        rng = np.random.default_rng(2)
        n, k, T = 40, 25, 30
        m = rng.random(n) * (rng.random(n) < 0.8)
        m /= m.sum()
        sched = cosine_schedule(T, m, [0.8, 0.2])
        for t in range(1, T + 1):
            noisy = NoisySample(None, t, rng.integers(0, n, k),
                                (rng.random(k * (k - 1) // 2) < 0.3).astype(np.int8))
            p_x = rng.random((k, n)) ** 3 * rng.uniform(0.1, 10.0, (k, 1))
            p_e = rng.random((noisy.e_t.size, 2))
            got = reverse_step(noisy, p_x, p_e, sched, seed=t)
            u = np.random.default_rng(t).random(k + noisy.e_t.size)
            for states, p_hat, which, draws, uniforms in (
                    (noisy.x_t, p_x, "node", got.x_t, u[:k]),
                    (noisy.e_t, p_e, "edge", got.e_t, u[k:])):
                rows = _posterior_batch(states, p_hat, t, sched, which)
                want = [np.cumsum(row).searchsorted(v, side="right")
                        for row, v in zip(rows, uniforms)]
                assert np.array_equal(draws, want)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_zero_or_non_finite_mass_raises(self, bad):
        # x_t = 2 has marginal 0, so only a clean 2 explains it
        sched = mini_schedule(0.7, 0.9, m_x=[0.5, 0.5, 0.0])
        noisy = NoisySample(None, 2, np.array([0, 2]), np.zeros(1, np.int8))
        p_x = np.array([[0.2, 0.8, 0.0], [0.5, 0.5, bad]])
        with pytest.raises(DegeneratePosterior), np.errstate(invalid="ignore"):
            reverse_step(noisy, p_x, np.full((1, 2), 0.5), sched, seed=0)


def test_prior_sample_matches_marginals():
    corpus = toy_corpus()
    sched = build_schedule(10, corpus)
    rng_draws = [prior_sample(5, sched, seed=i) for i in range(400)]
    xs = np.concatenate([d.x_t for d in rng_draws])
    freq = np.bincount(xs, minlength=6) / xs.size
    assert np.abs(freq - sched.m_x).max() < 0.05
