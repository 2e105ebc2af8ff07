import base64
import dataclasses
import json

import numpy as np
import pytest

import denoiser_oracle as oracle
from graphstitch.denoiser import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BLOCK_SAMPLES,
                                  DenoiserParams, DenoiserSettings, TrainConfig,
                                  grad, loss, predict, train, write_loss_csv,
                                  _adam_update, _forward, _loss_and_grad)
from graphstitch.diffusion import build_schedule, forward_noise, NoisySample
from graphstitch.errors import InvalidParameter
from graphstitch.graphs import Graph, induced_subgraph
from graphstitch.sampling import (SampleCorpus, SubgraphSample, build_corpus,
                                  local_pairs)
from graphstitch.sbm import sbm_graph


def toy_setup(T=12, n=6, h=5, L=2, seed=0):
    g = Graph(n, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    corpus = build_corpus(g, "RW", k=3, d=2, seed=seed)
    sched = build_schedule(T, corpus)
    params = DenoiserParams.init(n, h, L, seed=seed)
    return corpus, sched, params


def noised_batch(corpus, sched, ts, seed=0):
    return [forward_noise(corpus[i % len(corpus)], t, sched, seed + i)
            for i, t in enumerate(ts)]


class TestPredict:
    def test_shapes_and_normalization(self):
        corpus, sched, params = toy_setup()
        noisy = forward_noise(corpus[0], 4, sched, seed=1)
        p_x, p_e = predict(params, noisy, sched)
        k = noisy.k
        assert p_x.shape == (k, 6)
        assert p_e.shape == (k * (k - 1) // 2, 2)
        assert np.allclose(p_x.sum(1), 1.0) and np.allclose(p_e.sum(1), 1.0)
        assert (p_x > 0).all() and (p_e > 0).all()

    def test_zero_heads_give_uniform(self):
        corpus, sched, _ = toy_setup()
        params = DenoiserParams.init(6, 4, 2, seed=3)
        noisy = forward_noise(corpus[0], 2, sched, seed=0)
        p_x, p_e = predict(params, noisy, sched)
        assert np.allclose(p_x, 1 / 6)
        assert np.allclose(p_e, 0.5)

    def test_single_node(self):
        corpus, sched, params = toy_setup()
        noisy = NoisySample(None, 3, np.array([2]), np.empty(0, dtype=np.int8))
        p_x, p_e = predict(params, noisy, sched)
        assert p_x.shape == (1, 6) and p_e.shape == (0, 2)

    def test_permutation_equivariance(self):
        corpus, sched, params = toy_setup()
        # train a few steps so outputs are not uniform
        params, _ = train(corpus, sched, TrainConfig(steps=5, batch=4, h=5,
                                                     L=2, seed=1))
        sample = max(corpus, key=lambda s: s.num_nodes)
        noisy = forward_noise(sample, 6, sched, seed=2)
        k = noisy.k
        iu, ju = local_pairs(k)
        pair_index = {(int(i), int(j)): idx
                      for idx, (i, j) in enumerate(zip(iu, ju))}
        perm = np.random.default_rng(5).permutation(k)

        e_perm = np.empty_like(noisy.e_t)
        for idx, (i, j) in enumerate(zip(iu.tolist(), ju.tolist())):
            a, b = int(perm[i]), int(perm[j])
            e_perm[idx] = noisy.e_t[pair_index[(min(a, b), max(a, b))]]
        permuted = NoisySample(None, noisy.t, noisy.x_t[perm], e_perm)

        p_x, p_e = predict(params, noisy, sched)
        q_x, q_e = predict(params, permuted, sched)
        assert np.allclose(q_x, p_x[perm], atol=1e-12)
        for idx, (i, j) in enumerate(zip(iu.tolist(), ju.tolist())):
            a, b = int(perm[i]), int(perm[j])
            orig = pair_index[(min(a, b), max(a, b))]
            assert np.allclose(q_e[idx], p_e[orig], atol=1e-12)


class TestLoss:
    def test_uniform_prediction_value(self):
        corpus, sched, _ = toy_setup()
        params = DenoiserParams.init(6, 4, 2, seed=0)
        sample = max(corpus, key=lambda s: s.num_nodes)
        noisy = forward_noise(sample, 3, sched, seed=0)
        p_x, p_e = predict(params, noisy, sched)
        lam = 2.5
        k = sample.num_nodes
        n_pairs = k * (k - 1) // 2
        expect = k * np.log(6) + lam * n_pairs * np.log(2)
        assert np.isclose(loss(p_x, p_e, sample, lam), expect, rtol=1e-12)

    def test_lambda_zero_drops_edge_term(self):
        corpus, sched, params = toy_setup()
        sample = corpus[0]
        noisy = forward_noise(sample, 2, sched, seed=1)
        p_x, p_e = predict(params, noisy, sched)
        node_only = loss(p_x, p_e, sample, 0.0)
        targets = sample.id_map
        expect = -np.log(p_x[np.arange(len(targets)), targets]).sum()
        assert np.isclose(node_only, expect, rtol=1e-12)


class TestGrad:
    def test_finite_differences(self):
        corpus, sched, _ = toy_setup(h=4, L=2)
        params = DenoiserParams.init(6, 4, 2, seed=7)
        # move off the zero-head saddle so head grads are generic
        rng = np.random.default_rng(8)
        for key in ("node_head_w", "node_head_b", "edge_head_w2", "edge_head_b2"):
            params.tensors[key] += rng.normal(0, 0.3, params.tensors[key].shape)
        batch = noised_batch(corpus, sched, ts=[1, 4, 9], seed=3)
        lam = 1.7
        analytic = grad(params, batch, sched, lam)

        def loss_at():
            return _loss_and_grad(params, batch, sched, lam)[0]

        eps = 1e-6
        worst = 0.0
        for key, tensor in params.tensors.items():
            flat = tensor.ravel()
            idxs = rng.choice(flat.size, size=min(5, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                up = loss_at()
                flat[i] = orig - eps
                down = loss_at()
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                a = analytic[key].ravel()[i]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                worst = max(worst, rel)
        assert worst < 1e-4

    def test_batch_grad_is_mean_of_singles(self):
        corpus, sched, params = toy_setup()
        batch = noised_batch(corpus, sched, ts=[2, 5], seed=1)
        g_all = grad(params, batch, sched, 1.0)
        g0 = grad(params, batch[:1], sched, 1.0)
        g1 = grad(params, batch[1:], sched, 1.0)
        for key in g_all:
            assert np.allclose(g_all[key], 0.5 * (g0[key] + g1[key]), atol=1e-12)

    def test_includes_single_node_sample(self):
        from graphstitch.sampling import SubgraphSample
        corpus, sched, params = toy_setup()
        base = SubgraphSample(Graph(1, []), np.array([3]), 6)
        singleton = NoisySample(base, 2, np.array([4]),
                                np.empty(0, dtype=np.int8))
        g = grad(params, [singleton], sched, 1.0)
        assert np.isfinite(g["node_embed"]).all()
        # zero-init heads: upstream grads vanish but the node head learns,
        # and with no pairs the edge head gets nothing
        assert np.count_nonzero(g["node_head_w"]) > 0
        assert not np.count_nonzero(g["edge_head_w2"])


def mixed_size_batch():
    """More than one block of samples with k = 1, 2, 12 and 20, including a
    sample whose noisy pair states are all absent; heads moved off zero."""
    g = sbm_graph([20, 20], 0.5, 0.1, seed=3)
    rng = np.random.default_rng(4)
    samples = []
    for k in [1, 2, 12, 20] * ((BLOCK_SAMPLES + 3) // 4 + 1):
        sub, ids = induced_subgraph(g, rng.choice(g.n, size=k, replace=False))
        samples.append(SubgraphSample(sub, ids, g.n))
    sched = build_schedule(20, SampleCorpus(samples, "Unif", k=20, d=None))
    batch = [forward_noise(s, int(t), sched, seed=i)
             for i, (s, t) in enumerate(zip(samples, rng.integers(1, 21, len(samples))))]
    quiet = batch[3]
    batch[3] = NoisySample(quiet.base, quiet.t, quiet.x_t, np.zeros_like(quiet.e_t))
    params = DenoiserParams.init(g.n, 6, 2, seed=5)
    for key, tensor in params.tensors.items():
        tensor += rng.normal(0, 0.3, tensor.shape)
    return params, batch, sched


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestBlockedMatchesOracle:
    """The blocked forward/backward against the per-sample reference loop."""

    def test_loss_and_grads(self):
        params, batch, sched = mixed_size_batch()
        assert len(batch) > BLOCK_SAMPLES
        assert sum(s.k == 1 for s in batch) and sum(s.k == 2 for s in batch)
        lam = 1.7
        got_loss, got = _loss_and_grad(params, batch, sched, lam)
        want_loss, want = oracle.loss_and_grad(params, batch, sched, lam)
        assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
        assert got.keys() == want.keys()
        for key in want:
            assert np.count_nonzero(want[key]), key
            assert rel_err(got[key], want[key]) <= 1e-12, key

    def test_predict(self):
        params, batch, sched = mixed_size_batch()
        for noisy in batch[:4]:
            p_x, p_e = predict(params, noisy, sched)
            q_x, q_e, _ = oracle.forward(params, noisy, sched)
            assert p_x.shape == q_x.shape and p_e.shape == q_e.shape
            assert rel_err(p_x, q_x) <= 1e-12
            if q_e.size:
                assert rel_err(p_e, q_e) <= 1e-12


class TestBlockIndependence:
    """Samples share a block's adjacency but not its entries: a wrong offset
    would leak one sample's pair states into another's rows."""

    @pytest.mark.parametrize("pick", ["equal", "mixed"])
    def test_other_samples_rows_unchanged(self, pick):
        params, batch, sched = mixed_size_batch()
        # mixed: k = 1, 2, 12, 20, the last with every pair absent, so the
        # block holds isolated nodes
        block = [s for s in batch if s.k == 12] if pick == "equal" else batch[:4]
        assert len({s.k for s in block}) == (1 if pick == "equal" else 4)
        node_lo = np.cumsum([0] + [s.k for s in block])
        pair_lo = np.cumsum([0] + [s.e_t.size for s in block])
        p_x, p_e, _ = _forward(params, block, sched)
        for s, noisy in enumerate(block):
            if not noisy.e_t.size:
                continue
            changed = list(block)
            changed[s] = NoisySample(noisy.base, noisy.t, noisy.x_t, 1 - noisy.e_t)
            q_x, q_e, _ = _forward(params, changed, sched)
            for r in range(len(block)):
                nodes = slice(node_lo[r], node_lo[r + 1])
                pairs = slice(pair_lo[r], pair_lo[r + 1])
                same = (np.array_equal(q_x[nodes], p_x[nodes])
                        and np.array_equal(q_e[pairs], p_e[pairs]))
                assert same == (r != s), (s, r)


class TestAdam:
    def test_in_place_update_is_bit_identical(self):
        rng = np.random.default_rng(0)
        shape = (7, 5)
        p_ref = rng.normal(size=shape)
        m_ref = np.zeros(shape)
        v_ref = np.zeros(shape)
        p, m, v = p_ref.copy(), m_ref.copy(), v_ref.copy()
        lr = 3e-3
        for step in range(6):
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 3)
            b1c = 1.0 - ADAM_BETA1 ** (step + 1)
            b2c = 1.0 - ADAM_BETA2 ** (step + 1)
            m_ref = ADAM_BETA1 * m_ref + (1.0 - ADAM_BETA1) * g
            v_ref = ADAM_BETA2 * v_ref + (1.0 - ADAM_BETA2) * g * g
            p_ref = p_ref - lr * (m_ref / b1c) / (np.sqrt(v_ref / b2c) + ADAM_EPS)
            _adam_update(p, g.copy(), m, v, lr, step)
            assert np.array_equal(p, p_ref)
            assert np.array_equal(m, m_ref) and np.array_equal(v, v_ref)


class TestTrain:
    def test_zero_steps_returns_init(self):
        corpus, sched, _ = toy_setup()
        cfg = TrainConfig(steps=0, h=5, L=2, seed=4)
        params, trace = train(corpus, sched, cfg)
        init = DenoiserParams.init(6, 5, 2, seed=4)
        assert trace.size == 0
        for key in params.tensors:
            assert np.array_equal(params.tensors[key], init.tensors[key])

    def test_deterministic(self):
        corpus, sched, _ = toy_setup()
        cfg = TrainConfig(steps=8, batch=4, h=4, L=1, seed=2)
        p1, t1 = train(corpus, sched, cfg)
        p2, t2 = train(corpus, sched, cfg)
        assert np.array_equal(t1, t2)
        for key in p1.tensors:
            assert np.array_equal(p1.tensors[key], p2.tensors[key])

    def test_loss_decreases_on_tiny_problem(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        corpus = build_corpus(g, "Unif", k=3, count=4, seed=0)
        sched = build_schedule(8, corpus)
        cfg = TrainConfig(steps=150, batch=8, learning_rate=1e-2, h=8, L=1, seed=0)
        _, trace = train(corpus, sched, cfg)
        assert trace[-20:].mean() < trace[:20].mean()

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            TrainConfig(steps=-1)
        with pytest.raises(InvalidParameter):
            TrainConfig(steps=1, batch=0)
        with pytest.raises(InvalidParameter):
            TrainConfig(steps=1, learning_rate=0)

    def test_defaults_are_denoiser_settings(self):
        assert dataclasses.asdict(TrainConfig()) == dict(
            dataclasses.asdict(DenoiserSettings()), seed=0)


class TestCheckpoint:
    def test_roundtrip_identical_predictions(self, tmp_path):
        corpus, sched, params = toy_setup()
        params, _ = train(corpus, sched, TrainConfig(steps=3, batch=2, h=5,
                                                     L=2, seed=0))
        path = tmp_path / "ckpt.json"
        params.save(path)
        back = DenoiserParams.load(path)
        noisy = forward_noise(corpus[0], 5, sched, seed=0)
        p1, e1 = predict(params, noisy, sched)
        p2, e2 = predict(back, noisy, sched)
        assert np.array_equal(p1, p2) and np.array_equal(e1, e2)

    def test_resave_byte_identical(self, tmp_path):
        _, _, params = toy_setup()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        params.save(a)
        DenoiserParams.load(a).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrip_bit_exact(self, tmp_path):
        params = DenoiserParams.init(7, 3, 1, seed=0)
        awkward = np.array([-1.5, 5e-324, -2.2e-308, 1e-300, 2.0, -0.0, 0.0, -5e-324,
                            1e16, 123456789.0, 0.1, -7.0, 1.7976931348623157e308])
        for tensor in params.tensors.values():
            tensor.ravel()[:] = np.resize(awkward, tensor.size)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        params.save(a)
        obj = json.loads(a.read_text())
        assert obj["version"] == 2
        assert base64.b64decode(obj["tensors"]["node_embed"]["data"]) == \
            params.tensors["node_embed"].astype("<f8").tobytes()
        back = DenoiserParams.load(a)
        assert back.tensors.keys() == params.tensors.keys()
        for key, tensor in params.tensors.items():
            assert back.tensors[key].shape == tensor.shape
            assert back.tensors[key].tobytes() == tensor.tobytes()
        back.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_loss_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(np.array([1.5, 0.75]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 3 and lines[1].startswith("0,")
