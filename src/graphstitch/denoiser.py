"""Denoising network over noisy subgraph states, in plain numpy.

A compact message-passing network predicts, for every node slot, a
distribution over the parent graph's node IDs and, for every pair slot, a
present/absent distribution. Gradients are written out by hand; tanh
activations keep them smooth enough for finite-difference verification.
The heads' output layers start at zero so the untrained network predicts
the uniform distribution everywhere.
"""

import base64
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

# no scipy: train's process loads numpy alone (tests/test_startup.py)
from .diffusion import forward_noise
from .errors import InvalidParameter
from .graphs import scatter_add
from .jsonio import read_json, to_json
from .rng import substream
from .sampling import local_pairs

TIME_FEATURES = 8

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Training runs each batch in blocks of this many whole samples, stacked
# into one disjoint-union graph so that each matmul runs once per block. A
# block's (nodes, n) node-head rows and (pairs, 2h) pair-head rows grow with
# it: at n=1000, k=20, train's peak RSS measured 3 MB above the per-sample
# loop's with 8 samples and 8 MB above with 16, which was 10-20% faster.
BLOCK_SAMPLES = 8

CHECKPOINT_VERSION = 2


@dataclass
class DenoiserSettings:
    """The denoiser's shape and training settings: the `denoiser` section
    of a pipeline config."""

    h: int = 64
    L: int = 2
    lam: float = 8.0  # weight of the pair-state loss term
    steps: int = 5000
    batch: int = 32
    learning_rate: float = 3e-3
    freeze_node_ids: bool = False

    def validate(self):
        """InvalidParameter naming the first setting out of range."""
        if self.steps < 0:
            raise InvalidParameter("denoiser steps must be >= 0")
        for name in ("batch", "h", "L"):
            if getattr(self, name) < 1:
                raise InvalidParameter(f"denoiser {name} must be >= 1")
        if self.learning_rate <= 0:
            raise InvalidParameter("denoiser learning_rate must be > 0")
        if self.lam < 0:
            raise InvalidParameter("denoiser lambda must be >= 0")


@dataclass
class TrainConfig(DenoiserSettings):
    seed: int = 0

    def __post_init__(self):
        self.validate()


def _tensor_shapes(n, h, L):
    """Shape of each tensor of a network on n node IDs with width h and L
    message-passing layers, by key."""
    shapes = {"node_embed": (n, h), "time_w": (TIME_FEATURES, h), "time_b": (h,)}
    for l in range(L):
        shapes.update({f"layer{l}.w_self": (h, h), f"layer{l}.w_msg": (h, h),
                       f"layer{l}.w_ctx": (h, h), f"layer{l}.b": (h,)})
    shapes.update({"node_head_w": (h, n), "node_head_b": (n,),
                   "edge_head_w1": (2 * h + 2, h), "edge_head_b1": (h,),
                   "edge_head_w2": (h, 2), "edge_head_b2": (2,)})
    return shapes


class DenoiserParams:
    """Named tensor bag with the layout baked into the keys.

    `digest` is the SHA-256 hex of the checkpoint file it was loaded from,
    None for parameters made in memory.
    """

    def __init__(self, n, h, L, tensors):
        self.n = n
        self.h = h
        self.L = L
        self.tensors = tensors
        self.digest = None

    @classmethod
    def init(cls, n, h, L, seed):
        rng = substream(seed, "denoiser-init")
        shapes = _tensor_shapes(n, h, L)
        # biases and the output layers start at zero: uniform predictions at
        # initialization. The edge head is a small MLP (a linear map of
        # H_i + H_j cannot express pairwise interactions); its hidden layer
        # is random so gradients reach it once the output layer moves off zero.
        t = {key: np.zeros(shape) for key, shape in shapes.items()}
        # the random weights in draw order, with std 1/sqrt(fan_in)
        random = [("node_embed", h), ("time_w", TIME_FEATURES)]
        for l in range(L):
            random += [(f"layer{l}.{w}", h) for w in ("w_self", "w_msg", "w_ctx")]
        random.append(("edge_head_w1", 2 * h + 2))
        for key, fan_in in random:
            t[key] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shapes[key])
        return cls(n, h, L, t)

    def zeros_like(self):
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    def save(self, path):
        """Write the sizes and, per tensor, its shape and the base64 of its
        little-endian float64 bytes, which load reads back bit for bit."""
        tensors = {key: {"shape": list(v.shape),
                         "data": base64.b64encode(v.astype("<f8").tobytes()).decode()}
                   for key, v in self.tensors.items()}
        obj = {"L": self.L, "h": self.h, "n": self.n, "tensors": tensors,
               "time_dim": TIME_FEATURES, "version": CHECKPOINT_VERSION}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_json(obj, indent=None))

    @classmethod
    def load(cls, path):
        """Read a checkpoint written by save (through jsonio.read_json);
        InvalidParameter naming the file unless its tensors are exactly those
        of its (n, h, L), all finite."""
        def bad(what):
            return InvalidParameter(f"checkpoint {path}: {what}")
        obj, digest = read_json(path, "checkpoint")
        if obj.get("version") != CHECKPOINT_VERSION:
            raise bad(f"version {obj.get('version')!r} is not {CHECKPOINT_VERSION}; "
                      "re-run train to rewrite it")
        if obj.get("time_dim") != TIME_FEATURES:
            raise bad(f"time_dim {obj.get('time_dim')!r} is not {TIME_FEATURES}")
        sizes = [obj.get(key) for key in ("n", "h", "L")]
        if not all(type(v) is int and v >= 1 for v in sizes):
            raise bad(f"n, h and L must be positive integers, got {sizes}")
        shapes = _tensor_shapes(*sizes)
        specs = obj.get("tensors")
        if not isinstance(specs, dict) or specs.keys() != shapes.keys():
            got = set(specs) if isinstance(specs, dict) else set()
            raise bad(f"tensors missing {sorted(shapes.keys() - got)}, "
                      f"unexpected {sorted(got - shapes.keys())}")
        tensors = {}
        for key, spec in specs.items():
            shape = shapes[key]
            try:  # binascii.Error, raised on bad base64, is a ValueError
                raw = base64.b64decode(spec["data"], validate=True)
                ok = tuple(spec["shape"]) == shape and len(raw) == 8 * math.prod(shape)
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                raise bad(f"tensor {key!r} is not the base64 of {list(shape)} float64s")
            tensors[key] = np.frombuffer(raw, "<f8").reshape(shape).copy()
            if not np.isfinite(tensors[key]).all():
                raise bad(f"tensor {key!r} has non-finite values")
        params = cls(*sizes, tensors)
        params.digest = digest
        return params


def _time_features(t, T):
    """Sinusoidal features of t / T, one row per entry of t."""
    tau = np.asarray(t, dtype=np.float64)[:, None] / T
    freqs = 2.0 ** np.arange(TIME_FEATURES // 2)
    ang = np.pi * tau * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _softmax_(z):
    """Row-wise softmax, computed in place."""
    if z.size:
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
    return z


class _Layout:
    """Index arrays of samples with sizes ks stacked as one disjoint union.

    Sample s owns node rows starts[s]:starts[s]+ks[s]; its pair rows follow
    in local_pairs order with node indices offset by starts[s] (I < J), so
    (I, J) index the union's (N, N) adjacency directly.
    """

    def __init__(self, ks):
        self.N = sum(ks)
        starts = [0] + list(accumulate(ks[:-1]))
        self.ks = np.array(ks)
        self.starts = np.array(starts)
        self.seg = np.repeat(np.arange(len(ks)), self.ks)
        self.I = np.concatenate([local_pairs(k)[0] + o for k, o in zip(ks, starts)])
        self.J = np.concatenate([local_pairs(k)[1] + o for k, o in zip(ks, starts)])
        for arr in (self.ks, self.starts, self.seg, self.I, self.J):
            arr.setflags(write=False)


@lru_cache(maxsize=8)
def _sample_layout(k):
    """The layout of one sample of k nodes, which predict reuses at every
    reverse step."""
    return _Layout([k])


def _forward(params, block, sched, work=None, lay=None):
    """Forward pass over a block of NoisySample stacked as one disjoint union
    (see _Layout). Returns (p_x, p_e, cache) with rows in stacked order.

    work, if given, is a (2, rows, 2h) buffer with rows >= the block's pair
    count; the pair head's pre-activations are built in it. lay, if given,
    is the block's _Layout.
    """
    t = params.tensors
    h = params.h
    if lay is None:
        lay = _Layout([s.k for s in block])
    N, seg, I, J = lay.N, lay.seg, lay.I, lay.J
    x_t = np.concatenate([s.x_t for s in block])
    e_t = np.concatenate([s.e_t for s in block]).astype(np.int64)

    feats = _time_features([s.t for s in block], sched.T)
    tv = feats @ t["time_w"] + t["time_b"]
    H = t["node_embed"][x_t] + tv[seg]

    # row-normalized adjacency of the block's disjoint union, zero outside
    # each sample's diagonal block: (P @ H)[i] is the mean of H over i's
    # neighbours (zero for isolated nodes)
    P = np.zeros((N, N))
    present = e_t == 1
    P[I[present], J[present]] = 1.0
    P[J[present], I[present]] = 1.0
    P /= np.maximum(P.sum(axis=1), 1.0)[:, None]

    layers = []
    for l in range(params.L):
        H_in = H
        M = P @ H_in
        c = np.add.reduceat(H_in, lay.starts, axis=0) / lay.ks[:, None]
        U = H_in @ t[f"layer{l}.w_self"]
        U += M @ t[f"layer{l}.w_msg"]
        U += (c @ t[f"layer{l}.w_ctx"])[seg]
        U += t[f"layer{l}.b"]
        H = np.tanh(U, out=U)
        layers.append((H_in, M, c, H))

    # symmetrized MLP head: score(i,j) + score(j,i). Its first layer acts on
    # [H_i, H_j, onehot(e)], so it splits into per-node products plus a row
    # of W1c: with W1 = [Wa; Wb; Wc], both orders' pre-activations are
    # [U_ij | U_ji] = (H @ [Wa | Wb])[i] + G[e*N + j], where G stacks
    # H @ [Wb | Wa] + [b_e | b_e], b_e = Wc[e] + b1, for e = 0 and 1.
    w1 = t["edge_head_w1"]
    wa, wb = w1[:h], w1[h:2 * h]
    b_e = w1[2 * h:] + t["edge_head_b1"]
    b_e = np.concatenate([b_e, b_e], axis=1)
    Hb = H @ np.concatenate([wb, wa], axis=1)
    G = (Hb[None] + b_e[:, None]).reshape(2 * N, 2 * h)
    Je = J + N * e_t
    if work is None:
        work = np.empty((2, len(I), 2 * h))
    Z = np.take(H @ np.concatenate([wa, wb], axis=1), I, axis=0, out=work[0, :len(I)])
    Z += np.take(G, Je, axis=0, out=work[1, :len(I)])
    np.tanh(Z, out=Z)
    w2 = t["edge_head_w2"]
    p_e = Z @ np.concatenate([w2, w2])  # (A_ij + A_ji) @ W2
    p_e += 2.0 * t["edge_head_b2"]
    _softmax_(p_e)

    # the node head last: at n=1000 this order measured 1 MB less peak RSS
    p_x = H @ t["node_head_w"]
    p_x += t["node_head_b"]
    _softmax_(p_x)

    cache = {"layout": lay, "x_t": x_t, "Je": Je, "feats": feats, "P": P,
             "layers": layers, "Z": Z, "p_x": p_x, "p_e": p_e}
    return p_x, p_e, cache


def predict(params, noisy, sched):
    """(p_x, p_e): rows are distributions over node IDs / pair states."""
    if len(sched.m_x) != params.n:
        raise InvalidParameter("schedule and params disagree on parent size")
    p_x, p_e, _ = _forward(params, [noisy], sched, lay=_sample_layout(noisy.k))
    return p_x, p_e


def _cross_entropy(p, targets):
    return -np.log(np.clip(p[np.arange(len(targets)), targets], 1e-30, None)).sum()


def _loss(p_x, p_e, x_clean, e_clean, lam):
    edge_term = _cross_entropy(p_e, e_clean) if e_clean.size else 0.0
    return float(_cross_entropy(p_x, x_clean) + lam * edge_term)


def loss(p_x, p_e, clean, lam):
    """Summed cross-entropy to the clean states; pair term weighted by lam."""
    return _loss(p_x, p_e, clean.id_map, clean.edge_states().astype(np.int64), lam)


def _backward(params, cache, x_clean, e_clean, lam, grads):
    """Accumulate d loss / d params for one block into `grads`.

    Consumes the cache: its large arrays are overwritten by gradients in
    place and dropped once used, so the next block can reuse their memory.
    """
    t = params.tensors
    h = params.h
    lay = cache["layout"]
    N, I = lay.N, lay.I

    dZx = cache.pop("p_x")
    dZx[np.arange(N), x_clean] -= 1.0
    H_L = cache["layers"][-1][3]
    grads["node_head_w"] += H_L.T @ dZx
    grads["node_head_b"] += dZx.sum(axis=0)
    dH = dZx @ t["node_head_w"].T
    del dZx

    if I.size:
        dZe = cache.pop("p_e")
        dZe[np.arange(I.size), e_clean] -= 1.0
        dZe *= lam
        dU = cache.pop("Z")
        dW2 = dU.T @ dZe
        grads["edge_head_w2"] += dW2[:h] + dW2[h:]
        grads["edge_head_b2"] += 2.0 * dZe.sum(axis=0)
        dA = dZe @ t["edge_head_w2"].T
        dU *= dU
        np.subtract(1.0, dU, out=dU)
        dU.reshape(-1, 2, h)[...] *= dA[:, None, :]
        # send each pair row back to row i of H @ [Wa | Wb] and row e*N + j of G
        dHa = scatter_add(I, dU, N)
        dG = scatter_add(cache["Je"], dU, 2 * N)
        dHb = dG[:N] + dG[N:]
        db_e = np.stack([dG[:N].sum(axis=0), dG[N:].sum(axis=0)])
        db_e = db_e[:, :h] + db_e[:, h:]
        g1 = grads["edge_head_w1"]
        w1 = t["edge_head_w1"]
        wa, wb = w1[:h], w1[h:2 * h]
        dWa = H_L.T @ dHa
        dWb = H_L.T @ dHb
        g1[:h] += dWa[:, :h] + dWb[:, h:]
        g1[h:2 * h] += dWa[:, h:] + dWb[:, :h]
        g1[2 * h:] += db_e
        grads["edge_head_b1"] += db_e.sum(axis=0)
        dH += dHa @ np.concatenate([wa, wb], axis=1).T
        dH += dHb @ np.concatenate([wb, wa], axis=1).T

    for l in reversed(range(params.L)):
        H_in, M, c, H_out = cache["layers"][l]
        dU = dH * (1.0 - H_out * H_out)
        grads[f"layer{l}.w_self"] += H_in.T @ dU
        grads[f"layer{l}.w_msg"] += M.T @ dU
        dU_sum = np.add.reduceat(dU, lay.starts, axis=0)
        grads[f"layer{l}.w_ctx"] += c.T @ dU_sum
        grads[f"layer{l}.b"] += dU_sum.sum(axis=0)
        dc = dU_sum @ t[f"layer{l}.w_ctx"].T
        dH = dU @ t[f"layer{l}.w_self"].T
        dH += cache["P"].T @ (dU @ t[f"layer{l}.w_msg"].T)
        dH += (dc / lay.ks[:, None])[lay.seg]

    grads["node_embed"] += scatter_add(cache["x_t"], dH, params.n)
    dtv = np.add.reduceat(dH, lay.starts, axis=0)
    grads["time_w"] += cache["feats"].T @ dtv
    grads["time_b"] += dtv.sum(axis=0)


def _loss_and_grad(params, batch, sched, lam, work=None):
    """Mean loss over a batch of NoisySample (base = clean), plus gradients.

    The batch runs in blocks of BLOCK_SAMPLES whole samples; each block is
    one forward and one backward over the stacked samples. work, if given,
    is the pair head's (2, rows, 2h) buffer, with rows for the largest block.
    """
    if not batch:
        raise InvalidParameter("the batch is empty: the mean loss needs a sample")
    grads = params.zeros_like()
    total = 0.0
    blocks = [batch[lo:lo + BLOCK_SAMPLES] for lo in range(0, len(batch), BLOCK_SAMPLES)]
    if work is None:
        # one pair-head buffer for every block: freeing and re-allocating
        # (pairs, 2h) arrays per block costs a page fault per 4 KB
        work = np.empty((2, max(sum(s.e_t.size for s in b) for b in blocks), 2 * params.h))
    for block in blocks:
        p_x, p_e, cache = _forward(params, block, sched, work)
        x_clean = np.concatenate([s.base.id_map for s in block])
        e_clean = np.concatenate([s.base.edge_states() for s in block]).astype(np.int64)
        total += _loss(p_x, p_e, x_clean, e_clean, lam)
        del p_x, p_e
        _backward(params, cache, x_clean, e_clean, lam, grads)
    inv = 1.0 / len(batch)
    for key in grads:
        grads[key] *= inv
    return total * inv, grads


def grad(params, batch, sched, lam):
    """Parameter-shaped gradient of the mean batch loss."""
    _, grads = _loss_and_grad(params, batch, sched, lam)
    return grads


def _adam_update(param, g, m, v, lr, step):
    """One Adam step on one tensor, in place; `g` is used as scratch.

    Same operations in the same order as
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        param -= lr*(m/(1-b1**(step+1))) / (sqrt(v/(1-b2**(step+1))) + eps)
    so the result is bit-identical to that out-of-place form.
    """
    b1c = 1.0 - ADAM_BETA1 ** (step + 1)
    b2c = 1.0 - ADAM_BETA2 ** (step + 1)
    buf = np.multiply(g, 1.0 - ADAM_BETA2)
    buf *= g
    v *= ADAM_BETA2
    v += buf
    g *= 1.0 - ADAM_BETA1
    m *= ADAM_BETA1
    m += g
    np.divide(m, b1c, out=g)
    g *= lr
    np.divide(v, b2c, out=buf)
    np.sqrt(buf, out=buf)
    buf += ADAM_EPS
    g /= buf
    param -= g


def train(corpus, sched, cfg):
    """Adam over noised corpus samples; returns (params, per-step loss trace).

    Fully deterministic: batch indices, timesteps, and corruption draws all
    come from substreams of cfg.seed keyed by step.
    """
    params = DenoiserParams.init(len(sched.m_x), cfg.h, cfg.L, cfg.seed)
    m = params.zeros_like()
    v = params.zeros_like()
    trace = np.zeros(cfg.steps)
    keys = sorted(params.tensors)
    # the pair-head buffer of the largest block any step can draw, made once:
    # a fresh one per step would page-fault in again. One of its size is
    # freed first: glibc then raises its mmap threshold to that size and its
    # trim threshold to twice it, so the smaller per-block temporaries reuse
    # heap pages instead of being mapped and faulted in anew every block
    rows = min(cfg.batch, BLOCK_SAMPLES) * int(np.diff(corpus.pair_ptr).max())
    np.empty((2, rows, 2 * cfg.h))
    work = np.empty((2, rows, 2 * cfg.h))
    for step in range(cfg.steps):
        rng = substream(cfg.seed, "train-step", step)
        idx = rng.integers(0, len(corpus), size=cfg.batch)
        ts = rng.integers(1, sched.T + 1, size=cfg.batch)
        batch = [forward_noise(corpus[int(i)], int(t), sched, rng,
                               freeze_nodes=cfg.freeze_node_ids)
                 for i, t in zip(idx, ts)]
        loss_val, grads = _loss_and_grad(params, batch, sched, cfg.lam, work)
        if not np.isfinite(loss_val):
            raise RuntimeError(f"non-finite loss {loss_val} at step {step}")
        trace[step] = loss_val
        for key in keys:
            _adam_update(params.tensors[key], grads[key], m[key], v[key],
                         cfg.learning_rate, step)
    return params, trace


def write_loss_csv(trace, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for i, val in enumerate(trace.tolist()):
            fh.write(f"{i},{val!r}\n")
