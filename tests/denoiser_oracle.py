"""Per-sample denoiser forward and backward: the slow, obvious reference.

This is the loop the blocked implementation in `graphstitch.denoiser`
replaced: one sample at a time, dense k x k message passing, and the pair
head's first layer applied to concatenated [H_i, H_j, onehot(e_t)] rows.
Tests compare the blocked loss, gradients and predictions against it.

`scatter_matrix` is the sparse 0/1 product the blocked backward used to
scatter rows before `graphs.scatter_add`; tests compare the two bit for bit.
"""

import numpy as np
import scipy.sparse as sp

from graphstitch.denoiser import TIME_FEATURES
from graphstitch.sampling import local_pairs


def scatter_matrix(index, size):
    """Sparse (size, len(index)) 0/1 matrix S: S @ V adds row q of V to row
    index[q], or to each row index[q, :] when index is 2-D."""
    index = np.asarray(index)
    m = len(index)
    r = index.size // m if m else 1
    return sp.csc_matrix((np.ones(m * r), index.ravel(), np.arange(0, m * r + 1, r)),
                         shape=(size, m))


def scatter_add(index, rows, size):
    """graphs.scatter_add by the sparse product."""
    return scatter_matrix(index, size) @ rows


def _time_features(t, T):
    tau = t / T
    freqs = 2.0 ** np.arange(TIME_FEATURES // 2)
    ang = np.pi * tau * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)])


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True) if z.size else z
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True) if z.size else e


def forward(params, noisy, sched):
    t = params.tensors
    k = noisy.k
    feats = _time_features(noisy.t, sched.T)
    tv = feats @ t["time_w"] + t["time_b"]
    H = t["node_embed"][noisy.x_t] + tv[None, :]

    iu, ju = local_pairs(k)
    A = np.zeros((k, k))
    present = noisy.e_t == 1
    A[iu[present], ju[present]] = 1.0
    A[ju[present], iu[present]] = 1.0
    P = A / np.maximum(A.sum(axis=1), 1.0)[:, None]

    layers = []
    for l in range(params.L):
        H_in = H
        M = P @ H_in
        c = H_in.mean(axis=0)
        U = (H_in @ t[f"layer{l}.w_self"] + M @ t[f"layer{l}.w_msg"]
             + (c @ t[f"layer{l}.w_ctx"])[None, :] + t[f"layer{l}.b"])
        H = np.tanh(U)
        layers.append((H_in, M, c, H))

    logits_x = H @ t["node_head_w"] + t["node_head_b"]
    p_x = _softmax(logits_x)

    pf = np.zeros((iu.size, 2))
    pf[np.arange(iu.size), noisy.e_t.astype(np.int64)] = 1.0
    # symmetrized MLP head: score(i,j) + score(j,i)
    E1 = np.concatenate([H[iu], H[ju], pf], axis=1)
    E2 = np.concatenate([H[ju], H[iu], pf], axis=1)
    A1 = np.tanh(E1 @ t["edge_head_w1"] + t["edge_head_b1"])
    A2 = np.tanh(E2 @ t["edge_head_w1"] + t["edge_head_b1"])
    logits_e = (A1 + A2) @ t["edge_head_w2"] + 2.0 * t["edge_head_b2"]
    p_e = _softmax(logits_e)

    cache = {"feats": feats, "P": P, "layers": layers, "H_L": H,
             "iu": iu, "ju": ju, "E1": E1, "E2": E2, "A1": A1, "A2": A2,
             "p_x": p_x, "p_e": p_e, "x_t": noisy.x_t}
    return p_x, p_e, cache


def loss(p_x, p_e, clean, lam):
    targets = clean.id_map
    e_clean = clean.edge_states().astype(np.int64)
    node_term = -np.log(np.clip(p_x[np.arange(len(targets)), targets], 1e-30, None)).sum()
    if e_clean.size:
        edge_term = -np.log(np.clip(p_e[np.arange(len(e_clean)), e_clean], 1e-30, None)).sum()
    else:
        edge_term = 0.0
    return float(node_term + lam * edge_term)


def backward(params, cache, clean, lam, grads):
    """Accumulate d loss / d params for one sample into `grads`."""
    t = params.tensors
    h = params.h
    k = len(cache["x_t"])
    H_L = cache["H_L"]
    iu, ju = cache["iu"], cache["ju"]

    targets = clean.id_map
    dZx = cache["p_x"].copy()
    dZx[np.arange(k), targets] -= 1.0
    grads["node_head_w"] += H_L.T @ dZx
    grads["node_head_b"] += dZx.sum(axis=0)
    dH = dZx @ t["node_head_w"].T

    if iu.size:
        e_clean = clean.edge_states().astype(np.int64)
        dZe = cache["p_e"].copy()
        dZe[np.arange(iu.size), e_clean] -= 1.0
        dZe *= lam
        A1, A2 = cache["A1"], cache["A2"]
        grads["edge_head_w2"] += (A1 + A2).T @ dZe
        grads["edge_head_b2"] += 2.0 * dZe.sum(axis=0)
        dA = dZe @ t["edge_head_w2"].T
        dU1 = dA * (1.0 - A1 ** 2)
        dU2 = dA * (1.0 - A2 ** 2)
        grads["edge_head_w1"] += cache["E1"].T @ dU1 + cache["E2"].T @ dU2
        grads["edge_head_b1"] += dU1.sum(axis=0) + dU2.sum(axis=0)
        dE1 = dU1 @ t["edge_head_w1"].T
        dE2 = dU2 @ t["edge_head_w1"].T
        np.add.at(dH, iu, dE1[:, :h] + dE2[:, h:2 * h])
        np.add.at(dH, ju, dE1[:, h:2 * h] + dE2[:, :h])

    P = cache["P"]
    for l in reversed(range(params.L)):
        H_in, M, c, H_out = cache["layers"][l]
        dU = dH * (1.0 - H_out ** 2)
        grads[f"layer{l}.w_self"] += H_in.T @ dU
        grads[f"layer{l}.w_msg"] += M.T @ dU
        dU_sum = dU.sum(axis=0)
        grads[f"layer{l}.w_ctx"] += np.outer(c, dU_sum)
        grads[f"layer{l}.b"] += dU_sum
        dc = dU_sum @ t[f"layer{l}.w_ctx"].T
        dH = dU @ t[f"layer{l}.w_self"].T + P.T @ (dU @ t[f"layer{l}.w_msg"].T) \
            + dc[None, :] / k

    np.add.at(grads["node_embed"], cache["x_t"], dH)
    dtv = dH.sum(axis=0)
    grads["time_w"] += np.outer(cache["feats"], dtv)
    grads["time_b"] += dtv


def loss_and_grad(params, batch, sched, lam):
    """Mean loss over a batch of NoisySample (base = clean), plus gradients."""
    grads = params.zeros_like()
    total = 0.0
    for noisy in batch:
        p_x, p_e, cache = forward(params, noisy, sched)
        total += loss(p_x, p_e, noisy.base, lam)
        backward(params, cache, noisy.base, lam, grads)
    inv = 1.0 / len(batch)
    for key in grads:
        grads[key] *= inv
    return total * inv, grads
