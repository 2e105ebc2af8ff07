"""Utility probe: does a link predictor trained on the synthetic graph
score held-out real edges above random non-edges?

The predictor is a dot-product embedding model with a scalar bias trained
by full-batch logistic descent; evaluation reports ranking AUC and average
precision computed exactly from score order (no curve discretization).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NegativeSamplingExhausted
from .graphs import decode_pairs, pair_codes, scatter_add
from .rng import substream

MAX_NEGATIVE_DRAWS = 1_000_000


@dataclass
class EvalSet:
    positives: np.ndarray  # (m, 2) held-out real edges
    negatives: np.ndarray  # (m, 2) sampled real non-edges
    seed: int


@dataclass
class EmbeddingModel:
    z: np.ndarray  # (n, h)
    bias: float

    def scores(self, pairs):
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        logits = (self.z[pairs[:, 0]] * self.z[pairs[:, 1]]).sum(axis=1) + self.bias
        return 1.0 / (1.0 + np.exp(-logits))


def _in_sorted(a, x):
    """Whether each entry of x occurs in the sorted array a."""
    if not a.size:
        return np.zeros(x.shape, dtype=bool)
    return a[np.minimum(np.searchsorted(a, x), a.size - 1)] == x


def _sample_non_edges(g, count, rng, budget=MAX_NEGATIVE_DRAWS):
    """`count` distinct node pairs that are not edges of g (batched rejection).

    Pairs come in draw order: a batch drops self-pairs, repeats within it
    (the first draw wins), edges of g and pairs chosen in earlier batches.
    """
    chosen = np.empty(0, dtype=np.int64)  # in draw order
    seen = chosen  # the same codes, sorted
    draws = 0
    while chosen.size < count:
        if draws >= budget:
            raise NegativeSamplingExhausted(
                f"drew {draws} candidate pairs for {count} non-edges; graph too dense")
        batch = min(4096, budget - draws)
        cand = rng.integers(0, g.n, size=(batch, 2))
        draws += batch
        codes = pair_codes(cand[:, 0], cand[:, 1], g.n)
        # stable: each code's first draw leads its repeats in sorted order
        order = np.argsort(codes, kind="stable")
        ranked = codes[order]
        ok = np.ones(batch, dtype=bool)
        ok[1:] = ranked[1:] != ranked[:-1]
        ok &= (cand[:, 0] != cand[:, 1])[order]
        ok &= ~_in_sorted(g.edge_codes, ranked) & ~_in_sorted(seen, ranked)
        keep = np.zeros(batch, dtype=bool)
        keep[order[ok]] = True
        chosen = np.concatenate([chosen, codes[keep][:count - chosen.size]])
        added = ranked[ok]
        seen = np.insert(seen, np.searchsorted(seen, added), added)
    return decode_pairs(chosen, g.n)


def build_eval_set(real, fraction, seed):
    """Hold out ceil(fraction * m) real edges as positives and sample an
    equal number of real non-edges as negatives."""
    if not 0.0 < fraction <= 1.0:
        raise InvalidParameter(f"fraction must be in (0, 1], got {fraction}")
    m = real.num_edges
    if m == 0:
        raise InvalidParameter("real graph has no edges to hold out")
    count = int(np.ceil(fraction * m))
    rng = substream(seed, "eval-pos")
    sel = np.sort(rng.choice(m, size=count, replace=False))
    positives = real.edge_array[sel]
    negatives = _sample_non_edges(real, count, substream(seed, "eval-neg"))
    return EvalSet(positives, negatives, seed)


def train_link_predictor(synthetic, h=16, epochs=500, lr=1.0, seed=0):
    """Fit embeddings on the synthetic graph's edges vs fresh per-epoch
    negatives. Returns (model, per-epoch loss trace)."""
    if synthetic.num_edges == 0:
        raise InvalidParameter("synthetic graph has no edges to fit")
    if h < 1 or epochs < 0 or lr <= 0:
        raise InvalidParameter("need h >= 1, epochs >= 0, lr > 0")
    n = synthetic.n
    pos = synthetic.edge_array
    m = pos.shape[0]
    rng_init = substream(seed, "lp-init")
    z = rng_init.normal(0.0, 0.1, size=(n, h))
    bias = 0.0
    trace = np.zeros(epochs)
    for epoch in range(epochs):
        rng = substream(seed, "lp-epoch", epoch)
        neg = _sample_non_edges(synthetic, m, rng)
        u, v = np.concatenate([pos, neg]).T  # positives, then negatives
        zu, zv = z[u], z[v]
        s = 1.0 / (1.0 + np.exp(-((zu * zv).sum(axis=1) + bias)))
        trace[epoch] = float(-(np.log(np.clip(s[:m], 1e-12, None)).sum()
                               + np.log(np.clip(1.0 - s[m:], 1e-12, None)).sum()) / (2 * m))
        # d loss / d logit, already averaged
        g = np.concatenate([-(1.0 - s[:m]), s[m:]]) / (2 * m)
        du, dv = g[:, None] * zv, g[:, None] * zu
        # terms grouped in the order of tests/linkpred_oracle.py, which fixes dz's bits
        dz = scatter_add(np.concatenate([u[:m], v[:m], u[m:], v[m:]]),
                         np.concatenate([du[:m], dv[:m], du[m:], dv[m:]]), n)
        db = g[:m].sum() + g[m:].sum()
        z -= lr * dz
        bias -= lr * db
    return EmbeddingModel(z, float(bias)), trace


def ranking_auc(pos_scores, neg_scores):
    """P(random positive outranks random negative), ties counted half."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.sort(np.asarray(neg_scores, dtype=np.float64))
    wins = np.searchsorted(neg, pos, side="left").sum()
    ties = (np.searchsorted(neg, pos, side="right")
            - np.searchsorted(neg, pos, side="left")).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def average_precision(pos_scores, neg_scores):
    """Step-interpolated AP over the distinct score thresholds."""
    pos = np.sort(np.asarray(pos_scores, dtype=np.float64))
    neg = np.sort(np.asarray(neg_scores, dtype=np.float64))
    thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    tp = pos.size - np.searchsorted(pos, thresholds, side="left")
    fp = neg.size - np.searchsorted(neg, thresholds, side="left")
    precision = tp / (tp + fp)
    recall = tp / pos.size
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev) * precision).sum())


def evaluate(model, eval_set):
    """(auc, ap) of the model's scores on the eval set."""
    s_pos = model.scores(eval_set.positives)
    s_neg = model.scores(eval_set.negatives)
    return ranking_auc(s_pos, s_neg), average_precision(s_pos, s_neg)
