"""Discrete-state noising and exact reverse-step posteriors.

Node states are the parent graph's node IDs (n categories); pair states
are binary absent/present. Transition matrices have the marginal-
convergent form Q_t = alpha_t*I + (1-alpha_t)*1 m^T whose products keep
the same rank-1-plus-identity shape, so nothing here materializes an
n x n matrix: every operation applies the structure in O(n).
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePosterior, InvalidParameter
from .rng import as_generator

COSINE_OFFSET = 0.008


@dataclass
class NoiseSchedule:
    """Cosine corruption schedule plus the corpus marginals it converges to.

    alpha has length T (alpha[t-1] is the step t survival probability);
    alpha_bar has length T+1 with alpha_bar[0] = 1. Schedules produced by
    build_schedule additionally satisfy alpha_bar[T] <= 1e-4; hand-built
    test schedules may be shorter and skip that.
    """

    T: int
    alpha: np.ndarray
    alpha_bar: np.ndarray
    m_x: np.ndarray  # node-ID marginal, length n_parent
    m_e: np.ndarray  # (absent, present) pair marginal
    # SHA-256 hex of the file the schedule was loaded from; None if built
    digest: str | None = field(default=None, compare=False)

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.alpha_bar = np.asarray(self.alpha_bar, dtype=np.float64)
        self.m_x = np.asarray(self.m_x, dtype=np.float64)
        self.m_e = np.asarray(self.m_e, dtype=np.float64)
        if self.T < 1 or len(self.alpha) != self.T or len(self.alpha_bar) != self.T + 1:
            raise InvalidParameter("schedule arrays inconsistent with T")
        if not all(((a >= 0) & (a <= 1)).all() for a in (self.alpha, self.alpha_bar)):
            raise InvalidParameter("alpha and alpha_bar must be finite and within [0, 1]")
        if not (self.alpha_bar[:-1] > 0).all():
            raise InvalidParameter("alpha_bar must be positive before its last entry")
        if not np.isclose(self.alpha_bar[0], 1.0):
            raise InvalidParameter("alpha_bar must start at 1")
        if (np.diff(self.alpha_bar) > 1e-12).any():
            raise InvalidParameter("alpha_bar must be non-increasing")
        for m in (self.m_x, self.m_e):
            if (m < 0).any() or not np.isclose(m.sum(), 1.0, atol=1e-9):
                raise InvalidParameter("marginals must be distributions")

    def marginal(self, which):
        if which == "node":
            return self.m_x
        if which == "edge":
            return self.m_e
        raise InvalidParameter(f"which must be 'node' or 'edge', got {which!r}")

    def save(self, path):
        obj = {"T": self.T, "alpha_bar": self.alpha_bar.tolist(),
               "m_X": self.m_x.tolist(), "m_E": self.m_e.tolist()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        """Read a schedule written by save; InvalidParameter naming the file
        unless it is one."""
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            obj = json.loads(blob)
            T = obj["T"]
            if type(T) is not int:  # not a float, string or bool that int() takes
                raise TypeError(f"T must be an integer, got {T!r}")
            ab = np.asarray(obj["alpha_bar"], dtype=np.float64)
            with np.errstate(all="ignore"):  # the constructor rejects what warns
                alpha = ab[1:] / ab[:-1]
            return cls(T, alpha, ab, obj["m_X"], obj["m_E"],
                       digest=hashlib.sha256(blob).hexdigest())
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise InvalidParameter(
                f"schedule {path}: {type(exc).__name__}: {exc}") from None


@dataclass
class NoisySample:
    """States of one subgraph at diffusion time t.

    base is the clean SubgraphSample during training, None during
    generation. x_t are node-ID states (length k), e_t binary pair states
    in local_pairs order (length k*(k-1)/2).
    """

    base: object
    t: int
    x_t: np.ndarray
    e_t: np.ndarray

    @property
    def k(self):
        return len(self.x_t)


def cosine_alpha_bar(T, s=COSINE_OFFSET):
    """alpha_bar[0..T] from the squared-cosine profile, no clipping.

    f(1) = cos^2(pi/2) = 0 up to rounding, so alpha_bar[T] ~ 1e-33 and the
    terminal state is (numerically) a pure draw from the marginal even for
    tiny T.
    """
    t = np.arange(T + 1, dtype=np.float64) / T
    f = np.cos((t + s) / (1.0 + s) * (np.pi / 2.0)) ** 2
    return f / f[0]


def corpus_marginals(corpus):
    """(m_x, m_e): node-ID and pair-state frequencies over the corpus."""
    counts = np.bincount(corpus.ids, minlength=corpus.n_parent).astype(np.float64)
    pairs = corpus.states.size
    present = int(np.count_nonzero(corpus.states))
    total = counts.sum()
    if total == 0:
        raise InvalidParameter("corpus has no nodes")
    m_x = counts / total
    if pairs == 0:
        m_e = np.array([0.5, 0.5])
    else:
        p = present / pairs
        m_e = np.array([1.0 - p, p])
    return m_x, m_e


def build_schedule(T, corpus):
    if T < 1:
        raise InvalidParameter("T must be >= 1")
    ab = cosine_alpha_bar(T, COSINE_OFFSET)
    alpha = ab[1:] / ab[:-1]
    m_x, m_e = corpus_marginals(corpus)
    sched = NoiseSchedule(T, alpha, ab, m_x, m_e)
    if not sched.alpha_bar[T] <= 1e-4:
        raise InvalidParameter(
            f"terminal distribution not mixed: alpha_bar[T] = {sched.alpha_bar[T]:.3g} > 1e-4")
    return sched


def transition_apply(dist, t, which, sched):
    """One forward step of the transition operator on a distribution row.

    dist @ Q_t = alpha_t * dist + (1 - alpha_t) * sum(dist) * m.
    """
    if not 1 <= t <= sched.T:
        raise InvalidParameter(f"t must be in 1..T, got {t}")
    dist = np.asarray(dist, dtype=np.float64)
    a = sched.alpha[t - 1]
    return a * dist + (1.0 - a) * dist.sum() * sched.marginal(which)


def forward_noise(sample, t, sched, seed, freeze_nodes=False):
    """Draw G_t ~ q(.|G_0) for one sample.

    Each element independently keeps its clean state with prob alpha_bar_t,
    otherwise resamples from the scheme marginal. freeze_nodes is the
    experimental variant that corrupts only pair states.
    """
    if not 1 <= t <= sched.T:
        raise InvalidParameter(f"t must be in 1..T, got {t}")
    rng = as_generator(seed)
    ab = sched.alpha_bar[t]
    k = sample.num_nodes

    keep = rng.random(k) < ab
    resampled = rng.choice(len(sched.m_x), size=k, p=sched.m_x)
    x_t = np.where(keep, sample.id_map, resampled).astype(np.int64)
    if freeze_nodes:
        x_t = sample.id_map.copy()

    n_pairs = k * (k - 1) // 2
    e_clean = sample.edge_states()
    keep_e = rng.random(n_pairs) < ab
    resampled_e = (rng.random(n_pairs) < sched.m_e[1]).astype(np.int8)
    e_t = np.where(keep_e, e_clean, resampled_e).astype(np.int8)
    return NoisySample(sample, t, x_t, e_t)


def _posterior_batch(states, p_hat, t, sched, which):
    """Reverse-step distributions, one row per element.

    For observed state x_t and predicted clean distribution p_hat, the
    mixture sum_x q(x_{t-1} | x, x_t) * 1[q(x_t|x) > 0] * p_hat(x) with the
    rank-1 transitions collapses to

        out_j = A_j * (ab_prev * w_j + (1 - ab_prev) * m_j * sum(w)),
        A_j = a*1[j = x_t] + (1-a)*m[x_t],
        w_x = 1[Z_x > 0] * p_hat(x) / Z_x,
        Z_x = ab_t*1[x = x_t] + (1-ab_t)*m[x_t],

    which is O(S) per element instead of the O(S^2) literal sum.
    """
    if not 1 <= t <= sched.T:
        raise InvalidParameter(f"t must be in 1..T, got {t}")
    m = sched.marginal(which)
    S = len(m)
    states = np.asarray(states, dtype=np.int64)
    p_hat = np.asarray(p_hat, dtype=np.float64).reshape(len(states), S)
    B = len(states)
    a = sched.alpha[t - 1]
    ab_t = sched.alpha_bar[t]
    ab_prev = sched.alpha_bar[t - 1]
    rows = np.arange(B)
    m_obs = m[states]  # m[x_t] per row

    Z = np.repeat(((1.0 - ab_t) * m_obs)[:, None], S, axis=1)
    Z[rows, states] += ab_t
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(Z > 0.0, p_hat / Z, 0.0)
    w_sum = w.sum(axis=1)

    A = np.repeat(((1.0 - a) * m_obs)[:, None], S, axis=1)
    A[rows, states] += a
    out = A * (ab_prev * w + (1.0 - ab_prev) * m[None, :] * w_sum[:, None])
    total = out.sum(axis=1)
    if not np.isfinite(total).all() or (total <= 0.0).any():
        raise DegeneratePosterior(f"zero-mass posterior at t={t} ({which})")
    return out / total[:, None]


def posterior_step(x_t, p_hat, t, sched, which):
    """Distribution over the t-1 state of a single element."""
    out = _posterior_batch(np.array([x_t]), p_hat[None, :], t, sched, which)
    return out[0]


def _sample_rows(dists, rng):
    cum = np.cumsum(dists, axis=1)
    u = rng.random(len(dists))
    idx = (cum < u[:, None]).sum(axis=1)
    return np.minimum(idx, dists.shape[1] - 1)


def reverse_step(noisy, p_hat_x, p_hat_e, sched, seed):
    """Sample G_{t-1} ~ p(.|G_t) under the predicted clean distributions."""
    rng = as_generator(seed)
    t = noisy.t
    x_dists = _posterior_batch(noisy.x_t, p_hat_x, t, sched, "node")
    x_prev = _sample_rows(x_dists, rng).astype(np.int64)
    if noisy.e_t.size:
        e_dists = _posterior_batch(noisy.e_t, p_hat_e, t, sched, "edge")
        e_prev = _sample_rows(e_dists, rng).astype(np.int8)
    else:
        e_prev = noisy.e_t.copy()
    return NoisySample(noisy.base, t - 1, x_prev, e_prev)


def prior_sample(k, sched, seed):
    """G_T draw: IID node IDs from m_x, IID pair states from m_e."""
    rng = as_generator(seed)
    x = rng.choice(len(sched.m_x), size=k, p=sched.m_x).astype(np.int64)
    n_pairs = k * (k - 1) // 2
    e = (rng.random(n_pairs) < sched.m_e[1]).astype(np.int8)
    return NoisySample(None, sched.T, x, e)

