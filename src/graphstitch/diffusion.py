"""Discrete-state noising and exact reverse-step posteriors.

Node states are the parent graph's node IDs (n categories); pair states
are binary absent/present. Transition matrices have the marginal-
convergent form Q_t = alpha_t*I + (1-alpha_t)*1 m^T whose products keep
the same rank-1-plus-identity shape, so nothing here materializes an
n x n matrix: every operation applies the structure in O(n). The reverse
step goes further: each element's posterior is a mixture of three
components whose masses cost O(1), so a full row is built only for the
elements whose draw leaves their current state.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePosterior, InvalidParameter
from .jsonio import fits, read_json, to_json
from .rng import as_generator

COSINE_OFFSET = 0.008


@dataclass
class NoiseSchedule:
    """Cosine corruption schedule plus the corpus marginals it converges to.

    alpha has length T (alpha[t-1] is the step t survival probability);
    alpha_bar has length T+1 with alpha_bar[0] = 1. Schedules produced by
    build_schedule additionally satisfy alpha_bar[T] <= 1e-4; hand-built
    test schedules may be shorter and skip that. cdf is m_x's cumulative
    table, built once here as Generator.choice(p=m_x) builds it per call;
    it is not saved.
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
        if self.m_e.shape != (2,) or any(a.ndim != 1 for a in
                                         (self.alpha, self.alpha_bar, self.m_x)):
            raise InvalidParameter("alpha, alpha_bar and m_x must be 1-D and m_e "
                                   "must have two entries")
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
        self.cdf = self.m_x.cumsum()
        self.cdf /= self.cdf[-1]

    def draw_nodes(self, rng, k):
        """k IID node IDs from m_x: the draws and the generator state after
        them equal those of rng.choice(len(m_x), size=k, p=m_x)."""
        return self.cdf.searchsorted(rng.random(k), side="right")

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
            fh.write(to_json(obj))

    @classmethod
    def load(cls, path):
        """Read a schedule written by save (through jsonio.read_json);
        InvalidParameter naming the file unless it is one."""
        obj, digest = read_json(path, "schedule")
        T, ab, m_x, m_e = (obj.get(key) for key in ("T", "alpha_bar", "m_X", "m_E"))
        if not (fits(int, T) and all(fits(tuple[float, ...], v) for v in (ab, m_x, m_e))):
            raise InvalidParameter(f"schedule {path}: T must be an integer and alpha_bar, "
                                   "m_X and m_E lists of finite numbers")
        ab = np.asarray(ab, dtype=np.float64)
        with np.errstate(all="ignore"):  # the constructor rejects what warns
            alpha = ab[1:] / ab[:-1]
        try:
            return cls(T, alpha, ab, m_x, m_e, digest=digest)
        except InvalidParameter as exc:
            raise InvalidParameter(f"schedule {path}: {exc}") from None


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
    total = counts.sum()
    if total == 0:
        raise InvalidParameter("corpus has no nodes")
    pairs = corpus.states.size
    p = np.count_nonzero(corpus.states) / pairs if pairs else 0.5  # no pairs: uniform
    return counts / total, np.array([1.0 - p, p])


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
    x_t = np.where(keep, sample.id_map, sched.draw_nodes(rng, k)).astype(np.int64)
    if freeze_nodes:
        x_t = sample.id_map.copy()

    n_pairs = k * (k - 1) // 2
    e_clean = sample.edge_states()
    keep_e = rng.random(n_pairs) < ab
    resampled_e = (rng.random(n_pairs) < sched.m_e[1]).astype(np.int8)
    e_t = np.where(keep_e, e_clean, resampled_e).astype(np.int8)
    return NoisySample(sample, t, x_t, e_t)


def _mixture(states, p_obs, p_off, t, sched, which):
    """The t-1 posterior of each element as a three-way mixture.

    With x = x_t, summing q(x_{t-1} | y, x_t) * 1[q(x_t|y) > 0] * p_hat(y)
    over the clean states y under the rank-1 transitions gives the row

        out_j = k_p*p_hat_j + k_m*m_j  (j != x),    out_x = stay,
        k_p = (1-a)*m[x]*ab_prev / c,    k_m = (1-a)*m[x]*(1-ab_prev)*sum(w),
        stay = A_x * (ab_prev*w_x + (1-ab_prev)*m[x]*sum(w)),
        A_x = a + (1-a)*m[x],    w_y = 1[Z_y > 0]*p_hat(y)/Z_y,
        Z_x = ab_t + (1-ab_t)*m[x],    c = Z_j (j != x) = (1-ab_t)*m[x],
        sum(w) = p_off/c + w_x,

    that is p_hat without x, m without x and a point mass at x. p_obs is
    p_hat[x] and p_off the row's sum off x, so a row costs O(1). Returns
    (k_p, k_m, stay, total); DegeneratePosterior where a total is zero or
    not finite.
    """
    if not 1 <= t <= sched.T:
        raise InvalidParameter(f"t must be in 1..T, got {t}")
    m = sched.marginal(which)
    a = sched.alpha[t - 1]
    ab_t = sched.alpha_bar[t]
    ab_prev = sched.alpha_bar[t - 1]
    m_obs = m[states]
    c = (1.0 - ab_t) * m_obs
    z_obs = c + ab_t
    leave = (1.0 - a) * m_obs  # A_j for j != x
    k_p = np.divide(ab_prev * leave, c, out=np.zeros(len(c)), where=c > 0.0)
    w_obs = np.divide(p_obs, z_obs, out=np.zeros(len(c)), where=z_obs > 0.0)
    w_sum = np.divide(p_off, c, out=np.zeros(len(c)), where=c > 0.0) + w_obs
    k_m = (1.0 - ab_prev) * leave * w_sum
    stay = (a + leave) * (ab_prev * w_obs + (1.0 - ab_prev) * m_obs * w_sum)
    total = k_p * p_off + k_m * (1.0 - m_obs) + stay
    if not np.isfinite(total).all() or not (total > 0.0).all():
        raise DegeneratePosterior(f"zero-mass posterior at t={t} ({which})")
    return k_p, k_m, stay, total


def posterior_step(x_t, p_hat, t, sched, which):
    """Distribution over the t-1 state of one element in state x_t: the row
    _mixture's components add up to, over its total."""
    m = sched.marginal(which)
    p_hat = np.asarray(p_hat, dtype=np.float64)
    if p_hat.shape != m.shape or not 0 <= x_t < len(m):
        raise InvalidParameter(f"{which} posterior needs p_hat of length {len(m)} and x_t "
                               f"in 0..{len(m) - 1}, got shape {p_hat.shape} and {x_t}")
    (k_p,), (k_m,), (stay,), (total,) = _mixture(
        np.array([x_t]), p_hat[x_t], p_hat.sum() - p_hat[x_t], t, sched, which)
    out = k_p * p_hat + k_m * m
    out[x_t] = stay
    return out / total


def _sample_nodes(x_t, p_hat, t, sched, u):
    """Inverse-CDF draws of the t-1 node states, one uniform per row.

    A row's masses below x_t and at x_t (from the prefix sums of p_hat and
    m up to x_t) decide in O(1) whether its draw stays at x_t; only the rows
    that leave are built in full and cumsummed.
    """
    k, n = p_hat.shape
    rows = np.arange(k)
    bounds = np.column_stack([rows * n, rows * n + x_t]).ravel()
    p_below, p_from = np.add.reduceat(p_hat.ravel(), bounds).reshape(k, 2).T
    p_below = np.where(x_t > 0, p_below, 0.0)  # an empty segment sums to its first entry
    p_obs = p_hat[rows, x_t]
    k_p, k_m, stay, total = _mixture(x_t, p_obs, p_below + (p_from - p_obs), t, sched,
                                     "node")
    below = k_p * p_below + k_m * np.where(x_t > 0, sched.cdf[x_t - 1], 0.0)
    v = u * total
    moved = np.flatnonzero((v < below) | (v >= below + stay))
    x_prev = x_t.copy()
    if moved.size:
        dist = k_p[moved, None] * p_hat[moved] + k_m[moved, None] * sched.m_x
        dist[np.arange(moved.size), x_t[moved]] = stay[moved]
        cum = dist.cumsum(axis=1)
        x_prev[moved] = (cum <= (u[moved] * cum[:, -1])[:, None]).sum(axis=1)
    return x_prev


def _sample_pairs(e_t, p_hat, t, sched, u):
    """Inverse-CDF draws of the t-1 pair states, one uniform per pair."""
    rows = np.arange(e_t.size)
    p_off = p_hat[rows, 1 - e_t]
    k_p, k_m, stay, total = _mixture(e_t, p_hat[rows, e_t], p_off, t, sched, "edge")
    flip = k_p * p_off + k_m * sched.m_e[1 - e_t]
    absent = np.where(e_t == 0, stay, flip)
    return (u * total >= absent).astype(np.int8)


def reverse_step(noisy, p_hat_x, p_hat_e, sched, seed):
    """Sample G_{t-1} ~ p(.|G_t) under the predicted clean distributions:
    k uniforms for the nodes, then one per pair."""
    rng = as_generator(seed)
    t, k, e_t = noisy.t, noisy.k, noisy.e_t
    p_hat_x = np.asarray(p_hat_x, dtype=np.float64).reshape(k, -1)
    x_prev = _sample_nodes(noisy.x_t, p_hat_x, t, sched, rng.random(k))
    p_hat_e = np.asarray(p_hat_e, dtype=np.float64).reshape(e_t.size, 2)
    e_prev = _sample_pairs(e_t, p_hat_e, t, sched, rng.random(e_t.size))
    return NoisySample(noisy.base, t - 1, x_prev, e_prev)


def prior_sample(k, sched, seed):
    """G_T draw: IID node IDs from m_x, IID pair states from m_e."""
    rng = as_generator(seed)
    x = sched.draw_nodes(rng, k).astype(np.int64)
    n_pairs = k * (k - 1) // 2
    e = (rng.random(n_pairs) < sched.m_e[1]).astype(np.int8)
    return NoisySample(None, sched.T, x, e)
