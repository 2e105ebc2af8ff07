"""The dense-row reverse-step posterior that diffusion._mixture must match.

_posterior_batch builds every element's full t-1 row in O(S); the package
samples the same rows from their three-way mixture without building them.
"""

import numpy as np

from graphstitch.errors import DegeneratePosterior, InvalidParameter


def _posterior_batch(states, p_hat, t, sched, which):
    """Reverse-step distributions, one row per element.

    For observed state x_t and predicted clean distribution p_hat, the
    mixture sum_x q(x_{t-1} | x, x_t) * 1[q(x_t|x) > 0] * p_hat(x) with the
    rank-1 transitions collapses to

        out_j = A_j * (ab_prev * w_j + (1 - ab_prev) * m_j * sum(w)),
        A_j = a*1[j = x_t] + (1-a)*m[x_t],
        w_x = 1[Z_x > 0] * p_hat(x) / Z_x,
        Z_x = ab_t*1[x = x_t] + (1-ab_t)*m[x_t],

    which is O(S) per element instead of the O(S^2) literal sum. This is
    the oracle for reverse_step's sampler, which never builds these rows
    for elements that stay put.
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
