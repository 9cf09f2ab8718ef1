"""Exact samplers.

Rejection sampling for the gradient and mixture models with analytic
envelope constants, and the five-dimensional sequential benchmark
generator.  Streams are fully determined by a 64-bit seed via the PCG64
generator; proposals and acceptance uniforms are drawn in a fixed order.
The gradient-model sampler evaluates its density only where neither a
per-cell ceiling rejects the proposal nor a per-cell floor accepts it, or the
cell is not proven semidefinite, which leaves each stream as it was and raises
for an infeasible theta no later than plain rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, SgmError
from .model import FrequencySet, density_batch, mixm_density_batch

_BATCH = 8192
_CELLS = 4096  # cells of the squeeze's grid, at most
_WORK = 2**20  # m k r^m, which the squeeze's setup time grows with, at most


@dataclass(frozen=True)
class RejectionInfo:
    n_samples: int
    n_proposed: int
    bound: float

    @property
    def acceptance_rate(self) -> float:
        return self.n_samples / self.n_proposed


def rejection_bound(freqs: FrequencySet, theta, model: str = "sgm") -> float:
    """Envelope constant dominating the density everywhere on the cube.

    For the gradient model, prod_j (1 + sum_u |theta_u| u_j^2); for the
    mixture model, 1 + sum_u |theta_u| ||u||^2.
    """
    theta = freqs.check_theta(theta)
    if model == "sgm":
        loads = np.abs(theta) @ freqs.freqs.astype(float) ** 2
        return float(np.prod(1.0 + loads))
    if model == "mixm":
        return float(1.0 + np.abs(theta) @ freqs.sqnorms)
    raise DomainError(f"unknown model {model!r}")


def _cell_ceiling(freqs: FrequencySet, theta, bound: float) -> tuple[int, np.ndarray, np.ndarray]:
    """Density ceilings and floors on the r^m equal cells of the cube, each of shape
    (r,) * m, r >= 1 the largest with r^m <= _CELLS and m k r^m <= _WORK.  The exact
    ranges of cos(pi u_j x_j) and |sin| on each cell's sides, multiplied over the axes,
    bound G_jj by [d_j, g_j] and sum_{l != j} |G_jl| by R_j, all rounded outward.  A
    cell with every d_j >= R_j has G >= 0 (Gershgorin), so prod_j (d_j - R_j) <= det G
    (Ostrowski, Proc. AMS 3, 1952) <= prod_j g_j (Hadamard); the other cells get the
    ceiling ``bound`` and the floor -inf, so each of their proposals is evaluated.  A
    g_j < 0 puts G_jj < 0 on a whole cell: DomainError.  One cell's ceiling is at least
    the bound: r = 1 squeezes nothing."""
    theta = freqs.check_theta(theta)
    (k, m), U = freqs.freqs.shape, freqs.freqs
    r = max(1, int(min(_CELLS, _WORK / (m * k)) ** (1 / m) + 1e-9))
    a = 2 * U[:, :, None] * np.arange(r + 1)  # 2t r at the cell ends of each angle pi t
    n0, n1 = a[..., :-1] // r + 1, (a[..., 1:] - 1) // r  # the integers 2t strictly inside
    peak = lambda e, p: n0 + (e - n0) % p <= n1  # some 2t = e (mod p) inside the cell
    cos, sin = np.cos(np.pi * a / (2 * r)), np.abs(np.sin(np.pi * a / (2 * r)))
    lo = np.where(peak(2, 4), -1.0, np.minimum(cos[..., :-1], cos[..., 1:]))
    hi = np.where(peak(0, 4), 1.0, np.maximum(cos[..., :-1], cos[..., 1:]))
    S = np.where(peak(1, 2), 1.0, np.maximum(sin[..., :-1], sin[..., 1:])) * U[..., None]
    C = np.maximum(-lo, hi)
    ax = lambda v, j: v[:, j].T.reshape((1,) * j + (r,) + (1,) * (m - j - 1) + (k,))
    L = H = 1.0  # over the grid (r,) * m + (k,), frequencies last
    for j in range(m):
        P = [x * y for x in (L, H) for y in (ax(lo, j), ax(hi, j))]
        L, H = reduce(np.minimum, P), reduce(np.maximum, P)
    # outward rounding: angles, sines and cosines, their m-fold products and the sums
    w = np.abs(theta)
    slack = (k + 2 + m * (10 * freqs.u_max + 4)) * np.finfo(float).eps
    slack = slack * (1.0 + w @ (U * U.sum(axis=1, keepdims=True)))  # each row's weight
    g, f = [], []  # g_j and d_j - R_j, rounded
    for j, cj in enumerate(theta * U.T**2):
        g.append(1.0 + np.maximum(cj * L, cj * H).sum(axis=-1) + slack[j])
        P, D = 1.0, 0.0  # the dual product of |cos_i| + e |u_i sin_i| over i != j
        for i in set(range(m)) - {j}:
            P, D = P * ax(C, i), D * ax(C, i) + P * ax(S, i)
        f.append(1.0 + np.minimum(cj * L, cj * H).sum(axis=-1) - (ax(S, j) * D) @ w - slack[j])
    g, f = np.array(g), np.array(f)
    if (g < 0).any():
        raise DomainError("a Hessian diagonal is negative on a whole cell: theta is infeasible")
    ok = (f >= 0).all(axis=0)
    return (r, np.where(ok, g.prod(axis=0) + 1e-12 * bound, bound),
            np.where(ok, f.prod(axis=0) - 1e-12 * bound, -np.inf))


def _rejection(freqs, n, seed, density_fn, bound, squeeze):
    """Rejection under the global ``bound``, squeezed by ``squeeze``, the density's
    ceiling and floor at each proposal (scalars or (N,) each from (N, m) points): a
    proposal with U bound above its ceiling is rejected and one with U bound at most
    its floor accepted, both unevaluated, which keeps every draw since ``density_fn``
    gives each point the same bits in any batch."""
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = np.random.default_rng(seed)
    out = np.empty((n, freqs.dim))
    filled = 0
    proposed = 0
    while filled < n:
        X = rng.random((_BATCH, freqs.dim))
        u = rng.random(_BATCH) * bound  # U bound
        ceil, floor = squeeze(X)
        top = np.broadcast_to(ceil * (1.0 + 1e-12), u.shape)
        sure = u <= floor
        live = (u <= top) & ~sure
        p = np.zeros(_BATCH)
        p[live] = density_fn(X[live])
        proposed += _BATCH
        if p.min() < -1e-12 * bound:
            raise DomainError(
                f"negative density {p.min():.3e} at a proposal: theta is infeasible"
            )
        if (p > top).any():
            i = int(np.argmax(p - top))
            raise SgmError(
                f"rejection ceiling violated: density {p[i]} > ceiling {top[i]}"
            )
        hit = sure | (u <= p)
        acc = X[hit]
        take = min(len(acc), n - filled)
        out[filled : filled + take] = acc[:take]
        # count only proposals actually examined so the acceptance rate is unbiased
        if take < len(acc):
            used = np.nonzero(hit)[0][take - 1] + 1
            proposed -= _BATCH - int(used)
        filled += take
    return out, RejectionInfo(n_samples=n, n_proposed=proposed, bound=bound)


def sample_sgm(freqs: FrequencySet, theta, n: int, seed: int, return_info: bool = False):
    """n i.i.d. draws from the gradient-model density by rejection.

    Exact in distribution; the expected number of proposals per sample is
    the envelope constant.  The density is evaluated only at proposals that
    ``_cell_ceiling``'s two-sided squeeze can neither reject nor accept: the draws
    are plain rejection's, bit for bit.  Cells not proven semidefinite are not
    squeezed, so an indefinite Hessian raises no later than under plain rejection.
    """
    bound = rejection_bound(freqs, theta, "sgm")
    r, ceil, floor = _cell_ceiling(freqs, theta, bound)

    def squeeze(X):
        cell = tuple(np.minimum((X * r).astype(np.intp), r - 1).T)
        return ceil[cell], floor[cell]

    out, info = _rejection(
        freqs, n, seed, lambda X: density_batch(freqs, theta, X), bound, squeeze
    )
    return (out, info) if return_info else out


def sample_mixm(freqs: FrequencySet, theta, n: int, seed: int, return_info: bool = False):
    """n i.i.d. draws from the mixture-model density by rejection."""
    bound = rejection_bound(freqs, theta, "mixm")
    out, info = _rejection(
        freqs, n, seed, lambda X: mixm_density_batch(freqs, theta, X), bound,
        lambda X: (bound, -np.inf),
    )
    return (out, info) if return_info else out


def sample_benchmark5(n: int, seed: int) -> np.ndarray:
    """The five-dimensional benchmark: correlated pair, heteroscedastic link,
    and a three-variable interaction through a state-dependent correlation.

    x1 ~ N(0,1); x2 ~ N(x1,1); x3 ~ N(0, 1 + tanh(x2));
    (x4, x5) bivariate normal with unit variances and correlation tanh(x3).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 5))
    x1 = z[:, 0]
    x2 = x1 + z[:, 1]
    x3 = np.sqrt(1.0 + np.tanh(x2)) * z[:, 2]
    rho = np.tanh(x3)
    x4 = z[:, 3]
    x5 = rho * z[:, 3] + np.sqrt(1.0 - rho**2) * z[:, 4]
    return np.stack([x1, x2, x3, x4, x5], axis=-1)
