"""Tensor-product quadrature and moment functionals.

Correlations and third-order interaction coefficients for the small worked
models, conditional mutual information, marginal densities, numeric Fisher
information, and density grids for external plotting, as numbers and arrays;
``cli`` turns them into text.  Each takes a node count n and integrates with
the one cached, read-only n-point Gauss-Legendre rule on [0, 1] that
``gauss_legendre`` returns.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError, ResourceLimitError
from .model import (
    FrequencySet,
    _gram_scores,
    _mesh_blocks,
    _points,
    _tensor_points,
    density_batch,
    mixm_density_batch,
)

DEFAULT_NODES = 48
_MAX_TENSOR_DIM = 4
_CHUNK = 16384

# Clip integrands below this before taking logarithms.
_LOG_FLOOR = 1e-300


@lru_cache(maxsize=16)
def gauss_legendre(n: int = DEFAULT_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and positive weights of the n-point Gauss-Legendre rule on [0, 1].

    Exact to degree 2n-1; the weights sum to one.  Every analysis shares one
    cached pair per n, so the arrays are read-only.
    """
    if n < 1:
        raise DomainError("node count must be >= 1")
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def tensor_grid(nodes: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product points (N, dim) and weights (N,) of ``gauss_legendre(nodes)``."""
    if dim > _MAX_TENSOR_DIM:
        raise ResourceLimitError(f"tensor quadrature limited to dimension {_MAX_TENSOR_DIM}")
    x, w = gauss_legendre(nodes)
    return _tensor_points([x] * dim), _tensor_weights(w, dim)


def _tensor_weights(weights: np.ndarray, dim: int) -> np.ndarray:
    """Tensor-product weights in the order of ``tensor_grid``; [1.0] for dim 0."""
    return np.ravel(reduce(np.multiply.outer, [weights] * dim, 1.0))


def integrate(f, dim: int, nodes: int = DEFAULT_NODES) -> float:
    """Tensor-product quadrature of a vectorized function on [0, 1]^dim.

    ``f`` receives an (N, dim) array of points and returns N values; each axis
    takes the ``nodes``-point rule of ``gauss_legendre``.
    """
    points, weights = tensor_grid(nodes, dim)
    return float(weights @ np.asarray(f(points), dtype=float))


def _density_fn(freqs: FrequencySet, theta, which: str):
    if which == "sgm":
        return lambda X: density_batch(freqs, theta, X)
    if which == "mixm":
        return lambda X: mixm_density_batch(freqs, theta, X)
    raise DomainError(f"unknown model {which!r}")


def _grid_density(freqs, theta, model, x):
    """Density values on the tensor grid of the nodes x, reshaped to (n, ..., n)."""
    dens = _density_fn(freqs, theta, model)
    blocks = _mesh_blocks([x] * freqs.dim, _CHUNK)
    return np.concatenate([dens(mesh) for mesh in blocks]).reshape((len(x),) * freqs.dim)


def _region_bound(u, model: str) -> float:
    """Largest |theta| at which the one-frequency model u is feasible: 1 / max_j u_j^2
    for the gradient model (its L1-type region at tau = 1), 1 / ||u||^2 for the mixture."""
    sq = np.square(u, dtype=float)
    return 1.0 / (sq.max() if model == "sgm" else sq.sum())


def _standardized_moment(u, theta, model, nodes, center=None) -> float:
    """E[prod_j (X_j - c_j)^a_j] / prod_j E[(X_j - c_j)^2]^(a_j / 2) under the
    one-frequency model u at theta, with the frequency's own exponents a = u and
    c_j the mean of X_j, or ``center`` for every j."""
    bound = _region_bound(u, model)
    if abs(theta) > bound + 1e-12:
        raise DomainError(f"|theta| must be <= {bound} for model {model!r}")
    x, w = gauss_legendre(nodes)
    m = len(u)
    p = _grid_density(FrequencySet.from_vectors([u]), [theta], model, x)
    W = p * _tensor_weights(w, m).reshape(p.shape)  # the quadrature masses
    num, scale = W, 1.0
    for j, a in enumerate(u):
        marg = W.sum(axis=tuple(i for i in range(m) if i != j))
        d = x - (x @ marg if center is None else center)
        num = np.tensordot(d**a, num, 1)  # contracts axis j, the leading one left
        scale *= (d**2 @ marg) ** (a / 2)
    return float(num / scale)


def correlation(theta: float, model: str = "sgm", nodes: int = DEFAULT_NODES) -> float:
    """Correlation of the two-dimensional single-frequency u=(1,1) model."""
    return _standardized_moment((1, 1), theta, model, nodes)


def beta122(theta: float, model: str = "sgm", nodes: int = DEFAULT_NODES) -> float:
    """Heteroscedasticity coefficient of the u=(1,2) model.

    E[(X1 - 1/2)(X2 - 1/2)^2] / (V[X1]^{1/2} V[X2]).
    """
    return _standardized_moment((1, 2), theta, model, nodes, center=0.5)


def beta123(theta: float, model: str = "sgm", nodes: int = DEFAULT_NODES) -> float:
    """Standardized three-way interaction coefficient of the u=(1,1,1) model."""
    return _standardized_moment((1, 1, 1), theta, model, nodes)


def cond_mutual_info(
    theta: float, phi: float, model: str = "sgm", nodes: int = DEFAULT_NODES
) -> float:
    """Conditional mutual information I(X1; X2 | X3) of the {(1,0,1),(0,1,1)} model."""
    x, w = gauss_legendre(nodes)
    freqs = FrequencySet.from_vectors([[1, 0, 1], [0, 1, 1]])
    vec = np.zeros(2)
    vec[freqs.index((1, 0, 1))] = theta
    vec[freqs.index((0, 1, 1))] = phi
    p = _grid_density(freqs, vec, model, x)
    if p.min() <= 0:
        raise DomainError("nonpositive density encountered: parameters are infeasible")
    p3 = np.einsum("ijk,i,j->k", p, w, w)
    p13 = np.einsum("ijk,j->ik", p, w)
    p23 = np.einsum("ijk,i->jk", p, w)
    ratio = p * p3[None, None, :] / np.clip(p13[:, None, :] * p23[None, :, :], _LOG_FLOOR, None)
    integrand = p * np.log(np.clip(ratio, _LOG_FLOOR, None))
    return float(np.einsum("ijk,i,j,k->", integrand, w, w, w))


def marginal_density(
    freqs: FrequencySet,
    theta,
    axes,
    x_sub,
    model: str = "sgm",
    nodes: int = DEFAULT_NODES,
):
    """Marginal density over the listed axes, integrating out the complement.

    ``x_sub`` holds [0, 1] coordinates for the distinct ``axes`` only, as one
    point or an (N, len(axes)) batch; its rows run along dimension 0 of a mesh
    crossed with the complement axes, whose dimension is capped at 3.
    """
    x, w = gauss_legendre(nodes)
    axes = [int(a) for a in np.atleast_1d(axes)]
    if len(set(axes)) != len(axes) or not all(0 <= a < freqs.dim for a in axes):
        raise DomainError(f"axes must be distinct axis indices in [0, {freqs.dim})")
    comp = [j for j in range(freqs.dim) if j not in axes]
    if len(comp) > 3:
        raise ResourceLimitError("complement dimension exceeds 3")
    single = np.ndim(x_sub) == 1
    pts = _points(x_sub, len(axes))
    dens = _density_fn(freqs, theta, model)
    weights = _tensor_weights(w, len(comp))
    out = np.empty(len(pts))
    for rows, *grid in _mesh_blocks([np.arange(len(pts))] + [x] * len(comp), _CHUNK):
        cols = dict(zip(comp, grid)) | {a: pts[rows, d] for d, a in enumerate(axes)}
        vals = dens(tuple(cols[a] for a in range(freqs.dim)))
        out[rows.ravel()] = vals.reshape(rows.size, -1) @ weights
    return float(out[0]) if single else out


def fisher_numeric(freqs: FrequencySet, theta, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Fisher information matrix by quadrature of p * score_u * score_v.

    Valid for interior-feasible theta; limited to m <= 3.  Per mesh block, J
    gains Y'Y, Y = S sqrt(w), with the scores S and the densities in the weights
    w >= 0 from ``model._gram_scores``: one symmetric rank-k update (SYRK), so
    J is exactly symmetric.
    """
    if freqs.dim > 3:
        raise ResourceLimitError("numeric Fisher information limited to m <= 3")
    theta = freqs.check_theta(theta)
    x, w = gauss_legendre(nodes)
    weights = _tensor_weights(w, freqs.dim)
    J = np.zeros((freqs.size, freqs.size))
    lo = 0
    for mesh in _mesh_blocks([x] * freqs.dim, _CHUNK):
        p, scores = _gram_scores(freqs, theta, mesh)
        scores *= np.sqrt(weights[lo : lo + len(p)] * p)[:, None]
        lo += len(p)
        J += scores.T @ scores
    return J


def density_grid(
    freqs: FrequencySet,
    theta,
    axes: tuple[int, int],
    resolution: int,
    conditioning: dict[int, float] | None = None,
    model: str = "sgm",
    nodes: int = DEFAULT_NODES,
) -> np.ndarray:
    """Marginal or conditional density of an axis pair on a regular grid: the
    (resolution, resolution) values on ``np.linspace(0, 1, resolution)`` in
    each axis, rows along ``axes[0]``.

    Without conditioning, the complement axes are integrated out.  With
    conditioning, every complement axis must be fixed: the joint density is
    evaluated on a sparse ij mesh whose fixed axes have one point each, and
    divided by the marginal density of the conditioning coordinates.
    """
    if resolution < 2:
        raise DomainError("resolution must be >= 2")
    i, j = int(axes[0]), int(axes[1])
    if i == j or not (0 <= i < freqs.dim and 0 <= j < freqs.dim):
        raise DomainError("axes must be two distinct axis indices")
    grid = np.linspace(0.0, 1.0, resolution)
    comp = [a for a in range(freqs.dim) if a not in (i, j)]
    if conditioning:
        cond = {int(a): float(v) for a, v in conditioning.items()}
        if sorted(cond) != comp:
            raise DomainError("conditioning must fix exactly the complement axes")
        cond_point = np.array([cond[a] for a in comp])  # checked here before any density
        norm = marginal_density(freqs, theta, comp, cond_point, model=model, nodes=nodes)
        mesh = {i: grid[:, None], j: grid[None, :]} | {a: np.full((1, 1), v) for a, v in cond.items()}
        values = _density_fn(freqs, theta, model)(tuple(mesh[a] for a in range(freqs.dim))) / norm
    else:
        pairs = np.stack([np.repeat(grid, resolution), np.tile(grid, resolution)], axis=-1)
        values = marginal_density(freqs, theta, [i, j], pairs, model=model, nodes=nodes)
    return values.reshape(resolution, resolution)


def table1(nodes: int = DEFAULT_NODES) -> dict:
    """The worked-example summary: extremal correlation, beta122, beta123,
    and the conditional-mutual-information leading coefficients."""
    eps = 0.05
    models = ("sgm", "mixm")
    extremal = lambda f, u, sign: {m: f(sign * _region_bound(u, m), m, nodes) for m in models}
    return {
        "correlation": extremal(correlation, (1, 1), 1.0),
        "beta122": extremal(beta122, (1, 2), -1.0),
        "beta123": extremal(beta123, (1, 1, 1), -1.0),
        "cmi_coefficient": {m: cond_mutual_info(eps, eps, m, nodes) / eps**4 for m in models},
    }
