"""Tensor-product quadrature and moment functionals.

Gauss-Legendre rules on [0,1], correlations and third-order interaction
coefficients for the small worked models, conditional mutual information,
marginal densities, numeric Fisher information, and grid tabulation for
external plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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


@dataclass(frozen=True)
class QuadratureRule:
    """Per-axis nodes and positive weights on [0, 1]; weights sum to one."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise DomainError("nodes and weights must be 1-d arrays of equal length")
        if (weights <= 0).any():
            raise DomainError("weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def gauss_legendre(cls, n: int = DEFAULT_NODES) -> "QuadratureRule":
        """n-point Gauss-Legendre rule mapped to [0, 1]; exact to degree 2n-1."""
        if n < 1:
            raise DomainError("node count must be >= 1")
        x, w = np.polynomial.legendre.leggauss(n)
        return cls(nodes=(x + 1.0) / 2.0, weights=w / 2.0)

    def __len__(self) -> int:
        return len(self.nodes)


def _rule(rule: QuadratureRule | None) -> QuadratureRule:
    return rule if rule is not None else QuadratureRule.gauss_legendre()


def tensor_grid(rule: QuadratureRule, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product points (N, dim) and weights (N,) for the given rule."""
    if dim > _MAX_TENSOR_DIM:
        raise ResourceLimitError(f"tensor quadrature limited to dimension {_MAX_TENSOR_DIM}")
    return _tensor_points([rule.nodes] * dim), _tensor_weights(rule, dim)


def _tensor_weights(rule: QuadratureRule, dim: int) -> np.ndarray:
    """Tensor-product weights in the order of ``tensor_grid``; [1.0] for dim 0."""
    return np.ravel(reduce(np.multiply.outer, [rule.weights] * dim, 1.0))


def integrate(f, dim: int, rule: QuadratureRule | None = None) -> float:
    """Tensor-product quadrature of a vectorized function on [0, 1]^dim.

    ``f`` receives an (N, dim) array of points and returns N values.
    """
    rule = _rule(rule)
    points, weights = tensor_grid(rule, dim)
    return float(weights @ np.asarray(f(points), dtype=float))


def _density_fn(freqs: FrequencySet, theta, which: str):
    if which == "sgm":
        return lambda X: density_batch(freqs, theta, X)
    if which == "mixm":
        return lambda X: mixm_density_batch(freqs, theta, X)
    raise DomainError(f"unknown model {which!r}")


def _grid_density(freqs, theta, model, rule):
    """Density values on the tensor grid, reshaped to (n, ..., n)."""
    dens = _density_fn(freqs, theta, model)
    blocks = _mesh_blocks([rule.nodes] * freqs.dim, _CHUNK)
    return np.concatenate([dens(mesh) for mesh in blocks]).reshape((len(rule),) * freqs.dim)


def correlation(theta: float, model: str = "sgm", rule: QuadratureRule | None = None) -> float:
    """Correlation of the two-dimensional single-frequency u=(1,1) model."""
    bound = 1.0 if model == "sgm" else 0.5
    if abs(theta) > bound + 1e-12:
        raise DomainError(f"|theta| must be <= {bound} for model {model!r}")
    rule = _rule(rule)
    freqs = FrequencySet.from_vectors([[1, 1]])
    p = _grid_density(freqs, [theta], model, rule)
    w, x = rule.weights, rule.nodes
    mass_x = (w[:, None] * w[None, :] * p).sum(axis=1)
    mass_y = (w[:, None] * w[None, :] * p).sum(axis=0)
    ex = x @ mass_x
    ey = x @ mass_y
    exy = x @ ((w[:, None] * w[None, :] * p) @ x)
    vx = (x**2) @ mass_x - ex**2
    vy = (x**2) @ mass_y - ey**2
    return float((exy - ex * ey) / np.sqrt(vx * vy))


def beta122(theta: float, model: str = "sgm", rule: QuadratureRule | None = None) -> float:
    """Heteroscedasticity coefficient of the u=(1,2) model.

    E[(X1 - 1/2)(X2 - 1/2)^2] / (V[X1]^{1/2} V[X2]).
    """
    bound = 0.25 if model == "sgm" else 0.2
    if abs(theta) > bound + 1e-12:
        raise DomainError(f"|theta| must be <= {bound} for model {model!r}")
    rule = _rule(rule)
    freqs = FrequencySet.from_vectors([[1, 2]])
    p = _grid_density(freqs, [theta], model, rule)
    w, x = rule.weights, rule.nodes
    W = w[:, None] * w[None, :] * p
    d = x - 0.5
    num = d @ (W @ d**2)
    v1 = d**2 @ W.sum(axis=1)
    v2 = W.sum(axis=0) @ d**2
    return float(num / (np.sqrt(v1) * v2))


def beta123(theta: float, model: str = "sgm", rule: QuadratureRule | None = None) -> float:
    """Standardized three-way interaction coefficient of the u=(1,1,1) model."""
    bound = 1.0 if model == "sgm" else 1.0 / 3.0
    if abs(theta) > bound + 1e-12:
        raise DomainError(f"|theta| must be <= {bound} for model {model!r}")
    rule = _rule(rule)
    freqs = FrequencySet.from_vectors([[1, 1, 1]])
    p = _grid_density(freqs, [theta], model, rule)
    w, x = rule.weights, rule.nodes
    marg = [
        np.einsum("ijk,j,k->i", p, w, w) * w,
        np.einsum("ijk,i,k->j", p, w, w) * w,
        np.einsum("ijk,i,j->k", p, w, w) * w,
    ]
    means = [x @ m for m in marg]
    variances = [(x - mu) ** 2 @ m for mu, m in zip(means, marg)]
    d = [w * (x - mu) for mu in means]
    num = np.einsum("ijk,i,j,k->", p, d[0], d[1], d[2])
    return float(num / np.sqrt(np.prod(variances)))


def cond_mutual_info(
    theta: float, phi: float, model: str = "sgm", rule: QuadratureRule | None = None
) -> float:
    """Conditional mutual information I(X1; X2 | X3) of the {(1,0,1),(0,1,1)} model."""
    rule = _rule(rule)
    freqs = FrequencySet.from_vectors([[1, 0, 1], [0, 1, 1]])
    vec = np.zeros(2)
    vec[freqs.index((1, 0, 1))] = theta
    vec[freqs.index((0, 1, 1))] = phi
    p = _grid_density(freqs, vec, model, rule)
    if p.min() <= 0:
        raise DomainError("nonpositive density encountered: parameters are infeasible")
    w = rule.weights
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
    rule: QuadratureRule | None = None,
):
    """Marginal density over the listed axes, integrating out the complement.

    ``x_sub`` holds [0, 1] coordinates for the distinct ``axes`` only, as one
    point or an (N, len(axes)) batch; its rows run along dimension 0 of a mesh
    crossed with the complement axes, whose dimension is capped at 3.
    """
    rule = _rule(rule)
    axes = [int(a) for a in np.atleast_1d(axes)]
    if len(set(axes)) != len(axes) or not all(0 <= a < freqs.dim for a in axes):
        raise DomainError(f"axes must be distinct axis indices in [0, {freqs.dim})")
    comp = [j for j in range(freqs.dim) if j not in axes]
    if len(comp) > 3:
        raise ResourceLimitError("complement dimension exceeds 3")
    single = np.ndim(x_sub) == 1
    pts = _points(x_sub, len(axes))
    dens = _density_fn(freqs, theta, model)
    weights = _tensor_weights(rule, len(comp))
    out = np.empty(len(pts))
    for rows, *grid in _mesh_blocks([np.arange(len(pts))] + [rule.nodes] * len(comp), _CHUNK):
        cols = dict(zip(comp, grid)) | {a: pts[rows, d] for d, a in enumerate(axes)}
        vals = dens(tuple(cols[a] for a in range(freqs.dim)))
        out[rows.ravel()] = vals.reshape(rows.size, -1) @ weights
    return float(out[0]) if single else out


def fisher_numeric(
    freqs: FrequencySet, theta, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Fisher information matrix by quadrature of p * score_u * score_v.

    Valid for interior-feasible theta; limited to m <= 3.  Per mesh block, J
    gains (S w)' S, with S and the densities in w from ``model._gram_scores``.
    """
    if freqs.dim > 3:
        raise ResourceLimitError("numeric Fisher information limited to m <= 3")
    theta = freqs.check_theta(theta)
    rule = _rule(rule)
    weights = _tensor_weights(rule, freqs.dim)
    J = np.zeros((freqs.size, freqs.size))
    lo = 0
    for mesh in _mesh_blocks([rule.nodes] * freqs.dim, _CHUNK):
        p, scores = _gram_scores(freqs, theta, mesh)
        w = weights[lo : lo + len(p)] * p
        lo += len(p)
        J += (scores * w[:, None]).T @ scores
    return J


@dataclass(frozen=True)
class DensityGrid:
    """Tabulated two-dimensional density values for external plotting."""

    axes: tuple[int, int]
    xi: np.ndarray
    xj: np.ndarray
    values: np.ndarray  # (len(xi), len(xj)), row-major over xi

    def to_tsv(self) -> str:
        header = f"x_{self.axes[0] + 1}\tx_{self.axes[1] + 1}\tdensity\n"
        xi, xj = np.meshgrid(self.xi, self.xj, indexing="ij")
        triples = np.stack([xi, xj, self.values], axis=-1).ravel().tolist()
        return header + ("%.17g\t%.17g\t%.17g\n" * (len(triples) // 3)) % tuple(triples)


def density_grid(
    freqs: FrequencySet,
    theta,
    axes: tuple[int, int],
    resolution: int,
    conditioning: dict[int, float] | None = None,
    model: str = "sgm",
    rule: QuadratureRule | None = None,
) -> DensityGrid:
    """Marginal or conditional density of an axis pair on a regular grid.

    Without conditioning, the complement axes are integrated out.  With
    conditioning, every complement axis must be fixed and the joint value is
    divided by the marginal density of the conditioning coordinates.
    """
    if resolution < 2:
        raise DomainError("resolution must be >= 2")
    i, j = int(axes[0]), int(axes[1])
    if i == j or not (0 <= i < freqs.dim and 0 <= j < freqs.dim):
        raise DomainError("axes must be two distinct axis indices")
    grid = np.linspace(0.0, 1.0, resolution)
    pairs = np.stack(
        [np.repeat(grid, resolution), np.tile(grid, resolution)], axis=-1
    )
    comp = [a for a in range(freqs.dim) if a not in (i, j)]
    if conditioning:
        cond = {int(a): float(v) for a, v in conditioning.items()}
        if sorted(cond) != comp:
            raise DomainError("conditioning must fix exactly the complement axes")
        pts = np.empty((len(pairs), freqs.dim))
        pts[:, i] = pairs[:, 0]
        pts[:, j] = pairs[:, 1]
        for a, v in cond.items():
            pts[:, a] = v
        joint = _density_fn(freqs, theta, model)(pts)
        cond_point = np.array([cond[a] for a in comp])
        norm = marginal_density(freqs, theta, comp, cond_point, model=model, rule=rule)
        values = joint / norm
    else:
        values = marginal_density(freqs, theta, [i, j], pairs, model=model, rule=rule)
    return DensityGrid(
        axes=(i, j), xi=grid, xj=grid, values=values.reshape(resolution, resolution)
    )


def table1(nodes: int = DEFAULT_NODES) -> dict:
    """The worked-example summary: extremal correlation, beta122, beta123,
    and the conditional-mutual-information leading coefficients."""
    rule = QuadratureRule.gauss_legendre(nodes)
    eps = 0.05
    return {
        "correlation": {
            "sgm": correlation(1.0, "sgm", rule),
            "mixm": correlation(0.5, "mixm", rule),
        },
        "beta122": {
            "sgm": beta122(-0.25, "sgm", rule),
            "mixm": beta122(-0.2, "mixm", rule),
        },
        "beta123": {
            "sgm": beta123(-1.0, "sgm", rule),
            "mixm": beta123(-1.0 / 3.0, "mixm", rule),
        },
        "cmi_coefficient": {
            "sgm": cond_mutual_info(eps, eps, "sgm", rule) / eps**4,
            "mixm": cond_mutual_info(eps, eps, "mixm", rule) / eps**4,
        },
    }
