"""Feasible-region geometry.

Membership tests for the L1-type conservative region and the lattice inner
approximation, grid scans of the minimum Hessian eigenvalue, the exact MA(2)
region for the two-frequency special case, and the Fejer-kernel
reconstruction identity used as a numerical oracle.  Eigenvalues come from
``model._least_eigs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ResourceLimitError
from .model import EPS_PD, FrequencySet, _least_eigs, _mesh_blocks, _tensor_points, gram_batch

# Hard cap on the number of lattice / reconstruction points evaluated at once.
LATTICE_POINT_CAP = 10**7

# Default scan resolutions per axis for min_eig_grid.
_GRID_RESOLUTION = {1: 201, 2: 201, 3: 41}
_MULTISTART_COUNT = 64
_CHUNK = 65536
_GERSHGORIN_SLACK = 1e-10  # pruning margin of _min_eig_over, relative to max |G|


@dataclass(frozen=True)
class LitRegion:
    """L1-type region: tau - sum_u |theta_u| u_j^2 >= 0 for every axis j."""

    tau: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.tau <= 1.0):
            raise DomainError("tau must lie in [0, 1]")


@dataclass(frozen=True)
class LatticeRegion:
    """Lattice inner approximation with rescaled coefficients, resolution M."""

    M: int

    def __post_init__(self):
        if self.M < 1:
            raise DomainError("M must be a positive integer")


Region = LitRegion | LatticeRegion


def lit_margin(freqs: FrequencySet, theta, tau: float = 1.0) -> float:
    """min_j (tau - sum_u |theta_u| u_j^2); nonnegative iff theta is in the region."""
    if not (0.0 <= tau <= 1.0):
        raise DomainError("tau must lie in [0, 1]")
    theta = freqs.check_theta(theta)
    loads = np.abs(theta) @ freqs.freqs.astype(float) ** 2
    return float((tau - loads).min())


def km_factors(freqs: FrequencySet, M: int) -> np.ndarray:
    """Per-frequency products prod_j (1 - u_j / M) of the lattice rescaling."""
    if M < freqs.u_max + 1:
        raise DomainError(f"M must be >= U_max + 1 = {freqs.u_max + 1}")
    return (1.0 - freqs.freqs / float(M)).prod(axis=1)


def scale_km(freqs: FrequencySet, theta, M: int) -> np.ndarray:
    """Componentwise rescaling theta_u / prod_j (1 - u_j / M); invertible."""
    theta = freqs.check_theta(theta)
    return theta / km_factors(freqs, M)


def _min_eig_over(freqs: FrequencySet, theta, axes) -> float:
    """Smallest Hessian eigenvalue over the tensor grid of per-axis coordinates,
    solving only the blocks whose Gershgorin bound lies below the least
    diagonal entry or the best value so far (each >= the min) by
    _GERSHGORIN_SLACK * max |G|, far above eigensolver error."""
    best = np.inf
    for mesh in _mesh_blocks(axes, _CHUNK):
        G = gram_batch(freqs, theta, mesh)
        cap = min(best, G.diagonal(axis1=1, axis2=2).min()) + _GERSHGORIN_SLACK * np.abs(G).max()
        best = min(best, float(_least_eigs(G, cap).min()))
    return best


class LatticeCheck(NamedTuple):
    feasible: bool
    margin: float


def _lattice_axes(dim: int, M: int) -> list[np.ndarray]:
    """The per-axis coordinates {0, 1/M, ..., 1} of the lattice, after the cap check."""
    if (M + 1) ** dim > LATTICE_POINT_CAP:
        raise ResourceLimitError(f"lattice has {(M + 1) ** dim} points, cap is {LATTICE_POINT_CAP}")
    return [np.arange(M + 1) / float(M)] * dim


def lattice_points(dim: int, M: int) -> np.ndarray:
    """The lattice {0, 1/M, ..., 1}^dim as ((M+1)^dim, dim), first axis slowest.

    Raises ResourceLimitError above LATTICE_POINT_CAP points, before allocating.
    """
    return _tensor_points(_lattice_axes(dim, M))


def lattice_feasible(freqs: FrequencySet, theta, M: int) -> LatticeCheck:
    """Membership in the lattice region: rescaled Hessian PD at every lattice point.

    Returns the minimum eigenvalue margin over the lattice {0, 1/M, ..., 1}^m;
    feasible means the margin is at least -EPS_PD, the semidefinite rule of
    the density.
    """
    scaled = scale_km(freqs, theta, M)
    margin = _min_eig_over(freqs, scaled, _lattice_axes(freqs.dim, M))
    return LatticeCheck(feasible=margin >= -EPS_PD, margin=margin)


def min_eig_grid(freqs: FrequencySet, theta, resolution: int | None = None) -> float:
    """Approximate min over [0,1]^m of the smallest Hessian eigenvalue.

    Dense grid scan for m <= 3; for m >= 4, coordinate descent from a fixed
    set of random starts (seed 0), so the result is reproducible.  The sign decides approximate membership of the feasible region.
    """
    theta = freqs.check_theta(theta)
    m = freqs.dim
    if resolution is None:
        resolution = _GRID_RESOLUTION.get(m, 33)
    if resolution < 2:
        raise DomainError("resolution must be >= 2")
    axis = np.linspace(0.0, 1.0, resolution)
    if m <= 3:
        return _min_eig_over(freqs, theta, [axis] * m)

    # every start descends on its own; the starts still improving move together,
    # each line as points, which give the bits of the line's mesh
    x = np.random.default_rng(0).random((_MULTISTART_COUNT, m))
    val = _least_eigs(gram_batch(freqs, theta, x))
    active = np.arange(len(x))
    for _ in range(8):  # coordinate-descent sweeps
        improved = np.zeros(len(x), dtype=bool)
        for j in range(m):
            pts = np.repeat(x[active], len(axis), axis=0)
            pts[:, j] = np.tile(axis, len(active))
            vals = _least_eigs(gram_batch(freqs, theta, pts)).reshape(len(active), -1)
            i = vals.argmin(axis=1)
            lower = vals[range(len(active)), i] < val[active] - 1e-14
            moved = active[lower]
            val[moved], x[moved, j], improved[moved] = vals[lower, i[lower]], axis[i[lower]], True
        active = active[improved[active]]
        if not len(active):
            break
    return float(val.min())


def ma2_feasible(theta11: float, theta22: float) -> bool:
    """Exact feasibility for the frequency set {(1,1), (2,2)}.

    Both Hessian eigenvalues have the form 1 + a cos(z) + b cos(2z) with
    a = theta11 and b = 4 theta22.  Writing c = cos(z), the minimum of the
    quadratic 2b c^2 + a c + (1 - b) over c in [-1, 1] is nonnegative iff
    a^2 <= 8b(1-b) when the vertex is interior (b > 0 and |a| <= 4b), and
    |a| <= 1 + b otherwise.
    """
    a, b = float(theta11), 4.0 * float(theta22)
    if b > 0.0 and abs(a) <= 4.0 * b:
        return bool(a**2 <= 8.0 * b * (1.0 - b))
    return bool(abs(a) <= 1.0 + b)


def fejer_kernel(M: int, z):
    """Nonnegative kernel (1 / 2M^2) (sin(pi M z / 2) / sin(pi z / 2))^2.

    The removable singularity at even integers evaluates to 1/2.
    """
    if M < 1:
        raise DomainError("M must be a positive integer")
    z = np.asarray(z, dtype=float)
    denom = np.sin(np.pi * z / 2.0)
    out = np.full(z.shape, 0.5)
    ok = np.abs(denom) > 1e-9
    num = np.sin(np.pi * M * z[ok] / 2.0)
    out[ok] = (num / denom[ok]) ** 2 / (2.0 * M**2)
    return out if out.ndim else float(out)


def fejer_reconstruct(freqs: FrequencySet, theta, M: int, x) -> np.ndarray:
    """Reconstruct D2 psi(x | theta) from rescaled Hessians on the signed lattice.

    Evaluates sum over xi in R_M^m of D2 psi(xi | K_M theta) prod_j Q_M(x_j - xi_j)
    with R_M = {-(M-1)/M, ..., (M-1)/M, 1}, using the periodic/even extension of
    the trigonometric formulas.  Serves as a numerical oracle for ``gram_batch``.
    """
    scaled = scale_km(freqs, theta, M)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (freqs.dim,):
        raise DomainError(f"point must have {freqs.dim} coordinates")
    npts = (2 * M) ** freqs.dim
    if npts > LATTICE_POINT_CAP:
        raise ResourceLimitError(f"reconstruction needs {npts} points, cap is {LATTICE_POINT_CAP}")
    axis = np.arange(-(M - 1), M + 1) / float(M)
    mesh = np.meshgrid(*[axis] * freqs.dim, indexing="ij", sparse=True)
    weights = reduce(np.multiply, [fejer_kernel(M, xj - g) for xj, g in zip(x, mesh)], 1.0)
    G = gram_batch(freqs, scaled, mesh)
    return np.einsum("n,nij->ij", weights.ravel(), G)
