"""Core gradient-model mathematics on the unit hypercube.

The density is p(x) = det(D2 psi(x)) where the potential

    psi(x | theta) = x.x / 2 - sum_u theta_u / pi^2 * prod_j cos(pi u_j x_j)

is indexed by a finite set of nonnegative integer frequency vectors u.
This module provides the frequency-set construction, the Hessian field,
density, score, the mixture baseline, and Fisher information (both the
diagonal at the origin and the two known closed forms).  No estimator calls
``potential_batch`` or ``gradient_map_batch``; they stay as the paper's psi
and its transport map D psi, the oracles the tests hold the Hessian to.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError, IndefiniteHessianError, SingularHessianError

# Pivot tolerances: "semidefinite" vs "indefinite", and _psd_det's relative screen.
EPS_PD = 1e-10
_PIVOT_SCREEN = 1e-6

# Below this |theta| the closed-form Fisher expressions switch to their
# analytic limits (removable 0/0 singularity).
_FISHER_LIMIT_THETA = 1e-6

# Points per block of ``_mesh_blocks``, at most; fisher_numeric's sums depend on it.
_MESH_BLOCK = 16384


@dataclass(frozen=True)
class FrequencySet:
    """An ordered set of distinct nonzero frequency vectors in Z>=0^m.

    Vectors are kept in lexicographic order with the last coordinate most
    significant, so parameter indices are reproducible across runs.
    """

    dim: int
    freqs: np.ndarray  # (size, dim) int array

    def __post_init__(self):
        arr = np.asarray(self.freqs, dtype=int)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise DomainError(f"frequency array must be (k, {self.dim})")
        if self.dim < 1:
            raise DomainError("dimension must be >= 1")
        if arr.shape[0] == 0:
            raise DomainError("frequency set must be nonempty")
        if (arr < 0).any():
            raise DomainError("frequencies must be nonnegative")
        if (arr.sum(axis=1) == 0).any():
            raise DomainError("the all-zero frequency is not identifiable")
        arr = arr[np.lexsort(arr.T)]
        if (np.diff(arr, axis=0) == 0).all(axis=1).any():  # sorted: duplicates are adjacent
            raise DomainError("frequency vectors must be distinct")
        arr.setflags(write=False)
        object.__setattr__(self, "freqs", arr)

    @classmethod
    def from_vectors(cls, vectors) -> "FrequencySet":
        arr = np.atleast_2d(np.asarray(vectors, dtype=int))
        return cls(dim=arr.shape[1], freqs=arr)

    @property
    def size(self) -> int:
        return self.freqs.shape[0]

    def __len__(self) -> int:
        return self.size

    @property
    def u_max(self) -> int:
        """Largest single component over all vectors."""
        return int(self.freqs.max())

    @property
    def sqnorms(self) -> np.ndarray:
        """Squared Euclidean norm ||u||^2 per vector."""
        return (self.freqs.astype(float) ** 2).sum(axis=1)

    @property
    def supports(self) -> np.ndarray:
        """Support size |{j : u_j > 0}| per vector."""
        return (self.freqs > 0).sum(axis=1)

    def index(self, u) -> int:
        u = np.asarray(u, dtype=int)
        hits = np.nonzero((self.freqs == u).all(axis=1))[0]
        if len(hits) == 0:
            raise KeyError(f"{tuple(u.tolist())} not in frequency set")
        return int(hits[0])

    def check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape != (self.size,):
            raise DomainError(f"theta must have length {self.size}, got {theta.shape}")
        if not np.isfinite(theta).all():
            raise DomainError("theta entries must be finite")
        return theta


def standard_freq_set(m: int) -> FrequencySet:
    """All nonzero u with max-norm <= 2 and 1-norm <= 3, canonically ordered.

    The cardinality is m(m+1)(m+5)/6.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    vecs = []
    for j in range(m):
        for v in (1, 2):
            u = [0] * m
            u[j] = v
            vecs.append(u)
    for i, j in itertools.combinations(range(m), 2):
        for vi, vj in ((1, 1), (1, 2), (2, 1)):
            u = [0] * m
            u[i], u[j] = vi, vj
            vecs.append(u)
    for i, j, k in itertools.combinations(range(m), 3):
        u = [0] * m
        u[i] = u[j] = u[k] = 1
        vecs.append(u)
    return FrequencySet.from_vectors(vecs)


# ---------------------------------------------------------------------------
# Vectorized trigonometric evaluation
# ---------------------------------------------------------------------------

def _points(x, dim) -> np.ndarray:
    """Normalize x to an (N, dim) array of points in [0, 1]^dim."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape != (dim,):
            raise DomainError(f"point must have {dim} coordinates")
        x = x[None, :]
    elif x.ndim != 2 or x.shape[1] != dim:
        raise DomainError(f"points must be (N, {dim})")
    if not ((x >= -1e-12) & (x <= 1 + 1e-12)).all():  # NaN fails too
        raise DomainError("coordinates must lie in [0, 1]")
    return x


def _columns(X) -> tuple[list[np.ndarray], int]:
    """The m coordinate columns of X and its point count N.  X is an (N, m)
    point array or a sparse ij mesh: a tuple of m arrays that broadcast together,
    as np.meshgrid(*axes, indexing="ij", sparse=True) returns them.  Kernels
    return one row per point of the mesh's expansion, in C order."""
    if isinstance(X, tuple):
        cols = [np.asarray(c, dtype=float) for c in X]
        return cols, math.prod(np.broadcast_shapes(*(c.shape for c in cols)))
    X = np.asarray(X, dtype=float)
    return list(X.T), len(X)


def _tensor_points(axes) -> np.ndarray:
    """The tensor grid of per-axis coordinates as (N, m) points, first axis slowest."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _mesh_blocks(axes):
    """Sparse ij meshes of the tensor grid of ``axes``, in blocks of whole
    leading-axis slices of at most _MESH_BLOCK points (one slice if it is larger)."""
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    step = max(1, _MESH_BLOCK // math.prod(len(a) for a in axes[1:]))
    for lo in range(0, len(axes[0]), step):
        yield (mesh[0][lo : lo + step], *mesh[1:])


def _axis_columns(freqs: FrequencySet, cols, *fns) -> list[list[np.ndarray]]:
    """Per fn, fn(pi u_j x_j) as m per-axis (..., k) columns, gathered from
    fn((pi x_j) v) over the distinct components v of each axis and the
    coordinates of column j (once per grid coordinate on a mesh): the per-
    frequency angles, so the same values; each gather is a new C-ordered column."""
    uniq = [np.unique(u, return_inverse=True) for u in freqs.freqs.T]
    return [[fn((np.pi * x)[..., None] * v)[..., i] for x, (v, i) in zip(cols, uniq)]
            for fn in fns]


def _cos_product(freqs: FrequencySet, X) -> np.ndarray:
    """The cosine series terms prod_j cos(pi u_j x_j) at the points or mesh X, (N, k)."""
    return reduce(np.multiply, _axis_columns(freqs, _columns(X)[0], np.cos)[0]).reshape(-1, freqs.size)


def gram_batch(freqs: FrequencySet, theta, X) -> np.ndarray:
    """Model Hessians D2 psi(x | theta) at the points or mesh X, shape (N, m, m),
    sum-factorized over the last axis (Orszag, J. Comput. Phys. 37, 1980):
    G_jl = (j == l) + sum_d Q_d t_d, t_d = cos or sin(pi v_d x_m) over the last
    axis' distinct components v_d, Q_d = sum over the u with u_m = v_d of theta_u
    c_u (u_j^2, or -u_j u_l off the diagonal) times the leading axes' factors,
    on the leading grid of a mesh.  Leading factors cos(0) and zero terms are
    skipped, and the sums run elementwise in frequency order with no BLAS
    product, whose rounding of a row depends on the row's place in the call; so
    a mesh and its expanded points give the same bits.  Exactly symmetric; a
    view of an (m, m, N) stack, so that each entry is one contiguous write.  The
    trigonometric formulas extend naturally outside [0, 1]^m; the domain is not
    checked here.
    """
    theta = freqs.check_theta(theta)
    cols = _columns(X)[0]
    m, U = freqs.dim, freqs.freqs
    uniq = [np.unique(u, return_inverse=True) for u in U.T]  # components v, each u's row in v
    angles = (np.multiply.outer(v, np.pi * x) for (v, _), x in zip(uniq, cols))
    *leading, (row, last) = [(i, (np.cos(a), np.sin(a))) for (_, i), a in zip(uniq, angles)]
    G = np.zeros((m, m) + np.broadcast_shapes(*(np.shape(x) for x in cols)))  # stack-last
    for j, l in itertools.combinations_with_replacement(range(m), 2):
        w = theta * (U[:, j] * U[:, l] if j == l else -U[:, j] * U[:, l])
        Q = {}  # Q_d on the leading axes, by the row d of the last component
        for r in np.flatnonzero(w):
            lead = [t[j < l and i in (j, l)][ix[r]] for i, (ix, t) in enumerate(leading) if U[r, i]]
            Q[row[r]] = Q.get(row[r], 0.0) + reduce(np.multiply, lead, w[r])
        sums = (q * last[j < l == m - 1][d] for d, q in sorted(Q.items()))
        G[j, l] = G[l, j] = reduce(np.add, sums, float(j == l))
    return np.moveaxis(G.reshape(m, m, -1), -1, 0)


def hessian_basis_batch(freqs: FrequencySet, X) -> np.ndarray:
    """Per-frequency Hessian basis matrices H_u(x) in svec form, shape
    (N, m(m+1)/2, k): row r holds H_u(x)[j_r, l_r] over u, with
    (j, l) = np.triu_indices(m), the stack layout of maxdet.AffineMatrix.
    Off-diagonal rows whose coefficients -u_j u_l all vanish stay 0."""
    cols, n = _columns(X)
    (k, m), U = freqs.freqs.shape, freqs.freqs.astype(float)
    C, S = _axis_columns(freqs, cols, np.cos, np.sin)
    P = reduce(np.multiply, C).reshape(-1, k)
    H = np.zeros((n, m * (m + 1) // 2, k))
    for r, (j, l) in enumerate(zip(*np.triu_indices(m))):
        if j == l:
            H[:, r] = U[:, j] ** 2 * P
        elif (U[:, j] * U[:, l]).any():
            rest = [C[i] for i in range(m) if i not in (j, l)] or [1.0]
            H[:, r] = -U[:, j] * U[:, l] * (S[j] * S[l] * reduce(np.multiply, rest)).reshape(-1, k)
    return H


def _least_eigs(G: np.ndarray, cap: float = np.inf) -> np.ndarray:
    """Smallest eigenvalue of each block of a symmetric stack G (N, s, s): by
    eigvalsh where the Gershgorin bound min_r (G_rr - sum_{c != r} |G_rc|), taken
    over the stack-last |G| (s, s, N) (each row summed in order for s < 8), is
    below cap, else that bound, which is >= cap.  The package's one eigvalsh."""
    r = np.arange(G.shape[-1])
    A = np.abs(G.transpose(1, 2, 0), order="C")
    A[r, r] = 0.0
    out = (G.diagonal(axis1=1, axis2=2).T - A.sum(axis=1)).min(axis=0)
    need = out < cap
    if need.any():
        out[need] = np.linalg.eigvalsh(G[need])[:, 0]
    return out


def _psd_det(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det G for a stack of model Hessians under the semidefinite rule, and the
    stack-last Cholesky factors C (s, s, N) in their lower triangles.  The
    elimination runs elementwise, so each point is decided by its own pivots:
    if each exceeds _PIVOT_SCREEN times its diagonal entry, a margin far above
    any Cholesky's rounding, and the smallest normal number, below which
    rounding is no longer relative, the point keeps the LU determinant.  Other points
    go to ``_least_eigs``: an eigenvalue below -EPS_PD raises
    IndefiniteHessianError (theta is infeasible), and points whose smallest
    eigenvalue is <= 0 get 0.  C's diagonal is 0 or nan where a pivot is not
    positive."""
    p = np.linalg.det(G)
    C = np.moveaxis(G, 0, -1).copy()  # factor columns and Schur complements, (N,) each
    ok = np.ones(len(G), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(len(C)):
            ok &= C[k, k] > np.maximum(_PIVOT_SCREEN * G[:, k, k], np.finfo(float).tiny)  # False on nan
            C[k:, k] /= np.sqrt(C[k, k])
            C[k + 1 :, k + 1 :] -= C[k + 1 :, k, None] * C[None, k + 1 :, k]
    bad = np.flatnonzero(~ok)
    if len(bad):
        lam = _least_eigs(G[bad], np.finfo(float).smallest_subnormal)
        if lam.min() < -EPS_PD:
            i = int(lam.argmin())
            raise IndefiniteHessianError(
                f"Hessian indefinite at point {bad[i]}: min eigenvalue {lam[i]:.3e}"
            )
        p[bad[lam <= 0]] = 0.0
    return p, C


def density_batch(freqs: FrequencySet, theta, X) -> np.ndarray:
    """det(D2 psi) for a batch of points, under the rule of ``_psd_det``."""
    return _psd_det(gram_batch(freqs, theta, X))[0]


def mixm_density_batch(freqs: FrequencySet, theta, X) -> np.ndarray:
    """Mixture-model density 1 + sum_u theta_u ||u||^2 prod_j cos(pi u_j x_j), (N,)."""
    theta = freqs.check_theta(theta)
    return 1.0 + _cos_product(freqs, X) @ (theta * freqs.sqnorms)


def _density_fn(freqs: FrequencySet, theta, model: str):
    """X -> the density of kind ``model``, "sgm" or "mixm", at theta."""
    if model == "sgm":
        return lambda X: density_batch(freqs, theta, X)
    if model == "mixm":
        return lambda X: mixm_density_batch(freqs, theta, X)
    raise DomainError(f"unknown model {model!r}")


def _term_values(model: str, freqs: FrequencySet, X):
    """Per-point objective stacks in svec form, as maxdet.AffineMatrix takes them:
    (N, m(m+1)/2, k) Hessian bases with identity base for the gradient model,
    (N, 1, k) scalar cosine terms with base [[1]] for the mixture model."""
    if model == "sgm":
        return np.eye(freqs.dim), hessian_basis_batch(freqs, X)
    if model == "mixm":
        return np.eye(1), (_cos_product(freqs, X) * freqs.sqnorms)[:, None, :]
    raise DomainError(f"unknown model {model!r}")


def potential_batch(freqs: FrequencySet, theta, X) -> np.ndarray:
    """The potential psi(x | theta) at a batch of points, shape (N,)."""
    theta = freqs.check_theta(theta)
    X = np.asarray(X, dtype=float)
    return 0.5 * (X**2).sum(axis=1) - _cos_product(freqs, X) @ theta / np.pi**2


def gradient_map_batch(freqs: FrequencySet, theta, X) -> np.ndarray:
    """The transport map D psi at a batch of points, (N, m).  Fixes every face of the cube."""
    theta = freqs.check_theta(theta)
    X = np.asarray(X, dtype=float)
    U = freqs.freqs.astype(float)
    C, S = _axis_columns(freqs, _columns(X)[0], np.cos, np.sin)
    out = X.copy()
    for j in range(freqs.dim):
        rest = reduce(np.multiply, [C[i] for i in range(freqs.dim) if i != j], 1.0)
        out[:, j] += (S[j] * rest) @ (theta * U[:, j]) / np.pi
    return out


@lru_cache(maxsize=None)
def _svec_tables(s: int):
    """svec tables of s x s matrices: the svec position of each of the s*s
    entries, the gradient weights g (1 on the diagonal, 2 off it), the svec
    positions of X_jl, X_km, X_jm, X_kl over rows (j, k) and columns (l, m) of
    the symmetric Kronecker product, those of the diagonal, and the steps
    i = s-2 .. 0 of the inverse recurrence: i, the svec position of X_ii (row
    i of the upper triangle follows it) and those of the block X[i+1:, i+1:],
    and the flat positions of the upper and lower entries (j, k), (k, j) in svec order."""
    j, k = np.triu_indices(s)
    pos = np.empty((s, s), dtype=np.intp)
    pos[j, k] = pos[k, j] = np.arange(len(j))
    J, K = j[:, None], k[:, None]
    gather = np.stack([pos[J, j], pos[K, k], pos[J, k], pos[K, j]])
    steps = tuple((i, int(pos[i, i]), pos[i + 1:, i + 1:]) for i in range(s - 2, -1, -1))
    return pos.ravel(), np.where(j == k, 1.0, 2.0), gather, np.diagonal(pos), steps, (j * s + k, k * s + j)


def _inverse_svec(L):
    """svec(X_t) as an (s', T) array, X_t = G_t^{-1} from the Cholesky factors.

    The dpotri recurrence runs elementwise over the stack-last factors, for
    i = s-1 .. 0 with d_i = 1 / L_ii: X_ij = -d_i sum_{k>i} L_ki X_kj for
    j > i, then X_ii = d_i (d_i - sum_{k>i} L_ki X_ki), with -d_i folded into
    the factor columns.  Row i of the upper triangle is contiguous in svec, so
    each step writes one slice.
    """
    T, s, _ = L.shape
    _, _, _, diag, steps, _ = _svec_tables(s)
    d = 1.0 / np.diagonal(L, axis1=1, axis2=2).T
    nl = np.multiply(L.transpose(1, 2, 0), -d, order="C")  # -d_i L_ki at [k, i]
    X = np.empty((s * (s + 1) // 2, T))
    X[diag] = d * d
    for i, a, block in steps:
        l = nl[i + 1:, i]
        P = X.take(block, axis=0)
        P *= l[:, None]
        row = np.add.reduce(P, axis=0, out=X[a + 1:a + s - i])
        l *= row
        X[a] += np.add.reduce(l, axis=0)
    return X


def _gram_scores(freqs: FrequencySet, theta, X) -> tuple[np.ndarray, np.ndarray]:
    """Densities p (N,) and scores tr(G^{-1} H_u) (N, k): the diagonal terms
    sum_j (G^{-1})_jj u_j^2 times the cosine product, then per pair j < l with
    some u_j u_l != 0 the factor -2 u_j u_l S_j S_l prod_{i != j, l} C_i, formed on
    the mesh and scaled in place by (G^{-1})_jl.  ``_psd_det`` gives p, raising as
    the density does, and the Cholesky factors that ``_inverse_svec`` turns into
    svec(G^{-1}); SingularHessianError is raised if any point has a pivot that is
    not positive or density 0."""
    p, L = _psd_det(gram_batch(freqs, theta, X))
    if not ((np.diagonal(L) > 0).all() and p.all()):
        raise SingularHessianError("model Hessian is singular at a sample point")
    Ginv = _inverse_svec(np.moveaxis(L, -1, 0))
    (k, m), U = freqs.freqs.shape, freqs.freqs.astype(float)
    pos, _, _, diag, _, _ = _svec_tables(m)
    C, S = _axis_columns(freqs, _columns(X)[0], np.cos, np.sin)
    scores = Ginv[diag].T @ U.T**2
    scores *= reduce(np.multiply, C).reshape(-1, k)
    for j, l in itertools.combinations(range(m), 2):
        if (U[:, j] * U[:, l]).any():
            rest = [C[i] for i in range(m) if i not in (j, l)]
            F = reduce(np.multiply, rest, -2 * U[:, j] * U[:, l] * S[j] * S[l]).reshape(-1, k)
            F *= Ginv[pos[j * m + l], :, None]
            scores += F
    return p, scores


def score_batch(freqs: FrequencySet, theta, X) -> np.ndarray:
    """Scores d log p / d theta_u = tr(G^{-1} H_u) for a batch of points, shape (N, k)."""
    return _gram_scores(freqs, theta, X)[1]


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def fisher_origin(freqs: FrequencySet) -> np.ndarray:
    """Diagonal of the Fisher information at theta = 0: ||u||^4 / 2^{|supp u|}.

    The off-diagonal entries vanish, so the diagonal is returned as a vector.
    """
    return freqs.sqnorms**2 / 2.0 ** freqs.supports


def fisher_closed_1d(u: int, theta: float) -> float:
    """Closed-form Fisher information for the one-dimensional single-frequency model.

    Valid for |theta| u^2 < 1; returns the analytic limit u^4 / 2 near 0.
    """
    if not (isinstance(u, (int, np.integer)) and u >= 1):
        raise DomainError("u must be a positive integer")
    t = theta**2 * float(u) ** 4
    if t >= 1.0:
        raise DomainError(f"theta^2 u^4 = {t:g} >= 1 is outside the model domain")
    if abs(theta) < _FISHER_LIMIT_THETA:
        return float(u) ** 4 / 2.0
    r = np.sqrt(1.0 - t)
    return float((1.0 - r) / (theta**2 * r))


def fisher_closed_corr(theta: float) -> float:
    """Closed-form Fisher information for the two-dimensional u=(1,1) model.

    Valid for |theta| < 1; returns the analytic limit 1 near 0.
    """
    if abs(theta) >= 1.0:
        raise DomainError("|theta| must be < 1")
    if abs(theta) < _FISHER_LIMIT_THETA:
        return 1.0
    r = np.sqrt(1.0 - theta**2)
    return float(2.0 * (1.0 - r) / (theta**2 * r))
