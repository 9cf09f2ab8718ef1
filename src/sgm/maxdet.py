"""Determinant maximization by a primal-dual interior-point method.

Solves problems of the form

    maximize   f(theta) = sum_t log det F_t(z) + c' theta,  z = E theta
    subject to G_j(theta) positive definite for every j,
               A theta < b,

where F = objective and G = psd_constraint are svec stacks (AffineMatrix) and
E is a fixed objective map (the identity unless given; [I, -I] for a lasso
split theta = theta+ - theta-).  Cholesky factors give the log-dets and, by
``model._inverse_svec``, X_t = G_t^-1: the gradient is sum_t B_t' svec(X_t)
and the curvature -sum_t B_t' K(X_t, X_t) B_t, K the svec symmetric
Kronecker product.  The iterate carries the multipliers Z_j and lambda and the
slacks s, so b - A theta - s enters the system instead of a slack recomputed
by cancellation (Vandenberghe, Boyd & Wu, SIAM J. Matrix Anal. Appl. 19(2),
1998).  Each iteration factors one Newton system with dpotrf, HKM on the PSD
blocks (Todd, Toh & Tutuncu, SIAM J. Optim. 8(3), 1998),

    W = -hess f + sum_j B_j' K(X_j, Z_j) B_j + A' diag(lambda / s) A,

for a Mehrotra affine predictor and a second-order corrector centred at
sigma gap / nu, gap = sum_j <G_j, Z_j> + s' lambda, nu the barrier degree and
sigma = (gap_aff / gap)^3 (Mehrotra, SIAM J. Optim. 2(4), 1992).  The step is
0.98 of the largest that keeps G_j, Z_j, the objective stack, s and lambda
positive, at most 1, read off the factors by ``model._least_eigs``; there is
no line search.  scipy's LAPACK wrappers load on the first solve, so
importing this module loads numpy only.  Identical inputs give
bitwise-identical iterate sequences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, InfeasibleStartError, SolverError
from .model import _inverse_svec, _least_eigs, _svec_tables

logger = logging.getLogger("sgm.maxdet")

_NEWTON_TOL = 1e-9
_MAX_NEWTON = 50
_STEP = 0.98


def _symmetrize(A: np.ndarray, what: str) -> np.ndarray:
    if np.abs(A - np.swapaxes(A, -1, -2)).max() > 1e-10 * (1.0 + np.abs(A).max()):
        raise DomainError(f"{what} must be symmetric")
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def _smat(V, s):
    """The dense (T, s, s) matrices of svec columns V (s', T)."""
    return V.T[:, _svec_tables(s)[0]].reshape(V.shape[1], s, s)


def _svec(M):
    """The svec columns (s', T) of the symmetric parts of M (T, s, s)."""
    up, lo = _svec_tables(M.shape[-1])[5]
    F = M.reshape(len(M), -1)
    return (F[:, up] + F[:, lo]).T / 2


class AffineMatrix:
    """Stack of T affine symmetric-matrix maps theta -> base_t + sum_k theta_k A_tk.

    The coefficients come in svec form: B is (T, s', p), or (s', p) for one
    map, with row i of B_t holding entry (j_i, l_i) of A_t1 .. A_tp, where
    (j, l) = ``np.triu_indices(s)`` and s' = s(s+1)/2.  The base is a dense
    symmetric (s, s) or (T, s, s) array.  Kept are ``base`` in svec form
    (T, s') and the contiguous (T, s', p) stack ``B`` (the caller's array
    itself, not a copy, when it is already a contiguous float stack).
    """

    def __init__(self, base, B):
        base = _symmetrize(np.asarray(base, dtype=float), "base matrix")
        B = np.asarray(B, dtype=float)
        B = B[None] if B.ndim == 2 else B
        T, s = len(B), base.shape[-1]
        j, k = np.triu_indices(s)
        if B.ndim != 3 or B.shape[1] != len(j) or base.shape not in ((s, s), (T, s, s)):
            raise DomainError("coefficient stack must be (s', p) or (T, s', p) matching base")
        self.size = s
        self.base = np.broadcast_to(base[..., j, k], (T, len(j)))
        self.B = np.ascontiguousarray(B)

    @property
    def count(self) -> int:
        return self.B.shape[0]

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """The (T, s, s) stack of matrices at theta."""
        return _smat(_values(self, theta), self.size)


def _values(stack, theta, base=True):
    """svec columns (s', T) of the stack at theta, or of its linear part alone."""
    T, sv, p = stack.B.shape
    v = (stack.B.reshape(T * sv, p) @ theta).reshape(T, sv)
    return (stack.base + v).T if base else v.T


class MaxDetProblem:
    """The problem of the module docstring.

    ``objective`` and ``psd_constraint`` are AffineMatrix stacks, either one
    None.  The objective stack sees z = objective_map @ theta, a fixed
    (k, nvars) matrix (identity if None); the PSD stack, the linear rows
    A theta < b, with A (L, nvars) and b (L,), and the linear cost act on
    theta.
    """

    def __init__(self, nvars: int, objective: AffineMatrix | None = None,
                 psd_constraint: AffineMatrix | None = None, A=None, b=None,
                 linear_cost=None, objective_map=None):
        E = np.asarray(np.eye(nvars) if objective_map is None else objective_map, dtype=float)
        if E.ndim != 2 or E.shape[1] != nvars:
            raise DomainError("objective map must be a (k, nvars) matrix")
        slices = [(objective, E.shape[0]), (psd_constraint, nvars)]
        if any(t is not None and t.B.shape[2] != p for t, p in slices):
            raise DomainError("coefficient stack does not match the objective map or nvars")
        A = np.zeros((0, nvars)) if A is None else np.asarray(A, dtype=float)
        b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
        if A.ndim != 2 or A.shape[1] != nvars or b.shape != (len(A),):
            raise DomainError("linear constraints must be A (L, nvars) and b (L,)")
        if linear_cost is not None:
            linear_cost = np.asarray(linear_cost, dtype=float).reshape(-1)
            if linear_cost.shape != (nvars,):
                raise DomainError("linear cost has wrong length")
        self.nvars = nvars
        self.objective = objective
        self.psd_constraint = psd_constraint
        self.A, self.b = A, b
        self.linear_cost = linear_cost
        self.objective_map = E
        # bound rows (one nonzero) have diagonal curvature A' diag(d) A
        bound = np.count_nonzero(A, axis=1) == 1
        rows = np.flatnonzero(bound)
        cols = np.argmax(A[rows] != 0, axis=1)
        self._bound_rows = (rows, cols, A[rows, cols])
        self._general_rows = (np.flatnonzero(~bound), A[~bound])

    @property
    def barrier_degree(self) -> int:
        """Total barrier complexity: sum of PSD block sizes plus linear count."""
        con = self.psd_constraint
        return (0 if con is None else con.size * con.count) + len(self.b)


@dataclass(frozen=True)
class SolveReport:
    """What ``solve`` returns: ``kkt_residual`` is the certificate of ``theta``
    with its multipliers, at most _NEWTON_TOL * (1 + |grad f(0)|) at a certified
    iterate when ``converged`` (see ``solve``); ``newton_iterations`` and
    ``outer_iterations`` both count primal-dual iterations, one Newton system
    each; ``mu_final`` is gap / nu at ``theta`` (0 without constraints), and
    ``path`` holds one (gap / nu, objective) pair per iteration."""

    theta: np.ndarray
    objective: float
    kkt_residual: float
    newton_iterations: int
    outer_iterations: int
    converged: bool
    mu_final: float
    path: tuple[tuple[float, float], ...] = field(default=())
    message: str = ""


def _adjoint(stack, V):
    """sum_t B_t' (g o V_t) = sum_t (tr(V_t A_tk))_k for svec columns V (s', T)."""
    T, sv, p = stack.B.shape
    gV = np.multiply(V.T, _svec_tables(stack.size)[1], order="C")
    return gV.reshape(-1) @ stack.B.reshape(T * sv, p)


def _kron_curvature(stack, X, Z=None):
    """sum_t B_t' K(X_t, Z_t) B_t, (p, p), for svec columns X, Z (s', T), with
    K(X, Z)[(j,k),(l,m)] = f_jk f_lm (X_jl Z_km + Z_jl X_km + X_jm Z_kl + Z_jm X_kl)
    and f = g / 2 gathered from the svec rows, so that B_k' K(X, Z) B_l =
    tr(A_k X A_l Z); Z = None means Z = X, the log-det curvature."""
    T, sv, p = stack.B.shape
    _, g, gather, _, _, _ = _svec_tables(stack.size)
    P = X[gather]  # (4, s', s', T)
    if Z is None:
        K, scale = P[0] * P[1] + P[2] * P[3], 0.5
    else:
        Q = Z[gather]
        K, scale = P[0] * Q[1] + Q[0] * P[1] + P[2] * Q[3] + Q[2] * P[3], 0.25
    K *= scale * np.outer(g, g)[:, :, None]
    return stack.B.reshape(T * sv, p).T @ (K.transpose(2, 0, 1) @ stack.B).reshape(T * sv, p)


def _logdet_sum(stack, theta, order):
    """Sum of the stack's log-dets with derivatives up to ``order``:
    (value, grad, hess, L), L the (T, s, s) Cholesky factors, the gradient
    sum_t B_t' (g o svec X_t) with X_t = G_t^{-1} and the curvature
    -sum_t B_t' K(X_t, X_t) B_t; derivatives not asked for are None, and a
    None stack contributes zeros.  None if any map is not positive definite.
    """
    p = len(theta)
    if stack is None:
        return 0.0, np.zeros(p) if order >= 1 else None, np.zeros((p, p)) if order >= 2 else None, None
    try:
        L = np.linalg.cholesky(stack(theta))
    except np.linalg.LinAlgError:
        return None
    value = float((2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)).sum())
    X = _inverse_svec(L) if order >= 1 else None
    grad = _adjoint(stack, X) if order >= 1 else None
    hess = -_kron_curvature(stack, X) if order >= 2 else None
    return value, grad, hess, L


def _objective(problem: MaxDetProblem, theta, order: int):
    """_logdet_sum of the objective through z = E theta plus its linear cost."""
    E = problem.objective_map
    parts = _logdet_sum(problem.objective, E @ theta, order)
    if parts is None:
        return None
    value, grad, hess, L = parts
    grad = E.T @ grad if order >= 1 else None
    hess = E.T @ hess @ E if order >= 2 else None
    if problem.linear_cost is not None:
        value = value + float(problem.linear_cost @ theta)
        grad = grad + problem.linear_cost if order >= 1 else None
    return value, grad, hess, L


def objective_eval(problem: MaxDetProblem, theta, need_hess: bool = True):
    """Value, gradient, and curvature matrix of the barrier-free objective.

    The curvature matrix is negative semidefinite (the objective is concave).
    Raises DomainError if any objective term fails to factorize at theta.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    parts = _objective(problem, theta, 2 if need_hess else 1)
    if parts is None:
        raise DomainError("objective term is not positive definite at theta")
    return parts[:3]


def _linear_curvature(problem, d):
    """A' diag(d) A: bound rows add to the diagonal, the other rows form one Y'Y."""
    rows, Y = problem._general_rows
    Y = Y * np.sqrt(d[rows])[:, None]
    out = Y.T @ Y
    rows, cols, a = problem._bound_rows
    out.flat[:: problem.nvars + 1] += np.bincount(cols, a * a * d[rows], problem.nvars)
    return out


def _newton_solver(W):
    """x -> W^-1 x from one Cholesky factor of W, with an escalating ridge if W
    is numerically singular."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    scale = max(np.trace(W) / max(len(W), 1), 1.0)
    ridge = 0.0
    for _ in range(12):
        factor, info = dpotrf(W + ridge * np.eye(len(W)) if ridge else W, lower=True, clean=0)
        if info == 0:
            return lambda rhs: dpotrs(factor, rhs, lower=True)[0]
        ridge = max(20.0 * ridge, 1e-11 * scale)
    raise SolverError("Newton system could not be factorized")


def _inverse_factor(L):
    """L^-1 for a (T, s, s) stack of lower triangular factors, row by row."""
    R = np.zeros_like(L)
    d = 1.0 / np.diagonal(L, axis1=1, axis2=2)
    for i in range(L.shape[1]):
        R[:, i, :i] = -np.einsum("tk,tkj->tj", L[:, i, :i], R[:, :i, :i]) * d[:, i, None]
        R[:, i, i] = d[:, i]
    return R


def _max_step(R, dV, alpha):
    """min(alpha, the largest a with L L' + a dV positive definite in every block),
    for R = L^-1 (T, s, s) and svec columns dV (s', T).  A block's limit is
    -1 / lambda_min(R dV R'); the least diagonal entry bounds lambda_min from
    above, and ``_least_eigs`` solves only the blocks whose Gershgorin discs
    reach below -1 / alpha."""
    W = R @ _smat(dV, R.shape[1]) @ R.transpose(0, 2, 1)
    hi = np.diagonal(W, axis1=1, axis2=2).min()
    alpha = min(alpha, -1.0 / hi) if hi < 0 else alpha
    least = _least_eigs(W, -1.0 / alpha).min()
    return min(alpha, -1.0 / least) if least < 0 else alpha


def _linearize(problem, theta, s, lam, Z):
    """What an iteration reads at the iterate (theta, s, lam, Z): the objective,
    the factors, the residuals, the certificate and the factored Newton system."""
    parts = _objective(problem, theta, 2)
    if parts is None:
        raise SolverError("iterate left the domain")
    value, grad, hess, LF = parts
    A, con = problem.A, problem.psd_constraint
    pt = SimpleNamespace(theta=theta, s=s, lam=lam, Z=Z, value=value, grad=grad, d=lam / s,
                         r_p=problem.b - A @ theta - s, RF=None if LF is None else _inverse_factor(LF))
    r_d = grad - A.T @ lam
    W = _linear_curvature(problem, pt.d) - hess
    gz, pt.adjX = np.zeros(0), 0.0
    if con is not None:
        pt.G = _values(con, theta)
        try:
            LG = np.linalg.cholesky(_smat(pt.G, con.size))
            LZ = np.linalg.cholesky(_smat(Z, con.size))
        except np.linalg.LinAlgError:
            raise SolverError("iterate left the domain") from None
        pt.X, pt.RG, pt.RZ = _inverse_svec(LG), _inverse_factor(LG), _inverse_factor(LZ)
        pt.adjX = _adjoint(con, pt.X)  # the PSD barrier gradient at unit mu
        r_d += _adjoint(con, Z)
        W += _kron_curvature(con, pt.X, Z)
        gz = _svec_tables(con.size)[1] @ (pt.G * Z)
    pt.gap = gz.sum() + s @ lam
    pt.kkt = float(np.linalg.norm(np.concatenate([r_d, gz, lam * s])))
    pt.solve = _newton_solver(W)
    pt.dec = float(r_d @ pt.solve(r_d))
    return pt


def _direction(problem, pt, smu, aff=None):
    """The primal-dual Newton direction centred at smu = sigma mu: the affine
    predictor for smu = 0, else the corrector with the second-order terms of
    the affine direction ``aff``.  HKM: dZ = smu X - Z - sym(X (dG Z + dG_a dZ_a))."""
    A, con, s, lam = problem.A, problem.psd_constraint, pt.s, pt.lam
    rhs = pt.grad + A.T @ (pt.d * pt.r_p) + smu * (pt.adjX - A.T @ (1.0 / s))
    second, Q = np.zeros(len(s)), 0.0
    if aff is not None:
        second = aff.ds * aff.dlam / s
        rhs += A.T @ second
        if con is not None:
            Q = _svec(_smat(pt.X, con.size) @ _smat(aff.dG, con.size) @ _smat(aff.dZ, con.size))
            rhs -= _adjoint(con, Q)
    dtheta = pt.solve(rhs)
    ds = pt.r_p - A @ dtheta
    out = SimpleNamespace(dtheta=dtheta, ds=ds, dlam=smu / s - lam - pt.d * ds - second)
    if con is not None:
        out.dG = _values(con, dtheta, base=False)
        P = _smat(pt.X, con.size) @ _smat(out.dG, con.size) @ _smat(pt.Z, con.size)
        out.dZ = smu * pt.X - pt.Z - _svec(P) - Q
    return out


def _step_length(problem, pt, dirn, alpha):
    """min(alpha, the largest step along ``dirn`` that keeps the objective
    stack, G, Z, s and lambda positive)."""
    if pt.RF is not None:
        E = problem.objective_map
        alpha = _max_step(pt.RF, _values(problem.objective, E @ dirn.dtheta, base=False), alpha)
    if problem.psd_constraint is not None:
        alpha = _max_step(pt.RG, dirn.dG, alpha)
        alpha = _max_step(pt.RZ, dirn.dZ, alpha)
    for v, dv in ((pt.s, dirn.ds), (pt.lam, dirn.dlam)):  # ratio tests over dv < 0
        alpha = float(np.divide(v, -dv, out=np.full(len(v), alpha), where=dv < 0).min(initial=alpha))
    return alpha


def _step(problem, pt):
    """The Mehrotra predictor-corrector step from pt: the next (theta, s, lam, Z)."""
    nu, con = problem.barrier_degree, problem.psd_constraint
    dirn = _direction(problem, pt, 0.0)
    if nu:
        # the gap after the longest affine step sets the centring weight sigma
        a = _step_length(problem, pt, dirn, 1.0)
        gap = (pt.s + a * dirn.ds) @ (pt.lam + a * dirn.dlam)
        if con is not None:
            gap += (_svec_tables(con.size)[1] @ ((pt.G + a * dirn.dG) * (pt.Z + a * dirn.dZ))).sum()
        sigma = min(max(gap / pt.gap, 0.0), 1.0) ** 3
        dirn = _direction(problem, pt, sigma * pt.gap / nu, dirn)
    alpha = min(1.0, _STEP * _step_length(problem, pt, dirn, 1.0 / _STEP))
    Z = None if pt.Z is None else pt.Z + alpha * dirn.dZ
    return (pt.theta + alpha * dirn.dtheta, pt.s + alpha * dirn.ds,
            pt.lam + alpha * dirn.dlam, Z)


def kkt_residual(problem: MaxDetProblem, theta, lam=None, Z=None) -> float:
    """KKT residual of theta with explicit multipliers lam (L,) >= 0 and Z
    (J, s, s) positive semidefinite, None meaning zero multipliers:
    sqrt(|grad f + sum_j A_j*(Z_j) - A' lam|^2 + sum_j <G_j, Z_j>^2 +
    sum_i (lam_i s_i)^2), s = b - A theta and A_j*(Z)_k = tr(A_jk Z).  Zero at
    the optimum with its multipliers; the gradient norm without constraints.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    _, r, _ = objective_eval(problem, theta, need_hess=False)
    A, con = problem.A, problem.psd_constraint
    s = problem.b - A @ theta
    if (s <= 0).any() or _logdet_sum(con, theta, 0) is None:
        raise InfeasibleStartError("theta is not strictly feasible")
    lam = np.zeros(len(s)) if lam is None else np.asarray(lam, dtype=float)
    if lam.shape != s.shape or (lam < 0).any():
        raise DomainError("lam must hold one nonnegative multiplier per linear row")
    parts = [r - A.T @ lam, lam * s]
    if con is not None:
        Z = np.zeros((con.count, con.size, con.size)) if Z is None else np.asarray(Z, dtype=float)
        if Z.shape != (con.count, con.size, con.size) or (
                _least_eigs(Z, 0.0) < -1e-14 * np.abs(Z).max(axis=(1, 2))).any():
            raise DomainError("Z must hold one positive semidefinite (s, s) matrix per PSD map")
        Zv = _svec(Z)
        parts[0] = parts[0] + _adjoint(con, Zv)
        parts.append(_svec_tables(con.size)[1] @ (_values(con, theta) * Zv))
    return float(np.linalg.norm(np.concatenate(parts)))


def solve(problem: MaxDetProblem) -> SolveReport:
    """Maximize the objective over the strictly feasible region from theta = 0.

    The multipliers start on the barrier gradient at mu = 1, Z_j = G_j(0)^-1
    and lam = 1 / b.  An iterate is certified when its KKT residual and its
    Newton decrement r' W^-1 r, r the stationarity residual, are at most
    target = _NEWTON_TOL * (1 + |grad f(0)|) and b - A theta recomputed from
    theta is positive; an unbounded log(1 + theta) has decrement 1 wherever
    its residual falls.  Iteration stops at a certified residual of target /
    100, when two iterations after the first certified one fail to halve the
    best, or after _MAX_NEWTON iterations; the best certified iterate (else
    the last) is returned with ``kkt_residual`` recomputed from its theta.
    A SolverError propagates only when the first iteration fails.
    """
    theta = np.zeros(problem.nvars)
    start = _objective(problem, theta, 1)
    if start is None:
        raise InfeasibleStartError("objective terms not positive definite at theta = 0")
    con, A, b = problem.psd_constraint, problem.A, problem.b
    margins = _logdet_sum(con, theta, 0)
    if margins is None or (b <= 0).any():
        raise InfeasibleStartError("a constraint margin at theta = 0 is not strictly positive")
    Z = None if con is None else _inverse_svec(margins[3])
    target, nu = _NEWTON_TOL * (1.0 + float(np.linalg.norm(start[1]))), problem.barrier_degree
    s, lam = b.copy(), 1.0 / b

    path, best, last, stall, message = [], None, None, 0, ""
    for _ in range(_MAX_NEWTON):
        try:
            pt = _linearize(problem, theta, s, lam, Z)
            path.append((float(pt.gap) / nu if nu else 0.0, pt.value))
            logger.debug("iteration %d: mu=%.3e objective=%.12g kkt=%.3e decrement=%.3e",
                         len(path), path[-1][0], pt.value, pt.kkt, pt.dec)
            last = pt
            stall = 0 if best is None or pt.kkt <= 0.5 * best.kkt else stall + 1
            if (pt.kkt <= target and pt.dec <= target and (best is None or pt.kkt < best.kkt)
                    and (b - A @ theta > 0).all()):
                best = pt
            if best is not None and (best.kkt <= 0.01 * target or stall >= 2):
                break
            theta, s, lam, Z = _step(problem, pt)
        except SolverError as exc:
            if last is None:
                raise
            message = str(exc)
            break
    else:
        message = "iteration budget exhausted"

    pt, kkt = best or last, last.kkt
    if best is not None:
        kkt = kkt_residual(problem, pt.theta, pt.lam, None if con is None else _smat(pt.Z, con.size))
    elif pt.kkt <= target and pt.dec > target:
        message = (f"objective unbounded: Newton decrement {pt.dec:.3g} does not vanish "
                   f"while the KKT residual {pt.kkt:.3g} falls ({message})")
    converged = best is not None and kkt <= target
    message = "" if converged else message
    return SolveReport(theta=pt.theta, objective=pt.value, kkt_residual=kkt,
                       newton_iterations=len(path), outer_iterations=len(path),
                       converged=converged, mu_final=float(pt.gap) / nu if nu else 0.0,
                       path=tuple(path), message=message)
