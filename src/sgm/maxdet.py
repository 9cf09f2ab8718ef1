"""Determinant maximization by log-barrier Newton path following.

Solves problems of the form

    maximize   sum_t w_t log det F_t(z) + c' theta,  z = E theta
    subject to G_j(theta) positive definite for every j,
               A theta < b,

where F = objective and G = psd_constraint are stacks of affine symmetric
matrix maps (AffineMatrix) and E is a fixed objective map (the identity unless
given; [I, -I] for a lasso split theta = theta+ - theta-).  Constraints enter
through a logarithmic barrier scaled by mu; damped Newton steps recenter after
each geometric shrink of mu.  Each symmetric matrix is stored once in svec
form, its upper-triangle entries, so a stack of T maps is a (T, s', p) array B.
The Cholesky factors of the stack give the log-dets, and X_t = G_t^-1 in svec
form comes from them by the dpotri recurrence, run elementwise over the whole
stack by ``model._inverse_svec``, which the model's scores share; the gradient
is sum_t w_t B_t' svec(X_t) and the curvature -sum_t w_t B_t' (X_t (*) X_t)
B_t, with (*) the symmetric Kronecker product (Vandenberghe, Boyd & Wu, SIAM J.
Matrix Anal. Appl. 19(2), 1998; Todd, Toh & Tutuncu, SIAM J. Optim. 8(3),
1998).  Linear rows with one nonzero (bounds) add their barrier curvature to
the diagonal; the other rows give one Y'Y product.  The Newton system is solved
with the LAPACK Cholesky routines dpotrf/dpotrs and the KKT certificate
recovers its multipliers with nnls; both come from scipy and load on the first
solve, so importing this module loads numpy only.  All arithmetic is
deterministic: identical inputs produce bitwise-identical iterate sequences.
The barrier schedule is fixed: mu starts at _BARRIER_INIT and shrinks by
_BARRIER_SHRINK per outer iteration, within the Newton and outer budgets.
Each centering starts from the previous center extrapolated along the tangent
of the central path, which the declaring Newton step solves from the factor it
already has (a predictor-corrector path; Boyd & Vandenberghe, Convex
Optimization, 2004, 11.3-11.5).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InfeasibleStartError, LineSearchError
from .model import _inverse_svec, _svec_tables

logger = logging.getLogger("sgm.maxdet")

_BARRIER_INIT = 1.0
_BARRIER_SHRINK = 0.2
_NEWTON_TOL = 1e-9
_MAX_NEWTON = 50
_MAX_OUTER = 30
_ARMIJO = 0.01
_BACKTRACK = 0.5
_MIN_STEP = 1e-14


def _symmetrize(A: np.ndarray, what: str) -> np.ndarray:
    if np.abs(A - np.swapaxes(A, -1, -2)).max() > 1e-10 * (1.0 + np.abs(A).max()):
        raise DomainError(f"{what} must be symmetric")
    return 0.5 * (A + np.swapaxes(A, -1, -2))


class AffineMatrix:
    """Stack of T affine symmetric-matrix maps theta -> base_t + sum_k theta_k A_tk.

    The coefficients come in svec form: B is (T, s', p), or (s', p) for one
    map, with row i of B_t holding entry (j_i, l_i) of A_t1 .. A_tp, where
    (j, l) = ``np.triu_indices(s)`` and s' = s(s+1)/2.  The base is a dense
    symmetric (s, s) or (T, s, s) array and the weight a scalar or (T,).  Kept
    are ``base`` in svec form (T, s'), the contiguous (T, s', p) stack ``B``
    (the caller's array itself, not a copy, when it is already a contiguous
    float stack) and ``weight`` (T,).
    """

    def __init__(self, base, B, weight: float | np.ndarray = 1.0):
        base = _symmetrize(np.asarray(base, dtype=float), "base matrix")
        B = np.asarray(B, dtype=float)
        B = B[None] if B.ndim == 2 else B
        T, s = len(B), base.shape[-1]
        j, k = np.triu_indices(s)
        if B.ndim != 3 or B.shape[1] != len(j) or base.shape not in ((s, s), (T, s, s)):
            raise DomainError("coefficient stack must be (s', p) or (T, s', p) matching base")
        weight = np.asarray(weight, dtype=float)
        if weight.shape not in ((), (T,)):
            raise DomainError("weight must be a scalar or one value per map")
        self.size = s
        self.base = np.broadcast_to(base[..., j, k], (T, len(j)))
        self.B = np.ascontiguousarray(B)
        self.weight = np.broadcast_to(weight, (T,)).copy()

    @property
    def count(self) -> int:
        return self.B.shape[0]

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """The (T, s, s) stack of matrices at theta."""
        T, sv, p = self.B.shape
        v = self.base + (self.B.reshape(T * sv, p) @ theta).reshape(T, sv)
        return v[:, _svec_tables(self.size)[0]].reshape(T, self.size, self.size)


class MaxDetProblem:
    """The problem of the module docstring.

    ``objective`` and ``psd_constraint`` are AffineMatrix stacks, either one
    None.  The objective stack sees z = objective_map @ theta, a fixed
    (k, nvars) matrix (identity if None); the PSD stack, the linear rows
    A theta < b, with A (L, nvars) and b (L,), and the linear cost act on
    theta.  The barrier weighs every PSD map alike, so their weights must be 1.
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
        if psd_constraint is not None and (psd_constraint.weight != 1.0).any():
            raise DomainError("PSD constraint maps must have weight 1")
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
        # bound rows (one nonzero) have diagonal barrier curvature
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
    theta: np.ndarray
    objective: float
    kkt_residual: float
    newton_iterations: int
    outer_iterations: int
    converged: bool
    mu_final: float
    path: tuple[tuple[float, float], ...] = field(default=())
    message: str = ""


def _block_gradients(stack, L):
    """The (p, T) per-block gradients tr(G_t^{-1} A_tk) = B_t' (g o svec X_t)."""
    g = _svec_tables(stack.size)[1]
    return np.einsum("it,tip->pt", _inverse_svec(L) * g[:, None], stack.B)


def _logdet_sum(stack, theta, order):
    """Weighted sum of the stack's log-dets with derivatives up to ``order``.

    Returns (value, grad, hess): order 0 gives the value only, from the
    Cholesky factors; order 1 adds the gradient sum_t w_t B_t' (g o svec X_t),
    with svec(X_t) of X_t = G_t^{-1} from ``_inverse_svec`` as (s', T), and
    order 2 the curvature -sum_t w_t B_t' K_t B_t with K_t = X_t (*) X_t in
    svec form, K_t[(j,k),(l,m)] = 2 f_jk f_lm (X_jl X_km + X_jm X_kl),
    f = g / 2, gathered from the svec rows; derivatives not asked for are
    None.  A None stack contributes zeros.  Returns None if any map is not
    positive definite.
    """
    p = len(theta)
    if stack is None:
        return 0.0, np.zeros(p) if order >= 1 else None, np.zeros((p, p)) if order >= 2 else None
    try:
        L = np.linalg.cholesky(stack(theta))
    except np.linalg.LinAlgError:
        return None
    w = stack.weight
    value = float(w @ (2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)))
    grad = hess = None
    if order >= 1:
        T, sv, _ = stack.B.shape
        B = stack.B.reshape(T * sv, p)
        _, g, gather, _, _ = _svec_tables(stack.size)
        X = _inverse_svec(L)
        grad = np.multiply(X.T, np.outer(w, g), order="C").reshape(-1) @ B
        if order >= 2:
            P = X[gather]  # (4, s', s', T)
            K = P[0] * P[1] + P[2] * P[3]
            K *= w
            K *= 0.5 * np.outer(g, g)[:, :, None]
            hess = -(B.T @ (K.transpose(2, 0, 1) @ stack.B).reshape(T * sv, p))
    return value, grad, hess


def _evaluate(problem: MaxDetProblem, theta, order: int, barrier: bool):
    """_logdet_sum of the objective plus its linear cost, or with ``barrier`` of
    the PSD constraint plus the linear-slack log barrier (unit mu)."""
    if barrier:
        parts = _logdet_sum(problem.psd_constraint, theta, order)
    else:
        E = problem.objective_map
        parts = _logdet_sum(problem.objective, E @ theta, order)
    if parts is None:
        return None
    value, grad, hess = parts
    if not barrier:
        # chain rule through z = E theta
        grad = E.T @ grad if order >= 1 else None
        hess = E.T @ hess @ E if order >= 2 else None
        if problem.linear_cost is not None:
            value = value + float(problem.linear_cost @ theta)
            grad = grad + problem.linear_cost if order >= 1 else None
    elif len(problem.b):
        A, b = problem.A, problem.b
        s = b - A @ theta
        if (s <= 0).any():
            return None
        value += float(np.log(s).sum())
        if order >= 1:
            grad = grad - A.T @ (1.0 / s)
        if order >= 2:
            rows, Y = problem._general_rows
            Y = Y / s[rows, None]
            hess = hess - Y.T @ Y
            rows, cols, a = problem._bound_rows
            hess.flat[:: len(theta) + 1] -= np.bincount(cols, (a / s[rows]) ** 2, len(theta))
    return value, grad, hess


def objective_eval(problem: MaxDetProblem, theta, need_hess: bool = True):
    """Value, gradient, and curvature matrix of the barrier-free objective.

    The curvature matrix is negative semidefinite (the objective is concave).
    Raises DomainError if any objective term fails to factorize at theta.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    parts = _evaluate(problem, theta, 2 if need_hess else 1, barrier=False)
    if parts is None:
        raise DomainError("objective term is not positive definite at theta")
    return parts


def _merit(problem, theta, mu):
    """Barrier-augmented objective value, or None if theta is out of domain."""
    value = _evaluate(problem, theta, 0, barrier=False)
    if value is None:
        return None
    bar = _evaluate(problem, theta, 0, barrier=True)
    return None if bar is None else value[0] + mu * bar[0]


def _newton_direction(rhs, hess):
    """Solve (-hess) x = rhs, one column per right-hand side, with an escalating
    ridge if the curvature is flat."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    W = -hess
    scale = max(np.trace(W) / max(len(rhs), 1), 1.0)
    ridge = 0.0
    for _ in range(12):
        factor, info = dpotrf(W + ridge * np.eye(len(rhs)) if ridge else W, lower=True, clean=0)
        if info == 0:
            return dpotrs(factor, rhs, lower=True)[0]
        ridge = max(20.0 * ridge, 1e-11 * scale)
    raise LineSearchError("Newton system could not be factorized")


def _newton_step(problem, theta, mu, grad_tol, predicted=False):
    """One damped Newton step; returns (theta_new, tangent).

    The tangent is None unless theta is declared the center at mu; then it is
    the central path's derivative d theta / d mu = (-H)^-1 grad phi, with H
    the barrier-objective curvature and phi the barrier, solved as the second
    right-hand side of the factor that gives the Newton direction (Boyd &
    Vandenberghe, Convex Optimization, 2004, 11.5).
    Centering is declared when the barrier-objective gradient norm falls
    below grad_tol, or when the Newton decrement reaches the floating-point
    floor.  A ``predicted`` point, extrapolated along the tangent, is never
    declared centered by the floor but takes one corrector step first, since
    its decrement can be at the floor while its gradient is not.  On the
    benchmark fits every center that reaches the certificate comes from the
    decrement floor, with the gradient norm far above grad_tol; what bounds
    the final KKT residual is the certificate that ``solve`` computes with
    ``kkt_residual``, not this test.  Once the decrement drops below the
    resolution at which merit improvements are verifiable, the full Newton
    step is trusted subject to feasibility only.
    """
    value, grad, hess = objective_eval(problem, theta, need_hess=True)
    bar = _evaluate(problem, theta, 2, barrier=True)
    if bar is None:
        raise InfeasibleStartError("theta is not strictly feasible")
    bval, bgrad, bhess = bar
    g = grad + mu * bgrad
    direction, tangent = _newton_direction(np.column_stack([g, bgrad]), hess + mu * bhess).T
    if np.linalg.norm(g) <= grad_tol:
        return theta, tangent
    decrement = float(g @ direction)
    merit0 = value + mu * bval
    scale = 1.0 + abs(merit0)
    if decrement / 2.0 <= 1e-19 * scale and not predicted:
        return theta, tangent  # flat to machine precision; cannot improve further
    check_merit = decrement / 2.0 > 1e-12 * scale
    t = 1.0
    while t >= _MIN_STEP:
        cand = theta + t * direction
        merit = _merit(problem, cand, mu)
        if merit is not None and (
            not check_merit or merit >= merit0 + _ARMIJO * t * decrement
        ):
            return cand, None
        t *= _BACKTRACK
    raise LineSearchError(f"line search failed (decrement {decrement:.3e})")


def _predict(problem, theta, step):
    """theta + t step for the largest t = _BACKTRACK^k >= _MIN_STEP that is
    strictly feasible, or None if there is none."""
    t = 1.0
    while t >= _MIN_STEP:
        cand = theta + t * step
        if _merit(problem, cand, 0.0) is not None:
            return cand
        t *= _BACKTRACK
    return None


def kkt_residual(problem: MaxDetProblem, theta) -> float:
    """Stationarity-plus-complementarity residual with barrier-recovered multipliers.

    Each constraint gets a nonnegative multiplier scale along its barrier
    gradient direction (mu_l / slack for linear rows, mu_j P_j^{-1} for PSD
    blocks); the scales minimize the combined norm of the stationarity
    residual and the complementarity products.  Zero at the true optimum;
    equals the plain gradient norm when the problem has no constraints.
    """
    from scipy.optimize import nnls

    theta = np.asarray(theta, dtype=float).reshape(-1)
    _, g, _ = objective_eval(problem, theta, need_hess=False)
    if problem.barrier_degree == 0:
        return float(np.linalg.norm(g))
    cols = []
    comp_weight = []
    con = problem.psd_constraint
    if con is not None:
        try:
            L = np.linalg.cholesky(con(theta))
        except np.linalg.LinAlgError:
            raise InfeasibleStartError("theta is not strictly feasible") from None
        cols.append(_block_gradients(con, L))
        comp_weight.append(np.full(con.count, float(con.size)))
    A, b = problem.A, problem.b
    if len(b):
        s = b - A @ theta
        if (s <= 0).any():
            raise InfeasibleStartError("theta is not strictly feasible")
        cols.append(-(A / s[:, None]).T)
        comp_weight.append(np.ones(len(b)))
    M = np.concatenate(cols, axis=1)
    q = M.shape[1]
    augmented = np.vstack([M, np.diag(np.concatenate(comp_weight))])
    rhs = np.concatenate([-g, np.zeros(q)])
    _, resid = nnls(augmented, rhs)
    return float(resid)


def solve(problem: MaxDetProblem) -> SolveReport:
    """Maximize the objective over the strictly feasible region from theta = 0.

    The outer loop shrinks mu geometrically until the recovered KKT residual
    falls below _NEWTON_TOL * (1 + |grad f(0)|); each center is found by
    damped Newton iteration, started after the first from the previous
    center plus (mu_new - mu_old) d theta / d mu, cut back by _BACKTRACK
    until strictly feasible (or the center itself if no cut is).  The
    certificate is tried once mu * nu <= target / 2; if that first try
    fails, the earlier, better conditioned larger-mu centers are tried,
    newest first.  A certificate more than 4x the best so far ends the
    solve at the floating-point floor.  Exhausted budgets return the best
    certified iterate; a prediction is made only as a centering starts, so a
    solve that stops between centerings returns a center.  The report is
    converged exactly when its KKT residual is at most that target.
    """
    theta = np.zeros(problem.nvars)
    start = _evaluate(problem, theta, 1, barrier=False)
    if start is None:
        raise InfeasibleStartError("objective terms not positive definite at theta = 0")
    if _evaluate(problem, theta, 0, barrier=True) is None:
        raise InfeasibleStartError("a constraint margin at theta = 0 is not strictly positive")
    target = _NEWTON_TOL * (1.0 + float(np.linalg.norm(start[1])))
    grad_tol = 0.5 * target
    nu = problem.barrier_degree

    mu = _BARRIER_INIT
    newton_total = 0
    outer = 0
    path: list[tuple[float, float]] = []
    message = ""
    centers: list[tuple[np.ndarray, float]] = []  # earlier (theta, mu) centers
    tangent = None
    best: tuple[float, np.ndarray, float] | None = None  # (kkt, theta, mu)
    while outer < _MAX_OUTER:
        outer += 1
        predicted = False
        if tangent is not None:
            cand = _predict(problem, theta, (mu - centers[-1][1]) * tangent)
            if cand is not None:
                theta, predicted = cand, True
        tangent = None
        for _ in range(_MAX_NEWTON):
            try:
                new, tangent = _newton_step(problem, theta, mu, grad_tol, predicted)
            except LineSearchError as exc:
                message = str(exc)
                break
            if tangent is not None:
                break
            newton_total += 1
            theta, predicted = new, False
        value = _evaluate(problem, theta, 0, barrier=False)[0]
        path.append((mu, value))
        logger.debug("outer %d: mu=%.3e objective=%.12g", outer, mu, value)
        if nu == 0:
            if tangent is None and not message:
                message = "newton budget exhausted"
            break
        if message:
            break
        if tangent is None:
            message = "newton budget exhausted"
            break
        if mu * nu <= 0.5 * target:
            # a failed first certificate falls back to the better conditioned
            # larger-mu centers, newest first
            held = [(theta, mu)] + (centers[::-1] if best is None else [])
            for center in held:
                kkt = kkt_residual(problem, center[0])
                if best is None or kkt < best[0]:
                    best = (kkt, *center)
                if kkt <= target or kkt > 4.0 * best[0]:
                    break
            if kkt <= target:
                break
            if kkt > 4.0 * best[0]:
                # shrinking mu further only degrades the certificate numerically
                message = "KKT residual at the floating-point floor"
                break
        centers.append((theta, mu))
        mu *= _BARRIER_SHRINK
    else:
        message = "outer iteration budget exhausted"

    if best is not None:
        kkt, theta, mu = best
    else:
        kkt = kkt_residual(problem, theta)
    converged = kkt <= target
    value = _evaluate(problem, theta, 0, barrier=False)[0]
    return SolveReport(
        theta=theta,
        objective=value,
        kkt_residual=kkt,
        newton_iterations=newton_total,
        outer_iterations=outer,
        converged=converged,
        mu_final=mu,
        path=tuple(path),
        message=message,
    )
