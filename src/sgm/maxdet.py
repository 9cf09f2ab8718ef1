"""Determinant maximization by log-barrier Newton path following.

Solves problems of the form

    maximize   sum_i w_i log det(A_i0 + sum_k z_k A_ik) + c' theta,  z = E theta
    subject to B_j0 + sum_k theta_k B_jk  positive definite
               a_l' theta <= b_l,

with all matrices dense symmetric and E a fixed objective map (the identity
unless given; [I, -I] for a lasso split theta = theta+ - theta-).  Constraints
enter through a logarithmic barrier scaled by mu; damped Newton steps
recenter after each geometric shrink of mu; each step whitens every stack
once with its inverse Cholesky factors, W = L^-1 A L^-T, and forms the
curvature -sum_t w_t tr(W_tk W_tl) as one matrix product (Vandenberghe, Boyd
& Wu, SIAM J. Matrix Anal. Appl. 19(2), 1998).  All arithmetic is
deterministic: identical inputs and configuration produce bitwise-identical
iterate sequences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import nnls

from .errors import DomainError, InfeasibleStartError, LineSearchError

logger = logging.getLogger("sgm.maxdet")

_ARMIJO = 0.01
_BACKTRACK = 0.5
_MIN_STEP = 1e-14


def _symmetrize(A: np.ndarray, what: str) -> np.ndarray:
    if np.abs(A - np.swapaxes(A, -1, -2)).max() > 1e-10 * (1.0 + np.abs(A).max()):
        raise DomainError(f"{what} must be symmetric")
    return 0.5 * (A + np.swapaxes(A, -1, -2))


@dataclass(frozen=True)
class AffineMatrix:
    """Stack of T affine symmetric-matrix maps theta -> base_t + sum_k theta_k coeffs[t, k].

    One map passes base (s, s), coeffs (p, s, s) and a scalar weight; a stack
    passes coeffs (T, p, s, s) with an (s, s) or (T, s, s) base and a scalar
    or (T,) weight.  Stored as base (T, s, s), coeffs (T, p, s, s), weight (T,).
    """

    base: np.ndarray
    coeffs: np.ndarray
    weight: float | np.ndarray = 1.0   # objective weight; ignored for constraints

    def __post_init__(self):
        base = _symmetrize(np.asarray(self.base, dtype=float), "base matrix")
        coeffs = _symmetrize(np.asarray(self.coeffs, dtype=float), "coefficient matrices")
        coeffs = coeffs[None] if coeffs.ndim == 3 else coeffs
        T, s = len(coeffs), coeffs.shape[-1]
        if coeffs.ndim != 4 or base.shape not in ((s, s), (T, s, s)):
            raise DomainError("coefficient stack must be (p, s, s) or (T, p, s, s) matching base")
        weight = np.asarray(self.weight, dtype=float)
        if weight.shape not in ((), (T,)):
            raise DomainError("weight must be a scalar or one value per map")
        object.__setattr__(self, "base", np.broadcast_to(base, (T, s, s)))
        object.__setattr__(self, "coeffs", coeffs)
        # an owned (T,) array rather than a read-only zero-stride broadcast view
        object.__setattr__(self, "weight", np.broadcast_to(weight, (T,)).copy())

    @property
    def size(self) -> int:
        return self.base.shape[-1]

    @property
    def count(self) -> int:
        return self.coeffs.shape[0]

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """The (T, s, s) stack of matrices at theta."""
        return self.base + np.einsum("p,tpij->tij", theta, self.coeffs)


@dataclass(frozen=True)
class MaxDetProblem:
    """The objective terms see z = objective_map @ theta, a fixed (k, nvars)
    matrix (identity if None); constraints and the linear cost act on theta."""

    nvars: int
    objective_terms: tuple[AffineMatrix, ...]
    psd_constraints: tuple[AffineMatrix, ...] = ()
    linear_constraints: tuple[tuple[np.ndarray, float], ...] = ()
    linear_cost: np.ndarray | None = None
    objective_map: np.ndarray | None = None

    def __post_init__(self):
        terms = tuple(self.objective_terms)
        psd = tuple(self.psd_constraints)
        E = self.objective_map
        E = np.asarray(np.eye(self.nvars) if E is None else E, dtype=float)
        if E.ndim != 2 or E.shape[1] != self.nvars:
            raise DomainError("objective map must be a (k, nvars) matrix")
        slices = [(t, E.shape[0]) for t in terms] + [(t, self.nvars) for t in psd]
        if any(t.coeffs.shape[1] != p for t, p in slices):
            raise DomainError("coefficient stack does not match the objective map or nvars")
        lin = []
        for a, b in self.linear_constraints:
            a = np.asarray(a, dtype=float).reshape(-1)
            if a.shape != (self.nvars,):
                raise DomainError("linear constraint vector has wrong length")
            lin.append((a, float(b)))
        cost = self.linear_cost
        if cost is not None:
            cost = np.asarray(cost, dtype=float).reshape(-1)
            if cost.shape != (self.nvars,):
                raise DomainError("linear cost has wrong length")
        object.__setattr__(self, "objective_terms", terms)
        object.__setattr__(self, "psd_constraints", psd)
        object.__setattr__(self, "linear_constraints", tuple(lin))
        object.__setattr__(self, "linear_cost", cost)
        object.__setattr__(self, "objective_map", E)
        A = np.stack([a for a, _ in lin]) if lin else np.zeros((0, self.nvars))
        b = np.array([b for _, b in lin])
        object.__setattr__(self, "_lin_A", A)
        object.__setattr__(self, "_lin_b", b)

    @property
    def barrier_degree(self) -> int:
        """Total barrier complexity: sum of PSD block sizes plus linear count."""
        return sum(c.size * c.count for c in self.psd_constraints) + len(self.linear_constraints)


@dataclass(frozen=True)
class SolverConfig:
    barrier_init: float = 1.0
    barrier_shrink: float = 0.2
    newton_tol: float = 1e-9
    max_newton: int = 50
    max_outer: int = 30

    def __post_init__(self):
        if min(self.barrier_init, self.barrier_shrink, self.newton_tol) <= 0:
            raise DomainError("solver parameters must be positive")
        if not self.barrier_shrink < 1:
            raise DomainError("barrier_shrink must be < 1")
        if min(self.max_newton, self.max_outer) < 1:
            raise DomainError("iteration budgets must be >= 1")


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


def _whiten(L: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """W[k, t] = L_t^{-1} A_tk L_t^{-T}, shape (p, T, s, s), so that
    W.reshape(p, -1) is the curvature GEMM operand without a copy."""
    T, p, s = coeffs.shape[:3]
    Linv = np.linalg.inv(L)
    X = (Linv[:, None] @ coeffs).reshape(T, p * s, s) @ Linv.transpose(0, 2, 1)
    return np.ascontiguousarray(X.reshape(T, p, s, s).transpose(1, 0, 2, 3))


def _logdet_sum(stacks, theta, order, weighted):
    """Sum of (weighted) log-dets over the stacks with derivatives up to ``order``.

    Returns (value, grad, hess): order 0 gives the value only (no whitening),
    order 1 adds the gradient and order 2 the curvature; derivatives not
    asked for are None.  Returns None if any map is not positive definite.
    """
    p = len(theta)
    value = 0.0
    grad = np.zeros(p) if order >= 1 else None
    hess = np.zeros((p, p)) if order >= 2 else None
    for stack in stacks:
        try:
            L = np.linalg.cholesky(stack(theta))
        except np.linalg.LinAlgError:
            return None
        w = stack.weight if weighted else np.ones(stack.count)
        value += float(w @ (2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)))
        if order >= 1:
            W = _whiten(L, stack.coeffs)
            grad += np.trace(W, axis1=-2, axis2=-1) @ w
            if order >= 2:
                # tr(W_tk W_tl) summed over t with weights: one (p, T*s*s) GEMM
                hess -= (W * w[:, None, None]).reshape(p, -1) @ W.reshape(p, -1).T
    return value, grad, hess


def _evaluate(problem: MaxDetProblem, theta, order: int, barrier: bool):
    """_logdet_sum of the objective plus its linear cost, or with ``barrier`` of
    the PSD constraints plus the linear-slack log barrier (unit mu)."""
    if barrier:
        parts = _logdet_sum(problem.psd_constraints, theta, order, weighted=False)
    else:
        E = problem.objective_map
        parts = _logdet_sum(problem.objective_terms, E @ theta, order, weighted=True)
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
    elif len(problem._lin_b):
        A, b = problem._lin_A, problem._lin_b
        s = b - A @ theta
        if (s <= 0).any():
            return None
        value += float(np.log(s).sum())
        if order >= 1:
            grad = grad - A.T @ (1.0 / s)
        if order >= 2:
            hess = hess - (A.T / s**2) @ A
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


def _newton_direction(grad, hess):
    """Solve (-hess) d = grad with an escalating ridge if the curvature is flat."""
    W = -hess
    scale = max(np.trace(W) / max(len(grad), 1), 1.0)
    ridge = 0.0
    for _ in range(12):
        try:
            factor = cho_factor(W + ridge * np.eye(len(grad)), lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            ridge = max(20.0 * ridge, 1e-11 * scale)
            continue
        return cho_solve(factor, grad, check_finite=False)
    raise LineSearchError("Newton system could not be factorized")


def _newton_step(problem, theta, mu, grad_tol):
    """One damped Newton step; returns (theta_new, at_center).

    Centering is declared when the barrier-objective gradient norm falls
    below grad_tol (this is what bounds the final KKT residual), or when
    the Newton decrement reaches the floating-point floor.  Once the
    decrement drops below the resolution at which merit improvements are
    verifiable, the full Newton step is trusted subject to feasibility only.
    """
    value, grad, hess = objective_eval(problem, theta, need_hess=True)
    bar = _evaluate(problem, theta, 2, barrier=True)
    if bar is None:
        raise InfeasibleStartError("theta is not strictly feasible")
    bval, bgrad, bhess = bar
    g = grad + mu * bgrad
    if np.linalg.norm(g) <= grad_tol:
        return theta, True
    H = hess + mu * bhess
    direction = _newton_direction(g, H)
    decrement = float(g @ direction)
    merit0 = value + mu * bval
    scale = 1.0 + abs(merit0)
    if decrement / 2.0 <= 1e-19 * scale:
        return theta, True  # flat to machine precision; cannot improve further
    check_merit = decrement / 2.0 > 1e-12 * scale
    t = 1.0
    while t >= _MIN_STEP:
        cand = theta + t * direction
        merit = _merit(problem, cand, mu)
        if merit is not None and (
            not check_merit or merit >= merit0 + _ARMIJO * t * decrement
        ):
            return cand, False
        t *= _BACKTRACK
    raise LineSearchError(f"line search failed (decrement {decrement:.3e})")


def barrier_step(
    problem: MaxDetProblem, theta, mu: float, config: SolverConfig | None = None
) -> np.ndarray:
    """One damped Newton step on the barrier-augmented objective at parameter mu.

    Backtracking rejects any step leaving the strictly feasible domain, and
    the merit value never decreases beyond floating-point resolution.  At
    the barrier optimum the input is returned unchanged (within newton_tol).
    """
    config = config or SolverConfig()
    theta = np.asarray(theta, dtype=float).reshape(-1)
    new, _ = _newton_step(problem, theta, mu, config.newton_tol)
    return new


def kkt_residual(problem: MaxDetProblem, theta) -> float:
    """Stationarity-plus-complementarity residual with barrier-recovered multipliers.

    Each constraint gets a nonnegative multiplier scale along its barrier
    gradient direction (mu_l / slack for linear rows, mu_j P_j^{-1} for PSD
    blocks); the scales minimize the combined norm of the stationarity
    residual and the complementarity products.  Zero at the true optimum;
    equals the plain gradient norm when the problem has no constraints.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    _, g, _ = objective_eval(problem, theta, need_hess=False)
    if problem.barrier_degree == 0:
        return float(np.linalg.norm(g))
    cols = []
    comp_weight = []
    for con in problem.psd_constraints:
        try:
            L = np.linalg.cholesky(con(theta))
        except np.linalg.LinAlgError:
            raise InfeasibleStartError("theta is not strictly feasible") from None
        cols.append(np.trace(_whiten(L, con.coeffs), axis1=-2, axis2=-1))  # (p, T)
        comp_weight.extend([float(con.size)] * con.count)
    A, b = problem._lin_A, problem._lin_b
    if len(b):
        s = b - A @ theta
        if (s <= 0).any():
            raise InfeasibleStartError("theta is not strictly feasible")
        cols.append(-(A / s[:, None]).T)
        comp_weight.extend([1.0] * len(b))
    M = np.concatenate(cols, axis=1)
    q = M.shape[1]
    augmented = np.vstack([M, np.diag(comp_weight)])
    rhs = np.concatenate([-g, np.zeros(q)])
    _, resid = nnls(augmented, rhs)
    return float(resid)


def solve(problem: MaxDetProblem, config: SolverConfig | None = None) -> SolveReport:
    """Maximize the objective over the strictly feasible region from theta = 0.

    The outer loop shrinks mu geometrically until the recovered KKT residual
    falls below newton_tol * (1 + |grad f(0)|); each center is found by
    damped Newton iteration.  Exhausted budgets return the best iterate
    flagged as not converged.
    """
    config = config or SolverConfig()
    theta = np.zeros(problem.nvars)
    start = _evaluate(problem, theta, 1, barrier=False)
    if start is None:
        raise InfeasibleStartError("objective terms not positive definite at theta = 0")
    if _evaluate(problem, theta, 0, barrier=True) is None:
        raise InfeasibleStartError("a constraint margin at theta = 0 is not strictly positive")
    target = config.newton_tol * (1.0 + float(np.linalg.norm(start[1])))
    grad_tol = 0.5 * target
    nu = problem.barrier_degree

    mu = config.barrier_init
    newton_total = 0
    outer = 0
    path: list[tuple[float, float]] = []
    converged = False
    message = ""
    best: tuple[float, np.ndarray, float] | None = None  # (kkt, theta, mu)
    while outer < config.max_outer:
        outer += 1
        centered = False
        for _ in range(config.max_newton):
            try:
                new, centered = _newton_step(problem, theta, mu, grad_tol)
            except LineSearchError as exc:
                message = str(exc)
                break
            if centered:
                break
            newton_total += 1
            theta = new
        value = _evaluate(problem, theta, 0, barrier=False)[0]
        path.append((mu, value))
        logger.debug("outer %d: mu=%.3e objective=%.12g", outer, mu, value)
        if nu == 0:
            converged = centered
            if not centered and not message:
                message = "newton budget exhausted"
            break
        if message:
            break
        if not centered:
            message = "newton budget exhausted"
            break
        if mu * nu <= 0.5 * target:
            kkt = kkt_residual(problem, theta)
            if best is None or kkt < best[0]:
                best = (kkt, theta, mu)
            if kkt <= target:
                converged = True
                break
            if kkt > 4.0 * best[0]:
                # shrinking mu further only degrades the certificate numerically
                message = "KKT residual at the floating-point floor"
                break
        mu *= config.barrier_shrink
    else:
        message = "outer iteration budget exhausted"

    if best is not None:
        kkt, theta, mu = best
        converged = converged or kkt <= target
    else:
        kkt = kkt_residual(problem, theta)
        if message and nu > 0 and not converged:
            converged = kkt <= 10.0 * target
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
