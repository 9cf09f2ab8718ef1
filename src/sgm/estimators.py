"""Statistical estimation.

Constrained maximum likelihood for the gradient and mixture models over the
lattice and L1-type regions (the latter giving a lasso-type sparse
estimator), the graphical Gaussian lasso baseline, column preprocessing,
predictive log-likelihood against the null model, and cross-validation of
the tuning parameter.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import maxdet
from .errors import ConstantColumnError, DataError, DomainError, IndefiniteHessianError
from .feasibility import LatticeRegion, LitRegion, Region, km_factors, lattice_points
from .model import (
    FrequencySet,
    density_batch,
    fisher_origin,
    hessian_basis_batch,
    mixm_density_batch,
    standard_freq_set,
)

logger = logging.getLogger("sgm.estimators")

# Lasso-split coefficients this close to the split-variable boundary are
# reported as exact zeros (L1-type regions only).
ZERO_THRESHOLD = 1e-8


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scaler:
    """Column standardizer: population mean/sd, plus the normal-CDF unit map."""

    mean: np.ndarray
    sd: np.ndarray

    @classmethod
    def fit(cls, raw) -> "Scaler":
        raw = np.asarray(raw, dtype=float)
        if raw.ndim != 2 or raw.shape[0] < 2:
            raise DataError("need an (n, m) array with n >= 2")
        mean = raw.mean(axis=0)
        sd = raw.std(axis=0)  # population convention (divisor n)
        if (sd <= 0).any():
            bad = int(np.nonzero(sd <= 0)[0][0])
            raise ConstantColumnError(f"column {bad} is constant")
        return cls(mean=mean, sd=sd)

    def standardize(self, raw) -> np.ndarray:
        return (np.asarray(raw, dtype=float) - self.mean) / self.sd

    def to_unit(self, raw) -> np.ndarray:
        return ndtr(self.standardize(raw))


def preprocess(raw) -> tuple[np.ndarray, np.ndarray]:
    """Standardize columns and map them through the normal CDF onto (0,1)."""
    scaler = Scaler.fit(raw)
    return scaler.standardize(raw), scaler.to_unit(raw)


# ---------------------------------------------------------------------------
# Gradient / mixture model fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    model: str
    freqs: FrequencySet
    theta: np.ndarray      # thresholded coefficients
    theta_raw: np.ndarray  # raw solver output
    region: Region
    loglik: float
    scaled: np.ndarray     # sqrt(J_uu) * theta
    report: maxdet.SolveReport


def _check_unit_data(data, m) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise DataError("data must be a nonempty (n, m) array")
    if data.shape[1] != m:
        raise DataError(f"data has {data.shape[1]} columns, model expects {m}")
    if (data < 0).any() or (data > 1).any():
        raise DataError("data entries must lie in [0, 1]; run preprocessing first")
    return data


def _term_values(model, freqs, data):
    """Per-sample coefficient stacks for the objective terms.

    Gradient model: (n, k, m, m) Hessian bases with identity base; mixture
    model: (n, k, 1, 1) scalar cosine terms with base [[1]].
    """
    if model == "sgm":
        coeffs = hessian_basis_batch(freqs, data)
        base = np.eye(freqs.dim)
    else:
        C = np.cos(np.pi * data[:, None, :] * freqs.freqs[None, :, :])
        vals = C.prod(axis=-1) * freqs.sqnorms
        coeffs = vals[:, :, None, None]
        base = np.eye(1)
    return base, coeffs


def _zero_fit(model, freqs, region) -> FitResult:
    zero = np.zeros(freqs.size)
    report = maxdet.SolveReport(
        theta=zero,
        objective=0.0,
        kkt_residual=0.0,
        newton_iterations=0,
        outer_iterations=0,
        converged=True,
        mu_final=0.0,
        message="tau = 0 fixes theta = 0",
    )
    return FitResult(
        model=model,
        freqs=freqs,
        theta=zero.copy(),
        theta_raw=zero.copy(),
        region=region,
        loglik=0.0,
        scaled=zero.copy(),
        report=report,
    )


def _lit_rows(model, freqs, tau):
    """Budget rows (coefficients on |theta_u|) for the L1-type region."""
    if model == "sgm":
        cols = freqs.freqs.astype(float) ** 2  # (k, m)
        rows = [cols[:, j] for j in range(freqs.dim) if cols[:, j].any()]
    else:
        rows = [freqs.sqnorms]
    return rows


def _lasso_split(m, rows, budget):
    """Objective map and linear constraints of a lasso split.

    The variables are m unsplit ones, then the parts z+ and z- of k split
    ones; the map blockdiag(I_m, [I_k, -I_k]) gives (unsplit, z+ - z-).  Each
    split part is >= -delta and each budget row r of length k gives
    r'(z+ + z-) <= budget - 2 delta sum(r), delta = budget / (4 max sum(r)),
    so theta = 0 is strictly feasible.
    """
    k = len(rows[0])
    nvars = m + 2 * k
    E = np.zeros((m + k, nvars))
    E[:m, :m] = np.eye(m)
    E[m:, m:] = np.hstack([np.eye(k), -np.eye(k)])
    delta = budget / (4.0 * max(float(r.sum()) for r in rows))
    linear = []
    for i in range(m, nvars):
        e = np.zeros(nvars)
        e[i] = -1.0
        linear.append((e, delta))
    for r in rows:
        a = np.concatenate([np.zeros(m), r, r])
        linear.append((a, budget - 2.0 * delta * float(r.sum())))
    return E, tuple(linear)


def _fit_lit(model, freqs, data, tau, config):
    base, coeffs = _term_values(model, freqs, data)
    E, linear = _lasso_split(0, _lit_rows(model, freqs, tau), tau)
    problem = maxdet.MaxDetProblem(
        nvars=E.shape[1],
        objective_terms=(maxdet.AffineMatrix(base, coeffs),),
        linear_constraints=linear,
        objective_map=E,
    )
    report = maxdet.solve(problem, config)
    return E @ report.theta, report


def _fit_lattice(model, freqs, data, M, config):
    lattice = lattice_points(freqs.dim, M)
    base, coeffs = _term_values(model, freqs, data)
    _, lat_coeffs = _term_values(model, freqs, lattice)
    lat_coeffs = lat_coeffs / km_factors(freqs, M)[None, :, None, None]
    problem = maxdet.MaxDetProblem(
        nvars=freqs.size,
        objective_terms=(maxdet.AffineMatrix(base, coeffs),),
        psd_constraints=(maxdet.AffineMatrix(base, lat_coeffs),),
    )
    report = maxdet.solve(problem, config)
    return report.theta, report


def _fit(model, data, freqs, region, config):
    data = _check_unit_data(data, freqs.dim)
    if isinstance(region, LitRegion):
        if region.tau == 0.0:
            return _zero_fit(model, freqs, region)
        theta_raw, report = _fit_lit(model, freqs, data, region.tau, config)
        theta = np.where(np.abs(theta_raw) < ZERO_THRESHOLD, 0.0, theta_raw)
    elif isinstance(region, LatticeRegion):
        # no split variables: zeroing small entries could leave the region
        theta_raw, report = _fit_lattice(model, freqs, data, region.M, config)
        theta = theta_raw.copy()
    else:
        raise DomainError(f"unknown region {region!r}")
    loglik = report.objective
    scaled = np.sqrt(fisher_origin(freqs)) * theta
    return FitResult(
        model=model,
        freqs=freqs,
        theta=theta,
        theta_raw=theta_raw,
        region=region,
        loglik=loglik,
        scaled=scaled,
        report=report,
    )


def fit_sgm(
    data,
    freqs: FrequencySet,
    region: Region,
    config: maxdet.SolverConfig | None = None,
) -> FitResult:
    """Constrained maximum likelihood for the gradient model.

    One log-det objective term per sample.  Lattice regions add a
    positive-definiteness constraint at every lattice point on the rescaled
    coefficients; L1-type regions split each coefficient into nonnegative
    parts under per-axis budget constraints, which makes the fit sparse.
    """
    return _fit("sgm", data, freqs, region, config)


def fit_mixm(
    data,
    freqs: FrequencySet,
    region: Region,
    config: maxdet.SolverConfig | None = None,
) -> FitResult:
    """Constrained maximum likelihood for the mixture model (scalar terms)."""
    return _fit("mixm", data, freqs, region, config)


# ---------------------------------------------------------------------------
# Graphical Gaussian lasso baseline
# ---------------------------------------------------------------------------

def _correlation_matrix(standardized) -> np.ndarray:
    X = np.asarray(standardized, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("need an (n, m) array with n >= 2")
    S = X.T @ X / X.shape[0]
    d = np.sqrt(np.diag(S))
    if (d <= 0).any():
        raise ConstantColumnError("a column has zero variance")
    return S / np.outer(d, d)


def _gauss_problem(sigma, pairs, budget=None):
    """Concentration-matrix problem with C = I + X, maximizing logdet - trace.

    The objective sees z, the diagonal of X then its off-diagonal pairs.
    With a ``budget`` the pairs are lasso-split under the L1 budget.
    """
    m, q = sigma.shape[0], len(pairs)
    coeffs = np.zeros((m + q, m, m))
    cost = np.zeros(m + q)
    for i in range(m):
        coeffs[i, i, i] = 1.0
        cost[i] = -sigma[i, i]
    for v, (i, j) in enumerate(pairs, start=m):
        coeffs[v, i, j] = coeffs[v, j, i] = 1.0
        cost[v] = -2.0 * sigma[i, j]
    if budget is None:
        E, linear = np.eye(m + q), ()
    else:
        E, linear = _lasso_split(m, [np.ones(q)], budget)
    return maxdet.MaxDetProblem(
        nvars=E.shape[1],
        objective_terms=(maxdet.AffineMatrix(np.eye(m), coeffs),),
        linear_constraints=linear,
        linear_cost=E.T @ cost,
        objective_map=E,
    )


def _gauss_fit_C(problem, config):
    """Solve the problem and return its C = I + X at the optimum."""
    (term,) = problem.objective_terms
    return term(problem.objective_map @ maxdet.solve(problem, config).theta)[0]


def fit_gauss_lasso(
    standardized, tau: float, config: maxdet.SolverConfig | None = None
) -> np.ndarray:
    """Concentration-matrix estimate under an off-diagonal L1 budget.

    Maximizes log det(C) - tr(S C) over positive definite C subject to
    sum_{i<j} |C_ij| <= tau * sum_{i<j} |(S^{-1})_ij| with S the sample
    correlation matrix.  At tau = 1 this is the unpenalized maximum
    likelihood estimate S^{-1}.  ``standardized`` is expected to have
    mean-zero columns (the Scaler output); S is formed about zero.
    """
    if not (0.0 <= tau <= 1.0):
        raise DomainError("tau must lie in [0, 1]")
    sigma = _correlation_matrix(standardized)
    m = sigma.shape[0]
    try:
        L = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise DataError("sample correlation matrix is singular") from exc
    inv = np.linalg.inv(sigma)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    budget = tau * sum(abs(inv[i, j]) for i, j in pairs)
    if budget <= 0.0 or not pairs:
        return np.diag(1.0 / np.diag(sigma))

    # Unconstrained MLE first: if it satisfies the budget, it is the optimum.
    C = _gauss_fit_C(_gauss_problem(sigma, pairs), config)
    if sum(abs(C[i, j]) for i, j in pairs) <= budget * (1.0 + 1e-9) + 1e-12:
        return C

    C = _gauss_fit_C(_gauss_problem(sigma, pairs, budget), config)
    off = np.abs(C[np.triu_indices(m, 1)])
    C[np.triu_indices(m, 1)] = np.where(off < ZERO_THRESHOLD, 0.0, C[np.triu_indices(m, 1)])
    C = np.triu(C) + np.triu(C, 1).T
    return C


def partial_correlations(C) -> np.ndarray:
    """Partial correlations -C_ij / sqrt(C_ii C_jj); unit diagonal by convention."""
    C = np.asarray(C, dtype=float)
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise DomainError("concentration matrix must be positive definite") from exc
    d = np.sqrt(np.diag(C))
    rho = -C / np.outer(d, d)
    np.fill_diagonal(rho, 1.0)
    return rho


# ---------------------------------------------------------------------------
# Predictive log-likelihood and cross-validation
# ---------------------------------------------------------------------------

def predictive_loglik(model: str, params, test) -> float:
    """Sum of test log-densities, normalized so the null model scores zero.

    For the gradient/mixture models ``params`` is (FrequencySet, theta) and
    the null is the uniform density; for the Gaussian model ``params`` is
    the concentration matrix and the null is the standard normal on the
    standardized scale.  A nonpositive test density or an indefinite
    Hessian at a test point yields -inf.
    """
    test = np.asarray(test, dtype=float)
    if model in ("sgm", "mixm"):
        freqs, theta = params
        try:
            p = (density_batch if model == "sgm" else mixm_density_batch)(freqs, theta, test)
        except IndefiniteHessianError:
            return float("-inf")
        if p.min() <= 0:
            return float("-inf")
        return float(np.log(p).sum())
    if model == "gauss":
        C = np.asarray(params, dtype=float)
        sign, logdet = np.linalg.slogdet(C)
        if sign <= 0:
            return float("-inf")
        quad = np.einsum("ti,ij,tj->t", test, C, test)
        return float(0.5 * (len(test) * logdet - quad.sum() + (test**2).sum()))
    raise DomainError(f"unknown model {model!r}")


@dataclass(frozen=True)
class CVResult:
    model: str
    taus: np.ndarray
    scores: np.ndarray
    best_tau: float
    folds: int
    seed: int


def cross_validate(
    raw,
    model: str,
    tau_grid=None,
    folds: int = 5,
    seed: int = 0,
    freqs: FrequencySet | None = None,
    preprocess_mode: str = "fold",
    config: maxdet.SolverConfig | None = None,
) -> CVResult:
    """K-fold cross-validated predictive log-likelihood over a tau grid.

    Fold assignment is a seeded permutation.  With ``preprocess_mode="fold"``
    the scaling statistics are fit on the training folds and applied to the
    held-out fold; ``"global"`` standardizes once on the full data;
    ``"none"`` uses the data as given (already on the model's scale).
    """
    raw = np.asarray(raw, dtype=float)
    n = raw.shape[0]
    if not (2 <= folds <= n):
        raise DataError("need 2 <= folds <= n")
    if preprocess_mode not in ("fold", "global", "none"):
        raise DomainError(f"unknown preprocess_mode {preprocess_mode!r}")
    taus = np.asarray(
        tau_grid if tau_grid is not None else np.arange(1, 11) / 10.0, dtype=float
    )
    if model in ("sgm", "mixm") and freqs is None:
        freqs = standard_freq_set(raw.shape[1])
    perm = np.random.default_rng(seed).permutation(n)
    fold_ids = np.array_split(perm, folds)
    global_scaler = Scaler.fit(raw) if preprocess_mode == "global" else None

    def transforms(scaler):
        if scaler is None:
            return (lambda d: d), (lambda d: d)
        return scaler.standardize, scaler.to_unit

    scores = np.zeros(len(taus))
    for test_idx in fold_ids:
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        train_raw, test_raw = raw[mask], raw[test_idx]
        if preprocess_mode == "fold":
            scaler = Scaler.fit(train_raw)
        else:
            scaler = global_scaler  # None when preprocessing is disabled
        to_std, to_unit = transforms(scaler)
        for i, tau in enumerate(taus):
            if model == "gauss":
                C = fit_gauss_lasso(to_std(train_raw), tau, config)
                scores[i] += predictive_loglik("gauss", C, to_std(test_raw))
            else:
                fit = _fit(model, to_unit(train_raw), freqs, LitRegion(tau), config)
                scores[i] += predictive_loglik(
                    model, (freqs, fit.theta), to_unit(test_raw)
                )
    best = float(taus[int(np.argmax(scores))])
    return CVResult(
        model=model, taus=taus, scores=scores, best_tau=best, folds=folds, seed=seed
    )
