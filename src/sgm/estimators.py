"""Statistical estimation.

Constrained maximum likelihood for the gradient and mixture models over the
lattice and L1-type regions (the latter giving a lasso-type sparse
estimator), the graphical Gaussian lasso baseline, column preprocessing,
predictive log-likelihood against the null model, cross-validation of the
tuning parameter, and the five-dimensional benchmark replication experiment
(``simulate``) that compares the three models.  ``cross_validate`` and
``simulate`` take ``jobs`` and run their chunks of tau grid or replicates in
a process pool of at most one worker per work item.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import maxdet, sampling
from .errors import (
    ConstantColumnError,
    DataError,
    DomainError,
    IndefiniteHessianError,
    NumericalError,
    SgmError,
)
from .feasibility import LatticeRegion, LitRegion, Region, _lit_weights, km_factors, lattice_points
from .model import FrequencySet, _density_fn, _term_values, fisher_origin, standard_freq_set

logger = logging.getLogger("sgm.estimators")

# Lasso-split coefficients this close to the split-variable boundary are
# reported as exact zeros (L1-type regions only).
ZERO_THRESHOLD = 1e-8

# Standard normal CDF, Phi(x) = erfc(-x / sqrt 2) / 2, elementwise.
_normal_cdf = np.frompyfunc(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)), 1, 1)


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
        return _normal_cdf(self.standardize(raw)).astype(float)


def preprocess(raw) -> tuple[np.ndarray, np.ndarray]:
    """Standardize columns and map them through the normal CDF onto (0,1)."""
    scaler = Scaler.fit(raw)
    return scaler.standardize(raw), scaler.to_unit(raw)


# ---------------------------------------------------------------------------
# Gradient / mixture model fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    theta: np.ndarray      # thresholded coefficients
    theta_raw: np.ndarray  # raw solver output
    loglik: float
    scaled: np.ndarray     # sqrt(J_uu) * theta
    report: maxdet.SolveReport


def _check_unit_data(data, m) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise DataError("data must be a nonempty (n, m) array")
    if data.shape[1] != m:
        raise DataError(f"data has {data.shape[1]} columns, model expects {m}")
    if not ((data >= 0) & (data <= 1)).all():  # NaN fails too
        raise DataError("data entries must lie in [0, 1]; run preprocessing first")
    return data


def _lasso_split(m, rows, budget):
    """Objective map and linear constraints A theta < b of a lasso split.

    The variables are m unsplit ones, then the parts z+ and z- of k split
    ones; the map blockdiag(I_m, [I_k, -I_k]) gives (unsplit, z+ - z-).  Each
    split part is >= -delta and each budget row r of the (R, k) ``rows`` gives
    r'(z+ + z-) <= budget - 2 delta sum(r), delta = budget / (4 max sum(r)),
    so theta = 0 is strictly feasible.
    """
    R, k = rows.shape
    nvars = m + 2 * k
    E = np.zeros((m + k, nvars))
    E[:m, :m] = np.eye(m)
    E[m:, m:] = np.hstack([np.eye(k), -np.eye(k)])
    sums = rows.sum(axis=1)
    delta = budget / (4.0 * sums.max())
    A = np.zeros((2 * k + R, nvars))
    A[:2 * k, m:] = -np.eye(2 * k)
    A[2 * k:, m:] = np.hstack([rows, rows])
    b = np.concatenate([np.full(2 * k, delta), budget - 2.0 * delta * sums])
    return E, A, b


def _fit(model, data, freqs, region):
    """Pose the region's MAXDET problem over the data and solve it."""
    data = _check_unit_data(data, freqs.dim)
    if isinstance(region, LitRegion):
        if region.tau == 0.0:  # the budget fixes theta = 0, where every log det is 0
            theta_raw = np.zeros(freqs.size)
            report = maxdet.SolveReport(
                theta=theta_raw, objective=0.0, kkt_residual=0.0, newton_iterations=0,
                outer_iterations=0, converged=True, mu_final=0.0,
                message="tau = 0 fixes theta = 0",
            )
        else:
            base, B = _term_values(model, freqs, data)
            W = _lit_weights(freqs, model)  # its nonzero columns are the budget rows
            E, A, b = _lasso_split(0, W[:, W.any(axis=0)].T, region.tau)
            report = maxdet.solve(maxdet.MaxDetProblem(
                nvars=E.shape[1], objective=maxdet.AffineMatrix(base, B), A=A, b=b,
                objective_map=E,
            ))
            theta_raw = E @ report.theta
        theta = np.where(np.abs(theta_raw) < ZERO_THRESHOLD, 0.0, theta_raw)
    elif isinstance(region, LatticeRegion):
        lattice = lattice_points(freqs.dim, region.M)
        base, B = _term_values(model, freqs, data)
        _, lat_B = _term_values(model, freqs, lattice)
        report = maxdet.solve(maxdet.MaxDetProblem(
            nvars=freqs.size,
            objective=maxdet.AffineMatrix(base, B),
            psd_constraint=maxdet.AffineMatrix(base, lat_B / km_factors(freqs, region.M)),
        ))
        theta_raw = report.theta
        # no split variables: zeroing small entries could leave the region
        theta = theta_raw.copy()
    else:
        raise DomainError(f"unknown region {region!r}")
    return FitResult(
        theta=theta,
        theta_raw=theta_raw,
        loglik=report.objective,
        scaled=np.sqrt(fisher_origin(freqs)) * theta,
        report=report,
    )


def fit_sgm(data, freqs: FrequencySet, region: Region) -> FitResult:
    """Constrained maximum likelihood for the gradient model.

    One log-det objective term per sample.  Lattice regions add a
    positive-definiteness constraint at every lattice point on the rescaled
    coefficients; L1-type regions split each coefficient into nonnegative
    parts under per-axis budget constraints, which makes the fit sparse.
    """
    return _fit("sgm", data, freqs, region)


def fit_mixm(data, freqs: FrequencySet, region: Region) -> FitResult:
    """Constrained maximum likelihood for the mixture model (scalar terms)."""
    return _fit("mixm", data, freqs, region)


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


def _gauss_problem(sigma, pairs, budget):
    """Concentration-matrix problem with C = I + X, maximizing logdet - trace.

    The objective sees z, the diagonal of X then its off-diagonal pairs,
    which are lasso-split under the L1 budget; its one svec stack holds a
    one in the row of each variable's entry.
    """
    m, q = sigma.shape[0], len(pairs)
    ends = np.array([(i, i) for i in range(m)] + pairs)  # (m + q, 2) matrix entries
    j, l = np.triu_indices(m)
    B = (j[:, None] == ends[:, 0]) & (l[:, None] == ends[:, 1])
    cost = -np.where(ends[:, 0] == ends[:, 1], 1.0, 2.0) * sigma[ends[:, 0], ends[:, 1]]
    E, A, b = _lasso_split(m, np.ones((1, q)), budget)
    return maxdet.MaxDetProblem(
        nvars=E.shape[1],
        objective=maxdet.AffineMatrix(np.eye(m), B),
        A=A,
        b=b,
        linear_cost=E.T @ cost,
        objective_map=E,
    )


def fit_gauss_lasso(standardized, tau: float) -> np.ndarray:
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
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise DataError("sample correlation matrix is singular") from exc
    inv = np.linalg.inv(sigma)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    off_l1 = sum(abs(inv[i, j]) for i, j in pairs)
    budget = tau * off_l1
    if budget <= 0.0 or not pairs:
        return np.diag(1.0 / np.diag(sigma))
    if off_l1 <= budget * (1.0 + 1e-9) + 1e-12:
        return 0.5 * (inv + inv.T)  # the unconstrained MLE satisfies the budget

    problem = _gauss_problem(sigma, pairs, budget)
    C = problem.objective(problem.objective_map @ maxdet.solve(problem).theta)[0]
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
            p = _density_fn(freqs, theta, model)(test)
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
    taus: np.ndarray
    scores: np.ndarray
    best_tau: float


def _map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], in min(jobs, len(items)) processes when that is > 1."""
    workers = min(jobs, len(items))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def cross_validate(
    raw,
    model: str,
    tau_grid=None,
    folds: int = 5,
    seed: int = 0,
    preprocess_mode: str = "fold",
    jobs: int = 1,
) -> CVResult:
    """K-fold cross-validated predictive log-likelihood over a tau grid.

    Fold assignment is a seeded permutation.  With ``preprocess_mode="fold"``
    the scaling statistics are fit on the training folds and applied to the
    held-out fold; ``"global"`` standardizes once on the full data;
    ``"none"`` uses the data as given (already on the model's scale).  The
    gradient and mixture models use the standard frequency set.  The grid is
    split into min(jobs, len(grid)) consecutive chunks, each scored over all
    folds by one worker; the scores do not depend on ``jobs``.
    """
    raw = np.asarray(raw, dtype=float)
    if not (2 <= folds <= raw.shape[0]):
        raise DataError("need 2 <= folds <= n")
    if preprocess_mode not in ("fold", "global", "none"):
        raise DomainError(f"unknown preprocess_mode {preprocess_mode!r}")
    taus = np.asarray(
        tau_grid if tau_grid is not None else np.arange(1, 11) / 10.0, dtype=float
    )
    if taus.ndim != 1 or len(taus) == 0:
        raise DomainError("tau_grid must be a nonempty list of taus")
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    chunks = np.array_split(taus, min(jobs, len(taus)))
    payloads = [(raw, model, chunk, folds, seed, preprocess_mode) for chunk in chunks]
    scores = np.concatenate(_map(_cv_scores, payloads, jobs))
    return CVResult(taus=taus, scores=scores, best_tau=float(taus[int(np.argmax(scores))]))


def _cv_scores(payload) -> np.ndarray:
    """Held-out scores of one chunk of the tau grid, summed over the folds."""
    raw, model, taus, folds, seed, preprocess_mode = payload
    n = raw.shape[0]
    freqs = standard_freq_set(raw.shape[1]) if model in ("sgm", "mixm") else None
    perm = np.random.default_rng(seed).permutation(n)
    fold_ids = np.array_split(perm, folds)
    global_scaler = Scaler.fit(raw) if preprocess_mode == "global" else None
    scores = np.zeros(len(taus))
    for test_idx in fold_ids:
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        train_raw, test_raw = raw[mask], raw[test_idx]
        scaler = Scaler.fit(train_raw) if preprocess_mode == "fold" else global_scaler
        if scaler is None:  # preprocessing disabled
            to_std = to_unit = np.asarray
        else:
            to_std, to_unit = scaler.standardize, scaler.to_unit
        for i, tau in enumerate(taus):
            if model == "gauss":
                C = fit_gauss_lasso(to_std(train_raw), tau)
                scores[i] += predictive_loglik("gauss", C, to_std(test_raw))
            else:
                fit = _fit(model, to_unit(train_raw), freqs, LitRegion(tau))
                scores[i] += predictive_loglik(
                    model, (freqs, fit.theta), to_unit(test_raw)
                )
    return scores


# ---------------------------------------------------------------------------
# Benchmark replication experiment
# ---------------------------------------------------------------------------

def _simulate_replicate(payload):
    """One replicate's summaries, or its index and error if it fails (recorded, not fatal)."""
    (index, seed, n, n_test, tau, tau_gauss) = payload
    fs = standard_freq_set(5)
    try:
        raw = sampling.sample_benchmark5(n, int(seed))
        test_raw = sampling.sample_benchmark5(n_test, int(seed) + 2**31)
        scaler = Scaler.fit(raw)
        unit, std = scaler.to_unit(raw), scaler.standardize(raw)
        unit_t, std_t = scaler.to_unit(test_raw), scaler.standardize(test_raw)
        fit_s = fit_sgm(unit, fs, LitRegion(tau))
        fit_m = fit_mixm(unit, fs, LitRegion(tau))
        C = fit_gauss_lasso(std, tau)
        C_pred = C if tau_gauss == tau else fit_gauss_lasso(std, tau_gauss)
        return {
            "index": index,
            "sgm_scaled": fit_s.scaled.tolist(),
            "mixm_scaled": fit_m.scaled.tolist(),
            "partial_corr": partial_correlations(C).tolist(),
            "pred": {
                "sgm": predictive_loglik("sgm", (fs, fit_s.theta), unit_t),
                "mixm": predictive_loglik("mixm", (fs, fit_m.theta), unit_t),
                "gauss": predictive_loglik("gauss", C_pred, std_t),
            },
        }
    except SgmError as exc:
        return {"index": index, "error": str(exc)}


def simulate(
    replicates: int = 20,
    n: int = 40,
    n_test: int = 10,
    seed: int = 0,
    tau: float = 1.0,
    tau_gauss_predict: float = 0.32,
    jobs: int = 1,
) -> dict:
    """Benchmark experiment: draw five-dimensional data, fit all three models,
    and aggregate scaled coefficients and held-out predictive log-likelihood."""
    fs = standard_freq_set(5)
    rep_seeds = np.random.SeedSequence(seed).generate_state(replicates)
    payloads = [
        (i, int(rep_seeds[i]), n, n_test, tau, tau_gauss_predict)
        for i in range(replicates)
    ]
    outs = _map(_simulate_replicate, payloads, jobs)
    results = [out for out in outs if "error" not in out]
    failures = [out for out in outs if "error" in out]
    if not results:
        first = f": replicate {failures[0]['index']}: {failures[0]['error']}" if failures else ""
        raise NumericalError(f"no replicate completed{first}")

    def agg(key):
        arr = np.array([r[key] for r in results])
        mean = arr.mean(axis=0)
        half = 1.96 * arr.std(axis=0, ddof=1) / np.sqrt(len(arr)) if len(arr) > 1 else 0 * mean
        return mean, half

    sgm_mean, sgm_half = agg("sgm_scaled")
    mixm_mean, mixm_half = agg("mixm_scaled")
    rho = np.array([r["partial_corr"] for r in results])
    pred = {
        k: np.array([r["pred"][k] for r in results]) for k in ("sgm", "mixm", "gauss")
    }
    order = np.argsort(-np.abs(sgm_mean))
    return {
        "replicates": len(results),
        "frequencies": fs.freqs.tolist(),
        "sgm": {
            "mean_scaled": sgm_mean.tolist(),
            "ci95_half_width": sgm_half.tolist(),
            "top_by_magnitude": [
                {"u": fs.freqs[i].tolist(), "mean_scaled": float(sgm_mean[i])}
                for i in order[:10]
            ],
        },
        "mixm": {"mean_scaled": mixm_mean.tolist(), "ci95_half_width": mixm_half.tolist()},
        "gauss": {"mean_partial_corr": rho.mean(axis=0).tolist()},
        "predictive": {
            k: {
                "mean": float(v.mean()),
                "se": float(v.std(ddof=1) / np.sqrt(len(v))) if len(v) > 1 else 0.0,
                "values": v.tolist(),
            }
            for k, v in pred.items()
        },
        "failures": failures,
    }
