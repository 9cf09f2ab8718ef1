import numpy as np
import pytest

import sgm
from sgm import ConstantColumnError, DataError, FrequencySet
from sgm.estimators import ZERO_THRESHOLD
from sgm.feasibility import LatticeRegion, LitRegion

U11 = FrequencySet.from_vectors([[1, 1]])


class TestPreprocess:
    def test_two_point_column(self):
        std, unit = sgm.preprocess(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(std[:, 0], [-1.0, 1.0])
        np.testing.assert_allclose(
            unit[:, 0], [0.15865525393145707, 0.8413447460685429], atol=1e-12
        )

    def test_idempotent_on_standardized(self, rng):
        raw = rng.normal(size=(50, 3))
        std, _ = sgm.preprocess(raw)
        std2, _ = sgm.preprocess(std)
        np.testing.assert_allclose(std, std2, atol=1e-12)

    def test_monotone_unit_map(self, rng):
        raw = rng.normal(size=(30, 1))
        _, unit = sgm.preprocess(raw)
        assert np.array_equal(np.argsort(raw[:, 0]), np.argsort(unit[:, 0]))
        assert (unit > 0).all() and (unit < 1).all()

    def test_constant_column_rejected(self):
        with pytest.raises(ConstantColumnError):
            sgm.preprocess(np.array([[1.0, 2.0], [1.0, 3.0]]))

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            sgm.preprocess(np.array([[1.0, 2.0]]))


class TestFitSgm:
    def test_tau_zero_returns_exact_zero(self, rng):
        fs = sgm.standard_freq_set(2)
        fit = sgm.fit_sgm(rng.random((50, 2)), fs, LitRegion(0.0))
        assert np.array_equal(fit.theta, np.zeros(fs.size))
        assert fit.loglik == 0.0

    def test_uniform_data_small_scaled_estimates(self):
        fs = sgm.standard_freq_set(2)
        data = np.random.default_rng(21).random((200, 2))
        fit = sgm.fit_sgm(data, fs, LitRegion(1.0))
        assert np.abs(fit.scaled).max() < 4.0 / np.sqrt(200)
        assert fit.report.converged

    def test_scaled_estimates_match_null_dispersion(self):
        # replicate simulation: empirical sd of scaled estimates ~ 1/sqrt(n)
        fs = sgm.standard_freq_set(2)
        n, reps = 200, 12
        scaled = []
        for rep in range(reps):
            data = np.random.default_rng(100 + rep).random((n, 2))
            scaled.append(sgm.fit_sgm(data, fs, LitRegion(1.0)).scaled)
        sd = np.array(scaled).std()
        assert 0.7 / np.sqrt(n) < sd < 1.3 / np.sqrt(n)

    def test_estimate_strictly_inside_region(self, rng):
        fs = sgm.standard_freq_set(2)
        fit = sgm.fit_sgm(rng.random((80, 2)), fs, LitRegion(0.5))
        assert sgm.lit_margin(fs, fit.theta, 0.5) > 0

    def test_lattice_estimate_inside_region(self, rng):
        fs = sgm.standard_freq_set(2)
        fit = sgm.fit_sgm(rng.random((60, 2)), fs, LatticeRegion(4))
        check = sgm.lattice_feasible(fs, fit.theta, 4)
        assert check.feasible

    def test_lattice_theta_is_not_thresholded(self):
        # theta_raw has one coefficient of 1.6e-10 on an active lattice
        # constraint: zeroing it, as the lit route does with split variables,
        # moves the lattice margin from +1.2e-11 to -3.1e-10, outside the region
        fs = sgm.standard_freq_set(3)
        truth = {(1, 2, 0): 0.1, (0, 1, 1): 0.3, (1, 1, 1): 0.2}
        theta = np.array([truth.get(tuple(u), 0.0) for u in fs.freqs.tolist()])
        data = sgm.sample_sgm(fs, theta, 100, seed=29)
        fit = sgm.fit_sgm(data, fs, LatticeRegion(5))
        assert 0 < np.abs(fit.theta_raw).min() < ZERO_THRESHOLD
        assert sgm.lattice_feasible(fs, fit.theta, 5).feasible
        np.testing.assert_array_equal(fit.theta, fit.theta_raw)

    def test_lattice_resolution_too_coarse_rejected(self, rng):
        fs = sgm.standard_freq_set(2)  # u_max = 2 needs M >= 3
        from sgm.errors import DomainError

        with pytest.raises(DomainError):
            sgm.fit_sgm(rng.random((30, 2)), fs, LatticeRegion(2))

    def test_sparsity_at_small_tau(self):
        fs = sgm.standard_freq_set(2)
        data = np.random.default_rng(3).random((120, 2))
        fit = sgm.fit_sgm(data, fs, LitRegion(0.05))
        assert (fit.theta == 0.0).sum() >= 1
        assert np.abs(fit.theta_raw[fit.theta == 0.0]).max() < ZERO_THRESHOLD

    def test_training_loglik_monotone_in_tau(self):
        fs = sgm.FrequencySet.from_vectors([[1, 1]])
        data = sgm.sample_sgm(fs, [0.6], 150, seed=13)
        logliks = [
            sgm.fit_sgm(data, fs, LitRegion(t)).loglik for t in (0.2, 0.4, 0.7, 1.0)
        ]
        for a, b in zip(logliks, logliks[1:]):
            assert b >= a - 1e-6

    def test_rejects_data_outside_cube(self):
        fs = sgm.standard_freq_set(2)
        with pytest.raises(DataError):
            sgm.fit_sgm(np.array([[0.5, 1.7]]), fs, LitRegion(1.0))

    def test_rejects_empty_data(self):
        fs = sgm.standard_freq_set(2)
        with pytest.raises(DataError):
            sgm.fit_sgm(np.zeros((0, 2)), fs, LitRegion(1.0))


class TestFitMixm:
    def test_tau_zero(self, rng):
        fs = sgm.standard_freq_set(2)
        fit = sgm.fit_mixm(rng.random((50, 2)), fs, LitRegion(0.0))
        assert np.array_equal(fit.theta, np.zeros(fs.size))

    def test_one_dimensional_models_coincide(self):
        fs = sgm.standard_freq_set(1)
        data = np.random.default_rng(17).random((150, 1))
        fit_s = sgm.fit_sgm(data, fs, LitRegion(1.0))
        fit_m = sgm.fit_mixm(data, fs, LitRegion(1.0))
        np.testing.assert_allclose(fit_s.theta, fit_m.theta, atol=1e-9)
        assert fit_s.loglik == pytest.approx(fit_m.loglik, abs=1e-9)

    def test_uniform_data_small_estimates(self):
        fs = sgm.standard_freq_set(2)
        data = np.random.default_rng(23).random((200, 2))
        fit = sgm.fit_mixm(data, fs, LitRegion(1.0))
        assert np.abs(fit.scaled).max() < 4.0 / np.sqrt(200)

    def test_lattice_region(self, rng):
        fs = sgm.standard_freq_set(1)
        fit = sgm.fit_mixm(rng.random((60, 1)), fs, LatticeRegion(5))
        assert fit.report.converged


class TestGaussLasso:
    @staticmethod
    def correlation(std):
        S = std.T @ std / len(std)
        d = np.sqrt(np.diag(S))
        return S / np.outer(d, d)

    def test_tau_one_is_inverse_correlation(self, rng):
        raw = rng.multivariate_normal(
            np.zeros(3), [[1, 0.5, 0.2], [0.5, 1, 0.1], [0.2, 0.1, 1]], size=150
        )
        std, _ = sgm.preprocess(raw)
        C = sgm.fit_gauss_lasso(std, 1.0)
        np.testing.assert_allclose(C, np.linalg.inv(self.correlation(std)), atol=1e-6)

    def test_tau_zero_is_diagonal(self, rng):
        std, _ = sgm.preprocess(rng.normal(size=(60, 3)))
        C = sgm.fit_gauss_lasso(std, 0.0)
        S = self.correlation(std)
        np.testing.assert_allclose(C, np.diag(1.0 / np.diag(S)), atol=1e-12)

    def test_identity_correlation_gives_identity(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(2000, 2))
        std, _ = sgm.preprocess(raw)
        # orthogonalize exactly so the sample correlation is the identity
        q, _ = np.linalg.qr(std)
        std = q * np.sqrt(len(std)) / np.linalg.norm(q, axis=0)
        for tau in (0.0, 0.3, 1.0):
            C = sgm.fit_gauss_lasso(std, tau)
            np.testing.assert_allclose(C, np.eye(2), atol=1e-6)

    def test_budget_respected(self, rng):
        raw = rng.multivariate_normal(
            np.zeros(3), [[1, 0.7, 0.3], [0.7, 1, 0.2], [0.3, 0.2, 1]], size=200
        )
        std, _ = sgm.preprocess(raw)
        inv = np.linalg.inv(self.correlation(std))
        full = np.abs(inv[np.triu_indices(3, 1)]).sum()
        for tau in (0.3, 0.6):
            C = sgm.fit_gauss_lasso(std, tau)
            assert np.abs(C[np.triu_indices(3, 1)]).sum() <= tau * full * (1 + 1e-6)
            np.linalg.cholesky(C)  # positive definite

    def test_singular_correlation_rejected(self):
        raw = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        std, _ = sgm.preprocess(raw)
        with pytest.raises(DataError):
            sgm.fit_gauss_lasso(std, 1.0)

    def test_scale_equivariance(self, rng):
        # affine rescaling of raw columns leaves the standardized fit unchanged
        raw = rng.multivariate_normal(
            np.zeros(3), [[1, 0.6, 0.1], [0.6, 1, 0.2], [0.1, 0.2, 1]], size=120
        )
        rescaled = raw * np.array([3.0, 0.2, 40.0]) + np.array([-5.0, 2.0, 100.0])
        std1, _ = sgm.preprocess(raw)
        std2, _ = sgm.preprocess(rescaled)
        for tau in (0.4, 1.0):
            C1 = sgm.fit_gauss_lasso(std1, tau)
            C2 = sgm.fit_gauss_lasso(std2, tau)
            np.testing.assert_allclose(C1, C2, atol=1e-9)


class TestPartialCorrelations:
    def test_diagonal_gives_zero(self):
        rho = sgm.partial_correlations(np.diag([2.0, 3.0, 1.5]))
        np.testing.assert_allclose(rho - np.eye(3), 0.0, atol=1e-14)

    def test_two_by_two(self):
        rho = sgm.partial_correlations(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        assert rho[0, 1] == pytest.approx(0.5)

    def test_bounded_by_one(self, rng):
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            C = A @ A.T + 0.5 * np.eye(4)
            rho = sgm.partial_correlations(C)
            assert np.abs(rho).max() <= 1 + 1e-12


class TestPredictiveLoglik:
    def test_null_models_score_zero(self, rng):
        fs = sgm.standard_freq_set(2)
        test = rng.random((40, 2))
        assert sgm.predictive_loglik("sgm", (fs, np.zeros(fs.size)), test) == 0.0
        assert sgm.predictive_loglik("mixm", (fs, np.zeros(fs.size)), test) == 0.0
        std = rng.normal(size=(40, 2))
        assert sgm.predictive_loglik("gauss", np.eye(2), std) == pytest.approx(0.0)

    def test_true_model_beats_null_on_average(self):
        theta = [0.6]
        big = sgm.sample_sgm(U11, theta, 30000, seed=31)
        val = sgm.predictive_loglik("sgm", (U11, np.array(theta)), big)
        assert val / len(big) > 0.01  # KL(p || uniform) > 0

    def test_nonpositive_density_gives_minus_inf(self):
        fs = FrequencySet.from_vectors([[1]])
        test = np.array([[0.99]])
        assert sgm.predictive_loglik("mixm", (fs, np.array([1.2])), test) == -np.inf

    def test_indefinite_hessian_gives_minus_inf(self):
        # two negative Hessian eigenvalues: det > 0, but theta is infeasible here
        test = np.array([[0.9, 0.1]])
        assert sgm.predictive_loglik("sgm", (U11, np.array([1.8])), test) == -np.inf


class TestCrossValidate:
    def test_leave_one_out_smoke(self):
        rng = np.random.default_rng(41)
        raw = rng.normal(size=(12, 2))
        res = sgm.cross_validate(raw, "gauss", tau_grid=[0.5, 1.0], folds=12, seed=0)
        assert np.isfinite(res.scores).all()

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        raw = rng.normal(size=(30, 2))
        a = sgm.cross_validate(raw, "sgm", tau_grid=[0.2, 1.0], folds=3, seed=5)
        b = sgm.cross_validate(raw, "sgm", tau_grid=[0.2, 1.0], folds=3, seed=5)
        assert np.array_equal(a.scores, b.scores)
        assert a.best_tau == b.best_tau

    def test_uniform_data_prefers_small_tau(self):
        # the null model is true: large tau overfits more often than not
        wins = 0
        for rep in range(5):
            raw = np.random.default_rng(600 + rep).normal(size=(60, 2))
            res = sgm.cross_validate(raw, "sgm", tau_grid=[0.1, 1.0], folds=3, seed=rep)
            wins += res.best_tau == 0.1
        assert wins >= 3

    def test_signal_data_prefers_positive_tau(self):
        fs7 = FrequencySet.from_vectors([[1, 2, 0], [0, 1, 1], [1, 1, 1]])
        theta = np.zeros(3)
        theta[fs7.index((1, 2, 0))] = 0.1
        theta[fs7.index((0, 1, 1))] = 0.3
        theta[fs7.index((1, 1, 1))] = 0.2
        unit = sgm.sample_sgm(fs7, theta, 150, seed=71)
        # map through the inverse normal CDF so preprocessing reproduces unit data
        from scipy.special import ndtri

        raw = ndtri(unit)
        res = sgm.cross_validate(raw, "sgm", tau_grid=[0.0, 0.3, 0.6, 1.0], folds=3, seed=2)
        assert res.best_tau > 0.0  # some positive tau beats the null model

    def test_constant_column_propagates(self, rng):
        raw = rng.normal(size=(20, 2))
        raw[:, 1] = 3.0
        with pytest.raises(ConstantColumnError):
            sgm.cross_validate(raw, "sgm", tau_grid=[0.5], folds=4, seed=0)

    def test_validation(self):
        with pytest.raises(DataError):
            sgm.cross_validate(np.zeros((5, 2)), "sgm", folds=6)
