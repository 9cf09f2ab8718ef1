import numpy as np
import pytest

import sgm
from sgm import DomainError, InfeasibleStartError
from sgm.maxdet import (
    AffineMatrix,
    MaxDetProblem,
    SolverConfig,
    barrier_step,
    kkt_residual,
    objective_eval,
    solve,
)

from conftest import fd_gradient, golden_section_max, random_maxdet_instance


def rand_sym(rng, s, scale=0.3):
    A = rng.normal(scale=scale, size=(s, s))
    return (A + A.T) / 2


def one_var_problem(c=0.7):
    """maximize log(1 + theta) subject to theta <= c."""
    return MaxDetProblem(
        nvars=1,
        objective_terms=(AffineMatrix(np.eye(1), np.ones((1, 1, 1))),),
        linear_constraints=((np.array([1.0]), c),),
    )


class TestProblemValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            AffineMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((1, 2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            MaxDetProblem(
                nvars=2,
                objective_terms=(AffineMatrix(np.eye(2), np.zeros((3, 2, 2))),),
            )

    def test_stacked_weight_of_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            AffineMatrix(np.eye(2), np.zeros((3, 1, 2, 2)), weight=np.ones(2))

    def test_stacked_base_count_mismatch_rejected(self):
        with pytest.raises(DomainError):
            AffineMatrix(np.stack([np.eye(2)] * 2), np.zeros((3, 1, 2, 2)))

    def test_asymmetric_slice_in_stack_rejected(self):
        coeffs = np.zeros((3, 1, 2, 2))
        coeffs[1, 0, 0, 1] = 0.5
        with pytest.raises(DomainError):
            AffineMatrix(np.eye(2), coeffs)

    def test_infeasible_start_raises(self):
        prob = MaxDetProblem(
            nvars=1,
            objective_terms=(AffineMatrix(np.eye(1), np.ones((1, 1, 1))),),
            linear_constraints=((np.array([1.0]), 0.0),),  # slack 0 at theta = 0
        )
        with pytest.raises(InfeasibleStartError):
            solve(prob)


class TestStackedMaps:
    """One stacked AffineMatrix is the same problem as its T single maps."""

    @staticmethod
    def both_forms(rng):
        T, p, s = int(rng.integers(2, 7)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        bases = np.eye(s) + np.stack([rand_sym(rng, s, 0.1) for _ in range(T)])
        coeffs = np.stack([[rand_sym(rng, s) for _ in range(p)] for _ in range(T)])
        weights = rng.uniform(0.5, 2.0, size=T)
        con = np.stack([[rand_sym(rng, s) for _ in range(p)] for _ in range(2)])
        lin = []
        for k in range(p):
            e = np.zeros(p)
            e[k] = 1.0
            lin += [(e.copy(), 1.0), (-e, 1.0)]
        stacked = MaxDetProblem(
            nvars=p,
            objective_terms=(AffineMatrix(bases, coeffs, weights),),
            psd_constraints=(AffineMatrix(1.5 * np.eye(s), con),),
            linear_constraints=tuple(lin),
        )
        separate = MaxDetProblem(
            nvars=p,
            objective_terms=tuple(
                AffineMatrix(bases[t], coeffs[t], weights[t]) for t in range(T)
            ),
            psd_constraints=tuple(AffineMatrix(1.5 * np.eye(s), c) for c in con),
            linear_constraints=tuple(lin),
        )
        return stacked, separate

    def test_objective_matches_separate_maps(self, rng):
        for _ in range(20):
            stacked, separate = self.both_forms(rng)
            theta = 0.05 * rng.normal(size=stacked.nvars)
            for a, b in zip(objective_eval(stacked, theta), objective_eval(separate, theta)):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_solve_matches_separate_maps(self, rng):
        for _ in range(10):
            stacked, separate = self.both_forms(rng)
            rep1, rep2 = solve(stacked), solve(separate)
            assert rep1.converged and rep2.converged
            np.testing.assert_allclose(rep1.theta, rep2.theta, rtol=0, atol=1e-9)

    def test_barrier_degree_counts_every_map(self, rng):
        stacked, separate = self.both_forms(rng)
        (con,) = stacked.psd_constraints
        assert con.count == 2
        assert stacked.barrier_degree == con.size * con.count + len(stacked.linear_constraints)
        assert stacked.barrier_degree == separate.barrier_degree


class TestKernels:
    """The whitening and curvature kernels against direct solve/einsum formulas."""

    @staticmethod
    def stack(rng, T, p, s):
        bases = np.eye(s) + np.stack([rand_sym(rng, s, 0.1) for _ in range(T)])
        coeffs = np.stack([[rand_sym(rng, s) for _ in range(p)] for _ in range(T)])
        return AffineMatrix(bases, coeffs, rng.uniform(0.5, 2.0, size=T))

    def test_whitening_matches_triangular_solves(self, rng):
        from sgm.maxdet import _whiten

        for T, p, s in [(1, 1, 1), (7, 3, 2), (40, 6, 5), (9, 4, 3)]:
            term = self.stack(rng, T, p, s)
            L = np.linalg.cholesky(term(0.05 * rng.normal(size=p)))
            X = np.linalg.solve(L[:, None], term.coeffs)
            ref = np.linalg.solve(L[:, None], X.transpose(0, 1, 3, 2))  # (T, p, s, s)
            W = _whiten(L, term.coeffs)
            assert W.shape == (p, T, s, s)
            np.testing.assert_allclose(W, ref.transpose(1, 0, 2, 3), rtol=0, atol=1e-12)

    def test_gradient_and_curvature_match_einsum(self, rng):
        for T, p, s in [(1, 1, 1), (7, 3, 2), (40, 6, 5), (9, 4, 3)]:
            term = self.stack(rng, T, p, s)
            theta = 0.05 * rng.normal(size=p)
            P = term(theta)
            Pinv_A = np.linalg.solve(P[:, None], term.coeffs)  # P_t^-1 A_tk
            w = term.weight
            grad = np.einsum("t,tkii->k", w, Pinv_A)
            hess = -np.einsum("t,tkij,tlji->kl", w, Pinv_A, Pinv_A)
            value = float(w @ np.linalg.slogdet(P)[1])
            prob = MaxDetProblem(nvars=p, objective_terms=(term,))
            val, g, H = objective_eval(prob, theta)
            assert val == pytest.approx(value, rel=0, abs=1e-12)
            np.testing.assert_allclose(g, grad, rtol=0, atol=1e-12)
            np.testing.assert_allclose(H, hess, rtol=0, atol=1e-12)


class TestObjectiveMap:
    """An objective map E = [I, -I] is the same problem as the explicitly split stack."""

    @staticmethod
    def both_forms(rng):
        T, k, s = int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        bases = np.eye(s) + np.stack([rand_sym(rng, s, 0.1) for _ in range(T)])
        coeffs = np.stack([[rand_sym(rng, s) for _ in range(k)] for _ in range(T)])
        weights = rng.uniform(0.5, 2.0, size=T)
        lin = []
        for i in range(2 * k):  # theta+/- >= -0.1 and a budget on their sum
            e = np.zeros(2 * k)
            e[i] = -1.0
            lin.append((e, 0.1))
        lin.append((np.ones(2 * k), 0.5))
        common = dict(nvars=2 * k, linear_constraints=tuple(lin),
                      linear_cost=0.1 * rng.normal(size=2 * k))
        mapped = MaxDetProblem(
            objective_terms=(AffineMatrix(bases, coeffs, weights),),
            objective_map=np.hstack([np.eye(k), -np.eye(k)]),
            **common,
        )
        split = MaxDetProblem(
            objective_terms=(
                AffineMatrix(bases, np.concatenate([coeffs, -coeffs], axis=1), weights),
            ),
            **common,
        )
        return mapped, split

    def test_evaluation_matches_split_stack(self, rng):
        for _ in range(20):
            mapped, split = self.both_forms(rng)
            theta = 0.05 * rng.normal(size=mapped.nvars)
            for a, b in zip(objective_eval(mapped, theta), objective_eval(split, theta)):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_solve_matches_split_stack(self, rng):
        for _ in range(10):
            mapped, split = self.both_forms(rng)
            rep1, rep2 = solve(mapped), solve(split)
            assert rep1.converged and rep2.converged
            np.testing.assert_allclose(rep1.theta, rep2.theta, rtol=0, atol=1e-9)

    def test_default_is_identity(self, rng):
        prob = random_maxdet_instance(rng)
        np.testing.assert_array_equal(prob.objective_map, np.eye(prob.nvars))

    @pytest.mark.parametrize("shape", [(3,), (3, 5), (4, 4), (1, 3, 4)])
    def test_wrong_shape_rejected(self, shape):
        # 4 variables, objective stack with 3 coefficient slices: E must be (3, 4)
        with pytest.raises(DomainError):
            MaxDetProblem(
                nvars=4,
                objective_terms=(AffineMatrix(np.eye(2), np.zeros((3, 2, 2))),),
                objective_map=np.zeros(shape),
            )


class TestObjectiveEval:
    def test_scalar_closed_form(self):
        A = np.array([[0.4, 0.1], [0.1, -0.2]])
        prob = MaxDetProblem(
            nvars=1, objective_terms=(AffineMatrix(np.eye(2), A[None]),)
        )
        val, g, H = objective_eval(prob, np.zeros(1))
        assert val == pytest.approx(0.0)
        assert g[0] == pytest.approx(np.trace(A))
        assert H[0, 0] == pytest.approx(-np.trace(A @ A))

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(30):
            prob = random_maxdet_instance(rng)
            theta = 0.05 * rng.normal(size=prob.nvars)
            _, g, _ = objective_eval(prob, theta)
            fd = fd_gradient(lambda t: objective_eval(prob, t, need_hess=False)[0], theta)
            assert np.abs(fd - g).max() < 1e-6 * (1 + np.abs(g).max())

    def test_curvature_negative_semidefinite(self, rng):
        for _ in range(30):
            prob = random_maxdet_instance(rng)
            theta = 0.05 * rng.normal(size=prob.nvars)
            _, _, H = objective_eval(prob, theta)
            assert np.linalg.eigvalsh(H).max() <= 1e-10

    def test_out_of_domain_raises(self):
        prob = one_var_problem()
        with pytest.raises(DomainError):
            objective_eval(prob, np.array([-2.0]))


class TestBarrierStep:
    def test_fixed_point_at_barrier_optimum(self):
        prob = one_var_problem()
        # center of log(1+t) + mu log(0.7 - t) at mu = 1 is t = -0.15
        theta = np.array([-0.15])
        out = barrier_step(prob, theta, 1.0)
        np.testing.assert_allclose(out, theta, atol=1e-8)

    def test_monotone_merit_over_50_steps(self, rng):
        from sgm.maxdet import _merit

        for _ in range(5):
            prob = random_maxdet_instance(rng)
            theta = np.zeros(prob.nvars)
            prev = _merit(prob, theta, 1.0)
            for _ in range(50):
                theta = barrier_step(prob, theta, 1.0)
                cur = _merit(prob, theta, 1.0)
                assert cur >= prev - 1e-10 * (1 + abs(prev))
                prev = cur

    def test_iterates_strictly_feasible(self, rng):
        for _ in range(5):
            prob = random_maxdet_instance(rng)
            theta = np.zeros(prob.nvars)
            for _ in range(20):
                theta = barrier_step(prob, theta, 0.3)
                for a, b in prob.linear_constraints:
                    assert b - a @ theta > 0
                for con in prob.psd_constraints:
                    assert np.linalg.eigvalsh(con(theta)).min() > 0


class TestKKTResidual:
    def test_unconstrained_equals_gradient_norm(self, rng):
        prob = MaxDetProblem(
            nvars=2,
            objective_terms=(
                AffineMatrix(np.eye(2), np.stack([rand_sym(rng, 2) for _ in range(2)])),
            ),
        )
        theta = 0.05 * rng.normal(size=2)
        _, g, _ = objective_eval(prob, theta)
        assert kkt_residual(prob, theta) == pytest.approx(np.linalg.norm(g))

    def test_zero_at_optimum_and_grows_linearly(self):
        prob = one_var_problem()
        rep = solve(prob)
        assert rep.kkt_residual <= 1e-8
        r1 = kkt_residual(prob, rep.theta - 1e-4)
        r2 = kkt_residual(prob, rep.theta - 2e-4)
        r4 = kkt_residual(prob, rep.theta - 4e-4)
        assert 1.5 < r2 / r1 < 2.5
        assert 1.5 < r4 / r2 < 2.5


class TestSolve:
    def test_monotone_objective_hits_constraint(self):
        rep = solve(one_var_problem(0.7))
        assert rep.converged
        assert rep.theta[0] == pytest.approx(0.7, abs=1e-6)

    def test_matches_golden_section_one_var(self, rng):
        for _ in range(10):
            a = float(rng.uniform(0.3, 1.5))
            c = float(rng.uniform(0.2, 1.0))
            A = np.array([[[a]]])
            prob = MaxDetProblem(
                nvars=1,
                objective_terms=(
                    AffineMatrix(np.eye(1), A),
                    AffineMatrix(2.0 * np.eye(1), -0.5 * A),
                ),
                linear_constraints=((np.array([1.0]), c), (np.array([-1.0]), c)),
            )
            rep = solve(prob)
            assert rep.converged

            def f(t):
                if abs(t) >= c or 1 + a * t <= 0 or 2 - 0.5 * a * t <= 0:
                    return -np.inf
                return np.log(1 + a * t) + np.log(2 - 0.5 * a * t)

            oracle = golden_section_max(f, -c, c)
            assert rep.theta[0] == pytest.approx(oracle, abs=1e-6)

    def test_analytic_center_with_no_objective_terms(self):
        # symmetric box: the analytic center is the origin
        prob = MaxDetProblem(
            nvars=1,
            objective_terms=(),
            linear_constraints=((np.array([1.0]), 1.0), (np.array([-1.0]), 1.0)),
        )
        rep = solve(prob)
        assert rep.converged
        assert rep.theta[0] == pytest.approx(0.0, abs=1e-9)
        assert np.isfinite(rep.objective)
        assert rep.kkt_residual <= 1e-9

    def test_random_instances_converge_with_small_kkt(self, rng):
        for _ in range(25):
            prob = random_maxdet_instance(rng)
            rep = solve(prob)
            assert rep.converged, rep.message
            assert rep.kkt_residual <= 1e-8
            for a, b in prob.linear_constraints:
                assert b - a @ rep.theta > 0
            for con in prob.psd_constraints:
                assert np.linalg.eigvalsh(con(rep.theta)).min() > 0

    def test_outer_path_monotone(self, rng):
        for _ in range(10):
            prob = random_maxdet_instance(rng)
            rep = solve(prob)
            objs = [v for _, v in rep.path]
            assert all(b >= a - 1e-10 for a, b in zip(objs, objs[1:]))

    def test_objective_not_below_start(self, rng):
        for _ in range(10):
            prob = random_maxdet_instance(rng)
            rep = solve(prob)
            start, _, _ = objective_eval(prob, np.zeros(prob.nvars), need_hess=False)
            assert rep.objective >= start - 1e-9

    def test_deterministic(self, rng):
        prob = random_maxdet_instance(rng)
        rep1 = solve(prob)
        rep2 = solve(prob)
        assert np.array_equal(rep1.theta, rep2.theta)
        assert rep1.path == rep2.path

    def test_nonconvergence_flagged_on_unbounded(self):
        # unbounded: log(1 + theta) with no constraints
        prob = MaxDetProblem(
            nvars=1, objective_terms=(AffineMatrix(np.eye(1), np.ones((1, 1, 1))),)
        )
        rep = solve(prob, SolverConfig(max_newton=20))
        assert not rep.converged
        assert rep.message != ""

    def test_mle_recovery_correlation_model(self):
        # n = 400 samples at theta = 0.5; estimate within 3 / sqrt(n J)
        fs = sgm.FrequencySet.from_vectors([[1, 1]])
        data = sgm.sample_sgm(fs, [0.5], 400, seed=11)
        fit = sgm.fit_sgm(data, fs, sgm.LitRegion(1.0))
        J = sgm.fisher_closed_corr(0.5)
        assert abs(fit.theta[0] - 0.5) <= 3.0 / np.sqrt(400 * J)
