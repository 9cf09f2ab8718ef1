import numpy as np
import pytest

import sgm
from sgm import DomainError, InfeasibleStartError, maxdet
from sgm.maxdet import (
    AffineMatrix,
    MaxDetProblem,
    _newton_step,
    kkt_residual,
    objective_eval,
    solve,
)

from conftest import fd_gradient, golden_section_max, random_maxdet_instance, svec, svec_stack


def rand_sym(rng, s, scale=0.3):
    A = rng.normal(scale=scale, size=(s, s))
    return (A + A.T) / 2


def one_var_problem(c=0.7):
    """maximize log(1 + theta) subject to theta <= c."""
    return MaxDetProblem(
        nvars=1, objective=AffineMatrix(np.eye(1), np.ones((1, 1))), A=np.ones((1, 1)), b=[c]
    )


def assert_strictly_feasible(prob, theta):
    assert (prob.b - prob.A @ theta > 0).all()
    if prob.psd_constraint is not None:
        assert np.linalg.eigvalsh(prob.psd_constraint(theta)).min() > 0


class TestProblemValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            AffineMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((3, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            MaxDetProblem(nvars=2, objective=AffineMatrix(np.eye(2), np.zeros((3, 3))))

    # s = 2 needs s' = 3 svec rows; dense (p, s, s) and (T, p, s, s) stacks are not svec
    @pytest.mark.parametrize("shape", [(2, 1), (4, 1), (3, 2, 1), (1, 2, 2), (3, 1, 2, 2)])
    def test_wrong_svec_length_rejected(self, shape):
        with pytest.raises(DomainError):
            AffineMatrix(np.eye(2), np.zeros(shape))

    def test_single_map_accepted(self, rng):
        B = rng.normal(size=(3, 4))
        one = AffineMatrix(np.eye(2), B, weight=0.5)
        assert one.count == 1 and one.B.shape == (1, 3, 4)
        np.testing.assert_array_equal(one.weight, [0.5])
        theta = rng.normal(size=4)
        np.testing.assert_array_equal(one(theta), AffineMatrix(np.eye(2), B[None])(theta))

    def test_stacked_weight_of_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            AffineMatrix(np.eye(2), np.zeros((3, 3, 1)), weight=np.ones(2))

    def test_stacked_base_count_mismatch_rejected(self):
        with pytest.raises(DomainError):
            AffineMatrix(np.stack([np.eye(2)] * 2), np.zeros((3, 3, 1)))

    def test_weighted_psd_constraint_rejected(self):
        # the barrier weighs every PSD map alike
        with pytest.raises(DomainError):
            MaxDetProblem(
                nvars=1,
                objective=AffineMatrix(np.eye(1), np.ones((1, 1))),
                psd_constraint=AffineMatrix(np.eye(1), np.ones((2, 1, 1)), weight=[1.0, 2.0]),
            )

    @pytest.mark.parametrize("A,b", [(np.ones(1), [1.0]), (np.ones((1, 2)), [1.0]),
                                     (np.ones((2, 1)), [1.0])])
    def test_linear_rows_of_wrong_shape_rejected(self, A, b):
        with pytest.raises(DomainError):
            MaxDetProblem(nvars=1, objective=AffineMatrix(np.eye(1), np.ones((1, 1))), A=A, b=b)

    def test_infeasible_start_raises(self):
        prob = one_var_problem(0.0)  # slack 0 at theta = 0
        with pytest.raises(InfeasibleStartError):
            solve(prob)


class TestStackedMaps:
    """One stacked AffineMatrix is the sum of its T single maps."""

    @staticmethod
    def stacked_and_single(rng):
        T, p, s = int(rng.integers(2, 7)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        bases = np.eye(s) + np.stack([rand_sym(rng, s, 0.1) for _ in range(T)])
        coeffs = np.stack([[rand_sym(rng, s) for _ in range(p)] for _ in range(T)])
        weights = rng.uniform(0.5, 2.0, size=T)
        con = np.stack([[rand_sym(rng, s) for _ in range(p)] for _ in range(2)])
        stacked = MaxDetProblem(
            nvars=p,
            objective=AffineMatrix(bases, svec_stack(coeffs), weights),
            psd_constraint=AffineMatrix(1.5 * np.eye(s), svec_stack(con)),
            A=np.kron(np.eye(p), [[1.0], [-1.0]]),
            b=np.ones(2 * p),
        )
        singles = [
            MaxDetProblem(
                nvars=p, objective=AffineMatrix(bases[t], svec_stack(coeffs[t]), weights[t])
            )
            for t in range(T)
        ]
        return stacked, singles

    def test_objective_matches_separate_maps(self, rng):
        """The stacked evaluation equals the sum of the T single-map problems."""
        for _ in range(20):
            stacked, singles = self.stacked_and_single(rng)
            theta = 0.05 * rng.normal(size=stacked.nvars)
            parts = zip(*(objective_eval(prob, theta) for prob in singles))
            for a, b in zip(objective_eval(stacked, theta), parts):
                np.testing.assert_allclose(a, sum(b), rtol=0, atol=1e-12)

    def test_barrier_degree_counts_every_map(self, rng):
        stacked, _ = self.stacked_and_single(rng)
        con = stacked.psd_constraint
        assert con.count == 2
        assert stacked.barrier_degree == 2 * con.size + 2 * stacked.nvars


class TestKernels:
    """The svec stack, gradient and curvature kernels against dense solve/einsum formulas."""

    SHAPES = [(1, 1, 1), (7, 3, 2), (40, 6, 5), (9, 4, 3)]

    @staticmethod
    def stack(rng, T, p, s):
        """The stack, with its dense (T, s, s) bases and (T, p, s, s) coefficients."""
        bases = np.eye(s) + np.stack([rand_sym(rng, s, 0.1) for _ in range(T)])
        coeffs = np.stack([[rand_sym(rng, s) for _ in range(p)] for _ in range(T)])
        term = AffineMatrix(bases, svec_stack(coeffs), rng.uniform(0.5, 2.0, size=T))
        return term, bases, coeffs

    def test_svec_stack_and_block_gradients(self, rng):
        from sgm.maxdet import _block_gradients

        for T, p, s in self.SHAPES:
            term, bases, coeffs = self.stack(rng, T, p, s)
            assert term.B.shape == (T, s * (s + 1) // 2, p)
            theta = 0.05 * rng.normal(size=p)
            P = term(theta)
            np.testing.assert_array_equal(P, P.transpose(0, 2, 1))
            dense = bases + np.einsum("p,tpij->tij", theta, coeffs)
            np.testing.assert_allclose(P, dense, rtol=0, atol=1e-15)
            # kkt_residual's PSD columns: tr(P_t^-1 A_tk), shape (p, T)
            ref = np.einsum("tkii->kt", np.linalg.solve(P[:, None], coeffs))
            cols = _block_gradients(term, np.linalg.cholesky(P))
            np.testing.assert_allclose(cols, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("T", [1, 40, 216])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_inverse_svec_matches_inv(self, rng, s, T):
        from sgm.maxdet import _inverse_svec

        j, k = np.triu_indices(s)
        A = rng.normal(size=(T, s, s))
        well = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(s)
        Q = np.linalg.qr(A)[0]
        ill = (Q * np.logspace(0, -10, s)[None, None, :]) @ Q.transpose(0, 2, 1)
        for G in (well, ill):
            X = np.linalg.inv(G)
            got = _inverse_svec(np.linalg.cholesky(G))
            assert got.shape == (len(j), T)
            # cond * eps relative, with a factor 4 for the rounding of both sides
            err = np.abs(got - X[:, j, k].T).max(axis=0)
            bound = 4 * np.linalg.cond(G) * np.finfo(float).eps * np.abs(X).max(axis=(1, 2))
            assert (err <= bound).all()

    def test_bound_row_curvature_matches_dense(self, rng):
        from sgm.maxdet import _evaluate

        # two bounds on theta_1 (one repeated column), one on theta_3, one general row
        A = np.array([[0.0, -1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [1.0, -0.5, 0.25]])
        b = np.array([0.3, 0.9, 0.7, 1.2])
        prob = MaxDetProblem(nvars=3, objective=AffineMatrix(np.eye(2), np.zeros((3, 3))), A=A, b=b)
        theta = 0.05 * rng.normal(size=3)
        Y = A / (b - A @ theta)[:, None]
        _, grad, hess = _evaluate(prob, theta, 2, barrier=True)
        np.testing.assert_allclose(grad, -Y.sum(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(hess, -Y.T @ Y, rtol=0, atol=1e-12)

    def test_gradient_and_curvature_match_einsum(self, rng):
        for T, p, s in self.SHAPES:
            term, _, coeffs = self.stack(rng, T, p, s)
            theta = 0.05 * rng.normal(size=p)
            P = term(theta)
            Pinv_A = np.linalg.solve(P[:, None], coeffs)  # P_t^-1 A_tk
            w = term.weight
            grad = np.einsum("t,tkii->k", w, Pinv_A)
            hess = -np.einsum("t,tkij,tlji->kl", w, Pinv_A, Pinv_A)
            value = float(w @ np.linalg.slogdet(P)[1])
            prob = MaxDetProblem(nvars=p, objective=term)
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
        # theta+/- >= -0.1 and a budget on their sum
        A = np.vstack([-np.eye(2 * k), np.ones((1, 2 * k))])
        b = np.r_[np.full(2 * k, 0.1), 0.5]
        common = dict(nvars=2 * k, A=A, b=b, linear_cost=0.1 * rng.normal(size=2 * k))
        mapped = MaxDetProblem(
            objective=AffineMatrix(bases, svec_stack(coeffs), weights),
            objective_map=np.hstack([np.eye(k), -np.eye(k)]),
            **common,
        )
        split = MaxDetProblem(
            objective=AffineMatrix(
                bases, svec_stack(np.concatenate([coeffs, -coeffs], axis=1)), weights
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
                objective=AffineMatrix(np.eye(2), np.zeros((3, 3))),
                objective_map=np.zeros(shape),
            )


class TestObjectiveEval:
    def test_scalar_closed_form(self):
        A = np.array([[0.4, 0.1], [0.1, -0.2]])
        prob = MaxDetProblem(nvars=1, objective=AffineMatrix(np.eye(2), svec(A)[:, None]))
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
        out = _newton_step(prob, theta, 1.0, maxdet._NEWTON_TOL)[0]
        np.testing.assert_allclose(out, theta, atol=1e-8)

    def test_monotone_merit_over_50_steps(self, rng):
        from sgm.maxdet import _merit

        for _ in range(5):
            prob = random_maxdet_instance(rng)
            theta = np.zeros(prob.nvars)
            prev = _merit(prob, theta, 1.0)
            for _ in range(50):
                theta = _newton_step(prob, theta, 1.0, maxdet._NEWTON_TOL)[0]
                cur = _merit(prob, theta, 1.0)
                assert cur >= prev - 1e-10 * (1 + abs(prev))
                prev = cur

    def test_iterates_strictly_feasible(self, rng):
        for _ in range(5):
            prob = random_maxdet_instance(rng)
            theta = np.zeros(prob.nvars)
            for _ in range(20):
                theta = _newton_step(prob, theta, 0.3, maxdet._NEWTON_TOL)[0]
                assert_strictly_feasible(prob, theta)


class TestPredictor:
    """The central path of log(1 + theta) + mu log(c - theta) is
    theta(mu) = (c - mu) / (1 + mu), with d theta / d mu = -(1 + c) / (1 + mu)^2."""

    C = 0.7

    def center(self, mu):
        return np.array([(self.C - mu) / (1 + mu)])

    @pytest.mark.parametrize("mu", [1.0, 0.2, 1e-2, 1e-4])
    def test_tangent_matches_closed_form(self, mu):
        theta, tangent = _newton_step(one_var_problem(self.C), self.center(mu), mu,
                                      maxdet._NEWTON_TOL)
        np.testing.assert_array_equal(theta, self.center(mu))
        exact = -(1 + self.C) / (1 + mu) ** 2
        np.testing.assert_allclose(tangent, [exact], rtol=1e-12, atol=0)

    def test_prediction_error_shrinks_like_mu(self):
        prob, sigma = one_var_problem(self.C), maxdet._BARRIER_SHRINK
        for mu in [1.0, 1e-1, 1e-2, 1e-3, 1e-4]:
            theta = self.center(mu)
            _, tangent = _newton_step(prob, theta, mu, maxdet._NEWTON_TOL)
            predicted = maxdet._predict(prob, theta, (sigma * mu - mu) * tangent)
            target = self.center(sigma * mu)
            ratio = abs(predicted - target)[0] / abs(theta - target)[0]
            # the first-order error over the step, exactly (1 - sigma) mu / (1 + mu)
            assert ratio == pytest.approx((1 - sigma) * mu / (1 + mu), rel=1e-6)
            assert ratio <= mu

    def test_predicted_point_takes_a_corrector_step(self):
        # at the center the decrement is at the floor, but a predicted point
        # may not be declared centered by it
        prob, mu = one_var_problem(self.C), 1.0
        theta = self.center(mu) * (1 + 1e-12)
        assert _newton_step(prob, theta, mu, 0.0)[1] is not None
        new, tangent = _newton_step(prob, theta, mu, 0.0, predicted=True)
        assert tangent is None and not np.array_equal(new, theta)

    def test_infeasible_prediction_backtracks_or_keeps_the_center(self):
        prob = one_var_problem(self.C)
        theta = self.center(0.2)
        # the slack 0.7 - theta is 0.28: a step of 0.4 crosses it, half of it does not
        np.testing.assert_array_equal(maxdet._predict(prob, theta, np.array([0.4])),
                                      theta + 0.2)
        assert maxdet._predict(prob, theta, np.array([1e300])) is None


class TestKKTResidual:
    def test_unconstrained_equals_gradient_norm(self, rng):
        coeffs = np.stack([rand_sym(rng, 2) for _ in range(2)])
        prob = MaxDetProblem(nvars=2, objective=AffineMatrix(np.eye(2), svec_stack(coeffs)))
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
            # one stack of two maps, log(1 + a t) + log(2 - a t / 2), with |t| <= c
            prob = MaxDetProblem(
                nvars=1,
                objective=AffineMatrix([[[1.0]], [[2.0]]], [[[a]], [[-0.5 * a]]]),
                A=[[1.0], [-1.0]],
                b=[c, c],
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
        prob = MaxDetProblem(nvars=1, A=[[1.0], [-1.0]], b=[1.0, 1.0])
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
            assert_strictly_feasible(prob, rep.theta)

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

    def test_nonconvergence_flagged_on_unbounded(self, monkeypatch):
        # unbounded: log(1 + theta) with no constraints
        prob = MaxDetProblem(nvars=1, objective=AffineMatrix(np.eye(1), np.ones((1, 1))))
        # at the default 50 steps the gradient-norm centering test certifies
        # this unbounded problem at theta ~ 1e9 (ROADMAP item 1)
        monkeypatch.setattr(maxdet, "_MAX_NEWTON", 20)
        rep = solve(prob)
        assert not rep.converged
        assert rep.message != ""

    def test_budget_stop_above_target_not_converged(self, monkeypatch):
        # with 13 outer iterations the best certificate of log(1 + theta),
        # theta <= 0.3, is about 4e-9, above its target 1e-9 * (1 + |f'(0)|) = 2e-9
        monkeypatch.setattr(maxdet, "_MAX_OUTER", 13)
        rep = solve(one_var_problem(0.3))
        assert rep.message == "outer iteration budget exhausted"
        assert rep.kkt_residual > 2e-9
        assert not rep.converged

    @staticmethod
    def interior_problem():
        """maximize log(1 + t) + log(2 - t), optimum t = 0.5, far inside |t| <= 50."""
        return MaxDetProblem(nvars=1,
                             objective=AffineMatrix([[[1.0]], [[2.0]]], [[[1.0]], [[-1.0]]]),
                             A=[[1.0], [-1.0]], b=[50.0, 50.0])

    @staticmethod
    def count_certificates(monkeypatch, inflate):
        """Route kkt_residual through inflate(call index, residual); returns the calls."""
        calls = []
        real = maxdet.kkt_residual

        def kkt(prob, theta):
            calls.append(real(prob, theta))
            return inflate(len(calls), calls[-1])

        monkeypatch.setattr(maxdet, "kkt_residual", kkt)
        return calls

    def test_failed_first_certificate_falls_back_to_previous_center(self, monkeypatch):
        prob = self.interior_problem()
        target = maxdet._NEWTON_TOL * (1 + np.linalg.norm(objective_eval(prob, [0.0])[1]))
        calls = self.count_certificates(monkeypatch, lambda i, r: 10 * target if i == 1 else r)
        first = maxdet._BARRIER_INIT  # the first mu that the certificate is tried at
        while first * prob.barrier_degree > 0.5 * target:
            first *= maxdet._BARRIER_SHRINK
        rep = solve(prob)
        assert len(calls) == 2
        assert rep.converged and rep.kkt_residual == calls[1] <= target
        assert rep.mu_final == pytest.approx(first / maxdet._BARRIER_SHRINK, rel=1e-12)
        assert rep.path[-1][0] == pytest.approx(first, rel=1e-12)

    def test_fallback_that_only_worsens_stops_at_the_floor(self, monkeypatch):
        calls = self.count_certificates(monkeypatch, lambda i, r: 1e6 * r)
        rep = solve(self.interior_problem())
        assert not rep.converged
        assert rep.message == "KKT residual at the floating-point floor"
        # the earlier centers, newest first, until one is 4x worse than the first
        assert len(calls) >= 2 and calls == sorted(calls)
        assert calls[-1] > 4 * calls[0] >= calls[-2]
        assert rep.kkt_residual == 1e6 * calls[0] and rep.mu_final == rep.path[-1][0]

    def test_mle_recovery_correlation_model(self):
        # n = 400 samples at theta = 0.5; estimate within 3 / sqrt(n J)
        fs = sgm.FrequencySet.from_vectors([[1, 1]])
        data = sgm.sample_sgm(fs, [0.5], 400, seed=11)
        fit = sgm.fit_sgm(data, fs, sgm.LitRegion(1.0))
        J = sgm.fisher_closed_corr(0.5)
        assert abs(fit.theta[0] - 0.5) <= 3.0 / np.sqrt(400 * J)
