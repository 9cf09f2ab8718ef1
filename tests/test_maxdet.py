import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgm
from sgm import DomainError, InfeasibleStartError, maxdet
from sgm.maxdet import (
    AffineMatrix,
    MaxDetProblem,
    _direction,
    _linearize,
    _step,
    kkt_residual,
    objective_eval,
    solve,
)

from conftest import (
    fd_gradient, golden_section_max, random_maxdet_instance, smat, svec, svec_stack,
)


def rand_sym(rng, s, scale=0.3):
    A = rng.normal(scale=scale, size=(s, s))
    return (A + A.T) / 2


def one_var_problem(c=0.7):
    """maximize log(1 + theta) subject to theta <= c."""
    return MaxDetProblem(
        nvars=1, objective=AffineMatrix(np.eye(1), np.ones((1, 1))), A=np.ones((1, 1)), b=[c]
    )


def start(prob):
    """The iterate that ``solve`` starts from: theta = 0, s = b and the
    multipliers on the barrier gradient at mu = 1."""
    con = prob.psd_constraint
    Z = None if con is None else svec(np.linalg.inv(con(np.zeros(prob.nvars)))).T
    return np.zeros(prob.nvars), prob.b.copy(), 1.0 / prob.b, Z


def central_point(c, mu):
    """The central point of one_var_problem(c) at mu: theta(mu) = (c - mu) / (1 + mu),
    with slack c - theta and multiplier mu / slack."""
    theta = (c - mu) / (1 + mu)
    return np.array([theta]), np.array([c - theta]), np.array([mu / (c - theta)])


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
        one = AffineMatrix(np.eye(2), B)
        assert one.count == 1 and one.B.shape == (1, 3, 4)
        theta = rng.normal(size=4)
        np.testing.assert_array_equal(one(theta), AffineMatrix(np.eye(2), B[None])(theta))

    def test_stacked_base_count_mismatch_rejected(self):
        with pytest.raises(DomainError):
            AffineMatrix(np.stack([np.eye(2)] * 2), np.zeros((3, 3, 1)))

    @pytest.mark.parametrize("A,b", [(np.ones(1), [1.0]), (np.ones((1, 2)), [1.0]),
                                     (np.ones((2, 1)), [1.0])])
    def test_linear_rows_of_wrong_shape_rejected(self, A, b):
        with pytest.raises(DomainError):
            MaxDetProblem(nvars=1, objective=AffineMatrix(np.eye(1), np.ones((1, 1))), A=A, b=b)

    def test_infeasible_start_raises(self):
        prob = one_var_problem(0.0)  # slack 0 at theta = 0
        with pytest.raises(InfeasibleStartError):
            solve(prob)
        # log det(diag(1, -1) + theta I) is not defined at theta = 0
        prob = MaxDetProblem(nvars=1, objective=AffineMatrix(np.diag([1.0, -1.0]),
                                                             svec(np.eye(2))[:, None]))
        with pytest.raises(InfeasibleStartError, match="objective terms not positive definite"):
            solve(prob)


class TestStackedMaps:
    """One stacked AffineMatrix is the sum of its T single maps."""

    @staticmethod
    def stacked_and_single(rng):
        T, p, s = int(rng.integers(2, 7)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        bases = np.eye(s) + np.stack([rand_sym(rng, s, 0.1) for _ in range(T)])
        coeffs = np.stack([[rand_sym(rng, s) for _ in range(p)] for _ in range(T)])
        con = np.stack([[rand_sym(rng, s) for _ in range(p)] for _ in range(2)])
        stacked = MaxDetProblem(
            nvars=p,
            objective=AffineMatrix(bases, svec_stack(coeffs)),
            psd_constraint=AffineMatrix(1.5 * np.eye(s), svec_stack(con)),
            A=np.kron(np.eye(p), [[1.0], [-1.0]]),
            b=np.ones(2 * p),
        )
        singles = [
            MaxDetProblem(
                nvars=p, objective=AffineMatrix(bases[t], svec_stack(coeffs[t]))
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
        term = AffineMatrix(bases, svec_stack(coeffs))
        return term, bases, coeffs

    def test_svec_stack_and_block_gradients(self, rng):
        from sgm.maxdet import _adjoint

        for T, p, s in self.SHAPES:
            term, bases, coeffs = self.stack(rng, T, p, s)
            assert term.B.shape == (T, s * (s + 1) // 2, p)
            theta = 0.05 * rng.normal(size=p)
            P = term(theta)
            np.testing.assert_array_equal(P, P.transpose(0, 2, 1))
            dense = bases + np.einsum("p,tpij->tij", theta, coeffs)
            np.testing.assert_allclose(P, dense, rtol=0, atol=1e-15)
            # the stationarity term of a multiplier stack: sum_t tr(V_t A_tk)
            V = np.stack([rand_sym(rng, s) for _ in range(T)])
            ref = np.einsum("tij,tkji->k", V, coeffs)
            np.testing.assert_allclose(_adjoint(term, svec(V).T), ref, rtol=0, atol=1e-12)

    def test_hkm_kernel_matches_dense_trace(self, rng):
        # B_k' K(X, Z) B_l = sum_t tr(A_tk X_t A_tl Z_t), symmetric in (k, l)
        from sgm.maxdet import _kron_curvature

        for T, p, s in self.SHAPES:
            term, _, coeffs = self.stack(rng, T, p, s)
            X, Z = (np.stack([rand_sym(rng, s) for _ in range(T)]) for _ in range(2))
            ref = np.einsum("tkab,tbc,tlcd,tda->kl", coeffs, X, coeffs, Z)
            got = _kron_curvature(term, svec(X).T, svec(Z).T)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got, got.T, rtol=0, atol=1e-12)

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
        from sgm.maxdet import _linear_curvature

        # two bounds on theta_1 (one repeated column), one on theta_3, one general row
        A = np.array([[0.0, -1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [1.0, -0.5, 0.25]])
        b = np.array([0.3, 0.9, 0.7, 1.2])
        prob = MaxDetProblem(nvars=3, objective=AffineMatrix(np.eye(2), np.zeros((3, 3))), A=A, b=b)
        d = rng.uniform(0.1, 10.0, size=4)  # lambda / s of the primal-dual system
        np.testing.assert_allclose(_linear_curvature(prob, d), A.T @ (d[:, None] * A),
                                   rtol=0, atol=1e-12)

    def test_gradient_and_curvature_match_einsum(self, rng):
        for T, p, s in self.SHAPES:
            term, _, coeffs = self.stack(rng, T, p, s)
            theta = 0.05 * rng.normal(size=p)
            P = term(theta)
            Pinv_A = np.linalg.solve(P[:, None], coeffs)  # P_t^-1 A_tk
            grad = np.einsum("tkii->k", Pinv_A)
            hess = -np.einsum("tkij,tlji->kl", Pinv_A, Pinv_A)
            value = float(np.linalg.slogdet(P)[1].sum())
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
        # theta+/- >= -0.1 and a budget on their sum
        A = np.vstack([-np.eye(2 * k), np.ones((1, 2 * k))])
        b = np.r_[np.full(2 * k, 0.1), 0.5]
        common = dict(nvars=2 * k, A=A, b=b, linear_cost=0.1 * rng.normal(size=2 * k))
        mapped = MaxDetProblem(
            objective=AffineMatrix(bases, svec_stack(coeffs)),
            objective_map=np.hstack([np.eye(k), -np.eye(k)]),
            **common,
        )
        split = MaxDetProblem(
            objective=AffineMatrix(bases, svec_stack(np.concatenate([coeffs, -coeffs], axis=1))),
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
    """The primal-dual Newton step: one Newton system per iterate, read by
    ``_direction`` for the predictor and the corrector."""

    def test_fixed_point_at_barrier_optimum(self):
        # at the central point at mu = 1, theta = -0.15, the centring
        # direction (sigma mu = mu, no second-order term) is zero
        prob = one_var_problem()
        pt = _linearize(prob, *central_point(0.7, 1.0), None)
        np.testing.assert_allclose(pt.theta, [-0.15], atol=1e-15)
        d = _direction(prob, pt, 1.0)
        for v in (d.dtheta, d.ds, d.dlam):
            np.testing.assert_allclose(v, 0.0, atol=1e-12)

    def test_iterates_strictly_feasible(self, rng):
        # the steps keep s, lam, Z, G and the objective stack positive and the
        # carried slack equal to b - A theta up to rounding
        for _ in range(5):
            prob = random_maxdet_instance(rng)
            theta, s, lam, Z = start(prob)
            for _ in range(8):
                pt = _linearize(prob, theta, s, lam, Z)
                assert pt is not None
                theta, s, lam, Z = _step(prob, pt)
                assert (s > 0).all() and (lam > 0).all()
                assert np.abs(prob.b - prob.A @ theta - s).max() <= 1e-12
                objective_eval(prob, theta, need_hess=False)
                if Z is not None:
                    assert np.linalg.eigvalsh(smat(Z.T)).min() > 0
                    assert np.linalg.eigvalsh(prob.psd_constraint(theta)).min() > 0

    @pytest.mark.parametrize("c,limit", [(0.3, 0.3), (0.7, 0.5)])
    def test_step_length_is_the_distance_to_the_nearest_boundary(self, rng, c, limit):
        from types import SimpleNamespace

        from sgm.maxdet import _step_length

        # along d theta = 1 from 0, G = I + theta Q diag(1, -2) Q' leaves the
        # PD cone at 0.5, the slack c - theta at c, the objective 1 + theta never
        Q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        A = Q @ np.diag([1.0, -2.0]) @ Q.T
        prob = MaxDetProblem(nvars=1, objective=AffineMatrix(np.eye(1), np.ones((1, 1))),
                             psd_constraint=AffineMatrix(np.eye(2), svec(A)[:, None]),
                             A=np.ones((1, 1)), b=[c])
        pt = _linearize(prob, *start(prob))
        dirn = SimpleNamespace(dtheta=np.ones(1), ds=-np.ones(1), dlam=np.zeros(1),
                               dG=svec(A)[:, None], dZ=np.zeros((3, 1)))
        assert _step_length(prob, pt, dirn, 1.0) == pytest.approx(limit, rel=1e-12)
        assert _step_length(prob, pt, dirn, 0.2) == 0.2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 40), st.floats(0.01, 10.0),
           st.integers(0, 2**32 - 1))
    def test_max_step_equals_exhaustive_eigenvalue_limit(self, s, T, alpha, seed):
        from sgm.maxdet import _inverse_factor, _max_step

        # the pruned limit against min(alpha, -1 / lambda_min) over every whitened
        # block; directions of mixed scales, so that alpha or a block binds
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(T, s, s))
        R = _inverse_factor(np.linalg.cholesky(A @ A.transpose(0, 2, 1) + 0.1 * np.eye(s)))
        dV = svec(np.stack([rand_sym(rng, s, 10.0 ** rng.uniform(-4, 0)) for _ in range(T)])).T
        least = np.linalg.eigvalsh(R @ smat(dV.T) @ R.transpose(0, 2, 1))[:, 0].min()
        want = min(alpha, -1.0 / least) if least < 0 else alpha
        assert _max_step(R, dV, alpha) == want


class TestPredictor:
    """The central path of log(1 + theta) + mu log(c - theta) is
    theta(mu) = (c - mu) / (1 + mu), with d theta / d mu = -(1 + c) / (1 + mu)^2;
    at a central point the affine predictor is -mu times the tangent."""

    C = 0.7

    @pytest.mark.parametrize("mu", [1.0, 0.2, 1e-2, 1e-4])
    def test_tangent_matches_closed_form(self, mu):
        prob = one_var_problem(self.C)
        theta, s, lam = central_point(self.C, mu)
        aff = _direction(prob, _linearize(prob, theta, s, lam, None), 0.0)
        exact = mu * (1 + self.C) / (1 + mu) ** 2
        np.testing.assert_allclose(aff.dtheta, [exact], rtol=1e-12, atol=0)
        # on the path lam = 1 / (1 + theta), so d lam = -d theta / (1 + theta)^2;
        # d lam is a difference of two terms of the size of lam, hence the looser bound
        np.testing.assert_allclose(aff.dlam, -aff.dtheta / (1 + theta) ** 2, rtol=1e-8, atol=0)

    def test_prediction_error_shrinks_like_mu(self):
        prob, sigma = one_var_problem(self.C), 0.2
        for mu in [1.0, 1e-1, 1e-2, 1e-3, 1e-4]:
            theta, s, lam = central_point(self.C, mu)
            aff = _direction(prob, _linearize(prob, theta, s, lam, None), 0.0)
            predicted = theta + (1 - sigma) * aff.dtheta
            target = central_point(self.C, sigma * mu)[0]
            ratio = abs(predicted - target)[0] / abs(theta - target)[0]
            # the first-order error over the step, exactly (1 - sigma) mu / (1 + mu)
            assert ratio == pytest.approx((1 - sigma) * mu / (1 + mu), rel=1e-6)
            assert ratio <= mu


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
        lam = [1 / 1.7]  # the multiplier of theta <= 0.7 at the optimum theta = 0.7
        r1 = kkt_residual(prob, rep.theta - 1e-4, lam)
        r2 = kkt_residual(prob, rep.theta - 2e-4, lam)
        r4 = kkt_residual(prob, rep.theta - 4e-4, lam)
        assert 1.5 < r2 / r1 < 2.5
        assert 1.5 < r4 / r2 < 2.5

    def test_matches_dense_formula(self, rng):
        for _ in range(20):
            prob = random_maxdet_instance(rng)
            con = prob.psd_constraint
            theta = 0.05 * rng.normal(size=prob.nvars)
            lam = rng.uniform(0.0, 2.0, size=len(prob.b))
            _, r, _ = objective_eval(prob, theta)
            r = r - prob.A.T @ lam
            comp = list(lam * (prob.b - prob.A @ theta))
            Z = None
            if con is not None:
                R = rng.normal(size=(con.count, con.size, con.size))
                Z = R @ R.transpose(0, 2, 1)
                coeffs = smat(con.B.transpose(0, 2, 1))  # (T, p, s, s)
                r = r + np.einsum("tkij,tji->k", coeffs, Z)
                comp += list(np.einsum("tij,tji->t", con(theta), Z))
            expected = np.sqrt(r @ r + np.square(comp).sum())
            assert kkt_residual(prob, theta, lam, Z) == pytest.approx(expected, rel=1e-12)

    def test_rejects_negative_multipliers(self):
        prob = MaxDetProblem(nvars=1, objective=AffineMatrix(np.eye(1), np.ones((1, 1))),
                             psd_constraint=AffineMatrix(np.eye(2), np.zeros((3, 1))),
                             A=np.ones((1, 1)), b=[0.7])
        with pytest.raises(DomainError):
            kkt_residual(prob, [0.0], [-1.0])
        with pytest.raises(DomainError):
            kkt_residual(prob, [0.0], [1.0], np.diag([1.0, -1.0])[None])

    def test_infeasible_theta_raises(self):
        with pytest.raises(InfeasibleStartError, match="theta is not strictly feasible"):
            kkt_residual(one_var_problem(0.7), [1.0])


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

    def test_nonconvergence_flagged_on_unbounded(self):
        # unbounded: log(1 + theta) with no constraints.  Its KKT residual
        # 1 / (1 + theta) falls below any target as theta doubles at every
        # Newton step, but the Newton decrement is 1 at every theta
        prob = MaxDetProblem(nvars=1, objective=AffineMatrix(np.eye(1), np.ones((1, 1))))
        rep = solve(prob)
        assert not rep.converged
        assert rep.newton_iterations == maxdet._MAX_NEWTON and rep.theta[0] > 1e9
        assert rep.kkt_residual <= 2e-9  # below its target: the decrement is what fails
        assert rep.message.startswith("objective unbounded: Newton decrement 1 does not vanish")

    def test_budget_stop_above_target_not_converged(self, monkeypatch):
        # after 6 iterations the certificate of log(1 + theta), theta <= 0.3,
        # is about 1.3e-7, above its target 1e-9 * (1 + |f'(0)|) = 2e-9
        monkeypatch.setattr(maxdet, "_MAX_NEWTON", 6)
        rep = solve(one_var_problem(0.3))
        assert rep.message == "iteration budget exhausted"
        assert rep.newton_iterations == rep.outer_iterations == len(rep.path) == 6
        assert rep.kkt_residual > 2e-9
        assert not rep.converged

    def test_stops_at_a_hundredth_of_the_target(self, monkeypatch):
        # the certificate falls by about 50x per iteration; the solve stops at
        # the first certified iterate below target / 100 = 2e-11 and returns it
        rep = solve(one_var_problem(0.3))
        assert rep.converged and rep.message == ""
        assert rep.kkt_residual <= 2e-11
        assert rep.mu_final == rep.path[-1][0]
        assert all(b < a for (a, _), (b, _) in zip(rep.path, rep.path[1:]))
        monkeypatch.setattr(maxdet, "_MAX_NEWTON", rep.newton_iterations - 1)
        assert solve(one_var_problem(0.3)).kkt_residual > 2e-11

    def test_solver_error_after_the_first_iteration_returns_the_last_iterate(self, monkeypatch):
        real_step, steps = maxdet._step, []

        def step(problem, pt):
            if steps:
                raise sgm.SolverError("Newton system singular")
            steps.append(real_step(problem, pt))
            return steps[-1]

        monkeypatch.setattr(maxdet, "_step", step)
        rep = solve(one_var_problem(0.3))
        assert rep.newton_iterations == 2
        assert np.array_equal(rep.theta, steps[0][0])  # the iterate the one step reached
        assert not rep.converged
        assert rep.message == "Newton system singular"

    def test_mle_recovery_correlation_model(self):
        # n = 400 samples at theta = 0.5; estimate within 3 / sqrt(n J)
        fs = sgm.FrequencySet.from_vectors([[1, 1]])
        data = sgm.sample_sgm(fs, [0.5], 400, seed=11)
        fit = sgm.fit_sgm(data, fs, sgm.LitRegion(1.0))
        J = sgm.fisher_closed_corr(0.5)
        assert abs(fit.theta[0] - 0.5) <= 3.0 / np.sqrt(400 * J)
