import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sgm
from sgm import DomainError, FrequencySet, IndefiniteHessianError, SingularHessianError
from sgm.analysis import tensor_grid
from sgm.model import (
    EPS_PD,
    _least_eigs,
    _psd_det,
    _term_values,
    density_batch,
    gradient_map_batch,
    gram_batch,
    hessian_basis_batch,
    mixm_density_batch,
    potential_batch,
    score_batch,
)

from conftest import brute_force_standard_freqs, fd_hessian, random_lit_interior, smat, svec

U11 = FrequencySet.from_vectors([[1, 1]])
U12 = FrequencySet.from_vectors([[1, 2]])


# The three-dimensional standard set in canonical order (last coordinate
# most significant), frozen so index contracts stay stable.
STANDARD_M3 = [
    (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (0, 2, 0), (1, 2, 0),
    (0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1), (0, 2, 1),
    (0, 0, 2), (1, 0, 2), (0, 1, 2),
]


class TestFrequencySet:
    def test_standard_m3_matches_reference_matrix(self):
        fs = sgm.standard_freq_set(3)
        assert [tuple(u) for u in fs.freqs] == STANDARD_M3

    def test_standard_m1(self):
        fs = sgm.standard_freq_set(1)
        assert [tuple(u) for u in fs.freqs] == [(1,), (2,)]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_standard_matches_enumeration_oracle(self, m):
        fs = sgm.standard_freq_set(m)
        assert [tuple(u) for u in fs.freqs] == brute_force_standard_freqs(m)
        assert fs.size == m * (m + 1) * (m + 5) // 6

    def test_rejects_zero_vector(self):
        with pytest.raises(DomainError):
            FrequencySet.from_vectors([[0, 0], [1, 1]])

    def test_rejects_duplicates_and_negatives(self):
        with pytest.raises(DomainError):
            FrequencySet.from_vectors([[1, 1], [1, 1]])
        with pytest.raises(DomainError):
            FrequencySet.from_vectors([[-1, 1]])

    def test_canonical_ordering_applied(self):
        fs = FrequencySet.from_vectors([[0, 1, 1], [1, 2, 0], [1, 1, 1]])
        assert [tuple(u) for u in fs.freqs] == [(1, 2, 0), (0, 1, 1), (1, 1, 1)]

    def test_properties(self):
        fs = FrequencySet.from_vectors([[1, 2, 0], [0, 1, 1]])
        assert fs.u_max == 2
        assert fs.sqnorms.tolist() == [5.0, 2.0]
        assert fs.supports.tolist() == [2, 2]
        assert fs.index((0, 1, 1)) == 1

    @pytest.mark.parametrize("dim,shape,message", [
        (2, (1, 3), r"frequency array must be \(k, 2\)"),
        (0, (1, 0), "dimension must be >= 1"),
        (2, (0, 2), "frequency set must be nonempty"),
    ])
    def test_rejects_bad_shapes(self, dim, shape, message):
        with pytest.raises(DomainError, match=message):
            FrequencySet(dim=dim, freqs=np.ones(shape, dtype=int))

    def test_check_theta_rejects_wrong_length_and_non_finite(self):
        fs = FrequencySet.from_vectors([[1, 1], [2, 0]])
        with pytest.raises(DomainError, match="theta must have length 2"):
            fs.check_theta([0.1])
        with pytest.raises(DomainError, match="theta entries must be finite"):
            fs.check_theta([0.1, np.inf])

    def test_standard_set_of_dimension_zero_raises(self):
        with pytest.raises(DomainError, match="m must be a positive integer"):
            sgm.standard_freq_set(0)

    def test_index_of_an_absent_vector_raises(self):
        with pytest.raises(KeyError) as exc:
            FrequencySet.from_vectors([[1, 1, 0], [2, 0, 1]]).index((1, 2, 2))
        assert exc.value.args == ("(1, 2, 2) not in frequency set",)


class TestHessianBasis:
    def test_u11_at_origin_is_identity(self):
        assert np.array_equal(smat(hessian_basis_batch(U11, [[0.0, 0.0]])[0, :, 0]), np.eye(2))

    def test_heteroscedastic_closed_form(self, rng):
        # diag (c(x1)c(2x2), 4 c(x1)c(2x2)), off-diagonal -2 s(x1)s(2x2)
        for _ in range(10):
            x = rng.random(2)
            H = smat(hessian_basis_batch(U12, x[None])[0, :, 0])
            c = np.cos(np.pi * x[0]) * np.cos(2 * np.pi * x[1])
            s = np.sin(np.pi * x[0]) * np.sin(2 * np.pi * x[1])
            expect = np.array([[c, -2 * s], [-2 * s, 4 * c]])
            np.testing.assert_allclose(H, expect, atol=1e-14)

    def test_origin_gives_squared_diagonal(self, rng):
        for _ in range(5):
            u = rng.integers(0, 3, size=3)
            if not u.any():
                continue
            H = smat(hessian_basis_batch(FrequencySet.from_vectors(u), np.zeros((1, 3)))[0, :, 0])
            np.testing.assert_allclose(H, np.diag(u.astype(float) ** 2), atol=1e-15)


class TestHessian:
    def test_zero_theta_identity(self, rng):
        fs = sgm.standard_freq_set(3)
        x = rng.random(3)
        np.testing.assert_allclose(gram_batch(fs, np.zeros(fs.size), x[None])[0], np.eye(3))

    def test_correlation_model_at_origin(self):
        G = gram_batch(U11, [0.5], [[0.0, 0.0]])[0]
        np.testing.assert_allclose(G, np.diag([1.5, 1.5]))

    def test_conditional_independence_matrix(self, rng):
        fs = FrequencySet.from_vectors([[1, 0, 1], [0, 1, 1]])
        vec = np.zeros(2)
        theta, phi = 0.25, -0.15
        vec[fs.index((1, 0, 1))] = theta
        vec[fs.index((0, 1, 1))] = phi
        for _ in range(5):
            x = rng.random(3)
            c = np.cos(np.pi * x); s = np.sin(np.pi * x)
            expect = np.array([
                [1 + theta * c[0] * c[2], 0.0, -theta * s[0] * s[2]],
                [0.0, 1 + phi * c[1] * c[2], -phi * s[1] * s[2]],
                [-theta * s[0] * s[2], -phi * s[1] * s[2],
                 1 + theta * c[0] * c[2] + phi * c[1] * c[2]],
            ])
            np.testing.assert_allclose(gram_batch(fs, vec, x[None])[0], expect, atol=1e-14)

    def test_exact_symmetry(self, rng):
        fs = sgm.standard_freq_set(3)
        for _ in range(20):
            theta = rng.normal(scale=0.2, size=fs.size)
            G = gram_batch(fs, theta, rng.random((1, 3)))[0]
            assert np.array_equal(G, G.T)

    def test_matches_finite_difference_of_potential(self, rng):
        fs = sgm.standard_freq_set(2)
        for _ in range(100):
            theta = rng.normal(scale=0.1, size=fs.size)
            x = rng.uniform(0.05, 0.95, size=2)
            G = gram_batch(fs, theta, x[None])[0]
            F = fd_hessian(lambda y: potential_batch(fs, theta, y[None])[0], x)
            assert np.abs(G - F).max() < 1e-6 * (1 + np.abs(G).max())


class TestDensity:
    def test_uniform(self, rng):
        fs = sgm.standard_freq_set(2)
        assert density_batch(fs, np.zeros(fs.size), rng.random((1, 2)))[0] == 1.0

    def test_correlation_model_value(self):
        assert density_batch(U11, [0.5], [[0.0, 0.0]])[0] == pytest.approx(2.25, abs=1e-12)

    def test_correlation_model_closed_form(self, rng):
        for _ in range(20):
            th = rng.uniform(-1, 1)
            x = rng.random(2)
            expect = (1 + 2 * th * np.cos(np.pi * x[0]) * np.cos(np.pi * x[1])
                      + th**2 / 2 * (np.cos(2 * np.pi * x[0]) + np.cos(2 * np.pi * x[1])))
            assert density_batch(U11, [th], x[None])[0] == pytest.approx(expect, abs=1e-12)

    def test_normalization_random_feasible(self, rng):
        for m in (1, 2, 3):
            fs = sgm.standard_freq_set(m)
            for _ in range(4):
                theta = random_lit_interior(fs, rng)
                val = sgm.integrate(lambda X: density_batch(fs, theta, X), m, 48)
                assert val == pytest.approx(1.0, abs=1e-8)

    def test_indefinite_raises(self):
        # far outside the feasible region the Hessian goes indefinite
        with pytest.raises(IndefiniteHessianError):
            density_batch(U11, [3.0], [[0.5, 0.5]])

    def test_two_negative_eigenvalues_raise(self):
        # both eigenvalues negative (-0.46, -0.80): the determinant is positive
        with pytest.raises(IndefiniteHessianError) as info:
            density_batch(U11, [1.8], np.array([[0.9, 0.1]]))
        assert isinstance(info.value, DomainError)

    def test_m5_two_negative_eigenvalues_raise(self):
        # at x1 = x2 = 1 the Hessian is diag(-2, -2, 1, 1, 1): det > 0, indefinite
        fs = sgm.standard_freq_set(5)
        theta = np.zeros(fs.size)
        theta[fs.index((1, 0, 0, 0, 0))] = theta[fs.index((0, 1, 0, 0, 0))] = 3.0
        X = np.array([[0.5] * 5, [1.0, 1.0, 0.5, 0.5, 0.5]])
        np.testing.assert_allclose(gram_batch(fs, theta, X)[1], np.diag([-2.0, -2, 1, 1, 1]),
                                   atol=1e-15)
        with pytest.raises(IndefiniteHessianError, match="at point 1"):
            density_batch(fs, theta, X)

    def test_boundary_point_is_decided_alone(self):
        # (0.8, 0.2) lies on the singular line x1 + x2 = 1 of the u = (1, 1)
        # model at theta = 1; its rounded G passes a LAPACK Cholesky, and that
        # of (0.15, 0.85) fails it
        for X in ([[0.8, 0.2]], [[0.8, 0.2], [0.15, 0.85]]):
            assert density_batch(U11, [1.0], X)[0] == 0.0
        with pytest.raises(SingularHessianError):
            score_batch(U11, [1.0], [[0.8, 0.2]])

    def test_semidefinite_points_give_zero(self):
        # at theta = 1 the smallest eigenvalue 1 + cos(pi (x1 + x2)) vanishes
        # on the antidiagonal, where rounding leaves it on either side of 0
        n = 48
        X, _ = tensor_grid(n, 2)
        p = density_batch(U11, [1.0], X)
        lam = np.linalg.eigvalsh(gram_batch(U11, [1.0], X))[:, 0]
        assert (p >= 0).all()
        assert (lam <= 0).sum() == 30
        assert (p[lam <= 0] == 0).all()
        antidiagonal = [i * n + n - 1 - i for i in range(n)]
        assert p[antidiagonal].max() <= 1e-15


def psd_det_reference(G):
    """The semidefinite rule from eigvalsh: the LU determinant, 0 where the
    smallest eigenvalue is <= 0, and IndefiniteHessianError at the least
    eigenvalue if it is below -EPS_PD; _psd_det must agree with it bit for bit."""
    p = np.linalg.det(G)
    lam = np.linalg.eigvalsh(G)[:, 0]
    if lam.min() < -EPS_PD:
        i = int(lam.argmin())
        raise IndefiniteHessianError(
            f"Hessian indefinite at point {i}: min eigenvalue {lam[i]:.3e}"
        )
    p[lam <= 0] = 0.0
    return p


def psd_det(G):
    return _psd_det(G)[0]


def outcome(fn, G):
    """The bytes of fn(G), or the type and message of what it raises."""
    try:
        with np.errstate(divide="ignore"):  # LU of the zero matrix
            return fn(G.copy()).tobytes()
    except IndefiniteHessianError as exc:
        return type(exc), str(exc)


ENTRY = st.floats(-3.0, 3.0, allow_subnormal=False)


def symmetric(G):
    return 0.5 * (G + np.swapaxes(G, 1, 2))


@st.composite
def pd_stacks(draw, m=None, n_max=6):
    """A A^T + c I with c in [1e-3, 2]: positive definite."""
    m, n = m or draw(st.integers(1, 5)), draw(st.integers(1, n_max))
    A = draw(hnp.arrays(np.float64, (n, m, m), elements=ENTRY))
    c = draw(st.floats(1e-3, 2.0))
    return symmetric(A @ np.swapaxes(A, 1, 2) + c * np.eye(m))


@st.composite
def rank_deficient_stacks(draw, m=None, n_max=6):
    """A A^T with A of rank r < m: singular, its zero pivots left on either
    side of 0 by rounding."""
    m, n = m or draw(st.integers(1, 5)), draw(st.integers(1, n_max))
    r = draw(st.integers(0, m - 1))
    A = draw(hnp.arrays(np.float64, (n, m, r), elements=ENTRY))
    return symmetric(A @ np.swapaxes(A, 1, 2))


@st.composite
def even_indefinite_stacks(draw, m=None, n_max=6):
    """Q diag(lam) Q^T with an even number (>= 2) of eigenvalues <= -0.1,
    the rest >= 0.1: det > 0, not semidefinite."""
    m, n = m or draw(st.integers(2, 5)), draw(st.integers(1, n_max))
    neg = 2 * draw(st.integers(1, m // 2))
    mags = draw(hnp.arrays(np.float64, (n, m), elements=st.floats(0.1, 5.0)))
    lam = mags * np.where(np.arange(m) < neg, -1.0, 1.0)
    seed = draw(st.integers(0, 2**32 - 1))
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, m, m)))[0]
    return symmetric(Q @ (lam[:, :, None] * np.swapaxes(Q, 1, 2)))


@st.composite
def mixed_stacks(draw):
    """Up to four stacks of one size m, each of one of the three kinds above."""
    m = draw(st.integers(1, 5))
    kinds = [pd_stacks(m, n_max=2), rank_deficient_stacks(m, n_max=2)]
    kinds += [even_indefinite_stacks(m, n_max=2)] if m >= 2 else []
    return np.concatenate(draw(st.lists(st.one_of(kinds), min_size=1, max_size=4)))


class TestPsdDet:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(pd_stacks(), rank_deficient_stacks(), even_indefinite_stacks()))
    # a subnormal diagonal entry, where 1e-6 times it underflows to a screen of 0
    @example(np.array([[[1.0, 1.69129979e-162, 5.07389937e-162],
                        [1.69129979e-162, 9.88131292e-324, 3.38259958e-162],
                        [5.07389937e-162, 3.38259958e-162, 4.0]]]))
    def test_matches_eigenvalue_rule(self, G):
        assert outcome(psd_det, G) == outcome(psd_det_reference, G)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_one_bad_point_in_a_large_pd_stack(self, seed, data):
        m = data.draw(st.integers(1, 5))
        kinds = [rank_deficient_stacks(m, n_max=1)]
        kinds += [even_indefinite_stacks(m, n_max=1)] if m >= 2 else []
        bad = data.draw(st.one_of(kinds))[0]
        A = np.random.default_rng(seed).uniform(-3, 3, size=(500, m, m))
        G = symmetric(A @ np.swapaxes(A, 1, 2) + 0.1 * np.eye(m))
        assert outcome(psd_det, G) == outcome(psd_det_reference, G)
        G[data.draw(st.integers(0, len(G) - 1))] = bad
        assert outcome(psd_det, G) == outcome(psd_det_reference, G)

    @settings(max_examples=300, deadline=None)
    @given(mixed_stacks())
    def test_each_point_is_decided_alone(self, G):
        alone = [outcome(psd_det, g[None]) for g in G]
        if any(isinstance(o, tuple) for o in alone):
            assert isinstance(outcome(psd_det, G), tuple)
            return
        assert outcome(psd_det, G) == b"".join(alone)
        C = np.concatenate([_psd_det(g[None])[1] for g in G], axis=-1)
        np.testing.assert_array_equal(_psd_det(G)[1], C)


def gershgorin(G):
    """min_r (G_rr - sum_{c != r} |G_rc|) per block, a lower bound on lambda_min."""
    off = np.abs(G) * (1.0 - np.eye(G.shape[-1]))
    return (np.diagonal(G, axis1=1, axis2=2) - off.sum(axis=2)).min(axis=1)


class TestLeastEigs:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(pd_stacks(), rank_deficient_stacks(), even_indefinite_stacks()),
           st.floats(-10.0, 10.0))
    def test_exact_below_cap_and_a_bound_at_or_above_it(self, G, cap):
        exact = np.linalg.eigvalsh(G)[:, 0]
        bound = gershgorin(G)
        got = _least_eigs(G, cap)
        below = bound < cap
        assert np.array_equal(got[below], exact[below])
        assert np.array_equal(got[~below], bound[~below])
        assert (got[~below] >= cap).all()
        assert (bound <= exact + 1e-12 * np.abs(G).max(axis=(1, 2))).all()  # Gershgorin
        assert np.array_equal(_least_eigs(G), exact)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(6, 10), st.integers(0, 40), st.floats(-10.0, 10.0),
           st.integers(0, 2**32 - 1))
    def test_larger_blocks_are_exact_below_the_cap_and_bounded_above_it(self, s, n, cap, seed):
        # diagonal shifts put blocks on both sides of the cap; from s = 8 on the
        # bound may round differently from ``gershgorin``'s, so it is compared
        # with a tolerance, and a block is exact wherever the bound is clearly low
        rng = np.random.default_rng(seed)
        A = rng.normal(scale=10.0 ** rng.uniform(-2, 1), size=(n, s, s))
        G = A + A.transpose(0, 2, 1) + rng.uniform(-5.0, 40.0, size=(n, 1, 1)) * np.eye(s)
        exact = np.linalg.eigvalsh(G)[:, 0]
        got = _least_eigs(G, cap)
        tol = 1e-12 * (1.0 + np.abs(G).sum(axis=(1, 2)))
        kept = got != exact
        assert (got[kept] >= cap).all() and (got[kept] <= exact[kept] + tol[kept]).all()
        assert not kept[gershgorin(G) < cap - tol].any()
        assert np.array_equal(_least_eigs(G), exact)

    def test_single_entry_blocks_are_exact_at_any_cap(self, rng):
        G = rng.normal(size=(20, 1, 1))
        for cap in (-np.inf, -0.5, 0.0, 0.5, np.inf):
            assert np.array_equal(_least_eigs(G, cap), G[:, 0, 0])

    def test_empty_stack(self):
        for cap in (0.0, np.inf):
            assert _least_eigs(np.zeros((0, 3, 3)), cap).shape == (0,)


class TestPotentialAndGradientMap:
    def test_zero_theta(self, rng):
        fs = sgm.standard_freq_set(2)
        x = rng.random(2)
        assert potential_batch(fs, np.zeros(fs.size), x[None])[0] == pytest.approx(0.5 * x @ x)
        np.testing.assert_allclose(gradient_map_batch(fs, np.zeros(fs.size), x[None])[0], x)

    def test_potential_at_origin(self):
        assert potential_batch(U11, [1.0], [[0, 0]])[0] == pytest.approx(-1 / np.pi**2)

    def test_vertices_fixed(self, rng):
        fs = sgm.standard_freq_set(3)
        theta = random_lit_interior(fs, rng)
        for vertex in ([0, 0, 0], [1, 0, 1], [1, 1, 1], [0, 1, 0]):
            v = np.array(vertex, dtype=float)
            np.testing.assert_allclose(gradient_map_batch(fs, theta, v[None])[0], v, atol=1e-14)

    def test_faces_preserved(self, rng):
        fs = sgm.standard_freq_set(3)
        theta = random_lit_interior(fs, rng)
        for b in (0.0, 1.0):
            for j in range(3):
                for _ in range(10):
                    x = rng.random(3)
                    x[j] = b
                    y = gradient_map_batch(fs, theta, x[None])[0]
                    assert y[j] == pytest.approx(b, abs=1e-14)
                    assert (y >= -1e-12).all() and (y <= 1 + 1e-12).all()

    def test_monotone_map(self, rng):
        fs = sgm.standard_freq_set(2)
        for _ in range(50):
            theta = random_lit_interior(fs, rng)
            x, y = rng.random(2), rng.random(2)
            if np.allclose(x, y):
                continue
            g = gradient_map_batch(fs, theta, np.stack([x, y]))
            dx = g[0] - g[1]
            assert dx @ (x - y) > 0


class TestScore:
    def test_origin_squared_norms(self):
        fs = sgm.standard_freq_set(3)
        s = score_batch(fs, np.zeros(fs.size), np.zeros((1, 3)))[0]
        np.testing.assert_allclose(s, fs.sqnorms)

    def test_matches_finite_difference_of_log_density(self, rng):
        fs = sgm.standard_freq_set(2)
        for _ in range(20):
            theta = random_lit_interior(fs, rng, margin=0.4)
            x = rng.random(2)
            s = score_batch(fs, theta, x[None])[0]
            h = 1e-6
            for k in range(fs.size):
                e = np.zeros(fs.size); e[k] = h
                fd = (np.log(density_batch(fs, theta + e, x[None])[0])
                      - np.log(density_batch(fs, theta - e, x[None])[0])) / (2 * h)
                assert s[k] == pytest.approx(fd, abs=1e-6, rel=1e-6)

    def test_equals_mixture_score_at_origin(self, rng):
        fs = sgm.standard_freq_set(3)
        zero = np.zeros(fs.size)
        for _ in range(20):
            x = rng.random(3)
            s = score_batch(fs, zero, x[None])[0]
            h = 1e-7
            mix = np.zeros(fs.size)
            for k in range(fs.size):
                e = np.zeros(fs.size); e[k] = h
                mix[k] = (np.log(mixm_density_batch(fs, e, x[None])[0])
                          - np.log(mixm_density_batch(fs, -e, x[None])[0])) / (2 * h)
            np.testing.assert_allclose(s, mix, atol=1e-5)


class TestMixmDensity:
    def test_uniform(self, rng):
        fs = sgm.standard_freq_set(2)
        assert mixm_density_batch(fs, np.zeros(fs.size), rng.random((1, 2)))[0] == 1.0

    def test_correlation_model(self, rng):
        for _ in range(10):
            th = rng.uniform(-0.5, 0.5)
            x = rng.random(2)
            expect = 1 + 2 * th * np.cos(np.pi * x[0]) * np.cos(np.pi * x[1])
            assert mixm_density_batch(U11, [th], x[None])[0] == pytest.approx(expect, abs=1e-14)

    def test_integrates_to_one_for_any_theta(self, rng):
        fs = sgm.standard_freq_set(2)
        theta = rng.normal(size=fs.size)  # normalization needs no feasibility
        val = sgm.integrate(lambda X: mixm_density_batch(fs, theta, X), 2, 32)
        assert val == pytest.approx(1.0, abs=1e-12)


class TestFisher:
    def test_origin_values(self):
        assert sgm.fisher_origin(U11)[0] == pytest.approx(1.0)
        fs = FrequencySet.from_vectors([[2, 0, 0]])
        assert sgm.fisher_origin(fs)[0] == pytest.approx(8.0)

    def test_origin_matches_quadrature(self):
        fs = sgm.standard_freq_set(2)
        J = sgm.fisher_numeric(fs, np.zeros(fs.size))
        np.testing.assert_allclose(J, np.diag(sgm.fisher_origin(fs)), atol=1e-8)

    def test_closed_1d_values(self):
        assert sgm.fisher_closed_1d(1, 0.6) == pytest.approx(0.2 / (0.36 * 0.8), rel=1e-12)
        assert sgm.fisher_closed_1d(1, 1e-9) == pytest.approx(0.5)
        assert sgm.fisher_closed_1d(2, 0.0) == pytest.approx(8.0)

    def test_closed_1d_matches_quadrature(self):
        fs = FrequencySet.from_vectors([[2]])
        # 64 nodes over-resolve the near-pole integrand at theta u^2 = 0.8
        J = sgm.fisher_numeric(fs, [0.2], 64)
        assert sgm.fisher_closed_1d(2, 0.2) == pytest.approx(J[0, 0], abs=1e-8)

    def test_closed_1d_domain_error(self):
        with pytest.raises(DomainError):
            sgm.fisher_closed_1d(2, 0.25)
        with pytest.raises(DomainError):
            sgm.fisher_closed_1d(0, 0.1)

    def test_closed_corr_values(self):
        assert sgm.fisher_closed_corr(1e-9) == pytest.approx(1.0)
        assert sgm.fisher_closed_corr(0.6) == pytest.approx(2 * 0.2 / (0.36 * 0.8), rel=1e-12)

    def test_closed_corr_matches_quadrature(self):
        J = sgm.fisher_numeric(U11, [0.9])
        assert sgm.fisher_closed_corr(0.9) == pytest.approx(J[0, 0], abs=1e-6)

    def test_closed_corr_domain_error(self):
        with pytest.raises(DomainError):
            sgm.fisher_closed_corr(1.0)


# Frequency sets for the kernel checks: the standard sets, one with a
# component of 3, one on which the (0, 2) and (1, 2) off-diagonal
# coefficients vanish for every frequency, and one whose last axis has a
# single distinct component.
KERNEL_SETS = [sgm.standard_freq_set(m) for m in range(1, 6)] + [
    FrequencySet.from_vectors([[3, 0], [0, 3], [1, 2], [3, 1], [1, 1]]),
    FrequencySet.from_vectors([[1, 0, 0], [0, 2, 0], [1, 1, 0], [0, 0, 3], [2, 1, 0]]),
    FrequencySet.from_vectors([[1, 0, 2], [0, 1, 2], [1, 1, 2], [2, 1, 2]]),
]


def direct_formulas(freqs, theta, X):
    """Hessians, bases, potential, gradient map and mixture density, summed
    frequency by frequency from np.cos and np.sin of pi u_j x_j."""
    n, m = X.shape
    G = np.broadcast_to(np.eye(m), (n, m, m)).copy()
    bases = []
    pot = 0.5 * (X**2).sum(axis=1)
    grad = X.copy()
    mix = np.ones(n)
    for u, t in zip(freqs.freqs, theta):
        c, s = np.cos(np.pi * u * X), np.sin(np.pi * u * X)
        H = np.zeros((n, m, m))
        for j in range(m):
            for l in range(m):
                if j == l:
                    H[:, j, j] = u[j] ** 2 * c.prod(axis=1)
                else:
                    rest = np.delete(c, [j, l], axis=1).prod(axis=1)
                    H[:, j, l] = -u[j] * u[l] * s[:, j] * s[:, l] * rest
            grad[:, j] += t * u[j] * s[:, j] * np.delete(c, j, axis=1).prod(axis=1) / np.pi
        bases.append(H)
        G += t * H
        pot -= t * c.prod(axis=1) / np.pi**2
        mix += t * (u @ u) * c.prod(axis=1)
    return G, bases, pot, grad, mix


class TestKernels:
    @pytest.mark.parametrize("fs", KERNEL_SETS, ids=lambda fs: f"m{fs.dim}k{fs.size}")
    def test_batch_kernels_match_direct_formulas(self, fs, rng):
        theta = random_lit_interior(fs, rng)
        X = rng.random((200, fs.dim))
        G, _, pot, grad, mix = direct_formulas(fs, theta, X)
        np.testing.assert_allclose(gram_batch(fs, theta, X), G, rtol=0, atol=1e-14)
        np.testing.assert_allclose(potential_batch(fs, theta, X), pot, rtol=0, atol=1e-14)
        np.testing.assert_allclose(gradient_map_batch(fs, theta, X), grad, rtol=0, atol=1e-14)
        np.testing.assert_allclose(mixm_density_batch(fs, theta, X), mix, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("fs", KERNEL_SETS, ids=lambda fs: f"m{fs.dim}k{fs.size}")
    def test_scores_match_solve(self, fs, rng):
        theta = random_lit_interior(fs, rng)
        X = rng.random((200, fs.dim))
        G, bases, _, _, _ = direct_formulas(fs, theta, X)
        np.linalg.cholesky(G)  # positive definite: the scores take the Cholesky path
        ref = np.stack(
            [np.trace(np.linalg.solve(G, H), axis1=1, axis2=2) for H in bases], axis=1
        )
        np.testing.assert_allclose(score_batch(fs, theta, X), ref, rtol=1e-12, atol=1e-12)

    def test_scores_raise_singular_where_cholesky_fails(self):
        # theta = 1 is on the boundary of the u = (1, 1) model: G is singular on
        # x1 + x2 = 1, where the first three points lie (their rounded stack
        # fails Cholesky, and no eigenvalue is below -EPS_PD); the last two are
        # interior
        X = np.array([[0.15, 0.85], [0.8, 0.2], [0.9, 0.1], [0.3, 0.3], [0.6, 0.1]])
        G, (H,), _, _, _ = direct_formulas(U11, [1.0], X)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram_batch(U11, [1.0], X[:3]))
        for boundary in (X[:3], X):
            with pytest.raises(SingularHessianError):
                score_batch(U11, [1.0], boundary)
        ref = np.trace(np.linalg.solve(G[3:], H[3:]), axis1=1, axis2=2)
        np.testing.assert_allclose(score_batch(U11, [1.0], X[3:])[:, 0], ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("fs", KERNEL_SETS, ids=lambda fs: f"m{fs.dim}k{fs.size}")
    def test_gram_on_points_and_meshes_matches_direct_formulas(self, fs, rng):
        theta = random_lit_interior(fs, rng)
        theta[::3] = 0.0  # frequencies with theta_u = 0 drop out of the sums
        X = rng.random((50, fs.dim))
        for name, mesh, points in [("points", X, X), *meshes(fs.dim, rng)]:
            G = direct_formulas(fs, theta, points)[0]
            np.testing.assert_allclose(gram_batch(fs, theta, mesh), G, rtol=0, atol=1e-14,
                                       err_msg=name)

    @pytest.mark.parametrize("fs", KERNEL_SETS, ids=lambda fs: f"m{fs.dim}k{fs.size}")
    def test_mixture_term_stack_matches_direct_formula(self, fs, rng):
        X = rng.random((200, fs.dim))
        base, coeffs = _term_values("mixm", fs, X)
        # angles (pi x_j) u_j, as the kernels form them; (pi u_j) x_j differs in the last bits
        direct = np.stack([(u @ u) * np.cos(np.pi * X * u).prod(axis=1) for u in fs.freqs], axis=1)
        assert np.array_equal(base, np.eye(1))
        assert coeffs.shape == (200, 1, fs.size)
        np.testing.assert_allclose(coeffs[:, 0], direct, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("fs", KERNEL_SETS, ids=lambda fs: f"m{fs.dim}k{fs.size}")
    def test_hessian_basis_rows_are_dense_triu_entries(self, fs, rng):
        X = rng.random((200, fs.dim))
        _, bases, _, _, _ = direct_formulas(fs, np.zeros(fs.size), X)
        got = hessian_basis_batch(fs, X)
        assert got.shape == (200, fs.dim * (fs.dim + 1) // 2, fs.size)
        # svec of each (N, m, m) basis, stacked over the frequencies on the last axis
        want = np.stack([svec(H) for H in bases], axis=-1)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_singular_hessian_raises(self):
        # G = 1 + theta cos(0) = 0 at x = 0
        fs = FrequencySet.from_vectors([[1]])
        with pytest.raises(SingularHessianError):
            score_batch(fs, [-1.0], np.zeros((1, 1)))


def meshes(m, rng):
    """(name, sparse ij mesh, the points it stands for in C order): a full
    tensor grid, a grid with one-point axes, rows of points (varying along
    dimension 0) crossed with a grid over the trailing axes, and, for m >= 2,
    rows over the first and last axes crossed with a grid over the others, so
    that the last column varies with the rows (a marginal over axes (0, 2))."""
    full = [np.r_[0.0, rng.random(3), 1.0] for _ in range(m)]
    thin = [rng.random(1) if j % 2 else rng.random(4) for j in range(m)]
    for name, axes in (("full", full), ("one-point", thin)):
        points = np.array(list(itertools.product(*axes)))
        yield name, np.meshgrid(*axes, indexing="ij", sparse=True), points
    kept, rows = (m + 1) // 2, rng.random((6, (m + 1) // 2))
    grid = [rng.random(3) for _ in range(m - kept)]
    mesh = tuple(rows[:, d].reshape((-1,) + (1,) * len(grid)) for d in range(kept))
    mesh += tuple(g[None] for g in np.meshgrid(*grid, indexing="ij", sparse=True))
    points = np.array([[*r, *g] for r in rows for g in itertools.product(*grid)])
    yield "points-x-grid", mesh, points
    if m >= 2:
        rows, grid = rng.random((5, 2)), [rng.random(3) for _ in range(m - 2)]
        ends = [rows[:, d].reshape((-1,) + (1,) * len(grid)) for d in range(2)]
        inner = [g[None] for g in np.meshgrid(*grid, indexing="ij", sparse=True)]
        points = np.array([[r[0], *g, r[1]] for r in rows for g in itertools.product(*grid)])
        yield "ends-x-grid", (ends[0], *inner, ends[1]), points


class TestMesh:
    @pytest.mark.parametrize("fs", KERNEL_SETS, ids=lambda fs: f"m{fs.dim}k{fs.size}")
    def test_kernels_on_a_mesh_equal_the_expanded_points(self, fs, rng):
        theta = random_lit_interior(fs, rng)
        for name, mesh, points in meshes(fs.dim, rng):
            assert np.array_equal(hessian_basis_batch(fs, mesh), hessian_basis_batch(fs, points))
            for kernel in (gram_batch, density_batch, mixm_density_batch, score_batch):
                got, want = kernel(fs, theta, mesh), kernel(fs, theta, points)
                assert got.shape == want.shape, (name, kernel.__name__)
                assert np.array_equal(got, want), (name, kernel.__name__)


@st.composite
def lit_theta(draw, max_dim=3):
    """A standard set of dimension <= max_dim and a theta in the L1 region."""
    fs = sgm.standard_freq_set(draw(st.integers(1, max_dim)))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    z = np.array(draw(st.lists(unit, min_size=fs.size, max_size=fs.size)))
    loads = np.abs(z) @ fs.freqs.astype(float) ** 2
    scale = draw(st.floats(0.0, 1.0)) / max(loads.max(), 1e-12)
    return fs, z * scale


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(lit_theta(max_dim=4), st.data())
    def test_gradient_map_fixes_each_face(self, case, data):
        fs, theta = case
        j = data.draw(st.integers(0, fs.dim - 1))
        face = data.draw(st.sampled_from([0.0, 1.0]))
        x = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=fs.dim, max_size=fs.dim)))
        x[j] = face
        y = gradient_map_batch(fs, theta, x[None])[0]
        assert abs(y[j] - face) <= 1e-14

    @settings(max_examples=10, deadline=None)
    @given(lit_theta(max_dim=3))
    def test_lit_densities_integrate_to_one(self, case):
        fs, theta = case
        val = sgm.integrate(lambda X: density_batch(fs, theta, X), fs.dim, 48)
        assert val == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(lit_theta(max_dim=5), st.integers(0, 2**32 - 1))
    def test_gram_is_identity_plus_weighted_bases(self, case, seed):
        fs, theta = case
        X = np.random.default_rng(seed).random((20, fs.dim))
        expect = np.eye(fs.dim) + smat(hessian_basis_batch(fs, X) @ theta)
        np.testing.assert_allclose(gram_batch(fs, theta, X), expect, rtol=0, atol=1e-14)
