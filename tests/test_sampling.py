import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgm
from sgm import DomainError, FrequencySet, sampling
from sgm.model import density_batch, gram_batch, mixm_density_batch
from sgm.sampling import _cell_ceiling

from conftest import random_lit_interior

U11 = FrequencySet.from_vectors([[1, 1]])
U7 = FrequencySet.from_vectors([[1, 2, 0], [0, 1, 1], [1, 1, 1]])


def theta7():
    v = np.zeros(3)
    v[U7.index((1, 2, 0))] = 0.1
    v[U7.index((0, 1, 1))] = 0.3
    v[U7.index((1, 1, 1))] = 0.2
    return v


class TestRejectionBound:
    def test_zero_theta(self):
        assert sgm.rejection_bound(U11, [0.0]) == pytest.approx(1.0)

    def test_three_frequency_example(self):
        assert sgm.rejection_bound(U7, theta7()) == pytest.approx(3.705)

    def test_dominates_density_on_grid(self, rng):
        grid1d = np.linspace(0, 1, 51)
        pts = np.stack(np.meshgrid(grid1d, grid1d, indexing="ij"), -1).reshape(-1, 2)
        fs = sgm.standard_freq_set(2)
        for _ in range(50):
            theta = random_lit_interior(fs, rng, margin=0.05)
            bound = sgm.rejection_bound(fs, theta)
            assert density_batch(fs, theta, pts).max() <= bound * (1 + 1e-12)

    def test_mixm_bound_dominates(self, rng):
        grid1d = np.linspace(0, 1, 51)
        pts = np.stack(np.meshgrid(grid1d, grid1d, indexing="ij"), -1).reshape(-1, 2)
        fs = sgm.standard_freq_set(2)
        for _ in range(20):
            theta = rng.normal(scale=0.1, size=fs.size)
            bound = sgm.rejection_bound(fs, theta, "mixm")
            assert mixm_density_batch(fs, theta, pts).max() <= bound * (1 + 1e-12)

    def test_unknown_model_raises(self):
        with pytest.raises(DomainError, match="unknown model 'bogus'"):
            sgm.rejection_bound(FrequencySet.from_vectors([[1, 1]]), [0.1], "bogus")


class TestSampleSgm:
    def test_uniform_when_theta_zero(self):
        fs = sgm.standard_freq_set(2)
        out, info = sgm.sample_sgm(fs, np.zeros(fs.size), 5000, seed=1, return_info=True)
        assert out.shape == (5000, 2)
        assert info.acceptance_rate == 1.0  # bound 1: everything accepted
        assert (out >= 0).all() and (out <= 1).all()

    def test_deterministic(self):
        a = sgm.sample_sgm(U11, [0.4], 500, seed=7)
        b = sgm.sample_sgm(U11, [0.4], 500, seed=7)
        assert np.array_equal(a, b)
        c = sgm.sample_sgm(U11, [0.4], 500, seed=8)
        assert not np.array_equal(a, c)

    def test_correlation_statistic(self):
        n = 40000
        out = sgm.sample_sgm(U11, [0.5], n, seed=3)
        emp = np.corrcoef(out.T)[0, 1]
        assert emp == pytest.approx(0.458, abs=3.0 / np.sqrt(n) + 2e-3)

    def test_acceptance_rate_matches_bound(self):
        out, info = sgm.sample_sgm(U7, theta7(), 20000, seed=5, return_info=True)
        expect = 1.0 / info.bound
        se = np.sqrt(expect * (1 - expect) / info.n_proposed)
        assert abs(info.acceptance_rate - expect) <= 3 * se

    def test_infeasible_theta_detected(self):
        with pytest.raises(DomainError):
            sgm.sample_sgm(U11, [1.8], 100, seed=0)


def boundary_theta(fs, rng):
    """A theta on the L1 region's boundary: its heaviest axis carries load exactly 1."""
    z = rng.normal(size=fs.size)
    return z / (np.abs(z) @ fs.freqs.astype(float) ** 2).max()


def cell_points(r, m, rng, per_cell=4):
    """The cells of the r^m grid, (C, m), and points of each, (C, 2^m + 1 + per_cell, m):
    its corners, its centre and per_cell random points."""
    cells = np.array(list(itertools.product(range(r), repeat=m)))
    V = np.concatenate([list(itertools.product((0.0, 1.0), repeat=m)), np.full((1, m), 0.5)])
    V = np.concatenate([np.broadcast_to(V, (len(cells),) + V.shape),
                        rng.random((len(cells), per_cell, m))], axis=1)
    return cells, np.minimum((cells[:, None] + V) / r, 1.0)


def assert_ceiling_dominates(fs, theta, rng):
    """On every cell, the density at the cell's points is within the sampler's
    tolerance of the cell's ceiling."""
    bound = sgm.rejection_bound(fs, theta)
    r, ceil, _ = _cell_ceiling(fs, theta, bound)
    m = fs.dim
    assert ceil.shape == (r,) * m and r ** m <= 4096 and m * fs.size * r ** m <= 2**20
    cells, X = cell_points(r, m, rng)
    p = density_batch(fs, theta, X.reshape(-1, m)).reshape(len(cells), -1)
    top = ceil[tuple(cells.T)] * (1.0 + 1e-12)
    assert (p <= top[:, None]).all()


class TestCellCeiling:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
    def test_dominates_density_on_every_cell(self, m, on_boundary, seed):
        fs, rng = sgm.standard_freq_set(m), np.random.default_rng(seed)
        if on_boundary:
            theta = boundary_theta(fs, rng)
        else:
            theta = random_lit_interior(fs, rng, margin=0.05)
        assert_ceiling_dominates(fs, theta, rng)

    @pytest.mark.parametrize("fs, theta", [
        (U11, [1.0]),
        (FrequencySet.from_vectors([[2]]), [0.25]),
        (FrequencySet.from_vectors([[2]]), [-0.25]),
        (FrequencySet.from_vectors([[3]]), [-1.0 / 9.0]),  # extrema 1/3, 2/3 inside cells
        # r = 5 at m = 5: the middle cells [0.4, 0.6] straddle the extremum x = 1/2 of u = 2
        (FrequencySet.from_vectors([[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [1, 1, 0, 0, 0],
                                    [0, 0, 2, 1, 0], [0, 0, 0, 1, 2]]),
         [-0.2, -0.2, 0.15, -0.2, -0.2]),
    ])
    def test_dominates_density_at_interior_extrema_and_boundary(self, fs, theta):
        assert_ceiling_dominates(fs, theta, np.random.default_rng(0))

    def test_widens_to_the_interior_extremum(self):
        fs = FrequencySet.from_vectors([[2, 0, 0, 0, 0]])
        r, ceil, _ = _cell_ceiling(fs, [-0.2], 1.8)
        assert r == 5
        # G_00 = 1 + 0.8 on the cell around x_0 = 1/2, where cos(2 pi x_0) = -1
        assert ceil[2, 0, 0, 0, 0] >= 1.8
        assert ceil[2, 0, 0, 0, 0] == pytest.approx(1.8, rel=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([U11, U7, FrequencySet.from_vectors([[1, 0, 0]]), sgm.standard_freq_set(2),
                            sgm.standard_freq_set(3)]),
           st.floats(0.9, 1.3), st.integers(0, 2**32 - 1))
    def test_squeezed_cells_are_semidefinite(self, fs, scale, seed):
        # a cell whose ceiling is below the envelope skips evaluations, so no
        # point of it may have an indefinite Hessian
        rng = np.random.default_rng(seed)
        theta = scale * boundary_theta(fs, rng)
        bound = sgm.rejection_bound(fs, theta)
        try:
            r, ceil, _ = _cell_ceiling(fs, theta, bound)
        except DomainError:
            return
        cells, X = cell_points(r, fs.dim, rng)
        X = X[ceil[tuple(cells.T)] < bound].reshape(-1, fs.dim)
        assert np.linalg.eigvalsh(gram_batch(fs, theta, X))[:, 0].min() >= -1e-12

    @pytest.mark.parametrize("fs, theta", [
        (FrequencySet.from_vectors([[1, 0, 0]]), [1.019]),  # G_00 < 0 on part of the last cell
        (U11, [-1.0001]),  # G indefinite on a band along x_1 = x_2, diagonal >= 0
    ])
    def test_partly_indefinite_cells_are_evaluated(self, fs, theta):
        _cell_ceiling(fs, theta, sgm.rejection_bound(fs, theta))  # no cell is wholly negative
        for seed in range(20):
            with pytest.raises(DomainError, match="indefinite|infeasible"):
                sgm.sample_sgm(fs, theta, 100, seed=seed)

    def test_negative_diagonal_raises_before_any_proposal(self, monkeypatch):
        def never(*args):
            raise AssertionError("density evaluated")
        monkeypatch.setattr(sampling, "density_batch", never)
        for seed in range(20):
            with pytest.raises(DomainError, match="theta is infeasible"):
                sgm.sample_sgm(U11, [1.05], 100, seed=seed)


def assert_floor_below_density(fs, theta, rng):
    """On every cell, the floor is at most the density at the cell's points and
    at most the ceiling; a cell left at the global ceiling has no floor."""
    bound = sgm.rejection_bound(fs, theta)
    r, ceil, floor = _cell_ceiling(fs, theta, bound)
    assert floor.shape == ceil.shape
    cells, X = cell_points(r, fs.dim, rng)
    p = density_batch(fs, theta, X.reshape(-1, fs.dim)).reshape(len(cells), -1)
    assert (p >= floor[tuple(cells.T)][:, None]).all()
    assert (floor <= ceil).all()
    assert np.isneginf(floor[ceil == bound]).all()


class TestCellFloor:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
    def test_below_density_on_every_cell(self, m, on_boundary, seed):
        fs, rng = sgm.standard_freq_set(m), np.random.default_rng(seed)
        if on_boundary:
            theta = boundary_theta(fs, rng)
        else:
            theta = random_lit_interior(fs, rng, margin=0.05)
        assert_floor_below_density(fs, theta, rng)

    def test_accepts_more_draws_than_are_evaluated(self, monkeypatch):
        seen = []

        def counting(fs, theta, X):
            seen.append(len(X))
            return density_batch(fs, theta, X)
        monkeypatch.setattr(sampling, "density_batch", counting)
        sgm.sample_sgm(U7, theta7(), 20000, seed=5)
        assert 0 < sum(seen) < 20000


def plain_rejection(density, bound, dim, n, seed):
    """Rejection under the global bound with no squeeze, in 8,192-row batches
    of X then U: the draws and the count of proposals examined."""
    rng = np.random.default_rng(seed)
    rows, proposed, filled = [], 0, 0
    while filled < n:
        X = rng.random((8192, dim))
        U = rng.random(8192)
        hit = np.flatnonzero(U * bound <= density(X))
        need = n - filled
        proposed += 8192 if len(hit) <= need else int(hit[need - 1]) + 1
        rows.append(X[hit[:need]])
        filled += len(rows[-1])
    return np.concatenate(rows), proposed


def stream_cases():
    rng = np.random.default_rng(2024)
    fs3 = sgm.standard_freq_set(3)
    return [(U11, np.array([0.5])), (U7, theta7()),
            (fs3, random_lit_interior(fs3, rng)), (fs3, boundary_theta(fs3, rng))]


class TestSqueezeKeepsStreams:
    @pytest.mark.parametrize("case", range(4))
    def test_sgm_equals_plain_rejection(self, case):
        fs, theta = stream_cases()[case]
        bound = sgm.rejection_bound(fs, theta)
        ref, proposed = plain_rejection(
            lambda X: density_batch(fs, theta, X), bound, fs.dim, 6000, seed=41 + case)
        out, info = sgm.sample_sgm(fs, theta, 6000, seed=41 + case, return_info=True)
        assert out.tobytes() == ref.tobytes()
        assert (info.n_proposed, info.bound) == (proposed, bound)

    def test_mixm_equals_plain_rejection(self):
        fs = sgm.standard_freq_set(2)
        z = np.random.default_rng(3).normal(size=fs.size)
        theta = 0.8 * z / (np.abs(z) @ fs.sqnorms)  # density >= 0.2
        bound = sgm.rejection_bound(fs, theta, "mixm")
        ref, proposed = plain_rejection(
            lambda X: mixm_density_batch(fs, theta, X), bound, 2, 6000, seed=5)
        out, info = sgm.sample_mixm(fs, theta, 6000, seed=5, return_info=True)
        assert out.tobytes() == ref.tobytes() and info.n_proposed == proposed

    def test_density_evaluated_at_most_at_half_the_proposals(self, monkeypatch):
        points = []

        def counted(freqs, theta, X):
            points.append(len(X))
            return density_batch(freqs, theta, X)
        monkeypatch.setattr(sampling, "density_batch", counted)
        out, info = sgm.sample_sgm(U7, theta7(), 20000, seed=5, return_info=True)
        assert 0 < sum(points) <= info.n_proposed / 2


class TestSampleMixm:
    def test_uniform(self):
        fs = sgm.standard_freq_set(1)
        out = sgm.sample_mixm(fs, np.zeros(fs.size), 1000, seed=2)
        assert out.shape == (1000, 1)

    def test_cosine_moment(self):
        # E[cos(pi X)] under 1 + theta cos(pi x) is theta / 2
        fs = FrequencySet.from_vectors([[1]])
        th = 0.5
        quad = sgm.integrate(
            lambda X: np.cos(np.pi * X[:, 0]) * mixm_density_batch(fs, [th], X), 1, 32
        )
        n = 40000
        out = sgm.sample_mixm(fs, [th], n, seed=9)
        vals = np.cos(np.pi * out[:, 0])
        assert vals.mean() == pytest.approx(quad, abs=3 * vals.std() / np.sqrt(n))

    def test_acceptance_rate(self):
        fs = FrequencySet.from_vectors([[1]])
        out, info = sgm.sample_mixm(fs, [0.5], 20000, seed=4, return_info=True)
        expect = 1.0 / info.bound
        se = np.sqrt(expect * (1 - expect) / info.n_proposed)
        assert info.bound == pytest.approx(1.5)
        assert abs(info.acceptance_rate - expect) <= 3 * se

    def test_theta_outside_the_mixture_region_raises(self):
        # the region is |theta| <= 1 / ||u||^2 = 0.5; at 0.9 the density goes negative
        with pytest.raises(DomainError, match="negative density .* theta is infeasible"):
            sgm.sample_mixm(FrequencySet.from_vectors([[1, 1]]), [0.9], 100, 0)


class TestBenchmark5:
    def test_shape_and_determinism(self):
        a = sgm.sample_benchmark5(100, seed=0)
        b = sgm.sample_benchmark5(100, seed=0)
        assert a.shape == (100, 5)
        assert np.array_equal(a, b)

    def test_first_pair_correlation(self):
        n = 200000
        out = sgm.sample_benchmark5(n, seed=1)
        emp = np.corrcoef(out[:, 0], out[:, 1])[0, 1]
        assert emp == pytest.approx(1 / np.sqrt(2), abs=4.0 / np.sqrt(n))

    def test_third_coordinate_moments(self):
        n = 200000
        out = sgm.sample_benchmark5(n, seed=2)
        assert abs(out[:, 2].mean()) < 4 * out[:, 2].std() / np.sqrt(n)
        assert abs(np.corrcoef(out[:, 1], out[:, 2])[0, 1]) < 0.01

    def test_interaction_pair_uncorrelated(self):
        n = 200000
        out = sgm.sample_benchmark5(n, seed=3)
        prod = out[:, 3] * out[:, 4]
        assert abs(prod.mean()) < 4 * prod.std() / np.sqrt(n)

    def test_heteroscedastic_link(self):
        # Var(x3 | x2 > 0) should exceed Var(x3 | x2 < 0)
        out = sgm.sample_benchmark5(100000, seed=4)
        hi = out[out[:, 1] > 0.5, 2].var()
        lo = out[out[:, 1] < -0.5, 2].var()
        assert hi > lo * 1.5

    def test_no_draws_raises(self):
        with pytest.raises(DomainError, match="n must be >= 1"):
            sgm.sample_benchmark5(0, 0)
