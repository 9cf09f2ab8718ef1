import tracemalloc

import numpy as np
import pytest

import sgm
from sgm import DomainError, FrequencySet, ResourceLimitError, feasibility
from sgm.feasibility import (
    LATTICE_POINT_CAP,
    LatticeRegion,
    LitRegion,
    km_factors,
    lattice_points,
)
from sgm.model import EPS_PD, _tensor_points, gram_batch

from conftest import random_lit_interior

U11 = FrequencySet.from_vectors([[1, 1]])
U7 = FrequencySet.from_vectors([[1, 2, 0], [0, 1, 1], [1, 1, 1]])
MA2 = FrequencySet.from_vectors([[1, 1], [2, 2]])


def theta7():
    v = np.zeros(3)
    v[U7.index((1, 2, 0))] = 0.1
    v[U7.index((0, 1, 1))] = 0.3
    v[U7.index((1, 1, 1))] = 0.2
    return v


class TestRegions:
    def test_lit_validation(self):
        with pytest.raises(DomainError):
            LitRegion(1.5)
        with pytest.raises(DomainError):
            LitRegion(-0.1)

    def test_lattice_validation(self):
        with pytest.raises(DomainError):
            LatticeRegion(0)


class TestLitMargin:
    def test_zero_theta(self):
        assert sgm.lit_margin(U11, [0.0], 1.0) == pytest.approx(1.0)

    def test_three_frequency_example(self):
        assert sgm.lit_margin(U7, theta7(), 1.0) == pytest.approx(0.1)

    def test_boundary(self):
        assert sgm.lit_margin(U11, [1.0], 1.0) == pytest.approx(0.0)

    def test_affine_in_tau(self, rng):
        fs = sgm.standard_freq_set(2)
        theta = random_lit_interior(fs, rng)
        m1 = sgm.lit_margin(fs, theta, 0.3)
        m2 = sgm.lit_margin(fs, theta, 0.8)
        assert m2 - m1 == pytest.approx(0.5, abs=1e-12)

    def test_tau_above_one_raises(self):
        with pytest.raises(DomainError, match=r"tau must lie in \[0, 1\]"):
            sgm.lit_margin(FrequencySet.from_vectors([[1, 1]]), [0.1], tau=2.0)


class TestScaleKM:
    def test_large_m_converges(self, rng):
        fs = sgm.standard_freq_set(2)
        theta = rng.normal(size=fs.size)
        scaled = sgm.scale_km(fs, theta, 1000)
        bound = 1e-2 * np.abs(theta).max() * fs.u_max * fs.dim
        assert np.abs(scaled - theta).max() < bound

    def test_u11_m5(self):
        assert sgm.scale_km(U11, [2.0], 5)[0] == pytest.approx(2.0 * 1.5625)

    def test_zero_components_untouched(self):
        fs = FrequencySet.from_vectors([[0, 2]])
        assert km_factors(fs, 4)[0] == pytest.approx(0.5)  # only the nonzero axis scales

    def test_requires_m_past_umax(self):
        with pytest.raises(DomainError):
            sgm.scale_km(MA2, [0.1, 0.1], 2)


class TestLatticeFeasible:
    def test_zero_theta(self):
        check = sgm.lattice_feasible(U11, [0.0], 3)
        assert check.feasible and check.margin == pytest.approx(1.0)

    def test_members_are_interior(self, rng):
        # lattice-feasible points have positive minimum eigenvalue on a finer grid
        for _ in range(10):
            theta = random_lit_interior(MA2, rng, margin=0.05) * 1.4
            check = sgm.lattice_feasible(MA2, theta, 4)
            if check.feasible:
                assert sgm.min_eig_grid(MA2, theta, resolution=401) > 0

    def test_region_grows_toward_exact_boundary(self):
        # ray scaling: the feasible scale increases with M, below the exact limit
        direction = np.zeros(2)
        direction[MA2.index((1, 1))] = 0.6
        direction[MA2.index((2, 2))] = 0.05

        def ray_scale(M):
            lo, hi = 0.0, 4.0
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if sgm.lattice_feasible(MA2, mid * direction, M).feasible:
                    lo = mid
                else:
                    hi = mid
            return lo

        scales = [ray_scale(M) for M in (5, 10, 20, 40)]
        assert all(s2 > s1 for s1, s2 in zip(scales, scales[1:]))

        def exact(t):
            return sgm.ma2_feasible(*(t * direction))

        lo, hi = 0.0, 4.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if exact(mid) else (lo, mid)
        # approaches the exact boundary from the inner side
        assert scales[-1] <= lo + 1e-6
        assert lo - scales[-1] < 0.15

    def test_resource_cap(self):
        fs = sgm.standard_freq_set(3)
        with pytest.raises(ResourceLimitError):
            sgm.lattice_feasible(fs, np.zeros(fs.size), 300)

    def test_fitted_lattice_theta_is_member(self):
        # a lattice fit ends on the boundary: its margin is within EPS_PD of 0
        fs = sgm.standard_freq_set(3)
        truth = np.zeros(fs.size)
        for u, value in (((1, 2, 0), 0.1), ((0, 1, 1), 0.3), ((1, 1, 1), 0.2)):
            truth[fs.index(u)] = value
        data = sgm.sample_sgm(fs, truth, 100, seed=0)
        fit = sgm.fit_sgm(data, fs, LatticeRegion(5))
        check = sgm.lattice_feasible(fs, fit.theta_raw, 5)
        assert check.margin < EPS_PD
        assert check.feasible

    def test_lattice_points_order(self):
        pts = lattice_points(2, 2)
        expected = [[a, b] for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)]
        np.testing.assert_array_equal(pts, expected)

    def test_cap_checked_before_lattice_allocation(self):
        # the smallest lattice over the cap: CAP + 1 points, 80 MB as an array;
        # a larger m would make a misplaced check allocate gigabytes
        fs, M = sgm.standard_freq_set(1), LATTICE_POINT_CAP
        data = np.full((5, 1), 0.5)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                sgm.lattice_feasible(fs, np.zeros(fs.size), M)
            with pytest.raises(ResourceLimitError):
                sgm.fit_sgm(data, fs, LatticeRegion(M))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6


class TestMinEigGrid:
    def test_zero_theta(self):
        assert sgm.min_eig_grid(U11, [0.0]) == pytest.approx(1.0)

    def test_correlation_boundary(self):
        assert sgm.min_eig_grid(U11, [1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_ma2_infeasible_point(self):
        theta = np.zeros(2)
        theta[MA2.index((2, 2))] = 0.3
        assert sgm.min_eig_grid(MA2, theta) < 0

    def test_multistart_matches_grid_for_m4(self, rng):
        fs = FrequencySet.from_vectors([[1, 1, 0, 0], [0, 0, 1, 1]])
        theta = np.array([0.4, -0.3])
        approx = sgm.min_eig_grid(fs, theta, resolution=33)
        # the two blocks separate: exact min eig is (1-0.4) combined with (1-0.3)
        assert approx == pytest.approx(0.6, abs=1e-6)

    @pytest.mark.parametrize("m,resolution", [(4, 17), (5, 9)])
    def test_multistart_descent_equals_one_start_at_a_time(self, m, resolution, rng):
        # reference: each start descends alone, each line evaluated as a mesh
        fs = sgm.standard_freq_set(m)
        theta = random_lit_interior(fs, rng) * 1.5  # past the region: lines keep improving
        axis = np.linspace(0.0, 1.0, resolution)
        best = np.inf
        for x in np.random.default_rng(0).random((feasibility._MULTISTART_COUNT, m)):
            val = np.linalg.eigvalsh(gram_batch(fs, theta, x[None]))[0, 0]
            for _ in range(8):
                improved = False
                for j in range(m):
                    line = [axis if i == j else x[i : i + 1] for i in range(m)]
                    mesh = np.meshgrid(*line, indexing="ij", sparse=True)
                    vals = np.linalg.eigvalsh(gram_batch(fs, theta, mesh))[:, 0]
                    i = int(vals.argmin())
                    if vals[i] < val - 1e-14:
                        val, x[j], improved = vals[i], axis[i], True
                if not improved:
                    break
            best = min(best, float(val))
        assert sgm.min_eig_grid(fs, theta, resolution) == best

    def test_resolution_validation(self):
        with pytest.raises(DomainError):
            sgm.min_eig_grid(U11, [0.1], resolution=1)


class TestMinEigOver:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("load", [0.5, 1.0, 2.0], ids=["inside", "boundary", "outside"])
    @pytest.mark.parametrize("small_blocks", [False, True])
    def test_pruned_scan_equals_exhaustive_minimum(self, m, load, small_blocks, rng,
                                                   monkeypatch):
        fs = sgm.standard_freq_set(m)
        direction = rng.normal(size=fs.size)
        theta = direction * load / (np.abs(direction) @ fs.freqs.astype(float) ** 2).max()
        if small_blocks:
            monkeypatch.setattr(feasibility, "_CHUNK", 1)
        block_sizes = []  # per scanned block of points, the points solved by eigvalsh
        eigvalsh, least_eigs = np.linalg.eigvalsh, feasibility._least_eigs
        monkeypatch.setattr(feasibility, "_least_eigs",
                            lambda G, cap: block_sizes.append(0) or least_eigs(G, cap))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda G: block_sizes.__setitem__(-1, len(G)) or eigvalsh(G))
        dense = {1: 201, 2: 101, 3: 41}[m]
        for axes in ([np.linspace(0.0, 1.0, dense)] * m, feasibility._lattice_axes(m, 5),
                     [np.sort(rng.random(dense // 2)) for _ in range(m)]):
            G = gram_batch(fs, theta, _tensor_points(axes))
            want = eigvalsh(G)[:, 0].min()
            block_sizes.clear()
            assert feasibility._min_eig_over(fs, theta, axes) == want
            assert sum(block_sizes) < len(G)
            if small_blocks:  # one leading slice per block: the cap crosses blocks
                assert len(block_sizes) == len(axes[0]) and 0 in block_sizes


class TestMA2:
    def test_examples(self):
        assert sgm.ma2_feasible(0.0, 0.0)
        assert sgm.ma2_feasible(0.0, 0.2)
        assert not sgm.ma2_feasible(0.0, 0.3)

    def test_matches_dense_scan_oracle(self, rng):
        z = np.linspace(0.0, 2.0, 20001)
        for _ in range(200):
            a = rng.uniform(-2.5, 2.5)
            b = rng.uniform(-2.5, 2.5)
            vals = 1.0 + a * np.cos(np.pi * z) + b * np.cos(2 * np.pi * z)
            scan_min = vals.min()
            if abs(scan_min) < 1e-4:
                continue
            assert sgm.ma2_feasible(a, b / 4.0) == (scan_min >= 0)

    def test_agrees_with_grid_scan(self, rng):
        for _ in range(40):
            t11 = rng.uniform(-1.2, 1.2)
            t22 = rng.uniform(-0.4, 0.4)
            exact = sgm.ma2_feasible(t11, t22)
            rho1, rho2 = t11, 4 * t22
            margin = max(1 - abs(rho1) - abs(rho2), 4 * rho2 * (1 - rho2) - rho1**2)
            if abs(margin) < 1e-3:
                continue
            theta = np.zeros(2)
            theta[MA2.index((1, 1))] = t11
            theta[MA2.index((2, 2))] = t22
            lam = sgm.min_eig_grid(MA2, theta)
            assert exact == (lam >= -1e-6)


class TestLitRegionProperties:
    def test_lit_subset_of_feasible(self, rng):
        # boundary points of the unit L1-type region still have nonnegative min eig
        for m in (1, 2, 3):
            fs = sgm.standard_freq_set(m)
            for _ in range(10):
                direction = rng.normal(size=fs.size)
                loads = np.abs(direction) @ fs.freqs.astype(float) ** 2
                theta = direction / loads.max()
                assert sgm.lit_margin(fs, theta, 1.0) == pytest.approx(0.0, abs=1e-12)
                assert sgm.min_eig_grid(fs, theta) >= -1e-8

    @pytest.mark.parametrize(
        "u", [(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 2, 0)]
    )
    def test_single_frequency_tightness(self, u):
        fs = FrequencySet.from_vectors([list(u)])
        bound = 1.0 / max(u) ** 2
        for sign in (+1.0, -1.0):
            lam = sgm.min_eig_grid(fs, [sign * bound])
            assert abs(lam) <= 1e-6

    def test_tau_monotonicity(self, rng):
        fs = sgm.standard_freq_set(2)
        theta = random_lit_interior(fs, rng)
        margins = [sgm.lit_margin(fs, theta, t) for t in (0.2, 0.5, 0.8)]
        assert margins[0] < margins[1] < margins[2]


class TestFejer:
    def test_kernel_at_zero(self):
        assert sgm.fejer_kernel(5, 0.0) == pytest.approx(0.5)
        assert sgm.fejer_kernel(3, 2.0) == pytest.approx(0.5)  # even integers too

    def test_kernel_nonnegative(self, rng):
        z = rng.uniform(-3, 3, size=200)
        assert (np.asarray(sgm.fejer_kernel(4, z)) >= 0).all()

    def test_partition_of_unity(self, rng):
        for M in (2, 3, 5):
            nodes = np.arange(-(M - 1), M + 1) / M
            for _ in range(10):
                x = rng.random()
                total = np.sum(sgm.fejer_kernel(M, x - nodes))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_reconstruct_identity_zero_theta(self, rng):
        rec = sgm.fejer_reconstruct(U11, [0.0], 2, rng.random(2))
        np.testing.assert_allclose(rec, np.eye(2), atol=1e-12)

    def test_reconstruct_identity_m2(self, rng):
        fs = sgm.standard_freq_set(2)
        M = fs.u_max + 1
        for _ in range(20):
            theta = rng.normal(scale=0.3, size=fs.size)
            x = rng.random(2)
            rec = sgm.fejer_reconstruct(fs, theta, M, x)
            np.testing.assert_allclose(rec, gram_batch(fs, theta, x[None])[0], atol=1e-10)

    def test_reconstruct_identity_m1_grid(self):
        fs = FrequencySet.from_vectors([[2]])
        for x in np.linspace(0, 1, 17):
            rec = sgm.fejer_reconstruct(fs, [0.15], 3, [x])
            np.testing.assert_allclose(rec, gram_batch(fs, [0.15], [[x]])[0], atol=1e-10)

    def test_kernel_of_order_zero_raises(self):
        with pytest.raises(DomainError, match="M must be a positive integer"):
            sgm.fejer_kernel(0, 0.5)
