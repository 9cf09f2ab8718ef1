import itertools
import json

import numpy as np
import pytest

import sgm
from sgm import DomainError, FrequencySet, ResourceLimitError
from sgm.analysis import _region_bound, gauss_legendre, tensor_grid
from sgm.cli import main
from sgm.model import density_batch, gram_batch, hessian_basis_batch, mixm_density_batch

from conftest import random_lit_interior, smat

NODES = 48
X48, W48 = gauss_legendre(NODES)
U11 = FrequencySet.from_vectors([[1, 1]])


class TestQuadratureRule:
    def test_weights_positive_sum_one(self):
        for n in (4, 16, 48):
            _, weights = gauss_legendre(n)
            assert (weights > 0).all()
            assert weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_polynomial_exactness(self):
        nodes, weights = gauss_legendre(6)
        for d in range(12):  # exact through degree 2n-1 = 11
            val = weights @ nodes**d
            assert val == pytest.approx(1.0 / (d + 1), abs=1e-14)

    def test_node_count_checked(self):
        with pytest.raises(DomainError, match="node count must be >= 1"):
            gauss_legendre(0)

    def test_cached_read_only(self):
        nodes, weights = gauss_legendre(5)
        again = gauss_legendre(5)
        assert again[0] is nodes and again[1] is weights
        for arr in (nodes, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_integrate_constant(self):
        assert sgm.integrate(lambda X: np.ones(len(X)), 3, NODES) == pytest.approx(1.0)

    def test_cosine_orthogonality_table(self):
        for u in range(0, 3):
            for v in range(0, 3):
                f = lambda X: np.cos(np.pi * u * X[:, 0]) * np.cos(np.pi * v * X[:, 0])
                val = sgm.integrate(f, 1, 48)
                if u == v == 0:
                    expect = 1.0
                elif u == v:
                    expect = 0.5
                else:
                    expect = 0.0
                assert val == pytest.approx(expect, abs=1e-14)

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            tensor_grid(NODES, 5)


class TestCorrelation:
    def test_zero(self):
        assert sgm.correlation(0.0, "sgm", NODES) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_sweep(self):
        for th in np.linspace(-0.9, 0.9, 11):
            closed = (96 * th / np.pi**4) / (1 + 3 * th**2 / np.pi**2)
            assert sgm.correlation(th, "sgm", NODES) == pytest.approx(closed, abs=1e-8)

    def test_mixm_closed_form_sweep(self):
        for th in np.linspace(-0.5, 0.5, 11):
            assert sgm.correlation(th, "mixm", NODES) == pytest.approx(
                96 * th / np.pi**4, abs=1e-8
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            sgm.correlation(1.2, "sgm", NODES)
        with pytest.raises(DomainError):
            sgm.correlation(0.7, "mixm", NODES)


class TestBeta:
    def test_beta122_zero(self):
        assert sgm.beta122(0.0, "sgm", NODES) == pytest.approx(0.0, abs=1e-12)

    def test_beta122_closed_form(self):
        # -5 theta / pi^4 over sqrt(1/12 + theta^2/pi^2) (1/12 + theta^2/(4 pi^2))
        for th in np.linspace(-0.25, 0.25, 11):
            closed = (-5 * th / np.pi**4) / (
                np.sqrt(1 / 12 + th**2 / np.pi**2) * (1 / 12 + th**2 / (4 * np.pi**2))
            )
            assert sgm.beta122(th, "sgm", NODES) == pytest.approx(closed, abs=1e-8)

    def test_beta123_zero(self):
        assert sgm.beta123(0.0, "sgm", NODES) == pytest.approx(0.0, abs=1e-12)

    def test_beta123_endpoint_reference(self):
        assert sgm.beta123(-1.0, "sgm", NODES) == pytest.approx(0.7743, abs=5e-4)
        assert sgm.beta123(-1.0 / 3.0, "mixm", NODES) == pytest.approx(0.3459, abs=5e-4)


class TestRegionBound:
    """One bound function serves the worked moments' domain checks and table1's
    extremal theta: 1 / max_j u_j^2 for sgm, 1 / ||u||^2 for mixm."""

    CASES = [
        (sgm.correlation, (1, 1), {"sgm": 1.0, "mixm": 0.5}),
        (sgm.beta122, (1, 2), {"sgm": 0.25, "mixm": 0.2}),
        (sgm.beta123, (1, 1, 1), {"sgm": 1.0, "mixm": 1.0 / 3.0}),
    ]

    @pytest.mark.parametrize("measure,u,bounds", CASES)
    @pytest.mark.parametrize("model", ["sgm", "mixm"])
    def test_bound_values(self, measure, u, bounds, model):
        assert _region_bound(u, model) == bounds[model]

    @pytest.mark.parametrize("measure,u,bounds", CASES)
    @pytest.mark.parametrize("model", ["sgm", "mixm"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_just_past_the_bound_raises(self, measure, u, bounds, model, sign):
        assert np.isfinite(measure(sign * bounds[model], model, 8))
        with pytest.raises(DomainError, match=f"<= {bounds[model]} for model '{model}'"):
            measure(sign * (bounds[model] + 1e-9), model, 8)


class TestCMI:
    def test_exact_zero_when_factorized(self):
        assert sgm.cond_mutual_info(0.0, 0.25, "sgm", NODES) == pytest.approx(0.0, abs=1e-13)
        assert sgm.cond_mutual_info(0.3, 0.0, "sgm", NODES) == pytest.approx(0.0, abs=1e-13)

    def test_symmetry_in_parameters(self):
        a = sgm.cond_mutual_info(0.2, 0.1, "sgm", NODES)
        b = sgm.cond_mutual_info(0.1, 0.2, "sgm", NODES)
        assert a == pytest.approx(b, rel=1e-9)

    def test_infeasible_raises(self):
        with pytest.raises(DomainError):
            sgm.cond_mutual_info(0.9, 0.9, "mixm", NODES)


class TestMarginals:
    def test_correlation_model_marginal(self):
        # p(x_i) = 1 + theta^2 cos(2 pi x) / 2
        th = 0.6
        xs = np.linspace(0, 1, 9)
        vals = sgm.marginal_density(U11, [th], [0], xs[:, None], nodes=NODES)
        expect = 1 + th**2 / 2 * np.cos(2 * np.pi * xs)
        np.testing.assert_allclose(vals, expect, atol=1e-8)

    def test_three_interaction_two_dim_marginal(self):
        # p(x1, x2) = 1 + theta^2 (4 c1^2 c2^2 - 1) / 2
        fs = FrequencySet.from_vectors([[1, 1, 1]])
        th = 0.8
        pts = np.array([[0.2, 0.7], [0.5, 0.5], [0.9, 0.1]])
        vals = sgm.marginal_density(fs, [th], [0, 1], pts, nodes=NODES)
        c = np.cos(np.pi * pts)
        expect = 1 + th**2 * (4 * c[:, 0] ** 2 * c[:, 1] ** 2 - 1) / 2
        np.testing.assert_allclose(vals, expect, atol=1e-8)

    def test_uniform(self):
        fs = sgm.standard_freq_set(3)
        val = sgm.marginal_density(fs, np.zeros(fs.size), [0], np.array([0.3]), nodes=NODES)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_marginal_integrates_to_one(self, rng):
        fs = sgm.standard_freq_set(3)
        theta = random_lit_interior(fs, rng)
        vals = sgm.marginal_density(fs, theta, [0], X48[:, None], nodes=NODES)
        assert W48 @ vals == pytest.approx(1.0, abs=1e-10)


    @pytest.mark.parametrize("axes", [(0, 1), (1, 0), (0, 2)])
    def test_matches_explicit_expansion(self, axes, rng):
        fs = sgm.standard_freq_set(3)
        theta = random_lit_interior(fs, rng)
        x_sub = rng.random((5, 2))
        (c,) = [a for a in range(3) if a not in axes]
        full = np.empty((5, NODES, 3))
        full[:, :, list(axes)] = x_sub[:, None, :]
        full[:, :, c] = X48
        expect = density_batch(fs, theta, full.reshape(-1, 3)).reshape(5, -1) @ W48
        vals = sgm.marginal_density(fs, theta, list(axes), x_sub, nodes=NODES)
        np.testing.assert_allclose(vals, expect, rtol=0, atol=1e-15)

    def test_duplicate_axes_raise(self):
        fs = sgm.standard_freq_set(3)
        with pytest.raises(DomainError):
            sgm.marginal_density(fs, np.zeros(fs.size), [0, 0], [0.3, 0.4], nodes=NODES)

    def test_negative_axis_raises(self):
        fs = sgm.standard_freq_set(3)
        with pytest.raises(DomainError):
            sgm.marginal_density(fs, np.zeros(fs.size), [-1], [0.3], nodes=NODES)

    def test_out_of_range_axis_raises(self):
        fs = sgm.standard_freq_set(3)
        with pytest.raises(DomainError):
            sgm.marginal_density(fs, np.zeros(fs.size), [3], [0.3], nodes=NODES)

    def test_coordinates_outside_unit_interval_raise(self):
        fs = sgm.standard_freq_set(3)
        with pytest.raises(DomainError):
            sgm.marginal_density(fs, np.zeros(fs.size), [0], [1.5], nodes=NODES)
        with pytest.raises(DomainError):
            sgm.marginal_density(fs, np.zeros(fs.size), [0], [[np.nan]], nodes=NODES)
        with pytest.raises(DomainError):
            sgm.density_grid(fs, np.zeros(fs.size), (0, 1), 5, conditioning={2: 1.7}, nodes=NODES)


class TestExampleMoments:
    def test_heteroscedastic_conditional_mean_is_half(self):
        fs = FrequencySet.from_vectors([[1, 2]])
        th = 0.22
        w, x = W48, X48
        for x1 in (0.1, 0.35, 0.6, 0.93):
            pts = np.column_stack([np.full(len(x), x1), x])
            joint = sgm.marginal_density(fs, [th], [0, 1], pts, nodes=NODES)
            mean = (w * joint) @ x / (w @ joint)
            assert mean == pytest.approx(0.5, abs=1e-8)

    def test_correlation_model_mean_variance(self):
        th = 0.7
        w, x = W48, X48
        marg = sgm.marginal_density(U11, [th], [0], x[:, None], nodes=NODES)
        mean = (w * marg) @ x
        var = (w * marg) @ (x - mean) ** 2
        assert mean == pytest.approx(0.5, abs=1e-8)
        assert var == pytest.approx(1 / 12 + th**2 / (4 * np.pi**2), abs=1e-8)

    def test_heteroscedastic_marginal_and_conditional_variance(self):
        # p(x1) = 1 + 2 theta^2 cos(2 pi x1); the conditional variance of
        # X2 given X1 = 1/12 + (10 theta c(x1) + theta^2) / (4 pi^2 (1 + 2 theta^2 c(2x1)))
        fs = FrequencySet.from_vectors([[1, 2]])
        th = 0.18
        w, x = W48, X48
        marg = sgm.marginal_density(fs, [th], [0], x[:, None], nodes=NODES)
        expect = 1 + 2 * th**2 * np.cos(2 * np.pi * x)
        np.testing.assert_allclose(marg, expect, atol=1e-8)
        for x1 in (0.15, 0.5, 0.85):
            pts = np.column_stack([np.full(len(x), x1), x])
            joint = sgm.marginal_density(fs, [th], [0, 1], pts, nodes=NODES)
            norm = w @ joint
            var = (w * joint) @ (x - 0.5) ** 2 / norm
            closed = 1 / 12 + (10 * th * np.cos(np.pi * x1) + th**2) / (
                4 * np.pi**2 * (1 + 2 * th**2 * np.cos(2 * np.pi * x1))
            )
            assert var == pytest.approx(closed, abs=1e-8)


class TestFisherNumeric:
    def test_origin_diagonal(self):
        fs = sgm.standard_freq_set(3)
        J = sgm.fisher_numeric(fs, np.zeros(fs.size), 24)
        np.testing.assert_allclose(J, np.diag(sgm.fisher_origin(fs)), atol=1e-8)

    def test_matches_closed_corr(self):
        J = sgm.fisher_numeric(U11, [0.6], NODES)
        assert J[0, 0] == pytest.approx(sgm.fisher_closed_corr(0.6), abs=1e-6)

    def test_matches_closed_1d(self):
        fs = FrequencySet.from_vectors([[2]])
        J = sgm.fisher_numeric(fs, [0.1], NODES)
        assert J[0, 0] == pytest.approx(sgm.fisher_closed_1d(2, 0.1), abs=1e-6)

    @pytest.mark.parametrize("vectors", [
        [[1], [2]],
        [[1, 1], [2, 0], [1, 2]],
        [[1, 0], [0, 2]],  # u_0 u_1 = 0 for every u: no off-diagonal term
        [[1, 0, 0], [0, 1, 1], [2, 0, 0], [0, 0, 1]],  # only the pair (1, 2) has one
        [[1, 1, 1], [2, 0, 0], [0, 1, 2], [1, 0, 1]],
    ])
    def test_equals_per_point_sum(self, vectors):
        fs = FrequencySet.from_vectors(vectors)
        theta = random_lit_interior(fs, np.random.default_rng(len(vectors)), margin=0.1)
        nodes, weights = gauss_legendre(7)
        J = sgm.fisher_numeric(fs, theta, 7)
        ref = np.zeros((fs.size, fs.size))
        for idx in itertools.product(range(len(nodes)), repeat=fs.dim):
            x = nodes[list(idx)][None]
            G = gram_batch(fs, theta, x)[0]
            H = smat(hessian_basis_batch(fs, x)[0].T)  # (k, m, m)
            s = np.array([np.trace(np.linalg.solve(G, h)) for h in H])
            ref += np.prod(weights[list(idx)]) * np.linalg.det(G) * np.outer(s, s)
        assert np.abs(J - ref).max() <= 1e-13 * np.abs(ref).max()
        assert (J == J.T).all()

    def test_dimension_cap(self):
        fs = sgm.standard_freq_set(4)
        with pytest.raises(ResourceLimitError):
            sgm.fisher_numeric(fs, np.zeros(fs.size), NODES)


def grid_tsv(tmp_path, capsys, freqs, theta, *flags):
    """What ``sgm analyze --what grid`` prints for the parameters (freqs, theta)."""
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"frequencies": freqs.freqs.tolist(), "theta": list(theta)}))
    assert main(["analyze", "--what", "grid", "--input", str(params), *flags]) == 0
    return capsys.readouterr().out


class TestDensityGrid:
    def test_uniform_grid(self):
        fs = sgm.standard_freq_set(2)
        values = sgm.density_grid(fs, np.zeros(fs.size), (0, 1), 11, nodes=NODES)
        assert values.shape == (11, 11)
        np.testing.assert_allclose(values, 1.0, atol=1e-12)

    def test_conditional_grids_integrate_to_one(self):
        fs = FrequencySet.from_vectors([[1, 2, 0], [0, 1, 1], [1, 1, 1]])
        theta = np.zeros(3)
        theta[fs.index((1, 2, 0))] = 0.1
        theta[fs.index((0, 1, 1))] = 0.3
        theta[fs.index((1, 1, 1))] = 0.2
        x = np.linspace(0, 1, 41)
        for x2 in (0.25, 0.75):
            values = sgm.density_grid(
                fs, theta, (0, 2), 41, conditioning={1: x2}, nodes=NODES
            )
            assert (values >= 0).all()
            total = np.trapezoid(np.trapezoid(values, x, axis=1), x)
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_unimodal_bimodal_transition(self):
        fs = FrequencySet.from_vectors([[1, 2]])
        values = sgm.density_grid(fs, [0.2], (0, 1), 201, nodes=NODES)
        x = np.linspace(0, 1, 201)

        def count_local_maxima(row):
            count = 0
            for i in range(len(row)):
                left = row[i - 1] if i > 0 else -np.inf
                right = row[i + 1] if i < len(row) - 1 else -np.inf
                if row[i] > left and row[i] > right:
                    count += 1
            return count

        i_lo = int(np.argmin(np.abs(x - 0.05)))
        i_hi = int(np.argmin(np.abs(x - 0.95)))
        assert count_local_maxima(values[i_lo]) == 2
        assert count_local_maxima(values[i_hi]) == 1

    def test_tsv_format(self, tmp_path, capsys):
        fs = sgm.standard_freq_set(2)
        text = grid_tsv(tmp_path, capsys, fs, np.zeros(fs.size), "--resolution", "3",
                        "--quad-nodes", str(NODES))
        lines = text.strip().split("\n")
        assert lines[0] == "x_1\tx_2\tdensity"
        assert len(lines) == 1 + 9
        cells = lines[1].split("\t")
        assert len(cells) == 3
        assert float(cells[2]) == pytest.approx(1.0)

    def test_tsv_matches_per_value_formatting(self, tmp_path, capsys):
        fs = FrequencySet.from_vectors([[1, 2, 0], [0, 1, 1], [1, 1, 1]])
        theta = [0.1, 0.3, 0.2]
        x = np.linspace(0.0, 1.0, 5)
        for axes, header in (((0, 2), "x_1\tx_3\tdensity"), ((2, 0), "x_3\tx_1\tdensity")):
            values = sgm.density_grid(fs, theta, axes, 5, nodes=8)
            assert not np.array_equal(values, values.T)  # the row order shows
            lines = [header]
            for i, a in enumerate(x):
                for j, b in enumerate(x):
                    lines.append(f"{a:.17g}\t{b:.17g}\t{values[i, j]:.17g}")
            assert grid_tsv(tmp_path, capsys, fs, theta, "--axes", f"{axes[0]},{axes[1]}",
                            "--resolution", "5", "--quad-nodes", "8") == "\n".join(lines) + "\n"

    def test_empty_complement_is_the_joint_density(self, rng):
        fs = sgm.standard_freq_set(2)
        theta = random_lit_interior(fs, rng)
        values = sgm.density_grid(fs, theta, (0, 1), 11, nodes=NODES)
        x = np.linspace(0.0, 1.0, 11)
        points = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        np.testing.assert_array_equal(values, density_batch(fs, theta, points).reshape(11, 11))

    def test_conditional_is_joint_over_marginal(self, rng):
        fs = sgm.standard_freq_set(3)
        theta = random_lit_interior(fs, rng)
        values = sgm.density_grid(fs, theta, (2, 0), 7, conditioning={1: 0.4}, nodes=NODES)
        x = np.linspace(0.0, 1.0, 7)
        points = np.array([[b, 0.4, a] for a in x for b in x])
        joint = density_batch(fs, theta, points).reshape(7, 7)
        norm = sgm.marginal_density(fs, theta, [1], [0.4], nodes=NODES)
        np.testing.assert_array_equal(values, joint / norm)

    @pytest.mark.parametrize("m", [2, 3])
    def test_swapped_axes_transpose(self, m, rng):
        fs = sgm.standard_freq_set(m)
        theta = random_lit_interior(fs, rng)
        values = sgm.density_grid(fs, theta, (0, 1), 9, nodes=NODES)
        swapped = sgm.density_grid(fs, theta, (1, 0), 9, nodes=NODES)
        np.testing.assert_array_equal(swapped, values.T)

    def test_conditional_mixture_is_joint_over_marginal(self):
        fs = FrequencySet.from_vectors([[1, 2, 0], [0, 1, 1], [1, 1, 1]])
        theta = [0.1, 0.2, -0.15]
        values = sgm.density_grid(fs, theta, (0, 1), 7, conditioning={2: 0.7}, model="mixm",
                                  nodes=NODES)
        x = np.linspace(0.0, 1.0, 7)
        points = np.array([[a, b, 0.7] for a in x for b in x])
        joint = mixm_density_batch(fs, theta, points).reshape(7, 7)
        norm = sgm.marginal_density(fs, theta, [2], [0.7], model="mixm", nodes=NODES)
        np.testing.assert_array_equal(values, joint / norm)

    def test_resolution_validation(self):
        with pytest.raises(DomainError):
            sgm.density_grid(U11, [0.1], (0, 1), 1, nodes=NODES)

    @pytest.mark.parametrize("axes,kwargs,message", [
        ((0, 1), {"model": "gauss"}, "unknown model 'gauss'"),
        ((0, 1), {"conditioning": {2: 0.5}, "model": "gauss"}, "unknown model 'gauss'"),
        ((1, 1), {}, "two distinct axis indices"),
        ((0, 1), {"conditioning": {0: 0.5}}, "fix exactly the complement axes"),
        ((0, 1), {"conditioning": {1: 0.5, 2: 0.5}}, "fix exactly the complement axes"),
    ])
    def test_invalid_arguments_raise(self, axes, kwargs, message):
        fs = sgm.standard_freq_set(3)
        with pytest.raises(DomainError, match=message):
            sgm.density_grid(fs, np.zeros(fs.size), axes, 5, nodes=8, **kwargs)


class TestTable1:
    def test_structure(self):
        out = sgm.table1(nodes=16)  # smoke resolution; exact values in acceptance
        assert set(out) == {"correlation", "beta122", "beta123", "cmi_coefficient"}
        assert set(out["correlation"]) == {"sgm", "mixm"}
