"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line per checked clause (run with -s to see them inline).
"""

import numpy as np
from scipy.stats import chi2

import sgm
from sgm import FrequencySet
from sgm.analysis import gauss_legendre, tensor_grid
from sgm.estimators import simulate
from sgm.feasibility import LatticeRegion, LitRegion
from sgm.maxdet import objective_eval, solve
from sgm.model import density_batch, gram_batch, mixm_density_batch

from conftest import golden_section_max, random_maxdet_instance

U11 = FrequencySet.from_vectors([[1, 1]])
U7 = FrequencySet.from_vectors([[1, 2, 0], [0, 1, 1], [1, 1, 1]])


def theta7():
    v = np.zeros(3)
    v[U7.index((1, 2, 0))] = 0.1
    v[U7.index((0, 1, 1))] = 0.3
    v[U7.index((1, 1, 1))] = 0.2
    return v


def check(lines, name, ok, detail):
    lines.append((ok, f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"))


def finish(lines):
    text = "\n".join(msg for _, msg in lines)
    print("\n" + text)
    failed = [msg for ok, msg in lines if not ok]
    assert not failed, "\n" + "\n".join(failed)


def test_criterion_1_table1_reproduction():
    out = sgm.table1(nodes=48)
    targets = {
        ("correlation", "sgm"): 0.7558,
        ("correlation", "mixm"): 0.4928,
        ("beta122", "sgm"): 0.5047,
        ("beta122", "mixm"): 0.4267,
        ("beta123", "sgm"): 0.7743,
        ("beta123", "mixm"): 0.3459,
    }
    lines = []
    for (row, model), expect in targets.items():
        got = out[row][model]
        check(lines, f"table1 {row}/{model}", abs(got - expect) <= 5e-4,
              f"got {got:.5f} expected {expect} +- 0.0005")
    finish(lines)


def _cmi_entropy_route(model, eps, n):
    """I(X1; X2 | X3) of the {(1,0,1),(0,1,1)} model at theta = phi = eps,
    as H13 + H23 - H3 - H123 from the density on the tensor grid."""
    freqs = FrequencySet.from_vectors([[1, 0, 1], [0, 1, 1]])
    theta = np.full(freqs.size, eps)
    points, _ = tensor_grid(n, 3)
    dens = density_batch if model == "sgm" else mixm_density_batch
    _, w = gauss_legendre(n)
    p123 = dens(freqs, theta, points).reshape(n, n, n)
    p13 = np.einsum("ijk,j->ik", p123, w)
    p23 = np.einsum("ijk,i->jk", p123, w)
    p3 = p13.T @ w
    h123 = -np.einsum("ijk,i,j,k->", p123 * np.log(p123), w, w, w)
    h13 = -np.einsum("ik,i,k->", p13 * np.log(p13), w, w)
    h23 = -np.einsum("jk,j,k->", p23 * np.log(p23), w, w)
    h3 = -w @ (p3 * np.log(p3))
    return float(h13 + h23 - h3 - h123)


def test_criterion_2_cmi_coefficients():
    """I(X1; X2 | X3) / eps^4 at theta = phi = eps for the {(1,0,1),(0,1,1)}
    model tends to 3/64 for the gradient model and 3/4 for the mixture.

    With c_j = cos(pi x_j) and s_j = sin(pi x_j), the README potential gives
    D2 psi = I + H with H_11 = theta c1 c3, H_22 = phi c2 c3,
    H_33 = (theta c1 + phi c2) c3, H_13 = -theta s1 s3, H_23 = -phi s2 s3.
    To second order log det(I + H) = tr H - tr(H^2)/2, and the only
    theta*phi term is the H_33^2 cross term: the interaction part of log p is
    -theta phi c1 c2 c3^2 (in det(I + H) it is 3 theta phi c1 c2 c3^2, and
    the 4 theta phi of (tr H)^2/2 cancels between det and log).  It averages
    to zero over x1 and over x2, so
    I = (theta phi)^2/2 * int c1^2 c2^2 c3^4 = (1/2)(1/2)(1/2)(3/8) = 3/64
    times (theta phi)^2.  The mixture density 1 + sum theta_u |u|^2 prod cos
    has interaction part -4 theta phi c1 c2 c3^2 in log p, giving
    16 * 3/64 = 3/4.

    The conditional decomposition in ``cond_mutual_info`` is checked against
    a second route, the entropy identity H13 + H23 - H3 - H123 on the same
    48-node grid.
    """
    lines = []
    for model, target in (("sgm", 3.0 / 64.0), ("mixm", 3.0 / 4.0)):
        errors = []
        ratios = []
        route_gap = 0.0
        for eps in (0.2, 0.1, 0.05):
            info = sgm.cond_mutual_info(eps, eps, model, 48)
            route_gap = max(route_gap, abs(info - _cmi_entropy_route(model, eps, 48)))
            ratio = info / eps**4
            ratios.append(ratio)
            errors.append(abs(ratio - target))
        check(lines, f"cmi {model} monotone convergence",
              errors[0] > errors[1] > errors[2],
              f"errors {['%.2e' % e for e in errors]} toward {target:.5f}")
        check(lines, f"cmi {model} final accuracy",
              errors[2] <= 0.1 * target,
              f"ratio at eps=0.05 is {ratios[2]:.5f} (target {target:.5f})")
        check(lines, f"cmi {model} entropy route", route_gap <= 1e-10,
              f"max |direct - (H13+H23-H3-H123)| = {route_gap:.2e}")
    finish(lines)


def test_criterion_3_fisher_closed_forms():
    lines = []
    for u in (1, 2):
        fs = FrequencySet.from_vectors([[u]])
        limit = 0.9 / u**2  # 90 percent of the domain |theta| u^2 < 1
        worst = 0.0
        for th in np.linspace(-limit, limit, 11):
            J = sgm.fisher_numeric(fs, [th], 96)[0, 0]
            worst = max(worst, abs(J - sgm.fisher_closed_1d(u, th)))
        check(lines, f"one-dim closed form u={u}", worst <= 1e-6,
              f"max |closed - quadrature| = {worst:.2e}")
        origin_gap = abs(sgm.fisher_closed_1d(u, 1e-9) - u**4 / 2.0)
        check(lines, f"one-dim origin limit u={u}", origin_gap <= 1e-9,
              f"limit gap {origin_gap:.2e} vs u^4/2")
    worst = 0.0
    for th in np.linspace(-0.9, 0.9, 11):
        J = sgm.fisher_numeric(U11, [th], 48)[0, 0]
        worst = max(worst, abs(J - sgm.fisher_closed_corr(th)))
    check(lines, "correlation closed form", worst <= 1e-6,
          f"max |closed - quadrature| = {worst:.2e}")
    origin_gap = abs(sgm.fisher_closed_corr(1e-9) - 1.0)
    check(lines, "correlation origin limit", origin_gap <= 1e-9,
          f"limit gap {origin_gap:.2e} vs 1")
    finish(lines)


def test_criterion_4_region_containments():
    rng = np.random.default_rng(2024)
    lines = []

    # (a) random boundary points of the unit L1-type region stay feasible
    worst = np.inf
    for i in range(200):
        m = (1, 2, 3)[i % 3]
        fs = sgm.standard_freq_set(m)
        direction = rng.normal(size=fs.size)
        loads = np.abs(direction) @ fs.freqs.astype(float) ** 2
        theta = direction / loads.max()
        worst = min(worst, sgm.min_eig_grid(fs, theta))
    check(lines, "L1 boundary inside feasible region", worst >= -1e-8,
          f"min grid eigenvalue over 200 boundary points: {worst:.2e}")

    # (b) lattice-region members have strictly positive min eig on doubled grids
    cases = [
        (FrequencySet.from_vectors([[1, 1], [2, 2]]), 120, 402),
        (FrequencySet.from_vectors([[1, 2]]), 40, 402),
        (FrequencySet.from_vectors([[1, 0, 1], [0, 1, 1]]), 40, 82),
    ]
    worst_member = np.inf
    count = 0
    for fs, n_cases, doubled in cases:
        for i in range(n_cases):
            M = fs.u_max + 1 + i % 4
            direction = rng.normal(size=fs.size)
            lo, hi = 0.0, 4.0
            for _ in range(24):
                mid = 0.5 * (lo + hi)
                if sgm.lattice_feasible(fs, mid * direction, M).feasible:
                    lo = mid
                else:
                    hi = mid
            if lo == 0.0:
                continue
            theta = direction * lo * rng.uniform(0.1, 0.999)
            if not sgm.lattice_feasible(fs, theta, M).feasible:
                continue
            count += 1
            worst_member = min(worst_member, sgm.min_eig_grid(fs, theta, doubled))
    check(lines, "lattice members strictly interior", worst_member > 0 and count >= 190,
          f"{count} members checked, min doubled-grid eigenvalue {worst_member:.2e}")

    # (c) grid membership agrees with the exact two-frequency condition
    fs = FrequencySet.from_vectors([[1, 1], [2, 2]])
    z = np.linspace(0.0, 2.0, 20001)
    cz, c2z = np.cos(np.pi * z), np.cos(2 * np.pi * z)
    disagreements = 0
    checked = 0
    for t11 in np.linspace(-1.2, 1.2, 41):
        for t22 in np.linspace(-0.4, 0.4, 41):
            exact_min = (1.0 + t11 * cz + 4.0 * t22 * c2z).min()
            if abs(exact_min) < 1e-3:
                continue
            checked += 1
            theta = np.zeros(2)
            theta[fs.index((1, 1))] = t11
            theta[fs.index((2, 2))] = t22
            grid_member = sgm.min_eig_grid(fs, theta) >= -1e-6
            if sgm.ma2_feasible(t11, t22) != grid_member:
                disagreements += 1
    check(lines, "exact two-frequency region agreement", disagreements == 0,
          f"{checked} off-boundary grid points, {disagreements} disagreements")
    finish(lines)


def test_criterion_5_fejer_reconstruction():
    rng = np.random.default_rng(55)
    lines = []
    for m in (1, 2):
        fs = sgm.standard_freq_set(m)
        for M in (fs.u_max + 1, fs.u_max + 3):
            worst = 0.0
            for _ in range(20):
                theta = rng.normal(scale=0.3, size=fs.size)
                x = rng.random(m)
                rec = sgm.fejer_reconstruct(fs, theta, M, x)
                worst = max(worst, np.abs(rec - gram_batch(fs, theta, x[None])[0]).max())
            check(lines, f"reconstruction m={m} M={M}", worst <= 1e-10,
                  f"max entrywise error {worst:.2e}")
    finish(lines)


def test_criterion_6_solver_correctness():
    rng = np.random.default_rng(99)
    lines = []

    # analytic gradient and curvature vs finite differences on 100 instances
    worst_g = worst_h = 0.0
    for _ in range(100):
        prob = random_maxdet_instance(rng)
        theta = 0.05 * rng.normal(size=prob.nvars)
        _, g, H = objective_eval(prob, theta)
        h = 1e-5
        for k in range(prob.nvars):
            e = np.zeros(prob.nvars)
            e[k] = h
            fd = (objective_eval(prob, theta + e, need_hess=False)[0]
                  - objective_eval(prob, theta - e, need_hess=False)[0]) / (2 * h)
            worst_g = max(worst_g, abs(fd - g[k]) / (1 + abs(g[k])))
            gfd = (objective_eval(prob, theta + e, need_hess=False)[1]
                   - objective_eval(prob, theta - e, need_hess=False)[1]) / (2 * h)
            worst_h = max(worst_h, np.abs(gfd - H[k]).max() / (1 + np.abs(H[k]).max()))
    check(lines, "gradient vs finite differences", worst_g < 1e-6,
          f"worst relative error {worst_g:.2e} over 100 instances")
    check(lines, "curvature vs finite differences", worst_h < 1e-6,
          f"worst relative error {worst_h:.2e} over 100 instances")

    # KKT residual at returned optima
    worst_kkt = 0.0
    all_converged = True
    for _ in range(100):
        rep = solve(random_maxdet_instance(rng))
        all_converged &= rep.converged
        worst_kkt = max(worst_kkt, rep.kkt_residual)
    check(lines, "KKT residual at optima", all_converged and worst_kkt <= 1e-8,
          f"worst residual {worst_kkt:.2e}, all converged: {all_converged}")

    # one-variable problems vs golden-section search
    from sgm.maxdet import AffineMatrix, MaxDetProblem

    worst_gap = 0.0
    for _ in range(10):
        a = float(rng.uniform(0.3, 1.5))
        c = float(rng.uniform(0.2, 1.0))
        # one stack of two maps with bases 1 and 2: log(1 + a t) + log(2 - a t / 2)
        prob = MaxDetProblem(
            nvars=1,
            objective=AffineMatrix([[[1.0]], [[2.0]]], [[[a]], [[-0.5 * a]]]),
            A=[[1.0], [-1.0]],
            b=[c, c],
        )
        rep = solve(prob)

        def f(t, a=a, c=c):
            if abs(t) >= c or 1 + a * t <= 0 or 2 - 0.5 * a * t <= 0:
                return -np.inf
            return np.log(1 + a * t) + np.log(2 - 0.5 * a * t)

        worst_gap = max(worst_gap, abs(rep.theta[0] - golden_section_max(f, -c, c)))
    check(lines, "one-variable vs golden section", worst_gap <= 1e-6,
          f"worst gap {worst_gap:.2e} over 10 problems")

    # Gaussian lasso at tau = 1 recovers the inverse correlation matrix
    raw = rng.multivariate_normal(
        np.zeros(4),
        [[1, 0.5, 0.2, 0.1], [0.5, 1, 0.3, 0.0], [0.2, 0.3, 1, 0.4], [0.1, 0.0, 0.4, 1]],
        size=300,
    )
    std, _ = sgm.preprocess(raw)
    S = std.T @ std / len(std)
    d = np.sqrt(np.diag(S))
    S = S / np.outer(d, d)
    C = sgm.fit_gauss_lasso(std, 1.0)
    gap = np.abs(C - np.linalg.inv(S)).max()
    check(lines, "Gaussian lasso tau=1", gap <= 1e-6, f"max entrywise gap {gap:.2e}")
    finish(lines)


def test_criterion_7_estimation_recovery():
    """Three-frequency recovery experiment at desk scale: 20 replicates of
    n=100 from theta_(1,2,0)=0.1, theta_(0,1,1)=0.3, theta_(1,1,1)=0.2.

    The criterion is "bias < 2 estimator standard errors", where the standard
    error of an estimator is the standard deviation of theta-hat across
    replicates, not the standard error of the 20-replicate mean.  A bound of
    2 SE(mean) would claim that both constrained estimators are unbiased at
    n=100, which neither promises:

    - the truth lies outside LatticeRegion(5) (lattice margin -0.266; it is
      feasible only from M=10) although it is inside the true region (grid
      minimum eigenvalue 0.261).  The lattice MLE therefore tends to the
      population projection onto lattice(5), about (0.081, 0.268, 0.164) by a
      weighted-quadrature MAXDET solve that agrees at 12 and 16 nodes, and at
      n=100 its mean on (1,2,0) is still 0.016 below that projection;
    - the truth is inside LitRegion(1) with margin 0.1, yet the L1 budget is
      active in every replicate, so the lasso-type fit shrinks the estimates.

    The region facts are asserted; the 2 SE(mean) figure is printed for
    information only.
    """
    rng_seeds = np.random.SeedSequence(7).generate_state(20)
    fs = sgm.standard_freq_set(3)
    idx = [fs.index(u) for u in [(1, 2, 0), (0, 1, 1), (1, 1, 1)]]
    null_idx = [i for i in range(fs.size) if i not in idx]
    truth = np.zeros(fs.size)
    truth[idx] = [0.1, 0.3, 0.2]
    sqrt_j = np.sqrt(sgm.fisher_origin(fs))

    lines = []
    lattice_margin = sgm.lattice_feasible(fs, truth, 5).margin
    check(lines, "truth outside lattice M=5", lattice_margin < 0,
          f"lattice margin {lattice_margin:+.4f}")
    budget = sgm.lit_margin(fs, truth, 1.0)
    check(lines, "truth inside lit tau=1", budget > 0, f"lit margin {budget:+.4f}")
    grid_eig = sgm.min_eig_grid(fs, truth)
    check(lines, "truth inside the feasible region", grid_eig > 0,
          f"grid min eigenvalue {grid_eig:+.4f}")

    fits = {"lattice M=5": [], "lit tau=1": []}
    for seed in rng_seeds:
        data = sgm.sample_sgm(U7, theta7(), 100, seed=int(seed))
        fits["lattice M=5"].append(sgm.fit_sgm(data, fs, LatticeRegion(5)).theta)
        fits["lit tau=1"].append(sgm.fit_sgm(data, fs, LitRegion(1.0)).theta)

    for name, arr in fits.items():
        arr = np.asarray(arr)
        mean = arr.mean(axis=0)
        sd = arr.std(axis=0, ddof=1)
        se_mean = sd / np.sqrt(len(arr))
        for u, i in zip([(1, 2, 0), (0, 1, 1), (1, 1, 1)], idx):
            bias = mean[i] - truth[i]
            check(lines, f"{name} {u} bias bound", abs(bias) <= 2 * sd[i],
                  f"bias {bias:+.4f} vs 2 sd {2 * sd[i]:.4f} "
                  f"(2 SE(mean) {2 * se_mean[i]:.4f})")
        scaled_mean = (sqrt_j * arr).mean(axis=0)
        limit = 3.0 / np.sqrt(20 * 100)
        worst_null = np.abs(scaled_mean[null_idx]).max()
        check(lines, f"{name} null coordinates", worst_null <= limit,
              f"max |mean scaled| {worst_null:.4f} vs {limit:.4f}")
    finish(lines)


def test_criterion_8_benchmark_experiment():
    out = simulate(replicates=20, n=40, n_test=10, seed=0, jobs=1)
    lines = []
    check(lines, "all replicates completed", not out["failures"],
          f"{len(out['failures'])} failures")
    freqs = [tuple(u) for u in out["frequencies"]]
    mean = np.array(out["sgm"]["mean_scaled"])
    order = np.argsort(-np.abs(mean))
    top = freqs[order[0]]
    check(lines, "largest coefficient", top == (1, 1, 0, 0, 0) and mean[order[0]] > 0,
          f"top {top} mean {mean[order[0]]:+.3f}")
    top4 = [freqs[i] for i in order[:4]]
    for u in ((0, 0, 1, 1, 1), (0, 1, 2, 0, 0)):
        i = freqs.index(u)
        check(lines, f"{u} in top four, negative", u in top4 and mean[i] < 0,
              f"rank {list(order).index(i) + 1}, mean {mean[i]:+.3f}")
    rho12 = out["gauss"]["mean_partial_corr"][0][1]
    check(lines, "Gaussian rho12", 0.6 <= rho12 <= 0.8, f"mean {rho12:.3f}")

    values = {k: np.array(out["predictive"][k]["values"]) for k in ("sgm", "mixm", "gauss")}
    for hi, lo in (("sgm", "gauss"), ("gauss", "mixm")):
        diff = values[hi] - values[lo]
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        check(lines, f"predictive {hi} >= {lo} (1 SE ties)", diff.mean() >= -se,
              f"paired mean diff {diff.mean():+.3f} (SE {se:.3f})")
    finish(lines)


def _cell_probabilities(freqs, theta, bins, nodes_per_cell=6):
    """Exact cell probabilities by per-cell Gauss-Legendre quadrature."""
    base_nodes, base_weights = gauss_legendre(nodes_per_cell)
    nodes = ((np.arange(bins)[:, None] + base_nodes[None, :]) / bins).ravel()
    weights = np.tile(base_weights / bins, bins)
    m = freqs.dim
    mesh = np.meshgrid(*([nodes] * m), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    vals = density_batch(freqs, theta, pts).reshape((bins, nodes_per_cell) * m)
    w = weights.reshape(bins, nodes_per_cell)
    if m == 2:
        probs = np.einsum("aibj,ai,bj->ab", vals, w, w)
    else:
        probs = np.einsum("aibjck,ai,bj,ck->abc", vals, w, w, w)
    return probs.ravel()


def _chi_square(sample, bins, probs):
    m = sample.shape[1]
    idx = np.clip((sample * bins).astype(int), 0, bins - 1)
    flat = np.zeros(bins**m, dtype=int)
    keys = idx[:, 0]
    for j in range(1, m):
        keys = keys * bins + idx[:, j]
    np.add.at(flat, keys, 1)
    expected = len(sample) * probs
    stat = float(((flat - expected) ** 2 / expected).sum())
    return stat, bins**m - 1


def test_criterion_9_sampler_exactness():
    lines = []
    n = 100000

    # uniform model
    fs3 = sgm.standard_freq_set(3)
    zero = np.zeros(fs3.size)
    sample, info = sgm.sample_sgm(fs3, zero, n, seed=17, return_info=True)
    stat, df = _chi_square(sample, 10, np.full(1000, 1e-3))
    crit = chi2.ppf(0.99, df)
    check(lines, "uniform chi-square", stat < crit, f"stat {stat:.1f} < {crit:.1f}")
    check(lines, "uniform acceptance rate", info.acceptance_rate == 1.0,
          f"rate {info.acceptance_rate}")

    # correlation model at theta = 0.5
    sample, info = sgm.sample_sgm(U11, [0.5], n, seed=23, return_info=True)
    probs = _cell_probabilities(U11, [0.5], bins=25)
    stat, df = _chi_square(sample, 25, probs)
    crit = chi2.ppf(0.99, df)
    check(lines, "correlation-model chi-square", stat < crit,
          f"stat {stat:.1f} < {crit:.1f}")
    emp = np.corrcoef(sample.T)[0, 1]
    check(lines, "empirical correlation", abs(emp - 0.458) <= 0.01,
          f"corr {emp:.4f} vs 0.458 +- 0.01")
    expect = 1.0 / info.bound
    se = np.sqrt(expect * (1 - expect) / info.n_proposed)
    check(lines, "correlation-model acceptance rate",
          abs(info.acceptance_rate - expect) <= 3 * se,
          f"rate {info.acceptance_rate:.4f} vs {expect:.4f} +- {3 * se:.4f}")

    # three-frequency example model
    sample, info = sgm.sample_sgm(U7, theta7(), n, seed=29, return_info=True)
    probs = _cell_probabilities(U7, theta7(), bins=10)
    stat, df = _chi_square(sample, 10, probs)
    crit = chi2.ppf(0.99, df)
    check(lines, "three-frequency chi-square", stat < crit,
          f"stat {stat:.1f} < {crit:.1f}")
    expect = 1.0 / info.bound
    se = np.sqrt(expect * (1 - expect) / info.n_proposed)
    check(lines, "three-frequency acceptance rate",
          abs(info.acceptance_rate - expect) <= 3 * se,
          f"rate {info.acceptance_rate:.4f} vs {expect:.4f} +- {3 * se:.4f}")
    finish(lines)


def test_criterion_10_closed_form_cross_checks():
    x, w = gauss_legendre(48)
    lines = []

    # correlation-model marginal, mean, and variance
    worst_marg = worst_mean = worst_var = 0.0
    for th in np.linspace(-1.0, 1.0, 9):
        marg = sgm.marginal_density(U11, [th], [0], x[:, None], nodes=48)
        expect = 1 + th**2 / 2 * np.cos(2 * np.pi * x)
        worst_marg = max(worst_marg, np.abs(marg - expect).max())
        mean = (w * marg) @ x
        var = (w * marg) @ (x - mean) ** 2
        worst_mean = max(worst_mean, abs(mean - 0.5))
        worst_var = max(worst_var, abs(var - (1 / 12 + th**2 / (4 * np.pi**2))))
    check(lines, "correlation-model marginal", worst_marg <= 1e-8, f"{worst_marg:.2e}")
    check(lines, "correlation-model mean", worst_mean <= 1e-8, f"{worst_mean:.2e}")
    check(lines, "correlation-model variance", worst_var <= 1e-8, f"{worst_var:.2e}")

    # three-way interaction model: two-dimensional marginal
    fs111 = FrequencySet.from_vectors([[1, 1, 1]])
    pts = np.stack([np.repeat(x[::6], 8), np.tile(x[::6], 8)], axis=-1)
    worst = 0.0
    for th in (-1.0, -0.4, 0.5, 1.0):
        marg = sgm.marginal_density(fs111, [th], [0, 1], pts, nodes=48)
        c = np.cos(np.pi * pts)
        expect = 1 + th**2 * (4 * c[:, 0] ** 2 * c[:, 1] ** 2 - 1) / 2
        worst = max(worst, np.abs(marg - expect).max())
    check(lines, "interaction-model 2-d marginal", worst <= 1e-8, f"{worst:.2e}")

    # heteroscedastic model: conditional mean exactly one half
    fs12 = FrequencySet.from_vectors([[1, 2]])
    worst = 0.0
    for th in (-0.25, -0.1, 0.12, 0.25):
        for x1 in (0.05, 0.3, 0.62, 0.9):
            ptsc = np.column_stack([np.full(len(x), x1), x])
            joint = sgm.marginal_density(fs12, [th], [0, 1], ptsc, nodes=48)
            mean = (w * joint) @ x / (w @ joint)
            worst = max(worst, abs(mean - 0.5))
    check(lines, "heteroscedastic conditional mean", worst <= 1e-8, f"{worst:.2e}")
    finish(lines)
