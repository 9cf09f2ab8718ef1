"""Command-line interface.

Subcommands: fit, cv, sample, feasible, analyze, simulate.  All results are
JSON (grids are TSV) with a schema version and the fully resolved
configuration echoed; reruns are byte-identical apart from the timing field.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analysis, estimators, feasibility, model, sampling
from .errors import DataError, NumericalError, SgmError
from .estimators import Scaler
from .feasibility import LatticeRegion, LitRegion
from .model import FrequencySet, standard_freq_set

logger = logging.getLogger("sgm.cli")

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class UsageError(SgmError):
    """Invalid command-line options."""


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------

def read_csv(path: str) -> np.ndarray:
    """Read a comma-separated numeric table; a single header row is detected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path} is empty")

    def parse_row(line, lineno):
        cells = [c.strip() for c in line.split(",")]
        if any(c == "" for c in cells):
            raise DataError(f"{path}:{lineno}: blank cell")
        return [float(c) for c in cells]

    rows = []
    start = 0
    try:
        rows.append(parse_row(lines[0], 1))
    except ValueError:
        start = 1  # header row
    except DataError:
        raise
    for i, line in enumerate(lines[start:], start=start + 1):
        try:
            rows.append(parse_row(line, i))
        except ValueError as exc:
            raise DataError(f"{path}:{i}: {exc}") from exc
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"{path}: ragged rows")
    return np.asarray(rows, dtype=float)


def write_csv(path: str, arr: np.ndarray) -> None:
    arr = np.atleast_2d(arr)
    header = ",".join(f"x{i + 1}" for i in range(arr.shape[1]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in arr:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_params(path: str) -> tuple[FrequencySet, np.ndarray]:
    """Read a parameter file: JSON with "frequencies" and "theta" keys.

    Accepts fit-result JSON unchanged.  Vectors are reordered jointly into
    the canonical frequency order.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    try:
        vecs = np.asarray(obj["frequencies"], dtype=int)
        theta = np.asarray(obj["theta"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f'{path}: needs "frequencies" and "theta" arrays') from exc
    if vecs.ndim != 2 or theta.shape != (vecs.shape[0],):
        raise DataError(f"{path}: frequencies/theta shapes do not match")
    order = np.lexsort(vecs.T)
    freqs = FrequencySet(dim=vecs.shape[1], freqs=vecs[order])
    return freqs, theta[order]


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return _jsonable(dataclasses.asdict(x))
    return x


def dump_json(obj: dict, path: str | None) -> None:
    text = json.dumps(_jsonable(obj), indent=2)
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Option resolution
# ---------------------------------------------------------------------------

def _resolve_freqs(option: str, m: int) -> FrequencySet:
    if option == "standard":
        return standard_freq_set(m)
    if option.startswith("file:"):
        path = option[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                vecs = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
        fs = FrequencySet.from_vectors(vecs)
        if fs.dim != m:
            raise DataError(f"frequency file dimension {fs.dim} does not match data ({m})")
        return fs
    raise UsageError(f"--freqs must be 'standard' or 'file:PATH', got {option!r}")


def _resolve_region(args) -> LitRegion | LatticeRegion:
    if args.region == "lit":
        return LitRegion(args.tau)
    if args.region == "lattice":
        if args.M is None:
            raise UsageError("--region lattice requires --M")
        return LatticeRegion(args.M)
    raise UsageError(f"unknown region {args.region!r}")


def _region_json(region) -> dict:
    if isinstance(region, LitRegion):
        return {"kind": "lit", "tau": region.tau}
    return {"kind": "lattice", "M": region.M}


def _result(command: str, config: dict, body: dict, started: float) -> dict:
    out = {"schema": SCHEMA_VERSION, "command": command, "config": config}
    out.update(body)
    out["timing_sec"] = time.time() - started
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def run_fit(args) -> None:
    started = time.time()
    raw = read_csv(args.input)
    n, m = raw.shape
    config = {
        "input": args.input,
        "model": args.model,
        "preprocess": not args.no_preprocess,
        "seed": args.seed,
    }
    if args.model == "gauss":
        data = raw if args.no_preprocess else Scaler.fit(raw).standardize(raw)
        config["tau"] = args.tau
        C = estimators.fit_gauss_lasso(data, args.tau)
        body = {
            "concentration": C,
            "partial_correlations": estimators.partial_correlations(C),
            "loglik": estimators.predictive_loglik("gauss", C, data),
        }
        dump_json(_result("fit", config, body, started), args.output)
        return

    freqs = _resolve_freqs(args.freqs, m)
    region = _resolve_region(args)
    config.update({"freqs": args.freqs, "region": _region_json(region)})
    data = raw if args.no_preprocess else Scaler.fit(raw).to_unit(raw)
    fit = (estimators.fit_sgm if args.model == "sgm" else estimators.fit_mixm)(
        data, freqs, region
    )
    body = {
        "frequencies": freqs.freqs,
        "theta": fit.theta,
        "theta_raw": fit.theta_raw,
        "scaled": fit.scaled,
        "loglik": fit.loglik,
        "solver": {
            "objective": fit.report.objective,
            "kkt_residual": fit.report.kkt_residual,
            "newton_iterations": fit.report.newton_iterations,
            "outer_iterations": fit.report.outer_iterations,
            "converged": fit.report.converged,
            "mu_final": fit.report.mu_final,
        },
    }
    dump_json(_result("fit", config, body, started), args.output)


def _map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], in a pool of ``jobs`` processes when jobs > 1."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _cv_subgrid(payload):
    raw, model, taus, folds, seed, mode = payload
    res = estimators.cross_validate(
        raw, model, tau_grid=taus, folds=folds, seed=seed, preprocess_mode=mode
    )
    return list(zip(res.taus.tolist(), res.scores.tolist()))


def run_cv(args) -> None:
    started = time.time()
    raw = read_csv(args.input)
    taus = _parse_floats(args.tau_grid) if args.tau_grid else (np.arange(1, 11) / 10.0)
    if len(taus) == 0:
        raise UsageError(f"--tau-grid has no values: {args.tau_grid!r}")
    if args.no_preprocess and args.global_preprocess:
        raise UsageError("--no-preprocess and --global-preprocess are exclusive")
    mode = "none" if args.no_preprocess else (
        "global" if args.global_preprocess else "fold"
    )
    config = {
        "input": args.input,
        "model": args.model,
        "folds": args.folds,
        "seed": args.seed,
        "tau_grid": list(np.asarray(taus, dtype=float)),
        "preprocess": mode,
        "jobs": args.jobs,
    }
    chunks = np.array_split(np.asarray(taus, dtype=float), min(max(args.jobs, 1), len(taus)))
    payloads = [(raw, args.model, chunk, args.folds, args.seed, mode) for chunk in chunks]
    rows = [r for part in _map(_cv_subgrid, payloads, args.jobs) for r in part]
    best_i = int(np.argmax([s for _, s in rows]))
    body = {
        "rows": [
            {"tau": t, "cv_loglik": s, "best": i == best_i}
            for i, (t, s) in enumerate(rows)
        ],
        "best_tau": rows[best_i][0],
    }
    dump_json(_result("cv", config, body, started), args.output)


def run_sample(args) -> None:
    started = time.time()
    if args.output is None:
        raise UsageError("sample requires --output for the CSV file")
    config = {"model": args.model, "n": args.n, "seed": args.seed, "output": args.output}
    if args.model == "benchmark5":
        data = sampling.sample_benchmark5(args.n, args.seed)
        info = None
    else:
        if args.input is None:
            raise UsageError("sample with --model sgm|mixm requires --input params JSON")
        freqs, theta = load_params(args.input)
        config["input"] = args.input
        sampler = sampling.sample_sgm if args.model == "sgm" else sampling.sample_mixm
        data, info = sampler(freqs, theta, args.n, args.seed, return_info=True)
    write_csv(args.output, data)
    body = {"rows": int(data.shape[0]), "cols": int(data.shape[1])}
    if info is not None:
        body["rejection"] = {
            "bound": info.bound,
            "proposals": info.n_proposed,
            "acceptance_rate": info.acceptance_rate,
        }
    dump_json(_result("sample", config, body, started), None)


def run_feasible(args) -> None:
    started = time.time()
    if args.input is None:
        raise UsageError("feasible requires --input params JSON")
    freqs, theta = load_params(args.input)
    config = {"input": args.input, "tau": args.tau}
    body = {
        "frequencies": freqs.freqs,
        "theta": theta,
        "lit_margin": feasibility.lit_margin(freqs, theta, args.tau),
        "min_eig_grid": feasibility.min_eig_grid(freqs, theta, args.resolution),
    }
    if args.M is not None:
        config["M"] = args.M
        check = feasibility.lattice_feasible(freqs, theta, args.M)
        body["lattice"] = {"feasible": check.feasible, "margin": check.margin}
    dump_json(_result("feasible", config, body, started), args.output)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated floats, got {text!r}") from exc


def _parse_condition(text: str) -> dict[int, float]:
    out = {}
    for item in text.split(","):
        if not item.strip():
            continue
        try:
            axis, value = item.split("=")
            out[int(axis)] = float(value)
        except ValueError as exc:
            raise UsageError(f"bad conditioning item {item!r}; use AXIS=VALUE") from exc
    return out


def run_analyze(args) -> None:
    started = time.time()
    rule = analysis.QuadratureRule.gauss_legendre(args.quad_nodes)
    what = args.what
    config = {"what": what, "model": args.model, "quad_nodes": args.quad_nodes}

    if what == "table1":
        body = {"table1": analysis.table1(args.quad_nodes)}
        dump_json(_result("analyze", config, body, started), args.output)
        return

    if what in ("correlation", "beta122", "beta123"):
        theta = _require_theta(args, count=1)[0]
        config["theta"] = theta
        fn = getattr(analysis, what)
        dump_json(_result("analyze", config, {what: fn(theta, args.model, rule)}, started),
                  args.output)
        return

    if what == "cmi":
        theta = _require_theta(args, count=1)[0]
        if args.phi is None:
            raise UsageError("--what cmi requires --phi")
        config.update({"theta": theta, "phi": args.phi})
        value = analysis.cond_mutual_info(theta, args.phi, args.model, rule)
        dump_json(_result("analyze", config, {"cmi": value}, started), args.output)
        return

    if args.input is None:
        raise UsageError(f"--what {what} requires --input params JSON")
    freqs, theta = load_params(args.input)
    config["input"] = args.input

    if what == "fisher":
        J = analysis.fisher_numeric(freqs, theta, rule)
        body = {"frequencies": freqs.freqs, "fisher": J}
        dump_json(_result("analyze", config, body, started), args.output)
        return

    if what == "marginal":
        axes = [int(a) for a in _parse_floats(args.axes or "0")]
        if len(axes) != 1:
            raise UsageError("--what marginal tabulates one axis; use --what grid for pairs")
        grid = np.linspace(0.0, 1.0, args.resolution)
        vals = analysis.marginal_density(
            freqs, theta, axes, grid[:, None], model=args.model, rule=rule
        )
        lines = [f"x_{axes[0] + 1}\tdensity"]
        lines += [f"{x:.17g}\t{v:.17g}" for x, v in zip(grid, vals)]
        _write_text("\n".join(lines) + "\n", args.output)
        return

    if what == "grid":
        axes = [int(a) for a in _parse_floats(args.axes or "0,1")]
        if len(axes) != 2:
            raise UsageError("--what grid requires --axes I,J")
        conditioning = _parse_condition(args.condition) if args.condition else None
        grid = analysis.density_grid(
            freqs, theta, (axes[0], axes[1]), args.resolution,
            conditioning=conditioning, model=args.model, rule=rule,
        )
        _write_text(grid.to_tsv(), args.output)
        return

    raise UsageError(f"unknown analysis {what!r}")


def _require_theta(args, count: int) -> list[float]:
    if args.theta is None:
        raise UsageError(f"--what {args.what} requires --theta")
    vals = _parse_floats(args.theta)
    if len(vals) != count:
        raise UsageError(f"--theta must have {count} value(s)")
    return vals


# ---------------------------------------------------------------------------
# Simulation driver
# ---------------------------------------------------------------------------

def _simulate_replicate(payload):
    (index, seed, n, n_test, tau, tau_gauss) = payload
    fs = standard_freq_set(5)
    raw = sampling.sample_benchmark5(n, int(seed))
    test_raw = sampling.sample_benchmark5(n_test, int(seed) + 2**31)
    scaler = Scaler.fit(raw)
    unit, std = scaler.to_unit(raw), scaler.standardize(raw)
    unit_t, std_t = scaler.to_unit(test_raw), scaler.standardize(test_raw)
    sqrt_j = np.sqrt(model.fisher_origin(fs))
    fit_s = estimators.fit_sgm(unit, fs, LitRegion(tau))
    fit_m = estimators.fit_mixm(unit, fs, LitRegion(tau))
    C = estimators.fit_gauss_lasso(std, tau)
    C_pred = C if tau_gauss == tau else estimators.fit_gauss_lasso(std, tau_gauss)
    return {
        "index": index,
        "sgm_scaled": (sqrt_j * fit_s.theta).tolist(),
        "mixm_scaled": (sqrt_j * fit_m.theta).tolist(),
        "partial_corr": estimators.partial_correlations(C).tolist(),
        "pred": {
            "sgm": estimators.predictive_loglik("sgm", (fs, fit_s.theta), unit_t),
            "mixm": estimators.predictive_loglik("mixm", (fs, fit_m.theta), unit_t),
            "gauss": estimators.predictive_loglik("gauss", C_pred, std_t),
        },
    }


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
    outs = _map(_simulate_replicate_safe, payloads, jobs)
    results = [out for out in outs if "error" not in out]
    failures = [out for out in outs if "error" in out]

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


def _simulate_replicate_safe(payload):
    try:
        return _simulate_replicate(payload)
    except SgmError as exc:  # per-replicate failures recorded, not fatal
        return {"index": payload[0], "error": str(exc)}


def run_simulate(args) -> None:
    started = time.time()
    config = {
        "replicates": args.replicates,
        "n": args.n,
        "n_test": args.n_test,
        "seed": args.seed,
        "tau": args.tau,
        "tau_gauss_predict": args.tau_gauss_predict,
        "jobs": args.jobs,
    }
    body = simulate(
        replicates=args.replicates,
        n=args.n,
        n_test=args.n_test,
        seed=args.seed,
        tau=args.tau,
        tau_gauss_predict=args.tau_gauss_predict,
        jobs=args.jobs,
    )
    dump_json(_result("simulate", config, body, started), args.output)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgm",
        description="Gradient-type density models on the unit hypercube",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_choices=("sgm", "mixm", "gauss")):
        p.add_argument("--input", help="input path")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--model", choices=model_choices, default="sgm")
        p.add_argument("--seed", type=int, default=0)

    p_fit = sub.add_parser("fit", help="fit a model to CSV data")
    common(p_fit)
    p_fit.add_argument("--region", choices=("lit", "lattice"), default="lit")
    p_fit.add_argument("--tau", type=float, default=1.0)
    p_fit.add_argument("--M", type=int, default=None)
    p_fit.add_argument("--freqs", default="standard", help="standard or file:PATH")
    p_fit.add_argument("--no-preprocess", action="store_true")

    p_cv = sub.add_parser("cv", help="cross-validate the tuning parameter")
    common(p_cv)
    p_cv.add_argument("--folds", type=int, default=5)
    p_cv.add_argument("--tau-grid", help="comma-separated tau values")
    p_cv.add_argument("--jobs", type=int, default=1)
    p_cv.add_argument("--global-preprocess", action="store_true",
                      help="standardize once on the full data instead of per fold")
    p_cv.add_argument("--no-preprocess", action="store_true",
                      help="use the data as given (already on the model scale)")

    p_sample = sub.add_parser("sample", help="draw samples to CSV")
    common(p_sample, model_choices=("sgm", "mixm", "benchmark5"))
    p_sample.add_argument("--n", type=int, required=True)

    p_feas = sub.add_parser("feasible", help="feasibility report for a parameter file")
    common(p_feas)
    p_feas.add_argument("--tau", type=float, default=1.0)
    p_feas.add_argument("--M", type=int, default=None)
    p_feas.add_argument("--resolution", type=int, default=None)

    p_an = sub.add_parser("analyze", help="quadrature analyses and grids")
    common(p_an, model_choices=("sgm", "mixm"))
    p_an.add_argument(
        "--what",
        choices=("correlation", "beta122", "beta123", "cmi", "fisher", "marginal",
                 "grid", "table1"),
        required=True,
    )
    p_an.add_argument("--theta", help="comma-separated parameter value(s)")
    p_an.add_argument("--phi", type=float, default=None)
    p_an.add_argument("--quad-nodes", type=int, default=analysis.DEFAULT_NODES)
    p_an.add_argument("--axes", help="axis indices, e.g. 0,1")
    p_an.add_argument("--resolution", type=int, default=101)
    p_an.add_argument("--condition", help="fixed axes, e.g. 1=0.75")

    p_sim = sub.add_parser("simulate", help="benchmark replication experiment")
    common(p_sim)
    p_sim.add_argument("--replicates", type=int, default=20)
    p_sim.add_argument("--n", type=int, default=40)
    p_sim.add_argument("--n-test", type=int, default=10)
    p_sim.add_argument("--tau", type=float, default=1.0)
    p_sim.add_argument("--tau-gauss-predict", type=float, default=0.32)
    p_sim.add_argument("--jobs", type=int, default=1)

    return parser


_RUNNERS = {
    "fit": run_fit,
    "cv": run_cv,
    "sample": run_sample,
    "feasible": run_feasible,
    "analyze": run_analyze,
    "simulate": run_simulate,
}


def _setup_logging() -> None:
    level = os.environ.get("SGM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        _RUNNERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SgmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
