"""Command-line interface.

Subcommands: fit, cv, sample, feasible, analyze, simulate.  The module
parses options, reads inputs and writes results; the library does the work and
returns numbers and arrays, and every text format is this module's.  Each
runner returns its resolved configuration and result body, or the TSV text of
a table, and ``main`` alone writes it: JSON with a schema version, the
command, the configuration and the timing.  Reruns are byte-identical apart
from the timing field.  Exit codes: 0 success, 2 usage error, 3 data error,
4 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time

import numpy as np

from . import analysis, estimators, feasibility, sampling
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
# Rows formatted per write, which bounds the text held in memory at once.
_CSV_ROWS = 4096


class UsageError(SgmError):
    """Invalid command-line options."""


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------

def read_csv(path: str) -> np.ndarray:
    """Read a comma-separated numeric table; a single header row is detected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(i, ln.strip()) for i, ln in enumerate(fh, start=1) if ln.strip()]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path} is empty")

    def parse_row(lineno, line):
        cells = [c.strip() for c in line.split(",")]
        if any(c == "" for c in cells):
            raise DataError(f"{path}:{lineno}: blank cell")
        return [float(c) for c in cells]

    rows = []
    start = 0
    try:
        parse_row(*lines[0])
    except ValueError:
        start = 1  # header row
    for lineno, line in lines[start:]:
        try:
            rows.append(parse_row(lineno, line))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"{path}: ragged rows")
    arr = np.asarray(rows, dtype=float)
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if len(bad):
        raise DataError(f"{path}:{lines[start + bad[0]][0]}: non-finite cell")
    return arr


# _format_rows' tables.  _WORDS[w + 10^4 z]: four digits of w < 10^4, trailing zeros NUL if z.
# _PREFIX[(((e + 4) * 2 + s) * 10 + d) * 2 + z]: sign s, digit d, point; z: no digit follows.
_SCALE = np.array([1e20, 1e19, 1e18, 1e17, 1e16])  # 10^(16 - e), e = -4..0: exact
_DIGITS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1).reshape(-1, 4)
_TRAILING = np.logical_and.accumulate(_DIGITS[:, ::-1] == 48, axis=1)[:, ::-1]
_WORDS = np.concatenate([_DIGITS, _DIGITS * ~_TRAILING]).view(np.uint32).ravel()
_PREFIX = np.frombuffer(b"".join(
    ("-" * s + (f"{d}" + "." * (1 - z) if e == 0 else f"0.{'0' * (-1 - e)}{d}")).encode().ljust(8, b"\0")
    for e in range(-4, 1) for s in (0, 1) for d in range(10) for z in (0, 1)), np.uint64)


def _split(a):
    c = a * 134217729.0  # 2^27 + 1: Veltkamp's split a = hi + lo into 26-bit halves
    return c - (c - a), a - (c - (c - a))


def _format_rows(arr, sep: str) -> bytes:
    """Each row of an (N, c) array as ``sep.join('%.17g' % v) + '\\n'``, for a 1-byte sep.

    Where 1e-4 <= |x| < 10 (unit-cube draws, densities, grid coordinates) numpy
    forms the text over the block: the exponent e in [-4, 0] by comparison with the
    doubles 1e-3, 1e-2, 0.1 and 1 (none below its power of ten), the 17 digits as
    p + rint(err), (p, err) Dekker's exact product of |x| and 10^(16-e) (Numer.
    Math. 18, 1971); p >= 2^53 is even, so rint's ties to even round as '%.17g'
    does.  Each value fills 32 NUL-padded bytes: prefix, 4 digit words, separator;
    the NULs are deleted.  '%.17g' itself formats any other value.
    """
    n, c = np.shape(arr)
    x = np.asarray(arr, dtype=float).ravel()
    a = np.abs(x)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 10.0)))
    a[slow] = 1.0
    i = sum(a >= power for power in (1e-3, 1e-2, 1e-1, 1.0))
    b = _SCALE.take(i)
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    d = p.astype(np.int64) + np.rint(((ah * bh - p) + ah * bl + al * bh) + al * bl).astype(np.int64)
    del a, b, p, ah, al, bh, bl  # the float temporaries, before the text is built
    out = np.empty((n * c, 4), np.uint64)  # prefix, four digit words, separator
    zero = np.ones(len(x), bool)  # every digit right of the current word is 0
    for k in (5, 4, 3, 2):
        d, w = d // 10**4, d - d // 10**4 * 10**4
        out.view(np.uint32)[:, k] = _WORDS.take(w + 10**4 * zero)
        zero &= w == 0
    out[:, 0] = _PREFIX.take(((i * 2 + np.signbit(x)) * 10 + d) * 2 + zero)
    out.reshape(n, c, 4)[:, :, 3] = [ord(sep)] * (c - 1) + [ord("\n")]  # 1 byte and 7 NULs
    text = b"".join(("%.17g" % v).encode().ljust(24, b"\0") for v in x[slow].tolist())
    out.view(np.uint8)[slow, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)
    return out.tobytes().translate(None, b"\0")


def write_csv(path: str, arr: np.ndarray) -> None:
    """Header ``x1,...,xc``, then rows as '%.17g' writes them, by ``_format_rows``."""
    arr = np.atleast_2d(arr)
    header = ",".join(f"x{i + 1}" for i in range(arr.shape[1]))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for block in np.split(arr, range(_CSV_ROWS, len(arr), _CSV_ROWS)):
            fh.write(_format_rows(block, ","))


def _tsv(header_cells, columns) -> str:
    """The tab-joined header, then one row per entry of the equal-length columns."""
    return "\t".join(header_cells) + "\n" + _format_rows(np.column_stack(columns), "\t").decode()


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


def _frequency_array(values, path: str) -> np.ndarray:
    """JSON frequency vectors as an int array; anything not integer is a DataError."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = None
    # x % 1 == 0 fails for fractions, nan and inf alike
    if arr is None or arr.dtype.kind not in "iuf" or not np.all(arr % 1 == 0):
        raise DataError(f"{path}: frequencies must be arrays of integers")
    return arr.astype(int)


def load_params(path: str) -> tuple[FrequencySet, np.ndarray]:
    """Read a parameter file: JSON with "frequencies" and "theta" keys.

    Accepts fit-result JSON unchanged.  Vectors are reordered jointly into
    the canonical frequency order.
    """
    obj = _read_json(path)
    try:
        vecs = _frequency_array(obj["frequencies"], path)
        theta = np.asarray(obj["theta"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f'{path}: needs "frequencies" and "theta" arrays') from exc
    if vecs.ndim != 2 or theta.shape != (vecs.shape[0],):
        raise DataError(f"{path}: frequencies/theta shapes do not match")
    order = np.lexsort(vecs.T)
    freqs = FrequencySet(dim=vecs.shape[1], freqs=vecs[order])
    return freqs, theta[order]


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def dump_json(obj: dict, path: str | None) -> None:
    _write_text(json.dumps(obj, indent=2, default=lambda x: x.tolist()) + "\n", path)


# ---------------------------------------------------------------------------
# Option resolution
# ---------------------------------------------------------------------------

def _resolve_freqs(option: str, m: int) -> FrequencySet:
    if option == "standard":
        return standard_freq_set(m)
    path = option[len("file:"):]
    fs = FrequencySet.from_vectors(_frequency_array(_read_json(path), path))
    if fs.dim != m:
        raise DataError(f"frequency file dimension {fs.dim} does not match data ({m})")
    return fs


def _resolve_region(args) -> LitRegion | LatticeRegion:
    if args.region == "lattice":
        if args.tau is not None:
            raise UsageError("--tau does not apply to --region lattice")
        if args.M is None:
            raise UsageError("--region lattice requires --M")
        return LatticeRegion(args.M)
    if args.M is not None:
        raise UsageError("--M applies to --region lattice only")
    return LitRegion(1.0 if args.tau is None else args.tau)


def _region_json(region) -> dict:
    if isinstance(region, LitRegion):
        return {"kind": "lit", "tau": region.tau}
    return {"kind": "lattice", "M": region.M}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def run_fit(args) -> tuple[dict, dict]:
    if args.model == "gauss":
        for flag, value in (("--region", args.region), ("--M", args.M), ("--freqs", args.freqs)):
            if value is not None:
                raise UsageError(f"{flag} does not apply to --model gauss")
    else:
        region = _resolve_region(args)
        freq_option = "standard" if args.freqs is None else args.freqs
        if freq_option != "standard" and not freq_option.startswith("file:"):
            raise UsageError(f"--freqs must be 'standard' or 'file:PATH', got {freq_option!r}")
    raw = read_csv(args.input)
    config = {
        "input": args.input,
        "model": args.model,
        "preprocess": not args.no_preprocess,
    }
    if args.model == "gauss":
        data = raw if args.no_preprocess else Scaler.fit(raw).standardize(raw)
        config["tau"] = tau = 1.0 if args.tau is None else args.tau
        C = estimators.fit_gauss_lasso(data, tau)
        return config, {
            "concentration": C,
            "partial_correlations": estimators.partial_correlations(C),
            "loglik": estimators.predictive_loglik("gauss", C, data),
        }

    freqs = _resolve_freqs(freq_option, raw.shape[1])
    config.update({"freqs": freq_option, "region": _region_json(region)})
    data = raw if args.no_preprocess else Scaler.fit(raw).to_unit(raw)
    fit = (estimators.fit_sgm if args.model == "sgm" else estimators.fit_mixm)(
        data, freqs, region
    )
    solver_keys = ("objective", "kkt_residual", "newton_iterations", "outer_iterations",
                   "converged", "mu_final")
    return config, {
        "frequencies": freqs.freqs,
        "theta": fit.theta,
        "theta_raw": fit.theta_raw,
        "scaled": fit.scaled,
        "loglik": fit.loglik,
        "solver": {key: getattr(fit.report, key) for key in solver_keys},
    }


def run_cv(args) -> tuple[dict, dict]:
    if args.no_preprocess and args.global_preprocess:
        raise UsageError("--no-preprocess and --global-preprocess are exclusive")
    raw = read_csv(args.input)
    mode = "none" if args.no_preprocess else (
        "global" if args.global_preprocess else "fold"
    )
    res = estimators.cross_validate(
        raw, args.model, tau_grid=args.tau_grid, folds=args.folds, seed=args.seed,
        preprocess_mode=mode, jobs=args.jobs,
    )
    taus = res.taus.tolist()
    best_i = taus.index(res.best_tau)  # the first row at the best tau, as np.argmax picks
    config = {
        "input": args.input,
        "model": args.model,
        "folds": args.folds,
        "seed": args.seed,
        "tau_grid": taus,
        "preprocess": mode,
        "jobs": args.jobs,
    }
    return config, {
        "rows": [
            {"tau": t, "cv_loglik": s, "best": i == best_i}
            for i, (t, s) in enumerate(zip(taus, res.scores.tolist()))
        ],
        "best_tau": res.best_tau,
    }


def run_sample(args) -> tuple[dict, dict]:
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
    return config, body


def run_feasible(args) -> tuple[dict, dict]:
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
    return config, body


def _parse_list(text: str, kind=float) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated {kind.__name__}s, got {text!r}") from exc


def _parse_condition(text: str) -> dict[int, float]:
    out = {}
    for item in text.split(","):
        if not item.strip():
            continue
        try:
            axis, value = item.split("=")
            axis, value = int(axis), float(value)
        except ValueError as exc:
            raise UsageError(f"bad conditioning item {item!r}; use AXIS=VALUE") from exc
        if axis in out:
            raise UsageError(f"--condition fixes axis {axis} twice")
        out[axis] = value
    return out


def run_analyze(args) -> tuple[dict, dict] | str:
    what = args.what
    model = args.model or "sgm"
    config = {"what": what, "model": model, "quad_nodes": args.quad_nodes}
    # the options each analysis reads; of them, --input, --theta and --phi are required
    reads = {"table1": "", "cmi": "theta phi model", "fisher": "input",
             "marginal": "input axes resolution model",
             "grid": "input axes resolution condition model"}.get(what, "theta model").split()
    for option in ("input", "theta", "phi", "axes", "resolution", "condition", "model"):
        if getattr(args, option) is not None and option not in reads:
            raise UsageError(f"--{option} does not apply to --what {what}")
        if getattr(args, option) is None and option in reads and option in ("input", "theta", "phi"):
            raise UsageError(f"--what {what} requires --{option}")

    if what == "table1":
        return config, {"table1": analysis.table1(args.quad_nodes)}

    if "theta" in reads:
        vals = _parse_list(args.theta)
        if len(vals) != 1:
            raise UsageError("--theta must have 1 value(s)")
        config["theta"] = theta = vals[0]
        if what == "cmi":
            config["phi"] = args.phi
            return config, {"cmi": analysis.cond_mutual_info(theta, args.phi, model, args.quad_nodes)}
        return config, {what: getattr(analysis, what)(theta, model, args.quad_nodes)}

    if what in ("marginal", "grid"):
        axes = _parse_list(args.axes or ("0" if what == "marginal" else "0,1"), int)
        grid = np.linspace(0.0, 1.0, args.resolution or 101)
    conditioning = _parse_condition(args.condition) if args.condition else None
    freqs, theta = load_params(args.input)
    config["input"] = args.input

    if what == "fisher":
        return config, {"frequencies": freqs.freqs,
                        "fisher": analysis.fisher_numeric(freqs, theta, args.quad_nodes)}

    if what == "marginal":
        if len(axes) != 1 or not 0 <= axes[0] < freqs.dim:
            raise UsageError(f"--what marginal takes one --axes index in [0, {freqs.dim})")
        vals = analysis.marginal_density(
            freqs, theta, axes, grid[:, None], model=model, nodes=args.quad_nodes
        )
        return _tsv([f"x_{axes[0] + 1}", "density"], [grid, vals])

    if what == "grid":
        if len(axes) != 2 or axes[0] == axes[1] or not all(0 <= a < freqs.dim for a in axes):
            raise UsageError(f"--what grid requires two distinct --axes I,J in [0, {freqs.dim})")
        if conditioning and sorted(conditioning) != [a for a in range(freqs.dim) if a not in axes]:
            raise UsageError("--condition must fix exactly the axes not in --axes")
        values = analysis.density_grid(
            freqs, theta, (axes[0], axes[1]), len(grid),
            conditioning=conditioning, model=model, nodes=args.quad_nodes,
        )
        return _tsv([f"x_{axes[0] + 1}", f"x_{axes[1] + 1}", "density"],
                    [np.repeat(grid, len(grid)), np.tile(grid, len(grid)), values.ravel()])


def run_simulate(args) -> tuple[dict, dict]:
    keys = ("replicates", "n", "n_test", "seed", "tau", "tau_gauss_predict", "jobs")
    config = {key: getattr(args, key) for key in keys}
    return config, estimators.simulate(**config)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _at_least(low: int):
    """argparse type: an integer >= low; anything else is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _tau(text: str) -> float:
    """argparse type: a tau in [0, 1]; anything else, nan included, is a usage error."""
    try:
        if 0.0 <= float(text) <= 1.0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a tau in [0, 1], got {text!r}")


def _tau_grid(text: str) -> list[float]:
    """argparse type: one or more comma-separated taus, each in [0, 1]."""
    taus = [_tau(tok) for tok in text.split(",") if tok.strip()]
    if not taus:
        raise argparse.ArgumentTypeError(f"expected comma-separated taus, got {text!r}")
    return taus


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgm",
        description="Gradient-type density models on the unit hypercube",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, models=("sgm", "mixm", "gauss"), seed=False, inputs=True, model="sgm"):
        if inputs:
            p.add_argument("--input", help="input path")
        p.add_argument("--output", help="output path (default: stdout)")
        if models:
            p.add_argument("--model", choices=models, default=model)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p_fit = sub.add_parser("fit", help="fit a model to CSV data")
    common(p_fit)
    p_fit.add_argument("--region", choices=("lit", "lattice"), help="default lit; not gauss")
    p_fit.add_argument("--tau", type=_tau, default=None, help="lit and gauss only (default 1)")
    p_fit.add_argument("--M", type=_at_least(1), default=None)
    p_fit.add_argument("--freqs", help="standard (default) or file:PATH; not gauss")
    p_fit.add_argument("--no-preprocess", action="store_true")

    p_cv = sub.add_parser("cv", help="cross-validate the tuning parameter")
    common(p_cv, seed=True)
    p_cv.add_argument("--folds", type=_at_least(2), default=5)
    p_cv.add_argument("--tau-grid", type=_tau_grid, help="comma-separated tau values")
    p_cv.add_argument("--jobs", type=_at_least(1), default=1)
    p_cv.add_argument("--global-preprocess", action="store_true",
                      help="standardize once on the full data instead of per fold")
    p_cv.add_argument("--no-preprocess", action="store_true",
                      help="use the data as given (already on the model scale)")

    p_sample = sub.add_parser("sample", help="draw samples to CSV")
    common(p_sample, models=("sgm", "mixm", "benchmark5"), seed=True)
    p_sample.add_argument("--n", type=_at_least(1), required=True)

    p_feas = sub.add_parser("feasible", help="feasibility report for a parameter file")
    common(p_feas, models=())
    p_feas.add_argument("--tau", type=_tau, default=1.0)
    p_feas.add_argument("--M", type=_at_least(1), default=None)
    p_feas.add_argument("--resolution", type=_at_least(2), default=None)

    p_an = sub.add_parser("analyze", help="quadrature analyses and grids")
    common(p_an, models=("sgm", "mixm"), model=None)  # sgm where read, refused where not
    p_an.add_argument(
        "--what",
        choices=("correlation", "beta122", "beta123", "cmi", "fisher", "marginal",
                 "grid", "table1"),
        required=True,
    )
    p_an.add_argument("--theta", help="comma-separated parameter value(s)")
    p_an.add_argument("--phi", type=float, default=None)
    p_an.add_argument("--quad-nodes", type=_at_least(1), default=analysis.DEFAULT_NODES)
    p_an.add_argument("--axes", help="axis indices, e.g. 0,1")
    p_an.add_argument("--resolution", type=_at_least(2), help="marginal and grid (default 101)")
    p_an.add_argument("--condition", help="fixed axes, e.g. 1=0.75")

    p_sim = sub.add_parser("simulate", help="benchmark replication experiment")
    common(p_sim, models=(), seed=True, inputs=False)
    p_sim.add_argument("--replicates", type=_at_least(1), default=20)
    p_sim.add_argument("--n", type=_at_least(2), default=40)
    p_sim.add_argument("--n-test", type=_at_least(1), default=10)
    p_sim.add_argument("--tau", type=_tau, default=1.0)
    p_sim.add_argument("--tau-gauss-predict", type=_tau, default=0.32)
    p_sim.add_argument("--jobs", type=_at_least(1), default=1)

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
    started = time.time()
    try:
        out = _RUNNERS[args.command](args)
        if isinstance(out, str):
            _write_text(out, args.output)
        else:
            config, body = out
            result = {"schema": SCHEMA_VERSION, "command": args.command, "config": config,
                      **body, "timing_sec": time.time() - started}
            # sample's --output is its CSV file; its report goes to stdout
            dump_json(result, None if args.command == "sample" else args.output)
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
