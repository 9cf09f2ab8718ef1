"""Workloads of the sgm benchmark: input generation, operations and checks.

Every workload is a closed loop: one client runs one operation at a time
through ``sgm.cli.main(argv)``, and the next starts when the previous one has
completed.  Inputs come from a fixed pool of cases per workload.  The run
seed only chooses the order in which the pool is used, so every input has a
reference output, produced by the parent code (see ``make_references.py``),
and the median of a run covers several cases rather than one.  The inputs are
generated here with NumPy alone, never with ``sgm`` itself, so a change to the
program's samplers cannot change what the benchmark feeds it.

Workloads, the layers they run and the layers they bypass:

``lit-m5``
    ``sgm fit --model sgm --region lit --tau 1`` then the same fit with
    ``--model mixm``, on one CSV of the five-dimensional benchmark model
    (n=40, k=50, p=100 after the lasso split).  Runs the objective-only
    path of ``maxdet``: 40 stacked 5x5 log-det blocks (sgm) and 40 scalar
    blocks (mixm), linear constraints only; whitening and curvature assembly
    dominate.  ``model`` (one Hessian-basis call), ``feasibility``,
    ``sampling`` and ``analysis`` do almost nothing: the bypass workload for
    density-kernel work.
``lattice-m3``
    ``sgm fit --region lattice --M 5 --no-preprocess`` on n=100 draws from
    the three-frequency model theta(1,2,0)=0.1, theta(0,1,1)=0.3,
    theta(1,1,1)=0.2 fitted over the standard m=3 set (k=16).  Runs the
    barrier and certificate side of ``maxdet``: 216 PSD 3x3 constraints,
    the nnls KKT certificate over 216 columns and lattice Hessian bases.
``density``
    ``sgm sample --n 100000``, ``sgm feasible --M 10`` (a 41^3 grid scan),
    then ``sgm analyze`` with ``--what grid --axes 0,1 --resolution 101``,
    ``--what fisher`` and ``--what table1``, on a theta over the standard
    m=3 set strictly inside the L1 region (margin >= 0.2).  Runs ``model``,
    ``feasibility``, ``sampling``, ``analysis`` and the ``cli`` I/O with no
    solver at all: the bypass workload for solver work.

Left out, because one operation takes 31-143 s and every later check runs a
workload 22 times: lit fits at n=400 and n=2000; ``sgm simulate`` with 20
replicates; and the m=5 lattice fit, which also stops without converging.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Salts that keep the case streams of the workloads apart.
_SALT = {"lit-m5": 1, "lattice-m3": 2, "density": 3}
POOL = {"lit-m5": 24, "lattice-m3": 32, "density": 12}
# Cases on which the parent code fails a check.  They have no certified
# reference, so runs do not time them; each run of the workload runs them
# once, untimed, and reports the outcome, so the defect stays visible.
KNOWN_DEFECTS = {
    "lattice-m3": {27: "fit stops with 'KKT residual at the floating-point floor' "
                       "(1.29e-7 against a target near 1e-8), converged: false"},
}

# The program's tolerance between "semidefinite" and "indefinite" (model.EPS_PD).
EPS_PD = 1e-10
# Fits: tolerances any KKT-certified solution meets.  Changing the barrier
# schedule of the parent solver moves the objective by at most 6e-8 and theta
# by at most 3e-9 on these problems.
FIT_OBJ_RTOL = 1e-6
FIT_THETA_ATOL = 1e-6
# Deterministic analyses: relative to the largest reference magnitude.
VALUE_RTOL = 1e-10
# Stride of the stored subsample of each 101 x 101 density grid.
GRID_STRIDE = 17

LATTICE_TRUE = {(1, 2, 0): 0.1, (0, 1, 1): 0.3, (1, 1, 1): 0.2}
DENSITY_BOUND = 4.0       # rejection envelope of every density case
DENSITY_MARGIN = 0.2      # minimum L1-region margin of every density case
SAMPLE_N = 100_000
LIT_TAU = 1.0
LATTICE_M = 5


# ---------------------------------------------------------------------------
# Model mathematics needed to generate inputs, written independently of sgm
# ---------------------------------------------------------------------------

def standard_freqs(m: int) -> np.ndarray:
    """Nonzero u in {0,1,2}^m with 1-norm <= 3, in sgm's canonical order
    (lexicographic, last coordinate most significant)."""
    grid = np.stack(np.meshgrid(*([np.arange(3)] * m), indexing="ij"), -1).reshape(-1, m)
    keep = grid[(grid.sum(1) > 0) & (grid.sum(1) <= 3)]
    return keep[np.lexsort(keep.T)]


def hessian_field(freqs: np.ndarray, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """I + sum_u theta_u D2(-pi^-2 prod_j cos(pi u_j x_j)) at each row of X."""
    n, m = X.shape
    C = np.cos(np.pi * X[:, None, :] * freqs)
    S = np.sin(np.pi * X[:, None, :] * freqs)
    G = np.broadcast_to(np.eye(m), (n, m, m)).copy()
    for j in range(m):
        for l in range(m):
            rest = [r for r in range(m) if r not in (j, l)]
            if j == l:
                term = freqs[:, j] ** 2 * C.prod(-1)
            else:
                term = -freqs[:, j] * freqs[:, l] * S[..., j] * S[..., l] * C[..., rest].prod(-1)
            G[:, j, l] += term @ theta
    return G


def axis_loads(freqs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sum_u |theta_u| u_j^2 per axis j."""
    return np.abs(theta) @ freqs.astype(float) ** 2


def _rejection_sample(freqs, theta, n, rng) -> np.ndarray:
    bound = float(np.prod(1.0 + axis_loads(freqs, theta)))
    out = []
    while sum(len(a) for a in out) < n:
        X = rng.random((4096, freqs.shape[1]))
        U = rng.random(4096)
        out.append(X[U * bound <= np.linalg.det(hessian_field(freqs, theta, X))])
    return np.concatenate(out)[:n]


def _benchmark5(n, rng) -> np.ndarray:
    """x1 ~ N(0,1); x2 ~ N(x1,1); x3 ~ N(0, 1 + tanh x2); (x4, x5) standard
    bivariate normal with correlation tanh x3."""
    z = rng.standard_normal((n, 5))
    x2 = z[:, 0] + z[:, 1]
    x3 = np.sqrt(1.0 + np.tanh(x2)) * z[:, 2]
    rho = np.tanh(x3)
    x5 = rho * z[:, 3] + np.sqrt(1.0 - rho**2) * z[:, 4]
    return np.stack([z[:, 0], x2, x3, z[:, 3], x5], axis=-1)


def _density_theta(freqs, rng) -> np.ndarray:
    """A random direction scaled so that the envelope constant is DENSITY_BOUND;
    redrawn until the L1-region margin is at least DENSITY_MARGIN."""
    while True:
        z = rng.standard_normal(len(freqs))
        loads = axis_loads(freqs, z)
        lo, hi = 0.0, 1.0
        while np.prod(1.0 + hi * loads) < DENSITY_BOUND:
            hi *= 2.0
        for _ in range(200):  # bisection on the monotone envelope
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.prod(1.0 + mid * loads) < DENSITY_BOUND else (lo, mid)
        theta = hi * z
        if 1.0 - axis_loads(freqs, theta).max() >= DENSITY_MARGIN:
            return theta


def write_csv(path: str, arr: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([f"x{i + 1}" for i in range(arr.shape[1])])
        w.writerows([[f"{v:.17g}" for v in row] for row in arr])


def make_case(workload: str, case: int) -> dict:
    """The inputs of one pool case, as arrays and plain values."""
    rng = np.random.default_rng([_SALT[workload], case])
    if workload == "lit-m5":
        return {"data": _benchmark5(40, rng)}
    if workload == "lattice-m3":
        freqs = standard_freqs(3)
        theta = np.array([LATTICE_TRUE.get(tuple(u), 0.0) for u in freqs.tolist()])
        return {"data": _rejection_sample(freqs, theta, 100, rng)}
    freqs = standard_freqs(3)
    return {
        "freqs": freqs,
        "theta": _density_theta(freqs, rng),
        "sample_seed": int(rng.integers(2**31)),
    }


def case_order(workload: str, seed: int) -> list[int]:
    """The pool cases a run uses, in order; fixed by the run seed."""
    cases = [c for c in range(POOL[workload]) if c not in KNOWN_DEFECTS.get(workload, {})]
    return [cases[i] for i in np.random.default_rng(seed).permutation(len(cases))]


def write_case(workload: str, case: int, inputs: dict, directory: str) -> dict:
    """Write one case's input files; return their paths and the case's values."""
    if workload == "density":
        path = os.path.join(directory, f"params-{case}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"frequencies": inputs["freqs"].tolist(),
                       "theta": [float(v) for v in inputs["theta"]]}, fh)
    else:
        path = os.path.join(directory, f"data-{case}.csv")
        write_csv(path, inputs["data"])
    return {"case": case, "input": path, **inputs}


def setup_inputs(workload: str, seed: int, directory: str) -> list[dict]:
    """Generate and write every input of one run."""
    return [write_case(workload, c, make_case(workload, c), directory)
            for c in case_order(workload, seed)]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class Call:
    """One CLI invocation within an operation."""

    metric: str                 # end-to-end timing the call belongs to
    argv: list[str]
    check: str                  # name of the check applied to its output
    output_file: str | None = None


@dataclass
class Fit:
    """Sizes of one fit, for the computed curvature flops and stack bytes."""

    blocks: int      # log-det blocks: samples, plus PSD constraints
    nvars: int
    size: int


FITS = {
    "fit_s": {"lit-m5": Fit(40, 100, 5), "lattice-m3": Fit(100 + 216, 16, 3)},
    "fit_mixm_s": {"lit-m5": Fit(40, 100, 1)},
}

METRICS = {
    "lit-m5": ["fit_s", "fit_mixm_s"],
    "lattice-m3": ["fit_s"],
    "density": ["sample_s", "scan_s", "analyze_s"],
}


def operation(workload: str, case: dict, workdir: str) -> list[Call]:
    path = case["input"]
    if workload == "lit-m5":
        lit = ["--region", "lit", "--tau", str(LIT_TAU)]
        return [
            Call("fit_s", ["fit", "--input", path, "--model", "sgm", *lit], "fit_lit_sgm"),
            Call("fit_mixm_s", ["fit", "--input", path, "--model", "mixm", *lit], "fit_lit_mixm"),
        ]
    if workload == "lattice-m3":
        return [Call("fit_s", ["fit", "--input", path, "--region", "lattice", "--M", str(LATTICE_M),
                               "--no-preprocess"], "fit_lattice")]
    out = os.path.join(workdir, "sample.csv")
    return [
        Call("sample_s", ["sample", "--input", path, "--n", str(SAMPLE_N),
                          "--seed", str(case["sample_seed"]), "--output", out],
             "sample", output_file=out),
        Call("scan_s", ["feasible", "--input", path, "--M", "10"], "feasible"),
        Call("analyze_s", ["analyze", "--what", "grid", "--input", path, "--axes", "0,1",
                           "--resolution", "101"], "grid"),
        Call("analyze_s", ["analyze", "--what", "fisher", "--input", path], "fisher"),
        Call("analyze_s", ["analyze", "--what", "table1"], "table1"),
    ]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    ok: bool
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)   # exact counts read from the output

    def require(self, cond: bool, message: str) -> None:
        if not cond:
            self.ok = False
            self.problems.append(message)


def _close(value, reference, what: str, out: Outcome) -> None:
    v = np.asarray(value, dtype=float)
    r = np.asarray(reference, dtype=float)
    if v.shape != r.shape:
        out.require(False, f"{what}: shape {v.shape} != reference {r.shape}")
        return
    err = float(np.abs(v - r).max()) if v.size else 0.0
    out.require(err <= VALUE_RTOL * max(float(np.abs(r).max()), 1e-300),
                f"{what}: deviates by {err:.3e} from the reference")


def grid_digest(values: np.ndarray) -> dict:
    """What the references keep of a density grid: a strided subsample plus
    the sum and sum of squares of every value."""
    values = np.asarray(values, dtype=float).ravel()
    return {"stride": values[::GRID_STRIDE].tolist(),
            "sum": float(values.sum()), "sumsq": float((values**2).sum())}


def parse_grid(text: str) -> np.ndarray:
    rows = text.strip().split("\n")[1:]
    return np.array([float(r.rsplit("\t", 1)[1]) for r in rows])


def check_call(kind: str, code: int, stdout: str, output_file: str | None,
               ref: dict) -> Outcome:
    """Check one CLI call's exit code and output against the case reference."""
    out = Outcome(ok=True)
    out.require(code == 0, f"exit code {code}")
    if code != 0:
        return out
    if kind.startswith("fit"):
        _check_fit(kind, json.loads(stdout), ref, out)
    elif kind == "sample":
        _check_sample(json.loads(stdout), output_file, ref, out)
    elif kind == "feasible":
        body = json.loads(stdout)
        for key in ("lit_margin", "min_eig_grid"):
            _close(body[key], ref[key], key, out)
        _close(body["lattice"]["margin"], ref["lattice_margin"], "lattice margin", out)
        out.require(body["lattice"]["feasible"] == ref["lattice_feasible"], "lattice flag")
    elif kind == "grid":
        values = parse_grid(stdout)
        out.require(values.size == 101 * 101, f"grid has {values.size} values")
        if values.size == 101 * 101:
            got = grid_digest(values)
            for key in ("stride", "sum", "sumsq"):
                _close(got[key], ref["grid"][key], f"grid {key}", out)
    elif kind == "fisher":
        _close(json.loads(stdout)["fisher"], ref["fisher"], "fisher", out)
    elif kind == "table1":
        got, want = json.loads(stdout)["table1"], ref["table1"]
        for group in want:
            for model, value in want[group].items():
                _close(got[group][model], value, f"table1 {group}/{model}", out)
    return out


def _check_fit(kind, body, ref, out):
    solver = body["solver"]
    out.counts = {"newton": solver["newton_iterations"], "outer": solver["outer_iterations"],
                  "converged": bool(solver["converged"])}
    out.require(solver["converged"] is True, "fit did not converge")
    freqs = np.asarray(body["frequencies"])
    theta = np.asarray(body["theta"], dtype=float)
    # The region holds the solver's output, theta_raw.  The reported theta
    # zeroes entries below 1e-8, which can move a boundary optimum outside
    # the lattice region by ~1e-9; its margin is recorded, not checked.
    raw = np.asarray(body["theta_raw"], dtype=float)
    if kind == "fit_lattice":
        # The optimum lies on the lattice boundary (margin ~1e-11), so the
        # region test is the semidefinite one: no eigenvalue below -EPS_PD.
        margin = lattice_margin(freqs, raw, LATTICE_M)
        out.counts.update(margin=margin,
                          margin_thresholded=lattice_margin(freqs, theta, LATTICE_M))
        out.require(margin >= -EPS_PD, f"lattice margin {margin:.3e} < -{EPS_PD}")
    else:
        if kind == "fit_lit_sgm":
            load = axis_loads(freqs, raw).max()
        else:
            load = float(np.abs(raw) @ (freqs.astype(float) ** 2).sum(axis=1))
        out.require(LIT_TAU - load >= -1e-12, f"lit margin {LIT_TAU - load:.3e} < 0")
    want = ref[kind]
    obj = solver["objective"]
    out.require(abs(obj - want["objective"]) <= FIT_OBJ_RTOL * max(1.0, abs(want["objective"])),
                f"objective {obj!r} vs reference {want['objective']!r}")
    err = float(np.abs(theta - np.asarray(want["theta"])).max())
    out.require(err <= FIT_THETA_ATOL, f"theta deviates by {err:.3e}")


def lattice_margin(freqs, theta, M) -> float:
    """Smallest Hessian eigenvalue, with rescaled theta, over {0, 1/M, ..., 1}^3."""
    axis = np.arange(M + 1) / M
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    scaled = theta / (1.0 - freqs / M).prod(axis=1)
    return float(np.linalg.eigvalsh(hessian_field(freqs, scaled, pts))[:, 0].min())


def _check_sample(body, path, ref, out):
    rej = body["rejection"]
    out.counts = {"proposals": rej["proposals"], "acceptance_rate": rej["acceptance_rate"]}
    X = np.loadtxt(path, delimiter=",", skiprows=1)
    out.require(X.shape == (SAMPLE_N, 3), f"sample shape {X.shape}")
    if X.shape != (SAMPLE_N, 3):
        return
    out.require(bool(((X >= 0.0) & (X <= 1.0)).all()), "a sample row leaves [0,1]^3")
    r = 1.0 / rej["bound"]
    se = math.sqrt(r * (1.0 - r) / rej["proposals"])
    rate = SAMPLE_N / rej["proposals"]
    out.require(abs(rate - r) <= 3.0 * se,
                f"acceptance {rate:.5f} is {abs(rate - r) / se:.1f} SE from 1/bound {r:.5f}")
    means = X.mean(axis=0)
    se_mean = X.std(axis=0, ddof=1) / math.sqrt(SAMPLE_N)
    z = np.abs(means - np.asarray(ref["means"])) / se_mean
    out.require(bool((z <= 4.0).all()), f"axis means {z.round(2).tolist()} SE from reference")
