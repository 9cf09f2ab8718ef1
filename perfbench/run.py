"""The sgm benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lit-m5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One run sets up its inputs from the seed, then runs operations of one
workload through ``sgm.cli.main(argv)`` in this process, with stdout
captured, for the given number of seconds, and checks every output against
the stored references.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see ``tracer.py``), in
which every operation also runs once untraced on the same input to measure
the tracing overhead.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the environment block, goes to
``.bench_out/<workload>-seed<seed>-trace<t>/result.json`` and the spans of a
traced run to ``spans.jsonl`` beside it.

BLAS and OpenMP are pinned to one thread before NumPy is imported: the
machine's cores are shared, the thread count changes fitted theta in the last
bit, and oversubscription made the mixture fit 2.9x slower.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("lit-m5", "lattice-m3", "density")
SETUP_REPEATS = 5

# Metric names and units, in report order.
E2E_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.read_csv_s": "s", "cli.write_csv_s": "s", "cli.dump_json_s": "s",
    "estimators.fit_sgm_s": "s", "estimators.fit_sgm.self_s": "s",
    "estimators.fit_mixm_s": "s", "estimators.fit_mixm.self_s": "s",
    "maxdet.solve_s": "s", "maxdet.solve.self_s": "s",
    "maxdet.objective_eval_s": "s", "maxdet.objective_eval.calls": "count",
    "maxdet.kkt_residual_s": "s", "maxdet.kkt_residual.calls": "count",
    "maxdet.newton_iters": "count", "maxdet.outer_iters": "count",
    "maxdet.converged_frac": "frac",
    "maxdet.curvature_gflop": "GFLOP", "maxdet.stack_mb": "MB",
    "model.hessian_basis_batch_s": "s", "model.hessian_basis_batch.points": "count",
    "model.gram_batch_s": "s", "model.gram_batch.points": "count",
    "model.density_batch_s": "s", "model.density_batch.points": "count",
    "feasibility.min_eig_grid_s": "s", "feasibility.lattice_feasible_s": "s",
    "sampling.sample_sgm_s": "s", "sampling.proposals": "count",
    "sampling.acceptance_rate": "frac",
    "analysis.density_grid_s": "s", "analysis.fisher_numeric_s": "s", "analysis.table1_s": "s",
    **{f"{layer}.self_s": "s" for layer in
       ("cli", "estimators", "maxdet", "model", "feasibility", "sampling", "analysis")},
    "trace.overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark cannot run: missing sources or references."""


# ---------------------------------------------------------------------------
# Environment and set-up
# ---------------------------------------------------------------------------

def _import_sgm():
    sys.path.insert(0, SRC)
    import sgm.cli  # noqa: F401  (loads every layer module)

    if not os.path.abspath(sys.modules["sgm"].__file__).startswith(SRC + os.sep):
        raise BenchError("sgm was imported from outside this checkout")
    return sys.modules["sgm.cli"]


def _time_import() -> float:
    """Seconds to import sgm.cli in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import sgm.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                          timeout=120, check=False)
    if done.returncode != 0:
        raise BenchError(f"importing sgm failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip())


def _blas_versions() -> dict:
    out = {}
    for name, mod in (("numpy", np), ("scipy", sys.modules.get("scipy"))):
        config = getattr(getattr(mod, "__config__", None), "CONFIG", {}) if mod else {}
        blas = config.get("Build Dependencies", {}).get("blas", {})
        out[name] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    return out


def environment(seed: int) -> dict:
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "sgm"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "sgm", name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_versions(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Calibration:
    """A fixed mix of the kernels sgm spends its time in, timed before every
    operation and every set-up import.  The machine's cores are shared with
    other tenants, and the same work ran up to 1.7x slower for seconds to
    minutes at a time.  Over sets of ten runs per workload, raw median
    operation times spread (quartile distance over median) by 5-38% and the
    median set-up time moved by up to 29% between sets; timings scaled by
    REFERENCE_S over the mean kernel time taken alongside them spread by
    2.5-14%.  Raw times are reported beside the calibrated ones."""

    REFERENCE_S = 0.014    # mean kernel time over thirty runs on the reference machine
    REPEATS = 8

    def __init__(self):
        rng = np.random.default_rng(0)
        A = rng.random((40, 100, 5, 5))
        self._A = A + np.swapaxes(A, -1, -2)        # the lit-m5 coefficient stack
        B = rng.random((40, 5, 5))
        self._S = B @ np.swapaxes(B, -1, -2) + np.eye(5)
        self._X = rng.random((2000, 16, 3))         # points x frequencies x axes
        G = rng.random((2000, 3, 3))
        self._G = G @ np.swapaxes(G, -1, -2)
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(self.REPEATS):
            t = time.perf_counter()
            L = np.linalg.cholesky(self._S)
            W = np.linalg.solve(L[:, None], self._A)        # whitening
            np.einsum("tkij,tlij->kl", W[:, :40], W[:, :40])  # curvature
            np.cos(np.pi * self._X).prod(-1)                # trig tables
            np.linalg.eigvalsh(self._G)                     # batched 3x3 spectra
            np.linalg.det(self._G)
            "\n".join(",".join(f"{v:.17g}" for v in row) for row in self._G[:200, 0])
            self.samples.append(time.perf_counter() - t)

    def factor(self) -> float:
        return self.REFERENCE_S / statistics.mean(self.samples)


def set_up(workload: str, seed: int, workdir: str, refs: dict):
    """Import sgm and write the run's inputs, several times; returns the
    cases, the cli module and the set-up timings.  setup_s is the median
    import time plus the median time to write the inputs, calibrated by
    kernel samples taken before each import."""
    cal = Calibration()
    imports = []
    for _ in range(SETUP_REPEATS):
        cal.sample()
        imports.append(_time_import())
    cli = _import_sgm()
    writes = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        cases = wl.setup_inputs(workload, seed, workdir)
        writes.append(time.perf_counter() - t)
    for case in cases:
        want = refs[workload][str(case["case"])]["input_sha256"]
        if _file_sha256(case["input"]) != want:
            raise BenchError(f"{workload} case {case['case']}: input differs from the reference's")
    raw = statistics.median(imports) + statistics.median(writes)
    return cases, cli, {"import_s": imports, "inputs_s": writes, "raw_s": raw,
                        "calibration": cal.samples, "setup_s": raw * cal.factor()}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def run_op(cli, workload: str, case: dict, workdir: str, refs: dict, tracer=None) -> dict:
    """Run one operation and check its outputs; the wall time covers the CLI
    calls only and encloses the root span of a traced operation."""
    ref = {**refs[workload][str(case["case"])], "table1": refs["table1"]}
    calls = wl.operation(workload, case, workdir)
    record = {"case": case["case"], "times": {}, "checks": [], "ok": True}
    results = []
    start = time.perf_counter()
    if tracer:
        tracer.open_root()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(call.argv)
        except Exception:  # a crash fails the operation; the run goes on
            code, err = -1, io.StringIO(traceback.format_exc())
        dt = time.perf_counter() - t
        record["times"][call.metric] = record["times"].get(call.metric, 0.0) + dt
        results.append((call, code, out.getvalue(), err.getvalue()))
    if tracer:
        tracer.close_root()
    record["wall"] = time.perf_counter() - start
    for call, code, stdout, stderr in results:
        try:
            outcome = wl.check_call(call.check, code, stdout, call.output_file, ref)
        except (ValueError, KeyError, TypeError) as exc:
            outcome = wl.Outcome(ok=False, problems=[f"unreadable output: {exc!r}"])
        if code != 0:
            outcome.problems.append(stderr.strip()[-300:])
        record["checks"].append({"call": call.check, "metric": call.metric, "ok": outcome.ok,
                                 "problems": outcome.problems, "counts": outcome.counts})
        record["ok"] &= outcome.ok
    return record


def timing(values: list[float], speed: float) -> dict:
    """Raw median, the highest whole percentile with >= 10 samples beyond it,
    and the calibrated mean."""
    out = {"n": len(values), "p50": statistics.median(values)}
    q = int(100 * (len(values) - 10) / len(values)) if len(values) >= 20 else 0
    if q > 50:
        out[f"p{q}"] = float(np.percentile(values, q))
    out["mean_calibrated"] = statistics.mean(values) * speed
    return out


def measure(cli, workload, cases, seconds, workdir, refs, cal, tracer=None):
    """Closed loop over the run's cases for ``seconds``.  Untraced, the
    calibration is sampled before each operation; with a tracer every
    operation runs untraced and traced on the same case, alternating order."""
    ops, pairs, laps = [], [], []
    start = time.perf_counter()
    i = 0
    while not laps or time.perf_counter() - start + statistics.median(laps) <= seconds:
        lap = time.perf_counter()
        case = cases[i % len(cases)]
        if tracer is None:
            cal.sample()
            ops.append(run_op(cli, workload, case, workdir, refs))
        else:
            pair = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if not traced:
                    pair[traced] = run_op(cli, workload, case, workdir, refs)
                    continue
                tracer.install(i)
                try:
                    pair[traced] = run_op(cli, workload, case, workdir, refs, tracer)
                finally:
                    tracer.uninstall()
            pair[True]["op_id"] = i
            ops.extend([pair[False], pair[True]])
            pairs.append(pair)
        laps.append(time.perf_counter() - lap)
        i += 1
    return ops, pairs


def probe_known_defects(cli, workload, workdir, refs) -> list[dict]:
    """Run each known-defect case once, untimed, and report whether it still fails."""
    found = []
    for c, what in wl.KNOWN_DEFECTS.get(workload, {}).items():
        case = wl.write_case(workload, c, wl.make_case(workload, c), workdir)
        record = run_op(cli, workload, case, workdir, refs)
        problems = [p for chk in record["checks"] for p in chk["problems"]]
        print(f"# known defect, case {c} ({what}): "
              + ("still fails: " + "; ".join(problems) if problems else "now passes"))
        found.append({"case": c, "defect": what, "ok": record["ok"], "problems": problems})
    return found


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(workload, ops, setup_s, speed) -> tuple[dict, dict]:
    """The bounded metrics and the detailed per-call timings; op_s is the
    calibrated mean (see Calibration)."""
    e2e = {
        "op_s": statistics.mean(o["wall"] for o in ops) * speed,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    detail = {name: timing([o["times"][name] for o in ops], speed)
              for name in wl.METRICS[workload]}
    detail["op_wall_s"] = timing([o["wall"] for o in ops], speed)
    detail["fail_frac"] = sum(not o["ok"] for o in ops) / len(ops)
    return e2e, detail


def layer_metrics(workload, tracer, pairs) -> tuple[dict, list]:
    """Per-layer metrics: medians over traced operations, plus per-op rows
    showing that self times add up to the operation's wall time."""
    per_op, rows = [], []
    for pair in pairs:
        op = pair[True]
        s = tracer.op_summary(op["op_id"])

        def incl(name, s=s):
            return s.get(name, {}).get("incl", 0.0)

        def own(name, s=s):
            return s.get(name, {}).get("self", 0.0)

        def count(name, key="calls", s=s):
            return s.get(name, {}).get(key, 0)

        fits = [(c["metric"], c["counts"]) for c in op["checks"] if "newton" in c["counts"]]
        sizes = [wl.FITS[metric][workload] for metric, _ in fits]
        sample = next((c["counts"] for c in op["checks"] if "proposals" in c["counts"]), {})
        layer_self = {layer: sum(r["self"] for name, r in s.items() if name.startswith(layer + "."))
                      for layer in ("cli", "estimators", "maxdet", "model", "feasibility",
                                    "sampling", "analysis")}
        values = {
            "cli.read_csv_s": incl("cli.read_csv"),
            "cli.write_csv_s": incl("cli.write_csv"),
            "cli.dump_json_s": incl("cli.dump_json"),
            "estimators.fit_sgm_s": incl("estimators.fit_sgm"),
            "estimators.fit_sgm.self_s": own("estimators.fit_sgm"),
            "estimators.fit_mixm_s": incl("estimators.fit_mixm"),
            "estimators.fit_mixm.self_s": own("estimators.fit_mixm"),
            "maxdet.solve_s": incl("maxdet.solve"),
            "maxdet.solve.self_s": own("maxdet.solve"),
            "maxdet.objective_eval_s": incl("maxdet.objective_eval"),
            "maxdet.objective_eval.calls": count("maxdet.objective_eval"),
            "maxdet.kkt_residual_s": incl("maxdet.kkt_residual"),
            "maxdet.kkt_residual.calls": count("maxdet.kkt_residual"),
            "maxdet.newton_iters": sum(c["newton"] for _, c in fits),
            "maxdet.outer_iters": sum(c["outer"] for _, c in fits),
            "maxdet.curvature_gflop": sum(2 * f.nvars**2 * f.blocks * f.size**2 * c["newton"]
                                          for f, (_, c) in zip(sizes, fits)) / 1e9,
            "maxdet.stack_mb": max((8 * f.blocks * f.nvars * f.size**2 for f in sizes),
                                   default=0) / 1e6,
            "model.hessian_basis_batch_s": incl("model.hessian_basis_batch"),
            "model.hessian_basis_batch.points": count("model.hessian_basis_batch", "points"),
            "model.gram_batch_s": incl("model.gram_batch"),
            "model.gram_batch.points": count("model.gram_batch", "points"),
            "model.density_batch_s": incl("model.density_batch"),
            "model.density_batch.points": count("model.density_batch", "points"),
            "feasibility.min_eig_grid_s": incl("feasibility.min_eig_grid"),
            "feasibility.lattice_feasible_s": incl("feasibility.lattice_feasible"),
            "sampling.sample_sgm_s": incl("sampling.sample_sgm"),
            "sampling.proposals": sample.get("proposals", 0),
            "sampling.acceptance_rate": sample.get("acceptance_rate", 0.0),
            "analysis.density_grid_s": incl("analysis.density_grid"),
            "analysis.fisher_numeric_s": incl("analysis.fisher_numeric"),
            "analysis.table1_s": incl("analysis.table1"),
            **{f"{layer}.self_s": v for layer, v in layer_self.items()},
            "trace.overhead_frac": op["wall"] / pair[False]["wall"] - 1.0,
        }
        per_op.append(values)
        self_sum = sum(r["self"] for r in s.values())
        rows.append({"op": op["op_id"], "case": op["case"], "wall": op["wall"],
                     "self_sum": self_sum, "bench_self": own("bench.op"),
                     "layer_self": layer_self, "maxdet_spans": sum(
                         r["calls"] for name, r in s.items() if name.startswith("maxdet."))})
    metrics = {name: float(statistics.median(v[name] for v in per_op))
               for name in LAYER_UNITS if name != "maxdet.converged_frac"}
    converged = [c["counts"]["converged"] for pair in pairs for o in pair.values()
                 for c in o["checks"] if "converged" in c["counts"]]
    metrics["maxdet.converged_frac"] = sum(converged) / len(converged) if converged else 0.0
    return metrics, rows


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "sgm", "cli.py")):
        raise BenchError(f"no sgm sources under {SRC}")
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    workdir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cases, cli, setup = set_up(workload, seed, workdir, refs)
    env = environment(seed)
    print(f"# env {json.dumps(env)}")
    tracer, cal = (Tracer(), None) if trace else (None, Calibration())
    t0 = time.perf_counter()
    ops, pairs = measure(cli, workload, cases, seconds, workdir, refs, cal, tracer)
    defects = probe_known_defects(cli, workload, workdir, refs)
    failed = sum(not o["ok"] for o in ops)
    for o in ops:
        for c in o["checks"]:
            if not c["ok"]:
                print(f"# FAILED case {o['case']} {c['call']}: {'; '.join(c['problems'])}")
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "cases": [c["case"] for c in cases], "ops": ops,
              "known_defects": defects, "setup": setup,
              "calibration": {"samples": cal.samples if cal else []}}
    if trace:
        metrics, rows = layer_metrics(workload, tracer, pairs)
        units = LAYER_UNITS
        result["self_time_rows"] = rows
        tracer.write(os.path.join(workdir, "spans.jsonl"), t0)
        for r in rows:
            print(f"# op {r['op']} case {r['case']}: wall {r['wall']:.4f} s, self times sum "
                  f"{r['self_sum']:.4f} s ({r['self_sum'] / r['wall']:.4%}), "
                  f"maxdet spans {r['maxdet_spans']}, layer self "
                  + " ".join(f"{k}={v:.4f}" for k, v in r["layer_self"].items()))
    else:
        metrics, detail = end_to_end(workload, ops, setup["setup_s"], cal.factor())
        result["calibration"]["speed"] = cal.factor()
        units = E2E_UNITS
        result["detail"] = detail
        for name, value in detail.items():
            unit = "frac" if name == "fail_frac" else "s"
            if isinstance(value, dict):
                print(f"# {name} [{unit}] " + " ".join(f"{k}={_fmt(v)}" for k, v in value.items()))
            else:
                print(f"# {name} [{unit}] {_fmt(value)}")
    for name, value in metrics.items():
        print(f"# {name} [{units[name]}] {_fmt(value)}")
    result["metrics"] = metrics
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(workdir, "sample.csv"))  # 100000 rows; not kept
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900, check=False)
        lines = done.stdout.strip().split("\n")
        print(f"## {workload}")
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            raise BenchError(f"{workload} exited with {done.returncode}: {done.stderr[-500:]}")
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for name, metric in part["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
