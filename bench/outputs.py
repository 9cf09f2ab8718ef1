"""Output identity of a parent checkout and this tree over every benchmark case.

Run from the root of this tree, with a checkout of the parent commit
elsewhere (``git clone`` or ``git archive`` of it):

    python3 bench/outputs.py --parent ../parent

Each side runs in its own subprocess with ``OPENBLAS_NUM_THREADS=1`` and that
checkout's ``src`` first on ``PYTHONPATH``.  It runs every pool case of every
workload (known defects included) through ``sgm.cli.main``, with the argv of
this tree's ``perfbench/workloads.operation``, so both sides get the same
inputs and calls.  It then runs the fixed ``EXTRA`` calls, on routes that no
workload runs, each reading the case-0 input of a pool workload (or no
input), and records them as ``extra/<name>``.  Each call is recorded as its
exit code, its stdout and its output file.  JSON is kept with ``timing_sec`` masked and the work directory
replaced by ``<work>``; TSV (a header line, then rows of tab-separated numbers,
as ``analyze --what grid`` prints) is kept as its header and its rows of
numbers; any other text, and every output file, is kept as its SHA-256.
Every call whose records differ is printed with the key paths that
differ (``code``, ``file`` or ``stdout.<json path>``) and the largest absolute
and relative difference over its numeric values outside ``stdout.solver``; a
fit call also prints max |d theta_raw|, |d objective|, the KKT residual of each
side, and any change of the Newton and outer iteration counts, of
``converged`` or of ``mu_final``.  The last lines give how many pool and extra
fit calls each side reports converged.  The script exits 1 if any call differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads as wl  # noqa: E402

# (name, pool workload whose case-0 input file goes after the command as
# --input, or None, argv): calls on routes that no workload runs
EXTRA = [
    ("fit-tau0", "lit-m5", ["fit", "--tau", "0"]),
    ("fit-gauss", "lit-m5", ["fit", "--model", "gauss", "--tau", "0.5"]),
    ("cv-mixm", "lit-m5", ["cv", "--model", "mixm", "--folds", "3", "--tau-grid", "0.5,1"]),
    ("cv-sgm", "lit-m5", ["cv", "--folds", "3", "--tau-grid", "0.5,1"]),
    ("fit-lattice-m5", "lit-m5", ["fit", "--region", "lattice", "--M", "3"]),
    ("fit-mixm-lattice", "lattice-m3",
     ["fit", "--model", "mixm", "--region", "lattice", "--M", "3", "--no-preprocess"]),
    ("grid-conditioned", "density",
     ["analyze", "--what", "grid", "--axes", "2,0", "--condition", "1=0.4", "--resolution", "21"]),
    ("grid-conditioned-mixm", "density",
     ["analyze", "--what", "grid", "--model", "mixm", "--axes", "0,1", "--condition", "2=0.7",
      "--resolution", "21"]),
    ("marginal", "density", ["analyze", "--what", "marginal", "--axes", "1", "--resolution", "21"]),
    ("sample-mixm", "density",
     ["sample", "--model", "mixm", "--n", "2000", "--seed", "3", "--output", "/dev/null"]),
    ("simulate", None, ["simulate", "--replicates", "2", "--n", "30"]),
]


def _mask(x, work: str):
    if isinstance(x, dict):
        return {k: "<masked>" if k == "timing_sec" else _mask(v, work) for k, v in x.items()}
    if isinstance(x, list):
        return [_mask(v, work) for v in x]
    return x.replace(work, "<work>") if isinstance(x, str) else x


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _stdout_record(text: str, work: str):
    """Masked JSON, {"header", "rows"} of a numeric TSV, or else the SHA-256."""
    try:
        return _mask(json.loads(text), work)
    except ValueError:
        pass
    header, *rows = text.splitlines() or [""]
    try:
        return {"header": header, "rows": [[float(v) for v in r.split("\t")] for r in rows]}
    except ValueError:
        return _sha256(text.encode())


def _run_call(cli, argv, output_file, work: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    record = {"code": code, "stdout": _stdout_record(buf.getvalue(), work)}
    if output_file is not None and os.path.exists(output_file):
        with open(output_file, "rb") as fh:
            record["file"] = _sha256(fh.read())
    return record


def collect(checkout: str) -> dict:
    """{"<workload>/<case> <check>#<i>": record} for every call of every case,
    then {"extra/<name>": record} for every ``EXTRA`` call."""
    from sgm import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(checkout, "src")):
        raise SystemExit(f"imported {cli.__file__}, not the sgm of {checkout}")
    records = {}
    for name in wl.POOL:
        for case in range(wl.POOL[name]):
            with tempfile.TemporaryDirectory() as work:
                inputs = wl.write_case(name, case, wl.make_case(name, case), work)
                for i, call in enumerate(wl.operation(name, inputs, work)):
                    records[f"{name}/{case} {call.check}#{i}"] = _run_call(
                        cli, call.argv, call.output_file, work)
    for name, workload, argv in EXTRA:
        with tempfile.TemporaryDirectory() as work:
            if workload is not None:
                path = wl.write_case(workload, 0, wl.make_case(workload, 0), work)["input"]
                argv = [argv[0], "--input", path, *argv[1:]]
            records[f"extra/{name}"] = _run_call(cli, argv, None, work)
    return records


def diff(a, b, path: str = ""):
    """(key path, a value, b value) wherever two JSON values differ; NaN equals
    NaN, and a key on one side only gives None on the other."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            sub = f"{path}.{k}" if path else k
            yield from diff(a.get(k), b.get(k), sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff(x, y, f"{path}[{i}]")
    elif a != b and not (a != a and b != b):
        yield path, a, b


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def sizes(differences) -> str:
    """The largest absolute and relative difference over numeric value pairs,
    leaving out the solver's report (counters and certificates), which
    ``fit_drift`` states key by key."""
    pairs = [(x, y) for path, x, y in differences
             if _number(x) and _number(y) and not path.startswith("stdout.solver.")]
    if not pairs:
        return "no numeric differences"
    big = max(abs(x - y) for x, y in pairs)
    rel = max(abs(x - y) / max(abs(x), abs(y)) for x, y in pairs)
    return f"max |d| {big:.3g}, max rel {rel:.3g}"


def fit_drift(a: dict, b: dict) -> str:
    """Drift of one fit call: theta_raw, the objective, the KKT residuals, the
    iteration counts, the converged flag and the certified mu."""
    sa, sb = a["solver"], b["solver"]
    dtheta = max((abs(x - y) for x, y in zip(a["theta_raw"], b["theta_raw"])), default=0.0)
    parts = [f"max |d theta_raw| {dtheta:.3g}",
             f"|d objective| {abs(sa['objective'] - sb['objective']):.3g}",
             f"kkt {sa['kkt_residual']:.3g} -> {sb['kkt_residual']:.3g}"]
    for key in ("newton_iterations", "outer_iterations", "converged", "mu_final"):
        if sa[key] != sb[key]:
            parts.append(f"{key} {sa[key]} -> {sb[key]}")
    return ", ".join(parts)


def run_side(checkout: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(checkout, "src"))
    argv = [sys.executable, os.path.abspath(__file__), "--collect", checkout]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: collection exited with {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    # internal: the subprocess of one side, printing its records as JSON
    parser.add_argument("--collect", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        json.dump(collect(os.path.abspath(args.collect)), sys.stdout)
        return 0
    if not args.parent:
        parser.error("--parent is required")

    parent, change = run_side(os.path.abspath(args.parent)), run_side(ROOT)
    keys = sorted(set(parent) | set(change))
    differing = 0
    for key in keys:
        if key in parent and key in change:
            differences = list(diff(parent[key], change[key]))
        else:
            differences = [("<call only on one side>", None, None)]
        if differences:
            differing += 1
            paths = [path for path, _, _ in differences]
            more = f" (+{len(paths) - 8} more)" if len(paths) > 8 else ""
            print(f"{key}: {', '.join(paths[:8])}{more}")
            print(f"    {sizes(differences)}")
            a, b = (side.get(key, {}).get("stdout") for side in (parent, change))
            if all(isinstance(x, dict) and "solver" in x for x in (a, b)):
                print(f"    {fit_drift(a, b)}")
    print(f"{differing} of {len(keys)} calls differ")
    for name, side in (("parent", parent), ("change", change)):
        counts = []
        for kind, extra in (("pool", False), ("extra", True)):
            fits = [r["stdout"]["solver"] for key, r in side.items()
                    if key.startswith("extra/") == extra
                    and isinstance(r["stdout"], dict) and "solver" in r["stdout"]]
            counts.append(f"{sum(f['converged'] is True for f in fits)} of {len(fits)} {kind}")
        print(f"{name}: {', '.join(counts)} fits converged")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
