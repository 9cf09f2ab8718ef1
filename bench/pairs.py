"""Paired benchmark runs of a parent checkout against this tree.

Run from the root of this tree, with a checkout of the parent commit
elsewhere (``git clone`` or ``git archive`` of it):

    python3 bench/pairs.py --parent ../parent --parent-rev <commit> --label <label> \\
        --workload density --pairs 10 --seed 1301

Pair i runs ``perfbench/run.py --workload W --seed SEED+i`` for the
``run_seconds`` of ``BENCHMARK.json`` once in each checkout, one after the
other; even pairs run the parent first and odd pairs this tree first, so
drift of the machine's speed over a session falls on both sides alike.  Each run writes its ``result.json`` under its own checkout's
``.bench_out/``; this script reads them back and adds one set to
``bench/BENCH_<label>.json``: a summary (per metric, the quartiles of each side
and in how many pairs this tree was lower; the same for the raw median operation
wall time and the calibration speed factor of untraced runs; failed over
attempted operations; the source digest of each side)
and every run's full result file.  Every run of a side must have run the same
``src/sgm`` sources, by the ``env.src_sha256`` digest of its result: a digest
that differs from the side's first run stops the set before anything is
written, so an edit made while a set runs cannot mix two versions in one
summary.  Sets already in the file are kept, so one
file collects the sets of several invocations; a set of the same workload and
trace as one already in the file is refused before any run starts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited with {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    path = os.path.join(checkout, ".bench_out", f"{workload}-seed{seed}-trace{trace}",
                        "result.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_source(digests: dict, pair: int, side: str, result: dict) -> None:
    """Record a side's source digest at its first run in ``digests``; refuse a
    later run of that side whose digest differs."""
    digest = result["env"]["src_sha256"]
    first = digests.setdefault(side, digest)
    if digest != first:
        raise SystemExit(f"pair {pair} {side}: src/sgm digest {digest} differs from "
                         f"{first} of the side's first run; the sources changed during the set")


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def readings(result: dict) -> dict:
    """The metrics of one run and, if it ran untraced, two uncalibrated readings:
    the raw median operation wall time and the calibration speed factor that
    scales wall times into op_s, so a move of op_s can be told from a move of
    the factor."""
    out = dict(result["metrics"])
    if not result["trace"]:
        out["detail.op_wall_s.p50"] = result["detail"]["op_wall_s"]["p50"]
        out["calibration.speed"] = result["calibration"]["speed"]
    return out


def summarize(runs: list[dict]) -> dict:
    """Quartiles per side and lower-in-pairs count for every reading, then the
    failed/attempted operation counts of each side."""
    sides = [(readings(r["parent"]), readings(r["change"])) for r in runs]
    summary = {}
    for name in sides[0][0]:
        pairs = [(parent[name], change[name]) for parent, change in sides]
        summary[name] = {
            "parent": quartiles([p for p, _ in pairs]),
            "change": quartiles([c for _, c in pairs]),
            "change_lower_pairs": f"{sum(c < p for p, c in pairs)}/{len(pairs)}",
        }
    summary["failed_ops"] = {
        side: f"{sum(not o['ok'] for r in runs for o in r[side]['ops'])}/"
              f"{sum(len(r[side]['ops']) for r in runs)}"
        for side in ("parent", "change")
    }
    return summary


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--parent-rev", required=True, help="the parent commit, as recorded")
    parser.add_argument("--label", required=True, help="writes bench/BENCH_<label>.json")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i adds i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    parent = os.path.abspath(args.parent)
    if not os.path.isfile(os.path.join(parent, "perfbench", "run.py")):
        parser.error(f"{parent} has no perfbench/run.py")
    name = args.workload + ("-traced" if args.trace else "")
    seconds = bench["run_seconds"]
    out = os.path.join(ROOT, "bench", f"BENCH_{args.label}.json")
    doc = {"command": f"python3 perfbench/run.py --workload W --seed S --seconds "
                      f"{seconds} --trace T, run from a checkout of the parent commit "
                      "and of this change; each pair alternates which side runs first "
                      "(even index: parent first)",
           "parent": args.parent_rev, "sets": {}}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["parent"] != args.parent_rev:
            raise SystemExit(f"{out} holds runs against {doc['parent']}, not {args.parent_rev}")
        if name in doc["sets"]:
            raise SystemExit(f"{out} already holds the set {name!r}; use another --label")

    runs, digests = [], {}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = parent if side == "parent" else ROOT
            run[side] = run_once(checkout, args.workload, seed, seconds, args.trace)
            check_source(digests, i, side, run[side])
            print(f"pair {i} {side}: {run[side]['metrics']}", flush=True)
        runs.append(run)

    summary = summarize(runs) | {"src_sha256": digests}
    doc["sets"][name] = {"workload": args.workload, "trace": args.trace,
                         "summary": summary, "runs": runs}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    print(json.dumps({name: doc["sets"][name]["summary"]}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
