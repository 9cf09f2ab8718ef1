"""Write references.json: the outputs of every pool case, from the sgm
sources of this checkout.

    python3 perfbench/make_references.py

The stored file was produced by the code the benchmark was introduced on.
Regenerating it from a later commit makes the checks compare that commit
against itself, so do it only when the benchmark's inputs change.  The
script runs every operation through the CLI exactly as the benchmark does,
keeps what the checks need, and then applies the checks to the same outputs.
"""

import contextlib
import io
import json
import os
import sys

import run  # pins the BLAS threads before NumPy loads

import workloads as wl

import numpy as np  # noqa: E402  (after the pinning in run)


def _call(cli, call) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(call.argv)
    return code, out.getvalue()


def main() -> int:
    cli = run._import_sgm()
    from sgm import analysis, model

    for m in (3, 5):
        assert np.array_equal(wl.standard_freqs(m), model.standard_freq_set(m).freqs)
    workdir = os.path.join(run.OUT, "references")
    os.makedirs(workdir, exist_ok=True)
    env = run.environment(seed=-1)
    refs = {"generated_with": {k: env[k] for k in ("commit", "src_sha256", "numpy", "threads")},
            "pool": wl.POOL}
    outputs = []
    for workload in run.WORKLOADS:
        refs[workload] = {}
        for c in range(wl.POOL[workload]):
            case = wl.write_case(workload, c, wl.make_case(workload, c), workdir)
            entry = {"input_sha256": run._file_sha256(case["input"])}
            for call in wl.operation(workload, case, workdir):
                code, stdout = _call(cli, call)
                if code != 0:
                    raise SystemExit(f"{workload} case {c} {call.check}: exit code {code}")
                outputs.append((workload, case, call, stdout))
                if call.check.startswith("fit"):
                    body = json.loads(stdout)
                    entry[call.check] = {"objective": body["solver"]["objective"],
                                         "theta": body["theta"]}
                elif call.check == "sample":
                    fs, theta = model.FrequencySet.from_vectors(case["freqs"]), case["theta"]
                    entry["means"] = [
                        analysis.integrate(
                            lambda X, j=j: X[:, j] * model.density_batch(fs, theta, X), 3)
                        for j in range(3)]
                    outcome = wl.check_call("sample", 0, stdout, call.output_file, entry)
                    if not outcome.ok:  # the output file holds this case's sample only now
                        print(f"{workload} case {c} sample: {outcome.problems}")
                elif call.check == "feasible":
                    body = json.loads(stdout)
                    entry.update(lit_margin=body["lit_margin"], min_eig_grid=body["min_eig_grid"],
                                 lattice_margin=body["lattice"]["margin"],
                                 lattice_feasible=body["lattice"]["feasible"])
                elif call.check == "grid":
                    entry["grid"] = wl.grid_digest(wl.parse_grid(stdout))
                elif call.check == "fisher":
                    entry["fisher"] = json.loads(stdout)["fisher"]
                elif call.check == "table1":
                    refs["table1"] = json.loads(stdout)["table1"]
            refs[workload][str(c)] = entry
            print(f"{workload} case {c} done", flush=True)

    bad = 0
    for workload, case, call, stdout in outputs:
        if call.check == "sample":  # checked above, while its output file existed
            continue
        ref = {**refs[workload][str(case["case"])], "table1": refs["table1"]}
        outcome = wl.check_call(call.check, 0, stdout, call.output_file, ref)
        if not outcome.ok:
            bad += case["case"] not in wl.KNOWN_DEFECTS.get(workload, {})
            print(f"{workload} case {case['case']} {call.check}: {outcome.problems}")
    with open(os.path.join(run.HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, separators=(",", ":"))
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
