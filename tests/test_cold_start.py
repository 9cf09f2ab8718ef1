"""Start-up cost: commands that never solve import numpy only.

This test process already holds scipy (other test modules import it), so each
check runs in a fresh interpreter and reports back as JSON on stdout.
"""

import json
import os
import subprocess
import sys

import sgm.cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sgm.__file__)))

PARAMS = {"frequencies": [[1, 2, 0], [0, 1, 1], [1, 1, 1]], "theta": [0.1, 0.3, 0.2]}

PRELUDE = """
import json, os, sys
workdir = sys.argv[1]
P = os.path.join(workdir, "params.json")
D = os.path.join(workdir, "data.csv")
def out(name):
    return os.path.join(workdir, name)
def heavy():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy.") or m.startswith("multiprocessing"))
"""

NO_SOLVE = PRELUDE + """
import sgm, sgm.cli
report = {"after_import": heavy(), "codes": []}
for argv in (
    ["sample", "--input", P, "--n", "1000", "--seed", "1", "--output", D],
    ["feasible", "--input", P, "--M", "3", "--output", out("f.json")],
    ["analyze", "--what", "grid", "--input", P, "--axes", "0,1", "--resolution", "5",
     "--quad-nodes", "8", "--output", out("g.tsv")],
    ["analyze", "--what", "fisher", "--input", P, "--quad-nodes", "8",
     "--output", out("fi.json")],
    ["analyze", "--what", "table1", "--quad-nodes", "8", "--output", out("t.json")],
):
    report["codes"].append(sgm.cli.main(argv))
report["after_run"] = heavy()
print(json.dumps(report))
"""

SOLVE = PRELUDE + """
import sgm.cli
codes = [
    sgm.cli.main(["fit", "--input", D, "--region", "lit", "--output", out("lit.json")]),
    sgm.cli.main(["fit", "--input", D, "--region", "lattice", "--M", "3",
                  "--no-preprocess", "--output", out("lat.json")]),
]
print(json.dumps({"codes": codes, "after_run": heavy()}))
"""


def fresh(code: str, workdir) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code, str(workdir)], env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_commands_that_never_solve_import_numpy_only(tmp_path):
    (tmp_path / "params.json").write_text(json.dumps(PARAMS))
    report = fresh(NO_SOLVE, tmp_path)
    assert report["after_import"] == []
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert report["after_run"] == []


def test_fits_load_the_solver_on_first_use(tmp_path):
    (tmp_path / "params.json").write_text(json.dumps(PARAMS))
    assert sgm.cli.main(["sample", "--input", str(tmp_path / "params.json"), "--n", "60",
                         "--seed", "4", "--output", str(tmp_path / "data.csv")]) == 0
    report = fresh(SOLVE, tmp_path)
    assert report["codes"] == [0, 0]
    # the solver needs scipy's LAPACK wrappers only, not scipy.optimize
    assert "scipy.linalg.lapack" in report["after_run"]
    assert not [m for m in report["after_run"] if m.startswith("scipy.optimize")]
