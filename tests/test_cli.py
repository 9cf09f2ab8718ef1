import json

import numpy as np
import pytest

from sgm.cli import main, read_csv, simulate, write_csv


@pytest.fixture
def params7(tmp_path):
    path = tmp_path / "params7.json"
    path.write_text(
        json.dumps(
            {"frequencies": [[1, 2, 0], [0, 1, 1], [1, 1, 1]], "theta": [0.1, 0.3, 0.2]}
        )
    )
    return str(path)


def run(args, capsys=None):
    rc = main(args)
    if capsys is not None:
        capsys.readouterr()
    return rc


class TestCsv:
    def test_round_trip(self, tmp_path, rng):
        arr = rng.random((7, 3))
        path = str(tmp_path / "t.csv")
        write_csv(path, arr)
        back = read_csv(path)
        np.testing.assert_allclose(back, arr, atol=0)  # 17 digits round-trip exactly

    def test_header_detection(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1.5,2\n3,4\n")
        np.testing.assert_allclose(read_csv(str(path)), [[1.5, 2], [3, 4]])

    def test_blank_cell_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1.0,\n2.0,3.0\n")
        from sgm.errors import DataError

        with pytest.raises(DataError):
            read_csv(str(path))


class TestSampleFitRoundTrip:
    def test_sample_then_fit(self, tmp_path, params7, capsys):
        csv = str(tmp_path / "data.csv")
        out = str(tmp_path / "fit.json")
        assert run(["sample", "--model", "sgm", "--input", params7, "--n", "120",
                    "--seed", "3", "--output", csv], capsys) == 0
        data = read_csv(csv)
        assert data.shape == (120, 3)
        assert (data >= 0).all() and (data <= 1).all()
        assert run(["fit", "--input", csv, "--model", "sgm", "--region", "lit",
                    "--tau", "1.0", "--no-preprocess", "--output", out]) == 0
        result = json.loads(open(out).read())
        assert result["schema"] == 1
        assert result["solver"]["converged"] is True
        assert len(result["theta"]) == 16
        assert result["config"]["region"] == {"kind": "lit", "tau": 1.0}

    def test_freqs_file_option(self, tmp_path, params7, capsys):
        csv = str(tmp_path / "d.csv")
        run(["sample", "--model", "sgm", "--input", params7, "--n", "80",
             "--seed", "2", "--output", csv], capsys)
        freq_file = tmp_path / "freqs.json"
        freq_file.write_text(json.dumps([[1, 2, 0], [0, 1, 1], [1, 1, 1]]))
        out = str(tmp_path / "f.json")
        assert run(["fit", "--input", csv, "--freqs", f"file:{freq_file}",
                    "--tau", "1.0", "--no-preprocess", "--output", out]) == 0
        result = json.loads(open(out).read())
        assert result["frequencies"] == [[1, 2, 0], [0, 1, 1], [1, 1, 1]]

    def test_tau_zero_gives_zero_theta(self, tmp_path, params7, capsys):
        csv = str(tmp_path / "d.csv")
        out = str(tmp_path / "f.json")
        run(["sample", "--model", "sgm", "--input", params7, "--n", "50",
             "--seed", "1", "--output", csv], capsys)
        assert run(["fit", "--input", csv, "--tau", "0.0", "--no-preprocess",
                    "--output", out]) == 0
        result = json.loads(open(out).read())
        assert all(v == 0.0 for v in result["theta"])

    def test_rerun_identical_apart_from_timing(self, tmp_path, params7, capsys):
        csv = str(tmp_path / "d.csv")
        run(["sample", "--model", "sgm", "--input", params7, "--n", "60",
             "--seed", "5", "--output", csv], capsys)
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            assert run(["fit", "--input", csv, "--tau", "0.5", "--no-preprocess",
                        "--output", out]) == 0
            obj = json.loads(open(out).read())
            obj.pop("timing_sec")
            outs.append(json.dumps(obj, sort_keys=True))
        assert outs[0] == outs[1]

    def test_benchmark5_output(self, tmp_path, capsys):
        csv = str(tmp_path / "bench.csv")
        assert run(["sample", "--model", "benchmark5", "--n", "80", "--seed", "2",
                    "--output", csv], capsys) == 0
        data = read_csv(csv)
        assert data.shape == (80, 5)
        assert data.min() < 0  # unbounded reals, not unit-cube data

    def test_sample_deterministic(self, tmp_path, params7, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(["sample", "--model", "mixm", "--input", params7, "--n", "40",
             "--seed", "9", "--output", a], capsys)
        run(["sample", "--model", "mixm", "--input", params7, "--n", "40",
             "--seed", "9", "--output", b], capsys)
        assert open(a).read() == open(b).read()


class TestFitGauss:
    def test_gauss_fit(self, tmp_path, capsys):
        csv = str(tmp_path / "g.csv")
        run(["sample", "--model", "benchmark5", "--n", "60", "--seed", "4",
             "--output", csv], capsys)
        out = str(tmp_path / "fit.json")
        assert run(["fit", "--input", csv, "--model", "gauss", "--tau", "1.0",
                    "--output", out]) == 0
        result = json.loads(open(out).read())
        C = np.array(result["concentration"])
        assert C.shape == (5, 5)
        np.linalg.cholesky(C)
        rho = np.array(result["partial_correlations"])
        assert rho[0, 1] > 0.3  # the correlated pair shows up


class TestCv:
    def test_deterministic_table(self, tmp_path, capsys):
        csv = str(tmp_path / "g.csv")
        run(["sample", "--model", "benchmark5", "--n", "40", "--seed", "6",
             "--output", csv], capsys)
        tables = []
        for name in ("c1.json", "c2.json"):
            out = str(tmp_path / name)
            assert run(["cv", "--input", csv, "--model", "gauss", "--folds", "4",
                        "--tau-grid", "0.25,0.5,1.0", "--seed", "11",
                        "--output", out]) == 0
            obj = json.loads(open(out).read())
            obj.pop("timing_sec")
            tables.append(json.dumps(obj, sort_keys=True))
        assert tables[0] == tables[1]
        obj = json.loads(tables[0])
        assert len(obj["rows"]) == 3
        assert sum(r["best"] for r in obj["rows"]) == 1

    def test_no_preprocess_on_unit_data(self, tmp_path, params7, capsys):
        csv = str(tmp_path / "unit.csv")
        run(["sample", "--model", "sgm", "--input", params7, "--n", "60",
             "--seed", "13", "--output", csv], capsys)
        out = str(tmp_path / "cv.json")
        assert run(["cv", "--input", csv, "--model", "sgm", "--folds", "3",
                    "--tau-grid", "0.0,0.5", "--no-preprocess", "--seed", "1",
                    "--output", out]) == 0
        obj = json.loads(open(out).read())
        assert obj["config"]["preprocess"] == "none"
        assert obj["rows"][0]["cv_loglik"] == 0.0  # tau = 0 is the null model

    def test_jobs_matches_serial(self, tmp_path, capsys):
        csv = str(tmp_path / "g.csv")
        run(["sample", "--model", "benchmark5", "--n", "30", "--seed", "8",
             "--output", csv], capsys)
        outs = []
        for name, jobs in (("s.json", "1"), ("p.json", "2")):
            out = str(tmp_path / name)
            assert run(["cv", "--input", csv, "--model", "gauss", "--folds", "3",
                        "--tau-grid", "0.5,1.0", "--seed", "1", "--jobs", jobs,
                        "--output", out]) == 0
            obj = json.loads(open(out).read())
            outs.append([(r["tau"], r["cv_loglik"]) for r in obj["rows"]])
        assert outs[0] == outs[1]


class TestFeasible:
    def test_zero_theta(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"frequencies": [[1, 1]], "theta": [0.0]}))
        out = str(tmp_path / "f.json")
        assert run(["feasible", "--input", str(path), "--M", "3", "--output", out]) == 0
        obj = json.loads(open(out).read())
        assert obj["lit_margin"] == pytest.approx(1.0)
        assert obj["min_eig_grid"] == pytest.approx(1.0)
        assert obj["lattice"]["feasible"] is True

    def test_example7_margin(self, tmp_path, params7):
        out = str(tmp_path / "f.json")
        assert run(["feasible", "--input", params7, "--output", out]) == 0
        obj = json.loads(open(out).read())
        assert obj["lit_margin"] == pytest.approx(0.1)

    def test_infeasible_flagged(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps({"frequencies": [[1, 1], [2, 2]], "theta": [0.0, 0.3]})
        )
        out = str(tmp_path / "f.json")
        assert run(["feasible", "--input", str(path), "--output", out]) == 0
        obj = json.loads(open(out).read())
        assert obj["min_eig_grid"] < 0


class TestAnalyze:
    def test_correlation_value(self, tmp_path):
        out = str(tmp_path / "c.json")
        assert run(["analyze", "--what", "correlation", "--theta", "0.5",
                    "--quad-nodes", "32", "--output", out]) == 0
        obj = json.loads(open(out).read())
        assert obj["correlation"] == pytest.approx(0.458, abs=1e-3)

    def test_zero_rows_are_zero(self, tmp_path):
        for what in ("correlation", "beta122", "beta123"):
            out = str(tmp_path / f"{what}.json")
            assert run(["analyze", "--what", what, "--theta", "0", "--quad-nodes",
                        "16", "--output", out]) == 0
            assert json.loads(open(out).read())[what] == pytest.approx(0.0, abs=1e-12)

    def test_grid_export_loads(self, tmp_path, params7):
        out = str(tmp_path / "grid.tsv")
        assert run(["analyze", "--what", "grid", "--input", params7, "--axes", "0,2",
                    "--condition", "1=0.75", "--resolution", "13", "--quad-nodes", "16",
                    "--output", out]) == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0].split("\t") == ["x_1", "x_3", "density"]
        table = np.array([[float(c) for c in ln.split("\t")] for ln in lines[1:]])
        assert table.shape == (13 * 13, 3)
        assert (table[:, 2] >= 0).all()

    def test_fisher_matrix(self, tmp_path, params7):
        out = str(tmp_path / "J.json")
        assert run(["analyze", "--what", "fisher", "--input", params7,
                    "--quad-nodes", "24", "--output", out]) == 0
        J = np.array(json.loads(open(out).read())["fisher"])
        assert J.shape == (3, 3)
        assert np.linalg.eigvalsh(J).min() > 0


class TestSimulate:
    def test_small_run_deterministic(self, tmp_path):
        outs = []
        for name in ("s1.json", "s2.json"):
            out = str(tmp_path / name)
            assert run(["simulate", "--replicates", "2", "--n", "25", "--n-test", "5",
                        "--seed", "3", "--output", out]) == 0
            obj = json.loads(open(out).read())
            obj.pop("timing_sec")
            outs.append(json.dumps(obj, sort_keys=True))
        assert outs[0] == outs[1]
        obj = json.loads(outs[0])
        assert obj["replicates"] == 2
        assert obj["failures"] == []
        assert len(obj["sgm"]["mean_scaled"]) == 50

    def test_jobs_matches_serial(self):
        kwargs = dict(replicates=3, n=25, n_test=5)
        assert simulate(**kwargs, jobs=2) == simulate(**kwargs, jobs=1)


class TestExitCodes:
    def test_usage_error(self, tmp_path, capsys):
        csv = str(tmp_path / "d.csv")
        write_csv(csv, np.random.default_rng(0).random((10, 2)))
        assert run(["fit", "--input", csv, "--region", "lattice",
                    "--output", str(tmp_path / "x.json")], capsys) == 2

    def test_empty_tau_grid_exits_2(self, tmp_path, capsys):
        csv = str(tmp_path / "d.csv")
        write_csv(csv, np.random.default_rng(0).random((5, 2)))
        assert run(["cv", "--input", csv, "--model", "gauss", "--folds", "2",
                    "--tau-grid", ",", "--output", str(tmp_path / "x.json")], capsys) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["fit", "--nonsense"], capsys) == 2

    def test_data_error(self, tmp_path, capsys):
        assert run(["fit", "--input", str(tmp_path / "missing.csv"),
                    "--output", str(tmp_path / "x.json")], capsys) == 3

    def test_numerical_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"frequencies": [[1, 1]], "theta": [1.7]}))
        assert run(["sample", "--model", "sgm", "--input", str(path), "--n", "10",
                    "--seed", "0", "--output", str(tmp_path / "x.csv")], capsys) == 4
