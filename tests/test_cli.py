import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgm import analysis, cli, estimators
from sgm.cli import _format_rows, main, read_csv, write_csv
from sgm.estimators import simulate
from sgm.errors import NumericalError


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

    @pytest.mark.parametrize("shape", [(7, 1), (1, 7)])
    @pytest.mark.parametrize("rows_per_write", [2, 65536])  # many blocks; one block
    def test_matches_per_value_formatting(self, tmp_path, monkeypatch, shape, rows_per_write):
        monkeypatch.setattr(cli, "_CSV_ROWS", rows_per_write)
        arr = np.array([-0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1.0, 1e300]).reshape(shape)
        path = tmp_path / "v.csv"
        write_csv(str(path), arr)
        expect = ",".join(f"x{i + 1}" for i in range(shape[1])) + "\n"
        expect += "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in arr)
        assert path.read_bytes() == expect.encode()
        back = read_csv(str(path))
        assert back.shape == shape and back.tobytes() == arr.tobytes()

    def test_empty_array_writes_the_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(str(path), np.empty((0, 3)))
        assert path.read_bytes() == b"x1,x2,x3\n"

    def test_one_dimensional_array_is_one_row(self, tmp_path):
        path = tmp_path / "r.csv"
        write_csv(str(path), np.array([0.5, 1.0, 2.25]))
        assert path.read_bytes() == b"x1,x2,x3\n0.5,1,2.25\n"

    def test_int_array_writes_plain_integers(self, tmp_path):
        path = tmp_path / "i.csv"
        write_csv(str(path), np.array([[1, -2], [30, 0]]))
        assert path.read_bytes() == b"x1,x2\n1,-2\n30,0\n"

    @pytest.mark.parametrize("rows_per_write", [1, 2])
    def test_blocks_join_to_one_block(self, tmp_path, monkeypatch, rng, rows_per_write):
        arr = rng.random((5, 3))
        one = tmp_path / "one.csv"
        write_csv(str(one), arr)
        monkeypatch.setattr(cli, "_CSV_ROWS", rows_per_write)
        blocks = tmp_path / "blocks.csv"
        write_csv(str(blocks), arr)
        assert blocks.read_bytes() == one.read_bytes()

    def test_read_csv_round_trips_every_row_bit_for_bit(self, tmp_path, rng):
        arr = np.concatenate([rng.random((40, 3)), rng.normal(size=(40, 3)),
                              10 ** rng.uniform(-8, 18, (40, 3)) * rng.choice([-1, 1], (40, 3)),
                              [[-0.0, 5e-324, 1e-300], [1e300, 1e-4, 10.0]]])
        path = str(tmp_path / "b.csv")
        write_csv(path, arr)
        back = read_csv(path)
        assert back.shape == arr.shape
        assert [r.tobytes() for r in back] == [r.tobytes() for r in arr]

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

    def test_headerless_rows_read_once(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1.5,2\n3,4\n")
        np.testing.assert_array_equal(read_csv(str(path)), [[1.5, 2], [3, 4]])

    def test_header_only_rejected(self, tmp_path):
        from sgm.errors import DataError

        path = tmp_path / "h.csv"
        path.write_text("x1,x2\n")
        with pytest.raises(DataError, match="no data rows"):
            read_csv(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        from sgm.errors import DataError

        path = tmp_path / "f.csv"
        path.write_text(f"x1,x2\n0.1,0.2\n\n0.3,{cell}\n")  # blank lines keep their number
        with pytest.raises(DataError, match=re.escape(f"{path}:4: non-finite")):
            read_csv(str(path))


def per_value_rows(arr, sep):
    """The reference text: each value through '%.17g' on its own."""
    return "".join(sep.join("%.17g" % v for v in row) + "\n" for row in arr.tolist()).encode()


def half_way_ties(rng, e, size):
    """k / 2^(17 - e), k odd, in [10^e, 10^(e+1)): exactly half-way between two
    17-digit decimals of exponent e."""
    s = 17 - e
    lo, hi = int(np.ceil(2.0**s * 10.0**e)), int(2.0**s * 10.0 ** (e + 1))
    return (2 * rng.integers(lo // 2, hi // 2, size) + 1) / 2.0**s


def nextafter_steps(x, steps):
    """x and its ``steps`` nearest doubles on either side."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


def dyadic_ties(rng, shape):
    """k / 2^s below 16 with k odd and s = 10..40; '%.17g' has exact half-way ties
    among them (s = 17..21 for 1e-4 <= x < 10)."""
    s = rng.integers(10, 41, shape)
    return (2 * rng.integers(0, 2 ** (s + 3)) + 1) / 2.0**s


# 10^e and its neighbours, e = -5..18; 10^-4 and 10 are the edges of the fast path
POWER_NEIGHBOURS = np.array([y for e in range(-5, 19) for y in nextafter_steps(float(f"1e{e}"), 3)])
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
                     np.inf, -np.inf, np.nan, -2.2250738585072014e-308])
FAMILIES = {
    "uniform": lambda rng, shape: rng.random(shape),
    "normal": lambda rng, shape: rng.normal(size=shape),
    "log-uniform": lambda rng, shape: 10 ** rng.uniform(-8, 18, shape) * rng.choice([-1, 1], shape),
    "ties": dyadic_ties,
    "powers of ten": lambda rng, shape: rng.choice(POWER_NEIGHBOURS, shape) * rng.choice([-1, 1], shape),
    "specials": lambda rng, shape: np.where(rng.random(shape) < 0.5, rng.choice(SPECIALS, shape),
                                            rng.random(shape)),
}


class TestFormatRows:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FAMILIES)), st.integers(1, 60), st.integers(1, 7),
           st.sampled_from([",", "\t"]), st.integers(0, 2**32 - 1))
    def test_equals_per_value_formatting(self, family, rows, cols, sep, seed):
        arr = FAMILIES[family](np.random.default_rng(seed), (rows, cols))
        assert _format_rows(arr, sep) == per_value_rows(arr, sep)

    @pytest.mark.parametrize("e", range(-4, 1))
    def test_half_way_ties_round_to_even(self, e):
        x = half_way_ties(np.random.default_rng(e + 10), e, 4000)
        twice = [Fraction(v) * 10 ** (16 - e) * 2 for v in x.tolist()]
        assert all(t.denominator == 1 and t.numerator % 2 for t in twice)  # every one a tie
        last = np.array([int(t) // 2 % 2 for t in twice])  # parity of the digits below the tie
        assert 0 < last.sum() < len(x)  # both directions of rounding are taken
        arr = x.reshape(-1, 4)
        assert _format_rows(arr, ",") == per_value_rows(arr, ",")

    def test_powers_of_ten_and_their_neighbours(self):
        arr = np.concatenate([POWER_NEIGHBOURS, -POWER_NEIGHBOURS]).reshape(-1, 2)
        assert _format_rows(arr, "\t") == per_value_rows(arr, "\t")

    def test_special_values(self):
        assert _format_rows(SPECIALS.reshape(2, -1), ",") == per_value_rows(SPECIALS.reshape(2, -1), ",")
        assert _format_rows(np.array([[3.0, 0.5, -1e-4]]), ",") == b"3,0.5,-0.0001\n"
        ties = np.array([[1.00000762939453125, 1.00002288818359375]])  # down, then up, to even
        assert _format_rows(ties, ",") == b"1.0000076293945312,1.0000228881835938\n"
        assert _format_rows(np.empty((0, 3)), ",") == b""


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


class TestFitRegionFlags:
    @pytest.fixture
    def csv(self, tmp_path, rng):
        path = tmp_path / "d.csv"
        write_csv(str(path), 0.05 + 0.9 * rng.random((30, 2)))
        return str(path)

    @pytest.mark.parametrize("flags", [
        ["--region", "lattice", "--M", "3", "--tau", "0.2"],
        ["--region", "lattice", "--M", "3", "--tau", "1.0"],
        ["--M", "3"],
        ["--region", "lit", "--tau", "0.5", "--M", "3"],
    ])
    def test_flag_the_route_does_not_read_exits_2(self, tmp_path, csv, flags, capsys):
        out = tmp_path / "f.json"
        assert run(["fit", "--input", csv, "--no-preprocess", *flags, "--output", str(out)],
                   capsys) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--M", "3"],
        ["--region", "lattice", "--M", "3"],
        ["--region", "lit"],
        ["--freqs", "standard"],
        ["--freqs", "file:MISSING"],
    ])
    def test_gauss_route_rejects_model_flags(self, tmp_path, csv, flags, capsys):
        out = tmp_path / "f.json"
        argv = ["fit", "--input", csv, "--model", "gauss", "--output", str(out)]
        assert run(argv, capsys) == 0
        out.unlink()
        flags = [f"file:{tmp_path / 'missing.json'}" if f == "file:MISSING" else f
                 for f in flags]
        assert main(argv + flags) == 2
        assert "does not apply to --model gauss" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["sgm", "mixm"])
    def test_omitted_region_and_freqs_are_recorded_as_defaults(self, tmp_path, csv, model,
                                                               capsys):
        out = tmp_path / "f.json"
        assert run(["fit", "--input", csv, "--model", model, "--no-preprocess",
                    "--output", str(out)], capsys) == 0
        config = json.loads(out.read_text())["config"]
        assert config["freqs"] == "standard"
        assert config["region"] == {"kind": "lit", "tau": 1.0}

    def test_lattice_fit_records_its_region(self, tmp_path, csv, capsys):
        out = tmp_path / "f.json"
        assert run(["fit", "--input", csv, "--region", "lattice", "--M", "3",
                    "--no-preprocess", "--output", str(out)], capsys) == 0
        obj = json.loads(out.read_text())
        assert obj["solver"]["converged"] is True
        assert obj["config"]["region"] == {"kind": "lattice", "M": 3}

    @pytest.mark.parametrize("model", ["sgm", "gauss"])
    def test_tau_defaults_to_one(self, tmp_path, csv, model, capsys):
        outs = []
        for tau in ([], ["--tau", "1.0"]):
            out = tmp_path / "f.json"
            assert run(["fit", "--input", csv, "--model", model, "--no-preprocess", *tau,
                        "--output", str(out)], capsys) == 0
            obj = json.loads(out.read_text())
            obj.pop("timing_sec")
            outs.append(obj)
        assert outs[0] == outs[1]
        config = outs[0]["config"]
        assert (config["region"]["tau"] if model == "sgm" else config["tau"]) == 1.0


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

    def test_cmi_value(self, capsys):
        assert main(["analyze", "--what", "cmi", "--theta", "0.2", "--phi", "0.1",
                     "--quad-nodes", "8"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["cmi"] == analysis.cond_mutual_info(0.2, 0.1, "sgm", 8)
        assert obj["config"] == {"what": "cmi", "model": "sgm", "quad_nodes": 8,
                                 "theta": 0.2, "phi": 0.1}

    @pytest.mark.parametrize("theta,message", [
        (["--theta", "0.2"], "--what cmi requires --phi"),
        ([], "--what cmi requires --theta"),
        (["--theta", "0.2,0.1", "--phi", "0.1"], "--theta must have 1 value(s)"),
    ])
    def test_cmi_without_phi_or_one_theta_exits_2(self, theta, message, capsys):
        assert main(["analyze", "--what", "cmi", *theta, "--quad-nodes", "8"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_table1_value(self, capsys):
        assert main(["analyze", "--what", "table1", "--quad-nodes", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["table1"] == analysis.table1(8)

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

    def test_no_completed_replicate_raises(self):
        # n = 1 fails every replicate's preprocessing
        with pytest.raises(NumericalError, match="no replicate completed: replicate 0"):
            simulate(replicates=2, n=1, n_test=5)

    def test_jobs_matches_serial(self):
        kwargs = dict(replicates=3, n=25, n_test=5)
        assert simulate(**kwargs, jobs=2) == simulate(**kwargs, jobs=1)


class TestPoolSize:
    """The pool gets one process per work item at most; no process starts here."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize("jobs,items,expect", [(3, 5, [3]), (1, 5, [])])
    def test_map(self, pool_sizes, jobs, items, expect):
        assert estimators._map(abs, list(range(-items, 0)), jobs) == list(range(items, 0, -1))
        assert pool_sizes == expect

    @pytest.mark.parametrize("grid,expect", [("0.5", []), ("0.5,1.0", [2])])
    def test_cv(self, tmp_path, pool_sizes, grid, expect, capsys):
        csv = str(tmp_path / "g.csv")
        run(["sample", "--model", "benchmark5", "--n", "30", "--seed", "8",
             "--output", csv], capsys)
        assert run(["cv", "--input", csv, "--model", "gauss", "--folds", "3",
                    "--tau-grid", grid, "--jobs", "16",
                    "--output", str(tmp_path / "cv.json")]) == 0
        assert pool_sizes == expect

    def test_simulate(self, tmp_path, pool_sizes):
        assert run(["simulate", "--replicates", "2", "--n", "25", "--n-test", "5",
                    "--jobs", "16", "--output", str(tmp_path / "s.json")]) == 0
        assert pool_sizes == [2]


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

    @pytest.mark.parametrize("argv", [
        ["cv", "--input", "missing.csv", "--no-preprocess", "--global-preprocess"],
        ["fit", "--input", "missing.csv", "--freqs", "bogus"],
        ["analyze", "--what", "grid", "--input", "missing.json", "--condition", "2:0.5"],
        ["analyze", "--what", "grid", "--input", "missing.json", "--axes", "a,b"],
        ["analyze", "--what", "marginal", "--input", "missing.json", "--axes", "x"],
    ])
    def test_usage_error_is_raised_before_the_input_is_read(self, tmp_path, argv, capsys):
        out = tmp_path / "out"
        argv = [str(tmp_path / a) if a.startswith("missing.") else a for a in argv]
        assert main(argv + ["--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_condition_outside_unit_interval_exits_4(self, tmp_path, params7, capsys):
        assert run(["analyze", "--what", "grid", "--input", params7, "--axes", "0,1",
                    "--condition", "2=1.7", "--resolution", "5", "--quad-nodes", "8",
                    "--output", str(tmp_path / "g.tsv")], capsys) == 4

    def test_nan_condition_exits_4(self, tmp_path, params7, capsys):
        assert run(["analyze", "--what", "grid", "--input", params7, "--axes", "0,1",
                    "--condition", "2=nan", "--resolution", "5", "--quad-nodes", "8",
                    "--output", str(tmp_path / "g.tsv")], capsys) == 4

    @pytest.mark.parametrize("what", ["marginal", "fisher"])
    def test_condition_outside_grid_exits_2(self, tmp_path, params7, what, capsys):
        out = tmp_path / "m.tsv"
        argv = ["analyze", "--what", what, "--input", params7, "--axes", "0",
                "--resolution", "5", "--quad-nodes", "8", "--output", str(out)]
        assert run(argv, capsys) == 0
        out.unlink()
        assert run(argv + ["--condition", "1=0.5"], capsys) == 2
        assert not out.exists()

    def test_repeated_condition_axis_exits_2(self, tmp_path, params7, capsys):
        out = tmp_path / "g.tsv"
        argv = ["analyze", "--what", "grid", "--input", params7, "--axes", "0,1",
                "--resolution", "5", "--quad-nodes", "8", "--output", str(out)]
        assert run(argv + ["--condition", "2=0.5"], capsys) == 0
        out.unlink()
        assert main(argv + ["--condition", "2=0.5,2=0.7"]) == 2
        assert "axis 2 twice" in capsys.readouterr().err
        assert not out.exists()

    def test_json_input_exits_3(self, tmp_path, params7, capsys):
        assert run(["fit", "--input", params7, "--output", str(tmp_path / "x.json")],
                   capsys) == 3

    @pytest.mark.parametrize("model", ["sgm", "gauss"])
    def test_non_finite_input_exits_3(self, tmp_path, model, capsys):
        csv = tmp_path / "d.csv"
        write_csv(str(csv), np.random.default_rng(0).random((10, 2)))
        csv.write_text(csv.read_text() + "0.5,nan\n")
        assert run(["fit", "--input", str(csv), "--model", model,
                    "--output", str(tmp_path / "x.json")], capsys) == 3

    @pytest.mark.parametrize("what,axes", [("marginal", "0.7"), ("grid", "0,1.5")])
    def test_fractional_axes_exit_2(self, tmp_path, params7, what, axes, capsys):
        assert run(["analyze", "--what", what, "--input", params7, "--axes", axes,
                    "--resolution", "5", "--quad-nodes", "8",
                    "--output", str(tmp_path / "g.tsv")], capsys) == 2

    def test_marginal_tsv_is_per_value_formatting(self, params7, capsys):
        assert run(["analyze", "--what", "marginal", "--input", params7, "--axes", "1",
                    "--resolution", "7", "--quad-nodes", "8"]) == 0
        freqs, theta = cli.load_params(params7)
        grid = np.linspace(0.0, 1.0, 7)
        vals = analysis.marginal_density(freqs, theta, [1], grid[:, None], nodes=8)
        lines = ["x_2\tdensity"] + [f"{x:.17g}\t{v:.17g}" for x, v in zip(grid, vals)]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("resolution", ["-1", "0", "1"])
    def test_marginal_resolution_below_2_exits_2(self, tmp_path, params7, resolution, capsys):
        out = tmp_path / "m.tsv"
        assert run(["analyze", "--what", "marginal", "--input", params7,
                    "--resolution", resolution, "--quad-nodes", "8", "--output", str(out)],
                   capsys) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--input", "P", "--n", "0"],
        ["fit", "--input", "P", "--region", "lattice", "--M", "0"],
        ["feasible", "--input", "P", "--M", "0"],
        ["feasible", "--input", "P", "--resolution", "0"],
        ["analyze", "--what", "grid", "--input", "P", "--axes", "0,0"],
        ["analyze", "--what", "fisher", "--input", "P", "--quad-nodes", "0"],
        ["cv", "--input", "P", "--folds", "1"],
        ["cv", "--input", "P", "--jobs", "0"],
        ["cv", "--input", "P", "--jobs", "-3"],
        ["simulate", "--replicates", "0"],
        ["simulate", "--jobs", "0"],
        ["simulate", "--jobs", "-3"],
        ["simulate", "--n", "1"],
        ["simulate", "--n-test", "0"],
        # tau outside [0, 1], or nan
        ["fit", "--input", "P", "--tau", "1.5"],
        ["fit", "--input", "P", "--model", "gauss", "--tau", "nan"],
        ["feasible", "--input", "P", "--tau", "-0.5"],
        ["feasible", "--input", "P", "--tau", "nan"],
        ["simulate", "--tau", "1.5"],
        ["simulate", "--tau-gauss-predict", "-0.1"],
        ["simulate", "--tau-gauss-predict", "nan"],
        ["cv", "--input", "P", "--tau-grid", "0.5,1.5"],
        ["cv", "--input", "P", "--tau-grid", "nan"],
        ["cv", "--input", "P", "--tau-grid", "0.5,x"],
        # flags that no runner reads
        ["fit", "--input", "P", "--seed", "1"],
        ["feasible", "--input", "P", "--model", "sgm"],
        ["feasible", "--input", "P", "--seed", "1"],
        ["analyze", "--what", "table1", "--seed", "1"],
        ["simulate", "--input", "P"],
        ["simulate", "--model", "sgm"],
        # options missing, clashing or malformed; C is a data CSV
        ["cv", "--input", "C", "--no-preprocess", "--global-preprocess"],
        ["sample", "--model", "sgm", "--n", "5"],
        ["feasible"],
        ["analyze", "--what", "fisher"],
        ["analyze", "--what", "grid", "--input", "P", "--axes", "0,1", "--condition", "2:0.5"],
        ["fit", "--input", "C", "--freqs", "bogus"],
        ["sample", "--model", "benchmark5", "--n", "abc"],
    ])
    def test_out_of_range_or_removed_flag_exits_2(self, tmp_path, params7, argv, capsys):
        out = tmp_path / "out"
        csv = str(tmp_path / "d.csv")
        write_csv(csv, np.random.default_rng(0).random((10, 2)))
        argv = [{"P": params7, "C": csv}.get(a, a) for a in argv] + ["--output", str(out)]
        assert run(argv, capsys) == 2
        assert not out.exists()

    def test_sample_without_output_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sample", "--model", "benchmark5", "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert "sample requires --output" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--what", "grid", "--axes", "0,5"],
        ["--what", "grid", "--axes=-1,0"],
        ["--what", "marginal", "--axes", "7"],
        ["--what", "marginal", "--axes", "-1"],
        ["--what", "grid", "--axes", "0,1", "--condition", "5=0.5"],
        ["--what", "grid", "--axes", "0,1", "--condition", "1=0.5"],
        ["--what", "grid", "--axes", "0,1", "--condition", "2=0.5,0=0.5"],
    ])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_axes_outside_the_model_exit_2(self, tmp_path, argv, dim, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"frequencies": [[1] * dim], "theta": [0.1]}))
        out = tmp_path / "g.tsv"
        assert run(["analyze", "--input", str(params), *argv, "--resolution", "5",
                    "--quad-nodes", "8", "--output", str(out)], capsys) == 2
        assert not out.exists()

    # the last two: ragged nesting; a frequency file of dimension 3 for 2-column data
    @pytest.mark.parametrize("vectors", [{"a": 1}, [[1, "x"]], [[1.5, 0]], [[1, 1], [1]],
                                         [[1, 1, 1]]])
    def test_bad_frequency_file_exits_3(self, tmp_path, vectors, capsys):
        csv = str(tmp_path / "d.csv")
        write_csv(csv, np.random.default_rng(0).random((10, 2)))
        path = tmp_path / "f.json"
        path.write_text(json.dumps(vectors))
        out = tmp_path / "x.json"
        assert run(["fit", "--input", csv, "--freqs", f"file:{path}",
                    "--output", str(out)], capsys) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command,content,message", [
        ("fit", "", "is empty"),
        ("fit", "x1,x2\n0.1,0.2\n0.3,abc\n", ":3: could not convert"),
        ("fit", "0.1,0.2\n0.3\n", "ragged rows"),
        ("feasible", None, "cannot read"),
        ("feasible", "{", "invalid JSON"),
        ("feasible", '{"frequencies": [[1, 1]]}', 'needs "frequencies" and "theta"'),
        ("feasible", '{"frequencies": [[1, 1]], "theta": [0.1, 0.2]}', "shapes do not match"),
    ])
    def test_bad_input_file_exits_3(self, tmp_path, command, content, message, capsys):
        path = tmp_path / "input"  # left missing where content is None
        if content is not None:
            path.write_text(content)
        out = tmp_path / "x.json"
        assert main([command, "--input", str(path), "--output", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_param_frequencies_exit_3(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"frequencies": [[1.5, 0]], "theta": [0.1]}))
        assert run(["feasible", "--input", str(path),
                    "--output", str(tmp_path / "f.json")], capsys) == 3

    def test_infeasible_mixm_sample_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.json"  # the mixture region is |theta| <= 0.5
        path.write_text(json.dumps({"frequencies": [[1, 1]], "theta": [0.9]}))
        out = tmp_path / "x.csv"
        assert main(["sample", "--model", "mixm", "--input", str(path), "--n", "10",
                     "--seed", "0", "--output", str(out)]) == 4
        assert "negative density" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"frequencies": [[1, 1]], "theta": [1.7]}))
        assert run(["sample", "--model", "sgm", "--input", str(path), "--n", "10",
                    "--seed", "0", "--output", str(tmp_path / "x.csv")], capsys) == 4
