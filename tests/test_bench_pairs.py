"""The source-digest check of bench/pairs.py, on fake run results."""

import importlib.util
import os
import shutil

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location("bench_pairs",
                                               os.path.join(_ROOT, "bench", "pairs.py"))
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def result(digest):
    return {"env": {"src_sha256": digest}}


def test_same_sources_pass_and_are_recorded_per_side():
    digests = {}
    for i in range(3):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            pairs.check_source(digests, i, side, result(f"{side}-digest"))
    assert digests == {"parent": "parent-digest", "change": "change-digest"}


def test_a_changed_source_stops_the_set_naming_pair_and_side():
    digests = {}
    pairs.check_source(digests, 0, "parent", result("p"))
    pairs.check_source(digests, 0, "change", result("c1"))
    pairs.check_source(digests, 1, "change", result("c1"))
    with pytest.raises(SystemExit, match=r"^pair 1 parent: src/sgm digest q differs from p "):
        pairs.check_source(digests, 1, "parent", result("q"))
    with pytest.raises(SystemExit, match=r"^pair 2 change: .* c2 differs from c1 "):
        pairs.check_source(digests, 2, "change", result("c2"))
    assert digests == {"parent": "p", "change": "c1"}


def test_main_writes_no_set_when_a_side_changes(tmp_path, monkeypatch):
    shutil.copy(os.path.join(_ROOT, "BENCHMARK.json"), tmp_path)
    (tmp_path / "bench").mkdir()
    parent = tmp_path / "parent" / "perfbench"
    parent.mkdir(parents=True)
    (parent / "run.py").write_text("")
    runs = iter(["p", "c1", "c2", "p"])  # pair 0 parent, change; pair 1 change, parent
    monkeypatch.setattr(pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(pairs, "run_once", lambda *a: result(next(runs)) | {"metrics": {}})
    with pytest.raises(SystemExit, match="^pair 1 change: "):
        pairs.main(["--parent", str(tmp_path / "parent"), "--parent-rev", "x", "--label", "t",
                    "--workload", "density", "--pairs", "2", "--seed", "1"])
    assert not (tmp_path / "bench" / "BENCH_t.json").exists()
