"""`scripts/bench_record.py` turns paired benchmark results into one
record, with `perfbench/compare.py`'s quartiles and verdicts."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(path, commit, seed, wall_s, sha):
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "peak_rss_mb": {"value": 88.0, "unit": "MB"}}
    path.write_text(json.dumps({
        "workload": "ase-near", "seed": seed, "seconds": 25.0, "trace": 0,
        "csv_sha256": {"ase.csv": sha},
        "environment": {"git_commit": commit, "nproc": 2,
                        "numpy": "2.4.6"},
        "summary": {"correct": True, "attempted": 40, "failed": 0,
                    "metrics": metrics}}))
    return str(path)


def test_record_holds_quartiles_verdicts_and_environment(tmp_path):
    bench_record = _load()
    parent = [_result(tmp_path / f"p{i}.json", "aaa", 500 + i, 0.16 + i / 1000,
                      "x") for i in range(10)]
    change = [_result(tmp_path / f"c{i}.json", "bbb", 500 + i, 0.14 + i / 1000,
                      "x") for i in range(10)]
    out = tmp_path / "bench.json"
    assert bench_record.main(["--parent", *parent, "--change", *change,
                              "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["commit"] == "bbb"
    assert bench["parent"]["commit"] == "aaa"
    assert bench["change"]["environment"] == {"nproc": 2, "numpy": "2.4.6"}
    workload = bench["workloads"]["ase-near"]
    assert workload["pairs"] == 10 and workload["same_csv_sha256"]
    assert workload["seeds"] == list(range(500, 510))
    assert workload["failed"]["change"] == {"failed": 0, "attempted": 400,
                                            "correct": True}
    wall = workload["metrics"]["wall_s"]
    assert wall["verdict"] == "improved" and wall["win_fraction"] == 1.0
    assert abs(wall["parent"]["median"] - 0.1645) < 1e-12
    change_q = wall["change"]
    assert change_q["q1"] < change_q["median"] < change_q["q3"]
    assert workload["metrics"]["peak_rss_mb"]["verdict"] == "no worse"


def test_record_needs_a_commit(tmp_path, capsys):
    bench_record = _load()
    parent = [_result(tmp_path / "p.json", None, 1, 0.2, "x")]
    change = [_result(tmp_path / "c.json", None, 1, 0.2, "y")]
    assert bench_record.main(["--parent", *parent, "--change", *change,
                              "--out", str(tmp_path / "b.json")]) == 2
    assert "--commit" in capsys.readouterr().err
    assert bench_record.main(["--parent", *parent, "--change", *change,
                              "--commit", "ccc",
                              "--out", str(tmp_path / "b.json")]) == 0
    bench = json.loads((tmp_path / "b.json").read_text())
    assert bench["commit"] == "ccc"
    assert not bench["workloads"]["ase-near"]["same_csv_sha256"]
