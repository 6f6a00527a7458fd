"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import self_times  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _main(capsys, tmp_path, workload, seed, trace):
    out = tmp_path / f"{workload}-{seed}-{trace}.json"
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace), "--out", str(out)],
                    size=workloads.TINY)
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return summary, json.loads(out.read_text())


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (clipped to the root at 10); d [2, 3] is a's child.
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    np.testing.assert_allclose(self_times(start, end, parent),
                               [10 - 5 - 2, 3 - 1, 3, 4, 1])


def test_speed_scaling_averages_kernel_runs_around_each_op(monkeypatch):
    monkeypatch.setattr(speed, "WINDOW", 2)
    log = speed.SpeedLog()
    log.kernel_s = [0.1, 0.2, 0.3, 0.4]         # before op 0, after ops 0-2
    ref = speed.REFERENCE_S
    windows = [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4], [0.2, 0.3, 0.4]]
    expected = [ref / np.mean(w) for w in windows]
    np.testing.assert_allclose(log.scale([1.0, 1.0, 1.0]), expected)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(capsys, tmp_path, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        summary, result = _main(capsys, tmp_path, workload, 5, trace)
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"], result["problems"]
        assert summary["failed"] == 0 and summary["attempted"] >= 1
        assert set(summary["metrics"]) == {m["name"] for m in SPEC[section]}
        assert result["environment"]["nproc"] >= 1
    assert (tmp_path / f"{workload}-5-1-spans.npz").is_file()


def test_other_seed_gives_other_passing_outputs(capsys, tmp_path):
    digests = []
    for seed in (5, 6):
        summary, result = _main(capsys, tmp_path, "delay-far", seed, 0)
        assert summary["correct"], result["problems"]
        digests.append(result["csv_sha256"])
    assert digests[0] != digests[1]


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == "no worse"
    noisy = [5.0, 15.0, 8.0, 12.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(parent, faster, "lower", 0.1,
                           failing=True)["verdict"] == "failed"


def test_compare_fails_a_change_with_more_failed_ops(tmp_path):
    def result(side, i, failed, correct=True):
        path = tmp_path / f"{side}-{i}-{failed}-{correct}.json"
        path.write_text(json.dumps({
            "workload": "delay-far", "trace": 0,
            "summary": {"correct": correct, "attempted": 4, "failed": failed,
                        "metrics": {"wall_s": {"value": 2.0 - 0.1 * (side != "p"),
                                               "unit": "s"}}}}))
        return path
    parent = [result("p", i, 0) for i in range(10)]
    clean = [result("c", i, 0) for i in range(10)]
    failing = [result("c", i, int(i == 3)) for i in range(10)]
    not_correct = [result("n", i, 0, correct=i != 5) for i in range(10)]
    assert compare.compare(parent, clean)[0]["verdict"] == "improved"
    row = compare.compare(parent, failing)[0]
    assert row["verdict"] == "failed"
    assert row["change_failed"] == (1, 40, True)
    assert compare.compare(parent, not_correct)[0]["verdict"] == "failed"
