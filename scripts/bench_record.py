"""Record a parent-versus-change benchmark comparison as `BENCH_<commit>.json`.

    python3 scripts/bench_record.py --parent P1.json P2.json ... \\
                                    --change C1.json C2.json ...

Each file is a result JSON that `perfbench/run.py` wrote (`--out`), listed
in the order the runs were made, as `perfbench/compare.py` expects: the
i-th parent result of a workload is paired with its i-th change result.
The pairing, quartiles, win fractions and verdicts are `compare()`'s, by
import.  The record goes to `BENCH_<commit>.json` at the repository root
(or `--out FILE`), where <commit> is the change's commit: `--commit`, else
the `git_commit` its results carry.  It holds, per workload and metric,
each side's first quartile, median and third quartile, the change's pair
win fraction and the verdict; per workload, each side's failed and
attempted operations, seeds, run length, and whether every pair wrote the
same CSVs; and each side's environment as the runner recorded it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import compare, load_group  # noqa: E402


def _quartiles(values) -> dict[str, float]:
    q1, median, q3 = values
    return {"q1": q1, "median": median, "q3": q3}


def _side(commit: str | None, runs: list[dict]) -> dict:
    """The runs' environment, less the commit, which may be absent from a
    checkout without git and is recorded on its own."""
    environment = dict(runs[0]["environment"])
    environment.pop("git_commit", None)
    return {"commit": commit, "environment": environment}


def record(parent_paths, change_paths, commit: str | None = None,
           parent_commit: str | None = None) -> dict:
    parents, changes = load_group(parent_paths), load_group(change_paths)
    groups = sorted(parents.keys() & changes.keys())
    if not groups:
        raise ValueError("no workload has results on both sides")
    first_parent = parents[groups[0]]
    first_change = changes[groups[0]]
    commit = commit or first_change[0]["environment"].get("git_commit")
    parent_commit = (parent_commit
                     or first_parent[0]["environment"].get("git_commit"))
    if not commit:
        raise ValueError("the change results carry no git_commit; "
                         "pass --commit")
    workloads = {}
    for workload, trace in groups:
        p_runs, c_runs = parents[workload, trace], changes[workload, trace]
        pairs = min(len(p_runs), len(c_runs))
        workloads[workload] = {
            "trace": trace,
            "pairs": pairs,
            "seconds": sorted({r["seconds"] for r in p_runs + c_runs}),
            "seeds": [r["seed"] for r in p_runs[:pairs]],
            "same_csv_sha256": all(
                p["csv_sha256"] == c["csv_sha256"]
                for p, c in zip(p_runs[:pairs], c_runs[:pairs])),
            "metrics": {},
        }
    for row in compare(parent_paths, change_paths):
        entry = workloads[row["workload"]]
        (pf, pa, p_ok), (cf, ca, c_ok) = (row["parent_failed"],
                                          row["change_failed"])
        entry["failed"] = {
            "parent": {"failed": pf, "attempted": pa, "correct": p_ok},
            "change": {"failed": cf, "attempted": ca, "correct": c_ok}}
        entry["metrics"][row["metric"]] = {
            "unit": row["unit"],
            "parent": _quartiles(row["parent"]),
            "change": _quartiles(row["change"]),
            "win_fraction": row["win_fraction"],
            "verdict": row["verdict"],
        }
    return {
        "commit": commit,
        "parent": _side(parent_commit, first_parent),
        "change": _side(commit, first_change),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds N --trace T --out FILE",
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--commit", default=None,
                        help="the change's commit (default: its results')")
    parser.add_argument("--parent-commit", default=None,
                        help="the parent's commit (default: its results')")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_<commit>.json at "
                             "the repository root)")
    args = parser.parse_args(argv)
    try:
        bench = record(args.parent, args.change, args.commit,
                       args.parent_commit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = (Path(args.out) if args.out
           else ROOT / f"BENCH_{bench['commit']}.json")
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
