"""Compare parent and change results of the benchmark, pair by pair.

    python3 perfbench/compare.py --parent P1.json P2.json ... \\
                                 --change C1.json C2.json ...

Each file is a result JSON that `run.py` wrote (`--out`).  Results are
grouped by workload and trace mode; within a group the i-th parent result
is paired with the i-th change result, so list them in the order they were
run, alternating which side ran first.  For every metric the report gives
each side's median and quartiles, the fraction of pairs the change won
(ties count for neither side) and a verdict:

failed      a change run was not correct, or the change failed more
            operations than the parent; no metric of that workload counts;
improved    the change won at least 9/10 of at least 10 pairs and the
            medians differ by more than the parent's interquartile range;
unresolved  the parent's own spread exceeds the metric's bound, and not
            every change run beat every parent run;
regressed   the change's median is worse than the parent's by more than
            the bound;
no worse    otherwise.

Per-layer metrics have no bound; they get a verdict only when failed,
improved or when every change run is worse than every parent run (`worse`),
else `-`.  Each workload's failed and attempted operations are printed for
both sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
MIN_PAIRS_FOR_GAIN = 10
WIN_FRACTION = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None, failing: bool = False) -> dict:
    """Medians, quartiles, pair win fraction and verdict of one metric;
    `failing` when the change's outputs fail more checks than the parent's."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if failing:
        outcome = "failed"
    elif (pairs >= MIN_PAIRS_FOR_GAIN and wins >= WIN_FRACTION * pairs
            and sign * (cm - pm) > p3 - p1):
        outcome = "improved"
    elif bound is None:
        outcome = "worse" if all_worse else "-"
    elif pm and (p3 - p1) / abs(pm) > bound and not all_better:
        outcome = "unresolved"
    elif pm and -sign * (cm - pm) / abs(pm) > bound:
        outcome = "regressed"
    else:
        outcome = "no worse"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3),
            "win_fraction": wins / pairs if pairs else 0.0, "pairs": pairs,
            "verdict": outcome}


def load_group(paths) -> dict[tuple[str, int], list[dict]]:
    groups = defaultdict(list)
    for path in paths:
        result = json.loads(Path(path).read_text())
        groups[(result["workload"], result["trace"])].append(result)
    return groups


def failures(runs: list[dict]) -> tuple[int, int, bool]:
    """Failed and attempted operations over `runs`, and whether all were
    correct."""
    return (sum(r["summary"]["failed"] for r in runs),
            sum(r["summary"]["attempted"] for r in runs),
            all(r["summary"]["correct"] for r in runs))


def compare(parent_paths, change_paths) -> list[dict]:
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parents, changes = load_group(parent_paths), load_group(change_paths)
    rows = []
    for group in sorted(parents.keys() & changes.keys()):
        p_runs, c_runs = parents[group], changes[group]
        pairs = min(len(p_runs), len(c_runs))
        p_fail = failures(p_runs[:pairs])
        c_fail = failures(c_runs[:pairs])
        failing = not c_fail[2] or c_fail[0] > p_fail[0]
        for name, values in p_runs[0]["summary"]["metrics"].items():
            if name not in metrics:
                continue
            p = [r["summary"]["metrics"][name]["value"] for r in p_runs[:pairs]]
            c = [r["summary"]["metrics"][name]["value"] for r in c_runs[:pairs]]
            row = verdict(p, c, metrics[name]["better"],
                          metrics[name].get("bound"), failing)
            row.update(workload=group[0], trace=group[1], metric=name,
                       unit=values["unit"], parent_failed=p_fail,
                       change_failed=c_fail)
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<10} {'metric':<40} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins':>9} verdict")
    group = None
    for r in rows:
        if (r["workload"], r["trace"]) != group:
            group = r["workload"], r["trace"]
            (pf, pa, _), (cf, ca, c_ok) = r["parent_failed"], r["change_failed"]
            print(f"{r['workload']} trace={r['trace']}: failed/attempted "
                  f"parent {pf}/{pa}, change {cf}/{ca}"
                  + ("" if c_ok else ", change not correct"))
        p = "/".join(f"{v:.4g}" for v in r["parent"])
        c = "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{r['workload']:<10} {r['metric']:<40} {p:>30} {c:>30} "
              f"{r['win_fraction']:>5.2f}/{r['pairs']:<3} {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
