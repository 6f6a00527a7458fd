"""Compare two study CSVs row by row, in units of combined standard error.

    python3 scripts/se_compare.py PARENT.csv CHANGE.csv [--max-z Z]

Both files are `uavcast study` outputs (the `MetricTable` schema).  A row
is keyed by (study, sweep_param, sweep_value, scheme, metric).  Rows whose
CSV lines are equal are counted as byte-identical.  Every other row is
printed as a markdown table line with both sides' mean and standard error
and z = (change - parent) / sqrt(se_parent^2 + se_change^2), the change
in combined standard errors: 0 when the means are equal (or both NaN),
infinite when they differ with no standard error on either side or only
one is NaN.  Rows only one file holds are listed apart.  The summary
gives the count of byte-identical rows and the worst |z|.

With `--max-z Z` the exit status is 1 when a row moved by more than Z
combined standard errors, or is held by one file only; else 0.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

KEY = ("study", "sweep_param", "sweep_value", "scheme", "metric")


def read_rows(path) -> dict[tuple[str, ...], dict[str, str]]:
    """The rows of a study CSV by key, in file order."""
    with open(path, newline="") as fh:
        return {tuple(row[k] for k in KEY): row for row in csv.DictReader(fh)}


def z_score(parent: dict[str, str], change: dict[str, str]) -> float:
    """The change of the mean in combined standard errors (see above)."""
    a, b = float(parent["mean"]), float(change["mean"])
    if math.isnan(a) and math.isnan(b) or a == b:
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    # A NaN standard error (one valid sample) counts as none.
    se = math.hypot(*(0.0 if math.isnan(s) else s
                      for s in (float(parent["stderr"]),
                                float(change["stderr"]))))
    return (b - a) / se if se else math.copysign(math.inf, b - a)


def compare(parent_path, change_path):
    """(moved rows as (key, parent row, change row, z), count of
    byte-identical rows, keys only in the parent, keys only in the
    change)."""
    parent, change = read_rows(parent_path), read_rows(change_path)
    moved, identical = [], 0
    for key, old in parent.items():
        new = change.get(key)
        if new is None:
            continue
        if old == new:
            identical += 1
        else:
            moved.append((key, old, new, z_score(old, new)))
    return (moved, identical, [k for k in parent if k not in change],
            [k for k in change if k not in parent])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--max-z", type=float, default=None,
                        help="exit 1 when a row moved by more than this")
    args = parser.parse_args(argv)
    moved, identical, removed, added = compare(args.parent, args.change)
    print("| sweep_value | scheme | metric | parent mean ± SE "
          "| change mean ± SE | z |")
    print("|---|---|---|---|---|---|")
    for key, old, new, z in moved:
        print(f"| {key[2]} | {key[3]} | {key[4]} "
              f"| {old['mean']} ± {old['stderr']} "
              f"| {new['mean']} ± {new['stderr']} | {z:+.2f} |")
    for label, keys in (("only in parent", removed), ("only in change", added)):
        for key in keys:
            print(f"{label}: {','.join(key)}")
    worst = max((abs(z) for *_, z in moved), default=0.0)
    print(f"{len(moved)} moved, {identical} byte-identical, "
          f"{len(removed)} only in parent, {len(added)} only in change; "
          f"worst |z| {worst:.2f}")
    if args.max_z is None:
        return 0
    return int(worst > args.max_z or bool(removed or added))


if __name__ == "__main__":
    sys.exit(main())
