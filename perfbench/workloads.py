"""The three benchmark workloads and the checks on their outputs.

A workload is a fixed batch of `uavcast` command lines (one *unit*); the
runner repeats the unit for the measured time.  Every command line is run
in-process through `uavcast.cli.main`, so the CSVs checked are the ones a
user gets.  An operation is one command line: it fails when it raises a
`UavcastError`, exits non-zero, or its output fails a check here.

Checks compare against `reference.json`, taken once on commit 35121d1 by
`make_reference.py`:

* theory rows (`theory`, `analytic`) agree to a relative `THEORY_RTOL`,
  loose enough for a last-digit change from a more exact quadrature;
* Monte-Carlo rows agree with the reference table within `Z_SE` combined
  standard errors, plus the resolution of one replication on each side;
* validation Monte-Carlo rows agree with their own theory row within
  `Z_SE` binomial standard errors plus one trial;
* KS gaps of the distance samplers stay below `KS_BOUND` (the C01 bound).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

Z_SE = 6.0
THEORY_RTOL = 1e-8
KS_BOUND = 0.01
THEORY_SCHEMES = ("theory", "analytic")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = ("analytic", "delay-far", "ase-near")
KINDS = ("bs-member", "peer", "center-offset")


@dataclass(frozen=True)
class Size:
    """Replication counts and grids of one workload size."""

    validation_trials: int
    delay_reps: int
    ase_reps: int
    r_values: str | None = None       # validation-success radii, m
    design_c: str | None = None       # design-insight cluster counts
    design_v: str | None = None       # design-insight centre distances, m
    setup_repeats: int = 5


# 1e5 validation trials, as the project README's validation-coverage
# command uses; 1000 ASE replications, the CLI default.  Delay uses 300, not
# the default 1000: a unit is one operation, and the speed reference
# (speed.py) is timed only between operations, and 6 s units spread more
# (README.md).  The fixed p_suc call is then 20% of a unit instead of 7%.
FULL = Size(validation_trials=100_000, delay_reps=300, ase_reps=1000)
# Smoke size for the benchmark's own tests: every code path, few seconds.
TINY = Size(validation_trials=5_000, delay_reps=20, ase_reps=40,
            r_values="25", design_c="10", design_v="400", setup_repeats=1)


@dataclass(frozen=True)
class Op:
    """One command line and the file its output check reads."""

    argv: tuple[str, ...]
    output: str          # file name inside the op's output directory
    kind: str            # "study" or "distributions"


def unit_ops(workload: str, seed: int, size: Size, out_dir: Path) -> list[Op]:
    """The command lines of one unit of `workload`."""
    common = ("--seed", str(seed))
    out = ("--out-dir", str(out_dir))
    if workload == "analytic":
        trials = ("--replications", str(size.validation_trials))
        r_grid = ("--r-values", size.r_values) if size.r_values else ()
        design = ((("--c-values", size.design_c) if size.design_c else ())
                  + (("--v-values", size.design_v) if size.design_v else ()))
        ops = [
            Op(("study", "--study", "validation-coverage", *trials, *common, *out),
               "validation_coverage.csv", "study"),
            Op(("study", "--study", "validation-success", *trials, *r_grid,
                *common, *out), "validation_success.csv", "study"),
            Op(("study", "--study", "design-insight", *design, *common, *out),
               "design_insight.csv", "study"),
        ]
        for kind in KINDS:
            name = f"distribution_{kind.replace('-', '_')}.csv"
            ops.append(Op(("distributions", "--kind", kind, "--samples",
                           "100000", "--out", str(out_dir / name), *common),
                          name, "distributions"))
        return ops
    if workload == "delay-far":
        return [Op(("study", "--study", "delay", "--d0-values", "1200",
                    "--c-values", "2,5,10", "--replications",
                    str(size.delay_reps), *common, *out), "delay.csv", "study")]
    if workload == "ase-near":
        return [Op(("study", "--study", "ase", "--d0-values", "400",
                    "--c-values", "2,5,10", "--replications",
                    str(size.ase_reps), *common, *out), "ase.csv", "study")]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def simulated_epochs(workload: str, size: Size) -> int:
    """Simulated epochs in one unit.  For `analytic` an epoch is one
    validation trial: one simulated broadcast or relay reception."""
    if workload == "analytic":
        n_r = len(size.r_values.split(",")) if size.r_values else 5
        return size.validation_trials * (6 + n_r)
    if workload == "delay-far":
        return 3 * 3 * size.delay_reps        # C values x schemes x reps
    return 3 * 2 * size.ase_reps              # ase simulates two schemes


# -- output checks -------------------------------------------------------

def read_table(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _key(row) -> str:
    return "|".join((row["study"], row["sweep_param"], row["sweep_value"],
                     row["scheme"], row["metric"]))


def _num(text: str) -> float:
    return float(text) if text not in ("", "nan") else math.nan


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_study(rows: list[dict], reference: dict, complete: bool) -> list[str]:
    """Problems found in one study table (empty when it passes)."""
    problems = []
    ref_rows = {_key(r): r for r in reference}
    if complete and len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} rows, reference has {len(ref_rows)}")
    theory_of = {}
    for row in rows:
        if row["scheme"] == "theory":
            theory_of[(row["sweep_value"], row["metric"])] = _num(row["mean"])
    for row in rows:
        key = _key(row)
        ref = ref_rows.get(key)
        if ref is None:
            problems.append(f"{key}: no reference row")
            continue
        mean, ref_mean = _num(row["mean"]), _num(ref["mean"])
        if math.isnan(mean) or math.isnan(ref_mean):
            if math.isnan(mean) != math.isnan(ref_mean):
                problems.append(f"{key}: {mean} vs reference {ref_mean}")
            continue
        if row["scheme"] in THEORY_SCHEMES:
            if abs(mean - ref_mean) > THEORY_RTOL * abs(ref_mean):
                problems.append(f"{key}: theory {mean!r} vs reference "
                                f"{ref_mean!r} (rtol {THEORY_RTOL:g})")
            continue
        se, ref_se = _num(row["stderr"]), _num(ref["stderr"])
        n, ref_n = int(row["n"]), int(ref["n"])
        if n < 2 or math.isnan(se):
            problems.append(f"{key}: {n} samples, no standard error")
            continue
        tol = (Z_SE * math.hypot(se, ref_se)
               + abs(ref_mean) * (1.0 / n + 1.0 / ref_n))
        if abs(mean - ref_mean) > tol:
            problems.append(f"{key}: {mean:.6g} vs reference {ref_mean:.6g} "
                            f"(tolerance {tol:.3g})")
        if row["study"].startswith("validation_"):
            theory = theory_of.get((row["sweep_value"], row["metric"]))
            if theory is None:
                problems.append(f"{key}: no theory row")
                continue
            tol = Z_SE * math.sqrt(theory * (1.0 - theory) / n) + 1.0 / n
            if abs(mean - theory) > tol:
                problems.append(f"{key}: {mean:.6g} vs theory {theory:.6g} "
                                f"(tolerance {tol:.3g})")
    return problems


_KS_LINE = re.compile(r"empirical_ks_gap=([0-9.eE+-]+) sampler_ks_gap=([0-9.eE+-]+)")


def check_distribution(path, stdout: str) -> list[str]:
    """KS gaps below the C01 bound and a well-formed tabulated CDF."""
    problems = []
    match = _KS_LINE.search(stdout)
    if match is None:
        problems.append("no KS gap line in the output")
    else:
        for label, text in zip(("empirical", "sampler"), match.groups()):
            if not float(text) < KS_BOUND:
                problems.append(f"{label} KS gap {text} >= {KS_BOUND}")
    rows = read_table(path)
    cdf = [float(r["cdf"]) for r in rows]
    pdf = [float(r["pdf"]) for r in rows]
    if len(rows) < 2:
        problems.append(f"{len(rows)} grid rows")
    elif abs(cdf[0]) > 1e-12 or abs(cdf[-1] - 1.0) > 1e-12:
        problems.append(f"CDF runs {cdf[0]} .. {cdf[-1]}, expected 0 .. 1")
    if any(b < a for a, b in zip(cdf, cdf[1:])):
        problems.append("CDF decreases")
    if any(p < 0 for p in pdf):
        problems.append("negative pdf value")
    return problems


def check_op(op: Op, out_path: Path, stdout: str, reference: dict,
             complete: bool) -> list[str]:
    if op.kind == "distributions":
        return check_distribution(out_path, stdout)
    return check_study(read_table(out_path), reference[op.output], complete)


def digest(path: Path, extra: str = "") -> str:
    h = hashlib.sha256(path.read_bytes())
    h.update(extra.encode())
    return h.hexdigest()
