"""Print the sha256 of every output of a fixed set of `uavcast` commands.

    python3 scripts/output_digests.py | diff - scripts/output_digests.txt

Runs from the root of a source checkout (the package is imported from
`src/`).  The commands write into a temporary directory that is removed
afterwards; stdout gets one `sha256  name` line per output file, sorted by
name.  Two checkouts that draw the same random numbers print the same
lines, so the line above is the gate for a change that must keep every
output byte-identical: no `diff` output means it did.  A change that
alters an output on purpose (say, a new CSV column) regenerates the file:

    python3 scripts/output_digests.py > scripts/output_digests.txt

`scripts/output_digests.txt` was recorded with numpy 2.4.6 on Python
3.11.7, x86-64 Linux.  Another numpy version or platform may round or draw
differently; there, record the parent commit's digests and diff against
those instead.

The commands:

- `study --study delay|ase --replications 200` (default grids),
  `study --study delay|ase --mode density --replications 200`,
  `study --study delay --max-time-ms 40 --opportunistic-caching false
  --replications 200` (named `delay_budget40_nocache`), and
  `study --study delay --d0-values 28000,30000 --replications 50` (named
  `delay_28km_30km`): members the BS never serves, since the per-round
  success probability is 0 or subnormal that far out, and `study --study
  delay --gamma 1e12 --replications 20` (named `delay_gamma1e12`): no
  relay decodes, so the analytic delay rows read `inf`;
- studies whose replications span several batches of `_replicated`:
  `study --study ase --d0-values 400 --c-values 2,5,10 --replications
  1000` (named `ase_near`) and `study --study delay --d0-values 1200
  --c-values 2,5,10 --replications 300` (named `delay_far`), the units of
  the `ase-near` and `delay-far` benchmark workloads; `study --study delay
  --total-uavs 2000 --c-values 2 --d0-values 1200 --replications 10`
  (named `delay_2000uavs`), batches of a few wide drops; `study --study
  delay --mode density --d0-values 1200 --c-values 2 --replications 1000`
  (named `delay_density_batches`), batches of drops of mixed shape;
  `study --study ase --d0-values 400 --c-values 2 --replications 3000`
  (named `ase_near_3000`), several batches of the widest drop batch; and
  `study --study delay --d0-values 1200 --c-values 2,10 --replications
  700` (named `delay_far_runs`), batches of 327 drops at C = 2 and 10,
  whose recovering cells hold at most 16,350 padded slots (clusters x
  largest cluster) a batch; `study --study delay --c-values 3
  --d0-values 1500 --replications 700` (named `delay_uneven_c3`), an
  uneven split: 50 members in 3 clusters pad to 51 slots a drop; `study
  --study delay --total-uavs 20000 --c-values 2 --d0-values 1200
  --replications 3` (named `delay_wide_20000uavs`), drops wider than the
  batch budget, one drop a batch; `study --study delay
  --opportunistic-caching false --c-values 1,2 --d0-values 1500,2000
  --replications 400` (named `delay_nocache_long`), long recoveries of
  one or two clusters far out without caching, whose cells read
  recovery blocks after the first, up to block 34; `study --study ase
  --mode density --d0-values 400 --replications 3000` (named
  `ase_density_near`), several batches of drops of mixed shape in
  which few clusters recover; `study --study ase --d0-values 1200
  --c-values 2,10 --replications 2000` (named `ase_far_flushes`),
  seven batches a scenario in which most clusters recover; and `study
  --study delay --schemes rnc --rnc-generation-size 64 --d0-values 1200
  --c-values 2 --replications 700` in fixed_total and density mode (named
  `delay_rnc_g64` and `delay_rnc_g64_density`), several batches of RNC's
  later-round blocks at a generation size above the default;
- `study --study delay|ase --max-time-ms 5 --replications 200` in
  fixed_total and density mode (named `delay_budget5`, `ase_budget5` and
  their `_density` twins): one packet exceeds the budget, so no member is
  ever served;
- `study --study validation-coverage|validation-success --replications
  100000` and `study --study design-insight` (default grids): the
  validation draws and the `p_cov`/`p_suc` quadratures; and the same
  studies on grids given by their flags: `study --study
  validation-coverage --v-values 300,900 --replications 20000` (named
  `validation_coverage_v300_900`), `study --study validation-success
  --r-values 25,75 --replications 20000` (named
  `validation_success_r25_75`) and `study --study design-insight
  --c-values 3,7 --v-values 600` (named `design_insight_c3_7_v600`);
  `study --study validation-success --gamma 1e7 --r-values 0.25,0.5,2
  --replications 20000` (named `validation_success_clamp`), where most
  links at or below the 1 m clamp of the path-loss law fail, and `study
  --study validation-coverage --v-values 3000,5000,10000 --replications
  20000` (named `validation_coverage_far`), where p_cov falls from about
  0.1 to 1e-22; and `study --study validation-coverage --v-values
  51,60,90 --replications 20000` (named `validation_coverage_v51_60_90`),
  clusters whose center lies within two radii of the BS (v < 2r), so
  that part of the disk is nearer the BS than r: the BS-to-member law
  keeps there the one arc form it takes everywhere else;
- the validation studies and the `distributions` KS checks at the edges
  of their chunks of 2^14 trials: `study --study
  validation-coverage|validation-success --replications N` and
  `distributions --samples N --grid 5` for N = 1000 (below one chunk),
  32768 (exactly two chunks) and 32769 (two chunks and one trial), named
  `validation_coverage_nN`, `validation_success_nN` and
  `dist_center_offset_n1000`, `dist_bs_member_n32768` and
  `dist_peer_n32769`;
- `metrics --out` at the defaults and at `--v-norm 1200`;
- `topology --drops 20` in fixed_total and density mode: the drops of
  replications 0 to 19 of the delay scenario, as `study --study delay`
  draws them at one grid point with 20 replications;
- `simulate --scheme S --seed 1|2|3 --d0 1200 --num-clusters 2` with
  `--out` and `--event-log` for every scheme, and the same at seed 1 with
  `--max-time-ms 40` (named `budget40`) and `--max-time-ms 5` (named
  `budget5`, past one packet): replication 0 of the delay scenario, as
  `study --study delay --replications 1` simulates it at that one grid
  point; at seed 1 also `simulate --mode density --lambda
  1e-6` (named `empty`: a drop with no member, where only clustering
  sends its one broadcast) and `simulate --d0 1500 --num-clusters 1
  --opportunistic-caching false` (named `d1500_c1_nocache`: long
  recoveries of one cluster);
- `metrics --dump-config` with the defaults, and with `--mode density
  --max-time-ms 40 --noise-dbm-per-hz -170 --opportunistic-caching false`:
  the key=value file format, key order included;
- `distributions --kind bs-member|peer|center-offset --out` at the
  defaults, and `distributions --kind peer --offset-a 0` (named
  `dist_peer_a0`: a transmitter at the cluster center) and
  `distributions --kind bs-member --v-norm 60` (named
  `dist_bs_member_v60`: a BS within two radii of the cluster center, the
  near-disk case of `validation_coverage_v51_60_90`): the tabulated
  pdf/CDF and, as a `.stdout` file named after the CSV, the printed lines
  with the KS gaps of the geometric and the inverse-CDF samples (the
  temporary directory's path replaced by `<out>`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from uavcast.cli import main  # noqa: E402

SCHEMES = ("benchmark", "clustering", "rnc")
KINDS = ("bs-member", "peer", "center-offset")
# Trial counts below one chunk of 2^14 trials, at two chunks and one past.
CHUNK_EDGES = (1000, 32768, 32769)


def _tag(kind: str) -> str:
    return kind.replace("-", "_")


def commands(out: Path) -> list[list[str]]:
    """Every command line, each writing its outputs under `out`."""
    cmds = [
        ["study", "--study", "delay", "--replications", "200",
         "--out-dir", str(out / "delay")],
        ["study", "--study", "ase", "--replications", "200",
         "--out-dir", str(out / "ase")],
        ["study", "--study", "delay", "--mode", "density",
         "--replications", "200", "--out-dir", str(out / "delay_density")],
        ["study", "--study", "ase", "--mode", "density",
         "--replications", "200", "--out-dir", str(out / "ase_density")],
        ["study", "--study", "delay", "--max-time-ms", "40",
         "--opportunistic-caching", "false", "--replications", "200",
         "--out-dir", str(out / "delay_budget40_nocache")],
        ["study", "--study", "delay", "--d0-values", "28000,30000",
         "--replications", "50", "--out-dir", str(out / "delay_28km_30km")],
        ["study", "--study", "delay", "--gamma", "1e12", "--replications",
         "20", "--out-dir", str(out / "delay_gamma1e12")],
        ["study", "--study", "ase", "--d0-values", "400", "--c-values",
         "2,5,10", "--replications", "1000", "--out-dir", str(out / "ase_near")],
        ["study", "--study", "delay", "--d0-values", "1200", "--c-values",
         "2,5,10", "--replications", "300", "--out-dir", str(out / "delay_far")],
        ["study", "--study", "delay", "--total-uavs", "2000", "--c-values",
         "2", "--d0-values", "1200", "--replications", "10",
         "--out-dir", str(out / "delay_2000uavs")],
        ["study", "--study", "delay", "--mode", "density", "--d0-values",
         "1200", "--c-values", "2", "--replications", "1000",
         "--out-dir", str(out / "delay_density_batches")],
        ["study", "--study", "ase", "--d0-values", "400", "--c-values", "2",
         "--replications", "3000", "--out-dir", str(out / "ase_near_3000")],
        ["study", "--study", "delay", "--d0-values", "1200", "--c-values",
         "2,10", "--replications", "700",
         "--out-dir", str(out / "delay_far_runs")],
        ["study", "--study", "delay", "--c-values", "3", "--d0-values",
         "1500", "--replications", "700",
         "--out-dir", str(out / "delay_uneven_c3")],
        ["study", "--study", "delay", "--total-uavs", "20000", "--c-values",
         "2", "--d0-values", "1200", "--replications", "3",
         "--out-dir", str(out / "delay_wide_20000uavs")],
        ["study", "--study", "delay", "--opportunistic-caching", "false",
         "--c-values", "1,2", "--d0-values", "1500,2000", "--replications",
         "400", "--out-dir", str(out / "delay_nocache_long")],
        ["study", "--study", "ase", "--mode", "density", "--d0-values", "400",
         "--replications", "3000", "--out-dir", str(out / "ase_density_near")],
        ["study", "--study", "ase", "--d0-values", "1200", "--c-values",
         "2,10", "--replications", "2000",
         "--out-dir", str(out / "ase_far_flushes")],
        *(["study", "--study", study, "--max-time-ms", "5",
           "--replications", "200", "--mode", mode,
           "--out-dir", str(out / f"{study}_budget5{tag}")]
          for study in ("delay", "ase")
          for mode, tag in (("fixed_total", ""), ("density", "_density"))),
        *(["study", "--study", "delay", "--schemes", "rnc",
           "--rnc-generation-size", "64", "--d0-values", "1200",
           "--c-values", "2", "--replications", "700", "--mode", mode,
           "--out-dir", str(out / f"delay_rnc_g64{tag}")]
          for mode, tag in (("fixed_total", ""), ("density", "_density"))),
        ["study", "--study", "validation-coverage", "--replications", "100000",
         "--out-dir", str(out / "validation_coverage")],
        ["study", "--study", "validation-success", "--replications", "100000",
         "--out-dir", str(out / "validation_success")],
        ["study", "--study", "design-insight",
         "--out-dir", str(out / "design_insight")],
        ["study", "--study", "validation-coverage", "--v-values", "300,900",
         "--replications", "20000",
         "--out-dir", str(out / "validation_coverage_v300_900")],
        ["study", "--study", "validation-success", "--r-values", "25,75",
         "--replications", "20000",
         "--out-dir", str(out / "validation_success_r25_75")],
        ["study", "--study", "validation-success", "--gamma", "1e7",
         "--r-values", "0.25,0.5,2", "--replications", "20000",
         "--out-dir", str(out / "validation_success_clamp")],
        ["study", "--study", "validation-coverage", "--v-values",
         "3000,5000,10000", "--replications", "20000",
         "--out-dir", str(out / "validation_coverage_far")],
        ["study", "--study", "validation-coverage", "--v-values", "51,60,90",
         "--replications", "20000",
         "--out-dir", str(out / "validation_coverage_v51_60_90")],
        *(["study", "--study", f"validation-{kind}", "--replications",
           str(n), "--out-dir", str(out / f"validation_{kind}_n{n}")]
          for kind in ("coverage", "success") for n in CHUNK_EDGES),
        ["study", "--study", "design-insight", "--c-values", "3,7",
         "--v-values", "600",
         "--out-dir", str(out / "design_insight_c3_7_v600")],
        ["metrics", "--out", str(out / "metrics_default.csv")],
        ["metrics", "--v-norm", "1200", "--out", str(out / "metrics_v1200.csv")],
        ["topology", "--drops", "20", "--out", str(out / "topo_fixed.csv")],
        ["topology", "--drops", "20", "--mode", "density",
         "--out", str(out / "topo_density.csv")],
        ["metrics", "--dump-config", str(out / "config_default.cfg")],
        ["metrics", "--mode", "density", "--max-time-ms", "40",
         "--noise-dbm-per-hz", "-170", "--opportunistic-caching", "false",
         "--dump-config", str(out / "config_custom.cfg")],
    ]
    near = ["--d0", "1200", "--num-clusters", "2"]
    runs = [(str(seed), str(seed), near) for seed in (1, 2, 3)]
    runs += [
        ("budget40", "1", [*near, "--max-time-ms", "40"]),
        ("budget5", "1", [*near, "--max-time-ms", "5"]),
        ("empty", "1", ["--mode", "density", "--lambda", "1e-6"]),
        ("d1500_c1_nocache", "1", ["--d0", "1500", "--num-clusters", "1",
                                   "--opportunistic-caching", "false"]),
    ]
    for kind in KINDS:
        cmds.append(["distributions", "--kind", kind,
                     "--out", str(out / f"dist_{_tag(kind)}.csv")])
    cmds.append(["distributions", "--kind", "peer", "--offset-a", "0",
                 "--out", str(out / "dist_peer_a0.csv")])
    cmds.append(["distributions", "--kind", "bs-member", "--v-norm", "60",
                 "--out", str(out / "dist_bs_member_v60.csv")])
    for kind, n in zip(("center-offset", "bs-member", "peer"), CHUNK_EDGES):
        cmds.append(["distributions", "--kind", kind, "--samples", str(n),
                     "--grid", "5",
                     "--out", str(out / f"dist_{_tag(kind)}_n{n}.csv")])
    for scheme in SCHEMES:
        for tag, seed, flags in runs:
            cmds.append(["simulate", "--scheme", scheme, "--seed", seed,
                         *flags,
                         "--out", str(out / f"sim_{scheme}_{tag}.csv"),
                         "--event-log", str(out / f"ev_{scheme}_{tag}.csv")])
    return cmds


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for argv in commands(out):
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main(argv)
            if code != 0:
                print(f"error: exit {code}: uavcast {' '.join(argv)}",
                      file=sys.stderr)
                return code
            if argv[0] == "distributions":
                # The printed KS gaps are an output; the path is not.
                text = stdout.getvalue().replace(str(out), "<out>")
                csv_path = Path(argv[argv.index("--out") + 1])
                csv_path.with_suffix(".stdout").write_text(text)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
