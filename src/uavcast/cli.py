"""Command-line interface.

Subcommands: topology, distributions, metrics, simulate, study.  Every
subcommand accepts `--config FILE` plus per-field override flags; flags win
over the file, the file wins over built-in defaults.  Exit codes: 0 on
success, 2 for configuration/parameter errors, 3 for numeric failures,
4 for integrity failures.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import analysis, experiments
from .config import ScenarioConfig, read_key_values
from .distributions import (
    DistanceDistribution,
    empirical_distance_check,
    sampler_self_check,
)
from .errors import IntegrityError, NumericError, ParameterError
from .geometry import write_topology_csv
from .protocol import SCHEME_RUNNERS, write_event_log

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INTEGRITY = 4

# (flag, config key, help) triples; values are passed through the config
# parser so typing and error reporting are uniform.
_OVERRIDE_FLAGS = [
    ("--d0", "d0_m", "BS distance to the deployment-region center, m"),
    ("--region-radius", "region_radius_m", "deployment region radius, m"),
    ("--radius-r", "radius_r_m", "cluster disk radius, m"),
    ("--num-clusters", "num_clusters", "cluster count (fixed_total mode)"),
    ("--total-uavs", "total_uavs", "total members (fixed_total mode)"),
    ("--lambda", "lambda_per_m2", "cluster-center density, 1/m^2"),
    ("--lambda-off", "lambda_off_per_m2", "member density per cluster, 1/m^2"),
    ("--h1", "h1_m", "BS antenna height, m"),
    ("--h2", "h2_m", "UAV flight height, m"),
    ("--packet-len-ms", "packet_len_ms", "data packet airtime, ms"),
    ("--t-req-ms", "t_req_ms", "request frame airtime, ms"),
    ("--t-ack-ms", "t_ack_ms", "ACK frame airtime, ms"),
    ("--slot-ms", "slot_ms", "backoff slot length, ms"),
    ("--max-time-ms", "max_time_ms", "epoch time budget, ms"),
    ("--rnc-generation-size", "rnc_generation_size", "coded generation size"),
    ("--opportunistic-caching", "opportunistic_caching",
     "missing members cache overheard replies (true/false)"),
    ("--replications", "replications", "Monte-Carlo replications / trials"),
    ("--seed", "base_seed", "base RNG seed"),
    ("--mode", "mode", "topology mode: fixed_total or density"),
    ("--schemes", "schemes", "comma-separated scheme list"),
    ("--p-bs-mw", "radio.p_bs_mw", "BS transmit power, mW"),
    ("--p-uav-mw", "radio.p_uav_mw", "UAV transmit power, mW"),
    ("--bandwidth-hz", "radio.bandwidth_hz", "channel bandwidth, Hz"),
    ("--noise-dbm-per-hz", "radio.noise_dbm_per_hz", "noise density, dBm/Hz"),
    ("--gamma", "radio.snr_threshold", "SNR decoding threshold (linear)"),
]

# Each study: the `experiments` function that runs it, its arguments
# before the config, and each grid flag it takes (argparse dest) with the
# keyword it passes the parsed grid as.  Grids not given keep the
# function's defaults.
_STUDIES = {
    "validation-coverage": ("run_validation_study", ("coverage",),
                            {"v_values": "values"}),
    "validation-success": ("run_validation_study", ("success",),
                           {"r_values": "values"}),
    "design-insight": ("run_design_insight_study", (),
                       {"c_values": "c_values", "v_values": "v_values"}),
    "delay": ("run_delay_study", (),
              {"d0_values": "d0_values", "c_values": "c_values"}),
    "ase": ("run_ase_study", (),
            {"d0_values": "d0_values", "c_values": "c_values"}),
}
# The grid flags of `study` (argparse dest, help).
_GRID_FLAGS = (("v_values", "comma list, m"), ("r_values", "comma list, m"),
               ("c_values", "comma list of cluster counts"),
               ("d0_values", "comma list, m"))
_KIND_NAMES = ("bs-member", "peer", "center-offset")


def _common_parser() -> argparse.ArgumentParser:
    """The options every subcommand takes, built once and passed to each
    subcommand as a parent; help lists them after the subcommand's own."""
    parser = argparse.ArgumentParser(add_help=False)
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="FILE", help="key=value config file")
    group.add_argument("--dump-config", metavar="FILE",
                       help="write the effective configuration and continue")
    for flag, key, text in _OVERRIDE_FLAGS:
        group.add_argument(flag, dest=key, metavar="V", help=text)
    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    mapping: dict[str, str] = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ParameterError(f"config: file not found: {path}")
        mapping = read_key_values(path)
    for _, key, _ in _OVERRIDE_FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            # Last key wins, also over the file's other noise spelling.
            mapping.pop(key, None)
            mapping[key] = value
    config = ScenarioConfig.from_mapping(mapping)
    if args.dump_config:
        Path(args.dump_config).write_text(config.to_key_values())
    return config


def _flag(grid: str) -> str:
    """The `study` flag of grid `grid`, an argparse dest."""
    return "--" + grid.replace("_", "-")


def _grid_values(grid: str, raw: str) -> tuple[float, ...]:
    """The numbers of the comma list `raw` given for `grid`; the study
    checks them (cluster counts must be integers)."""
    try:
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ParameterError(
            f"{grid}: expected a comma-separated number list, got {raw!r}")


def _check_count(flag: str, value: int, minimum: int) -> None:
    """Reject a count flag below `minimum`, naming the flag."""
    if value < minimum:
        raise ParameterError(f"{flag}: must be at least {minimum}, got {value}")


def _cmd_topology(args) -> int:
    _check_count("--drops", args.drops, 1)
    config = _load_config(args)
    drops = experiments.replay_drops(config, args.drops)
    write_topology_csv(args.out, drops, config.h2_m)
    print(f"wrote {sum(xy.shape[0] for xy, _ in drops)} UAV positions "
          f"({args.drops} drops) to {args.out}")
    return 0


def _cmd_distributions(args) -> int:
    _check_count("--grid", args.grid, 2)
    _check_count("--samples", args.samples, 0)
    config = _load_config(args)
    if args.kind == "bs-member":
        dist = DistanceDistribution.bs_member(
            config.geometry(v_norm=args.v_norm))
    elif args.kind == "peer":
        offset = config.radius_r_m / 2 if args.offset_a is None else args.offset_a
        dist = DistanceDistribution.peer(offset, config.radius_r_m)
    else:
        dist = DistanceDistribution.center_offset(config.radius_r_m)
    lo, hi = dist.support
    grid = np.linspace(lo, hi, args.grid)
    pdf = np.asarray(dist.pdf(grid))
    cdf = np.asarray(dist.cdf(grid))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["distance_m", "pdf", "cdf"])
            for row in zip(grid, pdf, cdf):
                writer.writerow([f"{v:.10g}" for v in row])
        print(f"wrote {args.grid} grid points to {args.out}")
    if args.samples > 0:
        study = experiments._STUDY_IDS["distributions"]
        gap_geom = empirical_distance_check(
            dist, args.samples, experiments._rng(config.base_seed, (study, 0)))
        gap_inv = sampler_self_check(
            dist, args.samples, experiments._rng(config.base_seed, (study, 1)))
        print(f"kind={args.kind} samples={args.samples} "
              f"empirical_ks_gap={gap_geom:.6f} sampler_ks_gap={gap_inv:.6f}")
    return 0


def _cmd_metrics(args) -> int:
    config = _load_config(args)
    radio, sim = config.radio, config.sim
    p_cov = analysis.coverage_probability(config.geometry(v_norm=args.v_norm),
                                          radio)
    p_suc = analysis.transmission_success_probability(config.radius_r_m, radio)
    header = "p_cov,p_suc,p_req,delay_aver_ms,ase_aver"
    row = ",".join(f"{v:.10g}" for v in (
        p_cov, p_suc,
        analysis.request_success_probability(
            p_cov, p_suc, config.lambda_off_per_m2, config.radius_r_m),
        analysis.average_delay(p_cov, p_suc, sim.packet_len_ms, sim.t_req_ms),
        analysis.average_ase(p_cov, p_suc, config.lambda_off_per_m2,
                             radio.snr_threshold)))
    if args.out:
        Path(args.out).write_text(header + "\n" + row + "\n")
    print(header)
    print(row)
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    outcome = experiments.replay_epoch(config, args.scheme,
                                       collect_events=bool(args.event_log))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["uav_id", "cluster_id", "delivered",
                             "via_broadcast", "delivery_time_ms"])
            for u, t in enumerate(outcome.delivery_time_ms.tolist()):
                delivered = not outcome.undelivered[u]
                writer.writerow([
                    u, int(outcome.cluster_ids[u]), int(delivered),
                    int(outcome.via_broadcast[u]),
                    f"{t:.17g}" if delivered else ""])
    if args.event_log:
        write_event_log(args.event_log, outcome.events)
    n = outcome.n_uavs
    print(f"scheme={outcome.scheme} uavs={n} "
          f"delivered={int(np.count_nonzero(outcome.delivered))} "
          f"undelivered={int(np.count_nonzero(outcome.undelivered))} "
          f"bs_tx={outcome.bs_transmissions} uav_tx={outcome.uav_transmissions} "
          f"control={outcome.control_messages}")
    return 0


def _cmd_study(args) -> int:
    config = _load_config(args)
    name = args.study
    function, leading, takes = _STUDIES[name]
    grids = {}
    for grid, _ in _GRID_FLAGS:
        raw = getattr(args, grid)
        if raw is None:
            continue
        if grid not in takes:
            raise ParameterError(
                f"{_flag(grid)}: study {name} takes no such grid, only "
                + ", ".join(map(_flag, takes)))
        grids[takes[grid]] = _grid_values(grid, raw)
    table = getattr(experiments, function)(*leading, config, **grids)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{name.replace('-', '_')}.csv"
    table.to_csv(out_path)
    print(f"wrote {len(table.rows)} rows to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavcast",
        description="Clustered UAV multicast: analysis and simulation")
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_parser()]

    p = sub.add_parser("topology", parents=common,
                       help="write the first drops of the delay scenario")
    p.add_argument("--drops", type=int, default=1, help="number of drops")
    p.add_argument("--out", default="topology.csv", help="output CSV path")
    p.set_defaults(func=_cmd_topology)

    p = sub.add_parser("distributions", parents=common,
                       help="tabulate a distance distribution, check sampling")
    p.add_argument("--kind", choices=_KIND_NAMES, required=True)
    p.add_argument("--v-norm", type=float, default=None,
                   help="cluster-center distance for bs-member, m")
    p.add_argument("--offset-a", type=float, default=None,
                   help="transmitter offset for peer, m")
    p.add_argument("--grid", type=int, default=513, help="output grid points")
    p.add_argument("--samples", type=int, default=100_000,
                   help="empirical-check sample count (0 to skip)")
    p.add_argument("--out", default=None, help="output CSV path")
    p.set_defaults(func=_cmd_distributions)

    p = sub.add_parser("metrics", parents=common,
                       help="closed-form metric values")
    p.add_argument("--v-norm", type=float, default=None,
                   help="cluster-center distance, m (default: d0)")
    p.add_argument("--out", default=None, help="optional output CSV path")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("simulate", parents=common,
                       help="run replication 0 of the delay scenario")
    p.add_argument("--scheme", choices=sorted(SCHEME_RUNNERS), required=True)
    p.add_argument("--out", default=None, help="per-UAV outcome CSV path")
    p.add_argument("--event-log", default=None, help="event log CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("study", parents=common,
                       help="run a full study, write a metric table")
    p.add_argument("--study", choices=list(_STUDIES), required=True)
    p.add_argument("--out-dir", default=".", help="output directory")
    for grid, text in _GRID_FLAGS:
        p.add_argument(_flag(grid), default=None, help=text)
    p.set_defaults(func=_cmd_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IntegrityError as exc:
        print(f"error: integrity: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
