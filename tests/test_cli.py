import csv
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from uavcast import cli, experiments
from uavcast.analysis import (
    average_ase,
    average_delay,
    coverage_probability,
    request_success_probability,
    transmission_success_probability,
)
from uavcast.config import ScenarioConfig
from uavcast.errors import IntegrityError, NumericError


def test_metrics_row_matches_analysis(capsys):
    assert cli.main(["metrics", "--v-norm", "800"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p_cov,p_suc,p_req,delay_aver_ms,ase_aver"
    p_cov, p_suc, p_req, delay, ase = map(float, out[1].split(","))
    config = ScenarioConfig()
    assert p_cov == pytest.approx(
        coverage_probability(config.geometry(800.0), config.radio), rel=1e-9)
    assert p_suc == pytest.approx(
        transmission_success_probability(50.0, config.radio), rel=1e-9)
    assert p_req == pytest.approx(
        request_success_probability(p_cov, p_suc, 1e-3, 50.0), rel=1e-6)
    assert delay == pytest.approx(
        average_delay(p_cov, p_suc, 10.0, 1.0), rel=1e-6)
    assert ase == pytest.approx(average_ase(p_cov, p_suc, 1e-3, 20.0), rel=1e-6)


def test_metrics_writes_csv(tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    assert cli.main(["metrics", "--v-norm", "400", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    lines = out.read_text().splitlines()
    assert lines == printed[-2:]


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("d0_m=400\nnum_clusters=2\n")
    dump = tmp_path / "effective.cfg"
    assert cli.main(["metrics", "--config", str(cfg), "--d0", "600",
                     "--dump-config", str(dump)]) == 0
    capsys.readouterr()
    effective = ScenarioConfig.from_file(dump)
    assert effective.d0_m == 600.0       # flag beats file
    assert effective.num_clusters == 2   # file beats default


def test_flags_can_make_the_file_valid(tmp_path, capsys):
    """The file is not a config on its own: d0_m=120 is inside the far
    deployment bound, and the flag replaces it before validation."""
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("d0_m=120\nnum_clusters=2\n")
    dump = tmp_path / "effective.cfg"
    assert cli.main(["metrics", "--config", str(cfg), "--d0", "800",
                     "--dump-config", str(dump)]) == 0
    capsys.readouterr()
    effective = ScenarioConfig.from_file(dump)
    assert (effective.d0_m, effective.num_clusters) == (800.0, 2)


# A non-default value that is valid on its own, for every override flag.
_FLAG_VALUES = {
    "--d0": "900", "--region-radius": "120", "--radius-r": "40",
    "--num-clusters": "4", "--total-uavs": "60", "--lambda": "2e-4",
    "--lambda-off": "2e-3", "--h1": "12", "--h2": "25",
    "--packet-len-ms": "8", "--t-req-ms": "2", "--t-ack-ms": "2",
    "--slot-ms": "0.02", "--max-time-ms": "500",
    "--rnc-generation-size": "4", "--opportunistic-caching": "false",
    "--replications": "7", "--seed": "9", "--mode": "density",
    "--schemes": "clustering,rnc", "--p-bs-mw": "500", "--p-uav-mw": "20",
    "--bandwidth-hz": "1e7", "--noise-dbm-per-hz": "-170", "--gamma": "31.5",
}
_SUBCOMMANDS = {
    "topology": [], "distributions": ["--kind", "peer"], "metrics": [],
    "simulate": ["--scheme", "rnc"], "study": ["--study", "delay"],
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_every_subcommand_maps_every_override_flag(command, tmp_path):
    """Each subcommand takes each override flag, and the effective config
    it dumps is the one the flag's config key gives."""
    assert sorted(_FLAG_VALUES) == sorted(f for f, _, _ in cli._OVERRIDE_FLAGS)
    parser = cli.build_parser()
    default = ScenarioConfig().to_key_values()
    dump = tmp_path / "effective.cfg"
    for flag, key, _ in cli._OVERRIDE_FLAGS:
        value = _FLAG_VALUES[flag]
        args = parser.parse_args([command, *_SUBCOMMANDS[command], flag, value,
                                  "--dump-config", str(dump)])
        cli._load_config(args)
        expected = ScenarioConfig.from_mapping({key: value}).to_key_values()
        assert expected != default, flag
        assert dump.read_text() == expected, flag


def test_noise_flag_beats_both_file_spellings(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("radio.noise_dbm_per_hz=-170\n"
                   "radio.noise_mw_per_hz=1e-20\n")
    dump = tmp_path / "effective.cfg"
    assert cli.main(["metrics", "--config", str(cfg),
                     "--noise-dbm-per-hz", "-160",
                     "--dump-config", str(dump)]) == 0
    capsys.readouterr()
    noise = ScenarioConfig.from_file(dump).radio.noise_mw_per_hz
    assert noise == pytest.approx(1e-16, rel=1e-12)


def test_dump_config_round_trips(tmp_path, capsys):
    first = tmp_path / "first.cfg"
    second = tmp_path / "second.cfg"
    assert cli.main(["metrics", "--gamma", "31.5", "--seed", "9",
                     "--dump-config", str(first)]) == 0
    assert cli.main(["metrics", "--config", str(first),
                     "--dump-config", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_config_error_exit_code(capsys):
    assert cli.main(["metrics", "--d0", "50"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: ")


def test_non_finite_value_exit_code(capsys):
    rc = cli.main(["simulate", "--scheme", "clustering", "--radius-r", "nan"])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: radius_r_m")


@pytest.mark.parametrize("argv", [
    ["simulate", "--scheme", "clustering"],
    ["study", "--study", "ase", "--replications", "2", "--c-values", "2"],
    ["metrics"],
], ids=["simulate", "study", "metrics"])
def test_negative_seed_exit_code(argv, tmp_path, capsys):
    """A negative seed is a config error before any generator is derived,
    whether or not the command draws random numbers."""
    rc = cli.main([*argv, "--seed", "-1", *(
        ["--out-dir", str(tmp_path)] if argv[0] == "study" else [])])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: base_seed")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("study", ["delay", "ase", "design-insight"])
@pytest.mark.parametrize("c_values", ["2.5,2.9", "0,2", "-1", "2,x", ",",
                                      "5,2,5"])
def test_study_rejects_bad_cluster_counts(study, c_values, tmp_path, capsys):
    """Cluster counts must be positive integers, none truncated, on a
    non-empty, strictly increasing grid."""
    rc = cli.main(["study", "--study", study, "--c-values", c_values,
                   "--replications", "2", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: c_values")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("study,option,values", [
    ("design-insight", "--v-values", "nan"),
    ("design-insight", "--v-values", "800,400"),
    ("delay", "--d0-values", "1200,1200"),
    ("ase", "--d0-values", "inf"),
    ("delay", "--d0-values", ","),
    ("delay", "--d0-values", "abc"),
])
def test_study_rejects_bad_distance_grids(study, option, values, tmp_path,
                                          capsys):
    """No repeated, unordered, empty or non-finite d0/v grid writes rows."""
    rc = cli.main(["study", "--study", study, "--c-values", "2",
                   option, values, "--replications", "2",
                   "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    grid = option[2:].replace("-", "_")
    assert len(err) == 1 and err[0].startswith(f"error: config: {grid}")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("study", ["delay", "ase"])
@pytest.mark.parametrize("d0", ["0", "100", "40,400"])
def test_study_rejects_a_d0_inside_the_deployment(study, d0, tmp_path,
                                                  capsys):
    """A d0 grid value at or inside region_radius + radius_r (150 m at
    the defaults) is the scenario's own `d0_m` error, naming the value,
    not an error of the closed form's geometry naming `v_norm`."""
    rc = cli.main(["study", "--study", study, "--d0-values", d0,
                   "--c-values", "2", "--replications", "2",
                   "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    bad = float(d0.split(",")[0])
    assert len(err) == 1 and err[0].startswith("error: config: d0_m:")
    assert err[0].endswith(f"got {bad}") and "v_norm" not in err[0]
    assert not list(tmp_path.iterdir())


# The grid flags each study takes.
_STUDY_GRIDS = {
    "validation-coverage": ("--v-values",),
    "validation-success": ("--r-values",),
    "design-insight": ("--c-values", "--v-values"),
    "delay": ("--d0-values", "--c-values"),
    "ase": ("--d0-values", "--c-values"),
}


@pytest.mark.parametrize("study,flag", [
    (study, flag) for study, takes in _STUDY_GRIDS.items()
    for flag in ("--v-values", "--r-values", "--c-values", "--d0-values")
    if flag not in takes])
def test_study_rejects_grid_flags_it_does_not_take(study, flag, tmp_path,
                                                   capsys):
    """A grid flag the chosen study does not sweep is a config error that
    names the flag, not a flag ignored while the default grid runs."""
    rc = cli.main(["study", "--study", study, flag, "2",
                   "--replications", "2", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: {flag}:")
    assert not list(tmp_path.iterdir())


def test_delay_study_writes_infinite_analytic_delay(tmp_path, capsys):
    """At an SNR threshold no relay decodes, p_suc = 0 and the analytic
    delay diverges: the delay study writes `inf` in every analytic row,
    with every simulated row undelivered, and exits 0; `metrics` prints
    the same `inf`."""
    rc = cli.main(["study", "--study", "delay", "--gamma", "1e12",
                   "--replications", "20", "--out-dir", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "delay.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    analytic = [row for row in rows if row["scheme"] == "analytic"]
    assert len(analytic) == 9 and all(row["mean"] == "inf"
                                      for row in analytic)
    assert all(float(row["mean"]) == 0.0 for row in rows
               if row["metric"].startswith("delivery_ratio"))
    capsys.readouterr()
    assert cli.main(["metrics", "--gamma", "1e12"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[3] == "inf"


def test_ase_study_writes_only_the_schemes_asked_for(tmp_path):
    """`--schemes` selects the ase study's simulated rows, in its order,
    and each keeps the value it has in the three-scheme run."""
    def rows(*schemes):
        out = tmp_path / "-".join(schemes or ("all",))
        argv = ["study", "--study", "ase", "--replications", "5",
                "--d0-values", "400", "--c-values", "2", "--out-dir",
                str(out)]
        assert cli.main([*argv, *(("--schemes", ",".join(schemes))
                                  if schemes else ())]) == 0
        with open(out / "ase.csv", newline="") as fh:
            return {row["scheme"]: row for row in csv.DictReader(fh)}

    full = rows()
    assert list(full) == ["clustering", "benchmark", "rnc", "analytic"]
    assert list(rows("clustering")) == ["clustering", "analytic"]
    subset = rows("rnc", "clustering")
    assert list(subset) == ["rnc", "clustering", "analytic"]
    assert all(subset[s] == full[s] for s in subset)


def test_ase_study_writes_no_analytic_delay(tmp_path):
    """At an SNR threshold no relay decodes, p_suc = 0: the ase study
    writes no delay, and its analytic ase rows are 0."""
    rc = cli.main(["study", "--study", "ase", "--gamma", "1e12",
                   "--replications", "20", "--out-dir", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "ase.csv", newline="") as fh:
        analytic = [row for row in csv.DictReader(fh)
                    if row["scheme"] == "analytic"]
    assert analytic and all(float(row["mean"]) == 0.0 for row in analytic)


@pytest.mark.parametrize("argv,flag", [
    (["distributions", "--kind", "peer", "--grid", "-1"], "--grid"),
    (["distributions", "--kind", "peer", "--grid", "1"], "--grid"),
    (["distributions", "--kind", "peer", "--samples", "-5"], "--samples"),
    (["topology", "--drops", "-3"], "--drops"),
    (["topology", "--drops", "0"], "--drops"),
])
def test_bad_counts_exit_code(argv, flag, tmp_path, capsys):
    """A count flag out of range is a config error naming the flag, and
    nothing is written."""
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: {flag}: ")
    assert not out.exists()


def test_missing_config_file_exit_code(capsys):
    rc = cli.main(["metrics", "--config", "/nonexistent/scenario.cfg"])
    assert rc == cli.EXIT_CONFIG
    assert "file not found" in capsys.readouterr().err


def test_numeric_and_integrity_exit_codes(capsys, monkeypatch):
    def numeric_failure(args):
        raise NumericError("quadrature blew up")
    monkeypatch.setattr(cli, "_cmd_metrics", numeric_failure)
    assert cli.main(["metrics"]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("error: numeric: ")

    def integrity_failure(args):
        raise IntegrityError("channel overlap")
    monkeypatch.setattr(cli, "_cmd_metrics", integrity_failure)
    assert cli.main(["metrics"]) == cli.EXIT_INTEGRITY
    assert capsys.readouterr().err.startswith("error: integrity: ")


def test_topology_writes_all_drops(tmp_path, capsys):
    out = tmp_path / "drops.csv"
    assert cli.main(["topology", "--drops", "2", "--out", str(out)]) == 0
    assert "100 UAV positions" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "drop_id,cluster_id,uav_id,x,y,h"
    assert len(lines) == 1 + 100
    assert {row.split(",")[0] for row in lines[1:]} == {"0", "1"}


@pytest.mark.parametrize("mode", ["fixed_total", "density"])
def test_topology_writes_the_delay_scenarios_first_drops(mode, tmp_path,
                                                         capsys):
    """`topology --drops 4` writes, row for row, the member points and
    clusters of replications 0 to 3 that the delay study simulates at its
    one grid point with 4 replications."""
    flags = ["--mode", mode, "--seed", "3", "--num-clusters", "2"]
    out = tmp_path / "drops.csv"
    assert cli.main(["topology", "--drops", "4", "--out", str(out),
                     *flags]) == 0
    capsys.readouterr()
    config = ScenarioConfig(mode=mode, base_seed=3, num_clusters=2,
                            replications=4)
    simulated = [None] * 4
    continue_ = experiments._continue

    def recorded(config, batch, *rest):
        for plan, rows, starts, *_ in batch.shapes:
            _, xy = experiments._drop_points(
                plan, experiments._take(batch.uniforms, starts,
                                        plan.read.size))
            for rep, points in zip(rows.tolist(), xy):
                simulated[rep] = points, plan.cluster_of
        return continue_(config, batch, *rest)

    with mock.patch.object(experiments, "_continue", recorded):
        experiments._replicated("delay", config, (0, 0))
    expected = []
    for drop_id, (xy, cluster_of) in enumerate(simulated):
        for row, ((x, y), cid) in enumerate(zip(xy, cluster_of.tolist())):
            uid = row - cluster_of.tolist().index(cid)
            expected.append(f"{drop_id},{cid},{uid},{x:.10g},{y:.10g},20")
    assert out.read_text().splitlines()[1:] == expected
    assert sum(len(xy) for xy, _ in simulated) > 0


def _simulated_rows(path):
    """(delivered flags, delivery times, via_broadcast flags) of a
    `simulate --out` CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    delivered = np.array([r["delivered"] == "1" for r in rows], dtype=bool)
    times = np.array([float(r["delivery_time_ms"] or "nan") for r in rows])
    via = np.array([r["via_broadcast"] == "1" for r in rows], dtype=bool)
    return delivered, times, via


@pytest.mark.parametrize("mode", ["fixed_total", "density"])
@pytest.mark.parametrize("scheme", ["clustering", "benchmark", "rnc"])
def test_simulate_is_replication_zero_of_the_delay_study(scheme, mode,
                                                         tmp_path, capsys):
    """`simulate --out` writes the epoch of replication 0 that `study
    --study delay` averages at its one grid point with one replication
    and the same other flags: its delivered members give that row's
    delivery ratio, and its delivery times, printed to 17 significant
    digits so that they read back as the same doubles, its mean delay,
    both bit for bit.  The rows are those of `replay_epoch`, whose own
    times give the row's mean delay bit for bit."""
    flags = ["--mode", mode, "--seed", "5", "--d0", "1200",
             "--num-clusters", "2"]
    out = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--scheme", scheme, "--out", str(out),
                     *flags]) == 0
    capsys.readouterr()
    config = ScenarioConfig(mode=mode, base_seed=5, d0_m=1200.0,
                            num_clusters=2, replications=1)
    delay, ratio = experiments._replicated("delay", config,
                                           (0, 0))[scheme][0]
    delivered, times, via = _simulated_rows(out)
    assert delivered.size > 0 and delivered.any()
    assert np.count_nonzero(delivered) / delivered.size == ratio
    amortized = ((config.sim.rnc_generation_size - 1)
                 * config.sim.packet_len_ms if scheme == "rnc" else 0.0)
    assert (times[delivered] - amortized).mean() == delay
    outcome = experiments.replay_epoch(config, scheme)
    assert outcome.delivered.tolist() == delivered.tolist()
    assert outcome.via_broadcast.tolist() == via.tolist()
    assert outcome.delivery_time_ms[delivered].tobytes() == \
        times[delivered].tobytes()
    own = outcome.delivery_time_ms[outcome.delivered] - amortized
    assert own.mean() == delay


def test_simulate_is_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    assert cli.main(["simulate", "--scheme", "clustering", "--seed", "7",
                     "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--scheme", "clustering", "--seed", "7",
                     "--out", str(out_b)]) == 0
    assert cli.main(["simulate", "--scheme", "clustering", "--seed", "9",
                     "--out", str(out_c)]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() != out_c.read_bytes()
    assert summary[0] == summary[1] != summary[2]
    assert summary[0].startswith("scheme=clustering uavs=50 ")
    header = out_a.read_text().splitlines()[0]
    assert header == "uav_id,cluster_id,delivered,via_broadcast,delivery_time_ms"


def test_simulate_event_log(tmp_path, capsys):
    log = tmp_path / "events.csv"
    assert cli.main(["simulate", "--scheme", "benchmark", "--seed", "3",
                     "--event-log", str(log)]) == 0
    capsys.readouterr()
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "time,actor,event_kind,packet_id,cluster_id,collided"
    assert len(lines) > 1
    kinds = {row.split(",")[2] for row in lines[1:]}
    assert "bs_broadcast_end" in kinds


def test_event_log_rechecks_reply_invariant(tmp_path, capsys):
    """C09's reply/collision invariant from the event-log CSV alone: after
    each clean request a cluster sees at most one clean reply, and a
    collided frame shares its kind, cluster and end time with another
    collided frame while a clean one is alone there."""
    collided_kinds = set()
    for seed in range(1, 9):
        log = tmp_path / f"events_{seed}.csv"
        assert cli.main(["simulate", "--scheme", "clustering", "--seed",
                         str(seed), "--d0", "1200", "--num-clusters", "2",
                         "--event-log", str(log)]) == 0
        with open(log, newline="") as fh:
            rows = list(csv.DictReader(fh))
        frames = [r for r in rows if r["event_kind"] in
                  ("request_tx_end", "reply_tx_end")]
        assert {r["collided"] for r in rows} <= {"0", "1"}
        assert all(r["collided"] == "0" for r in rows if r not in frames)
        slots = Counter((r["event_kind"], r["cluster_id"], r["time"])
                        for r in frames)
        replies_since = {}
        for r in frames:
            collided = r["collided"] == "1"
            assert (slots[r["event_kind"], r["cluster_id"], r["time"]] > 1) \
                == collided
            if collided:
                collided_kinds.add(r["event_kind"])
            elif r["event_kind"] == "request_tx_end":
                replies_since[r["cluster_id"]] = 0
            else:
                replies_since[r["cluster_id"]] = \
                    replies_since.get(r["cluster_id"], 9) + 1
                assert replies_since[r["cluster_id"]] == 1
    capsys.readouterr()
    assert collided_kinds == {"request_tx_end", "reply_tx_end"}


def test_distributions_sampling_checks(capsys):
    assert cli.main(["distributions", "--kind", "center-offset",
                     "--samples", "5000"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("kind=center-offset samples=5000 ")
    fields = dict(part.split("=") for part in line.split())
    assert float(fields["empirical_ks_gap"]) < 0.05
    assert float(fields["sampler_ks_gap"]) < 0.05


def test_distributions_table_output(tmp_path, capsys):
    out = tmp_path / "peer.csv"
    assert cli.main(["distributions", "--kind", "peer", "--offset-a", "25",
                     "--samples", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "distance_m,pdf,cdf"
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert data.shape == (513, 3)
    assert abs(np.trapezoid(data[:, 1], data[:, 0]) - 1.0) < 1e-3
    assert data[0, 2] == 0.0 and abs(data[-1, 2] - 1.0) < 1e-9


@pytest.mark.parametrize("kind,flag", [
    ("peer", "--v-norm"), ("center-offset", "--v-norm"),
    ("bs-member", "--offset-a"), ("center-offset", "--offset-a")])
def test_distributions_rejects_options_its_kind_does_not_take(
        kind, flag, tmp_path, capsys):
    """`--v-norm` places the BS of `bs-member` and `--offset-a` the
    transmitter of `peer`; given with another kind, each is a config error
    naming the flag, not an option ignored while the default runs."""
    out = tmp_path / "dist.csv"
    assert cli.main(["distributions", "--kind", kind, flag, "60",
                     "--samples", "0", "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: {flag}:")
    assert kind in err[0]
    assert not out.exists()


@pytest.mark.parametrize("offset", ["nan", "inf"])
def test_distributions_names_a_non_finite_offset(offset, capsys):
    """A NaN or infinite `--offset-a` exits 2 with an error that names
    `offset_a`, not the peer support it would have given."""
    assert cli.main(["distributions", "--kind", "peer",
                     "--offset-a", offset]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config: offset_a must lie in [0, radius_r]")


def test_study_command_writes_reproducible_table(tmp_path, capsys):
    out_dir = tmp_path / "results"
    argv = ["study", "--study", "validation-coverage", "--v-values", "400",
            "--replications", "2000", "--out-dir", str(out_dir)]
    assert cli.main(argv) == 0
    path = out_dir / "validation_coverage.csv"
    assert path.exists()
    first = path.read_bytes()
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert path.read_bytes() == first
    lines = first.decode().strip().splitlines()
    assert lines[0] == "study,sweep_param,sweep_value,scheme,metric,mean,stderr,n"
    assert len(lines) == 1 + 2  # theory + monte_carlo for the single point
    assert lines[2].endswith(",2000")


def test_study_design_insight(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert cli.main(["study", "--study", "design-insight",
                     "--c-values", "2,5", "--v-values", "400",
                     "--out-dir", str(out_dir)]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = (out_dir / "design_insight.csv").read_text().strip().splitlines()
    # per cluster count: p_suc plus (p_cov, p_req) for the single distance
    assert len(lines) == 1 + 2 * 3
