import ast
import collections
import itertools
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavcast import analysis, experiments, protocol
from uavcast.channel import (
    LinkKind,
    completion_rounds,
    decode_probability,
    decodes,
    mean_received_power,
)
from uavcast.config import ScenarioConfig
from uavcast.distributions import ClusterGeometry
from uavcast.errors import ParameterError
from uavcast.experiments import (
    _STUDY_IDS,
    DEFAULT_DESIGN_C_GRID,
    MetricRow,
    MetricTable,
    SweepSpec,
    _mean_stderr,
    _replicated,
    _rng,
    design_radius,
    run_ase_study,
    run_delay_study,
    run_design_insight_study,
    run_validation_study,
)
from uavcast.geometry import _bs_distances, _bs_site, cluster_peer_count
from uavcast.protocol import SCHEME_RUNNERS, SimParams, run_epochs

# The schemes in stream order: a delay-study BS scheme's later-rounds
# stream is keyed by its position here.
_SCHEME_ORDER = tuple(SCHEME_RUNNERS)


def test_sweep_spec_validation():
    SweepSpec("v_norm", (200.0, 400.0))
    with pytest.raises(ParameterError):
        SweepSpec("v_norm", ())
    with pytest.raises(ParameterError):
        SweepSpec("v_norm", (200.0, 200.0))
    with pytest.raises(ParameterError):
        SweepSpec("v_norm", (400.0, 200.0))
    with pytest.raises(ParameterError):
        SweepSpec("v_norm", (200.0, math.inf))


def test_mean_stderr_skips_nan():
    mean, stderr, n = _mean_stderr(np.array([1.0, np.nan, 3.0, np.nan]))
    assert mean == 2.0 and n == 2
    assert stderr == pytest.approx(np.std([1.0, 3.0], ddof=1) / math.sqrt(2))
    mean, stderr, n = _mean_stderr(np.array([np.nan, np.nan]))
    assert math.isnan(mean) and math.isnan(stderr) and n == 0
    mean, stderr, n = _mean_stderr(np.array([4.0]))
    assert mean == 4.0 and math.isnan(stderr) and n == 1
    # equal samples whose mean rounds to another double have no spread
    mean, stderr, n = _mean_stderr(np.full(2000, 0.0043923174227787605))
    assert mean == pytest.approx(0.0043923174227787605, rel=1e-15)
    assert stderr == 0.0 and n == 2000


def test_metric_table_select_value_and_csv(tmp_path):
    rows = [MetricRow("s", "x", 1.0, "a", "m", 0.5, 0.01, 10),
            MetricRow("s", "x", 2.0, "a", "m", 0.6, 0.01, 10),
            MetricRow("s", "x", 1.0, "b", "m", 0.7, 0.01, 10)]
    table = MetricTable(rows)
    assert len(table.select(scheme="a")) == 2
    assert table.value(scheme="b", sweep_value=1.0) == 0.7
    with pytest.raises(ParameterError):
        table.value(scheme="a")  # ambiguous
    with pytest.raises(ParameterError):
        table.value(scheme="missing")
    path = tmp_path / "table.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "study,sweep_param,sweep_value,scheme,metric,mean,stderr,n"
    assert lines[1] == "s,x,1,a,m,0.5,0.01,10"
    assert path.read_text() == table.csv_text()


def test_validation_study_rejects_unknown_kind():
    with pytest.raises(ParameterError):
        run_validation_study("delay", ScenarioConfig())


def test_validation_coverage_matches_theory():
    config = ScenarioConfig(replications=10_000)
    table = run_validation_study("coverage", config)
    theory = table.select(scheme="theory")
    sim = table.select(scheme="monte_carlo")
    assert len(theory) == len(sim) == 6
    means = [r.mean for r in theory]
    assert all(a > b for a, b in zip(means, means[1:]))
    for t, s in zip(theory, sim):
        assert t.sweep_param == s.sweep_param == "v_norm"
        assert s.n == 10_000 and s.stderr > 0.0
        assert abs(s.mean - t.mean) < 4.0 * s.stderr


def test_validation_success_matches_theory():
    config = ScenarioConfig(replications=10_000)
    table = run_validation_study("success", config)
    theory = table.select(scheme="theory")
    sim = table.select(scheme="monte_carlo")
    assert len(theory) == len(sim) == 5
    means = [r.mean for r in theory]
    assert all(a > b for a, b in zip(means, means[1:]))
    for t, s in zip(theory, sim):
        assert t.metric == s.metric == "p_suc"
        assert abs(s.mean - t.mean) < 4.0 * s.stderr


def test_validation_single_point_sweep():
    table = run_validation_study("coverage", ScenarioConfig(replications=2000),
                                 SweepSpec("v_norm", (800.0,)))
    assert len(table.rows) == 2
    assert table.value(scheme="theory") == pytest.approx(0.9307929356717329,
                                                         rel=1e-9)


def test_validation_stderr_scales_with_replications():
    small = run_validation_study("coverage", ScenarioConfig(replications=2500),
                                 SweepSpec("v_norm", (800.0,)))
    large = run_validation_study("coverage", ScenarioConfig(replications=10_000),
                                 SweepSpec("v_norm", (800.0,)))
    ratio = (small.select(scheme="monte_carlo")[0].stderr
             / large.select(scheme="monte_carlo")[0].stderr)
    assert 1.6 < ratio < 2.5  # nominal factor 2 for a 4x sample increase


def test_design_radius_preserves_density():
    r = design_radius(50, 5, 1e-3)
    assert r == pytest.approx(math.sqrt(50 / (5 * 1e-3 * math.pi)), rel=1e-12)
    assert (50 / 5) / (math.pi * r ** 2) == pytest.approx(1e-3, rel=1e-12)
    with pytest.raises(ParameterError):
        design_radius(50, 0, 1e-3)
    with pytest.raises(ParameterError):
        design_radius(50, 5, 0.0)


def test_design_insight_close_range_improves_with_more_clusters():
    table = run_design_insight_study(ScenarioConfig())
    p_req = [table.value(sweep_value=float(c), metric="p_req_v400")
             for c in DEFAULT_DESIGN_C_GRID]
    assert all(b >= a for a, b in zip(p_req, p_req[1:]))
    assert all(0.0 < p <= 1.0 for p in p_req)


def test_design_insight_consistent_with_direct_formulas():
    config = ScenarioConfig()
    table = run_design_insight_study(config, c_values=(5,), v_values=(800.0,))
    r5 = design_radius(50, 5, 1e-3)
    p_suc = analysis.transmission_success_probability(r5, config.radio)
    assert table.value(metric="p_suc") == pytest.approx(p_suc, rel=1e-12)
    geom = ClusterGeometry(v_norm=800.0, radius_r=r5, h1=10.0, h2=20.0)
    p_cov = analysis.coverage_probability(geom, config.radio)
    assert table.value(metric="p_cov_v800") == pytest.approx(p_cov, rel=1e-12)
    p_req = analysis.request_success_probability(p_cov, p_suc, 1e-3, r5)
    assert table.value(metric="p_req_v800") == pytest.approx(p_req, rel=1e-12)


def test_design_insight_marks_infeasible_grid_points():
    # 60 clusters of <1 expected member each: every metric degenerates
    table = run_design_insight_study(ScenarioConfig(), c_values=(60,),
                                     v_values=(400.0,))
    assert math.isnan(table.value(sweep_value=60.0, metric="p_req_v400"))


def test_delay_study_shape_and_analytic_rows():
    config = ScenarioConfig(replications=40)
    table = run_delay_study(config, d0_values=(400.0,), c_values=(2,))
    delay_rows = table.select(metric="delay_ms_d0_400")
    assert sorted(r.scheme for r in delay_rows) == \
        ["analytic", "benchmark", "clustering", "rnc"]
    for r in delay_rows:
        if r.scheme == "analytic":
            assert r.n == 0 and r.stderr == 0.0
            assert r.mean == pytest.approx(10.13338, abs=0.001)
        else:
            assert r.n == 40
            assert 9.0 < r.mean < 40.0
    ratios = table.select(metric="delivery_ratio_d0_400")
    assert len(ratios) == 3
    assert all(0.9 < r.mean <= 1.0 for r in ratios)


def test_ase_study_rnc_rows_mirror_benchmark():
    config = ScenarioConfig(replications=40)
    table = run_ase_study(config, d0_values=(800.0,), c_values=(2, 5))
    for c in (2.0, 5.0):
        bench = table.select(scheme="benchmark", sweep_value=c)[0]
        rnc = table.select(scheme="rnc", sweep_value=c)[0]
        assert (rnc.mean, rnc.stderr, rnc.n) == \
            (bench.mean, bench.stderr, bench.n)
        clustering = table.select(scheme="clustering", sweep_value=c)[0]
        assert clustering.mean >= bench.mean
        upper = 1e-3 * math.log2(21.0)
        assert 0.0 < bench.mean <= upper + 1e-12
        assert clustering.mean <= upper + 1e-12


@pytest.mark.parametrize("c_values", [(2.5,), (2, 2.9), (0,), (-2,),
                                      (float("nan"),), (float("inf"),), ("2",)])
@pytest.mark.parametrize("study", [run_delay_study, run_ase_study,
                                   run_design_insight_study])
def test_studies_reject_bad_cluster_counts(study, c_values):
    with pytest.raises(ParameterError, match="^c_values"):
        study(ScenarioConfig(replications=2), c_values=c_values)


@pytest.mark.parametrize("values", [(), (1200.0, 1200.0), (800.0, 400.0),
                                    (float("nan"),), (400.0, float("inf"))],
                         ids=["empty", "repeated", "decreasing", "nan", "inf"])
@pytest.mark.parametrize("study,grid", [(run_delay_study, "d0_values"),
                                        (run_ase_study, "d0_values"),
                                        (run_design_insight_study, "v_values")])
def test_studies_reject_bad_distance_grids(study, grid, values):
    """d0 and v grids follow the SweepSpec rule: a repeated value would
    write its rows twice, and NaN would name rows `p_cov_vnan`."""
    with pytest.raises(ParameterError, match=f"^{grid}"):
        study(ScenarioConfig(replications=2), c_values=(2,), **{grid: values})


def test_studies_accept_integral_cluster_counts():
    """numpy ints and integral floats name the same grid as Python ints."""
    config = ScenarioConfig(replications=5)
    ints = run_ase_study(config, d0_values=(800.0,), c_values=(2, 5))
    assert run_ase_study(config, d0_values=(800.0,),
                         c_values=(np.int64(2), 5.0)).csv_text() == \
        ints.csv_text()


def test_studies_are_deterministic_in_base_seed():
    config = ScenarioConfig(replications=30)
    kwargs = dict(d0_values=(800.0,), c_values=(5,))
    assert run_delay_study(config, **kwargs).csv_text() == \
        run_delay_study(config, **kwargs).csv_text()
    reseeded = config.replace(base_seed=2)
    assert run_delay_study(config, **kwargs).csv_text() != \
        run_delay_study(reseeded, **kwargs).csv_text()
    assert run_validation_study(
        "success", ScenarioConfig(replications=500),
        SweepSpec("radius_r", (50.0,))).csv_text() == \
        run_validation_study(
        "success", ScenarioConfig(replications=500),
        SweepSpec("radius_r", (50.0,))).csv_text()


def _numpy_generator(base_seed, key):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(base_seed, spawn_key=key)))


def test_rng_generators_are_independent():
    """`_rng` hands out a generator of its own: drawing from one leaves
    another, derived earlier, where numpy's would be."""
    a, b = _rng(1, (7,)), _rng(1, (6, 3))
    a.random(100)
    assert b.random(4).tobytes() == _numpy_generator(1, (6, 3)).random(4).tobytes()
    assert a.bit_generator is not b.bit_generator
    with pytest.raises(ParameterError):
        _rng(-1, (7,))


def _replays(study, scheme, config, key):
    """Each replication's values, rebuilt one replication at a time from
    the stream layout `_scenario` documents, as (Poisson count or None,
    block of uniforms, round-1 fading row, later-rounds row or None,
    recovery generator at the replication's first output).  Under spawn
    keys (study, *key, 0, s), stream 0 holds every Poisson count (density
    mode), then each drop's 2 (clusters + members) uniforms; stream 1 each
    non-empty drop's n round-1 exponentials when a packet fits the budget;
    stream 2 replication r's recovery blocks from output r 2**64 on.  A
    delay-study BS scheme's stream (study, *key, scheme, 1) holds, for the
    drops that draw round-1 exponentials, n g more, g being the receptions
    a member needs.
    """
    prefix = (_STUDY_IDS[study], *key)
    drops, fading = (_rng(config.base_seed, (*prefix, 0, s)) for s in (0, 1))
    sim, reps = config.sim, config.replications
    fits = sim.packet_len_ms <= sim.max_time_ms
    later, g = None, 0
    if study == "delay" and scheme != "clustering":
        later = _rng(config.base_seed,
                     (*prefix, _SCHEME_ORDER.index(scheme), 1))
        g = sim.rnc_generation_size if scheme == "rnc" else 1
    counts = [None] * reps
    if config.mode == "density":
        mean = config.lambda_per_m2 * math.pi * config.region_radius_m ** 2
        counts = [int(drops.poisson(mean)) for _ in range(reps)]
    per_cluster = cluster_peer_count(config.lambda_off_per_m2,
                                     config.radius_r_m)
    for rep, count in enumerate(counts):
        k, n = ((config.num_clusters, config.total_uavs) if count is None
                else (count, count * per_cluster))
        uniforms = drops.random(2 * (k + n))
        row = fading.standard_exponential(n if fits else 0)
        later_row = (None if later is None
                     else later.standard_exponential((n if fits else 0, g)))
        recovery = _rng(config.base_seed, (*prefix, 0, 2))
        recovery.bit_generator.advance(rep << 64)
        yield count, uniforms, row, later_row, recovery


def _disk(block, n, radius, center=None):
    """n points uniform on a disk from the next 2 n values of the iterator
    `block`: n radii radius * sqrt(u), then n angles 2 pi u, about
    `center` (the disk's own centre when None)."""
    u = np.fromiter(itertools.islice(block, 2 * n), dtype=float, count=2 * n)
    rho, theta = radius * np.sqrt(u[:n]), 2.0 * np.pi * u[n:]
    if center is None:
        return np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])
    return np.column_stack([center[0] + rho * np.cos(theta),
                            center[1] + rho * np.sin(theta)])


def _oracle_drop(config, count, uniforms):
    """A drop rebuilt disk by disk from its block of uniforms: the centres
    on the region disk, then each cluster's members about its centre, in
    cluster order (fixed_total: `total_uavs` split as evenly as possible,
    the remainder to the first clusters; density: `count` clusters of
    `cluster_peer_count` members).  Returns (member points, bounds)."""
    if count is None:
        k = config.num_clusters
        base, extra = divmod(config.total_uavs, k)
        sizes = [base + (c < extra) for c in range(k)]
    else:
        k = count
        sizes = [cluster_peer_count(config.lambda_off_per_m2,
                                    config.radius_r_m)] * k
    block = iter(uniforms.tolist())
    centers = _disk(block, k, config.region_radius_m)
    members = [_disk(block, size, config.radius_r_m, center)
               for center, size in zip(centers, sizes)]
    assert next(block, None) is None
    xy = np.vstack(members) if members else np.empty((0, 2))
    return xy, tuple(np.cumsum([0, *sizes]).tolist())


def _oracle_epochs(study, scheme, config, key):
    """Each replication's epoch, rebuilt from `_replays`: its drop
    (`_oracle_drop`), round 1 decided on its fading row, a BS scheme's
    completion rounds read from its later-rounds row, and `run_epochs`
    on a batch of one drawing recovery from its generator.  A BS scheme
    of the ase study has no later rounds: a member served in round 1
    completes then, the others never.  Yields (mean BS powers, round-1
    decisions, delivery times, via_broadcast marks), rows of one epoch."""
    radio, sim = config.radio, config.sim
    for count, uniforms, row, later, recovery in _replays(study, scheme,
                                                          config, key):
        xy, bounds = _oracle_drop(config, count, uniforms)
        n = len(xy)
        power = mean_received_power(
            LinkKind.BS_TO_UAV, _bs_distances(xy, *_bs_site(config)), radio)
        first = np.zeros(n, dtype=bool)
        if row.size:
            first = decodes(power, row, radio)
        rounds = first
        if scheme != "clustering":
            rounds = np.where(first, 1.0, np.inf)
            if later is not None:
                rounds = np.full(n, np.inf)
                if later.size:
                    rounds = completion_rounds(
                        first[None], decode_probability(power, radio)[None],
                        later.shape[1], later[None])[0]
        delivery, via_broadcast = run_epochs(
            scheme, xy[None], bounds, rounds[None], radio, sim,
            lambda _, out: recovery.random(out=out))[:2]
        yield power, first, delivery[0], via_broadcast[0]


def _oracle_metrics(study, scheme, config, key):
    """`_oracle_epochs` reduced here to (mean delay, delivery ratio) in the
    delay study, the ase in the ase study.  The ase counts delivered
    members for clustering, members served by the first broadcast
    otherwise."""
    sim = config.sim
    rate_density = config.lambda_off_per_m2 * math.log2(
        1.0 + config.radio.snr_threshold)
    rows = []
    for _, _, delivery, via_broadcast in _oracle_epochs(study, scheme,
                                                        config, key):
        n = delivery.size
        delivered = ~np.isnan(delivery)
        delays = delivery[delivered]
        if scheme == "rnc":
            delays = delays - (sim.rnc_generation_size - 1) * sim.packet_len_ms
        if study == "ase":
            served = delivered if scheme == "clustering" else via_broadcast
            rows.append(np.count_nonzero(served) / n * rate_density if n
                        else math.nan)
        else:
            rows.append((delays.mean() if delays.size else math.nan,
                         np.count_nonzero(delivered) / n if n
                         else math.nan))
    return np.array(rows, dtype=float)


# Drops of the default 50 members in one batch.
_WIDTH = experiments._BATCH_MEMBERS // 50

# (mode, lambda_per_m2, max_time_ms, replications, overrides): one batch,
# a full batch and one past it; density drops of several shapes per batch,
# and at lambda 1e-5 mostly empty (mean 0.31 clusters, so 65 drops are all
# empty with chance 1e-9); a budget below one packet; one cluster
# far out without caching, whose recoveries outlast one block of uniforms;
# members that never complete a BS round: the default radio's per-round
# success q = exp(-theta N / P) is exactly 0 (lam = 0) at 30 km and a
# subnormal 8.9e-322 at 28 km, so across a 28 km drop it is 0 for some
# members and subnormal for others.
_BATCH_CASES = [
    ("fixed_total", 1e-4, 10_000.0, _WIDTH + 1, {}),
    ("fixed_total", 1e-4, 40.0, 1, {}),
    ("fixed_total", 1e-4, 5.0, _WIDTH, {}),
    ("density", 1e-4, 10_000.0, 65, {}),
    ("density", 1e-5, 10_000.0, 65, {}),
    ("density", 1e-4, 5.0, 65, {}),
    ("fixed_total", 1e-4, 10_000.0, 20,
     {"num_clusters": 1, "d0_m": 1500.0, "opportunistic_caching": False}),
    ("fixed_total", 1e-4, 10_000.0, 20, {"d0_m": 30_000.0}),
    ("fixed_total", 1e-4, 10_000.0, 20, {"d0_m": 28_000.0}),
]


@pytest.mark.parametrize("study,scheme", [("delay", "clustering"),
                                          ("delay", "benchmark"),
                                          ("delay", "rnc"),
                                          ("ase", "clustering"),
                                          ("ase", "benchmark")])
def test_replicated_equals_independent_generators(study, scheme):
    """The batched run gives every replication, bit for bit, what its
    values in the documented stream layout (`_replays`) give it through
    a drop rebuilt disk by disk and `run_epochs` on a batch of one, in both
    topology modes, with empty drops, with a packet over the time budget, across batch boundaries, with members
    that never complete and, for clustering, with epochs that draw a second
    block of uniforms."""
    key = (1, 2)
    run_epochs = experiments.run_epochs
    for mode, lambda_per_m2, max_time_ms, reps, overrides in _BATCH_CASES:
        fields = {"num_clusters": 2, "d0_m": 1200.0, **overrides}
        caching = fields.pop("opportunistic_caching", True)
        config = ScenarioConfig(replications=reps, base_seed=9, mode=mode,
                                lambda_per_m2=lambda_per_m2, **fields,
                                sim=SimParams(max_time_ms=max_time_ms,
                                              opportunistic_caching=caching))
        blocks = collections.Counter()  # blocks drawn per (call, epoch)
        calls = itertools.count()

        def counted(scheme, xy, bounds, first, radio, sim, draw, *rest):
            call = next(calls)

            def recorded(e, out):
                blocks[call, e] += 1
                draw(e, out)
            return run_epochs(scheme, xy, bounds, first, radio, sim,
                              recorded, *rest)

        with mock.patch.object(experiments, "run_epochs", counted):
            got = _replicated(study, config, key)[scheme]
        expected = _oracle_metrics(study, scheme, config, key)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), (mode, lambda_per_m2,
                                                     max_time_ms, reps)
        if mode == "density" and lambda_per_m2 == 1e-5:
            # some drops are empty and some are not
            column = got if study == "ase" else got[:, 1]
            assert 0 < np.isnan(column).sum() < reps
        if overrides.get("num_clusters") == 1 and scheme == "clustering":
            # some epoch outlasted its first block
            assert max(blocks.values()) > 1
        if overrides.get("d0_m", 0.0) > 20_000.0 and study == "delay":
            # some member ends undelivered
            assert np.any(got[:, 1] < 1.0)


def test_experiments_uses_only_public_protocol_names():
    """`experiments` reaches the epoch engine through `protocol`'s public
    names: no `_`-prefixed name is imported from it or read off it."""
    tree = ast.parse(Path(experiments.__file__).read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (
                "protocol", "uavcast.protocol"):
            private += [a.name for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "protocol"
              and node.attr.startswith("_")):
            private.append(node.attr)
    assert private == []


class _Stop(Exception):
    pass


@given(reads=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 40)),
                      min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_recovery_reads_jump_from_the_stream_position(reads):
    """`_replicated`'s recovery reader jumps from wherever the stream is,
    ahead or behind, and serves replication r's reads in order from output
    r 2**64 on: the values a fresh generator gives after `advance` from
    the stream's start, for any order of (replication, count) reads."""
    config = ScenarioConfig(replications=6, base_seed=8)

    def reader(config, drops, schemes, recover_at):
        done = collections.Counter()
        for rep, count in reads:
            got = np.empty(count)
            recover_at(rep, got)
            fresh = _rng(config.base_seed, (_STUDY_IDS["delay"], 3, 1, 0, 2))
            fresh.bit_generator.advance((rep << 64) + done[rep])
            assert got.tobytes() == fresh.random(count).tobytes()
            done[rep] += count
        raise _Stop

    with mock.patch.object(experiments, "_continue", reader), \
            pytest.raises(_Stop):
        _replicated("delay", config, (3, 1))


@pytest.mark.parametrize("mode,lambda_per_m2,budget", [
    ("fixed_total", 1e-4, 50),   # batches of one drop of 50 members
    ("fixed_total", 1e-4, 350),  # batches of 7
    ("density", 1e-4, 100),      # ragged batches of mixed shape
    ("density", 1e-6, 4),        # mostly empty drops, one member each
])
def test_replicated_does_not_depend_on_batch_budget(mode, lambda_per_m2,
                                                    budget):
    """Each replication's values sit at fixed places in its scenario's
    streams, and the BS schemes lay out each row of a batch on its own,
    so a small member budget gives the metrics of the default budget, bit
    for bit; and batches hold as many drops as the budget says."""
    config = ScenarioConfig(replications=40, base_seed=5, d0_m=1200.0,
                            num_clusters=2, mode=mode,
                            lambda_per_m2=lambda_per_m2)
    wide = {study: _replicated(study, config, (0, 1))
            for study in ("ase", "delay")}
    assert budget < experiments._BATCH_MEMBERS
    continue_ = experiments._continue
    groups = []  # (drop shape, replications) of every group of both calls

    def recorded(config, drops, schemes, recover_at):
        groups.append((drops.plan.bounds, drops.rows.tolist()))
        return continue_(config, drops, schemes, recover_at)

    with mock.patch.object(experiments, "_BATCH_MEMBERS", budget), \
            mock.patch.object(experiments, "_continue", recorded):
        for study, metrics in wide.items():
            narrow = _replicated(study, config, (0, 1))
            assert list(narrow) == list(metrics)
            for scheme, values in metrics.items():
                assert narrow[scheme].tobytes() == values.tobytes(), (
                    study, scheme)
    widths = [len(rows) for _, rows in groups]
    if mode == "fixed_total":
        per_batch = budget // 50
        assert widths == 2 * ([per_batch] * (40 // per_batch) + (
            [40 % per_batch] if 40 % per_batch else []))
    elif lambda_per_m2 == 1e-4:
        # a shape recurs in several batches, and a batch mixes shapes
        assert len(groups) > len({bounds for bounds, _ in groups})
        assert any(rows != list(range(rows[0], rows[-1] + 1))
                   for _, rows in groups)
    else:
        # empty drops fill batches too
        empty = [len(rows) for bounds, rows in groups if bounds == (0,)]
        assert max(empty) == budget and sum(empty) > budget


_BUDGET_CONFIGS = {
    mode: ScenarioConfig(replications=40, base_seed=3, d0_m=1200.0,
                         num_clusters=2, mode=mode, lambda_per_m2=1e-4)
    for mode in ("fixed_total", "density")}
_DEFAULT_BUDGET_OUTPUTS = {}


def _output_bytes(study, config, key):
    return {scheme: values.tobytes()
            for scheme, values in _replicated(study, config, key).items()}


@given(budget=st.integers(1, 8192),
       mode=st.sampled_from(sorted(_BUDGET_CONFIGS)))
@example(budget=1, mode="density")
@settings(max_examples=25, deadline=None)
def test_replicated_output_does_not_depend_on_member_budget(budget, mode):
    """Any member budget from 1 to the default gives every study and
    scheme the default budget's output, byte for byte, in both modes."""
    config = _BUDGET_CONFIGS[mode]
    for study in ("delay", "ase"):
        if (mode, study) not in _DEFAULT_BUDGET_OUTPUTS:
            _DEFAULT_BUDGET_OUTPUTS[mode, study] = _output_bytes(
                study, config, (2, 0))
    with mock.patch.object(experiments, "_BATCH_MEMBERS", budget):
        for study in ("delay", "ase"):
            assert _output_bytes(study, config, (2, 0)) == \
                _DEFAULT_BUDGET_OUTPUTS[mode, study], study


def _traced_peak(study, config):
    """Peak traced allocation of one `_replicated` call, after a first
    call has warmed the caches."""
    _replicated(study, config, (0, 0))
    tracemalloc.start()
    try:
        _replicated(study, config, (0, 0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_replicated_memory_does_not_grow_with_replications():
    """Batching bounds the allocations of a `_replicated` call: its
    traced peak over ten batches stays within 1.5x of the peak over one."""
    def peak(reps):
        return _traced_peak("ase", ScenarioConfig(replications=reps,
                                                  d0_m=400.0))

    assert peak(10 * _WIDTH) <= 1.5 * peak(_WIDTH)


@pytest.mark.parametrize("scheme", ["clustering", "rnc"])
def test_replicated_memory_is_bounded_in_members(scheme):
    """A batch holds about `_BATCH_MEMBERS` members whatever the drop
    size, so over one batch's worth of 50-member replications a
    delay-study call at 2,000 members peaks within 1.2x of its peak at
    50 (1.04x measured for clustering, 1.00x for RNC).  Batches of a
    fixed replication count would hold 40 times the members, and peak
    about 37 times higher; a clustering recovery that kept two block
    buffers alive at once peaked 1.38x higher."""
    def peak(total_uavs):
        return _traced_peak("delay", ScenarioConfig(
            replications=_WIDTH, total_uavs=total_uavs, d0_m=1200.0,
            num_clusters=2, schemes=(scheme,)))

    assert peak(2000) <= 1.2 * peak(50)


@pytest.mark.parametrize("scheme", ["benchmark", "rnc"])
def test_replicated_bs_memory_is_linear_in_members(scheme):
    """The BS schemes rank members within each row by a running count
    (short listeners) and a sort (ACK order), so a delay-study call at
    4000 members peaks within 2.5x of its peak at 2000; a pairwise
    (epochs x members x members) comparison would quadruple it."""
    def peak(total_uavs):
        return _traced_peak("delay", ScenarioConfig(
            replications=2, total_uavs=total_uavs, d0_m=1200.0,
            schemes=(scheme,)))

    assert peak(4000) <= 2.5 * peak(2000)


@given(seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["fixed_total", "density"]),
       lambda_per_m2=st.sampled_from([1e-6, 1e-5, 1e-4]),
       d0=st.floats(400.0, 2500.0), num_clusters=st.integers(1, 10),
       max_time_ms=st.sampled_from([5.0, 10.0, 40.0, 10_000.0]))
@example(seed=0, mode="density", lambda_per_m2=1e-6, d0=800.0,
         num_clusters=1, max_time_ms=10_000.0)   # no cluster drawn
@example(seed=0, mode="fixed_total", lambda_per_m2=1e-4, d0=800.0,
         num_clusters=5, max_time_ms=5.0)        # packet over the budget
@settings(max_examples=150, deadline=None)
def test_first_broadcast_matches_full_benchmark(seed, mode, lambda_per_m2, d0,
                                                num_clusters, max_time_ms):
    """The ase study's benchmark rows, which count the members
    clustering's first broadcast serves, count the members a full
    benchmark epoch (`run_epochs`, with later rounds of its own) marks
    `via_broadcast` on the replication's values of the stream layout
    (`_replays`), and yield the full epoch's ase bit for bit (NaN for an
    empty drop).  Round 1 is decided on the mean BS powers of the drop
    rebuilt disk by disk."""
    config = ScenarioConfig(mode=mode, lambda_per_m2=lambda_per_m2, d0_m=d0,
                            num_clusters=num_clusters, base_seed=seed,
                            replications=3,
                            sim=SimParams(max_time_ms=max_time_ms))
    radio, key = config.radio, (0, 1)
    decided = []     # (power row, decision row) of every non-empty drop
    decide = experiments.decodes

    def recorded_decodes(power, fading, radio):
        got = decide(power, fading, radio)
        decided.extend((p.tobytes(), g.tolist()) for p, g in zip(power, got)
                       if p.size)
        return got

    with mock.patch.object(experiments, "decodes", recorded_decodes):
        ases = _replicated("ase", config, key)["benchmark"]

    rate_density = 1e-3 * math.log2(21.0)
    later = np.random.default_rng(seed)
    ref_served, ref_ases = [], []
    for count, uniforms, row, _, _ in _replays("ase", "benchmark", config,
                                               key):
        xy, bounds = _oracle_drop(config, count, uniforms)
        n = len(xy)
        power = mean_received_power(
            LinkKind.BS_TO_UAV, _bs_distances(xy, *_bs_site(config)), radio)
        first = decodes(power, row, radio) if row.size else np.zeros(n, bool)
        rounds = completion_rounds(
            first[None], decode_probability(power, radio)[None], 1,
            later.standard_exponential((1, n, 1)))
        via_broadcast = run_epochs("benchmark", xy[None], bounds, rounds,
                                   radio, config.sim, None)[1][0]
        served = int(np.count_nonzero(via_broadcast))
        if row.size:
            ref_served.append((power.tobytes(), served))
        ref_ases.append((served / n) * rate_density if n else math.nan)
    # round 1 is decided on the drops' own powers, serving the members the
    # full benchmark serves in round 1
    assert sorted((p, sum(g)) for p, g in decided) == sorted(ref_served)
    if max_time_ms < config.sim.packet_len_ms:
        assert not decided
        assert all(a == 0.0 or math.isnan(a) for a in ases)
    assert ases.tobytes() == np.array(ref_ases).tobytes()


@given(seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["fixed_total", "density"]),
       lambda_per_m2=st.sampled_from([1e-6, 1e-5, 1e-4]),
       d0=st.floats(400.0, 2500.0), num_clusters=st.integers(1, 10),
       max_time_ms=st.sampled_from([5.0, 10.0, 40.0, 10_000.0]))
@example(seed=0, mode="fixed_total", lambda_per_m2=1e-4, d0=800.0,
         num_clusters=5, max_time_ms=5.0)        # packet over the budget
@settings(max_examples=60, deadline=None)
def test_schemes_share_each_replications_first_broadcast(
        seed, mode, lambda_per_m2, d0, num_clusters, max_time_ms):
    """Every scheme runs on the same drop and round-1 fading: in each
    delay-study epoch the benchmark serves in round 1 the members
    clustering's broadcast serves, and in the ase study clustering's ase
    is at least the benchmark's in every replication, whose rows RNC's
    equal bit for bit."""
    config = ScenarioConfig(mode=mode, lambda_per_m2=lambda_per_m2, d0_m=d0,
                            num_clusters=num_clusters, base_seed=seed,
                            replications=4,
                            sim=SimParams(max_time_ms=max_time_ms))
    served = []  # (benchmark, clustering) via_broadcast of every group
    continue_ = experiments._continue

    def recorded(config, drops, schemes, recover_at):
        outcomes = continue_(config, drops, schemes, recover_at)
        served.append((outcomes["benchmark"][1], outcomes["clustering"][1]))
        return outcomes

    with mock.patch.object(experiments, "_continue", recorded):
        _replicated("delay", config, (0, 1))
    assert served
    for benchmark, clustering in served:
        assert benchmark.tolist() == clustering.tolist()
    ases = _replicated("ase", config, (0, 1))
    assert ases["rnc"].tobytes() == ases["benchmark"].tobytes()
    empty = np.isnan(ases["clustering"])
    assert empty.tolist() == np.isnan(ases["benchmark"]).tolist()
    assert np.all(ases["clustering"][~empty] >= ases["benchmark"][~empty])
    if max_time_ms < config.sim.packet_len_ms:
        assert not any(clustering.any() for _, clustering in served)


@pytest.mark.parametrize("mode", ["fixed_total", "density"])
def test_scheme_subsets_read_the_shared_streams(mode):
    """A scheme run alone gives, bit for bit, its metrics of the
    three-scheme run, since the shared streams do not depend on the
    schemes that read them; a delay scenario derives the three shared
    generators and one per BS scheme, an ase scenario the shared three."""
    config = ScenarioConfig(replications=40, base_seed=4, d0_m=1200.0,
                            num_clusters=2, mode=mode)
    key = (1, 0)
    derived = []
    rng = experiments._rng

    def counted(base_seed, key):
        derived.append(key)
        return rng(base_seed, key)

    with mock.patch.object(experiments, "_rng", counted):
        full = {study: _replicated(study, config, key)
                for study in ("delay", "ase")}
    delay, ase = _STUDY_IDS["delay"], _STUDY_IDS["ase"]
    assert derived == [(delay, *key, 0, 0), (delay, *key, 0, 1),
                       (delay, *key, 0, 2), (delay, *key, 1, 1),
                       (delay, *key, 2, 1), (ase, *key, 0, 0),
                       (ase, *key, 0, 1), (ase, *key, 0, 2)]
    assert list(full["delay"]) == list(config.schemes)
    assert list(full["ase"]) == list(_SCHEME_ORDER)
    for scheme in ("rnc", "clustering"):
        alone = config.replace(schemes=(scheme,))
        delays = _replicated("delay", alone, key)
        assert list(delays) == [scheme]
        assert delays[scheme].tobytes() == full["delay"][scheme].tobytes()
        ases = _replicated("ase", alone, key)
        assert ases[scheme].tobytes() == full["ase"][scheme].tobytes()


@pytest.mark.parametrize("mode,replications", [("fixed_total", 1),
                                               ("fixed_total", 7),
                                               ("density", 1)])
@pytest.mark.parametrize("scheme", ["clustering", "benchmark", "rnc"])
def test_replay_epoch_is_the_first_replication(scheme, mode, replications):
    """`replay_epoch` gives the mean delay and delivery ratio of the first
    replication of the delay study at key (0, 0), bit for bit: with one
    replication in both modes, and at any replication count in fixed_total
    mode, where the drops stream holds no Poisson counts."""
    config = ScenarioConfig(mode=mode, base_seed=6, d0_m=1200.0,
                            num_clusters=2, replications=replications)
    outcome = experiments.replay_epoch(config, scheme, collect_events=True)
    delivery = outcome.delivery_time_ms[outcome.delivered]
    if scheme == "rnc":
        delivery = delivery - ((config.sim.rnc_generation_size - 1)
                               * config.sim.packet_len_ms)
    row = _replicated("delay", config, (0, 0))[scheme][0]
    assert outcome.n_uavs > 0 and outcome.events
    assert np.array([delivery.mean(), outcome.delivered.mean()]).tobytes() \
        == row.tobytes()


def test_ase_study_without_clustering_runs_no_recovery():
    """The ase study's benchmark and RNC rows read round 1 alone, so
    without clustering among the schemes no clustering recovery runs, and
    their rows equal those of the three-scheme run bit for bit."""
    config = ScenarioConfig(replications=300, d0_m=1200.0, num_clusters=2)
    full = _replicated("ase", config, (0, 1))
    calls = []
    recover = protocol._recover

    def counted(*args, **kwargs):
        calls.append(1)
        return recover(*args, **kwargs)

    with mock.patch.object(protocol, "_recover", counted):
        for schemes in (("benchmark",), ("rnc", "benchmark")):
            alone = _replicated("ase", config.replace(schemes=schemes),
                                (0, 1))
            assert list(alone) == list(schemes)
            for scheme, values in alone.items():
                assert values.tobytes() == full[scheme].tobytes()
        assert calls == []
        _replicated("ase", config.replace(schemes=("clustering",)), (0, 1))
    assert calls
