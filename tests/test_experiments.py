import ast
import collections
import dataclasses
import functools
import itertools
import math
import tracemalloc
import weakref
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
    _grid,
    _mean_stderr,
    _proportion,
    _replicated,
    _rng,
    design_radius,
    run_ase_study,
    run_delay_study,
    run_design_insight_study,
    run_validation_study,
)
from uavcast.geometry import cluster_peer_count
from uavcast.protocol import SCHEME_RUNNERS, SimParams, run_epochs

# The schemes in stream order: a delay-study BS scheme's later-rounds
# stream is keyed by its position here.
_SCHEME_ORDER = tuple(SCHEME_RUNNERS)


def test_sweep_grid_validation():
    assert _grid("v_norm", [200.0, 400.0]) == (200.0, 400.0)
    with pytest.raises(ParameterError, match="^v_norm: empty sweep"):
        _grid("v_norm", ())
    with pytest.raises(ParameterError, match="^v_norm: .* strictly increasing"):
        _grid("v_norm", (200.0, 200.0))
    with pytest.raises(ParameterError, match="^v_norm: .* strictly increasing"):
        _grid("v_norm", (400.0, 200.0))
    with pytest.raises(ParameterError, match="^v_norm: .* finite"):
        _grid("v_norm", (200.0, math.inf))


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


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5000),
       share=st.floats(0.0, 1.0))
@example(seed=0, n=1, share=0.0)
@example(seed=0, n=1, share=1.0)
@example(seed=0, n=1000, share=0.0)
@example(seed=0, n=1000, share=1.0)
@settings(max_examples=200, deadline=None)
def test_proportion_matches_mean_stderr_of_the_trials(seed, n, share):
    """`_proportion(k, n)` of a 0/1 mask with k ones is
    `_mean_stderr(mask.astype(float))`: the mean bit for bit, the
    standard error within 4 ulp, 0 when k is 0 or n, NaN when n is 1."""
    ok = np.random.default_rng(seed).random(n) < share
    mean, stderr, count = _proportion(np.count_nonzero(ok), n)
    want_mean, want_stderr, want_count = _mean_stderr(ok.astype(float))
    assert mean == want_mean and count == want_count == n
    if n == 1:
        assert math.isnan(stderr) and math.isnan(want_stderr)
    else:
        assert abs(stderr - want_stderr) <= 4 * math.ulp(want_stderr)
        assert (stderr == 0.0) == (not 0 < np.count_nonzero(ok) < n)


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
                                 (800.0,))
    assert len(table.rows) == 2
    assert table.value(scheme="theory") == pytest.approx(0.9307929356717329,
                                                         rel=1e-9)


def test_validation_stderr_scales_with_replications():
    small = run_validation_study("coverage", ScenarioConfig(replications=2500),
                                 (800.0,))
    large = run_validation_study("coverage", ScenarioConfig(replications=10_000),
                                 (800.0,))
    ratio = (small.select(scheme="monte_carlo")[0].stderr
             / large.select(scheme="monte_carlo")[0].stderr)
    assert 1.6 < ratio < 2.5  # nominal factor 2 for a 4x sample increase


@pytest.mark.parametrize("kind,start", [("coverage", 800.0),
                                        ("success", 40.0)])
def test_validation_curves_are_pathwise_monotone(kind, start):
    """A validation study reuses one draw at every sweep value, and each
    trial's distance grows with the value, so its Monte-Carlo rows never
    rise along the sweep, even over 40 values 1 m apart at 2,000 trials,
    where draws of their own would rise between neighbours about as often
    as they fall."""
    values = tuple(start + np.arange(40.0))
    table = run_validation_study(kind, ScenarioConfig(replications=2000),
                                 values)
    means = [r.mean for r in table.select(scheme="monte_carlo")]
    assert len(means) == 40
    assert all(b <= a for a, b in zip(means, means[1:]))


@pytest.mark.parametrize("kind,values", [("coverage", (400.0, 800.0)),
                                         ("success", (25.0, 75.0))])
def test_validation_rows_do_not_depend_on_the_grid(kind, values):
    """A validation row depends on its sweep value and the seed alone: the
    rows of a two-value sweep equal, bit for bit, those rows of the
    default-grid study."""
    config = ScenarioConfig(replications=2000)
    full = run_validation_study(kind, config)
    part = run_validation_study(kind, config, values)
    assert len(part.rows) == 4
    for value in values:
        assert [repr(r) for r in part.select(sweep_value=value)] == \
            [repr(r) for r in full.select(sweep_value=value)]


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


@pytest.mark.parametrize("study", [run_delay_study, run_ase_study])
def test_simulated_studies_compute_p_suc_once(study):
    """p_suc does not depend on d0: a delay or ase study computes it once
    per call and p_cov once per d0, and each analytic row is the closed
    form of those two."""
    config = ScenarioConfig(replications=2)
    calls = collections.Counter()

    def counted(name):
        original = getattr(analysis, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return mock.patch.object(analysis, name, wrapper)

    with counted("transmission_success_probability"), \
            counted("coverage_probability"):
        table = study(config, d0_values=(400.0, 800.0, 1200.0), c_values=(2,))
    assert calls == {"transmission_success_probability": 1,
                     "coverage_probability": 3}
    p_suc = analysis.transmission_success_probability(config.radius_r_m,
                                                      config.radio)
    for d0 in (400.0, 800.0, 1200.0):
        p_cov = analysis.coverage_probability(config.geometry(v_norm=d0),
                                              config.radio)
        expected = (analysis.average_delay(p_cov, p_suc, 10.0, 1.0)
                    if study is run_delay_study else
                    analysis.average_ase(p_cov, p_suc, 1e-3, 20.0))
        metric = "delay_ms" if study is run_delay_study else "ase"
        assert table.value(scheme="analytic",
                           metric=f"{metric}_d0_{d0:g}") == expected


@pytest.mark.parametrize("c_values", [(2.5,), (2, 2.9), (0,), (-2,),
                                      (float("nan"),), (float("inf"),), ("2",),
                                      (), (5, 2, 5), (5, 2)])
@pytest.mark.parametrize("study", [run_delay_study, run_ase_study,
                                   run_design_insight_study])
def test_studies_reject_bad_cluster_counts(study, c_values):
    """Cluster counts are positive integers and, like every sweep, a
    non-empty, strictly increasing grid."""
    with pytest.raises(ParameterError, match="^c_values"):
        study(ScenarioConfig(replications=2), c_values=c_values)


@pytest.mark.parametrize("values", [(), (1200.0, 1200.0), (800.0, 400.0),
                                    (float("nan"),), (400.0, float("inf"))],
                         ids=["empty", "repeated", "decreasing", "nan", "inf"])
@pytest.mark.parametrize("study,grid", [(run_delay_study, "d0_values"),
                                        (run_ase_study, "d0_values"),
                                        (run_design_insight_study, "v_values")])
def test_studies_reject_bad_distance_grids(study, grid, values):
    """d0 and v grids follow the `_grid` rule: a repeated value would
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
        "success", ScenarioConfig(replications=500), (50.0,)).csv_text() == \
        run_validation_study(
        "success", ScenarioConfig(replications=500), (50.0,)).csv_text()


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


def _replays(study, scheme, config, key):
    """Each replication's values, rebuilt one replication at a time from
    the stream layout `_scenario` documents, as (Poisson count or None,
    block of uniforms, round-1 fading row, later-rounds row or None,
    recovery `draw` of a batch of one).  Under spawn keys (study, *key,
    0, s), stream 0 holds every Poisson count (density mode), then each
    drop's 2 (clusters + members) uniforms; stream 1 each drop's n
    round-1 exponentials, whatever the time budget; stream 2 block b of
    the scenario's j-th cluster, counted drop after drop, from output
    b 2**64 + j 8 S on, 8 S uniforms for a drop whose largest cluster has
    S members.  A delay-study BS scheme's stream (study, *key, scheme, 1)
    holds n g more per drop, g being the receptions a member needs.
    """
    prefix = (_STUDY_IDS[study], *key)
    drops, fading = (_rng(config.base_seed, (*prefix, 0, s))
                     for s in (0, 1))
    sim, reps = config.sim, config.replications
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
    cells = 0  # the clusters of earlier drops
    for count in counts:
        k, n = ((config.num_clusters, config.total_uavs) if count is None
                else (count, count * per_cluster))
        uniforms = drops.random(2 * (k + n))
        row = fading.standard_exponential(n)
        later_row = (None if later is None
                     else later.standard_exponential((n, g)))
        yield count, uniforms, row, later_row, functools.partial(
            _replayed_blocks, config.base_seed, prefix, cells)
        cells += k


def _replayed_blocks(base_seed, prefix, first, epoch, cluster, b, out):
    """The recovery `draw` of a drop whose first cluster is the
    scenario's cell `first`, run as a batch of one: block b of cluster c
    is read from a fresh generator of stream (*prefix, 0, 2) advanced to
    output b 2**64 + (first + c) 8 S."""
    assert epoch.tolist() == [0] * epoch.size
    for j, c in enumerate(cluster.tolist()):
        fresh = _rng(base_seed, (*prefix, 0, 2))
        fresh.bit_generator.advance((b << 64) + (first + c) * out[j].size)
        fresh.random(out=out[j])


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


def _bs_powers(config, xy):
    """The mean BS powers of members at planar points `xy`, the BS at
    planar point (d0, 0) and h2 - h1 below them."""
    d = np.sqrt((xy[:, 0] - config.d0_m) ** 2 + xy[:, 1] ** 2
                + (config.h2_m - config.h1_m) ** 2)
    return mean_received_power(LinkKind.BS_TO_UAV, d, config.radio)


def _oracle_epochs(study, scheme, config, key):
    """Each replication's epoch, rebuilt from `_replays`: its drop
    (`_oracle_drop`), round 1 decided on its fading row when a packet fits
    the budget, a BS scheme's completion rounds read from its later-rounds
    row, and `run_epochs` on a batch of one reading its recovery blocks.
    A BS scheme of the ase study has no later rounds: a member
    served in round 1 completes then, the others never.  Yields (mean BS
    powers, round-1 decisions, delivery times, via_broadcast marks), rows
    of one epoch."""
    radio, sim = config.radio, config.sim
    for count, uniforms, row, later, recovery in _replays(study, scheme,
                                                          config, key):
        xy, bounds = _oracle_drop(config, count, uniforms)
        power = _bs_powers(config, xy)
        first = np.zeros(len(xy), dtype=bool)
        if sim.packet_len_ms <= sim.max_time_ms:
            first = decodes(power, row, radio)
        rounds = first
        if scheme != "clustering":
            rounds = np.where(first, 1.0, np.inf)
            if later is not None:
                rounds = completion_rounds(
                    first[None], decode_probability(power, radio)[None],
                    later[None])[0]
        delivery, via_broadcast = run_epochs(
            scheme, xy[None], bounds, rounds[None], radio, sim, recovery)[:2]
        yield power, first, delivery[0], via_broadcast[0]


def _oracle_metrics(study, scheme, config, key):
    """`_oracle_epochs` reduced here to rows of (mean delay, delivery
    ratio) in the delay study, (ase,) in the ase study.  The ase counts
    delivered members for clustering, members served by the first
    broadcast otherwise."""
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
            rows.append((np.count_nonzero(served) / n * rate_density if n
                         else math.nan,))
        else:
            rows.append((delays.mean() if delays.size else math.nan,
                         np.count_nonzero(delivered) / n if n
                         else math.nan))
    return np.array(rows, dtype=float)


# Drops of the default 50 members in one batch.
_WIDTH = experiments._BATCH_SLOTS // 50

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
    topology modes, with empty drops, with a packet over the time budget,
    across batch boundaries, with members that never complete and, for
    clustering, with cells that read later blocks of uniforms."""
    key = (1, 2)
    recovery_pass = experiments.recovery_pass
    for mode, lambda_per_m2, max_time_ms, reps, overrides in _BATCH_CASES:
        fields = {"num_clusters": 2, "d0_m": 1200.0, **overrides}
        caching = fields.pop("opportunistic_caching", True)
        config = ScenarioConfig(replications=reps, base_seed=9, mode=mode,
                                lambda_per_m2=lambda_per_m2, **fields,
                                sim=SimParams(max_time_ms=max_time_ms,
                                              opportunistic_caching=caching))
        later = []  # the blocks b >= 1 that cells read

        def counted(cells, radio, sim, draw, *rest):
            def recorded(cell, b, out):
                if b:
                    later.append(b)
                draw(cell, b, out)
            return recovery_pass(cells, radio, sim, recorded, *rest)

        with mock.patch.object(experiments, "recovery_pass", counted):
            got = _replicated(study, config, key)[scheme]
        expected = _oracle_metrics(study, scheme, config, key)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), (mode, lambda_per_m2,
                                                     max_time_ms, reps)
        if mode == "density" and lambda_per_m2 == 1e-5:
            # some drops are empty and some are not
            column = got[:, -1]  # the ase, or the delivery ratio
            assert 0 < np.isnan(column).sum() < reps
        if overrides.get("num_clusters") == 1 and scheme == "clustering":
            # some cell outlasted its first block
            assert later
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


def _recovery_of_a_scenario(config, key):
    """The `_Recovery` of `config`'s delay scenario `key`, taken from its
    first batch before any of it is read."""
    def reader(config, batch, *rest):
        raise _Stop(batch.recovery)

    with mock.patch.object(experiments, "_continue", reader), \
            pytest.raises(_Stop) as stop:
        _replicated("delay", config, key)
    return stop.value.args[0]


def _fresh_block(config, key, offset, size):
    """`size` uniforms of the delay scenario `key`'s recovery stream from
    output `offset` on, read by a fresh generator."""
    fresh = _rng(config.base_seed, (_STUDY_IDS["delay"], *key, 0, 2))
    fresh.bit_generator.advance(offset)
    return fresh.random(size)


@given(reads=st.lists(st.tuples(st.integers(0, 2 ** 64 - 1),
                                st.sets(st.integers(0, 3000), min_size=1,
                                        max_size=20),
                                st.integers(1, 6)),
                      min_size=1, max_size=20),
       chunk=st.integers(1, experiments._RECOVERY_CHUNK))
@settings(max_examples=60, deadline=None)
def test_recovery_blocks_are_read_from_one_stream(reads, chunk):
    """The recovery reader jumps from wherever the stream is, ahead or
    behind, and serves block b of ascending cells j of a drop whose
    largest cluster has S members from output b 2**64 + j 8 S on,
    whatever the stretch it reads in one call: the values a fresh
    generator gives after `advance` from the stream's start, for any
    order of (b, cells, S) reads."""
    config = ScenarioConfig(replications=6, base_seed=8)
    recovery = _recovery_of_a_scenario(config, (3, 1))
    with mock.patch.object(experiments, "_RECOVERY_CHUNK", chunk):
        for b, cells, largest in reads:
            index = np.array(sorted(cells))
            got = np.empty((index.size, 4, 2, largest))
            recovery.blocks(b, index, got)
            for j, block in zip(index.tolist(), got):
                assert block.tobytes() == _fresh_block(
                    config, (3, 1), (b << 64) + j * block.size,
                    block.size).tobytes()


def test_recovery_cells_past_their_block_are_refused():
    """Block b of every cell lies in outputs b 2**64 to (b + 1) 2**64, so
    cell j, whose block holds 8 S outputs, fits while (j + 1) 8 S <=
    2**64: the last cell that fits reads where the layout says, at the
    end of a stretch, and a refill that reaches the next cell is refused
    with a ParameterError rather than read from block b + 1's outputs."""
    config = ScenarioConfig(replications=2, base_seed=8)
    recovery = _recovery_of_a_scenario(config, (0, 0))
    out = np.empty((2, 4, 2, 8))
    last = 2 ** 64 // out[0].size - 1
    for b in (0, 1, 2 ** 64 - 1):
        recovery.blocks(b, np.array([last - 1, last]), out)
        for j, block in zip((last - 1, last), out):
            assert block.tobytes() == _fresh_block(
                config, (0, 0), (b << 64) + j * block.size,
                block.size).tobytes()
        with pytest.raises(ParameterError, match="^recovery: block"):
            recovery.blocks(b, np.array([last - 1, last + 1]), out)


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
    so a small slot budget gives the metrics of the default budget, bit
    for bit; and batches hold as many drops as the budget says."""
    config = ScenarioConfig(replications=40, base_seed=5, d0_m=1200.0,
                            num_clusters=2, mode=mode,
                            lambda_per_m2=lambda_per_m2)
    wide = {study: _replicated(study, config, (0, 1))
            for study in ("ase", "delay")}
    assert budget < experiments._BATCH_SLOTS
    continue_ = experiments._continue
    groups = []  # (drop shape, replications) of every group of both calls

    def recorded(config, batch, *rest):
        groups.extend((plan.bounds, rows.tolist())
                      for plan, rows, *_ in batch.shapes)
        return continue_(config, batch, *rest)

    with mock.patch.object(experiments, "_BATCH_SLOTS", budget), \
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


@given(budget=st.integers(1, experiments._BATCH_SLOTS),
       mode=st.sampled_from(sorted(_BUDGET_CONFIGS)))
@example(budget=1, mode="density")
@settings(max_examples=25, deadline=None)
def test_replicated_output_does_not_depend_on_member_budget(budget, mode):
    """Any slot budget from 1 to the default gives every study and
    scheme the default budget's output, byte for byte, in both modes."""
    config = _BUDGET_CONFIGS[mode]
    for study in ("delay", "ase"):
        if (mode, study) not in _DEFAULT_BUDGET_OUTPUTS:
            _DEFAULT_BUDGET_OUTPUTS[mode, study] = _output_bytes(
                study, config, (2, 0))
    with mock.patch.object(experiments, "_BATCH_SLOTS", budget):
        for study in ("delay", "ase"):
            assert _output_bytes(study, config, (2, 0)) == \
                _DEFAULT_BUDGET_OUTPUTS[mode, study], study


def _recovery_reads(study, config, key):
    """The recovery of `config`'s `study` scenario `key` through
    pass-through spies: (its round-1 batches, its recovery passes, the
    recovering cells of its round-1 decisions, its output bytes).  Each
    pass is a list of its block reads, (b, stream cell numbers), in read
    order.  The recovering cells are every (replication, cluster) with a
    member that holds the packet and one that misses it, read off the
    round-1 marks of the clustering outcomes `_continue` yields, as
    stream cell numbers: cluster after cluster, drop after drop, in
    replication order."""
    continue_, recovery_pass = experiments._continue, experiments.recovery_pass
    blocks = experiments._Recovery.blocks
    batches, passes, rounds = [], [], {}

    def recorded(config, batch, *rest):
        batches.append(batch)
        for scheme, drops, outcome in continue_(config, batch, *rest):
            if scheme == "clustering":
                rounds.update((rep, (drops.plan.bounds, first))
                              for rep, first in zip(drops.rows.tolist(),
                                                    outcome[1]))
            yield scheme, drops, outcome

    def counted(*args, **kwargs):
        passes.append([])
        return recovery_pass(*args, **kwargs)

    def read(self, b, index, out):
        passes[-1].append((b, index.tolist()))
        blocks(self, b, index, out)

    with mock.patch.object(experiments, "_continue", recorded), \
            mock.patch.object(experiments, "recovery_pass", counted), \
            mock.patch.object(experiments._Recovery, "blocks", read):
        output = _output_bytes(study, config, key)
    expected, cells = [], 0
    for rep in range(config.replications):
        bounds, first = rounds[rep]
        expected += [cells + c for c, (lo, hi) in
                     enumerate(zip(bounds, bounds[1:]))
                     if first[lo:hi].any() and not first[lo:hi].all()]
        cells += len(bounds) - 1
    return len(batches), passes, expected, output


@given(chunk=st.integers(1, experiments._RECOVERY_CHUNK),
       mode=st.sampled_from(sorted(_BUDGET_CONFIGS)))
@example(chunk=1, mode="fixed_total")
@example(chunk=200, mode="density")
@settings(max_examples=25, deadline=None)
def test_first_block_stretches_do_not_change_the_output(chunk, mode):
    """Any stretch of recovery blocks read in one call, from 1 output to
    the default, gives every study and scheme the default output, byte
    for byte, in both modes, where some cells read blocks after the
    first.  Each recovery pass (`protocol.recovery_pass`) asks for block
    0 of its cells in one read, in ascending order, and the passes of a
    scenario ask for it once for every (replication, cluster) cell with a
    member that holds the packet and one that misses it, and of no other
    cell (`_recovery_reads`); and for a later block of some of a pass's
    cells, still in ascending order."""
    config = _BUDGET_CONFIGS[mode]
    for study in ("delay", "ase"):
        if (mode, study) not in _DEFAULT_BUDGET_OUTPUTS:
            _DEFAULT_BUDGET_OUTPUTS[mode, study] = _output_bytes(
                study, config, (2, 0))
    later = []  # the cells of each read of a block b >= 1
    with mock.patch.object(experiments, "_RECOVERY_CHUNK", chunk):
        for study in ("delay", "ase"):
            _, passes, expected, output = _recovery_reads(study, config,
                                                          (2, 0))
            assert output == _DEFAULT_BUDGET_OUTPUTS[mode, study], study
            assert passes and expected
            first_reads = []
            for reads in passes:
                assert reads and reads[0][0] == 0
                cells = reads[0][1]
                assert cells == sorted(set(cells))
                first_reads += cells
                for b, drawn in reads[1:]:
                    assert b
                    later.append(drawn)
                    assert set(drawn) <= set(cells)
            assert first_reads == expected, study
    assert later
    assert all(drawn == sorted(drawn) for drawn in later)


def test_one_recovery_pass_takes_a_scenarios_batches():
    """The ase study at d0 = 400 m, C = 2 over 1,000 replications rounds
    its drops in 4 batches (327 drops each at most) and recovers them in
    one pass: its recovering cells, about 11 padded slots and one 50-byte
    round-1 row a replication, stay below `_BATCH_SLOTS` until the last
    batch.  That pass reads block 0 of every recovering cell once, in
    ascending order, in one read."""
    config = ScenarioConfig(replications=1000, d0_m=400.0, num_clusters=2,
                            base_seed=11)
    batches, passes, expected, _ = _recovery_reads("ase", config, (0, 0))
    assert batches == 4
    assert len(passes) == 1
    assert passes[0][0] == (0, expected)
    assert len(expected) == len(set(expected)) > 0


@pytest.mark.parametrize("mode", ["fixed_total", "density"])
def test_small_slot_budget_splits_the_recovery_passes(mode):
    """A slot budget of 2,048 (batches of 40 default drops, and density
    batches of mixed shape) makes the queue reach it every few batches:
    the recovery runs in more than one pass and in fewer passes than
    batches (7 of 25 in fixed_total mode, 2 of 11 in density mode), each
    pass reading block 0 of its cells in ascending order, and every
    study's output is the default budget's, byte for byte."""
    config = ScenarioConfig(replications=1000, d0_m=400.0, num_clusters=2,
                            base_seed=11, mode=mode)
    wide = {study: _output_bytes(study, config, (0, 1))
            for study in ("ase", "delay")}
    with mock.patch.object(experiments, "_BATCH_SLOTS", 2048):
        for study in ("ase", "delay"):
            batches, passes, expected, output = _recovery_reads(
                study, config, (0, 1))
            assert output == wide[study], study
            assert 1 < len(passes) < batches, (len(passes), batches)
            assert [c for reads in passes for c in reads[0][1]] == expected


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
    """A batch holds about `_BATCH_SLOTS` padded slots whatever the drop
    size, here its members (two even clusters), so over one batch's worth
    of 50-member replications a delay-study call at 2,000 members peaks
    within 1.2x of its peak at 50 (1.05x measured for clustering, 1.07x
    for RNC).  Batches of a
    fixed replication count would hold 40 times the members, and peak
    about 37 times higher; a clustering recovery that kept two block
    buffers alive at once peaked 1.38x higher."""
    def peak(total_uavs):
        return _traced_peak("delay", ScenarioConfig(
            replications=_WIDTH, total_uavs=total_uavs, d0_m=1200.0,
            num_clusters=2, schemes=(scheme,)))

    assert peak(2000) <= 1.2 * peak(50)


@pytest.mark.parametrize("d0", [400.0, 1200.0])
def test_recovery_queue_memory_is_bounded(d0):
    """The recovery queue counts each queued round-1 row as n / 8 slots
    besides its cells' padded slots, so an ase call over drops of 1,000
    two-member clusters (2,000 members, 8 drops a batch) peaks at 400
    replications within 1.5x of its peak at 40 (1.04x measured at
    d0 = 400 m, 1.02x at 1,200 m).  At 400 m a drop holds about 20
    recovering cells, 40 slots against its 250 slots of row, and a queue
    that counted cells alone peaked 2.03x higher."""
    def peak(replications):
        return _traced_peak("ase", ScenarioConfig(
            replications=replications, total_uavs=2000, num_clusters=1000,
            d0_m=d0))

    assert peak(400) <= 1.5 * peak(40)


@pytest.mark.parametrize("mode", ["fixed_total", "density"])
def test_queued_rows_get_the_outcome_of_run_epochs(mode):
    """Every clustering outcome `_continue` yields, whether its rows
    recovered nothing or waited in the queue across batches, is what
    `run_epochs` gives those rows alone, bit for bit, counters included:
    on their drops (`replay_drops`), their round-1 marks and their cells'
    blocks of the scenario's recovery stream."""
    config = ScenarioConfig(replications=700, d0_m=1200.0, num_clusters=3,
                            base_seed=12, mode=mode)
    yielded = []  # (drops, outcome) of every clustering outcome
    continue_ = experiments._continue

    def recorded(*args):
        for scheme, drops, outcome in continue_(*args):
            if scheme == "clustering":
                yielded.append((drops, outcome))
            yield scheme, drops, outcome

    with mock.patch.object(experiments, "_continue", recorded):
        _replicated("delay", config, (0, 0))
    plans = {rep: drops.plan for drops, _ in yielded
             for rep in drops.rows.tolist()}
    assert sorted(plans) == list(range(config.replications))
    clusters = [plans[rep].n_clusters for rep in range(config.replications)]
    starts = np.cumsum([0, *clusters[:-1]])
    points = experiments.replay_drops(config, config.replications)
    recovery = experiments._Recovery(config.base_seed,
                                     (_STUDY_IDS["delay"], 0, 0))
    recovered = 0
    for drops, outcome in yielded:
        xy = np.array([points[rep][0] for rep in drops.rows.tolist()])
        xy = xy.reshape(drops.rows.size, drops.plan.n_uavs, 2)
        expected = run_epochs("clustering", xy, drops.plan.bounds,
                              drops.first, config.radio, config.sim,
                              recovery.draw(starts[drops.rows]))
        assert len(outcome) == len(expected)
        for got, want in zip(outcome, expected):
            assert got.tobytes() == want.tobytes()
        recovered += int(np.count_nonzero(outcome[3]))
    assert recovered


def _recovery_peak(config):
    """The highest traced peak reached inside the recovery passes
    (`protocol.recovery_pass`) of a delay-study `_replicated` call, after
    a first call has warmed the caches: the peak is reset on entry
    (`tracemalloc.reset_peak`), so it counts what the scenario holds alive
    through recovery.  Also the number of BS passes (`_later_rounds`),
    each of which asserts that the drop uniforms of its batch are gone."""
    recover, later_rounds = (experiments.recovery_pass,
                             experiments._later_rounds)
    continue_ = experiments._continue
    peaks, uniforms, passes = [], [], []

    def measured(*args):
        tracemalloc.reset_peak()
        try:
            return recover(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])

    def recorded(config, batch, *rest):
        uniforms.append(weakref.ref(batch.uniforms))
        return continue_(config, batch, *rest)

    def checked(*args):
        assert uniforms[-1]() is None, "drop uniforms alive in a BS pass"
        passes.append(True)
        yield from later_rounds(*args)

    _replicated("delay", config, (0, 0))
    with mock.patch.object(experiments, "recovery_pass", measured), \
            mock.patch.object(experiments, "_continue", recorded), \
            mock.patch.object(experiments, "_later_rounds", checked):
        tracemalloc.start()
        try:
            _replicated("delay", config, (0, 0))
        finally:
            tracemalloc.stop()
    return max(peaks), len(passes)


@pytest.mark.parametrize("mode", ["fixed_total", "density"])
@pytest.mark.parametrize("schemes", [("clustering", "benchmark", "rnc"),
                                     ("rnc", "benchmark", "clustering")])
def test_later_rounds_are_not_held_through_recovery(schemes, mode):
    """A batch is finished one scheme at a time, and a BS scheme's pass
    draws its later-round exponentials when it starts and lets them go
    when it ends, so no block is alive through clustering's recovery; the
    batch's drop uniforms go after the round-1 pass, so they are not
    alive through the BS passes either.  Inside recovery, a delay-study
    call of all three schemes at d0 = 1200 m, in either order, peaks
    within 1.05x of clustering alone over one batch of 50-member,
    two-cluster drops (fixed_total; 1.00x and 1.00x measured), and within
    1.2x over 600 density-mode replications at seed 7, whose batches mix
    drop shapes (1.02x and 1.02x); and every BS pass finds the uniforms
    gone.  A later-round block drawn with the batch peaked 1.35x
    (fixed_total) and 1.69x (density) inside recovery; uniforms kept
    through the BS passes fail every order and mode."""
    def config(schemes):
        if mode == "density":
            return ScenarioConfig(mode=mode, replications=600, d0_m=1200.0,
                                  base_seed=7, schemes=schemes)
        return ScenarioConfig(replications=_WIDTH, d0_m=1200.0,
                              num_clusters=2, schemes=schemes)

    bound = {"fixed_total": 1.05, "density": 1.2}[mode]
    peak, passes = _recovery_peak(config(schemes))
    alone, _ = _recovery_peak(config(("clustering",)))
    assert passes
    assert peak <= bound * alone, peak / alone


def test_later_round_block_is_bounded_in_the_generation_size():
    """RNC's later-round block takes g doubles a member, so batches hold
    8 / g of `_BATCH_SLOTS` slots when g exceeds 8: over one g = 8
    batch of 50-member drops a delay-study RNC call at g = 256 peaks
    within 1.5x of its peak at g = 8 (0.73x measured).  Batches of
    `_BATCH_SLOTS` slots whatever g peaked 19x higher."""
    def peak(g):
        return _traced_peak("delay", ScenarioConfig(
            replications=_WIDTH, d0_m=1200.0, num_clusters=2,
            schemes=("rnc",), sim=SimParams(rnc_generation_size=g)))

    assert peak(256) <= 1.5 * peak(8)


def _padded_slots(bounds):
    """Clusters x largest cluster of a drop of clusters `bounds`."""
    return (len(bounds) - 1) * max(np.diff(bounds), default=0)


@pytest.mark.parametrize("fields,schemes,budget", [
    # 50 members in 3 clusters pad to 51 slots a drop: 321 drops a batch
    ({"num_clusters": 3, "d0_m": 1500.0, "replications": 700},
     ("clustering",), experiments._BATCH_SLOTS),
    # drops of mixed shape; an empty drop counts as one slot
    ({"mode": "density", "replications": 1000}, ("clustering",),
     experiments._BATCH_SLOTS),
    # RNC at g = 64 reads 64 later-round doubles a member: 8 / 64 of it
    ({"num_clusters": 3, "replications": 100}, ("clustering", "rnc"),
     experiments._BATCH_SLOTS // 8),
    # single drops wider than the budget, one a batch
    ({"total_uavs": 20_000, "num_clusters": 2, "replications": 3},
     ("clustering",), experiments._BATCH_SLOTS),
], ids=["uneven_split", "density", "rnc_g64", "wide_drops"])
def test_batches_are_bounded_in_padded_slots(fields, schemes, budget):
    """Clustering recovery works in padded slots (clusters x largest
    cluster of each drop), so `_replicated` bounds a batch's slots, not
    its members: every batch holds at most the budget (`_BATCH_SLOTS`,
    8 / g of it for RNC past g = 8) unless it is a single drop, and a
    batch that closes early holds a drop's worth short of it.  The
    recovery queue, which collects the recovering cells of many batches,
    is bounded on its own (`test_recovery_queue_memory_is_bounded`)."""
    config = ScenarioConfig(**{"d0_m": 1200.0, **fields}, schemes=schemes,
                            sim=SimParams(rnc_generation_size=64))
    continue_ = experiments._continue
    batches = []  # (drops, padded slots, slots of its largest drop)

    def recorded(config, batch, *rest):
        sizes = [(len(rows), max(1, _padded_slots(plan.bounds)))
                 for plan, rows, *_ in batch.shapes]
        batches.append((sum(m for m, _ in sizes),
                        sum(m * slots for m, slots in sizes),
                        max(slots for _, slots in sizes)))
        return continue_(config, batch, *rest)

    with mock.patch.object(experiments, "_continue", recorded):
        _replicated("delay", config, (0, 0))
    assert sum(drops for drops, _, _ in batches) == config.replications
    for drops, slots, largest in batches[:-1]:
        assert slots <= budget or drops == 1
        assert slots + largest > budget
    if fields.get("num_clusters") == 3 and "mode" not in fields:
        assert batches[0][0] == budget // 51


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
        ases = _replicated("ase", config, key)["benchmark"][:, 0]

    rate_density = 1e-3 * math.log2(21.0)
    later = np.random.default_rng(seed)
    ref_served, ref_ases = [], []
    for count, uniforms, row, _, _ in _replays("ase", "benchmark", config,
                                               key):
        xy, bounds = _oracle_drop(config, count, uniforms)
        n = len(xy)
        power = _bs_powers(config, xy)
        fits = config.sim.packet_len_ms <= max_time_ms
        first = decodes(power, row, radio) if fits else np.zeros(n, bool)
        rounds = completion_rounds(
            first[None], decode_probability(power, radio)[None],
            later.standard_exponential((1, n, 1)))
        via_broadcast = run_epochs("benchmark", xy[None], bounds, rounds,
                                   radio, config.sim, None)[1][0]
        served = int(np.count_nonzero(via_broadcast))
        if fits and n:
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
    # Each replication's via_broadcast marks, by scheme.
    served = collections.defaultdict(dict)
    continue_ = experiments._continue

    def recorded(*args):
        for scheme, drops, outcome in continue_(*args):
            for rep, marks in zip(drops.rows.tolist(), outcome[1]):
                served[rep][scheme] = marks
            yield scheme, drops, outcome

    with mock.patch.object(experiments, "_continue", recorded):
        _replicated("delay", config, (0, 1))
    assert sorted(served) == list(range(config.replications))
    served = [(marks["benchmark"], marks["clustering"])
              for marks in served.values()]
    for benchmark, clustering in served:
        assert benchmark.tolist() == clustering.tolist()
    ases = _replicated("ase", config, (0, 1))
    assert ases["rnc"].tobytes() == ases["benchmark"].tobytes()
    empty = np.isnan(ases["clustering"])
    assert empty.tolist() == np.isnan(ases["benchmark"]).tolist()
    assert np.all(ases["clustering"][~empty] >= ases["benchmark"][~empty])
    if max_time_ms < config.sim.packet_len_ms:
        assert not any(clustering.any() for _, clustering in served)


def _coupled_epochs(config, key):
    """Every epoch of the delay scenario `key` of `config`, by (scheme,
    replication), as (cluster bounds, round-1 decisions, completion rounds
    (None for clustering), delivery times, (uav transmissions, control
    messages)), from the outcomes `_continue` yields and pass-through
    spies: clustering's outcome marks its round-1 decisions, a BS scheme
    hands `completion_rounds` its decisions and `run_epochs` their
    completion rounds just before its outcome is yielded."""
    epochs, firsts, later = {}, [], []
    continue_ = experiments._continue

    def spied_rounds(first, *args):
        firsts.append(first.copy())
        return completion_rounds(first, *args)

    def spied_epochs(scheme, xy, bounds, rounds, *args):
        if scheme != "clustering":
            later.append(rounds.copy())
        return run_epochs(scheme, xy, bounds, rounds, *args)

    def recorded(*args):
        for scheme, drops, outcome in continue_(*args):
            first, rounds = ((outcome[1], None) if scheme == "clustering"
                             else (firsts.pop(), later.pop()))
            frames = np.column_stack(outcome[3:])
            for i, rep in enumerate(drops.rows.tolist()):
                epochs[scheme, rep] = (
                    drops.plan.bounds, first[i],
                    None if rounds is None else rounds[i], outcome[0][i],
                    frames[i])
            yield scheme, drops, outcome

    with mock.patch.object(experiments, "completion_rounds", spied_rounds), \
            mock.patch.object(experiments, "run_epochs", spied_epochs), \
            mock.patch.object(experiments, "_continue", recorded):
        _replicated("delay", config, key)
    return epochs


def _served_by_holders(bounds, first):
    """Clustering's served set in an epoch when its budget does not bind:
    every member of a cluster with a round-1 holder."""
    served = np.zeros_like(first)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        served[lo:hi] = first[lo:hi].any()
    return served


# Changes that can only add round-1 decoders: more BS power, a lower SNR
# threshold, a BS nearer the swarm (d0 stays beyond region + r, so every
# member's BS distance grows with d0).
_BETTER = {
    "p_bs_mw": lambda c: c.replace(radio=dataclasses.replace(
        c.radio, p_bs_mw=2.0 * c.radio.p_bs_mw)),
    "snr_threshold": lambda c: c.replace(radio=dataclasses.replace(
        c.radio, snr_threshold=0.5 * c.radio.snr_threshold)),
    "d0_m": lambda c: c.replace(d0_m=0.9 * c.d0_m),
}


@given(seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["fixed_total", "density"]),
       key=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       num_clusters=st.integers(1, 10), d0=st.floats(400.0, 2500.0),
       change=st.sampled_from(sorted(_BETTER)))
@settings(max_examples=60, deadline=None)
def test_configurations_at_one_key_are_coupled_exactly(
        seed, mode, key, num_clusters, d0, change):
    """Two configs at the same study key read the same drops, fadings and
    exponentials (common random numbers), so a change that can only add
    round-1 decoders orders every epoch, member by member: round-1 decode
    sets nest for every scheme; clustering, whose budget does not bind
    here, serves exactly the members of clusters with a round-1 holder,
    so its served sets nest; and the benchmark's and RNC's completion
    rounds do not grow.  Each cell reads recovery uniforms of its own, so
    where the change leaves the peer link alone (BS power, d0), a cell
    whose held and lost sets are the same in both configs gives its
    members the same delivery times, bit for bit, and an epoch whose
    cells all match sends the same frames.  A stream keyed by a config
    value, a member whose draws depend on the other members' round 1, or
    a cell whose draws depend on its epoch's other cells, breaks this."""
    base = ScenarioConfig(mode=mode, d0_m=d0, num_clusters=num_clusters,
                          base_seed=seed, replications=8)
    epochs = _coupled_epochs(base, key)
    epochs_b = _coupled_epochs(_BETTER[change](base), key)
    assert epochs and epochs.keys() == epochs_b.keys()
    for (scheme, rep), (bounds, first, rounds, delivery, frames) in \
            epochs.items():
        bounds_b, first_b, rounds_b, delivery_b, frames_b = epochs_b[
            scheme, rep]
        assert bounds_b == bounds
        assert not np.any(first & ~first_b), scheme
        if scheme == "clustering":
            served, served_b = ~np.isnan(delivery), ~np.isnan(delivery_b)
            assert np.array_equal(served, _served_by_holders(bounds, first))
            assert np.array_equal(served_b,
                                  _served_by_holders(bounds, first_b))
            assert not np.any(served & ~served_b)
            if change == "snr_threshold":  # the peer link changes too
                continue
            for lo, hi in zip(bounds, bounds[1:]):
                if (first[lo:hi] == first_b[lo:hi]).all():
                    assert delivery[lo:hi].tobytes() == \
                        delivery_b[lo:hi].tobytes()
            if (first == first_b).all():
                assert frames.tolist() == frames_b.tolist()
        else:
            assert np.all(rounds_b <= rounds), scheme


@pytest.mark.parametrize("mode", ["fixed_total", "density"])
def test_scheme_subsets_read_the_shared_streams(mode):
    """A scheme run alone gives, bit for bit, its metrics of the
    three-scheme run, since the shared streams do not depend on the
    schemes that read them.  A delay scenario derives the drops and
    fading generators, clustering's recovery generator and one per BS
    scheme, an ase scenario the first three; a scenario without
    clustering derives no recovery generator, so it draws no recovery
    uniforms."""
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
                       (delay, *key, 0, 2),
                       (delay, *key, 1, 1), (delay, *key, 2, 1),
                       (ase, *key, 0, 0), (ase, *key, 0, 1),
                       (ase, *key, 0, 2)]
    assert list(full["delay"]) == list(config.schemes)
    assert list(full["ase"]) == list(_SCHEME_ORDER)
    for scheme in ("rnc", "clustering", "benchmark"):
        alone = config.replace(schemes=(scheme,))
        derived.clear()
        with mock.patch.object(experiments, "_rng", counted):
            delays = _replicated("delay", alone, key)
            ases = _replicated("ase", alone, key)
        assert list(delays) == [scheme]
        assert delays[scheme].tobytes() == full["delay"][scheme].tobytes()
        assert ases[scheme].tobytes() == full["ase"][scheme].tobytes()
        recovery = [k for k in derived if k[-2:] == (0, 2)]
        assert len(recovery) == (2 if scheme == "clustering" else 0)


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
    recover = experiments.recovery_pass

    def counted(*args, **kwargs):
        calls.append(1)
        return recover(*args, **kwargs)

    with mock.patch.object(experiments, "recovery_pass", counted):
        for schemes in (("benchmark",), ("rnc", "benchmark")):
            alone = _replicated("ase", config.replace(schemes=schemes),
                                (0, 1))
            assert list(alone) == list(schemes)
            for scheme, values in alone.items():
                assert values.tobytes() == full[scheme].tobytes()
        assert calls == []
        _replicated("ase", config.replace(schemes=("clustering",)), (0, 1))
    assert calls
