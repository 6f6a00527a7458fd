import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavcast.config import ScenarioConfig
from uavcast.errors import ParameterError
from uavcast.geometry import (
    Topology,
    _drop_plan,
    build_topology,
    sample_uniform_disk,
    topology_csv_rows,
    write_topology_csv,
)


def test_bs_distances_are_3d():
    """3-4-5 in the plane at equal heights, 3-4-12-13 with a height gap."""
    topo = Topology(xy=np.array([[3.0, 4.0], [0.0, 0.0]]),
                    cluster_of=np.array([0, 0]), centers=np.zeros((1, 2)),
                    height=10.0, bs_xy=(0.0, 0.0), bs_height=10.0)
    assert topo.bs_distances().tolist() == [5.0, 0.0]
    topo.height = 22.0
    assert topo.bs_distances().tolist() == [13.0, 12.0]


def _hand_built(xy_rows, cluster_of, **kwargs):
    return Topology(xy=np.zeros((xy_rows, 2)), cluster_of=np.array(cluster_of),
                    centers=np.zeros((2, 2)), height=20.0, bs_xy=(0.0, 0.0),
                    bs_height=10.0, **kwargs)


@pytest.mark.parametrize("xy_rows, cluster_of", [
    (4, [1, 0, 1, 0]),      # ungrouped: bounds would read (0, 2, 4)
    (4, [0, 1, 1, 0]),
    (3, [0, 0, 1, 1]),      # one entry too many: bounds would read (0, 2, 4)
    (4, [0, 0, 1]),
    (4, [[0, 0], [1, 1]]),
])
def test_hand_built_topology_rejects_bad_cluster_of(xy_rows, cluster_of):
    """Bounds derived from `cluster_of` need it grouped, one entry per row."""
    with pytest.raises(ParameterError, match="cluster_of"):
        _hand_built(xy_rows, cluster_of)


def test_hand_built_topology_derives_bounds():
    assert _hand_built(4, [0, 0, 0, 1]).cluster_bounds == (0, 3, 4)
    assert _hand_built(3, [1, 1, 1]).cluster_bounds == (0, 0, 3)
    assert _hand_built(0, []).cluster_bounds == (0, 0, 0)
    # given bounds are taken as they are, as build_topology gives them
    assert _hand_built(3, [0, 1, 1],
                       cluster_bounds=(0, 1, 3)).cluster_bounds == (0, 1, 3)


def test_uniform_disk_is_area_uniform():
    """P(radius <= r/2) must equal 1/4 for an area-uniform disk sample."""
    pts = sample_uniform_disk(np.random.default_rng(11), 1_000_000, 50.0)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert radii.max() <= 50.0
    assert abs(np.mean(radii <= 25.0) - 0.25) < 0.002


def test_uniform_disk_radial_cdf_gap():
    pts = sample_uniform_disk(np.random.default_rng(7), 100_000, 50.0)
    radii = np.sort(np.hypot(pts[:, 0], pts[:, 1]))
    empirical = np.arange(1, radii.size + 1) / radii.size
    assert np.max(np.abs(empirical - (radii / 50.0) ** 2)) < 0.01


def test_uniform_disk_argument_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        sample_uniform_disk(rng, 10, 0.0)
    with pytest.raises(ParameterError):
        sample_uniform_disk(rng, -1, 10.0)


def test_parent_process_mean_count():
    """Mean Poisson cluster count of density-mode drops tracks
    density * area (4 SE band)."""
    rng = np.random.default_rng(3)
    config = ScenarioConfig(mode="density", lambda_per_m2=1e-4)
    drops = 10_000
    counts = [build_topology(config, rng).n_clusters for _ in range(drops)]
    target = 1e-4 * math.pi * config.region_radius_m ** 2
    se = math.sqrt(target / drops)
    assert abs(np.mean(counts) - target) < 4.0 * se


def test_parent_centers_inside_region():
    rng = np.random.default_rng(5)
    config = ScenarioConfig(mode="density", lambda_per_m2=5e-4)
    for _ in range(50):
        centers = build_topology(config, rng).centers
        if centers.size:
            assert np.hypot(centers[:, 0], centers[:, 1]).max() <= 100.0


def test_parent_process_argument_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError, match="region_radius_m"):
        build_topology(_config_stub(mode="density", region_radius_m=0.0), rng)
    with pytest.raises(ParameterError, match="lambda_per_m2"):
        build_topology(_config_stub(mode="density", lambda_per_m2=0.0), rng)


def test_cluster_members_stay_in_disk():
    topo = build_topology(ScenarioConfig(num_clusters=1, total_uavs=10),
                          np.random.default_rng(2))
    assert topo.xy.shape == (10, 2)
    offsets = topo.xy - topo.centers[0]
    assert np.hypot(offsets[:, 0], offsets[:, 1]).max() <= 50.0


def test_cluster_members_count_contract():
    """One member per cluster is the smallest drop; fewer UAVs than
    clusters is rejected."""
    topo = build_topology(ScenarioConfig(num_clusters=5, total_uavs=5),
                          np.random.default_rng(0))
    assert topo.cluster_of.tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(ParameterError, match="total_uavs"):
        build_topology(_config_stub(num_clusters=5, total_uavs=4),
                       np.random.default_rng(0))


@given(radius=st.floats(1.0, 100.0), num_clusters=st.integers(1, 10),
       per_cluster=st.integers(1, 40), seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_members_never_leave_the_disk(radius, num_clusters, per_cluster, seed):
    config = ScenarioConfig(radius_r_m=radius, num_clusters=num_clusters,
                            total_uavs=num_clusters * per_cluster)
    topo = build_topology(config, np.random.default_rng(seed))
    assert topo.xy.shape == (num_clusters * per_cluster, 2)
    offsets = topo.xy - topo.centers[topo.cluster_of]
    assert np.hypot(offsets[:, 0], offsets[:, 1]).max() <= radius * (1.0 + 1e-12)


def test_build_topology_even_split():
    topo = build_topology(ScenarioConfig(), np.random.default_rng(1))
    assert np.bincount(topo.cluster_of).tolist() == [10] * 5
    assert topo.n_uavs == 50


def test_build_topology_remainder_goes_first():
    config = ScenarioConfig(num_clusters=3, total_uavs=50)
    topo = build_topology(config, np.random.default_rng(1))
    assert np.bincount(topo.cluster_of).tolist() == [17, 17, 16]


def test_build_topology_single_cluster():
    config = ScenarioConfig(num_clusters=1)
    topo = build_topology(config, np.random.default_rng(1))
    assert topo.n_clusters == 1 and topo.cluster_of.tolist() == [0] * 50


def test_build_topology_density_mode():
    config = ScenarioConfig(mode="density")
    topo = build_topology(config, np.random.default_rng(0))
    # every cluster holds floor(lambda_off * pi * r^2) = 7 members
    assert topo.n_clusters and np.bincount(
        topo.cluster_of, minlength=topo.n_clusters).tolist() == [7] * topo.n_clusters


def _config_stub(**overrides):
    base = dict(region_radius_m=100.0, d0_m=800.0, num_clusters=5,
                total_uavs=50, lambda_per_m2=1e-4, lambda_off_per_m2=1e-3,
                radius_r_m=50.0, h1_m=10.0, h2_m=20.0, mode="fixed_total")
    base.update(overrides)
    return SimpleNamespace(**base)


def test_build_topology_rejects_bad_stub_inputs():
    """build_topology guards its own inputs even without config validation."""
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError, match="radius_r_m"):
        build_topology(_config_stub(radius_r_m=150.0), rng)
    with pytest.raises(ParameterError, match="lambda_off_per_m2"):
        build_topology(_config_stub(mode="density", lambda_off_per_m2=1e-6), rng)
    with pytest.raises(ParameterError, match="mode"):
        build_topology(_config_stub(mode="grid"), rng)
    for radius_r in (0.0, -50.0):
        with pytest.raises(ParameterError, match="radius_r_m"):
            build_topology(_config_stub(radius_r_m=radius_r), rng)
    with pytest.raises(ParameterError, match="region_radius_m"):
        build_topology(_config_stub(region_radius_m=0.0), rng)
    with pytest.raises(ParameterError, match="num_clusters"):
        build_topology(_config_stub(num_clusters=0), rng)


def _reference_drop(config, rng):
    """The drop as one `sample_uniform_disk` call for the centers and one
    per cluster, in cluster order."""
    if config.mode == "fixed_total":
        k = config.num_clusters
        centers = sample_uniform_disk(rng, k, config.region_radius_m)
        base, extra = divmod(config.total_uavs, k)
        counts = [base + (i < extra) for i in range(k)]
    else:
        k = int(rng.poisson(config.lambda_per_m2 * math.pi
                            * config.region_radius_m ** 2))
        centers = sample_uniform_disk(rng, k, config.region_radius_m)
        counts = [math.floor(config.lambda_off_per_m2 * math.pi
                             * config.radius_r_m ** 2)] * k
    members = [sample_uniform_disk(rng, c, config.radius_r_m, center)
               for center, c in zip(centers, counts)]
    xy = np.vstack(members) if members else np.empty((0, 2))
    return centers, xy, np.repeat(np.arange(k), counts)


@given(seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["fixed_total", "density"]),
       num_clusters=st.integers(1, 12), total_uavs=st.integers(12, 61),
       lambda_per_m2=st.floats(1e-5, 5e-4))
@settings(max_examples=200, deadline=None)
@example(seed=0, mode="density", num_clusters=1, total_uavs=12,
         lambda_per_m2=1e-5)
def test_single_draw_topology_matches_per_disk_draws(seed, mode, num_clusters,
                                                     total_uavs, lambda_per_m2):
    """Bit for bit the drop and the RNG state of per-disk sampling.

    The density range puts 0.3 to 16 clusters on the region on average, so
    empty drops occur (the explicit example is one); total_uavs covers
    uneven splits for every C.
    """
    config = ScenarioConfig(mode=mode, num_clusters=num_clusters,
                            total_uavs=total_uavs, lambda_per_m2=lambda_per_m2)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    topo = build_topology(config, rng)
    centers, xy, cluster_of = _reference_drop(config, ref_rng)
    assert topo.centers.shape == centers.shape
    assert topo.centers.tobytes() == centers.tobytes()
    assert topo.xy.shape == xy.shape and topo.xy.tobytes() == xy.tobytes()
    assert topo.cluster_of.tolist() == cluster_of.tolist()
    assert rng.random() == ref_rng.random()


def test_build_topology_geometry_and_heights():
    config = ScenarioConfig(d0_m=900.0, h1_m=12.0, h2_m=25.0)
    topo = build_topology(config, np.random.default_rng(4))
    assert topo.bs_xy == (900.0, 0.0)
    assert topo.bs_height == 12.0
    assert topo.height == 25.0
    centers = topo.centers
    assert np.hypot(centers[:, 0], centers[:, 1]).max() <= 100.0
    offsets = topo.xy - centers[topo.cluster_of]
    assert np.hypot(offsets[:, 0], offsets[:, 1]).max() <= config.radius_r_m


def test_build_topology_deterministic():
    config = ScenarioConfig()
    a = build_topology(config, np.random.default_rng(9))
    b = build_topology(config, np.random.default_rng(9))
    assert np.array_equal(a.xy, b.xy)
    assert np.array_equal(a.cluster_of, b.cluster_of)


def test_cluster_index_alignment():
    topo = build_topology(ScenarioConfig(num_clusters=3, total_uavs=7),
                          np.random.default_rng(0))
    assert topo.cluster_of.tolist() == [0, 0, 0, 1, 1, 2, 2]
    assert topo.xy.shape == (7, 2)


def test_topology_csv_round_trip(tmp_path):
    config = ScenarioConfig(num_clusters=2, total_uavs=6)
    drops = [build_topology(config, np.random.default_rng(s)) for s in (0, 1)]
    path = tmp_path / "drops.csv"
    write_topology_csv(path, drops)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "drop_id,cluster_id,uav_id,x,y,h"
    assert len(lines) == 1 + 12
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "0"
    x, y = float(first[3]), float(first[4])
    assert math.isclose(x, drops[0].xy[0, 0], rel_tol=1e-9)
    assert math.isclose(y, drops[0].xy[0, 1], rel_tol=1e-9)
    assert len(list(topology_csv_rows(drops[0], 0))) == 6
    # uav_id restarts at 0 in every cluster: 3 + 3 members
    assert [line.split(",")[2] for line in lines[1:7]] == \
        ["0", "1", "2", "0", "1", "2"]


def test_cached_plans_match_per_disk_draws_across_scenarios():
    """Drops of interleaved scenarios share one process-wide plan cache;
    each still equals per-disk sampling bit for bit, as does the next
    draw of its generator."""
    configs = [ScenarioConfig(num_clusters=c, radius_r_m=r)
               for c in (2, 5, 10) for r in (50.0, 20.0)]
    configs += [ScenarioConfig(mode="density", lambda_per_m2=lam, radius_r_m=r)
                for lam in (1e-4, 5e-4) for r in (50.0, 20.0)]
    hits = _drop_plan.cache_info().hits
    cluster_counts = set()
    for rep in range(4):
        for i, config in enumerate(configs):
            seed = 1000 * rep + i
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            topo = build_topology(config, rng)
            centers, xy, cluster_of = _reference_drop(config, ref_rng)
            assert topo.centers.tobytes() == centers.tobytes()
            assert topo.xy.shape == xy.shape and topo.xy.tobytes() == xy.tobytes()
            assert topo.cluster_of.tolist() == cluster_of.tolist()
            assert list(topo.cluster_bounds) == np.searchsorted(
                cluster_of, np.arange(topo.n_clusters + 1)).tolist()
            assert rng.random() == ref_rng.random()
            if config.mode == "density":
                cluster_counts.add(topo.n_clusters)
    assert len(cluster_counts) > 1
    assert _drop_plan.cache_info().hits > hits


def test_drop_plan_arrays_are_read_only():
    plan = _drop_plan(2, (3, 2), 100.0, 50.0)
    assert plan.read.size == 2 * (2 + 5)
    assert plan.bounds == (0, 3, 5)
    for array in (plan.read, plan.scale, plan.cluster_of):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    topo = build_topology(ScenarioConfig(num_clusters=2, total_uavs=5),
                          np.random.default_rng(0))
    assert topo.cluster_of is plan.cluster_of
    with pytest.raises(ValueError, match="read-only"):
        topo.cluster_of[0] = 1
