import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import disk_points
from uavcast.channel import MIN_DISTANCE_M
from uavcast.config import ScenarioConfig
from uavcast.errors import ParameterError
from uavcast.experiments import replay_drops
from uavcast.geometry import (
    _bs_distances,
    _bs_site,
    _drop_law,
    _drop_plan,
    _drop_points,
    polar_offset_distance,
    polar_pair_distance,
    sample_uniform_disk_polar,
    write_topology_csv,
)


def _drop(config, rng):
    """One drop of `config` as a one-replication scenario draws it from its
    drops stream `rng`: `_drop_law` on one replication (its Poisson count
    in density mode), then `_drop_points` on its block of uniforms."""
    plan, = _drop_law(config)(rng, 1)
    centers, xy = _drop_points(plan, rng.random((1, plan.read.size)))
    return SimpleNamespace(xy=xy[0], centers=centers[0],
                           cluster_of=plan.cluster_of,
                           cluster_bounds=plan.bounds,
                           n_clusters=plan.n_clusters, n_uavs=plan.n_uavs)


def test_bs_distances_are_3d():
    """3-4-5 in the plane at equal heights, 3-4-12-13 with a height gap."""
    xy = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert _bs_distances(xy, 10.0, (0.0, 0.0), 10.0).tolist() == [5.0, 0.0]
    assert _bs_distances(xy, 22.0, (0.0, 0.0), 10.0).tolist() == [13.0, 12.0]


def test_uniform_disk_is_area_uniform():
    """P(radius <= r/2) must equal 1/4 for an area-uniform disk sample."""
    pts = disk_points(np.random.default_rng(11), 1_000_000, 50.0)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert radii.max() <= 50.0
    assert abs(np.mean(radii <= 25.0) - 0.25) < 0.002


def test_uniform_disk_radial_cdf_gap():
    pts = disk_points(np.random.default_rng(7), 100_000, 50.0)
    radii = np.sort(np.hypot(pts[:, 0], pts[:, 1]))
    empirical = np.arange(1, radii.size + 1) / radii.size
    assert np.max(np.abs(empirical - (radii / 50.0) ** 2)) < 0.01


def test_uniform_disk_argument_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        sample_uniform_disk_polar(rng, 10, 0.0)
    with pytest.raises(ParameterError):
        sample_uniform_disk_polar(rng, -1, 10.0)


def _assert_distances_match(got, want):
    """Relative 1e-12 from `MIN_DISTANCE_M` up, where the link law reads
    distances; absolute 1e-6 m below, where it clamps them."""
    assert not np.any(np.isnan(got))
    far = want >= MIN_DISTANCE_M
    np.testing.assert_allclose(got[far], want[far], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[~far], want[~far], rtol=0.0, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(radius=st.floats(0.5, 100.0), offset_frac=st.floats(0.0, 2.0),
       far_offset=st.booleans(), height=st.sampled_from([0.0, 10.0]),
       seed=st.integers(0, 2**32 - 1))
@example(radius=100.0, offset_frac=1.0, far_offset=False, height=0.0, seed=3)
@example(radius=0.5, offset_frac=0.0, far_offset=False, height=0.0, seed=4)
def test_polar_distances_match_cartesian_points(radius, offset_frac,
                                                 far_offset, height, seed):
    """The polar distances equal Cartesian disk points plus `hypot` on a twin
    generator, and leave the generator where the Cartesian draws leave it:
    offsets 0 to 2r (through the cancellation at offset = r) or out to
    3000 m; pairs of points on one disk."""
    n = 4000
    offset = 3000.0 * offset_frac / 2.0 if far_offset else offset_frac * radius
    polar, cartesian = (np.random.default_rng(seed) for _ in range(2))

    got = polar_offset_distance(
        offset, *sample_uniform_disk_polar(polar, n, radius), height)
    pts = disk_points(cartesian, n, radius, (offset, 0.0))
    _assert_distances_match(
        got, np.hypot(np.hypot(pts[:, 0], pts[:, 1]), height))

    got = polar_pair_distance(*sample_uniform_disk_polar(polar, n, radius),
                              *sample_uniform_disk_polar(polar, n, radius))
    a = disk_points(cartesian, n, radius)
    b = disk_points(cartesian, n, radius)
    _assert_distances_match(got, np.hypot(a[:, 0] - b[:, 0],
                                          a[:, 1] - b[:, 1]))
    assert polar.random() == cartesian.random()


def test_polar_distances_where_they_cancel():
    """Points within a few metres of the observer (offset ~ rho, theta ~ pi)
    and pairs within a few metres of each other, against the Cartesian
    points: where the planar law of cosines cancels to near 0, its terms are
    ~1e4 m^2 and their rounding alone exceeds both tolerances."""
    rng = np.random.default_rng(5)
    n = 20_000
    rho = 100.0 * (1.0 + rng.uniform(-0.02, 0.02, n))
    theta = np.pi + rng.uniform(-0.02, 0.02, n)
    x, y = 100.0 + rho * np.cos(theta), rho * np.sin(theta)
    _assert_distances_match(polar_offset_distance(100.0, rho, theta),
                            np.hypot(x, y))
    theta_b = theta + rng.uniform(-0.02, 0.02, n)
    rho_b = rho * (1.0 + rng.uniform(-0.02, 0.02, n))
    _assert_distances_match(
        polar_pair_distance(rho, theta, rho_b, theta_b),
        np.hypot(rho * np.cos(theta) - rho_b * np.cos(theta_b),
                 rho * np.sin(theta) - rho_b * np.sin(theta_b)))


def test_polar_distances_keep_their_inputs():
    rho, theta = sample_uniform_disk_polar(np.random.default_rng(2), 50, 10.0)
    saved = rho.copy(), theta.copy()
    polar_offset_distance(5.0, rho, theta, 3.0)
    polar_pair_distance(rho, theta, rho[::-1], theta[::-1])
    assert np.array_equal(rho, saved[0]) and np.array_equal(theta, saved[1])


def test_parent_process_mean_count():
    """Mean Poisson cluster count of density-mode drops tracks
    density * area (4 SE band)."""
    rng = np.random.default_rng(3)
    config = ScenarioConfig(mode="density", lambda_per_m2=1e-4)
    drops = 10_000
    counts = [plan.n_clusters for plan in _drop_law(config)(rng, drops)]
    target = 1e-4 * math.pi * config.region_radius_m ** 2
    se = math.sqrt(target / drops)
    assert abs(np.mean(counts) - target) < 4.0 * se


def test_parent_centers_inside_region():
    rng = np.random.default_rng(5)
    config = ScenarioConfig(mode="density", lambda_per_m2=5e-4)
    for _ in range(50):
        centers = _drop(config, rng).centers
        if centers.size:
            assert np.hypot(centers[:, 0], centers[:, 1]).max() <= 100.0


def test_cluster_members_stay_in_disk():
    topo = _drop(ScenarioConfig(num_clusters=1, total_uavs=10),
                 np.random.default_rng(2))
    assert topo.xy.shape == (10, 2)
    offsets = topo.xy - topo.centers[0]
    assert np.hypot(offsets[:, 0], offsets[:, 1]).max() <= 50.0


def test_cluster_members_count_contract():
    """One member per cluster is the smallest drop; fewer UAVs than
    clusters is rejected."""
    topo = _drop(ScenarioConfig(num_clusters=5, total_uavs=5),
                 np.random.default_rng(0))
    assert topo.cluster_of.tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(ParameterError, match="total_uavs"):
        ScenarioConfig(num_clusters=5, total_uavs=4)


@given(radius=st.floats(1.0, 100.0), num_clusters=st.integers(1, 10),
       per_cluster=st.integers(1, 40), seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_members_never_leave_the_disk(radius, num_clusters, per_cluster, seed):
    config = ScenarioConfig(radius_r_m=radius, num_clusters=num_clusters,
                            total_uavs=num_clusters * per_cluster)
    topo = _drop(config, np.random.default_rng(seed))
    assert topo.xy.shape == (num_clusters * per_cluster, 2)
    offsets = topo.xy - topo.centers[topo.cluster_of]
    assert np.hypot(offsets[:, 0], offsets[:, 1]).max() <= radius * (1.0 + 1e-12)


def test_build_topology_even_split():
    topo = _drop(ScenarioConfig(), np.random.default_rng(1))
    assert np.bincount(topo.cluster_of).tolist() == [10] * 5
    assert topo.n_uavs == 50


def test_build_topology_remainder_goes_first():
    config = ScenarioConfig(num_clusters=3, total_uavs=50)
    topo = _drop(config, np.random.default_rng(1))
    assert np.bincount(topo.cluster_of).tolist() == [17, 17, 16]


def test_build_topology_single_cluster():
    config = ScenarioConfig(num_clusters=1)
    topo = _drop(config, np.random.default_rng(1))
    assert topo.n_clusters == 1 and topo.cluster_of.tolist() == [0] * 50


def test_build_topology_density_mode():
    config = ScenarioConfig(mode="density")
    topo = _drop(config, np.random.default_rng(0))
    # every cluster holds floor(lambda_off * pi * r^2) = 7 members
    assert topo.n_clusters and np.bincount(
        topo.cluster_of, minlength=topo.n_clusters).tolist() == [7] * topo.n_clusters


def _reference_drop(config, rng):
    """The drop as one disk sample for the centers and one per cluster, in
    cluster order."""
    if config.mode == "fixed_total":
        k = config.num_clusters
        centers = disk_points(rng, k, config.region_radius_m)
        base, extra = divmod(config.total_uavs, k)
        counts = [base + (i < extra) for i in range(k)]
    else:
        k = int(rng.poisson(config.lambda_per_m2 * math.pi
                            * config.region_radius_m ** 2))
        centers = disk_points(rng, k, config.region_radius_m)
        counts = [math.floor(config.lambda_off_per_m2 * math.pi
                             * config.radius_r_m ** 2)] * k
    members = [disk_points(rng, c, config.radius_r_m, center)
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
    topo = _drop(config, rng)
    centers, xy, cluster_of = _reference_drop(config, ref_rng)
    assert topo.centers.shape == centers.shape
    assert topo.centers.tobytes() == centers.tobytes()
    assert topo.xy.shape == xy.shape and topo.xy.tobytes() == xy.tobytes()
    assert topo.cluster_of.tolist() == cluster_of.tolist()
    assert rng.random() == ref_rng.random()


def test_build_topology_geometry_and_heights():
    config = ScenarioConfig(d0_m=900.0, h1_m=12.0, h2_m=25.0)
    topo = _drop(config, np.random.default_rng(4))
    assert _bs_site(config) == (25.0, (900.0, 0.0), 12.0)
    centers = topo.centers
    assert np.hypot(centers[:, 0], centers[:, 1]).max() <= 100.0
    offsets = topo.xy - centers[topo.cluster_of]
    assert np.hypot(offsets[:, 0], offsets[:, 1]).max() <= config.radius_r_m


def test_build_topology_deterministic():
    config = ScenarioConfig()
    a = _drop(config, np.random.default_rng(9))
    b = _drop(config, np.random.default_rng(9))
    assert np.array_equal(a.xy, b.xy)
    assert np.array_equal(a.cluster_of, b.cluster_of)


def test_cluster_index_alignment():
    topo = _drop(ScenarioConfig(num_clusters=3, total_uavs=7),
                 np.random.default_rng(0))
    assert topo.cluster_of.tolist() == [0, 0, 0, 1, 1, 2, 2]
    assert topo.xy.shape == (7, 2)


def test_topology_csv_round_trip(tmp_path):
    config = ScenarioConfig(num_clusters=2, total_uavs=6)
    drops = [_drop(config, np.random.default_rng(s)) for s in (0, 1)]
    path = tmp_path / "drops.csv"
    write_topology_csv(path, [(d.xy, d.cluster_of) for d in drops], 25.0)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "drop_id,cluster_id,uav_id,x,y,h"
    assert len(lines) == 1 + 12
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "0"
    x, y = float(first[3]), float(first[4])
    assert math.isclose(x, drops[0].xy[0, 0], rel_tol=1e-9)
    assert math.isclose(y, drops[0].xy[0, 1], rel_tol=1e-9)
    assert {line.split(",")[5] for line in lines[1:]} == {"25"}
    assert [line.split(",")[0] for line in lines[1:]] == ["0"] * 6 + ["1"] * 6
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
            topo = _drop(config, rng)
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
    # the drops `topology` writes share the plan's arrays
    _, cluster_of = replay_drops(ScenarioConfig(num_clusters=2, total_uavs=5),
                                 1)[0]
    assert cluster_of is plan.cluster_of
    with pytest.raises(ValueError, match="read-only"):
        cluster_of[0] = 1
