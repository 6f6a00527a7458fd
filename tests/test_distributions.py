import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import disk_points
from uavcast.distributions import (
    ClusterGeometry,
    DistanceDistribution,
    _ks_gap,
    bs_member_support,
    center_offset_support,
    empirical_distance_check,
    pdf_bs_member_distance,
    pdf_center_offset,
    pdf_member_pair_distance,
    pdf_peer_distance,
    pdf_planar_bs_distance,
    peer_support,
    planar_bs_support,
    sampler_self_check,
)
from uavcast.errors import IntegrityError, ParameterError

GEOM = ClusterGeometry(v_norm=800.0, radius_r=50.0, h1=10.0, h2=20.0)


def test_geometry_validation():
    with pytest.raises(ParameterError):
        ClusterGeometry(v_norm=800.0, radius_r=0.0, h1=10.0, h2=20.0)
    with pytest.raises(ParameterError):
        ClusterGeometry(v_norm=40.0, radius_r=50.0, h1=10.0, h2=20.0)
    with pytest.raises(ParameterError):
        ClusterGeometry(v_norm=800.0, radius_r=50.0, h1=-1.0, h2=20.0)
    assert GEOM.delta_h == 10.0


def test_supports():
    assert planar_bs_support(GEOM) == (750.0, 850.0)
    lo, hi = bs_member_support(GEOM)
    assert lo == math.sqrt(750.0 ** 2 + 100.0)
    assert hi == math.sqrt(850.0 ** 2 + 100.0)
    assert peer_support(20.0, 50.0) == (0.0, 70.0)
    assert center_offset_support(50.0) == (0.0, 50.0)


def test_planar_pdf_endpoints_are_exactly_zero():
    lo, hi = planar_bs_support(GEOM)
    vals = pdf_planar_bs_distance(np.array([lo, hi]), GEOM)
    assert vals[0] == 0.0 and vals[1] == 0.0
    # and zero outside the support
    outside = pdf_planar_bs_distance(np.array([lo - 1.0, hi + 1.0]), GEOM)
    assert np.all(outside == 0.0)


def test_planar_pdf_normalizes():
    lo, hi = planar_bs_support(GEOM)
    total, err = integrate.quad(
        lambda x: float(pdf_planar_bs_distance(x, GEOM)), lo, hi, limit=200)
    assert abs(total - 1.0) < 1e-8


def test_3d_pdf_matches_planar_when_heights_equal():
    geom = ClusterGeometry(v_norm=800.0, radius_r=50.0, h1=15.0, h2=15.0)
    x = np.linspace(750.0, 850.0, 301)
    np.testing.assert_allclose(pdf_bs_member_distance(x, geom),
                               pdf_planar_bs_distance(x, geom),
                               rtol=1e-12, atol=0.0)


def test_3d_pdf_normalizes_with_height_offset():
    lo, hi = bs_member_support(GEOM)
    total, err = integrate.quad(
        lambda d: float(pdf_bs_member_distance(d, GEOM)), lo, hi, limit=200)
    assert abs(total - 1.0) < 1e-8


def test_peer_pdf_branches_agree_at_junction():
    r, a = 50.0, 20.0
    j = r - a
    full = pdf_peer_distance(np.array([j]), a, r)[0]
    assert full == 2.0 * j / r ** 2
    # the arc-branch expression evaluated exactly at the junction point:
    # (d + j)(d - j)/(2 a d) - j/d collapses to -1 with no rounding
    arc_at_j = (2.0 * j / (np.pi * r ** 2)) * np.arccos(
        np.clip((j + j) * (j - j) / (2.0 * a * j) - j / j, -1.0, 1.0))
    assert abs(arc_at_j - full) <= 1e-12 * full
    # one float to the right of the junction the arc branch takes over
    right = pdf_peer_distance(np.array([np.nextafter(j, np.inf)]), a, r)[0]
    assert abs(right - full) <= 1e-7 * full


def test_peer_pdf_inner_branch_is_linear():
    r, a = 50.0, 20.0
    d = np.linspace(0.0, r - a, 50)
    np.testing.assert_allclose(pdf_peer_distance(d, a, r), 2.0 * d / r ** 2,
                               rtol=0.0, atol=0.0)


def test_peer_pdf_zero_offset_reduces_to_disk_radial_law():
    d = np.linspace(0.0, 50.0, 101)
    np.testing.assert_allclose(pdf_peer_distance(d, 0.0, 50.0),
                               2.0 * d / 50.0 ** 2, rtol=0.0, atol=0.0)
    assert pdf_peer_distance(np.array([50.0 + 1e-9]), 0.0, 50.0)[0] == 0.0


def test_peer_pdf_argument_validation():
    with pytest.raises(ParameterError):
        pdf_peer_distance(np.array([1.0]), 60.0, 50.0)
    with pytest.raises(ParameterError):
        pdf_peer_distance(np.array([1.0]), -1.0, 50.0)
    with pytest.raises(ParameterError):
        pdf_peer_distance(np.array([1.0]), 10.0, 0.0)
    with pytest.raises(ParameterError, match="radius_r"):
        pdf_peer_distance(np.array([1.0]), 0.0, math.nan)


def test_peer_pdf_normalizes():
    for a in (5.0, 25.0, 45.0):
        total, err = integrate.quad(
            lambda d: float(pdf_peer_distance(d, a, 50.0)), 0.0, 50.0 + a,
            points=[50.0 - a], limit=200)
        assert abs(total - 1.0) < 1e-8, a


@given(a_frac=st.floats(0.0, 1.0), r=st.floats(1.0, 500.0))
@settings(max_examples=60, deadline=None)
def test_peer_pdf_nonnegative_and_supported(a_frac, r):
    a = a_frac * r
    d = np.linspace(-0.1 * r, 1.5 * (r + a) + 1e-9, 257)
    f = pdf_peer_distance(d, a, r)
    assert np.all(f >= 0.0)
    assert np.all(f[(d < 0) | (d > r + a)] == 0.0)


def test_center_offset_pdf():
    a = np.array([-1.0, 0.0, 25.0, 50.0, 51.0])
    f = pdf_center_offset(a, 50.0)
    np.testing.assert_allclose(f, [0.0, 0.0, 0.02, 0.04, 0.0], atol=0.0)
    total, err = integrate.quad(
        lambda t: float(pdf_center_offset(t, 50.0)), 0.0, 50.0)
    assert abs(total - 1.0) < 1e-12
    with pytest.raises(ParameterError):
        pdf_center_offset(a, -2.0)
    with pytest.raises(ParameterError, match="radius_r"):
        pdf_center_offset(a, math.nan)


@pytest.mark.parametrize("r", [10.0, 50.0])
def test_member_pair_pdf_moments(r):
    def moment(k):
        total, err = integrate.quad(
            lambda d: d ** k * float(pdf_member_pair_distance(d, r)),
            0.0, 2.0 * r, epsabs=0.0, epsrel=1e-13, limit=200)
        return total

    assert moment(0) == pytest.approx(1.0, abs=1e-12)
    # E|X - Y| = 128 r / (45 pi); E|X - Y|^2 = 2 E|X|^2 = r^2
    assert moment(1) == pytest.approx(128.0 * r / (45.0 * math.pi), rel=1e-12)
    assert moment(2) == pytest.approx(r ** 2, rel=1e-12)


@pytest.mark.parametrize("r", [10.0, 50.0])
def test_member_pair_pdf_is_zero_outside_support(r):
    d = np.array([-r, -1e-9, 0.0, 2.0 * r, np.nextafter(2.0 * r, np.inf),
                  3.0 * r, np.inf])
    np.testing.assert_array_equal(pdf_member_pair_distance(d, r), 0.0)
    inside = np.linspace(0.0, 2.0 * r, 201)[1:-1]
    assert np.all(pdf_member_pair_distance(inside, r) > 0.0)
    with pytest.raises(ParameterError):
        pdf_member_pair_distance(d, 0.0)
    with pytest.raises(ParameterError):
        pdf_member_pair_distance(d, math.inf)


@pytest.mark.parametrize("r", [10.0, 50.0])
def test_member_pair_pdf_is_the_offset_mixture_of_peer_pdfs(r):
    """The pair density is the peer density averaged over the offset a."""
    def mixture(d):
        lo = max(0.0, d - r)  # the receiver is out of reach for a < d - r
        junction = r - d      # peer-density branch junction in a
        points = [junction] if lo < junction < r else None
        total, err = integrate.quad(
            lambda a: float(pdf_peer_distance(d, a, r) * pdf_center_offset(a, r)),
            lo, r, points=points, epsabs=1e-13, epsrel=1e-12, limit=200)
        return total

    for d in (0.05 * r, 0.5 * r, r - 1e-6, r + 1e-6, 1.5 * r, 1.9 * r):
        assert abs(float(pdf_member_pair_distance(d, r)) - mixture(d)) <= 1e-9, d


def test_distribution_rejects_unnormalized_pdf():
    for value in (0.5, math.nan):
        with pytest.raises(IntegrityError, match="integrates"):
            DistanceDistribution(
                lambda x: np.full_like(np.asarray(x, float), value), (0.0, 1.0))


def test_distribution_rejects_negative_pdf():
    # integrates to exactly 1 but dips below zero past x = 5/6
    with pytest.raises(IntegrityError, match="negative"):
        DistanceDistribution(lambda x: 2.5 - 3.0 * np.asarray(x, float),
                             (0.0, 1.0))


def test_distribution_rejects_bad_support():
    with pytest.raises(ParameterError):
        DistanceDistribution(lambda x: np.ones_like(np.asarray(x, float)),
                             (1.0, 0.0))
    with pytest.raises(ParameterError):
        DistanceDistribution(lambda x: np.ones_like(np.asarray(x, float)),
                             (0.0, math.inf))


def test_degenerate_support_returns_point_mass():
    dist = DistanceDistribution(lambda x: np.zeros_like(np.asarray(x, float)),
                                (5.0, 5.0))
    rng = np.random.default_rng(0)
    assert dist.sample(rng) == 5.0
    assert np.all(dist.sample(rng, 10) == 5.0)


def test_cdf_is_monotone_and_clamped():
    dist = DistanceDistribution.peer(25.0, 50.0)
    x = np.linspace(-10.0, 90.0, 400)
    c = dist.cdf(x)
    assert np.all(np.diff(c) >= 0.0)
    assert c[0] == 0.0 and c[-1] == 1.0
    assert dist.cdf(0.0) == 0.0
    assert abs(dist.cdf(75.0) - 1.0) < 1e-9


def test_sample_shapes():
    dist = DistanceDistribution.center_offset(50.0)
    rng = np.random.default_rng(1)
    scalar = dist.sample(rng)
    assert isinstance(scalar, float) and 0.0 <= scalar <= 50.0
    arr = dist.sample(rng, 100)
    assert arr.shape == (100,)
    assert arr.min() >= 0.0 and arr.max() <= 50.0


def test_center_offset_sample_mean():
    """Mean radial offset on a uniform disk of radius r is 2r/3."""
    dist = DistanceDistribution.center_offset(50.0)
    mean = np.mean(dist.sample(np.random.default_rng(4), 200_000))
    assert abs(mean - 100.0 / 3.0) < 0.1


def test_peer_sample_mean_zero_offset():
    dist = DistanceDistribution.peer(0.0, 50.0)
    mean = np.mean(dist.sample(np.random.default_rng(5), 200_000))
    assert abs(mean - 100.0 / 3.0) < 0.1


def test_empirical_check_bs_member():
    dist = DistanceDistribution.bs_member(GEOM)
    gap = empirical_distance_check(dist, 10_000, np.random.default_rng(12))
    assert gap < 0.02


def test_empirical_check_peer():
    dist = DistanceDistribution.peer(25.0, 50.0)
    gap = empirical_distance_check(dist, 1_000_000, np.random.default_rng(13))
    assert gap < 0.005


@pytest.mark.parametrize("offset_a", [1e-4, 5e-5, 1e-5])
def test_peer_distribution_small_offsets(offset_a):
    # the arccos argument must stay within its clamp up to d = r + a even
    # when a is tiny next to r
    dist = DistanceDistribution.peer(offset_a, 50.0)
    gap = empirical_distance_check(dist, 100_000, np.random.default_rng(16))
    assert gap < 0.01


def test_empirical_check_center_offset():
    dist = DistanceDistribution.center_offset(50.0)
    gap = empirical_distance_check(dist, 100_000, np.random.default_rng(14))
    assert gap < 0.01


def test_sampler_self_check():
    dist = DistanceDistribution.bs_member(GEOM)
    gap = sampler_self_check(dist, 100_000, np.random.default_rng(15))
    assert gap < 0.01


KINDS = {
    "bs-member": lambda: DistanceDistribution.bs_member(GEOM),
    "peer": lambda: DistanceDistribution.peer(20.0, 50.0),
    "center-offset": lambda: DistanceDistribution.center_offset(50.0),
    "point-mass": lambda: DistanceDistribution(
        lambda x: np.zeros_like(np.asarray(x, float)), (5.0, 5.0)),
}


@pytest.mark.parametrize("seed", [0, 15, 2024])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_sampler_self_check_is_the_gap_of_sample(kind, seed):
    """Sorting the uniforms before inverting them leaves the gap exact."""
    dist = KINDS[kind]()
    gap = sampler_self_check(dist, 20_000, np.random.default_rng(seed))
    assert gap == _ks_gap(dist.sample(np.random.default_rng(seed), 20_000),
                          dist)


@pytest.mark.parametrize("kind", ["bs-member", "peer", "center-offset"])
def test_positional_samplers_measure_cartesian_points(kind):
    """Each geometric sampler gives the distances of the Cartesian points it
    stands for, drawn from a twin generator."""
    n = 20_000
    dist = KINDS[kind]()
    got = dist._positional_sampler(np.random.default_rng(8), n)
    rng = np.random.default_rng(8)
    if kind == "bs-member":
        pts = disk_points(rng, n, GEOM.radius_r, (GEOM.v_norm, 0.0))
        want = np.hypot(np.hypot(pts[:, 0], pts[:, 1]), GEOM.delta_h)
    else:
        offset = 20.0 if kind == "peer" else 0.0
        pts = disk_points(rng, n, 50.0, (offset, 0.0))
        want = np.hypot(pts[:, 0], pts[:, 1])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("n_samples", [0, -1])
@pytest.mark.parametrize("check", [empirical_distance_check,
                                   sampler_self_check])
def test_checks_reject_sample_counts_below_one(check, n_samples):
    dist = DistanceDistribution.bs_member(GEOM)
    with pytest.raises(ParameterError, match="n_samples"):
        check(dist, n_samples, np.random.default_rng(0))


def test_empirical_check_argument_validation():
    dist = DistanceDistribution.bs_member(GEOM)
    with pytest.raises(ParameterError):
        empirical_distance_check(dist, 0, np.random.default_rng(0))
    bare = DistanceDistribution(lambda a: pdf_center_offset(a, 50.0),
                                (0.0, 50.0))
    with pytest.raises(ParameterError, match="positional"):
        empirical_distance_check(bare, 100, np.random.default_rng(0))


def test_random_parameterizations_normalize():
    """pdfs integrate to 1 across a spread of geometries."""
    rng = np.random.default_rng(99)
    for _ in range(5):
        r = rng.uniform(5.0, 100.0)
        v = r + rng.uniform(1.0, 4.0 * r)
        h1, h2 = rng.uniform(0.0, 30.0, 2)
        a = rng.uniform(0.05, 0.95) * r
        geom = ClusterGeometry(v_norm=v, radius_r=r, h1=h1, h2=h2)
        lo, hi = bs_member_support(geom)
        t1, _ = integrate.quad(
            lambda d: float(pdf_bs_member_distance(d, geom)), lo, hi, limit=200)
        t2, _ = integrate.quad(
            lambda d: float(pdf_peer_distance(d, a, r)), 0.0, r + a,
            points=[r - a], limit=200)
        assert abs(t1 - 1.0) < 1e-6
        assert abs(t2 - 1.0) < 1e-6
