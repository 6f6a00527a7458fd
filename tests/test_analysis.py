import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uavcast
from uavcast.analysis import (
    _integrate,
    average_ase,
    average_delay,
    cluster_peer_count,
    coverage_probability,
    request_success_probability,
    transmission_success_probability,
)
from uavcast.channel import RadioParams
from uavcast.distributions import ClusterGeometry
from uavcast.errors import NumericError, ParameterError

RADIO = RadioParams.defaults()


def _geom(v):
    return ClusterGeometry(v_norm=v, radius_r=50.0, h1=10.0, h2=20.0)


# Quadrature reference values, cross-checked against Monte Carlo link
# simulation at 1e6 trials (all within sampling error).
P_COV = {400.0: 0.988117115723472,
         800.0: 0.9307929356717329,
         1200.0: 0.8143230640378909}
P_SUC = {25.0: 0.9957935165724774,
         50.0: 0.9800038586088075,
         100.0: 0.9098932690799225}


@pytest.mark.parametrize("v,expected", sorted(P_COV.items()))
def test_coverage_probability_reference_values(v, expected):
    assert coverage_probability(_geom(v), RADIO) == pytest.approx(
        expected, rel=1e-9)


def test_coverage_probability_near_one_close_in():
    assert coverage_probability(_geom(400.0), RADIO) == pytest.approx(
        0.988, abs=0.01)


def test_coverage_decreases_with_distance():
    values = [coverage_probability(_geom(v), RADIO)
              for v in (200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < p < 1.0 for p in values)


def test_coverage_saturates_with_power():
    strong = dataclasses.replace(RadioParams.defaults(), p_bs_mw=1e9)
    assert coverage_probability(_geom(800.0), strong) > 0.99999


@pytest.mark.parametrize("r,expected", sorted(P_SUC.items()))
def test_transmission_success_reference_values(r, expected):
    assert transmission_success_probability(r, RADIO) == pytest.approx(
        expected, rel=1e-10)


def test_transmission_success_decreases_with_radius():
    values = [transmission_success_probability(r, RADIO)
              for r in (10.0, 25.0, 50.0, 75.0, 100.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_transmission_success_validation():
    with pytest.raises(ParameterError):
        transmission_success_probability(0.0, RADIO)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="^radius_r must be positive"):
            transmission_success_probability(bad, RADIO)


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


def _mp_success(mp, p_tx_mw, loss_db):
    """Rayleigh link success at the default bandwidth, noise and threshold."""
    noise_mw = mp.mpf(20e6) * mp.mpf(10) ** mp.mpf("-17.4")
    return mp.exp(-20 * noise_mw / (p_tx_mw * mp.mpf(10) ** (-loss_db / 10)))


# The two tests below re-derive the link law and the distance densities in
# 30-digit mpmath without calling package channel or distribution code.

# The 1e-3 mW relay is weak enough that the quadrature needs 256 nodes per
# panel before two estimates agree.
@pytest.mark.parametrize("r,p_uav_mw", [
    *(pytest.param(r, 10, id=str(r)) for r in (10, 25, 50, 100)),
    pytest.param(100, "1e-3", id="100-weak-relay"),
])
def test_transmission_success_matches_mpmath(mp, r, p_uav_mw):
    def relay(d):  # UAV-to-UAV link, distances clamped at 1 m
        loss = (41 + mp.mpf("22.7") * mp.log10(max(d, 1))
                + 20 * mp.log10(mp.mpf("5.8") / 5))
        return _mp_success(mp, mp.mpf(p_uav_mw), loss)

    def chord(d):  # distance between two uniform points in the disk
        t = d / (2 * r)
        return 4 * d / (mp.pi * r * r) * (mp.acos(t) - t * mp.sqrt(1 - t * t))

    ref = mp.quad(lambda d: relay(d) * chord(d), [0, 1, 2 * r])
    radio = dataclasses.replace(RADIO, p_uav_mw=float(p_uav_mw))
    assert transmission_success_probability(float(r), radio) == pytest.approx(
        float(ref), rel=1e-12)


# v = 51 grazes the BS: the cluster disk comes within 1 m of it in the
# plane, and the quadrature needs 128 nodes.
@pytest.mark.parametrize("v", [400, 800, 1200, 51])
def test_coverage_probability_matches_mpmath(mp, v):
    r, dh = 50, 10

    def broadcast(x):  # BS-to-member link at planar distance x
        d = mp.sqrt(x * x + dh * dh)
        return _mp_success(mp, 1000, 39 + 26 * mp.log10(d)
                           + 20 * mp.log10(mp.mpf(2) / 5))

    def planar(x):  # arc of the circle of radius x around the BS inside the disk
        arg = (x * x + v * v - r * r) / (2 * v * x)
        return 2 * x / (mp.pi * r * r) * mp.acos(max(min(arg, 1), -1))

    ref = mp.quad(lambda x: broadcast(x) * planar(x), [v - r, v, v + r])
    assert coverage_probability(_geom(float(v)), RADIO) == pytest.approx(
        float(ref), rel=1e-12)


def test_integrate_rejects_a_nonconverging_integrand():
    def step(x):
        return (x > 1.0 / 3.0).astype(float)

    with pytest.raises(NumericError, match=r"\[0\.0, 1\.0\]"):
        _integrate(step, (0.0, 1.0))


def test_import_leaves_scipy_unloaded():
    src = str(Path(uavcast.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, uavcast; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_cluster_peer_count():
    assert cluster_peer_count(1e-3, 50.0) == 7
    assert cluster_peer_count(1e-3, 28.0) == 2
    with pytest.raises(ParameterError):
        cluster_peer_count(0.0, 50.0)
    with pytest.raises(ParameterError):
        cluster_peer_count(1e-3, -1.0)


def test_request_success_full_coverage_equals_relay_success():
    assert request_success_probability(1.0, 0.73, 1e-3, 50.0) == 0.73


def test_request_success_exact_small_case():
    # floor(1e-3 * pi * 28^2) = 2 holders: (1 - 0.5^2) * 0.9 = 0.675
    assert request_success_probability(0.5, 0.9, 1e-3, 28.0) == 0.675


def test_request_success_monotone_in_coverage():
    values = [request_success_probability(p, 0.9, 1e-3, 50.0)
              for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_request_success_validation():
    with pytest.raises(ParameterError):
        request_success_probability(1.2, 0.9, 1e-3, 50.0)
    with pytest.raises(ParameterError):
        request_success_probability(0.5, -0.1, 1e-3, 50.0)
    with pytest.raises(ParameterError, match="at least 1"):
        request_success_probability(0.5, 0.9, 1e-5, 50.0)


def test_average_delay_exact_values():
    assert average_delay(1.0, 0.3, 10.0, 1.0) == 10.0
    assert average_delay(0.0, 1.0, 10.0, 1.0) == 21.0
    assert average_delay(0.9, 0.95, 10.0, 1.0) == pytest.approx(
        11.157894736842104, rel=1e-14)


def test_average_delay_diverges_without_relay():
    # an uncovered member waits forever for a relay that never decodes
    assert average_delay(0.5, 0.0, 10.0, 1.0) == math.inf
    assert average_delay(0.0, 0.0, 10.0, 1.0) == math.inf
    # full coverage never needs the relay, so p_suc = 0 is fine there
    assert average_delay(1.0, 0.0, 10.0, 1.0) == 10.0


def test_average_delay_bounds_and_validation():
    for p_cov in (0.0, 0.25, 0.5, 0.75, 1.0):
        for p_suc in (0.2, 0.6, 1.0):
            assert average_delay(p_cov, p_suc, 10.0, 1.0) >= 10.0
    with pytest.raises(ParameterError):
        average_delay(0.5, 0.5, 0.0, 1.0)
    with pytest.raises(ParameterError):
        average_delay(0.5, 0.5, 10.0, -1.0)


def test_average_ase_exact_value():
    # full coverage: lambda_off * log2(1 + threshold)
    assert average_ase(1.0, 0.4, 1e-3, 20.0) == pytest.approx(
        0.0043923174227787605, rel=1e-14)
    # relay success is irrelevant once everyone is covered
    assert average_ase(1.0, 0.1, 1e-3, 20.0) == average_ase(1.0, 0.9, 1e-3, 20.0)


def test_average_ase_bounds_and_validation():
    full = average_ase(1.0, 1.0, 1e-3, 20.0)
    assert 0.0 < average_ase(0.3, 0.5, 1e-3, 20.0) < full
    with pytest.raises(ParameterError):
        average_ase(0.5, 0.5, 0.0, 20.0)
    with pytest.raises(ParameterError):
        average_ase(0.5, 0.5, 1e-3, 0.0)


def test_request_success_is_below_relay_success_under_partial_coverage():
    """Imperfect coverage leaves some clusters without a holder, so p_req
    stays below p_suc, here at the quadrature values of d0 = 800 m and
    r = 50 m."""
    p_req = request_success_probability(P_COV[800.0], P_SUC[50.0], 1e-3, 50.0)
    assert p_req < P_SUC[50.0]
