import dataclasses
import math

import numpy as np
import pytest

from uavcast.channel import (
    LinkKind,
    PathLossParams,
    RadioParams,
    db_to_linear,
    linear_to_db,
    link_success_probability,
    mean_received_power,
    path_loss_db,
    path_loss_linear,
    reception_success,
    sample_power_fading,
    snr,
)
from uavcast.errors import ParameterError

RADIO = RadioParams.defaults()


def test_bs_link_loss_at_100m():
    # 39 + 26*log10(100) + 20*log10(2/5), evaluated by hand
    expected_db = 39.0 + 26.0 * 2.0 + 20.0 * math.log10(2.0 / 5.0)
    assert math.isclose(path_loss_db(LinkKind.BS_TO_UAV, 100.0, RADIO),
                        expected_db, rel_tol=1e-12)
    assert abs(path_loss_linear(LinkKind.BS_TO_UAV, 100.0, RADIO)
               - 4.9645514670e-09) < 1e-11


def test_uav_link_loss_at_10m():
    expected_db = 41.0 + 22.7 * 1.0 + 20.0 * math.log10(5.8 / 5.0)
    assert math.isclose(path_loss_db(LinkKind.UAV_TO_UAV, 10.0, RADIO),
                        expected_db, rel_tol=1e-12)
    assert abs(path_loss_linear(LinkKind.UAV_TO_UAV, 10.0, RADIO)
               - 3.1701807283e-07) < 1e-9


def test_frequency_term_vanishes_at_5ghz():
    params = RadioParams(
        p_bs_mw=1000.0, p_uav_mw=10.0, bandwidth_hz=20e6,
        noise_mw_per_hz=RADIO.noise_mw_per_hz, snr_threshold=20.0,
        bs_to_uav=PathLossParams(39.0, 26.0, 20.0, carrier_ghz=5.0),
        uav_to_uav=RADIO.uav_to_uav)
    # at d = 1 m both log terms are zero, leaving just the offset
    assert path_loss_db(LinkKind.BS_TO_UAV, 1.0, params) == 39.0
    assert path_loss_linear(LinkKind.BS_TO_UAV, 1.0, params) == 10.0 ** -3.9


@pytest.mark.parametrize("kind", [LinkKind.BS_TO_UAV, LinkKind.UAV_TO_UAV])
def test_path_loss_strictly_decreasing_gain(kind):
    d = np.array([1.0, 3.0, 10.0, 50.0, 200.0, 1000.0])
    gain = path_loss_linear(kind, d, RADIO)
    assert np.all(np.diff(gain) < 0)


def test_short_distances_clamp():
    at_clamp = path_loss_db(LinkKind.UAV_TO_UAV, 1.0, RADIO)
    below = path_loss_db(LinkKind.UAV_TO_UAV, np.array([0.0, 0.5, 2.0]), RADIO)
    assert below[0] == at_clamp and below[1] == at_clamp
    assert below[2] > at_clamp


def test_db_linear_round_trip():
    values = np.array([1e-12, 3.7e-5, 1.0, 250.0, 9.9e8])
    back = db_to_linear(linear_to_db(values))
    assert np.all(np.abs(back / values - 1.0) < 1e-12)
    assert float(db_to_linear(0.0)) == 1.0


def test_noise_power_is_bandwidth_times_density():
    assert math.isclose(RADIO.noise_power_mw, 20e6 * 10.0 ** -17.4,
                        rel_tol=1e-15)
    assert math.isclose(RADIO.noise_power_mw, 7.96214341106997e-11,
                        rel_tol=1e-12)


def test_fading_moments():
    rng = np.random.default_rng(0)
    draws = sample_power_fading(rng, 1_000_000)
    assert np.all(draws >= 0.0)
    assert abs(draws.mean() - 1.0) < 0.004
    assert abs(np.mean(draws > 1.0) - math.exp(-1.0)) < 0.002


def test_snr_arithmetic():
    value = float(snr(10.0, 1e-9, 1.0, RADIO))
    assert math.isclose(value, 1e-8 / RADIO.noise_power_mw, rel_tol=1e-12)
    assert 125.0 < value < 126.0
    assert float(snr(20.0, 1e-9, 1.0, RADIO)) == pytest.approx(2 * value)
    assert float(snr(10.0, 1e-9, 0.0, RADIO)) == 0.0


def test_uav_link_success_probability_at_50m():
    p = link_success_probability(10.0, 50.0, LinkKind.UAV_TO_UAV, RADIO)
    gain = 10.0 ** (-(41.0 + 22.7 * math.log10(50.0)
                      + 20.0 * math.log10(5.8 / 5.0)) / 10.0)
    expected = math.exp(-20.0 * RADIO.noise_power_mw / (10.0 * gain))
    assert math.isclose(p, expected, rel_tol=1e-12)
    assert math.isclose(p, 0.9807941462475604, rel_tol=1e-10)


@pytest.mark.parametrize("kind,p_tx,distances", [
    (LinkKind.BS_TO_UAV, 1000.0, (200.0, 400.0, 700.0, 1000.0, 1400.0)),
    (LinkKind.UAV_TO_UAV, 10.0, (5.0, 20.0, 50.0, 90.0, 140.0)),
])
def test_reception_success_matches_closed_form(kind, p_tx, distances):
    """Bernoulli reception draws agree with the exponential success law."""
    rng = np.random.default_rng(6)
    n = 100_000
    for dist in distances:
        p = link_success_probability(p_tx, dist, kind, RADIO)
        draws = reception_success(p_tx, np.full(n, dist), kind, RADIO, rng)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(draws.mean() - p) < 4.0 * se


def test_reception_success_limits():
    rng = np.random.default_rng(2)
    strong = reception_success(1e15, np.full(1000, 100.0),
                               LinkKind.BS_TO_UAV, RADIO, rng)
    assert strong.all()
    weak = reception_success(1000.0, np.full(1000, 1e7),
                             LinkKind.BS_TO_UAV, RADIO, rng)
    assert not weak.any()
    assert isinstance(reception_success(1000.0, 400.0, LinkKind.BS_TO_UAV,
                                        RADIO, rng), bool)


def test_link_kind_selection():
    assert RADIO.tx_power_mw(LinkKind.BS_TO_UAV) == 1000.0
    assert RADIO.tx_power_mw(LinkKind.UAV_TO_UAV) == 10.0
    assert RADIO.loss_params(LinkKind.BS_TO_UAV).carrier_ghz == 2.0
    assert RADIO.loss_params(LinkKind.UAV_TO_UAV).carrier_ghz == 5.8


def test_radio_params_validation():
    with pytest.raises(ParameterError, match="p_bs_mw"):
        RadioParams(p_bs_mw=0.0, p_uav_mw=10.0, bandwidth_hz=20e6,
                    noise_mw_per_hz=1e-17, snr_threshold=20.0,
                    bs_to_uav=RADIO.bs_to_uav, uav_to_uav=RADIO.uav_to_uav)
    with pytest.raises(ParameterError, match="snr_threshold"):
        RadioParams(p_bs_mw=1000.0, p_uav_mw=10.0, bandwidth_hz=20e6,
                    noise_mw_per_hz=1e-17, snr_threshold=-1.0,
                    bs_to_uav=RADIO.bs_to_uav, uav_to_uav=RADIO.uav_to_uav)
    with pytest.raises(ParameterError, match="carrier_ghz"):
        PathLossParams(39.0, 26.0, 20.0, carrier_ghz=0.0)
    with pytest.raises(ParameterError, match="pl0_db"):
        PathLossParams(math.nan, 26.0, 20.0, carrier_ghz=2.0)


_OTHER_RADIO = RadioParams(
    p_bs_mw=250.0, p_uav_mw=3.5, bandwidth_hz=10e6, noise_mw_per_hz=4e-21,
    snr_threshold=7.0,
    bs_to_uav=PathLossParams(pl0_db=35.5, dist_coeff_db=30.1,
                             freq_coeff_db=21.0, carrier_ghz=3.5),
    uav_to_uav=PathLossParams(pl0_db=44.0, dist_coeff_db=18.3,
                              freq_coeff_db=19.0, carrier_ghz=2.4))


@pytest.mark.parametrize("radio", [RADIO, _OTHER_RADIO],
                         ids=["default", "other"])
@pytest.mark.parametrize("kind", list(LinkKind))
def test_mean_received_power_matches_path_loss(radio, kind):
    """Cached link constants give p_tx * path_loss_linear bit for bit, and
    path_loss_db equals the law evaluated from the fields in the same
    order, for arrays (sub-metre distances included) and scalars."""
    d = np.concatenate([[0.0, 1e-9, 0.3, 0.999, 1.0, 1.0000001],
                        np.random.default_rng(4).uniform(0.0, 3000.0, 3000)])
    p = radio.loss_params(kind)
    expected_db = (p.pl0_db + p.dist_coeff_db * np.log10(np.maximum(d, 1.0))
                   + p.freq_coeff_db * np.log10(p.carrier_ghz / 5.0))
    assert path_loss_db(kind, d, radio).tobytes() == expected_db.tobytes()
    power = mean_received_power(kind, d, radio)
    want = radio.tx_power_mw(kind) * path_loss_linear(kind, d, radio)
    assert power.tobytes() == want.tobytes()
    assert power.shape == d.shape
    for x in (0.5, 120.0, 2999.5):
        assert isinstance(path_loss_db(kind, x, radio), float)
        assert (mean_received_power(kind, x, radio)
                == radio.tx_power_mw(kind) * path_loss_linear(kind, x, radio))


def test_replaced_radio_gets_its_own_link_constants():
    mean_received_power(LinkKind.BS_TO_UAV, 100.0, RADIO)
    louder = dataclasses.replace(RADIO, p_bs_mw=2000.0)
    assert (mean_received_power(LinkKind.BS_TO_UAV, 100.0, louder)
            == 2000.0 * path_loss_linear(LinkKind.BS_TO_UAV, 100.0, RADIO))
    farther = dataclasses.replace(
        RADIO, bs_to_uav=dataclasses.replace(RADIO.bs_to_uav, pl0_db=45.0))
    assert path_loss_db(LinkKind.BS_TO_UAV, 100.0, farther) == pytest.approx(
        path_loss_db(LinkKind.BS_TO_UAV, 100.0, RADIO) + 6.0, rel=1e-12)
