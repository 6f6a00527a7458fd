import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavcast.channel import (
    LinkKind,
    PathLossParams,
    RadioParams,
    db_to_linear,
    decode_probability,
    decode_reach,
    decodes,
    mean_received_power,
    path_loss_db,
)
from uavcast.errors import ParameterError

RADIO = RadioParams.defaults()


def _gain(kind, distance_m, radio=RADIO):
    """Linear path gain: mean received power over the transmit power."""
    return mean_received_power(kind, distance_m, radio) / radio.tx_power_mw(kind)


def _link(radio):
    """The link model as the simulations draw it: one unit-mean exponential
    fading draw per listener, decided by `decodes`."""
    def link(power, rng):
        return decodes(power, rng.exponential(1.0, np.shape(power)), radio)
    return link


class _FixedFading:
    """Stands in for a generator: every fading draw is `value`."""

    def __init__(self, value):
        self.value = value

    def exponential(self, scale, size):
        return np.full(size, self.value)


def test_bs_link_loss_at_100m():
    # 39 + 26*log10(100) + 20*log10(2/5), evaluated by hand
    expected_db = 39.0 + 26.0 * 2.0 + 20.0 * math.log10(2.0 / 5.0)
    assert math.isclose(path_loss_db(LinkKind.BS_TO_UAV, 100.0, RADIO),
                        expected_db, rel_tol=1e-12)
    assert abs(_gain(LinkKind.BS_TO_UAV, 100.0) - 4.9645514670e-09) < 1e-11


def test_uav_link_loss_at_10m():
    expected_db = 41.0 + 22.7 * 1.0 + 20.0 * math.log10(5.8 / 5.0)
    assert math.isclose(path_loss_db(LinkKind.UAV_TO_UAV, 10.0, RADIO),
                        expected_db, rel_tol=1e-12)
    assert abs(_gain(LinkKind.UAV_TO_UAV, 10.0) - 3.1701807283e-07) < 1e-9


def test_frequency_term_vanishes_at_5ghz():
    params = RadioParams(
        p_bs_mw=1000.0, p_uav_mw=10.0, bandwidth_hz=20e6,
        noise_mw_per_hz=RADIO.noise_mw_per_hz, snr_threshold=20.0,
        bs_to_uav=PathLossParams(39.0, 26.0, 20.0, carrier_ghz=5.0),
        uav_to_uav=RADIO.uav_to_uav)
    # at d = 1 m both log terms are zero, leaving just the offset
    assert path_loss_db(LinkKind.BS_TO_UAV, 1.0, params) == 39.0
    assert (mean_received_power(LinkKind.BS_TO_UAV, 1.0, params)
            == params.p_bs_mw * 10.0 ** -3.9)


@pytest.mark.parametrize("kind", [LinkKind.BS_TO_UAV, LinkKind.UAV_TO_UAV])
def test_path_loss_strictly_decreasing_gain(kind):
    d = np.array([1.0, 3.0, 10.0, 50.0, 200.0, 1000.0])
    power = mean_received_power(kind, d, RADIO)
    assert np.all(np.diff(power) < 0)


def test_short_distances_clamp():
    at_clamp = path_loss_db(LinkKind.UAV_TO_UAV, 1.0, RADIO)
    below = path_loss_db(LinkKind.UAV_TO_UAV, np.array([0.0, 0.5, 2.0]), RADIO)
    assert below[0] == at_clamp and below[1] == at_clamp
    assert below[2] > at_clamp


def test_db_linear_round_trip():
    values = np.array([1e-12, 3.7e-5, 1.0, 250.0, 9.9e8])
    back = db_to_linear(10.0 * np.log10(values))
    assert np.all(np.abs(back / values - 1.0) < 1e-12)
    assert float(db_to_linear(0.0)) == 1.0


def test_noise_power_is_bandwidth_times_density():
    assert math.isclose(RADIO.noise_power_mw, 20e6 * 10.0 ** -17.4,
                        rel_tol=1e-15)
    assert math.isclose(RADIO.noise_power_mw, 7.96214341106997e-11,
                        rel_tol=1e-12)


def test_fading_moments():
    """The link model's fading is unit-mean exponential: at mean power
    theta * N / x a listener decodes with probability P(|h|^2 > x) =
    exp(-x), which pins both the law and its unit mean."""
    link = _link(RADIO)
    rng = np.random.default_rng(0)
    n = 1_000_000
    for x in (0.05, math.log(2.0), 1.0, 3.0):
        power = np.full(n, RADIO.snr_threshold * RADIO.noise_power_mw / x)
        p = math.exp(-x)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(link(power, rng).mean() - p) < 4.0 * se


def test_snr_arithmetic():
    """The link model decodes when (power * fading) / noise strictly exceeds the
    threshold: 1e-8 mW at unit fading is an SNR of about 125.6, and
    doubling power or fading doubles it."""
    value = 1e-8 / RADIO.noise_power_mw
    assert 125.0 < value < 126.0
    below = float(np.nextafter(value, 0.0))

    def decides(threshold, power, fading):
        radio = dataclasses.replace(RADIO, snr_threshold=threshold)
        return _link(radio)(np.array([power]), _FixedFading(fading)).tolist()

    assert decides(below, 1e-8, 1.0) == [True]
    assert decides(value, 1e-8, 1.0) == [False]
    assert decides(2 * below, 2e-8, 1.0) == [True]
    assert decides(2 * below, 1e-8, 2.0) == [True]
    assert decides(2 * value, 2e-8, 1.0) == [False]
    assert decides(1e-300, 1e-8, 0.0) == [False]


def test_uav_link_success_probability_at_50m():
    power = mean_received_power(LinkKind.UAV_TO_UAV, 50.0, RADIO)
    p = decode_probability(power, RADIO)
    assert isinstance(p, float)
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
    """Bernoulli reception draws of the link model agree with the exponential
    success law `decode_probability` at the same mean power."""
    link = _link(RADIO)
    rng = np.random.default_rng(6)
    n = 100_000
    for dist in distances:
        power = p_tx * 10.0 ** (-path_loss_db(kind, dist, RADIO) / 10.0)
        p = decode_probability(power, RADIO)
        draws = link(np.full(n, power), rng)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(draws.mean() - p) < 4.0 * se


def test_reception_success_limits():
    rng = np.random.default_rng(2)
    loud = dataclasses.replace(RADIO, p_bs_mw=1e15)
    strong = _link(loud)(
        mean_received_power(LinkKind.BS_TO_UAV, np.full(1000, 100.0), loud), rng)
    assert strong.all()
    weak = _link(RADIO)(
        mean_received_power(LinkKind.BS_TO_UAV, np.full(1000, 1e7), RADIO), rng)
    assert not weak.any()


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


@pytest.mark.parametrize("value", ["1000", None, True, 1000 + 0j, math.inf])
@pytest.mark.parametrize("name", ["p_bs_mw", "snr_threshold"])
def test_radio_params_reject_non_numbers(name, value):
    """A non-real or non-finite power fails naming its field, not as a
    bare TypeError from a comparison."""
    with pytest.raises(ParameterError, match=f"^{name}"):
        dataclasses.replace(RADIO, **{name: value})


@pytest.mark.parametrize("value", ["39", None, False, 39 + 0j, math.nan])
@pytest.mark.parametrize("name", ["pl0_db", "carrier_ghz"])
def test_path_loss_params_reject_non_numbers(name, value):
    fields = dict(pl0_db=39.0, dist_coeff_db=26.0, freq_coeff_db=20.0,
                  carrier_ghz=2.0)
    with pytest.raises(ParameterError, match=f"^{name}"):
        PathLossParams(**{**fields, name: value})


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
    """path_loss_db equals the law evaluated from the fields in the same
    order, and the cached link constants give p_tx * 10^(-dB / 10) bit for
    bit, for arrays (sub-metre distances included) and scalars."""
    d = np.concatenate([[0.0, 1e-9, 0.3, 0.999, 1.0, 1.0000001],
                        np.random.default_rng(4).uniform(0.0, 3000.0, 3000)])
    p = radio.loss_params(kind)
    expected_db = (p.pl0_db + p.dist_coeff_db * np.log10(np.maximum(d, 1.0))
                   + p.freq_coeff_db * np.log10(p.carrier_ghz / 5.0))
    assert path_loss_db(kind, d, radio).tobytes() == expected_db.tobytes()
    power = mean_received_power(kind, d, radio)
    want = radio.tx_power_mw(kind) * 10.0 ** (-expected_db / 10.0)
    assert power.tobytes() == want.tobytes()
    assert power.shape == d.shape
    for x in (0.5, 120.0, 2999.5):
        db = path_loss_db(kind, x, radio)
        assert isinstance(db, float)
        assert (mean_received_power(kind, x, radio)
                == radio.tx_power_mw(kind) * 10.0 ** (-np.float64(db) / 10.0))


@pytest.mark.parametrize("kind", list(LinkKind))
def test_scalar_input_gives_the_array_element(kind):
    """A distance gives the same mean received power, and a fading the
    same decode reach, bit for bit, as a float alone as inside an array."""
    rng = np.random.default_rng(11)
    d = rng.uniform(1.0, 3000.0, 2000)
    fading = rng.standard_exponential(2000)
    power = [mean_received_power(kind, x, RADIO) for x in d.tolist()]
    reach = [decode_reach(kind, f, RADIO) for f in fading.tolist()]
    assert all(type(x) is float for x in power + reach)
    assert power == mean_received_power(kind, d, RADIO).tolist()
    assert reach == decode_reach(kind, fading, RADIO).tolist()


def test_replaced_radio_gets_its_own_link_constants():
    mean_received_power(LinkKind.BS_TO_UAV, 100.0, RADIO)
    louder = dataclasses.replace(RADIO, p_bs_mw=2000.0)
    db = np.float64(path_loss_db(LinkKind.BS_TO_UAV, 100.0, RADIO))
    assert (mean_received_power(LinkKind.BS_TO_UAV, 100.0, louder)
            == 2000.0 * 10.0 ** (-db / 10.0))
    farther = dataclasses.replace(
        RADIO, bs_to_uav=dataclasses.replace(RADIO.bs_to_uav, pl0_db=45.0))
    assert path_loss_db(LinkKind.BS_TO_UAV, 100.0, farther) == pytest.approx(
        path_loss_db(LinkKind.BS_TO_UAV, 100.0, RADIO) + 6.0, rel=1e-12)


@pytest.mark.parametrize("radio", [RADIO, _OTHER_RADIO],
                         ids=["default", "other"])
@pytest.mark.parametrize("kind", list(LinkKind))
def test_link_model_matches_written_out_law(radio, kind):
    """Mean powers plus the link model decide p_tx * 10^(-dB / 10) * Exp(1)
    / (B * N0) > theta, written out from the radio's fields, bit for bit,
    and leave the generator in the state the same draws would.  The far
    set gives mixed decisions where the spread set decodes throughout."""
    clamped = np.array([0.0, 0.3, 0.999, 1.0, 1.5, 20.0, 400.0, 1200.0])
    spread = np.random.default_rng(5).uniform(0.0, 3000.0, 2000)
    far = np.random.default_rng(6).uniform(3000.0, 3e5, 2000)
    decoded = 0
    link = _link(radio)
    p = radio.loss_params(kind)
    p_tx = radio.p_bs_mw if kind is LinkKind.BS_TO_UAV else radio.p_uav_mw
    for distances in (clamped, spread, far, np.empty(0)):
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = link(mean_received_power(kind, distances, radio), rng)
        loss_db = (p.pl0_db
                   + p.dist_coeff_db * np.log10(np.maximum(distances, 1.0))
                   + p.freq_coeff_db * np.log10(p.carrier_ghz / 5.0))
        fading = ref_rng.exponential(1.0, distances.shape)
        want = ((p_tx * 10.0 ** (-loss_db / 10.0) * fading)
                / (radio.bandwidth_hz * radio.noise_mw_per_hz)
                > radio.snr_threshold)
        assert got.dtype == bool and got.shape == distances.shape
        assert got.tolist() == want.tolist()
        assert rng.random() == ref_rng.random()
        if distances is spread or distances is far:
            decoded += np.count_nonzero(got)
    assert 0 < decoded < spread.size + far.size


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(
        lambda e: 10.0 ** e)


@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(LinkKind),
       snr_threshold=_log_uniform(1e-3, 1e9),
       p_bs_mw=_log_uniform(1e-3, 1e6), p_uav_mw=_log_uniform(1e-3, 1e6))
@example(seed=0, kind=LinkKind.UAV_TO_UAV, snr_threshold=1e9, p_bs_mw=1.0,
         p_uav_mw=1e-3)
@settings(max_examples=200, deadline=None)
def test_decode_reach_decides_as_the_decode_rule(seed, kind, snr_threshold,
                                                 p_bs_mw, p_uav_mw):
    """`d < decode_reach(kind, f, radio)` is the decode rule on the mean
    received power at d, trial for trial, from 0.01 m to 30 km: around
    the 1 m clamp too, where a reach the law puts below 1 m must read 0,
    and at fading 0.  Half the fadings are Exp(1), half log-uniform down
    to 1e-12, so every example has trials whose unclamped reach lies
    below 1 m."""
    radio = dataclasses.replace(RADIO, snr_threshold=snr_threshold,
                                p_bs_mw=p_bs_mw, p_uav_mw=p_uav_mw)
    rng = np.random.default_rng(seed)
    n = 2000
    distances = np.concatenate([
        [0.01, 0.5, 1.0, 1.0000001, 3e4],
        10.0 ** rng.uniform(-2.0, math.log10(3e4), n)])
    fading = np.concatenate([rng.standard_exponential(n // 2),
                             10.0 ** rng.uniform(-12.0, 0.0, n // 2),
                             [0.0] * 5])
    reach = decode_reach(kind, fading, radio)
    want = decodes(mean_received_power(kind, distances, radio), fading, radio)
    assert (distances < reach).tolist() == want.tolist()
    assert reach[-5:].tolist() == [0.0] * 5
    scalar = decode_reach(kind, float(fading[0]), radio)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(reach[0], rel=1e-15, abs=0.0)
