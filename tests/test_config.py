import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavcast.channel import PathLossParams, RadioParams
from uavcast.config import ScenarioConfig
from uavcast.errors import ParameterError
from uavcast.protocol import SCHEME_RUNNERS, SimParams

_SIM_FIELDS = {f.name for f in dataclasses.fields(SimParams)}


def test_defaults():
    c = ScenarioConfig()
    assert c.d0_m == 800.0
    assert c.num_clusters == 5 and c.total_uavs == 50
    assert c.radius_r_m == 50.0 and c.region_radius_m == 100.0
    assert c.lambda_per_m2 == 1e-4 and c.lambda_off_per_m2 == 1e-3
    assert (c.h1_m, c.h2_m) == (10.0, 20.0)
    assert (c.sim.packet_len_ms, c.sim.t_req_ms, c.sim.t_ack_ms) == (10.0, 1.0, 1.0)
    assert (c.sim.cw_min, c.sim.cw_max) == (16, 64)
    assert c.sim == SimParams()
    assert c.schemes == ("clustering", "benchmark", "rnc")
    assert c.mode == "fixed_total"
    assert c.radio == RadioParams.defaults()


@pytest.mark.parametrize("field,value", [
    ("d0_m", 120.0),           # inside region + cluster radius
    ("radius_r_m", 150.0),     # cluster wider than region
    ("num_clusters", 0),
    ("total_uavs", 3),         # fewer UAVs than clusters
    ("replications", 0),
    ("lambda_per_m2", 0.0),
    ("h1_m", -1.0),
    ("mode", "hexgrid"),
    ("packet_len_ms", 0.0),
    ("cw_min", 0),
    # non-finite values pass every comparison, so they get their own check
    ("d0_m", math.nan),
    ("d0_m", math.inf),
    ("radius_r_m", math.nan),
    ("h2_m", math.inf),
    ("h2_m", -1.0),            # heights are non-negative
    ("packet_len_ms", math.nan),
    ("max_time_ms", math.inf),
    ("base_seed", -1),
    # a float field takes a real number, not a string, None, bool or complex
    ("d0_m", "800"),
    ("radius_r_m", None),
    ("h1_m", True),
    ("lambda_per_m2", 1e-4 + 0j),
    ("d0_m", 10 ** 400),       # an int beyond the float range
])
def test_validation_errors_name_the_field(field, value):
    with pytest.raises(ParameterError, match=field.split("_")[0]):
        if field in _SIM_FIELDS:
            # protocol constants live in the nested `sim` under bare keys
            ScenarioConfig.from_mapping({field: str(value)})
        else:
            ScenarioConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("rnc_generation_size", 2.5),
    ("replications", 1.5),
    ("total_uavs", 50.5),
    ("opportunistic_caching", "no"),
    ("cw_min", 16.5),
])
def test_declared_field_types_are_enforced(field, value):
    """A fractional count is rejected, not run or left to fail later as a
    TypeError, and a flag must be a bool, not a truthy string."""
    with pytest.raises(ParameterError, match=field):
        if field in _SIM_FIELDS:
            SimParams(**{field: value})
        else:
            ScenarioConfig(**{field: value})


def test_far_deployment_boundary():
    # boundary d0 = region + radius is still rejected; just beyond is fine
    with pytest.raises(ParameterError, match="d0_m"):
        ScenarioConfig(d0_m=150.0)
    ScenarioConfig(d0_m=150.0001)


def test_density_mode_needs_members_per_cluster():
    with pytest.raises(ParameterError, match="lambda_off_per_m2"):
        ScenarioConfig(mode="density", lambda_off_per_m2=1e-5)
    # fixed_total mode does not apply the density feasibility bound
    ScenarioConfig(mode="fixed_total", lambda_off_per_m2=1e-5)


def test_scheme_list_validation():
    with pytest.raises(ParameterError, match="schemes"):
        ScenarioConfig(schemes=())
    with pytest.raises(ParameterError, match="schemes"):
        ScenarioConfig(schemes=("clustering", "flooding"))
    with pytest.raises(ParameterError, match="schemes"):
        ScenarioConfig(schemes=("clustering", "clustering"))
    ScenarioConfig(schemes=("rnc",))


def test_replace_revalidates():
    c = ScenarioConfig()
    assert c.replace(d0_m=400.0).d0_m == 400.0
    with pytest.raises(ParameterError):
        c.replace(d0_m=10.0)


def test_sim_params_carries_protocol_fields():
    sim = ScenarioConfig.from_mapping({
        "slot_ms": "0.018", "cw_max": "128",
        "opportunistic_caching": "false"}).sim
    assert isinstance(sim, SimParams)
    assert sim.slot_ms == 0.018
    assert sim.cw_max == 128
    assert sim.opportunistic_caching is False
    assert sim.packet_len_ms == 10.0


def test_geometry_accessor():
    c = ScenarioConfig()
    geom = c.geometry()
    assert (geom.v_norm, geom.radius_r, geom.h1, geom.h2) == \
        (800.0, 50.0, 10.0, 20.0)
    assert c.geometry(v_norm=400.0).v_norm == 400.0


def test_key_value_round_trip_defaults():
    c = ScenarioConfig()
    assert ScenarioConfig.from_mapping(_to_mapping(c.to_key_values())) == c


def test_key_value_round_trip_custom(tmp_path):
    c = ScenarioConfig(d0_m=1234.5678901234567, num_clusters=7, total_uavs=63,
                       sim=SimParams(slot_ms=0.0137,
                                     opportunistic_caching=False),
                       schemes=("rnc", "clustering"), base_seed=99,
                       mode="density", lambda_off_per_m2=2.5e-3)
    path = tmp_path / "scenario.cfg"
    path.write_text(c.to_key_values())
    assert ScenarioConfig.from_file(path) == c


def test_from_file_parses_comments_and_radio_keys(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# deployment\n"
        "d0_m = 400\n"
        "\n"
        "radio.p_bs_mw=2000\n"
        "radio.bs_to_uav.pl0_db=41.5\n"
        "schemes=clustering, benchmark\n")
    c = ScenarioConfig.from_file(path)
    assert c.d0_m == 400.0
    assert c.radio.p_bs_mw == 2000.0
    assert c.radio.bs_to_uav.pl0_db == 41.5
    # untouched radio fields keep their defaults
    assert c.radio.uav_to_uav.pl0_db == RadioParams.defaults().uav_to_uav.pl0_db
    assert c.schemes == ("clustering", "benchmark")


def test_from_file_reports_malformed_line(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("d0_m=400\nnot a key value pair\n")
    with pytest.raises(ParameterError, match=":2:"):
        ScenarioConfig.from_file(path)


def test_unknown_keys_are_rejected():
    with pytest.raises(ParameterError, match="unknown"):
        ScenarioConfig.from_mapping({"velocity": "3"})
    with pytest.raises(ParameterError, match="unknown"):
        ScenarioConfig.from_mapping({"radio.antennas": "4"})
    with pytest.raises(ParameterError, match="unknown"):
        ScenarioConfig.from_mapping({"radio.bs_to_uav.gain": "1"})


def test_malformed_values_are_rejected():
    with pytest.raises(ParameterError, match="d0_m"):
        ScenarioConfig.from_mapping({"d0_m": "far"})
    with pytest.raises(ParameterError, match="num_clusters"):
        ScenarioConfig.from_mapping({"num_clusters": "5.5"})
    with pytest.raises(ParameterError, match="opportunistic_caching"):
        ScenarioConfig.from_mapping({"opportunistic_caching": "maybe"})


def test_boolean_spellings():
    for raw, expected in (("true", True), ("1", True), ("YES", True),
                          ("false", False), ("0", False), ("No", False)):
        c = ScenarioConfig.from_mapping({"opportunistic_caching": raw})
        assert c.sim.opportunistic_caching is expected


def test_noise_density_accepts_dbm_form():
    c = ScenarioConfig.from_mapping({"radio.noise_dbm_per_hz": "-174"})
    assert c.radio.noise_mw_per_hz == pytest.approx(10 ** (-17.4), rel=1e-12)
    assert c.radio.noise_power_mw == pytest.approx(
        20e6 * 10 ** (-17.4), rel=1e-12)
    # the default config already uses that density
    assert c == ScenarioConfig()


# `ScenarioConfig().to_key_values()`: the file format, key order included.
_DEFAULT_KEY_VALUES = """\
region_radius_m=100.0
d0_m=800.0
num_clusters=5
total_uavs=50
lambda_per_m2=0.0001
lambda_off_per_m2=0.001
radius_r_m=50.0
h1_m=10.0
h2_m=20.0
packet_len_ms=10.0
t_req_ms=1.0
t_ack_ms=1.0
slot_ms=0.009
cw_min=16
cw_max=64
max_time_ms=10000.0
rnc_generation_size=8
opportunistic_caching=true
schemes=clustering,benchmark,rnc
replications=1000
base_seed=1
mode=fixed_total
radio.p_bs_mw=1000.0
radio.p_uav_mw=10.0
radio.bandwidth_hz=20000000.0
radio.noise_mw_per_hz=3.981071705534985e-18
radio.snr_threshold=20.0
radio.bs_to_uav.pl0_db=39.0
radio.bs_to_uav.dist_coeff_db=26.0
radio.bs_to_uav.freq_coeff_db=20.0
radio.bs_to_uav.carrier_ghz=2.0
radio.uav_to_uav.pl0_db=41.0
radio.uav_to_uav.dist_coeff_db=22.7
radio.uav_to_uav.freq_coeff_db=20.0
radio.uav_to_uav.carrier_ghz=5.8
"""


def test_default_key_values_are_pinned():
    assert ScenarioConfig().to_key_values() == _DEFAULT_KEY_VALUES
    assert len(_DEFAULT_KEY_VALUES.splitlines()) == 35


def _positive(lo=1e-6, hi=1e6):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _path_loss():
    return st.builds(PathLossParams, pl0_db=st.floats(-50.0, 200.0),
                     dist_coeff_db=st.floats(-10.0, 60.0),
                     freq_coeff_db=st.floats(-10.0, 60.0),
                     carrier_ghz=_positive(0.1, 100.0))


@st.composite
def _configs(draw):
    """Valid configs with every field, nested ones included, drawn."""
    region = draw(_positive(1.0, 1e4))
    radius_r = region * draw(st.floats(0.01, 1.0))
    mode = draw(st.sampled_from(["fixed_total", "density"]))
    if mode == "density":
        lambda_off = draw(st.floats(1.01, 10.0)) / (math.pi * radius_r ** 2)
    else:
        lambda_off = draw(_positive(1e-8, 1.0))
    num_clusters = draw(st.integers(1, 20))
    cw_min = draw(st.integers(1, 1024))
    sim = SimParams(
        packet_len_ms=draw(_positive(1e-3, 1e3)),
        t_req_ms=draw(st.floats(0.0, 100.0)),
        t_ack_ms=draw(st.floats(0.0, 100.0)),
        slot_ms=draw(_positive(1e-6, 1.0)),
        cw_min=cw_min, cw_max=cw_min + draw(st.integers(0, 1024)),
        max_time_ms=draw(_positive(1e-3, 1e7)),
        rnc_generation_size=draw(st.integers(1, 64)),
        opportunistic_caching=draw(st.booleans()))
    radio = RadioParams(
        p_bs_mw=draw(_positive()), p_uav_mw=draw(_positive()),
        bandwidth_hz=draw(_positive(1.0, 1e10)),
        noise_mw_per_hz=draw(_positive(1e-25, 1e-10)),
        snr_threshold=draw(_positive()),
        bs_to_uav=draw(_path_loss()), uav_to_uav=draw(_path_loss()))
    return ScenarioConfig(
        region_radius_m=region, d0_m=region + radius_r + draw(_positive(1e-3, 1e4)),
        num_clusters=num_clusters,
        total_uavs=num_clusters + draw(st.integers(0, 100)),
        lambda_per_m2=draw(_positive(1e-8, 1.0)), lambda_off_per_m2=lambda_off,
        radius_r_m=radius_r, h1_m=draw(st.floats(0.0, 500.0)),
        h2_m=draw(st.floats(0.0, 500.0)), sim=sim,
        schemes=tuple(draw(st.lists(st.sampled_from(sorted(SCHEME_RUNNERS)),
                                    min_size=1, max_size=3, unique=True))),
        replications=draw(st.integers(1, 10 ** 6)),
        base_seed=draw(st.integers(0, 2 ** 63)), mode=mode, radio=radio)


def _leaf_keys(obj, prefix=""):
    """Every non-dataclass field as its key: nested groups add their name
    to the prefix, except `sim`, whose keys stay bare."""
    keys = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            inner = prefix if f.name == "sim" else f"{prefix}{f.name}."
            keys += _leaf_keys(value, inner)
        else:
            keys.append(prefix + f.name)
    return keys


@given(config=_configs())
@settings(max_examples=200, deadline=None)
def test_key_value_round_trip_random(config):
    """Every leaf field is dumped under exactly one key, and the dump
    parses back to an equal config."""
    text = config.to_key_values()
    keys = [line.partition("=")[0] for line in text.splitlines()]
    assert keys == _leaf_keys(config)
    assert len(set(keys)) == len(keys)
    assert ScenarioConfig.from_mapping(_to_mapping(text)) == config


def _to_mapping(text: str) -> dict[str, str]:
    mapping = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            mapping[key] = value
    return mapping
