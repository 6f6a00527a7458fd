import math

import pytest

from uavcast.channel import RadioParams
from uavcast.config import ScenarioConfig
from uavcast.errors import ParameterError


def test_defaults():
    c = ScenarioConfig()
    assert c.d0_m == 800.0
    assert c.num_clusters == 5 and c.total_uavs == 50
    assert c.radius_r_m == 50.0 and c.region_radius_m == 100.0
    assert c.lambda_per_m2 == 1e-4 and c.lambda_off_per_m2 == 1e-3
    assert (c.h1_m, c.h2_m) == (10.0, 20.0)
    assert (c.packet_len_ms, c.t_req_ms, c.t_ack_ms) == (10.0, 1.0, 1.0)
    assert (c.cw_min, c.cw_max) == (16, 64)
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
])
def test_validation_errors_name_the_field(field, value):
    with pytest.raises(ParameterError, match=field.split("_")[0]):
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
    sim = ScenarioConfig(slot_ms=0.018, cw_max=128,
                         opportunistic_caching=False).sim_params()
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
                       slot_ms=0.0137, schemes=("rnc", "clustering"),
                       opportunistic_caching=False, base_seed=99,
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
        assert c.opportunistic_caching is expected


def test_noise_density_accepts_dbm_form():
    c = ScenarioConfig.from_mapping({"radio.noise_dbm_per_hz": "-174"})
    assert c.radio.noise_mw_per_hz == pytest.approx(10 ** (-17.4), rel=1e-12)
    assert c.radio.noise_power_mw == pytest.approx(
        20e6 * 10 ** (-17.4), rel=1e-12)
    # the default config already uses that density
    assert c == ScenarioConfig()


def _to_mapping(text: str) -> dict[str, str]:
    mapping = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            mapping[key] = value
    return mapping
