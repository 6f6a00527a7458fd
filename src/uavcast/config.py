"""Scenario configuration: defaults, flat key=value parsing, validation.

A configuration file is plain text, one `key=value` per line, `#` comments
allowed.  Scenario-level fields use their bare name; radio fields use a
`radio.` prefix and path-loss coefficients a further `radio.bs_to_uav.` or
`radio.uav_to_uav.` prefix, e.g.::

    d0_m=800
    radio.p_bs_mw=1000
    radio.bs_to_uav.pl0_db=39

Precedence is resolved by the caller (command-line flags over file values
over defaults).  `to_key_values` emits a file that parses back to an equal
configuration.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields

from .channel import PathLossParams, RadioParams, db_to_linear
from .distributions import ClusterGeometry
from .errors import ParameterError
from .protocol import SCHEME_RUNNERS, SimParams

_MODES = ("fixed_total", "density")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation/analysis scenario.

    Lengths in meters, times in ms, densities in 1/m^2.  `d0_m` is the
    planar distance from the BS to the deployment-region center; the far
    deployment constraint d0 > region_radius + radius_r keeps every cluster
    center farther from the BS than its own radius.
    """

    region_radius_m: float = 100.0
    d0_m: float = 800.0
    num_clusters: int = 5
    total_uavs: int = 50
    lambda_per_m2: float = 1e-4
    lambda_off_per_m2: float = 1e-3
    radius_r_m: float = 50.0
    h1_m: float = 10.0
    h2_m: float = 20.0
    packet_len_ms: float = 10.0
    t_req_ms: float = 1.0
    t_ack_ms: float = 1.0
    slot_ms: float = 0.009
    cw_min: int = 16
    cw_max: int = 64
    max_time_ms: float = 10_000.0
    rnc_generation_size: int = 8
    opportunistic_caching: bool = True
    schemes: tuple[str, ...] = ("clustering", "benchmark", "rnc")
    replications: int = 1000
    base_seed: int = 1
    mode: str = "fixed_total"
    radio: RadioParams = field(default_factory=RadioParams.defaults)

    def __post_init__(self):
        # NaN passes every comparison below, so finiteness comes first.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ParameterError(f"{f.name}: must be finite, got {value}")

        def positive(name):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name}: must be positive, got {getattr(self, name)}")

        for name in ("region_radius_m", "radius_r_m", "lambda_per_m2",
                     "lambda_off_per_m2"):
            positive(name)
        if self.radius_r_m > self.region_radius_m:
            raise ParameterError(
                f"radius_r_m: cluster radius {self.radius_r_m} exceeds "
                f"region radius {self.region_radius_m}")
        if self.d0_m <= self.region_radius_m + self.radius_r_m:
            raise ParameterError(
                f"d0_m: far deployment requires d0 > region_radius + radius_r "
                f"= {self.region_radius_m + self.radius_r_m}, got {self.d0_m}")
        if self.num_clusters < 1:
            raise ParameterError(
                f"num_clusters: must be >= 1, got {self.num_clusters}")
        if self.total_uavs < self.num_clusters:
            raise ParameterError(
                f"total_uavs: need at least one UAV per cluster, got "
                f"{self.total_uavs} for {self.num_clusters} clusters")
        for name in ("h1_m", "h2_m"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name}: must be non-negative")
        if self.mode not in _MODES:
            raise ParameterError(
                f"mode: expected one of {_MODES}, got {self.mode!r}")
        if self.mode == "density" \
                and self.lambda_off_per_m2 * math.pi * self.radius_r_m ** 2 < 1.0:
            raise ParameterError(
                "lambda_off_per_m2: density mode needs "
                "lambda_off * pi * radius_r^2 >= 1")
        if not self.schemes:
            raise ParameterError("schemes: at least one scheme required")
        for s in self.schemes:
            if s not in SCHEME_RUNNERS:
                raise ParameterError(
                    f"schemes: unknown scheme {s!r}, expected one of "
                    f"{sorted(SCHEME_RUNNERS)}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ParameterError("schemes: duplicate scheme names")
        if self.replications < 1:
            raise ParameterError(
                f"replications: must be >= 1, got {self.replications}")
        # Constructing SimParams revalidates the timing/MAC fields.
        self.sim_params()

    def sim_params(self) -> SimParams:
        return SimParams(
            packet_len_ms=self.packet_len_ms, t_req_ms=self.t_req_ms,
            t_ack_ms=self.t_ack_ms, slot_ms=self.slot_ms, cw_min=self.cw_min,
            cw_max=self.cw_max, max_time_ms=self.max_time_ms,
            rnc_generation_size=self.rnc_generation_size,
            opportunistic_caching=self.opportunistic_caching)

    def geometry(self, v_norm: float | None = None) -> ClusterGeometry:
        """Cluster geometry at a given (default: d0) center distance."""
        return ClusterGeometry(
            v_norm=self.d0_m if v_norm is None else v_norm,
            radius_r=self.radius_r_m, h1=self.h1_m, h2=self.h2_m)

    def replace(self, **updates) -> "ScenarioConfig":
        """Copy with scenario-level fields updated (and revalidated)."""
        return dataclasses.replace(self, **updates)

    def to_key_values(self) -> str:
        """Emit a config file body that parses back to an equal config."""
        lines = []
        for f in fields(self):
            if f.name == "radio":
                continue
            lines.append(f"{f.name}={_format_value(getattr(self, f.name))}")
        r = self.radio
        for name in ("p_bs_mw", "p_uav_mw", "bandwidth_hz", "noise_mw_per_hz",
                     "snr_threshold"):
            lines.append(f"radio.{name}={_format_value(getattr(r, name))}")
        for link, params in (("bs_to_uav", r.bs_to_uav), ("uav_to_uav", r.uav_to_uav)):
            for name in ("pl0_db", "dist_coeff_db", "freq_coeff_db", "carrier_ghz"):
                lines.append(f"radio.{link}.{name}={_format_value(getattr(params, name))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ScenarioConfig":
        """Build a config from raw key=value strings over the defaults."""
        scenario: dict = {}
        radio: dict = {}
        loss: dict[str, dict] = {"bs_to_uav": {}, "uav_to_uav": {}}
        for key, raw in mapping.items():
            if key.startswith("radio."):
                parts = key.split(".")
                if len(parts) == 2:
                    name = parts[1]
                    if name == "noise_dbm_per_hz":
                        radio["noise_mw_per_hz"] = float(
                            db_to_linear(_parse_float(key, raw)))
                    elif name in _RADIO_FLOAT_FIELDS:
                        radio[name] = _parse_float(key, raw)
                    else:
                        raise ParameterError(f"{key}: unknown configuration key")
                elif len(parts) == 3 and parts[1] in loss \
                        and parts[2] in _LOSS_FIELDS:
                    loss[parts[1]][parts[2]] = _parse_float(key, raw)
                else:
                    raise ParameterError(f"{key}: unknown configuration key")
            elif key in _SCENARIO_PARSERS:
                scenario[key] = _SCENARIO_PARSERS[key](key, raw)
            else:
                raise ParameterError(f"{key}: unknown configuration key")
        base_radio = RadioParams.defaults()
        if radio or loss["bs_to_uav"] or loss["uav_to_uav"]:
            radio_kwargs = {
                name: getattr(base_radio, name) for name in _RADIO_FLOAT_FIELDS}
            radio_kwargs.update(radio)
            radio_kwargs["bs_to_uav"] = dataclasses.replace(
                base_radio.bs_to_uav, **loss["bs_to_uav"])
            radio_kwargs["uav_to_uav"] = dataclasses.replace(
                base_radio.uav_to_uav, **loss["uav_to_uav"])
            scenario["radio"] = RadioParams(**radio_kwargs)
        return cls(**scenario)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        mapping = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ParameterError(
                        f"{path}:{lineno}: expected key=value, got {text!r}")
                key, _, value = text.partition("=")
                mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)


_RADIO_FLOAT_FIELDS = ("p_bs_mw", "p_uav_mw", "bandwidth_hz",
                       "noise_mw_per_hz", "snr_threshold")
_LOSS_FIELDS = ("pl0_db", "dist_coeff_db", "freq_coeff_db", "carrier_ghz")


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParameterError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ParameterError(f"{key}: expected a boolean, got {raw!r}")


def _parse_schemes(key: str, raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _parse_mode(key: str, raw: str) -> str:
    return raw.strip()


_SCENARIO_PARSERS = {
    "region_radius_m": _parse_float, "d0_m": _parse_float,
    "num_clusters": _parse_int, "total_uavs": _parse_int,
    "lambda_per_m2": _parse_float, "lambda_off_per_m2": _parse_float,
    "radius_r_m": _parse_float, "h1_m": _parse_float, "h2_m": _parse_float,
    "packet_len_ms": _parse_float, "t_req_ms": _parse_float,
    "t_ack_ms": _parse_float, "slot_ms": _parse_float,
    "cw_min": _parse_int, "cw_max": _parse_int, "max_time_ms": _parse_float,
    "rnc_generation_size": _parse_int,
    "opportunistic_caching": _parse_bool, "schemes": _parse_schemes,
    "replications": _parse_int, "base_seed": _parse_int, "mode": _parse_mode,
}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)
