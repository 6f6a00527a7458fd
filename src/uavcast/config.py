"""Scenario configuration: defaults, flat key=value parsing, validation.

A configuration file is plain text, one `key=value` per line, `#` comments
allowed.  Scenario-level fields and the protocol constants of
`ScenarioConfig.sim` use their bare name; radio fields use a `radio.`
prefix and path-loss coefficients a further `radio.bs_to_uav.` or
`radio.uav_to_uav.` prefix, e.g.::

    d0_m=800
    slot_ms=0.009
    radio.p_bs_mw=1000
    radio.bs_to_uav.pl0_db=39

The keys and their parsers come from the dataclass fields and their
declared types; `radio.noise_dbm_per_hz` is the one alias, for
`radio.noise_mw_per_hz` in dBm/Hz.  Precedence is resolved by the caller
(command-line flags over file values over defaults).  `to_key_values` emits
a file that parses back to an equal configuration.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field, fields

from .channel import RadioParams, db_to_linear
from .distributions import ClusterGeometry
from .errors import ParameterError, check_field_values
from .geometry import cluster_peer_count
from .protocol import SCHEME_RUNNERS, SimParams

_MODES = ("fixed_total", "density")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation/analysis scenario.

    Lengths in meters, times in ms, densities in 1/m^2.  `d0_m` is the
    planar distance from the BS to the deployment-region center; the far
    deployment constraint d0 > region_radius + radius_r keeps every cluster
    center farther from the BS than its own radius.  `sim` holds the
    protocol timing and MAC constants, `radio` the link model.

    Construction is the only validation of a scenario, and `replace`
    revalidates; the drop law and the studies take a built config as
    valid.
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
    sim: SimParams = field(default_factory=SimParams)
    schemes: tuple[str, ...] = ("clustering", "benchmark", "rnc")
    replications: int = 1000
    base_seed: int = 1
    mode: str = "fixed_total"
    radio: RadioParams = field(default_factory=RadioParams.defaults)

    def __post_init__(self):
        check_field_values(self)

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
        if self.mode == "density" and cluster_peer_count(
                self.lambda_off_per_m2, self.radius_r_m) < 1:
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
        if self.base_seed < 0:
            raise ParameterError(
                f"base_seed: must be non-negative, got {self.base_seed}")

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
        return "".join(
            f"{key}={_format_value(functools.reduce(getattr, path, self))}\n"
            for key, path, _ in _LEAVES)

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ScenarioConfig":
        """Build a config from raw key=value strings over the defaults."""
        updates: dict = {}
        for key, raw in mapping.items():
            if key not in _KEYS:
                raise ParameterError(f"{key}: unknown configuration key")
            path, parse = _KEYS[key]
            node = updates
            for name in path[:-1]:
                node = node.setdefault(name, {})
            node[path[-1]] = parse(key, raw)
        return _updated(cls(), updates)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        return cls.from_mapping(read_key_values(path))


def read_key_values(path) -> dict[str, str]:
    """The raw key=value strings of a config file, later lines winning."""
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
    return mapping


def _updated(base, updates: dict):
    """`base` with `updates` applied; a nested dict updates the nested
    dataclass of that name."""
    return dataclasses.replace(base, **{
        name: _updated(getattr(base, name), value)
        if isinstance(value, dict) else value
        for name, value in updates.items()})


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


def _parse_str(key: str, raw: str) -> str:
    return raw.strip()


def _parse_dbm(key: str, raw: str) -> float:
    return float(db_to_linear(_parse_float(key, raw)))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


_PARSERS = {float: _parse_float, int: _parse_int, bool: _parse_bool,
            str: _parse_str, tuple[str, ...]: _parse_schemes}


def _leaves(cls, prefix: str = "", path: tuple[str, ...] = ()):
    """(key, field path, parser) of every non-dataclass field under `cls`,
    in field order.  A nested dataclass adds its field name to the key
    prefix, except `sim`, whose keys stay bare."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        kind = hints[f.name]
        if dataclasses.is_dataclass(kind):
            inner = prefix if f.name == "sim" else f"{prefix}{f.name}."
            yield from _leaves(kind, inner, path + (f.name,))
        else:
            yield f"{prefix}{f.name}", path + (f.name,), _PARSERS[kind]


_LEAVES = tuple(_leaves(ScenarioConfig))
_KEYS = {key: (path, parse) for key, path, parse in _LEAVES}
_KEYS["radio.noise_dbm_per_hz"] = (("radio", "noise_mw_per_hz"), _parse_dbm)
