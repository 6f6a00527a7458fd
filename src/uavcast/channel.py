"""Radio link model: log-distance path loss, Rayleigh block fading, SNR.

Units are fixed across the package: distances in meters, powers in mW,
bandwidth in Hz, noise spectral density in mW/Hz, times in ms.  Path-loss
gains and SNR are dimensionless linear ratios; helpers convert to and from
dB where needed.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_field_values

# Distances below 1 m are clamped before entering the log-distance model,
# which is not calibrated there (and diverges at d = 0).
MIN_DISTANCE_M = 1.0


def db_to_linear(value_db):
    """Convert dB to a linear ratio (also converts dBm to mW)."""
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def linear_to_db(value):
    """Convert a linear ratio to dB (also converts mW to dBm)."""
    return 10.0 * np.log10(np.asarray(value, dtype=float))


class LinkKind(enum.Enum):
    """Which of the two radio links a computation refers to."""

    BS_TO_UAV = "bs_to_uav"
    UAV_TO_UAV = "uav_to_uav"


@dataclass(frozen=True)
class PathLossParams:
    """Coefficients of the log-distance path-loss law for one link kind.

    Loss in dB at distance d meters and carrier f GHz is

        pl0_db + dist_coeff_db * log10(d) + freq_coeff_db * log10(f / 5)
    """

    pl0_db: float
    dist_coeff_db: float
    freq_coeff_db: float
    carrier_ghz: float

    def __post_init__(self):
        check_field_values(self)
        if self.carrier_ghz <= 0:
            raise ParameterError(f"carrier_ghz must be positive, got {self.carrier_ghz}")


@dataclass(frozen=True)
class RadioParams:
    """Transmit powers, bandwidth, noise density, SNR threshold, and the
    per-link path-loss coefficients."""

    p_bs_mw: float
    p_uav_mw: float
    bandwidth_hz: float
    noise_mw_per_hz: float
    snr_threshold: float
    bs_to_uav: PathLossParams
    uav_to_uav: PathLossParams

    def __post_init__(self):
        check_field_values(self)
        for name in ("p_bs_mw", "p_uav_mw", "bandwidth_hz", "noise_mw_per_hz",
                     "snr_threshold"):
            value = getattr(self, name)
            if value <= 0:
                raise ParameterError(f"{name} must be positive, got {value}")

    @classmethod
    def defaults(cls) -> "RadioParams":
        """Parameter set used throughout the simulation studies.

        Noise density is specified as -174 dBm/Hz and converted to mW/Hz
        here, exactly once.
        """
        return cls(
            p_bs_mw=1000.0,
            p_uav_mw=10.0,
            bandwidth_hz=20e6,
            noise_mw_per_hz=float(db_to_linear(-174.0)),
            snr_threshold=20.0,
            bs_to_uav=PathLossParams(
                pl0_db=39.0, dist_coeff_db=26.0, freq_coeff_db=20.0, carrier_ghz=2.0
            ),
            uav_to_uav=PathLossParams(
                pl0_db=41.0, dist_coeff_db=22.7, freq_coeff_db=20.0, carrier_ghz=5.8
            ),
        )

    @property
    def noise_power_mw(self) -> float:
        """Thermal noise power over the full bandwidth."""
        return self.bandwidth_hz * self.noise_mw_per_hz

    def loss_params(self, kind: LinkKind) -> PathLossParams:
        return self.bs_to_uav if kind is LinkKind.BS_TO_UAV else self.uav_to_uav

    def tx_power_mw(self, kind: LinkKind) -> float:
        """Transmit power used on the given link kind."""
        return self.p_bs_mw if kind is LinkKind.BS_TO_UAV else self.p_uav_mw

    # cached_property stores into the instance __dict__, which the frozen
    # dataclass leaves writable; the fields it reads never change.
    @functools.cached_property
    def _link_constants(self) -> dict[LinkKind, tuple[float, float, float, float]]:
        """Per link kind: (p_tx, pl0_db, dist_coeff_db, the carrier term
        freq_coeff_db * log10(f / 5)), computed once per instance."""
        out = {}
        for kind in LinkKind:
            p = self.loss_params(kind)
            out[kind] = (self.tx_power_mw(kind), p.pl0_db, p.dist_coeff_db,
                         p.freq_coeff_db * np.log10(p.carrier_ghz / 5.0))
        return out


def _loss_db(constants, distance_m):
    """The log-distance law in dB from one link's cached constants, for a
    scalar or an array of distances; distances < 1 m are clamped."""
    _, pl0_db, dist_coeff_db, carrier_term = constants
    d = np.maximum(np.asarray(distance_m, dtype=float), MIN_DISTANCE_M)
    return pl0_db + dist_coeff_db * np.log10(d) + carrier_term


def path_loss_db(kind: LinkKind, distance_m, params: RadioParams):
    """Path loss in dB at the given distance(s); distances < 1 m are clamped."""
    loss = _loss_db(params._link_constants[kind], distance_m)
    return loss if loss.ndim else float(loss)


def path_loss_linear(kind: LinkKind, distance_m, params: RadioParams):
    """Linear channel power gain (<= 1 for any realistic geometry)."""
    return db_to_linear(-np.asarray(path_loss_db(kind, distance_m, params)))


def mean_received_power(kind: LinkKind, distance_m, params: RadioParams):
    """Fading-free received power p_tx * gain in mW over the `kind` link at
    its configured transmit power; distances < 1 m are clamped.

    Equals `params.tx_power_mw(kind) * path_loss_linear(...)` bit for bit,
    from the instance's cached link constants.
    """
    constants = params._link_constants[kind]
    return constants[0] * 10.0 ** (-_loss_db(constants, distance_m) / 10.0)


def sample_power_fading(rng: np.random.Generator, size=None):
    """Rayleigh fading power gain |h|^2: unit-mean exponential draws."""
    return rng.exponential(1.0, size)


def snr(p_tx_mw, path_gain, fading, params: RadioParams):
    """Instantaneous SNR from transmit power, path gain and fading gain."""
    return np.asarray(p_tx_mw * path_gain * fading) / params.noise_power_mw


def link_success_probability(p_tx_mw, distance_m, kind: LinkKind,
                             params: RadioParams):
    """Probability that a single transmission over this link is decoded.

    With unit-mean exponential fading the SNR exceeds the threshold with
    probability exp(-threshold * noise / (p_tx * gain)).
    """
    gain = path_loss_linear(kind, distance_m, params)
    out = np.exp(-params.snr_threshold * params.noise_power_mw
                 / (p_tx_mw * np.asarray(gain, dtype=float)))
    return out if out.ndim else float(out)


def reception_success(p_tx_mw, distance_m, kind: LinkKind, params: RadioParams,
                      rng: np.random.Generator, size=None):
    """Draw fading and report whether the SNR clears the decoding threshold.

    Returns a bool for scalar input, or a bool array when `distance_m` is an
    array (or `size` is given).
    """
    d = np.asarray(distance_m, dtype=float)
    if size is None and d.ndim:
        size = d.shape
    fading = sample_power_fading(rng, size)
    gain = path_loss_linear(kind, d, params)
    value = snr(p_tx_mw, gain, fading, params)
    ok = value > params.snr_threshold
    return ok if ok.ndim else bool(ok)
