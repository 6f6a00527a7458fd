"""Radio link model: log-distance path loss and Rayleigh block fading.

The link law lives here once, on the mean received power P = p_tx * g(d)
in mW, where g is the log-distance path-loss gain of the link kind at its
configured transmit power.  With unit-mean exponential fading |h|^2, a
reception succeeds when P * |h|^2 / N > theta, for noise power N and
decoding threshold theta.  `decodes` is that rule on drawn fading, and
`decode_probability` gives its probability exp(-theta * N / P); the
simulations decide with the first, the quadratures integrate the second.
Fading is independent from one transmission to the next, so the round in
which a listener completes g receptions of repeated transmissions is a
negative-binomial count.  `completion_rounds` computes it for rows of
listeners from their round-1 outcomes and a block of standard
exponentials.

Units are fixed across the package: distances in meters, powers in mW,
bandwidth in Hz, noise spectral density in mW/Hz, times in ms.
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


def mean_received_power(kind: LinkKind, distance_m, params: RadioParams):
    """Fading-free received power p_tx * gain in mW over the `kind` link at
    its configured transmit power; distances < 1 m are clamped.

    Computed from the instance's cached link constants.
    """
    constants = params._link_constants[kind]
    return constants[0] * 10.0 ** (-_loss_db(constants, distance_m) / 10.0)


def decode_probability(power_mw, radio: RadioParams):
    """Probability that a listener at mean received power `power_mw` (mW)
    decodes one transmission: the chance exp(-theta * N / P) that unit-mean
    exponential fading lifts the SNR over the threshold.  A float for
    scalar input, an array otherwise."""
    out = np.exp(-radio.snr_threshold * radio.noise_power_mw
                 / np.asarray(power_mw, dtype=float))
    return out if out.ndim else float(out)


def decodes(power, fading, radio: RadioParams):
    """The decode rule: a listener at mean received power `power` (mW)
    whose reception fades by `fading` (|h|^2) decodes when
    (power * fading) / noise exceeds the threshold.  Elementwise, so one
    call decides a batch of drops as it decides one."""
    return (power * fading) / radio.noise_power_mw > radio.snr_threshold


def completion_rounds(first, q, g: int, fading) -> np.ndarray:
    """The round in which each listener completes `g` receptions of a
    transmission repeated once per round, for rows of listeners (one row
    per epoch), given each one's round-1 outcome `first` (bool, (m, n)),
    its per-round success probability `q` (m, n) and standard exponentials
    `fading` (m, k, g).

    A float (m, n) array: a whole round >= 1, or inf for a listener short
    of `g` that never completes (q = 0, or q so small that the count
    overflows).  After round 1 a listener needs g - first more successes;
    each costs a geometric number of rounds, drawn by inversion as
    1 + floor(E / lam) with E ~ Exp(1) and lam = -log(1 - q) (lam = 0
    never succeeds, lam = inf succeeds every round).  The j-th listener of
    a row that is short of g (in row order) reads its g values of E from
    `fading[row, j]`, so k must be at least the largest count of short
    listeners in a row; the rest of `fading` is not read.
    """
    rounds = np.where(first, float(g), g + 1.0)  # 1 + successes still needed
    short = ~first | (g > 1)  # all listeners are short of g > 1
    if short.any():
        # Each listener's rank among its row's short listeners; the others
        # read some short listener's values, and discard them.
        rank = np.maximum(np.cumsum(short, axis=1) - 1, 0)
        draws = np.take_along_axis(fading, rank[..., None], axis=1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lam = -np.log1p(-q)
            gaps = np.floor(draws / lam[..., None])
        if g > 1:
            gaps[first, -1] = 0.0  # served in round 1: g - 1 to go
        rounds += np.where(short, gaps.sum(axis=2), 0.0)
        rounds[short & (lam == 0.0)] = np.inf
    return rounds
