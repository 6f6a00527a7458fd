"""Radio link model: log-distance path loss and Rayleigh block fading.

The link law lives here once, on the mean received power P = p_tx * g(d)
in mW, where g is the log-distance path-loss gain of the link kind at its
configured transmit power.  With unit-mean exponential fading |h|^2, a
reception succeeds when P * |h|^2 / N > theta, for noise power N and
decoding threshold theta.  `decodes` is that rule on drawn fading, and
`decode_probability` gives its probability exp(-theta * N / P); the
simulations decide with the first, the quadratures integrate the second.
Since P falls as a power of distance, the rule also reads as a distance:
`decode_reach` gives, per drawn fading, the reach below which that
reception decodes, so the validation studies decide a trial at every
swept distance by one comparison.
Fading is independent from one transmission to the next, so the round in
which a listener completes g receptions of repeated transmissions is a
negative-binomial count.  `completion_rounds` computes it for rows of
listeners from their round-1 outcomes and an (m, n, g) block of standard
exponentials, listener j of a row reading position j of its row.

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
    its configured transmit power; distances < 1 m are clamped.  A float
    for scalar input, an array otherwise.

    Computed from the instance's cached link constants, with the `np.power`
    ufunc: numpy's scalar `**` rounds differently from its array loop, and
    a distance must give the same power alone as in an array.
    """
    constants = params._link_constants[kind]
    power = constants[0] * np.power(10.0, -_loss_db(constants, distance_m)
                                    / 10.0)
    return power if power.ndim else float(power)


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


def decode_reach(kind: LinkKind, fading, radio: RadioParams):
    """The distance below which a reception over the `kind` link that
    fades by `fading` decodes, so that `d < reach` stands for
    `decodes(mean_received_power(kind, d, radio), fading, radio)` at every
    distance d.  From 1 m on, the mean received power is P(1 m) *
    d ** (-dist_coeff_db / 10), so solving the rule for d gives

        (fading * P(1 m) / (theta * N)) ** (10 / dist_coeff_db),

    which the rule's own roundings of the path-loss law can place a few
    dozen ulps (about 1e-14 of the reach) from its boundary.  At the
    1 m clamp the rule decides: the reach is 0 where even 1 m fails
    (fading 0 included) and above 1 m where 1 m decodes.  A float for
    scalar input, an array otherwise."""
    dist_coeff_db = radio.loss_params(kind).dist_coeff_db
    power_1m = mean_received_power(kind, MIN_DISTANCE_M, radio)
    fading = np.asarray(fading, dtype=float)
    # The ufunc, as in `mean_received_power`: a fading gives the same
    # reach alone as in an array.
    reach = np.power(fading * (power_1m / (radio.snr_threshold
                                           * radio.noise_power_mw)),
                     10.0 / dist_coeff_db)
    reach = np.maximum(reach, np.nextafter(MIN_DISTANCE_M, np.inf))
    # Multiplying, not masking: a random mask costs a branch per trial.
    reach *= decodes(power_1m, fading, radio)
    return reach if reach.ndim else float(reach)


def completion_rounds(first, q, fading) -> np.ndarray:
    """The round in which each listener completes g receptions of a
    transmission repeated once per round, for rows of listeners (one row
    per epoch), given each one's round-1 outcome `first` (bool, (m, n)),
    its per-round success probability `q` (m, n) and standard exponentials
    `fading` (m, n, g), whose last axis gives g.

    A float (m, n) array: a whole round >= 1, or inf for a listener short
    of g that never completes (q = 0, or q so small that the count
    overflows).  After round 1 a listener needs g - first more successes;
    each costs a geometric number of rounds, drawn by inversion as
    1 + floor(E / lam) with E ~ Exp(1) and lam = -log(1 - q) (lam = 0
    never succeeds, lam = inf succeeds every round).  Listener j of a row
    reads its values of E from `fading[row, j]`, whatever the other
    listeners did in round 1; one served in round 1 leaves its last value
    unread.
    """
    g = fading.shape[2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = -np.log1p(-q)
        gaps = fading / lam[..., None]
        np.floor(gaps, out=gaps)
    gaps[first, -1] = 0.0  # served in round 1: g - 1 to go
    rounds = np.where(first, float(g), g + 1.0) + gaps.sum(axis=2)
    rounds[(~first | (g > 1)) & (lam == 0.0)] = np.inf  # short of g
    return rounds
