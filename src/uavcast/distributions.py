"""Distance distributions inside a uniformly populated cluster disk.

Four random distances drive the link analysis:

* the distance from the base station to a cluster member, where the member
  is uniform on a disk whose center is a known planar distance away and the
  two ends differ in height;
* the distance between a transmitting member at known offset `a` from the
  cluster center and another member uniform on the disk;
* the offset `a` itself (radial distance of a uniform point from the
  center);
* the distance between two members that are both uniform on the disk
  (the peer distance averaged over the offset).

Each has a closed-form pdf.  `DistanceDistribution` tabulates the matching
CDF once on a dense grid, checks the pdf's normalisation on that tabulated
CDF, and then supports inverse-CDF sampling and empirical goodness-of-fit
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrityError, ParameterError
from .geometry import (
    offset_distance,
    polar_offset_terms,
    sample_uniform_disk_polar,
)

# Tolerated floating-point excursion of an inverse-trig argument past +-1.
_TRIG_ARG_TOL = 1e-12
_GRID_POINTS = 4097


@dataclass(frozen=True)
class ClusterGeometry:
    """Deployment geometry of one cluster relative to the base station.

    v_norm:   planar distance from the BS to the cluster center, m
    radius_r: cluster disk radius, m
    h1, h2:   BS antenna height and UAV flight height, m
    """

    v_norm: float
    radius_r: float
    h1: float
    h2: float

    def __post_init__(self):
        if not (math.isfinite(self.radius_r) and self.radius_r > 0):
            raise ParameterError(f"radius_r must be positive, got {self.radius_r}")
        if not (math.isfinite(self.v_norm) and self.v_norm > self.radius_r):
            raise ParameterError(
                f"v_norm must exceed radius_r ({self.radius_r}), got {self.v_norm}")
        for name in ("h1", "h2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ParameterError(f"{name} must be non-negative, got {value}")

    @property
    def delta_h(self) -> float:
        """Height difference between the BS antenna and the UAV plane."""
        return abs(self.h2 - self.h1)


def _checked_arccos(arg: np.ndarray) -> np.ndarray:
    """arccos with a tight clamp; large excursions indicate a geometry bug."""
    excess = np.max(np.abs(arg), initial=0.0) - 1.0
    if excess > _TRIG_ARG_TOL:
        raise IntegrityError(
            f"inverse-trig argument out of range by {excess:.3e}")
    return np.arccos(np.clip(arg, -1.0, 1.0))


def planar_bs_support(geom: ClusterGeometry) -> tuple[float, float]:
    return (geom.v_norm - geom.radius_r, geom.v_norm + geom.radius_r)


def bs_member_support(geom: ClusterGeometry) -> tuple[float, float]:
    dh2 = geom.delta_h ** 2
    return (math.sqrt((geom.v_norm - geom.radius_r) ** 2 + dh2),
            math.sqrt((geom.v_norm + geom.radius_r) ** 2 + dh2))


def peer_support(offset_a: float, radius_r: float) -> tuple[float, float]:
    if not (math.isfinite(radius_r) and radius_r > 0):
        raise ParameterError(f"radius_r must be positive and finite, got {radius_r}")
    if not (0.0 <= offset_a <= radius_r):
        raise ParameterError(
            f"offset_a must lie in [0, radius_r], got {offset_a}")
    return (0.0, radius_r + offset_a)


def center_offset_support(radius_r: float) -> tuple[float, float]:
    return (0.0, radius_r)


def pdf_planar_bs_distance(x, geom: ClusterGeometry) -> np.ndarray:
    """pdf of the planar BS-to-member distance.

    The member is uniform on a disk of radius r whose center is v away from
    the BS (projected to the ground plane); x must satisfy v - r <= x <=
    v + r.  The density is the normalized arc length of the circle of radius
    x that falls inside the disk:

        f(x) = (2 x / (pi r^2)) * arccos((x^2 + v^2 - r^2) / (2 v x))
    """
    x = np.asarray(x, dtype=float)
    v, r = geom.v_norm, geom.radius_r
    lo, hi = planar_bs_support(geom)
    out = np.zeros_like(x)
    inside = (x >= lo) & (x <= hi)
    if np.any(inside):
        xi = x[inside]
        # (x^2 + v^2 - r^2) / (2 v x), factored so both support endpoints
        # give the argument exactly 1 (no cancellation noise)
        arg = 1.0 + (xi - hi) * (xi - lo) / (2.0 * v * xi)
        out[inside] = (2.0 * xi / (np.pi * r ** 2)) * _checked_arccos(arg)
    return out


def pdf_bs_member_distance(d, geom: ClusterGeometry) -> np.ndarray:
    """pdf of the 3D BS-to-member distance.

    Change of variables from the planar distance x = sqrt(d^2 - delta_h^2);
    the Jacobian d/x cancels against the planar density's leading x, leaving

        f(d) = (2 d / (pi r^2)) * arccos((x^2 + v^2 - r^2) / (2 v x)).
    """
    d = np.asarray(d, dtype=float)
    v, r = geom.v_norm, geom.radius_r
    dh2 = geom.delta_h ** 2
    lo, hi = bs_member_support(geom)
    out = np.zeros_like(d)
    inside = (d >= lo) & (d <= hi)
    if np.any(inside):
        di = d[inside]
        # clip guards the subtraction at the lower support edge
        x = np.sqrt(np.maximum(di ** 2 - dh2, (v - r) ** 2))
        arg = 1.0 + (x - (v + r)) * (x - (v - r)) / (2.0 * v * x)
        out[inside] = (2.0 * di / (np.pi * r ** 2)) * _checked_arccos(arg)
    return out


def pdf_peer_distance(d, offset_a: float, radius_r: float) -> np.ndarray:
    """pdf of the distance from a member at offset `a` to a uniform member.

    For d <= r - a the circle of radius d around the transmitter lies fully
    inside the cluster disk, giving the linear density 2 d / r^2; beyond
    that only an arc falls inside:

        f(d) = (2 d / (pi r^2)) * arccos((d^2 + a^2 - r^2) / (2 a d))

    The two branches agree at d = r - a, where the arccos argument is -1;
    at the outer end d = r + a it is 1.
    """
    _, hi = peer_support(offset_a, radius_r)
    d = np.asarray(d, dtype=float)
    r, a = radius_r, offset_a
    out = np.zeros_like(d)
    j = r - a
    full = (d >= 0) & (d <= j)
    out[full] = 2.0 * d[full] / r ** 2
    arc = (d > j) & (d <= hi)
    if np.any(arc):
        di = d[arc]
        # (d^2 + a^2 - r^2) / (2 a d), factored on each half of the arc so
        # the argument is exactly -1 at the junction d = r - a and exactly 1
        # at d = r + a; one form for all d leaves ~ulp(r)/a of roundoff at
        # the far end, which exceeds the arccos clamp for small a
        arg = np.where(di <= r,
                       (di + j) * (di - j) / (2.0 * a * di) - j / di,
                       1.0 + (di - hi) * (di + j) / (2.0 * a * di))
        out[arc] = (2.0 * di / (np.pi * r ** 2)) * _checked_arccos(arg)
    return out


def pdf_center_offset(a, radius_r: float) -> np.ndarray:
    """pdf of the radial offset of a uniform point on the cluster disk:
    the peer density seen from the center, 2 a / r^2 on [0, r]."""
    return pdf_peer_distance(a, 0.0, radius_r)


def pdf_member_pair_distance(d, radius_r: float) -> np.ndarray:
    """pdf of the distance between two independent uniform members.

    The classical disk-chord density on 0 <= d <= 2r (Mathai, An
    Introduction to Geometrical Probability, 1999), with t = d / 2r:

        f(d) = (4 d / (pi r^2)) * (arccos(t) - t * sqrt(1 - t^2))

    It equals the peer density averaged over the transmitter's offset.
    """
    if not (math.isfinite(radius_r) and radius_r > 0):
        raise ParameterError(f"radius_r must be positive and finite, got {radius_r}")
    # clipping makes the density exactly 0 outside: at d = 0 through the
    # leading factor, at t = 1 through both terms of the bracket
    d = np.clip(np.asarray(d, dtype=float), 0.0, 2.0 * radius_r)
    t = d / (2.0 * radius_r)
    return ((4.0 * d / (np.pi * radius_r ** 2))
            * (np.arccos(t) - t * np.sqrt(1.0 - t * t)))


def _cosine_grid(lo: float, hi: float, breakpoints: Sequence[float],
                 n_points: int) -> np.ndarray:
    """Grid over [lo, hi] clustered toward segment ends (endpoints exact).

    Each segment between consecutive breakpoints gets an equal share of the
    points; cosine spacing concentrates nodes where square-root behavior of
    the pdfs makes the trapezoid rule weakest.
    """
    edges = [lo, *sorted(b for b in breakpoints if lo < b < hi), hi]
    n_segments = len(edges) - 1
    per = max(2, (n_points - 1) // n_segments + 1)
    pieces = []
    for i in range(n_segments):
        t = np.linspace(0.0, 1.0, per)
        x = edges[i] + (edges[i + 1] - edges[i]) * 0.5 * (1.0 - np.cos(np.pi * t))
        pieces.append(x if i == 0 else x[1:])
    return np.concatenate(pieces)


class DistanceDistribution:
    """A distance pdf with a tabulated CDF for sampling and checking.

    Construction evaluates the pdf once on a dense grid and tabulates the
    CDF by the trapezoid rule.  The tabulated total is the normalisation
    check: `IntegrityError` if it is not 1 within 1e-4, or if the pdf is
    negative anywhere on the grid.  `sample` then inverts the CDF by linear
    interpolation.
    """

    def __init__(self, pdf: Callable[[np.ndarray], np.ndarray],
                 support: tuple[float, float],
                 *, breakpoints: Sequence[float] = (),
                 positional_sampler: Callable[[np.random.Generator, int],
                                              np.ndarray] | None = None):
        lo, hi = float(support[0]), float(support[1])
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise ParameterError(f"invalid support ({lo}, {hi})")
        self.pdf = pdf
        self.support = (lo, hi)
        self._positional_sampler = positional_sampler
        if hi - lo < 1e-12:
            # Degenerate support: all mass at lo.
            self._grid = np.array([lo, lo])
            self._cdf = np.array([0.0, 1.0])
            return
        interior = [b for b in breakpoints if lo < b < hi]
        grid = _cosine_grid(lo, hi, interior, _GRID_POINTS)
        density = np.asarray(pdf(grid), dtype=float)
        cdf = np.concatenate((
            [0.0], np.cumsum(np.diff(grid) * (density[1:] + density[:-1]) / 2.0)))
        total = cdf[-1]
        if not abs(total - 1.0) <= 1e-4:  # a NaN total fails too
            raise IntegrityError(
                f"pdf integrates to {total:.8f}, expected 1 within 1e-4")
        if np.min(density) < -_TRIG_ARG_TOL:
            raise IntegrityError("pdf is negative on its support")
        cdf /= total
        self._grid = grid
        self._cdf = cdf

    # -- constructors ------------------------------------------------------

    @classmethod
    def bs_member(cls, geom: ClusterGeometry) -> "DistanceDistribution":
        def positions(rng: np.random.Generator, n: int) -> np.ndarray:
            return offset_distance(geom.v_norm, *polar_offset_terms(
                *sample_uniform_disk_polar(rng, n, geom.radius_r)),
                geom.delta_h)

        return cls(lambda d: pdf_bs_member_distance(d, geom),
                   bs_member_support(geom), positional_sampler=positions)

    @classmethod
    def peer(cls, offset_a: float, radius_r: float) -> "DistanceDistribution":
        def positions(rng: np.random.Generator, n: int) -> np.ndarray:
            return offset_distance(offset_a, *polar_offset_terms(
                *sample_uniform_disk_polar(rng, n, radius_r)))

        return cls(lambda d: pdf_peer_distance(d, offset_a, radius_r),
                   peer_support(offset_a, radius_r),
                   breakpoints=(radius_r - offset_a,), positional_sampler=positions)

    @classmethod
    def center_offset(cls, radius_r: float) -> "DistanceDistribution":
        def positions(rng: np.random.Generator, n: int) -> np.ndarray:
            rho, _ = sample_uniform_disk_polar(rng, n, radius_r)
            return rho

        return cls(lambda a: pdf_center_offset(a, radius_r),
                   center_offset_support(radius_r), positional_sampler=positions)

    # -- queries -----------------------------------------------------------

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self._grid, self._cdf, left=0.0, right=1.0)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF draw(s); scalar when `size` is None."""
        lo, hi = self.support
        if hi - lo < 1e-12:
            return np.full(size, lo) if size is not None else lo
        out = self._quantile(rng.random(size))
        return out if np.ndim(out) else float(out)

    def _quantile(self, u):
        """The inverse of the tabulated CDF at probabilities `u`."""
        return np.interp(u, self._cdf, self._grid)


def _ks_gap(s: np.ndarray, dist: DistanceDistribution) -> float:
    """Two-sided Kolmogorov-Smirnov sup-norm gap of the ascending float
    samples `s` vs dist.cdf."""
    n = s.size
    f = np.asarray(dist.cdf(s))
    ranks = np.arange(1, n + 1) / n
    return float(max(np.max(ranks - f), np.max(f - (ranks - 1.0 / n))))


def _check_sample_count(n_samples: int) -> None:
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")


def empirical_distance_check(dist: DistanceDistribution, n_samples: int,
                             rng: np.random.Generator) -> float:
    """Sup-norm gap between a geometric sampling construction and the CDF.

    Positions are drawn directly (uniform disk plus offsets), distances are
    measured, and their empirical CDF is compared against the tabulated one.
    This exercises the closed-form pdf end to end.
    """
    _check_sample_count(n_samples)
    if dist._positional_sampler is None:
        raise ParameterError("distribution has no positional sampling rule")
    return _ks_gap(np.sort(dist._positional_sampler(rng, n_samples)), dist)


def sampler_self_check(dist: DistanceDistribution, n_samples: int,
                       rng: np.random.Generator) -> float:
    """Sup-norm gap between inverse-CDF samples and the tabulated CDF.

    The samples are those of `dist.sample(rng, n_samples)`, inverted from
    the uniforms in ascending order: the gap depends only on the samples'
    multiset, `np.interp` searches ascending input far faster, and the
    inverse of a CDF keeps the order, so the samples need no sort.
    """
    _check_sample_count(n_samples)
    return _ks_gap(dist._quantile(np.sort(rng.random(n_samples))), dist)
