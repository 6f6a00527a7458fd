"""Distance distributions inside a uniformly populated cluster disk.

One law covers the distance from an observer at a known planar offset from
the cluster center, and a known height off the UAV plane, to a member
uniform on the disk (`pdf_offset_distance` on `offset_support`):

* from the base station, whose offset exceeds the radius;
* from a transmitting member at offset `a` inside the disk;
* from the center, which gives the offset `a` itself (the radial distance
  of a uniform point).

A second law gives the distance between two members that are both uniform
on the disk (the member-to-member law averaged over the offset).

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


def offset_support(offset: float, radius_r: float,
                   height: float = 0.0) -> tuple[float, float]:
    """Nearest and farthest distance from an observer at planar distance
    `offset` from the center of a disk of radius `radius_r` and `height`
    off its plane to the disk's points."""
    if not 0.0 < radius_r < math.inf:  # NaN fails each comparison
        raise ParameterError(f"radius_r must be positive and finite, got {radius_r}")
    if not 0.0 <= offset < math.inf:
        raise ParameterError(f"offset must be non-negative and finite, got {offset}")
    if not 0.0 <= height < math.inf:
        raise ParameterError(f"height must be non-negative and finite, got {height}")
    lo, hi = max(offset - radius_r, 0.0), offset + radius_r
    if height == 0.0:
        return lo, hi
    h2 = height ** 2
    return math.sqrt(lo ** 2 + h2), math.sqrt(hi ** 2 + h2)


def pdf_offset_distance(d, offset: float, radius_r: float,
                        height: float = 0.0) -> np.ndarray:
    """pdf of the distance from an observer to a point uniform on a disk.

    The observer sits at planar distance a = `offset` from the center of a
    disk of radius r and at `height` h off its plane: the BS (a > r), a
    member (a <= r) or the center (a = 0) (Moltchanov, "Distance
    distributions in random networks", Ad Hoc Networks 10(6), 2012).  Where
    the circle of planar radius x = sqrt(d^2 - h^2) around the observer
    lies inside the disk, x <= r - a, the density is 2 d / r^2; beyond
    that only an arc of the circle falls inside:

        f(d) = (2 d / (pi r^2)) * arccos((x^2 + a^2 - r^2) / (2 a x)),

    the planar density's leading x having cancelled against the Jacobian
    d / x of the height.  The two branches agree at x = r - a, where the
    arccos argument is -1; at the far end x = a + r it is 1.
    """
    lo, hi = offset_support(offset, radius_r, height)
    d = np.asarray(d, dtype=float)
    a, r = offset, radius_r
    out = np.zeros_like(d)
    inside = (d >= lo) & (d <= hi)
    if not np.any(inside):
        return out
    di = d[inside]
    if height == 0.0:
        x = di
    else:
        # the floor guards the subtraction at the near support edge
        x = np.sqrt(np.maximum(di ** 2 - height ** 2, max(a - r, 0.0) ** 2))
    if a > r:  # no point of the disk is within r - a < 0 of the observer
        f = _arc_density(di, x, a, r)
    else:
        # a cap at the far edge too: the arc argument would divide the
        # rounding of x past a + r by a small a (by 0 at the center)
        x = np.minimum(x, a + r)
        f = 2.0 * di / r ** 2
        arc = x > r - a
        if np.any(arc):
            f[arc] = _arc_density(di[arc], x[arc], a, r)
    out[inside] = f
    return out


def _arc_density(d: np.ndarray, x: np.ndarray, a: float, r: float) -> np.ndarray:
    """The arc branch of `pdf_offset_distance` at distances d, planar x.

    The argument (x^2 + a^2 - r^2) / (2 a x) is factored as 1 + (x - (a +
    r)) (x + j) / (2 a x) with j = r - a, exactly 1 at both ends x = a - r
    and a + r of the BS's arc.  A member's arc (a <= r) starts at the
    junction x = j instead, so up to x = r the factoring (x + j) (x - j) /
    (2 a x) - j / x takes over, exactly -1 there; either form alone leaves
    ~ulp(r)/a of roundoff at the other's end, which exceeds the arccos
    clamp for small a.
    """
    j = r - a
    arg = 1.0 + (x - (a + r)) * (x + j) / (2.0 * a * x)
    if a <= r:
        arg = np.where(x <= r, (x + j) * (x - j) / (2.0 * a * x) - j / x, arg)
    return (2.0 * d / (np.pi * r ** 2)) * _checked_arccos(arg)


def pdf_bs_member_distance(d, geom: ClusterGeometry) -> np.ndarray:
    """pdf of the 3D BS-to-member distance: the offset law from the BS."""
    return pdf_offset_distance(d, geom.v_norm, geom.radius_r, geom.delta_h)


def pdf_member_pair_distance(d, radius_r: float) -> np.ndarray:
    """pdf of the distance between two independent uniform members.

    The classical disk-chord density on 0 <= d <= 2r (Mathai, An
    Introduction to Geometrical Probability, 1999), with t = d / 2r:

        f(d) = (4 d / (pi r^2)) * (arccos(t) - t * sqrt(1 - t^2))

    It equals the offset law seen from a member, averaged over that
    member's offset.
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
    def _seen_from(cls, offset: float, radius_r: float, height: float = 0.0,
                   positions: Callable[[np.random.Generator, int],
                                       np.ndarray] | None = None
                   ) -> "DistanceDistribution":
        """The offset law from an observer at `offset` and `height`; its
        positional sampler measures uniform disk points from there unless
        `positions` is given."""
        if positions is None:
            def positions(rng: np.random.Generator, n: int) -> np.ndarray:
                return offset_distance(offset, *polar_offset_terms(
                    *sample_uniform_disk_polar(rng, n, radius_r)), height)

        # a member's pdf has a kink where its arc begins
        junction = (() if offset >= radius_r
                    else (math.hypot(radius_r - offset, height),))
        return cls(lambda d: pdf_offset_distance(d, offset, radius_r, height),
                   offset_support(offset, radius_r, height),
                   breakpoints=junction, positional_sampler=positions)

    @classmethod
    def bs_member(cls, geom: ClusterGeometry) -> "DistanceDistribution":
        return cls._seen_from(geom.v_norm, geom.radius_r, geom.delta_h)

    @classmethod
    def peer(cls, offset_a: float, radius_r: float) -> "DistanceDistribution":
        # a bad radius is named by offset_support
        if radius_r > 0 and not 0.0 <= offset_a <= radius_r:
            raise ParameterError(
                f"offset_a must lie in [0, radius_r], got {offset_a}")
        return cls._seen_from(offset_a, radius_r)

    @classmethod
    def center_offset(cls, radius_r: float) -> "DistanceDistribution":
        def positions(rng: np.random.Generator, n: int) -> np.ndarray:
            rho, _ = sample_uniform_disk_polar(rng, n, radius_r)
            return rho

        return cls._seen_from(0.0, radius_r, positions=positions)

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
