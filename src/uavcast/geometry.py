"""Cluster topology generation.

Cluster centers form either a Poisson point process on the deployment disk
(density mode) or a fixed-size uniform binomial process (fixed-total mode).
Each cluster's members are placed uniformly on a disk of radius `radius_r`
around the center.  All UAVs fly at a common height; the base station sits
on the ground at planar distance `d0` from the deployment-region center.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover
    from .config import ScenarioConfig


def _bs_distances(xy: np.ndarray, height: float, bs_xy, bs_height: float):
    """3D distance to a BS at planar point `bs_xy` and height `bs_height`
    from UAVs at planar points `xy` (shape (..., 2)) and height `height`,
    shape (...)."""
    return np.sqrt((xy[..., 0] - bs_xy[0]) ** 2 + (xy[..., 1] - bs_xy[1]) ** 2
                   + (height - bs_height) ** 2)


def sample_uniform_disk_polar(rng: np.random.Generator, n: int,
                              radius: float) -> tuple[np.ndarray, np.ndarray]:
    """n points uniform on a disk as polar arrays (rho, theta) about its
    center: radial CDF proportional to rho^2.  Draws n radii, then n angles
    uniform on [0, 2 pi)."""
    if radius <= 0:
        raise ParameterError(f"disk radius must be positive, got {radius}")
    if n < 0:
        raise ParameterError(f"sample count must be non-negative, got {n}")
    rho = radius * np.sqrt(rng.random(n))
    return rho, rng.uniform(0.0, 2.0 * np.pi, n)


def polar_offset_distance(offset: float, rho: np.ndarray, theta: np.ndarray,
                          height: float = 0.0) -> np.ndarray:
    """Distance from an observer at planar distance `offset` from a disk's
    center and `height` off its plane to the disk points (rho, theta), with
    theta measured from the observer-to-center direction: the points of a
    disk centred at (offset, 0), seen from the origin.

    The law of cosines, offset^2 + 2 offset rho cos(theta) + rho^2, is
    evaluated as x^2 + rho^2 (1 - cos)(1 + cos) with x = offset + rho cos,
    the Cartesian x: a sum of non-negative terms, which keeps its relative
    accuracy where the planar distance cancels to near 0.  The steps run in
    place on three arrays, since a fresh array costs as much as the step.
    """
    c = np.cos(theta)
    d2 = rho * c
    d2 += offset
    d2 *= d2
    y2 = 1.0 - c
    c += 1.0
    y2 *= c
    y2 *= rho
    y2 *= rho
    d2 += y2
    d2 += height ** 2
    return np.sqrt(d2, out=d2)


def polar_pair_distance(rho_a: np.ndarray, theta_a: np.ndarray,
                        rho_b: np.ndarray, theta_b: np.ndarray) -> np.ndarray:
    """Distance between the polar points (rho_a, theta_a) and (rho_b,
    theta_b) of one disk.

    The law of cosines, rho_a^2 + rho_b^2 - 2 rho_a rho_b cos(theta_a -
    theta_b), is evaluated as (rho_a - rho_b)^2 + 2 rho_a rho_b (1 - cos):
    non-negative terms, for the same reason as in `polar_offset_distance`.
    """
    chord = np.subtract(theta_a, theta_b)
    np.cos(chord, out=chord)
    np.subtract(1.0, chord, out=chord)
    chord *= rho_a
    chord *= rho_b
    chord *= 2.0
    d2 = rho_a - rho_b
    d2 *= d2
    d2 += chord
    return np.sqrt(d2, out=d2)


@dataclass(frozen=True)
class _DropPlan:
    """Index arithmetic of one drop shape, shared by every drop of that shape.

    Disk call c (0: the centers, c > 0: cluster c - 1) takes sizes[c] radii,
    then sizes[c] angles from one block of uniform doubles, so its point p
    (numbered across calls) reads its radius at p + first[c] and its angle
    sizes[c] later.  `read` lists every point's radius position, then every
    point's angle position, so the block holds `read.size` doubles; `scale`
    is every point's disk radius.  Every array is read-only.
    """

    read: np.ndarray
    scale: np.ndarray
    cluster_of: np.ndarray
    bounds: tuple[int, ...]

    @property
    def n_clusters(self) -> int:
        return len(self.bounds) - 1

    @property
    def n_uavs(self) -> int:
        return self.bounds[-1]


@functools.lru_cache(maxsize=256)
def _drop_plan(k: int, counts: tuple[int, ...], region: float,
               radius_r: float) -> _DropPlan:
    """The plan of a drop with k clusters holding `counts` members."""
    sizes = np.array((k, *counts), dtype=np.intp)
    call = np.repeat(np.arange(k + 1), sizes)
    first = np.cumsum(sizes) - sizes
    r_at = np.arange(call.size) + first[call]
    read = np.concatenate([r_at, r_at + sizes[call]])
    scale = np.where(call == 0, region, radius_r)
    cluster_of = call[k:] - 1
    for a in (read, scale, cluster_of):
        a.flags.writeable = False
    return _DropPlan(read=read, scale=scale, cluster_of=cluster_of,
                     bounds=tuple(np.cumsum((0, *counts)).tolist()))


def cluster_peer_count(lambda_off: float, radius_r: float) -> int:
    """Nominal number of members per cluster disk at offspring density
    lambda_off: floor(lambda_off * pi * r^2)."""
    if lambda_off <= 0 or radius_r <= 0:
        raise ParameterError(
            f"lambda_off and radius_r must be positive, got {lambda_off}, {radius_r}")
    return math.floor(lambda_off * math.pi * radius_r ** 2)


def _drop_law(config: "ScenarioConfig"):
    """(rng, m) -> the `_DropPlan`s of m drops of the scenario, as a list.
    `ScenarioConfig` has validated the drop parameters, so this is
    arithmetic only.

    fixed_total mode: exactly `num_clusters` centers uniform on the region
    disk, `total_uavs` members split as evenly as possible (remainder goes
    to the lowest-indexed clusters); every drop has the same plan and the
    law draws nothing.

    density mode: Poisson centers with density `lambda_per_m2`, each holding
    `cluster_peer_count` members; the law draws the m Poisson counts in one
    call and returns the cached plan of each count.
    """
    region, radius_r = config.region_radius_m, config.radius_r_m
    if config.mode == "fixed_total":
        k = config.num_clusters
        base, extra = divmod(config.total_uavs, k)
        plan = _drop_plan(k, (base + 1,) * extra + (base,) * (k - extra),
                          region, radius_r)
        return lambda rng, m: [plan] * m
    per_cluster = cluster_peer_count(config.lambda_off_per_m2, radius_r)
    mean = config.lambda_per_m2 * np.pi * region ** 2

    def plans_of(rng, m):
        return [_drop_plan(k, (per_cluster,) * k, region, radius_r)
                for k in rng.poisson(mean, m).tolist()]
    return plans_of


def _drop_points(plan: _DropPlan, uniforms: np.ndarray):
    """The centers (shape (m, k, 2)) and member points (shape (m, n, 2)) of
    m drops of one plan, from their blocks of uniform doubles (one row of
    `plan.read.size` each): one gather, `sqrt`/`cos`/`sin` on whole arrays
    and one gather of the centers, whatever m is."""
    u = uniforms[:, plan.read]
    points = plan.scale.size
    rho = plan.scale * np.sqrt(u[:, :points])
    theta = 2.0 * np.pi * u[:, points:]
    offsets = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)
    centers = offsets[:, :plan.n_clusters]
    return centers, centers[:, plan.cluster_of] + offsets[:, plan.n_clusters:]


def _bs_site(config: "ScenarioConfig") -> tuple[float, tuple[float, float], float]:
    """(UAV height, BS planar point, BS height) of the scenario: the BS
    sits on the x axis at `d0_m` from the region center."""
    return config.h2_m, (config.d0_m, 0.0), config.h1_m


def write_topology_csv(path, drops: Iterable[tuple[np.ndarray, np.ndarray]],
                       height: float) -> None:
    """Serialize drops, each (member points (n, 2), cluster of each member
    (n,), grouped by cluster), as CSV with columns
    drop_id,cluster_id,uav_id,x,y,h, every UAV at `height`."""
    h = f"{height:.10g}"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["drop_id", "cluster_id", "uav_id", "x", "y", "h"])
        for drop_id, (xy, cluster_of) in enumerate(drops):
            # A member's index within its cluster is its row minus the
            # first row of that cluster.
            uav_ids = np.arange(cluster_of.size) - np.searchsorted(
                cluster_of, cluster_of)
            writer.writerows(
                (drop_id, int(cid), int(uid), f"{x:.10g}", f"{y:.10g}", h)
                for cid, uid, (x, y) in zip(cluster_of, uav_ids, xy))
