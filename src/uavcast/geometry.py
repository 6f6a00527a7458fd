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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover
    from .config import ScenarioConfig


@dataclass
class Topology:
    """One network drop as flat per-member arrays.

    Members are grouped by cluster: the rows of `xy` (planar coordinates,
    shape (n, 2)) list cluster 0 first, then cluster 1, and so on, and
    `cluster_of[i]` is the cluster of row i, and cluster c holds rows
    `cluster_bounds[c]` to `cluster_bounds[c + 1]` (derived from
    `cluster_of` when not given, which then must have one non-decreasing
    entry per row).  `centers` (shape (k, 2)) are the cluster
    centers.  Every UAV flies at `height`; the BS sits at planar
    point `bs_xy` and height `bs_height`.
    """

    xy: np.ndarray
    cluster_of: np.ndarray
    centers: np.ndarray
    height: float
    bs_xy: tuple[float, float]
    bs_height: float
    cluster_bounds: tuple[int, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.cluster_bounds is None:
            cluster_of = np.asarray(self.cluster_of)
            if cluster_of.shape != (self.n_uavs,):
                raise ParameterError(
                    f"cluster_of: need one entry per row of xy ({self.n_uavs}),"
                    f" got shape {cluster_of.shape}")
            if np.any(np.diff(cluster_of) < 0):
                raise ParameterError(
                    "cluster_of: must be non-decreasing (rows grouped by "
                    "cluster)")
            self.cluster_bounds = tuple(np.searchsorted(
                cluster_of, np.arange(self.n_clusters + 1)).tolist())

    @property
    def n_uavs(self) -> int:
        return int(self.xy.shape[0])

    @property
    def n_clusters(self) -> int:
        return int(self.centers.shape[0])

    def bs_distances(self) -> np.ndarray:
        """3D distance from every member to the BS, shape (n,)."""
        return _bs_distances(self.xy, self.height, self.bs_xy, self.bs_height)


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


def sample_uniform_disk(rng: np.random.Generator, n: int, radius: float,
                        center_xy=(0.0, 0.0)) -> np.ndarray:
    """n points uniform on a disk, shape (n, 2): the Cartesian form of
    `sample_uniform_disk_polar`, with the same draws."""
    rho, theta = sample_uniform_disk_polar(rng, n, radius)
    return np.column_stack([center_xy[0] + rho * np.cos(theta),
                            center_xy[1] + rho * np.sin(theta)])


def polar_offset_distance(offset: float, rho: np.ndarray, theta: np.ndarray,
                          height: float = 0.0) -> np.ndarray:
    """Distance from an observer at planar distance `offset` from a disk's
    center and `height` off its plane to the disk points (rho, theta), with
    theta measured from the observer-to-center direction: the points of
    `sample_uniform_disk(rng, n, radius, (offset, 0))` seen from the origin.

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
    """rng -> the `_DropPlan` of one drop of the scenario.  `ScenarioConfig`
    has validated the drop parameters, so this is arithmetic only.

    fixed_total mode: exactly `num_clusters` centers uniform on the region
    disk, `total_uavs` members split as evenly as possible (remainder goes
    to the lowest-indexed clusters); every drop has the same plan and the
    law draws nothing.

    density mode: Poisson centers with density `lambda_per_m2`, each holding
    `cluster_peer_count` members; the law draws the Poisson count and
    returns the cached plan of that count.
    """
    region, radius_r = config.region_radius_m, config.radius_r_m
    if config.mode == "fixed_total":
        k = config.num_clusters
        base, extra = divmod(config.total_uavs, k)
        plan = _drop_plan(k, (base + 1,) * extra + (base,) * (k - extra),
                          region, radius_r)
        return lambda rng: plan
    per_cluster = cluster_peer_count(config.lambda_off_per_m2, radius_r)
    mean = config.lambda_per_m2 * np.pi * region ** 2

    def plan_of(rng):
        k = int(rng.poisson(mean))
        return _drop_plan(k, (per_cluster,) * k, region, radius_r)
    return plan_of


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


def build_topology(config: "ScenarioConfig", rng: np.random.Generator) -> Topology:
    """Draw one topology according to the scenario configuration
    (`_drop_law`): the batch of one of `_drop_points`.

    After the Poisson count (density mode only) the drop draws one block of
    2 * (clusters + members) uniform doubles and consumes it in the order of
    one `sample_uniform_disk` call for the centers followed by one per
    cluster, so the drop and the generator state after it equal those of
    per-disk sampling bit for bit.  Where each point reads its radius and
    angle depends only on the cluster sizes, so it comes from a cached
    `_DropPlan`: one per scenario in fixed_total mode, one per Poisson
    count in density mode; the drops share the plan's read-only
    `cluster_of` and `cluster_bounds`.
    """
    plan = _drop_law(config)(rng)
    centers, xy = _drop_points(plan, rng.random(plan.read.size)[None])
    height, bs_xy, bs_height = _bs_site(config)
    return Topology(
        xy=xy[0], cluster_of=plan.cluster_of, centers=centers[0],
        height=height, bs_xy=bs_xy, bs_height=bs_height,
        cluster_bounds=plan.bounds)


def topology_csv_rows(topology: Topology, drop_id: int) -> Iterable[tuple]:
    cluster_of = topology.cluster_of
    # A member's index within its cluster is its row minus the first row of
    # that cluster.
    first_row = np.asarray(topology.cluster_bounds[:-1], dtype=np.intp)
    uav_ids = np.arange(cluster_of.size) - first_row[cluster_of]
    h = f"{topology.height:.10g}"
    for cid, uid, (x, y) in zip(cluster_of, uav_ids, topology.xy):
        yield (drop_id, int(cid), int(uid), f"{x:.10g}", f"{y:.10g}", h)


def write_topology_csv(path, topologies: Iterable[Topology]) -> None:
    """Serialize drops as CSV with columns drop_id,cluster_id,uav_id,x,y,h."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["drop_id", "cluster_id", "uav_id", "x", "y", "h"])
        for drop_id, topology in enumerate(topologies):
            writer.writerows(topology_csv_rows(topology, drop_id))
