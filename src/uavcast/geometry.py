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
    `cluster_of` when not given).  `centers` (shape (k, 2)) are the cluster
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
            self.cluster_bounds = tuple(np.searchsorted(
                self.cluster_of, np.arange(self.n_clusters + 1)).tolist())

    @property
    def n_uavs(self) -> int:
        return int(self.xy.shape[0])

    @property
    def n_clusters(self) -> int:
        return int(self.centers.shape[0])

    def bs_distances(self) -> np.ndarray:
        """3D distance from every member to the BS, shape (n,)."""
        return np.sqrt((self.xy[:, 0] - self.bs_xy[0]) ** 2
                       + (self.xy[:, 1] - self.bs_xy[1]) ** 2
                       + (self.height - self.bs_height) ** 2)


def sample_uniform_disk(rng: np.random.Generator, n: int, radius: float,
                        center_xy=(0.0, 0.0)) -> np.ndarray:
    """n points uniform on a disk; radial CDF proportional to r^2."""
    if radius <= 0:
        raise ParameterError(f"disk radius must be positive, got {radius}")
    if n < 0:
        raise ParameterError(f"sample count must be non-negative, got {n}")
    r = radius * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([center_xy[0] + r * np.cos(theta),
                            center_xy[1] + r * np.sin(theta)])


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


def build_topology(config: "ScenarioConfig", rng: np.random.Generator) -> Topology:
    """Draw one topology according to the scenario configuration.

    fixed_total mode: exactly `num_clusters` centers uniform on the region
    disk, `total_uavs` members split as evenly as possible (remainder goes
    to the lowest-indexed clusters).

    density mode: Poisson centers with density `lambda_per_m2`, each holding
    floor(lambda_off_per_m2 * pi * radius_r^2) members.

    After the Poisson count (density mode only) the drop draws one block of
    2 * (clusters + members) uniform doubles and consumes it in the order of
    one `sample_uniform_disk` call for the centers followed by one per
    cluster, so the drop and the generator state after it equal those of
    per-disk sampling bit for bit.  Where each point reads its radius and
    angle depends only on the cluster sizes, so it comes from a cached
    `_DropPlan`: one per scenario in fixed_total mode, one per Poisson
    count in density mode.  A drop is then one `rng.random` call, one
    gather, `sqrt`/`cos`/`sin` on whole arrays and one gather of the
    centers; the drops share the plan's read-only `cluster_of` and
    `cluster_bounds`.
    """
    region, radius_r = config.region_radius_m, config.radius_r_m
    if region <= 0:
        raise ParameterError(f"region_radius_m: must be positive, got {region}")
    if radius_r <= 0:
        raise ParameterError(f"radius_r_m: must be positive, got {radius_r}")
    if radius_r > region:
        raise ParameterError(
            f"radius_r_m: cluster radius {radius_r} exceeds region radius {region}")
    if config.mode == "fixed_total":
        k = config.num_clusters
        if k < 1:
            raise ParameterError(f"num_clusters: must be >= 1, got {k}")
        if config.total_uavs < k:
            raise ParameterError(
                f"total_uavs: need at least one UAV per cluster, got "
                f"{config.total_uavs} for {k} clusters")
        base, extra = divmod(config.total_uavs, k)
        counts = (base + 1,) * extra + (base,) * (k - extra)
    elif config.mode == "density":
        density = config.lambda_per_m2
        if density <= 0:
            raise ParameterError(f"lambda_per_m2: must be positive, got {density}")
        per_cluster = math.floor(config.lambda_off_per_m2 * math.pi * radius_r ** 2)
        if per_cluster < 1:
            raise ParameterError(
                "lambda_off_per_m2: offspring density too low, expected members "
                f"per cluster {per_cluster} < 1")
        k = int(rng.poisson(density * np.pi * region ** 2))
        counts = (per_cluster,) * k
    else:
        raise ParameterError(f"mode: unknown mode {config.mode!r}")

    plan = _drop_plan(k, counts, region, radius_r)
    u = rng.random(plan.read.size)[plan.read]
    points = plan.scale.size
    rho = plan.scale * np.sqrt(u[:points])
    theta = 2.0 * np.pi * u[points:]
    offsets = np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])
    centers = offsets[:k]
    return Topology(
        xy=centers[plan.cluster_of] + offsets[k:], cluster_of=plan.cluster_of,
        centers=centers, height=config.h2_m,
        bs_xy=(config.d0_m, 0.0), bs_height=config.h1_m,
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
