"""Cluster topology generation.

Cluster centers form either a Poisson point process on the deployment disk
(density mode) or a fixed-size uniform binomial process (fixed-total mode).
Each cluster's members are placed uniformly on a disk of radius `radius_r`
around the center.  All UAVs fly at a common height; the base station sits
on the ground at planar distance `d0` from the deployment-region center.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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
    `cluster_of[i]` is the cluster of row i.  `centers` (shape (k, 2)) are
    the cluster centers.  Every UAV flies at `height`; the BS sits at planar
    point `bs_xy` and height `bs_height`.
    """

    xy: np.ndarray
    cluster_of: np.ndarray
    centers: np.ndarray
    height: float
    bs_xy: tuple[float, float]
    bs_height: float
    parent_density: float | None = None
    mode: str = "fixed_total"

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


def sample_parent_centers(region_radius: float, density: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Poisson point process on the deployment disk, shape (k, 2).

    k is Poisson with mean density * pi * region_radius^2; positions are
    i.i.d. uniform on the disk.  k = 0 yields an empty array.
    """
    if region_radius <= 0:
        raise ParameterError(f"region_radius must be positive, got {region_radius}")
    if density <= 0:
        raise ParameterError(f"parent density must be positive, got {density}")
    mean_count = density * np.pi * region_radius ** 2
    k = int(rng.poisson(mean_count))
    return sample_uniform_disk(rng, k, region_radius)


def sample_cluster_members(center_xy, radius_r: float, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Planar coordinates of `count` members uniform on the disk of radius
    `radius_r` about the planar point `center_xy`."""
    if count < 1:
        raise ParameterError(f"cluster member count must be >= 1, got {count}")
    return sample_uniform_disk(rng, count, radius_r, center_xy)


def build_topology(config: "ScenarioConfig", rng: np.random.Generator) -> Topology:
    """Draw one topology according to the scenario configuration.

    fixed_total mode: exactly `num_clusters` centers uniform on the region
    disk, `total_uavs` members split as evenly as possible (remainder goes
    to the lowest-indexed clusters).

    density mode: Poisson centers with density `lambda_per_m2`, each holding
    floor(lambda_off_per_m2 * pi * radius_r^2) members.
    """
    if config.radius_r_m > config.region_radius_m:
        raise ParameterError(
            "radius_r_m: cluster radius "
            f"{config.radius_r_m} exceeds region radius {config.region_radius_m}")
    if config.mode == "fixed_total":
        centers = sample_uniform_disk(rng, config.num_clusters, config.region_radius_m)
        base, extra = divmod(config.total_uavs, config.num_clusters)
        counts = [base + (1 if i < extra else 0) for i in range(config.num_clusters)]
        density = None
    elif config.mode == "density":
        centers = sample_parent_centers(config.region_radius_m,
                                        config.lambda_per_m2, rng)
        per_cluster = math.floor(config.lambda_off_per_m2 * math.pi
                                 * config.radius_r_m ** 2)
        if per_cluster < 1:
            raise ParameterError(
                "lambda_off_per_m2: offspring density too low, expected members "
                f"per cluster {per_cluster} < 1")
        counts = [per_cluster] * len(centers)
        density = config.lambda_per_m2
    else:
        raise ParameterError(f"mode: unknown mode {config.mode!r}")

    # One draw per cluster, in cluster order: this fixes the RNG stream.
    members = [sample_cluster_members(center, config.radius_r_m, count, rng)
               for center, count in zip(centers, counts)]
    return Topology(
        xy=np.vstack(members) if members else np.empty((0, 2)),
        cluster_of=np.repeat(np.arange(len(counts)), counts),
        centers=centers, height=config.h2_m,
        bs_xy=(config.d0_m, 0.0), bs_height=config.h1_m,
        parent_density=density, mode=config.mode)


def topology_csv_rows(topology: Topology, drop_id: int) -> Iterable[tuple]:
    cluster_of = topology.cluster_of
    # Members are grouped by cluster, so a member's index within its cluster
    # is its row minus the first row of that cluster.
    uav_ids = np.arange(cluster_of.size) - np.searchsorted(cluster_of, cluster_of)
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
