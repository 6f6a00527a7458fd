"""Shared builders for protocol-level tests."""

import numpy as np

from uavcast.channel import completion_rounds
from uavcast.geometry import Topology


def one_cluster_topology(xy, d0=800.0):
    """Single cluster centered at the origin holding the members `xy`."""
    xy = np.asarray(xy, dtype=float)
    return Topology(xy=xy, cluster_of=np.zeros(xy.shape[0], dtype=int),
                    centers=np.zeros((1, 2)), height=20.0,
                    bs_xy=(d0, 0.0), bs_height=10.0)


def ring_topology(n, ring=20.0, d0=800.0):
    """One cluster of n members evenly spaced on a ring about its center."""
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return one_cluster_topology(
        np.column_stack([ring * np.cos(ang), ring * np.sin(ang)]), d0)


def four_uav_topology():
    """Fixed 4-member cluster used by the scripted recovery scenarios."""
    return one_cluster_topology(
        [[0.0, 10.0], [10.0, 0.0], [-10.0, 0.0], [0.0, -10.0]])


def fixed_success(p):
    """Reception hook: each reception succeeds independently with prob p."""
    def hook(power, rng):
        return rng.random(np.atleast_1d(power).shape[0]) < p
    return hook


def all_links(value):
    """Reception hook: every reception succeeds (True) or fails (False)."""
    def hook(power, rng):
        return np.full(np.atleast_1d(power).shape[0], value, dtype=bool)
    return hook


def decode_chance(p):
    """Peer probability hook: every listener decodes with chance p, so 1
    always succeeds and 0 always fails."""
    def hook(power):
        return np.full(np.shape(power), float(p))
    return hook


def fixed_success_rounds(p):
    """BS round hook: every round's reception succeeds independently with
    prob p, round 1 drawn as `fixed_success(p)` draws it."""
    first = fixed_success(p)

    def hook(power, g, rng):
        return completion_rounds(first(power, rng), np.full(power.shape, p),
                                 g, rng)
    return hook


def all_links_rounds(value):
    """BS round hook: every round's reception succeeds (True), so member
    completes in round g, or fails (False), so none ever completes."""
    def hook(power, g, rng):
        return np.full(power.shape, float(g) if value else np.inf)
    return hook


def fixed_rounds(*rounds):
    """BS round hook returning fixed completion rounds (None for never)."""
    out = np.array([np.inf if r is None else r for r in rounds], dtype=float)

    def hook(power, g, rng):
        assert power.shape == out.shape
        return out.copy()
    return hook


def reception_pattern(*flags):
    """Reception hook returning a fixed per-member pattern (first call shape)."""
    pattern = np.array(flags, dtype=bool)

    def hook(power, rng):
        n = np.atleast_1d(power).shape[0]
        return pattern[:n]
    return hook
