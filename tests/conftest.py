"""Shared builders for protocol-level tests."""

import numpy as np

from uavcast.channel import RadioParams, completion_rounds
from uavcast.geometry import _drop_law, _drop_points, sample_uniform_disk_polar
from uavcast.protocol import (
    SchemeOutcome,
    SimParams,
    deliver_recovered,
    recovering_cells,
    recovery_pass,
    run_epochs,
)

RADIO = RadioParams.defaults()

# A 4-member cluster for the scripted recovery scenarios.
FOUR_UAVS = [[0.0, 10.0], [10.0, 0.0], [-10.0, 0.0], [0.0, -10.0]]


def ring(n, radius=20.0):
    """n member points evenly spaced on a ring about the origin."""
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])


def disk_points(rng, n, radius, center=(0.0, 0.0)):
    """n points uniform on a disk, shape (n, 2): the Cartesian form of
    `sample_uniform_disk_polar`, with the same draws."""
    rho, theta = sample_uniform_disk_polar(rng, n, radius)
    return np.column_stack([center[0] + rho * np.cos(theta),
                            center[1] + rho * np.sin(theta)])


def fixed_drops(config, m, rng):
    """m fixed_total drops of `config` through `_drop_law` and
    `_drop_points`, their blocks of uniforms read from `rng`: the member
    points (m, n, 2) and the cluster bounds."""
    plan = _drop_law(config)(rng, m)[0]
    _, xy = _drop_points(plan, rng.random((m, plan.read.size)))
    return xy, plan.bounds


def bernoulli_rounds(p, g, shape, rng):
    """Completion rounds of listeners that need `g` receptions, each
    reception succeeding with chance p: round 1 drawn directly, the later
    rounds through `completion_rounds`."""
    first = rng.random(shape) < p
    return completion_rounds(first, np.full(shape, p),
                             rng.exponential(1.0, (*shape, g)))


def cell_draw(seed):
    """A `draw(epoch, cluster, b, out)` of `finish_epochs` that fills block
    b of cell (e, c) from `default_rng([seed, e, c, b])`: each cell's
    uniforms depend on nothing but the cell and the seed."""
    def draw(epoch, cluster, b, out):
        for j, (e, c) in enumerate(zip(epoch.tolist(), cluster.tolist())):
            np.random.default_rng([seed, e, c, b]).random(out=out[j])
    return draw


def finish_epochs(scheme, xy, bounds, first, sim, draw=None, events=None,
                  peer_probability=None, radio=RADIO):
    """m epochs of `scheme` finished as the studies finish them, with
    `run_epochs`' outputs: a BS scheme by `run_epochs` alone, clustering
    by its broadcast, then one `recovery_pass` over the batch's
    `recovering_cells` of the member points `xy` (m, n, 2), written back
    by `deliver_recovered`.  The pass reads block b of cells (`epoch[j]`,
    `cluster[j]`) through `draw(epoch, cluster, b, out)`, and hears a
    clean reply with the chance `peer_probability` gives (by default the
    decode probability at `radio`).  `events`, when a list, gets the
    unsorted events of a batch of one epoch."""
    outcome = run_epochs(scheme, bounds, first, radio, sim, events)
    if scheme != "clustering":
        return outcome
    delivery, via_broadcast, bs_tx, _, _ = outcome
    cells = recovering_cells(xy, bounds, via_broadcast)
    times, frames = recovery_pass(
        cells, radio, sim,
        lambda cell, b, out: draw(cells.epoch[cell], cells.cluster[cell], b,
                                  out),
        events, peer_probability)
    return (delivery, via_broadcast, bs_tx,
            *deliver_recovered(delivery, cells, times, frames))


def epoch(scheme, xy, first, sim=SimParams(), *, bounds=None, chance=None,
          seed=0):
    """One epoch of `scheme` on the member points `xy` (n, 2), one cluster
    unless `bounds` says otherwise, through `finish_epochs`.  `first` is its
    round-1 outcome: a bool mask for clustering, each member's completion
    round (inf for never) for the BS schemes.  Every clean reply reaches a
    listener with chance `chance` (by default its decode probability at its
    mean received power), and recovery fills its blocks, in the order it
    asks for them, from `default_rng(seed)`.
    Returns the epoch's `SchemeOutcome`, its events sorted by time."""
    xy = np.asarray(xy, dtype=float)
    n = len(xy)
    bounds = (0, n) if bounds is None else bounds
    peer = (None if chance is None
            else lambda power: np.full(power.shape, float(chance)))
    rng, events = np.random.default_rng(seed), []
    return SchemeOutcome.of_batch(scheme, bounds, finish_epochs(
        scheme, xy[None], bounds, np.asarray(first)[None], sim,
        lambda e, c, b, out: rng.random(out=out), events, peer), events)
