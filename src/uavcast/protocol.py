"""Simulation of one multicast packet epoch under three schemes.

clustering
    The BS broadcasts once.  Members that miss the packet recover it from
    their own cluster over a shared per-cluster channel: missing members
    contend (slotted CSMA/CA backoff) to send a short request; hearing a
    request for a packet they also miss, other members hold their own
    requests and wait for the reply.  Members that hold the packet contend
    to send one relayed copy; one completed reply answers the request and
    every overhearing missing member may cache it.  Members whose reception
    of the reply failed re-enter contention with a new request.

benchmark
    The BS re-broadcasts until every member has the packet; each newly
    served member returns an ACK (serialized after the broadcast slot).

rnc
    The BS streams random-network-coded packets; a member needs any
    `rnc_generation_size` coded receptions to decode the generation
    (large-field assumption: every received coded packet is innovative),
    and a single terminal ACK round closes the epoch.  Its delivery time is
    the decode instant of the whole generation.

Per-cluster channels are isolated from each other and from the BS downlink.
Collided frames occupy the channel and are lost; frame headers are assumed
short enough that any non-collided frame is always decodable, so request
and reply suppression never fails.  Data receptions follow the Rayleigh
law of `channel`: the first BS broadcast draws fading against the SNR
threshold, and a relayed reply succeeds with `decode_probability`.

Every scheme's first BS broadcast ends at packet_len_ms, and none is sent
when that is past max_time_ms.  `run_epochs` finishes a batch of epochs of
one drop shape from each member's round-1 outcome: clustering's broadcast,
or a BS scheme's rounds.  The studies call it on batches of drops, and a
replay on a batch of one epoch, which alone records the event log that
`SchemeOutcome.of_batch` reads.  Clustering recovery is three steps.
`recovering_cells` finds the cells of a batch: the (epoch, cluster) pairs
with a member that holds the packet and one that misses it, each with its
members' points in a padded row of S slots, S being the largest cluster.
`recovery_pass` runs any set of cells of one width S in lock-step over
arrays, whatever epochs or drop shapes they come from: every cell makes
one channel attempt per iteration (`_attempt`), so the pass takes the
iterations its slowest cell needs, in memory bounded by its padded slots
(cells x S).  Each cell reads uniforms of its own, a block of _BLOCK_ROWS
rows at a time (`draw`), so how cells are grouped into passes changes no
draw.  `deliver_recovered` writes a pass's times and frames back into the
epochs its cells come from.  The studies and a replay alike queue the
cells of many batches of a scenario, where every drop has the same S, and
run a pass at the scenario's end or once the queue reaches
`experiments._BATCH_SLOTS` padded slots, each queued n-member round-1 row
counting n / 8 (`experiments._Recovery`); a replay's one batch is its
last, so it recovers at once.  An `ase-near` benchmark unit runs 3 passes
of 26 iterations in all, against 12 passes of 88 iterations when each
batch ran its own.
The two BS schemes simulate no rounds: fading is independent from round to
round, so each member's completion round is drawn at once
(`channel.completion_rounds`), and the round times, the time budget and
the counters of every epoch follow from those counts as whole-array steps
(`_bs_delivery`).
"""

from __future__ import annotations

import csv
import enum
import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (
    LinkKind,
    RadioParams,
    decode_probability,
    mean_received_power,
)
from .errors import ParameterError, check_field_values

PACKET_ID = 0  # single-packet epochs; RNC events carry coded-packet indices
# Rows of one block of recovery uniforms (`recovery_pass`): a cell reads
# one row per lock-step iteration and its next block after this many.
_BLOCK_ROWS = 4


@dataclass(frozen=True)
class SimParams:
    """Protocol timing and MAC constants (times in ms)."""

    packet_len_ms: float = 10.0
    t_req_ms: float = 1.0
    t_ack_ms: float = 1.0
    slot_ms: float = 0.009
    cw_min: int = 16
    cw_max: int = 64
    max_time_ms: float = 10_000.0
    rnc_generation_size: int = 8
    opportunistic_caching: bool = True

    def __post_init__(self):
        check_field_values(self)
        if self.packet_len_ms <= 0 or self.t_req_ms < 0 or self.t_ack_ms < 0:
            raise ParameterError("packet_len_ms must be positive, "
                                 "t_req_ms and t_ack_ms non-negative")
        if self.slot_ms <= 0:
            raise ParameterError(f"slot_ms must be positive, got {self.slot_ms}")
        if not (1 <= self.cw_min <= self.cw_max):
            raise ParameterError(
                f"need 1 <= cw_min <= cw_max, got {self.cw_min}, {self.cw_max}")
        if self.max_time_ms <= 0:
            raise ParameterError(f"max_time_ms must be positive, got {self.max_time_ms}")
        if self.rnc_generation_size < 1:
            raise ParameterError(
                f"rnc_generation_size must be >= 1, got {self.rnc_generation_size}")


class EventKind(enum.Enum):
    BS_BROADCAST_END = "bs_broadcast_end"
    REQUEST_TX_END = "request_tx_end"
    REPLY_TX_END = "reply_tx_end"
    BACKOFF_EXPIRY = "backoff_expiry"
    ACK_RX_END = "ack_rx_end"


@dataclass(frozen=True)
class Event:
    """One timestamped protocol event; actor -1 denotes the base station."""

    time_ms: float
    kind: EventKind
    actor: int
    packet_id: int
    cluster_id: int
    collided: bool = False


@dataclass
class SchemeOutcome:
    """Result of one epoch: per-member delivery records and traffic counts.

    `delivery_time_ms` is NaN where `undelivered` is set.  `via_broadcast`
    marks members served directly by the first BS transmission.  Counters
    include collided frames (they occupied the channel).
    """

    scheme: str
    delivery_time_ms: np.ndarray
    undelivered: np.ndarray
    via_broadcast: np.ndarray
    cluster_ids: np.ndarray
    bs_transmissions: int
    uav_transmissions: int
    control_messages: int
    events: list[Event] | None = None

    @classmethod
    def of_batch(cls, scheme: str, bounds, epochs,
                 events: list | None = None) -> SchemeOutcome:
        """The epoch of a batch of one drop of clusters `bounds`, whose
        `epochs` are the (delivery, via_broadcast, counters) of
        `run_epochs` for `scheme`, and for clustering of its recovery too;
        `events`, when a list, is sorted by time and kept, the BS's events
        first among equal times and the others in the order they came."""
        delivery, via_broadcast, bs_tx, uav_tx, control = epochs
        if events is not None:
            events.sort(key=lambda e: (e.time_ms, e.actor >= 0))
        return cls(
            scheme=scheme, delivery_time_ms=delivery[0],
            undelivered=np.isnan(delivery[0]), via_broadcast=via_broadcast[0],
            cluster_ids=_cluster_of(bounds),
            bs_transmissions=int(bs_tx[0]), uav_transmissions=int(uav_tx[0]),
            control_messages=int(control[0]), events=events)

    @property
    def n_uavs(self) -> int:
        return int(self.delivery_time_ms.size)

    @property
    def delivered(self) -> np.ndarray:
        return ~self.undelivered


def _cluster_of(bounds) -> np.ndarray:
    """The cluster of each member of a drop whose cluster c holds members
    `bounds[c]` to `bounds[c + 1]`."""
    return np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))


def _attempt(contend, residual, cw, fresh, u_fresh, u_redraw, sim):
    """One backoff attempt on the channel of every cell (rows of the
    (cells x slots) arrays).

    `contend` marks each cell's contenders.  `residual` and `cw` hold every
    slot's residual count and contention window, as floats holding whole
    numbers, and are updated in place.  Where `fresh` is set a contention
    starts, and every slot draws floor(u * cw) from `u_fresh`.  The
    contenders at the lowest count transmit.  A lone transmitter's window
    returns to cw_min.  Colliders double their windows (up to cw_max) and
    redraw from `u_redraw`, while everyone else freezes its count during
    the burst and resumes after it (802.11-style).  Returns, per cell, the
    slot, the transmitters' mask and their count.
    """
    np.copyto(residual, np.floor(u_fresh * cw), where=fresh[:, None])
    counts = np.where(contend, residual, np.inf)
    slot = counts.min(axis=1)
    sent = counts == slot[:, None]
    n_sent = sent.sum(axis=1)
    hit = sent & (n_sent > 1)[:, None]
    doubled = np.minimum(2.0 * cw, sim.cw_max)
    np.copyto(cw, sim.cw_min, where=sent)
    np.copyto(cw, doubled, where=hit)
    residual -= slot[:, None]
    np.copyto(residual, np.floor(u_redraw * cw), where=hit)
    return slot, sent, n_sent


class RecoveryCells(NamedTuple):
    """The cells of a batch of epochs that clustering recovery runs
    (`recovering_cells`), one entry per cell in each field: `points` (cells,
    S, 2) the points of its cluster's members, slot by slot, S being the
    batch's largest cluster; `held` and `lost` (cells, S) its members that
    hold and miss the packet, padding slots being neither; `epoch` its row
    in the batch, `cluster` its cluster there, and `first` the index of
    that cluster's first member in the drop (slot s is member first + s)."""

    points: np.ndarray
    held: np.ndarray
    lost: np.ndarray
    epoch: np.ndarray
    cluster: np.ndarray
    first: np.ndarray


def recovering_cells(xy, bounds, got: np.ndarray) -> RecoveryCells:
    """The cells of m epochs of one drop shape after a BS broadcast that
    served the members `got` (m, n) marks: every (epoch, cluster) pair with
    a member that missed the broadcast and one that holds it, in ascending
    order.  Cluster c holds members `bounds[c]` to `bounds[c + 1]` of every
    epoch, and `xy` (m, n, 2) gives their points; it is not read when no
    cell recovers, so it may then be None."""
    n = got.shape[1]
    first = np.asarray(bounds[:-1], dtype=np.intp)
    size = np.diff(bounds)
    slots = np.arange(size.max(initial=0))
    valid = slots < size[:, None]
    # Padding slots point at a real member but are never contenders or
    # listeners.
    member = np.minimum(first[:, None] + slots, max(n - 1, 0))
    served = got[:, member]
    held = served & valid
    lost = valid & ~served
    epoch, cluster = np.nonzero(held.any(axis=2) & lost.any(axis=2))
    # One flat gather: indexing xy by (epoch, member) pairs is slower.
    points = (np.take(xy.reshape(-1, 2),
                      (epoch * n)[:, None] + member[cluster], axis=0)
              if epoch.size else np.empty((0, slots.size, 2)))
    return RecoveryCells(points, held[epoch, cluster], lost[epoch, cluster],
                         epoch, cluster, first[cluster])


def recovery_pass(cells: RecoveryCells, radio: RadioParams, sim: SimParams,
                  draw, events: list | None = None, peer_probability=None):
    """In-cluster recovery of `cells` after a BS broadcast ending at
    packet_len_ms, in one lock-step pass: one channel attempt per cell per
    iteration (`_attempt`).  Cells share no channel, so they run side by
    side, each serialized on its own, whatever epochs or drop shapes they
    come from, as long as they share the slot width S.  The pass holds
    their padded (cells x S) slots.  `events`, when a list, gets their
    events, actor `first + s` and cluster `cluster` of each cell.

    Missing members contend to send a request; after a clean one, holders
    contend to send the reply.  A clean reply reaches each listener (every
    missing member with opportunistic caching, else the requester) with
    the chance `peer_probability` gives its mean received power from the
    replier (by default `decode_probability`), computed for the listeners
    alone; a member that gets it holds it from then on.  A cell ends once
    none of its members misses the packet, or when its next frame would
    end past max_time_ms.  Finished cells are compacted away.

    Randomness: every cell reads block b, rows b * _BLOCK_ROWS to (b + 1)
    * _BLOCK_ROWS - 1 of its own uniforms, at iterations b * _BLOCK_ROWS
    on.  Before iteration 0 and every _BLOCK_ROWS iterations, one
    `draw(cell, b, out)` call fills `out[j]`, shape (_BLOCK_ROWS, 2, S),
    with block b of the live cell at position `cell[j]` of `cells`, in
    ascending order.  Iteration i reads row i mod _BLOCK_ROWS of a cell's
    block: column 0 gives its slots' fresh backoffs, column 1 a collider's
    redraw or a listener's reception (u < chance).  So a cell's draws
    depend on no other cell.

    `peer_probability` is a test seam: the studies leave it None, and
    tests pass a scripted chance.

    Returns each slot's recovery time, NaN where its member did not
    recover in the pass, (cells, S), and each cell's (requests, replies),
    collided frames included, (cells, 2).
    """
    if peer_probability is None:
        peer_probability = functools.partial(decode_probability, radio=radio)
    times = np.full(cells.held.shape, np.nan)
    frames = np.zeros((len(times), 2), dtype=np.int64)  # request, reply
    if not len(times):
        return times, frames
    held, lost = cells.held.copy(), cells.lost.copy()
    points = cells.points.reshape(-1, 2)  # slot s of cell c at c * S + s
    cell = np.arange(len(times))  # each live cell's position in `cells`
    slots = np.arange(held.shape[1])
    blocks = np.empty((cell.size, _BLOCK_ROWS, 2, slots.size))
    t = np.full(cell.size, sim.packet_len_ms)
    cw = np.full(held.shape, float(sim.cw_min))
    residual = np.zeros(held.shape)
    reply = np.zeros(cell.size, dtype=bool)
    fresh = np.ones(cell.size, dtype=bool)
    asker = np.zeros(cell.size, dtype=np.intp)
    airtime = np.array([sim.t_req_ms, sim.packet_len_ms])
    kinds = (EventKind.REQUEST_TX_END, EventKind.REPLY_TX_END)
    for i in itertools.count():
        if not i % _BLOCK_ROWS:
            block_of = np.arange(cell.size)
            draw(cell, i // _BLOCK_ROWS, blocks[:cell.size])
        u = blocks[block_of, i % _BLOCK_ROWS]
        phase = reply.astype(np.intp)
        slot, sent, n_sent = _attempt(np.where(reply[:, None], held, lost),
                                      residual, cw, fresh, u[:, 0],
                                      u[:, 1], sim)
        start = t + slot * sim.slot_ms
        t = start + airtime[phase]
        fits = t <= sim.max_time_ms
        frames[cell, phase] += np.where(fits, n_sent, 0)
        if events is not None:
            for c in np.flatnonzero(fits).tolist():
                at = cell[c]
                for s in np.flatnonzero(sent[c]).tolist():
                    actor = int(cells.first[at]) + s
                    cid = int(cells.cluster[at])
                    events.append(Event(float(start[c]),
                                        EventKind.BACKOFF_EXPIRY, actor,
                                        PACKET_ID, cid))
                    events.append(Event(float(t[c]), kinds[phase[c]], actor,
                                        PACKET_ID, cid, bool(n_sent[c] > 1)))
        clean = fits & (n_sent == 1)
        winner = sent.argmax(axis=1)
        asked = clean & ~reply
        asker[asked] = winner[asked]
        answered = np.flatnonzero(clean & reply)
        if answered.size:
            # The links of (cell, listener) pairs alone.
            live, s = np.nonzero(lost[answered] if sim.opportunistic_caching
                                 else slots == asker[answered, None])
            live = answered[live]
            at = cell[live] * slots.size
            d = points[at + s] - points[at + winner[live]]
            power = mean_received_power(LinkKind.UAV_TO_UAV,
                                        np.hypot(d[:, 0], d[:, 1]), radio)
            heard = u[live, 1, s] < peer_probability(power)
            live, s = live[heard], s[heard]
            times[cell[live], s] = t[live]
            lost[live, s] = False
            held[live, s] = True
        reply ^= clean
        fresh = clean
        keep = fits & lost.any(axis=1)
        if not keep.all():
            keep = np.flatnonzero(keep)
            if not keep.size:
                break
            (cell, block_of, held, lost, cw, residual, t, reply, fresh,
             asker) = (x[keep] for x in (cell, block_of, held, lost, cw,
                                         residual, t, reply, fresh, asker))
    return times, frames


def deliver_recovered(delivery: np.ndarray, cells: RecoveryCells,
                      times: np.ndarray, frames: np.ndarray):
    """Write the recovery `times` of `cells`, the `recovering_cells` of
    the epochs of `delivery` (m, n), into `delivery`, and return per-epoch
    (uav transmissions, control messages) from their `frames`: what a
    `recovery_pass` over them, or over any set of cells that holds them,
    gave them.  Reads only `epoch` and `first` of `cells`."""
    c, s = np.nonzero(~np.isnan(times))
    delivery[cells.epoch[c], cells.first[c] + s] = times[c, s]
    per_epoch = np.zeros((len(delivery), 2), dtype=np.int64)
    np.add.at(per_epoch, cells.epoch, frames)
    return per_epoch[:, 1], per_epoch[:, 0]


def _bs_delivery(rounds: np.ndarray, coded: bool, sim: SimParams):
    """The BS timelines of rows of members (one row per epoch) completing
    in `rounds` (float (m, n) array, inf for never): (rounds capped at the
    budget, delivery time or NaN, via_broadcast), each (m, n).

    Round k ends at k * packet_len_ms, plus t_ack_ms for each member of
    the row served in an earlier round when uncoded, and a round runs only
    if its end fits in max_time_ms.  So a member is delivered when its
    completion round ends within the budget.  Times are computed from
    these products, not accumulated round by round.  `via_broadcast` marks
    members served in round 1 when uncoded, every delivered member when
    coded.
    """
    length, budget = sim.packet_len_ms, sim.max_time_ms
    # A round past budget / length never runs; the cap keeps the end times
    # finite for rounds that large.
    rounds = np.minimum(rounds, budget / length + 2.0)
    if coded:
        end = rounds * length
    else:
        # Members served before round k ACK ahead of its broadcast: a
        # member's count of strictly earlier rounds in its row is the
        # sorted position where its run of equal rounds starts.
        order = np.argsort(rounds, axis=1)
        ranked = np.take_along_axis(rounds, order, axis=1)
        position = np.arange(rounds.shape[1])
        starts = np.ones(ranked.shape, dtype=bool)
        starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        first_of_run = np.maximum.accumulate(
            np.where(starts, position, 0), axis=1)
        before = np.empty(rounds.shape, dtype=np.intp)
        np.put_along_axis(before, order, first_of_run, axis=1)
        end = rounds * length + sim.t_ack_ms * before
    delivered = end <= budget
    via_broadcast = delivered if coded else delivered & (rounds == 1.0)
    return rounds, np.where(delivered, end, np.nan), via_broadcast


def _bs_events(events: list, rounds: np.ndarray, coded: bool, served: int,
               bs_tx: int, bounds, sim: SimParams) -> None:
    """Append one epoch's BS rounds and ACKs, given its members' capped
    completion `rounds`, `served` of them in the budget: uncoded, the
    members served in a round ACK right after it, in row order; coded,
    round k carries coded packet k - 1, and one terminal ACK per member
    follows once all have decoded."""
    n, length, t_ack = rounds.size, sim.packet_len_ms, sim.t_ack_ms
    cluster_of = _cluster_of(bounds)
    order = np.argsort(rounds, kind="stable")[:served].tolist()
    done = 0
    for k in range(1, bs_tx + 1):
        t = k * length + (0.0 if coded else t_ack * done)
        events.append(Event(t, EventKind.BS_BROADCAST_END, -1,
                            k - 1 if coded else PACKET_ID, -1))
        while not coded and done < served and rounds[order[done]] == k:
            u = order[done]
            done += 1
            events.append(Event(k * length + t_ack * done,
                                EventKind.ACK_RX_END, u, PACKET_ID,
                                int(cluster_of[u])))
    if coded and served == n:
        for u in range(n):
            events.append(Event(bs_tx * length + t_ack * (u + 1),
                                EventKind.ACK_RX_END, u, PACKET_ID,
                                int(cluster_of[u])))


def run_epochs(scheme: str, bounds, first: np.ndarray, radio: RadioParams,
               sim: SimParams, events: list | None = None):
    """Finish m epochs of `scheme` on drops of one shape: clustering's
    broadcast, or a BS scheme's rounds.

    Cluster c holds members `bounds[c]` to `bounds[c + 1]`.  `first`
    (m, n) is the BS link's outcome per member.  For clustering it is a
    bool mask of the members round 1 served (none when a packet exceeds
    max_time_ms), and the epochs end at the broadcast: recovery goes on
    from them apart (`recovering_cells`, `recovery_pass`,
    `deliver_recovered`).  For the BS schemes it is the float round in
    which a member completes its receptions, inf for never.  `events`,
    when a list, gets the unsorted events of a batch of one epoch.

    Returns (delivery, via_broadcast), each (m, n), delivery NaN where
    undelivered, and per-epoch (bs_transmissions, uav_transmissions,
    control_messages), each (m,).  When one packet exceeds max_time_ms no
    scheme sends or serves anything, and no BS timeline runs.  Otherwise
    clustering sends its broadcast, even to an empty drop
    (bs_transmissions 1).  A BS scheme sends rounds up to the last
    delivery and, when a member is never served, every round that fits:
    floor((max_time_ms - t_ack_ms * ACKs) / packet_len_ms), with no ACKs
    when coded.  An empty drop needs no BS round (bs_transmissions 0).
    """
    if scheme not in SCHEME_RUNNERS:
        raise ParameterError(
            f"scheme: unknown scheme {scheme!r}, expected one of "
            f"{sorted(SCHEME_RUNNERS)}")
    m, n = first.shape
    if sim.packet_len_ms > sim.max_time_ms:
        # No packet fits: no scheme sends a frame or serves a member.
        return (np.full((m, n), np.nan), np.zeros((m, n), dtype=bool),
                *(np.zeros(m, dtype=np.int64) for _ in range(3)))
    if scheme == "clustering":
        if events is not None:
            events.append(Event(sim.packet_len_ms, EventKind.BS_BROADCAST_END,
                                -1, PACKET_ID, -1))
        return (np.where(first, sim.packet_len_ms, np.nan), first,
                np.ones(m, dtype=np.int64), *np.zeros((2, m), dtype=np.int64))
    coded = scheme == "rnc"
    rounds, delivery, via_broadcast = _bs_delivery(first, coded, sim)
    delivered = ~np.isnan(delivery)
    served = np.count_nonzero(delivered, axis=1)
    last = np.where(delivered, rounds, 0.0).max(axis=1, initial=0.0)
    # After the last delivery, rounds run for as long as they fit.
    fit = np.floor((sim.max_time_ms - sim.t_ack_ms * (0 if coded else served))
                   / sim.packet_len_ms)
    bs_tx = np.where(served == n, last, np.maximum(last, fit)).astype(np.int64)
    control = np.where(served == n, n, 0) if coded else served
    if events is not None:
        _bs_events(events, rounds[0], coded, int(served[0]), int(bs_tx[0]),
                   bounds, sim)
    return delivery, via_broadcast, bs_tx, np.zeros_like(bs_tx), control


# Each scheme's runner, in stream order: the studies key a BS scheme's
# later-rounds stream by its position here.
SCHEME_RUNNERS = dict.fromkeys(("clustering", "benchmark", "rnc"), run_epochs)


def write_event_log(path, events: list[Event]) -> None:
    """Serialize events as CSV:
    time,actor,event_kind,packet_id,cluster_id,collided (collided 0 or 1)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "actor", "event_kind", "packet_id",
                         "cluster_id", "collided"])
        for e in events:
            writer.writerow([f"{e.time_ms:.17g}", e.actor, e.kind.value,
                             e.packet_id, e.cluster_id, int(e.collided)])
