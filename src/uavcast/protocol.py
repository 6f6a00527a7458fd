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
one drop shape from each member's round-1 outcome; the studies call it on
batches of drops, and `run_epoch`, each scheme's entry of
`SCHEME_RUNNERS`, on a batch of one epoch, which alone records the event
log.  Clustering recovery runs in
lock-step over arrays (`_recover`): every (epoch, cluster) cell that needs
recovery makes one channel attempt per iteration (`_attempt`), so a batch
of epochs recovers in the iterations its slowest cluster needs.  The two
BS schemes simulate no rounds: fading is independent from round to round,
so each member's completion round is drawn at once
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

import numpy as np

from .channel import (
    LinkKind,
    RadioParams,
    decode_probability,
    mean_received_power,
)
from .errors import ParameterError, check_field_values

PACKET_ID = 0  # single-packet epochs; RNC events carry coded-packet indices
# Rows of one block of recovery uniforms (`_recover`): an epoch reads one
# row per lock-step iteration and draws its next block after this many.
_BLOCK_ROWS = 16


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

    @property
    def n_uavs(self) -> int:
        return int(self.delivery_time_ms.size)

    @property
    def delivered(self) -> np.ndarray:
        return ~self.undelivered


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


def _recover(xy: np.ndarray, bounds, got: np.ndarray, delivery: np.ndarray,
             radio: RadioParams, sim: SimParams, draw, events: list | None,
             peer_probability=None) -> tuple[np.ndarray, np.ndarray]:
    """In-cluster recovery in m epochs of one drop shape, after a BS
    broadcast ending at packet_len_ms that served the members `got` marks.

    `xy` is (m, n, 2), `got` and `delivery` (m, n); cluster c holds members
    `bounds[c]` to `bounds[c + 1]` of every epoch.  Each recovered member's
    delivery time is written into `delivery`.  A cell is one (epoch,
    cluster) pair with a member that missed the broadcast and one that
    holds it.  Cells share no channel, so they run side by side, each
    serialized on its own.  Members sit in a padded (cells x largest
    cluster) layout.

    All cells advance in lock-step, one channel attempt per iteration
    (`_attempt`).  Missing members contend to send a request; after a clean
    one, holders contend to send the reply.  A clean reply reaches each
    listener (every missing member with opportunistic caching, else the
    requester) with the chance `peer_probability` gives its mean received
    power from the replier (by default `decode_probability`); a member that
    gets it holds it from then on.  A cell ends once none of its members
    misses the packet, or when its next frame would end past max_time_ms.
    Finished cells are compacted away.

    Randomness: before iteration 0 and every _BLOCK_ROWS iterations, each
    epoch with live cells fills their blocks of uniforms, shape (its live
    cells, _BLOCK_ROWS, 2, largest cluster), in one `draw(e, out)` call.
    Iteration i reads row i mod _BLOCK_ROWS of a cell's block: column 0
    gives its slots' fresh backoffs, column 1 a collider's redraw or a
    listener's reception (u < chance).  So an epoch's draws depend on its
    own cells only, not on the other epochs of the batch.  `events`, when
    a list, gets the events of a batch of one epoch.  Returns per-epoch (uav
    transmissions, control messages), collided frames included.
    """
    if peer_probability is None:
        peer_probability = functools.partial(decode_probability, radio=radio)
    m, n = got.shape
    frames = np.zeros((m, 2), dtype=np.int64)  # request, reply
    if not n:
        return frames[:, 1], frames[:, 0]
    first, size = np.asarray(bounds[:-1]), np.diff(bounds)
    slots = np.arange(size.max())
    valid = slots < size[:, None]
    # Padding slots point at a real member but are never contenders or
    # listeners.
    member = np.minimum(first[:, None] + slots, n - 1)
    held = got[:, member] & valid
    lost = valid & ~got[:, member]
    epoch, cluster = np.nonzero(held.any(axis=2) & lost.any(axis=2))
    if not epoch.size:
        return frames[:, 1], frames[:, 0]
    held, lost = held[epoch, cluster], lost[epoch, cluster]
    member = member[cluster]
    blocks = np.empty((epoch.size, _BLOCK_ROWS, 2, slots.size))
    t = np.full(epoch.size, sim.packet_len_ms)
    cw = np.full(held.shape, float(sim.cw_min))
    residual = np.zeros(held.shape)
    reply = np.zeros(epoch.size, dtype=bool)
    fresh = np.ones(epoch.size, dtype=bool)
    asker = np.zeros(epoch.size, dtype=np.intp)
    airtime = np.array([sim.t_req_ms, sim.packet_len_ms])
    kinds = (EventKind.REQUEST_TX_END, EventKind.REPLY_TX_END)
    for i in itertools.count():
        if not i % _BLOCK_ROWS:
            block_of = np.arange(epoch.size)
            runs = np.flatnonzero(np.diff(epoch, prepend=-1)).tolist()
            for a, b in zip(runs, [*runs[1:], epoch.size]):
                draw(int(epoch[a]), blocks[a:b])
        u = blocks[block_of, i % _BLOCK_ROWS]
        phase = reply.astype(np.intp)
        slot, sent, n_sent = _attempt(np.where(reply[:, None], held, lost),
                                      residual, cw, fresh, u[:, 0],
                                      u[:, 1], sim)
        start = t + slot * sim.slot_ms
        t = start + airtime[phase]
        fits = t <= sim.max_time_ms
        np.add.at(frames, (epoch, phase), np.where(fits, n_sent, 0))
        if events is not None:
            for c in np.flatnonzero(fits).tolist():
                for s in np.flatnonzero(sent[c]).tolist():
                    actor, cid = int(member[c, s]), int(cluster[c])
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
            listens = (lost[answered] if sim.opportunistic_caching
                       else slots == asker[answered, None])
            at = xy[epoch[answered, None], member[answered]]
            d = at - at[np.arange(answered.size), winner[answered], None]
            power = mean_received_power(LinkKind.UAV_TO_UAV,
                                        np.hypot(d[..., 0], d[..., 1]), radio)
            heard = listens & (u[answered, 1] < peer_probability(power))
            cells, s = np.nonzero(heard)
            cells = answered[cells]
            delivery[epoch[cells], member[cells, s]] = t[cells]
            lost[answered] &= ~heard
            held[answered] |= heard
        reply ^= clean
        fresh = clean
        keep = fits & lost.any(axis=1)
        if not keep.all():
            keep = np.flatnonzero(keep)
            if not keep.size:
                break
            (epoch, cluster, block_of, member, held, lost, cw, residual, t,
             reply, fresh, asker) = (
                x[keep] for x in (epoch, cluster, block_of, member, held,
                                  lost, cw, residual, t, reply, fresh, asker))
    return frames[:, 1], frames[:, 0]


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
    cluster_of = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
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


def run_epochs(scheme: str, xy: np.ndarray, bounds, first: np.ndarray,
               radio: RadioParams, sim: SimParams, draw,
               events: list | None = None, peer_probability=None):
    """Finish m epochs of `scheme` on drops of one shape.

    `xy` (m, n, 2) holds the member points; cluster c holds members
    `bounds[c]` to `bounds[c + 1]`.  `first` (m, n) is the BS link's
    outcome per member.  For clustering it is a bool mask of the members
    round 1 served (none when a packet exceeds max_time_ms); `_recover`
    goes on from there, drawing each epoch's uniform blocks through
    `draw(e, out)`, which the BS schemes never call, and hearing each
    clean reply with the chance `peer_probability` gives (by default
    `decode_probability`).  For the BS schemes it is the float round in
    which a member completes its receptions, inf for never.  `events`,
    when a list, gets the unsorted events of a batch of one epoch.

    Returns (delivery, via_broadcast), each (m, n), delivery NaN where
    undelivered, and per-epoch (bs_transmissions, uav_transmissions,
    control_messages), each (m,).  Clustering sends its broadcast whenever
    a packet fits the budget, even to an empty drop (bs_transmissions 1).
    A BS scheme sends rounds up to the last delivery and, when a member is
    never served, every round that fits: floor((max_time_ms - t_ack_ms *
    ACKs) / packet_len_ms), with no ACKs when coded.  An empty drop needs
    no BS round (bs_transmissions 0).
    """
    if scheme not in SCHEME_RUNNERS:
        raise ParameterError(
            f"scheme: unknown scheme {scheme!r}, expected one of "
            f"{sorted(SCHEME_RUNNERS)}")
    m, n = first.shape
    if scheme == "clustering":
        delivery = np.where(first, sim.packet_len_ms, np.nan)
        fits = sim.packet_len_ms <= sim.max_time_ms
        if events is not None and fits:
            events.append(Event(sim.packet_len_ms, EventKind.BS_BROADCAST_END,
                                -1, PACKET_ID, -1))
        uav_tx, control = _recover(xy, bounds, first, delivery, radio, sim,
                                   draw, events, peer_probability)
        return delivery, first, np.full(m, int(fits)), uav_tx, control
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


def run_epoch(scheme: str, xy: np.ndarray, bounds, first: np.ndarray,
              radio: RadioParams, sim: SimParams, draw,
              collect_events: bool = False) -> SchemeOutcome:
    """One epoch of `scheme`: `run_epochs` on a batch of one drop, `xy`
    (1, n, 2) and `first` (1, n), as a `SchemeOutcome` whose events, when
    `collect_events`, are sorted by time."""
    events = [] if collect_events else None
    delivery, via_broadcast, bs_tx, uav_tx, control = run_epochs(
        scheme, xy, bounds, first, radio, sim, draw, events)
    if events is not None:
        events.sort(key=lambda e: e.time_ms)
    return SchemeOutcome(
        scheme=scheme, delivery_time_ms=delivery[0],
        undelivered=np.isnan(delivery[0]), via_broadcast=via_broadcast[0],
        cluster_ids=np.repeat(np.arange(len(bounds) - 1), np.diff(bounds)),
        bs_transmissions=int(bs_tx[0]), uav_transmissions=int(uav_tx[0]),
        control_messages=int(control[0]), events=events)


# Each scheme's single-epoch runner, in stream order: the studies key a BS
# scheme's later-rounds stream by its position here.
SCHEME_RUNNERS = dict.fromkeys(("clustering", "benchmark", "rnc"), run_epoch)


def write_event_log(path, events: list[Event]) -> None:
    """Serialize events as CSV:
    time,actor,event_kind,packet_id,cluster_id,collided (collided 0 or 1)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "actor", "event_kind", "packet_id",
                         "cluster_id", "collided"])
        for e in events:
            writer.writerow([f"{e.time_ms:.9g}", e.actor, e.kind.value,
                             e.packet_id, e.cluster_id, int(e.collided)])
