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
    `rnc_generation_size` coded receptions to decode the generation, and a
    single terminal ACK round closes the epoch.

Per-cluster channels are isolated from each other and from the BS downlink.
Collided frames occupy the channel and are lost; frame headers are assumed
short enough that any non-collided frame is always decodable, so request
and reply suppression never fails.  Data receptions are decided by drawing
Rayleigh fading against the SNR threshold.

Every scheme's first BS broadcast ends at packet_len_ms, and none is sent
when that is past max_time_ms.  Clustering is event-driven after it:
contention, replies and receptions are drawn as they happen (`_recover`).
The two BS schemes are not: fading is independent from round to round, so
each member's completion round is drawn at once (`channel.round_model`),
and the round times, the time budget, the counters and the event log
follow from those counts (`_bs_delivery`, `_bs_rounds`).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    LinkKind,
    RadioParams,
    link_model,
    mean_received_power,
    round_model,
)
from .errors import IntegrityError, ParameterError, check_field_values
from .geometry import Topology

PACKET_ID = 0  # single-packet epochs; RNC events carry coded-packet indices


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
class MediumState:
    """Busy horizon of one shared channel; transmissions must serialize."""

    busy_until_ms: float = 0.0

    def occupy(self, start_ms: float, end_ms: float) -> None:
        if start_ms < self.busy_until_ms - 1e-9:
            raise IntegrityError(
                f"channel occupied at {start_ms} ms until {self.busy_until_ms} ms")
        self.busy_until_ms = end_ms


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


class _EpochLog:
    """Collects events when enabled; appends are cheap no-ops otherwise."""

    def __init__(self, enabled: bool):
        self.events: list[Event] | None = [] if enabled else None

    def add(self, *args, **kwargs) -> None:
        if self.events is not None:
            self.events.append(Event(*args, **kwargs))

    def finish(self) -> list[Event] | None:
        if self.events is None:
            return None
        return sorted(self.events, key=lambda e: e.time_ms)


def _contend(contenders, cw, medium, t, airtime_ms, sim, rng, log, kind,
             cluster_id, packet_id, counters, counter_key):
    """Run one backoff contention until a frame of `airtime_ms` gets through.

    Every contender draws a uniform slot from its own window and counts
    down; the earliest transmits.  Ties collide: the frames burn the
    airtime, the colliders double their windows and redraw, while everyone
    else freezes its residual count during the burst and resumes after it
    (802.11-style).  `cw` holds every member's contention window and is
    updated in place.  Returns (winner, end time), or (None, t) once the next
    attempt would run past max_time_ms.
    """
    residual = {u: int(rng.integers(0, cw[u])) for u in contenders}
    while True:
        slot = min(residual.values())
        winners = [u for u in contenders if residual[u] == slot]
        start = t + slot * sim.slot_ms
        end = start + airtime_ms
        if end > sim.max_time_ms:
            return None, t
        medium.occupy(start, end)
        counters[counter_key] += len(winners)
        collided = len(winners) > 1
        if log.events is not None:
            for u in winners:
                log.add(start, EventKind.BACKOFF_EXPIRY, u, packet_id, cluster_id)
                log.add(end, kind, u, packet_id, cluster_id, collided)
        if not collided:
            cw[winners[0]] = sim.cw_min
            return winners[0], end
        for u in contenders:
            if residual[u] == slot:
                cw[u] = min(cw[u] * 2, sim.cw_max)
                residual[u] = int(rng.integers(0, cw[u]))
            else:
                residual[u] -= slot
        t = end


def run_clustering_scheme(topology: Topology, radio: RadioParams,
                          sim: SimParams, rng: np.random.Generator, *,
                          collect_events: bool = False,
                          broadcast_success=None,
                          peer_success=None) -> SchemeOutcome:
    """One epoch of the clustering recovery scheme.

    `broadcast_success` and `peer_success` are (power, rng) -> bool array
    hooks that receive the mean received power p_tx * gain (mW) of each
    listener, one entry per listener; tests inject deterministic links
    through them.  The BS broadcast ends at packet_len_ms; when that is
    past max_time_ms it is not sent, so nothing is drawn and no member is
    served.  Otherwise the BS link's powers are computed once per epoch
    and recovery follows (`_recover`).
    """
    if broadcast_success is None:
        broadcast_success = link_model(radio)
    if peer_success is None:
        peer_success = link_model(radio)
    n = topology.n_uavs
    log = _EpochLog(collect_events)
    got = np.zeros(n, dtype=bool)
    bs_tx = 0
    if sim.packet_len_ms <= sim.max_time_ms:
        bs_tx = 1
        log.add(sim.packet_len_ms, EventKind.BS_BROADCAST_END, -1, PACKET_ID,
                -1)
        if n:
            p_bs = mean_received_power(LinkKind.BS_TO_UAV,
                                       topology.bs_distances(), radio)
            got = np.array(broadcast_success(p_bs, rng), dtype=bool)
    delivery = np.where(got, sim.packet_len_ms, np.nan)
    uav_tx, control = _recover(topology.xy, topology.cluster_bounds, got,
                               delivery, radio, sim, rng, peer_success, log)
    undelivered = np.isnan(delivery)
    return SchemeOutcome(
        scheme="clustering", delivery_time_ms=delivery, undelivered=undelivered,
        via_broadcast=got, cluster_ids=topology.cluster_of,
        bs_transmissions=bs_tx, uav_transmissions=uav_tx,
        control_messages=control, events=log.finish())


def _recover(xy: np.ndarray, bounds, got: np.ndarray, delivery: np.ndarray,
             radio: RadioParams, sim: SimParams, rng: np.random.Generator,
             peer_success, log: _EpochLog) -> tuple[int, int]:
    """In-cluster recovery after a BS broadcast ending at packet_len_ms
    that served the members `got` marks.

    Members are the rows of `xy`, cluster c holding rows `bounds[c]` to
    `bounds[c + 1]`.  Each recovered member's delivery time is written
    into `delivery`; members never served keep theirs.  A cluster draws
    only if it has a member that missed the broadcast and one that holds
    it; the peer link's powers are computed once per such cluster.
    Cluster channels run independently, so recovery timelines overlap
    across clusters while staying serialized within each cluster.
    Returns (uav transmissions, control messages).
    """
    counters = {"uav": 0, "control": 0}
    cw = [sim.cw_min] * len(got)
    t_bcast = sim.packet_len_ms
    got_list = got.tolist()
    for cid in range(len(bounds) - 1):
        first, end = bounds[cid], bounds[cid + 1]
        missing = [u for u in range(first, end) if not got_list[u]]
        if not missing:
            continue
        holders = [u for u in range(first, end) if got_list[u]]
        if not holders:
            continue
        # Listeners are always among the members that missed the broadcast
        # (rows, sorted); any member can reply (columns, from row `first`).
        need = np.array(missing)
        dx = xy[need, 0][:, None] - xy[first:end, 0]
        dy = xy[need, 1][:, None] - xy[first:end, 1]
        peer_power = mean_received_power(LinkKind.UAV_TO_UAV,
                                         np.hypot(dx, dy), radio)
        medium = MediumState()
        t = t_bcast
        while missing:
            requester, t = _contend(sorted(missing), cw, medium, t,
                                    sim.t_req_ms, sim, rng, log,
                                    EventKind.REQUEST_TX_END, cid, PACKET_ID,
                                    counters, "control")
            if requester is None:
                break
            replier, t = _contend(sorted(holders), cw, medium, t,
                                  sim.packet_len_ms, sim, rng, log,
                                  EventKind.REPLY_TX_END, cid, PACKET_ID,
                                  counters, "uav")
            if replier is None:
                break
            listeners = (sorted(missing) if sim.opportunistic_caching
                         else [requester])
            ok = peer_success(
                peer_power[np.searchsorted(need, listeners), replier - first],
                rng)
            for u, success in zip(listeners, ok):
                if success:
                    delivery[u] = t
                    missing.remove(u)
                    holders.append(u)
    return counters["uav"], counters["control"]


def _bs_generation(scheme: str, sim: SimParams) -> tuple[bool, int]:
    """(coded, receptions a member needs) of a BS retransmission scheme:
    the benchmark repeats packet 0, RNC streams a coded generation."""
    if scheme == "rnc":
        return True, sim.rnc_generation_size
    return False, 1


def _bs_delivery(rounds: np.ndarray, coded: bool, sim: SimParams):
    """The BS timeline of members completing in `rounds` (float array, inf
    for never): (rounds capped at the budget, delivery time or NaN,
    via_broadcast).

    Round k ends at k * packet_len_ms, plus t_ack_ms for each member served
    in an earlier round when uncoded, and a round runs only if its end fits
    in max_time_ms.  So a member is delivered when its completion round
    ends within the budget.  Times are computed from these products, not
    accumulated round by round.  `via_broadcast` marks members served in
    round 1 when uncoded, every delivered member when coded.
    """
    length, budget = sim.packet_len_ms, sim.max_time_ms
    # A round past budget / length never runs; the cap keeps the end times
    # finite for rounds that large.
    rounds = np.minimum(rounds, budget / length + 2.0)
    if coded:
        end = rounds * length
    else:
        # Members served before round k ACK ahead of its broadcast.
        before = np.searchsorted(np.sort(rounds), rounds)
        end = rounds * length + sim.t_ack_ms * before
    delivered = end <= budget
    via_broadcast = delivered if coded else delivered & (rounds == 1.0)
    return rounds, np.where(delivered, end, np.nan), via_broadcast


def _bs_rounds(scheme: str, coded: bool, g: int, topology: Topology,
               radio: RadioParams, sim: SimParams, rng: np.random.Generator,
               collect_events: bool, broadcast_rounds) -> SchemeOutcome:
    """BS broadcast rounds until every member holds `g` receptions.

    Uncoded (`coded=False`): every round carries packet 0 and the members
    served in it ACK right after it, serialized on the uplink, in row
    order.  Coded: round k carries coded packet k - 1, and one terminal
    ACK per member follows once all have decoded.

    No round is simulated.  `broadcast_rounds` is a (power, g, rng) -> float
    array hook over the mean received powers p_tx * gain (mW) of all
    members, in row order, giving the round in which each member completes
    (inf for never); it is called once, unless no round fits the budget.
    The timeline follows from those counts (`_bs_delivery`).
    """
    if broadcast_rounds is None:
        broadcast_rounds = round_model(radio)
    cluster_of = topology.cluster_of
    n = topology.n_uavs
    length, t_ack, budget = sim.packet_len_ms, sim.t_ack_ms, sim.max_time_ms
    if n and length <= budget:
        p_bs = mean_received_power(LinkKind.BS_TO_UAV,
                                   topology.bs_distances(), radio)
        rounds = broadcast_rounds(p_bs, g, rng)
    else:
        rounds = np.full(n, np.inf)
    rounds, delivery, via_broadcast = _bs_delivery(rounds, coded, sim)
    delivered = ~np.isnan(delivery)
    served = int(np.count_nonzero(delivered))
    if served == n:
        bs_tx = int(rounds.max()) if n else 0
    else:
        # After the last delivery, rounds run for as long as they fit.
        last = int(rounds[delivered].max()) if served else 0
        acked = 0 if coded else served
        bs_tx = max(last, math.floor((budget - t_ack * acked) / length))
    control = (n if served == n else 0) if coded else served

    log = _EpochLog(collect_events)
    if log.events is not None:
        # In row order within a round, as the ACKs go out.
        order = np.argsort(rounds, kind="stable")[:served].tolist()
        done = 0
        for k in range(1, bs_tx + 1):
            t = k * length + (0.0 if coded else t_ack * done)
            log.add(t, EventKind.BS_BROADCAST_END, -1,
                    k - 1 if coded else PACKET_ID, -1)
            while not coded and done < served and rounds[order[done]] == k:
                u = order[done]
                done += 1
                log.add(k * length + t_ack * done, EventKind.ACK_RX_END, u,
                        PACKET_ID, int(cluster_of[u]))
        if coded and control:
            for u in range(n):
                log.add(bs_tx * length + t_ack * (u + 1),
                        EventKind.ACK_RX_END, u, PACKET_ID,
                        int(cluster_of[u]))
    return SchemeOutcome(
        scheme=scheme, delivery_time_ms=delivery, undelivered=~delivered,
        via_broadcast=via_broadcast, cluster_ids=cluster_of,
        bs_transmissions=bs_tx, uav_transmissions=0,
        control_messages=control, events=log.finish())


def run_ack_benchmark(topology: Topology, radio: RadioParams, sim: SimParams,
                      rng: np.random.Generator, *,
                      collect_events: bool = False,
                      broadcast_rounds=None) -> SchemeOutcome:
    """One epoch of the retransmission benchmark.

    The BS repeats the broadcast until all members are served (or time runs
    out); after each round the newly served members send one ACK each,
    serialized on the uplink.  `broadcast_rounds` (default
    `round_model(radio)`) draws each member's serving round; see
    `_bs_rounds`.
    """
    return _bs_rounds("benchmark", *_bs_generation("benchmark", sim),
                      topology, radio, sim, rng, collect_events,
                      broadcast_rounds)


def run_rnc_scheme(topology: Topology, radio: RadioParams, sim: SimParams,
                   rng: np.random.Generator, *,
                   collect_events: bool = False,
                   broadcast_rounds=None) -> SchemeOutcome:
    """One epoch of the random-network-coding baseline.

    The BS streams coded packets; any `rnc_generation_size` receptions let a
    member decode the whole generation (large-field assumption, so every
    received coded packet is innovative).  `delivery_time_ms` records the
    decode instant of the generation; per-packet figures subtract the
    streaming amortization (generation_size - 1) * packet_len_ms downstream.
    One terminal ACK per member closes a completed epoch.
    `broadcast_rounds` (default `round_model(radio)`) draws each member's
    decoding round; see `_bs_rounds`.
    """
    return _bs_rounds("rnc", *_bs_generation("rnc", sim), topology, radio,
                      sim, rng, collect_events, broadcast_rounds)


SCHEME_RUNNERS = {
    "clustering": run_clustering_scheme,
    "benchmark": run_ack_benchmark,
    "rnc": run_rnc_scheme,
}


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
