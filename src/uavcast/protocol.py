"""Event-driven simulation of one multicast packet epoch under three schemes.

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
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np

from .channel import LinkKind, RadioParams, mean_received_power
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


def _link_model(radio: RadioParams):
    """Default reception hook: one Rayleigh fading draw per listener.

    `power` holds each listener's mean received power p_tx * gain (mW).
    The product is taken in `channel.snr`'s order, (p_tx * gain) * fading,
    so the decisions equal `channel.reception_success`'s bit for bit.
    """
    noise, threshold = radio.noise_power_mw, radio.snr_threshold

    def model(power: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return (power * rng.exponential(1.0, power.shape)) / noise > threshold
    return model


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
    through them.  The BS link's powers are computed once per epoch and
    the peer link's once per recovering cluster.  Cluster channels run
    independently, so recovery timelines overlap across clusters while
    staying serialized within each cluster.
    """
    if broadcast_success is None:
        broadcast_success = _link_model(radio)
    if peer_success is None:
        peer_success = _link_model(radio)
    xy, cluster_of = topology.xy, topology.cluster_of
    n = topology.n_uavs
    log = _EpochLog(collect_events)
    delivery = np.full(n, np.nan)
    undelivered = np.zeros(n, dtype=bool)
    via_broadcast = np.zeros(n, dtype=bool)
    counters = {"bs": 0, "uav": 0, "control": 0}
    cw = [sim.cw_min] * n

    counters["bs"] += 1
    t_bcast = sim.packet_len_ms
    log.add(t_bcast, EventKind.BS_BROADCAST_END, -1, PACKET_ID, -1)
    p_bs = mean_received_power(LinkKind.BS_TO_UAV, topology.bs_distances(),
                               radio)
    got = broadcast_success(p_bs, rng) if n else np.zeros(0, dtype=bool)
    delivery[got] = t_bcast
    via_broadcast[got] = True

    bounds = topology.cluster_bounds
    got_list = got.tolist()
    for cid in range(topology.n_clusters):
        first, end = bounds[cid], bounds[cid + 1]
        missing = [u for u in range(first, end) if not got_list[u]]
        if not missing:
            continue
        holders = [u for u in range(first, end) if got_list[u]]
        if not holders:
            undelivered[missing] = True
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
        if missing:
            undelivered[missing] = True

    return SchemeOutcome(
        scheme="clustering", delivery_time_ms=delivery, undelivered=undelivered,
        via_broadcast=via_broadcast, cluster_ids=cluster_of,
        bs_transmissions=counters["bs"], uav_transmissions=counters["uav"],
        control_messages=counters["control"], events=log.finish())


def _bs_rounds(scheme: str, coded: bool, g: int, topology: Topology,
               radio: RadioParams, sim: SimParams, rng: np.random.Generator,
               collect_events: bool, broadcast_success) -> SchemeOutcome:
    """BS broadcast rounds until every member holds `g` receptions.

    Uncoded (`coded=False`): every round carries packet 0 and the members
    served in it ACK right after it, serialized on the uplink;
    `via_broadcast` marks members served in round 1.  Coded: round k carries
    coded packet k, and one terminal ACK per member follows once all have
    decoded; `via_broadcast` marks decoded members.  `broadcast_success`
    is a (power, rng) -> bool array hook over the mean received powers
    p_tx * gain (mW) of the members still short of `g`, in row order.  The
    powers are computed once per epoch; the active rows and their powers
    are gathered again only in a round where some member completes.
    """
    if broadcast_success is None:
        broadcast_success = _link_model(radio)
    cluster_of = topology.cluster_of
    p_bs = mean_received_power(LinkKind.BS_TO_UAV, topology.bs_distances(),
                               radio)
    n = topology.n_uavs
    log = _EpochLog(collect_events)
    delivery = np.full(n, np.nan)
    via_broadcast = np.zeros(n, dtype=bool)
    received = np.zeros(n, dtype=int)
    bs_tx = control = 0
    t = 0.0

    def acks(members):
        nonlocal t, control
        control += len(members)
        for u in members:
            t += sim.t_ack_ms
            if log.events is not None:
                log.add(t, EventKind.ACK_RX_END, int(u), PACKET_ID,
                        int(cluster_of[u]))

    # The members still short of `g` and their powers; both shrink only
    # when a member completes.
    active, active_power = np.arange(n), p_bs
    while active.size and t + sim.packet_len_ms <= sim.max_time_ms:
        packet_id = bs_tx if coded else PACKET_ID
        bs_tx += 1
        t += sim.packet_len_ms
        log.add(t, EventKind.BS_BROADCAST_END, -1, packet_id, -1)
        hit = active[broadcast_success(active_power, rng)]
        received[hit] += 1
        done = hit[received[hit] == g]
        if done.size:
            delivery[done] = t
            via_broadcast[done] = coded or bs_tx == 1
            keep = received[active] < g
            active, active_power = active[keep], active_power[keep]
            if not coded:
                acks(done)
    undelivered = received < g
    if coded and not undelivered.any():
        acks(range(n))
    return SchemeOutcome(
        scheme=scheme, delivery_time_ms=delivery, undelivered=undelivered,
        via_broadcast=via_broadcast, cluster_ids=cluster_of,
        bs_transmissions=bs_tx, uav_transmissions=0,
        control_messages=control, events=log.finish())


def _first_round_served(topology: Topology, radio: RadioParams,
                        sim: SimParams, rng: np.random.Generator,
                        broadcast_success) -> int:
    """Members served by round 1 of `_bs_rounds` with g = 1, drawn as it
    draws them: `count_nonzero(run_ack_benchmark(...).via_broadcast)`
    without the later rounds and ACKs.  No round runs, so none is served,
    when the drop is empty or one packet exceeds the time budget."""
    if not topology.n_uavs or sim.packet_len_ms > sim.max_time_ms:
        return 0
    p_bs = mean_received_power(LinkKind.BS_TO_UAV, topology.bs_distances(),
                               radio)
    return int(np.count_nonzero(broadcast_success(p_bs, rng)))


def run_ack_benchmark(topology: Topology, radio: RadioParams, sim: SimParams,
                      rng: np.random.Generator, *,
                      collect_events: bool = False,
                      broadcast_success=None) -> SchemeOutcome:
    """One epoch of the retransmission benchmark.

    The BS repeats the broadcast until all members are served (or time runs
    out); after each round the newly served members send one ACK each,
    serialized on the uplink.
    """
    return _bs_rounds("benchmark", False, 1, topology, radio, sim, rng,
                      collect_events, broadcast_success)


def run_rnc_scheme(topology: Topology, radio: RadioParams, sim: SimParams,
                   rng: np.random.Generator, *,
                   collect_events: bool = False,
                   broadcast_success=None) -> SchemeOutcome:
    """One epoch of the random-network-coding baseline.

    The BS streams coded packets; any `rnc_generation_size` receptions let a
    member decode the whole generation (large-field assumption, so every
    received coded packet is innovative).  `delivery_time_ms` records the
    decode instant of the generation; per-packet figures subtract the
    streaming amortization (generation_size - 1) * packet_len_ms downstream.
    One terminal ACK per member closes a completed epoch.
    """
    return _bs_rounds("rnc", True, sim.rnc_generation_size, topology, radio,
                      sim, rng, collect_events, broadcast_success)


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
