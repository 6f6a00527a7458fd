"""Clustering recovery against a reference written from its rules alone.

`_reference_epoch` runs one clustering epoch in plain Python, cluster by
cluster and member by member, from the rules that the `protocol` module
docstring, `_attempt` and `_recover` state; it shares no code with
`protocol._recover` but the channel law.  It reads the uniforms of cell
(epoch, cluster) block by block through the `draw(epoch, cluster, b, out)`
interface that `run_epochs` calls, so the two can be held to each other
bit for bit: differential testing (McKeeman, "Differential Testing for
Software", Digital Technical Journal 10(1), 1998).
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cell_draw, fixed_drops
from uavcast.channel import (
    LinkKind,
    RadioParams,
    decode_probability,
    mean_received_power,
)
from uavcast.config import ScenarioConfig
from uavcast.protocol import PACKET_ID, Event, EventKind, SimParams, run_epochs

RADIO = RadioParams.defaults()
ROWS = 4  # rows of one block of a cell's uniforms


def _reference_epoch(xy, bounds, first, sim, draw, chance, e=0):
    """Clustering epoch e of a batch: member points `xy` (n, 2), cluster c
    holding members `bounds[c]` to `bounds[c + 1]`, round 1 having served
    the members `first` marks.  `chance(power)` is a listener's chance to
    decode a reply at mean received power `power`.  Returns (delivery
    times, requests, replies, events).

    No frame is sent, not even the broadcast, and no member is served
    when one packet exceeds max_time_ms.  Otherwise the broadcast ends at packet_len_ms, serving
    `first`, and every cluster with a holder and a missing member (a cell)
    recovers on a channel of its own.  Each attempt:

    - the contenders are the missing members in the request phase, the
      holders in the reply phase;
    - when a contention starts (first attempt, or after a clean frame)
      each contender draws its count floor(u * cw) from column 0 of the
      attempt's row of uniforms;
    - the lowest count among the contenders sends after that many slots;
      several at once collide;
    - a lone sender's window returns to cw_min; colliders double theirs,
      up to cw_max, and redraw from column 1; everyone else freezes,
      counting down by the slots that passed;
    - the frame starts at t + slots * slot_ms and ends after its airtime
      (t_req_ms for a request, packet_len_ms for a reply); a frame that
      would end past max_time_ms is not sent, and the cell ends there;
    - a clean request opens the reply phase; a clean reply reaches each
      listener (every missing member with opportunistic caching, else the
      requester) when column 1 is below `chance` of its mean received
      power from the replier, and the request phase starts again;
    - the cell ends when none of its members misses the packet.

    The attempt i of a cell reads row i mod ROWS of its block i // ROWS,
    one entry per member of the cluster, the block being (ROWS, 2, S) for
    the drop's largest cluster S.
    """
    if sim.packet_len_ms > sim.max_time_ms:
        return [math.nan] * len(first), 0, 0, []
    delivery = [sim.packet_len_ms if f else math.nan for f in first]
    frames = [0, 0]  # requests, replies
    events = []
    events.append(Event(sim.packet_len_ms, EventKind.BS_BROADCAST_END, -1,
                        PACKET_ID, -1))
    largest = max((b - a for a, b in zip(bounds, bounds[1:])), default=0)
    for c, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        has = [bool(first[u]) for u in range(lo, hi)]
        if all(has) or not any(has):
            continue
        size = hi - lo
        cw = [float(sim.cw_min)] * size
        count = [0.0] * size
        t, replying, fresh, asker = sim.packet_len_ms, False, True, None
        attempt = 0
        while True:
            if attempt % ROWS == 0:
                block = np.empty((1, ROWS, 2, largest))
                draw(np.array([e]), np.array([c]), attempt // ROWS, block)
            u = block[0, attempt % ROWS].tolist()
            attempt += 1
            contenders = [s for s in range(size) if has[s] == replying]
            if fresh:
                for s in contenders:
                    count[s] = math.floor(u[0][s] * cw[s])
            slots = min(count[s] for s in contenders)
            sent = [s for s in contenders if count[s] == slots]
            collided = len(sent) > 1
            for s in contenders:
                count[s] -= slots
            for s in sent:
                cw[s] = (min(2.0 * cw[s], sim.cw_max) if collided
                         else float(sim.cw_min))
                if collided:
                    count[s] = math.floor(u[1][s] * cw[s])
            start = t + slots * sim.slot_ms
            t = start + (sim.packet_len_ms if replying else sim.t_req_ms)
            if t > sim.max_time_ms:
                break
            frames[replying] += len(sent)
            kind = (EventKind.REPLY_TX_END if replying
                    else EventKind.REQUEST_TX_END)
            for s in sent:
                events.append(Event(start, EventKind.BACKOFF_EXPIRY, lo + s,
                                    PACKET_ID, c))
                events.append(Event(t, kind, lo + s, PACKET_ID, c, collided))
            fresh = not collided
            if collided:
                continue
            if not replying:
                asker, replying = sent[0], True
                continue
            replier = lo + sent[0]
            listeners = ([s for s in range(size) if not has[s]]
                         if sim.opportunistic_caching else [asker])
            for s in listeners:
                dx, dy = (xy[lo + s] - xy[replier]).tolist()
                power = mean_received_power(LinkKind.UAV_TO_UAV,
                                            np.hypot(dx, dy), RADIO)
                if u[1][s] < chance(power):
                    has[s] = True
                    delivery[lo + s] = t
            replying = False
            if all(has):
                break
    return delivery, frames[0], frames[1], events


def _event_key(event):
    return (event.time_ms, event.cluster_id, event.actor, event.kind.value,
            event.collided)


@given(seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["fixed_total", "density"]),
       num_clusters=st.integers(1, 10), total_uavs=st.integers(2, 60),
       epochs=st.sampled_from([1, 1, 2, 7]),
       served=st.floats(0.05, 0.95),
       chance=st.sampled_from([None, None, 1.0, 0.7, 0.2]),
       max_time_ms=st.sampled_from([5.0, 10.5, 25.0, 40.0, 100.0, 400.0,
                                    10_000.0, 10_000.0, 10_000.0]),
       caching=st.booleans(),
       window=st.sampled_from([(16, 64), (16, 16), (1, 4), (2, 1024)]),
       t_req_ms=st.sampled_from([1.0, 0.0]))
@example(seed=1, mode="fixed_total", num_clusters=1, total_uavs=20, epochs=1,
         served=0.2, chance=0.2, max_time_ms=10_000.0, caching=False,
         window=(16, 64), t_req_ms=1.0)  # cells outlast a block
@settings(max_examples=300, deadline=None)
def test_recovery_matches_the_reference(seed, mode, num_clusters, total_uavs,
                                        epochs, served, chance, max_time_ms,
                                        caching, window, t_req_ms):
    """`run_epochs` gives every epoch of a clustering batch the reference's
    delivery times and request and reply counts, bit for bit, and a batch
    of one its event log too (the same events with the same fields, the
    log's order among equal times aside): in both drop modes, with 1 to
    10 clusters, budgets from below one packet to 10 s, caching on and
    off, the default peer law or a scripted chance, and several
    contention windows."""
    config = ScenarioConfig(mode=mode, num_clusters=min(num_clusters,
                                                        total_uavs),
                            total_uavs=total_uavs, lambda_per_m2=1e-4,
                            base_seed=seed)
    sim = SimParams(max_time_ms=max_time_ms, opportunistic_caching=caching,
                    cw_min=window[0], cw_max=window[1], t_req_ms=t_req_ms)
    rng = np.random.default_rng(seed)
    xy, bounds = fixed_drops(config, epochs, rng)
    first = rng.random(xy.shape[:2]) < served
    peer = (None if chance is None
            else lambda power: np.full(np.shape(power), chance))

    def law(power):
        return (decode_probability(power, RADIO) if peer is None
                else float(peer(power)))

    draw, events = cell_draw(seed), [] if epochs == 1 else None
    delivery, via_broadcast, bs_tx, replies, requests = run_epochs(
        "clustering", xy, bounds, first, RADIO, sim, draw, events, peer)
    for e in range(epochs):
        ref = _reference_epoch(xy[e], bounds, first[e], sim, draw, law, e)
        assert delivery[e].tobytes() == np.array(ref[0]).tobytes(), e
        assert (int(requests[e]), int(replies[e])) == ref[1:3], e
        assert bs_tx[e] == (sim.packet_len_ms <= max_time_ms)
        if events is not None:
            assert sorted(events, key=_event_key) == sorted(ref[3],
                                                            key=_event_key)
