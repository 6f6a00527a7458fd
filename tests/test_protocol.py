import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    FOUR_UAVS,
    bernoulli_rounds,
    cell_draw,
    epoch,
    fixed_drops,
    ring,
)
from uavcast.analysis import (
    average_delay,
    coverage_probability,
    transmission_success_probability,
)
from uavcast.channel import (
    LinkKind,
    RadioParams,
    completion_rounds,
    decode_probability,
    decodes,
    mean_received_power,
)
from uavcast.config import ScenarioConfig
from uavcast.errors import ParameterError
from uavcast.experiments import _replicated, replay_drops, replay_epoch
from uavcast.protocol import (
    PACKET_ID,
    SCHEME_RUNNERS,
    Event,
    EventKind,
    SchemeOutcome,
    SimParams,
    _attempt,
    _bs_delivery,
    run_epochs,
    write_event_log,
)

RADIO = RadioParams.defaults()
SIM = SimParams()


def test_sim_params_validation():
    with pytest.raises(ParameterError):
        SimParams(packet_len_ms=0.0)
    with pytest.raises(ParameterError):
        SimParams(t_req_ms=-1.0)
    with pytest.raises(ParameterError):
        SimParams(slot_ms=0.0)
    with pytest.raises(ParameterError):
        SimParams(cw_min=32, cw_max=16)
    with pytest.raises(ParameterError):
        SimParams(cw_min=0)
    with pytest.raises(ParameterError):
        SimParams(max_time_ms=0.0)
    with pytest.raises(ParameterError):
        SimParams(rnc_generation_size=0)
    for name, bad in (("packet_len_ms", math.nan), ("t_req_ms", math.nan),
                      ("t_ack_ms", math.inf), ("slot_ms", math.nan),
                      ("max_time_ms", math.inf)):
        with pytest.raises(ParameterError, match=name):
            SimParams(**{name: bad})


def _contentions(n, sim, trials):
    """Lock-step state of `trials` single-phase cells, each a contention
    among n contenders with fresh cw_min windows."""
    return (np.ones((trials, n), dtype=bool), np.zeros((trials, n)),
            np.full((trials, n), float(sim.cw_min)),
            np.ones(trials, dtype=bool))


@pytest.mark.parametrize("n", [2, 4, 10, 20])
def test_first_contention_round_matches_unique_minimum(n):
    """n contenders draw uniform slots in {0..W-1}; the first frame goes
    through iff the minimum is unique, with probability
    sum_k n (1/W) ((W-1-k)/W)^(n-1)."""
    w, trials = SIM.cw_min, 10_000
    exact = sum(n / w * ((w - 1 - k) / w) ** (n - 1) for k in range(w))
    rng = np.random.default_rng(1000 + n)
    contend, residual, cw, fresh = _contentions(n, SIM, trials)
    u = rng.random((2, trials, n))
    _, _, n_sent = _attempt(contend, residual, cw, fresh, u[0], u[1], SIM)
    clean = np.count_nonzero(n_sent == 1)
    se = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(clean / trials - exact) < 5.0 * se


def test_attempt_doubles_colliders_and_freezes_the_rest():
    """Scripted uniforms through two attempts of one cell.  A slot that
    does not contend is ignored although its count is lowest.  Two
    contenders collide at slot 3, double their windows (64 stays at
    cw_max) and redraw from column 1; the third freezes at 8 - 3 = 5, then
    sends alone and returns to cw_min."""
    contend = np.array([[True, True, True, False]])
    residual = np.zeros((1, 4))
    cw = np.array([[16.0, 64.0, 32.0, 16.0]])
    u_fresh = np.array([[3 / 16, 3 / 64, 8 / 32, 0.0]])
    u_redraw = np.array([[0.5, 0.5, 0.9, 0.9]])
    slot, sent, n_sent = _attempt(contend, residual, cw, np.array([True]),
                                  u_fresh, u_redraw, SIM)
    assert slot.tolist() == [3.0] and n_sent.tolist() == [2]
    assert sent.tolist() == [[True, True, False, False]]
    assert cw.tolist() == [[32.0, 64.0, 32.0, 16.0]]
    assert residual[0, :3].tolist() == [16.0, 32.0, 5.0]
    slot, sent, n_sent = _attempt(contend, residual, cw, np.array([False]),
                                  u_fresh, u_redraw, SIM)
    assert slot.tolist() == [5.0] and n_sent.tolist() == [1]
    assert sent.tolist() == [[False, False, True, False]]
    assert cw.tolist() == [[32.0, 64.0, 16.0, 16.0]]
    assert residual[0, :2].tolist() == [11.0, 27.0]


def _collided_frames_until_clean(n, sim, trials, rng):
    """Collided frames sent before the first clean frame of each of
    `trials` contentions among n contenders with fresh cw_min windows,
    run as one batch of single-phase cells through `_attempt`."""
    contend, residual, cw, fresh = _contentions(n, sim, trials)
    out = np.zeros(trials)
    live = np.arange(trials)
    while live.size:
        u = rng.random((2, live.size, n))
        _, _, n_sent = _attempt(contend[:live.size], residual, cw, fresh,
                                u[0], u[1], sim)
        collided = n_sent > 1
        out[live[collided]] += n_sent[collided]
        live, residual, cw = live[collided], residual[collided], cw[collided]
        fresh = np.zeros(live.size, dtype=bool)
    return out


def _exact_collided_frames(n, sim):
    """E[collided frames before the first clean one] by exact enumeration.

    A state lists each contender as (window, lo, hi): its residual count is
    uniform on lo..hi.  At slot s the set W of contenders whose count is s
    collides when |W| >= 2: each sends a frame and redraws from its doubled
    window; the others freeze and resume with counts (s, hi] shifted down
    by s.  Over the reachable states E = sum P(s, W) (|W| + E(next)), a
    linear system (windows stop at cw_max, so states recur)."""
    def fresh(cw):
        return (cw, 0, cw - 1)

    def moves(state):
        for s in range(max(hi for _, _, hi in state) + 1):
            eq = [(lo <= s <= hi) / (hi - lo + 1) for _, lo, hi in state]
            gt = [max(hi - max(lo, s + 1) + 1, 0) / (hi - lo + 1)
                  for _, lo, hi in state]
            for k in range(2, n + 1):
                for won in itertools.combinations(range(n), k):
                    p = math.prod(eq[i] if i in won else gt[i]
                                  for i in range(n))
                    if p:
                        yield p, k, tuple(sorted(
                            fresh(min(2 * cw, sim.cw_max)) if i in won
                            else (cw, max(lo, s + 1) - s, hi - s)
                            for i, (cw, lo, hi) in enumerate(state)))

    start = (fresh(sim.cw_min),) * n
    index, todo, edges = {start: 0}, [start], []
    while todo:
        state = todo.pop()
        for p, k, nxt in moves(state):
            if nxt not in index:
                index[nxt] = len(index)
                todo.append(nxt)
            edges.append((index[state], p, k, index[nxt]))
    a, b = np.eye(len(index)), np.zeros(len(index))
    for i, p, k, j in edges:
        a[i, j] -= p
        b[i] += p * k
    return float(np.linalg.solve(a, b)[0])


def test_two_contenders_collided_frames_match_closed_form():
    """Two contenders collide only on equal draws, 1/16, then 1/32, then
    1/64 per round once the window stops at 64, both redrawing each time:
    E[frames] = 2 (1/16 + 1/16 * 1/32 * 1/(1 - 1/64))."""
    w = [SIM.cw_min * 2 ** k for k in range(3)]
    assert w == [16, 32, SIM.cw_max]
    exact = 2.0 * (1 / w[0] + 1 / w[0] / w[1] / (1.0 - 1 / w[2]))
    assert _exact_collided_frames(2, SIM) == pytest.approx(exact, rel=1e-12)
    frames = _collided_frames_until_clean(2, SIM, 40_000,
                                          np.random.default_rng(2002))
    se = frames.std(ddof=1) / math.sqrt(frames.size)
    assert abs(frames.mean() - exact) < 5.0 * se


def test_three_contenders_collided_frames_match_enumeration():
    """Three contenders, where a pair's collision leaves the third's
    residual count frozen: the Monte-Carlo mean of collided frames sits
    within 5 SE of the exact enumeration."""
    exact = _exact_collided_frames(3, SIM)
    frames = _collided_frames_until_clean(3, SIM, 40_000,
                                          np.random.default_rng(3003))
    se = frames.std(ddof=1) / math.sqrt(frames.size)
    assert abs(frames.mean() - exact) < 5.0 * se


def test_clustering_lossless_epoch():
    out = epoch("clustering", ring(8), np.ones(8, dtype=bool), chance=1)
    assert np.all(out.delivery_time_ms == 10.0)
    assert np.all(out.via_broadcast)
    assert np.all(out.delivered)
    assert out.bs_transmissions == 1
    assert out.uav_transmissions == 0
    assert out.control_messages == 0


def test_clustering_scripted_recovery():
    """Two members miss the broadcast: one request, one reply, no more.

    The second missing member must stay silent (its request is suppressed
    when it hears the first) and still receive the packet by overhearing the
    reply.
    """
    out = epoch("clustering", FOUR_UAVS, [True, True, False, False],
                chance=1, seed=1)
    requests = [e for e in out.events if e.kind is EventKind.REQUEST_TX_END]
    replies = [e for e in out.events if e.kind is EventKind.REPLY_TX_END]
    assert [(e.actor, e.collided) for e in requests] == [(2, False)]
    # one clean reply; with this seed holder 1 wins the reply contention
    assert [(e.actor, e.collided) for e in replies] == [(1, False)]
    assert out.control_messages == 1
    assert out.uav_transmissions == 1
    assert np.array_equal(out.via_broadcast, [True, True, False, False])
    assert np.all(out.delivered)
    # both missing members are served by the same overheard reply
    assert out.delivery_time_ms[2] == out.delivery_time_ms[3]
    assert out.delivery_time_ms[2] == replies[0].time_ms > 10.0


def test_clustering_cluster_without_holders_gives_up():
    out = epoch("clustering", ring(6), np.zeros(6, dtype=bool), chance=1)
    assert np.all(out.undelivered)
    assert np.all(np.isnan(out.delivery_time_ms))
    assert out.uav_transmissions == 0
    assert out.control_messages == 0


def test_clustering_recovery_completes_with_perfect_relays():
    first = np.random.default_rng(2).random(10) < 0.5
    out = epoch("clustering", ring(10), first, chance=1, seed=2)
    if out.via_broadcast.any() and not out.via_broadcast.all():
        assert np.all(out.delivered)
        assert np.all(out.delivery_time_ms[~out.via_broadcast] > 10.0)


def test_clustering_opportunistic_caching_saves_a_round():
    xy = [[0.0, 5.0], [5.0, 0.0], [-5.0, 0.0]]
    first = [True, False, False]
    on = epoch("clustering", xy, first, SimParams(opportunistic_caching=True),
               chance=1)
    off = epoch("clustering", xy, first,
                SimParams(opportunistic_caching=False), chance=1)
    assert np.all(on.delivered) and np.all(off.delivered)
    assert on.uav_transmissions == 1
    assert off.uav_transmissions == 2
    assert on.control_messages == 1
    assert off.control_messages == 2


def test_hooks_receive_mean_received_powers():
    """The peer hook of `run_epochs` gets, for each clean reply, p_uav *
    gain from each listener of the replier's cluster (every member still
    missing the packet, with opportunistic caching) to the replier, and
    no other link: the powers of every reply answered in one lock-step
    iteration come in one flat array.  The chance it returns decides each
    listener: a member is delivered at the first clean reply of its
    cluster that gives it chance 1, and stays undelivered if none does."""
    xy = np.array([[0.0, 3.0], [7.0, 0.0], [-12.0, 1.0], [2.0, -20.0],
                   [300.0, 5.0], [296.0, -9.0], [310.0, 14.0], [285.0, 2.0]])
    first = np.array([True, False, False, True, True, False, False, False])
    cutoff = mean_received_power(LinkKind.UAV_TO_UAV, 14.0, RADIO)
    peer_powers = []

    def peer_hook(power):
        assert power.ndim == 1
        peer_powers.extend(power.tolist())
        return np.where(power > cutoff, 1.0, 0.0)

    sim = SimParams(max_time_ms=400.0)
    rng, events = np.random.default_rng(3), []
    delivery = run_epochs("clustering", xy[None], (0, 4, 8), first[None],
                          RADIO, sim,
                          lambda e, c, b, block: rng.random(out=block),
                          events, peer_hook)[0][0]
    events.sort(key=lambda e: e.time_ms)
    expected = []
    missing = {0: {1, 2}, 1: {5, 6, 7}}
    want = np.full(8, np.nan)
    want[[0, 3, 4]] = sim.packet_len_ms
    for e in events:
        if e.kind is EventKind.REPLY_TX_END and not e.collided:
            listeners = sorted(missing[e.cluster_id])
            d = np.hypot(*(xy[listeners] - xy[e.actor]).T)
            power = mean_received_power(LinkKind.UAV_TO_UAV, d, RADIO)
            expected.extend(power.tolist())
            for m, p in zip(listeners, power):
                if p > cutoff:
                    missing[e.cluster_id].discard(m)
                    want[m] = e.time_ms
    assert len(expected) >= 2
    assert sorted(peer_powers) == sorted(expected)
    never = sorted(missing[0] | missing[1])
    assert 0 < len(never) < 5
    assert np.flatnonzero(np.isnan(delivery)).tolist() == never
    assert np.array_equal(delivery, want, equal_nan=True)


def test_clustering_is_deterministic_per_seed():
    config = ScenarioConfig(base_seed=42, num_clusters=1, total_uavs=12,
                            d0_m=1200.0)
    a = replay_epoch(config, "clustering", collect_events=True)
    b = replay_epoch(config, "clustering", collect_events=True)
    assert a.events == b.events
    assert np.array_equal(a.delivery_time_ms, b.delivery_time_ms,
                          equal_nan=True)
    assert np.array_equal(a.undelivered, b.undelivered)
    assert (a.bs_transmissions, a.uav_transmissions, a.control_messages) == \
        (b.bs_transmissions, b.uav_transmissions, b.control_messages)


def _scan_epoch_invariants(out):
    """Check recovery bookkeeping from the event log of one epoch.

    Per cluster: at most one completed reply answers each completed request,
    no reply precedes the first request, and nobody requests a packet it
    already holds.
    """
    replies_since = {}
    for e in out.events:
        if e.kind is EventKind.REQUEST_TX_END:
            held = out.delivery_time_ms[e.actor]
            assert not (np.isfinite(held) and held < e.time_ms - 1e-9), \
                f"actor {e.actor} requested a packet it received at {held}"
            if not e.collided:
                replies_since[e.cluster_id] = 0
        elif e.kind is EventKind.REPLY_TX_END and not e.collided:
            assert e.cluster_id in replies_since, "reply with no open request"
            replies_since[e.cluster_id] += 1
            assert replies_since[e.cluster_id] <= 1, \
                f"duplicate reply in cluster {e.cluster_id} at {e.time_ms}"


def _check_epoch_invariants(out, sim=SIM):
    """Invariants every epoch of `out.scheme` must satisfy."""
    assert np.all(np.isnan(out.delivery_time_ms) == out.undelivered)
    delivered_times = out.delivery_time_ms[out.delivered]
    assert np.all((delivered_times >= sim.packet_len_ms)
                  & (delivered_times <= sim.max_time_ms))
    assert not np.any(out.via_broadcast & out.undelivered)
    times = [e.time_ms for e in out.events]
    assert times == sorted(times)
    if out.scheme == "clustering":
        _scan_epoch_invariants(out)
        # the broadcast is sent only when one packet fits the budget
        assert out.bs_transmissions == (
            1 if sim.packet_len_ms <= sim.max_time_ms else 0)
    elif out.scheme == "benchmark":
        assert out.uav_transmissions == 0
        assert out.control_messages == np.count_nonzero(out.delivered)
    else:
        assert out.uav_transmissions == 0
        assert out.control_messages == (
            0 if out.undelivered.any() else out.n_uavs)


def test_clustering_invariants_over_default_channel():
    """Replication 0 of 300 default delay scenarios, one per base seed."""
    for seed in range(300):
        out = replay_epoch(ScenarioConfig(base_seed=seed), "clustering",
                           collect_events=True)
        _check_epoch_invariants(out)


@pytest.mark.parametrize("scheme", sorted(SCHEME_RUNNERS))
@given(seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["fixed_total", "density"]),
       d0=st.floats(400.0, 1500.0), num_clusters=st.integers(1, 10),
       max_time_ms=st.sampled_from([5.0, 40.0, 10_000.0]))
@settings(max_examples=40, deadline=None)
def test_epoch_invariants_over_random_drops(scheme, seed, mode, d0,
                                            num_clusters, max_time_ms):
    """The same invariants on random drops of both topology modes, with
    and without a binding time budget, and with one below one packet."""
    config = ScenarioConfig(mode=mode, d0_m=d0, num_clusters=num_clusters,
                            base_seed=seed,
                            sim=SimParams(max_time_ms=max_time_ms))
    sim = config.sim
    out = replay_epoch(config, scheme, collect_events=True)
    assert out.scheme == scheme
    _check_epoch_invariants(out, sim)


def _frames_by_cluster(out, sim):
    """The frames of a clustering epoch's event log, per cluster: (start,
    end, kind, collided, actor), each member's backoff expiries paired in
    time order with its frame ends."""
    starts, ends = collections.defaultdict(list), collections.defaultdict(list)
    for e in out.events:
        if e.kind is EventKind.BACKOFF_EXPIRY:
            starts[e.actor].append(e)
        elif e.kind in (EventKind.REQUEST_TX_END, EventKind.REPLY_TX_END):
            ends[e.actor].append(e)
    assert set(starts) == set(ends)
    frames = collections.defaultdict(list)
    for actor, done in ends.items():
        assert len(starts[actor]) == len(done)
        for begin, end in zip(starts[actor], done):
            assert begin.cluster_id == end.cluster_id == out.cluster_ids[actor]
            airtime = (sim.t_req_ms if end.kind is EventKind.REQUEST_TX_END
                       else sim.packet_len_ms)
            assert end.time_ms - begin.time_ms == pytest.approx(airtime)
            frames[end.cluster_id].append(
                (begin.time_ms, end.time_ms, end.kind, end.collided, actor))
    return frames


@given(seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["fixed_total", "density"]),
       d0=st.floats(400.0, 1500.0), num_clusters=st.integers(1, 10),
       max_time_ms=st.sampled_from([5.0, 40.0, 10_000.0]),
       caching=st.booleans())
@settings(max_examples=80, deadline=None)
def test_clustering_channel_invariants_over_random_drops(
        seed, mode, d0, num_clusters, max_time_ms, caching):
    """Each cluster's channel serializes its frames: two frames overlap
    only when they collide, and then start and end together.  Each clean
    reply answers a clean request of its cluster, with no other clean
    reply between them.  Frame counts equal `control_messages` and
    `uav_transmissions`, and every member recovered after the broadcast
    was delivered at the end of a clean reply in its cluster."""
    config = ScenarioConfig(mode=mode, d0_m=d0, num_clusters=num_clusters,
                            base_seed=seed,
                            sim=SimParams(max_time_ms=max_time_ms,
                                          opportunistic_caching=caching))
    sim = config.sim
    out = replay_epoch(config, "clustering", collect_events=True)
    frames = _frames_by_cluster(out, sim)
    counts = collections.Counter(kind for fs in frames.values()
                                 for _, _, kind, _, _ in fs)
    assert counts[EventKind.REQUEST_TX_END] == out.control_messages
    assert counts[EventKind.REPLY_TX_END] == out.uav_transmissions
    reply_ends = collections.defaultdict(set)
    for cid, fs in frames.items():
        busy_until, open_request = -math.inf, False
        for (start, end), group in itertools.groupby(sorted(fs),
                                                     key=lambda f: f[:2]):
            group = list(group)
            assert start >= busy_until, f"cluster {cid} overlaps at {start}"
            busy_until = end
            kinds = {kind for _, _, kind, _, _ in group}
            assert len(kinds) == 1
            assert {collided for _, _, _, collided, _ in group} == {
                len(group) > 1}
            if len(group) > 1:
                continue
            if kinds == {EventKind.REQUEST_TX_END}:
                assert not open_request, f"cluster {cid}: unanswered request"
                open_request = True
            else:
                assert open_request, f"cluster {cid}: reply with no request"
                open_request = False
                reply_ends[cid].add(end)
    recovered = np.flatnonzero(out.delivered & ~out.via_broadcast)
    for u in recovered.tolist():
        assert out.delivery_time_ms[u] in reply_ends[out.cluster_ids[u]]
    assert np.all(out.delivery_time_ms[out.via_broadcast] == sim.packet_len_ms)


def _two_mask_bs_rounds(scheme, coded, g, cluster_of, sim,
                        broadcast_success):
    """Reference BS-round loop: rebuilds the `received < g` mask twice per
    round and asks `broadcast_success` which members of that mask receive
    the round."""
    n = cluster_of.size
    events = []
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
            events.append(Event(t, EventKind.ACK_RX_END, int(u), PACKET_ID,
                                int(cluster_of[u])))

    while (received < g).any() and t + sim.packet_len_ms <= sim.max_time_ms:
        packet_id = bs_tx if coded else PACKET_ID
        bs_tx += 1
        t += sim.packet_len_ms
        events.append(Event(t, EventKind.BS_BROADCAST_END, -1, packet_id, -1))
        idx = np.flatnonzero(received < g)
        hit = idx[broadcast_success(idx)]
        received[hit] += 1
        done = hit[received[hit] == g]
        delivery[done] = t
        via_broadcast[done] = coded or bs_tx == 1
        if not coded:
            acks(done)
    undelivered = received < g
    if coded and not undelivered.any():
        acks(range(n))
    events.sort(key=lambda e: e.time_ms)
    return SchemeOutcome(
        scheme=scheme, delivery_time_ms=delivery, undelivered=undelivered,
        via_broadcast=via_broadcast, cluster_ids=cluster_of,
        bs_transmissions=bs_tx, uav_transmissions=0,
        control_messages=control, events=events)


def _scripted_successes(rounds, g, rng):
    """Success rounds per member that complete `g` receptions in its
    completion round: g - 1 random earlier rounds plus that round, or
    fewer than g rounds among the first 40 for a member that never does."""
    out = []
    for r in rounds:
        if math.isinf(r):
            picked = rng.choice(40, rng.integers(0, g), replace=False) + 1
        else:
            picked = np.append(rng.choice(r - 1, g - 1, replace=False) + 1, r)
        out.append(set(picked.tolist()))
    return out


@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       scheme=st.sampled_from(["benchmark", "rnc"]),
       mode=st.sampled_from(["fixed_total", "density"]),
       num_clusters=st.integers(1, 10),
       max_time_ms=st.sampled_from([40.0, 95.0, 10_000.0]))
@settings(max_examples=150, deadline=None)
def test_active_set_rounds_match_two_mask_loop(data, seed, scheme, mode,
                                               num_clusters, max_time_ms):
    """`run_epochs` on the BS schemes gives the round-by-round reference
    loop's outcome, counters and events bit for bit, with tight and loose
    time budgets: RNC (coded) with generations of 1 and 8, the benchmark
    (uncoded, g = 1).

    Each member's completion round is drawn (None: never); the reference
    loop is driven by a scripted reception rule whose successes end in
    exactly those rounds, and `run_epochs` is handed them."""
    coded = scheme == "rnc"
    g = data.draw(st.sampled_from([1, 8])) if coded else 1
    config = ScenarioConfig(mode=mode, lambda_per_m2=1e-5,
                            num_clusters=num_clusters, base_seed=seed,
                            sim=SimParams(max_time_ms=max_time_ms,
                                          rnc_generation_size=g))
    sim = config.sim
    xy, cluster_of = replay_drops(config, 1)[0]
    n = cluster_of.size
    extra = data.draw(st.lists(st.none() | st.integers(0, 30),
                               min_size=n, max_size=n))
    rounds = [math.inf if e is None else g + e for e in extra]
    successes = _scripted_successes(rounds, g, np.random.default_rng(seed))
    calls = []

    def scripted(active):
        k = len(calls) + 1
        assert active.tolist() == [u for u in range(n) if rounds[u] >= k]
        calls.append(k)
        return np.array([k in successes[u] for u in active], dtype=bool)

    bounds = tuple(np.searchsorted(
        cluster_of, np.arange(cluster_of[-1] + 2 if n else 1)).tolist())
    out = epoch(scheme, xy, np.array(rounds, dtype=float), sim, bounds=bounds)
    ref = _two_mask_bs_rounds(scheme, coded, g, cluster_of, sim, scripted)
    assert out.delivery_time_ms.tobytes() == ref.delivery_time_ms.tobytes()
    assert out.undelivered.tolist() == ref.undelivered.tolist()
    assert out.via_broadcast.tolist() == ref.via_broadcast.tolist()
    assert (out.bs_transmissions, out.uav_transmissions,
            out.control_messages) == (ref.bs_transmissions,
                                      ref.uav_transmissions,
                                      ref.control_messages)
    assert out.events == ref.events
    assert len(calls) == ref.bs_transmissions


def _bs_rounds(power, g, rng):
    """The BS round model as the delay study draws it: round 1 decided by
    `decodes` on one exponential per listener, the later rounds by
    `completion_rounds` on an (n, g) block of exponentials."""
    first = decodes(power, rng.standard_exponential(power.size), RADIO)
    q = decode_probability(power, RADIO)
    return completion_rounds(first[None], q[None],
                             rng.standard_exponential((1, power.size, g)))[0]


def _rounds_per_round_fading(power, g, rng, max_rounds):
    """Completion rounds from one fading draw per listener and round,
    decided by `decodes`, until every listener holds g receptions (inf
    past `max_rounds`)."""
    got = np.zeros(power.size, dtype=int)
    rounds = np.full(power.size, np.inf)
    for k in range(1, max_rounds + 1):
        active = np.flatnonzero(got < g)
        if not active.size:
            break
        got[active] += decodes(power[active],
                               rng.exponential(1.0, active.size), RADIO)
        rounds[active[got[active] == g]] = k
    return rounds


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("g", [1, 8])
@pytest.mark.parametrize("q", [0.0, 1e-320, 1e-300, 0.05, 0.5, 0.9, 1.0])
def test_round_model_matches_per_round_fading(q, g):
    """The BS round model draws the negative-binomial completion round of
    per-round fading draws: both samples' CDFs sit within the DKW band
    (alpha = 1e-6) of the exact law, and the edges q = 0 (lam = 0, never),
    q = 1 (lam = inf, round g) and q -> 0 raise no warning."""
    theta_n = RADIO.snr_threshold * RADIO.noise_power_mw
    # q = exp(-theta N / P): exactly 0 at P = theta N / 1e3, 1 at 1e20 theta N
    if q == 0.0:
        power = theta_n * 1e-3
    elif q == 1.0:
        power = theta_n * 1e20
    else:
        power = theta_n / -math.log(q)
    # a subnormal q carries about four digits
    assert decode_probability(power, RADIO) == pytest.approx(q, rel=1e-3)
    trials = 20_000
    powers = np.full(trials, power)
    rng = np.random.default_rng(int(1e4 * g + 1e3 * q) + 17)
    rounds = _bs_rounds(powers, g, rng)
    if q == 0.0:
        assert np.all(np.isinf(rounds))
        assert np.all(np.isinf(_rounds_per_round_fading(powers, g, rng, 50)))
        return
    if q == 1.0:
        assert np.all(rounds == g)
        assert np.all(_rounds_per_round_fading(powers, g, rng, 50) == g)
        return
    if q < 1e-200:
        assert np.all(rounds > 1e250)
        return
    ref = _rounds_per_round_fading(powers, g, rng, 100_000)
    eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * trials))
    ks = np.arange(g, int(max(rounds.max(), ref.max())) + 1)
    exact = stats.nbinom.cdf(ks - g, g, q)
    for sample in (rounds, ref):
        assert np.all(sample == np.floor(sample)) and sample.min() >= g
        empirical = np.searchsorted(np.sort(sample), ks, side="right") / trials
        assert np.max(np.abs(empirical - exact)) < eps

def test_clustering_mean_delay_tracks_formula():
    """Simulated delay sits just above the contention-free expression.

    CSMA backoff and request serialization add overhead, so the epoch mean
    must land within +10% of the closed form, never below it.
    """
    config = ScenarioConfig(replications=4000, base_seed=123,
                            schemes=("clustering",))
    delays, ratios = _replicated("delay", config, (0, 0))["clustering"].T
    # the mean over every delivered member of the 4000 epochs of 50
    mean = (delays * ratios).sum() / ratios.sum()
    p_cov = coverage_probability(config.geometry(), RADIO)
    p_suc = transmission_success_probability(50.0, RADIO)
    formula = average_delay(p_cov, p_suc, 10.0, 1.0)
    assert formula <= mean <= 1.10 * formula


def test_benchmark_all_served_first_round():
    out = epoch("benchmark", ring(6), np.ones(6))
    assert np.all(out.delivery_time_ms == 10.0)
    assert np.all(out.via_broadcast)
    assert out.bs_transmissions == 1
    assert out.control_messages == 6
    assert out.uav_transmissions == 0


def _bs_transmissions(scheme, n, p, sim, seed, epochs=20_000):
    """BS rounds of `epochs` epochs of n members whose every reception
    succeeds with chance p, from one `run_epochs` call."""
    g = sim.rnc_generation_size if scheme == "rnc" else 1
    rounds = bernoulli_rounds(p, g, (epochs, n), np.random.default_rng(seed))
    return run_epochs(scheme, np.zeros((epochs, n, 2)), (0, n), rounds,
                      RADIO, sim, None)[2]


def test_benchmark_rounds_are_geometric():
    rounds = _bs_transmissions("benchmark", 1, 0.3, SIM, 8)
    mean = np.mean(rounds)
    se = np.std(rounds, ddof=1) / math.sqrt(len(rounds))
    assert abs(mean - 1.0 / 0.3) < 4.0 * se


def test_benchmark_round_count_matches_series():
    """Mean rounds to serve 5 members at p = 0.8 matches the exact series.

    rounds R = max of 5 iid geometrics, E[R] = sum_k>=0 (1 - (1 - q^k)^5)
    with q the per-round miss probability.
    """
    rounds = _bs_transmissions("benchmark", 5, 0.8, SIM, 7)
    q = 0.2
    exact, k, term = 0.0, 0, 1.0
    while term > 1e-14:
        term = 1.0 - (1.0 - q ** k) ** 5
        exact += term
        k += 1
    mean = np.mean(rounds)
    se = np.std(rounds, ddof=1) / math.sqrt(len(rounds))
    assert abs(mean - exact) < 4.0 * se


def test_benchmark_times_out():
    out = epoch("benchmark", ring(3), np.full(3, np.inf),
                SimParams(max_time_ms=35.0))
    assert out.bs_transmissions == 3
    assert np.all(out.undelivered)
    assert out.control_messages == 0


def test_benchmark_rounds_serialize_acks():
    """Hand-worked timeline: one member served per round, each round's ACK
    (1 ms) delays the next 10 ms broadcast.

    round 1 ends 10, member 0 ACKs until 11; round 2 ends 21, member 1 ACKs
    until 22; round 3 ends 32, member 2 ACKs until 33.
    """
    out = epoch("benchmark", ring(3), [1.0, 2.0, 3.0])
    assert out.delivery_time_ms.tolist() == [10.0, 21.0, 32.0]
    assert out.via_broadcast.tolist() == [True, False, False]
    assert out.bs_transmissions == 3
    assert out.control_messages == 3
    assert [(e.time_ms, e.kind, e.actor) for e in out.events] == [
        (10.0, EventKind.BS_BROADCAST_END, -1), (11.0, EventKind.ACK_RX_END, 0),
        (21.0, EventKind.BS_BROADCAST_END, -1), (22.0, EventKind.ACK_RX_END, 1),
        (32.0, EventKind.BS_BROADCAST_END, -1), (33.0, EventKind.ACK_RX_END, 2)]
    assert {e.packet_id for e in out.events} == {0}


@pytest.mark.parametrize("coded", [False, True])
def test_bs_delivery_rows_are_independent_timelines(coded):
    """Rows of `_bs_delivery` are separate epochs: each row equals its
    batch of one and the hand-worked timeline, with ties inside a row,
    rounds shared across rows, inf and huge rounds capped at
    45 / 10 + 2 = 6.5, and a 45 ms budget that cuts rounds 5 and later.

    Uncoded, a member's round k ends at 10 k plus 1 ms per member of its
    own row served earlier: row 0 [1, 2, 2, 1] ends at 10, 22, 22, 10;
    row 1 [2, 1, 3, inf] at 21, 10, 32 and 68 (cut); row 2 [4, 4, 1, 1e300]
    at 41, 41, 10 and 68 (cut); row 3 [5, 2, 2, 2] at 53 (cut), 20, 20,
    20.  Coded, round k ends at 10 k."""
    sim = SimParams(max_time_ms=45.0)
    rounds = np.array([[1.0, 2.0, 2.0, 1.0],
                       [2.0, 1.0, 3.0, np.inf],
                       [4.0, 4.0, 1.0, 1e300],
                       [5.0, 2.0, 2.0, 2.0]])
    nan = np.nan
    if coded:
        delivery = [[10.0, 20.0, 20.0, 10.0], [20.0, 10.0, 30.0, nan],
                    [40.0, 40.0, 10.0, nan], [nan, 20.0, 20.0, 20.0]]
    else:
        delivery = [[10.0, 22.0, 22.0, 10.0], [21.0, 10.0, 32.0, nan],
                    [41.0, 41.0, 10.0, nan], [nan, 20.0, 20.0, 20.0]]
    delivered = ~np.isnan(delivery)
    capped, times, via_broadcast = _bs_delivery(rounds, coded, sim)
    assert capped.tolist() == [[1.0, 2.0, 2.0, 1.0], [2.0, 1.0, 3.0, 6.5],
                               [4.0, 4.0, 1.0, 6.5], [5.0, 2.0, 2.0, 2.0]]
    assert times.tobytes() == np.array(delivery).tobytes()
    assert via_broadcast.tolist() == (
        delivered if coded else delivered & (rounds == 1.0)).tolist()
    for i in range(len(rounds)):
        row = _bs_delivery(rounds[i:i + 1], coded, sim)
        for got, batch in zip(row, (capped, times, via_broadcast)):
            assert got.tobytes() == batch[i:i + 1].tobytes()


def test_completion_rounds_rows_read_their_own_draws():
    """Listener j of a row reads position j of its row's exponentials,
    whatever the other listeners did in round 1, so each row of a batch
    equals its batch of one, and flipping one listener's round-1 outcome
    moves no other listener's round.  With g = 1 a listener served in
    round 1 leaves its value (9.0) unread.  Row 0's listeners 1 and 3 read
    0.5 and 2.5 at lam = log 2, taking 1 + floor(0.72) = 1 and
    1 + floor(3.61) = 4 more rounds; row 1's listener 0 reads 0.5 at
    lam = 0 and never completes; row 2's listener 0 reads 0 at lam = 0
    (0 / 0) and never completes either, while listener 1, served in
    round 1 at q = 0, is done, and q = 1 takes one more round."""
    first = np.array([[True, False, True, False], [False, True, True, True],
                      [False, True, False, False]])
    q = np.array([[0.5, 0.5, 0.5, 0.5], [0.0, 0.5, 0.5, 0.5],
                  [0.0, 0.0, 1.0, 0.5]])
    fading = np.array([[9.0, 0.5, 9.0, 2.5], [0.5, 9.0, 9.0, 9.0],
                       [0.0, 0.0, 0.0, 0.0]])[..., None]
    rounds = completion_rounds(first, q, fading)
    assert rounds.tolist() == [[1.0, 2.0, 1.0, 5.0],
                               [np.inf, 1.0, 1.0, 1.0],
                               [np.inf, 1.0, 2.0, 2.0]]
    for i in range(len(first)):
        alone = completion_rounds(first[i:i + 1], q[i:i + 1],
                                  fading[i:i + 1])
        assert alone.tobytes() == rounds[i:i + 1].tobytes()
    flipped = first.copy()
    flipped[:, 0] = ~flipped[:, 0]
    assert completion_rounds(flipped, q, fading)[:, 1:].tobytes() == \
        rounds[:, 1:].tobytes()


@pytest.mark.parametrize("scheme", sorted(SCHEME_RUNNERS))
@pytest.mark.parametrize("d0_m,max_time_ms", [(1200.0, 10_000.0),
                                              (1200.0, 40.0), (1200.0, 5.0),
                                              (30_000.0, 10_000.0)])
def test_run_epochs_rows_equal_the_runner(scheme, d0_m, max_time_ms):
    """One `run_epochs` call over 20 drops of one fixed_total plan gives
    each row, bit for bit, the delivery times, `via_broadcast` marks and
    three counters that the scheme's runner (`SCHEME_RUNNERS`) gives that
    epoch alone, as a batch of one with its event log, read by
    `SchemeOutcome.of_batch`.  Each epoch draws round 1 from its own
    generator, and each cell its recovery blocks from generators keyed by
    (epoch, cluster, block).  A 40 ms budget, a 5 ms one
    (below one packet) and d0 = 30 km (the BS serves no one) reach the
    counters' other branches."""
    config = ScenarioConfig(d0_m=d0_m, num_clusters=2,
                            sim=SimParams(max_time_ms=max_time_ms))
    sim, m = config.sim, 20
    g = sim.rnc_generation_size if scheme == "rnc" else 1
    xy, bounds = fixed_drops(config, m, np.random.default_rng(3))
    n = bounds[-1]
    power = mean_received_power(
        LinkKind.BS_TO_UAV, np.hypot(np.hypot(xy[..., 0] - d0_m, xy[..., 1]),
                                     config.h2_m - config.h1_m), RADIO)
    rngs = [np.random.default_rng([4, e]) for e in range(m)]
    first = decodes(power, np.array([r.standard_exponential(n)
                                     for r in rngs]), RADIO)
    first &= sim.packet_len_ms <= sim.max_time_ms
    if scheme != "clustering":
        # over the budget too: `run_epochs` sends no round that ends past it
        first = completion_rounds(
            first, decode_probability(power, RADIO),
            np.array([r.standard_exponential((n, g)) for r in rngs]))
    outcomes, draw = [], cell_draw(5)
    for e in range(m):
        events = []
        outcomes.append(SchemeOutcome.of_batch(
            scheme, bounds, SCHEME_RUNNERS[scheme](
                scheme, xy[e:e + 1], bounds, first[e:e + 1], RADIO, sim,
                lambda epoch, *rest, e=e: draw(epoch + e, *rest), events),
            events))
    delivery, via_broadcast, *counters = run_epochs(
        scheme, xy, bounds, first, RADIO, sim, draw)
    for e, outcome in enumerate(outcomes):
        assert outcome.scheme == scheme
        assert delivery[e].tobytes() == outcome.delivery_time_ms.tobytes()
        assert via_broadcast[e].tolist() == outcome.via_broadcast.tolist()
        assert [int(c[e]) for c in counters] == [
            outcome.bs_transmissions, outcome.uav_transmissions,
            outcome.control_messages]
        times = [event.time_ms for event in outcome.events]
        assert times == sorted(times)
    assert np.any(counters) == (sim.packet_len_ms <= sim.max_time_ms)


def test_run_epochs_requires_draw():
    """Clustering recovery draws through `draw`, so leaving it out is a
    TypeError naming it, not a failure inside the first recovery."""
    xy = np.array([[[0.0, 0.0], [5.0, 0.0]]])
    with pytest.raises(TypeError, match="draw"):
        run_epochs("clustering", xy, (0, 2), np.array([[True, False]]),
                   RADIO, SIM)


def _recovery_iterations(first, bounds, delivery, events):
    """The lock-step iterations each recovering cluster of one epoch ran,
    by cluster, read from its event log: one per attempt (a distinct
    backoff expiry time of the cluster), plus the attempt that ran past
    the time budget when a member of the cluster stays undelivered.  A
    cluster with no holder or no missing member runs none and is left
    out."""
    starts = collections.defaultdict(set)
    for e in events:
        if e.kind is EventKind.BACKOFF_EXPIRY:
            starts[e.cluster_id].add(e.time_ms)
    return {c: len(starts[c]) + bool(np.isnan(delivery[a:b]).any())
            for c, (a, b) in enumerate(zip(bounds, bounds[1:]))
            if first[a:b].any() and not first[a:b].all()}


@given(seed=st.integers(0, 2 ** 32 - 1), num_clusters=st.integers(1, 10),
       total_uavs=st.integers(10, 60), served=st.floats(0.05, 0.95),
       chance=st.floats(0.05, 1.0),
       max_time_ms=st.sampled_from([40.0, 400.0, 10_000.0]))
@settings(max_examples=40, deadline=None)
def test_recovery_draws_are_sized_by_live_cells(seed, num_clusters,
                                                total_uavs, served, chance,
                                                max_time_ms):
    """Each `draw(epoch, cluster, b, out)` call of a batch gets `out` of
    shape (j, 4, 2, S): block b of the j cells it names, S the largest
    cluster.  Block 0 goes to every cell that recovers (a cluster with a
    holder and a missing member), once, and block b >= 1 only to the cells
    still live at iteration 4 b, once each: a cell is live there while
    it runs more than 4 b iterations, read from each epoch's own event
    log (`_recovery_iterations`).  Each epoch alone, drawing the same
    cells' blocks, gives its batch row bit for bit."""
    config = ScenarioConfig(num_clusters=num_clusters, total_uavs=total_uavs)
    sim, m = SimParams(max_time_ms=max_time_ms), 8
    rng = np.random.default_rng(seed)
    xy, bounds = fixed_drops(config, m, rng)
    first = rng.random(xy.shape[:2]) < served
    largest = max(np.diff(bounds))

    def chances(power):
        return np.full(power.shape, chance)

    asked, draw = collections.Counter(), cell_draw(seed)

    def spy(epoch, cluster, b, out):
        assert out.shape == (epoch.size, 4, 2, largest)
        asked.update((e, c, b) for e, c in zip(epoch.tolist(),
                                                cluster.tolist()))
        draw(epoch, cluster, b, out)

    delivery = run_epochs("clustering", xy, bounds, first, RADIO, sim, spy,
                          peer_probability=chances)[0]
    expected = collections.Counter()
    for e in range(m):
        events = []
        alone = run_epochs("clustering", xy[e:e + 1], bounds, first[e:e + 1],
                           RADIO, sim,
                           lambda epoch, *rest, e=e: draw(epoch + e, *rest),
                           events, chances)[0]
        assert alone.tobytes() == delivery[e:e + 1].tobytes()
        iterations = _recovery_iterations(first[e], bounds, alone[0], events)
        expected.update((e, c, b) for c, n in iterations.items()
                        for b in range(-(-n // 4)))
    assert asked == expected


def test_one_recovering_cluster_draws_blocks_of_its_size():
    """In a C = 10 drop of 50 members where one 5-member cluster recovers,
    each block holds 4 x 2 x 5 doubles, not 4 x 2 x 50, and every block
    goes to that cell, cluster 2 of epoch 0, in order: blocks 0, 1, 2..."""
    xy, bounds = fixed_drops(ScenarioConfig(num_clusters=10), 1,
                             np.random.default_rng(2))
    assert bounds[2:4] == (10, 15)
    first = np.ones((1, 50), dtype=bool)
    first[0, [12, 13]] = False
    rng, asked = np.random.default_rng(3), []

    def spy(epoch, cluster, b, out):
        asked.append((epoch.tolist(), cluster.tolist(), b, out.shape))
        rng.random(out=out)

    delivery = run_epochs("clustering", xy, bounds, first, RADIO, SIM, spy,
                          peer_probability=lambda p: np.full(p.shape, 0.1))[0]
    assert len(asked) > 1
    assert asked == [([0], [2], b, (1, 4, 2, 5)) for b in range(len(asked))]
    assert not np.isnan(delivery).any()


def test_run_epochs_rejects_unknown_scheme():
    """An unknown scheme is named, not run as the ACK benchmark."""
    xy = np.array([[[0.0, 0.0], [5.0, 0.0]]])
    with pytest.raises(ParameterError, match="flooding"):
        run_epochs("flooding", xy, (0, 2), np.full((1, 2), 1.0), RADIO, SIM,
                   lambda e, c, b, out: None)


def test_rnc_coded_packet_ids_then_terminal_acks():
    """Generation of 2 on a perfect channel: coded packets 0 and 1 end at
    10 and 20 ms, then the three members ACK at 21, 22 and 23 ms."""
    out = epoch("rnc", ring(3), np.full(3, 2.0),
                SimParams(rnc_generation_size=2))
    broadcasts = [(e.time_ms, e.packet_id) for e in out.events
                  if e.kind is EventKind.BS_BROADCAST_END]
    acks = [(e.time_ms, e.actor) for e in out.events
            if e.kind is EventKind.ACK_RX_END]
    assert broadcasts == [(10.0, 0), (20.0, 1)]
    assert acks == [(21.0, 0), (22.0, 1), (23.0, 2)]
    assert len(out.events) == 5
    assert out.delivery_time_ms.tolist() == [20.0, 20.0, 20.0]
    assert out.control_messages == 3


def test_rnc_perfect_channel_takes_generation_rounds():
    out = epoch("rnc", ring(4), np.full(4, 3.0),
                SimParams(rnc_generation_size=3))
    assert np.all(out.delivery_time_ms == 30.0)
    assert out.bs_transmissions == 3
    assert out.control_messages == 4  # one terminal ACK per member
    acks = [e for e in out.events if e.kind is EventKind.ACK_RX_END]
    assert len(acks) == 4 and all(e.time_ms > 30.0 for e in acks)


def test_rnc_single_packet_generation_is_geometric():
    rounds = _bs_transmissions("rnc", 1, 0.3,
                               SimParams(rnc_generation_size=1), 10)
    mean = np.mean(rounds)
    se = np.std(rounds, ddof=1) / math.sqrt(len(rounds))
    assert abs(mean - 1.0 / 0.3) < 4.0 * se


def test_rnc_round_count_matches_negative_binomial_max():
    """Rounds to decode = max over members of a negative-binomial count."""
    rounds = _bs_transmissions("rnc", 5, 0.8,
                               SimParams(rnc_generation_size=4), 9)
    exact, k = 0.0, 0
    while True:
        p_one = 1.0 - stats.binom.cdf(3, k, 0.8) if k >= 4 else 0.0
        term = 1.0 - p_one ** 5
        exact += term
        if k > 8 and term < 1e-12:
            break
        k += 1
    mean = np.mean(rounds)
    se = np.std(rounds, ddof=1) / math.sqrt(len(rounds))
    assert abs(mean - exact) < 4.0 * se


def test_rnc_times_out_without_terminal_ack():
    out = epoch("rnc", ring(3), np.full(3, np.inf),
                SimParams(max_time_ms=25.0))
    assert out.bs_transmissions == 2
    assert np.all(out.undelivered)
    assert out.control_messages == 0


def test_event_log_round_trips_to_csv(tmp_path):
    out = epoch("clustering", FOUR_UAVS, [True, True, False, False],
                chance=1, seed=1)
    path = tmp_path / "events.csv"
    write_event_log(path, out.events)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,actor,event_kind,packet_id,cluster_id,collided"
    assert len(lines) == 1 + len(out.events)
    cells = lines[1].split(",")
    assert cells[1] == "-1" and cells[2] == "bs_broadcast_end"
    assert float(cells[0]) == 10.0
