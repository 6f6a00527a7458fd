import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    all_links,
    all_links_rounds,
    fixed_rounds,
    fixed_success,
    fixed_success_rounds,
    four_uav_topology,
    one_cluster_topology,
    reception_pattern,
    ring_topology,
)
from uavcast.analysis import (
    average_delay,
    coverage_probability,
    transmission_success_probability,
)
from uavcast.channel import (
    LinkKind,
    RadioParams,
    decode_probability,
    link_model,
    mean_received_power,
    round_model,
)
from uavcast.config import ScenarioConfig
from uavcast.errors import IntegrityError, ParameterError
from uavcast.geometry import Topology, build_topology
from uavcast.protocol import (
    PACKET_ID,
    SCHEME_RUNNERS,
    EventKind,
    MediumState,
    SchemeOutcome,
    SimParams,
    _bs_rounds,
    _contend,
    _EpochLog,
    run_ack_benchmark,
    run_clustering_scheme,
    run_rnc_scheme,
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


@pytest.mark.parametrize("n", [2, 4, 10, 20])
def test_first_contention_round_matches_unique_minimum(n):
    """n contenders draw uniform slots in {0..W-1}; the first frame goes
    through iff the minimum is unique, with probability
    sum_k n (1/W) ((W-1-k)/W)^(n-1)."""
    w, trials = SIM.cw_min, 10_000
    exact = sum(n / w * ((w - 1 - k) / w) ** (n - 1) for k in range(w))
    rng = np.random.default_rng(1000 + n)
    clean = 0
    for _ in range(trials):
        log = _EpochLog(True)
        _contend(list(range(n)), [w] * n, MediumState(), 0.0, SIM.t_req_ms,
                 SIM, rng, log, EventKind.REQUEST_TX_END, 0, 0, {"tx": 0}, "tx")
        first = next(e for e in log.events
                     if e.kind is EventKind.REQUEST_TX_END)
        clean += not first.collided
    se = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(clean / trials - exact) < 5.0 * se


def _collided_frames_until_clean(n, sim, trials, rng):
    """Collided frames `_contend` sends before its first clean frame, per
    contention among n contenders with fresh cw_min windows."""
    out = np.empty(trials)
    for i in range(trials):
        counters = {"tx": 0}
        winner, _ = _contend(list(range(n)), [sim.cw_min] * n, MediumState(),
                             0.0, sim.t_req_ms, sim, rng, _EpochLog(False),
                             EventKind.REQUEST_TX_END, 0, 0, counters, "tx")
        assert winner is not None
        out[i] = counters["tx"] - 1
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


def test_medium_serializes_transmissions():
    medium = MediumState()
    medium.occupy(0.0, 5.0)
    medium.occupy(5.0, 8.0)  # back to back is fine
    with pytest.raises(IntegrityError):
        medium.occupy(7.0, 9.0)


def test_clustering_lossless_epoch():
    out = run_clustering_scheme(ring_topology(8), RADIO, SIM,
                                np.random.default_rng(0),
                                broadcast_success=all_links(True),
                                peer_success=all_links(True))
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
    out = run_clustering_scheme(four_uav_topology(), RADIO, SIM,
                                np.random.default_rng(1), collect_events=True,
                                broadcast_success=reception_pattern(
                                    True, True, False, False),
                                peer_success=all_links(True))
    requests = [e for e in out.events if e.kind is EventKind.REQUEST_TX_END]
    replies = [e for e in out.events if e.kind is EventKind.REPLY_TX_END]
    assert [(e.actor, e.collided) for e in requests] == [(2, False)]
    assert [(e.actor, e.collided) for e in replies] == [(0, False)]
    assert out.control_messages == 1
    assert out.uav_transmissions == 1
    assert np.array_equal(out.via_broadcast, [True, True, False, False])
    assert np.all(out.delivered)
    # both missing members are served by the same overheard reply
    assert out.delivery_time_ms[2] == out.delivery_time_ms[3]
    assert out.delivery_time_ms[2] == replies[0].time_ms > 10.0


def test_clustering_cluster_without_holders_gives_up():
    out = run_clustering_scheme(ring_topology(6), RADIO, SIM,
                                np.random.default_rng(0),
                                broadcast_success=all_links(False),
                                peer_success=all_links(True))
    assert np.all(out.undelivered)
    assert np.all(np.isnan(out.delivery_time_ms))
    assert out.uav_transmissions == 0
    assert out.control_messages == 0


def test_clustering_recovery_completes_with_perfect_relays():
    out = run_clustering_scheme(ring_topology(10), RADIO, SIM,
                                np.random.default_rng(2),
                                broadcast_success=fixed_success(0.5),
                                peer_success=all_links(True))
    if out.via_broadcast.any() and not out.via_broadcast.all():
        assert np.all(out.delivered)
        assert np.all(out.delivery_time_ms[~out.via_broadcast] > 10.0)


def test_clustering_opportunistic_caching_saves_a_round():
    topo = one_cluster_topology([[0.0, 5.0], [5.0, 0.0], [-5.0, 0.0]])
    pattern = reception_pattern(True, False, False)
    on = run_clustering_scheme(topo, RADIO, SimParams(opportunistic_caching=True),
                               np.random.default_rng(0),
                               broadcast_success=pattern,
                               peer_success=all_links(True))
    off = run_clustering_scheme(topo, RADIO, SimParams(opportunistic_caching=False),
                                np.random.default_rng(0),
                                broadcast_success=pattern,
                                peer_success=all_links(True))
    assert np.all(on.delivered) and np.all(off.delivered)
    assert on.uav_transmissions == 1
    assert off.uav_transmissions == 2
    assert on.control_messages == 1
    assert off.control_messages == 2


def test_hooks_receive_mean_received_powers():
    """The BS hook gets p_bs * gain at each member's BS distance; each peer
    call gets p_uav * gain from every listener to the replier."""
    xy = np.array([[0.0, 3.0], [7.0, 0.0], [-12.0, 1.0], [2.0, -20.0],
                   [300.0, 5.0], [296.0, -9.0], [310.0, 14.0], [285.0, 2.0]])
    topo = Topology(xy=xy, cluster_of=np.repeat([0, 1], 4),
                    centers=np.array([[0.0, 0.0], [300.0, 0.0]]),
                    height=20.0, bs_xy=(1200.0, 0.0), bs_height=10.0)
    bs_calls, peer_calls = [], []

    def bs_hook(power, rng):
        bs_calls.append(power.copy())
        return np.array([True, False, False, True, True, False, False, False])

    def peer_hook(power, rng):
        ok = rng.random(power.shape) < 0.5
        peer_calls.append((power.copy(), ok))
        return ok

    out = run_clustering_scheme(topo, RADIO, SIM, np.random.default_rng(3),
                                collect_events=True, broadcast_success=bs_hook,
                                peer_success=peer_hook)
    assert len(bs_calls) == 1
    assert bs_calls[0].tolist() == mean_received_power(
        LinkKind.BS_TO_UAV, topo.bs_distances(), RADIO).tolist()
    missing = {0: [1, 2], 1: [5, 6, 7]}
    repliers = [(e.cluster_id, e.actor) for cid in (0, 1) for e in out.events
                if e.kind is EventKind.REPLY_TX_END and not e.collided
                and e.cluster_id == cid]
    assert len(repliers) == len(peer_calls) >= 2
    for (cid, replier), (power, ok) in zip(repliers, peer_calls):
        listeners = sorted(missing[cid])
        d = np.hypot(*(xy[listeners] - xy[replier]).T)
        assert power.tolist() == mean_received_power(
            LinkKind.UAV_TO_UAV, d, RADIO).tolist()
        missing[cid] = [u for u, hit in zip(listeners, ok) if not hit]
    assert np.flatnonzero(out.undelivered).tolist() == sorted(
        missing[0] + missing[1])


def test_clustering_is_deterministic_per_seed():
    topo = ring_topology(12)
    a = run_clustering_scheme(topo, RADIO, SIM, np.random.default_rng(42),
                              collect_events=True)
    b = run_clustering_scheme(topo, RADIO, SIM, np.random.default_rng(42),
                              collect_events=True)
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
    config = ScenarioConfig()
    for rep in range(300):
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(rep,)))
        topo = build_topology(config, rng)
        out = run_clustering_scheme(topo, RADIO, SIM, rng, collect_events=True)
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
                            sim=SimParams(max_time_ms=max_time_ms))
    sim = config.sim
    rng = np.random.default_rng(seed)
    topo = build_topology(config, rng)
    out = SCHEME_RUNNERS[scheme](topo, RADIO, sim, rng, collect_events=True)
    assert out.scheme == scheme
    _check_epoch_invariants(out, sim)


def _two_mask_bs_rounds(scheme, coded, g, topology, radio, sim, rng,
                        collect_events, broadcast_success):
    """Reference BS-round loop: rebuilds the `received < g` mask twice per
    round and hands the hook the gathered powers of that mask."""
    if broadcast_success is None:
        broadcast_success = link_model(radio)
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
            log.add(t, EventKind.ACK_RX_END, int(u), PACKET_ID,
                    int(cluster_of[u]))

    while (received < g).any() and t + sim.packet_len_ms <= sim.max_time_ms:
        packet_id = bs_tx if coded else PACKET_ID
        bs_tx += 1
        t += sim.packet_len_ms
        log.add(t, EventKind.BS_BROADCAST_END, -1, packet_id, -1)
        idx = np.flatnonzero(received < g)
        hit = idx[broadcast_success(p_bs[idx], rng)]
        received[hit] += 1
        done = hit[received[hit] == g]
        delivery[done] = t
        via_broadcast[done] = coded or bs_tx == 1
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
       g=st.sampled_from([1, 8]), coded=st.booleans(),
       mode=st.sampled_from(["fixed_total", "density"]),
       num_clusters=st.integers(1, 10),
       max_time_ms=st.sampled_from([40.0, 95.0, 10_000.0]),
       collect_events=st.booleans())
@settings(max_examples=150, deadline=None)
def test_active_set_rounds_match_two_mask_loop(data, seed, g, coded, mode,
                                               num_clusters, max_time_ms,
                                               collect_events):
    """The count path gives the round-by-round reference loop's outcome,
    counters and events bit for bit, with tight and loose time budgets.

    Each member's completion round is drawn (None: never); the reference
    loop is driven by a scripted reception hook whose successes end in
    exactly those rounds, and the count path by a round hook returning
    them."""
    config = ScenarioConfig(mode=mode, lambda_per_m2=1e-5,
                            num_clusters=num_clusters,
                            sim=SimParams(max_time_ms=max_time_ms))
    sim = config.sim
    topo = build_topology(config, np.random.default_rng(seed))
    n = topo.n_uavs
    extra = data.draw(st.lists(st.none() | st.integers(0, 30),
                               min_size=n, max_size=n))
    rounds = [math.inf if e is None else g + e for e in extra]
    successes = _scripted_successes(rounds, g, np.random.default_rng(seed))
    calls = []

    def scripted(power, rng):
        k = len(calls) + 1
        active = [u for u in range(n) if rounds[u] >= k]
        assert power.shape == (len(active),)
        calls.append(k)
        return np.array([k in successes[u] for u in active], dtype=bool)

    def counted(power, g_, rng):
        assert g_ == g
        assert power.tobytes() == mean_received_power(
            LinkKind.BS_TO_UAV, topo.bs_distances(), RADIO).tobytes()
        return np.array(rounds, dtype=float)

    out = _bs_rounds("x", coded, g, topo, RADIO, sim, np.random.default_rng(0),
                     collect_events, counted)
    ref = _two_mask_bs_rounds("x", coded, g, topo, RADIO, sim,
                              np.random.default_rng(0), collect_events,
                              scripted)
    assert out.delivery_time_ms.tobytes() == ref.delivery_time_ms.tobytes()
    assert out.undelivered.tolist() == ref.undelivered.tolist()
    assert out.via_broadcast.tolist() == ref.via_broadcast.tolist()
    assert (out.bs_transmissions, out.uav_transmissions,
            out.control_messages) == (ref.bs_transmissions,
                                      ref.uav_transmissions,
                                      ref.control_messages)
    assert out.events == ref.events
    assert len(calls) == ref.bs_transmissions


def _rounds_per_round_fading(power, g, rng, max_rounds):
    """Completion rounds from one `link_model` fading draw per listener
    and round, until every listener holds g receptions (inf past
    `max_rounds`)."""
    link = link_model(RADIO)
    got = np.zeros(power.size, dtype=int)
    rounds = np.full(power.size, np.inf)
    for k in range(1, max_rounds + 1):
        active = np.flatnonzero(got < g)
        if not active.size:
            break
        got[active] += link(power[active], rng)
        rounds[active[got[active] == g]] = k
    return rounds


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("g", [1, 8])
@pytest.mark.parametrize("q", [0.0, 1e-320, 1e-300, 0.05, 0.5, 0.9, 1.0])
def test_round_model_matches_per_round_fading(q, g):
    """The default round hook draws the negative-binomial completion round
    of per-round fading draws: both samples' CDFs sit within the DKW band
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
    rounds = round_model(RADIO)(powers, g, rng)
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
    config = ScenarioConfig()
    sums, count = 0.0, 0
    for rep in range(4000):
        rng = np.random.default_rng(np.random.SeedSequence(123, spawn_key=(rep,)))
        topo = build_topology(config, rng)
        out = run_clustering_scheme(topo, RADIO, SIM, rng)
        d = out.delivery_time_ms[out.delivered]
        sums += d.sum()
        count += d.size
    mean = sums / count
    p_cov = coverage_probability(config.geometry(), RADIO)
    p_suc = transmission_success_probability(50.0, RADIO)
    formula = average_delay(p_cov, p_suc, 10.0, 1.0)
    assert formula <= mean <= 1.10 * formula


def test_benchmark_all_served_first_round():
    out = run_ack_benchmark(ring_topology(6), RADIO, SIM,
                            np.random.default_rng(0),
                            broadcast_rounds=all_links_rounds(True))
    assert np.all(out.delivery_time_ms == 10.0)
    assert np.all(out.via_broadcast)
    assert out.bs_transmissions == 1
    assert out.control_messages == 6
    assert out.uav_transmissions == 0


def test_benchmark_rounds_are_geometric():
    topo = ring_topology(1)
    rng = np.random.default_rng(8)
    rounds = [run_ack_benchmark(topo, RADIO, SIM, rng,
                                broadcast_rounds=fixed_success_rounds(0.3)
                                ).bs_transmissions
              for _ in range(20_000)]
    mean = np.mean(rounds)
    se = np.std(rounds, ddof=1) / math.sqrt(len(rounds))
    assert abs(mean - 1.0 / 0.3) < 4.0 * se


def test_benchmark_round_count_matches_series():
    """Mean rounds to serve 5 members at p = 0.8 matches the exact series.

    rounds R = max of 5 iid geometrics, E[R] = sum_k>=0 (1 - (1 - q^k)^5)
    with q the per-round miss probability.
    """
    topo = ring_topology(5)
    rng = np.random.default_rng(7)
    rounds = [run_ack_benchmark(topo, RADIO, SIM, rng,
                                broadcast_rounds=fixed_success_rounds(0.8)
                                ).bs_transmissions
              for _ in range(20_000)]
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
    out = run_ack_benchmark(ring_topology(3), RADIO,
                            SimParams(max_time_ms=35.0),
                            np.random.default_rng(0),
                            broadcast_rounds=all_links_rounds(False))
    assert out.bs_transmissions == 3
    assert np.all(out.undelivered)
    assert out.control_messages == 0


def test_benchmark_rounds_serialize_acks():
    """Hand-worked timeline: one member served per round, each round's ACK
    (1 ms) delays the next 10 ms broadcast.

    round 1 ends 10, member 0 ACKs until 11; round 2 ends 21, member 1 ACKs
    until 22; round 3 ends 32, member 2 ACKs until 33.
    """
    out = run_ack_benchmark(ring_topology(3), RADIO, SIM,
                            np.random.default_rng(0), collect_events=True,
                            broadcast_rounds=fixed_rounds(1, 2, 3))
    assert out.delivery_time_ms.tolist() == [10.0, 21.0, 32.0]
    assert out.via_broadcast.tolist() == [True, False, False]
    assert out.bs_transmissions == 3
    assert out.control_messages == 3
    assert [(e.time_ms, e.kind, e.actor) for e in out.events] == [
        (10.0, EventKind.BS_BROADCAST_END, -1), (11.0, EventKind.ACK_RX_END, 0),
        (21.0, EventKind.BS_BROADCAST_END, -1), (22.0, EventKind.ACK_RX_END, 1),
        (32.0, EventKind.BS_BROADCAST_END, -1), (33.0, EventKind.ACK_RX_END, 2)]
    assert {e.packet_id for e in out.events} == {0}


def test_rnc_coded_packet_ids_then_terminal_acks():
    """Generation of 2 on a perfect channel: coded packets 0 and 1 end at
    10 and 20 ms, then the three members ACK at 21, 22 and 23 ms."""
    out = run_rnc_scheme(ring_topology(3), RADIO,
                         SimParams(rnc_generation_size=2),
                         np.random.default_rng(0), collect_events=True,
                         broadcast_rounds=all_links_rounds(True))
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
    out = run_rnc_scheme(ring_topology(4), RADIO,
                         SimParams(rnc_generation_size=3),
                         np.random.default_rng(0),
                         broadcast_rounds=all_links_rounds(True),
                         collect_events=True)
    assert np.all(out.delivery_time_ms == 30.0)
    assert out.bs_transmissions == 3
    assert out.control_messages == 4  # one terminal ACK per member
    acks = [e for e in out.events if e.kind is EventKind.ACK_RX_END]
    assert len(acks) == 4 and all(e.time_ms > 30.0 for e in acks)


def test_rnc_single_packet_generation_is_geometric():
    topo = ring_topology(1)
    rng = np.random.default_rng(10)
    rounds = [run_rnc_scheme(topo, RADIO, SimParams(rnc_generation_size=1),
                             rng, broadcast_rounds=fixed_success_rounds(0.3)
                             ).bs_transmissions
              for _ in range(20_000)]
    mean = np.mean(rounds)
    se = np.std(rounds, ddof=1) / math.sqrt(len(rounds))
    assert abs(mean - 1.0 / 0.3) < 4.0 * se


def test_rnc_round_count_matches_negative_binomial_max():
    """Rounds to decode = max over members of a negative-binomial count."""
    topo = ring_topology(5)
    rng = np.random.default_rng(9)
    rounds = [run_rnc_scheme(topo, RADIO, SimParams(rnc_generation_size=4),
                             rng, broadcast_rounds=fixed_success_rounds(0.8)
                             ).bs_transmissions
              for _ in range(20_000)]
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
    out = run_rnc_scheme(ring_topology(3), RADIO, SimParams(max_time_ms=25.0),
                         np.random.default_rng(0),
                         broadcast_rounds=all_links_rounds(False))
    assert out.bs_transmissions == 2
    assert np.all(out.undelivered)
    assert out.control_messages == 0


def test_event_log_round_trips_to_csv(tmp_path):
    out = run_clustering_scheme(four_uav_topology(), RADIO, SIM,
                                np.random.default_rng(1), collect_events=True,
                                broadcast_success=reception_pattern(
                                    True, True, False, False),
                                peer_success=all_links(True))
    path = tmp_path / "events.csv"
    write_event_log(path, out.events)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,actor,event_kind,packet_id,cluster_id,collided"
    assert len(lines) == 1 + len(out.events)
    cells = lines[1].split(",")
    assert cells[1] == "-1" and cells[2] == "bs_broadcast_end"
    assert float(cells[0]) == 10.0
