"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run with -s to see them on
success) and asserts on the same condition, so the suite doubles as a
human-readable acceptance report.
"""

import math
import time

import numpy as np
from scipy import integrate

from conftest import FOUR_UAVS, epoch
from uavcast.analysis import (
    average_delay,
    cluster_peer_count,
    coverage_probability,
    request_success_probability,
    transmission_success_probability,
)
from uavcast.channel import RadioParams
from uavcast.config import ScenarioConfig
from uavcast.distributions import (
    ClusterGeometry,
    DistanceDistribution,
    bs_member_support,
    empirical_distance_check,
    pdf_bs_member_distance,
    pdf_center_offset,
    pdf_peer_distance,
    pdf_planar_bs_distance,
)
from uavcast.experiments import (
    replay_epoch,
    run_ase_study,
    run_delay_study,
    run_design_insight_study,
    run_validation_study,
)
from uavcast.protocol import EventKind

RADIO = RadioParams.defaults()


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{label}: {detail}"


def test_c01_distance_sampling_matches_tabulated_cdfs():
    """Inverse-CDF-free geometric sampling agrees with every tabulated CDF."""
    t0 = time.time()
    gaps = {}
    for v in (400.0, 800.0, 1200.0):
        dist = DistanceDistribution.bs_member(
            ClusterGeometry(v_norm=v, radius_r=50.0, h1=10.0, h2=20.0))
        gaps[f"bs_member(v={v:g})"] = empirical_distance_check(
            dist, 100_000, np.random.default_rng(16))
    for a in (10.0, 25.0, 45.0):
        dist = DistanceDistribution.peer(a, 50.0)
        gaps[f"peer(a={a:g})"] = empirical_distance_check(
            dist, 100_000, np.random.default_rng(17))
    elapsed = time.time() - t0
    worst = max(gaps, key=gaps.get)
    ok = all(g < 0.01 for g in gaps.values()) and elapsed < 30.0
    _report("C01 distance sampling vs tabulated CDFs", ok,
            f"worst gap {gaps[worst]:.4f} at {worst} (limit 0.01), "
            f"{elapsed:.1f}s (limit 30s)")


def test_c02_pdfs_normalize_and_peer_branches_join():
    """Random geometries: every pdf integrates to 1, branch junction is C0."""
    rng = np.random.default_rng(20260826)
    worst_norm = 0.0
    worst_junction = 0.0
    for _ in range(20):
        r = rng.uniform(5.0, 100.0)
        v = r + rng.uniform(1.0, 4.0 * r)
        h1, h2 = rng.uniform(0.0, 30.0, 2)
        a = rng.uniform(0.05, 0.95) * r
        geom = ClusterGeometry(v_norm=v, radius_r=r, h1=h1, h2=h2)

        planar, _ = integrate.quad(
            lambda x: float(pdf_planar_bs_distance(x, geom)),
            v - r, v + r, limit=200)
        lo, hi = bs_member_support(geom)
        spatial, _ = integrate.quad(
            lambda d: float(pdf_bs_member_distance(d, geom)), lo, hi, limit=200)
        peer, _ = integrate.quad(
            lambda d: float(pdf_peer_distance(d, a, r)), 0.0, r + a,
            points=[r - a], limit=200)
        offset, _ = integrate.quad(
            lambda t: float(pdf_center_offset(t, r)), 0.0, r)
        worst_norm = max(worst_norm, abs(planar - 1.0), abs(spatial - 1.0),
                         abs(peer - 1.0), abs(offset - 1.0))

        j = r - a
        inner = 2.0 * j / r ** 2
        arc = (2.0 * j / (np.pi * r ** 2)) * np.arccos(np.clip(
            (j + j) * (j - j) / (2.0 * a * j) - j / j, -1.0, 1.0))
        worst_junction = max(worst_junction, abs(arc - inner))
    ok = worst_norm < 1e-6 and worst_junction < 1e-9
    _report("C02 pdf normalization and junction continuity", ok,
            f"worst |integral-1| {worst_norm:.2e} (limit 1e-6), "
            f"worst junction mismatch {worst_junction:.2e} (limit 1e-9)")


def test_c03_quadrature_agrees_with_independent_simulation():
    """Coverage/relay probabilities vs a from-scratch positional simulation.

    The simulation below re-derives the link model (path loss, fading,
    threshold) without calling any package channel code, so agreement is an
    independent check of the quadrature path.
    """
    t0 = time.time()
    noise_mw = 20e6 * 10 ** (-17.4)
    rng = np.random.default_rng(31)
    n = 1_000_000

    def disk(r, cx=0.0):
        rad = r * np.sqrt(rng.random(n))
        th = rng.uniform(0.0, 2.0 * np.pi, n)
        return cx + rad * np.cos(th), rad * np.sin(th)

    worst_se = 0.0
    details = []
    for v in (400.0, 800.0, 1200.0):
        x, y = disk(50.0, v)
        d = np.sqrt(x * x + y * y + (20.0 - 10.0) ** 2)
        pl_db = 39.0 + 26.0 * np.log10(d) + 20.0 * np.log10(2.0 / 5.0)
        got = (1000.0 * 10 ** (-pl_db / 10.0) * rng.exponential(1.0, n)
               > 20.0 * noise_mw)
        se = got.std(ddof=1) / math.sqrt(n)
        quad_p = coverage_probability(
            ClusterGeometry(v_norm=v, radius_r=50.0, h1=10.0, h2=20.0), RADIO)
        worst_se = max(worst_se, abs(got.mean() - quad_p) / se)
        details.append(f"p_cov(v={v:g}) {abs(got.mean() - quad_p) / se:.2f}se")
    for r in (25.0, 50.0, 100.0):
        x1, y1 = disk(r)
        x2, y2 = disk(r)
        d = np.maximum(np.hypot(x1 - x2, y1 - y2), 1.0)
        pl_db = 41.0 + 22.7 * np.log10(d) + 20.0 * np.log10(5.8 / 5.0)
        got = (10.0 * 10 ** (-pl_db / 10.0) * rng.exponential(1.0, n)
               > 20.0 * noise_mw)
        se = got.std(ddof=1) / math.sqrt(n)
        quad_p = transmission_success_probability(r, RADIO)
        worst_se = max(worst_se, abs(got.mean() - quad_p) / se)
        details.append(f"p_suc(r={r:g}) {abs(got.mean() - quad_p) / se:.2f}se")
    elapsed = time.time() - t0
    ok = worst_se < 4.0 and elapsed < 120.0
    _report("C03 quadrature vs independent simulation", ok,
            f"worst gap {worst_se:.2f} standard errors (limit 4), "
            f"{elapsed:.1f}s (limit 120s); " + ", ".join(details))


def test_c04_recovery_success_exponent_and_full_coverage_limit():
    """Holder-count exponent and the full-coverage limit are exact."""
    exponent = cluster_peer_count(1e-3, 50.0)
    exact = all(request_success_probability(1.0, p, 1e-3, 50.0) == p
                for p in (0.0, 0.25, 0.5, 0.9800038586088075, 1.0))
    ok = exponent == 7 and exact
    _report("C04 recovery-success structure", ok,
            f"exponent {exponent} (expected 7), "
            f"full-coverage limit exact: {exact}")


def test_c05_delay_closed_form_limits():
    """Delay limits: broadcast-only and always-recover cases are exact."""
    covered = average_delay(1.0, 0.5, 10.0, 1.0)
    recovered = average_delay(0.0, 1.0, 10.0, 1.0)
    ok = covered == 10.0 and recovered == 21.0
    _report("C05 delay closed-form limits", ok,
            f"full coverage {covered} ms (expected 10), "
            f"guaranteed recovery {recovered} ms (expected 21)")


def test_c06_cluster_count_tradeoff_direction():
    """More, smaller clusters must help close in and hurt far out.

    The recovery-success curve is required to rise with cluster count at
    v = 400 m and fall at v = 1200 m under the density-preserving radius
    rule.
    """
    c_grid = (2, 4, 6, 8, 10)
    table = run_design_insight_study(ScenarioConfig(), c_values=c_grid,
                                     v_values=(400.0, 1200.0))
    near = [table.value(sweep_value=float(c), metric="p_req_v400")
            for c in c_grid]
    far = [table.value(sweep_value=float(c), metric="p_req_v1200")
           for c in c_grid]
    near_ok = all(b >= a - 1e-12 for a, b in zip(near, near[1:]))
    far_ok = all(b <= a + 1e-12 for a, b in zip(far, far[1:]))
    ok = near_ok and far_ok
    _report("C06 cluster-count tradeoff direction", ok,
            f"v=400 nondecreasing: {near_ok} "
            f"({', '.join(f'{p:.4f}' for p in near)}); "
            f"v=1200 nonincreasing: {far_ok} "
            f"({', '.join(f'{p:.4f}' for p in far)})")


def test_c07_delay_ranking_and_cluster_count_insensitivity():
    """Recovery beats both baselines far out, ties RNC close in, and its
    delay stays flat (<10% spread) across cluster counts."""
    config = ScenarioConfig(replications=2000)
    c_grid = (2, 5, 10)
    failures = []
    summaries = []
    for d0 in (400.0, 800.0, 1200.0):
        t0 = time.time()
        table = run_delay_study(config, d0_values=(d0,), c_values=c_grid)
        metric = f"delay_ms_d0_{d0:g}"
        cl = {c: table.value(scheme="clustering", metric=metric,
                             sweep_value=float(c)) for c in c_grid}
        bench = {c: table.value(scheme="benchmark", metric=metric,
                                sweep_value=float(c)) for c in c_grid}
        rnc = {c: table.value(scheme="rnc", metric=metric,
                              sweep_value=float(c)) for c in c_grid}
        elapsed = time.time() - t0
        if elapsed >= 300.0:
            failures.append(f"d0={d0:g} took {elapsed:.0f}s")
        for c in c_grid:
            if d0 in (800.0, 1200.0):
                if not (cl[c] < bench[c] and cl[c] < rnc[c]):
                    failures.append(
                        f"d0={d0:g} C={c}: clustering {cl[c]:.2f} not below "
                        f"benchmark {bench[c]:.2f} / rnc {rnc[c]:.2f}")
            else:
                rel = abs(cl[c] - rnc[c]) / rnc[c]
                if rel > 0.15:
                    failures.append(
                        f"d0={d0:g} C={c}: clustering {rel:.1%} from rnc")
        spread = (max(cl.values()) - min(cl.values())) / min(cl.values())
        if spread >= 0.10:
            failures.append(f"d0={d0:g}: cluster-count spread {spread:.1%}")
        summaries.append(
            f"d0={d0:g}: clustering " +
            "/".join(f"{cl[c]:.2f}" for c in c_grid) +
            f" ms, spread {spread:.1%}, benchmark "
            + "/".join(f"{bench[c]:.2f}" for c in c_grid)
            + ", rnc " + "/".join(f"{rnc[c]:.2f}" for c in c_grid)
            + f", {elapsed:.0f}s")
    _report("C07 delay ranking and cluster-count insensitivity",
            not failures,
            "; ".join(summaries)
            + ("" if not failures else " | violations: " + "; ".join(failures)))


def test_c08_ase_ranking_and_rnc_equivalence():
    """Recovery never wastes spectrum: its ASE is at least the benchmark's
    everywhere, and the RNC rows replicate the benchmark exactly."""
    config = ScenarioConfig(replications=1000)
    table = run_ase_study(config)
    failures = []
    min_margin = math.inf
    for d0 in (400.0, 800.0, 1200.0):
        metric = f"ase_d0_{d0:g}"
        for c in (2, 5, 10):
            cl = table.select(scheme="clustering", metric=metric,
                              sweep_value=float(c))[0]
            bench = table.select(scheme="benchmark", metric=metric,
                                 sweep_value=float(c))[0]
            rnc = table.select(scheme="rnc", metric=metric,
                               sweep_value=float(c))[0]
            if cl.mean < bench.mean:
                failures.append(f"d0={d0:g} C={c}: clustering below benchmark")
            min_margin = min(min_margin, cl.mean - bench.mean)
            if (rnc.mean, rnc.stderr, rnc.n) != \
                    (bench.mean, bench.stderr, bench.n):
                failures.append(f"d0={d0:g} C={c}: rnc row differs from benchmark")
    _report("C08 ASE ranking and RNC equivalence", not failures,
            f"min clustering-benchmark margin {min_margin:.2e} "
            "bit/s/Hz/m^2 over 9 grid points; rnc rows identical"
            + ("" if not failures else " | " + "; ".join(failures)))


def test_c09_protocol_bookkeeping_invariants():
    """No duplicate replies, no requests for held packets, and the scripted
    two-miss scenario produces exactly one request and one reply."""
    violations = []
    for rep in range(1000):
        out = replay_epoch(ScenarioConfig(base_seed=rep), "clustering",
                           collect_events=True)
        replies_since = {}
        for e in out.events:
            if e.kind is EventKind.REQUEST_TX_END:
                held = out.delivery_time_ms[e.actor]
                if np.isfinite(held) and held < e.time_ms - 1e-9:
                    violations.append(f"rep {rep}: request for held packet")
                if not e.collided:
                    replies_since[e.cluster_id] = 0
            elif e.kind is EventKind.REPLY_TX_END and not e.collided:
                replies_since[e.cluster_id] = replies_since.get(e.cluster_id, 9) + 1
                if replies_since[e.cluster_id] > 1:
                    violations.append(f"rep {rep}: duplicate reply")

    scripted = epoch("clustering", FOUR_UAVS, [True, True, False, False],
                     chance=1, seed=1)
    requests = [(e.actor, e.collided) for e in scripted.events
                if e.kind is EventKind.REQUEST_TX_END]
    replies = [(e.actor, e.collided) for e in scripted.events
               if e.kind is EventKind.REPLY_TX_END]
    second_miss_silent = not any(actor == 3 for actor, _ in requests)
    scripted_ok = (requests == [(2, False)] and len(replies) == 1
                   and not replies[0][1] and second_miss_silent
                   and bool(np.all(scripted.delivered)))
    if not scripted_ok:
        violations.append(
            f"scripted scenario: requests {requests}, replies {replies}")
    _report("C09 protocol bookkeeping invariants", not violations,
            "1000 epochs clean, scripted scenario: one request by the first "
            "miss, one reply, second miss silent and served"
            + ("" if not violations else " | " + "; ".join(violations[:5])))


def test_c10_reruns_are_byte_identical(tmp_path):
    """Every study writes exactly the same CSV when rerun with one seed."""
    runs = {
        "validation_coverage": lambda: run_validation_study(
            "coverage", ScenarioConfig(replications=2000)),
        "validation_success": lambda: run_validation_study(
            "success", ScenarioConfig(replications=2000)),
        "design_insight": lambda: run_design_insight_study(
            ScenarioConfig(), c_values=(2, 5), v_values=(400.0,)),
        "delay": lambda: run_delay_study(
            ScenarioConfig(replications=40), d0_values=(400.0,),
            c_values=(2, 5)),
        "ase": lambda: run_ase_study(
            ScenarioConfig(replications=40), d0_values=(400.0,),
            c_values=(2, 5)),
    }
    mismatched = []
    for name, run in runs.items():
        first, second = run(), run()
        path_a = tmp_path / f"{name}_a.csv"
        path_b = tmp_path / f"{name}_b.csv"
        first.to_csv(path_a)
        second.to_csv(path_b)
        if path_a.read_bytes() != path_b.read_bytes():
            mismatched.append(name)
    _report("C10 rerun reproducibility", not mismatched,
            "all five study CSVs byte-identical on rerun"
            + ("" if not mismatched else f" | mismatched: {mismatched}"))
