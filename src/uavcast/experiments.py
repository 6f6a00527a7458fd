"""Monte-Carlo studies and their aggregation into metric tables.

Every study emits a `MetricTable` whose rows follow one CSV schema:

    study,sweep_param,sweep_value,scheme,metric,mean,stderr,n

Randomness comes from numpy's own `SeedSequence` spawn keys under the
config's base seed (`_rng`), so reruns with the same base seed are bit for
bit reproducible.  A validation sweep point draws from the generator of
key (study, sweep index).  A delay or ase scenario, one (study, sweep
indices), runs every scheme on the same drops and round-1 fading (common
random numbers), drawn a batch of replications at a time, over whole
arrays of drops, from streams whose layout `_scenario` documents; the
tests rebuild each replication from that layout alone.  `replay_epoch`
and `replay_drops` give one replication's epoch and the first drops of a
delay scenario, through the same code.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from .channel import (
    LinkKind,
    completion_rounds,
    decode_probability,
    decodes,
    mean_received_power,
)
from .config import ScenarioConfig
from .distributions import ClusterGeometry
from .errors import ParameterError
from .geometry import (
    _bs_distances,
    _bs_site,
    _drop_law,
    _drop_points,
    _DropPlan,
    polar_offset_distance,
    polar_pair_distance,
    sample_uniform_disk_polar,
)
from .protocol import SCHEME_RUNNERS, SchemeOutcome, run_epochs

_STUDY_IDS = {"validation_coverage": 1, "validation_success": 2,
              "design_insight": 3, "delay": 4, "ase": 5}

DEFAULT_V_GRID = (200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0)
DEFAULT_R_GRID = (10.0, 25.0, 50.0, 75.0, 100.0)
DEFAULT_DESIGN_C_GRID = (2, 4, 6, 8, 10)
DEFAULT_DESIGN_V_GRID = (400.0, 800.0, 1200.0)
DEFAULT_D0_GRID = (400.0, 800.0, 1200.0)
DEFAULT_C_GRID = (2, 5, 10)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep dimension: a parameter name and its grid of values."""

    parameter: str
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ParameterError(f"{self.parameter}: empty sweep")
        if any(not math.isfinite(v) for v in self.values):
            raise ParameterError(f"{self.parameter}: sweep values must be finite")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ParameterError(
                f"{self.parameter}: sweep values must be strictly increasing")


@dataclass(frozen=True)
class MetricRow:
    study: str
    sweep_param: str
    sweep_value: float
    scheme: str
    metric: str
    mean: float
    stderr: float
    n: int


@dataclass
class MetricTable:
    rows: list[MetricRow]

    CSV_HEADER = ("study", "sweep_param", "sweep_value", "scheme", "metric",
                  "mean", "stderr", "n")

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_HEADER)
        for r in self.rows:
            writer.writerow([r.study, r.sweep_param, f"{r.sweep_value:.10g}",
                             r.scheme, r.metric, f"{r.mean:.10g}",
                             f"{r.stderr:.10g}", r.n])
        return buf.getvalue()

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())

    def select(self, **criteria) -> list[MetricRow]:
        """Rows whose attributes equal all given criteria."""
        out = self.rows
        for name, wanted in criteria.items():
            out = [r for r in out if getattr(r, name) == wanted]
        return out

    def value(self, **criteria) -> float:
        """Mean of the single row matching the criteria."""
        rows = self.select(**criteria)
        if len(rows) != 1:
            raise ParameterError(
                f"expected exactly one row for {criteria}, found {len(rows)}")
        return rows[0].mean


# Members per batch of `_replicated`: wide enough to spread each numpy
# call, and each lock-step recovery iteration, over many drops (163 drops
# at the default 50 members), narrow enough that a batch's memory is
# bounded in members, whatever the replication count and the swarm size:
# a `delay` clustering call at d0 = 1200 m, C = 2 over 163 replications
# peaks at about 3.5 MB traced at 50 members and at 2,000 (1.4 and 53.9 MB with
# batches of 64 replications).
_BATCH_MEMBERS = 8192


def _rng(base_seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """The generator of spawn key `key` under `base_seed`:
    `default_rng(SeedSequence(base_seed, spawn_key=key))`."""
    if base_seed < 0:
        raise ParameterError(f"base_seed must be non-negative, got {base_seed}")
    return np.random.default_rng(
        np.random.SeedSequence(base_seed, spawn_key=key))


def _cluster_counts(c_values) -> tuple[int, ...]:
    """The cluster-count grid as ints; every value must be a positive
    integer, since a fractional count would be truncated silently."""
    try:
        ok = all(c >= 1 and c == int(c) for c in c_values)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ParameterError(
            f"c_values: cluster counts must be positive integers, got {list(c_values)}")
    return tuple(int(c) for c in c_values)


def _grid(parameter: str, values) -> tuple[float, ...]:
    """A distance grid under the `SweepSpec` rule: non-empty, finite and
    strictly increasing, so no row is written twice or for NaN."""
    return SweepSpec(parameter, tuple(values)).values


def _mean_stderr(samples: np.ndarray) -> tuple[float, float, int]:
    """Mean, standard error and count, skipping NaN entries.  Equal
    samples have standard error 0, not the rounding of their mean."""
    valid = samples[~np.isnan(samples)]
    n = valid.size
    if n == 0:
        return float("nan"), float("nan"), 0
    if n == 1:
        return float(valid[0]), float("nan"), 1
    stderr = valid.std(ddof=1) / math.sqrt(n) if np.ptp(valid) else 0.0
    return float(valid.mean()), float(stderr), n


def run_validation_study(kind: str, config: ScenarioConfig,
                         sweep: SweepSpec | None = None) -> MetricTable:
    """Closed-form probabilities against direct geometric simulation.

    kind "coverage": broadcast decoding probability vs the cluster-center
    distance.  kind "success": member-to-member decoding probability vs the
    cluster radius.  The simulation draws positions and fading directly and
    never touches the quadrature path.
    """
    if kind not in ("coverage", "success"):
        raise ParameterError(f"kind: expected 'coverage' or 'success', got {kind!r}")
    study = f"validation_{kind}"
    if sweep is None:
        sweep = (SweepSpec("v_norm", DEFAULT_V_GRID) if kind == "coverage"
                 else SweepSpec("radius_r", DEFAULT_R_GRID))
    n_trials = config.replications
    radio = config.radio
    rows = []
    for i, value in enumerate(sweep.values):
        rng = _rng(config.base_seed, (_STUDY_IDS[study], i))
        if kind == "coverage":
            geom = config.geometry(v_norm=value)
            dist = polar_offset_distance(
                geom.v_norm,
                *sample_uniform_disk_polar(rng, n_trials, geom.radius_r),
                geom.delta_h)
            link = LinkKind.BS_TO_UAV
            theory = analysis.coverage_probability(geom, radio)
            metric = "p_cov"
        else:
            a = sample_uniform_disk_polar(rng, n_trials, value)
            b = sample_uniform_disk_polar(rng, n_trials, value)
            dist = polar_pair_distance(*a, *b)
            link = LinkKind.UAV_TO_UAV
            theory = analysis.transmission_success_probability(value, radio)
            metric = "p_suc"
        power = mean_received_power(link, dist, radio)
        ok = decodes(power, rng.exponential(1.0, power.shape), radio)
        mean, stderr, n = _mean_stderr(ok.astype(float))
        rows.append(MetricRow(study, sweep.parameter, value, "theory", metric,
                              theory, 0.0, 0))
        rows.append(MetricRow(study, sweep.parameter, value, "monte_carlo",
                              metric, mean, stderr, n))
    return MetricTable(rows)


def design_radius(total_uavs: int, num_clusters: int, lambda_off: float) -> float:
    """Cluster radius that keeps the member density at lambda_off when
    total_uavs are split into num_clusters clusters."""
    if num_clusters < 1 or total_uavs < 1 or lambda_off <= 0:
        raise ParameterError("design_radius arguments must be positive")
    return math.sqrt(total_uavs / (num_clusters * lambda_off * math.pi))


def run_design_insight_study(config: ScenarioConfig,
                             c_values=DEFAULT_DESIGN_C_GRID,
                             v_values=DEFAULT_DESIGN_V_GRID) -> MetricTable:
    """Recovery success vs the number of clusters, analytic only.

    For each cluster count the radius shrinks to hold the member density
    fixed (`design_radius`), trading per-cluster holder diversity against
    shorter relay links.  Grid points whose geometry is infeasible (no
    members, or center distance inside the cluster disk) carry NaN means.
    """
    study = "design_insight"
    c_values = _cluster_counts(c_values)
    v_values = _grid("v_values", v_values)
    rows = []
    for c in c_values:
        r_c = design_radius(config.total_uavs, c, config.lambda_off_per_m2)
        try:
            p_suc = analysis.transmission_success_probability(r_c, config.radio)
            k = analysis.cluster_peer_count(config.lambda_off_per_m2, r_c)
        except ParameterError:
            p_suc, k = float("nan"), 0
        rows.append(MetricRow(study, "num_clusters", float(c), "theory",
                              "p_suc", p_suc, 0.0, 0))
        for v in v_values:
            try:
                if k < 1:
                    raise ParameterError("no members per cluster")
                geom = ClusterGeometry(v_norm=v, radius_r=r_c,
                                       h1=config.h1_m, h2=config.h2_m)
                p_cov = analysis.coverage_probability(geom, config.radio)
                p_req = analysis.request_success_probability(
                    p_cov, p_suc, config.lambda_off_per_m2, r_c)
            except ParameterError:
                p_cov, p_req = float("nan"), float("nan")
            rows.append(MetricRow(study, "num_clusters", float(c), "theory",
                                  f"p_cov_v{v:g}", p_cov, 0.0, 0))
            rows.append(MetricRow(study, "num_clusters", float(c), "theory",
                                  f"p_req_v{v:g}", p_req, 0.0, 0))
    return MetricTable(rows)


@dataclass
class _Drops:
    """The drops of one shape in a batch: their replication indices `rows`
    and, row for row, their blocks of uniforms, their round-1 fading rows
    of n exponentials (empty when one packet exceeds the time budget) and,
    for each BS scheme of the delay study, its later rounds' (m, n, g)
    block of exponentials (empty when round 1 draws none)."""

    plan: _DropPlan
    rows: np.ndarray
    uniforms: np.ndarray
    fading: np.ndarray
    later: dict[str, np.ndarray]


def _take(flat: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The rows of `width` entries of `flat` (values, or rows of values)
    that begin at `starts`: a view when they tile all of `flat`."""
    if starts.size * width == len(flat):
        return flat.reshape(starts.size, width, *flat.shape[1:])
    return flat[starts[:, None] + np.arange(width)]


def _scenario(study: str, config: ScenarioConfig, key: tuple[int, ...],
              schemes):
    """The replications of one scenario, a batch at a time: yields the
    `_Drops` of each shape in each batch with the scenario's recovery
    reader `recover_at(rep, block)`, which fills `block` with replication
    `rep`'s next recovery uniforms.

    Every scheme runs on the same drops and round-1 fading (common random
    numbers).  The scenario's streams are the generators of spawn keys
    (`_rng`):

    - drops, (study, *key, 0, 0): in density mode the Poisson count of
      every replication, in one call, then each replication's block of
      uniforms (`_DropPlan`), in replication order;
    - fading, (study, *key, 0, 1): each replication's n round-1 fadings,
      in replication order; none for an empty drop, nor for any drop when
      one packet exceeds the time budget;
    - recovery, (study, *key, 0, 2): clustering epoch r reads its blocks
      of uniforms (`protocol.run_epochs`), each sized by its live cells,
      in order from the stream's output r * 2**64 on (`PCG64.advance`
      from the stream's last position);
    - later rounds, (study, *key, i, 1) for the delay study's BS scheme
      i of `SCHEME_RUNNERS` among `schemes`: g exponentials per round-1
      fading, in the same order, g the receptions a member needs
      (`rnc_generation_size` for RNC, 1 for the benchmark), read as an
      (n, g) block by `channel.completion_rounds`.

    Replications run in batches of about `_BATCH_MEMBERS` members
    (`_batches`).  A batch draws each stream's values for all of its
    drops in one call, and numpy fills them in sequence, so every drop's
    values are the same whatever the batch width.
    """
    prefix = (_STUDY_IDS[study], *key)
    drop_rng, fading_rng, recovery = (
        _rng(config.base_seed, (*prefix, 0, stream)) for stream in range(3))
    plans = _drop_law(config)(drop_rng, config.replications)
    sim = config.sim
    fits = sim.packet_len_ms <= sim.max_time_ms
    # Each BS scheme's later-rounds stream and receptions per member.
    order = list(SCHEME_RUNNERS)
    later_rngs = {scheme: (_rng(config.base_seed,
                                (*prefix, order.index(scheme), 1)),
                           sim.rnc_generation_size if scheme == "rnc" else 1)
                  for scheme in schemes
                  if study == "delay" and scheme != "clustering"}
    at, read = 0, [0] * config.replications  # stream position, reads per rep

    def recover_at(rep, block):
        """Fill `block` with replication `rep`'s next recovery uniforms.
        PCG64 cycles through 2**128 outputs, so one jump from the stream's
        position reaches any offset, behind it too."""
        nonlocal at
        offset = (rep << 64) + read[rep]
        recovery.bit_generator.advance((offset - at) % 2 ** 128)
        recovery.random(out=block)
        at, read[rep] = offset + block.size, read[rep] + block.size

    for lo, groups in _batches(plans, config.mode == "fixed_total"):
        blocks, lengths = np.zeros((2, sum(i.size for _, i in groups)),
                                   dtype=np.intp)
        for plan, index in groups:
            blocks[index], lengths[index] = plan.read.size, plan.n_uavs * fits
        uniforms = drop_rng.random(blocks.sum())
        fading = fading_rng.standard_exponential(lengths.sum())
        later = {scheme: rng.standard_exponential((lengths.sum(), g))
                 for scheme, (rng, g) in later_rngs.items()}
        u_at, f_at = (np.cumsum(sizes) - sizes for sizes in (blocks, lengths))
        for plan, index in groups:
            width = plan.n_uavs * fits
            yield _Drops(plan, lo + index,
                         _take(uniforms, u_at[index], plan.read.size),
                         _take(fading, f_at[index], width),
                         {scheme: _take(values, f_at[index], width)
                          for scheme, values in later.items()}), recover_at


def _replicated(study: str, config: ScenarioConfig,
                key: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Every scheme's metrics of every replication, in replication order:
    rows of (mean delay, delivery ratio) in the delay study, the ase in
    the ase study, for each of `config.schemes`, over the stream layout
    `_scenario` documents.  `_continue` computes and finishes each
    batch's drops of one shape at once.

    The ase study's benchmark counts the members the first broadcast
    serves, so its rows and RNC's reduce the round-1 decisions, no BS
    epoch runs, and clustering recovers only when its own rows are asked
    for.
    """
    sim, schemes = config.sim, config.schemes
    rate_density = (config.lambda_off_per_m2
                    * math.log2(1.0 + config.radio.snr_threshold))
    out = {scheme: np.empty((config.replications, 2) if study == "delay"
                            else config.replications) for scheme in schemes}
    for drops, recover_at in _scenario(study, config, key, schemes):
        outcomes = _continue(config, drops, schemes, recover_at)
        for scheme, metrics in out.items():
            delivery, via_broadcast = outcomes[scheme][:2]
            metrics[drops.rows] = _reduce(study, scheme, sim, delivery,
                                          via_broadcast, rate_density)
    return out


def _batches(plans, fixed: bool):
    """Each batch of `_replicated`: its first replication and its drops by
    plan, as (plan, positions in the batch) in order of first use.  A batch
    closes when one more drop the size of its last would take it past
    `_BATCH_MEMBERS` members, an empty drop counting as one.  When all
    drops share one plan (`fixed`), batches of max(1, _BATCH_MEMBERS // n)
    drops follow without a walk over the drops."""
    if fixed:
        width = max(1, _BATCH_MEMBERS // max(1, plans[0].n_uavs))
        for lo in range(0, len(plans), width):
            yield lo, [(plans[0], np.arange(min(width, len(plans) - lo)))]
        return
    lo, members, groups = 0, 0, {}
    for rep, plan in enumerate(plans):
        size = max(1, plan.n_uavs)
        members += size
        groups.setdefault(plan.bounds, (plan, []))[1].append(rep - lo)
        if members + size > _BATCH_MEMBERS or rep + 1 == len(plans):
            yield lo, [(p, np.array(i)) for p, i in groups.values()]
            lo, members, groups = rep + 1, 0, {}


def _continue(config: ScenarioConfig, drops: _Drops, schemes, recover_at,
              run=None) -> dict:
    """Each of `schemes`' outcome on the drops of one shape, from
    `run(scheme, xy, bounds, first, radio, sim, draw)`: by default
    `protocol.run_epochs`, whose (delivery, via_broadcast, counters) hold
    the delivery times (NaN for undelivered) and round-1 marks as (m, n)
    arrays.  Geometry, BS distances, mean powers and round-1 decisions are
    computed over all the drops at once and shared by the schemes.

    Round 1 serves the members whose fading decodes, none when one packet
    exceeds the budget.  A BS scheme's completion rounds read its block of
    `drops.later` through `channel.completion_rounds`; an empty block
    leaves no member to complete.  A BS scheme without a block (the ase
    study) stops at round 1: its outcome is (None, round-1 decisions).
    Clustering recovery fills epoch e's blocks through
    `recover_at(rows[e], block)`, which serves each replication's recovery
    uniforms in order.
    """
    m, n = len(drops.rows), drops.plan.n_uavs
    radio, sim = config.radio, config.sim
    _, xy = _drop_points(drops.plan, drops.uniforms)
    power = mean_received_power(LinkKind.BS_TO_UAV,
                                _bs_distances(xy, *_bs_site(config)), radio)
    first = np.zeros((m, n), dtype=bool)
    if sim.packet_len_ms <= sim.max_time_ms:
        first = decodes(power, drops.fading, radio)
    rows, outcomes = drops.rows.tolist(), {}
    for scheme in schemes:
        rounds, later = first, drops.later.get(scheme)
        if scheme != "clustering":
            if later is None:
                outcomes[scheme] = None, first
                continue
            rounds = np.full((m, n), np.inf)
            if later.size:
                rounds = completion_rounds(
                    first, decode_probability(power, radio), later.shape[2],
                    later)
        outcomes[scheme] = (run or run_epochs)(
            scheme, xy, drops.plan.bounds, rounds, radio, sim,
            lambda e, out: recover_at(rows[e], out))
    return outcomes


def replay_epoch(config: ScenarioConfig, scheme: str,
                 collect_events: bool = False) -> SchemeOutcome:
    """Replication 0 of the config's delay scenario on a one-point grid
    (study key (0, 0)) with one replication, for `scheme`: its drop,
    round-1 fading, later rounds and recovery uniforms, finished by the
    scheme's `SCHEME_RUNNERS` runner.  So its delay and delivery ratio are
    the first row `run_delay_study` reduces at that point with
    `replications = 1`; in fixed_total mode, at any replication count.
    `collect_events` records the epoch's event log."""
    config = config.replace(replications=1)
    (drops, recover_at), = _scenario("delay", config, (0, 0), (scheme,))
    run = functools.partial(SCHEME_RUNNERS[scheme],
                            collect_events=collect_events)
    return _continue(config, drops, (scheme,), recover_at, run)[scheme]


def replay_drops(config: ScenarioConfig,
                 count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The drops of replications 0 to count - 1 of the config's delay
    scenario on a one-point grid with `count` replications, as (member
    points (n, 2), cluster of each member (n,)) in replication order."""
    out = [None] * count
    for drops, _ in _scenario("delay", config.replace(replications=count),
                              (0, 0), ()):
        _, xy = _drop_points(drops.plan, drops.uniforms)
        for rep, points in zip(drops.rows.tolist(), xy):
            out[rep] = points, drops.plan.cluster_of
    return out


def _reduce(study: str, scheme: str, sim, delivery: np.ndarray,
            via_broadcast: np.ndarray, rate_density: float):
    """Reduce the epochs of one drop shape (rows of `delivery`, NaN for
    undelivered, which the ase study's BS schemes do not read, and
    `via_broadcast`) to (mean delay, delivery ratio) rows in the delay
    study, the ase in the ase study; `rate_density` is lambda_off *
    log2(1 + threshold).  NaN throughout for empty drops."""
    m, n = via_broadcast.shape
    if not n:
        return np.full(m if study == "ase" else (m, 2), np.nan)
    if study == "ase":
        # The clustering ase counts every delivered member; the ACK
        # benchmark only members served by the first broadcast, later
        # rounds are retransmissions of the same packet.
        served = (~np.isnan(delivery) if scheme == "clustering"
                  else via_broadcast)
        return (np.count_nonzero(served, axis=1) / n) * rate_density
    delivered = ~np.isnan(delivery)
    count = np.count_nonzero(delivered, axis=1)
    ratio = count / n
    if scheme == "rnc":
        # Per-packet delay: the decode instant covers a whole generation
        # streamed back to back, so all but one packet length is pipeline
        # amortization.
        delivery = delivery - (sim.rnc_generation_size - 1) * sim.packet_len_ms
    # Each mean is the sum of the delivered delays, in row order, over
    # their count, which is the reduction `mean` performs on one epoch's
    # delays (a row sum of whole rows included), so the value is the same.
    mean_delay = np.full(m, np.nan)
    full = count == n
    mean_delay[full] = delivery[full].sum(axis=1) / n
    for i in np.flatnonzero(~full & (count > 0)):
        mean_delay[i] = delivery[i][delivered[i]].sum() / count[i]
    return np.column_stack([mean_delay, ratio])


def run_delay_study(config: ScenarioConfig, d0_values=DEFAULT_D0_GRID,
                    c_values=DEFAULT_C_GRID) -> MetricTable:
    """Simulated per-packet delay of every enabled scheme over (d0, C).

    Rows carry the replication mean of per-epoch delay averages (undelivered
    members excluded) plus a delivery-ratio metric; `analytic` rows give the
    closed-form clustering delay at center distance d0.
    """
    study = "delay"
    c_values = _cluster_counts(c_values)
    d0_values = _grid("d0_values", d0_values)
    rows = []
    for i_d0, d0 in enumerate(d0_values):
        analytic = analysis.average_delay(*_analytic_probabilities(config, d0),
                                          config.sim.packet_len_ms,
                                          config.sim.t_req_ms)
        for i_c, c in enumerate(c_values):
            scenario = config.replace(d0_m=d0, num_clusters=c)
            for scheme, metrics in _replicated(study, scenario,
                                               (i_d0, i_c)).items():
                delays, ratios = metrics.T
                mean, stderr, n = _mean_stderr(delays)
                rows.append(MetricRow(study, "num_clusters", float(c), scheme,
                                      f"delay_ms_d0_{d0:g}", mean, stderr, n))
                rmean, rstderr, rn = _mean_stderr(ratios)
                rows.append(MetricRow(study, "num_clusters", float(c), scheme,
                                      f"delivery_ratio_d0_{d0:g}", rmean,
                                      rstderr, rn))
            rows.append(MetricRow(study, "num_clusters", float(c), "analytic",
                                  f"delay_ms_d0_{d0:g}", analytic, 0.0, 0))
    return MetricTable(rows)


def run_ase_study(config: ScenarioConfig, d0_values=DEFAULT_D0_GRID,
                  c_values=DEFAULT_C_GRID) -> MetricTable:
    """Simulated area spectral efficiency of `config.schemes` over (d0, C).

    The clustering rows count members served either by the broadcast or by
    in-cluster recovery; benchmark rows count only the first broadcast,
    which serves the members clustering's own broadcast serves on the same
    epochs (`_replicated`).  The RNC baseline spends its airtime on coded
    repair of the same packets, so its delivered-rate density equals the
    benchmark's by construction and its rows duplicate them.
    """
    study = "ase"
    c_values = _cluster_counts(c_values)
    d0_values = _grid("d0_values", d0_values)
    rows = []
    for i_d0, d0 in enumerate(d0_values):
        analytic = analysis.average_ase(*_analytic_probabilities(config, d0),
                                        config.lambda_off_per_m2,
                                        config.radio.snr_threshold)
        for i_c, c in enumerate(c_values):
            scenario = config.replace(d0_m=d0, num_clusters=c)
            for scheme, ases in _replicated(study, scenario,
                                            (i_d0, i_c)).items():
                mean, stderr, n = _mean_stderr(ases)
                rows.append(MetricRow(study, "num_clusters", float(c), scheme,
                                      f"ase_d0_{d0:g}", mean, stderr, n))
            rows.append(MetricRow(study, "num_clusters", float(c), "analytic",
                                  f"ase_d0_{d0:g}", analytic, 0.0, 0))
    return MetricTable(rows)


def _analytic_probabilities(config: ScenarioConfig,
                            d0: float) -> tuple[float, float]:
    """(p_cov, p_suc) of the scenario's clusters at center distance d0."""
    p_cov = analysis.coverage_probability(config.geometry(v_norm=d0),
                                          config.radio)
    return p_cov, analysis.transmission_success_probability(
        config.radius_r_m, config.radio)
