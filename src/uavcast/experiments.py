"""Monte-Carlo studies and their aggregation into metric tables.

Every study emits a `MetricTable` whose rows follow one CSV schema:

    study,sweep_param,sweep_value,scheme,metric,mean,stderr,n

Randomness comes from numpy's own `SeedSequence` spawn keys under the
config's base seed (`_rng`), so reruns with the same base seed are bit for
bit reproducible.  A validation sweep point draws from the generator of
key (study, sweep index).  A delay or ase scenario, one (study, sweep
indices), runs every scheme on the same drops and round-1 fading (common
random numbers), drawn a batch of replications at a time, over whole
arrays of drops, from streams whose layout `_replicated` documents; the
tests rebuild each replication from that layout alone.
"""

from __future__ import annotations

import csv
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
    link_model,
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
from .protocol import run_epochs

_STUDY_IDS = {"validation_coverage": 1, "validation_success": 2,
              "design_insight": 3, "delay": 4, "ase": 5}
_SCHEME_ORDER = ("clustering", "benchmark", "rnc")

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
    hook = link_model(radio)
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
        ok = hook(mean_received_power(link, dist, radio), rng)
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
    for each BS scheme that runs, its later rounds' (m, n, g) block of
    exponentials (empty when round 1 draws none)."""

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


def _replicated(study: str, config: ScenarioConfig,
                key: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Every scheme's metrics of every replication, in replication order:
    rows of (mean delay, delivery ratio) for each of `config.schemes` in
    the delay study, the ase for each of `_SCHEME_ORDER` in the ase study.

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
      of uniforms (`protocol.run_epochs`) in order from the stream's
      output r * 2**64 on (`PCG64.advance` from the stream's start);
    - later rounds, (study, *key, i, 1) for the delay study's BS scheme
      i of `_SCHEME_ORDER`: g exponentials per round-1 fading, in the same
      order, g the receptions a member needs (`rnc_generation_size` for
      RNC, 1 for the benchmark), read as an (n, g) block by
      `channel.completion_rounds`.

    The ase study's benchmark counts the members the first broadcast
    serves, which are clustering's `via_broadcast`, so its rows and RNC's
    reduce the clustering epochs and no BS epoch runs.

    Replications run in batches of about `_BATCH_MEMBERS` members
    (`_batches`).  A batch draws each stream's values for all of its
    drops in one call, and numpy fills them in sequence.  So every
    replication's outcome is the one `SCHEME_RUNNERS` gives it on a drop
    from `build_topology` with a generator that serves these values in
    the order they are asked for, bit for bit, whatever the batch width.
    `_continue` computes and finishes the batch's drops of each shape at
    once.
    """
    prefix = (_STUDY_IDS[study], *key)
    drop_rng, fading_rng, recovery = (
        _rng(config.base_seed, (*prefix, 0, stream)) for stream in range(3))
    plans = _drop_law(config)(drop_rng, config.replications)
    sim = config.sim
    fits = sim.packet_len_ms <= sim.max_time_ms
    if study == "delay":
        schemes = runs = config.schemes
    else:
        schemes, runs = _SCHEME_ORDER, ("clustering",)
    # Each BS scheme's later-rounds stream and receptions per member.
    later_rngs = {scheme: (_rng(config.base_seed,
                                (*prefix, _SCHEME_ORDER.index(scheme), 1)),
                           sim.rnc_generation_size if scheme == "rnc" else 1)
                  for scheme in runs if scheme != "clustering"}
    rate_density = (config.lambda_off_per_m2
                    * math.log2(1.0 + config.radio.snr_threshold))
    out = {scheme: np.empty((config.replications, 2) if study == "delay"
                            else config.replications) for scheme in schemes}
    bit_generator = recovery.bit_generator
    origin = bit_generator.state

    def recover_at(offset, block):
        """Fill `block` from the recovery stream's output `offset` on."""
        bit_generator.state = origin
        bit_generator.advance(offset)
        recovery.random(out=block)

    for lo, hi in _batches(plans):
        batch = plans[lo:hi]
        blocks = [plan.read.size for plan in batch]
        lengths = [plan.n_uavs if fits else 0 for plan in batch]
        uniforms = drop_rng.random(sum(blocks))
        fading = fading_rng.standard_exponential(sum(lengths))
        later = {scheme: rng.standard_exponential((sum(lengths), g))
                 for scheme, (rng, g) in later_rngs.items()}
        u_at, f_at = (np.cumsum([0, *sizes[:-1]])
                      for sizes in (blocks, lengths))
        shapes: dict[tuple[int, ...], list[int]] = {}
        for i, plan in enumerate(batch):
            shapes.setdefault(plan.bounds, []).append(i)
        for index in map(np.array, shapes.values()):
            i, width = index[0], lengths[index[0]]
            drops = _Drops(batch[i], lo + index,
                           _take(uniforms, u_at[index], blocks[i]),
                           _take(fading, f_at[index], width),
                           {scheme: _take(values, f_at[index], width)
                            for scheme, values in later.items()})
            outcomes = _continue(config, drops, runs, recover_at)
            for scheme, metrics in out.items():
                delivery, via_broadcast = outcomes[
                    scheme if scheme in runs else "clustering"]
                metrics[drops.rows] = _reduce(study, scheme, sim, delivery,
                                              via_broadcast, rate_density)
    return out


def _batches(plans):
    """(first, stop) replication of each batch of `_replicated`: a batch
    closes when one more drop the size of its last would take it past
    `_BATCH_MEMBERS` members."""
    lo = members = 0
    for rep, plan in enumerate(plans):
        # An empty drop counts as one member, so empty drops fill a batch.
        size = max(1, plan.n_uavs)
        members += size
        if members + size > _BATCH_MEMBERS:
            yield lo, rep + 1
            lo, members = rep + 1, 0
    if lo < len(plans):
        yield lo, len(plans)


def _continue(config: ScenarioConfig, drops: _Drops, schemes,
              recover_at) -> dict:
    """The delivery times (NaN for undelivered) and `via_broadcast` marks
    of each of `schemes`' epochs on the drops of one shape, shape (m, n)
    each: geometry, BS distances, mean powers and round-1 decisions over
    all of them at once, shared by the schemes, then `protocol.run_epochs`
    for each scheme.

    Round 1 serves the members whose fading decodes, none when one packet
    exceeds the budget.  A BS scheme's completion rounds read its block of
    `drops.later` through `channel.completion_rounds`; an empty block
    leaves no member to complete.  Clustering recovery fills epoch e's
    blocks through `recover_at(offset, block)`, from offset rows[e] *
    2**64 plus the uniforms that epoch has read.
    """
    m, n = len(drops.rows), drops.plan.n_uavs
    radio, sim = config.radio, config.sim
    _, xy = _drop_points(drops.plan, drops.uniforms)
    power = mean_received_power(LinkKind.BS_TO_UAV,
                                _bs_distances(xy, *_bs_site(config)), radio)
    first = np.zeros((m, n), dtype=bool)
    if sim.packet_len_ms <= sim.max_time_ms:
        first = decodes(power, drops.fading, radio)
    offset = [rep << 64 for rep in drops.rows.tolist()]

    def draw(e, block):
        recover_at(offset[e], block)
        offset[e] += block.size

    outcomes = {}
    for scheme in schemes:
        rounds, later = first, drops.later.get(scheme)
        if later is not None:
            rounds = np.full((m, n), np.inf)
            if later.size:
                rounds = completion_rounds(
                    first, decode_probability(power, radio), later.shape[2],
                    later)
        outcomes[scheme] = run_epochs(scheme, xy, drops.plan.bounds, rounds,
                                      radio, sim, draw)[:2]
    return outcomes


def _reduce(study: str, scheme: str, sim, delivery: np.ndarray,
            via_broadcast: np.ndarray, rate_density: float):
    """Reduce the epochs of one drop shape (rows of `delivery`, NaN for
    undelivered, and `via_broadcast`) to (mean delay, delivery ratio)
    rows in the delay study, the ase in the ase study; `rate_density` is
    lambda_off * log2(1 + threshold).  NaN throughout for empty drops."""
    m, n = delivery.shape
    if not n:
        return np.full(m if study == "ase" else (m, 2), np.nan)
    delivered = ~np.isnan(delivery)
    if study == "ase":
        # The clustering ase counts every delivered member; the ACK
        # benchmark only members served by the first broadcast, later
        # rounds are retransmissions of the same packet.
        served = delivered if scheme == "clustering" else via_broadcast
        return (np.count_nonzero(served, axis=1) / n) * rate_density
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
    """Simulated area spectral efficiency over (d0, C).

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
