"""Monte-Carlo studies and their aggregation into metric tables.

Every study emits a `MetricTable` whose rows follow one CSV schema:

    study,sweep_param,sweep_value,scheme,metric,mean,stderr,n

Replications are mutually independent: each gets its own generator derived
from (base_seed, study id, sweep indices, scheme, replication index), so
reruns with the same base seed are bit-for-bit reproducible and
replications could be farmed out concurrently without changing results.
The generator of spawn key `key` is the one numpy builds as
`default_rng(SeedSequence(base_seed, spawn_key=key))`, state for state, but
the derivation is owned (`_pcg64_states`): numpy's SeedSequence pool
mixing and PCG64 seeding (both frozen by NumPy's RNG policy, NEP 19) run
once per scenario on arrays over all replications, and numpy itself serves
as the oracle in the tests.

The delay and ase studies run a scenario's replications in chunks
(`_replicated`).  Each replication draws its own blocks from its own
generator; the geometry, powers and round-1 decisions computed from them
run over whole arrays of drops, and `protocol.run_epochs` finishes all of
a chunk's epochs of one drop shape at once: clustering recovery in
lock-step, each epoch drawing from its own generator, and the BS schemes'
timelines from completion rounds drawn with round 1
(`channel.completion_rounds`).  Every replication's numbers equal those
of `build_topology` plus `SCHEME_RUNNERS` on its generator, bit for bit.
"""

from __future__ import annotations

import csv
import io
import itertools
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
    sample_uniform_disk,
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


_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
# numpy.random.SeedSequence's hash constants and PCG64's 128-bit multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Replications per batch in `_replicated`, and derived states per block
# of Python ints: large enough to spread each numpy call over many drops,
# small enough that a study's peak memory does not grow with its
# replication count.
_CHUNK = 64


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, low word first."""
    if value < 0:
        raise ParameterError(f"seed words must be non-negative, got {value}")
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def _pcg64_states(base_seed: int, prefix: tuple[int, ...], indices: range):
    """Yield `PCG64(SeedSequence(base_seed, spawn_key=(*prefix, i))).state`
    for every i in `indices` (ascending, below 2**64), in order.

    SeedSequence's entropy assembly, pool mixing and
    `generate_state(4, uint64)` run on uint32 words held in uint64 arrays:
    every word before the last spawn element is a constant of shape (1,),
    so only the last element's mixing and the output hash are done per
    index.  PCG64's seeding step then runs in Python ints.
    """
    head = _words(base_seed)
    # A spawned sequence pads its run entropy with zeros to the pool size.
    head += [0] * (4 - len(head))
    for value in prefix:
        head += _words(value)
    # An index below 2**32 is one spawn word, a larger one two.
    index = np.arange(indices.start, indices.stop, dtype=np.uint64)
    one_word = index <= _MASK32
    small, large = index[one_word], index[~one_word]
    for last in ([small], [large & _MASK32, large >> 32]):
        if last[0].size:
            entropy = [np.array([w], dtype=np.uint64) for w in head] + last
            yield from _seeded_states(entropy)


def _seeded_states(entropy: list[np.ndarray]):
    """SeedSequence mixing of `entropy` (at least 4 words, each an array
    broadcasting to the batch, the last one of full length), then PCG64
    seeding: yield one state per row."""
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = (hash_a * _MULT_A) & _MASK32
        value = (value * hash_a) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        # Products of two uint32 values fit in uint64, and a negative
        # difference wraps modulo 2**64, so the masked result is uint32's.
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_b, out = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = (hash_b * _MULT_B) & _MASK32
        value = (value * hash_b) & _MASK32
        out.append(value ^ (value >> 16))
    # generate_state(4, uint64) reads the eight words as little-endian
    # pairs: seed high, seed low, increment high, increment low.
    words = np.stack([out[2 * j] | (out[2 * j + 1] << 32) for j in range(4)],
                     axis=1)
    del pool, out
    # Python ints are made one block at a time, so a caller that consumes
    # the states as they come holds one block of them, not all.
    for lo in range(0, len(words), _CHUNK):
        for a, b, c, d in words[lo:lo + _CHUNK].tolist():
            # pcg_setseq_128_srandom_r: state 0, step, add the seed, step.
            inc = (((c << 64) | d) << 1 | 1) & _MASK128
            state = ((inc + ((a << 64) | b)) * _PCG64_MULT + inc) & _MASK128
            yield {"bit_generator": "PCG64",
                   "state": {"state": state, "inc": inc},
                   "has_uint32": 0, "uinteger": 0}


def _generators(base_seed: int, prefix: tuple[int, ...], indices: range):
    """Yield the generator of spawn key (*prefix, i) for each i in
    `indices`, all derived in one `_pcg64_states` pass.

    Every yield is the same `Generator`, its bit generator reseeded in
    place, so a caller must be done with one before it asks for the next.
    The bit generator's `seed_seq` is not the spawn key's; nothing here
    spawns from it.
    """
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state in _pcg64_states(base_seed, prefix, indices):
        bit_generator.state = state
        yield rng


def _rng(base_seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """An independent generator of non-empty spawn key `key` under
    `base_seed`: the one-index case of `_generators`."""
    *prefix, last = key
    return next(_generators(base_seed, tuple(prefix), range(last, last + 1)))


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
    """Mean, standard error and count, skipping NaN entries."""
    valid = samples[~np.isnan(samples)]
    n = valid.size
    if n == 0:
        return float("nan"), float("nan"), 0
    if n == 1:
        return float(valid[0]), float("nan"), 1
    return float(valid.mean()), float(valid.std(ddof=1) / math.sqrt(n)), n


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
            pts = sample_uniform_disk(rng, n_trials, geom.radius_r,
                                      (geom.v_norm, 0.0))
            dist = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2 + geom.delta_h ** 2)
            link = LinkKind.BS_TO_UAV
            theory = analysis.coverage_probability(geom, radio)
            metric = "p_cov"
        else:
            a = sample_uniform_disk(rng, n_trials, value)
            b = sample_uniform_disk(rng, n_trials, value)
            dist = np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])
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
    """The drops of one shape in a chunk: their rows in the chunk, uniform
    blocks and fading (one row each, the first `len(rows)` used), and, for
    clustering, the generator state after round 1 of each, kept only when
    the epoch can recover past it.  A fading row holds the n round-1
    exponentials, followed, in the delay study's BS schemes, by g per
    member for the later rounds."""

    plan: _DropPlan
    rows: list[int]
    uniforms: np.ndarray
    fading: np.ndarray
    states: list[dict]


def _replicated(study: str, scheme: str, config: ScenarioConfig,
                key: tuple[int, ...]) -> np.ndarray:
    """The metrics of every replication of `scheme`, in replication order:
    rows of (mean delay, delivery ratio, ase) in the delay study, the ase
    alone in the ase study.

    Replication `rep` draws from the generator of spawn key
    (study, *key, scheme, rep), derived in one `_pcg64_states` pass and
    loaded into one shared bit generator.  Replications run in chunks of
    `_CHUNK`, each in three phases:

    1. draw, per replication: the drop's Poisson count (density mode) and
       uniform block, then, unless the drop is empty or one packet exceeds
       the time budget, one row of standard exponentials in one call: the
       n round-1 fadings, and in the delay study's BS schemes g more per
       member (the receptions a member needs: `rnc_generation_size` for
       RNC, 1 for the benchmark).  numpy fills the row in sequence, so
       round 1 reads the values `build_topology` and the runner's round
       hook draw first, and the later rounds those `channel.round_model`
       draws next: RNC's whole (n, g) block, and, for the benchmark, a
       prefix of the next n, one per missed member in member order.  The
       benchmark's unread rest is harmless, since nothing is drawn from
       that generator afterwards.
       Clustering keeps the generator state after round 1 instead;
    2. compute, over all drops of one shape at once (`_continue`):
       geometry, BS distances, mean powers and round-1 decisions, and in
       the BS schemes the completion rounds from the rows of phase 1;
    3. finish those epochs at once (`protocol.run_epochs`): clustering
       recovers where a member is short of the packet after round 1, each
       replication drawing from its saved generator state; the BS schemes
       lay out their timelines with no further draw.

    So every replication's outcome is the one `SCHEME_RUNNERS` gives it on
    a drop from `build_topology`, bit for bit.  The ase study's benchmark
    epochs count only the members the first broadcast serves, so phase 1
    draws no later rounds for them and they end after round 1.
    """
    prefix = (_STUDY_IDS[study], *key, _SCHEME_ORDER.index(scheme))
    states = _pcg64_states(config.base_seed, prefix, range(config.replications))
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    plan_of = _drop_law(config)
    sim = config.sim
    fits = sim.packet_len_ms <= sim.max_time_ms
    continues = fits and not (study == "ase" and scheme == "benchmark")
    recovers = continues and scheme == "clustering"
    # Exponentials per member after round 1's: the receptions a member
    # needs in a BS epoch that goes on.
    later = 0
    if continues and not recovers:
        later = sim.rnc_generation_size if scheme == "rnc" else 1
    rate_density = (config.lambda_off_per_m2
                    * math.log2(1.0 + config.radio.snr_threshold))
    out = []
    while chunk := list(itertools.islice(states, _CHUNK)):
        groups: dict[tuple[int, ...], _Drops] = {}
        for row, state in enumerate(chunk):
            bit_generator.state = state
            plan = plan_of(rng)
            drops = groups.get(plan.bounds)
            if drops is None:
                drops = groups[plan.bounds] = _Drops(
                    plan, [], np.empty((len(chunk), plan.read.size)),
                    np.empty((len(chunk), plan.n_uavs * (1 + later))), [])
            rng.random(out=drops.uniforms[len(drops.rows)])
            if fits and plan.n_uavs:
                rng.standard_exponential(out=drops.fading[len(drops.rows)])
                if recovers:
                    drops.states.append(bit_generator.state)
            drops.rows.append(row)
        metrics = np.empty((len(chunk), 3) if study == "delay" else len(chunk))
        for drops in groups.values():
            delivery, via_broadcast = _continue(scheme, config, drops, rng)
            metrics[drops.rows] = _reduce(study, scheme, sim, delivery,
                                          via_broadcast, rate_density)
        out.append(metrics)
    return np.concatenate(out)


def _continue(scheme: str, config: ScenarioConfig, drops: _Drops,
              rng: np.random.Generator):
    """Phases 2 and 3 of `_replicated`: the delivery times (NaN for
    undelivered) and `via_broadcast` marks of the drops of one shape,
    shape (m, n) each.

    Round 1 serves the members whose fading decodes, none when one packet
    exceeds the budget.  A BS scheme's fading rows longer than n hold the
    later rounds' exponentials as an (n, g) block, read by
    `channel.completion_rounds`; otherwise its epochs end after round 1.
    `run_epochs` finishes the epochs; clustering recovery draws each
    epoch's blocks of uniforms from its own generator, restored from and
    saved to `drops.states` around every block.
    """
    m, n = len(drops.rows), drops.plan.n_uavs
    radio, sim = config.radio, config.sim
    _, xy = _drop_points(drops.plan, drops.uniforms[:m])
    power = mean_received_power(LinkKind.BS_TO_UAV,
                                _bs_distances(xy, *_bs_site(config)), radio)
    first = np.zeros((m, n), dtype=bool)
    if sim.packet_len_ms <= sim.max_time_ms:
        first = decodes(power, drops.fading[:m, :n], radio)
    if drops.fading.shape[1] > n:
        later = drops.fading[:m, n:].reshape(m, n, -1)
        first = completion_rounds(first, decode_probability(power, radio),
                                  later.shape[2], later)
    elif scheme != "clustering":
        first = np.where(first, 1.0, np.inf)
    bit_generator = rng.bit_generator

    def draw(i, out):
        bit_generator.state = drops.states[i]
        rng.random(out=out)
        drops.states[i] = bit_generator.state

    delivery, via_broadcast, *_ = run_epochs(
        scheme, xy, drops.plan.bounds, first, radio, sim, draw)
    return delivery, via_broadcast


def _reduce(study: str, scheme: str, sim, delivery: np.ndarray,
            via_broadcast: np.ndarray, rate_density: float):
    """Reduce the epochs of one drop shape (rows of `delivery`, NaN for
    undelivered, and `via_broadcast`) to (mean delay, delivery ratio, ase)
    rows in the delay study, the ase alone in the ase study;
    `rate_density` is lambda_off * log2(1 + threshold).  NaN throughout
    for empty drops."""
    m, n = delivery.shape
    if not n:
        return np.full(m if study == "ase" else (m, 3), np.nan)
    delivered = ~np.isnan(delivery)
    # The clustering ase counts every delivered member; the ACK benchmark
    # only members served by the first broadcast, later rounds are
    # retransmissions of the same packet.
    served = delivered if scheme == "clustering" else via_broadcast
    ase = (np.count_nonzero(served, axis=1) / n) * rate_density
    if study == "ase":
        return ase
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
    return np.column_stack([mean_delay, ratio, ase])


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
        analytic = _analytic_metrics(config, d0)
        for i_c, c in enumerate(c_values):
            scenario = config.replace(d0_m=d0, num_clusters=c)
            for scheme in config.schemes:
                delays, ratios, _ = _replicated(study, scheme, scenario,
                                                (i_d0, i_c)).T
                mean, stderr, n = _mean_stderr(delays)
                rows.append(MetricRow(study, "num_clusters", float(c), scheme,
                                      f"delay_ms_d0_{d0:g}", mean, stderr, n))
                rmean, rstderr, rn = _mean_stderr(ratios)
                rows.append(MetricRow(study, "num_clusters", float(c), scheme,
                                      f"delivery_ratio_d0_{d0:g}", rmean,
                                      rstderr, rn))
            rows.append(MetricRow(study, "num_clusters", float(c), "analytic",
                                  f"delay_ms_d0_{d0:g}",
                                  analytic["delay"], 0.0, 0))
    return MetricTable(rows)


def run_ase_study(config: ScenarioConfig, d0_values=DEFAULT_D0_GRID,
                  c_values=DEFAULT_C_GRID) -> MetricTable:
    """Simulated area spectral efficiency over (d0, C).

    The clustering rows count members served either by the broadcast or by
    in-cluster recovery; benchmark rows count only the first broadcast, so
    their epochs stop after it (`_replicated`).  The
    RNC baseline spends its airtime on coded repair of the same packets, so
    its delivered-rate density equals the benchmark's by construction and
    its rows duplicate them.
    """
    study = "ase"
    c_values = _cluster_counts(c_values)
    d0_values = _grid("d0_values", d0_values)
    rows = []
    for i_d0, d0 in enumerate(d0_values):
        analytic = _analytic_metrics(config, d0)
        for i_c, c in enumerate(c_values):
            scenario = config.replace(d0_m=d0, num_clusters=c)
            benchmark_row = None
            for scheme in ("clustering", "benchmark"):
                ases = _replicated(study, scheme, scenario, (i_d0, i_c))
                mean, stderr, n = _mean_stderr(ases)
                row = MetricRow(study, "num_clusters", float(c), scheme,
                                f"ase_d0_{d0:g}", mean, stderr, n)
                rows.append(row)
                if scheme == "benchmark":
                    benchmark_row = row
            rows.append(MetricRow(study, "num_clusters", float(c), "rnc",
                                  benchmark_row.metric, benchmark_row.mean,
                                  benchmark_row.stderr, benchmark_row.n))
            rows.append(MetricRow(study, "num_clusters", float(c), "analytic",
                                  f"ase_d0_{d0:g}", analytic["ase"], 0.0, 0))
    return MetricTable(rows)


def _analytic_metrics(config: ScenarioConfig, d0: float) -> dict[str, float]:
    geom = config.geometry(v_norm=d0)
    p_cov = analysis.coverage_probability(geom, config.radio)
    p_suc = analysis.transmission_success_probability(config.radius_r_m,
                                                      config.radio)
    return {
        "p_cov": p_cov,
        "p_suc": p_suc,
        "delay": analysis.average_delay(p_cov, p_suc, config.sim.packet_len_ms,
                                        config.sim.t_req_ms),
        "ase": analysis.average_ase(p_cov, p_suc, config.lambda_off_per_m2,
                                    config.radio.snr_threshold),
    }
