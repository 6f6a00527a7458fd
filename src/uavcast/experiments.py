"""Monte-Carlo studies and their aggregation into metric tables.

Every study emits a `MetricTable` whose rows follow one CSV schema:

    study,sweep_param,sweep_value,scheme,metric,mean,stderr,n

Randomness comes from numpy's own `SeedSequence` spawn keys under the
config's base seed (`_rng`), so reruns with the same base seed are bit for
bit reproducible.  A validation study draws once, from the generator of
key (study,), and reuses that draw at every sweep value.  A delay or ase
scenario, one (study, sweep indices), runs every scheme on the same drops
and round-1 fading (common random numbers), drawn a batch of replications
at a time from streams whose layout `_scenario` documents, and finishes
each batch one scheme at a time, over whole arrays of drops; the tests
rebuild each replication from that layout alone.  `replay_epoch` and
`replay_drops` give one replication's epoch and the first drops of a
delay scenario, through the same code.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analysis
from .channel import (
    LinkKind,
    completion_rounds,
    decode_probability,
    decode_reach,
    decodes,
    mean_received_power,
)
from .config import ScenarioConfig
from .distributions import ClusterGeometry
from .errors import ParameterError
from .geometry import (
    _drop_law,
    _drop_points,
    _DropPlan,
    offset_distance,
    polar_offset_terms,
    polar_pair_distance,
    sample_uniform_disk_polar,
)
from .protocol import (
    SCHEME_RUNNERS,
    RecoveryCells,
    SchemeOutcome,
    deliver_recovered,
    recovering_cells,
    recovery_pass,
    run_epochs,
)

# The first entry of every spawn key (`_rng`): each study's, and that of
# the `uavcast distributions` KS checks, whose geometric and inverse-CDF
# samples draw from keys (8, 0) and (8, 1).
_STUDY_IDS = {"validation_coverage": 1, "validation_success": 2,
              "design_insight": 3, "delay": 4, "ase": 5, "distributions": 8}

DEFAULT_V_GRID = (200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0)
DEFAULT_R_GRID = (10.0, 25.0, 50.0, 75.0, 100.0)
DEFAULT_DESIGN_C_GRID = (2, 4, 6, 8, 10)
DEFAULT_DESIGN_V_GRID = (400.0, 800.0, 1200.0)
DEFAULT_D0_GRID = (400.0, 800.0, 1200.0)
DEFAULT_C_GRID = (2, 5, 10)
# Each validation kind's swept parameter and default grid.
_VALIDATION_SWEEPS = {"coverage": ("v_norm", DEFAULT_V_GRID),
                      "success": ("radius_r", DEFAULT_R_GRID)}
# Each simulated study's metric columns, in the order `_reduce` gives
# them, and its closed form of (config, p_cov, p_suc), which its analytic
# rows give for the first column.
_SIMULATED = {
    "delay": (("delay_ms", "delivery_ratio"),
              lambda config, p_cov, p_suc: analysis.average_delay(
                  p_cov, p_suc, config.sim.packet_len_ms,
                  config.sim.t_req_ms)),
    "ase": (("ase",),
            lambda config, p_cov, p_suc: analysis.average_ase(
                p_cov, p_suc, config.lambda_off_per_m2,
                config.radio.snr_threshold)),
}


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


# Padded recovery slots (`_DropPlan.slots`: clusters x largest cluster,
# the member count unless the clusters differ in size) per batch of
# `_replicated`: wide enough to spread each numpy call over many drops
# (327 drops at the default 50 members), narrow enough to bound a batch's
# memory whatever the replication count and the swarm size; 8 / g of it
# where a delay study's RNC pass reads g > 8 later-round doubles a member.
# A single drop wider than this makes a batch of its own.  It also bounds
# the recovery queue (`_Recovery.queue`): a pass runs once the queued
# cells' padded slots, plus n / 8 for each queued n-member round-1 row,
# reach it.  Over 327 replications at d0 = 1200 m, C = 2, a delay call of
# clustering peaks at about 3.4 MB traced at 50 members, 3.6 MB at 2,000,
# and one of RNC at 2.9 MB at g = 8, 2.2 MB at g = 256.
_BATCH_SLOTS = 16384
# Outputs of the recovery stream (`_scenario`) read in one call at most,
# unless one block is longer: each refill's blocks are read a stretch at
# a time.  Two measured dead ends: jumping over the blocks of cells that
# no longer recover instead of drawing them, wherever the gap passed 256,
# 1,024 or 4,096 outputs, gained nothing and lost up to 30%; and a
# `_BATCH_SLOTS` of 65,536 ran `ase-near` 20% faster but raised its peak
# RSS by 5.1 MB, past the 5% bound of a ~90 MB benchmark driver.
_RECOVERY_CHUNK = 2 ** 15


def _rng(base_seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """The generator of spawn key `key` under `base_seed`:
    `default_rng(SeedSequence(base_seed, spawn_key=key))`."""
    return np.random.default_rng(
        np.random.SeedSequence(base_seed, spawn_key=key))


def _cluster_counts(c_values) -> tuple[int, ...]:
    """The cluster-count grid as ints: a `_grid` of positive integers,
    since a fractional count would be truncated silently."""
    try:
        ok = all(c >= 1 and c == int(c) for c in c_values)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ParameterError(
            f"c_values: cluster counts must be positive integers, got {list(c_values)}")
    return tuple(int(c) for c in _grid("c_values", c_values))


def _grid(parameter: str, values) -> tuple[float, ...]:
    """The sweep of `parameter` over `values`, which must be non-empty,
    finite and strictly increasing, so no row is written twice or for
    NaN."""
    values = tuple(values)
    if not values:
        raise ParameterError(f"{parameter}: empty sweep")
    if any(not math.isfinite(v) for v in values):
        raise ParameterError(f"{parameter}: sweep values must be finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ParameterError(
            f"{parameter}: sweep values must be strictly increasing")
    return values


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


def _proportion(k: int, n: int) -> tuple[float, float, int]:
    """`_mean_stderr` of n >= 1 samples that are 1 k times and 0 otherwise,
    from the count alone: mean k / n, standard error
    sqrt(k (n - k) / (n (n - 1))) / sqrt(n), 0 when k is 0 or n and NaN
    when n is 1."""
    if n == 1:
        return float(k), float("nan"), 1
    return (k / n, math.sqrt(k * (n - k) / (n * (n - 1))) / math.sqrt(n),
            n)


def run_validation_study(kind: str, config: ScenarioConfig,
                         values=None) -> MetricTable:
    """Closed-form probabilities against direct geometric simulation.

    kind "coverage": broadcast decoding probability vs the cluster-center
    distance `v_norm` (by default over `DEFAULT_V_GRID`).  kind "success":
    member-to-member decoding probability vs the cluster radius `radius_r`
    (by default over `DEFAULT_R_GRID`).  The simulation draws positions
    and fading directly and never touches the quadrature path.

    A study draws once, from the generator of key (study,), and every
    sweep value reuses the draw (common random numbers).  Coverage draws
    the `replications` member points of the `radius_r_m` disk, then as
    many fadings; each v_norm moves only the BS, so it costs one
    `offset_distance` from the points' `polar_offset_terms`.  Success
    draws the pairs of points of the unit disk, then the fadings; a pair
    on the disk of radius r lies r times as far apart.  Each trial's
    distance grows with the swept value, so every Monte-Carlo curve is
    pathwise non-increasing, and a row depends on its value and the seed,
    not on the rest of the grid.

    Each fading becomes its trial's decode reach (`channel.decode_reach`)
    right after the draw, so a row decides its trials by `distance <
    reach` and reduces them by their count of successes (`_proportion`):
    the decode rule's decisions and means on each row's mean received
    powers, and its standard errors up to rounding, without a per-row
    path-loss law or float copy of the trials.
    """
    if kind not in _VALIDATION_SWEEPS:
        raise ParameterError(f"kind: expected 'coverage' or 'success', got {kind!r}")
    study = f"validation_{kind}"
    parameter, default = _VALIDATION_SWEEPS[kind]
    values = _grid(parameter, default if values is None else values)
    n_trials, radio = config.replications, config.radio
    rng = _rng(config.base_seed, (_STUDY_IDS[study],))
    if kind == "coverage":
        geoms = [config.geometry(v_norm=v) for v in values]
        theories = [analysis.coverage_probability(g, radio) for g in geoms]
        # Only x and y^2 outlive this line: the sweep holds two arrays
        # of the draw, not rho, theta and cos too.
        x, y2 = polar_offset_terms(*sample_uniform_disk_polar(
            rng, n_trials, config.radius_r_m))
        distances = (offset_distance(g.v_norm, x, y2, g.delta_h)
                     for g in geoms)
        link, metric = LinkKind.BS_TO_UAV, "p_cov"
    else:
        theories = [analysis.transmission_success_probability(r, radio)
                    for r in values]
        unit = polar_pair_distance(*sample_uniform_disk_polar(rng, n_trials, 1.0),
                                   *sample_uniform_disk_polar(rng, n_trials, 1.0))
        distances = (r * unit for r in values)
        link, metric = LinkKind.UAV_TO_UAV, "p_suc"
    reach = decode_reach(link, rng.standard_exponential(n_trials), radio)
    rows = []
    for value, theory, dist in zip(values, theories, distances):
        rows.append(MetricRow(study, parameter, value, "theory", metric,
                              theory, 0.0, 0))
        rows.append(MetricRow(study, parameter, value, "monte_carlo", metric,
                              *_proportion(np.count_nonzero(dist < reach),
                                           n_trials)))
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
        except ParameterError:
            p_suc = float("nan")
        rows.append(MetricRow(study, "num_clusters", float(c), "theory",
                              "p_suc", p_suc, 0.0, 0))
        for v in v_values:
            try:
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


class _Recovery:
    """A scenario's clustering recovery (`_scenario`): its stream, which
    holds block b of the scenario's j-th cell at output b * 2**64 + j * 8 S,
    and the queue of recovering cells that `_round_one` fills batch after
    batch and `recover` runs in one pass.  PCG64 cycles through 2**128
    outputs, so one jump (`advance`) from the stream's position reaches any
    offset, behind it too."""

    def __init__(self, base_seed: int, prefix: tuple[int, ...]):
        self.rng = _rng(base_seed, (*prefix, 0, 2))
        self.at = 0  # the stream's position
        # Per queued drop shape of a batch: the `_Drops` of its rows that
        # hold a recovering cell, those cells (epochs numbered among the
        # rows), and their cell numbers in the stream.
        self.drops: list[_Drops] = []
        self.cells: list[RecoveryCells] = []
        self.index: list[np.ndarray] = []
        self.slots = 0  # the queue's size (`_BATCH_SLOTS`)

    def blocks(self, b: int, index: np.ndarray, out: np.ndarray) -> None:
        """Fill `out[i]` with block b of cell `index[i]` (ascending), in
        blocks of `out[i].size` outputs: the stretch from one cell's block
        to the last that starts within _RECOVERY_CHUNK outputs is read in
        one call and the blocks are copied out of it, so the blocks between
        them are drawn but never a whole batch's blocks at once.  A block
        that would pass output 2**64 of its b is refused: it would overlap
        block b + 1."""
        flat = out.reshape(len(out), -1)
        width = flat.shape[1]
        if (int(index[-1]) + 1) * width > 2 ** 64:
            raise ParameterError(
                f"recovery: block {b} of cell {int(index[-1])} passes the "
                f"2**64 uniforms of its block; use fewer replications, "
                f"fewer clusters or smaller ones")
        per_read = max(1, _RECOVERY_CHUNK // width)
        a = 0
        while a < len(flat):
            lo = int(index[a])
            hi = int(np.searchsorted(index, lo + per_read))
            stretch = np.empty((int(index[hi - 1]) + 1 - lo, width))
            offset = (b << 64) + lo * width
            self.rng.bit_generator.advance((offset - self.at) % 2 ** 128)
            self.rng.random(out=stretch)
            self.at = offset + stretch.size
            np.take(stretch, index[a:hi] - lo, axis=0, out=flat[a:hi])
            a = hi

    def draw(self, starts: np.ndarray) -> Callable:
        """The `draw(epoch, cluster, b, out)` of `protocol.run_epochs` for
        drops whose first clusters are cells `starts`, cluster after
        cluster."""
        return lambda epoch, cluster, b, out: self.blocks(
            b, starts[epoch] + cluster, out)

    def queue(self, drops: _Drops, xy: np.ndarray | None,
              starts: np.ndarray) -> np.ndarray:
        """Queue the recovering cells of `drops` (`protocol.recovering_cells`
        of their member points `xy`, their first clusters being cells
        `starts`) with the rows that hold them, and return the positions
        of the other rows, which recover nothing.  Each queued row adds
        n / 8 slots, n bytes being its round-1 decisions."""
        cells = recovering_cells(xy, drops.plan.bounds, drops.first)
        queued = np.zeros(drops.rows.size, dtype=bool)
        queued[cells.epoch] = True
        if cells.epoch.size:
            kept = np.flatnonzero(queued)
            self.drops.append(drops.take(kept))
            self.cells.append(cells._replace(
                epoch=np.searchsorted(kept, cells.epoch)))
            self.index.append(starts[cells.epoch] + cells.cluster)
            self.slots += cells.held.size + kept.size * drops.plan.n_uavs // 8
        return np.flatnonzero(~queued)

    def recover(self, config: ScenarioConfig):
        """Empty the queue: recover every queued cell in one
        `protocol.recovery_pass`, which reads their blocks in ascending
        cell order, and yield ("clustering", drops, outcome) for each
        queued `_Drops`, the outcome that of `protocol.run_epochs`."""
        drops, pieces, index = self.drops, self.cells, self.index
        self.drops, self.cells, self.index, self.slots = [], [], [], 0
        if not drops:
            return
        index = np.concatenate(index)
        # Each piece is in ascending cell order, and so are the pieces
        # unless a batch held drops of several shapes.
        order = None if np.all(index[1:] > index[:-1]) else np.argsort(index)
        cells = RecoveryCells(*(_joined(field, order)
                                for field in zip(*pieces)))
        if order is not None:
            index = index[order]
        # Each piece keeps what `deliver_recovered` reads.
        pieces = [piece._replace(points=None, held=None, lost=None)
                  for piece in pieces]
        times, frames = recovery_pass(
            cells, config.radio, config.sim,
            lambda cell, b, out: self.blocks(b, index[cell], out))
        del cells
        if order is not None:
            back = np.empty_like(order)
            back[order] = np.arange(order.size)
            times, frames = times[back], frames[back]
        ends = np.cumsum([piece.epoch.size for piece in pieces])[:-1]
        for rows, piece, piece_times, piece_frames in zip(
                drops, pieces, np.split(times, ends), np.split(frames, ends)):
            delivery, via_broadcast, bs_tx, _, _ = run_epochs(
                "clustering", None, rows.plan.bounds, rows.first,
                config.radio, config.sim, None)
            yield "clustering", rows, (
                delivery, via_broadcast, bs_tx,
                *deliver_recovered(delivery, piece, piece_times,
                                   piece_frames))


def _joined(arrays: list[np.ndarray], order: np.ndarray | None):
    """`arrays` concatenated (one of them as it is), and taken in `order`
    unless it is None."""
    joined = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    return joined if order is None else joined[order]


@dataclass
class _Batch:
    """A batch of a scenario (`_scenario`): its drops by shape as (plan,
    replication indices, offsets in `uniforms`, offsets in `fading`, the
    indices of their first clusters among the scenario's cells), the
    delay study's BS schemes' (later-rounds stream, g), clustering's
    recovery (None when clustering does not run), shared by the
    scenario's batches, and whether it is the scenario's last batch.
    `_continue` lets `uniforms` and `fading` go (None) after its round-1
    pass."""

    shapes: list[tuple[_DropPlan, np.ndarray, np.ndarray, np.ndarray,
                       np.ndarray]]
    uniforms: np.ndarray | None
    fading: np.ndarray | None
    later: dict[str, tuple[np.random.Generator, int]]
    recovery: _Recovery | None
    last: bool


@dataclass
class _Drops:
    """The drops of one shape in a batch after round 1: their replication
    indices, their rows' offsets in the batch's fading and later-round
    blocks, and, row for row, their mean BS powers (None when no round 1
    ran, and in the drops clustering's outcomes are yielded for, which no
    BS pass reads) and round-1 decisions."""

    plan: _DropPlan
    rows: np.ndarray
    at: np.ndarray
    power: np.ndarray | None
    first: np.ndarray

    def take(self, index: np.ndarray) -> _Drops:
        """The drops at positions `index`, without mean BS powers."""
        return _Drops(self.plan, self.rows[index], self.at[index], None,
                      self.first[index])


def _take(flat: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The rows of `width` entries of `flat` (values, or rows of values)
    that begin at `starts`: a view when they tile all of `flat`."""
    if starts.size * width == len(flat):
        return flat.reshape(starts.size, width, *flat.shape[1:])
    return flat[starts[:, None] + np.arange(width)]


def _scenario(study: str, config: ScenarioConfig, key: tuple[int, ...],
              schemes):
    """The replications of one scenario, a `_Batch` at a time.

    Every scheme runs on the same drops and round-1 fading (common random
    numbers).  The scenario's streams are the generators of spawn keys
    (`_rng`):

    - drops, (study, *key, 0, 0): in density mode the Poisson count of
      every replication, in one call, then each replication's block of
      uniforms (`_DropPlan`), in replication order;
    - fading, (study, *key, 0, 1): each replication's n round-1 fadings,
      in replication order; none for an empty drop;
    - recovery, (study, *key, 0, 2): the blocks of clustering recovery
      (`protocol.recovery_pass`).  The scenario's cells are numbered
      cluster after cluster, drop after drop, in replication order, and
      block b of cell j sits at output b * 2**64 + j * 8 S on.  Every
      block holds 4 x 2 x S outputs, S being the largest cluster, which
      is the same in every drop of a scenario (one plan in fixed_total
      mode, clusters of `cluster_peer_count` members in density mode), so
      the recovering cells of any batches of a scenario, whatever their
      drop shapes, recover in one pass.  The round-1 pass queues them
      (`_Recovery.queue`), and `_continue` recovers the queue in one pass
      at the scenario's last batch and wherever the queue reaches
      `_BATCH_SLOTS`.  Read only where clustering runs, each refill from
      its first live cell's block to its last (`_Recovery.blocks`);
    - later rounds, (study, *key, i, 1) for the delay study's BS scheme
      i of `SCHEME_RUNNERS` among `schemes`: g exponentials per round-1
      fading, in the same order, g the receptions a member needs
      (`rnc_generation_size` for RNC, 1 for the benchmark), read as an
      (n, g) block by `channel.completion_rounds`: member j reads row j,
      whatever the other members did in round 1.

    Replications run in batches of about `_BATCH_SLOTS` padded recovery
    slots, 8 / g of that when a later-rounds g exceeds 8 (`_batches`).  A
    batch draws the drops and fading values of all of its drops in one
    call each, and a later-rounds stream's when its scheme's pass starts
    (`_continue`); numpy fills them in sequence, so every drop's values
    are the same whatever the batch width.  Every recovery block sits at a
    fixed place in its stream, so a cell's draws depend on no other cell.
    """
    prefix = (_STUDY_IDS[study], *key)
    drop_rng, fading_rng = (_rng(config.base_seed, (*prefix, 0, stream))
                            for stream in range(2))
    recovery = (_Recovery(config.base_seed, prefix)
                if "clustering" in schemes else None)
    plans = _drop_law(config)(drop_rng, config.replications)
    sim = config.sim
    # Each BS scheme's later-rounds stream and receptions per member.
    order = list(SCHEME_RUNNERS)
    later = {scheme: (_rng(config.base_seed,
                           (*prefix, order.index(scheme), 1)),
                      sim.rnc_generation_size if scheme == "rnc" else 1)
             for scheme in schemes
             if study == "delay" and scheme != "clustering"}
    budget = _BATCH_SLOTS * 8 // max([8, *(g for _, g in later.values())])
    cells = 0  # the cells of earlier batches
    for lo, groups in _batches(plans, config.mode == "fixed_total", budget):
        # Per drop: its uniforms, fadings and clusters (cells).
        sizes = np.zeros((3, sum(i.size for _, i in groups)), dtype=np.intp)
        for plan, index in groups:
            sizes[:, index] = np.array([plan.read.size, plan.n_uavs,
                                        len(plan.bounds) - 1])[:, None]
        u_at, f_at, r_at = np.cumsum(sizes, axis=1) - sizes
        r_at += cells
        cells += int(sizes[2].sum())
        yield _Batch([(plan, lo + index, u_at[index], f_at[index],
                       r_at[index]) for plan, index in groups],
                     drop_rng.random(sizes[0].sum()),
                     fading_rng.standard_exponential(sizes[1].sum()),
                     later, recovery,
                     lo + sizes.shape[1] == config.replications)


def _replicated(study: str, config: ScenarioConfig,
                key: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Every scheme's metrics of every replication, in replication order:
    a (replications, columns) array of the study's `_SIMULATED` columns,
    (mean delay, delivery ratio) in the delay study, (ase,) in the ase
    study, for each of `config.schemes`, over the stream layout
    `_scenario` documents.  `_continue` finishes each batch one scheme at
    a time, and each outcome is reduced as soon as it is yielded.

    The ase study's benchmark counts the members the first broadcast
    serves, so its rows and RNC's reduce the round-1 decisions, no BS
    epoch runs, and clustering recovers only when its own rows are asked
    for.
    """
    sim, schemes = config.sim, config.schemes
    rate_density = (config.lambda_off_per_m2
                    * math.log2(1.0 + config.radio.snr_threshold))
    out = {scheme: np.empty((config.replications, len(_SIMULATED[study][0])))
           for scheme in schemes}
    for batch in _scenario(study, config, key, schemes):
        for scheme, drops, outcome in _continue(config, batch, schemes):
            out[scheme][drops.rows] = _reduce(study, scheme, sim, *outcome[:2],
                                              rate_density)
    return out


def _batches(plans, fixed: bool, budget: int):
    """Each batch of `_replicated`: its first replication and its drops by
    plan, as (plan, positions in the batch) in order of first use.  A batch
    closes when one more drop the size of its last would take it past
    `budget` padded slots (`_DropPlan.slots`), an empty drop counting as
    one.  When all drops share one plan (`fixed`), batches of
    max(1, budget // slots) drops follow without a walk over the drops."""
    if fixed:
        width = max(1, budget // max(1, plans[0].slots))
        for lo in range(0, len(plans), width):
            yield lo, [(plans[0], np.arange(min(width, len(plans) - lo)))]
        return
    lo, slots, groups = 0, 0, {}
    for rep, plan in enumerate(plans):
        size = max(1, plan.slots)
        slots += size
        groups.setdefault(plan.bounds, (plan, []))[1].append(rep - lo)
        if slots + size > budget or rep + 1 == len(plans):
            yield lo, [(p, np.array(i)) for p, i in groups.values()]
            lo, slots, groups = rep + 1, 0, {}


def _continue(config: ScenarioConfig, batch: _Batch, schemes,
              events: list | None = None):
    """Finish a batch one scheme at a time: yield (scheme, drops, outcome)
    for each of `schemes` and `_Drops` of each shape, the outcome the
    (delivery, via_broadcast, counters) of `protocol.run_epochs`: (m, n)
    delivery times (NaN for undelivered) and round-1 marks; `events`,
    when a list, gets the events of a batch of one epoch.  Clustering
    runs in the round-1 pass (`_round_one`), which queues the rows that
    recover; at the scenario's last batch, or once the queue reaches
    `_BATCH_SLOTS`, its recovery pass runs and yields those rows, queued
    by this batch or earlier ones (`_Recovery.recover`).  Then each
    delay-study BS scheme runs in a pass of its own over what round 1
    kept (`_later_rounds`), on its later-round block drawn for the pass,
    so a pass's arrays go when it ends."""
    decided, shapes = yield from _round_one(config, batch, schemes, events)
    batch.uniforms = batch.fading = None  # read by the round-1 pass alone
    recovery = batch.recovery
    if recovery is not None and (batch.last
                                 or recovery.slots >= _BATCH_SLOTS):
        yield from recovery.recover(config)
    for scheme in batch.later:
        yield from _later_rounds(config, scheme, batch, shapes, decided,
                                 events)


def _round_one(config: ScenarioConfig, batch: _Batch, schemes,
               events: list | None):
    """The round-1 pass of `_continue`: for each shape in turn, gather its
    uniforms and fading and decide round 1, which serves the members whose
    fading decodes.  When one packet exceeds the budget no round 1 runs:
    no member is served, and neither member points nor mean BS powers are
    built (`_Drops.power` None).  Clustering queues the recovering cells
    and their rows (`_Recovery.queue`), none when no round 1 ran, and
    yields the other rows at once; a batch of one epoch that records
    `events` recovers at once instead, reading its cells' blocks through
    `_Recovery.draw`.  A BS scheme of the ase study stops at round 1,
    outcome (None, round-1 decisions).  Returns whether round 1 ran, and
    the `_Drops`, not the member points."""
    radio, sim = config.radio, config.sim
    decided = sim.packet_len_ms <= sim.max_time_ms  # this layer's one check
    shapes = []
    for plan, rows, starts, at, r_at in batch.shapes:
        xy = power = None
        first = np.zeros((rows.size, plan.n_uavs), dtype=bool)
        if decided:
            # The member points alone: the centers would keep their buffer
            # alive.
            xy = _drop_points(plan, _take(batch.uniforms, starts,
                                          plan.read.size))[1]
            # `offset_distance` measures x from the observer towards the
            # disk's center; the BS sits on the +x axis at d0, so that x
            # is -x here.
            power = mean_received_power(LinkKind.BS_TO_UAV, offset_distance(
                config.d0_m, -xy[..., 0], xy[..., 1] ** 2,
                abs(config.h2_m - config.h1_m)), radio)
            first = decodes(power, _take(batch.fading, at, plan.n_uavs), radio)
        shapes.append(drops := _Drops(plan, rows, at, power, first))
        for scheme in schemes:
            if scheme == "clustering" and events is not None:
                yield scheme, drops, run_epochs(
                    scheme, xy, plan.bounds, first, radio, sim,
                    batch.recovery.draw(r_at), events)
            elif scheme == "clustering":
                free = drops.take(batch.recovery.queue(drops, xy, r_at))
                if free.rows.size:
                    yield scheme, free, run_epochs(
                        scheme, None, plan.bounds, free.first, radio, sim,
                        None)
            elif scheme not in batch.later:
                yield scheme, drops, (None, first)
    return decided, shapes


def _later_rounds(config: ScenarioConfig, scheme: str, batch: _Batch,
                  shapes: list[_Drops], decided: bool, events: list | None):
    """A delay-study BS scheme's pass of `_continue` over `shapes`, on the
    batch's later-round block, drawn now: `completion_rounds` reads each
    shape's completion rounds from its rows of the block, and
    `run_epochs` sends no round past the budget.  Where round 1 did not
    run (`decided` false) no later round can: no block is drawn, and no
    member ever completes."""
    radio, sim = config.radio, config.sim
    rng, g = batch.later[scheme]
    if decided:
        # One row per member of the batch, as the fading.
        block = rng.standard_exponential(
            (sum(drops.first.size for drops in shapes), g))
    for drops in shapes:
        if decided:
            rounds = completion_rounds(
                drops.first, decode_probability(drops.power, radio),
                _take(block, drops.at, drops.plan.n_uavs))
        else:
            rounds = np.full(drops.first.shape, np.inf)
        yield scheme, drops, run_epochs(scheme, None, drops.plan.bounds,
                                        rounds, radio, sim, None, events)


def replay_epoch(config: ScenarioConfig, scheme: str,
                 collect_events: bool = False) -> SchemeOutcome:
    """Replication 0 of the config's delay scenario on a one-point grid
    (study key (0, 0)) with one replication, for `scheme`: its drop,
    round-1 fading, later rounds and recovery uniforms, finished by
    `_continue`.  So its delay and delivery ratio are the first row
    `run_delay_study` reduces at that point with `replications = 1`; in
    fixed_total mode, at any replication count.  `collect_events` records
    the epoch's event log."""
    config = config.replace(replications=1)
    batch, = _scenario("delay", config, (0, 0), (scheme,))
    events = [] if collect_events else None
    (_, drops, epochs), = _continue(config, batch, (scheme,), events)
    return SchemeOutcome.of_batch(scheme, drops.plan.bounds, epochs, events)


def replay_drops(config: ScenarioConfig,
                 count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The drops of replications 0 to count - 1 of the config's delay
    scenario on a one-point grid with `count` replications, as (member
    points (n, 2), cluster of each member (n,)) in replication order."""
    out = [None] * count
    for batch in _scenario("delay", config.replace(replications=count),
                           (0, 0), ()):
        for plan, rows, starts, *_ in batch.shapes:
            _, xy = _drop_points(plan, _take(batch.uniforms, starts,
                                             plan.read.size))
            for rep, points in zip(rows.tolist(), xy):
                out[rep] = points, plan.cluster_of
    return out


def _reduce(study: str, scheme: str, sim, delivery: np.ndarray,
            via_broadcast: np.ndarray, rate_density: float):
    """Reduce the epochs of one drop shape (rows of `delivery`, NaN for
    undelivered, which the ase study's BS schemes do not read, and
    `via_broadcast`) to rows of the study's `_SIMULATED` columns: (mean
    delay, delivery ratio) in the delay study, (ase,) in the ase study;
    `rate_density` is lambda_off * log2(1 + threshold).  NaN throughout
    for empty drops."""
    m, n = via_broadcast.shape
    if not n:
        return np.full((m, len(_SIMULATED[study][0])), np.nan)
    if study == "ase":
        # The clustering ase counts every delivered member; the ACK
        # benchmark only members served by the first broadcast, later
        # rounds are retransmissions of the same packet.
        served = (~np.isnan(delivery) if scheme == "clustering"
                  else via_broadcast)
        return ((np.count_nonzero(served, axis=1) / n)
                * rate_density)[:, None]
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


def _simulated_study(study: str, config: ScenarioConfig, d0_values,
                     c_values) -> MetricTable:
    """The simulated study `study` over (d0, C): for every scheme of
    `config.schemes`, the replication mean of each of the study's
    `_SIMULATED` columns, then an `analytic` row of its closed form for
    the first column at center distance d0."""
    columns, closed_form = _SIMULATED[study]
    c_values = _cluster_counts(c_values)
    d0_values = _grid("d0_values", d0_values)
    p_suc = analysis.transmission_success_probability(config.radius_r_m,
                                                      config.radio)
    rows = []
    for i_d0, d0 in enumerate(d0_values):
        at_d0 = config.replace(d0_m=d0)  # its own check names d0_m
        p_cov = analysis.coverage_probability(at_d0.geometry(), config.radio)
        analytic = closed_form(config, p_cov, p_suc)
        for i_c, c in enumerate(c_values):
            scenario = at_d0.replace(num_clusters=c)
            for scheme, metrics in _replicated(study, scenario,
                                               (i_d0, i_c)).items():
                for column, samples in zip(columns, metrics.T):
                    rows.append(MetricRow(study, "num_clusters", float(c),
                                          scheme, f"{column}_d0_{d0:g}",
                                          *_mean_stderr(samples)))
            rows.append(MetricRow(study, "num_clusters", float(c), "analytic",
                                  f"{columns[0]}_d0_{d0:g}", analytic, 0.0, 0))
    return MetricTable(rows)


def run_delay_study(config: ScenarioConfig, d0_values=DEFAULT_D0_GRID,
                    c_values=DEFAULT_C_GRID) -> MetricTable:
    """Simulated per-packet delay of every enabled scheme over (d0, C).

    Rows carry the replication mean of per-epoch delay averages (undelivered
    members excluded) plus a delivery-ratio metric; `analytic` rows give the
    closed-form clustering delay at center distance d0.
    """
    return _simulated_study("delay", config, d0_values, c_values)


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
    return _simulated_study("ase", config, d0_values, c_values)
