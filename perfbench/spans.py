"""In-memory span tracing of calls into the uavcast modules, from outside.

`Tracer.install` replaces module, class and dict attributes of the package
with wrappers that record one span per call (name, start, end, parent span,
run id) or only count calls, for the hot per-integrand functions where a
span would cost more than the call.  `Tracer.uninstall` puts every original
attribute back and reports any that did not come back.  Spans stay in
flat arrays until the run ends; `write` saves them, and `unit_metrics`
derives the per-layer metrics of one measured unit from its slice.

A span's layer is its name up to the first dot.  Self time is a span's
duration minus the part of its interval covered by its child spans.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("config", "geometry", "distributions", "channel", "analysis",
          "protocol", "experiments", "cli")
SCHEMES = ("clustering", "benchmark", "rnc")


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    `parent[i]` indexes into the same arrays (-1 for a root).  Child
    intervals are clipped to the parent's before their union is taken.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children = defaultdict(list)
    for i, p in enumerate(np.asarray(parent, dtype=int)):
        if p >= 0:
            children[int(p)].append(i)
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for k in sorted(kids, key=lambda k: start[k]):
            lo, hi = max(start[k], lo_p), min(end[k], hi_p)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


_MISSING = object()


def _lookup(owner, attr: str):
    """The object stored under `attr`: a dict entry, an attribute defined on
    a class itself (the raw descriptor), or a module attribute."""
    if isinstance(owner, dict):
        return owner.get(attr, _MISSING)
    if isinstance(owner, type):
        return owner.__dict__.get(attr, _MISSING)
    return getattr(owner, attr, _MISSING)


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _draws(args, kwargs) -> int:
    """Fading draws made by one `reception_success(p, distance, ...)` call."""
    size = kwargs.get("size", args[5] if len(args) > 5 else None)
    if size is not None:
        return int(np.prod(size))
    distance = kwargs.get("distance_m", args[1] if len(args) > 1 else 0.0)
    return int(np.size(distance))


class Tracer:
    """Span and counter store plus the attribute patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(math.nan)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn):
        counts, key = self.counts, name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _on_draw(self, args, kwargs, result):
        self.counts["channel.reception_success.draws"] += _draws(args, kwargs)

    def _on_epoch(self, scheme):
        counts = self.counts
        prefix = f"protocol.{scheme}."

        def record(args, kwargs, outcome):
            counts[prefix + "frames"] += (
                getattr(outcome, "bs_transmissions", 0)
                + getattr(outcome, "uav_transmissions", 0)
                + getattr(outcome, "control_messages", 0))
            undelivered = np.asarray(getattr(outcome, "undelivered", ()))
            counts[prefix + "members"] += undelivered.size
            counts[prefix + "undelivered"] += int(np.count_nonzero(undelivered))
            via = np.asarray(getattr(outcome, "via_broadcast", ()))
            if via.shape == undelivered.shape:
                counts[prefix + "recovered"] += int(
                    np.count_nonzero(~undelivered & ~via))

        return record

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, make, label: str) -> None:
        original = _lookup(owner, attr)
        if original is _MISSING:
            self.missing.append(label)
            return
        _assign(owner, attr, make(original))
        self._patches.append((owner, attr, original, label))

    def install(self) -> None:
        """Wrap the public entry points of every uavcast module."""
        from uavcast import analysis, cli, config, distributions, experiments
        from uavcast import protocol

        def span(name, on_result=None):
            return lambda fn: self._span(name, fn, on_result)

        def count(name):
            return lambda fn: self._counter(name, fn)

        targets = [
            (cli, "main", span("cli.main")),
            (cli, "empirical_distance_check", span("distributions.ks_check")),
            (cli, "sampler_self_check", span("distributions.ks_check")),
            (config.ScenarioConfig, "__post_init__", span("config.validate")),
            (config.ScenarioConfig, "sim_params", count("config.sim_params")),
            (distributions.DistanceDistribution, "__init__",
             span("distributions.tabulate")),
            (experiments, "run_validation_study",
             span("experiments.validation_study")),
            (experiments, "run_design_insight_study",
             span("experiments.design_insight_study")),
            (experiments, "run_delay_study", span("experiments.delay_study")),
            (experiments, "run_ase_study", span("experiments.ase_study")),
            (experiments, "_rng", span("experiments.rng_derive")),
            (experiments, "build_topology", span("geometry.build_topology")),
            (experiments, "sample_uniform_disk",
             span("geometry.sample_uniform_disk")),
            (experiments, "reception_success",
             span("channel.reception_success", self._on_draw)),
            (protocol, "reception_success",
             span("channel.reception_success", self._on_draw)),
            (analysis, "coverage_probability", span("analysis.p_cov")),
            (analysis, "transmission_success_probability",
             span("analysis.p_suc")),
            (analysis, "request_success_probability",
             span("analysis.closed_form")),
            (analysis, "average_delay", span("analysis.closed_form")),
            (analysis, "average_ase", span("analysis.closed_form")),
            (analysis, "pdf_peer_distance", count("distributions.pdf_peer")),
            (analysis, "pdf_bs_member_distance",
             count("distributions.pdf_bs_member")),
        ]
        for scheme in SCHEMES:
            targets.append((protocol.SCHEME_RUNNERS, scheme,
                            span(f"protocol.{scheme}", self._on_epoch(scheme))))
        for owner, attr, make in targets:
            label = f"{getattr(owner, '__name__', 'SCHEME_RUNNERS')}.{attr}"
            self._patch(owner, attr, make, label)

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return labels not restored."""
        for owner, attr, original, _ in reversed(self._patches):
            _assign(owner, attr, original)
        not_restored = [label for owner, attr, original, label in self._patches
                        if _lookup(owner, attr) is not original]
        self._patches.clear()
        return not_restored

    # -- read-out ------------------------------------------------------

    def take_counts(self) -> dict[str, float]:
        """Counters since the last call, then reset them."""
        out = dict(self.counts)
        self.counts.clear()
        return out

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """Spans [lo, hi) as arrays, parents re-based to the slice."""
        hi = len(self.start) if hi is None else hi
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(int)
        parent = np.where(parent >= lo, parent - lo, -1)
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32)[lo:hi].copy(),
            "start": np.frombuffer(self.start, dtype=float)[lo:hi].copy(),
            "end": np.frombuffer(self.end, dtype=float)[lo:hi].copy(),
            "parent": parent,
            "run": np.frombuffer(self.run, dtype=np.int32)[lo:hi].copy(),
        }

    def write(self, path) -> None:
        """Save every span as a compressed .npz (names table plus arrays)."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())

    def unit_metrics(self, lo: int, hi: int,
                     counts: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics of one traced unit: spans [lo, hi) and the
        counters taken over the same unit."""
        spans = self.arrays(lo, hi)
        names = np.array(self.names, dtype=object)[spans["name"]]
        dur = spans["end"] - spans["start"]
        own = self_times(spans["start"], spans["end"], spans["parent"])
        roots = spans["parent"] < 0

        def durations(name):
            return dur[names == name]

        def pct(values, q):
            return float(np.percentile(values, q)) if values.size else 0.0

        m: dict[str, float] = {}
        p_suc = durations("analysis.p_suc")
        m["analysis.p_suc.calls"] = p_suc.size
        m["analysis.p_suc.s"] = float(p_suc.sum())
        m["analysis.p_suc.ms_p50"] = pct(p_suc, 50) * 1e3
        m["distributions.pdf_peer.calls"] = counts.get(
            "distributions.pdf_peer.calls", 0)
        p_cov = durations("analysis.p_cov")
        m["analysis.p_cov.calls"] = p_cov.size
        m["analysis.p_cov.s"] = float(p_cov.sum())
        m["distributions.pdf_bs_member.calls"] = counts.get(
            "distributions.pdf_bs_member.calls", 0)
        tab = durations("distributions.tabulate")
        m["distributions.tabulate.calls"] = tab.size
        m["distributions.tabulate.s"] = float(tab.sum())
        for scheme in SCHEMES:
            key = f"protocol.{scheme}"
            d = durations(key)
            frames = counts.get(key + ".frames", 0)
            members = counts.get(key + ".members", 0)
            m[key + ".epochs"] = d.size
            m[key + ".s"] = float(d.sum())
            m[key + ".us_p50"] = pct(d, 50) * 1e6
            m[key + ".us_p99"] = pct(d, 99) * 1e6
            m[key + ".frames"] = frames
            m[key + ".us_per_frame"] = (float(d.sum()) * 1e6 / frames
                                        if frames else 0.0)
            m[key + ".undelivered_frac"] = (
                counts.get(key + ".undelivered", 0) / members if members else 0.0)
        frames = counts.get("protocol.clustering.frames", 0)
        m["protocol.clustering.recovered_per_frame"] = (
            counts.get("protocol.clustering.recovered", 0) / frames
            if frames else 0.0)
        rx = durations("channel.reception_success")
        m["channel.reception_success.calls"] = rx.size
        m["channel.reception_success.draws"] = counts.get(
            "channel.reception_success.draws", 0)
        m["channel.reception_success.s"] = float(rx.sum())
        topo = durations("geometry.build_topology")
        m["geometry.build_topology.calls"] = topo.size
        m["geometry.build_topology.s"] = float(topo.sum())
        m["geometry.build_topology.us_p50"] = pct(topo, 50) * 1e6
        rng = durations("experiments.rng_derive")
        m["experiments.rng_derive.calls"] = rng.size
        m["experiments.rng_derive.s"] = float(rng.sum())
        m["config.sim_params.calls"] = counts.get("config.sim_params.calls", 0)
        layer = np.array([str(n).split(".", 1)[0] for n in names], dtype=object)
        m["experiments.self_s"] = float(own[layer == "experiments"].sum())
        total = float(dur[roots].sum())
        for name in LAYERS:
            m[f"{name}.self_share"] = (float(own[layer == name].sum()) / total
                                       if total > 0 else 0.0)
        m["analysis.p_suc.share"] = float(p_suc.sum()) / total if total > 0 else 0.0
        return m


def median_metrics(per_unit: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over units."""
    keys = per_unit[0].keys()
    return {k: float(statistics.median(u[k] for u in per_unit)) for k in keys}
