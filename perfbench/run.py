"""uavcast benchmark runner.

    python3 perfbench/run.py --workload analytic --seed 7 --seconds 25 --trace 0

Runs from the root of a source checkout (the package is imported from
`src/`).  One closed-loop caller in this process repeats the workload's
unit of `uavcast` command lines until `--seconds` have passed, checks every
output, and prints one metric per line followed, as the last line, by a
JSON summary:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced units and reports the per-layer metrics derived from the spans.
The full result, with the environment, CSV digests and per-unit values, is
written as JSON under `perfbench/out/` (or to `--out`).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# One caller, no pool: native thread pools get one thread each, which keeps
# them at or below nproc on any machine.  Set before numpy is imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, median_metrics  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_SNIPPET = "from uavcast.config import ScenarioConfig; ScenarioConfig()"


def _source_present() -> bool:
    return (SRC / "uavcast" / "__init__.py").is_file()


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import uavcast and build a
    ScenarioConfig, as every `uavcast` command does first; at the reference
    speed and as measured."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    speeds = speed.SpeedLog()
    raw = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        speeds.after_op()
    return speeds.scale(raw), raw


def environment() -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "uavcast").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


class UnitRunner:
    """Runs units of one workload and checks every operation's output."""

    def __init__(self, workload: str, seed: int, size: workloads.Size,
                 work_dir: Path):
        import uavcast.cli
        from uavcast.errors import UavcastError
        self.cli = uavcast.cli
        self.error_type = UavcastError
        self.workload, self.seed, self.size = workload, seed, size
        self.work_dir = work_dir
        self.reference = workloads.load_reference()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None
        self.speeds = speed.SpeedLog()
        self.op_s: list[float] = []

    def run_unit(self, tracer: Tracer | None = None) -> slice:
        """Run one unit; return the slice of `op_s` that holds its
        operations' times inside `uavcast`."""
        ops = workloads.unit_ops(self.workload, self.seed, self.size,
                                 self.work_dir)
        first = len(self.op_s)
        digests = {}
        for op in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.run_id += 1
            out_path = self.work_dir / op.output
            out_path.unlink(missing_ok=True)
            stdout = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = self.cli.main(list(op.argv))
                error = None if code == 0 else f"exit code {code}"
            except self.error_type as exc:
                error = f"{type(exc).__name__}: {exc}"
            self.op_s.append(time.perf_counter() - t0)
            self.speeds.after_op()
            if error is None:
                problems = workloads.check_op(
                    op, out_path, stdout.getvalue(),
                    self.reference, self.size == workloads.FULL)
                digests[op.output] = workloads.digest(
                    out_path, stdout.getvalue() if op.kind == "distributions"
                    else "")
            else:
                problems = [error]
            if problems:
                self.failed += 1
                self.problems.extend(f"{op.output}: {p}" for p in problems)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problems.append(
                "outputs differ between units of one seed"
                + (" (traced vs untraced)" if tracer is not None else ""))
        return slice(first, len(self.op_s))


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: workloads.Size = workloads.FULL, out: Path | None = None) -> dict:
    """Measure one run; return the full result (summary under "summary")."""
    sys.path.insert(0, str(SRC))
    import uavcast
    if Path(uavcast.__file__).resolve().parent != (SRC / "uavcast").resolve():
        raise SystemExit(f"imported uavcast from {uavcast.__file__}, not {SRC}")
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        runner = UnitRunner(workload, seed, size, work_dir)
        untraced: list[slice] = []
        traced: list[slice] = []
        layer_units: list[dict] = []
        tracer = Tracer() if trace else None
        not_restored: list[str] = []
        started = time.perf_counter()
        while (time.perf_counter() - started < seconds or not untraced
               or (trace and not traced)):
            if trace and len(traced) < len(untraced):
                lo = len(tracer.start)
                tracer.install()
                try:
                    traced.append(runner.run_unit(tracer))
                finally:
                    not_restored += tracer.uninstall()
                layer_units.append(tracer.unit_metrics(
                    lo, len(tracer.start), tracer.take_counts()))
            else:
                untraced.append(runner.run_unit())
        measured_s = time.perf_counter() - started
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    # Only worker processes of the program have ended by now, so this is
    # the largest one's peak (0 without workers).  The set-up interpreters
    # and `git` run later and are not counted.
    worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if not_restored:
        runner.problems.append(f"wrappers not restored: {sorted(set(not_restored))}")

    epochs = workloads.simulated_epochs(workload, size)
    op_ref_s = runner.speeds.scale(runner.op_s)

    def unit_times(slices, times):
        return [sum(times[s]) for s in slices]

    unit_s = unit_times(untraced, op_ref_s)
    units = {"untraced_s": unit_s,
             "untraced_raw_s": unit_times(untraced, runner.op_s),
             "op_raw_s": runner.op_s, "kernel_s": runner.speeds.kernel_s}
    raw = {"wall_s": statistics.median(units["untraced_raw_s"])}
    if trace:
        traced_s = unit_times(traced, op_ref_s)
        metrics = median_metrics(layer_units)
        metrics["tracing.overhead_frac"] = (
            statistics.median(traced_s) / statistics.median(unit_s) - 1.0)
        units.update(traced_s=traced_s, per_unit=layer_units)
    else:
        setup, setup_raw = measure_setup(size.setup_repeats)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(unit_s),
            "epochs_per_s": epochs * len(unit_s) / sum(unit_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0 + worker_rss_mb,
        }
        units.update(setup_s=setup, setup_raw_s=setup_raw)
        raw["setup_s"] = statistics.median(setup_raw)
    units_of = {m["name"]: m["unit"] for m in metric_specs()}
    summary = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "measured_s": measured_s,
        "epochs_per_unit": epochs, "units": units, "raw_medians": raw,
        "worker_rss_mb": worker_rss_mb,
        "failed_frac": runner.failed / runner.attempted,
        "problems": runner.problems[:50],
        "wrappers_missing": sorted(set(tracer.missing)) if trace else [],
        "csv_sha256": runner.digests or {},
        "environment": environment(),
        "summary": summary,
    }
    path = out or OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        tracer.write(path.with_name(path.stem + "-spans.npz"))
    result["path"] = str(path)
    return result


def metric_specs() -> list[dict]:
    """End-to-end and per-layer metric entries of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["end_to_end"] + spec["per_layer"]


def main(argv=None, size: workloads.Size = workloads.FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="result JSON path (default: perfbench/out/)")
    args = parser.parse_args(argv)
    if not _source_present():
        print(f"error: no uavcast sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 size, args.out)
    env = result["environment"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} commit={env['git_commit']} "
          f"threads={','.join(f'{k}={v}' for k, v in env['threads'].items())}")
    for name, metric in result["summary"]["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in result["raw_medians"].items():
        print(f"{name} as measured, not scaled to the reference speed "
              f"= {value:.6g} s")
    print(f"failed_frac = {result['failed_frac']:.6g} ratio "
          f"({result['summary']['failed']}/{result['summary']['attempted']})")
    for name, sha in result["csv_sha256"].items():
        print(f"sha256 {name} {sha}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(f"result written to {result['path']}")
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
