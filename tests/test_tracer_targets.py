"""The benchmark tracer (`perfbench/spans.py`) finds what it wraps.

A traced benchmark run patches names of the package and puts them back
afterwards.  A name it cannot find is reported in `Tracer.missing`, and a
patch it cannot undo in `uninstall`'s result; a renamed target that the
tracer dereferences crashes the traced run.  This test keeps both lists
to what they were when the tracer was last brought up to date.
"""

import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets the tracer lists that the package no longer has.
_GONE = {
    "ScenarioConfig.sim_params",
    "uavcast.analysis.pdf_peer_distance",
    "uavcast.experiments.build_topology",
    "uavcast.experiments.reception_success",
    "uavcast.experiments.sample_uniform_disk",
    "uavcast.protocol.reception_success",
}


def test_tracer_installs_and_restores_every_wrapper():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        not_restored = tracer.uninstall()
    assert not_restored == []
    assert set(tracer.missing) <= _GONE
