"""The traced benchmark run wraps library names by attribute; they must keep their shape."""

from __future__ import annotations

from pathlib import Path

from dae_transport import FlowSchedule

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_library_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    with tracing.Tracer() as tracer:
        times = FlowSchedule.uniform(1.0, 4).times
    assert isinstance(times, tuple) and len(times) == 4
    assert tracer.counts["transport.FlowSchedule.times.calls"] == 1
    assert isinstance(FlowSchedule.__dict__["times"], property)
    assert FlowSchedule.uniform(1.0, 4).times == times
