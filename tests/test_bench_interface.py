"""The traced benchmark run wraps library names by attribute; they must keep their shape."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import dae_transport
from dae_transport import FlowSchedule, GaussianMixture, compose, continuous_flow, one_shot_orbit, sample

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


def test_tracer_counts_kernel_pairs_of_maps_and_density_estimates(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    mix = GaussianMixture.from_components([(0.5, [-1.0], [[0.5]]), (0.5, [1.0], [[0.5]])])
    ens = sample(mix, 12, 0)
    with tracing.Tracer() as tracer:
        traj = compose(mix, FlowSchedule.uniform(0.2, 2), ens, "empirical")
        # looked up in the package namespace, which the tracer rebinds
        dae_transport.kde_log_density(ens.points, [[0.3]], ens.points[:5])
    assert len(traj.times) == 3
    n = ens.n
    # two layers, each an n x n map apply; three n x n KDE diagnostics plus the 5 x n call
    assert tracer.counts["transport.EmpiricalKernel.apply.calls"] == 2
    # each layer after the first trains on its checked row, adopted, and one call checks the stack: L calls
    assert tracer.counts["measures.ParticleEnsemble.init.calls"] == 2
    assert tracer.counts["transport.EmpiricalKernel.apply.pairs"] == 2 * n * n
    assert tracer.counts["measures.kde_log_density.calls"] == 4
    assert tracer.counts["measures.kde_log_density.pairs"] == 3 * n * n + 5 * n


def test_tracer_counts_one_ensemble_per_analytic_flow(monkeypatch):
    # an analytic flow writes its states into one stack that one constructor call checks and adopts, so a
    # traced flow of any shape times the constructor exactly once
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    mix = GaussianMixture.single([0.0, 0.0], [[2.0, 0.0], [0.0, 1.0]])
    for n, steps in ((16, 5), (16, 600), (5000, 3)):
        ens = sample(mix, n, 0)
        for flow in (lambda: continuous_flow(mix, 0.4, steps, ens),
                     lambda: one_shot_orbit(mix, [0.1 * (i + 1) for i in range(steps)], ens)):
            with tracing.Tracer() as tracer:
                traj = flow()
            assert len(traj.states) == steps + 1 and traj.states[0] is ens
            assert tracer.counts["measures.ParticleEnsemble.init.calls"] == 1
            assert tracer.counts["measures.ParticleEnsemble.init.bytes"] == steps * ens.points.nbytes


@pytest.mark.parametrize("name", ["deep_flow", "wide_flow", "mixture_flow"])
def test_a_traced_op_measures_every_declared_time_metric(monkeypatch, name):
    # a declared time metric that an op never measures makes the traced benchmark run exit
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]
                if m["unit"] == "s" and not m["name"].startswith(("import.", "trace."))]
    wl = workloads.WORKLOADS[name]
    inp = wl.build(1)
    with tracing.Tracer() as tracer:
        wl.op_inprocess(inp)
    measured = tracer.per_op(1)
    assert declared and [key for key in declared if key not in measured] == []


@pytest.mark.parametrize("name", ["deep_flow", "wide_flow", "mixture_flow"])
def test_a_workload_s_checks_pass_one_op_and_reject_every_control(monkeypatch, name):
    # the benchmark's checks and controls read the trajectory's states and diagnostics; no other test runs them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    wl = workloads.WORKLOADS[name]
    inp = wl.build(1)
    out = wl.op(inp)
    assert wl.check(inp, out, None) == [] and wl.check(inp, out, wl.reference(out)) == []
    if hasattr(wl, "oracle"):
        assert wl.oracle(inp, out) == []
    controls = wl.controls(inp, out, None)
    assert controls and [key for key, errs in controls.items() if not errs] == []
