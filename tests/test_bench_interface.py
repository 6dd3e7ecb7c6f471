"""The traced benchmark run wraps library names by attribute; they must keep their shape."""

from __future__ import annotations

import math
from pathlib import Path

import dae_transport
from dae_transport import FlowSchedule, GaussianMixture, compose, continuous_flow, sample
from dae_transport.measures import _SCALED_CHUNK_ELEMENTS

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
    assert tracer.counts["measures.ParticleEnsemble.init.calls"] == 2  # one state per layer, no training copy
    assert tracer.counts["transport.EmpiricalKernel.apply.pairs"] == 2 * n * n
    assert tracer.counts["measures.kde_log_density.calls"] == 4
    assert tracer.counts["measures.kde_log_density.pairs"] == 3 * n * n + 5 * n


def test_tracer_counts_one_ensemble_per_chunk_of_analytic_states(monkeypatch):
    # the analytic flow scales and checks its states a chunk of layers at a time: one constructor call per
    # chunk, at least one per flow, so a traced flow of any shape still times the constructor
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    mix = GaussianMixture.single([0.0, 0.0], [[2.0, 0.0], [0.0, 1.0]])
    for n, steps in ((16, 5), (16, 600), (5000, 3)):
        ens = sample(mix, n, 0)
        per_chunk = max(1, _SCALED_CHUNK_ELEMENTS // ens.points.size)
        with tracing.Tracer() as tracer:
            traj = continuous_flow(mix, 0.4, steps, ens)
        assert len(traj.states) == steps + 1 and traj.states[0] is ens
        assert tracer.counts["measures.ParticleEnsemble.init.calls"] == max(1, math.ceil(steps / per_chunk))
        assert tracer.counts["measures.ParticleEnsemble.init.bytes"] == steps * ens.points.nbytes
