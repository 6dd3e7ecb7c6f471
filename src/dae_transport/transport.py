"""One-shot denoising transport maps, their compositions, and the continuous flow.

Two map backends are provided:

* :class:`MixtureExact` evaluates the exact minimizer of the denoising
  objective for a Gaussian mixture: ``x + t * score(smoothed mixture, x)``.
* :class:`EmpiricalKernel` is the plug-in estimator from data: a
  Nadaraya-Watson weighted mean with Gaussian kernel variance t.

The single-Gaussian closed form of the same map is ``measures.Gaussian.denoise``.

Deep flows are compositions of such maps, each retrained on the current
pushforward measure; the continuous flow is the same composition on a uniform
schedule, which is its broken-line (explicit Euler) approximation, so matching
schedules produce identical trajectories bit for bit.

Every flow hands its times, states and each state's law (a ``Gaussian`` when
known in closed form, else None) to one builder, which records each state's
entropies; the states' sample moments are taken when the JSON is written.

Every single-Gaussian formula here (the propagated covariance and its
entropies) is an eigenvalue map of the one Gaussian value
``measures.Gaussian``, which also owns the closed-form maps
``Gaussian.denoise`` and ``Gaussian.continuous_map``.  An analytic flow of L
layers on n points in R^m decomposes the initial covariance once, then
costs an O(L m) eigenvalue recursion and one O(n m^2) pass per state
straight from the initial points (each layer scales the axes of one
eigenbasis, so L layers are one cumulative per-axis factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ContractError, DomainError, SingularityError
from .measures import (
    Estimate,
    Gaussian,
    GaussianMixture,
    ParticleEnsemble,
    _checked_time,
    _kernel_pass,
    _moments,
    _pointwise,
    _renyi_terms,
    kde_log_density,
    score,
    silverman_covariance,
    smooth,
)
from .rand import substream
from .svg import write_csv

_UNDERFLOW_LOG = math.log(1e-300)
_KDE_DATA_CAP = 2048  # diagnostics subsample sizes
_KDE_EVAL_CAP = 4096
_RETRAIN_MODES = ("analytic", "empirical")


# -- map backends ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MixtureExact:
    """Exact denoising map for a Gaussian mixture at noise variance t."""

    mix: GaussianMixture
    t: float

    def __post_init__(self):
        t = _checked_time(self.t, "noise variance")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_smoothed", smooth(self.mix, t))

    @property
    def dim(self) -> int:
        return self.mix.dim

    @_pointwise
    def apply(self, x) -> np.ndarray:
        return x.copy() if self.t == 0.0 else x + self.t * score(self._smoothed, x)


class AnalyticGaussian:
    """``Gaussian.from_cov(cov, mean).denoise(x, t)`` as a map object, exported nowhere.

    Only the benchmark's tracer (``perfbench/tracing.py``, ``TARGETS``) names
    this class; it goes when ``TARGETS`` drops it.
    """

    def __init__(self, mean, cov, t: float):
        self._g, self.t = Gaussian.from_cov(cov, mean), _checked_time(t, "noise variance")

    def apply(self, x) -> np.ndarray:
        return self._g.denoise(x, self.t)


@dataclass(frozen=True, eq=False)
class EmpiricalKernel:
    """Plug-in denoising map: Gaussian-kernel weighted mean of the data.

    ``g(x) = sum_i d_i N(x; d_i, t I) / sum_i N(x; d_i, t I)``.  Degenerate at
    t = 0 and wherever the kernel weight sum underflows; both raise
    :class:`DomainError` rather than guessing a value.
    """

    data: ParticleEnsemble
    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", _checked_time(self.t, "noise variance"))

    @property
    def dim(self) -> int:
        return self.data.dim

    @_pointwise
    def apply(self, x) -> np.ndarray:
        if self.t == 0.0:
            raise DomainError("empirical kernel map is degenerate at t = 0")
        log_norm = -0.5 * self.dim * math.log(2.0 * math.pi * self.t)
        log_weight, out = _kernel_pass(x, self.data.points, self.t, log_norm, weighted_mean=True)
        if np.any(log_weight < _UNDERFLOW_LOG):
            raise DomainError(
                f"kernel weight sum underflow (log sum {float(np.min(log_weight)):.1f} < log 1e-300); "
                "the probe point is too far from the data for bandwidth t"
            )
        return out


# -- schedules and trajectories -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class FlowSchedule:
    """Per-layer noise variances tau_0..tau_L; total time is their sum."""

    taus: tuple[float, ...]

    def __post_init__(self):
        taus = tuple(
            _checked_time(t, "layer variance", positive=True)
            for t in np.atleast_1d(np.asarray(self.taus, dtype=float))
        )
        if len(taus) == 0:
            raise ContractError("schedule must contain at least one layer")
        with np.errstate(over="ignore"):  # a sum past the largest float is rejected below as inf
            times = np.cumsum(taus)
        stuck = np.flatnonzero((times[1:] <= times[:-1]) | np.isinf(times[1:]))
        if stuck.size:
            i = int(stuck[0]) + 1
            raise ContractError(f"cumulative times must strictly increase and stay finite: layer {i} variance "
                                f"{taus[i]!r} moves the time from {float(times[i - 1])!r} to {float(times[i])!r}")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "_times", tuple(times.tolist()))

    @classmethod
    def uniform(cls, t_end: float, steps: int) -> "FlowSchedule":
        t_end = _checked_time(t_end, "total time", positive=True)
        steps = int(steps)
        if steps < 1:
            raise ContractError(f"steps must be >= 1, got {steps}")
        return cls((t_end / steps,) * steps)

    @property
    def times(self) -> tuple[float, ...]:
        """Cumulative times after each layer, summed once at construction."""
        return self._times

    def __len__(self) -> int:
        return len(self.taus)


@dataclass(frozen=True, eq=False)
class FlowDiagnostics:
    """Per-time summary: entropy and quadratic Renyi estimates."""

    entropy: Estimate
    renyi2: Estimate

    def to_json_dict(self) -> dict:
        return {
            "entropy": self.entropy.value,
            "entropy_stderr": self.entropy.stderr,
            "renyi2": self.renyi2.value,
            "renyi2_stderr": self.renyi2.stderr,
        }


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped particle states with per-time diagnostics."""

    times: tuple[float, ...]
    states: tuple[ParticleEnsemble, ...]
    diagnostics: tuple[FlowDiagnostics, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        states = tuple(self.states)
        diags = tuple(self.diagnostics)
        if not times or times[0] != 0.0:
            raise ContractError("trajectory times must start at 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ContractError("trajectory times must be strictly increasing")
        if len(states) != len(times) or len(diags) != len(times):
            raise ContractError("times, states, and diagnostics must have equal length")
        shapes = {s.points.shape for s in states}
        if len(shapes) != 1:
            raise ContractError("all trajectory states must share n and m")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "diagnostics", diags)

    @property
    def n(self) -> int:
        return self.states[0].n

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def to_csv(self, path: str | Path) -> None:
        """Long-format CSV: one row per (time, particle) with columns x1..xm."""
        header = ["time", "particle_id"] + [f"x{j + 1}" for j in range(self.dim)]
        rows = ([t, pid, *row] for t, s in zip(self.times, self.states)
                for pid, row in enumerate(s.points.tolist()))
        write_csv(path, header, rows, self.states[0].seed)

    def diagnostics_json(self) -> dict:
        """Per-time records: the diagnostics plus the particles' sample moments, taken here from the states."""
        records = []
        for t, s, d in zip(self.times, self.states, self.diagnostics):
            mean, cov = _moments(s.points)
            records.append({"time": t, **d.to_json_dict(), "mean": mean.tolist(), "cov": cov.tolist()})
        return {"seed": self.states[0].seed, "records": records}


# -- diagnostics helpers -------------------------------------------------------------


def _layer_diagnostics(
    points: np.ndarray, g: Gaussian | None, seed: int, layer: int
) -> FlowDiagnostics:
    """Entropies of the layer's measure.

    Closed form when the layer's Gaussian ``g`` is known; otherwise seeded
    kernel density estimates on capped subsamples of the particles.
    """
    if g is not None:
        return FlowDiagnostics(Estimate(g.entropy(), 0.0), Estimate(g.renyi(2.0), 0.0))
    rng = substream(seed, 100, layer)
    n = points.shape[0]
    data, probes = (points[rng.choice(n, cap, replace=False)] if n > cap else points
                    for cap in (_KDE_DATA_CAP, _KDE_EVAL_CAP))
    lp = kde_log_density(data, silverman_covariance(data), probes)
    return FlowDiagnostics(Estimate.mean_of(-lp), Estimate.mean_of(_renyi_terms(lp, 2.0)))


def _trajectory(
    times: Sequence[float], states: Sequence[ParticleEnsemble], laws: Sequence[Gaussian | None]
) -> Trajectory:
    """The one place states become a :class:`Trajectory`: state l's diagnostics from its law ``laws[l]``."""
    seed = states[0].seed
    diags = [_layer_diagnostics(s.points, g, seed, layer)
             for layer, (s, g) in enumerate(zip(states, laws))]
    return Trajectory(times, states, diags)


# -- flows -------------------------------------------------------------------------


def compose(
    mix0: GaussianMixture,
    schedule: FlowSchedule,
    ensemble: ParticleEnsemble,
    retrain: str | None = None,
) -> Trajectory:
    """Compose per-layer denoising maps, retraining each layer on the current measure.

    ``retrain='analytic'`` propagates the single-Gaussian measure in closed
    form (mean fixed, eigenvalues through the one-shot pushforward, one
    eigendecomposition for the whole flow) and moves the points by the
    composed ``Gaussian.denoise`` maps; the ensemble may then be arbitrary
    probe points.  Each map scales the axes of one eigenbasis about
    the mean, so every state comes straight from the initial points through
    a cumulative per-axis factor.  The cost is an O(L m) eigenvalue
    recursion and one O(n m^2) pass per state; no moments are derived.
    ``retrain='empirical'`` rebuilds an :class:`EmpiricalKernel` map from the
    current particles with bandwidth equal to the layer's own noise variance,
    matching the map's smoothing scale.  The default is analytic for a single
    Gaussian and empirical otherwise.

    A finite composition contracts the measure but never loses rank: a layer
    maps each eigenvalue lambda to lambda^3 / (lambda + tau)^2, which exceeds
    lambda - 2 tau, so there is no singular time here; the horizon check of
    :func:`continuous_flow` is the one singularity rule.
    """
    if retrain is None:
        retrain = "analytic" if mix0.k == 1 else "empirical"
    if retrain not in _RETRAIN_MODES:
        raise ContractError(f"retrain mode must be 'analytic' or 'empirical', got {retrain!r}")
    if ensemble.dim != mix0.dim:
        raise ContractError(f"ensemble dimension {ensemble.dim} does not match measure dimension {mix0.dim}")
    if retrain == "analytic" and mix0.k != 1:
        raise ContractError("analytic retraining needs a single-Gaussian initial measure")
    if retrain == "empirical" and ensemble.n < 10:
        raise ContractError(f"empirical retraining needs at least 10 particles, got {ensemble.n}")

    times = (0.0, *schedule.times)
    if retrain == "analytic":
        return _trajectory(times, *_analytic_flow(Gaussian.of(mix0), schedule, ensemble))

    # the moved points never share the trained-on state's array: a kernel product of one array with itself rounds
    # differently (numpy takes it as symmetric), so one copy up front keeps every layer reproducible
    points = ensemble.points.copy()
    states = [ensemble]
    for tau in schedule.taus:
        points = EmpiricalKernel(states[-1], tau).apply(points)
        states.append(ParticleEnsemble(points, ensemble.seed))
    return _trajectory(times, states, [None] * len(states))


def _analytic_flow(
    g0: Gaussian, schedule: FlowSchedule, ensemble: ParticleEnsemble
) -> tuple[list[ParticleEnsemble], list[Gaussian]]:
    """States and laws of the analytic composed flow, each state straight from the initial points.

    Layer l scales axis j of the fixed eigenbasis V about the mean by
    ``f_lj = lam_j / (lam_j + tau_l)`` at the layer's incoming eigenvalues, so
    after l layers the factor is the cumulative product ``F_l``.  State l is
    ``((x0 - mean) V F_l) V^T + mean``, the form of ``Gaussian.continuous_map``.
    """
    laws = [g0] + [g for _, g in g0.composed(schedule.taus)]
    lam = np.array([g.evals for g in laws[:-1]])
    factors = np.cumprod(lam / (lam + np.array(schedule.taus)[:, None]), axis=0)
    v, mu = g0.evecs, g0.mean
    z0 = (ensemble.points - mu) @ v
    states = [ensemble] + [ParticleEnsemble((z0 * f) @ v.T + mu, ensemble.seed) for f in factors]
    return states, laws


def continuous_flow(
    mix0: GaussianMixture,
    t_end: float,
    steps: int,
    ensemble: ParticleEnsemble,
    retrain: str | None = None,
) -> Trajectory:
    """Broken-line approximation of the continuous flow on a uniform schedule.

    Delegates to :func:`compose` with ``tau = t_end / steps``, so matching
    uniform schedules and modes yield bit-identical trajectories; the retrain
    mode defaults as in :func:`compose`.  For a single Gaussian the total time
    must stay strictly below the singular time (half the smallest covariance
    eigenvalue); past it the :class:`SingularityError` carries the initial
    state as a one-time trajectory in ``partial``.
    """
    t_end = _checked_time(t_end, "total time", positive=True)
    if mix0.k == 1:
        g = Gaussian.of(mix0)
        try:
            g.check_horizon(t_end, "continuous flow")
        except SingularityError as exc:
            exc.partial = _trajectory((0.0,), [ensemble], [g])
            raise
    return compose(mix0, FlowSchedule.uniform(t_end, steps), ensemble, retrain)


def one_shot_orbit(
    mix0: GaussianMixture, times: Sequence[float], ensemble: ParticleEnsemble
) -> Trajectory:
    """Orbit of the one-shot map: each time t maps the original points once.

    Unlike a composed flow, every state is produced by a single map trained on
    the initial measure with noise variance t.
    """
    ts = [_checked_time(t, "orbit time", positive=True) for t in times]
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ContractError("orbit times must be strictly increasing and positive")
    if ensemble.dim != mix0.dim:
        raise ContractError("ensemble dimension does not match measure dimension")

    g = Gaussian.of(mix0) if mix0.k == 1 else None
    states, laws = [ensemble], [g]
    for t in ts:
        states.append(ParticleEnsemble(MixtureExact(mix0, t).apply(ensemble.points), ensemble.seed))
        laws.append(None if g is None else g.one_shot(t))
    return _trajectory((0.0, *ts), states, laws)
