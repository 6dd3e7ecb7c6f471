"""One-shot denoising transport maps, their compositions, and the continuous flow.

Three interchangeable map backends are provided:

* :class:`MixtureExact` evaluates the exact minimizer of the denoising
  objective for a Gaussian mixture: ``x + t * score(smoothed mixture, x)``.
* :class:`AnalyticGaussian` is the single-Gaussian closed form
  ``(I + t S^{-1})^{-1} x + (I + t^{-1} S)^{-1} mu``.
* :class:`EmpiricalKernel` is the plug-in estimator from data: a
  Nadaraya-Watson weighted mean with Gaussian kernel variance t.

Deep flows are compositions of such maps, each retrained on the current
pushforward measure; the continuous flow is the same composition on a uniform
schedule, which is its broken-line (explicit Euler) approximation.  Both
entry points share one step routine, so matching schedules produce identical
trajectories bit for bit.

Every single-Gaussian formula here (the analytic map, the propagated
covariance and its entropies) is an eigenvalue map of the one Gaussian value
``measures.Gaussian``, which also owns the closed-form continuous map
``Gaussian.continuous_map``.  An analytic flow of L layers on n points in R^m
decomposes the initial covariance once, then costs an O(L m) eigenvalue
recursion, one O(n m^2) pass per state straight from the initial points (each
layer scales the axes of one eigenbasis, so L layers are one cumulative
per-axis factor), and O(m^3) per layer for the particle moments, which are
derived from the initial sample moments.
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
    _frozen,
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
from .svg import write_csv, write_json

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


@dataclass(frozen=True, eq=False)
class AnalyticGaussian:
    """Closed-form denoising map for a single Gaussian N(mean, cov): ``Gaussian.denoise`` at a checked t."""

    mean: np.ndarray
    cov: np.ndarray
    t: float

    def __post_init__(self):
        t = _checked_time(self.t, "noise variance")
        g = Gaussian.from_cov(self.cov, self.mean)
        object.__setattr__(self, "mean", g.mean)
        object.__setattr__(self, "cov", _frozen(np.array(self.cov, dtype=float, ndmin=2)))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_g", g)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @_pointwise
    def apply(self, x) -> np.ndarray:
        return x.copy() if self.t == 0.0 else self._g.denoise(x, self.t)


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


def denoising_shift(transport_map: MixtureExact | AnalyticGaussian | EmpiricalKernel, x) -> np.ndarray:
    """Displacement added by the map: ``transport_map.apply(x) - x``.

    This is the negated conditional mean of the noise given the observation;
    it vanishes at t = 0 and equals ``t * score(smoothed measure, x)`` for the
    exact backends.
    """
    return transport_map.apply(x) - np.asarray(x, dtype=float)


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
        times = np.cumsum(taus)
        stuck = np.flatnonzero(times[1:] <= times[:-1])
        if stuck.size:
            i = int(stuck[0]) + 1
            raise ContractError(f"cumulative times must strictly increase: layer {i} variance {taus[i]!r} "
                                f"does not move the time past {float(times[i - 1])!r}")
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

    @property
    def total_time(self) -> float:
        return self.times[-1]

    def __len__(self) -> int:
        return len(self.taus)


@dataclass(frozen=True, eq=False)
class FlowDiagnostics:
    """Per-time summary: entropy and quadratic Renyi estimates plus moments."""

    entropy: Estimate
    renyi2: Estimate
    mean: np.ndarray
    cov: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "entropy": self.entropy.value,
            "entropy_stderr": self.entropy.stderr,
            "renyi2": self.renyi2.value,
            "renyi2_stderr": self.renyi2.stderr,
            "mean": np.asarray(self.mean).tolist(),
            "cov": np.asarray(self.cov).tolist(),
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
        return {
            "seed": self.states[0].seed,
            "records": [
                {"time": t, **d.to_json_dict()} for t, d in zip(self.times, self.diagnostics)
            ],
        }

    def write_diagnostics(self, path: str | Path) -> None:
        write_json(path, self.diagnostics_json())


# -- diagnostics helpers -------------------------------------------------------------


def _layer_diagnostics(
    points: np.ndarray, g: Gaussian | None, seed: int, layer: int
) -> FlowDiagnostics:
    """Entropies of the layer's measure plus the particles' moments.

    Closed form when the layer's Gaussian ``g`` is known; otherwise seeded
    kernel density estimates on capped subsamples of the particles.
    """
    if g is not None:
        return _gaussian_diagnostics(g, *_moments(points))
    rng = substream(seed, 100, layer)
    n = points.shape[0]
    data, probes = (points[rng.choice(n, cap, replace=False)] if n > cap else points
                    for cap in (_KDE_DATA_CAP, _KDE_EVAL_CAP))
    lp = kde_log_density(data, silverman_covariance(data), probes)
    ent, ren = Estimate.mean_of(-lp), Estimate.mean_of(_renyi_terms(lp, 2.0))
    return FlowDiagnostics(ent, ren, *_moments(points))


def _gaussian_diagnostics(g: Gaussian, mean: np.ndarray, cov: np.ndarray) -> FlowDiagnostics:
    """Closed-form entropies of ``g`` with the given particle moments."""
    return FlowDiagnostics(Estimate(g.entropy(), 0.0), Estimate(g.renyi(2.0), 0.0), mean, cov)


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
    composed :class:`AnalyticGaussian` maps; the ensemble may then be
    arbitrary probe points.  Each map scales the axes of one eigenbasis about
    the mean, so every state comes straight from the initial points through
    a cumulative per-axis factor.  The cost is an O(L m) eigenvalue
    recursion, one O(n m^2) pass per state, and O(m^3) per layer for the
    diagnostics' moments, which are derived from the initial sample moments
    instead of the particles.  ``retrain='empirical'`` rebuilds an
    :class:`EmpiricalKernel` map from the current particles with bandwidth
    equal to the layer's own noise variance, matching the map's smoothing
    scale.  The default is analytic for a single Gaussian and empirical
    otherwise.

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

    if retrain == "analytic":
        states, diags = _analytic_flow(Gaussian.of(mix0), schedule, ensemble)
        return Trajectory((0.0, *schedule.times), states, diags)

    # the moved points never share the trained-on state's array: a kernel product of one array with itself rounds
    # differently (numpy takes it as symmetric), so one copy up front keeps every layer reproducible
    seed = ensemble.seed
    points = ensemble.points.copy()
    states = [ensemble]
    diags = [_layer_diagnostics(points, None, seed, 0)]
    for layer, tau in enumerate(schedule.taus, start=1):
        points = EmpiricalKernel(states[-1], tau).apply(points)
        states.append(ParticleEnsemble(points, seed))
        diags.append(_layer_diagnostics(points, None, seed, layer))
    return Trajectory((0.0, *schedule.times), tuple(states), tuple(diags))


def _analytic_flow(
    g0: Gaussian, schedule: FlowSchedule, ensemble: ParticleEnsemble
) -> tuple[tuple[ParticleEnsemble, ...], tuple[FlowDiagnostics, ...]]:
    """States and diagnostics of the analytic composed flow, each state straight from the initial points.

    Layer l scales axis j of the fixed eigenbasis V about the mean by
    ``f_lj = lam_j / (lam_j + tau_l)`` at the layer's incoming eigenvalues, so
    after l layers the factor is the cumulative product ``F_l``.  State l is
    ``((x0 - mean) V F_l) V^T + mean``, the form of ``Gaussian.continuous_map``,
    and its sample moments are the affine image of the initial ones:
    ``mean_l = mean + ((m0 - mean) V F_l) V^T`` and
    ``cov_l = V F_l (V^T C0 V) F_l V^T``.
    """
    laws = [g for _, g in g0.composed(schedule.taus)]
    lam = np.array([g0.evals] + [g.evals for g in laws[:-1]])
    factors = np.cumprod(lam / (lam + np.array(schedule.taus)[:, None]), axis=0)
    v, mu, seed = g0.evecs, g0.mean, ensemble.seed
    m0, c0 = _moments(ensemble.points)
    means = ((m0 - mu) @ v * factors) @ v.T + mu
    covs = v @ ((v.T @ c0 @ v) * factors[:, :, None] * factors[:, None, :]) @ v.T
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))  # exactly symmetric, as np.cov's are
    z0 = (ensemble.points - mu) @ v

    states = [ensemble]
    diags = [_gaussian_diagnostics(g0, m0, c0)]
    for g, f, mean, cov in zip(laws, factors, means, covs):
        states.append(ParticleEnsemble((z0 * f) @ v.T + mu, seed))
        diags.append(_gaussian_diagnostics(g, mean, cov))
    return tuple(states), tuple(diags)


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
            start = _layer_diagnostics(ensemble.points, g, ensemble.seed, 0)
            exc.partial = Trajectory((0.0,), (ensemble,), (start,))
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

    seed = ensemble.seed
    g = Gaussian.of(mix0) if mix0.k == 1 else None
    states = [ensemble]
    diags = [_layer_diagnostics(ensemble.points, g, seed, 0)]
    for layer, t in enumerate(ts, start=1):
        pts = MixtureExact(mix0, t).apply(ensemble.points)
        states.append(ParticleEnsemble(pts, seed))
        diags.append(_layer_diagnostics(pts, None if g is None else g.one_shot(t), seed, layer))
    return Trajectory((0.0, *ts), tuple(states), tuple(diags))
