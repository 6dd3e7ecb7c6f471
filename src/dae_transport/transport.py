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
``Gaussian.continuous_map``.  The analytic flow decomposes the initial
covariance once and then costs O(n m^2) per layer.
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
    _as_points,
    _checked_time,
    _kernel_pass,
    _moments,
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

    def apply(self, x) -> np.ndarray:
        pts, single = _as_points(x, self.dim)
        if self.t == 0.0:
            out = pts.copy()
        else:
            out = pts + self.t * score(self._smoothed, pts)
        return out[0] if single else out


@dataclass(frozen=True, eq=False)
class AnalyticGaussian:
    """Closed-form denoising map for a single Gaussian N(mean, cov): ``Gaussian.denoise`` at a checked t."""

    mean: np.ndarray
    cov: np.ndarray
    t: float

    def __post_init__(self):
        t = _checked_time(self.t, "noise variance")
        g = Gaussian.from_cov(self.cov, self.mean)
        cov = np.array(self.cov, dtype=float, ndmin=2)
        cov.flags.writeable = False
        object.__setattr__(self, "mean", g.mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_g", g)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def apply(self, x) -> np.ndarray:
        pts, single = _as_points(x, self.dim)
        out = pts.copy() if self.t == 0.0 else self._g.denoise(pts, self.t)
        return out[0] if single else out


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

    def apply(self, x) -> np.ndarray:
        if self.t == 0.0:
            raise DomainError("empirical kernel map is degenerate at t = 0")
        pts, single = _as_points(x, self.dim)
        log_norm = -0.5 * self.dim * math.log(2.0 * math.pi * self.t)
        log_weight, out = _kernel_pass(pts, self.data.points, self.t, log_norm, weighted_mean=True)
        if np.any(log_weight < _UNDERFLOW_LOG):
            raise DomainError(
                f"kernel weight sum underflow (log sum {float(np.min(log_weight)):.1f} < log 1e-300); "
                "the probe point is too far from the data for bandwidth t"
            )
        return out[0] if single else out


def denoising_shift(transport_map: MixtureExact | AnalyticGaussian | EmpiricalKernel, x) -> np.ndarray:
    """Displacement added by the map: ``transport_map.apply(x) - x``.

    This is the negated conditional mean of the noise given the observation;
    it vanishes at t = 0 and equals ``t * score(smoothed measure, x)`` for the
    exact backends.
    """
    pts = np.asarray(x, dtype=float)
    return transport_map.apply(x) - pts


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
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "_times", tuple(float(v) for v in np.cumsum(taus)))

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
        ent, ren = Estimate(g.entropy(), 0.0), Estimate(g.renyi(2.0), 0.0)
    else:
        rng = substream(seed, 100 + layer)
        n = points.shape[0]
        data, probes = (points[rng.choice(n, cap, replace=False)] if n > cap else points
                        for cap in (_KDE_DATA_CAP, _KDE_EVAL_CAP))
        lp = kde_log_density(data, silverman_covariance(data), probes)
        ent, ren = Estimate.mean_of(-lp), Estimate.mean_of(_renyi_terms(lp, 2.0))
    return FlowDiagnostics(ent, ren, *_moments(points))


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
    eigendecomposition for the whole flow) and applies the
    :class:`AnalyticGaussian` map; the ensemble may then be arbitrary probe
    points.  ``retrain='empirical'`` rebuilds an
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

    seed = ensemble.seed
    points = ensemble.points
    g = Gaussian.of(mix0) if retrain == "analytic" else None
    times = [0.0]
    states = [ensemble]
    diags = [_layer_diagnostics(points, g, seed, 0)]

    # per analytic layer: the map apply, O(n m^2), and the eigenvalue recursion
    for layer, (tau, t) in enumerate(zip(schedule.taus, schedule.times)):
        if g is not None:
            points = g.denoise(points, tau)
            g = g.one_shot(tau)
        else:
            points = EmpiricalKernel(ParticleEnsemble(points, seed), tau).apply(points)
        times.append(t)
        states.append(ParticleEnsemble(points, seed))
        diags.append(_layer_diagnostics(points, g, seed, layer + 1))

    return Trajectory(tuple(times), tuple(states), tuple(diags))


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
