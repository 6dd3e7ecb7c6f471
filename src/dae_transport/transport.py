"""One-shot denoising transport maps, their compositions, and the continuous flow.

Two map backends are provided:

* :class:`MixtureExact` evaluates the exact minimizer of the denoising
  objective for a Gaussian mixture: ``x + t * score(smoothed mixture, x)``.
* :class:`EmpiricalKernel` is the plug-in estimator from data: a
  Nadaraya-Watson weighted mean with Gaussian kernel variance t.

The single-Gaussian closed form of the same map is ``measures.Gaussian.denoise``;
the one-shot orbit of a single Gaussian uses it, that of a mixture ``measures._dae_map_log_det``,
``MixtureExact`` bit for bit with the log determinant of its Jacobian.

Deep flows are compositions of such maps, each retrained on the current
pushforward measure; the continuous flow is the same composition on a uniform
schedule, which is its broken-line (explicit Euler) approximation, so matching
schedules produce identical trajectories bit for bit.

Every flow writes its L later states into one (L, n, m) stack and hands its times, its input
ensemble, the stack and, for Gaussian laws known in closed form, their eigenvalues (else None) to one
builder, which records each state's entropy and Renyi-2 as (value, stderr) rows of two ``(T, 2)``
arrays.  A mixture orbit hands it the log Jacobian determinants of its maps instead: each DAE map is
injective (a Brenier map), so one KDE of the input ensemble reads every state by change of variables.
A :class:`Trajectory` keeps the ensemble beside the frozen stack and makes ``states`` on read.

No single-Gaussian formula lives here: ``measures.Gaussian._flow`` and ``Gaussian._orbit`` return an
analytic flow's stack and eigenvalue path, and ``measures._path_rows`` that path's entropy rows.  The
retrain rule :func:`_retrain_mode` and the orbit-time rule :func:`_orbit_times` are the ones
``cli.load_config`` also calls.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractError, DomainError, SingularityError
from .measures import (
    Estimate,
    Gaussian,
    GaussianMixture,
    ParticleEnsemble,
    _checked_count,
    _checked_time,
    _checked_times,
    _dae_map_log_det,
    _frozen,
    _kernel_pass,
    _moments,
    _path_rows,
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
    t = 0 and wherever the mean of ``exp(-|x - d_i|^2 / (2t))`` underflows; both
    raise :class:`DomainError` rather than guessing a value.  At points equal to
    its data the kernel pass takes its symmetric route, each pair once.
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
        log_weight, out = _kernel_pass(x, self.data.points, self.t, 0.0, weighted_mean=True)
        if np.any(log_weight < _UNDERFLOW_LOG):
            raise DomainError(
                f"kernel weight sum underflow (log mean {float(np.min(log_weight)):.4g} < log 1e-300); "
                "the probe point is too far from the data for bandwidth t"
            )
        return out


# -- schedules and trajectories -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class FlowSchedule:
    """Per-layer noise variances tau_0..tau_L; total time is their sum."""

    taus: tuple[float, ...]

    def __post_init__(self):
        taus = _checked_times(self.taus, "layer variance", positive=True)
        if taus.size == 0:
            raise ContractError(f"schedule must contain at least one layer, in a flat sequence; got shape {taus.shape}")
        with np.errstate(over="ignore"):  # a sum past the largest float is rejected as inf
            self._record(tuple(taus.tolist()), np.cumsum(taus))

    def _record(self, taus: tuple[float, ...], times: np.ndarray) -> None:
        """Keep ``taus`` and the times after each layer, which must strictly increase and stay finite."""
        stuck = np.flatnonzero((times[1:] <= times[:-1]) | np.isinf(times[1:]))
        if stuck.size:
            i = int(stuck[0]) + 1
            raise ContractError(f"cumulative times must strictly increase and stay finite: layer {i} variance "
                                f"{taus[i]!r} moves the time from {float(times[i - 1])!r} to {float(times[i])!r}")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "_times", tuple(times.tolist()))

    @classmethod
    def uniform(cls, t_end: float, steps: int) -> "FlowSchedule":
        """``steps`` layers of variance ``t_end / steps``, recorded at the times ``t_end * (i + 1) / steps``."""
        t_end = _checked_time(t_end, "total time", positive=True)
        steps = _checked_count(steps, "steps")
        schedule = cls((t_end / steps,) * steps)
        with np.errstate(over="ignore"):  # a last time past the largest float is rejected as inf
            schedule._record(schedule.taus, t_end * np.arange(1, steps + 1) / steps)
        return schedule

    @property
    def times(self) -> tuple[float, ...]:
        """Cumulative times after each layer, recorded once at construction."""
        return self._times

    def __len__(self) -> int:
        return len(self.taus)


class FlowDiagnostics(NamedTuple):
    """One time's entropy and Renyi-2 estimates: :attr:`Trajectory.diagnostics` builds them on each read."""

    entropy: Estimate
    renyi2: Estimate


@dataclass(frozen=True, eq=False)
class Trajectory:
    """``initial``, the read-only ``(L, n, m)`` stack ``layers`` after it, and ``(T, 2)`` (value, stderr) rows."""

    times: tuple[float, ...]
    initial: ParticleEnsemble
    layers: np.ndarray
    entropy: np.ndarray
    renyi2: np.ndarray
    _checked: InitVar[bool] = False  # the flows' stack, checked and frozen by :func:`_trajectory`: kept as given

    def __post_init__(self, _checked: bool):
        times = tuple(float(t) for t in self.times)
        stack = np.asarray(self.layers, dtype=float)
        ent, ren = (_frozen(np.array(a, dtype=float)) for a in (self.entropy, self.renyi2))
        if not times or times[0] != 0.0:
            raise ContractError("trajectory times must start at 0")
        # a NaN fails every comparison, and an infinity is either last or followed by a time not above it
        if not (math.isfinite(times[-1]) and all(a < b for a, b in zip(times, times[1:]))):
            raise ContractError("trajectory times must be finite and strictly increasing")
        if stack.shape[1:] != self.initial.points.shape:
            raise ContractError("all trajectory states must share n and m")
        if len(stack) + 1 != len(times) or ent.shape != (len(times), 2) or ren.shape != ent.shape:
            raise ContractError("times, states, and (value, stderr) rows of entropy and renyi2 must have equal length")
        if stack.size and not _checked:  # one constructor call checks the values and freezes a copy
            stack = ParticleEnsemble(stack.reshape(-1, stack.shape[2]), self.initial.seed).points.reshape(stack.shape)
        for key, value in zip(("times", "layers", "entropy", "renyi2"), (times, stack, ent, ren)):
            object.__setattr__(self, key, value)

    @functools.cached_property
    def states(self) -> tuple[ParticleEnsemble, ...]:
        """``initial``, then one ensemble over each row of ``layers``, made on first read."""
        states = [object.__new__(ParticleEnsemble) for _ in self.layers]
        for state, block in zip(states, self.layers):  # the rows are checked already: set as the constructor does
            object.__setattr__(state, "points", block)
            object.__setattr__(state, "seed", self.initial.seed)
        return (self.initial, *states)

    @property
    def n(self) -> int:
        return self.initial.n

    @property
    def dim(self) -> int:
        return self.initial.dim

    @property
    def diagnostics(self) -> tuple[FlowDiagnostics, ...]:
        return tuple(FlowDiagnostics(Estimate(*h), Estimate(*r))
                     for h, r in zip(self.entropy.tolist(), self.renyi2.tolist()))

    def to_csv(self, path: str | Path) -> None:
        """Long-format CSV: one row per (time, particle) with columns x1..xm, one block of columns per state."""
        header = ["time", "particle_id"] + [f"x{j + 1}" for j in range(self.dim)]
        blocks = ([itertools.repeat(t, self.n), range(self.n), *x.T.tolist()]
                  for t, x in zip(self.times, (self.initial.points, *self.layers)))
        write_csv(path, header, blocks, self.initial.seed)

    def diagnostics_json(self) -> dict:
        """Per-time records: the entropy rows plus the particles' sample moments, taken here from the stack."""
        records = []
        points = (self.initial.points, *self.layers)
        for t, x, (h, dh), (r, dr) in zip(self.times, points, self.entropy.tolist(), self.renyi2.tolist()):
            mean, cov = _moments(x)
            records.append({"time": t, "entropy": h, "entropy_stderr": dh, "renyi2": r, "renyi2_stderr": dr,
                            "mean": mean.tolist(), "cov": cov.tolist()})
        return {"seed": self.initial.seed, "records": records}


# -- diagnostics helpers -------------------------------------------------------------


def _kde_rows(points: np.ndarray, seed: int, layer: int, log_dets) -> list[tuple[float, float, float, float]]:
    """``(h, dh, r, dr)`` of the law of ``D(points)`` for the log Jacobian determinants ``log_dets`` of each
    injective map D at ``points``, all from one seeded KDE of ``points`` on capped subsamples: that law's log
    density at a probe's image is the KDE's minus the map's log det there.  Each is ``(-inf, 0, inf, 0)`` for
    a flat kernel."""
    rng = substream(seed, 100, layer)
    n = points.shape[0]
    data, probes = (rng.choice(n, cap, replace=False) if n > cap else slice(None)
                    for cap in (_KDE_DATA_CAP, _KDE_EVAL_CAP))
    data = points[data]
    cov = silverman_covariance(data)
    try:  # the points are checked and the kernel finite and symmetric: only the positivity rule can fail here
        lp = kde_log_density(data, cov, points[probes])
    except ContractError:
        return [(-math.inf, 0.0, math.inf, 0.0)] * len(log_dets)
    return [(*Estimate.mean_of(ld[probes] - lp), *Estimate.mean_of(_renyi_terms(lp - ld[probes], 2.0)))
            for ld in log_dets]


def _layer_diagnostics(points: np.ndarray, seed: int, layer: int) -> tuple[float, float, float, float]:
    """``(h, dh, r, dr)`` of a state by :func:`_kde_rows` with no map."""
    return _kde_rows(points, seed, layer, np.zeros((1, points.shape[0])))[0]


def _trajectory(times: Sequence[float], ensemble: ParticleEnsemble, layers: np.ndarray,
                evals: np.ndarray | None, log_dets: np.ndarray | None = None) -> Trajectory:
    """The one place ``ensemble`` and the ``(L, n, m)`` stack after it become a :class:`Trajectory`: row l of
    ``evals`` holds the eigenvalues of state l's Gaussian law (stderr 0); ``None`` marks sampled states, read by
    one KDE each, or, given the ``(L, n)`` log Jacobian determinants of injective maps of ``ensemble`` onto the
    layers, all by the initial state's KDE."""
    if layers.size:  # one constructor call checks the stack, adopted, before any diagnostics read it
        ParticleEnsemble(_frozen(layers).reshape(-1, ensemble.dim), ensemble.seed, _adopt=True)
    if evals is not None:
        rows = _path_rows(evals)
    elif log_dets is not None:
        rows = np.array(_kde_rows(ensemble.points, ensemble.seed, 0, [np.zeros(ensemble.n), *log_dets]))
    else:
        rows = np.array([_layer_diagnostics(x, ensemble.seed, i) for i, x in enumerate((ensemble.points, *layers))])
    return Trajectory(times, ensemble, _frozen(layers), rows[:, :2], rows[:, 2:], _checked=True)


# -- flows -------------------------------------------------------------------------


def compose(
    mix0: GaussianMixture,
    schedule: FlowSchedule,
    ensemble: ParticleEnsemble,
    retrain: str | None = None,
) -> Trajectory:
    """Compose per-layer denoising maps, retraining each layer on the current measure.

    ``retrain='analytic'`` retrains on the single-Gaussian measure in closed
    form and moves the points by the composed ``Gaussian.denoise`` maps, all
    from one eigendecomposition (``Gaussian._flow``); the ensemble may then be
    arbitrary probe points.
    ``retrain='empirical'`` rebuilds an :class:`EmpiricalKernel` map from the
    current particles with bandwidth equal to the layer's own noise variance,
    matching the map's smoothing scale, and moves those same particles: Gaussian
    blurring mean shift, one symmetric kernel pass per layer.  The default is
    analytic for a single Gaussian and empirical otherwise.

    A finite composition contracts the measure but never loses rank, so there
    is no singular time here; the horizon check of :func:`continuous_flow` is
    the one singularity rule.
    """
    retrain = _retrain_mode(mix0.k, retrain)
    if ensemble.dim != mix0.dim:
        raise ContractError(f"ensemble dimension {ensemble.dim} does not match measure dimension {mix0.dim}")
    if retrain == "empirical" and ensemble.n < 10:
        raise ContractError(f"empirical retraining needs at least 10 particles, got {ensemble.n}")

    times = (0.0, *schedule.times)
    if retrain == "analytic":
        return _trajectory(times, ensemble, *Gaussian.of(mix0)._flow(ensemble.points, schedule.taus))

    layers = np.empty((len(schedule), ensemble.n, ensemble.dim))
    for layer, tau in enumerate(schedule.taus):  # each layer trains on the row before it, checked, not copied
        data = ParticleEnsemble(layers[layer - 1], ensemble.seed, _adopt=True) if layer else ensemble
        layers[layer] = EmpiricalKernel(data, tau).apply(data.points)
    return _trajectory(times, ensemble, layers, None)


def _retrain_mode(k: int, retrain: str | None) -> str:
    """``retrain``, or its default if None, checked for a flow from a measure of ``k`` components."""
    mode = retrain if retrain is not None else "analytic" if k == 1 else "empirical"
    if mode not in ("analytic", "empirical") or (mode == "analytic" and k != 1):
        raise ContractError(f"retrain mode must be 'empirical', or 'analytic' for a single Gaussian; "
                            f"got {retrain!r} for k = {k} components")
    return mode


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
    mode defaults as in :func:`compose`.  For a single Gaussian the last
    recorded time must stay strictly below the singular time (half the smallest
    covariance eigenvalue); past it the :class:`SingularityError` carries the
    initial state as a one-time trajectory in ``partial``.
    """
    if ensemble.dim != mix0.dim:
        raise ContractError(f"ensemble dimension {ensemble.dim} does not match measure dimension {mix0.dim}")
    schedule = FlowSchedule.uniform(t_end, steps)
    if mix0.k == 1:
        g = Gaussian.of(mix0)
        try:
            g.check_horizon(schedule.times[-1], "continuous flow")
        except SingularityError as exc:
            exc.partial = _trajectory((0.0,), ensemble, *g._flow(ensemble.points, ()))
            raise
    return compose(mix0, schedule, ensemble, retrain)


def one_shot_orbit(
    mix0: GaussianMixture, times: Sequence[float], ensemble: ParticleEnsemble
) -> Trajectory:
    """Orbit of the one-shot map: each time t maps the original points once.

    Unlike a composed flow, every state is produced by a single map trained on
    the initial measure with noise variance t: ``Gaussian.denoise`` for k = 1, else :class:`MixtureExact`'s
    map.  A mixture's rows are one KDE of the ensemble at its probes x minus ``log det J_t(x)`` (change of
    variables): O(n^2 m) once plus O(T n k m^2), where a KDE of each state would cost O(T n^2 m).
    """
    ts = _orbit_times(times)
    if ensemble.dim != mix0.dim:
        raise ContractError("ensemble dimension does not match measure dimension")

    if mix0.k > 1:
        layers, log_dets = np.empty((len(ts), ensemble.n, ensemble.dim)), np.empty((len(ts), ensemble.n))
        for i, t in enumerate(ts):
            layers[i], log_dets[i] = _dae_map_log_det(mix0, t, ensemble.points)
        return _trajectory((0.0, *ts), ensemble, layers, None, log_dets)
    return _trajectory((0.0, *ts), ensemble, *Gaussian.of(mix0)._orbit(ensemble.points, ts))


def _orbit_times(times: Sequence[float]) -> list[float]:
    """``times`` as floats: at least one, each finite and positive, strictly increasing."""
    ts = _checked_times(times, "orbit time", positive=True).tolist()
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ContractError("orbit times must be nonempty and strictly increasing")
    return ts
