"""Numerical verification of the transport identities against exact oracles.

Each check evaluates an identity on a probe grid by two independent routes
(finite differences vs. closed forms, Monte Carlo vs. analytic maps) and
reports the residuals in a :class:`ResidualReport`.  Tolerances live in one
table, :data:`TOLERANCES`, the only source of a bound: no check, suite run or
config replaces one.  The report is the one owner of the verdict: it derives
its tolerance (``TOLERANCES[name]``), max absolute residual and ``passed``.
Covariance validity and point coercion are owned by ``measures._decomposed``
and ``measures._pointwise``.  The one-shot control in the backward-heat
check is expected to fail, which is itself asserted by the suite.

A check's method is fixed with its bound: each tolerance holds for the check's
inline probe grid, the central steps ``_DT`` = 1e-4 (time) and ``_DX`` = 1e-3
(space) and the Monte Carlo counts beside :data:`TOLERANCES`.  A check takes
only what picks its instance of the identity (measure, times, ``source``,
``alpha``, seed); the sample size ``n`` and the continuity ``dt`` stay
because ``perfbench/env.py`` passes them by keyword.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DomainError
from .measures import (
    Estimate,
    Gaussian,
    GaussianMixture,
    _checked_alpha,
    _checked_parameter,
    _checked_time,
    _moments,
    convolve,
    density,
    density_gradient,
    kde_log_density,
    laplacian_density,
    sample,
    score,
    silverman_covariance,
    smooth,
    stein_residual,
)
from .rand import substream
from .transport import EmpiricalKernel, MixtureExact, Trajectory, continuous_flow

#: Per-check residual tolerances (single source of truth, mirrored in the docs).
TOLERANCES = {
    "variational_minimizer": 0.05,
    "continuity_t0_gaussian": 1e-3,
    "continuity_t0_mixture": 5e-3,
    "backward_heat": 1e-4,
    "backward_heat_one_shot_negative_control": 1e-3,
    "time_reversal": 1e-12,
    "entropy_monotone": 0.0,
    "stein_identity": 1e-10,
    "renyi_gradient_identity": 1e-4,
}

# The method each bound above was derived for, with each check's inline probe grid.
_DT = 1e-4  # central time step
_DX = 1e-3  # central space step
_N_TRIALS = 20  # bump perturbations of the variational minimizer
_N_PAIRS = 100  # (t, eps) pairs of the noise identity
_N_PROBE = 100  # seeded density probes of the time reversal


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Residuals of one identity on a probe grid, with the pass/fail verdict it derives.

    ``tolerance`` (``TOLERANCES[name]``, so ``name`` must be a check there),
    ``max_abs`` and ``passed`` (``max_abs <= tolerance``) are computed here, never given.
    """

    name: str
    grid: np.ndarray | None
    residuals: np.ndarray
    _: KW_ONLY
    seed: int | None = None
    details: dict = field(default_factory=dict)
    tolerance: float = field(init=False)
    max_abs: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.name not in TOLERANCES:
            raise ContractError(f"unknown check {self.name!r}, expected one of {sorted(TOLERANCES)}")
        res = np.atleast_1d(np.asarray(self.residuals, dtype=float)).ravel()
        tol = TOLERANCES[self.name]
        max_abs = float(np.max(np.abs(res))) if res.size else 0.0
        grid = None if self.grid is None else np.asarray(self.grid, dtype=float)
        for key, value in zip(("grid", "residuals", "tolerance", "details", "max_abs", "passed"),
                              (grid, res, tol, dict(self.details), max_abs, bool(max_abs <= tol))):
            object.__setattr__(self, key, value)

    @property
    def grid_size(self) -> int:
        return 0 if self.grid is None else int(self.grid.shape[0])

    def to_json_dict(self) -> dict:
        keys = ("name", "tolerance", "max_abs", "passed", "grid_size", "seed", "details")
        return {key: getattr(self, key) for key in keys}


def probe_lattice(extent: float, per_axis: int, dim: int) -> np.ndarray:
    """Regular lattice over [-extent, extent]^dim, ``per_axis`` points an axis.

    The lattice rule: its step (so its points) and its sample covariance must be
    finite, else ContractError, raised without a RuntimeWarning on the way.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mesh = np.meshgrid(*[np.linspace(-extent, extent, per_axis)] * dim, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        finite = np.all(np.isfinite(pts)) and np.all(np.isfinite(_moments(pts)[1]))
    if not finite:
        raise ContractError(f"a lattice of extent {extent!r} with {per_axis} points an axis has a step, "
                            "point or sample covariance that is not finite")
    return pts


# -- variational minimizer ------------------------------------------------------


def _bump_field(seed: int, trial: int, mix0: GaussianMixture) -> Callable[[np.ndarray], np.ndarray]:
    """Seeded perturbation: sum of 3 Gaussian bumps, |amplitude| <= 0.5, width in [0.3, 1]."""
    rng = substream(seed, 1000 + trial)
    m = mix0.dim
    sig = np.sqrt(np.mean(np.diagonal(mix0.covs, axis1=1, axis2=2), axis=0))
    base = np.average(mix0.means, axis=0, weights=mix0.weights)
    centers = base + rng.uniform(-3.0, 3.0, size=(3, m)) * sig
    widths = rng.uniform(0.3, 1.0, size=3)
    amps = rng.uniform(-0.5, 0.5, size=(3, m))

    def h(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        out = np.zeros_like(x)
        for c, w, a in zip(centers, widths, amps):
            d2 = np.sum((x - c) ** 2, axis=1)
            out += np.exp(-0.5 * d2 / (w * w))[:, None] * a
        return out

    return h


def check_variational_minimizer(mix0: GaussianMixture, t: float, n: int = 100_000, seed: int = 0) -> ResidualReport:
    """Check that the exact map is both the regression limit and a global minimum.

    Draws pairs (x, x + e), fits the kernel-weighted conditional-mean
    estimator on a probe grid, and reports its deviation from the exact map.
    Additionally evaluates the objective at the exact map and at 20 seeded
    bump perturbations:  every perturbation must not lower the objective, and
    the objective increase must match the perturbation energy up to Monte
    Carlo error (the cross term has zero mean at the minimizer).

    An optimality or decomposition violation appends an infinite residual,
    so ``passed`` reflects all three facts under any finite bound;
    ``details`` carries the raw margins.
    """
    t = _checked_parameter(t, "noise variance")
    n = int(n)
    if n < 1000:
        raise ContractError(f"need at least 1000 sample pairs, got {n}")
    grid = probe_lattice(2.0, 81 if mix0.dim == 1 else 9, mix0.dim)

    clean = sample(mix0, n, seed)
    eps = substream(seed, 2).standard_normal((n, mix0.dim)) * math.sqrt(t)
    corrupted = clean.points + eps

    fitted = EmpiricalKernel(clean, t).apply(grid)
    exact_map = MixtureExact(mix0, t)
    exact = exact_map.apply(grid)
    deviations = np.max(np.abs(fitted - exact), axis=1)

    # objective values on the same corrupted pairs
    base_err = exact_map.apply(corrupted) - clean.points
    l_gstar = float(np.mean(np.sum(base_err * base_err, axis=1)))

    margins, cross_se_ratios = [], []
    for trial in range(_N_TRIALS):
        hv = _bump_field(seed, trial, mix0)(corrupted)
        pert_err = base_err + hv
        l_pert = float(np.mean(np.sum(pert_err * pert_err, axis=1)))
        l_hat = float(np.mean(np.sum(hv * hv, axis=1)))
        margin = l_pert - l_gstar
        margins.append(margin)
        # decomposition: margin - l_hat is the empirical cross term, mean zero
        cross_terms = 2.0 * np.sum(hv * base_err, axis=1)
        cross = margin - l_hat
        se = Estimate.mean_of(cross_terms).stderr
        cross_se_ratios.append(abs(cross) / (5.0 * se) if se > 0.0 else 0.0)

    violated = min(margins) < 0.0 or max(cross_se_ratios) > 1.0
    return ResidualReport(
        "variational_minimizer",
        grid,
        np.append(deviations, math.inf) if violated else deviations,
        seed=seed,
        details={
            "n": n,
            "t": t,
            "l_gstar": l_gstar,
            "min_margin": float(min(margins)),
            "max_cross_se_ratio": float(max(cross_se_ratios)),
            "n_trials": _N_TRIALS,
            "max_grid_deviation": float(np.max(deviations)),
        },
    )


# -- continuity equation at t = 0 --------------------------------------------------


def _heat_residual(mix0: GaussianMixture, push, t: float, dt: float, grid: np.ndarray) -> np.ndarray:
    """Backward-heat residual ``d/dt mu_s + lap mu_s`` at ``s = t`` along Gaussians ``push(s)``.

    Central difference in time (``push`` takes the ``-dt`` the stencil needs at
    ``t = 0``, where ``push(0)`` is ``mix0``), analytic Laplacian in space.
    """
    plus, minus = push(t + dt).as_mixture(), push(t - dt).as_mixture()
    fd = (density(plus, grid) - density(minus, grid)) / (2.0 * dt)
    return fd + laplacian_density(push(t).as_mixture() if t > 0.0 else mix0, grid)


def check_continuity_t0(mix0: GaussianMixture, dt: float = _DT, n: int = 100_000, seed: int = 0) -> ResidualReport:
    """Check the initial-time continuity equation: d/dt mu_t at 0 equals -div(mu0 grad log mu0).

    The divergence side reduces to the negative density Laplacian and is
    evaluated analytically.  The time derivative is a central difference: for
    a single Gaussian, on the closed-form pushforward densities; for a
    mixture, on kernel density estimates of particles moved one explicit-Euler
    step along +/- dt times the score.  In the particle mode both sides are
    mollified by the same kernel (the analytic side through exact Gaussian
    convolution), so the comparison is unbiased and limited by Monte Carlo
    noise only.
    """
    dt = _checked_parameter(dt, "dt", 1e-3)
    gaussian_mode = mix0.k == 1
    name = "continuity_t0_gaussian" if gaussian_mode else "continuity_t0_mixture"
    grid = probe_lattice(2.0, 17 if mix0.dim == 1 else 9, mix0.dim)

    if gaussian_mode:
        g = Gaussian.of(mix0)
        if dt >= g.critical_time:
            raise DomainError("dt too large: pushforward covariance not positive at t = dt")
        residuals = _heat_residual(mix0, g.continuous, 0.0, dt, grid)
        details = {"mode": "closed_form", "dt": dt}
    else:
        ens = sample(mix0, n, seed)
        velocity = score(mix0, ens.points)
        bw = silverman_covariance(ens.points, factor=3.0)
        f_plus = np.exp(kde_log_density(ens.points + dt * velocity, bw, grid))
        f_minus = np.exp(kde_log_density(ens.points - dt * velocity, bw, grid))
        residuals = (f_plus - f_minus) / (2.0 * dt) + laplacian_density(convolve(mix0, bw), grid)
        details = {
            "mode": "particle_kde",
            "dt": dt,
            "n": int(n),
            "bandwidth_cov": bw.tolist(),
            "bandwidth_rule": "silverman x 3 (derivative smoothing)",
        }

    return ResidualReport(name, grid, residuals, seed=seed, details=details)


# -- backward heat equation ---------------------------------------------------------


def check_backward_heat(mix0: GaussianMixture, t_grid: Sequence[float], source: str = "continuous") -> ResidualReport:
    """Residual of ``d/dt mu_t + lap mu_t = 0`` along a closed-form pushforward.

    ``source='continuous'`` follows the continuous-flow pushforward, which
    satisfies the equation; ``source='one_shot'`` follows the one-shot
    pushforward, a control that violates it for t > 0 and must fail its bound.
    Time derivative by central differences of the closed-form density,
    Laplacian analytic in space.
    """
    if mix0.k != 1:
        raise ContractError("backward-heat check needs a single-Gaussian measure")
    if source not in ("continuous", "one_shot"):
        raise ContractError(f"source must be 'continuous' or 'one_shot', got {source!r}")
    if len(t_grid) == 0:
        raise ContractError("backward-heat check needs at least one time in t_grid")
    grid = probe_lattice(3.0, 13 if mix0.dim <= 2 else 7, mix0.dim)

    g = Gaussian.of(mix0)
    # the one-shot map is also valid for the slightly negative time the
    # centered stencil needs at t = 0, since lambda + s stays positive
    push = g.continuous if source == "continuous" else g.one_shot

    residuals = []
    for t in (_checked_time(v, "t_grid time") for v in t_grid):
        if source == "continuous":
            g.check_horizon(t + _DT, "continuous pushforward on the t_grid stencil")
        residuals.append(_heat_residual(mix0, push, t, _DT, grid))

    return ResidualReport(
        "backward_heat" if source == "continuous" else "backward_heat_one_shot_negative_control",
        grid,
        np.concatenate(residuals),
        details={"t_grid": [float(v) for v in t_grid], "dt": _DT, "source": source},
    )


# -- heat-flow time reversal -----------------------------------------------------------


def check_time_reversal(mix0: GaussianMixture, t: float, seed: int = 0) -> ResidualReport:
    """Smoothing the continuous pushforward of a single Gaussian by 2t must restore it.

    Checks ``(S - 2 t I) + 2 t I = S`` entrywise up to the singular time itself
    and, strictly inside it, density agreement between the original Gaussian
    and the re-smoothed pushforward on seeded probe points.
    """
    if mix0.k != 1:
        raise ContractError("time-reversal check needs a single-Gaussian measure")
    g, t = Gaussian.of(mix0), _checked_time(t)
    g.check_horizon(t, "continuous pushforward", closed=True)
    pushed = g.continuous(t).cov
    residuals = [np.abs(pushed + 2.0 * t * np.eye(g.dim) - mix0.covs[0]).ravel()]

    probes = sample(mix0, _N_PROBE, seed).points
    density_checked = t < g.critical_time
    if density_checked:
        recovered = smooth(GaussianMixture.single(g.mean, pushed), 2.0 * t)
        residuals.append(np.abs(density(recovered, probes) - density(mix0, probes)))

    return ResidualReport(
        "time_reversal",
        probes,
        np.concatenate(residuals),
        seed=seed,
        details={"t": t, "density_checked": density_checked},
    )


# -- entropy monotonicity -----------------------------------------------------------


def check_entropy_monotone(traj: Trajectory) -> ResidualReport:
    """Entropy along a flow trajectory must not increase.

    Residuals are per-step violations ``max(0, H_{k+1} - H_k - allowance)``:
    zero allowance (and strictly negative steps required) for analytic
    trajectories, three combined standard errors for Monte Carlo ones.  A
    collapsed state (-inf) staying collapsed is no violation, one leaving it
    an infinite one.  The raw entropy sequence is kept in ``details``.
    """
    if len(traj.times) < 3:
        raise ContractError("entropy monotonicity needs at least 3 recorded times")
    h, se = traj.entropy.T
    strict = not se.any()
    with np.errstate(invalid="ignore"):  # a step from -inf to -inf is NaN, which neither rule counts
        deltas = np.diff(h)
        excess = deltas - 3.0 * (se[:-1] + se[1:])  # deltas itself when strict
    floor = np.finfo(float).tiny if strict else 0.0  # a strict flow must decrease at every step
    violations = np.where(excess >= 0.0, np.maximum(excess, floor), 0.0)

    return ResidualReport(
        "entropy_monotone",
        None,
        violations,
        details={
            "strict": strict,
            "entropies": h.tolist(),
            "stderrs": se.tolist(),
            "deltas": deltas.tolist(),
            "times": list(traj.times),
        },
    )


# -- Gaussian noise identity ----------------------------------------------------------


def check_stein_identity(seed: int = 0) -> ResidualReport:
    """Residual of the Gaussian identity over seeded (t, eps) pairs in dims 1..3."""
    rng = substream(seed, 4)
    residuals = []
    for i in range(_N_PAIRS):
        dim = 1 + (i % 3)
        t = float(rng.uniform(0.1, 2.0))
        eps = rng.standard_normal(dim) * math.sqrt(2.0)
        residuals.append(float(np.max(np.abs(stein_residual(t, eps)))))
    return ResidualReport("stein_identity", None, residuals, seed=seed, details={"n_pairs": _N_PAIRS})


# -- Renyi flow gradient identity -------------------------------------------------------


def check_renyi_gradient_identity(mix0: GaussianMixture, alpha: float = 2.0) -> ResidualReport:
    """Check ``div(mu grad dF/dmu) = lap(mu^alpha)`` for the Renyi functional.

    The left side is a central-difference divergence of the analytic field
    ``alpha mu^(alpha-1) grad mu``; the right side uses the closed form
    ``alpha ((alpha-1) mu^(alpha-2) |grad mu|^2 + mu^(alpha-1) lap mu)``.
    """
    alpha = _checked_alpha(alpha)
    grid = probe_lattice(3.0, 9 if mix0.dim > 1 else 25, mix0.dim)

    def flux(pts: np.ndarray) -> np.ndarray:
        mu = np.asarray(density(mix0, pts)).reshape(-1, 1)
        return alpha * mu ** (alpha - 1.0) * density_gradient(mix0, pts)

    div = np.zeros(grid.shape[0])
    for j in range(mix0.dim):
        step = np.zeros(mix0.dim)
        step[j] = _DX
        div += (flux(grid + step)[:, j] - flux(grid - step)[:, j]) / (2.0 * _DX)

    mu = np.asarray(density(mix0, grid))
    grad = density_gradient(mix0, grid)
    lap = np.asarray(laplacian_density(mix0, grid))
    analytic = alpha * (
        (alpha - 1.0) * mu ** (alpha - 2.0) * np.sum(grad * grad, axis=1)
        + mu ** (alpha - 1.0) * lap
    )

    return ResidualReport(
        "renyi_gradient_identity", grid, div - analytic, details={"alpha": alpha, "dx": _DX}
    )


# -- suite runner -------------------------------------------------------------------


#: Checks whose reports must FAIL for the suite to pass.
EXPECTED_FAILURES = ("backward_heat_one_shot_negative_control",)


def default_checks(seed: int = 0) -> list[ResidualReport]:
    """Run the full default verification suite and return all reports in order."""
    std1 = GaussianMixture.standard(1)
    aniso2 = GaussianMixture.single([0.0, 0.0], np.diag([2.0, 1.0]))
    mix2 = GaussianMixture.from_components(
        [(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[1.0]])]
    )

    reports = [
        check_variational_minimizer(std1, t=0.5, seed=seed),
        check_continuity_t0(std1),
        check_continuity_t0(mix2, seed=seed),
        check_backward_heat(aniso2, (0.0, 0.1, 0.2, 0.3)),
        check_backward_heat(aniso2, (0.3,), source="one_shot"),
        check_time_reversal(aniso2, 0.4, seed=seed),
    ]

    ensemble = sample(aniso2, 64, seed)
    traj = continuous_flow(aniso2, 0.4, 8, ensemble)
    reports.append(check_entropy_monotone(traj))
    reports.append(check_stein_identity(seed=seed))
    reports.append(check_renyi_gradient_identity(aniso2))
    return reports
