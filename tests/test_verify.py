from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dae_transport import (
    ContractError,
    DomainError,
    EXPECTED_FAILURES,
    Estimate,
    FlowDiagnostics,
    Gaussian,
    GaussianMixture,
    ParticleEnsemble,
    ResidualReport,
    SingularityError,
    TOLERANCES,
    Trajectory,
    check_backward_heat,
    check_continuity_t0,
    check_entropy_monotone,
    check_renyi_gradient_identity,
    check_stein_identity,
    check_time_reversal,
    check_variational_minimizer,
    continuous_flow,
    default_checks,
    entropy,
    probe_lattice,
    sample,
)

ANISO = GaussianMixture.single([0.0, 0.0], np.diag([2.0, 1.0]))
STD1 = GaussianMixture.standard(1)
MIX2 = GaussianMixture.from_components([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[1.0]])])


# -- reports ------------------------------------------------------------------------


def test_report_derives_its_verdict():
    r = ResidualReport("time_reversal", None, [1e-13, -2e-13])
    assert (r.tolerance, r.max_abs, r.passed) == (1e-12, 2e-13, True)
    assert not ResidualReport("time_reversal", None, [1e-13], 1e-14).passed
    assert not ResidualReport("stein_identity", None, [math.nan]).passed
    assert ResidualReport("entropy_monotone", None, []).passed
    with pytest.raises(TypeError):
        ResidualReport("time_reversal", None, [1.0], passed=True)


# -- variational minimizer ----------------------------------------------------------


def test_variational_point_mass_regresses_to_mean():
    tiny = GaussianMixture.single([1.5], [[1e-12]])
    rep = check_variational_minimizer(tiny, t=0.5, n=20_000, seed=0, n_trials=5)
    assert rep.passed
    # the fitted map must send every probe to (essentially) the point mass
    assert rep.details["max_grid_deviation"] < 0.02


def test_variational_standard_normal_sup_norm():
    rep = check_variational_minimizer(STD1, t=0.5, n=100_000, seed=0)
    assert rep.passed
    assert rep.details["max_grid_deviation"] < 0.05
    assert rep.details["min_margin"] >= 0.0
    assert rep.details["max_cross_se_ratio"] <= 1.0


def test_variational_violation_is_infinite_under_any_override(monkeypatch):
    # the exact map of N(0.8, 1) is no minimizer for data from N(0, 1)
    from dae_transport import MixtureExact, verify

    shifted = GaussianMixture.single([0.8], [[1.0]])
    monkeypatch.setattr(verify, "MixtureExact", lambda mix, t: MixtureExact(shifted, t))
    rep = check_variational_minimizer(STD1, t=0.5, n=100_000, seed=0)
    assert rep.details["min_margin"] < 0.0 and rep.details["max_cross_se_ratio"] > 1.0
    assert not rep.passed and rep.max_abs == math.inf
    assert json.loads(json.dumps(rep.to_json_dict())) == rep.to_json_dict()
    by_name = {r.name: r for r in default_checks(seed=0, tolerances={"variational_minimizer": 1e9})}
    loose = by_name["variational_minimizer"]
    assert loose.tolerance == 1e9 and loose.max_abs == math.inf and not loose.passed


def test_variational_zero_perturbation_changes_nothing():
    # L[g* + 0] = L[g*] exactly on the same sampled pairs
    from dae_transport import MixtureExact

    rng = np.random.default_rng(1)
    clean = sample(STD1, 5_000, 1).points
    corrupted = clean + rng.normal(scale=math.sqrt(0.5), size=clean.shape)
    residual = MixtureExact(STD1, 0.5).apply(corrupted) - clean
    l_star = float(np.mean(np.sum(residual * residual, axis=1)))
    perturbed = residual + np.zeros_like(residual)
    l_zero = float(np.mean(np.sum(perturbed * perturbed, axis=1)))
    assert l_zero == l_star


def test_variational_deviation_shrinks_with_n():
    devs = []
    for n in (1_000, 10_000, 100_000):
        rep = check_variational_minimizer(STD1, t=0.5, n=n, seed=4, n_trials=3)
        devs.append(rep.details["max_grid_deviation"])
    assert devs[0] > devs[1] > devs[2]


def test_variational_requires_positive_t_and_min_n():
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            check_variational_minimizer(STD1, t=t, n=10_000)
    with pytest.raises(ContractError):
        check_variational_minimizer(STD1, t=0.5, n=10)


# -- continuity at t = 0 ---------------------------------------------------------------


def test_continuity_gaussian_grid_residual():
    rep = check_continuity_t0(STD1, dt=1e-4)
    assert rep.name == "continuity_t0_gaussian"
    assert rep.passed and rep.max_abs < 1e-3


def test_continuity_vanishes_at_inflection_points():
    # at x = +-1 the 1-D standard normal has zero Laplacian, so the time
    # derivative of the pushforward density vanishes there
    grid = np.array([[-1.0], [1.0]])
    rep = check_continuity_t0(STD1, dt=1e-4, grid=grid)
    assert rep.max_abs < 1e-8


def test_continuity_mixture_kde_residual():
    rep = check_continuity_t0(MIX2, dt=1e-4, n=100_000, seed=0)
    assert rep.name == "continuity_t0_mixture"
    assert rep.passed and rep.max_abs < 5e-3
    assert rep.details["mode"] == "particle_kde"


def test_continuity_rejects_large_dt():
    with pytest.raises(DomainError):
        check_continuity_t0(STD1, dt=0.01)


# -- backward heat ------------------------------------------------------------------------


def test_backward_heat_anisotropic_grid():
    rep = check_backward_heat(ANISO, (0.0, 0.1, 0.2, 0.3))
    assert rep.passed
    assert rep.max_abs < 1e-4
    assert rep.grid_size == 13 * 13


def test_backward_heat_time_zero_matches_continuity_check():
    grid = probe_lattice(2.0, 9, 1)
    heat = check_backward_heat(STD1, (0.0,), grid=grid)
    cont = check_continuity_t0(STD1, dt=1e-4, grid=grid)
    np.testing.assert_allclose(heat.residuals, cont.residuals, atol=1e-12)


def test_backward_heat_one_shot_control_fails_loudly():
    rep = check_backward_heat(ANISO, (0.3,), source="one_shot")
    assert not rep.passed
    assert rep.max_abs > 10.0 * rep.tolerance  # violates by a wide margin


def test_backward_heat_rejects_times_past_singularity():
    with pytest.raises(SingularityError):
        check_backward_heat(ANISO, (0.0, 0.5))


@pytest.mark.parametrize("dt", [math.nan, 0.0, -1e-4])
def test_backward_heat_rejects_bad_time_step(dt):
    with pytest.raises(DomainError):
        check_backward_heat(ANISO, (0.1,), dt=dt)


def test_backward_heat_needs_single_gaussian():
    with pytest.raises(ContractError):
        check_backward_heat(MIX2, (0.1,))


# -- time reversal -----------------------------------------------------------------------


def test_time_reversal_exact_covariance_recovery():
    rep = check_time_reversal(ANISO, 0.4)
    assert rep.passed
    assert rep.details["density_checked"]
    assert rep.max_abs < 1e-12


def test_time_reversal_identity_at_zero():
    rep = check_time_reversal(ANISO, 0.0)
    assert rep.passed and rep.max_abs == 0.0


def test_time_reversal_density_agreement_on_probes():
    shifted = GaussianMixture.single([0.5, -0.5], np.diag([2.0, 1.0]))
    rep = check_time_reversal(shifted, 0.2, n_probe=100, seed=2)
    assert rep.grid_size == 100
    assert rep.passed


def test_time_reversal_horizon_is_closed():
    # the boundary t = lambda_min / 2 keeps the covariance identity; past it the pushforward is singular
    rep = check_time_reversal(ANISO, 0.5)
    assert rep.passed and not rep.details["density_checked"]
    with pytest.raises(SingularityError) as err:
        check_time_reversal(ANISO, 0.5 + 1e-6)
    assert err.value.critical_time == 0.5


def test_time_reversal_needs_a_single_gaussian():
    with pytest.raises(ContractError, match="single-Gaussian"):
        check_time_reversal(MIX2, 0.1)


# -- entropy monotonicity ------------------------------------------------------------------


def test_entropy_monotone_continuous_flow():
    ens = sample(ANISO, 64, 0)
    traj = continuous_flow(ANISO, 0.4, 8, ens)
    rep = check_entropy_monotone(traj)
    assert rep.details["strict"]
    assert rep.passed


def test_entropy_decrease_closed_form_value():
    # entropy drop of the continuous pushforward at t = 0.4 from diag[2, 1]
    h0 = entropy(ANISO).value
    pf = Gaussian.of(ANISO).continuous(0.4)
    h1 = entropy(pf.as_mixture()).value
    assert h1 - h0 == pytest.approx(0.5 * math.log((1.2 * 0.2) / (2.0 * 1.0)), rel=1e-12)
    assert h1 - h0 == pytest.approx(-1.0601, abs=2e-4)


def test_entropy_decrease_one_shot_value():
    h0 = entropy(GaussianMixture.standard(1)).value
    pf = Gaussian.of(GaussianMixture.standard(1)).one_shot(1.0)
    h1 = entropy(pf.as_mixture()).value
    assert h1 - h0 == pytest.approx(0.5 * math.log(0.25), rel=1e-12)
    assert h1 - h0 == pytest.approx(-0.6931, abs=1e-4)


def test_entropy_monotone_constant_trajectory_is_flat():
    ens = ParticleEnsemble(np.linspace(-1, 1, 12)[:, None], seed=0)
    diag = FlowDiagnostics(Estimate(1.0, 0.1), Estimate(0.0, 0.1))
    traj = Trajectory((0.0, 1.0, 2.0), (ens, ens, ens), (diag, diag, diag))
    rep = check_entropy_monotone(traj)
    assert rep.passed and rep.max_abs == 0.0


def test_entropy_monotone_detects_increase():
    ens = ParticleEnsemble(np.linspace(-1, 1, 12)[:, None], seed=0)
    diags = tuple(
        FlowDiagnostics(Estimate(v, 0.0), Estimate(0.0, 0.0))
        for v in (1.0, 0.5, 0.9)
    )
    traj = Trajectory((0.0, 1.0, 2.0), (ens, ens, ens), diags)
    rep = check_entropy_monotone(traj)
    assert not rep.passed


def test_entropy_monotone_needs_three_times():
    ens = ParticleEnsemble(np.linspace(-1, 1, 12)[:, None], seed=0)
    diag = FlowDiagnostics(Estimate(1.0, 0.0), Estimate(0.0, 0.0))
    traj = Trajectory((0.0, 1.0), (ens, ens), (diag, diag))
    with pytest.raises(ContractError):
        check_entropy_monotone(traj)


EMPTY_CHECKS = {
    "variational_no_trials": lambda: check_variational_minimizer(STD1, 0.5, n=1000, n_trials=0),
    "variational_empty_grid": lambda: check_variational_minimizer(STD1, 0.5, n=1000, grid=np.zeros((0, 1))),
    "stein_no_pairs": lambda: check_stein_identity(0),
    "backward_heat_no_times": lambda: check_backward_heat(ANISO, ()),
    "backward_heat_empty_grid": lambda: check_backward_heat(STD1, [0.1], grid=np.zeros((0, 1))),
}


@pytest.mark.parametrize("case", sorted(EMPTY_CHECKS))
def test_a_check_with_nothing_to_check_is_a_contract_error_before_sampling(case, monkeypatch):
    from dae_transport import verify

    def no_draws(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(verify, "sample", no_draws)
    monkeypatch.setattr(verify, "substream", no_draws)
    with pytest.raises(Exception) as err:
        EMPTY_CHECKS[case]()
    assert type(err.value) is ContractError


# -- noise identity and Renyi identity -------------------------------------------------------


def test_stein_identity_check():
    rep = check_stein_identity(100, seed=0)
    assert rep.passed and rep.max_abs < 1e-10


def test_renyi_gradient_identity_single_gaussian():
    rep = check_renyi_gradient_identity(ANISO)
    assert rep.passed and rep.max_abs < 1e-4


@pytest.mark.parametrize("dx", [math.nan, 0.0, -1e-3])
def test_renyi_gradient_identity_rejects_bad_space_step(dx):
    with pytest.raises(DomainError):
        check_renyi_gradient_identity(ANISO, dx=dx)


def test_renyi_gradient_identity_rejects_alpha_one():
    for alpha in (1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="alpha"):
            check_renyi_gradient_identity(ANISO, alpha=alpha)


# -- reports and suite ---------------------------------------------------------------------


def test_report_invariant_passed_iff_within_tolerance():
    rep = check_stein_identity(10, seed=0)
    assert rep.max_abs == pytest.approx(float(np.max(np.abs(rep.residuals))))
    assert rep.passed == (rep.max_abs <= rep.tolerance)


def test_report_json_schema():
    rep = check_stein_identity(10, seed=0)
    doc = rep.to_json_dict()
    for key in ("name", "tolerance", "max_abs", "passed", "grid_size", "seed"):
        assert key in doc
    json.dumps(doc)  # serializable


def test_reports_reproducible_bit_for_bit():
    a = check_variational_minimizer(STD1, t=0.5, n=20_000, seed=7, n_trials=5)
    b = check_variational_minimizer(STD1, t=0.5, n=20_000, seed=7, n_trials=5)
    np.testing.assert_array_equal(a.residuals, b.residuals)
    assert a.to_json_dict() == b.to_json_dict()


def test_default_suite_passes_and_control_fails():
    reports = default_checks(seed=0)
    assert len(reports) >= 6
    by_name = {r.name: r for r in reports}
    for name, rep in by_name.items():
        if name in EXPECTED_FAILURES:
            assert not rep.passed, name
        else:
            assert rep.passed, name
    assert set(EXPECTED_FAILURES) <= set(by_name)


def test_tolerance_overrides_force_failures():
    reports = default_checks(seed=0, tolerances={"variational_minimizer": 1e-12})
    by_name = {r.name: r for r in reports}
    assert not by_name["variational_minimizer"].passed


BAD_BOUNDS = [math.nan, math.inf, -math.inf, -1.0, True]


@pytest.mark.parametrize("bound", BAD_BOUNDS, ids=["nan", "inf", "-inf", "negative", "bool"])
def test_reports_reject_a_bound_that_is_not_a_finite_number_at_least_0(bound):
    with pytest.raises(ContractError, match="tolerance"):
        ResidualReport("stein_identity", None, [0.0], bound)
    with pytest.raises(ContractError, match="tolerance"):
        ResidualReport("custom_check", None, [0.0], bound)
    # a custom name takes any valid explicit bound, and 0 is a legal one
    assert ResidualReport("custom_check", None, [0.5], 1).passed and ResidualReport("custom", None, [0.0], 0.0).passed


@pytest.mark.parametrize("bound", BAD_BOUNDS, ids=["nan", "inf", "-inf", "negative", "bool"])
def test_default_checks_reject_a_bad_bound_before_any_check_runs(bound, monkeypatch):
    from dae_transport import verify

    def no_draws(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(verify, "sample", no_draws)
    monkeypatch.setattr(verify, "substream", no_draws)
    with pytest.raises(Exception) as err:
        default_checks(seed=0, tolerances={"backward_heat": 1e-4, "stein_identity": bound})
    assert type(err.value) is ContractError and "stein_identity" in str(err.value)


def test_unknown_override_name_is_rejected():
    with pytest.raises(ContractError, match="varitional_minimizer"):
        default_checks(seed=0, tolerances={"varitional_minimizer": 1e-12})


def test_readme_tolerance_table_mirrors_tolerances():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Verification manifest and tolerances")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)`\s*\| ([^|]+)\|", section, flags=re.MULTILINE)
    table = {name: float(value) for name, value in rows}
    assert table == TOLERANCES
    assert set(EXPECTED_FAILURES) <= set(table)


def test_seed_changes_residuals_not_verdicts():
    base = {r.name: r for r in default_checks(seed=0)}
    for seed in (1, 2):
        for rep in default_checks(seed=seed):
            assert rep.passed == base[rep.name].passed, rep.name
