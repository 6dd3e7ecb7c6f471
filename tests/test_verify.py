from __future__ import annotations

import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dae_transport import (
    ContractError,
    DomainError,
    EXPECTED_FAILURES,
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
from dae_transport import measures

ANISO = GaussianMixture.single([0.0, 0.0], np.diag([2.0, 1.0]))
STD1 = GaussianMixture.standard(1)
MIX2 = GaussianMixture.from_components([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[1.0]])])


# -- reports ------------------------------------------------------------------------


def test_report_derives_its_verdict():
    r = ResidualReport("time_reversal", None, [1e-13, -2e-13])
    assert (r.tolerance, r.max_abs, r.passed) == (1e-12, 2e-13, True)
    with pytest.raises(TypeError):  # the bound is derived: a stale 4th positional argument is no seed
        ResidualReport("time_reversal", None, [1e-13], 1e-14)
    with pytest.raises(ContractError, match="custom_check"):
        ResidualReport("custom_check", None, [0.0])
    assert not ResidualReport("stein_identity", None, [math.nan]).passed
    assert ResidualReport("entropy_monotone", None, []).passed
    with pytest.raises(TypeError):
        ResidualReport("time_reversal", None, [1.0], passed=True)


# -- probe lattice ----------------------------------------------------------------


@pytest.mark.parametrize(
    "extent, per_axis, dim",
    [(1e308, 3, 2), (5e307, 3, 1), (1e200, 401, 1), (1e308, 1, 1)],
    ids=["step_overflows", "covariance_overflows", "curve_covariance_overflows", "one_point_of_an_overflowing_range"],
)
def test_lattice_rule_rejects_a_lattice_that_is_not_finite_without_a_warning(extent, per_axis, dim):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception, match="not finite") as err:
            probe_lattice(extent, per_axis, dim)
    assert type(err.value) is ContractError


@pytest.mark.parametrize("per_axis, dim", [(0, 2), (3, 0), (-1, 1)])
def test_lattice_rule_rejects_an_empty_lattice(per_axis, dim):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception, match=r"(per_axis|dim) must be >= 1 and whole") as err:
            probe_lattice(1.0, per_axis, dim)
    assert type(err.value) is ContractError


def test_lattice_rule_keeps_a_finite_lattice():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge = probe_lattice(1e154, 3, 1)  # sample variance 1e308, just finite
        curve = probe_lattice(4.0, 401, 1)
    np.testing.assert_array_equal(edge[:, 0], [-1e154, 0.0, 1e154])
    np.testing.assert_array_equal(curve[:, 0], np.linspace(-4.0, 4.0, 401))
    assert probe_lattice(3.0, 9, 2).shape == (81, 2)


# -- variational minimizer ----------------------------------------------------------


def test_variational_point_mass_regresses_to_mean():
    tiny = GaussianMixture.single([1.5], [[1e-12]])
    rep = check_variational_minimizer(tiny, t=0.5, n=20_000, seed=0)
    assert rep.passed
    # the fitted map must send every probe to (essentially) the point mass
    assert rep.details["max_grid_deviation"] < 0.02


def test_variational_standard_normal_sup_norm():
    rep = check_variational_minimizer(STD1, t=0.5)
    assert rep.passed
    assert rep.details["max_grid_deviation"] < 0.05
    assert rep.details["min_margin"] >= 0.0
    assert rep.details["max_cross_se_ratio"] <= 1.0


def test_variational_violation_is_infinite_under_any_override(monkeypatch):
    # the exact map of N(0.8, 1) is no minimizer for data from N(0, 1)
    from dae_transport import MixtureExact, verify

    shifted = GaussianMixture.single([0.8], [[1.0]])
    monkeypatch.setattr(verify, "MixtureExact", lambda mix, t: MixtureExact(shifted, t))
    rep = check_variational_minimizer(STD1, t=0.5)
    assert rep.details["min_margin"] < 0.0 and rep.details["max_cross_se_ratio"] > 1.0
    assert not rep.passed and rep.max_abs == math.inf
    assert json.loads(json.dumps(rep.to_json_dict())) == rep.to_json_dict()
    monkeypatch.setitem(verify.TOLERANCES, "variational_minimizer", sys.float_info.max)
    by_name = {r.name: r for r in default_checks(seed=0)}
    loose = by_name["variational_minimizer"]
    assert loose.tolerance == sys.float_info.max and loose.max_abs == math.inf and not loose.passed


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
        rep = check_variational_minimizer(STD1, t=0.5, n=n, seed=4)
        devs.append(rep.details["max_grid_deviation"])
    assert devs[0] > devs[1] > devs[2]


def test_variational_requires_positive_t_and_min_n():
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            check_variational_minimizer(STD1, t=t, n=10_000)
    # n is read as a count, then held to its floor of 1000
    for n in (10, 999, "x", 1000.7, True, math.inf):
        with pytest.raises(Exception) as info:
            check_variational_minimizer(STD1, t=0.5, n=n)
        assert type(info.value) is ContractError, n


# -- continuity at t = 0 ---------------------------------------------------------------


def test_continuity_gaussian_grid_residual():
    rep = check_continuity_t0(STD1)
    assert rep.name == "continuity_t0_gaussian"
    assert rep.passed and rep.max_abs < 1e-3


def test_continuity_vanishes_at_inflection_points():
    # at x = +-1 the 1-D standard normal has zero Laplacian, so the time
    # derivative of the pushforward density vanishes there
    rep = check_continuity_t0(STD1)
    at_inflection = np.isin(rep.grid[:, 0], (-1.0, 1.0))
    assert at_inflection.sum() == 2
    assert np.max(np.abs(rep.residuals[at_inflection])) < 1e-8


def test_continuity_mixture_kde_residual():
    rep = check_continuity_t0(MIX2)
    assert rep.name == "continuity_t0_mixture"
    assert rep.passed and rep.max_abs < 5e-3
    assert rep.details["mode"] == "particle_kde"


def test_continuity_rejects_large_dt():
    with pytest.raises(DomainError):
        check_continuity_t0(STD1, dt=0.01)


def test_continuity_rejects_a_step_at_the_critical_time():
    # dt = 1e-3 is a legal step, but N(0, 1e-3) turns singular before it
    with pytest.raises(Exception, match="dt too large") as err:
        check_continuity_t0(GaussianMixture.single([0.0], [[1e-3]]), dt=1e-3)
    assert type(err.value) is DomainError


# -- backward heat ------------------------------------------------------------------------


def test_backward_heat_anisotropic_grid():
    rep = check_backward_heat(ANISO, (0.0, 0.1, 0.2, 0.3))
    assert rep.passed
    assert rep.max_abs < 1e-4
    assert rep.grid_size == 13 * 13


def test_backward_heat_time_zero_matches_continuity_check():
    # the two default 1-D grids share the 9 points -2, -1.5, ..., 2
    heat = check_backward_heat(STD1, (0.0,))
    cont = check_continuity_t0(STD1)
    in_heat = np.isin(heat.grid[:, 0], cont.grid[:, 0])
    in_cont = np.isin(cont.grid[:, 0], heat.grid[:, 0])
    assert in_heat.sum() == in_cont.sum() == 9
    np.testing.assert_array_equal(heat.grid[in_heat], cont.grid[in_cont])
    np.testing.assert_allclose(heat.residuals[in_heat], cont.residuals[in_cont], atol=1e-12)


def test_backward_heat_one_shot_control_fails_loudly():
    rep = check_backward_heat(ANISO, (0.3,), source="one_shot")
    assert not rep.passed
    assert rep.max_abs > 10.0 * rep.tolerance  # violates by a wide margin


def test_backward_heat_rejects_times_past_singularity():
    with pytest.raises(SingularityError):
        check_backward_heat(ANISO, (0.0, 0.5))


def test_backward_heat_rejects_an_unknown_source():
    with pytest.raises(Exception, match="'bogus'") as err:
        check_backward_heat(STD1, (0.1,), source="bogus")
    assert type(err.value) is ContractError


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
    rep = check_time_reversal(shifted, 0.2, seed=2)
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


def _entropy_trajectory(values, stderr: float = 0.0) -> Trajectory:
    """A trajectory whose entropy rows are ``(value, stderr)``, with stderr 0 where a value is -inf (collapsed)."""
    ens = ParticleEnsemble(np.linspace(-1, 1, 12)[:, None], seed=0)
    rows = [(v, 0.0 if v == -math.inf else stderr) for v in values]
    layers = np.repeat(ens.points[None], len(values) - 1, axis=0)
    return Trajectory(range(len(values)), ens, layers, rows, np.zeros((len(values), 2)))


def test_entropy_monotone_constant_trajectory_is_flat():
    # a flat Monte Carlo path, and a collapsed state staying collapsed: -inf - -inf is NaN, which is no violation
    # (the suite makes a RuntimeWarning an error, so none is raised on the way)
    for values, stderr in [((1.0, 1.0, 1.0), 0.1), ((1.0, -math.inf, -math.inf), 0.1), ((1.0, -math.inf, -math.inf), 0.0)]:
        rep = check_entropy_monotone(_entropy_trajectory(values, stderr))
        assert rep.details["strict"] == (stderr == 0.0)
        assert rep.passed and rep.max_abs == 0.0, values


def test_entropy_monotone_detects_increase():
    # a step up, and a collapsed state coming back to a finite entropy: an infinite violation in either mode
    cases = [((1.0, 0.5, 0.9), 0.0, 0.4), ((1.0, -math.inf, 0.5), 0.0, math.inf), ((1.0, -math.inf, 0.5), 0.1, math.inf)]
    for values, stderr, worst in cases:
        rep = check_entropy_monotone(_entropy_trajectory(values, stderr))
        assert not rep.passed and rep.max_abs == pytest.approx(worst), values


def test_entropy_monotone_needs_three_times():
    with pytest.raises(ContractError):
        check_entropy_monotone(_entropy_trajectory((1.0, 0.0)))


EMPTY_CHECKS = {
    "backward_heat_no_times": lambda: check_backward_heat(ANISO, ()),
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
    rep = check_stein_identity()
    assert rep.passed and rep.max_abs < 1e-10


def test_renyi_gradient_identity_single_gaussian():
    rep = check_renyi_gradient_identity(ANISO)
    assert rep.passed and rep.max_abs < 1e-4


def test_renyi_gradient_identity_rejects_alpha_one():
    for alpha in (1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="alpha"):
            check_renyi_gradient_identity(ANISO, alpha=alpha)


# -- reports and suite ---------------------------------------------------------------------


def test_report_invariant_passed_iff_within_tolerance():
    rep = check_stein_identity()
    assert rep.max_abs == pytest.approx(float(np.max(np.abs(rep.residuals))))
    assert rep.passed == (rep.max_abs <= rep.tolerance)


def test_report_json_schema():
    rep = check_stein_identity()
    doc = rep.to_json_dict()
    for key in ("name", "tolerance", "max_abs", "passed", "grid_size", "seed"):
        assert key in doc
    json.dumps(doc)  # serializable


def test_reports_reproducible_bit_for_bit():
    a = check_variational_minimizer(STD1, t=0.5, n=20_000, seed=7)
    b = check_variational_minimizer(STD1, t=0.5, n=20_000, seed=7)
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


# The defect table: one seeded library defect per row, with the checks it must flip at least.  The DAE factor
# lambda / (lambda + 2t) and the other single-Gaussian defects still pass the whole suite, so they are not rows yet.
DEFECTS = [
    ("Gaussian.continuous", lambda orig: lambda self, t: orig(self, 0.5 * t),  # S - t I instead of S - 2t I
     {"continuity_t0_gaussian", "backward_heat", "time_reversal"}),
    ("smooth", lambda orig: lambda mix, t: orig(mix, 2.0 * t),  # noise variance 2t instead of t
     {"variational_minimizer", "time_reversal"}),
]


@pytest.mark.parametrize("target, defect, flagged", DEFECTS, ids=[row[0] for row in DEFECTS])
def test_default_checks_catch_each_seeded_defect(monkeypatch, target, defect, flagged):
    owner, _, name = target.rpartition(".")
    if owner:  # a method: its class is the one namespace that binds it
        cls = getattr(measures, owner)
        monkeypatch.setattr(cls, name, defect(getattr(cls, name)))
    else:  # a function: every package module that imported it binds it too
        orig = getattr(measures, name)
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "dae_transport"]:
            if getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, defect(orig))
    wrong = {r.name for r in default_checks(0) if r.passed == (r.name in EXPECTED_FAILURES)}
    assert wrong and flagged <= wrong, wrong


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
