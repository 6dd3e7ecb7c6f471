from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from dae_transport import (
    ContractError,
    DomainError,
    Gaussian,
    GaussianMixture,
    ParticleEnsemble,
    convolve,
    density,
    density_gradient,
    entropy,
    kde_log_density,
    laplacian_density,
    log_density,
    renyi_entropy,
    sample,
    score,
    silverman_covariance,
    smooth,
    stein_residual,
)
from helpers import fd_gradient, fd_laplacian


def two_mixture() -> GaussianMixture:
    return GaussianMixture.from_components(
        [
            (0.4, [-1.0, 0.5], [[1.0, 0.3], [0.3, 0.8]]),
            (0.6, [1.5, -0.5], [[0.6, -0.1], [-0.1, 1.2]]),
        ]
    )


# -- construction and invariants ------------------------------------------------


def test_weights_must_sum_to_one():
    with pytest.raises(ContractError):
        GaussianMixture.from_components([(0.5, [0.0], [[1.0]]), (0.4, [1.0], [[1.0]])])


def test_weights_must_be_positive():
    with pytest.raises(ContractError):
        GaussianMixture.from_components([(1.5, [0.0], [[1.0]]), (-0.5, [1.0], [[1.0]])])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_weights_must_be_finite(bad):
    with pytest.raises(ContractError, match="finite"):
        GaussianMixture([bad, 0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]])


@pytest.mark.parametrize(
    "points, message",
    [([[0.0, math.nan]], "finite"), ([[math.inf, 0.0]], "finite"), (np.empty((0, 2)), "nonempty")],
    ids=["nan", "inf", "empty"],
)
def test_ensemble_rejects_nonfinite_or_empty_points(points, message):
    with pytest.raises(ContractError, match=message):
        ParticleEnsemble(points, seed=0)


def test_ensemble_accepts_finite_points_whose_sum_overflows_without_a_warning():
    # the scan sums first; an overflowing sum of finite values falls back to min and max, which accept it
    points = np.full((100_000, 2), 1.7e308)
    points[::2, 1] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = ParticleEnsemble(points, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(points.sum()) and math.isinf(points[:, 0].sum())
    assert np.array_equal(ens.points, points)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", ["nan", "+inf", "-inf", "+inf/-inf"])
def test_ensemble_scan_rejects_a_nonfinite_value_anywhere_in_a_stack(bad, where):
    # +inf/-inf: a pair whose sum is NaN, not inf; the scan must reject it as it rejects one NaN
    points = np.random.default_rng(5).standard_normal((100_000, 2))
    i = {"first": 0, "middle": points.size // 2, "last": points.size - 1}[where]
    flat = points.reshape(-1)
    flat[i] = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf, "+inf/-inf": math.inf}[bad]
    if bad == "+inf/-inf":
        flat[i - 1 if i else 1] = -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="ensemble points must be finite"):
            ParticleEnsemble(points, seed=0)


def _frozen_array(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def test_ensemble_copies_its_points_whoever_owns_them():
    # a writeable input, or a read-only view of writeable memory, is copied: the caller can change neither
    caller = np.arange(6.0).reshape(3, 2)
    view = _frozen_array(caller[1:].view())
    for points, rows in ((caller, caller.copy()), (view, view.copy())):
        ens = ParticleEnsemble(points, seed=0)
        assert not np.shares_memory(ens.points, caller) and not ens.points.flags.writeable
        caller[...] = -1.0
        np.testing.assert_array_equal(ens.points, rows)
        caller[...] = np.arange(6.0).reshape(3, 2)
    # memory that no ndarray owns (here the bytes behind np.frombuffer) is copied too
    raw = np.frombuffer(np.arange(6.0).tobytes())
    for points in (raw, raw.reshape(3, 2)):
        ens = ParticleEnsemble(points, seed=0)
        assert not np.shares_memory(ens.points, raw) and not ens.points.flags.writeable
        np.testing.assert_array_equal(ens.points.ravel(), np.arange(6.0))
    # a frozen owner, or a frozen view of one, is copied as well, and a frozen owner is still checked
    owner = _frozen_array(np.arange(6.0).reshape(3, 2).copy())
    for points in (owner, owner[1:], owner[:, 0]):  # a column is an (n, 1) view
        ens = ParticleEnsemble(points, seed=0)
        assert not np.shares_memory(ens.points, owner) and not ens.points.flags.writeable
        assert ens.points.base is None and np.array_equal(ens.points.ravel(), np.ravel(points))
    with pytest.raises(ContractError, match="finite"):
        ParticleEnsemble(_frozen_array(np.array([[0.0], [math.nan]])), seed=0)


def test_an_ensemble_stays_finite_and_frozen_when_its_caller_unfreezes_the_points():
    # NumPy lets the owner of its memory turn the writeable flag back on, so a frozen input is no promise
    a = _frozen_array(np.zeros((3, 2)))
    ens = ParticleEnsemble(a, 0)
    a.flags.writeable = True
    a[0, 0] = np.nan
    assert np.all(np.isfinite(ens.points)) and not ens.points.flags.writeable
    with pytest.raises(ValueError):
        ens.points[0, 0] = 1.0


def test_the_package_s_own_arrays_are_adopted_checked_and_frozen_in_place():
    fresh = np.arange(6.0).reshape(3, 2)
    ens = ParticleEnsemble(fresh, 0, _adopt=True)
    assert ens.points is fresh and not fresh.flags.writeable
    with pytest.raises(ContractError, match="ensemble points must be finite"):
        ParticleEnsemble(np.array([[0.0], [math.inf]]), 0, _adopt=True)


MALFORMED = {
    "mixture_without_components": (lambda: GaussianMixture.from_components([]), "at least one component"),
    "from_cov_shape_mismatch": (lambda: Gaussian.from_cov(np.eye(2), [0.0]), "does not match mean shape"),
    "declared_dim_differs": (
        lambda: GaussianMixture.from_json_dict({"dim": 2, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]}),
        "declared dim 2 does not match component dim 1",
    ),
    "points_3d": (lambda: score(GaussianMixture.standard(1), np.zeros((2, 1, 1))), "scalar, a vector or an \\(n, m\\)"),
    "convolve_kernel_shape": (lambda: convolve(GaussianMixture.standard(2), np.eye(3)), "must be 2x2"),
    "silverman_one_point": (lambda: silverman_covariance(np.zeros((1, 2))), "at least two points"),
    "kde_without_data": (lambda: kde_log_density(np.empty((0, 2)), np.eye(2), [[0.0, 0.0]]), "at least one data point"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_argument_is_a_contract_error(case):
    call, message = MALFORMED[case]
    with pytest.raises(Exception, match=message) as err:
        call()
    assert type(err.value) is ContractError


def test_covariance_must_be_symmetric():
    with pytest.raises(ContractError):
        GaussianMixture.single([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])


def test_covariance_must_be_positive_definite():
    with pytest.raises(ContractError):
        GaussianMixture.single([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize(
    "entry",
    [
        lambda cov: Gaussian.from_cov(cov),
        lambda cov: GaussianMixture.single([0.0, 0.0], cov),
        lambda cov: GaussianMixture.from_json_dict(
            {"dim": 2, "components": [{"weight": 1.0, "mean": [0.0, 0.0], "cov": cov.tolist()}]}
        ),
        lambda cov: kde_log_density(np.zeros((3, 2)), cov, [0.0, 0.0]),
    ],
    ids=["Gaussian.from_cov", "GaussianMixture.single", "GaussianMixture.from_json_dict", "kde_log_density"],
)
def test_one_positivity_rule_at_every_entry(entry):
    # lambda_min <= 1e-12 lambda_max is rejected where the covariance enters, so no
    # Gaussian is accepted whose as_mixture() would then raise
    with pytest.raises(ContractError, match="not positive definite"):
        entry(np.diag([1.0, 1e-13]))
    entry(np.diag([1.0, 2e-12]))


def test_positivity_rule_names_the_bad_component():
    with pytest.raises(ContractError, match="mixture component 1 covariance is not positive definite"):
        GaussianMixture([0.5, 0.5], [[0.0], [1.0]], [[[1.0]], [[0.0]]])
    assert Gaussian.from_cov(np.diag([1.0, 2e-12])).as_mixture().k == 1


def test_component_dimensions_must_agree():
    with pytest.raises(ContractError):
        GaussianMixture.from_components([(0.5, [0.0], [[1.0]]), (0.5, [0.0, 0.0], np.eye(2))])


def test_mixture_arrays_are_immutable():
    mix = two_mixture()
    with pytest.raises(ValueError):
        mix.means[0, 0] = 5.0


def test_gaussian_arrays_are_immutable_and_callers_stay_writable():
    mean, cov = np.array([1.0, -1.0]), np.diag([2.0, 1.0])
    g = Gaussian.from_cov(cov, mean)
    values = (g, g.one_shot(0.3), g.continuous(0.2), Gaussian.of(g.as_mixture()))
    for h in values:
        for arr in (h.mean, h.evals, h.evecs):
            with pytest.raises(ValueError):
                arr[0] = 5.0
    assert mean.flags.writeable and cov.flags.writeable


def test_from_json_dict_reads_a_literal_document():
    doc = {"dim": 2.0, "components": [
        {"weight": 0.25, "mean": [1.0, -2.0], "cov": [[2.0, 0.5], [0.5, 1.0]]},
        {"weight": 0.75, "mean": [0.0, 3.0], "cov": [[1.0, 0.0], [0.0, 4.0]]},
    ]}
    mix = GaussianMixture.from_json_dict(doc)
    assert (mix.k, mix.dim) == (2, 2)
    np.testing.assert_array_equal(mix.weights, [0.25, 0.75])
    np.testing.assert_array_equal(mix.means, [[1.0, -2.0], [0.0, 3.0]])
    np.testing.assert_array_equal(mix.covs, [[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 4.0]]])


# -- density ----------------------------------------------------------------------


def test_standard_normal_mode():
    assert density(GaussianMixture.standard(1), [0.0]) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)


def test_anisotropic_density_at_origin():
    mix = GaussianMixture.single([0.0, 0.0], np.diag([2.0, 1.0]))
    assert density(mix, [0.0, 0.0]) == pytest.approx(1.0 / (2 * math.pi * math.sqrt(2.0)), rel=1e-12)


def test_symmetric_mixture_at_midpoint():
    mix = GaussianMixture.from_components([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[1.0]])])
    expected = math.exp(-0.5) / math.sqrt(2 * math.pi)  # N(1; 0, 1)
    assert density(mix, [0.0]) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.24197, abs=5e-6)


def test_density_against_scipy_oracle():
    mix = two_mixture()
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(50, 2)) * 1.5
    expected = sum(
        w * multivariate_normal.pdf(pts, mean=m, cov=c) for w, m, c in zip(mix.weights, mix.means, mix.covs)
    )
    np.testing.assert_allclose(density(mix, pts), expected, rtol=1e-12)


def test_density_dimension_mismatch():
    with pytest.raises(ContractError):
        density(GaussianMixture.standard(2), [0.0])


def test_density_integrates_to_one_importance_mc():
    mix = two_mixture()
    proposal_cov = 2.0 * (np.cov(sample(mix, 4000, 5).points.T, ddof=1) + np.eye(2))
    proposal = GaussianMixture.single(np.average(mix.means, axis=0, weights=mix.weights), proposal_cov)
    pts = sample(proposal, 100_000, 6).points
    ratios = density(mix, pts) / density(proposal, pts)
    se = np.std(ratios, ddof=1) / math.sqrt(len(ratios))
    assert abs(np.mean(ratios) - 1.0) < 3.0 * se


# -- score ---------------------------------------------------------------------------


def test_standard_normal_score():
    np.testing.assert_allclose(score(GaussianMixture.standard(1), [1.0]), [-1.0], rtol=1e-12)


def test_diagonal_gaussian_score():
    mix = GaussianMixture.single([0.0, 0.0], np.diag([2.0, 1.0]))
    np.testing.assert_allclose(score(mix, [2.0, 2.0]), [-1.0, -2.0], rtol=1e-12)


def test_mixture_score_matches_finite_differences():
    mix = two_mixture()
    x = np.array([0.3, -0.7])
    fd = fd_gradient(lambda p: log_density(mix, p), x)
    np.testing.assert_allclose(score(mix, x), fd, rtol=1e-6)


def test_score_finite_difference_property_200_points():
    mix = two_mixture()
    rng = np.random.default_rng(123)
    pts = rng.normal(size=(200, 2)) * 2.0
    analytic = score(mix, pts)
    for x, s in zip(pts, analytic):
        fd = fd_gradient(lambda p: log_density(mix, p), x)
        assert np.max(np.abs(s - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))


# -- laplacian ------------------------------------------------------------------------


def test_standard_normal_laplacian_at_origin():
    # in 1-D, lap mu = (x^2 - 1) mu
    assert laplacian_density(GaussianMixture.standard(1), [0.0]) == pytest.approx(
        -1.0 / math.sqrt(2 * math.pi), rel=1e-12
    )


def test_standard_normal_laplacian_inflection():
    assert laplacian_density(GaussianMixture.standard(1), [1.0]) == pytest.approx(0.0, abs=1e-15)


def test_mixture_laplacian_matches_finite_differences():
    mix = two_mixture()
    x = np.array([0.5, 0.4])
    fd = fd_laplacian(lambda p: density(mix, p), x, h=0.02)
    assert laplacian_density(mix, x) == pytest.approx(fd, rel=1e-5)


def test_laplacian_finite_difference_property_200_points():
    mix = two_mixture()
    rng = np.random.default_rng(321)
    pts = rng.normal(size=(200, 2)) * 2.0
    analytic = laplacian_density(mix, pts)
    for x, lap in zip(pts, analytic):
        fd = fd_laplacian(lambda p: density(mix, p), x)
        assert abs(lap - fd) < 1e-4 * max(1e-3, abs(fd))


def test_density_gradient_consistent_with_score():
    mix = two_mixture()
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(20, 2))
    dens = np.asarray(density(mix, pts)).reshape(-1, 1)
    np.testing.assert_allclose(density_gradient(mix, pts), dens * score(mix, pts), rtol=1e-10)


def test_component_pass_matches_per_component_closed_forms():
    # three correlated 3-D components, summed one at a time with SciPy densities
    rng = np.random.default_rng(17)
    roots = rng.normal(size=(3, 3, 3))
    covs = roots @ np.swapaxes(roots, 1, 2) + 0.2 * np.eye(3)
    mix = GaussianMixture([0.2, 0.5, 0.3], rng.normal(size=(3, 3)), 0.5 * (covs + np.swapaxes(covs, 1, 2)))
    pts = rng.normal(size=(40, 3)) * 1.5
    dens = np.zeros(40)
    grad = np.zeros((40, 3))
    lap = np.zeros(40)
    for w, m, c in zip(mix.weights, mix.means, mix.covs):
        n_i = w * multivariate_normal.pdf(pts, mean=m, cov=c)
        solve = np.linalg.solve(c, (pts - m).T).T
        dens += n_i
        grad -= n_i[:, None] * solve
        lap += n_i * (np.sum(solve**2, axis=1) - np.trace(np.linalg.inv(c)))
    np.testing.assert_allclose(density(mix, pts), dens, rtol=1e-11)
    np.testing.assert_allclose(density_gradient(mix, pts), grad, rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(score(mix, pts), grad / dens[:, None], rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(laplacian_density(mix, pts), lap, rtol=1e-9, atol=1e-14)


# -- smoothing -------------------------------------------------------------------------


def test_smooth_adds_isotropic_variance():
    mix = GaussianMixture.single([0.0, 0.0], np.diag([2.0, 1.0]))
    out = smooth(mix, 1.0)
    np.testing.assert_allclose(out.covs[0], np.diag([3.0, 2.0]))
    np.testing.assert_allclose(out.means, mix.means)


def test_smooth_up_to_the_largest_float_raises_no_overflow():
    # the covariance is symmetrized by halves first, so 1 + 1e308 is no overflow (the suite raises RuntimeWarnings)
    out = smooth(GaussianMixture.single([0.0], [[1.0]]), 1e308)
    assert out.covs[0, 0, 0] == 1e308


def test_smooth_past_the_largest_float_is_a_contract_error_without_a_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as err:
            smooth(GaussianMixture.single([0.0], [[1e308]]), 1e308)
    assert type(err.value) is ContractError and "added covariance" in str(err.value)


def test_smooth_zero_is_identity():
    mix = two_mixture()
    assert smooth(mix, 0.0) is mix


def test_smooth_semigroup_exact():
    # dyadic times and entries make float addition associative, so the
    # convolution semigroup holds bitwise
    mix = GaussianMixture.from_components(
        [(0.5, [0.0, 0.0], np.diag([2.0, 1.0])), (0.5, [1.0, -1.0], np.diag([0.5, 0.25]))]
    )
    a = smooth(smooth(mix, 0.5), 0.25)
    b = smooth(mix, 0.75)
    np.testing.assert_array_equal(a.covs, b.covs)


def test_smooth_semigroup_generic_values():
    mix = two_mixture()
    a = smooth(smooth(mix, 0.3), 0.45)
    b = smooth(mix, 0.75)
    np.testing.assert_allclose(a.covs, b.covs, rtol=0, atol=5e-16)


def test_smooth_matches_monte_carlo_convolution():
    mix = two_mixture()
    t = 0.8
    n = 100_000
    base = sample(mix, n, 42).points
    noise = np.random.default_rng(43).normal(scale=math.sqrt(t), size=base.shape)
    emp_cov = np.cov((base + noise).T, ddof=1)
    expect = smooth(mix, t)
    # mixture covariance = sum_i w_i (S_i + mu_i mu_i^T) - mbar mbar^T
    mbar = np.average(expect.means, axis=0, weights=expect.weights)
    full = sum(
        w * (c + np.outer(m, m)) for w, m, c in zip(expect.weights, expect.means, expect.covs)
    ) - np.outer(mbar, mbar)
    se = np.sqrt((np.outer(np.diag(full), np.diag(full)) + full**2) / n)
    assert np.all(np.abs(emp_cov - full) < 6.0 * se)


def test_smooth_rejects_negative_variance():
    with pytest.raises(ContractError):
        smooth(GaussianMixture.standard(1), -0.1)


# -- entropy ----------------------------------------------------------------------------


def test_entropy_standard_normal_2d():
    est = entropy(GaussianMixture.standard(2))
    assert est.stderr == 0.0
    assert est.value == pytest.approx(math.log(2 * math.pi * math.e), rel=1e-12)
    assert est.value == pytest.approx(2.83788, abs=5e-6)


def test_entropy_diagonal_closed_form():
    s1, s2 = 1.3, 0.7
    est = entropy(GaussianMixture.single([0.0, 0.0], np.diag([s1**2, s2**2])))
    expected = math.log(s1) + math.log(s2) + math.log(2 * math.pi * math.e)
    assert est.value == pytest.approx(expected, rel=1e-12)


def test_entropy_duplicate_components_match_single():
    single = GaussianMixture.standard(1)
    dup = GaussianMixture.from_components([(0.5, [0.0], [[1.0]]), (0.5, [0.0], [[1.0]])])
    mc = entropy(dup, seed=3)
    assert mc.stderr > 0.0
    assert abs(mc.value - entropy(single).value) < 3.0 * mc.stderr


def test_entropy_nondecreasing_under_smoothing():
    mix = GaussianMixture.single([0.0, 0.0], np.diag([2.0, 1.0]))
    values = [entropy(smooth(mix, t)).value for t in (0.0, 0.1, 0.5, 2.0, 10.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


# -- renyi entropy -----------------------------------------------------------------------


def test_renyi_alpha2_standard_normal():
    est = renyi_entropy(GaussianMixture.standard(1), 2.0)
    assert est.value == pytest.approx(1.0 / (2 * math.sqrt(math.pi)) - 1.0, rel=1e-12)
    assert est.value == pytest.approx(-0.71790, abs=1e-5)


def test_renyi_alpha_to_one_limit_approaches_negated_entropy():
    mix = GaussianMixture.standard(1)
    target = -entropy(mix).value
    vals = [renyi_entropy(mix, a).value for a in (1.01, 1.001)]
    assert abs(vals[1] - target) < abs(vals[0] - target)
    assert abs(vals[1] - target) < 1e-2


def test_renyi_wide_gaussian_limit():
    est = renyi_entropy(GaussianMixture.single([0.0], [[1e8]]), 2.0)
    assert est.value == pytest.approx(-1.0, abs=1e-4)


def test_renyi_rejects_bad_alpha():
    for mix in (GaussianMixture.standard(1), two_mixture()):
        for alpha in (1.0, -0.5, 0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="alpha"):
                renyi_entropy(mix, alpha, n=100)


def test_gaussian_renyi_checks_its_order_as_renyi_entropy_does():
    g = Gaussian.of(GaussianMixture.standard(2))
    for alpha in (1.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="alpha"):
            g.renyi(alpha)
    assert g.renyi(2.0) == renyi_entropy(GaussianMixture.standard(2), 2.0).value


def test_monte_carlo_estimates_need_two_samples():
    for estimate in (lambda n: entropy(two_mixture(), n=n), lambda n: renyi_entropy(two_mixture(), 2.0, n=n)):
        with pytest.raises(ContractError, match="at least two samples"):
            estimate(1)
        assert math.isfinite(estimate(2).stderr)


def test_renyi_mixture_mc_matches_quadrature():
    mix = GaussianMixture.from_components([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[1.0]])])
    xs = np.linspace(-12, 12, 20001)[:, None]
    dens = density(mix, xs)
    quad = np.trapezoid(dens**2, xs[:, 0]) - 1.0
    est = renyi_entropy(mix, 2.0, seed=9)
    assert abs(est.value - quad) < 4.0 * est.stderr


# -- sampling ---------------------------------------------------------------------------


def test_sample_law_of_large_numbers():
    n = 100_000
    ens = sample(GaussianMixture.standard(1), n, 17)
    assert abs(ens.points.mean()) < 4.0 / math.sqrt(n)
    assert abs(ens.points.var(ddof=1) - 1.0) < 6.0 * math.sqrt(2.0 / n)


def test_sample_point_mass_limit():
    mix = GaussianMixture.single([2.0, -1.0], 1e-18 * np.eye(2))
    ens = sample(mix, 1000, 3)
    assert np.max(np.abs(ens.points - np.array([2.0, -1.0]))) < 1e-8


def test_sample_deterministic_given_seed():
    mix = two_mixture()
    a = sample(mix, 500, 99)
    b = sample(mix, 500, 99)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.seed == b.seed == 99


def test_sample_mixture_weights_respected():
    mix = GaussianMixture.from_components([(0.25, [-10.0], [[0.1]]), (0.75, [10.0], [[0.1]])])
    ens = sample(mix, 100_000, 1)
    frac = float(np.mean(ens.points[:, 0] > 0))
    assert abs(frac - 0.75) < 0.01


def test_sample_rejects_zero():
    with pytest.raises(ContractError):
        sample(GaussianMixture.standard(1), 0, 0)


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf, -1])
def test_sample_size_must_be_a_whole_count(n):
    with pytest.raises(Exception, match="sample size must be >= 1 and whole") as err:
        sample(GaussianMixture.standard(1), n, 0)
    assert type(err.value) is ContractError


def test_sample_takes_a_whole_float_as_its_count():
    mix = GaussianMixture.standard(2)
    assert np.array_equal(sample(mix, 3.0, 4).points, sample(mix, 3, 4).points)


# -- noise identity -----------------------------------------------------------------------


def test_stein_residual_zero_at_origin():
    np.testing.assert_allclose(stein_residual(1.0, [0.0, 0.0]), [0.0, 0.0], atol=1e-15)


def test_stein_residual_one_dim():
    assert np.max(np.abs(stein_residual(1.0, [1.0]))) < 1e-12


def test_stein_residual_property_100_draws():
    rng = np.random.default_rng(8)
    worst = 0.0
    for i in range(100):
        dim = 1 + (i % 3)
        t = float(rng.uniform(0.1, 2.0))
        eps = rng.normal(scale=1.5, size=dim)
        worst = max(worst, float(np.max(np.abs(stein_residual(t, eps)))))
    assert worst < 1e-10


@pytest.mark.parametrize("eps", [[], np.empty((0, 2))], ids=["empty_list", "no_rows"])
def test_stein_residual_needs_a_noise_value(eps):
    with pytest.raises(Exception, match="at least one noise value eps") as err:
        stein_residual(1.0, eps)
    assert type(err.value) is ContractError


def test_stein_rejects_zero_variance():
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="noise variance"):
            stein_residual(t, [1.0])


# -- kernel density helpers ----------------------------------------------------


def test_convolve_adds_full_covariance():
    from dae_transport import convolve

    mix = two_mixture()
    kernel = np.array([[0.5, 0.1], [0.1, 0.3]])
    out = convolve(mix, kernel)
    np.testing.assert_allclose(out.covs, mix.covs + kernel[np.newaxis])
    np.testing.assert_array_equal(out.means, mix.means)


def test_silverman_covariance_formula():
    from dae_transport import silverman_covariance

    rng = np.random.default_rng(2)
    pts = rng.normal(size=(500, 2))
    bw = silverman_covariance(pts)
    n, m = pts.shape
    beta = (4.0 / (m + 2.0)) ** (2.0 / (m + 4.0)) * n ** (-2.0 / (m + 4.0))
    np.testing.assert_allclose(bw, beta * np.cov(pts.T, ddof=1), rtol=1e-12)
    np.testing.assert_allclose(silverman_covariance(pts, factor=3.0), 9.0 * bw, rtol=1e-12)


def test_kde_log_density_matches_equal_weight_mixture():
    from dae_transport import kde_log_density

    rng = np.random.default_rng(14)
    data = rng.normal(size=(40, 2))
    bw = np.array([[0.4, 0.05], [0.05, 0.3]])
    mix = GaussianMixture.from_components([(1.0 / 40, d, bw) for d in data])
    probes = rng.normal(size=(25, 2)) * 1.5
    np.testing.assert_allclose(
        kde_log_density(data, bw, probes), log_density(mix, probes), rtol=1e-12
    )


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_pass_matches_one_chunk_when_chunked(monkeypatch, m):
    from dae_transport import EmpiricalKernel, ParticleEnsemble, kde_log_density
    from dae_transport import measures

    rng = np.random.default_rng(20 + m)
    data = rng.normal(size=(1000, m))
    probes = rng.normal(size=(3600, m)) * 1.5
    cov = 0.3 * np.cov(data.T).reshape(m, m)
    kernel_map = EmpiricalKernel(ParticleEnsemble(data, 0), 0.4)

    def both(chunk_rows):
        monkeypatch.setattr(measures, "_KERNEL_CHUNK_PAIRS", chunk_rows * data.shape[0])
        return kde_log_density(data, cov, probes), kernel_map.apply(probes)

    one_chunk = both(probes.shape[0])
    # three chunks of 1200 rows: bit for bit
    for a, b in zip(one_chunk, both(1200)):
        np.testing.assert_array_equal(a, b)
    # chunks of 7 rows and of 1 row are small enough for BLAS to pick other
    # product kernels, which may round the last bits differently
    for rows in (7, 1):
        for a, b in zip(one_chunk, both(rows)):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-13)


def _assert_kernel_pass_matches_a_long_double_oracle(probes, data, var, near_pairs=False, weighted_mean=True):
    # the oracle sums (x - d)^2 directly in long double; with ``near_pairs`` the log mean may also
    # carry each near pair's rounding of the GEMM expansion, about eps |z|^2 at the scaled coordinates z,
    # weighted by the pair's share of its row's kernel mass; without ``weighted_mean`` only the log mean is read
    from dae_transport import measures

    log_mean, mean = measures._kernel_pass(probes, data, var, -0.7, weighted_mean=weighted_mean)
    x, d = probes.astype(np.longdouble), data.astype(np.longdouble)
    logk = -np.sum((x[:, None, :] - d[None, :, :]) ** 2, axis=2) / (2 * np.longdouble(var))
    shift = np.max(logk, axis=1)
    w = np.exp(logk - shift[:, None])
    want_log = np.log(np.sum(w, axis=1)) + shift - 0.7 - np.log(np.longdouble(data.shape[0]))
    want_mean = (w @ d) / np.sum(w, axis=1)[:, None]
    bound = 1e-13 * np.maximum(1.0, np.abs(want_log))
    if near_pairs:
        z_sq = np.max(np.sum((data - data.mean(axis=0)) ** 2, axis=1)) / var
        bound += np.finfo(float).eps * z_sq * (1.0 - np.max(w, axis=1) / np.sum(w, axis=1))
    assert np.all(np.abs(log_mean - want_log) <= bound)
    if not weighted_mean:
        assert mean is None
        return
    assert np.all(np.abs(mean - want_mean) <= 1e-13 * (1.0 + np.abs(want_mean)))


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("var", [1.0, 0.37, 0.05])
@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_kernel_pass_matches_a_long_double_oracle(m, var, offset):
    # data far from the origin must cost no accuracy, since |x - d|^2 does not change under
    # translation; probes on the data take the symmetric route
    rng = np.random.default_rng(60 + m)
    data = rng.normal(size=(300, m)) + offset
    _assert_kernel_pass_matches_a_long_double_oracle(rng.normal(size=(70, m)) * 1.5 + offset, data, var)
    _assert_kernel_pass_matches_a_long_double_oracle(data, data, var)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("var", [1e-6, 1e-12])
@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_symmetric_kernel_pass_matches_a_long_double_oracle_at_tiny_bandwidth(m, var, offset):
    # the self terms are exactly 1, not exp(|z|^2 - |z|^2 / 2 - |z|^2 / 2) at |z|^2 up to 1e13, which
    # puts the general route 1e-4 off at var 1e-12; only at m = 1 and var 1e-6 are there near pairs,
    # and their rounding puts the log mean up to 2e-11 off
    data = np.random.default_rng(60 + m).normal(size=(300, m)) + offset
    _assert_kernel_pass_matches_a_long_double_oracle(data, data, var, near_pairs=True)


def test_a_collapsed_ensemble_maps_to_itself_exactly():
    # every kernel is exp(0) = 1: the sums are n and the log mean is log_norm, with no rounding
    from dae_transport import measures

    data = np.tile([0.375, -1.25, 3.0], (64, 1))
    for log_norm in (0.0, -0.5):
        log_mean, mean = measures._kernel_pass(data, data, 0.3, log_norm, weighted_mean=True)
        assert np.array_equal(mean, data) and np.all(log_mean == log_norm)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_symmetric_kernel_pass_matches_one_chunk_when_chunked(monkeypatch, m):
    from dae_transport import EmpiricalKernel, ParticleEnsemble
    from dae_transport import measures

    data = np.random.default_rng(30 + m).normal(size=(700, m))
    cov = 0.3 * np.cov(data.T).reshape(m, m)
    kernel_map = EmpiricalKernel(ParticleEnsemble(data, 0), 0.4)

    def both(chunk_rows):
        monkeypatch.setattr(measures, "_KERNEL_CHUNK_PAIRS", chunk_rows * data.shape[0])
        return kde_log_density(data, cov, data), kernel_map.apply(data)

    one_chunk = both(data.shape[0])
    for rows in (7, 1):
        for a, b in zip(one_chunk, both(rows)):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("weighted_mean", [True, False], ids=["map", "kde"])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("block", [16, 64])
@pytest.mark.parametrize("extra", [(1, -1), (1, 0), (1, 1), (2, 1)], ids=["B-1", "B", "B+1", "2B+1"])
def test_symmetric_kernel_pass_at_the_edges_of_its_row_blocks(monkeypatch, extra, block, m, weighted_mean):
    # the symmetric route takes B = max(1, 2 * _KERNEL_CHUNK_PAIRS // n) rows a block; n = B - 1 and B fill one
    # block, B + 1 ends in a block of one row, 2B + 1 takes three; each matches the oracle and the general route
    from dae_transport import measures

    n = extra[0] * block + extra[1]
    monkeypatch.setattr(measures, "_KERNEL_CHUNK_PAIRS", block * n // 2)
    blocks = []
    fill_diagonal = np.fill_diagonal
    monkeypatch.setattr(np, "fill_diagonal", lambda w, v: blocks.append(len(w)) or fill_diagonal(w, v))
    data = np.random.default_rng(70 + n + m).normal(size=(n, m))
    _assert_kernel_pass_matches_a_long_double_oracle(data, data, 0.3, weighted_mean=weighted_mean)
    assert blocks == [block] * (n // block) + ([n % block] if n % block else [])
    nudged = data.copy()
    nudged[n // 2, 0] = np.nextafter(nudged[n // 2, 0], np.inf)
    on_data = measures._kernel_pass(data, data, 0.3, 0.0, weighted_mean=weighted_mean)
    off_data = measures._kernel_pass(nudged, data, 0.3, 0.0, weighted_mean=weighted_mean)
    np.testing.assert_allclose(on_data[0], off_data[0], rtol=0.0, atol=1e-13)
    if weighted_mean:
        np.testing.assert_allclose(on_data[1], off_data[1], rtol=0.0, atol=1e-13)


def test_probes_off_the_data_by_one_ulp_take_the_general_route(monkeypatch):
    # the general route shifts each chunk by its row maxima; the symmetric route needs no shift
    from dae_transport import measures

    calls = []
    shifted_exp = measures._shifted_exp
    monkeypatch.setattr(measures, "_shifted_exp", lambda *a, **k: calls.append(1) or shifted_exp(*a, **k))
    data = np.random.default_rng(7).normal(size=(200, 2))
    on_data = measures._kernel_pass(data.copy(), data, 0.2, 0.0, weighted_mean=True)
    assert not calls
    nudged = data.copy()
    nudged[123, 1] = np.nextafter(nudged[123, 1], np.inf)
    off_data = measures._kernel_pass(nudged, data, 0.2, 0.0, weighted_mean=True)
    assert calls
    for a, b in zip(on_data, off_data):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-13)


def test_silverman_covariance_overflow_is_a_contract_error_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="Silverman kernel covariance must be finite"):
            silverman_covariance(np.array([[-1e200, 0.0], [1e200, 1.0]] * 10))


def test_spectral_of_a_stack_is_the_stack_of_each_matrix():
    from dae_transport.measures import _spectral

    rng = np.random.default_rng(2)
    evecs = np.stack([np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(4)])
    values = rng.uniform(0.5, 2.0, (4, 3))
    stack = _spectral(values, evecs)
    for matrix, v, q in zip(stack, values, evecs):
        np.testing.assert_array_equal(matrix, _spectral(v, q))
        np.testing.assert_allclose(matrix, q @ np.diag(v) @ q.T, rtol=1e-14, atol=1e-14)
