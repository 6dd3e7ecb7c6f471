from __future__ import annotations

import math

import numpy as np
import pytest

from dae_transport import (
    AbstractPoint,
    AnalyticGaussian,
    ContractError,
    DomainError,
    GaussianMixture,
    GaussianPushforward,
    ParticleEnsemble,
    SingularityError,
    abstract_coordinates,
    empirical_moments,
    entropy,
    push_continuous,
    push_one_shot,
    sample,
    smooth,
    w2_distance,
)

ANISO = np.diag([2.0, 1.0])
ZERO2 = np.zeros(2)


# -- continuous pushforward -----------------------------------------------------


def test_push_continuous_value():
    pf = push_continuous(ZERO2, ANISO, 0.25)
    np.testing.assert_allclose(pf.covariance, np.diag([1.5, 0.5]))
    assert pf.source == "continuous"


def test_push_continuous_identity_at_zero():
    pf = push_continuous(ZERO2, ANISO, 0.0)
    np.testing.assert_array_equal(pf.covariance, ANISO)


def test_push_continuous_boundary_reports_zero_eigenvalue():
    pf = push_continuous(ZERO2, ANISO, 0.5)
    np.testing.assert_allclose(pf.covariance, np.diag([1.0, 0.0]))
    assert pf.eigenvalues()[0] == pytest.approx(0.0, abs=1e-15)


def test_push_continuous_raises_past_singularity():
    with pytest.raises(SingularityError) as err:
        push_continuous(ZERO2, ANISO, 0.5 + 1e-6)
    assert err.value.critical_time == pytest.approx(0.5)


def test_push_continuous_entropy_strictly_decreasing():
    values = []
    for t in (0.0, 0.1, 0.2, 0.3, 0.4):
        pf = push_continuous(ZERO2, ANISO, t)
        values.append(entropy(GaussianMixture.single(pf.mean, pf.covariance)).value)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_push_continuous_sigma_gradient_is_reciprocal():
    # d sigma_i / dt = -1 / sigma_i along the continuous flow
    dt = 1e-6
    for t in (0.05, 0.1, 0.15):
        sig = abstract_coordinates(push_continuous(ZERO2, ANISO, t)).sigma
        sig_p = abstract_coordinates(push_continuous(ZERO2, ANISO, t + dt)).sigma
        sig_m = abstract_coordinates(push_continuous(ZERO2, ANISO, t - dt)).sigma
        fd = (sig_p - sig_m) / (2.0 * dt)
        np.testing.assert_allclose(fd, -1.0 / sig, rtol=1e-6)


# -- one-shot pushforward ----------------------------------------------------------


def test_push_one_shot_unit_variance_quarter():
    pf = push_one_shot([0.0], [[1.0]], 1.0)
    assert pf.covariance[0, 0] == pytest.approx(0.25, rel=1e-12)


def test_push_one_shot_identity_at_zero():
    pf = push_one_shot(ZERO2, ANISO, 0.0)
    np.testing.assert_array_equal(pf.covariance, ANISO)


def test_push_one_shot_variance_strictly_decreasing():
    values = [push_one_shot([0.0], [[1.0]], t).covariance[0, 0] for t in (0.0, 0.25, 0.5, 1.0, 2.0)]
    assert values[2] == pytest.approx(1.0 / 1.5**2, rel=1e-12)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_push_one_shot_spd_up_to_large_times():
    for t in (0.5, 1.0, 10.0, 100.0, 1000.0):
        pf = push_one_shot(ZERO2, ANISO, t)
        assert np.linalg.eigvalsh(pf.covariance)[0] > 0.0


def test_pushforwards_agree_to_first_order_at_small_t():
    diffs = []
    for t in (1e-3, 1e-4):
        v_cont = push_continuous([0.0], [[1.0]], t).covariance[0, 0]
        v_shot = push_one_shot([0.0], [[1.0]], t).covariance[0, 0]
        diffs.append(abs(v_cont - v_shot))
        assert diffs[-1] < 4.0 * t * t  # both are 1 - 2t + O(t^2)
    assert diffs[1] < diffs[0] / 50.0  # quadratic shrinkage


def test_monte_carlo_pushforward_matches_closed_form():
    n = 100_000
    mix = GaussianMixture.single(ZERO2, ANISO)
    pushed = AnalyticGaussian(ZERO2, ANISO, 1.0).apply(sample(mix, n, 13).points)
    emp_cov = np.cov(pushed.T, ddof=1)
    expect = push_one_shot(ZERO2, ANISO, 1.0).covariance
    se = np.sqrt((np.outer(np.diag(expect), np.diag(expect)) + expect**2) / n)
    assert np.all(np.abs(emp_cov - expect) < 5.0 * se)


# -- empirical moments --------------------------------------------------------------


def test_empirical_moments_hand_values():
    ens = ParticleEnsemble(np.array([[0.0], [2.0]]), seed=0)
    mean, cov = empirical_moments(ens)
    assert mean[0] == pytest.approx(1.0)
    assert cov[0, 0] == pytest.approx(2.0)


def test_empirical_moments_identical_points():
    ens = ParticleEnsemble(np.ones((5, 2)), seed=0)
    _, cov = empirical_moments(ens)
    np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=1e-15)


def test_empirical_moments_need_two_points():
    with pytest.raises(ContractError):
        empirical_moments(ParticleEnsemble(np.ones((1, 2)), seed=0))


# -- abstract coordinates -------------------------------------------------------------


def test_abstract_coordinates_definition():
    pf = GaussianPushforward(ZERO2, ANISO, "continuous", 0.0)
    pt = abstract_coordinates(pf)
    np.testing.assert_allclose(pt.sigma, [math.sqrt(2.0), 1.0])


def test_abstract_coordinates_of_continuous_push():
    pt = abstract_coordinates(push_continuous(ZERO2, ANISO, 0.25))
    np.testing.assert_allclose(pt.sigma, [math.sqrt(1.5), math.sqrt(0.5)])


def test_abstract_coordinates_of_one_shot_push():
    pt = abstract_coordinates(push_one_shot(ZERO2, np.eye(2), 1.0))
    np.testing.assert_allclose(pt.sigma, [0.5, 0.5], rtol=1e-12)


def test_abstract_coordinates_reject_correlation():
    cov = np.array([[1.0, 0.2], [0.2, 1.0]])
    pf = GaussianPushforward(ZERO2, cov, "one_shot", 0.0)
    with pytest.raises(DomainError):
        abstract_coordinates(pf)


# -- Wasserstein distance in the chart --------------------------------------------------


def test_w2_zero_for_identical_points():
    a = AbstractPoint(np.array([1.0, 1.0]))
    assert w2_distance(a, a) == 0.0


def test_w2_value():
    a = AbstractPoint(np.array([math.sqrt(2.0), 1.0]))
    b = AbstractPoint(np.array([1.0, 1.0]))
    assert w2_distance(a, b) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
    assert w2_distance(a, b) == pytest.approx(0.41421, abs=1e-5)


def test_w2_dimension_mismatch():
    with pytest.raises(ContractError):
        w2_distance(AbstractPoint(np.ones(2)), AbstractPoint(np.ones(3)))


def test_w2_triangle_inequality_100_triples():
    rng = np.random.default_rng(44)
    for _ in range(100):
        a, b, c = (AbstractPoint(rng.uniform(0.0, 3.0, size=2)) for _ in range(3))
        assert w2_distance(a, c) <= w2_distance(a, b) + w2_distance(b, c) + 1e-12


# -- time reversal of the continuous pushforward ------------------------------------------


def test_smoothing_reverses_continuous_push_exactly():
    for t in (0.1, 0.2, 0.4):
        pf = push_continuous(ZERO2, ANISO, t)
        recovered = smooth(GaussianMixture.single(pf.mean, pf.covariance), 2.0 * t)
        assert np.max(np.abs(recovered.covs[0] - ANISO)) < 1e-12


def test_pushforward_invariants_reject_negative_eigenvalues():
    with pytest.raises(ContractError):
        GaussianPushforward(ZERO2, np.diag([1.0, -0.5]), "continuous", 0.1)


@pytest.mark.parametrize(
    "mean, cov",
    [([0.0], [[math.nan]]), ([0.0], [[math.inf]]), ([math.nan], [[1.0]])],
    ids=["nan_cov", "inf_cov", "nan_mean"],
)
def test_pushforward_rejects_nonfinite_mean_and_covariance(mean, cov):
    with pytest.raises(ContractError):
        GaussianPushforward(mean, cov, "continuous", 0.1)


def test_push_decomposes_once_and_eigenvalues_reuse_it(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh", "slogdet"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for push in (push_continuous, push_one_shot):
        del calls[:]
        pf = push(ZERO2, ANISO, 0.25)
        assert len(calls) == 1, push.__name__
        pf.eigenvalues()
        assert len(calls) == 1, push.__name__

