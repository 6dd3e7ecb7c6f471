"""Closed-form single-Gaussian pushforwards through the one public route, ``Gaussian``.

``pushforward.py`` and ``transport.AnalyticGaussian`` remain as unexported
shims; the last test pins them to this route bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dae_transport import (
    ContractError,
    DomainError,
    Gaussian,
    GaussianMixture,
    SingularityError,
    sample,
    smooth,
)
from dae_transport.cli import _chart_sigma
from dae_transport.measures import _dae_factor, _moments, _one_shot_evals

ANISO = np.diag([2.0, 1.0])
ZERO2 = np.zeros(2)
G = Gaussian.from_cov(ANISO, ZERO2)
STD1 = Gaussian.from_cov([[1.0]], [0.0])


# -- continuous pushforward -----------------------------------------------------


def test_continuous_value():
    np.testing.assert_allclose(G.continuous(0.25).cov, np.diag([1.5, 0.5]))


def test_continuous_identity_at_zero():
    np.testing.assert_array_equal(G.continuous(0.0).cov, ANISO)


def test_continuous_boundary_is_closed_and_reports_zero_eigenvalue():
    G.check_horizon(0.5, "continuous pushforward", closed=True)  # the boundary itself is admitted
    pf = G.continuous(0.5)
    np.testing.assert_allclose(pf.cov, np.diag([1.0, 0.0]))
    assert pf.evals[0] == pytest.approx(0.0, abs=1e-15)


def test_continuous_horizon_raises_past_singularity():
    with pytest.raises(SingularityError) as err:
        G.check_horizon(0.5 + 1e-6, "continuous pushforward", closed=True)
    assert err.value.critical_time == pytest.approx(0.5)
    with pytest.raises(SingularityError):  # the open rule of the flows already rejects the boundary
        G.check_horizon(0.5, "continuous flow")


def test_continuous_entropy_strictly_decreasing():
    values = [G.continuous(t).entropy() for t in (0.0, 0.1, 0.2, 0.3, 0.4)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_continuous_sigma_gradient_is_reciprocal():
    # d sigma_i / dt = -1 / sigma_i along the continuous flow
    dt = 1e-6
    for t in (0.05, 0.1, 0.15):
        sig, sig_p, sig_m = (_chart_sigma(G.continuous(s).cov) for s in (t, t + dt, t - dt))
        fd = (sig_p - sig_m) / (2.0 * dt)
        np.testing.assert_allclose(fd, -1.0 / sig, rtol=1e-6)


# -- one-shot pushforward ----------------------------------------------------------


def test_one_shot_unit_variance_quarter():
    assert STD1.one_shot(1.0).cov[0, 0] == pytest.approx(0.25, rel=1e-12)


def test_one_shot_identity_at_zero():
    np.testing.assert_array_equal(G.one_shot(0.0).cov, ANISO)


def test_one_shot_variance_strictly_decreasing():
    values = [STD1.one_shot(t).cov[0, 0] for t in (0.0, 0.25, 0.5, 1.0, 2.0)]
    assert values[2] == pytest.approx(1.0 / 1.5**2, rel=1e-12)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_one_shot_spd_up_to_large_times():
    for t in (0.5, 1.0, 10.0, 100.0, 1000.0):
        pf = G.one_shot(t)
        assert np.linalg.eigvalsh(pf.cov)[0] > 0.0 and pf.evals[0] > 0.0


def test_one_shot_stays_finite_at_huge_eigenvalues_and_times():
    # neither a huge eigenvalue nor a huge t may overflow the one-shot eigenvalue map
    huge = Gaussian.from_cov([[1e200]]).one_shot(1.0)
    assert math.isfinite(huge.evals[0]) and huge.evals[0] == pytest.approx(1e200, rel=1e-12)
    assert huge.entropy() == pytest.approx(Gaussian.from_cov([[1e200]]).entropy(), rel=1e-12)
    assert STD1.one_shot(1e308).evals[0] == 0.0  # the suite raises every RuntimeWarning


@pytest.mark.parametrize("cov", [[[1.0]], ANISO, [[2.0, 0.4], [0.4, 1.0]], np.diag([3.0, 1.0, 0.5, 1e-3, 7.0])])
def test_composed_rows_equal_repeated_one_shot(cov):
    g = Gaussian.from_cov(cov)
    taus = (0.05, 0.3, 1.0, 2.5, 1e200, 0.7)  # the 1e200 layer underflows every eigenvalue to 0
    path = g.composed(taus)
    assert path.shape == (len(taus) + 1, g.dim) and path.flags.c_contiguous
    assert np.array_equal(path[0], g.evals)
    h, lam = g, g.evals
    for tau, row in zip(taus, path[1:]):
        h, lam = h.one_shot(tau), lam * (lam / (lam + tau)) ** 2
        assert np.array_equal(row, h.evals) and np.array_equal(row, lam)
    assert np.all(path[-2:] == 0.0)


def _seeded_path_case(seed: int, layers: int, m: int) -> tuple[Gaussian, np.ndarray]:
    """A random m-dimensional Gaussian and ``layers`` taus: zeros and tiny taus first, while every eigenvalue is still
    positive, then taus log-uniform from 1e-300 to 1e300, which drive eigenvalues through subnormals to 0."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((m, m)))[0]
    g = Gaussian.from_cov((basis * 10.0 ** rng.uniform(-2, 2, m)) @ basis.T)
    taus = 10.0 ** rng.uniform(-300, 300, layers)
    head = layers // 3
    taus[:head] = np.where(rng.random(head) < 0.5, 0.0, 10.0 ** rng.uniform(-300, -200, head))
    return g, taus


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("layers", [0, 1, 2, 2000])
def test_composed_equals_the_accumulated_one_shot_map_bit_for_bit(layers, m):
    # the float loop against the per-layer calls it replaces: ``_one_shot_evals``, and the map through ``_dae_factor``
    def by_factor(lam, tau):
        q = _dae_factor(lam, tau)
        return lam * (q * q)

    for seed in range(3):
        g, taus = _seeded_path_case(seed, layers, m)
        path = g.composed(taus)
        assert path.shape == (layers + 1, m) and path.dtype == np.float64 and path.flags.c_contiguous
        for step in (_one_shot_evals, by_factor):
            reference = [list(itertools.accumulate(taus.tolist(), step, initial=lam)) for lam in g.evals.tolist()]
            assert path.tobytes() == np.array(reference).T.copy().tobytes()


def test_composed_path_through_subnormals_to_zero_is_bit_for_bit():
    # 1 -> about 1e-206 -> a subnormal 1e-310, whose halves lose bits -> still subnormal -> 0 (underflow) -> 0
    taus = [1e103, 1e-154, 1e-320, 1e-300, 0.5]
    path = STD1.composed(taus)[:, 0].tolist()
    assert all(0.0 < v < 2.2250738585072014e-308 for v in path[2:4]) and path[4:] == [0.0, 0.0]
    assert path == list(itertools.accumulate(taus, _one_shot_evals, initial=1.0))
    g, taus = _seeded_path_case(0, 2000, 5)
    tiny = g.composed(taus)
    assert np.any((tiny > 0.0) & (tiny < 2.2250738585072014e-308)) and np.any(tiny[-1] == 0.0)


def test_a_zero_layer_keeps_an_eigenvalue_of_zero():
    # 0.5 * 0 / (0.5 * 0 + 0) is 0/0; half of 5e-324 underflows to 0, so that layer is a zero layer too
    assert STD1.composed([1e300, 0.0]).tolist() == [[1.0], [0.0], [0.0]]
    assert STD1.one_shot(1e300).composed([0.0]).tolist() == [[0.0], [0.0]]
    assert STD1.one_shot(1e300).one_shot(5e-324).evals.tolist() == [0.0]


def test_a_zero_eigenvalue_maps_its_axis_to_the_mean_at_every_positive_time():
    # _dae_factor(0, t) is 0 where half of t underflows too (no 0/0); the suite raises every RuntimeWarning
    assert STD1.one_shot(1e300).denoise([1.0], 5e-324) == 0.0 == STD1.one_shot(1e300).denoise([1.0], 1e-300)
    assert _dae_factor(0.0, 5e-324) == 0.0 and _dae_factor(np.zeros(2), np.array([5e-324, 1e300])).tolist() == [0, 0]
    # the zero eigenvalue on the second axis, 2 on the first; x - mean and each factor are exact here
    mean, x = np.array([0.5, -1.0]), np.array([[3.0, 7.0], [-2.0, 0.25]])
    g = Gaussian(mean, np.array([0.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    times = [5e-324, 1e-320, 1e-300, 1.0, 1e300]
    for t in times:
        assert np.all(g.denoise(x, t)[:, 1] == mean[1]), t
    # at t = 0 the map is the identity, and half of 5e-324 underflows, so the positive axis is unchanged
    assert g.denoise(x, 0.0).tolist() == x.tolist()
    assert g.denoise(x, 5e-324).tolist() == [[3.0, -1.0], [-2.0, -1.0]]
    states, path = g._orbit(x, times)
    assert np.all(path[:, 0] == 0.0) and all(np.array_equal(s, g.denoise(x, t)) for s, t in zip(states, times))
    states, path = g._flow(x, np.array(times))
    assert np.all(path[:, 0] == 0.0) and np.all(states[:, :, 1] == mean[1])


EXTREME_LAYERS = st.lists(st.sampled_from([0.0, 5e-324, 1e-320, 1e-300, 1.0, 1e300]), max_size=8)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(lam=st.sampled_from([1e-300, 1.0, 1e300]), taus=EXTREME_LAYERS, split=st.integers(0, 8))
def test_chains_of_one_shot_and_composed_equal_repeated_one_shot(lam, taus, split):
    # the first ``split`` layers as one_shot calls, the rest as one composed path; the suite raises every RuntimeWarning
    laws = list(itertools.accumulate(taus, Gaussian.one_shot, initial=Gaussian.from_cov([[lam]])))
    reference = np.array([law.evals for law in laws])
    split = min(split, len(taus))
    rows = laws[split].composed(taus[split:])
    assert np.all(np.isfinite(rows)) and np.all(rows >= 0.0)
    assert rows.tobytes() == reference[split:].tobytes()


@pytest.mark.parametrize("taus", [[-1.0], [math.nan], [0.1, math.inf], [0.1, 0.2, -1e-300]])
def test_composed_rejects_a_negative_or_nonfinite_tau(taus):
    with pytest.raises(Exception, match="layer variance must be finite and nonnegative") as err:
        G.composed(taus)
    assert type(err.value) is ContractError


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_eigenvalue_maps_reject_a_nonfinite_time(t):
    for push in (G.one_shot, G.continuous):
        with pytest.raises(Exception, match="time must be finite") as err:
            push(t)
        assert type(err.value) is ContractError
    # finite-difference stencils may still step below 0, and a zero layer leaves the eigenvalues
    assert np.all(G.one_shot(-1e-6).evals > G.evals)
    assert G.continuous(-1e-6).evals.tolist() == (G.evals + 2e-6).tolist()
    assert G.composed([0.0]).tolist() == [G.evals.tolist()] * 2


def test_pushforwards_agree_to_first_order_at_small_t():
    diffs = []
    for t in (1e-3, 1e-4):
        diffs.append(abs(STD1.continuous(t).cov[0, 0] - STD1.one_shot(t).cov[0, 0]))
        assert diffs[-1] < 4.0 * t * t  # both are 1 - 2t + O(t^2)
    assert diffs[1] < diffs[0] / 50.0  # quadratic shrinkage


def test_monte_carlo_pushforward_matches_closed_form():
    n = 100_000
    mix = GaussianMixture.single(ZERO2, ANISO)
    pushed = G.denoise(sample(mix, n, 13).points, 1.0)
    emp_cov = np.cov(pushed.T, ddof=1)
    expect = G.one_shot(1.0).cov
    se = np.sqrt((np.outer(np.diag(expect), np.diag(expect)) + expect**2) / n)
    assert np.all(np.abs(emp_cov - expect) < 5.0 * se)


# -- empirical moments (the per-layer moments of flow diagnostics) ------------------


def test_empirical_moments_hand_values():
    mean, cov = _moments(np.array([[0.0], [2.0]]))
    assert mean[0] == pytest.approx(1.0)
    assert cov[0, 0] == pytest.approx(2.0)


def test_empirical_moments_identical_points():
    _, cov = _moments(np.ones((5, 2)))
    np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=1e-15)


# -- abstract coordinates: the CLI's (sigma1, sigma2) chart ----------------------------


def test_abstract_coordinates_definition():
    np.testing.assert_allclose(_chart_sigma(ANISO), [math.sqrt(2.0), 1.0])


def test_abstract_coordinates_of_continuous_push():
    sigma = _chart_sigma(G.continuous(0.25).cov)
    np.testing.assert_allclose(sigma, [math.sqrt(1.5), math.sqrt(0.5)])


def test_abstract_coordinates_of_one_shot_push():
    sigma = _chart_sigma(Gaussian.from_cov(np.eye(2)).one_shot(1.0).cov)
    np.testing.assert_allclose(sigma, [0.5, 0.5], rtol=1e-12)


def test_abstract_coordinates_reject_correlation():
    cov = Gaussian.from_cov(np.array([[1.0, 0.2], [0.2, 1.0]])).cov
    with pytest.raises(DomainError):
        _chart_sigma(cov)


# -- Wasserstein distance: Gaussian.w2 on diagonal Gaussians is Euclidean in the chart ---


def diagonal(sigma) -> Gaussian:
    return Gaussian.from_cov(np.diag(np.square(sigma)))


def chart_distance(a: Gaussian, b: Gaussian) -> float:
    return float(np.linalg.norm(_chart_sigma(a.cov) - _chart_sigma(b.cov)))


def test_w2_zero_for_identical_points():
    a = diagonal([1.0, 1.0])
    assert a.w2(a) == 0.0
    assert a.w2(diagonal([1.0, 1.0])) == 0.0


def test_w2_value():
    a, b = diagonal([math.sqrt(2.0), 1.0]), diagonal([1.0, 1.0])
    assert a.w2(b) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
    assert a.w2(b) == pytest.approx(0.41421, abs=1e-5)
    assert a.w2(b) == pytest.approx(chart_distance(a, b), rel=1e-12)


def test_w2_dimension_mismatch():
    with pytest.raises(ContractError):
        diagonal(np.ones(2)).w2(diagonal(np.ones(3)))


def test_w2_takes_the_singular_boundary_and_rejects_past_it():
    g = Gaussian.from_cov(ANISO)
    boundary = g.continuous(0.5)
    assert boundary.w2(boundary) == pytest.approx(0.0, abs=1e-15)
    assert boundary.w2(g) == pytest.approx(math.hypot(math.sqrt(2.0) - 1.0, 1.0), rel=1e-12)
    for past in (g.continuous(0.5 + 1e-6), g.continuous(2.0)):
        with pytest.raises(ContractError, match="positive semidefinite"):
            past.w2(g)
        with pytest.raises(ContractError, match="positive semidefinite"):
            g.w2(past)


def test_w2_triangle_inequality_100_triples():
    rng = np.random.default_rng(44)
    for _ in range(100):
        a, b, c = (diagonal(rng.uniform(0.0, 3.0, size=2)) for _ in range(3))
        assert a.w2(c) <= a.w2(b) + b.w2(c) + 1e-12
        assert a.w2(b) == pytest.approx(chart_distance(a, b), rel=1e-12, abs=1e-15)


def rotated(rng: np.random.Generator, dim: int) -> Gaussian:
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cov = (q * rng.uniform(0.2, 3.0, size=dim)) @ q.T
    return Gaussian.from_cov(0.5 * (cov + cov.T), rng.uniform(-2.0, 2.0, size=dim))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_w2_matches_scipy_bures_formula_on_rotated_covariances(dim):
    from scipy.linalg import sqrtm

    rng = np.random.default_rng(dim)
    for _ in range(20):
        a, b = rotated(rng, dim), rotated(rng, dim)
        root = sqrtm(a.cov)
        cross = np.real(np.trace(sqrtm(root @ b.cov @ root)))
        d = a.mean - b.mean
        expect = math.sqrt(d @ d + np.trace(a.cov) + np.trace(b.cov) - 2.0 * cross)
        assert abs(a.w2(b) - expect) < 1e-12
        assert abs(b.w2(a) - expect) < 1e-12


# -- time reversal of the continuous pushforward ------------------------------------------


def test_smoothing_reverses_continuous_push_exactly():
    for t in (0.1, 0.2, 0.4):
        pf = G.continuous(t)
        recovered = smooth(GaussianMixture.single(pf.mean, pf.cov), 2.0 * t)
        assert np.max(np.abs(recovered.covs[0] - ANISO)) < 1e-12


def test_gaussian_rejects_negative_eigenvalues():
    with pytest.raises(ContractError):
        Gaussian.from_cov(np.diag([1.0, -0.5]), ZERO2)


@pytest.mark.parametrize(
    "mean, cov",
    [([0.0], [[math.nan]]), ([0.0], [[math.inf]]), ([math.nan], [[1.0]])],
    ids=["nan_cov", "inf_cov", "nan_mean"],
)
def test_gaussian_rejects_nonfinite_mean_and_covariance(mean, cov):
    with pytest.raises(ContractError, match="finite"):
        Gaussian.from_cov(cov, mean)


def test_push_decomposes_once_and_eigenvalues_reuse_it(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh", "slogdet"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for push in ("continuous", "one_shot"):
        del calls[:]
        pf = getattr(Gaussian.from_cov(ANISO, ZERO2), push)(0.25)
        assert len(calls) == 1, push
        pf.evals, pf.cov, pf.entropy()
        assert len(calls) == 1, push


# -- the unexported shims the benchmark's tracer still names ------------------------------


def test_tracer_shims_equal_their_gaussian_routes_bit_for_bit():
    from dae_transport.pushforward import one_shot_covariance, push_continuous, push_one_shot
    from dae_transport.transport import AnalyticGaussian

    mean, cov = [0.3, -0.2], [[2.0, 0.4], [0.4, 1.0]]
    g = Gaussian.from_cov(cov, mean)
    pts = np.random.default_rng(3).standard_normal((7, 2))

    def same(a: Gaussian, b: Gaussian) -> bool:
        return all(np.array_equal(x, y) for x, y in ((a.mean, b.mean), (a.evals, b.evals), (a.evecs, b.evecs)))

    for t in (0.0, 0.2, g.critical_time):  # the boundary is closed
        assert same(push_continuous(mean, cov, t), g.continuous(t))
    for t in (0.0, 0.3, 1e308):
        assert same(push_one_shot(mean, cov, t), g.one_shot(t))
        assert np.array_equal(one_shot_covariance(cov, t), Gaussian.from_cov(cov).one_shot(t).cov)
    for t in (0.0, 0.3):
        m = AnalyticGaussian(mean, cov, t)
        assert np.array_equal(m.apply(pts), g.denoise(pts, t))
        assert np.array_equal(m.apply(pts[0]), g.denoise(pts[0], t))
    with pytest.raises(SingularityError):
        push_continuous(mean, cov, g.critical_time + 1e-6)
    for shim in (lambda t: push_one_shot(mean, cov, t), lambda t: AnalyticGaussian(mean, cov, t)):
        with pytest.raises(ContractError):
            shim(math.nan)
