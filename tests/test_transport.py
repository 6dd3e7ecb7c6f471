from __future__ import annotations

import csv
import json
import math
import os
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from dae_transport import (
    ContractError,
    DomainError,
    EmpiricalKernel,
    FlowSchedule,
    Gaussian,
    GaussianMixture,
    MixtureExact,
    ParticleEnsemble,
    SingularityError,
    Trajectory,
    check_backward_heat,
    check_entropy_monotone,
    check_time_reversal,
    check_variational_minimizer,
    compose,
    continuous_flow,
    convolve,
    density,
    density_gradient,
    entropy,
    kde_log_density,
    laplacian_density,
    log_density,
    one_shot_orbit,
    probe_lattice,
    renyi_entropy,
    sample,
    score,
    silverman_covariance,
    smooth,
    stein_residual,
)
from dae_transport.measures import _dae_factor, _moments
from dae_transport.svg import write_csv, write_json

ANISO_COV = np.diag([2.0, 1.0])
ANISO_G = Gaussian.from_cov(ANISO_COV)


def aniso() -> GaussianMixture:
    return GaussianMixture.single([0.0, 0.0], ANISO_COV)


# -- one-shot maps -----------------------------------------------------------------


def test_gaussian_denoise_isotropic_halves_points():
    x = np.array([3.0, -2.0])
    np.testing.assert_allclose(Gaussian.from_cov(np.eye(2)).denoise(x, 1.0), x / 2.0, rtol=1e-14)


def test_gaussian_denoise_fixes_mean():
    mean = np.array([1.5, -2.5])
    np.testing.assert_allclose(Gaussian.from_cov(ANISO_COV, mean).denoise(mean, 0.7), mean, rtol=1e-12)


def test_mixture_exact_matches_analytic_one_dim():
    t = 0.8
    std = GaussianMixture.standard(1)
    exact = MixtureExact(std, t)
    x = np.array([1.7])
    np.testing.assert_allclose(exact.apply(x), x / (1.0 + t), rtol=1e-12)
    np.testing.assert_allclose(exact.apply(x), Gaussian.from_cov([[1.0]]).denoise(x, t), atol=1e-12)


def test_backend_agreement_200_points():
    t = 0.7
    mean = np.array([0.5, -0.25])
    exact = MixtureExact(GaussianMixture.single(mean, ANISO_COV), t)
    pts = np.random.default_rng(5).normal(size=(200, 2)) * 2.0
    np.testing.assert_allclose(exact.apply(pts), Gaussian.from_cov(ANISO_COV, mean).denoise(pts, t), atol=1e-9)


def test_maps_are_identity_at_time_zero():
    pts = np.random.default_rng(1).normal(size=(10, 2))
    np.testing.assert_array_equal(MixtureExact(aniso(), 0.0).apply(pts), pts)
    np.testing.assert_array_equal(ANISO_G.denoise(pts, 0.0), pts)


def test_empirical_kernel_single_point_posterior():
    data = ParticleEnsemble(np.array([[2.0, -1.0]]), seed=0)
    m = EmpiricalKernel(data, 0.5)
    out = m.apply(np.array([[5.0, 5.0], [-3.0, 0.0]]))
    np.testing.assert_allclose(out, np.array([[2.0, -1.0], [2.0, -1.0]]), rtol=1e-12)


def test_empirical_kernel_rejects_time_zero():
    data = ParticleEnsemble(np.zeros((3, 1)), seed=0)
    with pytest.raises(DomainError):
        EmpiricalKernel(data, 0.0).apply([0.0])


def test_empirical_kernel_flags_weight_underflow():
    data = ParticleEnsemble(np.zeros((5, 1)), seed=0)
    with pytest.raises(DomainError):
        EmpiricalKernel(data, 1e-4).apply([100.0])


def test_empirical_kernel_converges_with_sample_size():
    # monotone within MC noise: average the sup error over a fixed seed panel
    t = 0.5
    std = GaussianMixture.standard(1)
    exact = MixtureExact(std, t)
    grid = np.linspace(-1.5, 1.5, 31)[:, None]
    target = exact.apply(grid)
    mean_errs = []
    for n in (100, 1000, 10_000):
        errs = []
        for seed in range(5):
            base = sample(std, n, seed).points
            fitted = EmpiricalKernel(ParticleEnsemble(base, seed=seed), t).apply(grid)
            errs.append(float(np.max(np.abs(fitted - target))))
        mean_errs.append(float(np.mean(errs)))
    assert mean_errs[2] < mean_errs[1] < mean_errs[0]


def test_map_apply_value_and_dimension_check():
    g = Gaussian.from_cov(np.eye(2))
    np.testing.assert_allclose(g.denoise([2.0, 2.0], 1.0), [1.0, 1.0])
    with pytest.raises(ContractError):
        g.denoise([1.0], 1.0)


# -- denoising shift -----------------------------------------------------------------


def test_shift_vanishes_at_time_zero():
    pts = np.array([[1.0, 2.0]])
    np.testing.assert_array_equal(MixtureExact(aniso(), 0.0).apply(pts) - pts, np.zeros((1, 2)))
    np.testing.assert_array_equal(ANISO_G.denoise(pts, 0.0) - pts, np.zeros((1, 2)))


def test_shift_standard_normal_value():
    m = MixtureExact(GaussianMixture.standard(1), 1.0)
    np.testing.assert_allclose(m.apply([2.0]) - 2.0, [-1.0], rtol=1e-12)


def test_shift_equals_scaled_smoothed_score():
    mix = GaussianMixture.from_components([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[0.5]])])
    t = 0.6
    m = MixtureExact(mix, t)
    pts = np.linspace(-2, 2, 9)[:, None]
    np.testing.assert_allclose(
        m.apply(pts) - pts, t * score(smooth(mix, t), pts), atol=1e-10
    )


def test_shift_over_t_approaches_score():
    mix = GaussianMixture.from_components([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[0.5]])])
    t = 1e-4
    pts = np.linspace(-2, 2, 9)[:, None]
    ratio = (MixtureExact(mix, t).apply(pts) - pts) / t
    np.testing.assert_allclose(ratio, score(mix, pts), atol=1e-3)


# -- closed-form continuous map ---------------------------------------------------------


def test_continuous_map_value():
    out = ANISO_G.continuous_map([1.0, 1.0], 0.25)
    np.testing.assert_allclose(out, [math.sqrt(0.75), math.sqrt(0.5)], rtol=1e-12)
    assert out == pytest.approx([0.86603, 0.70711], abs=1e-5)


def test_continuous_map_identity_at_zero():
    x = np.array([1.0, -2.0])
    np.testing.assert_array_equal(ANISO_G.continuous_map(x, 0.0), x)


def test_continuous_map_singular_at_half_min_eigenvalue():
    with pytest.raises(SingularityError) as err:
        ANISO_G.continuous_map([1.0, 1.0], 0.5)
    assert err.value.critical_time == pytest.approx(0.5)


# -- schedules -------------------------------------------------------------------------


def test_schedule_cumulative_times():
    s = FlowSchedule((0.1, 0.2, 0.3))
    np.testing.assert_allclose(s.times, (0.1, 0.30000000000000004, 0.6))


def test_schedule_uniform():
    s = FlowSchedule.uniform(0.4, 8)
    assert len(s) == 8
    assert all(t == 0.05 for t in s.taus)


def test_uniform_schedule_records_one_time_grid():
    # the times are t_end * (i + 1) / steps, the grid the CLI reads, not the running sum of t_end / steps
    s = FlowSchedule.uniform(0.45, 90)
    assert s.times == tuple(0.45 * (i + 1) / 90 for i in range(90))
    assert s.times[-1] == 0.45 and FlowSchedule(s.taus).times[-1] == 0.4500000000000003
    ens = ParticleEnsemble(np.zeros((1, 1)), 0)
    assert continuous_flow(GaussianMixture.single([0.0], [[2.0]]), 0.45, 90, ens).times[-1] == 0.45
    # the horizon is checked at the last recorded time, here one ulp past t_end and exactly the critical time
    last = FlowSchedule.uniform(0.1, 3).times[-1]
    assert last == 0.10000000000000002
    with pytest.raises(SingularityError) as info:
        continuous_flow(GaussianMixture.single([0.0], [[2.0 * last]]), 0.1, 3, ens)
    assert info.value.critical_time == last
    with pytest.raises(ContractError, match="to inf"):
        FlowSchedule.uniform(1e308, 2)  # t_end * 2 / 2 overflows, although every layer's variance is finite


def test_uniform_schedule_is_the_constructed_one_on_the_time_grid():
    rng = np.random.default_rng(35)
    for t_end, steps in [(0.45, 2000), (1.0, 1), *zip(10.0 ** rng.uniform(-300, 300, 20), rng.integers(1, 500, 20))]:
        t_end, steps = float(t_end), int(steps)
        s = FlowSchedule.uniform(t_end, steps)
        assert s.taus == FlowSchedule((t_end / steps,) * steps).taus and type(s.taus) is tuple
        assert s.times == tuple(t_end * (i + 1) / steps for i in range(steps))
        assert all(type(v) is float for v in (*s.taus, *s.times))
    for args, message in [((1e308, 2), "cumulative times must strictly increase and stay finite: layer 1 variance "
                                       "5e+307 moves the time from 5e+307 to inf"),
                          ((5e-324, 3), "layer variance must be finite and positive, got 0.0")]:
        with pytest.raises(Exception) as err:
            FlowSchedule.uniform(*args)
        assert type(err.value) is ContractError and str(err.value) == message


def test_python_calls_per_flow_do_not_grow_with_layers():
    # aim 1: an analytic flow's per-layer work runs in loops and NumPy, so its Python calls are the same at any L
    package = os.path.dirname(continuous_flow.__code__.co_filename)
    mix, ens = aniso(), ParticleEnsemble(np.random.default_rng(4).standard_normal((64, 2)), seed=0)

    def calls(steps: int) -> int:
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call" and package in frame.f_code.co_filename
        continuous_flow(mix, 0.45, steps, ens)  # any first-call work happens before counting
        sys.setprofile(profile)
        try:
            continuous_flow(mix, 0.45, steps, ens)
        finally:
            sys.setprofile(None)
        return count

    assert calls(8) == calls(2000) > 0


def test_schedule_rejects_empty_and_nonpositive():
    with pytest.raises(ContractError):
        FlowSchedule(())
    with pytest.raises(ContractError):
        FlowSchedule((0.1, 0.0))


def test_uniform_schedule_needs_a_step():
    with pytest.raises(Exception) as err:
        FlowSchedule.uniform(1.0, 0)
    assert type(err.value) is ContractError and "steps must be >= 1" in str(err.value)


@pytest.mark.parametrize("steps", [math.nan, math.inf, 2.7])
def test_uniform_schedule_steps_must_be_a_whole_count(steps):
    with pytest.raises(Exception, match="steps must be >= 1 and whole") as err:
        FlowSchedule.uniform(1.0, steps)
    assert type(err.value) is ContractError


def test_uniform_schedule_takes_a_whole_float_as_its_step_count():
    whole, count = FlowSchedule.uniform(1.0, 3.0), FlowSchedule.uniform(1.0, 3)
    assert len(whole) == 3 and (whole.taus, whole.times) == (count.taus, count.times)


def test_schedule_rejects_a_layer_that_does_not_move_time():
    with pytest.raises(ContractError, match="layer 1 variance 1e-67"):
        FlowSchedule((0.05, 1e-67))
    with pytest.raises(ContractError, match="positive"):
        FlowSchedule.uniform(5e-324, 3)  # each layer underflows to 0


def test_schedule_rejects_a_cumulative_time_that_overflows():
    with pytest.raises(ContractError, match="layer 1 variance 1e\\+308 moves the time from 1e\\+308 to inf"):
        FlowSchedule((1e308, 1e308))


TIME_ENTRY_POINTS = {
    "FlowSchedule": lambda t: FlowSchedule((t,)),
    "FlowSchedule.uniform": lambda t: FlowSchedule.uniform(t, 3),
    "Gaussian.denoise": lambda t: Gaussian.from_cov([[1.0]]).denoise([0.5], t),
    "MixtureExact": lambda t: MixtureExact(GaussianMixture.standard(1), t),
    "check_time_reversal": lambda t: check_time_reversal(GaussianMixture.standard(1), t),
    "one_shot_orbit": lambda t: one_shot_orbit(GaussianMixture.standard(1), [t], ParticleEnsemble(np.zeros((1, 1)), 0)),
    "Gaussian.continuous_map": lambda t: Gaussian.from_cov([[1.0]]).continuous_map([0.5], t),
}


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("entry", sorted(TIME_ENTRY_POINTS))
def test_time_entry_points_reject_nonfinite_and_negative_times(entry, t):
    with pytest.raises(ContractError):
        TIME_ENTRY_POINTS[entry](t)


SEQUENCE_ENTRY_POINTS = {
    "FlowSchedule": lambda ts: FlowSchedule(ts).taus,
    "Gaussian.composed": lambda ts: Gaussian.from_cov([[1.0]]).composed(ts),
    "one_shot_orbit": lambda ts: one_shot_orbit(GaussianMixture.standard(1), ts, ParticleEnsemble([[0.7]], 0)).layers,
    "check_backward_heat": lambda ts: check_backward_heat(GaussianMixture.standard(1), ts).residuals,
}


@pytest.mark.parametrize("times", [0.1, [[0.1]], None, [math.nan], [-1.0]],
                         ids=["bare_number", "nested", "none", "nan", "negative"])
@pytest.mark.parametrize("entry", sorted(SEQUENCE_ENTRY_POINTS))
def test_sequence_time_entries_share_one_rule(entry, times):
    """A bare number is a one-element sequence of times; every other bad input is a ContractError."""
    run = SEQUENCE_ENTRY_POINTS[entry]
    if isinstance(times, float):
        np.testing.assert_array_equal(run(times), run([times]))
    else:
        with pytest.raises(ContractError):
            run(times)


def _trajectory_at(ts):
    traj = one_shot_orbit(GaussianMixture.standard(1), [0.1], ParticleEnsemble([[0.7]], 0))
    return Trajectory((0.0, *ts), traj.initial, traj.layers, traj.entropy, traj.renyi2).times


TYPED_ENTRY_POINTS = {**SEQUENCE_ENTRY_POINTS, "Trajectory": _trajectory_at}


@pytest.mark.parametrize("times", [["0.1"], ["abc"], [[0.1], [0.2, 0.3]], [10**400], [None]],
                         ids=["numeric_text", "text", "ragged", "huge_int", "none"])
@pytest.mark.parametrize("entry", sorted(TYPED_ENTRY_POINTS))
def test_sequence_time_entries_type_their_entries(entry, times):
    """An entry that is not one number is a ContractError naming it, not read as a float, NaN or NumPy's error."""
    message = "beyond float range" if times == [10**400] else f"must be one number, got {times[0]!r}"
    with pytest.raises(ContractError, match=re.escape(message)):
        TYPED_ENTRY_POINTS[entry](times)


@pytest.mark.parametrize("flow", [lambda mix, ens: compose(mix, FlowSchedule((0.1,)), ens),
                                  lambda mix, ens: continuous_flow(mix, 0.1, 1, ens),
                                  lambda mix, ens: one_shot_orbit(mix, [0.1], ens)],
                         ids=["compose", "continuous_flow", "one_shot_orbit"])
def test_flow_entries_name_both_dimensions_when_they_differ(flow):
    with pytest.raises(ContractError, match="^ensemble dimension 2 does not match measure dimension 1$"):
        flow(GaussianMixture.standard(1), ParticleEnsemble(np.zeros((12, 2)), 0))


SCALAR_ENTRIES = {  # where one number belongs: (the error a wrong type raises, the call)
    "MixtureExact_list": (ContractError, lambda: MixtureExact(GaussianMixture.standard(1), [0.1])),
    "MixtureExact_array": (ContractError, lambda: MixtureExact(GaussianMixture.standard(1), np.array([0.1]))),
    "FlowSchedule.uniform_time": (ContractError, lambda: FlowSchedule.uniform([1.0], 2)),
    "FlowSchedule.uniform_steps": (ContractError, lambda: FlowSchedule.uniform(1.0, [2])),
    "smooth": (ContractError, lambda: smooth(GaussianMixture.standard(1), None)),
    "Gaussian.one_shot": (ContractError, lambda: Gaussian.from_cov([[1.0]]).one_shot("ab")),
    "Gaussian.denoise": (ContractError, lambda: Gaussian.from_cov([[1.0]]).denoise([0.5], [0.1])),
    "EmpiricalKernel": (ContractError, lambda: EmpiricalKernel(ParticleEnsemble(np.zeros((3, 1)), 0), None)),
    "sample": (ContractError, lambda: sample(GaussianMixture.standard(1), "x", 0)),
    "check_time_reversal": (ContractError, lambda: check_time_reversal(GaussianMixture.standard(1), None)),
    "check_variational_minimizer": (DomainError,
                                    lambda: check_variational_minimizer(GaussianMixture.standard(1), [0.5])),
    "renyi_entropy": (DomainError, lambda: renyi_entropy(GaussianMixture.standard(1), "a")),
}


@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRIES))
def test_a_list_none_text_or_array_where_one_number_belongs_is_a_typed_error(entry):
    """Not float's TypeError or ValueError: a ContractError, or a DomainError for a check's parameter."""
    error, run = SCALAR_ENTRIES[entry]
    with pytest.raises(ValueError, match="must be one number") as info:
        run()
    assert type(info.value) is error


HUGE_INT_ENTRIES = {  # an int past the largest float where one number belongs: (the error it raises, the call)
    "FlowSchedule.uniform_steps": (ContractError, lambda: FlowSchedule.uniform(1.0, 10**400)),
    "FlowSchedule.uniform_time": (ContractError, lambda: FlowSchedule.uniform(10**400, 2)),
    "sample": (ContractError, lambda: sample(GaussianMixture.standard(1), 10**400, 0)),
    "stein_residual": (DomainError, lambda: stein_residual(10**400, [0.1])),
}


@pytest.mark.parametrize("entry", sorted(HUGE_INT_ENTRIES))
def test_an_int_beyond_float_range_where_one_number_belongs_is_a_typed_error_with_a_short_message(entry):
    """Not float's OverflowError, and not the int's 401 digits in the message."""
    error, run = HUGE_INT_ENTRIES[entry]
    with pytest.raises(ValueError, match="must be finite, got a number beyond float range") as info:
        run()
    assert type(info.value) is error and len(str(info.value)) < 80


POINT_ENTRY_POINTS = {
    "score": lambda x: score(aniso(), x),
    "log_density": lambda x: log_density(aniso(), x),
    "density": lambda x: density(aniso(), x),
    "density_gradient": lambda x: density_gradient(aniso(), x),
    "laplacian_density": lambda x: laplacian_density(aniso(), x),
    "MixtureExact": lambda x: MixtureExact(aniso(), 0.3).apply(x),
    "Gaussian.denoise": lambda x: ANISO_G.denoise(x, 0.3),
    "EmpiricalKernel": lambda x: EmpiricalKernel(probe_ensemble(), 0.3).apply(x),
    "Gaussian.continuous_map": lambda x: ANISO_G.continuous_map(x, 0.3),
    "stein_residual": lambda x: stein_residual(0.3, x),
    "kde_log_density_points": lambda x: kde_log_density(probe_lattice(3.0, 5, 2), ANISO_COV, x),
    "kde_log_density_data": lambda x: kde_log_density(x, ANISO_COV, [[0.0, 0.0]]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(POINT_ENTRY_POINTS))
def test_point_entry_points_reject_nonfinite_points(entry, bad):
    with pytest.raises(ContractError, match="finite"):
        POINT_ENTRY_POINTS[entry]([[0.0, 0.0], [bad, 1.0]])


PROBED_ENTRIES = {  # text and ragged points at every point entry, then each value a probe of the public API raised raw
    **{f"{entry}_text": lambda f=f: f("x") for entry, f in POINT_ENTRY_POINTS.items()},
    **{f"{entry}_ragged": lambda f=f: f([[0.0, 0.0], [1.0]]) for entry, f in POINT_ENTRY_POINTS.items()},
    "ParticleEnsemble_text": lambda: ParticleEnsemble("x", 0),
    "GaussianMixture_text_weights": lambda: GaussianMixture("x", [[0.0]], [[[1.0]]]),
    "Gaussian.from_cov_text": lambda: Gaussian.from_cov("x"),
    "convolve_ragged_kernel": lambda: convolve(aniso(), [[1.0, 0.0], [0.0]]),
    "silverman_covariance_one_axis": lambda: silverman_covariance([1.0, 2.0, 3.0]),
    "probe_lattice_text_extent": lambda: probe_lattice("3", 3, 2),
    "FlowSchedule.uniform_steps_past_the_index_range": lambda: FlowSchedule.uniform(0.3, 1e300),
    "sample_past_the_index_range": lambda: sample(aniso(), 1e300, 0),
    # NumPy reads a bool or numeric text inside a list as a number; an array is judged by its dtype
    "ParticleEnsemble_bool_entry": lambda: ParticleEnsemble([[True, 0.5]], 0),
    "ParticleEnsemble_bool_array": lambda: ParticleEnsemble(np.array([[True, False]]), 0),
    "ParticleEnsemble_numeric_text_entry": lambda: ParticleEnsemble([["0.5", 0.5]], 0),
    "GaussianMixture_bool_weight": lambda: GaussianMixture([True], [[0.0]], [[[1.0]]]),
    "GaussianMixture.from_components_bool_mean": lambda: GaussianMixture.from_components([(1.0, [True], [[1.0]])]),
}


@pytest.mark.parametrize("entry", sorted(PROBED_ENTRIES))
def test_probed_inputs_raise_a_contract_error_where_they_enter(entry):
    """Not NumPy's ValueError, a TypeError or an OverflowError: exactly the class from ``errors.py``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Exception) as info:
            PROBED_ENTRIES[entry]()
    assert type(info.value) is ContractError


def _two_mixture() -> GaussianMixture:
    return GaussianMixture.from_components(
        [(0.4, [-1.0, 0.5], [[1.0, 0.3], [0.3, 0.8]]), (0.6, [1.5, -0.5], [[0.6, -0.1], [-0.1, 1.2]])]
    )


ROTATED_COV = [[2.0, 0.4], [0.4, 1.0]]
# every function decorated with measures._pointwise, and whether one point gives a float
POINTWISE = {
    "log_density": (lambda x: log_density(_two_mixture(), x), True),
    "density": (lambda x: density(_two_mixture(), x), True),
    "laplacian_density": (lambda x: laplacian_density(_two_mixture(), x), True),
    "score": (lambda x: score(_two_mixture(), x), False),
    "density_gradient": (lambda x: density_gradient(_two_mixture(), x), False),
    "Gaussian.continuous_map": (lambda x: Gaussian.from_cov(ROTATED_COV, [0.3, -0.2]).continuous_map(x, 0.3), False),
    "MixtureExact.apply": (lambda x: MixtureExact(_two_mixture(), 0.3).apply(x), False),
    "Gaussian.denoise": (lambda x: Gaussian.from_cov(ROTATED_COV, [0.3, -0.2]).denoise(x, 0.3), False),
    "EmpiricalKernel.apply": (lambda x: EmpiricalKernel(sample(_two_mixture(), 200, 5), 0.5).apply(x), False),
}


@pytest.mark.parametrize("entry", sorted(POINTWISE))
def test_one_point_is_row_zero_of_its_batch(entry):
    f, scalar = POINTWISE[entry]
    pts = np.random.default_rng(7).standard_normal((6, 2))
    batch = f(pts)
    assert isinstance(batch, np.ndarray) and batch.shape == ((6,) if scalar else (6, 2))
    for i, x in enumerate(pts):
        one = f(x)
        if scalar:
            assert type(one) is float
        else:
            assert isinstance(one, np.ndarray) and one.shape == (2,)
        assert np.array_equal(one, f(x[np.newaxis])[0])  # bit for bit
        # a larger batch may round in the last bits: BLAS picks its kernel by shape
        np.testing.assert_allclose(one, batch[i], rtol=1e-12, atol=1e-15)
    empty = f(np.empty((0, 2)))  # an empty batch gives an empty result
    assert isinstance(empty, np.ndarray) and empty.shape == ((0,) if scalar else (0, 2))
    assert type(log_density(GaussianMixture.standard(1), 0.5)) is float  # a scalar is a point in one dimension


# -- composition ------------------------------------------------------------------------


def probe_ensemble() -> ParticleEnsemble:
    return ParticleEnsemble(probe_lattice(3.0, 9, 2), seed=0)


def test_single_layer_equals_one_map_application():
    ens = probe_ensemble()
    traj = compose(aniso(), FlowSchedule((0.3,)), ens, "analytic")
    expected = ANISO_G.denoise(ens.points, 0.3)
    np.testing.assert_array_equal(traj.states[-1].points, expected)
    assert traj.times == (0.0, 0.3)


LAYER_SHAPES = [(m, n) for m in (1, 2, 3, 5, 16, 32, 64) for n in (3, 7, 13, 40, 257)]


@pytest.mark.parametrize("m, n", LAYER_SHAPES, ids=[f"{m}" if n == 40 else f"{m}x{n}" for m, n in LAYER_SHAPES])
@pytest.mark.parametrize("tau", [0.05, 0.3, 2.0])
def test_one_analytic_layer_equals_denoise_bit_for_bit(m, n, tau):
    # a rotated covariance and an off-origin mean, so the layer and the map share one arithmetic, not just a value;
    # wide and odd shapes, where BLAS would round a row-form and a column-form product differently
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    cov, mean = a @ a.T + m * np.eye(m), rng.standard_normal(m)
    x = 2.0 * rng.standard_normal((n, m))
    traj = compose(GaussianMixture.single(mean, cov), FlowSchedule((tau,)), ParticleEnsemble(x, 0), "analytic")
    np.testing.assert_array_equal(traj.states[-1].points, Gaussian.from_cov(cov, mean).denoise(x, tau))


def test_dae_factor_equals_the_plain_ratio_where_the_sum_is_finite():
    rng = np.random.default_rng(5)
    lam, t = 10.0 ** rng.uniform(-300, 300, (2, 10_000))
    np.testing.assert_array_equal(_dae_factor(lam, t), lam / (lam + t))
    assert _dae_factor(3.0, 1.0) == 0.75


def test_dae_layer_has_no_overflow_at_the_largest_floats():
    import warnings

    g = Gaussian.from_cov([[1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g.one_shot(1e308).evals[0] == 2.5e307
        assert g.denoise([1e308], 1e308) == [5e307]
        traj = compose(g.as_mixture(), FlowSchedule((1e308,)), ParticleEnsemble(np.array([[1e308], [0.0]]), 0))
    assert np.array_equal(traj.states[-1].points, [[5e307], [0.0]])
    assert np.all(np.isfinite(traj.entropy[:, 0]))


def test_compose_halving_tau_roughly_halves_endpoint_error():
    ens = probe_ensemble()
    target = ANISO_G.continuous_map(ens.points, 0.4)
    errs = {}
    for tau in (0.05, 0.025):
        traj = compose(aniso(), FlowSchedule.uniform(0.4, round(0.4 / tau)), ens, "analytic")
        errs[tau] = float(np.max(np.abs(traj.states[-1].points - target)))
    ratio = errs[0.05] / errs[0.025]
    assert 1.6 <= ratio <= 2.4


def test_coarse_and_fine_schedules_differ():
    ens = probe_ensemble()
    fine = compose(aniso(), FlowSchedule.uniform(0.4, 8), ens, "analytic")
    coarse = compose(aniso(), FlowSchedule((0.4,)), ens, "analytic")
    target = ANISO_G.continuous_map(ens.points, 0.4)
    err_fine = np.max(np.abs(fine.states[-1].points - target))
    err_coarse = np.max(np.abs(coarse.states[-1].points - target))
    assert err_fine < err_coarse
    assert np.max(np.abs(fine.states[-1].points - coarse.states[-1].points)) > 0.01


def test_compose_empirical_needs_ten_particles():
    ens = ParticleEnsemble(np.zeros((5, 1)) + np.linspace(0, 1, 5)[:, None], seed=0)
    mix = GaussianMixture.standard(1)
    with pytest.raises(ContractError):
        compose(mix, FlowSchedule((0.1,)), ens, "empirical")


def test_compose_analytic_requires_single_gaussian():
    mix = GaussianMixture.from_components([(0.5, [-1.0], [[1.0]]), (0.5, [1.0], [[1.0]])])
    ens = ParticleEnsemble(np.linspace(-1, 1, 12)[:, None], seed=0)
    with pytest.raises(ContractError):
        compose(mix, FlowSchedule((0.1,)), ens, "analytic")


def test_compose_rejects_unknown_retrain_and_wrong_dimension():
    with pytest.raises(ContractError, match="retrain mode"):
        compose(aniso(), FlowSchedule((0.1,)), probe_ensemble(), "bogus")
    ens_1d = ParticleEnsemble(np.linspace(-1.0, 1.0, 12)[:, None], seed=0)
    with pytest.raises(ContractError, match="dimension"):
        compose(aniso(), FlowSchedule((0.1,)), ens_1d)


def test_compose_defaults_to_empirical_for_mixtures():
    mix = GaussianMixture.from_components([(0.5, [-1.5], [[0.5]]), (0.5, [1.5], [[0.5]])])
    ens = sample(mix, 200, 5)
    schedule = FlowSchedule.uniform(0.2, 3)
    default = compose(mix, schedule, ens)
    explicit = compose(mix, schedule, ens, retrain="empirical")
    for a, b in zip(default.states, explicit.states):
        np.testing.assert_array_equal(a.points, b.points)
    assert default.diagnostics_json() == explicit.diagnostics_json()


def test_compose_empirical_mode_runs_and_contracts():
    mix = GaussianMixture.from_components([(0.5, [-1.5], [[0.5]]), (0.5, [1.5], [[0.5]])])
    ens = sample(mix, 400, 21)
    traj = compose(mix, FlowSchedule.uniform(0.2, 4), ens, "empirical")
    assert len(traj.times) == 5
    spread0 = float(np.var(traj.states[0].points))
    spread1 = float(np.var(traj.states[-1].points))
    assert spread1 < spread0


def test_empirical_compose_is_bit_identical_to_a_copy_per_layer():
    # the kernel pass never multiplies an array by itself, so moving the very array a layer was
    # trained on rounds like moving a copy; this reference copies the points every layer
    rng = np.random.default_rng(4)
    parts = [rng.normal(size=(3, 3)) for _ in range(3)]
    mix = GaussianMixture.from_components([(1 / 3, 2 * rng.normal(size=3), a @ a.T / 3 + np.eye(3) / 2) for a in parts])
    ens = sample(mix, 2500, 4)
    schedule = FlowSchedule.uniform(0.3, 3)
    traj = compose(mix, schedule, ens, "empirical")
    points = ens.points
    for state, tau in zip(traj.states[1:], schedule.taus):
        points = EmpiricalKernel(ParticleEnsemble(points, ens.seed), tau).apply(points.copy())
        assert np.array_equal(state.points, points)
    kernel_map = EmpiricalKernel(ens, schedule.taus[0])
    assert np.array_equal(kernel_map.apply(ens.points), kernel_map.apply(ens.points.copy()))


def test_velocity_matches_score_of_current_measure():
    # each layer moves particles by tau * score of the tau-smoothed measure,
    # which approaches the raw score as tau shrinks
    mix = aniso()
    ens = probe_ensemble()
    tau = 1e-3
    traj = compose(mix, FlowSchedule((tau,)), ens, "analytic")
    velocity = (traj.states[1].points - traj.states[0].points) / tau
    np.testing.assert_allclose(velocity, score(mix, ens.points), atol=5e-3)


ROT_ANGLE = 0.7
ROT = np.array([[math.cos(ROT_ANGLE), -math.sin(ROT_ANGLE)], [math.sin(ROT_ANGLE), math.cos(ROT_ANGLE)]])
ROT_LAM = np.array([0.6, 2.5])
ROT_MEAN = np.array([1.5, -0.75])


def rotated() -> GaussianMixture:
    """N(ROT_MEAN, ROT diag(ROT_LAM) ROT^T): rotated and not centred."""
    cov = (ROT * ROT_LAM) @ ROT.T
    return GaussianMixture.single(ROT_MEAN, 0.5 * (cov + cov.T))


def test_compose_rotated_gaussian_matches_eigenbasis_recursion():
    # in the eigenbasis ROT every layer scales axis j by lam_j / (lam_j + tau)
    # about the mean and sends lam_j to lam_j^3 / (lam_j + tau)^2; the deep
    # uniform schedule lets rounding build up over many layers
    mean = ROT_MEAN
    ens = ParticleEnsemble(probe_lattice(3.0, 7, 2) + mean, seed=0)
    for taus in ((0.05, 0.1, 0.02, 0.2, 0.07), (0.25 / 2000,) * 2000):
        traj = compose(rotated(), FlowSchedule(taus), ens, "analytic")
        lam, z = ROT_LAM, (ens.points - mean) @ ROT
        for layer, tau in enumerate(taus, start=1):
            z = z * (lam / (lam + tau))
            lam = lam**3 / (lam + tau) ** 2
            want = mean + z @ ROT.T
            got = traj.states[layer].points
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            want_h = math.log(2.0 * math.pi * math.e) + 0.5 * float(np.log(lam).sum())
            got_h = traj.entropy[layer, 0]
            assert abs(got_h - want_h) <= 1e-12 * max(1.0, abs(want_h))


@pytest.mark.parametrize("n", [1, 40])
def test_diagnostics_json_moments_are_the_states_moments(n):
    # every record carries its state's sample moments exactly, whatever flow made the state; one particle has
    # zero covariance, and empirical retraining needs at least 10 particles
    rng = np.random.default_rng(5)
    basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    cov, mean = (basis * [0.6, 1.2, 2.5]) @ basis.T, np.array([1.5, -0.75, 0.3])
    mix = GaussianMixture.single(mean, 0.5 * (cov + cov.T))
    ens = ParticleEnsemble(mean + 0.8 + rng.standard_normal((n, 3)) * [1.5, 0.5, 1.0], seed=0)
    trajs = [compose(mix, FlowSchedule.uniform(0.25, 20), ens, "analytic"), one_shot_orbit(mix, (0.1, 0.2), ens)]
    if n >= 10:
        trajs.append(compose(mix, FlowSchedule.uniform(0.25, 3), ens, "empirical"))
    for traj in trajs:
        records = traj.diagnostics_json()["records"]
        assert len(records) == len(traj.states)
        for state, record in zip(traj.states, records):
            mean, cov = _moments(state.points)
            assert record["mean"] == mean.tolist() and record["cov"] == cov.tolist()
            if n == 1:
                assert record["cov"] == np.zeros((3, 3)).tolist()


def test_moments_equal_np_cov_bit_for_bit():
    # the moments are taken of the points over a power of two, which is exact on ordinary data
    rng = np.random.default_rng(11)
    for n, m, scale, shift in [(2, 1, 1.0, 0.0), (40, 3, 1e-3, 5.0), (257, 2, 1e5, -3e4), (9, 5, 0.7, 1e-8)]:
        x = scale * rng.standard_normal((n, m)) + shift
        mean, cov = _moments(x)
        np.testing.assert_array_equal(mean, x.mean(axis=0))
        np.testing.assert_array_equal(cov, np.atleast_2d(np.cov(x.T, ddof=1)))


def test_moments_stay_finite_where_the_sum_of_squares_overflows():
    x = np.random.default_rng(2).standard_normal((200, 2)) * 1e154
    mean, cov = _moments(x)
    assert np.all(np.isfinite(cov)) and cov[0, 0] > 1e307
    np.testing.assert_allclose(cov, 1e308 * np.cov(x.T / 1e154), rtol=1e-14)
    np.testing.assert_array_equal(mean, x.mean(axis=0))


def test_analytic_flow_peak_memory_stays_near_its_states():
    # each state is its own array, filled once: no whole-trajectory stack beside the states
    ens = ParticleEnsemble(ROT_MEAN + np.random.default_rng(0).standard_normal((50_000, 2)), seed=0)
    tracemalloc.start()
    try:
        traj = continuous_flow(rotated(), 0.25, 16, ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sum(s.points.nbytes for s in traj.states)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_empirical_kernel_peak_memory_is_one_kernel_chunk():
    # the kernel pass works one cache-sized chunk of (point, datum) pairs at a time in one reused
    # buffer: no (points, data) array, only a few (n, m+1) arrays beside the chunk
    rng = np.random.default_rng(4)
    kernel_map = EmpiricalKernel(ParticleEnsemble(rng.normal(size=(2000, 2)), seed=0), 0.5)
    assert _traced_peak(kernel_map.apply, rng.normal(size=(2000, 2))) <= 2_000_000


def test_empirical_kernel_on_its_own_data_peak_memory_is_one_kernel_chunk():
    # the symmetric route: the same chunk buffer, rows of the upper triangle, no (data, data) array
    data = np.random.default_rng(4).normal(size=(2000, 2))
    kernel_map = EmpiricalKernel(ParticleEnsemble(data, seed=0), 0.5)
    assert _traced_peak(kernel_map.apply, data) <= 2_000_000


def test_kde_log_density_peak_memory_is_one_kernel_chunk():
    # 81 probes over 100k data: one chunk row of the data plus the whitened and centred data
    rng = np.random.default_rng(5)
    data, probes = rng.normal(size=(100_000, 2)), rng.normal(size=(81, 2))
    assert _traced_peak(kde_log_density, data, 0.1 * np.eye(2), probes) <= 8_000_000


@pytest.mark.parametrize("t, offset", [(1e-300, 0.0), (0.05, 30.0), (0.5, 30.0)])
def test_empirical_kernel_extreme_inputs_raise_domain_error(t, offset):
    # the kernel weight sum underflows at an extreme bandwidth or far from the data; that is a
    # DomainError, never an overflow, a NaN or a RuntimeWarning (which the suite turns into errors)
    rng = np.random.default_rng(6)
    kernel_map = EmpiricalKernel(ParticleEnsemble(rng.normal(size=(200, 2)), seed=0), t)
    with pytest.raises(DomainError, match="underflow") as err:
        kernel_map.apply(rng.normal(size=(5, 2)) + [offset, 0.0])
    # the log mean is printed in short form: at t = 1e-300 it has 300 digits before the point
    assert "log mean" in str(err.value) and len(str(err.value)) < 200


@pytest.mark.parametrize("t", [1e300, 1e308])
def test_empirical_kernel_at_huge_bandwidth_maps_its_data_to_their_mean(t):
    # every kernel weight is 1, so the map is defined; the Gaussian normaliser (about -692 at
    # t = 1e300, -inf at 1e308) cancels in the weighted mean and must not trip the underflow rule
    data = np.random.default_rng(6).normal(size=(200, 2))
    out = EmpiricalKernel(ParticleEnsemble(data, seed=0), t).apply(data)
    np.testing.assert_allclose(out, np.broadcast_to(data.mean(axis=0), data.shape), rtol=0.0, atol=1e-15)


def test_analytic_flow_decomposes_independently_of_depth(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0, "slogdet": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    mix = aniso()
    ens = probe_ensemble()
    per_depth = []
    for steps in (10, 1000):
        before = dict(calls)
        continuous_flow(mix, 0.4, steps, ens)
        per_depth.append({name: calls[name] - before[name] for name in calls})
    assert per_depth[0] == per_depth[1]


def _random_gaussian(rng, m: int, spread: float = 1.0) -> GaussianMixture:
    """N(mean, Q diag(lam) Q^T) with a random rotation Q and eigenvalues from 1 to ``spread``."""
    q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    cov = (q * np.geomspace(1.0, spread, m)) @ q.T
    return GaussianMixture.single(rng.standard_normal(m), 0.5 * (cov + cov.T))


def _analytic_states_reference(x0: np.ndarray, g0: Gaussian, taus) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The analytic flow's states on (n, m) rows, ``(z0 * F_l) @ V^T + mean``, with the eigenvalue map written out,
    and the scale ``|V| |z0 F_l| + |state|`` of each state's dot-product rounding bound (0 for the input)."""
    lam = [g0.evals]
    for tau in taus[:-1]:
        lam.append(lam[-1] * (lam[-1] / (lam[-1] + tau)) ** 2)
    lam = np.array(lam)
    factors = np.cumprod(lam / (lam + np.array(taus)[:, None]), axis=0)
    z0 = (x0 - g0.mean) @ g0.evecs
    states = [(z0 * f) @ g0.evecs.T + g0.mean for f in factors]
    scales = [np.abs(z0 * f) @ np.abs(g0.evecs.T) + np.abs(state) for f, state in zip(factors, states)]
    return [x0, *states], [np.zeros_like(x0), *scales]


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
def test_analytic_states_lie_within_the_dot_product_bound_of_the_row_formula(m):
    # a state is one GEMM of [x - mean, 1] against [V diag(F_l) V^T ; mean]; the row formula scales z0 = (x - mean) V
    # first.  Both are m-term dot products plus a mean, so on a rotated, shifted law they differ by at most
    # 2 gamma_m |V| |z0 F_l| + 2 u |result|, below (2 m + 2) eps (|V| |z0 F_l| + |result|)
    rng = np.random.default_rng(m)
    mix = _random_gaussian(rng, m, 10.0)
    assert (m == 1 or np.count_nonzero(Gaussian.of(mix).evecs) > m) and np.all(mix.means != 0.0)
    taus = tuple(rng.uniform(0.01, 0.3, size=5).tolist())
    for n in (1, 7, 64, 1000, 100_000):
        ens = ParticleEnsemble(2.0 * rng.standard_normal((n, m)) + mix.means[0], seed=0)
        traj = compose(mix, FlowSchedule(taus), ens, "analytic")
        want, scales = _analytic_states_reference(ens.points, Gaussian.of(mix), taus)
        assert len(traj.states) == len(want)
        for state, points, scale in zip(traj.states, want, scales):
            assert np.all(np.abs(state.points - points) <= (2 * m + 2) * np.finfo(float).eps * scale), (m, n)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
def test_analytic_states_of_an_axis_aligned_centred_law_equal_the_row_formula_bit_for_bit(m):
    # shuffled, distinct variances on the axes and mean 0, as every bundled law: V is a signed permutation, so
    # V diag(F_l) V^T is diagonal and each entry of a state is one product, rounded once on either route
    rng = np.random.default_rng(20 + m)
    mix = GaussianMixture.single(np.zeros(m), np.diag(rng.permutation(np.geomspace(1.0, 10.0, m))))
    g = Gaussian.of(mix)
    assert np.array_equal(np.abs(g.evecs), np.abs(g.evecs).astype(bool)) and np.count_nonzero(g.evecs) == m
    taus = tuple(rng.uniform(0.01, 0.3, size=5).tolist())
    for n in (1, 7, 64, 1000, 100_000):
        ens = ParticleEnsemble(2.0 * rng.standard_normal((n, m)), seed=0)
        traj = compose(mix, FlowSchedule(taus), ens, "analytic")
        want, _ = _analytic_states_reference(ens.points, g, taus)
        assert len(traj.states) == len(want)
        for state, points in zip(traj.states, want):
            assert state.points.tobytes() == points.tobytes(), (m, n)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_stacked_entropies_equal_each_gaussians_bit_for_bit(m):
    # eigenvalues 1 .. 1e10: the 1e165 layer underflows the smallest to 0 but (m >= 2) not the largest
    rng = np.random.default_rng(10 + m)
    mix = _random_gaussian(rng, m, 1e10)
    g0 = Gaussian.of(mix)
    taus = (0.1, 0.5, 1e165, 1e300)
    traj = compose(mix, FlowSchedule(taus), ParticleEnsemble(rng.standard_normal((3, m)), seed=0), "analytic")
    lam = g0.composed(taus)
    assert lam[0, 0] > 0.0 and lam[3, 0] == 0.0 and (m == 1 or lam[3, -1] > 0.0)
    for row, h, r in zip(lam, traj.entropy.tolist(), traj.renyi2.tolist()):
        g = Gaussian(g0.mean, row, g0.evecs)
        assert h == [g.entropy(), 0.0] and r == [g.renyi(2.0), 0.0]
        log_det = -math.inf if row[0] <= 0.0 else float(np.log(row).sum())
        assert h[0] == 0.5 * (m * (math.log(2.0 * math.pi) + 1.0) + log_det)
    assert traj.entropy[3].tolist() == [-math.inf, 0.0] and traj.renyi2[3].tolist() == [math.inf, 0.0]


def test_analytic_renyi_column_is_the_scalar_formula_bit_for_bit():
    # one math.exp per value, as the scalar _gaussian_renyi takes it: past the horizon the
    # eigenvalues fall through the exp-overflow rule (log_int >= 700) to 0 (log det -inf)
    from dae_transport.measures import _gaussian_renyi

    mix, schedule = GaussianMixture.single(np.zeros(3), 1e-200 * np.eye(3)), FlowSchedule.uniform(2e-200, 2000)
    traj = compose(mix, schedule, ParticleEnsemble(np.zeros((2, 3)), seed=0), "analytic")
    lam = Gaussian.of(mix).composed(schedule.taus)
    log_dets = [-math.inf if row[0] <= 0.0 else float(np.log(row).sum()) for row in lam]
    log_ints = [-0.5 * (3 * math.log(2.0 * math.pi) + ld) - 1.5 * math.log(2.0) for ld in log_dets]
    want = [(math.exp(v) if v < 700.0 else math.inf) - 1.0 for v in log_ints]
    assert traj.renyi2[:, 0].tolist() == want == [float(_gaussian_renyi(3, ld, 2.0)) for ld in log_dets]
    assert min(log_ints) < 700.0 and any(v >= 700.0 and ld > -math.inf for v, ld in zip(log_ints, log_dets))
    assert log_dets[-1] == -math.inf


@pytest.mark.parametrize("n", [3, 64, 257])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 16])
def test_analytic_states_do_not_depend_on_the_layer_count(m, n):
    # a state of a longer flow is the state of the flow cut after it, and an orbit state is denoise at its time
    rng = np.random.default_rng(100 * m + n)
    mix = _random_gaussian(rng, m, 10.0)
    g, ens = Gaussian.of(mix), ParticleEnsemble(2.0 * rng.standard_normal((n, m)), seed=0)
    taus = tuple(rng.uniform(1e-4, 1e-3, size=9).tolist())
    traj = compose(mix, FlowSchedule(taus), ens, "analytic")
    assert all(not s.points.flags.writeable for s in traj.states)
    for layers in (1, 2, 4, 8, 9):
        alone = compose(mix, FlowSchedule(taus[:layers]), ens, "analytic").states[-1]
        assert np.array_equal(traj.states[layers].points, alone.points), layers
    times = np.cumsum(rng.uniform(1e-3, 1.0, size=6)).tolist()
    orbit = one_shot_orbit(mix, times, ens)
    assert all(not s.points.flags.writeable for s in orbit.states)
    for t, state in zip(times, orbit.states[1:]):
        assert np.array_equal(state.points, g.denoise(ens.points, t)), t


def test_analytic_states_holding_an_inf_are_rejected():
    # x - mean overflows to -inf for the particle at -1e308, so every state holds it
    mix, ens = GaussianMixture.single([1e308], [[1.0]]), ParticleEnsemble(np.array([[-1e308], [0.0]]), seed=0)
    flows = (lambda: compose(mix, FlowSchedule((1e-6,) * 5), ens, "analytic"),
             lambda: one_shot_orbit(mix, [0.1, 0.2], ens))
    for flow in flows:
        with pytest.warns(RuntimeWarning, match="overflow encountered in subtract"):
            with pytest.raises(ContractError, match="ensemble points must be finite"):
                flow()


def test_analytic_states_are_row_views_of_one_frozen_stack():
    # the analytic states are rows of one (L, n, m) array, not per-state copies;
    # the sampled flows and a singularity's one-time partial hold their states the same way, made only when read
    mix = GaussianMixture.single([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]])
    ens = ParticleEnsemble(np.random.default_rng(4).standard_normal((100_000, 2)), seed=3)
    small = ParticleEnsemble(ens.points[:40], seed=3)
    with pytest.raises(SingularityError) as err:
        continuous_flow(mix, 5.0, 4, small)
    flows = [(continuous_flow(mix, 0.45, 16, ens), ens),
             (one_shot_orbit(mix, [0.1 * (i + 1) for i in range(16)], ens), ens),
             (compose(_two_mixture(), FlowSchedule((0.1, 0.2, 0.1)), small, "empirical"), small),
             (one_shot_orbit(_two_mixture(), [0.1, 0.3], small), small),
             (err.value.partial, small)]
    for traj, start in flows:
        layers = traj.layers
        assert "states" not in vars(traj)
        assert layers.shape == (len(traj.times) - 1, *start.points.shape) and not layers.flags.writeable
        owner = layers if layers.base is None else layers.base
        assert owner.shape == layers.shape and not owner.flags.writeable
        states = traj.states
        assert states is traj.states and states[0] is start and len(states) == len(traj.times)
        for layer, state in enumerate(states[1:]):
            assert np.shares_memory(state.points, layers[layer]) and not state.points.flags.writeable
            assert state.seed == 3 and np.array_equal(state.points, layers[layer])
    assert len(flows[0][0].layers) == 16 and len(flows[-1][0].layers) == 0


def test_a_trajectory_its_caller_builds_keeps_a_copy_of_the_stack():
    # as for an ensemble: the owner of a frozen stack can make it writeable again; only the flows' own stacks are kept
    stack = np.zeros((3, 4, 2))
    stack.flags.writeable = False
    rows = np.zeros((3, 2))
    traj = Trajectory((0.0, 0.1, 0.2), ParticleEnsemble(stack[0], 0), stack[1:], rows, rows)
    stack.flags.writeable = True
    stack[1, 0, 0] = np.nan
    assert np.all(np.isfinite(traj.layers)) and not traj.layers.flags.writeable
    with pytest.raises(ContractError, match="ensemble points must be finite"):
        Trajectory((0.0, 0.1, 0.2), ParticleEnsemble(stack[0], 0), stack[1:], rows, rows)


@pytest.mark.parametrize("flow", ["compose_1_layer", "compose_2_layers", "mixture_orbit"])
def test_sampled_states_are_checked_before_their_diagnostics_read_them(flow):
    # the kernel GEMM of data near (+-1e200, 0) and the mixture score at 1e155 overflow to non-finite points; the
    # stack's finiteness check must reject them before a KDE of those states raises an error of its own
    far = GaussianMixture.from_components([(0.5, [-1e200, 0.0], np.eye(2)), (0.5, [1e200, 0.0], np.eye(2))])
    runs = {"compose_1_layer": lambda: compose(far, FlowSchedule((0.1,)), sample(far, 50, 0), "empirical"),
            "compose_2_layers": lambda: compose(far, FlowSchedule((0.1, 0.1)), sample(far, 50, 0), "empirical"),
            "mixture_orbit": lambda: one_shot_orbit(_two_mixture(), [0.1, 0.2],
                                                    ParticleEnsemble(np.array([[1e155, 1e155]]), seed=0))}
    with pytest.warns(RuntimeWarning):
        with pytest.raises(ContractError, match="ensemble points must be finite"):
            runs[flow]()


# -- continuous flow ----------------------------------------------------------------------


def test_continuous_flow_is_compose_bit_for_bit():
    ens = probe_ensemble()
    a = continuous_flow(aniso(), 0.4, 8, ens)
    b = compose(aniso(), FlowSchedule.uniform(0.4, 8), ens, "analytic")
    assert a.times == b.times
    for sa, sb in zip(a.states, b.states):
        np.testing.assert_array_equal(sa.points, sb.points)
    assert np.array_equal(a.entropy, b.entropy) and np.array_equal(a.renyi2, b.renyi2)


def test_continuous_flow_standard_normal_one_dim_endpoint():
    # closed form x(t) = x sqrt(1 - 2 t): at t = 0.375, x = 1 -> 0.5
    std = GaussianMixture.standard(1)
    ens = ParticleEnsemble(np.array([[1.0]]), seed=0)
    traj = continuous_flow(std, 0.375, 4000, ens)
    assert traj.states[-1].points[0, 0] == pytest.approx(0.5, abs=5e-4)


def test_continuous_flow_single_step_is_one_map():
    std = GaussianMixture.standard(1)
    ens = ParticleEnsemble(np.array([[1.0], [0.2]]), seed=0)
    traj = continuous_flow(std, 0.3, 1, ens)
    np.testing.assert_array_equal(
        traj.states[-1].points, Gaussian.from_cov([[1.0]]).denoise(ens.points, 0.3)
    )
    np.testing.assert_allclose(
        traj.states[-1].points, MixtureExact(std, 0.3).apply(ens.points), atol=1e-12
    )


def test_continuous_flow_first_order_convergence():
    ens = probe_ensemble()
    target = ANISO_G.continuous_map(ens.points, 0.4)
    errs = []
    for steps in (8, 16, 32):
        traj = continuous_flow(aniso(), 0.4, steps, ens)
        errs.append(float(np.max(np.abs(traj.states[-1].points - target))))
    assert errs[0] > errs[1] > errs[2]
    for a, b in zip(errs, errs[1:]):
        assert 1.5 <= a / b <= 2.6


def test_continuous_flow_rejects_singular_horizon():
    ens = probe_ensemble()
    with pytest.raises(SingularityError) as err:
        continuous_flow(aniso(), 0.5, 10, ens)
    assert err.value.critical_time == pytest.approx(0.5)
    # the flow hands back its initial state, with closed-form diagnostics
    partial = err.value.partial
    assert partial.times == (0.0,)
    assert partial.states[0] is ens
    assert partial.entropy[0, 0] == pytest.approx(entropy(aniso()).value, abs=1e-12)
    assert partial.renyi2[0, 1] == 0.0


def test_continuous_flow_is_scale_covariant_at_tiny_scales():
    # N(0, s S) flows like N(0, S) with lengths scaled by sqrt(s) and times by s;
    # the horizon (half the smallest eigenvalue) is the only singularity rule
    rot = np.array([[math.cos(0.6), -math.sin(0.6)], [math.sin(0.6), math.cos(0.6)]])
    cov = rot @ ANISO_COV @ rot.T
    ens = probe_ensemble()
    unit = continuous_flow(GaussianMixture.single([0.0, 0.0], cov), 0.4, 8, ens)
    s = 1e-11
    small = continuous_flow(
        GaussianMixture.single([0.0, 0.0], s * cov), 0.4 * s, 8, ParticleEnsemble(math.sqrt(s) * ens.points, 0)
    )
    np.testing.assert_allclose(np.array(small.times) / s, unit.times, rtol=1e-12)
    scale = np.max(np.abs(ens.points))
    for a, b in zip(small.states, unit.states):
        np.testing.assert_allclose(a.points / math.sqrt(s), b.points, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(small.entropy[:, 0], unit.entropy[:, 0] + math.log(s), rtol=1e-12)


def test_continuous_flow_infers_empirical_mode_for_mixtures():
    mix = GaussianMixture.from_components([(0.5, [-1.5], [[0.5]]), (0.5, [1.5], [[0.5]])])
    ens = sample(mix, 200, 3)
    traj = continuous_flow(mix, 0.2, 2, ens)
    assert len(traj.times) == 3
    assert traj.entropy[0, 1] > 0.0


def test_layer_diagnostics_and_bump_fields_draw_from_distinct_streams(monkeypatch):
    # flat paths 100 + layer and 1000 + trial met at layer 900 and trial 0
    from dae_transport import rand, transport, verify

    paths = []

    def recording(seed, *path):
        paths.append(path)
        return rand.substream(seed, *path)

    monkeypatch.setattr(transport, "substream", recording)
    monkeypatch.setattr(verify, "substream", recording)
    mix = _two_mixture()
    transport._kde_rows(sample(mix, 50, 0).points, 0, 900, ())[0]
    verify._bump_field(0, 0, mix)
    assert paths == [(100, 900), (1000,)]
    draws = [rand.substream(0, *path).random(8) for path in paths]
    assert not np.any(draws[0] == draws[1])


def test_empirical_diagnostics_subsample_large_ensembles():
    # above the diagnostic caps the KDE summary runs on seeded subsamples
    mix = GaussianMixture.from_components([(0.5, [-1.5], [[0.5]]), (0.5, [1.5], [[0.5]])])
    ens = sample(mix, 5_000, 4)
    traj = compose(mix, FlowSchedule((0.1,)), ens, "empirical")
    (h0, dh0), (h1, dh1) = traj.entropy.tolist()
    assert dh0 > 0.0 and dh1 > 0.0
    assert np.isfinite(h0) and np.isfinite(h1)
    # entropy of the true mixture is ~1.72; the resubstitution estimate of the
    # start state should land nearby
    assert abs(h0 - 1.72) < 0.15
    # rerun is bit-identical (subsampling is seeded from the ensemble)
    again = compose(mix, FlowSchedule((0.1,)), ens, "empirical")
    assert again.entropy[1].tolist() == [h1, dh1]


def test_a_collapsing_empirical_flow_ends_in_the_collapsed_rows():
    # past the horizon 0.25 the retrained flow is blurring mean shift: each basin collapses to a point, so the
    # particles' Silverman covariance is flat, and the state gets the rows of a zero-eigenvalue analytic state
    cov = 0.5 * np.eye(2)
    mix = GaussianMixture.from_components([(0.5, [-2.0, 0.0], cov), (0.5, [2.0, 0.5], cov)])
    traj = compose(mix, FlowSchedule((0.25,) * 8), sample(mix, 1000, 0), retrain="empirical")
    assert traj.entropy[-1].tolist() == [-math.inf, 0.0] and traj.renyi2[-1].tolist() == [math.inf, 0.0]
    assert np.all(np.isfinite(traj.entropy[0])) and traj.entropy[0, 1] > 0.0
    rep = check_entropy_monotone(traj)
    assert rep.passed and not rep.details["strict"]


def test_a_map_with_zero_log_det_gets_the_state_own_row():
    from dae_transport import transport

    x = sample(_two_mixture(), 300, 2).points
    assert transport._kde_rows(x, 5, 3, [np.zeros(300)])[1] == transport._kde_rows(x, 5, 3, ())[0]


def test_layer_diagnostics_collapse_by_the_positivity_rule_alone():
    from dae_transport import transport

    rng = np.random.default_rng(5)
    collapsed = (-math.inf, 0.0, math.inf, 0.0)
    line = np.column_stack([rng.standard_normal(200), np.zeros(200)])
    assert transport._kde_rows(line, 0, 0, ())[0] == collapsed
    # lifted off the line: lambda_min / lambda_max about 1e-14 is still flat, about 1e-10 is a KDE
    for spread, flat in ((1e-7, True), (1e-5, False)):
        lifted = line + np.column_stack([np.zeros(200), spread * rng.standard_normal(200)])
        row = transport._kde_rows(lifted, 0, 0, ())[0]
        assert row == collapsed if flat else all(map(math.isfinite, row))
    # a covariance that is not finite is no collapse: it is still rejected, by a ContractError alone
    huge = np.array([[-1e200, 0.0], [1e200, 1.0]] * 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="must be finite"):
            transport._kde_rows(huge, 0, 0, ())[0]


# -- one-shot orbit ------------------------------------------------------------------------


def test_one_shot_orbit_states_are_independent_maps():
    # a single Gaussian's states are its closed-form map bit for bit, and the independent mixture route to 1e-12
    rng = np.random.default_rng(4)
    basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    mix = Gaussian.from_cov((basis * [0.5, 1.0, 3.0]) @ basis.T, [0.5, -1.0, 2.0]).as_mixture()
    g, ens = Gaussian.of(mix), ParticleEnsemble(3.0 * rng.standard_normal((50, 3)), 0)
    traj = one_shot_orbit(mix, [0.05, 0.5, 1.0, 7.0], ens)
    for t, state in zip(traj.times[1:], traj.states[1:]):
        np.testing.assert_array_equal(state.points, g.denoise(ens.points, t))
        np.testing.assert_allclose(state.points, MixtureExact(mix, t).apply(ens.points), rtol=1e-12, atol=1e-12)
    # two components: the states are the exact mixture map, bit for bit
    mix2 = _two_mixture()
    ens2 = probe_ensemble()
    traj = one_shot_orbit(mix2, [0.5, 1.0], ens2)
    for t, state in zip(traj.times[1:], traj.states[1:]):
        np.testing.assert_array_equal(state.points, MixtureExact(mix2, t).apply(ens2.points))


def _three_dim_mixture() -> GaussianMixture:
    rng = np.random.default_rng(3)
    q1, q2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    return GaussianMixture([0.35, 0.65], [[-1.0, 0.5, 0.0], [1.2, -0.4, 0.8]],
                           [(q1 * [0.3, 0.8, 1.5]) @ q1.T, (q2 * [0.2, 0.6, 1.1]) @ q2.T])


def _central_jacobian(f, y: np.ndarray, h: float = 1e-5) -> np.ndarray:
    steps = h * np.eye(y.shape[1])
    return np.stack([(f(y + e) - f(y - e)) / (2.0 * h) for e in steps], axis=2)


def test_dae_map_log_det_is_the_log_det_of_the_exact_map_s_jacobian():
    # one DAE layer is the gradient of a strictly convex potential: its Jacobian Cov(X | y) / t is symmetric positive
    # definite; the unsmoothed score map y + t score(mu_0, y) is not, and its log det is far off
    from dae_transport.measures import _dae_map_log_det

    mix, t = _three_dim_mixture(), 0.7
    y = np.random.default_rng(3).uniform(-2.5, 2.5, (50, 3))
    mapped, log_det = _dae_map_log_det(mix, t, y)
    np.testing.assert_array_equal(mapped, MixtureExact(mix, t).apply(y))
    jac = _central_jacobian(MixtureExact(mix, t).apply, y)
    assert np.max(np.abs(jac - jac.transpose(0, 2, 1))) < 1e-8
    assert np.min(np.linalg.eigvalsh(jac)) > 0.1
    np.testing.assert_allclose(log_det, np.linalg.slogdet(jac)[1], rtol=0.0, atol=1e-8)
    control = _central_jacobian(lambda z: z + t * score(mix, z), y)
    sign, control_log_det = np.linalg.slogdet(control)
    assert np.min(np.linalg.eigvalsh(0.5 * (control + control.transpose(0, 2, 1)))) < -1.0
    assert np.any(sign < 0.0) and np.max(np.abs(control_log_det - log_det)) > 1.0


def test_mixture_orbit_entropy_rows_carry_row_0_s_error_alone():
    # the exact entropy of D_t # mu_0 is H(mu_0) + E log D_t' (D_t is injective), here by quadrature of the density and
    # a central difference of the exact map, a route that shares no code with the orbit's Jacobian; a KDE of each
    # mapped state instead (as before the change-of-variables rows) is off by 0.06-0.39 against this bound at seeds 0-5
    from scipy import integrate

    mix = GaussianMixture.from_components([(0.4, [-1.5], [[0.3]]), (0.6, [1.5], [[0.2]])])
    ts, h = (0.1, 0.5, 1.0), 1e-5

    def exact(t: float) -> tuple[float, float]:
        slope = (lambda x: 1.0) if t == 0.0 else (
            lambda x: float(np.diff(MixtureExact(mix, t).apply([[x - h], [x + h]])[:, 0])[0]) / (2.0 * h))
        p = lambda x: float(density(mix, [x]))
        quad = [integrate.quad(f, -10.0, 10.0, points=[-1.5, 1.5], limit=200)[0] for f in (
            lambda x: -p(x) * (math.log(p(x)) - math.log(slope(x))), lambda x: p(x) * p(x) / slope(x))]
        return quad[0], quad[1] - 1.0

    entropies, renyis = np.array([exact(t) for t in (0.0, *ts)]).T
    traj = one_shot_orbit(mix, ts, sample(mix, 2000, 1))
    bias = traj.entropy[:, 0] - entropies
    assert np.max(np.abs(bias[1:] - bias[0])) <= 0.03
    # the Renyi-2 rows are not a shift of row 0's error (the KDE's factor error is divided by D'): stated as a bound
    # on each row, which per-state KDE rows miss by 0.42-0.51 at t = 0.5 and 1
    assert np.max(np.abs(traj.renyi2[:, 0] - renyis)) <= 0.15


def test_a_mixture_orbit_reads_one_kernel_density_estimate(monkeypatch):
    from dae_transport import transport

    calls = []

    def counting(*args):
        calls.append(args)
        return kde_log_density(*args)

    monkeypatch.setattr(transport, "kde_log_density", counting)
    mix, ens = _two_mixture(), sample(_two_mixture(), 300, 0)
    for times in ((0.3,), (0.1, 0.2, 0.4), tuple(0.1 * np.arange(1, 7))):
        calls.clear()
        traj = one_shot_orbit(mix, times, ens)
        assert len(calls) == 1 and len(traj.entropy) == len(times) + 1
        assert np.array_equal(calls[0][2], ens.points)  # the initial ensemble's probes
    for layers in (1, 3):
        calls.clear()
        compose(mix, FlowSchedule((0.05,) * layers), ens, "empirical")
        assert len(calls) == layers + 1


def test_a_mixture_orbit_from_a_flat_or_one_point_ensemble():
    # particles on a line have a flat kernel, and so does each of their images under an injective map
    line = ParticleEnsemble(np.column_stack([np.linspace(-2.0, 2.0, 40), np.zeros(40)]), 0)
    traj = one_shot_orbit(_two_mixture(), [0.1, 0.5], line)
    assert np.all(np.isfinite(traj.layers)) and not np.allclose(traj.layers[-1][:, 1], 0.0)
    assert traj.entropy.tolist() == [[-math.inf, 0.0]] * 3 and traj.renyi2.tolist() == [[math.inf, 0.0]] * 3
    with pytest.raises(ContractError, match="bandwidth selection needs at least two points"):
        one_shot_orbit(_two_mixture(), [0.1, 0.5], ParticleEnsemble([[0.5, 0.5]], 0))


def test_a_mixture_orbit_at_huge_times_reads_the_contraction_without_warnings():
    # the map scales each axis by about lambda / t, so the entropy falls by about m log t; Renyi-2 terms of
    # exp(m log t) pass float range, the spread's square first (stderr inf), then the terms (value inf, stderr 0)
    ens = sample(_two_mixture(), 200, 0)
    traj = one_shot_orbit(_two_mixture(), [1e10, 1e150, 1e300], ens)
    drops = traj.entropy[0, 0] - traj.entropy[1:, 0]
    np.testing.assert_allclose(drops / (2.0 * np.log([1e10, 1e150, 1e300])), 1.0, rtol=0.03)
    assert np.all(np.isfinite(traj.entropy[:, 1])) and np.all(np.isfinite(traj.layers))
    assert np.all(np.isfinite(traj.renyi2[:3, 0])) and traj.renyi2[3].tolist() == [math.inf, 0.0]
    assert traj.renyi2[2, 1] == math.inf and math.isfinite(traj.renyi2[1, 1])


def test_one_shot_orbit_of_a_huge_gaussian_is_its_closed_form():
    # smoothing N(0, 1e308) by t = 1e308 overflows a covariance, the closed-form map does not
    huge, g = GaussianMixture.single([0.0], [[1e308]]), Gaussian.from_cov([[1e308]])
    ens = ParticleEnsemble(np.array([[-1e154], [0.0], [1e308]]), seed=0)
    traj = one_shot_orbit(huge, [1e308], ens)
    assert np.all(np.isfinite(traj.states[-1].points))
    np.testing.assert_array_equal(traj.states[-1].points, g.denoise(ens.points, 1e308))
    assert traj.states[-1].points[-1, 0] == 5e307


def test_single_gaussian_orbit_never_smooths_convolves_or_scores(monkeypatch):
    import dae_transport.measures as measures
    import dae_transport.transport as transport

    def refuse(*args, **kwargs):
        raise AssertionError("a single-Gaussian orbit took the mixture route")

    monkeypatch.setattr(transport.MixtureExact, "apply", refuse)
    for module in (measures, transport):
        for name in ("smooth", "convolve", "score"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    traj = one_shot_orbit(aniso(), [0.5, 1.0], probe_ensemble())
    np.testing.assert_array_equal(traj.states[-1].points, ANISO_G.denoise(probe_ensemble().points, 1.0))


def test_one_shot_orbit_never_singular_even_at_large_times():
    ens = probe_ensemble()
    traj = one_shot_orbit(aniso(), [0.5, 1.0, 10.0, 1000.0], ens)
    assert np.all(np.isfinite(traj.states[-1].points))


def test_analytic_flows_stay_finite_on_a_huge_covariance():
    # an overflow in the one-shot eigenvalue map would make the laws, entropies and states non-finite
    huge = GaussianMixture.single([0.0], [[1e200]])
    ens = ParticleEnsemble(np.array([[-1e100], [0.0], [2e100]]), seed=0)
    traj = compose(huge, FlowSchedule((1.0, 2.0)), ens)
    np.testing.assert_allclose(traj.states[-1].points, ens.points, rtol=1e-12)  # tau << lambda barely moves them
    h0 = Gaussian.from_cov([[1e200]]).entropy()
    for traj in (traj, one_shot_orbit(huge, [1.0, 1e300], ens)):
        assert traj.entropy[:2, 0].tolist() == pytest.approx([h0, h0], rel=1e-12)
        assert all(math.isfinite(h) or h == -math.inf for h in traj.entropy[:, 0].tolist())


def test_one_shot_orbit_validates_times():
    ens = probe_ensemble()
    with pytest.raises(ContractError):
        one_shot_orbit(aniso(), [0.5, 0.5], ens)
    with pytest.raises(ContractError):
        one_shot_orbit(aniso(), [], ens)


def test_one_shot_orbit_rejects_wrong_dimension():
    ens_1d = ParticleEnsemble(np.linspace(-1.0, 1.0, 5)[:, None], seed=0)
    with pytest.raises(ContractError, match="dimension"):
        one_shot_orbit(aniso(), [0.5], ens_1d)


def test_continuous_flow_checks_the_dimension_before_the_horizon():
    # t_end = 5 is past the horizon of N(0, I_2); the 3-D ensemble is the first fault, as in compose
    ens_3d = ParticleEnsemble(np.zeros((4, 3)), seed=0)
    with pytest.raises(ContractError, match="dimension") as err:
        continuous_flow(GaussianMixture.standard(2), 5.0, 2, ens_3d)
    assert type(err.value) is ContractError


@pytest.mark.parametrize("t_end", [0.2, 5.0], ids=["inside_horizon", "past_horizon"])
@pytest.mark.parametrize("retrain, n", [("bogus", 20), ("empirical", 5)], ids=["unknown_retrain", "five_particles"])
def test_continuous_flow_judges_its_retrain_rule_before_the_horizon(retrain, n, t_end):
    # the horizon of N(0, diag(2, 1)) is 0.5: a bad argument is a ContractError on either side of it, not a singularity
    mix = GaussianMixture.single([0.0, 0.0], np.diag([2.0, 1.0]))
    with pytest.raises(Exception, match="retrain") as err:
        continuous_flow(mix, t_end, 4, sample(mix, n, 0), retrain=retrain)
    assert type(err.value) is ContractError


# -- trajectory container -------------------------------------------------------------------


def test_trajectory_requires_increasing_times():
    ens = probe_ensemble()
    traj = compose(aniso(), FlowSchedule((0.1, 0.1)), ens, "analytic")
    with pytest.raises(ContractError):
        Trajectory((0.0, 0.2, 0.1), traj.initial, traj.layers, traj.entropy, traj.renyi2)


@pytest.mark.parametrize("times", [(0.0, math.nan), (0.0, math.inf), (0.0, 1.0, math.nan)],
                         ids=["nan", "inf", "nan_after_increase"])
def test_trajectory_rejects_times_that_are_not_finite(times):
    traj = compose(aniso(), FlowSchedule((0.1, 0.1)), probe_ensemble(), "analytic")
    k = len(times)
    with pytest.raises(ContractError, match="finite and strictly increasing"):
        Trajectory(times, traj.initial, traj.layers[:k - 1], traj.entropy[:k], traj.renyi2[:k])


def test_trajectory_rejects_bad_start_lengths_and_shapes():
    traj = compose(aniso(), FlowSchedule((0.1, 0.1)), probe_ensemble(), "analytic")
    with pytest.raises(ContractError, match="start at 0"):
        Trajectory((0.1, 0.2, 0.3), traj.initial, traj.layers, traj.entropy, traj.renyi2)
    # a row missing, or rows that are not (value, stderr) pairs
    for layers, h, r in [(traj.layers[:1], traj.entropy, traj.renyi2), (traj.layers, traj.entropy[:2], traj.renyi2),
                         (traj.layers, traj.entropy, traj.renyi2[:2]), (traj.layers, traj.entropy[:, 0], traj.renyi2),
                         (traj.layers, traj.entropy, np.hstack([traj.renyi2, traj.renyi2]))]:
        with pytest.raises(ContractError, match="equal length"):
            Trajectory(traj.times, traj.initial, layers, h, r)
    with pytest.raises(ContractError, match="share n and m"):
        Trajectory(traj.times, traj.initial, traj.layers[:, :-1], traj.entropy, traj.renyi2)


def test_entropy_rows_are_read_only_arrays_that_the_view_and_the_json_read(monkeypatch):
    from dae_transport import Estimate, FlowDiagnostics, transport

    def refuse(*args):
        raise AssertionError("a flow built a per-time record")

    n, m = 64, 2
    ens = ParticleEnsemble(np.random.default_rng(3).standard_normal((n, m)), seed=0)
    monkeypatch.setattr(transport, "FlowDiagnostics", refuse)
    flows = [compose(aniso(), FlowSchedule((1e-3,) * 515), ens, "analytic"),
             compose(_two_mixture(), FlowSchedule((0.1, 0.2)), ens, "empirical")]
    monkeypatch.undo()
    for traj in flows:
        both = np.hstack([traj.entropy, traj.renyi2])
        for rows in (traj.entropy, traj.renyi2):
            assert rows.shape == (len(traj.times), 2) and rows.dtype == np.float64 and not rows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 0.0
        view = traj.diagnostics
        assert all(type(d) is FlowDiagnostics and type(d.entropy) is type(d.renyi2) is Estimate for d in view)
        assert np.array([[*d.entropy, *d.renyi2] for d in view]).tobytes() == both.tobytes()
        records = traj.diagnostics_json()["records"]
        keys = ("entropy", "entropy_stderr", "renyi2", "renyi2_stderr")
        assert np.array([[rec[k] for k in keys] for rec in records]).tobytes() == both.tobytes()
    # the trajectory keeps its own copy of the rows it is given
    rows = np.zeros((1, 2))
    traj = Trajectory((0.0,), ens, np.empty((0, n, m)), rows, rows)
    rows[0, 0] = 5.0
    assert traj.entropy[0, 0] == 0.0 and rows.flags.writeable


def test_trajectory_csv_and_json_outputs(tmp_path):
    ens = ParticleEnsemble(np.array([[1.0, 1.0], [0.5, -0.5]]), seed=77)
    traj = compose(aniso(), FlowSchedule((0.1, 0.1)), ens, "analytic")
    csv_path = tmp_path / "traj.csv"
    traj.to_csv(csv_path)
    assert b"\r" not in csv_path.read_bytes()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# seed=77"
    assert lines[1] == "time,particle_id,x1,x2"
    body = [r for r in csv.reader(lines[2:])]
    assert len(body) == 3 * 2  # three times, two particles
    assert {r[1] for r in body} == {"0", "1"}

    json_path = tmp_path / "diag.json"
    write_json(json_path, traj.diagnostics_json())
    doc = json.loads(json_path.read_text())
    assert doc["seed"] == 77
    assert len(doc["records"]) == 3
    ents = [r["entropy"] for r in doc["records"]]
    assert ents[0] > ents[1] > ents[2]


def test_writers_read_the_stack_and_build_no_states(tmp_path):
    # both writers take each time's points from ``initial`` and ``layers``, so writing makes no state object
    ens = probe_ensemble()
    for traj in (compose(aniso(), FlowSchedule.uniform(0.2, 4), ens, "analytic"),
                 compose(_two_mixture(), FlowSchedule((0.1, 0.2)), ens, "empirical")):
        traj.to_csv(tmp_path / "traj.csv")
        records = traj.diagnostics_json()["records"]
        assert "states" not in vars(traj)
        points = [ens.points, *traj.layers]
        body = [r for r in csv.reader(tmp_path.joinpath("traj.csv").read_text().splitlines()[2:])]
        assert body == [[repr(t), str(i), *map(repr, row)] for t, x in zip(traj.times, points)
                        for i, row in enumerate(x.tolist())]
        assert [r["mean"] for r in records] == [_moments(x)[0].tolist() for x in points]


@pytest.mark.parametrize("layers", [[], (), np.empty((0, 2, 2))])
def test_a_one_state_trajectory_takes_an_empty_sequence_of_layers(layers, tmp_path):
    ens = ParticleEnsemble(np.array([[1.0, 1.0], [0.5, -0.5]]), seed=77)
    traj = Trajectory((0.0,), ens, layers, [[1.5, 0.0]], [[0.25, 0.0]])
    assert traj.layers.shape == (0, 2, 2) and traj.times == (0.0,) and traj.states == (ens,)
    traj.to_csv(tmp_path / "traj.csv")
    assert tmp_path.joinpath("traj.csv").read_text().splitlines() == [
        "# seed=77", "time,particle_id,x1,x2", "0.0,0,1.0,1.0", "0.0,1,0.5,-0.5"]
    records = traj.diagnostics_json()["records"]
    assert len(records) == 1 and (records[0]["time"], records[0]["entropy"], records[0]["renyi2"]) == (0.0, 1.5, 0.25)
    assert records[0]["mean"] == [0.75, 0.25]
    with pytest.raises(ContractError, match="equal length"):
        Trajectory((0.0, 0.1), ens, layers, [[1.5, 0.0]] * 2, [[0.25, 0.0]] * 2)


def test_csv_cells_are_the_shortest_round_trip_text(tmp_path):
    # a Python float, NumPy float64 values from the smallest subnormal to near the largest float, an int and a str
    row = [0.1, *np.array([5e-324, -0.0, 1e-5, 1e16, 1e308]), 7, "one_shot"]
    write_csv(tmp_path / "row.csv", list("abcdefgh"), [[[cell] for cell in row]])  # one block of one-row columns
    want = "a,b,c,d,e,f,g,h\n0.1,5e-324,-0.0,1e-05,1e+16,1e+308,7,one_shot\n"
    assert (tmp_path / "row.csv").read_bytes() == want.encode()
    assert want.splitlines()[1] == ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)


def test_trajectory_csv_holds_a_few_states_of_cells_at_most(tmp_path):
    # One state's cells, as the Python objects the writer formats, take n * m * (24 B float + 8 B list slot):
    # 1.28 MB at n = 20 000, m = 2.  The writer makes a state's columns while it still holds the last one's, so
    # it peaks near two states (2.6 MB measured).  A writer holding all 30 states' columns would need 38 MB.
    n, m, states = 20_000, 2, 30
    stack = np.random.default_rng(8).integers(-8, 8, size=(states, n, m)) / 4  # short cells, a faster write
    rows = np.zeros((states, 2))
    traj = Trajectory(tuple(0.1 * np.arange(states)), ParticleEnsemble(stack[0], 0), stack[1:], rows, rows)
    assert _traced_peak(traj.to_csv, tmp_path / "traj.csv") <= 3 * n * m * 32
    assert tmp_path.joinpath("traj.csv").read_text().count("\n") == 2 + states * n


def test_trajectory_deterministic_export(tmp_path):
    ens = probe_ensemble()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    compose(aniso(), FlowSchedule.uniform(0.2, 4), ens, "analytic").to_csv(a)
    compose(aniso(), FlowSchedule.uniform(0.2, 4), ens, "analytic").to_csv(b)
    assert a.read_bytes() == b.read_bytes()
