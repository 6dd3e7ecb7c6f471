"""The package export list: every name resolves, none is listed twice, removed names stay gone."""

from __future__ import annotations

import ast
import inspect
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dae_transport
from dae_transport import cli, errors, measures, pushforward, svg, transport, verify
from dae_transport import (
    EmpiricalKernel, FlowSchedule, Gaussian, GaussianMixture, MixtureExact, ParticleEnsemble, ResidualReport, Trajectory,
)

# names folded into ``Gaussian`` (one value, one validator, one W2), ``denoising_shift``, which is ``apply(x) - x``,
# ``ChartFrame``, folded into ``SvgCanvas`` (one chart class), ``_spectrum``, folded into ``_decomposed``, and
# ``_one_shot_evals``, whose one-shot law ``Gaussian.one_shot`` writes with ``_dae_factor``
REMOVED = (
    "AbstractPoint",
    "ChartFrame",
    "GaussianPushforward",
    "SOURCE_CONTINUOUS",
    "SOURCE_ONE_SHOT",
    "_SpectralGaussian",
    "_one_shot_evals",
    "_spectrum",
    "abstract_coordinates",
    "analytic_continuous_map",
    "denoising_shift",
    "empirical_moments",
    "w2_distance",
)

# unexported shims over ``Gaussian`` that only the benchmark's tracer still names
SHIMS = ("AnalyticGaussian", "one_shot_covariance", "push_continuous", "push_one_shot")


def test_export_list_resolves_without_duplicates():
    names = dae_transport.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(dae_transport, n)] == []
    namespace: dict = {}
    exec("from dae_transport import *", namespace)
    assert set(names) <= set(namespace)


def test_removed_names_are_gone_from_package_and_modules():
    for owner in (dae_transport, measures, pushforward, svg, transport):
        assert [n for n in REMOVED if hasattr(owner, n)] == [], owner.__name__
    assert not set(REMOVED) & set(dae_transport.__all__)
    # the mixture's unused serializer and component list; ``from_json_dict`` reads configs
    assert [n for n in ("components", "to_json_dict") if hasattr(measures.GaussianMixture, n)] == []


def test_only_measures_binds_the_single_gaussian_algebra():
    # the flows, the checks and the CLI reach the eigenvalue formulas only through ``Gaussian`` and ``_path_rows``
    algebra = ("_dae_factor", "_log_dets", "_gaussian_entropy", "_gaussian_renyi", "_decomposed",
               "_log_normaliser", "_spectral")
    assert all(hasattr(measures, name) for name in algebra)
    for module in (transport, verify, cli):
        assert [name for name in algebra if hasattr(module, name)] == [], module.__name__


def test_only_measures_calls_the_gaussian_constructor():
    # other modules reach a law through ``Gaussian``'s methods (from_cov, of, one_shot, continuous), never by parts
    for module in (cli, transport, verify):
        tree = ast.parse(Path(module.__file__).read_text())
        calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Gaussian"]
        assert calls == [], module.__name__


def test_inside_measures_only_from_cov_of_and_law_call_the_gaussian_constructor():
    # every pushforward law is ``Gaussian._law`` of new eigenvalues; ``cls`` is the constructor in a classmethod
    tree = ast.parse(Path(measures.__file__).read_text())
    gaussian = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Gaussian")

    def calls(fn, name: str) -> bool:
        return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == name for node in ast.walk(fn))

    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    makers = {fn.name for fn in functions if calls(fn, "Gaussian") or (fn in gaussian.body and calls(fn, "cls"))}
    assert makers == {"from_cov", "of", "_law"}


def test_pushforward_defines_only_the_three_entry_points():
    own = [n for n, v in vars(pushforward).items()
           if callable(v) and getattr(v, "__module__", None) == pushforward.__name__]
    assert sorted(own) == ["one_shot_covariance", "push_continuous", "push_one_shot"]


def test_tracer_shims_are_neither_exported_nor_loaded_by_the_cli():
    assert [n for n in SHIMS if hasattr(dae_transport, n) or n in dae_transport.__all__] == []
    code = "import sys, dae_transport.cli; print(sorted(m for m in sys.modules if m.endswith('pushforward')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_the_cli_import_loads_no_xml_http_or_scipy_module():
    # ``svg._escape`` stands in for ``xml.sax.saxutils.escape``, whose import pulls in ``urllib.request``
    # and ``http``; every command's start-up pays for what ``import dae_transport.cli`` loads.
    # ``urllib.parse`` is left out: ``pathlib`` loads it.
    code = ("import sys, dae_transport.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('xml', 'http', 'scipy') or m.startswith('urllib.request')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_readme_library_tour_runs(tmp_path, monkeypatch):
    # the tour is the README's public-API example; it writes orbit.csv into the working directory
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(tour, "README.md", "exec"), {})
    assert (tmp_path / "orbit.csv").is_file()


# -- one number rule at every public entry --------------------------------------------

STD1 = GaussianMixture.standard(1)
G2 = Gaussian.from_cov(np.diag([2.0, 1.0]))
ENS1 = ParticleEnsemble(np.linspace(-1.0, 1.0, 12)[:, None], 0)
ONE_LAYER = (ENS1.points[None], np.zeros((2, 2)), np.zeros((2, 2)))

# "callable.argument": the call with that number set to v, every other argument valid and small; an argument
# that holds a sequence of numbers is fed v as its last entry.  A single Gaussian's entropies and the Gaussian-mode
# continuity check take an n and a seed that their closed forms leave unused, so those are judged too.
NUMBER_ARGUMENTS = {
    "EmpiricalKernel.t": lambda v: EmpiricalKernel(ENS1, v),
    "FlowSchedule.taus": lambda v: FlowSchedule((0.1, v)),
    "FlowSchedule.uniform.t_end": lambda v: FlowSchedule.uniform(v, 2),
    "FlowSchedule.uniform.steps": lambda v: FlowSchedule.uniform(0.3, v),
    "Gaussian.one_shot.t": lambda v: G2.one_shot(v),
    "Gaussian.composed.taus": lambda v: G2.composed([0.1, v]),
    "Gaussian.continuous.t": lambda v: G2.continuous(v),
    "Gaussian.check_horizon.t": lambda v: G2.check_horizon(v, "probe"),
    "Gaussian.denoise.t": lambda v: G2.denoise([0.0, 0.0], v),
    "Gaussian.continuous_map.t": lambda v: G2.continuous_map([0.0, 0.0], v),
    "Gaussian.renyi.alpha": lambda v: G2.renyi(v),
    "GaussianMixture.from_components.components": lambda v: GaussianMixture.from_components([(1.0, [0.0], [[v]])]),
    "GaussianMixture.single.mean": lambda v: GaussianMixture.single([0.0, v], np.eye(2)),
    "GaussianMixture.single.cov": lambda v: GaussianMixture.single([0.0], [[v]]),
    "GaussianMixture.standard.dim": lambda v: GaussianMixture.standard(v),
    "MixtureExact.t": lambda v: MixtureExact(STD1, v),
    "ParticleEnsemble.seed": lambda v: ParticleEnsemble([[0.0]], v),
    "ResidualReport.seed": lambda v: ResidualReport("stein_identity", None, [0.0], seed=v),
    "Trajectory.times": lambda v: Trajectory((0.0, v), ENS1, *ONE_LAYER),
    "check_backward_heat.t_grid": lambda v: dae_transport.check_backward_heat(STD1, (0.1, v)),
    "check_continuity_t0.dt": lambda v: dae_transport.check_continuity_t0(STD1, v),
    "check_continuity_t0.n": lambda v: dae_transport.check_continuity_t0(STD1, n=v),
    "check_continuity_t0.seed": lambda v: dae_transport.check_continuity_t0(STD1, seed=v),
    "check_renyi_gradient_identity.alpha": lambda v: dae_transport.check_renyi_gradient_identity(STD1, v),
    "check_stein_identity.seed": lambda v: dae_transport.check_stein_identity(v),
    "check_time_reversal.t": lambda v: dae_transport.check_time_reversal(STD1, v),
    "check_time_reversal.seed": lambda v: dae_transport.check_time_reversal(STD1, 0.4, v),
    "check_variational_minimizer.t": lambda v: dae_transport.check_variational_minimizer(STD1, v, 1000),
    "check_variational_minimizer.n": lambda v: dae_transport.check_variational_minimizer(STD1, 0.5, v),
    "check_variational_minimizer.seed": lambda v: dae_transport.check_variational_minimizer(STD1, 0.5, 1000, v),
    "continuous_flow.t_end": lambda v: dae_transport.continuous_flow(STD1, v, 2, ENS1),
    "continuous_flow.steps": lambda v: dae_transport.continuous_flow(STD1, 0.2, v, ENS1),
    "default_checks.seed": lambda v: dae_transport.default_checks(v),
    "entropy.n": lambda v: dae_transport.entropy(STD1, v),
    "entropy.seed": lambda v: dae_transport.entropy(STD1, 10, v),
    "one_shot_orbit.times": lambda v: dae_transport.one_shot_orbit(STD1, [0.1, v], ENS1),
    "probe_lattice.extent": lambda v: dae_transport.probe_lattice(v, 3, 1),
    "probe_lattice.per_axis": lambda v: dae_transport.probe_lattice(1.0, v, 1),
    "probe_lattice.dim": lambda v: dae_transport.probe_lattice(1.0, 3, v),
    "renyi_entropy.alpha": lambda v: dae_transport.renyi_entropy(STD1, v),
    "renyi_entropy.n": lambda v: dae_transport.renyi_entropy(STD1, 2.0, v),
    "renyi_entropy.seed": lambda v: dae_transport.renyi_entropy(STD1, 2.0, 10, v),
    "sample.n": lambda v: dae_transport.sample(STD1, v, 0),
    "sample.seed": lambda v: dae_transport.sample(STD1, 10, v),
    "silverman_covariance.factor": lambda v: dae_transport.silverman_covariance(ENS1.points, v),
    "smooth.t": lambda v: dae_transport.smooth(STD1, v),
    "stein_residual.t": lambda v: dae_transport.stein_residual(v, [0.1]),
}
NOT_NUMBERS = {"bool": True, "text": "0.5", "none": None, "nested_list": [[0.5]], "nan": math.nan, "inf": math.inf,
               "minus_inf": -math.inf}


def _number_arguments() -> set[str]:
    """``callable.argument`` for every argument annotated with a number, or numbers, of a callable in ``__all__``
    (a class's constructor and its public methods).  The result records ``Estimate`` and ``FlowDiagnostics`` are
    NamedTuples the package returns, whose constructors carry no annotations."""
    found = set()
    for name in dae_transport.__all__:
        obj = getattr(dae_transport, name)
        members = [(name, obj)] if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, Exception)) else []
        if inspect.isclass(obj) and members:
            members += [(f"{name}.{attr}", getattr(obj, attr)) for attr, member in vars(obj).items()
                        if not attr.startswith("_") and inspect.isfunction(getattr(member, "__func__", member))]
        for label, fn in members:
            found |= {f"{label}.{arg}" for arg, p in inspect.signature(fn).parameters.items()
                      if isinstance(p.annotation, str) and re.search(r"\b(int|float)\b", p.annotation)}
    return found


def test_the_number_table_names_every_number_argument_of_the_public_api():
    assert set(NUMBER_ARGUMENTS) == _number_arguments()


# None is a report's documented "no seed"
NOT_A_NUMBER_CASES = [(argument, bad) for argument in sorted(NUMBER_ARGUMENTS) for bad in sorted(NOT_NUMBERS)
                      if (argument, bad) != ("ResidualReport.seed", "none")]


@pytest.mark.parametrize("argument, bad", NOT_A_NUMBER_CASES)
def test_a_number_argument_that_is_no_finite_number_raises_a_class_from_errors(argument, bad):
    """A bool, text, ``None``, a nested list, NaN or +-inf, one argument at a time: exactly an ``errors`` class."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Exception) as info:
            NUMBER_ARGUMENTS[argument](NOT_NUMBERS[bad])
    assert type(info.value) in (errors.ContractError, errors.DomainError, errors.SingularityError), info.value
