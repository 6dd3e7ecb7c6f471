"""The package export list: every name resolves, none is listed twice, removed names stay gone."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import dae_transport
from dae_transport import cli, measures, pushforward, svg, transport, verify

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
