from __future__ import annotations

import copy
import csv
import json
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dae_transport import ContractError, DomainError, FlowSchedule, Gaussian, ParticleEnsemble, Trajectory, density
from dae_transport.cli import (
    ConfigError,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SINGULAR,
    _density_curves,
    _laws,
    _located,
    _trajectory_svg,
    load_config,
    main,
)
from dae_transport.svg import SvgCanvas

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "dae_transport" / "configs"


def write_config(tmp_path: Path, doc: dict, name: str = "cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def base_trajectory_config(out: Path) -> dict:
    return {
        "name": "run",
        "distribution": {
            "dim": 2,
            "components": [{"weight": 1.0, "mean": [0.0, 0.0], "cov": [[2.0, 0.0], [0.0, 1.0]]}],
        },
        "mode": "composed",
        "schedule": {"taus": [0.1, 0.1]},
        "particles": {"n": 5, "seed": 3},
        "grid": {"per_axis": 3, "extent": 3.0},
        "outputs": {"dir": str(out), "formats": ["csv", "json", "svg"]},
    }


def read_csv_rows(path: Path) -> list[list[str]]:
    with path.open() as fh:
        return [row for row in csv.reader(ln for ln in fh if not ln.startswith("#"))]


# -- config validation ---------------------------------------------------------------


def test_missing_config_file_is_config_error(capsys):
    assert main(["trajectory", "--config", "/nonexistent/cfg.json"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_broken_json_reports_line_number(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "name": "x",\n  "mode": oops\n}\n')
    assert main(["trajectory", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 3" in err


def test_overlong_integer_is_config_error(tmp_path, capsys):
    # Python's json refuses integer literals over 4300 digits with a plain ValueError
    path = tmp_path / "bad.json"
    path.write_text('{"particles": {"n": ' + "1" * 5000 + "}}\n")
    assert main(["trajectory", "--config", str(path)]) == EXIT_CONFIG
    assert "config error at line 1: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, message",
    [
        (b'{\n  "a": 1,\n  "name": "x\xff"\n}\n', 3, "invalid UTF-8: byte 0xff"),
        (b'\xef\xbb\xbf{"name": "x"}\n', 1, "invalid JSON: Unexpected UTF-8 BOM"),
        (b'{"a": ' + b"[" * 5000 + b"]" * 5000 + b"}\n", 1, "invalid JSON: maximum recursion depth exceeded"),
    ],
    ids=["not_utf8", "utf8_bom", "nested_too_deep"],
)
def test_undecodable_config_is_config_error_at_its_line(tmp_path, capsys, text, line, message):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert main(["verify", "--config", str(path)]) == EXIT_CONFIG
    assert f"config error at line {line}: {message}" in capsys.readouterr().err


def test_zero_particles_is_config_error(tmp_path, capsys):
    doc = base_trajectory_config(tmp_path / "out")
    doc["particles"]["n"] = 0
    assert main(["trajectory", "--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG
    assert "line" in capsys.readouterr().err


def test_unknown_mode_is_config_error(tmp_path):
    doc = base_trajectory_config(tmp_path / "out")
    doc["mode"] = "warp"
    assert main(["trajectory", "--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG


def _set(doc: dict, path: tuple, value) -> dict:
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _panel(name: str, retrain: str, taus: list) -> dict:
    return {"name": name, "mode": "composed", "retrain": retrain, "schedule": {"taus": taus}}


MIXTURE_1D = {
    "dim": 1,
    "components": [{"weight": 0.5, "mean": [-1.0], "cov": [[1.0]]}, {"weight": 0.5, "mean": [1.0], "cov": [[1.0]]}],
}


@pytest.mark.parametrize(
    "mode, edits, key",
    [
        ("composed", {("schedule",): {"t_end": 0.4, "steps": 0}}, "steps"),
        ("one_shot", {("schedule",): {"t": "abc"}}, "t"),
        ("composed", {("particles", "n"): "x"}, "n"),
        ("composed", {("grid",): [1]}, "grid"),
        ("composed", {("panels",): [1]}, "panels"),
        ("continuous", {("schedule",): {"t_end": math.nan, "steps": 4}}, "t_end"),
        ("composed", {("retrain",): "bogus"}, "retrain"),
        # a run named "panels" must not be taken for the panels key
        ("composed", {("name",): "panels", ("panels",): [_panel("a", "analytic", [0.1]), _panel("b", "bogus", [0.1])]},
         "retrain"),
        ("composed", {("panels",): [_panel("a", "analytic", [0.1]), _panel("b", "analytic", [-0.1])]}, "taus"),
        ("composed", {("distribution",): MIXTURE_1D, ("retrain",): "analytic"}, "retrain"),
        # run and panel names prefix the output files, so they must stay inside the out dir
        ("composed", {("name",): "../escaped"}, "name"),
        ("composed", {("name",): "a/b"}, "name"),
        ("composed", {("name",): "a\\b"}, "name"),
        ("composed", {("name",): ""}, "name"),
        ("composed", {("name",): ".."}, "name"),
        ("composed", {("panels",): [_panel("a", "analytic", [0.1]), _panel("../b", "analytic", [0.1])]}, "name"),
        ("composed", {("panels",): [_panel(".", "analytic", [0.1])]}, "name"),
        # a check's bound is fixed: a tolerance table, well or badly formed, is an unknown key
        ("composed", {("tolerances",): {"backward_haet": 1.0}}, "tolerances"),
        ("composed", {("tolerances",): {"backward_heat": 1e-4, "time_reversal": -1.0}}, "tolerances"),
        # a one-panel config is named after its mode: a bad mode is reported at the mode, not as a name
        ("a/b", {}, "mode"),
        # a string value equal to the key is not the key
        ("composed", {("name",): "steps", ("schedule",): {"t_end": 0.4, "steps": 0}}, "steps"),
        ("composed", {("name",): "n", ("particles", "n"): 0}, "n"),
        # a same-named key in an earlier object is not the key of the object being read
        ("composed", {("schedule", "n"): 1, ("particles", "n"): 0}, "n"),
        # dim is a finite integral number: 1e400 reads as inf, and 2.5 is not truncated to 2
        ("composed", {("distribution", "dim"): math.inf}, "distribution"),
        ("composed", {("distribution", "dim"): 2.5}, "distribution"),
        # a nested "panels" key, with a brace in its string value, is not the root's panel list
        # (a distribution component's extra keys are the library's, which ignores them)
        ("composed",
         {("distribution", "components", 0, "panels"): "a{",
          ("panels",): [_panel("a", "analytic", [0.1]), _panel("b", "bogus", [0.1])]},
         "retrain"),
        # a schedule whose layers do not move the cumulative time is rejected by the library's FlowSchedule
        ("composed", {("schedule",): {"taus": [0.05, 1e-67]}}, "taus"),
        ("composed", {("schedule",): {"taus": [1e308, 1e308]}}, "taus"),
        ("composed", {("schedule",): {"t_end": 5e-324, "steps": 3}}, "t_end"),
        ("continuous", {("schedule",): {"t_end": 5e-324, "steps": 3}}, "t_end"),
        # the last time t_end * steps / steps of FlowSchedule.uniform overflows although t_end is finite
        ("one_shot", {("schedule",): {"t_end": 1e308, "steps": 2}}, "t_end"),
        ("continuous", {("schedule",): {"t_end": 1e308, "steps": 2}}, "t_end"),
        ("composed", {("schedule",): {"t_end": 1e308, "steps": 2}}, "t_end"),
        # one-shot times are judged by the library's orbit-time rule, at the key that holds them
        ("one_shot", {("schedule",): {"times": [0.5, 0.2]}}, "times"),
        # a key the config format does not know is an error, not silently ignored
        ("composed", {("particels",): {"n": 5}}, "particels"),
        ("composed", {("particles", "seeds"): 3}, "seeds"),
        ("composed", {("grid", "extnt"): 3.0}, "extnt"),
        ("composed", {("outputs", "format"): ["csv"]}, "format"),
        ("composed", {("schedule", "tau"): 0.1}, "tau"),
        ("continuous", {("schedule",): {"t_end": 0.4, "steps": 4, "times": [0.1]}}, "times"),
        ("composed", {("panels",): [_panel("a", "analytic", [0.1]), {**_panel("b", "analytic", [0.1]), "retrian": 1}]},
         "retrian"),
        # beside a panel list, a root panel key would be ignored
        (None, {("panels",): [_panel("a", "analytic", [0.1])], ("mode",): "continuous"}, "mode"),
        (None, {("panels",): [_panel("a", "analytic", [0.1])], ("schedule",): {"t_end": 0.2, "steps": 2}}, "schedule"),
        (None, {("panels",): [_panel("a", "analytic", [0.1])], ("retrain",): "empirical"}, "retrain"),
        # a schedule gives its times one way; a second time source would be ignored
        ("one_shot", {("schedule",): {"t": 0.5, "times": [0.1, 0.2, 0.3]}}, "times"),
        ("one_shot", {("schedule",): {"times": [0.1], "t_end": 0.4, "steps": 4}}, "t_end"),
        ("one_shot", {("schedule",): {"steps": 4, "t": 0.5, "t_end": 0.4}}, "t"),
        ("composed", {("schedule",): {"taus": [0.1], "t_end": 0.4, "steps": 4}}, "t_end"),
        ("composed", {("schedule",): {"t_end": 0.4, "steps": 4, "taus": [0.1]}}, "taus"),
        ("composed", {("schedule",): {"taus": [0.1], "steps": 4}}, "steps"),
    ],
    ids=[
        "steps_zero", "t_string", "n_string", "grid_list", "panels_list", "t_end_nan", "retrain_bogus",
        "second_panel_retrain", "second_panel_taus", "analytic_retrain_on_mixture",
        "name_escapes", "name_slash", "name_backslash", "name_empty", "name_dotdot",
        "second_panel_name_escapes", "panel_name_dot", "tolerance_unknown_name", "tolerance_negative",
        "mode_with_slash", "name_value_is_steps", "name_value_is_n", "n_in_an_earlier_object", "dim_overflow",
        "dim_fraction", "nested_panels_key", "taus_stuck", "taus_overflow", "composed_t_end_underflow", "continuous_t_end_underflow",
        "one_shot_t_end_overflow", "continuous_t_end_overflow", "composed_t_end_overflow",
        "one_shot_times_not_increasing", "unknown_root_key", "unknown_particles_key", "unknown_grid_key",
        "unknown_outputs_key", "unknown_schedule_key", "key_of_another_modes_schedule", "unknown_panel_key",
        "root_mode_beside_panels", "root_schedule_beside_panels", "root_retrain_beside_panels",
        "one_shot_t_and_times", "one_shot_times_and_t_end", "one_shot_t_end_and_t", "composed_taus_and_t_end",
        "composed_t_end_and_taus", "composed_taus_and_steps",
    ],
)
def test_malformed_field_is_config_error_at_its_line(tmp_path, mode, edits, key):
    doc = base_trajectory_config(tmp_path / "out")
    if mode is None:  # no root panel; a row may give a root panel key after its panel list
        del doc["mode"], doc["schedule"]
    else:
        _set(doc, ("mode",), mode)
    for path, value in edits.items():
        _set(doc, path, value)
    cfg = write_config(tmp_path, doc)
    cfg.write_text(cfg.read_text().replace("Infinity", "1e400"))  # a JSON file spells inf as an overflowing number
    # the key's last line: in the panel rows, the first panel's same key is valid
    line = [i for i, ln in enumerate(cfg.read_text().splitlines(), 1) if f'"{key}"' in ln][-1]
    proc = subprocess.run(
        [sys.executable, "-m", "dae_transport", "trajectory", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_CONFIG
    assert f"config error at line {line}:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]  # nothing written, in or out of the out dir


@pytest.mark.parametrize("taus", [[200.0], [1e308]], ids=["long", "huge"])
def test_trajectory_svg_midpoints_stay_bounded(tmp_path, taus):
    # midpoints come every max(0.2, T / 50) time units: about 50 of them for any T, however long
    doc = base_trajectory_config(tmp_path / "out")
    doc["schedule"] = {"taus": taus}
    proc = subprocess.run(
        [sys.executable, "-m", "dae_transport", "trajectory", "--config", str(write_config(tmp_path, doc))],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK
    svg = ET.parse(tmp_path / "out" / "run_composed.svg")
    marks = [el for el in svg.iter() if el.tag.endswith("circle")]
    assert 0 < len(marks) <= 51 * 14  # 14 particles: 3 x 3 grid and 5 samples
    assert (tmp_path / "out" / "run_composed.svg").stat().st_size < 100_000


def _marks_one_at_a_time(traj: Trajectory) -> tuple[list[float], list[np.ndarray]]:
    """The orbit chart's mark times and midpoints as a loop over marks made them, each mark alone."""
    times, stack = np.asarray(traj.times), np.concatenate([traj.initial.points[None], traj.layers])
    mark_times, marks = [], []
    t_mark = spacing = max(0.2, traj.times[-1] / 50)
    while t_mark < traj.times[-1] + 1e-12:
        j = int(np.searchsorted(times, t_mark, side="right"))
        if j >= len(times):
            marks.append(stack[-1])
        else:
            w = (t_mark - times[j - 1]) / (times[j] - times[j - 1])
            marks.append((1.0 - w) * stack[j - 1] + w * stack[j])
        mark_times.append(t_mark)
        t_mark += spacing
    return mark_times, marks


def test_trajectory_svg_marks_equal_the_per_mark_loop_bit_for_bit(monkeypatch):
    drawn = []
    monkeypatch.setattr(SvgCanvas, "points", lambda self, xs, ys, **style: drawn.append(np.stack([xs, ys], 1)))
    rng = np.random.default_rng(31)
    # a one-time (partial) trajectory; a last mark 5e-13 past the last time; marks on the recorded times
    schedules = [[], [0.3, 0.3 - 5e-13], [0.2] * 5]
    schedules += [rng.exponential(10.0 ** rng.uniform(-2, 3), rng.integers(1, 8)).tolist() for _ in range(200)]
    n_grid, seen = 3, set()
    for taus in schedules:
        times = (0.0, *np.cumsum(taus).tolist())
        stack = rng.normal(size=(len(times), 8, 2))
        rows = np.zeros((len(times), 2))
        traj = Trajectory(times, ParticleEnsemble(stack[0], 0), stack[1:], rows, rows)
        drawn.clear()
        _trajectory_svg(traj, n_grid, 3.0, "orbit")
        mark_times, marks = _marks_one_at_a_time(traj)
        assert [d.tobytes() for d in drawn] == [half.tobytes() for p in marks for half in (p[:n_grid], p[n_grid:])]
        seen.add("none" if not marks else "past the end" if mark_times[-1] > times[-1] else "within")
    assert seen == {"none", "past the end", "within"}


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in the JSON output")


@pytest.mark.parametrize(
    "mode, schedule", [("composed", {"taus": [1.0]}), ("one_shot", {"times": [1e308]})], ids=["composed", "one_shot"]
)
def test_huge_covariance_runs_write_finite_moments_without_warnings(tmp_path, mode, schedule):
    # N(0, 1e308): the particles' sum of squares overflows, their covariance (about 1e308) does not; smoothing
    # the measure by t = 1e308 would overflow, the closed-form one-shot map does not
    doc = base_trajectory_config(tmp_path / "out")
    doc["distribution"] = {"dim": 1, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1e308]]}]}
    doc.update(mode=mode, schedule=schedule, grid={"per_axis": 3, "extent": 3.0})
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dae_transport", "trajectory",
         "--config", str(write_config(tmp_path, doc))],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    records = json.loads((tmp_path / "out" / f"run_{mode}_diagnostics.json").read_text(),
                         parse_constant=_reject_constant)["records"]
    assert len(records) == 2 and records[0]["cov"][0][0] > 1e307


def test_collapsing_empirical_flow_writes_the_collapsed_rows_without_warnings(tmp_path):
    # 8 layers of 0.25, past the horizon 0.25, collapse each basin to a point: its Silverman covariance is flat
    doc = base_trajectory_config(tmp_path / "out")
    cov = [[0.5, 0.0], [0.0, 0.5]]
    doc["distribution"] = {"dim": 2, "components": [{"weight": 0.5, "mean": [-2.0, 0.0], "cov": cov},
                                                    {"weight": 0.5, "mean": [2.0, 0.5], "cov": cov}]}
    doc.update(schedule={"taus": [0.25] * 8}, retrain="empirical", particles={"n": 200, "seed": 0},
               grid={"per_axis": 1, "extent": 1e-9})
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dae_transport", "trajectory",
         "--config", str(write_config(tmp_path, doc))],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    records = json.loads((tmp_path / "out" / "run_composed_diagnostics.json").read_text())["records"]
    rows = [[r["entropy"], r["entropy_stderr"], r["renyi2"], r["renyi2_stderr"]] for r in records]
    assert len(rows) == 9 and all(map(math.isfinite, rows[0])) and rows[-1] == [-math.inf, 0.0, math.inf, 0.0]


def _config_with(extent_key: str, value: float, out: Path) -> dict:
    """A 1-D N(0, 1) run whose ``grid`` holds ``extent_key`` = ``value`` and 3 points an axis."""
    doc = base_trajectory_config(out)
    doc["distribution"] = {"dim": 1, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]}
    doc["grid"] = {"per_axis": 3, "points": 401, extent_key: value}
    return doc


@pytest.mark.parametrize(
    "command, key, value",
    [("trajectory", "extent", 1e308), ("trajectory", "extent", 5e307),
     ("pushforward", "curve_extent", 1e308), ("pushforward", "curve_extent", 1e200)],
    ids=["extent_step_overflows", "extent_covariance_overflows", "curve_step_overflows", "curve_covariance_overflows"],
)
def test_lattice_that_is_not_finite_is_config_error_at_its_key_without_warnings(tmp_path, command, key, value):
    cfg = write_config(tmp_path, _config_with(key, value, tmp_path / "out"))
    line = next(i for i, ln in enumerate(cfg.read_text().splitlines(), 1) if f'"{key}"' in ln)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dae_transport", command, "--config", str(cfg)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith(f"config error at line {line}: a lattice of extent {value!r}"), proc.stderr
    assert "not finite" in proc.stderr and "Traceback" not in proc.stderr


def test_lattice_at_the_edge_of_a_finite_covariance_runs_without_warnings(tmp_path):
    # [-1e154, 0, 1e154] has sample variance 1e308, just below the largest float
    cfg = write_config(tmp_path, _config_with("extent", 1e154, tmp_path / "out"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dae_transport", "trajectory", "--config", str(cfg)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    json.loads((tmp_path / "out" / "run_composed_diagnostics.json").read_text(), parse_constant=_reject_constant)


GAUSSIAN_3D = {"dim": 3, "components": [{"weight": 1.0, "mean": [0.0] * 3, "cov": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]}]}


def _changed(**changes):
    """An edit of the base config that sets each key of ``changes``, or drops it where the value is None."""
    def edit(doc: dict) -> dict:
        for key, value in changes.items():
            doc.pop(key) if value is None else doc.update({key: value})
        return doc
    return edit


# command, edit of the base config, key whose line is reported (None: line 1), message
TYPED_CONFIG_ERRORS = {
    "pushforward_no_distribution": (
        "pushforward", _changed(distribution=None), None, "pushforward command needs a 'distribution'"),
    "pushforward_no_mode": (
        "pushforward", _changed(mode=None, schedule=None), None, "pushforward command needs 'mode' and 'schedule'"),
    "pushforward_mixture": (
        "pushforward", _changed(distribution=MIXTURE_1D), "distribution",
        "pushforward command needs a single-Gaussian distribution"),
    "pushforward_3d": (
        "pushforward", _changed(distribution=GAUSSIAN_3D), "distribution",
        "pushforward command supports 1-D densities and 2-D diagonal charts"),
    "pushforward_2d_one_shot": (
        "pushforward", _changed(mode="one_shot", schedule={"t": 0.5}), "mode",
        "the 2-D abstract chart needs a composed schedule for the overlay"),
    "pushforward_2d_one_shot_panel": (
        "pushforward", _changed(mode=None, schedule=None, panels=[{"mode": "one_shot", "schedule": {"t": 0.5}}]),
        "mode", "the 2-D abstract chart needs a composed schedule for the overlay"),
    "trajectory_no_distribution": (
        "trajectory", _changed(distribution=None), None, "trajectory command needs a 'distribution'"),
    "trajectory_no_mode": (
        "trajectory", _changed(mode=None, schedule=None), None, "trajectory command needs 'mode' or 'panels'"),
    "schedule_string": ("trajectory", _changed(schedule="x"), "schedule", "schedule must be an object"),
    "composed_schedule_without_times": (
        "trajectory", _changed(schedule={"steps": 2}), "schedule", "composed schedule needs 'taus' or ('t_end','steps')"),
    "panels_empty": ("trajectory", _changed(mode=None, schedule=None, panels=[]), "panels", "panels must be a nonempty list"),
    "root_array": ("trajectory", lambda doc: [doc], None, "config root must be a JSON object"),
}


@pytest.mark.parametrize("case", sorted(TYPED_CONFIG_ERRORS))
def test_config_a_command_cannot_run_is_config_error(tmp_path, capsys, case):
    command, edit, key, message = TYPED_CONFIG_ERRORS[case]
    cfg = write_config(tmp_path, edit(base_trajectory_config(tmp_path / "out")))
    line = 1 if key is None else next(i for i, ln in enumerate(cfg.read_text().splitlines(), 1) if f'"{key}"' in ln)
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error at line {line}: {message}\n"


def test_output_directory_that_is_a_file_is_config_error(tmp_path, capsys):
    (tmp_path / "taken").write_text("x")
    cfg = write_config(tmp_path, base_trajectory_config(tmp_path / "taken"))
    assert main(["trajectory", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error at line 1: cannot write outputs: ")


@pytest.mark.parametrize("error", [ContractError, DomainError])
def test_a_library_error_raised_mid_run_is_a_run_error_without_a_line(tmp_path, capsys, monkeypatch, error):
    import dae_transport.cli as cli_mod

    def boom(*args, **kwargs):
        raise error("synthetic failure")

    monkeypatch.setattr(cli_mod, "compose", boom)
    cfg = write_config(tmp_path, base_trajectory_config(tmp_path / "out"))
    assert main(["trajectory", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"run error: {error.__name__}: synthetic failure\n"


def test_one_shot_orbit_at_a_single_time_runs(tmp_path):
    doc = _changed(mode="one_shot", schedule={"t": 0.5})(base_trajectory_config(tmp_path / "out"))
    assert main(["trajectory", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    rows = read_csv_rows(tmp_path / "out" / "run_one_shot.csv")[1:]
    assert sorted({row[0] for row in rows}) == ["0.0", "0.5"]


CONFIG_KEYS = (
    "name", "distribution", "dim", "components", "weight", "mean", "cov", "mode", "schedule", "t", "times",
    "taus", "t_end", "steps", "retrain", "particles", "n", "seed", "grid", "per_axis", "extent", "points",
    "curve_extent", "outputs", "dir", "formats", "panels", "tolerances", "time_reversal",
)
# |x| <= 1e3 keeps every schedule small; inf and NaN are the non-finite inputs JSON can carry
NUMBERS = st.one_of(st.integers(-1000, 1000), st.floats(-1e3, 1e3), st.sampled_from([math.inf, -math.inf, math.nan]))
# small, so that a command run on an edited bundled config stays quick
SMALL_NUMBERS = st.one_of(st.integers(-3, 40), st.floats(-3, 3), st.sampled_from([math.inf, -math.inf, math.nan]))
WORDS = st.sampled_from(["composed", "one_shot", "continuous", "svg", "{"])
KEYS = st.one_of(st.sampled_from(CONFIG_KEYS), st.text(max_size=6))


def _leaves(numbers):
    """Scalar and nested JSON values whose numbers are drawn from ``numbers``."""
    scalars = st.one_of(st.none(), st.booleans(), numbers, WORDS, st.text(max_size=6))
    return scalars, st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=5), max_leaves=24
    )


SCALARS, VALUES = _leaves(NUMBERS)
SMALL_VALUES = _leaves(SMALL_NUMBERS)[1]


@st.composite
def _mutated(draw, value):
    """A bundled config value with each leaf kept or redrawn, and up to one random key added to each object."""
    if isinstance(value, dict):
        return {**{k: draw(_mutated(v)) for k, v in value.items()}, **draw(st.dictionaries(KEYS, VALUES, max_size=1))}
    if isinstance(value, list):
        return [draw(_mutated(v)) for v in value]
    return draw(st.one_of(st.just(value), NUMBERS if isinstance(value, (int, float)) else SCALARS))


def _containers(value) -> list:
    """Every nonempty object and list in a JSON value."""
    members = list(value.values()) if isinstance(value, dict) else value if isinstance(value, list) else []
    return ([value] if members else []) + [c for m in members for c in _containers(m)]


@st.composite
def _edited(draw, doc):
    """A bundled config with one to three members, old or new, set to small values.

    Few edits and an intact distribution, unlike :func:`_mutated`, so that many configs pass the config check.
    """
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        targets = [doc, *(c for key, value in doc.items() if key != "distribution" for c in _containers(value))]
        target = draw(st.sampled_from(targets))
        keys = st.sampled_from(list(target)) | KEYS if isinstance(target, dict) else st.integers(0, len(target) - 1)
        target[draw(keys)] = draw(SMALL_NUMBERS | SMALL_VALUES)
    return doc


BUNDLED = [json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))]
DOCUMENTS = st.one_of(st.dictionaries(KEYS, VALUES, max_size=8), st.sampled_from(BUNDLED).flatmap(_mutated))


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=DOCUMENTS)
def test_load_config_returns_or_reports_a_line(tmp_path, doc):
    cfg = write_config(tmp_path, doc)
    try:
        load_config(cfg, None, None)
    except ConfigError as exc:
        assert 1 <= exc.line <= len(cfg.read_text().splitlines())


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.sampled_from(BUNDLED).flatmap(_edited), command=st.sampled_from(["trajectory", "pushforward"]))
def test_commands_on_edited_configs_end_in_a_documented_exit_code(tmp_path, capsys, doc, command):
    # an uncaught exception fails the test; the run writes only under tmp_path
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) in (
        EXIT_OK, EXIT_CONFIG, EXIT_CHECK, EXIT_SINGULAR)
    capsys.readouterr()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(doc=DOCUMENTS)
def test_located_decode_equals_json_and_knows_its_key_lines(doc):
    text = json.dumps(doc, indent=2)
    value, end = _located(text, 0)
    assert end == len(text)
    assert json.dumps(value) == json.dumps(json.loads(text))  # dumped, so NaN compares equal
    lines, objects = text.splitlines(), [value]
    while objects:
        obj = objects.pop()
        if isinstance(obj, list):
            objects += obj
        elif isinstance(obj, dict):
            for key, item in obj.items():
                assert re.match(r"\s+" + re.escape(json.dumps(key) + ":"), lines[obj.line(key) - 1])
                objects.append(item)


def test_located_object_keeps_the_last_copy_of_a_key_and_reports_a_missing_key_at_its_brace():
    doc, _ = _located('{\n "a": 1,\n "b": {\n  "c": 2\n },\n "a": 3\n}', 0)
    assert doc == {"a": 3, "b": {"c": 2}}
    assert (doc.line("a"), doc.line("missing"), doc["b"].line("c"), doc["b"].line("missing")) == (6, 1, 4, 3)


def test_bad_run_name_after_the_panels_is_reported_at_its_own_line(tmp_path, capsys):
    doc = base_trajectory_config(tmp_path / "out")
    del doc["name"], doc["mode"], doc["schedule"]
    doc["panels"] = [_panel("a", "analytic", [0.1])]
    doc["name"] = "../escaped"
    cfg = write_config(tmp_path, doc)
    line = [i for i, ln in enumerate(cfg.read_text().splitlines(), 1) if '"../escaped"' in ln][0]
    assert main(["trajectory", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"config error at line {line}:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_one_shot_schedule_needs_single_t(tmp_path):
    doc = base_trajectory_config(tmp_path / "out")
    doc["mode"] = "one_shot"
    doc["schedule"] = {"taus": [0.1]}
    assert main(["trajectory", "--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG


# -- trajectory command -----------------------------------------------------------------


def test_trajectory_writes_all_formats(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_trajectory_config(out))
    assert main(["trajectory", "--config", str(cfg)]) == EXIT_OK
    csv_path = out / "run_composed.csv"
    rows = read_csv_rows(csv_path)
    assert rows[0] == ["time", "particle_id", "x1", "x2"]
    n_particles = 3 * 3 + 5
    assert len(rows) - 1 == 3 * n_particles  # t = 0, 0.1, 0.2
    doc = json.loads((out / "run_composed_diagnostics.json").read_text())
    assert doc["particles"] == {"grid": 9, "samples": 5}
    ET.parse(out / "run_composed.svg")


def test_trajectory_deterministic_across_runs(tmp_path):
    doc = base_trajectory_config(tmp_path / "a")
    cfg = write_config(tmp_path, doc)
    assert main(["trajectory", "--config", str(cfg)]) == EXIT_OK
    assert main(["trajectory", "--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("run_composed.csv", "run_composed.svg", "run_composed_diagnostics.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_trajectory_seed_override_changes_samples(tmp_path):
    doc = base_trajectory_config(tmp_path / "a")
    cfg = write_config(tmp_path, doc)
    assert main(["trajectory", "--config", str(cfg)]) == EXIT_OK
    assert main(["trajectory", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "b")]) == EXIT_OK
    a = (tmp_path / "a" / "run_composed.csv").read_bytes()
    b = (tmp_path / "b" / "run_composed.csv").read_bytes()
    assert a != b


def test_trajectory_singular_horizon_exits_3_with_partial_output(tmp_path, capsys):
    out = tmp_path / "out"
    doc = base_trajectory_config(out)
    doc["mode"] = "continuous"
    doc["schedule"] = {"t_end": 0.6, "steps": 6}  # past the singular time 0.5
    cfg = write_config(tmp_path, doc)
    assert main(["trajectory", "--config", str(cfg)]) == EXIT_SINGULAR
    assert "singularity" in capsys.readouterr().err
    rows = read_csv_rows(out / "run_continuous.csv")
    assert len(rows) > 1  # partial (initial state) still written
    # the initial state is a known Gaussian, so its diagnostics are closed form
    (record,) = json.loads((out / "run_continuous_diagnostics.json").read_text())["records"]
    assert math.isfinite(record["renyi2"]) and record["renyi2_stderr"] == 0.0


def test_result_files_end_lines_in_lf_only(tmp_path):
    traj = base_trajectory_config(tmp_path / "traj")
    traj["mode"] = "continuous"
    traj["schedule"] = {"t_end": 0.6, "steps": 6}  # past the singular time: partial output
    assert main(["trajectory", "--config", str(write_config(tmp_path, traj, "traj.json"))]) == EXIT_SINGULAR
    assert main(["trajectory", "--config", str(CONFIG_DIR / "fig2.json"), "--out", str(tmp_path / "fig2")]) == EXIT_OK
    for fig in ("fig1", "fig3"):
        argv = ["pushforward", "--config", str(CONFIG_DIR / f"{fig}.json"), "--out", str(tmp_path / fig)]
        assert main(argv) == EXIT_OK
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file() and p.parent != tmp_path)
    assert {p.suffix for p in files} == {".csv", ".json", ".svg"}
    for path in files:
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), path.name


def test_trajectory_multi_panel(tmp_path):
    out = tmp_path / "out"
    doc = base_trajectory_config(out)
    del doc["mode"]
    del doc["schedule"]
    doc["panels"] = [
        {"name": "a", "mode": "composed", "schedule": {"taus": [0.1]}},
        {"name": "b", "mode": "one_shot", "schedule": {"times": [0.5, 1.0]}},
    ]
    cfg = write_config(tmp_path, doc)
    assert main(["trajectory", "--config", str(cfg)]) == EXIT_OK
    assert (out / "run_a.csv").is_file()
    assert (out / "run_b.csv").is_file()


# -- pushforward command -------------------------------------------------------------------


def test_pushforward_one_dim_densities(tmp_path):
    out = tmp_path / "out"
    doc = {
        "name": "narrow",
        "distribution": {"dim": 1, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]},
        "mode": "one_shot",
        "schedule": {"times": [0.5, 1.0]},
        "grid": {"points": 201, "curve_extent": 4.0},
        "outputs": {"dir": str(out), "formats": ["csv", "svg"]},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["pushforward", "--config", str(cfg)]) == EXIT_OK
    rows = read_csv_rows(out / "narrow_densities.csv")
    assert rows[0] == ["time", "x", "density"]
    by_time: dict[str, list[float]] = {}
    for t, x, d in rows[1:]:
        by_time.setdefault(t, []).append(float(d))
    assert set(by_time) == {"0.0", "0.5", "1.0"}
    # pushforward variances 1, 1/1.5^2, 1/4: peaks grow as curves narrow
    assert max(by_time["0.0"]) < max(by_time["0.5"]) < max(by_time["1.0"])
    ET.parse(out / "narrow_densities.svg")


def _underflow_config(out: Path) -> dict:
    """fig1 at one time, 1e308, where the one-shot variance underflows to 0."""
    doc = json.loads((CONFIG_DIR / "fig1.json").read_text())
    doc["schedule"] = {"times": [1e308]}
    doc["outputs"]["dir"] = str(out)
    return doc


def test_pushforward_reports_an_underflowed_one_shot_variance_as_such(tmp_path, capsys):
    # the one-shot map is never singular: a zero variance is an underflow, not the continuous critical time
    out = tmp_path / "out"
    cfg = write_config(tmp_path, _underflow_config(out))
    assert main(["pushforward", "--config", str(cfg)]) == EXIT_SINGULAR
    err = capsys.readouterr().err
    assert "warning: pushforward variance underflows to 0 at t=1e+308" in err
    assert "singular" not in err and "critical time" not in err
    assert {row[0] for row in read_csv_rows(out / "fig1_densities.csv")[1:]} == {"0.0"}  # the curve is left out
    assert main(["trajectory", "--config", str(cfg)]) == EXIT_OK  # no overflow smoothing by 1e308
    assert capsys.readouterr().err == ""


def test_pushforward_reports_the_continuous_critical_time(tmp_path, capsys):
    out = tmp_path / "out"
    doc = _underflow_config(out)
    doc["mode"], doc["schedule"] = "continuous", {"t_end": 0.6, "steps": 6}  # t = 0.5 is the singular time
    assert main(["pushforward", "--config", str(write_config(tmp_path, doc))]) == EXIT_SINGULAR
    err = capsys.readouterr().err
    assert "warning: pushforward singular at t=0.5 (critical time 0.5)" in err
    assert "warning: pushforward singular at t=0.6 (critical time 0.5)" in err
    assert len({row[0] for row in read_csv_rows(out / "fig1_densities.csv")[1:]}) == 5  # t = 0 and four curves


def test_pushforward_rejects_a_second_panel_at_the_panels_line(tmp_path, capsys):
    # pushforward draws one panel; a second one would be left out of its output
    panels = [{"name": n, "mode": "one_shot", "schedule": {"times": [t]}} for n, t in (("a", 0.5), ("b", 1.0))]
    doc = {
        "name": "two",
        "distribution": {"dim": 1, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]},
        "panels": panels,
        "outputs": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, doc)
    line = next(i for i, ln in enumerate(cfg.read_text().splitlines(), 1) if '"panels"' in ln)
    assert main(["pushforward", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"config error at line {line}: pushforward command draws one panel, got 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    doc["panels"] = panels[:1]
    assert main(["pushforward", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK


def test_pushforward_peak_matches_closed_form_variances(tmp_path):
    out = tmp_path / "out"
    doc = {
        "name": "peaks",
        "distribution": {"dim": 1, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]},
        "mode": "one_shot",
        "schedule": {"times": [0.5, 1.0]},
        "grid": {"points": 801, "curve_extent": 4.0},
        "outputs": {"dir": str(out), "formats": ["csv"]},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["pushforward", "--config", str(cfg)]) == EXIT_OK
    rows = read_csv_rows(out / "peaks_densities.csv")[1:]
    import math

    peaks = {}
    for t, x, d in rows:
        peaks[t] = max(peaks.get(t, 0.0), float(d))
    for t, var in (("0.5", 1.0 / 1.5**2), ("1.0", 0.25)):
        assert peaks[t] == pytest.approx(1.0 / math.sqrt(2 * math.pi * var), rel=1e-6)


def test_laws_are_the_library_pushforwards_bit_for_bit():
    g = Gaussian.from_cov([[2.0, 0.3], [0.3, 1.0]], [0.5, -1.0])
    flow = FlowSchedule((0.1, 0.25, 0.05))
    composed = _laws(g, "composed", flow)
    assert [t for t, _ in composed] == [0.0, *flow.times]
    assert np.array([h.evals for _, h in composed]).tobytes() == g.composed(flow.taus).tobytes()
    times = (0.1, 0.3)
    for mode, push in (("one_shot", g.one_shot), ("continuous", g.continuous)):
        laws = _laws(g, mode, times)
        assert laws[0] == (0.0, g) and [t for t, _ in laws] == [0.0, *times]
        for (_, h), t in zip(laws[1:], times):
            assert h.evals.tobytes() == push(t).evals.tobytes() and h.evecs is g.evecs and h.mean is g.mean


@pytest.mark.parametrize("mode, schedule", [("one_shot", {"times": [0.5]}), ("composed", {"taus": [0.5]}),
                                            ("continuous", {"t_end": 0.1, "steps": 2})])
def test_density_curves_start_at_the_config_density_bit_for_bit(tmp_path, mode, schedule):
    doc = {
        "distribution": {"dim": 1, "components": [{"weight": 1.0, "mean": [0.3], "cov": [[0.37]]}]},
        "mode": mode,
        "schedule": schedule,
    }
    cfg = load_config(write_config(tmp_path, doc), None, str(tmp_path / "out"))
    curves, singular = _density_curves(cfg, cfg.panels[0])
    assert not singular and curves[0][0] == 0.0 and len(curves) > 1
    assert curves[0][1].tobytes() == np.asarray(density(cfg.mixture, cfg.curve)).tobytes()


def test_pushforward_abstract_chart(tmp_path):
    out = tmp_path / "out"
    doc = {
        "name": "chart",
        "distribution": {
            "dim": 2,
            "components": [{"weight": 1.0, "mean": [0.0, 0.0], "cov": [[2.0, 0.0], [0.0, 1.0]]}],
        },
        "mode": "composed",
        "schedule": {"taus": [0.05] * 8},
        "outputs": {"dir": str(out), "formats": ["csv", "svg"]},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["pushforward", "--config", str(cfg)]) == EXIT_OK
    rows = read_csv_rows(out / "chart_abstract.csv")
    assert rows[0] == ["time", "sigma1", "sigma2", "entropy", "source"]
    sources = {r[4] for r in rows[1:]}
    assert sources == {"continuous", "one_shot", "composed"}
    # continuous endpoint: sigma(t) = sqrt(sigma0^2 - 2t) hits (sqrt(1.2), sqrt(0.2)) at t = 0.4
    cont = [r for r in rows[1:] if r[4] == "continuous"]
    import math

    row_04 = min(cont, key=lambda r: abs(float(r[0]) - 0.4))
    t_row = float(row_04[0])
    assert float(row_04[1]) == pytest.approx(math.sqrt(2.0 - 2 * t_row), rel=1e-9)
    assert float(row_04[2]) == pytest.approx(math.sqrt(1.0 - 2 * t_row), rel=1e-9)
    ET.parse(out / "chart_abstract.svg")


def test_pushforward_rejects_correlated_chart(tmp_path, capsys):
    out = tmp_path / "out"
    doc = {
        "name": "bad",
        "distribution": {
            "dim": 2,
            "components": [{"weight": 1.0, "mean": [0.0, 0.0], "cov": [[1.0, 0.3], [0.3, 1.0]]}],
        },
        "mode": "composed",
        "schedule": {"taus": [0.05]},
        "outputs": {"dir": str(out), "formats": ["csv"]},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["pushforward", "--config", str(cfg)]) == EXIT_CONFIG
    assert "diagonal" in capsys.readouterr().err


def test_pushforward_rejects_a_stuck_schedule_at_its_line(tmp_path, capsys):
    # trajectory's side is a row of test_malformed_field_is_config_error_at_its_line; a cumulative time that
    # overflows to inf is as bad as one that does not move
    for taus, moves in (([0.05, 1e-67], "1e-67 moves the time from 0.05 to 0.05"),
                        ([1e308, 1e308], "1e+308 moves the time from 1e+308 to inf")):
        doc = base_trajectory_config(tmp_path / "out")
        doc["schedule"] = {"taus": taus}
        cfg = write_config(tmp_path, doc)
        line = next(i for i, ln in enumerate(cfg.read_text().splitlines(), 1) if '"taus"' in ln)
        assert main(["pushforward", "--config", str(cfg)]) == EXIT_CONFIG
        message = f"cumulative times must strictly increase and stay finite: layer 1 variance {moves}"
        assert f"config error at line {line}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# -- verify command -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def verify_runs(tmp_path_factory):
    """Run the verify command twice with one seed, once with another."""
    root = tmp_path_factory.mktemp("verify")
    doc = {"name": "v", "outputs": {"dir": str(root / "a"), "formats": ["json"]}}
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(doc) + "\n")
    codes = [
        main(["verify", "--config", str(cfg)]),
        main(["verify", "--config", str(cfg), "--out", str(root / "b")]),
        main(["verify", "--config", str(cfg), "--seed", "5", "--out", str(root / "c")]),
    ]
    return root, codes


def test_verify_passes_and_writes_manifest(verify_runs):
    root, codes = verify_runs
    assert codes[0] == EXIT_OK
    manifest = json.loads((root / "a" / "v_manifest.json").read_text())
    assert manifest["overall_passed"] is True
    assert len(manifest["checks"]) >= 6
    names = {c["name"] for c in manifest["checks"]}
    assert "backward_heat_one_shot_negative_control" in names
    for check in manifest["checks"]:
        expected = check["name"] in manifest["expected_failures"]
        assert check["passed"] != expected


def test_verify_manifest_byte_identical(verify_runs):
    root, codes = verify_runs
    assert codes[1] == EXIT_OK
    a = (root / "a" / "v_manifest.json").read_bytes()
    b = (root / "b" / "v_manifest.json").read_bytes()
    assert a == b


def test_verify_other_seed_same_verdicts_different_residuals(verify_runs):
    root, codes = verify_runs
    assert codes[2] == EXIT_OK
    base = json.loads((root / "a" / "v_manifest.json").read_text())
    other = json.loads((root / "c" / "v_manifest.json").read_text())
    base_by = {c["name"]: c for c in base["checks"]}
    changed = False
    for check in other["checks"]:
        assert check["passed"] == base_by[check["name"]]["passed"]
        if check["max_abs"] != base_by[check["name"]]["max_abs"]:
            changed = True
    assert changed


def test_verify_tightened_tolerance_fails(tmp_path, monkeypatch):
    from dae_transport import verify

    monkeypatch.setitem(verify.TOLERANCES, "variational_minimizer", 1e-12)
    monkeypatch.setitem(verify.TOLERANCES, "continuity_t0_mixture", 1e-12)
    doc = {
        "name": "strict",
        "outputs": {"dir": str(tmp_path / "out"), "formats": ["json"]},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", str(cfg)]) == EXIT_CHECK
    manifest = json.loads((tmp_path / "out" / "strict_manifest.json").read_text())
    assert manifest["overall_passed"] is False


# -- bundled figure configs -------------------------------------------------------------------


def test_readme_example_config_loads_and_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("Config is a single JSON document:")[1].split("```json\n")[1].split("```")[0]
    cfg = tmp_path / "run.json"
    cfg.write_text(example)
    assert load_config(cfg, None, None).name == "run"
    assert main(["trajectory", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert (tmp_path / "out" / "run_composed.csv").is_file()


def test_bundled_configs_exist():
    for name in ("fig1", "fig2", "fig3"):
        assert (CONFIG_DIR / f"{name}.json").is_file()


def test_fig2_config_produces_four_panels_of_outputs(tmp_path):
    out = tmp_path / "fig2"
    assert main(["trajectory", "--config", str(CONFIG_DIR / "fig2.json"), "--out", str(out)]) == EXIT_OK
    assert len(list(out.glob("*.csv"))) == 4
    assert len(list(out.glob("*.svg"))) == 4
    assert len(list(out.glob("*_diagnostics.json"))) == 4


def test_verify_crash_maps_to_exit_4(tmp_path, monkeypatch):
    import dae_transport.cli as cli_mod

    def boom(seed=0):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(cli_mod, "default_checks", boom)
    cfg = write_config(tmp_path, {"name": "x", "outputs": {"dir": str(tmp_path / "o")}})
    assert main(["verify", "--config", str(cfg)]) == 4


def test_module_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dae_transport", "verify", "--config", str(tmp_path / "missing.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "config error" in proc.stderr


def test_fig2_has_four_panels():
    doc = json.loads((CONFIG_DIR / "fig2.json").read_text())
    assert len(doc["panels"]) == 4
    modes = [p["mode"] for p in doc["panels"]]
    assert modes.count("composed") == 2
    assert "continuous" in modes and "one_shot" in modes
