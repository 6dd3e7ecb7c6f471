"""Config-driven experiment runner.

Three subcommands, one JSON config format::

    dae-transport trajectory  --config FILE [--seed N] [--out DIR]
    dae-transport pushforward --config FILE [--seed N] [--out DIR]
    dae-transport verify      --config FILE [--seed N] [--out DIR]

Exit codes: 0 success, 1 config error or run error, 2 check failure, 3 runtime
singularity (with partial output), 4 internal check crash.  A run error is a ``ContractError``
or ``DomainError`` raised once the config has loaded: ``run error: <type>: <message>``, no line.

Outputs are deterministic given (config, seed): no timestamps, and every
file goes through the one writer in :mod:`dae_transport.svg` (shortest
round-trip floats, sorted JSON keys, ``\n`` line endings).

A rule the library owns (schedules, times, retrain modes, lattices) is
asked of its owner by :func:`_library_check`, at the key's line.  A key the
config format does not know is a config error at its line (:func:`_known`);
a ``distribution``'s own keys are the library's to judge.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DomainError, SingularityError
from .measures import Gaussian, GaussianMixture, ParticleEnsemble, density, sample
from .svg import SvgCanvas, write_csv, write_json
from .transport import FlowSchedule, Trajectory, _orbit_times, _retrain_mode, compose, continuous_flow, one_shot_orbit
from .verify import EXPECTED_FAILURES, default_checks, probe_lattice

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK = 2
EXIT_SINGULAR = 3
EXIT_CRASH = 4

_MODES = ("one_shot", "composed", "continuous")
_PANEL_KEYS = ("name", "mode", "schedule", "retrain")
_SCHEDULE_KEYS = {"one_shot": ("t", "times", "t_end", "steps"), "composed": ("taus", "t_end", "steps"),
                  "continuous": ("t_end", "steps")}
_FORMATS = ("csv", "json", "svg")

_SAMPLE_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf", "#8c564b")
_DIAG_TOL = 1e-9  # off-diagonal tolerance of the (sigma1, sigma2) chart


class ConfigError(Exception):
    def __init__(self, message: str, line: int = 1):
        super().__init__(message)
        self.line = line


_DECODE = json.JSONDecoder().raw_decode
_SKIP = re.compile(r"[ \t\n\r,:]*").match  # in valid JSON only whitespace, ',' and ':' lie between the tokens


class _Object(dict):
    """A decoded JSON object that knows where each of its keys stands in the text it came from."""

    def __init__(self, pairs: list, raw: str, brace: int, starts: dict):
        super().__init__(pairs)
        self._raw, self._brace, self._starts = raw, brace, starts

    def line(self, key: str) -> int:
        """Line of ``key``, of its last copy if repeated (the one ``json`` keeps), else of the object's ``{``."""
        return self._raw.count("\n", 0, self._starts.get(key, self._brace)) + 1


def _located(raw: str, i: int) -> tuple[object, int]:
    """The valid JSON value at ``raw[i]``, with every object in it an :class:`_Object`, and the index after it."""
    if raw[i] not in "[{":
        return _DECODE(raw, i)
    brace, pairs, starts = i, [], {}
    i = _SKIP(raw, i + 1).end()
    while raw[i] not in "]}":
        key, end = _DECODE(raw, i) if raw[brace] == "{" else (None, i)
        starts[key] = i
        value, i = _located(raw, _SKIP(raw, end).end())
        pairs.append((key, value))
        i = _SKIP(raw, i).end()
    if raw[brace] == "[":
        return [value for _, value in pairs], i + 1
    return _Object(pairs, raw, brace, starts), i + 1


def _field(obj: _Object, key: str, kind, default=None, positive: bool = False):
    """``obj[key]`` checked against ``kind``; a bad value is a ConfigError at the key's line.

    ``kind`` is ``dict`` or ``list`` (type checked), ``int`` or ``float`` (a
    finite JSON number, integral for ``int``, and > 0 if ``positive``), or a
    one-element list such as ``[float]`` for a list of such numbers.
    """
    if isinstance(kind, list):
        return [_checked_value(obj, key, v, kind[0], positive) for v in _field(obj, key, list)]
    return _checked_value(obj, key, obj.get(key, default), kind, positive)


def _checked_value(obj: _Object, key: str, value, kind, positive: bool):
    """``value``, read from ``obj[key]``, checked against ``kind`` as :func:`_field` says."""
    if kind in (dict, list):
        if isinstance(value, kind):
            return value
        expected = "an object" if kind is dict else "a list"
    else:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        try:
            if number and math.isfinite(value) and (kind is float or value == int(value)) and (value > 0 or not positive):
                return kind(value)
        except OverflowError:  # an integer beyond float range
            pass
        expected = f"a finite{' positive' if positive else ''} {'integer' if kind is int else 'number'}"
    raise ConfigError(f"{key} must be {expected}, got {value!r}", obj.line(key))


def _known(obj: _Object, *keys: str) -> _Object:
    """``obj``, whose keys must all be among ``keys``: the first that is not is a ConfigError at its line."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r}, expected one of {sorted(keys)}", obj.line(key))
    return obj


def _checked_name(name: str, obj: _Object) -> str:
    """A run or panel name, which prefixes output files, so it may not leave the output directory."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ConfigError(f"name must be a plain file name without '/' or '\\', got {name!r}", obj.line("name"))
    return name


@dataclass
class Panel:
    name: str
    mode: str
    schedule: dict
    retrain: str | None = None


@dataclass
class RunConfig:
    name: str
    mixture: GaussianMixture | None
    panels: list[Panel]
    n: int
    seed: int
    grid: np.ndarray  # the trajectory starts' probe lattice, before the sampled starts
    grid_extent: float
    curve: np.ndarray  # the (points, 1) lattice the 1-D densities are drawn on
    curve_extent: float
    out_dir: Path
    formats: tuple[str, ...]
    root: _Object  # the located config, for the lines of what a command rejects


def _library_check(obj: _Object, key: str, check, *args):
    """The library's ``check(*args)``; a value it rejects is a ConfigError at the line of ``obj[key]``."""
    try:
        return check(*args)
    except ValueError as exc:  # a ContractError, or another ValueError from reading the value
        raise ConfigError(str(exc), obj.line(key)) from exc


def _validate_schedule(panel: _Object, mode: str) -> dict:
    """The checked schedule of ``panel``; ``{t_end, steps}`` times are those ``FlowSchedule.uniform`` records."""
    spec, line = panel.get("schedule", {}), panel.line("schedule")
    if not isinstance(spec, dict):
        raise ConfigError("schedule must be an object", line)
    _known(spec, *_SCHEDULE_KEYS[mode])
    sources = ["t_end" if key == "steps" else key for key in spec]  # ('t_end', 'steps') is one time source
    if (key := next((k for k, source in zip(spec, sources) if source != sources[0]), None)) is not None:
        raise ConfigError(f"{mode} schedule takes one time source, got {[*spec][0]!r} and {key!r}", spec.line(key))
    uniform = "t_end" in spec and "steps" in spec
    if uniform:
        t_end, steps = _field(spec, "t_end", float, positive=True), _field(spec, "steps", int, positive=True)
    if mode == "composed":
        if "taus" in spec:
            return {"flow": _library_check(spec, "taus", FlowSchedule, _field(spec, "taus", [float]))}
        if not uniform:
            raise ConfigError("composed schedule needs 'taus' or ('t_end','steps')", line)
        return {"flow": _library_check(spec, "t_end", FlowSchedule.uniform, t_end, steps)}
    if mode == "one_shot" and "t" in spec:
        key, times = "t", [_field(spec, "t", float)]
    elif mode == "one_shot" and "times" in spec:
        key, times = "times", _field(spec, "times", [float])
    elif uniform:
        key, times = "t_end", _library_check(spec, "t_end", FlowSchedule.uniform, t_end, steps).times
    else:
        needs = "'t', 'times', or ('t_end','steps')" if mode == "one_shot" else "('t_end','steps')"
        raise ConfigError(f"{mode} schedule needs {needs}", line)
    schedule = {"times": _library_check(spec, key, _orbit_times, times)}
    return {**schedule, "t_end": t_end, "steps": steps} if mode == "continuous" else schedule


def load_config(path: Path, seed_override: int | None, out_override: str | None) -> RunConfig:
    data = path.read_bytes()
    try:
        raw = data.decode("utf-8")
        plain = json.loads(raw)  # the validator: _located reads valid JSON only
        doc = _located(raw, _SKIP(raw, 0).end())[0]
    except UnicodeDecodeError as exc:
        message = f"invalid UTF-8: byte {data[exc.start]:#04x} ({exc.reason})"
        raise ConfigError(message, data.count(b"\n", 0, exc.start) + 1) from exc
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, an integer too long to convert, or deep nesting
        raise ConfigError(f"invalid JSON: {getattr(exc, 'msg', exc)}", getattr(exc, "lineno", 1)) from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _known(doc, "distribution", "particles", "grid", "outputs", "panels", *_PANEL_KEYS)

    mixture = None
    if "distribution" in doc:  # the plain decode, so library messages name plain JSON types
        mixture = _library_check(doc, "distribution", GaussianMixture.from_json_dict, plain["distribution"])

    particles = _known(_field(doc, "particles", dict, {}), "n", "seed")
    n = _field(particles, "n", int, 100, positive=True)
    seed = _field(particles, "seed", int, 0)
    if seed_override is not None:
        seed = int(seed_override)

    lattices = _known(_field(doc, "grid", dict, {}), "per_axis", "extent", "points", "curve_extent")
    per_axis = _field(lattices, "per_axis", int, 9, positive=True)
    grid_extent = _field(lattices, "extent", float, 3.0, positive=True)
    points = _field(lattices, "points", int, 401, positive=True)
    curve_extent = _field(lattices, "curve_extent", float, 4.0, positive=True)
    grid = _library_check(lattices, "extent", probe_lattice, grid_extent, per_axis, 1 if mixture is None else mixture.dim)
    curve = _library_check(lattices, "curve_extent", probe_lattice, curve_extent, points, 1)

    outputs = _known(_field(doc, "outputs", dict, {}), "dir", "formats")
    out_dir = Path(out_override) if out_override is not None else Path(str(outputs.get("dir", "out")))
    formats = tuple(_field(outputs, "formats", list, list(_FORMATS)))
    for fmt in formats:
        if fmt not in _FORMATS:
            raise ConfigError(f"unknown output format {fmt!r}", outputs.line("formats"))

    # a root mode/schedule/retrain makes the root itself the one panel, named after its mode
    if "panels" in doc:
        panel_docs = [_known(p, *_PANEL_KEYS) for p in _field(doc, "panels", [dict])]
        if not panel_docs:
            raise ConfigError("panels must be a nonempty list", doc.line("panels"))
    else:
        panel_docs = [doc] if "mode" in doc else []
    run_name = _checked_name(str(doc.get("name", path.stem)), doc)
    panels = []
    for i, p in enumerate(panel_docs):
        name = str(p["mode"] if p is doc else p.get("name", f"panel{i}"))
        mode, retrain = p.get("mode"), p.get("retrain")
        # a one-panel config is named after its mode, so a bad mode is reported as the mode
        if mode not in _MODES:
            raise ConfigError(f"panel {name!r}: unknown mode {mode!r}", p.line("mode"))
        _checked_name(name, p)
        _library_check(p, "retrain", _retrain_mode, 1 if mixture is None else mixture.k, retrain)
        panels.append(Panel(name, mode, _validate_schedule(p, mode), retrain))
    stray = [key for key in doc if key in ("mode", "schedule", "retrain")] if "panels" in doc else []
    if stray:  # beside a panel list the root is no panel, so its panel keys would go unread
        raise ConfigError(f"root {stray[0]!r} beside 'panels': give it in each panel", doc.line(stray[0]))

    return RunConfig(
        name=run_name,
        mixture=mixture,
        panels=panels,
        n=n,
        seed=seed,
        grid=grid,
        grid_extent=grid_extent,
        curve=curve,
        curve_extent=curve_extent,
        out_dir=out_dir,
        formats=formats,
        root=doc,
    )


# -- trajectory command ---------------------------------------------------------


def _run_panel(cfg: RunConfig, panel: Panel, ens: ParticleEnsemble) -> tuple[Trajectory, bool]:
    """Returns (trajectory, hit_singularity)."""
    mix = cfg.mixture
    try:
        if panel.mode == "one_shot":
            return one_shot_orbit(mix, panel.schedule["times"], ens), False
        if panel.mode == "composed":
            return compose(mix, panel.schedule["flow"], ens, panel.retrain), False
        return continuous_flow(mix, panel.schedule["t_end"], panel.schedule["steps"], ens, panel.retrain), False
    except SingularityError as exc:
        if exc.partial is None:
            raise
        print(f"warning: panel {panel.name!r} hit a singularity: {exc}", file=sys.stderr)
        return exc.partial, True


def _trajectory_svg(traj: Trajectory, n_grid: int, extent: float, title: str) -> SvgCanvas:
    lim = 1.1 * extent
    chart = SvgCanvas(480, 480, (-lim, lim), (-lim, lim), title)
    ticks = [-extent, -extent / 2, 0.0, extent / 2, extent]
    chart.draw_axes(ticks, ticks)
    times = np.asarray(traj.times)
    stack = np.concatenate([traj.initial.points[None], traj.layers])  # (T, n, 2)
    for xs, ys in stack[:, :n_grid].transpose(1, 2, 0):  # each grid particle's x and y columns over time
        chart.polyline(xs, ys, stroke="#999999", width=0.8, opacity=0.7)
    for i, (xs, ys) in enumerate(stack[:, n_grid:].transpose(1, 2, 0)):
        chart.polyline(xs, ys, stroke=_SAMPLE_COLORS[i % len(_SAMPLE_COLORS)], width=1.2)
    # midpoints every max(0.2, T / 50) time units along the orbit, so at most about 50, linear between states;
    # one at or past the last time is the last state (its weight, capped at 1, keeps the unused blend finite)
    spacing = max(0.2, times[-1] / 50)
    with np.errstate(over="ignore"):  # a running sum past the largest float is inf, past the end
        marks = np.add.accumulate(np.full(int((times[-1] + 1e-12) / spacing) + 1, spacing))
    marks = marks[marks < times[-1] + 1e-12]
    j = np.minimum(np.searchsorted(times, marks, side="right"), len(times) - 1)  # >= 1, as marks > times[0] = 0
    w = np.minimum((marks - times[j - 1]) / (times[j] - times[j - 1]), 1.0)[:, None, None]
    pts = np.where((marks >= times[-1])[:, None, None], stack[-1], (1.0 - w) * stack[j - 1] + w * stack[j])
    for p in pts:
        chart.points(p[:n_grid, 0], p[:n_grid, 1], r=1.4, fill="#666666", opacity=0.8)
        chart.points(p[n_grid:, 0], p[n_grid:, 1], r=1.4, fill="#222222", opacity=0.8)
    return chart


def cmd_trajectory(cfg: RunConfig) -> int:
    if cfg.mixture is None:
        raise ConfigError("trajectory command needs a 'distribution'")
    if not cfg.panels:
        raise ConfigError("trajectory command needs 'mode' or 'panels'")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    ens = ParticleEnsemble(np.vstack([cfg.grid, sample(cfg.mixture, cfg.n, cfg.seed).points]), cfg.seed)

    status = EXIT_OK
    for panel in cfg.panels:
        traj, singular = _run_panel(cfg, panel, ens)
        if singular:
            status = EXIT_SINGULAR
        prefix = f"{cfg.name}_{panel.name}"
        if "csv" in cfg.formats:
            traj.to_csv(cfg.out_dir / f"{prefix}.csv")
        if "json" in cfg.formats:
            doc = traj.diagnostics_json()
            doc["particles"] = {"grid": len(cfg.grid), "samples": cfg.n}
            doc["panel"] = {"name": panel.name, "mode": panel.mode}
            write_json(cfg.out_dir / f"{prefix}_diagnostics.json", doc)
        if "svg" in cfg.formats and traj.dim == 2:
            _trajectory_svg(traj, len(cfg.grid), cfg.grid_extent, panel.name).write(cfg.out_dir / f"{prefix}.svg")
        print(f"trajectory panel {panel.name}: {len(traj.times)} times, {traj.n} particles")
    return status


# -- pushforward command ----------------------------------------------------------


def _laws(g: Gaussian, mode: str, schedule) -> list[tuple[float, Gaussian]]:
    """(time, law) of ``g`` from ``(0.0, g)``: along a composed :class:`FlowSchedule`, else at each time it holds."""
    if mode == "composed":
        return list(zip((0.0, *schedule.times), itertools.accumulate(schedule.taus, Gaussian.one_shot, initial=g)))
    return [(0.0, g), *((float(t), (g.one_shot if mode == "one_shot" else g.continuous)(t)) for t in schedule)]


def _density_curves(cfg: RunConfig, panel: Panel) -> tuple[list[tuple[float, np.ndarray]], bool]:
    """(time, densities on the x-grid) for a 1-D measure; bool flags a curve lost to a zero variance."""
    g = Gaussian.of(cfg.mixture)
    laws = _laws(g, panel.mode, panel.schedule["flow" if panel.mode == "composed" else "times"])
    lost = [t for t, h in laws if h.evals[0] <= 0.0]
    for t in lost:
        what = (f"singular at t={t} (critical time {g.critical_time!r})" if panel.mode == "continuous"
                else f"variance underflows to 0 at t={t}")  # the one-shot maps never turn singular
        print(f"warning: pushforward {what}", file=sys.stderr)
    return [(t, np.asarray(density(h.as_mixture(), cfg.curve))) for t, h in laws if t not in lost], bool(lost)


def _density_svg(cfg: RunConfig, xs: np.ndarray, curves) -> SvgCanvas:
    ymax = max(float(np.max(d)) for _, d in curves) * 1.1
    chart = SvgCanvas(520, 360, (-cfg.curve_extent, cfg.curve_extent), (0.0, ymax), cfg.name)
    chart.draw_axes(np.linspace(-cfg.curve_extent, cfg.curve_extent, 5), [0.0, ymax / 2, ymax])
    for i, (t, dens) in enumerate(curves):
        color = _SAMPLE_COLORS[i % len(_SAMPLE_COLORS)]
        chart.polyline(xs, dens, stroke=color, width=1.5)
        chart.text(70, 60 + 14 * i, f"t={t:g}", size=10, fill=color)
    return chart


def _chart_sigma(cov: np.ndarray) -> np.ndarray:
    """Standard deviations ``sqrt(cov_ii)`` of a covariance within 1e-9 of diagonal."""
    off = np.max(np.abs(cov - np.diag(np.diag(cov))))
    if off > _DIAG_TOL:
        raise DomainError(f"abstract coordinates need a diagonal covariance (max off-diagonal {off:.3e})")
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def _abstract_columns(cfg: RunConfig, panel: Panel) -> list[tuple]:
    """The time, sigma1, sigma2, entropy and source columns of the diagonal 2-D chart.

    The continuous flow runs straight to the singular boundary.  Deep
    compositions contract the variance toward (and numerically onto) zero,
    which the chart reports as sigma = 0.
    """
    g = Gaussian.of(cfg.mixture)
    runs = (("continuous", np.linspace(0.0, g.critical_time, 81)[1:]), ("one_shot", np.linspace(0.0, 3.0, 61)[1:]),
            ("composed", panel.schedule["flow"]))
    return list(zip(*[(t, *map(float, _chart_sigma(h.cov)), h.entropy(), mode)
                      for mode, schedule in runs for t, h in _laws(g, mode, schedule)]))


def _abstract_svg(cfg: RunConfig, columns) -> SvgCanvas:
    _, sigma1, sigma2, _, sources = map(np.array, columns)
    smax = max(sigma1.max(), sigma2.max()) * 1.15
    chart = SvgCanvas(480, 480, (0.0, smax), (0.0, smax), f"{cfg.name} (sigma chart)")
    ticks = np.round(np.linspace(0.0, smax, 5), 2)
    chart.draw_axes(ticks, ticks, fmt="{:.2f}")
    # entropy level sets log s1 + log s2 = c are hyperbolas
    for level in (-1.5, -1.0, -0.5, 0.0, 0.35):
        s1 = np.linspace(0.05, smax, 120)
        s2 = np.exp(level) / s1
        mask = s2 <= smax
        chart.polyline(s1[mask], s2[mask], stroke="#cccccc", width=0.8)
    styles = {
        "continuous": {"stroke": "#1f77b4", "width": 2.0},
        "one_shot": {"stroke": "#2ca02c", "width": 1.5, "dash": "5,4"},
        "composed": {"stroke": "#2ca02c", "width": 1.5},
    }
    for source, style in styles.items():
        chart.polyline(sigma1[sources == source], sigma2[sources == source], **style)
    chart.text(70, 58, "continuous", size=10, fill="#1f77b4")
    chart.text(70, 72, "one-shot (dashed) / composed", size=10, fill="#2ca02c")
    chart.text(chart.width / 2, chart.height - 8, "sigma1", size=10, anchor="middle")
    chart.text(14, chart.height / 2, "sigma2", size=10, anchor="middle")
    return chart


def cmd_pushforward(cfg: RunConfig) -> int:
    if cfg.mixture is None:
        raise ConfigError("pushforward command needs a 'distribution'")
    if not cfg.panels:
        raise ConfigError("pushforward command needs 'mode' and 'schedule'")
    root = cfg.root
    if cfg.mixture.k != 1 or cfg.mixture.dim > 2:
        need = ("needs a single-Gaussian distribution" if cfg.mixture.k != 1
                else "supports 1-D densities and 2-D diagonal charts")
        raise ConfigError(f"pushforward command {need}", root.line("distribution"))
    if len(cfg.panels) > 1:
        raise ConfigError(f"pushforward command draws one panel, got {len(cfg.panels)}", root.line("panels"))
    panel = cfg.panels[0]
    if cfg.mixture.dim == 2 and panel.mode != "composed":
        line = (root["panels"][0] if "panels" in root else root).line("mode")
        raise ConfigError("the 2-D abstract chart needs a composed schedule for the overlay", line)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    status = EXIT_OK

    if cfg.mixture.dim == 1:
        xs, (curves, singular) = cfg.curve[:, 0], _density_curves(cfg, panel)
        if singular:
            status = EXIT_SINGULAR
        if "csv" in cfg.formats:
            blocks = ([itertools.repeat(t, len(xs)), xs.tolist(), dens.tolist()] for t, dens in curves)
            write_csv(cfg.out_dir / f"{cfg.name}_densities.csv", ["time", "x", "density"], blocks)
        if "svg" in cfg.formats:
            _density_svg(cfg, xs, curves).write(cfg.out_dir / f"{cfg.name}_densities.svg")
        print(f"pushforward densities: {len(curves)} curves")
    else:
        columns = _abstract_columns(cfg, panel)
        if "csv" in cfg.formats:
            header = ["time", "sigma1", "sigma2", "entropy", "source"]
            write_csv(cfg.out_dir / f"{cfg.name}_abstract.csv", header, [columns])
        if "svg" in cfg.formats:
            _abstract_svg(cfg, columns).write(cfg.out_dir / f"{cfg.name}_abstract.svg")
        print(f"pushforward abstract chart: {len(columns[0])} rows")
    return status


# -- verify command ------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        reports = default_checks(seed=cfg.seed)
    except Exception as exc:  # a crashed check is distinct from a failed one
        print(f"error: verification crashed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CRASH

    verdicts = [r.passed != (r.name in EXPECTED_FAILURES) for r in reports]  # a control passes by failing
    overall = all(verdicts)

    manifest = {
        "seed": cfg.seed,
        "expected_failures": list(EXPECTED_FAILURES),
        "overall_passed": overall,
        "checks": [r.to_json_dict() for r in reports],
    }
    path = cfg.out_dir / f"{cfg.name}_manifest.json"
    write_json(path, manifest)

    for r, ok in zip(reports, verdicts):
        note = " (control, must exceed bound)" if r.name in EXPECTED_FAILURES else ""
        print(f"{'PASS' if ok else 'FAIL'} {r.name}: max |residual| {r.max_abs:.3e} vs tolerance {r.tolerance:g}{note}")
    print(f"manifest: {path}")
    return EXIT_OK if overall else EXIT_CHECK


# -- entry point --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    commands = {"trajectory": cmd_trajectory, "pushforward": cmd_pushforward, "verify": cmd_verify}
    description = "Denoising transport experiments: trajectories, pushforwards, verification."
    parser = argparse.ArgumentParser(prog="dae-transport", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override particles.seed")
        p.add_argument("--out", default=None, help="override outputs.dir")

    args = parser.parse_args(argv)
    config_path = Path(args.config)
    if not config_path.is_file():
        print(f"config error at line 1: no such config file: {config_path}", file=sys.stderr)
        return EXIT_CONFIG

    try:  # load_config reports what it rejects as a ConfigError, so a library error here is the run's
        return commands[args.command](load_config(config_path, args.seed, args.out))
    except ConfigError as exc:
        print(f"config error at line {exc.line}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContractError, DomainError) as exc:
        print(f"run error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error at line 1: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularityError as exc:
        print(f"singularity: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    raise SystemExit(main())
