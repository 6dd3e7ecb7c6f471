"""In-process tracing of the library's public functions.

The benchmark wraps each traced function in every ``dae_transport`` module
namespace that holds it (``transport.kde_log_density`` and
``measures.kde_log_density`` are separate bindings of one function), and
wraps methods and properties on their classes.  Each call records a span
``(name, start, end, parent, op)`` and adds argument-derived counts.  Spans
stay in memory until the run ends.  Private helpers are not wrapped; their
cost shows up in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _rows(x) -> int:
    """Number of points in a point argument: an (n, m) array, or one point."""
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else 1


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# (module, attribute, class attribute or None, counter function).
# A counter function gets (args, kwargs, result) after the call returns.
TARGETS = [
    ("transport", "FlowSchedule", "times", lambda a, k, r: {"elements": len(r)}),
    ("transport", "AnalyticGaussian", "__init__", None),
    ("transport", "AnalyticGaussian", "apply", lambda a, k, r: {"points": _rows(a[1])}),
    ("transport", "EmpiricalKernel", "apply",
     lambda a, k, r: {"pairs": _rows(a[1]) * a[0].data.n}),
    ("transport", "MixtureExact", "apply", None),
    ("transport", "Trajectory", "to_csv", lambda a, k, r: {"bytes": _file_bytes(a[1])}),
    ("transport", "compose", None, lambda a, k, r: {"layers": len(r.times) - 1}),
    ("transport", "one_shot_orbit", None, None),
    ("pushforward", "one_shot_covariance", None, None),
    ("pushforward", "push_continuous", None, None),
    ("pushforward", "push_one_shot", None, None),
    ("measures", "ParticleEnsemble", "__init__",
     lambda a, k, r: {"bytes": a[0].points.nbytes}),
    ("measures", "GaussianMixture", "__init__", None),
    ("measures", "kde_log_density", None,
     lambda a, k, r: {"pairs": _rows(a[0]) * _rows(a[2])}),
    ("measures", "silverman_covariance", None, None),
    ("measures", "score", None, lambda a, k, r: {"point_components": _rows(a[1]) * a[0].k}),
    ("measures", "log_density", None, None),
    ("measures", "laplacian_density", None, None),
    ("measures", "density_gradient", None, None),
    ("measures", "sample", None, None),
    ("rand", "substream", None, None),
    ("verify", "default_checks", None, None),
    ("verify", "check_variational_minimizer", None, None),
    ("verify", "check_continuity_t0", None, None),
    ("verify", "check_backward_heat", None, None),
    ("verify", "check_time_reversal", None, None),
    ("verify", "check_entropy_monotone", None, None),
    ("verify", "check_stein_identity", None, None),
    ("verify", "check_renyi_gradient_identity", None, None),
    ("cli", "load_config", None, None),
    ("cli", "cmd_trajectory", None, lambda a, k, r: {"bytes_written": _dir_bytes(a[0].out_dir)}),
    ("cli", "cmd_pushforward", None, lambda a, k, r: {"bytes_written": _dir_bytes(a[0].out_dir)}),
    ("cli", "cmd_verify", None, lambda a, k, r: {"bytes_written": _dir_bytes(a[0].out_dir)}),
    ("svg", "SvgCanvas", "polyline", None),
    ("svg", "SvgCanvas", "write", lambda a, k, r: {"bytes": _file_bytes(a[1])}),
]


def span_name(module: str, attr: str, member: str | None) -> str:
    if member is None:
        return f"{module}.{attr}"
    return f"{module}.{attr}.{'init' if member == '__init__' else member}"


class Tracer:
    """Collects spans and counts while installed; restores every binding on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts[f"{name}.calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        for module, _, _, _ in TARGETS:
            importlib.import_module(f"dae_transport.{module}")
        pkg = [m for n, m in list(sys.modules.items())
               if n == "dae_transport" or n.startswith("dae_transport.")]
        for module, attr, member, counter in TARGETS:
            name = span_name(module, attr, member)
            obj = getattr(sys.modules[f"dae_transport.{module}"], attr)
            if member is None:
                wrapped = self._wrap(name, obj, counter)
                for mod in pkg:
                    for key, val in list(vars(mod).items()):
                        if val is obj:
                            self._set(mod, key, wrapped)
            else:
                raw = obj.__dict__[member]
                if isinstance(raw, property):
                    self._set(obj, member, property(self._wrap(name, raw.fget, counter)))
                else:
                    self._set(obj, member, self._wrap(name, raw, counter))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def per_op(self, n_ops: int) -> dict[str, float]:
        """Per-op totals: ``<name>.s`` (outermost spans), ``<name>.self_s`` and counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            own[name] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # no enclosing span of the same name
                total[name] += end - start
        out = {f"{n}.s": v / n_ops for n, v in total.items()}
        out.update({f"{n}.self_s": v / n_ops for n, v in own.items()})
        out.update({k: v / n_ops for k, v in self.counts.items()})
        return out

    def write(self, path: Path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc) + "\n")
