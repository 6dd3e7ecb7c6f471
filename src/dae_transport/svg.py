"""The one writer of result files: deterministic SVG, CSV and JSON.

Hand-rolled on purpose: output bytes depend only on the data, so result
files are reproducible and diffable.  :class:`SvgCanvas` is the one chart
class.  Every file is UTF-8 with ``\n`` line endings on every platform.
:func:`write_csv` writes blocks of columns one at a time through one ``%s`` row template made from the
header, so a cell is ``str(v)``, for a float the shortest text that round-trips (``str`` equals ``repr``
for Python floats, as does NumPy's float64 ``str``); JSON has sorted keys and a two-space indent.
"""

from __future__ import annotations

import json

import numpy as np

_BACKGROUND = "#ffffff"
_MARGIN = 45  # pixels between the canvas edge and a chart's plotting area


def _fmt(v: float) -> str:
    return f"{float(v):.2f}"


def _escape(text: str) -> str:
    # the output of xml.sax.saxutils.escape without importing it: its urllib
    # import costs ~30 ms, which every ``import dae_transport`` would pay
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _open(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_csv(path, header, blocks, seed: int | None = None) -> None:
    """CSV under ``header`` of ``blocks``, each one iterable column per header entry, read a block at a time.

    A ``# seed=N`` line comes first when ``seed`` is given.  Cells are never quoted, so no cell may hold a comma.
    """
    row = ",".join(["%s"] * len(header)) + "\n"
    with _open(path) as fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(row % cells for block in blocks for cells in zip(*block))


def write_json(path, doc) -> None:
    with _open(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class SvgCanvas:
    """A titled chart: data limits fill the area ``_MARGIN`` pixels inside its edges; ``line``, ``text`` take pixels."""

    def __init__(self, width: int, height: int, xlim, ylim, title: str):
        self.width, self.height = int(width), int(height)
        self.x0, self.x1 = float(xlim[0]), float(xlim[1])
        self.y0, self.y1 = float(ylim[0]), float(ylim[1])
        self.px_w, self.px_h = self.width - 2 * _MARGIN, self.height - 2 * _MARGIN
        self._parts: list[str] = [
            f'<rect x="0" y="0" width="{self.width}" height="{self.height}" fill="{_BACKGROUND}"/>'
        ]
        self.text(self.width / 2, _MARGIN - 14, title, size=13, anchor="middle")

    def px(self, x: float, y: float) -> tuple[float, float]:
        u = _MARGIN + (x - self.x0) / (self.x1 - self.x0) * self.px_w
        v = _MARGIN + (self.y1 - y) / (self.y1 - self.y0) * self.px_h
        return u, v

    def _mapped(self, xs, ys, fmt: str) -> list[str]:
        """``fmt % (u, v)`` per row of the data columns ``xs``, ``ys``, mapped by :meth:`px` as one array per axis."""
        us, vs = self.px(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        return [fmt % uv for uv in zip(us.tolist(), vs.tolist())]

    def draw_axes(self, xticks, yticks, fmt="{:g}"):
        m = _MARGIN
        self.line(m, m, m, m + self.px_h, stroke="#444444")
        self.line(m, m + self.px_h, m + self.px_w, m + self.px_h, stroke="#444444")
        for xt in xticks:
            u, v = self.px(xt, self.y0)
            self.line(u, v, u, v + 4, stroke="#444444")
            self.text(u, v + 16, fmt.format(xt), size=9, anchor="middle")
        for yt in yticks:
            u, v = self.px(self.x0, yt)
            self.line(u - 4, v, u, v, stroke="#444444")
            self.text(u - 7, v + 3, fmt.format(yt), size=9, anchor="end")

    def line(self, x1, y1, x2, y2, stroke="#000000"):
        self._parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="1" stroke-opacity="1"/>'
        )

    def polyline(self, xs, ys, stroke="#000000", width=1.0, opacity=1.0, dash=None):
        coords = self._mapped(xs, ys, "%.2f,%.2f")
        if len(coords) < 2:
            return
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._parts.append(
            f'<polyline points="{" ".join(coords)}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width:g}" stroke-opacity="{opacity:g}"{dash_attr}/>'
        )

    def points(self, xs, ys, r, fill="#000000", opacity=1.0):
        """One circle of radius ``r`` pixels per row of the data columns ``xs``, ``ys``, in row order."""
        circle = f'<circle cx="%.2f" cy="%.2f" r="{r:g}" fill="{fill}" fill-opacity="{opacity:g}"/>'
        self._parts += self._mapped(xs, ys, circle)

    def text(self, x, y, content, size=11, fill="#333333", anchor="start"):
        self._parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" font-family="sans-serif" '
            f'fill="{fill}" text-anchor="{anchor}">{_escape(str(content))}</text>'
        )

    def write(self, path) -> None:
        body = "\n".join(self._parts)
        with _open(path) as fh:
            fh.write(
                '<?xml version="1.0" encoding="UTF-8"?>\n'
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" height="{self.height}" '
                f'viewBox="0 0 {self.width} {self.height}">\n{body}\n</svg>\n'
            )
