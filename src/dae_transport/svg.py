"""The one writer of result files: deterministic SVG, CSV and JSON.

Hand-rolled on purpose: output bytes depend only on the data, so result
files are reproducible and diffable.  Every file is UTF-8 with ``\n`` line
endings on every platform.  CSV cells are ``repr(float(v))`` for floats
(the shortest text that round-trips) and ``str(v)`` otherwise; JSON has
sorted keys and a two-space indent.
"""

from __future__ import annotations

import json

_BACKGROUND = "#ffffff"
_MARGIN = 45  # pixels between the canvas edge and a chart's plotting area


def _fmt(v: float) -> str:
    return f"{float(v):.2f}"


def _escape(text: str) -> str:
    # the output of xml.sax.saxutils.escape without importing it: its urllib
    # import costs ~30 ms, which every ``import dae_transport`` would pay
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _cell(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _open(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_csv(path, header, rows, seed: int | None = None) -> None:
    """CSV of ``rows`` under ``header``, after a ``# seed=N`` line when ``seed`` is given.

    Cells are never quoted, so no cell may contain a comma.
    """
    with _open(path) as fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_json(path, doc) -> None:
    with _open(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class SvgCanvas:
    def __init__(self, width: int, height: int):
        self.width = int(width)
        self.height = int(height)
        self._parts: list[str] = [
            f'<rect x="0" y="0" width="{self.width}" height="{self.height}" fill="{_BACKGROUND}"/>'
        ]

    def line(self, x1, y1, x2, y2, stroke="#000000"):
        self._parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="1" stroke-opacity="1"/>'
        )

    def polyline(self, points, stroke="#000000", width=1.0, opacity=1.0, dash=None):
        if len(points) < 2:
            return
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width:g}" stroke-opacity="{opacity:g}"{dash_attr}/>'
        )

    def circle(self, cx, cy, r, fill="#000000", opacity=1.0):
        self._parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{r:g}" fill="{fill}" fill-opacity="{opacity:g}"/>'
        )

    def text(self, x, y, content, size=11, fill="#333333", anchor="start"):
        self._parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" font-family="sans-serif" '
            f'fill="{fill}" text-anchor="{anchor}">{_escape(str(content))}</text>'
        )

    def to_string(self) -> str:
        body = "\n".join(self._parts)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n{body}\n</svg>\n'
        )

    def write(self, path) -> None:
        with _open(path) as fh:
            fh.write(self.to_string())


class ChartFrame:
    """Maps data coordinates to a margined pixel viewport and draws axes."""

    def __init__(self, canvas: SvgCanvas, xlim, ylim, title: str | None = None):
        self.canvas = canvas
        self.x0, self.x1 = float(xlim[0]), float(xlim[1])
        self.y0, self.y1 = float(ylim[0]), float(ylim[1])
        self.px_w = canvas.width - 2 * _MARGIN
        self.px_h = canvas.height - 2 * _MARGIN
        if title:
            canvas.text(canvas.width / 2, _MARGIN - 14, title, size=13, anchor="middle")

    def px(self, x: float, y: float) -> tuple[float, float]:
        u = _MARGIN + (x - self.x0) / (self.x1 - self.x0) * self.px_w
        v = _MARGIN + (self.y1 - y) / (self.y1 - self.y0) * self.px_h
        return u, v

    def draw_axes(self, xticks, yticks, fmt="{:g}"):
        c = self.canvas
        m = _MARGIN
        c.line(m, m, m, m + self.px_h, stroke="#444444")
        c.line(m, m + self.px_h, m + self.px_w, m + self.px_h, stroke="#444444")
        for xt in xticks:
            u, v = self.px(xt, self.y0)
            c.line(u, v, u, v + 4, stroke="#444444")
            c.text(u, v + 16, fmt.format(xt), size=9, anchor="middle")
        for yt in yticks:
            u, v = self.px(self.x0, yt)
            c.line(u - 4, v, u, v, stroke="#444444")
            c.text(u - 7, v + 3, fmt.format(yt), size=9, anchor="end")

    def polyline(self, xs, ys, **style):
        self.canvas.polyline([self.px(x, y) for x, y in zip(xs, ys)], **style)

    def point(self, x, y, r=2.0, fill="#000000", opacity=1.0):
        u, v = self.px(x, y)
        self.canvas.circle(u, v, r, fill=fill, opacity=opacity)
