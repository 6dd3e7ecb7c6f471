"""The chart class: its data-to-pixel map, its axes and the file it writes."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dae_transport.svg import SvgCanvas

NS = "{http://www.w3.org/2000/svg}"


def _written(chart: SvgCanvas, tmp_path) -> tuple[str, ET.Element]:
    path = tmp_path / "chart.svg"
    chart.write(path)
    text = path.read_text(encoding="utf-8")
    return text, ET.fromstring(text.encode("utf-8"))


@pytest.mark.parametrize("width, height, xlim, ylim", [(480, 480, (-2.0, 2.0), (-2.0, 2.0)),
                                                       (520, 360, (0.0, 1.0), (-3.0, 7.5))])
def test_px_maps_the_data_limits_onto_the_margined_corners(width, height, xlim, ylim):
    chart = SvgCanvas(width, height, xlim, ylim, "corners")
    assert chart.px(xlim[0], ylim[1]) == (45, 45)
    assert chart.px(xlim[1], ylim[0]) == (width - 45, height - 45)


def test_a_polyline_of_fewer_than_two_points_writes_nothing(tmp_path):
    chart = SvgCanvas(200, 200, (0.0, 1.0), (0.0, 1.0), "lines")
    chart.polyline([], [])
    chart.polyline([0.5], [0.5])
    _, root = _written(chart, tmp_path)
    assert root.findall(f"{NS}polyline") == []
    chart.polyline([0.0, 1.0], [0.0, 1.0])
    _, root = _written(chart, tmp_path)
    [line] = root.findall(f"{NS}polyline")
    assert line.get("points") == "45.00,155.00 155.00,45.00"


def test_draw_axes_writes_one_label_per_tick(tmp_path):
    chart = SvgCanvas(300, 200, (0.0, 4.0), (-1.0, 1.0), "axes")
    chart.draw_axes([0.0, 1.0, 2.0, 3.0, 4.0], [-1.0, 0.0, 1.0])
    _, root = _written(chart, tmp_path)
    labels = [el.text for el in root.findall(f"{NS}text")][1:]  # the first text is the title
    assert labels == ["0", "1", "2", "3", "4", "-1", "0", "1"]


def test_a_written_chart_is_one_svg_document_with_escaped_text(tmp_path):
    chart = SvgCanvas(120, 100, (0.0, 1.0), (0.0, 1.0), "a < b & c > d")
    chart.points([0.5], [0.5], 1.4)
    text, root = _written(chart, tmp_path)
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
    assert text.endswith("</svg>\n")
    assert root.tag == f"{NS}svg"
    assert "a &lt; b &amp; c &gt; d" in text
    assert [el.text for el in root.findall(f"{NS}text")] == ["a < b & c > d"]
    [mark] = root.findall(f"{NS}circle")
    assert (mark.get("cx"), mark.get("cy"), mark.get("r")) == ("60.00", "50.00", "1.4")


def _column_data(seed: int, n: int = 400) -> tuple[np.ndarray, np.ndarray]:
    """Seeded data for a 500-pixel chart over (-2, 2)^2, 102.5 pixels a unit, with edge cases first.

    Rows 0-2 hold data -0.0; rows 3-12 land near pixel k + 0.005 and k + 0.125, which round at the
    third decimal; rows 13-14 land just left of and above the canvas, where ``%.2f`` writes "-0.00".
    """
    rng = np.random.default_rng(seed)
    xs, ys = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)
    xs[:3], ys[:3] = -0.0, (0.0, -0.0, -0.0)
    xs[3:13] = (np.arange(50.0, 60.0) + 0.005 - 45.0) / 102.5 - 2.0
    ys[3:13] = 2.0 - (np.arange(50.0, 60.0) + 0.125 - 45.0) / 102.5
    xs[13:15], ys[13:15] = (-45.001 / 102.5 - 2.0, 0.0), (0.0, 2.0 + 45.001 / 102.5)
    return xs, ys


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_column_pixel_maps_equal_the_scalar_map_bit_for_bit(tmp_path, seed):
    chart = SvgCanvas(500, 500, (-2.0, 2.0), (-2.0, 2.0), "columns")
    xs, ys = _column_data(seed)
    scalar = [chart.px(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert (f"{scalar[13][0]:.2f}", f"{scalar[14][1]:.2f}") == ("-0.00", "-0.00")
    chart.polyline(xs, ys)
    chart.points(xs, ys, 1.4)
    _, root = _written(chart, tmp_path)
    [line] = root.findall(f"{NS}polyline")
    assert line.get("points") == " ".join(f"{float(u):.2f},{float(v):.2f}" for u, v in scalar)
    marks = root.findall(f"{NS}circle")
    assert [(m.get("cx"), m.get("cy")) for m in marks] == [(f"{float(u):.2f}", f"{float(v):.2f}") for u, v in scalar]


def test_points_writes_one_circle_per_row_in_row_order(tmp_path):
    chart = SvgCanvas(120, 100, (0.0, 1.0), (0.0, 1.0), "marks")
    chart.points([0.0, 1.0, 0.5], [0.0, 1.0, 0.25], 2.5, fill="#123456", opacity=0.8)
    chart.points([], [], 1.0)
    _, root = _written(chart, tmp_path)
    marks = root.findall(f"{NS}circle")
    assert [(m.get("cx"), m.get("cy")) for m in marks] == [("45.00", "55.00"), ("75.00", "45.00"), ("60.00", "52.50")]
    assert {(m.get("r"), m.get("fill"), m.get("fill-opacity")) for m in marks} == {("2.5", "#123456", "0.8")}
