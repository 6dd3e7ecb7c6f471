"""The chart class: its data-to-pixel map, its axes and the file it writes."""

from __future__ import annotations

import xml.etree.ElementTree as ET

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
    chart.point(0.5, 0.5, 1.4)
    text, root = _written(chart, tmp_path)
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
    assert text.endswith("</svg>\n")
    assert root.tag == f"{NS}svg"
    assert "a &lt; b &amp; c &gt; d" in text
    assert [el.text for el in root.findall(f"{NS}text")] == ["a < b & c > d"]
    [mark] = root.findall(f"{NS}circle")
    assert (mark.get("cx"), mark.get("cy"), mark.get("r")) == ("60.00", "50.00", "1.4")
