"""Report rendering: colors, SVG structure, PPM bytes, CSV exports."""

import tracemalloc

import numpy as np

import oracles
from qvf.metrics import HeatmapGrid, HistogramStats
from qvf.render import (
    BLUE,
    GREEN,
    RED,
    REFERENCE_GATES,
    WHITE,
    delta_color,
    grid_csv,
    hist_csv,
    qvf_color,
    render_delta_svg,
    render_grid_ppm,
    render_heatmap_svg,
    render_timeline_svg,
    timeline_csv,
)


def small_grid(values=None, group="circuit"):
    cells = np.array(values if values is not None else [[0.1, 0.5], [0.6, 0.9]])
    return HeatmapGrid((0, 180), (0, 180), cells, group)


class TestColors:
    def test_qvf_banding(self):
        assert qvf_color(0.0) == GREEN
        assert qvf_color(0.45) == WHITE
        assert qvf_color(0.5) == WHITE
        assert qvf_color(0.55) == WHITE
        assert qvf_color(1.0) == RED
        halfway = qvf_color(0.225)
        assert halfway == (128, 204, 128)

    def test_custom_thresholds(self):
        assert qvf_color(0.3, (0.2, 0.8)) == WHITE
        assert qvf_color(0.1, (0.2, 0.8)) != WHITE

    def test_delta_scale(self):
        assert delta_color(0.0, 1.0) == WHITE
        assert delta_color(1.0, 1.0) == RED
        assert delta_color(-1.0, 1.0) == BLUE
        assert delta_color(5.0, 1.0) == RED  # clipped


class TestHeatmapSvg:
    def test_deterministic(self):
        g = small_grid()
        assert render_heatmap_svg(g) == render_heatmap_svg(g)

    def test_cells_and_titles(self):
        svg = render_heatmap_svg(small_grid(), title="demo")
        assert svg.count("<title>") == 4
        assert ">demo</text>" in svg
        assert "theta=180 phi=0" in svg

    def test_band_is_white(self):
        svg = render_heatmap_svg(small_grid([[0.5, 0.5], [0.5, 0.5]]))
        assert svg.count('fill="rgb(255,255,255)"') >= 4

    def test_overlay_reference_gates(self):
        full = HeatmapGrid(
            tuple(range(0, 181, 15)),
            tuple(range(0, 360, 15)),
            np.zeros((13, 24)),
        )
        svg = render_heatmap_svg(full, overlay=True)
        for name, _, _ in REFERENCE_GATES:
            assert f">{name}</text>" in svg
        plain = render_heatmap_svg(full)
        assert "stroke-dasharray" not in plain

    def test_default_title_names_group(self):
        svg = render_heatmap_svg(small_grid(group="qubit:2"))
        assert "qubit:2" in svg

    def test_delta_svg_legend(self):
        g = small_grid([[0.02, -0.01], [0.0, 0.04]])
        svg = render_delta_svg(g)
        # clamp floor keeps faint grids readable
        assert "-0.05" in svg and "+0.05" in svg
        assert render_delta_svg(g) == render_delta_svg(g)

    def test_all_svg_variants_are_well_formed_xml(self):
        # the default legend label "<0.45" must come out escaped
        from xml.dom.minidom import parseString

        from qvf.render import render_hist_svg

        stats = HistogramStats(0.4, 0.2, (2, 3), (0.0, 0.5, 1.0))
        series = {0: [(0, 0.1), (2, 0.6)]}
        for svg in (
            render_heatmap_svg(small_grid(), overlay=True),
            render_heatmap_svg(small_grid(), title="a & b <c>"),
            render_delta_svg(small_grid([[0.02, -0.01], [0.0, 0.04]])),
            render_timeline_svg(series, "t < 1"),
            render_hist_svg(stats, "h & co"),
        ):
            parseString(svg)
        assert "&lt;0.45" in render_heatmap_svg(small_grid())


class TestPpm:
    def test_header_and_size(self):
        data = render_grid_ppm(small_grid(), scale=4)
        assert data.startswith(b"P6\n8 8\n255\n")
        assert len(data) == len(b"P6\n8 8\n255\n") + 8 * 8 * 3

    def test_pixel_colors(self):
        data = render_grid_ppm(small_grid([[0.0, 0.0], [1.0, 1.0]]), scale=1)
        body = data[len(b"P6\n2 2\n255\n"):]
        assert body[0:3] == bytes(GREEN)
        assert body[9:12] == bytes(RED)

    def test_diverging_mode(self):
        data = render_grid_ppm(
            small_grid([[-0.1, 0.0], [0.0, 0.1]]), scale=1, diverging=True
        )
        body = data[len(b"P6\n2 2\n255\n"):]
        assert body[0:3] == bytes(BLUE)
        assert body[3:6] == bytes(WHITE)

    def test_image_is_built_once(self):
        # a 1 degree grid at 4 px cells: each pixel row's bytes are shared by
        # its repeats, so the peak is the image plus one row per theta
        cells = np.linspace(0.0, 1.0, 181 * 360).reshape(181, 360)
        grid = HeatmapGrid(tuple(range(181)), tuple(range(360)), cells)
        tracemalloc.start()
        try:
            data = render_grid_ppm(grid, scale=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) == len(b"P6\n1440 724\n255\n") + 1440 * 724 * 3
        assert peak <= 1.5 * len(data), peak / len(data)


class TestCsvExports:
    def test_grid_csv(self):
        text = grid_csv(small_grid([[0.25, 0.5], [0.75, 1.0]]))
        lines = text.splitlines()
        assert lines[0] == "theta_deg,phi_deg,value"
        assert lines[1] == "0,0,0.25"
        assert lines[-1] == "180,180,1.0"

    def test_grid_csv_writes_angles_as_the_record_files_do(self):
        # whole degrees, -0.0 included, as integers; others in shortest repr
        axis = (-0.0, 22.5, 1e-7, 180.0)
        text = grid_csv(HeatmapGrid(axis, axis, np.zeros((4, 4))))
        rows = [line.rsplit(",", 1)[0] for line in text.splitlines()[1:]]
        assert rows == [f"{oracles._angle_text(t)},{oracles._angle_text(p)}"
                        for t in axis for p in axis]
        assert rows[:3] == ["0,0", "0,22.5", "0,1e-07"]

    def test_timeline_csv(self):
        text = timeline_csv({1: [(0, 0.5)], 0: [(2, 0.125), (4, 0.25)]})
        assert text.splitlines() == [
            "qubit,gate_index,qvf",
            "0,2,0.125",
            "0,4,0.25",
            "1,0,0.5",
        ]

    def test_hist_csv(self):
        stats = HistogramStats(0.5, 0.1, (3, 1), (0.0, 0.5, 1.0))
        assert hist_csv(stats).splitlines() == [
            "bin_low,bin_high,count",
            "0.0,0.5,3",
            "0.5,1.0,1",
        ]


class TestTimelineAndHistSvg:
    def test_timeline_series(self):
        series = {0: [(0, 0.0), (3, 0.5)], 1: [(1, 1.0)]}
        svg = render_timeline_svg(series, "depth sweep")
        assert svg.count("<polyline") == 2
        assert ">q0</text>" in svg and ">q1</text>" in svg
        assert ">depth sweep</text>" in svg
        assert render_timeline_svg(series, "depth sweep") == svg

    def test_hist_svg_reports_moments(self):
        from qvf.render import render_hist_svg

        stats = HistogramStats(0.4375, 0.1234, (1, 2, 3, 0), (0, 0.25, 0.5, 0.75, 1))
        svg = render_hist_svg(stats, "spread")
        assert "mean=0.4375" in svg
        assert "stddev=0.1234" in svg
        assert svg.count("<rect") >= 5  # backdrop plus one bar per bin


class TestEscape:
    def test_matches_saxutils(self):
        from xml.sax.saxutils import escape

        from qvf.render import _esc

        for text in ("", "plain", "a & b", "x<y>z", 'say "hi"', "it's",
                     "&amp;", "&lt;&gt;", "<&>'\"&amp;<"):
            assert _esc(text) == escape(text), text

    def test_title_is_escaped(self):
        svg = render_timeline_svg({0: [(0, 0.5)]}, "a<b & c>d")
        assert ">a&lt;b &amp; c&gt;d</text>" in svg
