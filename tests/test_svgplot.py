import math
import re

import pytest

from causalprobe.svgplot import histogram_svg, means_svg, scatter_svg


class TestScatter:
    def test_structure(self):
        svg = scatter_svg([(0.5, 0.1), (1.0, 0.02)], "hit rate", "abs err", "runs")
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert svg.count("<circle ") == 2
        assert "hit rate" in svg and "abs err" in svg and "runs" in svg

    def test_deterministic(self):
        pts = [(0.1 * i, math.sin(i)) for i in range(20)]
        a = scatter_svg(pts, "x", "y", "t")
        b = scatter_svg(pts, "x", "y", "t")
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scatter_svg([], "x", "y", "t")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            scatter_svg([(0.0, math.nan)], "x", "y", "t")

    def test_label_escaping(self):
        svg = scatter_svg([(0, 0)], "a<b", 'c&"d', "e>f")
        assert "a&lt;b" in svg
        assert "c&amp;&quot;d" in svg
        assert "e&gt;f" in svg
        assert "a<b" not in svg

    def test_single_point_has_nonzero_span(self):
        svg = scatter_svg([(1.0, 1.0)], "x", "y", "t")
        assert "<circle " in svg


class TestMeans:
    def test_polyline_connects_sorted_points(self):
        svg = means_svg([(1.0, 0.1), (0.5, 0.3)], "x", "y", "t")
        assert svg.count("<polyline ") == 1
        assert svg.count("<circle ") == 2
        # The lower x must be the left end of the polyline.
        start = svg.index("points=")
        seg = svg[start : svg.index("/>", start)]
        coords = seg.split('"')[1].split()
        assert float(coords[0].split(",")[0]) < float(coords[1].split(",")[0])

    def test_single_point_no_line(self):
        svg = means_svg([(0.5, 0.5)], "x", "y", "t")
        assert "<polyline" not in svg
        assert svg.count("<circle ") == 1


class TestHistogram:
    def test_one_bar_per_group(self):
        svg = histogram_svg([(0.875, 3), (1.0, 10), (0.75, 1)], "hit", "count", "h")
        assert svg.count("<rect ") == 1 + 3  # background plus bars

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram_svg([], "x", "y", "t")

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            histogram_svg([(0.5, -1)], "x", "y", "t")

    def test_zero_count_bar_allowed(self):
        svg = histogram_svg([(0.5, 0), (1.0, 4)], "x", "y", "t")
        assert svg.count("<rect ") == 3

    def test_deterministic(self):
        bars = [(i / 24, i) for i in range(20, 25)]
        assert histogram_svg(bars, "x", "y", "t") == histogram_svg(
            bars, "x", "y", "t"
        )

    def test_bars_sharing_one_x_get_the_single_bar_width(self):
        shared = histogram_svg([(0.5, 1), (0.5, 2)], "x", "y", "t")
        single = histogram_svg([(0.5, 2)], "x", "y", "t")
        assert shared.count("<rect ") == 3
        width = re.compile(r'<rect x="[^"]*" y="[^"]*" width="([^"]*)" height=')
        assert width.findall(shared)[-1] == width.findall(single)[-1]
