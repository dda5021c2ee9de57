import math
import sys
import xml.etree.ElementTree as ET

import pytest

from helpers import svg_coordinates
from metrotrade.svgchart import Panel, Series, render_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.mark.parametrize("values", [
    (0.0,),
    (5e-324,),                      # 5% of it rounds to 0
    (sys.float_info.max,),          # its 5% pad is past the largest double
    (5e-324, 1e-323),               # a span whose 5% rounds to 0
    (-1.7e308, 1.7e308),            # a span past the largest double
], ids=["zero", "smallest-subnormal", "largest-double", "two-subnormals", "past-a-double"])
def test_each_axis_has_three_finite_ordered_ticks(values):
    svg = render_chart([Panel("t", "x", "y", (Series("s", values, values),))])
    texts = list(ET.fromstring(svg).iter(f"{SVG_NS}text"))
    # tick labels come before the axis labels: x ticks centred, y ticks right-aligned
    x_ticks = [t for t in texts if t.get("text-anchor") == "middle"][:3]
    y_ticks = [t for t in texts if t.get("text-anchor") == "end"]
    x_px = [float(t.get("x")) for t in x_ticks]
    y_px = [float(t.get("y")) for t in y_ticks]
    assert len(y_px) == 3 and all(map(math.isfinite, x_px + y_px))
    assert x_px[0] < x_px[1] < x_px[2]
    assert y_px[0] > y_px[1] > y_px[2]  # pixel y grows downwards
    # a label may round past a double (1.798e+308), but names no nan or inf
    assert not any(word in t.text for t in x_ticks + y_ticks for word in ("nan", "inf"))
    assert all(map(math.isfinite, svg_coordinates(svg)))
