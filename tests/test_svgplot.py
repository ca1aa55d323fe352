import math
import re

import pytest

from pnplab.svgplot import _Axis, line_plot


@pytest.mark.parametrize("log_x, log_y", [(True, False), (False, True), (True, True)])
def test_no_point_left_on_a_log_axis_draws_one_decade(tmp_path, log_x, log_y):
    path = tmp_path / "plot.svg"
    # The only point sits at 0, which a log axis drops.
    line_plot(path, {"flag": ([0.0], [0.0])}, log_x=log_x, log_y=log_y)
    svg = path.read_text(encoding="utf-8")
    assert "<polyline" not in svg
    assert svg.count("<line") <= 12
    for log in (log_x, log_y):
        if log:
            assert ">1</text>" in svg and ">10</text>" in svg


@pytest.mark.parametrize("value", [1e16, -1e16, 2.0**53, 1.7e308, -1.7e308])
def test_one_point_far_from_zero_gets_a_linear_axis_of_nonzero_span(tmp_path, value):
    """``value + 1.0`` rounds to ``value`` here, and so does the y padding."""
    axis = _Axis(value, value, 0.0, 100.0, log=False)
    assert axis.hi > axis.lo and axis.lo <= value <= axis.hi
    path = tmp_path / "plot.svg"
    line_plot(path, {"s": ([value], [value])})
    points = re.search(r'<polyline points="([^"]+)"', path.read_text(encoding="utf-8")).group(1)
    assert all(math.isfinite(float(c)) for c in points.replace(",", " ").split())


@pytest.mark.parametrize("value", [0.0, 3.0, -2.5e15])
def test_one_point_near_zero_keeps_the_unit_widening(value):
    axis = _Axis(value, value, 0.0, 100.0, log=False)
    assert (axis.lo, axis.hi) == (value, value + 1.0)
