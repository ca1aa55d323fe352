import math
import re
import subprocess
import sys

import pytest

from pnplab import svgplot
from pnplab.svgplot import _Axis, _ticks, line_plot


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


# Address space of the child below: ample for Python and the module, while a
# tick loop that never ends runs out of it within seconds.
_CHILD_BYTES = 256 << 20

_BELOW_THE_SPACING = """
import importlib.util, math, sys
spec = importlib.util.spec_from_file_location("svgplot", sys.argv[1])
svgplot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(svgplot)
top = math.nextafter(1e20, math.inf)
print(svgplot._ticks(1e20, top, False))
svgplot.line_plot(sys.argv[2], {"s": ([1.0, 2.0], [1e20, top])})
"""


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_BYTES, _CHILD_BYTES))


def test_a_linear_span_below_the_float_spacing_ends(tmp_path):
    """There ``t += step`` leaves ``t`` unchanged, and the axis ends at its one tick.

    Run in a child process whose address space is capped and which loads
    only this module, so that a tick loop that never ends fails with a
    MemoryError rather than filling the machine's memory.
    """
    pytest.importorskip("resource")
    path = tmp_path / "plot.svg"
    child = subprocess.run(
        [sys.executable, "-c", _BELOW_THE_SPACING, svgplot.__file__, str(path)],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[1e+20]\n"
    assert ">1e+20</text>" in path.read_text(encoding="utf-8")


def test_a_log_axis_near_the_float_maximum_ends_at_the_largest_decade(tmp_path):
    """``10.0**309`` overflows; the decades stop at 1e308."""
    ticks = _ticks(2.0, 1.7e308, True)
    assert ticks == [10.0**e for e in range(1, 309)]
    path = tmp_path / "plot.svg"
    line_plot(path, {"s": ([2.0, 1.7e308], [1.0, 2.0])}, log_x=True)
    assert ">1e+308</text>" in path.read_text(encoding="utf-8")


@pytest.mark.parametrize("axis", ["x", "y"])
def test_a_span_past_the_float_maximum_is_plotted(tmp_path, axis):
    """``hi - lo`` overflows here, and so does the y axis's padding; halves do not."""
    assert _ticks(-1.7e308, 1.7e308, False) == [-1e308, 0.0, 1e308]
    wide, narrow = [-1.7e308, 1.7e308], [1.0, 2.0]
    path = tmp_path / "plot.svg"
    line_plot(path, {"a": (wide, narrow) if axis == "x" else (narrow, wide)})
    svg = path.read_text(encoding="utf-8")
    assert ">-1e+308</text>" in svg and ">1e+308</text>" in svg
    assert "nan" not in svg and "inf" not in svg
    points = re.search(r'<polyline points="([^"]+)"', svg).group(1)
    assert all(math.isfinite(float(c)) for c in points.replace(",", " ").split())
