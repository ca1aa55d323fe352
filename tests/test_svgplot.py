import hashlib
import math
import re
import subprocess
import sys
from xml.etree import ElementTree

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


def test_text_with_markup_characters_is_escaped_and_reads_back(tmp_path):
    """Labels and titles holding ``<``, ``&`` and ``>`` give a well-formed file whose texts read back."""
    path = tmp_path / "plot.svg"
    label, title, xlabel, ylabel = "a<b & c", "x < y", "k > 0 & k < 9", "<mse>"
    line_plot(path, {label: ([1.0, 2.0], [1.0, 3.0])}, title=title, xlabel=xlabel, ylabel=ylabel)
    root = ElementTree.parse(path).getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == title and texts[-3:] == [xlabel, ylabel, label]


_SEVEN = {f"s{i}": ([1.0, 2.0, 3.0], [float(i), i + 0.5, i * 2.0]) for i in range(7)}
_LOG_LOG = {
    "a": ([0.1, 1.0, 10.0, 100.0], [1e-3, 1e-2, 1e-1, 1.0]),
    "b": ([0.1, 1.0, 10.0, 100.0], [2e-3, 3e-2, 5e-1, 2.0]),
    "c": ([1.0, 10.0], [1e-4, 1e-5]),
    "d": ([0.5, 5.0, 50.0], [7.0, 3.0, 0.25]),
}

# SHA-256 of line_plot's output on fixed inputs. Plots are byte-reproducible
# artifacts, so a change to how elements are written must keep these bytes.
_PINNED = {
    "log-log-four-series": (
        _LOG_LOG,
        {"title": "log/log", "xlabel": "delta", "ylabel": "mse", "log_x": True, "log_y": True},
        "2a08b7ded918c9f3ecf16c04c507ecc4fe4e2b13823c7efa02e6219b60891817",
    ),
    "linear-one-point-at-1e16": (
        {"s": ([1e16], [1e16])},
        {"title": "one point"},
        "8b86ab30dd68ff7fbb7fa13cd8dfdf5067dc5a8879a3a9e0adcaf15cffa55259",
    ),
    "empty-log-axis": (
        {},
        {"title": "empty", "log_x": True},
        "10fd53e5245cbad816dd597b0fbf578f2aa1cac0b03b72fc054ac87bbfe4c4b9",
    ),
    "seven-series-cycle-the-palette": (
        _SEVEN,
        {"title": "seven series", "xlabel": "k", "ylabel": "value"},
        "420b21cca19001556750b6b675228c9ba54dd2a3223240084b381d1cbfd4cad7",
    ),
}


@pytest.mark.parametrize("series, kwargs, digest", list(_PINNED.values()), ids=list(_PINNED))
def test_pinned_plots_keep_their_bytes(tmp_path, series, kwargs, digest):
    path = tmp_path / "plot.svg"
    line_plot(path, series, **kwargs)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
