import pytest

from pnplab.svgplot import line_plot


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
