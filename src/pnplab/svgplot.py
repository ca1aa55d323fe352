"""Minimal deterministic SVG line plots.

Byte-for-byte reproducible output is a hard requirement for the experiment
artifacts, so plots are emitted directly rather than through a plotting
library: fixed canvas, fixed palette, fixed number formatting, no metadata.
Every element but the ``<svg>`` opener is written by one element writer,
``_tag``, which escapes its text, so a file is well-formed XML whatever its
labels hold.
"""

from __future__ import annotations

import math
import sys

__all__ = ["line_plot"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_PALETTE = ["#1f77b4", "#2ca02c", "#d62728", "#ff7f0e", "#9467bd", "#8c564b"]


# The largest power of ten that is a finite double, and the largest double.
_MAX_DECADE = 308
_MAX_FLOAT = sys.float_info.max


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = min(math.ceil(math.log10(hi)), _MAX_DECADE)
        ticks = [10.0**e for e in range(lo_e, hi_e + 1)]
        return [t for t in ticks if lo / 1.0001 <= t <= hi * 1.0001] or [lo, hi]
    if hi == lo:
        return [lo]
    # Half the span, bitwise (hi - lo) / 2 on normal floats, cannot overflow.
    half = hi / 2 - lo / 2
    step = 10.0 ** math.floor(math.log10(half / 2))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if half / (step * mult) <= 2.5:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    top = min(hi + step * 1e-9, _MAX_FLOAT)
    ticks = []
    t = first
    # Below the float spacing of t a step leaves it unchanged, which ends the axis.
    while t <= top and (not ticks or t > ticks[-1]):
        ticks.append(t)
        t += step
    return ticks or [lo, hi]


class _Axis:
    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float, log: bool):
        if log:
            lo = max(lo, 1e-300)
            hi = max(hi, lo * 1.0000001)
        if hi == lo:
            hi = lo + 1.0 if not log else lo * 10.0
        if not hi > lo:
            # lo + 1.0 rounds to lo for |lo| >= 2**53; a share of lo toward
            # zero always separates them and cannot overflow.
            lo, hi = sorted((lo, lo - lo * 2.0**-10))
        # Padding may carry an end past the float maximum, or be infinite.
        lo, hi = max(lo, -_MAX_FLOAT), min(hi, _MAX_FLOAT)
        self.lo, self.hi, self.log = lo, hi, log
        self.px_lo, self.px_hi = px_lo, px_hi

    def to_px(self, v: float) -> float:
        if self.log:
            frac = (math.log10(v) - math.log10(self.lo)) / (
                math.log10(self.hi) - math.log10(self.lo)
            )
        else:
            # Halves, so that neither difference overflows.
            frac = (v / 2 - self.lo / 2) / (self.hi / 2 - self.lo / 2)
        return self.px_lo + frac * (self.px_hi - self.px_lo)


def _tag(name: str, text: str | None = None, **attrs) -> str:
    """One SVG element, its attributes in the order given, an underscore in a name written as a hyphen.

    An element with no text self-closes; ``&``, ``<`` and ``>`` in its text are escaped.
    """
    head = "<" + name + "".join(f' {key.replace("_", "-")}="{value}"' for key, value in attrs.items())
    if text is None:
        return head + "/>"
    if "&" in text or "<" in text or ">" in text:
        text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"{head}>{text}</{name}>"


def _text(text: str, size: int, transform: str | None = None, **place) -> str:
    """A sans-serif text element of ``size``: the ``place`` attributes, the font, then any ``transform``."""
    tail = {} if transform is None else {"transform": transform}
    return _tag("text", text, **place, font_family="sans-serif", font_size=size, **tail)


def line_plot(
    path,
    series: dict[str, tuple[list[float], list[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_x: bool = False,
    log_y: bool = False,
) -> None:
    """Write a self-contained SVG line plot.

    ``series`` maps a legend label to ``(x_values, y_values)``. Points with
    non-finite coordinates (or non-positive ones on a log axis) are dropped.
    """
    cleaned: dict[str, tuple[list[float], list[float]]] = {}
    for name, (xs, ys) in series.items():
        pts = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if math.isfinite(x)
            and math.isfinite(y)
            and (not log_x or x > 0)
            and (not log_y or y > 0)
        ]
        if pts:
            cleaned[name] = ([p[0] for p in pts], [p[1] for p in pts])

    # With no point left an axis spans [0, 1]; a log axis would clamp that to
    # [1e-300, 1] and draw 301 ticks, so it spans one decade instead.
    all_x = [x for xs, _ in cleaned.values() for x in xs] or ([1.0, 10.0] if log_x else [0.0, 1.0])
    all_y = [y for _, ys in cleaned.values() for y in ys] or ([1.0, 10.0] if log_y else [0.0, 1.0])
    x_axis = _Axis(min(all_x), max(all_x), _MARGIN_L, _WIDTH - _MARGIN_R, log_x)
    pad = 0.0 if log_y else 0.05 * (max(all_y) - min(all_y) or 1.0)
    y_axis = _Axis(min(all_y) - pad, max(all_y) + pad, _HEIGHT - _MARGIN_B, _MARGIN_T, log_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        _tag("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
        _text(title, 15, x=_WIDTH // 2, y=24, text_anchor="middle"),
        # axes frame
        _tag("rect", x=_MARGIN_L, y=_MARGIN_T, width=_WIDTH - _MARGIN_L - _MARGIN_R,
             height=_HEIGHT - _MARGIN_T - _MARGIN_B, fill="none", stroke="black"),
    ]
    bottom = _HEIGHT - _MARGIN_B
    for t in _ticks(x_axis.lo, x_axis.hi, log_x):
        px = f"{x_axis.to_px(t):.2f}"
        parts.append(_tag("line", x1=px, y1=bottom, x2=px, y2=bottom + 5, stroke="black"))
        parts.append(_text(f"{t:.6g}", 11, x=px, y=bottom + 18, text_anchor="middle"))
    for t in _ticks(y_axis.lo, y_axis.hi, log_y):
        py = y_axis.to_px(t)
        at = f"{py:.2f}"
        parts.append(_tag("line", x1=_MARGIN_L - 5, y1=at, x2=_MARGIN_L, y2=at, stroke="black"))
        parts.append(_text(f"{t:.6g}", 11, x=_MARGIN_L - 8, y=f"{py + 4:.2f}", text_anchor="end"))
    parts.append(_text(xlabel, 13, x=_WIDTH // 2, y=_HEIGHT - 12, text_anchor="middle"))
    rotate = f"rotate(-90 16 {_HEIGHT // 2})"
    parts.append(_text(ylabel, 13, rotate, x=16, y=_HEIGHT // 2, text_anchor="middle"))
    lx = _WIDTH - _MARGIN_R - 140
    for idx, (name, (xs, ys)) in enumerate(sorted(cleaned.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{x_axis.to_px(x):.2f},{y_axis.to_px(y):.2f}" for x, y in zip(xs, ys))
        parts.append(_tag("polyline", points=coords, fill="none", stroke=color, stroke_width=1.5))
        ly = _MARGIN_T + 16 + 16 * idx
        parts.append(_tag("line", x1=lx, y1=ly - 4, x2=lx + 20, y2=ly - 4, stroke=color, stroke_width=1.5))
        parts.append(_text(name, 11, x=lx + 25, y=ly))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
