"""Minimal deterministic SVG line plots.

Byte-for-byte reproducible output is a hard requirement for the experiment
artifacts, so plots are emitted directly rather than through a plotting
library: fixed canvas, fixed palette, fixed number formatting, no metadata.
"""

from __future__ import annotations

import math
import sys

__all__ = ["line_plot"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_PALETTE = ["#1f77b4", "#2ca02c", "#d62728", "#ff7f0e", "#9467bd", "#8c564b"]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


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
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes frame
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_WIDTH - _MARGIN_L - _MARGIN_R}" '
        f'height="{_HEIGHT - _MARGIN_T - _MARGIN_B}" fill="none" stroke="black"/>'
    )
    for t in _ticks(x_axis.lo, x_axis.hi, log_x):
        px = x_axis.to_px(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_HEIGHT - _MARGIN_B}" x2="{px:.2f}" '
            f'y2="{_HEIGHT - _MARGIN_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(y_axis.lo, y_axis.hi, log_y):
        py = y_axis.to_px(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" '
            f'y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_HEIGHT // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {_HEIGHT // 2})">{ylabel}</text>'
    )
    for idx, (name, (xs, ys)) in enumerate(sorted(cleaned.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(
            f"{x_axis.to_px(x):.2f},{y_axis.to_px(y):.2f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 16 * idx
        parts.append(
            f'<line x1="{_WIDTH - _MARGIN_R - 140}" y1="{ly - 4}" '
            f'x2="{_WIDTH - _MARGIN_R - 120}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 115}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
