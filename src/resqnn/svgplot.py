"""Deterministic, self-contained SVG line plots.

Rendering is pure string assembly with fixed formatting, so identical inputs
produce byte-identical files — no timestamps, generated ids, or external
assets. Intended for training-curve figures: epoch on x, a cost in [0, 1]
on y, one polyline per labeled series, solid or dashed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["LINE_STYLES", "Series", "render_line_plot"]

LINE_STYLES = ("solid", "dashed")

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 64, 180, 40, 48


@dataclass(frozen=True)
class Series:
    """One labeled curve; points with non-finite y values are skipped."""

    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    style: str = "solid"

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError(
                f"series {self.label!r} has {len(self.xs)} x values "
                f"but {len(self.ys)} y values"
            )
        if self.style not in LINE_STYLES:
            raise ValueError(f"style must be one of {LINE_STYLES}, got {self.style!r}")
        object.__setattr__(self, "xs", tuple(float(x) for x in self.xs))
        object.__setattr__(self, "ys", tuple(float(y) for y in self.ys))

    def finite_points(self) -> list[tuple[float, float]]:
        return [(x, y) for x, y in zip(self.xs, self.ys) if math.isfinite(y)]


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _line(
    x1: float, y1: float, x2: float, y2: float, stroke: str, width: str = "1", dash: str = ""
) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"{dash}/>'
    )


def _text(x: str, y: str, text: str, size: int, anchor: str = "") -> str:
    """A sans-serif label; ``x`` and ``y`` are written as given."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{anchor_attr} font-family="sans-serif" '
        f'font-size="{size}">{_escape(text)}</text>'
    )


def render_line_plot(
    series: Sequence[Series],
    title: str = "",
    y_label: str = "held-out fidelity",
) -> str:
    """Render the series to an SVG document string, epoch on x and [0, 1] on y."""
    if not series:
        raise ValueError("need at least one series to plot")
    x_hi = max((max(s.xs) for s in series if s.xs), default=1.0)
    x_hi = max(x_hi, 1.0)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    axis_y = _MARGIN_TOP + plot_h

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x / x_hi) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (1.0 - y) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        lines.append(_text(_fmt(_MARGIN_LEFT + plot_w / 2), "24", title, 16, "middle"))

    num_ticks = 5
    for i in range(num_ticks + 1):
        y_val = i / num_ticks
        y_pix = py(y_val)
        lines.append(_line(_MARGIN_LEFT, y_pix, _MARGIN_LEFT + plot_w, y_pix, "#dddddd"))
        lines.append(_text(_fmt(_MARGIN_LEFT - 8), _fmt(y_pix + 4), _fmt(y_val), 12, "end"))
    for i in range(num_ticks + 1):
        x_val = x_hi * i / num_ticks
        x_pix = px(x_val)
        lines.append(_line(x_pix, axis_y, x_pix, axis_y + 5, "#333333"))
        tick = _fmt(x_val).rstrip("0").rstrip(".")
        lines.append(_text(_fmt(x_pix), _fmt(axis_y + 20), tick, 12, "middle"))

    lines.append(_line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, axis_y, "#333333"))
    lines.append(_line(_MARGIN_LEFT, axis_y, _MARGIN_LEFT + plot_w, axis_y, "#333333"))
    lines.append(
        _text(_fmt(_MARGIN_LEFT + plot_w / 2), str(_HEIGHT - 10), "epoch", 13, "middle")
    )
    lines.append(_text(str(_MARGIN_LEFT), str(_MARGIN_TOP - 10), y_label, 13, "start"))

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        dash = ' stroke-dasharray="6,4"' if s.style == "dashed" else ""
        points = s.finite_points()
        if points:
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in points)
            lines.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
                f'points="{coords}"/>'
            )
        legend_x = _MARGIN_LEFT + plot_w + 16
        legend_y = _MARGIN_TOP + 14 + 18 * idx
        lines.append(_line(legend_x, legend_y, legend_x + 26, legend_y, color, "1.5", dash))
        lines.append(_text(_fmt(legend_x + 32), _fmt(legend_y + 4), s.label, 12))

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
