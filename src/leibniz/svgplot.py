"""Standalone SVG 1.1 orbit plots: planar projections and a fixed oblique 3D view.

No rendering dependencies: documents are assembled as text.  All numeric
formatting is fixed-width, so rerendering the same trajectory yields
byte-identical output.  The oblique view is a cabinet projection: the first
coordinate of the projected triple recedes at 30 degrees with foreshortening
ratio 1/2, the second maps to the horizontal screen axis, the third to the
vertical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["PlotSpec", "ProjectionError", "PROJECTIONS", "projection_axes", "render_svg"]

_AXES: dict[str, tuple[str, ...]] = {
    "x12": ("x1", "x2"),
    "x13": ("x1", "x3"),
    "x23": ("x2", "x3"),
    "xi12": ("xi1", "xi2"),
    "xi13": ("xi1", "xi3"),
    "xi23": ("xi2", "xi3"),
    "oblique3d_x": ("x1", "x2", "x3"),
    "oblique3d_xi": ("xi1", "xi2", "xi3"),
}

PROJECTIONS: tuple[str, ...] = tuple(_AXES)

# document styling
_MARGIN = 54
_STROKE = "#1f77b4"
_STROKE_WIDTH = 1.2
_AXIS_COLOR = "#444444"
_BACKGROUND = "#ffffff"

_COS30 = math.cos(math.pi / 6.0)
_SIN30 = 0.5
_OBLIQUE_RATIO = 0.5


class ProjectionError(ValueError):
    """Raised when a projection does not apply to the trajectory's coordinates."""


@dataclass(frozen=True)
class PlotSpec:
    """Projection choice and document size in pixels."""

    projection: str = "x12"
    width: int = 640
    height: int = 480

    def __post_init__(self) -> None:
        projection_axes(self.projection)
        if self.width <= 2 * _MARGIN or self.height <= 2 * _MARGIN:
            raise ProjectionError("plot dimensions leave no room inside the margins")


def projection_axes(projection: str) -> tuple[str, ...]:
    """Coordinate names consumed by a projection (two planar, three oblique)."""
    try:
        return _AXES[projection]
    except KeyError:
        raise ProjectionError(
            f"unknown projection {projection!r}; choose from {', '.join(PROJECTIONS)}"
        ) from None


def _column_indices(names: Sequence[str], projection: str) -> tuple[int, ...]:
    axes = projection_axes(projection)
    missing = [a for a in axes if a not in names]
    if missing:
        raise ProjectionError(
            f"projection {projection!r} needs coordinates {', '.join(axes)}, "
            f"but {', '.join(missing)} are absent (available: {', '.join(names)})"
        )
    return tuple(names.index(a) for a in axes)


def _project(states: np.ndarray, idx: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    if len(idx) == 2:
        return states[:, idx[0]], states[:, idx[1]]
    depth = states[:, idx[0]]
    u = states[:, idx[1]] + _OBLIQUE_RATIO * _COS30 * depth
    v = states[:, idx[2]] + _OBLIQUE_RATIO * _SIN30 * depth
    return u, v


def _padded_range(values: np.ndarray) -> tuple[float, float]:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi - lo < 1e-12:
        center = 0.5 * (lo + hi)
        return center - 1.0, center + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_svg(
    names: Sequence[str], states: np.ndarray, spec: PlotSpec, title: str = ""
) -> str:
    """Render one trajectory as a complete SVG 1.1 document."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != len(names):
        raise ProjectionError(
            f"state array of shape {states.shape} does not match {len(names)} coordinates"
        )
    if states.shape[0] < 2:
        raise ProjectionError("need at least two trajectory points to draw an orbit")
    names = tuple(names)
    idx = _column_indices(names, spec.projection)
    inner_w = spec.width - 2 * _MARGIN
    inner_h = spec.height - 2 * _MARGIN
    # non-finite values, or a range that overflows, end up as nan or inf in
    # the screen coordinates and are refused there
    with np.errstate(all="ignore"):
        u, v = _project(states, idx)
        umin, umax = _padded_range(u)
        vmin, vmax = _padded_range(v)
        sx = inner_w / (umax - umin)
        sy = inner_h / (vmax - vmin)
        px = _MARGIN + (u - umin) * sx
        py = spec.height - _MARGIN - (v - vmin) * sy
    if not (np.isfinite(px).all() and np.isfinite(py).all()):
        raise ProjectionError("state values are not finite, or span too wide a range to plot")
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))

    axes = projection_axes(spec.projection)
    left = _MARGIN
    right = spec.width - _MARGIN
    top = _MARGIN
    bottom = spec.height - _MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" '
        f'fill="{_BACKGROUND}"/>',
        f'<rect x="{left}" y="{top}" width="{inner_w}" height="{inner_h}" '
        f'fill="none" stroke="{_AXIS_COLOR}" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{spec.width / 2:.2f}" y="{top - 16:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14" fill="{_AXIS_COLOR}">'
            f"{_escape(title)}</text>"
        )
    font = f'font-family="sans-serif" font-size="11" fill="{_AXIS_COLOR}"'
    if len(idx) == 2:
        parts.extend(
            [
                f'<text x="{left}" y="{bottom + 16:.2f}" text-anchor="start" {font}>'
                f"{umin:.4g}</text>",
                f'<text x="{right}" y="{bottom + 16:.2f}" text-anchor="end" {font}>'
                f"{umax:.4g}</text>",
                f'<text x="{left - 6}" y="{bottom:.2f}" text-anchor="end" {font}>'
                f"{vmin:.4g}</text>",
                f'<text x="{left - 6}" y="{top + 10:.2f}" text-anchor="end" {font}>'
                f"{vmax:.4g}</text>",
                f'<text x="{spec.width / 2:.2f}" y="{bottom + 32:.2f}" text-anchor="middle" '
                f"{font}>{_escape(axes[0])}</text>",
                f'<text x="{left - 34}" y="{(top + bottom) / 2:.2f}" text-anchor="middle" '
                f"{font}>{_escape(axes[1])}</text>",
            ]
        )
    else:
        # corner triad showing the projected directions of the three data axes
        anchor_x = right - 44.0
        anchor_y = top + 44.0
        triad = (
            (_OBLIQUE_RATIO * _COS30, _OBLIQUE_RATIO * _SIN30, axes[0]),
            (1.0, 0.0, axes[1]),
            (0.0, 1.0, axes[2]),
        )
        for du, dv, label in triad:
            norm = math.hypot(du, dv)
            ex = anchor_x + 26.0 * du / norm
            ey = anchor_y - 26.0 * dv / norm
            parts.append(
                f'<line x1="{anchor_x:.2f}" y1="{anchor_y:.2f}" x2="{ex:.2f}" y2="{ey:.2f}" '
                f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{ex + 4:.2f}" y="{ey:.2f}" text-anchor="start" {font}>'
                f"{_escape(label)}</text>"
            )
        parts.append(
            f'<text x="{left}" y="{bottom + 16:.2f}" text-anchor="start" {font}>'
            f"cabinet projection (30&#176;, ratio 1/2)</text>"
        )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="{_STROKE}" '
        f'stroke-width="{_STROKE_WIDTH}" stroke-linejoin="round"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )
