"""Deterministic SVG emission for comparison curves.

Plots are views of metrics.csv: every plotted value is carried verbatim into
a companion CSV, and regenerating from the same store yields identical bytes.
Dashed curves are the original algorithm, solid curves the modified one,
on a log-scaled checkpoint axis with the metric range [0, 1]; checkpoint 0,
which has no log, sits at the axis' left edge.
"""

from __future__ import annotations

import math

PANEL_W = 300
PANEL_H = 240
MARGIN_L = 48
MARGIN_B = 36
MARGIN_T = 28
MARGIN_R = 12
PLOT_W = PANEL_W - MARGIN_L - MARGIN_R
PLOT_H = PANEL_H - MARGIN_T - MARGIN_B

ZERO_GAP = PLOT_W // 10  # between checkpoint 0 and the log axis of the others

COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _xpos(t, t_min, t_max, zero=False):
    """x of checkpoint t on the log axis from t_min to t_max, the least and
    greatest positive checkpoints.  Checkpoint 0 has no log: with `zero` it
    sits at the axis' left edge and the log axis starts ZERO_GAP to its right."""
    if t == 0:
        return MARGIN_L
    left = MARGIN_L + ZERO_GAP if zero else MARGIN_L
    width = MARGIN_L + PLOT_W - left
    if t_max == t_min:
        return left + width / 2
    u = (math.log(t) - math.log(t_min)) / (math.log(t_max) - math.log(t_min))
    return left + u * width


def _ypos(v):
    v = min(max(v, 0.0), 1.0)
    return MARGIN_T + (1.0 - v) * PLOT_H


def render_panels(panels, title: str) -> str:
    """SVG document with one panel per dimension.

    panels: list of (dimension, series) where series is a list of
    (label, dashed, [(checkpoint, value_string), ...]).  Value strings are
    kept verbatim for the companion CSV; floats are parsed only for layout.
    """
    ncols = len(panels)
    width = ncols * PANEL_W
    height = PANEL_H + 20
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="10">',
        f'<text x="{width / 2}" y="14" text-anchor="middle" font-size="12">{title}</text>',
    ]
    for col, (dim, series) in enumerate(panels):
        ox = col * PANEL_W
        all_t = sorted({t for _, _, pts in series for t, _ in pts})
        if not all_t:
            continue
        zero = all_t[0] == 0
        t_min, t_max = (all_t[zero:] or all_t)[0], all_t[-1]
        out.append(f'<g transform="translate({ox},20)">')
        out.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{PLOT_W}" height="{PLOT_H}" '
            'fill="none" stroke="#333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_L + PLOT_W / 2}" y="{MARGIN_T - 8}" text-anchor="middle">d={dim}</text>'
        )
        for frac in (0.0, 0.5, 1.0):
            y = _ypos(frac)
            out.append(
                f'<line x1="{MARGIN_L - 4}" y1="{y}" x2="{MARGIN_L}" y2="{y}" stroke="#333"/>'
            )
            out.append(
                f'<text x="{MARGIN_L - 6}" y="{y + 3}" text-anchor="end">{frac:g}</text>'
            )
        for t in all_t:
            x = _xpos(t, t_min, t_max, zero)
            yb = MARGIN_T + PLOT_H
            out.append(f'<line x1="{x}" y1="{yb}" x2="{x}" y2="{yb + 4}" stroke="#333"/>')
            out.append(f'<text x="{x}" y="{yb + 14}" text-anchor="middle">{t}</text>')
        for si, (label, dashed, pts) in enumerate(series):
            color = COLORS[si % len(COLORS)]
            coords = " ".join(
                f"{_xpos(t, t_min, t_max, zero):.2f},{_ypos(float(v)):.2f}" for t, v in pts
            )
            dash = ' stroke-dasharray="6,4"' if dashed else ""
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
            )
            if col == 0:
                ly = MARGIN_T + 12 + 12 * si
                lx = MARGIN_L + 8
                out.append(
                    f'<line x1="{lx}" y1="{ly}" x2="{lx + 20}" y2="{ly}" '
                    f'stroke="{color}" stroke-width="1.5"{dash}/>'
                )
                out.append(f'<text x="{lx + 24}" y="{ly + 3}">{label}</text>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
