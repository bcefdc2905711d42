"""Minimal text-only SVG writer for log-log convergence charts.

No rendering dependency: the output is assembled as plain XML so it can be
diffed in tests.  One polyline per data series, plus a straight reference
guide of a given slope through (twice) the first point of one series: slope
-4 through the MSE of a plain report, -1 through the Regress-Now MSE of a
paired one.
"""
from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 20, 50
# series name: (colour, line style)
SERIES_STYLE = {
    "mse_mean": ("#1f77b4", 'stroke-width="2"'),
    "approx_l2": ("#7f7f7f", 'stroke-width="1.5" stroke-dasharray="6 3"'),
    "mse_later_mean": ("#1f77b4", 'stroke-width="2"'),
    "mse_now_mean": ("#ff7f0e", 'stroke-width="2"'),
}


def escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, in that order: what
    ``xml.sax.saxutils.escape`` does, without loading ``xml.sax`` (which pulls
    in ``urllib`` and the network stack)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _decades(lo: float, hi: float) -> list[int]:
    return list(range(math.floor(lo), math.ceil(hi) + 1))


def render_loglog(xs: list[float], series: dict[str, list[float]], x_label: str,
                  guide: tuple[str, float] = ("mse_mean", -4.0), title: str = "") -> str:
    """Log-log chart of each series against xs, with a guide of slope
    ``guide[1]`` through twice the first point of series ``guide[0]``."""
    if len(xs) < 2:
        raise ValueError("need at least two points to draw a line")
    pts = {
        name: [(x, y) for x, y in zip(xs, ys) if y is not None and y > 0 and math.isfinite(y)]
        for name, ys in series.items()
    }
    guided, slope = guide
    if not pts.get(guided):
        raise ValueError(f"no positive {guided} values to plot")
    all_x = [x for p in pts.values() for x, _ in p]
    all_y = [y for p in pts.values() for _, y in p]
    lx0, lx1 = math.log10(min(all_x)), math.log10(max(all_x))
    ly0, ly1 = math.log10(min(all_y)), math.log10(max(all_y))

    # the guide, clipped to the x range
    gx0, gy0 = pts[guided][0]
    line = [(x, 2.0 * gy0 * (x / gx0) ** slope) for x in (min(all_x), max(all_x))]
    ly0 = min(ly0, math.log10(min(y for _, y in line)))
    ly1 = max(ly1, math.log10(max(y for _, y in line)))
    if lx1 - lx0 < 1e-12:
        lx1 = lx0 + 1.0
    if ly1 - ly0 < 1e-12:
        ly1 = ly0 + 1.0

    def px(x: float) -> float:
        return MARGIN_L + (math.log10(x) - lx0) / (lx1 - lx0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(y: float) -> float:
        return HEIGHT - MARGIN_B - (math.log10(y) - ly0) / (ly1 - ly0) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
    ]
    for d in _decades(lx0, lx1):
        if lx0 <= d <= lx1:
            x = px(10.0**d)
            parts.append(f'<line x1="{x:.1f}" y1="{HEIGHT - MARGIN_B}" x2="{x:.1f}" '
                         f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>')
            parts.append(f'<text x="{x:.1f}" y="{HEIGHT - MARGIN_B + 20}" font-size="12" '
                         f'text-anchor="middle">1e{d}</text>')
    for d in _decades(ly0, ly1):
        if ly0 <= d <= ly1:
            y = py(10.0**d)
            parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" '
                         f'y2="{y:.1f}" stroke="black"/>')
            parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" font-size="12" '
                         f'text-anchor="end">1e{d}</text>')

    for name, p in pts.items():
        if len(p) < 2:
            continue
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in p)
        colour, style = SERIES_STYLE[name]
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{colour}" {style}/>')

    (x0, y0), (x1, y1) = line
    parts.append(f'<line x1="{px(x0):.2f}" y1="{py(y0):.2f}" x2="{px(x1):.2f}" '
                 f'y2="{py(y1):.2f}" stroke="#d62728" stroke-width="1" stroke-dasharray="2 3"/>')
    parts.append(f'<text x="{px(x1) - 8:.1f}" y="{py(y1) - 6:.1f}" font-size="12" '
                 f'fill="#d62728" text-anchor="end">slope {slope:g}</text>')

    for i, name in enumerate(series):
        parts.append(f'<text x="{WIDTH - MARGIN_R - 10}" y="{MARGIN_T + 14 + 16 * i}" '
                     f'font-size="12" text-anchor="end" fill="{SERIES_STYLE[name][0]}">'
                     f'{name}</text>')
    parts.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{HEIGHT - 12}" '
                 f'font-size="13" text-anchor="middle">{escape(x_label)} (log scale)</text>')
    if title:
        parts.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{MARGIN_T + 2}" '
                     f'font-size="13" text-anchor="middle">{escape(title)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
