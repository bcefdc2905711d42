"""Minimal text-only SVG writer for log-log convergence charts.

No rendering dependency: the output is assembled as plain XML so it can be
diffed in tests.  One polyline per data series, plus a straight reference
guide of slope -4 through the first MSE point.
"""
from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 20, 50
SERIES_STYLE = {
    "mse_mean": 'fill="none" stroke="#1f77b4" stroke-width="2"',
    "approx_l2": 'fill="none" stroke="#7f7f7f" stroke-width="1.5" stroke-dasharray="6 3"',
}
GUIDE_SLOPE = -4.0


def escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, in that order: what
    ``xml.sax.saxutils.escape`` does, without loading ``xml.sax`` (which pulls
    in ``urllib`` and the network stack)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _decades(lo: float, hi: float) -> list[int]:
    return list(range(math.floor(lo), math.ceil(hi) + 1))


def render_loglog(xs: list[float], series: dict[str, list[float]], x_label: str,
                  title: str = "") -> str:
    """Log-log chart of each series against xs, with the slope -4 guide."""
    if len(xs) < 2:
        raise ValueError("need at least two points to draw a line")
    pts = {
        name: [(x, y) for x, y in zip(xs, ys) if y is not None and y > 0 and math.isfinite(y)]
        for name, ys in series.items()
    }
    if not pts.get("mse_mean"):
        raise ValueError("no positive mse values to plot")
    all_x = [x for p in pts.values() for x, _ in p]
    all_y = [y for p in pts.values() for _, y in p]
    lx0, lx1 = math.log10(min(all_x)), math.log10(max(all_x))
    ly0, ly1 = math.log10(min(all_y)), math.log10(max(all_y))

    # guide through twice the first mse point, clipped to the x range
    gx0, gy0 = pts["mse_mean"][0]
    guide = [(x, 2.0 * gy0 * (x / gx0) ** GUIDE_SLOPE) for x in (min(all_x), max(all_x))]
    ly0 = min(ly0, math.log10(min(y for _, y in guide)))
    ly1 = max(ly1, math.log10(max(y for _, y in guide)))
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
        parts.append(f'<polyline points="{coords}" {SERIES_STYLE[name]}/>')

    (x0, y0), (x1, y1) = guide
    parts.append(f'<line x1="{px(x0):.2f}" y1="{py(y0):.2f}" x2="{px(x1):.2f}" '
                 f'y2="{py(y1):.2f}" stroke="#d62728" stroke-width="1" stroke-dasharray="2 3"/>')
    parts.append(f'<text x="{px(x1) - 8:.1f}" y="{py(y1) - 6:.1f}" font-size="12" '
                 f'fill="#d62728" text-anchor="end">slope -4</text>')

    legend_y = MARGIN_T + 14
    parts.append(f'<text x="{WIDTH - MARGIN_R - 10}" y="{legend_y}" font-size="12" '
                 f'text-anchor="end" fill="#1f77b4">mse_mean</text>')
    parts.append(f'<text x="{WIDTH - MARGIN_R - 10}" y="{legend_y + 16}" font-size="12" '
                 f'text-anchor="end" fill="#7f7f7f">approx_l2</text>')
    parts.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{HEIGHT - 12}" '
                 f'font-size="13" text-anchor="middle">{escape(x_label)} (log scale)</text>')
    if title:
        parts.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{MARGIN_T + 2}" '
                     f'font-size="13" text-anchor="middle">{escape(title)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
