"""ASCII and SVG renderings of Ext charts.

The ASCII grid has filtration increasing upward and stems along the
bottom; cells show the dimension (``.`` for zero).  The SVG output is
plain text: a grid of dots with line segments for the h_0/h_1/h_2
products, no external machinery.
"""

from __future__ import annotations

from .resolution import ExtChart


def _extent(chart: ExtChart) -> tuple[int, int, int]:
    """Lowest stem, highest stem and top filtration of the nonzero spots."""
    spots = [(t - s, s) for (s, t), d in chart.dims.items() if d]
    if not spots:
        return 0, 0, 0
    stems = [c for c, _ in spots]
    return min(stems), max(stems), max(s for _, s in spots)


def ascii_chart(chart: ExtChart) -> str:
    """Dimension grid, then one line per class label, then the chart's notes."""
    lo, hi, top = _extent(chart)
    width = max(3, len(str(hi)) + 1)
    lines = []
    for s in range(top, -1, -1):
        row = [f"{s:>3} |"]
        for c in range(lo, hi + 1):
            d = chart.dim(s, c + s)
            row.append(f"{d if d else '.':>{width}}")
        lines.append("".join(row))
    lines.append("    +" + "-" * (width * (hi - lo + 1)))
    lines.append("     " + "".join(f"{c:>{width}}" for c in range(lo, hi + 1)))
    lines.append("")
    for (s, t) in sorted(chart.labels):
        if lo <= t - s <= hi and s <= top:
            for lbl in chart.labels[(s, t)]:
                lines.append(f"  ({t - s}, s={s}): {lbl}")
    for note in chart.annotations:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def svg_chart(chart: ExtChart) -> str:
    lo, hi, top = _extent(chart)
    cell = 28
    pad = 36
    w = pad * 2 + cell * (hi - lo + 1)
    h = pad * 2 + cell * (top + 1)

    def xy(stem: int, s: int, i: int = 0, d: int = 1) -> tuple[float, float]:
        x = pad + (stem - lo) * cell + cell / 2 + (i - (d - 1) / 2) * 7
        y = h - pad - s * cell - cell / 2
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for a, b in (edge for k in sorted(chart.products) for edge in chart.products[k]):
        (s1, t1, i1), (s2, t2, i2) = a, b
        if not (lo <= t1 - s1 <= hi and lo <= t2 - s2 <= hi and s2 <= top):
            continue
        x1, y1 = xy(t1 - s1, s1, i1, chart.dim(s1, t1))
        x2, y2 = xy(t2 - s2, s2, i2, chart.dim(s2, t2))
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                     f'stroke="black" stroke-width="1"/>')
    for s in range(top + 1):
        for c in range(lo, hi + 1):
            d = chart.dim(s, c + s)
            for i in range(d):
                x, y = xy(c, s, i, d)
                parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="black"/>')
    for c in range(lo, hi + 1):
        x, _ = xy(c, 0)
        parts.append(f'<text x="{x:.1f}" y="{h - 10}" font-size="11" '
                     f'text-anchor="middle">{c}</text>')
    for s in range(top + 1):
        _, y = xy(lo, s)
        parts.append(f'<text x="12" y="{y + 4:.1f}" font-size="11">{s}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
