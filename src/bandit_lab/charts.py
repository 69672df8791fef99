"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: no timestamps or library version strings end up in
the file, so chart bytes are reproducible run to run, and tick labels stay
plain-text elements.
"""

import numpy as np

__all__ = ["write_line_chart_svg"]

_WIDTH, _HEIGHT = 800, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 160, 40, 50

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _scale(values, lo, hi, out_lo, out_hi):
    if hi == lo:
        return np.full_like(np.asarray(values, dtype=float), (out_lo + out_hi) / 2.0)
    return out_lo + (np.asarray(values, dtype=float) - lo) * (out_hi - out_lo) / (hi - lo)


def _escape(text: str) -> str:
    """text with &, < and > escaped, as xml.sax.saxutils.escape does; importing
    that module pulls in urllib.request and adds ~7 MB of resident memory."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _points(xs: list, ys: list) -> str:
    """SVG points text of coordinate lists of Python floats."""
    return " ".join(map("{:.1f},{:.1f}".format, xs, ys))


def _ticks(lo: float, hi: float) -> list[float]:
    if hi == lo:
        return [lo]
    return list(np.linspace(lo, hi, 5))


def write_line_chart_svg(path, title: str, series: dict) -> None:
    """Write one chart; series maps label -> (ts, mean, lo, hi) arrays."""
    x_lo = min(float(ts.min()) for ts, _, _, _ in series.values())
    x_hi = max(float(ts.max()) for ts, _, _, _ in series.values())
    y_lo = min(float(lo.min()) for _, _, lo, _ in series.values())
    y_hi = max(float(hi.max()) for _, _, _, hi in series.values())

    plot_l, plot_r = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    plot_t, plot_b = _MARGIN_TOP, _HEIGHT - _MARGIN_BOTTOM

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{(plot_l + plot_r) / 2:.1f}" y="20" text-anchor="middle" font-size="15">{_escape(title)}</text>',
        f'<line x1="{plot_l}" y1="{plot_b}" x2="{plot_r}" y2="{plot_b}" stroke="black"/>',
        f'<line x1="{plot_l}" y1="{plot_t}" x2="{plot_l}" y2="{plot_b}" stroke="black"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        px = float(_scale([tick], x_lo, x_hi, plot_l, plot_r)[0])
        parts.append(f'<line x1="{px:.1f}" y1="{plot_b}" x2="{px:.1f}" y2="{plot_b + 4}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{plot_b + 18}" text-anchor="middle">{_fmt(tick)}</text>')
    for tick in _ticks(y_lo, y_hi):
        py = float(_scale([tick], y_lo, y_hi, plot_b, plot_t)[0])
        parts.append(f'<line x1="{plot_l - 4}" y1="{py:.1f}" x2="{plot_l}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{plot_l - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(tick)}</text>')

    for idx, (label, (ts, mean, lo, hi)) in enumerate(sorted(series.items())):
        color = _COLORS[idx % len(_COLORS)]
        xs = _scale(ts, x_lo, x_hi, plot_l, plot_r).tolist()
        if not np.array_equal(lo, hi):
            ys_lo = _scale(lo, y_lo, y_hi, plot_b, plot_t).tolist()
            ys_hi = _scale(hi, y_lo, y_hi, plot_b, plot_t).tolist()
            band = _points(xs, ys_hi) + " " + _points(xs[::-1], ys_lo[::-1])
            parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        points = _points(xs, _scale(mean, y_lo, y_hi, plot_b, plot_t).tolist())
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        legend_y = plot_t + 16 * idx
        parts.append(
            f'<line x1="{plot_r + 10}" y1="{legend_y}" x2="{plot_r + 30}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{plot_r + 35}" y="{legend_y + 4}">{_escape(label)}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
