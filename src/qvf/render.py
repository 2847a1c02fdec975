"""Deterministic report rendering: SVG, binary PPM, and grid CSV.

No plotting dependency: files are assembled by hand so identical inputs
produce byte-identical outputs, which the tests rely on.

A (theta, phi) grid is drawn through a color scale, the value
``(color_fn, legend, kind)``: :func:`qvf_scale` bands mean QVF green
below the lower threshold, white across the dubious band and red above
the upper one (defaults 0.45 / 0.55), fading linearly inside green and
red; :func:`delta_scale` runs blue-white-red, symmetric about zero.
:func:`grid_svg`, titled ``"{kind} ({group})"``, and :func:`grid_ppm`
take either.  The SVG overlay marks the (theta, phi) of the faults that
reproduce a common gate: Y (180, 0), X (180, 180), T (0, 45), S (0, 90),
Z (0, 180).
"""

from .metrics import HeatmapGrid, HistogramStats

GREEN = (0, 153, 0)
WHITE = (255, 255, 255)
RED = (204, 0, 0)
BLUE = (0, 0, 204)

#: overlay marks: name -> (theta_deg, phi_deg) of the equivalent fault
REFERENCE_GATES = (
    ("Y", 180, 0),
    ("T", 0, 45),
    ("S", 0, 90),
    ("Z", 0, 180),
    ("X", 180, 180),
)

DEFAULT_THRESHOLDS = (0.45, 0.55)
DEFAULT_CELL = 24  # px per cell of an SVG or PPM grid

#: largest PPM a report renders, in pixels: 24 px cells on a 1 degree grid
#: (8,640 x 4,344) fit, an image that would need gigabytes does not
MAX_PPM_PIXELS = 1 << 26


def _plot_size(grid: HeatmapGrid, cell: int):
    """(rows, cols, width_px, height_px) of a grid drawn ``cell`` px per cell."""
    if cell < 1:
        raise ValueError(f"cell size must be >= 1 px, got {cell}")
    rows, cols = len(grid.theta_degs), len(grid.phi_degs)
    return rows, cols, cols * cell, rows * cell


def _esc(text: str) -> str:
    # xml.sax.saxutils.escape without its urllib and email imports
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _lerp(c0, c1, frac: float):
    f = min(max(frac, 0.0), 1.0)
    return tuple(round(a + (b - a) * f) for a, b in zip(c0, c1))


def qvf_color(value: float, thresholds=DEFAULT_THRESHOLDS):
    """Green/white/red banding for a QVF value in [0, 1]."""
    lo, hi = thresholds
    if value < lo:
        return _lerp(GREEN, WHITE, value / lo if lo > 0 else 1.0)
    if value <= hi:
        return WHITE
    return _lerp(WHITE, RED, (value - hi) / (1.0 - hi) if hi < 1.0 else 1.0)


def delta_color(value: float, vmax: float):
    """Blue (negative) to white (zero) to red (positive), clipped at vmax."""
    if value < 0:
        return _lerp(WHITE, BLUE, -value / vmax)
    return _lerp(WHITE, RED, value / vmax)


def qvf_scale(thresholds=DEFAULT_THRESHOLDS):
    """(color_fn, legend, kind) of the mean-QVF maps."""
    lo, hi = thresholds
    legend = [
        (f"<{lo:g}", qvf_color(0.0, thresholds)),
        (f"{lo:g}-{hi:g}", WHITE),
        (f">{hi:g}", qvf_color(1.0, thresholds)),
    ]
    return (lambda v: qvf_color(v, thresholds)), legend, "mean QVF"


def delta_scale(grid: HeatmapGrid):
    """(color_fn, legend, kind) of a difference map, symmetric about zero and
    clipped at its largest |cell|, but never narrower than +-0.05."""
    vmax = max(float(abs(grid.cells).max()), 0.05)
    legend = [(f"-{vmax:.3g}", BLUE), ("0", WHITE), (f"+{vmax:.3g}", RED)]
    return (lambda v: delta_color(v, vmax)), legend, "delta QVF"


def _rgb(color) -> str:
    return f"rgb({color[0]},{color[1]},{color[2]})"


def _fmt_angle(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def grid_csv(grid: HeatmapGrid) -> str:
    """Tidy export: one theta_deg,phi_deg,value row per cell."""
    lines = ["theta_deg,phi_deg,value"]
    for i, t in enumerate(grid.theta_degs):
        for j, p in enumerate(grid.phi_degs):
            lines.append(f"{_fmt_angle(t)},{_fmt_angle(p)},{float(grid.cells[i, j])!r}")
    return _lines(lines)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_MARGIN_LEFT = 64
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 58
_MARGIN_RIGHT = 24
#: width and height in px of a timeline or histogram chart, then of its plot area
_CHART = (560, 300, 560 - _MARGIN_LEFT - _MARGIN_RIGHT, 300 - _MARGIN_TOP - _MARGIN_BOTTOM)


def _svg(width: int, height: int, title: str, body: list) -> str:
    """One SVG document: white backdrop, title line, then the body elements."""
    return _lines([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_MARGIN_LEFT}" y="24" font-size="14">{_esc(title)}</text>',
        *body,
        "</svg>",
    ])


def _axis_stride(count: int) -> int:
    return max(1, (count + 7) // 8)


def grid_svg(grid: HeatmapGrid, scale, cell: int = DEFAULT_CELL, overlay=False) -> str:
    """A grid drawn through a color scale, ``cell`` px per cell."""
    color_fn, legend, kind = scale
    rows, cols, plot_w, plot_h = _plot_size(grid, cell)
    width = _MARGIN_LEFT + plot_w + _MARGIN_RIGHT
    height = _MARGIN_TOP + plot_h + _MARGIN_BOTTOM
    out = []
    for i, t in enumerate(grid.theta_degs):
        y = _MARGIN_TOP + i * cell
        for j, p in enumerate(grid.phi_degs):
            x = _MARGIN_LEFT + j * cell
            value = float(grid.cells[i, j])
            out.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_rgb(color_fn(value))}">'
                f"<title>theta={_fmt_angle(t)} phi={_fmt_angle(p)} "
                f"value={value:.6f}</title></rect>"
            )
    # axis labels
    for i in range(0, rows, _axis_stride(rows)):
        y = _MARGIN_TOP + i * cell + cell // 2 + 4
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y}" text-anchor="end">'
            f"{_fmt_angle(grid.theta_degs[i])}</text>"
        )
    for j in range(0, cols, _axis_stride(cols)):
        x = _MARGIN_LEFT + j * cell + cell // 2
        out.append(
            f'<text x="{x}" y="{_MARGIN_TOP + plot_h + 14}" text-anchor="middle">'
            f"{_fmt_angle(grid.phi_degs[j])}</text>"
        )
    out.append(
        f'<text x="{_MARGIN_LEFT - 8}" y="{_MARGIN_TOP - 8}" text-anchor="end">'
        "theta</text>"
    )
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w}" y="{_MARGIN_TOP + plot_h + 14}" '
        'text-anchor="start">phi(deg)</text>'
    )
    if overlay:
        t_span = max(grid.theta_degs) - min(grid.theta_degs) or 1
        p_span = max(grid.phi_degs) - min(grid.phi_degs) or 1
        for name, t_deg, p_deg in REFERENCE_GATES:
            if not (min(grid.phi_degs) <= p_deg <= max(grid.phi_degs)):
                continue
            x = _MARGIN_LEFT + (p_deg - min(grid.phi_degs)) / p_span * (plot_w - cell) + cell / 2
            y = _MARGIN_TOP + (t_deg - min(grid.theta_degs)) / t_span * (plot_h - cell) + cell / 2
            out.append(
                f'<line x1="{x:.1f}" y1="{_MARGIN_TOP}" x2="{x:.1f}" '
                f'y2="{_MARGIN_TOP + plot_h}" stroke="black" '
                'stroke-dasharray="2,3" stroke-width="1"/>'
            )
            out.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3.5" fill="none" '
                'stroke="black" stroke-width="1.5"/>'
            )
            out.append(
                f'<text x="{x + 6:.1f}" y="{y - 6:.1f}">{name}</text>'
            )
    # legend swatches
    lx = _MARGIN_LEFT
    ly = _MARGIN_TOP + plot_h + 28
    for label, color in legend:
        out.append(
            f'<rect x="{lx}" y="{ly}" width="14" height="14" '
            f'fill="{_rgb(color)}" stroke="black" stroke-width="0.5"/>'
        )
        out.append(f'<text x="{lx + 18}" y="{ly + 11}">{_esc(label)}</text>')
        lx += 18 + 8 * len(label) + 24
    return _svg(width, height, f"{kind} ({grid.group})", out)


# ---------------------------------------------------------------------------
# PPM (binary, one cell x cell block per cell)
# ---------------------------------------------------------------------------


def grid_ppm(grid: HeatmapGrid, scale, cell: int = DEFAULT_CELL) -> bytes:
    """A grid drawn through a color scale's ``color_fn``, ``cell`` px per cell."""
    rows, _, width, height = _plot_size(grid, cell)
    if width * height > MAX_PPM_PIXELS:
        raise ValueError(f"a {width} x {height} px image exceeds the PPM budget "
                         f"of {MAX_PPM_PIXELS} px")
    color_fn = scale[0]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    lines = [header]
    for i in range(rows):
        line = b"".join([bytes(color_fn(float(v))) * cell for v in grid.cells[i]])
        lines += [line] * cell  # one bytes object for the repeats of a row
    return b"".join(lines)


# ---------------------------------------------------------------------------
# timelines and histograms
# ---------------------------------------------------------------------------

_SERIES_COLORS = (
    "rgb(31,119,180)", "rgb(255,127,14)", "rgb(44,160,44)", "rgb(214,39,40)",
    "rgb(148,103,189)", "rgb(140,86,75)", "rgb(227,119,194)", "rgb(127,127,127)",
)


def render_timeline_svg(series: dict, title: str) -> str:
    """Per-qubit QVF-vs-gate-index polylines for one fixed fault."""
    width, height, plot_w, plot_h = _CHART
    xs = [gi for points in series.values() for gi, _ in points]
    x_min, x_max = min(xs), max(xs)
    span = (x_max - x_min) or 1
    out = [
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>'
    ]
    for frac, label in ((0.0, "1.0"), (0.5, "0.5"), (1.0, "0.0")):
        y = _MARGIN_TOP + frac * plot_h
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.1f}" '
            f'x2="{_MARGIN_LEFT + plot_w}" y2="{y:.1f}" stroke="rgb(220,220,220)"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end">{label}</text>'
        )
    def sx(gi):
        return _MARGIN_LEFT + (gi - x_min) / span * plot_w
    def sy(v):
        return _MARGIN_TOP + (1.0 - v) * plot_h
    lx = _MARGIN_LEFT
    ly = height - 20
    for idx, qubit in enumerate(sorted(series)):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        points = " ".join(f"{sx(gi):.1f},{sy(v):.1f}" for gi, v in series[qubit])
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for gi, v in series[qubit]:
            out.append(
                f'<circle cx="{sx(gi):.1f}" cy="{sy(v):.1f}" r="2.5" fill="{color}"/>'
            )
        out.append(
            f'<rect x="{lx}" y="{ly}" width="12" height="12" fill="{color}"/>'
        )
        out.append(f'<text x="{lx + 16}" y="{ly + 10}">q{qubit}</text>')
        lx += 16 + 8 * (len(str(qubit)) + 1) + 20
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w}" y="{_MARGIN_TOP + plot_h + 14}" '
        'text-anchor="end">gate index</text>'
    )
    return _svg(width, height, title, out)


def timeline_csv(series: dict) -> str:
    lines = ["qubit,gate_index,qvf"]
    for qubit in sorted(series):
        for gi, v in series[qubit]:
            lines.append(f"{qubit},{gi},{v!r}")
    return _lines(lines)


def render_hist_svg(stats: HistogramStats, title: str) -> str:
    width, height, plot_w, plot_h = _CHART
    peak = max(stats.counts) or 1
    bins = len(stats.counts)
    out = [
        f'<text x="{_MARGIN_LEFT}" y="{_MARGIN_TOP - 6}">'
        f"mean={stats.mean:.4f} stddev={stats.stddev:.4f}</text>"
    ]
    bar_w = plot_w / bins
    for i, count in enumerate(stats.counts):
        h = plot_h * count / peak
        x = _MARGIN_LEFT + i * bar_w
        y = _MARGIN_TOP + plot_h - h
        out.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h:.2f}" '
            'fill="rgb(70,110,180)" stroke="white" stroke-width="0.5"/>'
        )
    out.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP + plot_h}" '
        f'x2="{_MARGIN_LEFT + plot_w}" y2="{_MARGIN_TOP + plot_h}" stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _MARGIN_LEFT + frac * plot_w
        out.append(
            f'<text x="{x:.1f}" y="{_MARGIN_TOP + plot_h + 14}" '
            f'text-anchor="middle">{frac:g}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w}" y="{_MARGIN_TOP + plot_h + 32}" '
        'text-anchor="end">QVF</text>'
    )
    return _svg(width, height, title, out)


def hist_csv(stats: HistogramStats) -> str:
    lines = ["bin_low,bin_high,count"]
    for i, count in enumerate(stats.counts):
        lines.append(
            f"{stats.bin_edges[i]!r},{stats.bin_edges[i + 1]!r},{count}"
        )
    return _lines(lines)
