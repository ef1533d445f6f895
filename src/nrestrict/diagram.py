"""Self-contained SVG rendering of Newton diagrams.

Draws the exponent lattice, support points, the polyhedron boundary with its
rays, the bisectrix, and (for non-adapted inputs) the shifted line
``t2 = t1 + m + 1``, the augmented half-line and their crossing.  Exact
coordinates are embedded as ``data-*`` attributes so consumers can recover
them without parsing pixel positions.
"""

from __future__ import annotations

from typing import Optional

from .geometry import NewtonPolyhedron, RHeightResult


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape``
    has them; that module imports ``urllib.request``, about 7 MB."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    def __init__(self, tmax: float, size: int = 560, margin: int = 48):
        self.size = size
        self.margin = margin
        self.scale = (size - 2 * margin) / tmax
        self.parts: list[str] = []

    def x(self, t1) -> float:
        return self.margin + float(t1) * self.scale

    def y(self, t2) -> float:
        return self.size - self.margin - float(t2) * self.scale

    def line(self, p, q, stroke="#333", width=1.2, dash=None, role=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        r = f' data-role="{role}"' if role else ""
        self.parts.append(
            f'<line x1="{self.x(p[0]):.2f}" y1="{self.y(p[1]):.2f}" '
            f'x2="{self.x(q[0]):.2f}" y2="{self.y(q[1]):.2f}" '
            f'stroke="{stroke}" stroke-width="{width}"{d}{r}/>')

    def dot(self, p, radius=4.0, fill="#1f4e9c", role=None, extra=""):
        r = f' data-role="{role}"' if role else ""
        self.parts.append(
            f'<circle cx="{self.x(p[0]):.2f}" cy="{self.y(p[1]):.2f}" '
            f'r="{radius}" fill="{fill}"{r}'
            f'{extra} data-t1="{p[0]}" data-t2="{p[1]}"/>')

    def text(self, p, s, dx=6, dy=-6, size=12, fill="#222"):
        self.parts.append(
            f'<text x="{self.x(p[0]) + dx:.2f}" y="{self.y(p[1]) + dy:.2f}" '
            f'font-size="{size}" font-family="monospace" fill="{fill}">{s}</text>')

    def to_svg(self) -> str:
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size}" '
                f'height="{self.size}" viewBox="0 0 {self.size} {self.size}">\n'
                f'<rect width="100%" height="100%" fill="white"/>\n'
                f"{body}\n</svg>\n")


def render_diagram(polyhedron: NewtonPolyhedron,
                   rh: Optional[RHeightResult] = None,
                   title: str = "") -> str:
    """SVG for one polyhedron; pass the r-height result to overlay the
    shifted bisectrix, augmented half-line and their boundary crossing."""
    pts = [(float(e1), float(e2)) for (e1, e2) in polyhedron.support]
    tmax = max(max(p[0] for p in pts), max(p[1] for p in pts)) + 2.0
    if rh is not None:
        tmax = max(tmax, float(rh.value) + float(rh.m) + 2.0)
    cv = _Canvas(tmax)

    step = 1 if tmax <= 24 else max(1, int(tmax // 16))
    k = 0
    while k <= tmax:
        cv.line((k, 0), (k, tmax), stroke="#eee", width=0.6)
        cv.line((0, k), (tmax, k), stroke="#eee", width=0.6)
        k += step
    cv.line((0, 0), (tmax, 0), stroke="#888", width=1.0)
    cv.line((0, 0), (0, tmax), stroke="#888", width=1.0)
    cv.line((0, 0), (tmax, tmax), stroke="#aaa", width=1.0, dash="5,4",
            role="bisectrix")

    verts = polyhedron.vertices
    cv.line(verts[0], (verts[0][0], tmax), stroke="#1f4e9c", width=2.0,
            role="vertical-ray")
    for e in polyhedron.edges:
        cv.line(e.left, e.right, stroke="#1f4e9c", width=2.0, role="edge")
    cv.line(verts[-1], (tmax, verts[-1][1]), stroke="#1f4e9c", width=2.0,
            role="horizontal-ray")

    face = polyhedron.principal_face()
    if face.kind == "compact_edge":
        cv.line(face.edge.left, face.edge.right, stroke="#c02020", width=3.4,
                role="principal-face")
    elif face.kind == "vertex":
        cv.dot(face.vertex, radius=6.5, fill="#c02020", role="principal-face")
    d = polyhedron.distance()
    cv.dot((d, d), radius=3.0, fill="#777", role="distance-point")

    if rh is not None:
        m = rh.m
        # shifted bisectrix t2 = t1 + m + 1
        t_hi = tmax - float(m) - 1.0
        cv.line((0, float(m) + 1.0), (t_hi, tmax), stroke="#20772c",
                width=1.4, dash="7,4", role="delta-line")
        # augmented half-line through the anchor, up-left
        w = rh.line_weight
        a0 = rh.anchor
        t2_top = tmax
        t1_at_top = a0[0] - (t2_top - float(a0[1])) * float(w.k2) / float(w.k1)
        cv.line(a0, (t1_at_top, t2_top), stroke="#7a3fa8", width=1.6,
                dash="3,4", role="augmented-halfline")
        cv.dot(rh.crossing, radius=5.0, fill="#20772c", role="delta-crossing")
        cv.text(rh.crossing, f"({rh.crossing[0]}, {rh.crossing[1]})", dy=-10,
                fill="#20772c")

    for (e1, e2) in sorted(polyhedron.support):
        cv.dot((e1, e2), radius=2.6, fill="#555", role="support")
    for v in verts:
        cv.dot(v, radius=4.0, fill="#1f4e9c", role="vertex")
        cv.text(v, f"({v[0]},{v[1]})")
    for e in polyhedron.edges:
        mid = ((e.left[0] + e.right[0]) / 2, (e.left[1] + e.right[1]) / 2)
        cv.text(mid, f"k=({e.weight.k1},{e.weight.k2})", dy=14, size=11,
                fill="#1f4e9c")
    if title:
        cv.parts.append(f'<text x="{cv.margin}" y="24" font-size="14" '
                        f'font-family="monospace">{_escape(title)}</text>')
    return cv.to_svg()


def render_loglog_plot(fits) -> str:
    """Log-log polyline plot for a list of decay fits."""
    import math

    size, margin = 560, 52
    xs, ys = [], []
    for f in fits:
        xs.extend(math.log10(v) for v in f.lambda_grid)
        ys.extend(math.log10(max(v, 1e-300)) for v in f.magnitudes)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0

    def px(x):
        return margin + (x - x0) / dx * (size - 2 * margin)

    def py(y):
        return size - margin - (y - y0) / dy * (size - 2 * margin)

    colors = ["#1f4e9c", "#c02020", "#20772c", "#7a3fa8", "#a86f20"]
    parts = [f'<rect width="100%" height="100%" fill="white"/>',
             f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
             f'y2="{size - margin}" stroke="#333"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{size - margin}" stroke="#333"/>']
    for i, f in enumerate(fits):
        col = colors[i % len(colors)]
        pts = " ".join(
            f"{px(math.log10(l)):.1f},{py(math.log10(max(v, 1e-300))):.1f}"
            for l, v in zip(f.lambda_grid, f.magnitudes))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{col}" '
                     f'stroke-width="1.6" data-role="decay-curve"/>')
        parts.append(f'<text x="{margin + 6}" y="{margin + 16 * (i + 1)}" '
                     f'font-size="12" font-family="monospace" fill="{col}">'
                     f"{f.phase}: fit {f.fitted_exponent:.3f} "
                     f"({f.verdict})</text>")
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">\n'
            + "\n".join(parts) + "\n</svg>\n")
