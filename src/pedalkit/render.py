"""CSV and SVG output.

CSV columns are fixed per curve kind (floats at 17 significant digits,
enough to round-trip doubles).  SVG output is deterministic: the same
inputs produce byte-identical files.  Sampled curves are drawn as
polylines split at non-ok samples; the viewBox fits all finite overlay
points with a 5% margin and strokes are 0.5% of the viewport diagonal.

Both are formatted and written in blocks of rows (polyline points for
SVG), so the text of a whole curve is never held in memory at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterator, Optional

import numpy as np

from .curve import CurveDef, position_xy, sample_grid
from .envelope import LineFamily
from .errors import RangeError
from .frontal import LegendrianCurve
from .transforms import FLAG_NAMES, FLAG_OK, MappedCurve
from .vec import finite_xy

MIN_PLOT_SAMPLES = 1024

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


# rows (CSV) or points (SVG polylines) formatted per write
_BLOCK = 4096


def write_mapped_csv(mc: MappedCurve, fh: IO[str]) -> None:
    fh.write("t,x,y,flag\n")
    names = np.array(FLAG_NAMES, dtype=object)
    for i in range(0, len(mc.grid), _BLOCK):
        b = slice(i, i + _BLOCK)
        rows = zip(mc.grid[b].tolist(), mc.points[b, 0].tolist(), mc.points[b, 1].tolist(),
                   names[mc.flags[b]].tolist())
        fh.write("".join(["%.17g,%.17g,%.17g,%s\n" % row for row in rows]))


def write_legendrian_csv(lc: LegendrianCurve, fh: IO[str]) -> None:
    pts = lc.frenet.p
    cols = (lc.ts, pts[:, 0], pts[:, 1], lc.nu_grid[:, 0], lc.nu_grid[:, 1],
            lc.ell_grid, lc.beta_grid)
    fh.write("t,x,y,nu_x,nu_y,ell,beta,flag\n")
    for i in range(0, len(lc.ts), _BLOCK):
        rows = zip(*(c[i:i + _BLOCK].tolist() for c in cols))
        fh.write("".join(["%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,ok\n" % row
                          for row in rows]))


# ---------------------------------------------------------------------------
# SVG


@dataclass(frozen=True)
class Overlay:
    """One drawable curve: polyline segments in curve coordinates."""

    segments: tuple[np.ndarray, ...]
    label: str
    color: str


def _segments_from(points: np.ndarray, keep: np.ndarray, closed: bool) -> tuple[np.ndarray, ...]:
    """Split into maximal runs of kept samples; a fully kept closed
    curve gets its first point appended to close the loop."""
    n = len(points)
    if keep.all():
        if closed:
            return (np.vstack([points, points[:1]]),)
        return (points.copy(),)
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return ()
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    # a closed curve whose first and last samples are kept wraps around
    if closed and len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == n - 1:
        runs[0] = np.concatenate([runs[-1], runs[0]])
        runs.pop()
    return tuple(points[r] for r in runs if len(r) >= 2)


def overlay_from_mapped(mc: MappedCurve, label: str | None = None,
                        color: str = PALETTE[0]) -> Overlay:
    keep = (mc.flags == FLAG_OK) & finite_xy(mc.points)
    segs = _segments_from(mc.points, keep, mc.closed)
    if label is None:
        label = f"{mc.kind.name} of {mc.source_name}"
    return Overlay(segs, label, color)


# sampled frontals are mapped curves with a normal
overlay_from_frontal = overlay_from_mapped


def overlay_from_curve(curve: CurveDef, label: str | None = None,
                       color: str = PALETTE[0]) -> Overlay:
    n = max(curve.samples, MIN_PLOT_SAMPLES)
    ts = sample_grid(curve, n)
    pts = position_xy(curve, ts)
    segs = _segments_from(pts, finite_xy(pts), curve.closed)
    return Overlay(segs, label or curve.name, color)


@dataclass
class PlotSpec:
    overlays: list[Overlay] = field(default_factory=list)
    family: Optional[LineFamily] = None
    family_count: int = 0


def _clip_line_to_box(a: tuple[float, float], c: float,
                      box: tuple[float, float, float, float]) -> Optional[tuple]:
    """Segment of { <p, a> = c } inside [x0,x1]x[y0,y1], or None."""
    x0, x1, y0, y1 = box
    ax, ay = a
    pts = []
    if abs(ay) > abs(ax) * 1e-15 and ay != 0.0:
        for x in (x0, x1):
            y = (c - ax * x) / ay
            if y0 - 1e-12 <= y <= y1 + 1e-12:
                pts.append((x, y))
    if ax != 0.0:
        for y in (y0, y1):
            x = (c - ay * y) / ax
            if x0 - 1e-12 <= x <= x1 + 1e-12:
                pts.append((x, y))
    if len(pts) < 2:
        return None
    # the two most distant candidates span the chord
    best = max(((p, q) for p in pts for q in pts),
               key=lambda pq: (pq[0][0] - pq[1][0]) ** 2 + (pq[0][1] - pq[1][1]) ** 2)
    if (best[0][0] - best[1][0]) ** 2 + (best[0][1] - best[1][1]) ** 2 == 0.0:
        return None
    return best


def _svg_chunks(spec: PlotSpec) -> Iterator[str]:
    """The SVG text of spec in pieces.  Everything that can raise runs
    before the first piece is yielded; the rest only formats points."""
    if spec.family_count < 0:
        raise RangeError(f"need a non-negative number of family lines, "
                         f"got {spec.family_count}")
    all_pts = [seg for ov in spec.overlays for seg in ov.segments]
    if not all_pts:
        raise RangeError("nothing to plot: no finite overlay points")
    stacked = np.vstack(all_pts)
    xmin, ymin = stacked.min(axis=0)
    xmax, ymax = stacked.max(axis=0)
    del stacked  # the generator keeps its locals alive until the last chunk
    span_x = xmax - xmin
    span_y = ymax - ymin
    pad_x = 0.05 * span_x if span_x > 0 else 0.5
    pad_y = 0.05 * span_y if span_y > 0 else 0.5
    x0, x1 = xmin - pad_x, xmax + pad_x
    y0, y1 = ymin - pad_y, ymax + pad_y
    w, h = x1 - x0, y1 - y0
    stroke = 0.005 * math.hypot(w, h)

    def fmt(v: float) -> str:
        return f"{v:.8g}"

    # SVG y grows downward, so emit (x, -y)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{fmt(x0)} {fmt(-y1)} {fmt(w)} {fmt(h)}">',
    ]
    if spec.family is not None and spec.family_count > 0:
        curve = spec.family.curve
        if curve.closed:
            ts = curve.t_min + (curve.t_max - curve.t_min) * np.arange(spec.family_count) / spec.family_count
        else:
            ts = np.linspace(curve.t_min, curve.t_max, spec.family_count)
        lines.append(f'<g data-label="family-lines" stroke="#bbbbbb" '
                     f'stroke-width="{fmt(0.5 * stroke)}">')
        for a, c in zip(spec.family.a(ts).tolist(), spec.family.c(ts).tolist()):
            seg = _clip_line_to_box(a, c, (x0, x1, y0, y1))
            if seg is None:
                continue
            (px, py), (qx, qy) = seg
            lines.append(
                f'<line x1="{fmt(px)}" y1="{fmt(-py)}" x2="{fmt(qx)}" y2="{fmt(-qy)}"/>')
        lines.append("</g>")
    yield "\n".join(lines) + "\n"
    for ov in spec.overlays:
        # escaped as xml.sax.saxutils.escape would, without importing urllib.request
        label = ov.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        label = label.replace('"', "&quot;")
        yield (f'<g data-label="{label}" fill="none" stroke="{ov.color}" '
               f'stroke-width="{fmt(stroke)}">\n')
        for seg in ov.segments:
            yield '<polyline points="'
            for i in range(0, len(seg), _BLOCK):
                xs, ys = seg[i:i + _BLOCK, 0].tolist(), (-seg[i:i + _BLOCK, 1]).tolist()
                yield (" " if i else "") + " ".join(["%.8g,%.8g" % xy for xy in zip(xs, ys)])
            yield '"/>\n'
        yield "</g>\n"
    yield "</svg>\n"


def render_svg(spec: PlotSpec) -> str:
    return "".join(_svg_chunks(spec))


def render_to_file(spec: PlotSpec, path: str) -> None:
    chunks = _svg_chunks(spec)
    head = next(chunks)  # raises before path is opened, so a failure leaves it alone
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        fh.writelines(chunks)
