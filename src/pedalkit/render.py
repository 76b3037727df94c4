"""CSV and SVG output.

CSV columns are fixed per curve kind (floats at 17 significant digits,
enough to round-trip doubles).  SVG output is deterministic: the same
inputs produce byte-identical files.  Sampled curves are drawn as
polylines split at non-ok samples; the viewBox fits all finite overlay
points with a 5% margin and strokes are 0.5% of the viewport diagonal.

Both are formatted and written in blocks of rows (polyline points for
SVG), so the text of a whole curve is never held in memory at once.
The numbers of a block are formatted by one numpy kernel,
`_format_rows`, byte for byte as '%.17g' (CSV) or '%.8g' (SVG) would;
its lookup tables are built on the first write.  It works word-major:
each 8-byte word of text is one array over all the columns of a block,
and one copy puts the words in row order.  The exponent word is made
only for a block where some value prints one.  The few values it
cannot round with certainty are formatted by Python's '%' instead.  A
closed curve kept whole is a view of its points, drawn back to its
first point; the viewBox comes from the min and max of each column of
each segment.  The source curve's overlay reads the points of its kept
Frenet frame when it has one on the plot grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import IO, Iterator, Optional

import numpy as np

from .curve import CurveDef, param_grid, position_xy, sample_grid
from .envelope import LineFamily
from .errors import RangeError
from .frontal import LegendrianCurve
from .transforms import FLAG_NAMES, FLAG_OK, MappedCurve, kept_frame
from .vec import finite_xy

MIN_PLOT_SAMPLES = 1024

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


# rows (CSV) or points (SVG polylines) formatted per write
_BLOCK = 4096

# '%.Pg' in numpy.  The P-digit mantissa of x is |x| * 10^(P-1-e),
# e = floor(log10|x|).  For P <= 8 it is one product with the correctly
# rounded power of ten, within 2.3e-8 of the exact value (two roundings
# below 10^8); for larger P a double-double product (Dekker's split, as
# numpy has no fused multiply-add) with a (hi, lo) table of powers of
# ten.  Each number becomes uint64 words of text: separator, sign and
# "0.000" prefix, "d.d.d.d." digit quads and an exponent.  Each word is
# one contiguous array over the stacked columns of a block; ANDed with
# its own row of the mask table, at the entry of the number's notation,
# e and significant digits, it keeps only the bytes that are printed.  One
# copy puts the words in row order and one translate drops the zeros.
# Zeros, non-finite values, |e| >= _EMAX, exponent estimates that were
# off and mantissas within 1e-7 of a rounding tie go to Python's '%'.
_EMAX = 256
_SPLIT = 134217729.0  # 2^27 + 1


def _ten_to(s: int) -> tuple[float, float]:
    """10^s as hi + lo, each correctly rounded by exact integer division."""
    num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


@functools.cache
def _powers() -> np.ndarray:
    """(hi, lo) of 10^s for s in [-_EMAX, _EMAX + 16], the powers of
    every P <= 17, built once."""
    return np.array([_ten_to(s) for s in range(-_EMAX, _EMAX + 17)]).T


@functools.cache
def _tables(P: int) -> tuple[np.ndarray, ...]:
    """The lookup tables of '%.Pg', built on first use: powers of ten
    (hi, its split halves, lo) and exponent words for e in [-_EMAX,
    _EMAX], digit quads and their significant lengths, and byte masks."""
    Q = -(-P // 4)
    hi, lo = _powers()[:, P - 1:P + 2 * _EMAX][:, ::-1]  # 10^(P-1-e), e ascending
    c = _SPLIT * hi
    hh = c - (c - hi)
    g = np.arange(10000)
    text = np.full((10000, 8), ord("."), np.uint8)  # quad g is "d.d.d.d."
    for j, unit in enumerate((1000, 100, 10, 1)):
        text[:, 2 * j] = g // unit % 10 + ord("0")
    quads = text.reshape(-1).view(np.uint64)
    # the digits up to the last nonzero one; a quad of zeros counts -P,
    # below any quad that holds the last significant digit
    sig = (4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)).astype(np.int8)
    sig[0] = -P
    es = np.arange(-_EMAX, _EMAX + 1)
    a = np.abs(es)
    three = a >= 100
    word = np.zeros((len(es), 8), np.uint8)  # f"e{e:+03d}": "e+dd" or "e+ddd"
    word[:, 0] = ord("e")
    word[:, 1] = np.where(es < 0, ord("-"), ord("+"))
    word[:, 2] = np.where(three, a // 100, a // 10) + ord("0")
    word[:, 3] = np.where(three, a // 10 % 10, a % 10) + ord("0")
    word[:, 4] = np.where(three, a % 10 + ord("0"), 0)
    exps = word.reshape(-1).view(np.uint64)
    # mask row (neg, X, nsig) keeps byte b of the number's text
    neg = np.arange(2)[:, None, None, None]
    X = np.arange(-5, P + 1)[:, None, None]  # -5 and P stand for every scientific exponent
    nsig = np.arange(1, P + 1)[:, None]
    b = np.arange(8 * (Q + 2))
    sci = (X < -4) | (X >= P)
    keep = np.where(~sci & (X >= 0), np.maximum(nsig, X + 1), nsig)
    point = np.where(sci, 0, X)
    kept = ((b == 0)  # separator
            | (b == 1) & (neg == 1)  # sign
            | ~sci & (X < 0) & (b >= 2) & (b < 3 - X)  # "0." and -X-1 zeros
            | (b >= 8) & (b < 8 + 2 * keep) & (b % 2 == 0)  # digits
            | (point >= 0) & (point < nsig - 1) & (b == 9 + 2 * point)  # decimal point
            | sci & (b >= 8 * (Q + 1)))  # exponent word
    masks = (kept * np.uint8(0xFF)).reshape(-1, 8 * (Q + 2)).view(np.uint64).T.copy()
    return hi, hh, hi - hh, lo, quads, sig, exps, masks


def _mantissas(v: np.ndarray, P: int) -> tuple[np.ndarray, ...]:
    """The P-digit mantissa m and exponent e of each |v|, and whether
    they are certain."""
    hi, hh, hl, lo = _tables(P)[:4]
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = np.abs(e) < _EMAX
    a[~ok] = 1.0
    e = np.where(ok, e, 0.0).astype(np.int64)
    p = a * np.take(hi, e + _EMAX)
    err = 0.0
    if P > 8:
        hh, hl, lo = (np.take(t, e + _EMAX) for t in (hh, hl, lo))
        s = _SPLIT * a
        ah = s - (s - a)
        al = a - ah
        err = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo  # p + err ~ a * 10^(P-1-e)
    whole = np.floor(p)
    frac = (p - whole) + err
    carry = np.floor(frac)
    frac -= carry
    m = whole.astype(np.int64) + carry.astype(np.int64)
    ok &= (m >= 10 ** (P - 1)) & (m < 10 ** P) & (np.abs(frac - 0.5) > 1e-7)
    m = np.where(ok, m + (frac > 0.5), 10 ** (P - 1))
    up = m == 10 ** P  # rounded into the next decade
    m[up] = 10 ** (P - 1)
    e += up
    return m, e, ok


def _format_rows(cols, P: int, seps, tail) -> str:
    """The text of rows `seps[0] cols[0][i] seps[1] cols[1][i] ... tail[i]`,
    each number as '%.{P}g' % v formats it.  Each separator is at most
    one character; tail is one bytes string or an array of them, one per
    row."""
    quads, sig, exps, masks = _tables(P)[4:]
    k, n = len(cols), len(cols[0])
    v = np.concatenate(cols)  # column c is v[c * n:(c + 1) * n]
    m, e, ok = _mantissas(v, P)
    X = np.minimum(np.maximum(e, -5), P)  # -5 and P stand for every scientific exponent
    # the exponent word only for a block where some value prints one; the
    # narrower row still holds any fallback text (at most P + 8 bytes with
    # its separator, in 8 * (Q + 1) >= 2 * P + 8 bytes of Q digit quads)
    sci = X.min() == -5 or X.max() == P
    if not sci:
        masks = masks[:-1]
    w = len(masks)
    words = np.empty((w, k * n), np.uint64)
    words[0].reshape(k, n)[:] = [np.frombuffer(sep.encode().ljust(1, b"\0") + b"-0.000\0",
                                               np.uint64) for sep in seps]
    nsig = 0
    for j, q in enumerate(range(P - 4, -4, -4)):  # q digits follow quad j
        if q > 0:
            g = m // 10 ** q
            m -= g * 10 ** q
        else:
            g = m * 10 ** -q
        words[1 + j] = np.take(quads, g)
        nsig = np.maximum(nsig, np.take(sig, g) + 4 * j)
    if sci:
        words[-1] = np.take(exps, e + _EMAX)
    idx = (np.signbit(v) * (P + 6) + X + 5) * P + nsig - 1
    for word, mask in zip(words, masks):
        word &= np.take(mask, idx)
    tail = np.asarray(tail)
    tw = -(-tail.itemsize // 8) if tail.ndim or tail.item() else 0  # b"" takes no word
    rows = np.empty((n, k * w + tw), np.uint64)  # every word is written below
    rows[:, :k * w].reshape(n, k, w)[:] = words.reshape(w, k, n).transpose(2, 1, 0)
    if tw:
        rows[:, k * w:] = tail.astype(f"S{8 * tw}").view(np.uint64).reshape(-1, tw)
    for f in np.flatnonzero(~ok).tolist():
        c, i = divmod(f, n)
        text = (seps[c] + "%.*g" % (P, v[f])).encode()
        rows[i, c * w:(c + 1) * w] = np.frombuffer(text.ljust(8 * w, b"\0"), np.uint64)
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def write_mapped_csv(mc: MappedCurve, fh: IO[str]) -> None:
    fh.write("t,x,y,flag\n")
    tails = np.array([f",{name}\n".encode() for name in FLAG_NAMES])
    for i in range(0, len(mc.grid), _BLOCK):
        b = slice(i, i + _BLOCK)
        fh.write(_format_rows((mc.grid[b], mc.points[b, 0], mc.points[b, 1]), 17,
                              ("", ",", ","), tails[mc.flags[b]]))


def write_legendrian_csv(lc: LegendrianCurve, fh: IO[str]) -> None:
    cols = (lc.grid, lc.points[:, 0], lc.points[:, 1], lc.nu[:, 0], lc.nu[:, 1],
            lc.ell_grid, lc.beta_grid)
    fh.write("t,x,y,nu_x,nu_y,ell,beta,flag\n")
    for i in range(0, len(lc.grid), _BLOCK):
        fh.write(_format_rows([c[i:i + _BLOCK] for c in cols], 17, ("",) + (",",) * 6,
                              b",ok\n"))


# ---------------------------------------------------------------------------
# SVG


@dataclass(frozen=True)
class Overlay:
    """One drawable curve: polyline segments in curve coordinates.  A
    closed overlay is one segment, drawn back to its first point."""

    segments: tuple[np.ndarray, ...]
    label: str
    color: str
    closed: bool = False


def _overlay(points: np.ndarray, keep: np.ndarray, closed: bool, label: str,
             color: str) -> Overlay:
    """Points split into maximal runs of kept samples.  A fully kept
    curve is one run, a view of points, and closed if the curve is."""
    if keep.all():
        return Overlay((points,), label, color, closed)
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return Overlay((), label, color)
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    # a closed curve whose first and last samples are kept wraps around
    if closed and len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == len(points) - 1:
        runs[0] = np.concatenate([runs[-1], runs[0]])
        runs.pop()
    return Overlay(tuple(points[r] for r in runs if len(r) >= 2), label, color)


def overlay_from_mapped(mc: MappedCurve, label: str | None = None,
                        color: str = PALETTE[0]) -> Overlay:
    keep = (mc.flags == FLAG_OK) & finite_xy(mc.points)
    if label is None:
        label = f"{mc.kind.name} of {mc.source_name}"
    return _overlay(mc.points, keep, mc.closed, label, color)


# sampled frontals are mapped curves with a normal
overlay_from_frontal = overlay_from_mapped


def overlay_from_curve(curve: CurveDef, label: str | None = None,
                       color: str = PALETTE[0]) -> Overlay:
    """The curve on its default grid, or on MIN_PLOT_SAMPLES samples if
    that grid is coarser.  The points of the curve's kept frame serve if
    it has one on that grid: the frame's jet walk gives the bits of
    `position_xy`.  No frame is built here, as its walk costs more."""
    frame = kept_frame(curve) if curve.samples >= MIN_PLOT_SAMPLES else None
    if frame is not None:
        pts = frame.points
    else:
        pts = position_xy(curve, sample_grid(curve, max(curve.samples, MIN_PLOT_SAMPLES)))
    return _overlay(pts, finite_xy(pts), curve.closed, label or curve.name, color)


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
    # the extent of each column of each segment: no stacked copy, and no
    # reduction along the short axis, which numpy runs far slower
    xmin, ymin = (np.min([seg[:, c].min() for seg in all_pts]) for c in (0, 1))
    xmax, ymax = (np.max([seg[:, c].max() for seg in all_pts]) for c in (0, 1))
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
        ts = param_grid(spec.family.curve, spec.family_count)
        lines.append(f'<g data-label="family-lines" stroke="#bbbbbb" '
                     f'stroke-width="{fmt(0.5 * stroke)}">')
        normals, offsets = spec.family.members(ts)[:2]
        for a, c in zip(normals.tolist(), offsets.tolist()):
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
                text = _format_rows((seg[i:i + _BLOCK, 0], -seg[i:i + _BLOCK, 1]), 8,
                                    (" ", ","), b"")
                yield text if i else text[1:]
            if ov.closed:  # back to the first point
                yield _format_rows((seg[:1, 0], -seg[:1, 1]), 8, (" ", ","), b"")
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
