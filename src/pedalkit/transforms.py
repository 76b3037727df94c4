"""Pedal-type and primitive-type transforms of plane curves.

Each formula is one kernel over a frame: a MappedCurve whose `nu` holds
a unit normal per sample (the tangent t = -J nu is exact).  Three
providers build frames: `frenet_frame` (n_hat from the symbolic jets),
`polyline_frames` (five-point differences on an already sampled curve)
and `frontal.lift_front` (the lifted normal of a front, a
LegendrianCurve); each turns its velocities into unit normals with
`curve._unit_frame`.  The public transforms compose one provider with one
kernel: `pedal(curve)` and friends use Frenet frames, `mapped_*` polyline
frames, `frontal_*` lifted ones.  TRANSFORMS maps each kind name to its
kernel and the parameter it takes.

A Frenet frame needs only the order-1 jets, p and p'.  A curve keeps
one frame, that of its default grid: `frenet_frame(curve)` builds it
on first use and keeps it on the CurveDef (not a field, so equality,
hash and repr ignore it), and `kept_frame(curve)` reads it without
building it; its grid is the default grid the curve keeps
(`sample_grid(curve)`).  A frame on an explicit grid is built on each
call, on a copy of that grid, and kept by its caller.  Either frame's
arrays are read-only.  Kernel outputs share the frame's grid and own
their points and flags.

    pedal            <g, nu> nu
    contrapedal      <g, t> t
    pedaloid(psi)    <g, d> d,  d = cos(psi) t + sin(psi) nu
    antipedal        nu / <g, nu>
    primitive        2 g - (|g|^2 / <g, nu>) nu
    parallel(r)      r * primitive
    slant(phi)       cos(phi) R(phi) primitive
    perp-primitive   J primitive   (the primitive of J g)
    invert           g / |g|^2, with nu (if the input has one) reflected

Frames are built and kernels run JET_BLOCK rows at a time, so their
temporaries stay the size of a block; as each row is a formula in that
row alone, the bits are those of one run over the whole frame.  A
frame's block is `frame.rows(block)`, a plain MappedCurve that slices
it, or for the polyline frame of `mapped_*` builds the block's normal
from two `halo` rows, so they hold no whole-grid normal.  Row
arithmetic goes one column at a time (`vec.dot_xy`, `vec.scale_xy`),
and an output starts from the frame's flags.  Denominator guards use
eps_d = 1e-6 times the diameter (bounding-box diagonal) of the frame's
ok points (0 if none is finite), measured once per frame and shared by
its row views and every kernel run on it; samples where a
denominator is smaller are flagged near_singular, samples with
non-finite values (a frame row without a normal among them) are
undefined.  Everything is sign-invariant under nu -> -nu, so no
orientation convention leaks into the results.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Optional

import numpy as np

from . import expr as ex
from .curve import (JET_BLOCK, CurveDef, FrenetGrid, _jets_xy, _unit_frame,
                    bbox_diameter, frenet_grid, row_blocks, sample_grid)
from .errors import OriginSingularity, RangeError
from .vec import (ORIGIN_EPS, dot_xy, finite_xy, invert_xy, perp_xy, rotate_xy,
                  scale_xy)

# denominator guard scale, relative to curve diameter
DENOM_REL_EPS = 1e-6

# |cos(phi)| below this marks the degenerate slant angles pi/2 + n pi
DEGENERATE_ANGLE_EPS = 1e-12

FLAG_OK = 0
FLAG_NEAR_SINGULAR = 1
FLAG_UNDEFINED = 2
FLAG_NAMES = ("ok", "near_singular", "undefined")


@dataclass(frozen=True)
class TransformKind:
    name: str
    angle: Optional[float] = None
    ratio: Optional[float] = None
    degenerate_angle: bool = False

    def label(self) -> str:
        parts = [self.name]
        if self.angle is not None:
            parts.append(f"angle={self.angle:.6g}")
        if self.ratio is not None:
            parts.append(f"ratio={self.ratio:.6g}")
        if self.degenerate_angle:
            parts.append("degenerate-angle")
        return "[" + ", ".join(parts) + "]"


@dataclass(frozen=True)
class MappedCurve:
    """A sampled curve: points and a per-sample flag on a parameter grid.
    With a unit normal `nu` it is a frame, which every kernel accepts.
    A row view or a frame derived from one is a plain MappedCurve."""

    source_name: str
    kind: TransformKind
    grid: np.ndarray
    points: np.ndarray
    flags: np.ndarray
    closed: bool
    nu: Optional[np.ndarray] = None
    whole: Optional["MappedCurve"] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> np.ndarray:
        return self.flags == FLAG_OK

    @cached_property
    def eps_d(self) -> float:
        """The denominator guard scale of the kernels on this frame:
        DENOM_REL_EPS times the bounding-box diagonal of the ok points.
        Computed on first use and kept, as a frame's points and flags do
        not change once it is made; a row view reads its frame's."""
        if self.whole is not None:
            return self.whole.eps_d
        return DENOM_REL_EPS * bbox_diameter(self.points, self.ok)

    def rows(self, block: slice) -> "MappedCurve":
        """The rows of block; their `whole` is this frame, whose eps_d they read."""
        return MappedCurve(self.source_name, self.kind, self.grid[block], self.points[block],
                           self.flags[block], self.closed,
                           None if self.nu is None else self.nu[block], whole=self)


# ---------------------------------------------------------------------------
# sample grids


def halo(arr: np.ndarray, start: int, stop: int, closed: bool, twist: int = 1) -> np.ndarray:
    """Rows start..stop-1 of arr along the first axis, reaching at most
    len(arr) rows past either end: a closed grid wraps round its seam,
    the wrapped rows times twist (-1 where a lifted normal comes back as
    -nu, `LegendrianCurve.twist`), and an open grid repeats its end rows."""
    n = len(arr)
    if closed:
        before, after = arr[start % n:] if start < 0 else arr[:0], arr[:max(stop - n, 0)]
        if twist == -1:
            before, after = before * -1.0, after * -1.0
    else:
        before, after = arr[:1].repeat(max(-start, 0), 0), arr[-1:].repeat(max(stop - n, 0), 0)
    return np.concatenate([before, arr[max(start, 0):min(stop, n)], after])


def five_point_derivative(w: np.ndarray, h: float) -> np.ndarray:
    """Five-point central difference along the first axis of a uniform
    grid, for the rows of a run w that has two halo rows on each side."""
    return (w[:-4] - 8.0 * w[1:-3] + 8.0 * w[3:-1] - w[4:]) / (12.0 * h)


def stencil_ok(good: np.ndarray, closed: bool) -> np.ndarray:
    """Samples whose five-point stencil lies on good samples; open grids
    also lose their two end samples on each side."""
    w = halo(good, -2, len(good) + 2, closed)
    if not closed:  # the rows past an open end are not good
        w[:2] = w[-2:] = False
    return w[:-4] & w[1:-3] & w[2:-2] & w[3:-1] & w[4:]


# ---------------------------------------------------------------------------
# frame providers


def frenet_frame(curve: CurveDef, ts: np.ndarray | None = None) -> MappedCurve:
    """The curve on its grid with the Frenet normal; samples without a
    Frenet frame get a nan normal.  ts=None gives the frame of the
    default grid, which is built once and kept on the curve; a frame on
    an explicit grid, a copy of ts, is built on each call and is not
    kept.  The frame's arrays are read-only."""
    frame = kept_frame(curve) if ts is None else None
    if frame is not None:
        return frame
    grid = sample_grid(curve) if ts is None else np.array(ts, dtype=float)
    p, nu = np.empty((len(grid), 2)), np.empty((len(grid), 2))
    for block in row_blocks(len(grid)):
        p[block], d1 = _jets_xy(curve, grid[block], 1)
        nu[block] = _unit_frame(d1)[3]
    flags = np.full(len(grid), FLAG_OK, dtype=np.uint8)
    for arr in (grid, p, nu, flags):
        arr.flags.writeable = False
    frame = MappedCurve(curve.name, TransformKind("source"), grid, p, flags, curve.closed, nu)
    if ts is None:
        object.__setattr__(curve, "_frame", frame)  # CurveDef is frozen; _frame is no field
    return frame


def kept_frame(curve: CurveDef) -> MappedCurve | None:
    """The frame of the curve's default grid if frenet_frame has built it."""
    return getattr(curve, "_frame", None)


class _PolylineFrame(MappedCurve):
    """A sampled curve as a frame whose `rows` build the normal of its
    polyline from two `halo` rows: kernels on it hold no whole-grid normal."""

    def rows(self, block: slice) -> MappedCurve:
        n, start, stop = len(self.grid), block.start - 2, block.stop + 2
        pts, flags = (halo(a, start, stop, self.closed) for a in (self.points, self.flags))
        with np.errstate(all="ignore"):
            nu = _unit_frame(five_point_derivative(pts, self.grid[1] - self.grid[0]))[3]
        # no stencil reaches past an open end
        rows = np.arange(start, stop)
        ok = (flags == FLAG_OK) & finite_xy(pts) & (self.closed | ((rows >= 0) & (rows < n)))
        nu[~(ok[:-4] & ok[1:-3] & ok[2:-2] & ok[3:-1] & ok[4:])] = np.nan
        return dataclasses.replace(super().rows(block), nu=nu)


def _polyline(mc: MappedCurve) -> _PolylineFrame:
    if len(mc.grid) < 5:
        raise RangeError("need at least 5 samples for derived frames")
    return _PolylineFrame(mc.source_name, mc.kind, mc.grid, mc.points, mc.flags, mc.closed)


def polyline_frames(mc: MappedCurve) -> MappedCurve:
    """A sampled curve with the normal of its polyline, five-point central
    differences on the uniform grid taken per block (`_PolylineFrame.rows`).
    Closed grids wrap; open ends, samples whose stencil touches a non-ok
    sample and samples where the polyline stalls get a nan normal."""
    frame = _polyline(mc)
    nu = np.empty((len(mc.grid), 2))
    for block in row_blocks(len(nu)):
        nu[block] = frame.rows(block).nu
    return MappedCurve(mc.source_name, mc.kind, mc.grid, mc.points, mc.flags, mc.closed, nu)


# ---------------------------------------------------------------------------
# kernels


def _blocked(kernel):
    """The kernel run on the JET_BLOCK-row views of a longer frame, in
    grid order, into outputs allocated once; a frame of one block whose
    rows are slices runs as it is."""
    @wraps(kernel)
    def run(frame: MappedCurve, *args, **kwargs) -> MappedCurve:
        if len(frame.grid) <= JET_BLOCK and not isinstance(frame, _PolylineFrame):
            return kernel(frame, *args, **kwargs)
        points, flags = np.empty_like(frame.points), np.empty_like(frame.flags)
        for block in row_blocks(len(frame.grid)):
            part = kernel(frame.rows(block), *args, **kwargs)
            if block.start == 0:  # which shows whether the kernel gives a normal
                out = dataclasses.replace(part, grid=frame.grid, points=points, flags=flags,
                                          nu=None if part.nu is None else np.empty_like(points))
            out.points[block], out.flags[block] = part.points, part.flags
            if part.nu is not None:
                out.nu[block] = part.nu
            del part  # not held while the next block runs
        return out
    return run


def _check_origin(ts: np.ndarray, n2: np.ndarray, what: str) -> None:
    hit = np.isfinite(n2) & (n2 < ORIGIN_EPS * ORIGIN_EPS)
    if hit.any():
        t_bad = float(ts[hit][0])
        raise OriginSingularity(
            f"{what} needs the curve away from the origin, but it passes "
            f"through it near t={t_bad:.6g}")


def _output(frame: MappedCurve, kind: TransformKind, points: np.ndarray,
            den: np.ndarray | None = None,
            nu: np.ndarray | None = None) -> MappedCurve:
    """A kernel's output with its flags: the frame's, then near_singular
    where |den| < eps_d, then undefined (and nan) where not finite."""
    flags = frame.flags.copy()
    if den is not None:
        eps_d = frame.eps_d  # measured, on first use, before |den| is held
        flags[(np.abs(den) < eps_d) & (flags == FLAG_OK)] = FLAG_NEAR_SINGULAR
    undefined = (flags == FLAG_UNDEFINED) | ~finite_xy(points)
    flags[undefined] = FLAG_UNDEFINED
    points[undefined] = np.nan
    return MappedCurve(frame.source_name, kind, frame.grid, points, flags,
                       frame.closed, nu)


def _project(frame: MappedCurve, direction: np.ndarray,
             kind: TransformKind) -> MappedCurve:
    """<g, d> d for a unit direction field d."""
    with np.errstate(all="ignore"):
        q = dot_xy(frame.points, direction)
        points = scale_xy(np.multiply, q, direction)
    return _output(frame, kind, points)


@_blocked
def pedal_kernel(frame: MappedCurve, name: str = "pedal") -> MappedCurve:
    return _project(frame, frame.nu, TransformKind(name))


@_blocked
def contrapedal_kernel(frame: MappedCurve, name: str = "contrapedal") -> MappedCurve:
    tangent = perp_xy(frame.nu)
    tangent *= -1.0  # t = -J nu
    return _project(frame, tangent, TransformKind(name))


@_blocked
def pedaloid_kernel(frame: MappedCurve, psi: float,
                    name: str = "pedaloid") -> MappedCurve:
    direction = perp_xy(frame.nu)
    direction *= -math.cos(psi)  # cos(psi) t
    direction += math.sin(psi) * frame.nu
    return _project(frame, direction, TransformKind(name, angle=psi))


@_blocked
def antipedal_kernel(frame: MappedCurve, name: str = "antipedal") -> MappedCurve:
    with np.errstate(all="ignore"):
        den = dot_xy(frame.points, frame.nu)
        points = scale_xy(np.divide, frame.nu, den)
    return _output(frame, TransformKind(name), points, den)


def _primitive(frame: MappedCurve, kind: TransformKind, normal: bool,
               refuse_origin: bool = True):
    """(primitive points, their denominator <g, nu>, and the normal of
    the primitive, g/|g|, when asked for).  A curve through the origin
    is refused, unless refuse_origin is False: samples at the origin
    then come out undefined."""
    p, nu = frame.points, frame.nu
    n2 = dot_xy(p, p)
    if refuse_origin:
        _check_origin(frame.grid, n2, f"the {kind.name} transform")
    with np.errstate(all="ignore"):
        den = dot_xy(p, nu)
        points = 2.0 * p - scale_xy(np.multiply, n2 / den, nu)
        out_nu = scale_xy(np.divide, p, np.sqrt(n2)) if normal else None
    return points, den, out_nu


@_blocked
def primitive_kernel(frame: MappedCurve, name: str = "primitive",
                     normal: bool = False, refuse_origin: bool = True) -> MappedCurve:
    """With normal=True the output is a frame too, with the normal g/|g|."""
    kind = TransformKind(name)
    points, den, out_nu = _primitive(frame, kind, normal, refuse_origin)
    return _output(frame, kind, points, den, out_nu)


@_blocked
def parallel_kernel(frame: MappedCurve, r: float, name: str = "parallel",
                    normal: bool = False) -> MappedCurve:
    if r == 0.0:
        raise RangeError("parallel primitivoid needs a nonzero ratio")
    kind = TransformKind(name, ratio=r)
    points, den, out_nu = _primitive(frame, kind, normal)
    points *= r
    return _output(frame, kind, points, den, out_nu)


@_blocked
def slant_kernel(frame: MappedCurve, phi: float, name: str = "slant",
                 normal: bool = False, refuse_origin: bool = True) -> MappedCurve:
    """With normal=True the output carries the normal R(phi) g/|g|."""
    c = math.cos(phi)
    degenerate = abs(c) < DEGENERATE_ANGLE_EPS
    kind = TransformKind(name, angle=phi, degenerate_angle=degenerate)
    points, den, out_nu = _primitive(frame, kind, normal, refuse_origin)
    if not degenerate:
        with np.errstate(all="ignore"):
            points = rotate_xy(points, phi)
            points *= c
    out = _output(frame, kind, points, den,
                  None if out_nu is None else rotate_xy(out_nu, phi))
    if degenerate:
        # the whole image collapses to the origin
        out.points[out.flags != FLAG_UNDEFINED] = 0.0
    return out


@_blocked
def perp_primitive_kernel(frame: MappedCurve,
                          name: str = "perp-primitive") -> MappedCurve:
    """Primitive of the rotated curve J g; equals J applied to the
    primitive of g, and is computed that way (J is exact in floating
    point), so the identity holds to the last bit."""
    kind = TransformKind(name)
    points, den, _ = _primitive(frame, kind, False)
    return _output(frame, kind, perp_xy(points), den)


@_blocked
def invert_kernel(frame: MappedCurve, name: str) -> MappedCurve:
    """Pointwise inversion g/|g|^2 of a sampled curve: undefined where
    the inverted point is not finite.  A normal, if the input has one,
    maps to its reflection nu - 2 <g, nu> g/|g|^2, which stays unit."""
    p, nu = frame.points, frame.nu
    if nu is not None:
        with np.errstate(all="ignore"):
            nu = nu - scale_xy(np.multiply, 2.0 * (dot_xy(p, nu) / dot_xy(p, p)), p)
    return _output(frame, TransformKind(name), invert_xy(p), nu=nu)


# kind name -> (kernel, the parameter it takes after the frame)
TRANSFORMS = {
    "pedal": (pedal_kernel, None),
    "contrapedal": (contrapedal_kernel, None),
    "pedaloid": (pedaloid_kernel, "angle"),
    "antipedal": (antipedal_kernel, None),
    "primitive": (primitive_kernel, None),
    "parallel": (parallel_kernel, "ratio"),
    "slant": (slant_kernel, "angle"),
    "perp-primitive": (perp_primitive_kernel, None),
}

TRANSFORM_KINDS = tuple(TRANSFORMS)


def transform_frame(frame: MappedCurve, kind: str,
                    value: float | None = None) -> MappedCurve:
    """The named kernel on a frame; value is the angle or ratio of the
    kinds that take one."""
    if kind not in TRANSFORMS:
        raise RangeError(f"unknown transform kind {kind!r}; "
                         f"choices: {', '.join(TRANSFORM_KINDS)}")
    kernel, param = TRANSFORMS[kind]
    if param is None:
        return kernel(frame)
    if value is None:
        raise RangeError(f"{kind} needs --{param}")
    if not math.isfinite(value):
        raise RangeError(f"{kind} needs a finite {param}, got {value!r}")
    return kernel(frame, value)


# ---------------------------------------------------------------------------
# transforms of symbolic curves: Frenet frames


def pedal(curve: CurveDef, ts: np.ndarray | None = None) -> MappedCurve:
    return pedal_kernel(frenet_frame(curve, ts))


def contrapedal(curve: CurveDef, ts: np.ndarray | None = None) -> MappedCurve:
    return contrapedal_kernel(frenet_frame(curve, ts))


def pedaloid(curve: CurveDef, psi: float, ts: np.ndarray | None = None) -> MappedCurve:
    return pedaloid_kernel(frenet_frame(curve, ts), psi)


def antipedal(curve: CurveDef, ts: np.ndarray | None = None) -> MappedCurve:
    return antipedal_kernel(frenet_frame(curve, ts))


def primitive(curve: CurveDef, ts: np.ndarray | None = None) -> MappedCurve:
    return primitive_kernel(frenet_frame(curve, ts))


def parallel_primitivoid(curve: CurveDef, r: float,
                         ts: np.ndarray | None = None) -> MappedCurve:
    return parallel_kernel(frenet_frame(curve, ts), r)


def slant_primitivoid(curve: CurveDef, phi: float,
                      ts: np.ndarray | None = None) -> MappedCurve:
    return slant_kernel(frenet_frame(curve, ts), phi)


def primitive_of_perp(curve: CurveDef, ts: np.ndarray | None = None) -> MappedCurve:
    return perp_primitive_kernel(frenet_frame(curve, ts))


def apply_transform(curve: CurveDef, kind: str, angle: float | None = None,
                    ratio: float | None = None,
                    ts: np.ndarray | None = None) -> MappedCurve:
    """The named transform of a curve; angle or ratio goes to the kinds
    that take one (see TRANSFORMS)."""
    param = TRANSFORMS[kind][1] if kind in TRANSFORMS else None
    return transform_frame(frenet_frame(curve, ts), kind,
                           ratio if param == "ratio" else angle)


# ---------------------------------------------------------------------------
# transforms of sampled curves: polyline frames.  A sampled curve may pass
# through the origin (a pedal does wherever a tangent line does); its
# primitive is undefined at such samples rather than refused.


def mapped_pedal(mc: MappedCurve) -> MappedCurve:
    return pedal_kernel(_polyline(mc), f"pedal of {mc.kind.name}")


def mapped_primitive(mc: MappedCurve) -> MappedCurve:
    return primitive_kernel(_polyline(mc), f"primitive of {mc.kind.name}",
                            refuse_origin=False)


def mapped_slant(mc: MappedCurve, phi: float) -> MappedCurve:
    return slant_kernel(_polyline(mc), phi, f"slant of {mc.kind.name}",
                        refuse_origin=False)


# ---------------------------------------------------------------------------
# inversion curvature


def inversion_curvature_rows(fg: FrenetGrid) -> np.ndarray:
    """Curvature of the inverted curve, -kappa |g|^2 - 2 <g, n>, on the
    rows of a Frenet grid; a grid through the origin is refused."""
    n2 = dot_xy(fg.p, fg.p)
    _check_origin(fg.ts, n2, "inversion curvature")
    return -fg.kappa * n2 - 2.0 * dot_xy(fg.p, fg.n_hat)


def inversion_curvature_grid(curve: CurveDef, ts: np.ndarray | None = None) -> np.ndarray:
    """inversion_curvature_rows over a grid, by default the sample grid; nan
    where the curve is singular.  A curve through the origin is refused."""
    return inversion_curvature_rows(frenet_grid(curve, ts))


# ---------------------------------------------------------------------------
# symbolic curve surgery


def transform_curve(curve: CurveDef, phi: float, lam: float) -> CurveDef:
    """Rotate by phi and scale by lam != 0, symbolically."""
    if lam == 0.0:
        raise RangeError("scale factor must be nonzero")
    c, s = math.cos(phi), math.sin(phi)
    new_x = ex.mul(ex.Num(lam), ex.sub(ex.mul(ex.Num(c), curve.x),
                                       ex.mul(ex.Num(s), curve.y)))
    new_y = ex.mul(ex.Num(lam), ex.add(ex.mul(ex.Num(s), curve.x),
                                       ex.mul(ex.Num(c), curve.y)))
    name = f"{curve.name}~rot{phi:.6g}~scale{lam:.6g}"
    return CurveDef(new_x, new_y, curve.t_min, curve.t_max, name,
                    curve.samples, curve.closed)


def invert_curve(curve: CurveDef) -> CurveDef:
    """The inverted curve g / |g|^2, symbolically."""
    n2 = ex.add(ex.pow_(curve.x, ex.Num(2.0)), ex.pow_(curve.y, ex.Num(2.0)))
    return CurveDef(ex.div(curve.x, n2), ex.div(curve.y, n2),
                    curve.t_min, curve.t_max, f"inv({curve.name})",
                    curve.samples, curve.closed)
