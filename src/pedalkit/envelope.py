"""Envelope-of-lines oracle.

A LineFamily is { x : <x, a(s)> = c(s) }.  Its envelope solves

    [ a(s)  ] x = [ c(s)  ]
    [ a'(s) ]     [ c'(s) ]

per parameter by 2x2 Gaussian elimination with partial pivoting, in
blocks of JET_BLOCK parameters; the family derivatives come from
symbolic curve jets, never from finite differences, which is what makes
this an independent check on the closed-form transforms.  Samples with
|det| < 1e-10 |a||a'| are flagged.

Every family is one formula in g and g' (R(phi) is the rotation by phi):

    a = R(phi) g,   c = k |g|^2,   c' = 2 k <g, g'>

with phi = 0 and k = 1 for the primitive, k = r for parallel(r), and
k = cos(phi) for slant(phi).  The antipedal family has a = g and c = 1.

The pedal-circle check builds its rings of circle points per block of
JET_BLOCK samples too, and takes its max residual over the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import CurveDef, _block_max, _jets_xy, row_blocks, sample_grid
from .errors import RangeError
from .transforms import (FLAG_NEAR_SINGULAR, FLAG_OK, FLAG_UNDEFINED,
                         MappedCurve, TransformKind, _check_origin,
                         frenet_frame, pedal_kernel)
from .vec import dot_xy, finite_xy, rotate_xy

# |det| below 1e-10 |a||a'| marks a degenerate family member
DET_REL_EPS = 1e-10

CIRCLE_POINTS = 8  # sampled points per circle in circle_family_check

FAMILY_KINDS = ("primitive", "parallel", "slant", "antipedal")


@dataclass(frozen=True)
class LineFamily:
    """The family of lines of a curve whose envelope is kind; its
    coefficients follow from kind.angle and kind.ratio."""

    kind: TransformKind
    curve: CurveDef

    def members(self, ts: np.ndarray) -> tuple[np.ndarray, ...]:
        """(a, c, a', c') of the members <a, x> = c at ts, from one jet
        walk of the curve.  A curve point at the origin is refused."""
        ts = np.asarray(ts, dtype=float)
        g, gp = _jets_xy(self.curve, ts, 1)
        n2 = dot_xy(g, g)
        _check_origin(ts, n2, f"the {self.kind.name} line family")
        if self.kind.name == "antipedal":
            return g, np.ones_like(ts), gp, np.zeros_like(ts)
        phi = self.kind.angle
        k = (self.kind.ratio or 1.0) if phi is None else math.cos(phi)
        c, cp = k * n2, 2.0 * k * dot_xy(g, gp)
        if phi is None:
            return g, c, gp, cp
        return rotate_xy(g, phi), c, rotate_xy(gp, phi), cp


def make_family(kind: str, curve: CurveDef, r: float | None = None,
                phi: float | None = None) -> LineFamily:
    """Build the line family whose envelope is the named transform: r is
    the ratio of a parallel family, phi the angle of a slant one.  The
    origin is refused on the grids the family is evaluated on, not here."""
    if kind not in FAMILY_KINDS:
        raise RangeError(f"unknown family kind {kind!r}; choices: {', '.join(FAMILY_KINDS)}")
    if kind == "parallel" and (r is None or r == 0.0 or not math.isfinite(r)):
        raise RangeError("parallel family needs a finite nonzero ratio")
    if kind == "slant" and (phi is None or not math.isfinite(phi)):
        raise RangeError("slant family needs a finite angle")
    return LineFamily(TransformKind(kind, angle=phi if kind == "slant" else None,
                                    ratio=r if kind == "parallel" else None), curve)


def envelope(family: LineFamily, ts: np.ndarray | None = None) -> MappedCurve:
    """Solve the 2x2 system at each parameter, one jet walk and one solve
    per block of JET_BLOCK parameters, so the temporaries of a long grid
    stay the size of a block."""
    curve = family.curve
    ts = sample_grid(curve) if ts is None else np.asarray(ts, dtype=float)
    points = np.empty((len(ts), 2))
    flags = np.empty(len(ts), dtype=np.uint8)
    for block in row_blocks(len(ts)):
        points[block], flags[block] = _solve(*family.members(ts[block]))
    kind = TransformKind(f"envelope-{family.kind.name}", angle=family.kind.angle,
                         ratio=family.kind.ratio)
    return MappedCurve(curve.name, kind, ts, points, flags, curve.closed)


def _solve(a: np.ndarray, b0: np.ndarray, ap: np.ndarray,
           b1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(points, flags) of the systems [a; a'] x = [b0; b1], one per row,
    column by column."""
    ax, ay, apx, apy = a[:, 0], a[:, 1], ap[:, 0], ap[:, 1]
    # the pivot row (r0 | c0) has the larger first coefficient
    swap = np.abs(apx) > np.abs(ax)
    r0x, r0y, c0 = np.where(swap, apx, ax), np.where(swap, apy, ay), np.where(swap, b1, b0)
    r1x, r1y, c1 = np.where(swap, ax, apx), np.where(swap, ay, apy), np.where(swap, b0, b1)

    with np.errstate(all="ignore"):
        m = r1x / r0x
        y = (c1 - m * c0) / (r1y - m * r0y)
        x = (c0 - r0y * y) / r0x
        points = np.column_stack([x, y])
        det = ax * apy - ay * apx
        singular = np.abs(det) < DET_REL_EPS * np.hypot(ax, ay) * np.hypot(apx, apy)

    flags = np.where(singular, FLAG_NEAR_SINGULAR, FLAG_OK).astype(np.uint8)
    undefined = ~finite_xy(points)
    flags[undefined] = FLAG_UNDEFINED
    points[undefined] = np.nan
    return points, flags


def circle_family_check(curve: CurveDef, ts: np.ndarray | None = None) -> float:
    """Max residual of the pedal-circle picture.

    For each sample s the circle with diameter from the origin to g(s)
    must (1) pass through the pedal point: G(s, Pe(s)) = <Pe, Pe - g> = 0,
    and (2) invert onto the line <y, g(s)> = 1: every sampled circle
    point x (away from the origin) must satisfy <x/|x|^2, g(s)> = 1.
    A g at the origin is refused.  A sample's residual is the larger of
    (1) where its pedal point is ok and (2) over its usable circle points,
    built per block of JET_BLOCK samples; inf if no sample has one.
    """
    frame = frenet_frame(curve, ts)
    angles = 2.0 * math.pi * np.arange(CIRCLE_POINTS) / CIRCLE_POINTS + 0.7
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def residual(block: slice) -> np.ndarray:
        rows = frame.rows(block)
        g = rows.points
        _check_origin(rows.grid, dot_xy(g, g), "the pedal-circle check")
        pe = pedal_kernel(rows)
        resid_g = np.abs(dot_xy(pe.points, pe.points - g))
        radius = 0.5 * np.hypot(g[:, 0], g[:, 1])
        pts = 0.5 * g[:, None, :] + radius[:, None, None] * ring[None, :, :]
        n2 = dot_xy(pts, pts)
        resid_line = np.abs(dot_xy(pts, g[:, None, :]) / n2 - 1.0)
        # circle points too close to the origin are skipped (the origin
        # itself lies on every one of these circles)
        usable = (n2 > (1e-3 * radius[:, None]) ** 2) & np.isfinite(resid_line)
        return np.maximum(np.where(pe.ok, resid_g, -np.inf),
                          resid_line.max(axis=1, where=usable, initial=-np.inf))
    return _block_max(len(frame.grid), residual)
