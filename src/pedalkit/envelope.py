"""Envelope-of-lines oracle.

A LineFamily is { x : <x, a(s)> = c(s) }.  Its envelope solves

    [ a(s)  ] x = [ c(s)  ]
    [ a'(s) ]     [ c'(s) ]

per parameter by 2x2 Gaussian elimination with partial pivoting; the
family derivatives come from symbolic curve jets, never from finite
differences, which is what makes this an independent check on the
closed-form transforms.  Samples with |det| < 1e-10 |a||a'| are flagged.

Families (J is the +90 degree rotation):

    primitive     a = g,                        c = |g|^2
    parallel(r)   a = g,                        c = r |g|^2
    slant(phi)    a = cos(phi) g + sin(phi) Jg, c = cos(phi) |g|^2
    antipedal     a = g,                        c = 1
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curve import CurveDef, position_xy, sample_grid, velocity_xy
from .errors import OriginSingularity, RangeError
from .transforms import (FLAG_NEAR_SINGULAR, FLAG_OK, FLAG_UNDEFINED,
                         MappedCurve, TransformKind, pedal)
from .vec import ORIGIN_EPS, perp_xy

# |det| below 1e-10 |a||a'| marks a degenerate family member
DET_REL_EPS = 1e-10

FAMILY_KINDS = ("primitive", "parallel", "slant", "antipedal")


@dataclass(frozen=True)
class LineFamily:
    kind: TransformKind
    curve: CurveDef
    a: Callable[[np.ndarray], np.ndarray]
    c: Callable[[np.ndarray], np.ndarray]
    a_prime: Callable[[np.ndarray], np.ndarray]
    c_prime: Callable[[np.ndarray], np.ndarray]


def _as_scalar_array(vals, ts) -> np.ndarray:
    out = np.asarray(vals, dtype=float)
    if out.shape != ts.shape:
        out = np.full(ts.shape, float(out))
    return out


def make_family(kind: str, curve: CurveDef, r: float | None = None,
                phi: float | None = None) -> LineFamily:
    """Build the line family whose envelope is the named transform."""
    _check_curve_origin(curve)
    if kind == "primitive":
        return LineFamily(
            TransformKind("primitive"), curve,
            a=lambda ts: position_xy(curve, ts),
            c=lambda ts: (position_xy(curve, ts) ** 2).sum(axis=1),
            a_prime=lambda ts: velocity_xy(curve, ts),
            c_prime=lambda ts: 2.0 * (position_xy(curve, ts) * velocity_xy(curve, ts)).sum(axis=1),
        )
    if kind == "parallel":
        if r is None or r == 0.0:
            raise RangeError("parallel family needs a nonzero ratio")
        return LineFamily(
            TransformKind("parallel", ratio=r), curve,
            a=lambda ts: position_xy(curve, ts),
            c=lambda ts: r * (position_xy(curve, ts) ** 2).sum(axis=1),
            a_prime=lambda ts: velocity_xy(curve, ts),
            c_prime=lambda ts: 2.0 * r * (position_xy(curve, ts) * velocity_xy(curve, ts)).sum(axis=1),
        )
    if kind == "slant":
        if phi is None:
            raise RangeError("slant family needs an angle")
        cp, sp = math.cos(phi), math.sin(phi)
        return LineFamily(
            TransformKind("slant", angle=phi), curve,
            a=lambda ts: cp * position_xy(curve, ts) + sp * perp_xy(position_xy(curve, ts)),
            c=lambda ts: cp * (position_xy(curve, ts) ** 2).sum(axis=1),
            a_prime=lambda ts: cp * velocity_xy(curve, ts) + sp * perp_xy(velocity_xy(curve, ts)),
            c_prime=lambda ts: 2.0 * cp * (position_xy(curve, ts) * velocity_xy(curve, ts)).sum(axis=1),
        )
    if kind == "antipedal":
        return LineFamily(
            TransformKind("antipedal"), curve,
            a=lambda ts: position_xy(curve, ts),
            c=lambda ts: np.ones_like(ts),
            a_prime=lambda ts: velocity_xy(curve, ts),
            c_prime=lambda ts: np.zeros_like(ts),
        )
    raise RangeError(f"unknown family kind {kind!r}; choices: {', '.join(FAMILY_KINDS)}")


def _check_curve_origin(curve: CurveDef) -> None:
    p = position_xy(curve, sample_grid(curve))
    n2 = (p * p).sum(axis=1)
    hit = np.isfinite(n2) & (n2 < ORIGIN_EPS * ORIGIN_EPS)
    if hit.any():
        raise OriginSingularity(
            f"line families of {curve.name!r} need the curve away from the origin")


def envelope(family: LineFamily, ts: np.ndarray | None = None) -> MappedCurve:
    """Solve the 2x2 system at each parameter."""
    curve = family.curve
    if ts is None:
        ts = sample_grid(curve)
    ts = np.asarray(ts, dtype=float)
    a = family.a(ts)
    ap = family.a_prime(ts)
    b0 = _as_scalar_array(family.c(ts), ts)
    b1 = _as_scalar_array(family.c_prime(ts), ts)

    # rows of the per-sample matrix [[a], [a']]
    r0, r1 = a.copy(), ap.copy()
    bb0, bb1 = b0.copy(), b1.copy()
    swap = np.abs(r1[:, 0]) > np.abs(r0[:, 0])
    r0[swap], r1[swap] = ap[swap], a[swap]
    bb0[swap], bb1[swap] = b1[swap], b0[swap]

    with np.errstate(all="ignore"):
        m = r1[:, 0] / r0[:, 0]
        u11 = r1[:, 1] - m * r0[:, 1]
        rhs1 = bb1 - m * bb0
        y = rhs1 / u11
        x = (bb0 - r0[:, 1] * y) / r0[:, 0]
        points = np.column_stack([x, y])
        det = a[:, 0] * ap[:, 1] - a[:, 1] * ap[:, 0]
        norm_a = np.hypot(a[:, 0], a[:, 1])
        norm_ap = np.hypot(ap[:, 0], ap[:, 1])

    flags = np.full(len(ts), FLAG_OK, dtype=np.uint8)
    flags[np.abs(det) < DET_REL_EPS * norm_a * norm_ap] = FLAG_NEAR_SINGULAR
    undefined = ~np.isfinite(points).all(axis=1)
    flags[undefined] = FLAG_UNDEFINED
    points[undefined] = np.nan
    kind = TransformKind(f"envelope-{family.kind.name}", angle=family.kind.angle,
                         ratio=family.kind.ratio)
    return MappedCurve(curve.name, kind, ts, points, flags, curve.closed)


def circle_family_check(curve: CurveDef, ts: np.ndarray | None = None,
                        points_per_circle: int = 8) -> float:
    """Max residual of the pedal-circle picture.

    For each sample s the circle with diameter from the origin to g(s)
    must (1) pass through the pedal point: G(s, Pe(s)) = <Pe, Pe - g> = 0,
    and (2) invert onto the line <y, g(s)> = 1: every sampled circle
    point x (away from the origin) must satisfy <x/|x|^2, g(s)> = 1.
    """
    if ts is None:
        ts = sample_grid(curve)
    ts = np.asarray(ts, dtype=float)
    _check_curve_origin(curve)
    pe = pedal(curve, ts)
    g = position_xy(curve, ts)
    ok = pe.ok
    resid_g = np.abs((pe.points[ok] * (pe.points[ok] - g[ok])).sum(axis=1))

    center = 0.5 * g
    radius = 0.5 * np.hypot(g[:, 0], g[:, 1])
    angles = 2.0 * math.pi * np.arange(points_per_circle) / points_per_circle + 0.7
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = center[:, None, :] + radius[:, None, None] * ring[None, :, :]
    n2 = (pts ** 2).sum(axis=2)
    with np.errstate(all="ignore"):
        dot = (pts * g[:, None, :]).sum(axis=2)
        resid_line = np.abs(dot / n2 - 1.0)
    # circle points too close to the origin are skipped (the origin
    # itself lies on every one of these circles)
    usable = n2 > (1e-3 * radius[:, None]) ** 2
    resid_line = resid_line[usable & np.isfinite(resid_line)]

    worst = 0.0
    if resid_g.size:
        worst = max(worst, float(resid_g.max()))
    if resid_line.size:
        worst = max(worst, float(resid_line.max()))
    return worst
