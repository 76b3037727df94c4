"""Dot products, quarter turns, rotations and inversion of plane points,
and the median of a sample.

A point or vector is a float64 array whose last axis has length 2: an
(n, 2) array on a grid, a length-2 array for one point (what the
scalar functions of the package return).  The helpers act on the last
axis, so they take either.  Row arithmetic goes one column at a time:
numpy's loop over a broadcast (n, 1) by (n, 2) operation runs along
the rows' two entries, and is slower than two loops down the columns.
All functions are pure but `median`, which reorders its argument.
"""

from __future__ import annotations

import math

import numpy as np

# Points closer to the origin than this cannot be inverted.
ORIGIN_EPS = 1e-9


def dot_xy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product, computed one column at a time.  It has the
    bits of (a * b).sum(axis=-1): a sum of two terms rounds once either
    way, and adding 0.0 gives the sum's +0.0 where both terms are -0.0."""
    out = a[..., 0] * b[..., 0]
    out += a[..., 1] * b[..., 1]
    out += 0.0
    return out


def scale_xy(op: np.ufunc, a: np.ndarray, b: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """op(a, b) for points and one factor per row, in either order,
    computed one column at a time: the bits of op(s[..., None], pts) or
    op(pts, s[..., None]), as the operands keep their order (a nan's
    payload comes from the first).  Each column warns on its own, so a
    floating-point warning may come twice.  The result is written to
    out if given, which may be the points themselves."""
    points_first = np.ndim(a) > np.ndim(b)
    if out is None:
        out = np.empty(np.shape(a if points_first else b), dtype=np.result_type(a, b))
    for k in (0, 1):
        if points_first:
            op(a[..., k], b, out=out[..., k])
        else:
            op(a, b[..., k], out=out[..., k])
    return out


def finite_xy(pts: np.ndarray) -> np.ndarray:
    """Row-wise: both coordinates finite."""
    return np.isfinite(pts[..., 0]) & np.isfinite(pts[..., 1])


def perp_xy(pts: np.ndarray) -> np.ndarray:
    """J, the rotation by +90 degrees, applied row-wise."""
    out = np.empty_like(pts)
    out[..., 0] = -pts[..., 1]
    out[..., 1] = pts[..., 0]
    return out


def rotate_xy(pts: np.ndarray, phi: float) -> np.ndarray:
    """Counterclockwise rotation by phi radians, row-wise."""
    c, s = math.cos(phi), math.sin(phi)
    out = np.empty_like(pts)
    out[..., 0] = c * pts[..., 0] - s * pts[..., 1]
    out[..., 1] = s * pts[..., 0] + c * pts[..., 1]
    return out


def invert_xy(pts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise inversion in the unit circle, x / |x|^2, written to out
    if given (it may be pts); rows within ORIGIN_EPS of the origin come back nan."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n2 = dot_xy(pts, pts)
        out = scale_xy(np.divide, pts, n2, out)
    out[n2 < ORIGIN_EPS * ORIGIN_EPS] = np.nan
    return out


def median(x: np.ndarray) -> float:
    """np.median of a non-empty 1-d float array, bit for bit, reordering
    x in place: the middle entry or the mean of the two, nan if any entry
    is nan.  np.median imports numpy.ma on its first call, ~15 ms a process."""
    n = len(x)
    h = n // 2
    x.partition([h, -1] if n % 2 else [h - 1, h, -1])
    if np.isnan(x[-1]):
        return math.nan
    # numpy's mean sums from +0.0, so a -0.0 median comes out +0.0
    return float(0.0 + x[h] if n % 2 else (0.0 + x[h - 1] + x[h]) / 2)
