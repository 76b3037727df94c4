"""Dot products, quarter turns, rotations and inversion of plane points.

A point or vector is a float64 array whose last axis has length 2: an
(n, 2) array on a grid, a length-2 array for one point (what the
scalar functions of the package return).  The helpers act on the last
axis, so they take either.  All functions are pure.
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


def invert_xy(pts: np.ndarray) -> np.ndarray:
    """Row-wise inversion in the unit circle, x / |x|^2; rows within
    ORIGIN_EPS of the origin come back nan."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n2 = dot_xy(pts, pts)
        out = pts / n2[..., None]
    out[n2 < ORIGIN_EPS * ORIGIN_EPS] = np.nan
    return out
