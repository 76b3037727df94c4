"""Planar vectors, lines, rotations and inversion.

`Vec2` is a small immutable value type for scalar geometry; grid-sized
work elsewhere in the package uses (n, 2) numpy arrays, and the array
helpers here (`perp_xy`, `invert_xy`) are the vectorized twins of the
scalar operations.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OriginSingularity

# Points closer to the origin than this cannot be inverted.
ORIGIN_EPS = 1e-9


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __truediv__(self, k: float) -> "Vec2":
        return Vec2(self.x / k, self.y / k)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


def row_vec(rows: np.ndarray) -> Vec2:
    """Row 0 of an (n, 2) array as a Vec2 of floats."""
    return Vec2(float(rows[0, 0]), float(rows[0, 1]))


def perp(v: Vec2) -> Vec2:
    """Rotate v by +90 degrees (the complex-structure J)."""
    return Vec2(-v.y, v.x)


def rotate(v: Vec2, phi: float) -> Vec2:
    """Rotate v counterclockwise by phi radians."""
    c, s = math.cos(phi), math.sin(phi)
    return Vec2(c * v.x - s * v.y, s * v.x + c * v.y)


def invert(x: Vec2) -> Vec2:
    """Inversion in the unit circle, x / |x|^2."""
    n2 = x.norm_sq()
    if n2 < ORIGIN_EPS * ORIGIN_EPS:
        raise OriginSingularity(f"cannot invert point within {ORIGIN_EPS} of the origin")
    return Vec2(x.x / n2, x.y / n2)


def perp_xy(pts: np.ndarray) -> np.ndarray:
    """J applied row-wise to an (n, 2) array."""
    out = np.empty_like(pts)
    out[..., 0] = -pts[..., 1]
    out[..., 1] = pts[..., 0]
    return out


def rotate_xy(pts: np.ndarray, phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    out = np.empty_like(pts)
    out[..., 0] = c * pts[..., 0] - s * pts[..., 1]
    out[..., 1] = s * pts[..., 0] + c * pts[..., 1]
    return out


def invert_xy(pts: np.ndarray) -> np.ndarray:
    """Row-wise inversion; rows inside the origin guard come back nan."""
    n2 = np.einsum("...i,...i->...", pts, pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = pts / n2[..., None]
    out[n2 < ORIGIN_EPS * ORIGIN_EPS] = np.nan
    return out


@dataclass(frozen=True)
class Line:
    """The line { p : <p, a> = c }.  a need not be unit."""

    a: Vec2
    c: float

    def eval(self, p: Vec2) -> float:
        return self.a.dot(p) - self.c

    def canonical(self) -> "Line":
        """Scale so |a| = 1 and c >= 0; when c = 0 the first nonzero
        component of a is made positive.  Two Lines describe the same
        point set iff their canonical forms coincide."""
        n = self.a.norm()
        if n == 0.0:
            raise ValueError("degenerate line with a = 0")
        a, c = self.a / n, self.c / n
        if c < 0.0 or (c == 0.0 and (a.x < 0.0 or (a.x == 0.0 and a.y < 0.0))):
            a, c = -a, -c
        return Line(a, c)
