"""The benchmark's own closed forms, written apart from pedalkit.

Derivatives of the two curves are written out by hand, so nothing here
goes through pedalkit's expression trees:

    ellipse  g(t) = (cos t, sin t / sqrt 3)
    front    x(t) = (30 cos t - 17 cos 3t + 3 cos 5t) / 32
             y(t) = sin t (23 + 4 cos 2t - 3 cos 4t) / (16 sqrt 2)
                  = (21 sin t + 3.5 sin 3t - 1.5 sin 5t) / (16 sqrt 2)

The transforms are the paper's definitions, with n = J t_hat the
left-hand unit normal.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
_R3 = math.sqrt(3.0)
_Y = 16.0 * math.sqrt(2.0)


def grid(n: int) -> np.ndarray:
    """Closed grid on [0, 2 pi) without the duplicate endpoint."""
    return TWO_PI * np.arange(n) / n


def _xy(x, y):
    return np.stack([x, y], axis=-1)


def ellipse_jets(t):
    """(g, g', g'', g''') of the ellipse, each (n, 2)."""
    c, s = np.cos(t), np.sin(t)
    return (_xy(c, s / _R3), _xy(-s, c / _R3), _xy(-c, -s / _R3), _xy(s, -c / _R3))


def front_jets(t):
    """(g, g', g'', g''') of the front, each (n, 2)."""
    c1, c3, c5 = np.cos(t), np.cos(3 * t), np.cos(5 * t)
    s1, s3, s5 = np.sin(t), np.sin(3 * t), np.sin(5 * t)
    return (
        _xy((30 * c1 - 17 * c3 + 3 * c5) / 32, (21 * s1 + 3.5 * s3 - 1.5 * s5) / _Y),
        _xy((-30 * s1 + 51 * s3 - 15 * s5) / 32, (21 * c1 + 10.5 * c3 - 7.5 * c5) / _Y),
        _xy((-30 * c1 + 153 * c3 - 75 * c5) / 32, (-21 * s1 - 31.5 * s3 + 37.5 * s5) / _Y),
        _xy((30 * s1 - 459 * s3 + 375 * s5) / 32, (-21 * c1 - 94.5 * c3 + 187.5 * c5) / _Y),
    )


JETS = {"ellipse": ellipse_jets, "front": front_jets}


def _dot(a, b):
    return (a * b).sum(axis=-1)


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def perp(v):
    return _xy(-v[..., 1], v[..., 0])


def rotate(v, phi):
    c, s = math.cos(phi), math.sin(phi)
    return _xy(c * v[..., 0] - s * v[..., 1], s * v[..., 0] + c * v[..., 1])


def frame(name: str, t):
    """(g, t_hat, n_hat, speed, kappa, dkappa/dt) from the hand jets."""
    g, d1, d2, d3 = JETS[name](t)
    with np.errstate(all="ignore"):
        speed = np.hypot(d1[..., 0], d1[..., 1])
        t_hat = d1 / speed[..., None]
        kappa = _cross(d1, d2) / speed**3
        dkappa = _cross(d1, d3) / speed**3 - 3.0 * kappa * _dot(d1, d2) / speed**2
    return g, t_hat, perp(t_hat), speed, kappa, dkappa


def transform(name: str, kind: str, t, angle=None, ratio=None):
    """Closed-form image of the named curve under one transform kind."""
    g, t_hat, n_hat, _, _, _ = frame(name, t)
    q = _dot(g, n_hat)
    if kind == "pedal":
        return q[:, None] * n_hat
    if kind == "contrapedal":
        return _dot(g, t_hat)[:, None] * t_hat
    if kind == "pedaloid":
        d = math.cos(angle) * t_hat + math.sin(angle) * n_hat
        return _dot(g, d)[:, None] * d
    if kind == "antipedal":
        return n_hat / q[:, None]
    prim = 2.0 * g - (_dot(g, g) / q)[:, None] * n_hat
    if kind == "primitive":
        return prim
    if kind == "parallel":
        return ratio * prim
    if kind == "slant":
        return math.cos(angle) * rotate(prim, angle)
    if kind == "perp-primitive":
        return perp(prim)
    raise ValueError(f"no closed form for {kind!r}")


def criterion(name: str, t):
    """kappa |g|^2 + 2 <g, n>: zero where the primitive is singular."""
    g, _, n_hat, _, kappa, _ = frame(name, t)
    return kappa * _dot(g, g) + 2.0 * _dot(g, n_hat)


def sign_changes(values, keep=None) -> int:
    """Sign changes between neighbours of a closed grid (wrapping), over
    pairs whose both ends are in `keep`."""
    a, b = values, np.roll(values, -1)
    change = (a < 0) != (b < 0)
    if keep is not None:
        change &= keep & np.roll(keep, -1)
    return int(change.sum())
