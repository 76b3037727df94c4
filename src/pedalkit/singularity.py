"""Singularity detection and classification.

The primitive of a curve g is singular exactly where

    criterion(t) = kappa |g|^2 + 2 <g, n_hat> = 0

and such a zero is an ordinary (3/2) cusp iff additionally the
arc-length derivative of kappa is nonzero there.  Equivalently, the
osculating circle of g at t passes through the origin, and the inverted
curve has an ordinary inflection.  Roots are located by a sign-change
scan over a grid followed by bisection, refined until |f| <= 1e-10 or
80 iterations.  detect_cusps_numeric is the model-free cross-check: it
sees cusps of a sampled curve purely from the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .curve import CurveDef, curve_diameter, frenet, frenet_grid, sample_grid
from .errors import (EvalError, HypothesisViolated, InflectionPoint,
                     IrregularPoint, OriginSingularity, RangeError)
from .transforms import (DENOM_REL_EPS, MappedCurve, inversion_curvature,
                         inversion_curvature_grid, shift, stencil_ok)
from .vec import Vec2

BISECT_TARGET = 1e-10
BISECT_MAX_ITER = 80

# |kappa| below this has no osculating circle
KAPPA_EPS = 1e-10

# classification thresholds
CRITERION_EPS = 1e-8
KAPPA_PRIME_EPS = 1e-6

# detect_cusps_numeric thresholds
CUSP_SPEED_FRACTION = 1e-3
MIN_DETECT_SAMPLES = 1024


def _bisect(f: Callable[[float], float], lo: float, hi: float,
            flo: float, fhi: float) -> Optional[tuple[float, float]]:
    """Refine a sign-change bracket; returns (root, |f(root)|), or None
    when the sign change is a pole, not a root: f is undefined somewhere
    in the bracket, or |f| ends above its values at both ends."""
    bound = max(abs(flo), abs(fhi))
    try:
        for _ in range(BISECT_MAX_ITER):
            mid = 0.5 * (lo + hi)
            fmid = f(mid)
            if not math.isfinite(fmid):
                return None
            if abs(fmid) <= BISECT_TARGET:
                return mid, abs(fmid)
            if (flo < 0.0) != (fmid < 0.0):
                hi = mid
            else:
                lo, flo = mid, fmid
        mid = 0.5 * (lo + hi)
        resid = abs(f(mid))
        return (mid, resid) if resid <= bound else None
    except (EvalError, IrregularPoint, OriginSingularity):
        return None


def _brackets(a: float, b: float) -> bool:
    """A sign change between two finite values."""
    return math.isfinite(a) and math.isfinite(b) and (a < 0.0) != (b < 0.0)


def find_roots(f: Callable[[float], float], grid: Iterable[float],
               values: np.ndarray | None = None) -> list[tuple[float, float]]:
    """Roots of f located by sign changes between adjacent grid points,
    refined by bisection.  Returns (root, residual) pairs in grid order.
    Precomputed grid values may be passed to skip the scan evaluations.
    A cell with a non-finite end is not a bracket, and neither is one in
    which f is undefined (a pole).
    """
    grid = np.asarray(list(grid), dtype=float)
    if values is None:
        values = np.array([f(t) for t in grid], dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(grid)
    found: list[tuple[int, tuple[float, float]]] = []  # (grid index, root)
    zero = values == 0.0
    live = np.isfinite(values) & ~zero
    neg = values < 0.0
    for i in np.flatnonzero(live[:-1] & live[1:] & (neg[:-1] != neg[1:])):
        root = _bisect(f, float(grid[i]), float(grid[i + 1]),
                       float(values[i]), float(values[i + 1]))
        if root is not None:
            found.append((i, root))
    # A run of exact zeros is one root, and only if the sign actually
    # changes across it; tangential contact and identically-zero
    # stretches are out of contract.
    edges = np.flatnonzero(np.diff(np.concatenate(([0], zero.astype(np.int8), [0]))))
    for i, j in zip(edges[::2], edges[1::2]):
        before = values[i - 1] if i > 0 else None
        after = values[j] if j < n else None
        if before is None and after is None:
            continue
        if before is None or after is None or _brackets(before, after):
            found.append((i, (float(0.5 * (grid[i] + grid[j - 1])), 0.0)))
    return [root for _, root in sorted(found, key=lambda item: item[0])]


@dataclass(frozen=True)
class OsculatingCircle:
    center: Vec2
    radius: float

    def distance_from_origin_gap(self) -> float:
        """| |center| - radius |; zero iff the circle passes through
        the origin."""
        return abs(self.center.norm() - self.radius)


def osculating_circle(curve: CurveDef, t: float) -> OsculatingCircle:
    fr = frenet(curve, t)
    if abs(fr.kappa) < KAPPA_EPS:
        raise InflectionPoint(f"no osculating circle at t={t}: curvature {fr.kappa:.3e}")
    center = fr.p + fr.n_hat / fr.kappa
    return OsculatingCircle(center, 1.0 / abs(fr.kappa))


def criterion(curve: CurveDef, t: float) -> float:
    """kappa |g|^2 + 2 <g, n_hat> at one parameter: the negated
    curvature of the inverted curve."""
    return -inversion_curvature(curve, t)


def criterion_grid(curve: CurveDef, ts: np.ndarray) -> np.ndarray:
    return -inversion_curvature_grid(curve, ts)


@dataclass(frozen=True)
class CuspClassification:
    label: str  # 'ordinary-cusp' | 'degenerate' | 'not-singular'
    criterion: float
    kappa_prime_arc: float
    circle_witness: float  # | |center| - radius | of the osculating circle


def classify_cusp(curve: CurveDef, t0: float,
                  eps_d: float | None = None) -> CuspClassification:
    """Classify a primitive-singularity candidate at t0.

    Needs <g, n_hat> bounded away from zero there (else the primitive
    itself is not defined at t0 and HypothesisViolated is raised).
    """
    fr = frenet(curve, t0)
    if eps_d is None:
        eps_d = DENOM_REL_EPS * curve_diameter(curve)
    den = fr.p.dot(fr.n_hat)
    if abs(den) < eps_d:
        raise HypothesisViolated(
            f"<g, n> = {den:.3e} at t={t0}; the primitive is undefined there")
    crit = criterion(curve, t0)
    if abs(crit) <= CRITERION_EPS:
        label = "ordinary-cusp" if abs(fr.kappa_prime_arc) > KAPPA_PRIME_EPS else "degenerate"
    else:
        label = "not-singular"
    if abs(fr.kappa) < KAPPA_EPS:
        witness = math.inf
    else:
        circle = osculating_circle(curve, t0)
        witness = circle.distance_from_origin_gap()
    return CuspClassification(label, crit, fr.kappa_prime_arc, witness)


@dataclass(frozen=True)
class SingularityReport:
    kind: str  # 'inflection' | 'vertex' | 'primitive-cusp'
    t: float
    residual: float
    classification: Optional[str] = None


def primitive_singularities(curve: CurveDef,
                            ts: np.ndarray | None = None) -> list[SingularityReport]:
    """Parameters where the primitive of the curve is singular,
    classified.  The curve must avoid the origin."""
    if ts is None:
        ts = sample_grid(curve)
    values = criterion_grid(curve, ts)
    roots = find_roots(lambda t: criterion(curve, t), ts, values=values)
    eps_d = DENOM_REL_EPS * curve_diameter(curve, ts)
    reports = []
    for t0, resid in roots:
        cls = classify_cusp(curve, t0, eps_d=eps_d)
        reports.append(SingularityReport("primitive-cusp", t0, resid, cls.label))
    return reports


def _frenet_roots(curve: CurveDef, ts: np.ndarray | None, field: str,
                  kind: str) -> list[SingularityReport]:
    """Roots of one Frenet quantity (kappa, kappa_prime_arc) over the grid."""
    if ts is None:
        ts = sample_grid(curve)
    values = getattr(frenet_grid(curve, ts), field)
    roots = find_roots(lambda t: getattr(frenet(curve, t), field), ts, values=values)
    return [SingularityReport(kind, t0, r) for t0, r in roots]


def inflections(curve: CurveDef, ts: np.ndarray | None = None) -> list[SingularityReport]:
    return _frenet_roots(curve, ts, "kappa", "inflection")


def vertices(curve: CurveDef, ts: np.ndarray | None = None) -> list[SingularityReport]:
    return _frenet_roots(curve, ts, "kappa_prime_arc", "vertex")


def detect_cusps_numeric(mc: MappedCurve) -> list[float]:
    """Model-free cusp detector on a sampled curve.

    A sample is a cusp when the central-difference speed has a local
    minimum below CUSP_SPEED_FRACTION of the median speed and the
    secant directions before and after it point opposite ways.
    """
    n = len(mc.grid)
    if n < MIN_DETECT_SAMPLES:
        raise RangeError(f"cusp detection needs >= {MIN_DETECT_SAMPLES} samples, got {n}")
    h = mc.grid[1] - mc.grid[0]
    p, closed = mc.points, mc.closed
    window_ok = stencil_ok(mc.ok & np.isfinite(p).all(axis=1), closed)

    with np.errstate(all="ignore"):
        central = (shift(p, 1, closed) - shift(p, -1, closed)) / (2.0 * h)
        speed = np.hypot(central[:, 0], central[:, 1])
        before = p - shift(p, -2, closed)
        after = shift(p, 2, closed) - p
        reversal = (before * after).sum(axis=1) < 0.0

    if not window_ok.any():
        return []
    median = float(np.median(speed[window_ok]))
    local_min = (speed < shift(speed, 1, closed)) & (speed <= shift(speed, -1, closed))
    hits = window_ok & local_min & (speed < CUSP_SPEED_FRACTION * median) & reversal
    return [float(mc.grid[i]) for i in np.flatnonzero(hits)]
