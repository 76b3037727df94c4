"""Singularity detection and classification.

The primitive of a curve g is singular exactly where

    criterion(t) = kappa |g|^2 + 2 <g, n_hat> = 0

and such a zero is an ordinary (3/2) cusp iff additionally the
arc-length derivative of kappa is nonzero there.  Equivalently, the
osculating circle of g at t passes through the origin, and the inverted
curve has an ordinary inflection.  Roots are located by a sign-change
scan over a grid, one JET_BLOCK slice at a time, followed by the
Illinois method (refine_brackets), for all brackets together, until the
point moves by at most 2 ulp or 80 steps.  On a closed curve the scan
includes the closing cell from the last sample round to the first, by
index, without a copy of the grid; where it runs past t_max the
detectors read the curve at `CurveDef.wrap(t)` and list their roots
there, in [t_min, t_max).
The scalar criterion, osculating_circle and classify_cusp are one-row
cases of the array functions.  Each detector scans one Frenet field
(`_scan`); the cusp scan reads the inversion curvature, the negated
criterion, with the same roots bit for bit.  detect_cusps_numeric is
the model-free cross-check: it sees cusps of a sampled curve purely
from the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from .curve import (CurveDef, FrenetGrid, bbox_diameter, frenet_grid, frenet_rows,
                    row_blocks, sample_grid)
from .errors import HypothesisViolated, InflectionPoint, RangeError
from .transforms import (DENOM_REL_EPS, MappedCurve, frenet_frame, halo,
                         inversion_curvature_rows, stencil_ok)
from .vec import dot_xy, finite_xy, median, scale_xy

# Illinois steps per bracket; the last one keeps its point if |f| is
# within the values at the bracket's ends
ILLINOIS_MAX_STEPS = 80

# |kappa| below this has no osculating circle
KAPPA_EPS = 1e-10

# classification thresholds
CRITERION_EPS = 1e-8
KAPPA_PRIME_EPS = 1e-6

# detect_cusps_numeric thresholds
CUSP_SPEED_FRACTION = 1e-3
MIN_DETECT_SAMPLES = 1024


def refine_brackets(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
                    flo: np.ndarray, fhi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Refine the sign-change brackets [lo, hi], with f = flo at lo and
    fhi at hi, all together by the Illinois method (Dowell & Jarratt,
    BIT 11, 1971): regula falsi that halves f at an end kept twice in a
    row, so that both ends close in.  One call of f per step over the
    brackets still open.  A bracket is done when f is 0 at the new point,
    when the point moves by at most 2 ulp of the bracket's larger end, or
    after ILLINOIS_MAX_STEPS steps.  Returns (roots, residuals |f|), nan
    where the sign change is a pole, not a root: f is undefined at a
    point tried, or |f| ends above its values at both ends."""
    a, b, fa, fb = (np.asarray(x, dtype=float) for x in (lo, hi, flo, fhi))  # b is the newest
    bound = np.maximum(np.abs(fa), np.abs(fb))
    tol = 2.0 * np.spacing(np.maximum(np.abs(a), np.abs(b)))  # np.spacing(t) < 0 for t < 0
    roots, resids = np.full(len(a), np.nan), np.full(len(a), np.nan)
    live = np.arange(len(a))
    for step in range(ILLINOIS_MAX_STEPS):
        if not live.size:
            break
        t = b - fb * ((b - a) / (fb - fa))
        ft = np.asarray(f(t), dtype=float)
        done = (ft == 0.0) | (np.abs(t - b) <= tol[live]) | (step == ILLINOIS_MAX_STEPS - 1)
        kept = done & (np.abs(ft) <= bound[live])
        roots[live[kept]], resids[live[kept]] = t[kept], np.abs(ft[kept])
        go = ~done & np.isfinite(ft)
        swap = (ft < 0.0) != (fb < 0.0)  # the root lies between b and t
        a, fa = np.where(swap, b, a)[go], np.where(swap, fb, 0.5 * fa)[go]
        b, fb, live = t[go], ft[go], live[go]
    return roots, resids


def find_roots(f: Callable[[np.ndarray], np.ndarray], grid: np.ndarray,
               values: np.ndarray | None = None,
               period: float | None = None) -> list[tuple[float, float]]:
    """Roots of f located by sign changes between adjacent grid points,
    refined by the Illinois method (refine_brackets).  f is vectorized
    and pointwise: it maps an array of parameters to the array of their
    values, nan where it is undefined, so the grid values, unless passed,
    are f on one row_blocks slice at a time.  Returns (root, residual) pairs in grid
    order.  A cell with a non-finite end is not a bracket, and neither
    is one in which f is undefined (a pole).

    For a closed curve pass its period, t_max - t_min: the closing cell
    [grid[-1], grid[0] + period] is scanned too, with f(grid[0]) as its
    right end, and a root in it is reported where it is found there, in
    [grid[-1], grid[0] + period], last in grid order.
    """
    grid = np.asarray(grid, dtype=float)
    if values is None:
        values = np.empty(len(grid))
        for block in row_blocks(len(grid)):
            values[block] = f(grid[block])
    values = np.asarray(values, dtype=float)
    n = len(grid)
    live = np.isfinite(values) & (values != 0.0)
    neg = values < 0.0
    cells = np.flatnonzero(live[:-1] & live[1:] & (neg[:-1] != neg[1:]))
    # the closing cell n - 1 of a closed grid runs from grid[-1] to grid[0] + period
    if (period is not None and grid[-1] < grid[0] + period
            and live[-1] and live[0] and neg[-1] != neg[0]):
        cells = np.concatenate([cells, [n - 1]])
    right = (cells + 1) % n
    hi = np.where(cells == n - 1, grid[0] + (period or 0.0), grid[right])
    roots, resids = refine_brackets(f, grid[cells], hi, values[cells], values[right])
    found = [(i, (float(t0), float(resid)))  # (grid index, root)
             for i, t0, resid in zip(cells, roots, resids) if not np.isnan(t0)]
    # A run of exact zeros is one root if it ends the grid on one side,
    # or the sign changes across it between finite values; tangential
    # contact and identically-zero stretches are out of contract.
    zero = values == 0.0
    edges = np.flatnonzero(np.diff(np.concatenate(([0], zero.astype(np.int8), [0]))))
    for i, j in zip(edges[::2], edges[1::2]):
        if (i == 0) != (j == n) or (0 < i and j < n and live[i - 1] and live[j]
                                    and neg[i - 1] != neg[j]):
            found.append((i, (float(0.5 * (grid[i] + grid[j - 1])), 0.0)))
    return [root for _, root in sorted(found, key=lambda item: item[0])]


@dataclass(frozen=True)
class OsculatingCircle:
    center: np.ndarray  # length-2 float64
    radius: float


def _osculating_circles(fg: FrenetGrid) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of the osculating circles on the rows of fg."""
    with np.errstate(all="ignore"):
        return fg.p + scale_xy(np.divide, fg.n_hat, fg.kappa), 1.0 / np.abs(fg.kappa)


def osculating_circle(curve: CurveDef, t: float) -> OsculatingCircle:
    fg = frenet_rows(curve, t)
    kappa = float(fg.kappa[0])
    if abs(kappa) < KAPPA_EPS:
        raise InflectionPoint(f"no osculating circle at t={t}: curvature {kappa:.3e}")
    center, radius = _osculating_circles(fg)
    return OsculatingCircle(center[0], float(radius[0]))


def criterion(curve: CurveDef, t: float) -> float:
    """kappa |g|^2 + 2 <g, n_hat> at one parameter: the negated
    curvature of the inverted curve, with the errors of frenet, and
    OriginSingularity where g is the origin."""
    return -float(inversion_curvature_rows(frenet_rows(curve, t))[0])


@dataclass(frozen=True)
class CuspClassification:
    label: str  # 'ordinary-cusp' | 'degenerate' | 'not-singular'
    criterion: float
    kappa_prime_arc: float
    circle_witness: float  # | |center| - radius | of the osculating circle


def classify_cusps(curve: CurveDef, ts: np.ndarray, eps_d: float) -> list[CuspClassification]:
    """Classify primitive-singularity candidates at the parameters ts,
    in one array call.

    Needs |<g, n_hat>| >= eps_d there (else the primitive itself is not
    defined and HypothesisViolated is raised for the first such
    parameter); raises the errors of frenet as well.  eps_d is the guard
    of the grid the candidates came from, the `eps_d` of its frame.
    """
    fg = frenet_rows(curve, ts)
    den = dot_xy(fg.p, fg.n_hat)
    undefined = np.abs(den) < eps_d
    if undefined.any():
        i = np.flatnonzero(undefined)[0]
        raise HypothesisViolated(
            f"<g, n> = {den[i]:.3e} at t={fg.ts[i]}; the primitive is undefined there")
    crit = -inversion_curvature_rows(fg)
    kpa = fg.kappa_prime_arc
    labels = np.where(np.abs(crit) <= CRITERION_EPS,
                      np.where(np.abs(kpa) > KAPPA_PRIME_EPS, "ordinary-cusp", "degenerate"),
                      "not-singular")
    center, radius = _osculating_circles(fg)
    witness = np.abs(np.hypot(center[:, 0], center[:, 1]) - radius)
    witness[np.abs(fg.kappa) < KAPPA_EPS] = math.inf
    return [CuspClassification(str(label), float(c), float(k), float(w))
            for label, c, k, w in zip(labels, crit, kpa, witness)]


def classify_cusp(curve: CurveDef, t0: float) -> CuspClassification:
    """Classify a primitive-singularity candidate at t0: the one-root
    case of classify_cusps, at the guard of the curve's kept frame
    (built and kept on the first call)."""
    return classify_cusps(curve, t0, frenet_frame(curve).eps_d)[0]


@dataclass(frozen=True)
class SingularityReport:
    kind: str  # 'inflection' | 'vertex' | 'primitive-cusp'
    t: float
    residual: float
    classification: Optional[str] = None


def _scan(curve: CurveDef, ts: np.ndarray | None, field: Callable[[FrenetGrid], np.ndarray],
          values: np.ndarray | None = None) -> list[tuple[float, float]]:
    """The roots of field, a map of a FrenetGrid to its (n,) rows, over
    ts (by default the sample grid), whose field values may be passed;
    field is read at curve.wrap(t), as in find_roots' closing cell, and
    the roots are listed at curve.wrap(t), in [t_min, t_max), sorted."""
    roots = find_roots(lambda t: field(frenet_grid(curve, curve.wrap(t))),
                       sample_grid(curve) if ts is None else curve._check_params(ts),
                       values=values, period=curve.period)
    return sorted((float(curve.wrap(t0)), resid) for t0, resid in roots)


def primitive_singularities(curve: CurveDef,
                            ts: np.ndarray | None = None) -> list[SingularityReport]:
    """Parameters where the primitive of the curve is singular,
    classified.  The curve must avoid the origin.  One blocked walk of
    the grid gives the scan values and the guard scale of its positions,
    the `eps_d` of the frame of the grid, with no frame kept."""
    grid = sample_grid(curve) if ts is None else np.asarray(ts, dtype=float)
    values, corners = np.empty(len(grid)), []
    for block in row_blocks(len(grid)):
        fg = frenet_grid(curve, grid[block])
        values[block] = inversion_curvature_rows(fg)
        good = finite_xy(fg.p)
        corners += [[c.min(where=good, initial=np.inf) for c in fg.p.T],
                    [c.max(where=good, initial=-np.inf) for c in fg.p.T]]
        del fg  # not held while the next block's is built
    roots = _scan(curve, grid, inversion_curvature_rows, values)
    classes = classify_cusps(curve, [t0 for t0, _ in roots],
                             DENOM_REL_EPS * bbox_diameter(np.array(corners))) if roots else []
    return [SingularityReport("primitive-cusp", t0, resid, cls.label)
            for (t0, resid), cls in zip(roots, classes)]


def inflections(curve: CurveDef, ts: np.ndarray | None = None) -> list[SingularityReport]:
    return [SingularityReport("inflection", t0, r)
            for t0, r in _scan(curve, ts, attrgetter("kappa"))]


def vertices(curve: CurveDef, ts: np.ndarray | None = None) -> list[SingularityReport]:
    return [SingularityReport("vertex", t0, r)
            for t0, r in _scan(curve, ts, attrgetter("kappa_prime_arc"))]


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
    window_ok = stencil_ok(mc.ok & finite_xy(p), closed)

    w = halo(p, -2, n + 2, closed)
    with np.errstate(all="ignore"):
        central = (w[3:-1] - w[1:-3]) / (2.0 * h)
        speed = np.hypot(central[:, 0], central[:, 1])
        reversal = dot_xy(p - w[:-4], w[4:] - p) < 0.0

    if not window_ok.any():
        return []
    median_speed = median(speed[window_ok])
    w = halo(speed, -1, n + 1, closed)
    local_min = (speed < w[2:]) & (speed <= w[:-2])
    hits = window_ok & local_min & (speed < CUSP_SPEED_FRACTION * median_speed) & reversal
    return [float(mc.grid[i]) for i in np.flatnonzero(hits)]
