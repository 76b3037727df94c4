"""Legendrian lifts and frontal transforms.

A frontal is a curve g together with a continuous unit normal nu with
<g', nu> = 0; mu = J nu completes the moving frame, and

    nu' = ell mu,   mu' = -ell nu,   g' = beta mu,
    ell = <nu', mu>,   beta = <g', mu>.

lift_front builds nu from the symbolic jets: on regular arcs
nu = sigma (d1y, -d1x)/|d1| with a piecewise-constant sign sigma chosen
for continuity; where the velocity vanishes the direction comes from
d2 (then d3).  When continuity forces a sign flip between two grid
samples the flip parameter is refined to the speed minimum in that
cell, so that nu(t) stays continuous for off-grid t as well.  The lift
fails (LiftFailure) when no +-1 sign choice keeps consecutive normals
aligned, e.g. when the curve is too undersampled to track the normal.

LegendrianCurve.sample() is the third frame provider of
pedalkit.transforms, next to the Frenet and polyline frames: the sampled
curve with its lifted normal.  The frontal transforms are the kernels of
that module applied to such a frame (any MappedCurve with a normal), so
each formula has one implementation and they compose on sampled
outputs.  Their primitive-type outputs are frames again, with the normal
+-g/|g| (rotated by phi for the slant case), which is what makes the
composition law for slant primitivoids checkable sample by sample.  All
of them are invariant under nu -> -nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import transforms as tr
from .curve import (REGULAR_EPS, CurveDef, jet, jet_grid, position_xy,
                    sample_grid)
from .errors import HypothesisViolated, LiftFailure
from .transforms import (DEGENERATE_ANGLE_EPS, FLAG_OK, MappedCurve,
                         TransformKind)
from .vec import Vec2, perp_xy

# consecutive lifted normals must stay at least this aligned
CONTINUITY_MIN_DOT = 0.5


def _raw_normal_scalar(curve: CurveDef, t: float) -> tuple[Vec2, bool]:
    """Unit normal direction up to sign; falls back to higher jets at
    singular parameters.  Returns (direction, is_regular)."""
    j = jet(curve, t)
    for d, regular in ((j.d1, True), (j.d2, False), (j.d3, False)):
        speed = d.norm()
        if speed >= REGULAR_EPS:
            return Vec2(d.y / speed, -d.x / speed), regular
    raise LiftFailure(f"no direction data at t={t}: first three derivatives vanish")


def _refine_flip(curve: CurveDef, lo: float, hi: float) -> float:
    """Speed minimum in [lo, hi] by ternary search."""
    for _ in range(60):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if jet(curve, m1).d1.norm() <= jet(curve, m2).d1.norm():
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class LegendrianCurve:
    curve: CurveDef
    ts: np.ndarray
    nu_grid: np.ndarray       # lifted continuous normal at the samples
    ell_grid: np.ndarray
    beta_grid: np.ndarray
    regular_grid: np.ndarray  # where |d1| >= REGULAR_EPS
    sign0: float
    flips: tuple[float, ...]  # parameters where sigma changes sign
    seam_consistent: bool     # closed curves: nu returns to +nu(t_min)

    def sigma(self, t: float) -> float:
        count = sum(1 for b in self.flips if b <= t)
        return self.sign0 * (-1.0) ** count

    def nu(self, t: float) -> Vec2:
        raw, _ = _raw_normal_scalar(self.curve, t)
        return self.sigma(t) * raw

    def mu(self, t: float) -> Vec2:
        n = self.nu(t)
        return Vec2(-n.y, n.x)

    def sample(self) -> MappedCurve:
        """The lifted frame: the sampled curve with its lifted normal."""
        flags = np.full(len(self.ts), FLAG_OK, dtype=np.uint8)
        return MappedCurve(self.curve.name, TransformKind("lift"), self.ts,
                           position_xy(self.curve, self.ts), flags,
                           self.curve.closed, self.nu_grid.copy())


def lift_front(curve: CurveDef, ts: np.ndarray | None = None) -> LegendrianCurve:
    """Continuous unit-normal lift along the sample grid."""
    if ts is None:
        ts = sample_grid(curve)
    ts = np.asarray(ts, dtype=float)
    n = len(ts)
    p, d1, d2, d3 = jet_grid(curve, ts)
    if not np.isfinite(d1).all():
        raise LiftFailure(f"curve {curve.name!r} has non-finite derivatives on the grid")
    speed = np.hypot(d1[:, 0], d1[:, 1])
    regular = speed >= REGULAR_EPS

    raw = np.empty_like(d1)
    with np.errstate(all="ignore"):
        raw[regular, 0] = d1[regular, 1] / speed[regular]
        raw[regular, 1] = -d1[regular, 0] / speed[regular]
    for i in np.flatnonzero(~regular):
        v, _ = _raw_normal_scalar(curve, float(ts[i]))
        raw[i] = (v.x, v.y)

    # continuity propagation of the sign
    signs = np.ones(n)
    flips: list[float] = []
    median_speed = float(np.median(speed[regular])) if regular.any() else 0.0
    for i in range(1, n):
        sign = signs[i - 1]
        # dot of the tentative nu_i with nu_{i-1}
        dot = float((sign * raw[i]) @ (signs[i - 1] * raw[i - 1]))
        if dot < 0.0:
            sign = -sign
            dot = -dot
            if not regular[i]:
                flips.append(float(ts[i]))
            elif not regular[i - 1]:
                # the singular sample before keeps its recorded sign
                flips.append(float(np.nextafter(ts[i - 1], ts[i])))
            else:
                t_flip = _refine_flip(curve, float(ts[i - 1]), float(ts[i]))
                flip_speed = jet(curve, t_flip).d1.norm()
                if median_speed and flip_speed > 1e-3 * median_speed:
                    raise LiftFailure(
                        f"normal direction flips near t={t_flip:.6g} without a "
                        f"singular point; the curve is undersampled")
                flips.append(t_flip)
        if dot < CONTINUITY_MIN_DOT:
            raise LiftFailure(
                f"one-sided normal limits at t={ts[i]:.6g} disagree by more than "
                f"a sign (cos angle = {dot:.3f})")
        signs[i] = sign
    nu = signs[:, None] * raw

    seam_consistent = True
    if curve.closed:
        seam_consistent = float(nu[-1] @ nu[0]) > 0.0

    # frame curvatures: ell from the exact quotient rule on regular rows
    mu = perp_xy(nu)
    ell = np.empty(n)
    with np.errstate(all="ignore"):
        w = np.column_stack([d1[:, 1], -d1[:, 0]])
        wdot = np.column_stack([d2[:, 1], -d2[:, 0]])
        sdot = (d1 * d2).sum(axis=1)  # = speed * d(speed)/dt
        nudot = signs[:, None] * (wdot * (speed ** 2)[:, None] - w * sdot[:, None]) / (speed ** 3)[:, None]
        ell_all = (nudot * mu).sum(axis=1)
    ell[regular] = ell_all[regular]
    h = ts[1] - ts[0] if n > 1 else 0.0
    for i in np.flatnonzero(~regular):
        # central difference of the lifted normal across the singular sample
        j0, j1 = i - 1, i + 1
        if curve.closed:
            j0, j1 = j0 % n, j1 % n
            span = 2.0 * h
        else:
            j0, j1 = max(j0, 0), min(j1, n - 1)
            span = (j1 - j0) * h
        if span == 0.0:
            raise LiftFailure(f"cannot estimate ell at isolated sample t={ts[i]}")
        dn = (nu[j1] - nu[j0]) / span
        ell[i] = float(dn @ mu[i])
    beta = (d1 * mu).sum(axis=1)

    return LegendrianCurve(curve, ts, nu, ell, beta, regular, 1.0, tuple(flips),
                           seam_consistent)


def legendrian_curvature(lc: LegendrianCurve, t: float) -> tuple[float, float]:
    """(ell, beta) at an arbitrary parameter."""
    j = jet(lc.curve, t)
    sigma = lc.sigma(t)
    nu = lc.nu(t)
    mu = Vec2(-nu.y, nu.x)
    beta = j.d1.dot(mu)
    speed = j.d1.norm()
    if speed >= REGULAR_EPS:
        w = Vec2(j.d1.y, -j.d1.x)
        wdot = Vec2(j.d2.y, -j.d2.x)
        sdot = j.d1.dot(j.d2)
        nudot = sigma * (wdot * speed**2 - w * sdot) / speed**3
        return nudot.dot(mu), beta
    delta = 1e-6 * (lc.curve.t_max - lc.curve.t_min)
    lo = max(t - delta, lc.curve.t_min)
    hi = min(t + delta, lc.curve.t_max)
    dn = (lc.nu(hi) - lc.nu(lo)) / (hi - lo)
    return dn.dot(mu), beta


def is_front(lc: LegendrianCurve, t: float) -> bool:
    """(ell, beta) != (0, 0) there."""
    ell, beta = legendrian_curvature(lc, t)
    return math.hypot(ell, beta) > REGULAR_EPS


def legendrian_residual(lc: LegendrianCurve) -> float:
    """max |<g', nu>| / max(1, |g'|) over the grid; zero for a valid
    lift up to rounding."""
    _, d1, _, _ = jet_grid(lc.curve, lc.ts)
    num = np.abs((d1 * lc.nu_grid).sum(axis=1))
    den = np.maximum(1.0, np.hypot(d1[:, 0], d1[:, 1]))
    return float((num / den).max())


# ---------------------------------------------------------------------------
# frontal transforms: the kernels of pedalkit.transforms on lifted frames


# a sampled frontal is a frame: a MappedCurve with a continuous unit normal
SampledFrontal = MappedCurve

FrontalLike = Union[LegendrianCurve, MappedCurve]


def _frame(fr: FrontalLike) -> MappedCurve:
    return fr.sample() if isinstance(fr, LegendrianCurve) else fr


def frontal_pedal(fr: FrontalLike) -> MappedCurve:
    return tr.pedal_kernel(_frame(fr), "frontal-pedal")


def frontal_antipedal(fr: FrontalLike) -> MappedCurve:
    return tr.antipedal_kernel(_frame(fr), "frontal-antipedal")


def frontal_primitive(fr: FrontalLike) -> MappedCurve:
    return tr.primitive_kernel(_frame(fr), "frontal-primitive", normal=True)


def frontal_parallel_primitivoid(fr: FrontalLike, r: float) -> MappedCurve:
    return tr.parallel_kernel(_frame(fr), r, "frontal-parallel", normal=True)


def frontal_slant_primitivoid(fr: FrontalLike, phi: float) -> MappedCurve:
    return tr.slant_kernel(_frame(fr), phi, "frontal-slant", normal=True)


def invert_frontal(fr: FrontalLike) -> MappedCurve:
    sf = _frame(fr)
    return tr.invert_kernel(sf, f"inverted-{sf.kind.name}")


def composition_check(fr: FrontalLike, psi: float, phi: float) -> float:
    """Max over commonly-ok samples of

        | cos(psi+phi) Pr[psi](Pr[phi](fr)) - cos(psi) cos(phi) Pr[psi+phi](fr) |.

    phi = pi/2 + n pi is rejected: the inner primitivoid collapses to
    the origin and the outer one is meaningless there.
    """
    if abs(math.cos(phi)) < DEGENERATE_ANGLE_EPS:
        raise HypothesisViolated(
            "inner angle phi = pi/2 + n pi collapses the first primitivoid to the origin")
    sf = _frame(fr)
    inner = frontal_slant_primitivoid(sf, phi)
    outer = frontal_slant_primitivoid(inner, psi)
    lhs = math.cos(psi + phi) * outer.points
    rhs_f = frontal_slant_primitivoid(sf, psi + phi)
    rhs = math.cos(psi) * math.cos(phi) * rhs_f.points
    ok = outer.ok & rhs_f.ok & inner.ok
    if not ok.any():
        raise HypothesisViolated("no commonly defined samples to compare")
    diff = np.hypot(lhs[ok, 0] - rhs[ok, 0], lhs[ok, 1] - rhs[ok, 1])
    return float(diff.max())
