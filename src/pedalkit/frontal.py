"""Legendrian lifts and frontal transforms.

A frontal is a curve g together with a continuous unit normal nu with
<g', nu> = 0; mu = J nu completes the moving frame, and

    nu' = ell mu,   mu' = -ell nu,   g' = beta mu,
    ell = <nu', mu>,   beta = <g', mu>.

lift_front builds nu, ell and beta on a grid from the Frenet grid of
the curve, which it keeps as LegendrianCurve.frenet: on regular arcs
nu = -sigma J d1/|d1| with a piecewise-constant sign sigma chosen
for continuity; where the velocity vanishes the direction comes from d2,
and ell is the limit det(d2, d3) / (2 |d2|^2).  As sigma^2 = 1, sigma
flips exactly in the cells where consecutive raw normals point apart,
closing cell of a closed grid included; round that ring nu comes back
as twist * nu, twist = -1 on a front with an odd number of cusps.  A
flip in a cell between regular samples is refined to the speed minimum
there (one Illinois solve of <d1, d2> = 0 for all such cells, by
singularity.refine_brackets, else the slower end of the cell),
which gives LegendrianCurve.flips, in [t_min, t_max), and tells a cusp
from an undersampled turn.  The lift fails (LiftFailure) where d1 and
d2 vanish, where no +-1 sign choice keeps consecutive normals aligned,
or where a flip falls and the speed is not small.  To read nu, ell or
beta at some t, lift a grid that holds t.

lift_front is the third frame provider of pedalkit.transforms, next to
the Frenet and polyline frames: its LegendrianCurve is the sampled curve
with its lifted normal.  The frontal transforms are the kernels of
that module applied to such a frame (any MappedCurve with a normal), so
each formula has one implementation and they compose on sampled
outputs.  Their primitive-type outputs are frames again, with the normal
+-g/|g| (rotated by phi for the slant case), which is what makes the
composition law for slant primitivoids checkable sample by sample.  All
of them are invariant under nu -> -nu: a frame with the opposite normal
is dataclasses.replace(frame, nu=-frame.nu), and a block of a lift,
lc.rows(block), is a plain MappedCurve that reads the lift's eps_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transforms as tr
from .curve import (CurveDef, FrenetGrid, _block_max, _jets_xy, _unit_frame, check_defined,
                    frenet_grid, velocity_xy)
from .errors import HypothesisViolated, LiftFailure
from .singularity import refine_brackets
from .transforms import (DEGENERATE_ANGLE_EPS, FLAG_OK, MappedCurve,
                         TransformKind)
from .vec import dot_xy, median, perp_xy, scale_xy

# consecutive lifted normals must stay at least this aligned
CONTINUITY_MIN_DOT = 0.5


def _raw_normals(fg: FrenetGrid) -> np.ndarray:
    """Unit normal directions up to sign, -J d/|d| = -n_hat from d = d1,
    or at singular parameters from d = d2."""
    raw = -fg.n_hat
    todo = np.flatnonzero(~fg.regular)
    _, regular, n_hat = _unit_frame(fg.d2[todo])
    if not regular.all():
        raise LiftFailure(f"no direction data at t={float(fg.ts[todo[~regular][0]])}: "
                          "the first two derivatives vanish")
    raw[todo] = -n_hat
    return raw


def _ell(sigma: np.ndarray, d1: np.ndarray, d2: np.ndarray, speed: np.ndarray,
         mu: np.ndarray) -> np.ndarray:
    """ell = <nu', mu> on regular rows, from the quotient rule for nu = -sigma J d1/|d1|."""
    with np.errstate(all="ignore"):
        sdot = dot_xy(d1, d2)  # = speed * d(speed)/dt
        # sigma (J d1 sdot - J d2 speed^2) / speed^3
        nudot = (scale_xy(np.multiply, perp_xy(d1), sdot)
                 - scale_xy(np.multiply, perp_xy(d2), speed ** 2))
        nudot = scale_xy(np.divide, scale_xy(np.multiply, sigma, nudot), speed ** 3)
        return dot_xy(nudot, mu)


def _refine_flips(curve: CurveDef, fg: FrenetGrid, i: np.ndarray, j: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Speed minima in the cells [lo, hi] from sample i to sample j of
    fg, all at once, read at curve.wrap(t).

    Where f = <d1, d2>, half the derivative of speed^2, is negative at
    lo and positive at hi, the minimum is its root there, which
    refine_brackets finds with one order-2 jet walk per step over the
    cells not yet done.  A cell whose ends do not bracket such a root,
    or whose root is rejected, takes the end with the lower speed."""
    fi, fj = dot_xy(fg.d1[i], fg.d2[i]), dot_xy(fg.d1[j], fg.d2[j])
    out = np.where(fg.speed[i] <= fg.speed[j], lo, hi)
    rising = np.flatnonzero((fi < 0.0) & (fj > 0.0))
    roots, _ = refine_brackets(lambda t: dot_xy(*_jets_xy(curve, curve.wrap(t), 2)[1:]),
                               lo[rising], hi[rising], fi[rising], fj[rising])
    found = ~np.isnan(roots)
    out[rising[found]] = roots[found]
    return out


@dataclass(frozen=True, kw_only=True)
class LegendrianCurve(MappedCurve):
    """The lifted frame: grid and points are those of `frenet`, not copied."""

    frenet: FrenetGrid        # the jets of the curve on the sample grid
    ell_grid: np.ndarray
    beta_grid: np.ndarray
    flips: tuple[float, ...]  # parameters where sigma changes sign
    twist: int                # closed grids: nu comes back round the seam as twist * nu[0]


def lift_front(curve: CurveDef, ts: np.ndarray | None = None) -> LegendrianCurve:
    """Continuous unit-normal lift along ts, by default the sample grid."""
    fg = frenet_grid(curve, ts)
    ts, p, d1, d2, d3, speed = fg.ts, fg.p, fg.d1, fg.d2, fg.d3, fg.speed
    n = len(ts)
    if not np.isfinite(d1).all():
        raise LiftFailure(f"curve {curve.name!r} has non-finite derivatives on the grid")
    regular = fg.regular
    singular = ~regular
    check_defined(curve, ts[singular], (p[singular], d2[singular], d3[singular]))
    raw = _raw_normals(fg)

    # continuity propagation of the sign: sigma flips in the cells where
    # consecutive raw normals point apart, and the aligned dot is |dot|.
    # Cell c runs from sample c to the next: round the seam on a closed
    # grid, and to itself (never a flip) at the end of an open one.
    dots = dot_xy(tr.halo(raw, 1, n + 1, curve.closed), raw)
    cell_signs = np.where(dots < 0.0, -1.0, 1.0)
    signs = np.cumprod(np.concatenate(([1.0], cell_signs[:-1])))
    twist = int(signs[-1] * cell_signs[-1]) if curve.closed else 1
    cells = np.flatnonzero(cell_signs < 0.0)
    right = (cells + 1) % n
    lo, hi = ts[cells], np.where(right > cells, ts[right], ts[right] + (curve.period or 0.0))
    t_flip = ts[right]
    # a singular sample before the flip keeps its recorded sign
    after_singular = ~regular[cells] & regular[right]
    t_flip[after_singular] = np.nextafter(lo, hi)[after_singular]
    refined = regular[cells] & regular[right]
    undersampled = np.zeros(n, dtype=bool)  # per cell, like dots
    if refined.any():
        t_flip[refined] = curve.wrap(_refine_flips(curve, fg, cells[refined], right[refined],
                                                   lo[refined], hi[refined]))
        v = velocity_xy(curve, t_flip[refined])
        median_speed = median(speed[regular])
        if median_speed:
            undersampled[cells[refined]] = np.hypot(v[:, 0], v[:, 1]) > 1e-3 * median_speed
    bad = np.flatnonzero(undersampled | (np.abs(dots) < CONTINUITY_MIN_DOT))
    if bad.size:
        c = bad[0]
        if undersampled[c]:
            t_bad = t_flip[np.searchsorted(cells, c)]
            raise LiftFailure(
                f"normal direction flips near t={t_bad:.6g} without a "
                f"singular point; the curve is undersampled")
        raise LiftFailure(
            f"one-sided normal limits at t={ts[(c + 1) % n]:.6g} disagree by more than "
            f"a sign (cos angle = {abs(dots[c]):.3f})")
    nu = scale_xy(np.multiply, signs, raw)

    # frame curvatures: ell from the exact quotient rule on regular rows,
    # and at a singular sample from its limit there, det(d2, d3) / (2 |d2|^2),
    # which the order-3 jets give exactly and nu -> -nu leaves alone
    mu = perp_xy(nu)
    ell = _ell(signs, d1, d2, speed, mu)
    s2, s3 = d2[singular], d3[singular]
    ell[singular] = (s2[:, 0] * s3[:, 1] - s2[:, 1] * s3[:, 0]) / (2.0 * dot_xy(s2, s2))
    beta = dot_xy(d1, mu)

    return LegendrianCurve(curve.name, TransformKind("lift"), ts, p, np.full(n, FLAG_OK, np.uint8),
                           curve.closed, nu, frenet=fg, ell_grid=ell, beta_grid=beta,
                           flips=tuple(float(t) for t in np.sort(t_flip)), twist=twist)


def legendrian_residual(lc: LegendrianCurve) -> float:
    """max |<g', nu>| / max(1, |g'|) over the grid; zero for a valid
    lift up to rounding."""
    fg = lc.frenet
    return _block_max(len(lc.grid), lambda s: np.abs(dot_xy(fg.d1[s], lc.nu[s]))
                      / np.maximum(1.0, fg.speed[s]))


# ---------------------------------------------------------------------------
# frontal transforms: the kernels of pedalkit.transforms on lifted frames,
# such as lift_front(curve)

def frontal_pedal(sf: MappedCurve) -> MappedCurve:
    return tr.pedal_kernel(sf, "frontal-pedal")


def frontal_antipedal(sf: MappedCurve) -> MappedCurve:
    return tr.antipedal_kernel(sf, "frontal-antipedal")


def frontal_primitive(sf: MappedCurve) -> MappedCurve:
    return tr.primitive_kernel(sf, "frontal-primitive", normal=True)


def frontal_parallel_primitivoid(sf: MappedCurve, r: float) -> MappedCurve:
    return tr.parallel_kernel(sf, r, "frontal-parallel", normal=True)


def frontal_slant_primitivoid(sf: MappedCurve, phi: float) -> MappedCurve:
    return tr.slant_kernel(sf, phi, "frontal-slant", normal=True)


def invert_frontal(sf: MappedCurve) -> MappedCurve:
    return tr.invert_kernel(sf, f"inverted-{sf.kind.name}")


def _composition_sides(sf: MappedCurve, psi: float, phi: float,
                       source: MappedCurve | None = None):
    """cos(psi+phi) Pr[psi](Pr[phi](sf)) and cos(psi) cos(phi)
    Pr[psi+phi](source), source = sf by default, as callables that give
    the rows of a block, and the samples where both are ok (the outer
    primitivoid is ok only where the inner one is)."""
    outer = frontal_slant_primitivoid(frontal_slant_primitivoid(sf, phi), psi)
    one = frontal_slant_primitivoid(sf if source is None else source, psi + phi)
    p, q = outer.points, one.points  # not the normals
    return (lambda s: math.cos(psi + phi) * p[s],
            lambda s: math.cos(psi) * math.cos(phi) * q[s], outer.ok & one.ok)


def composition_check(sf: MappedCurve, psi: float, phi: float) -> float:
    """Max over commonly-ok samples of

        | cos(psi+phi) Pr[psi](Pr[phi](sf)) - cos(psi) cos(phi) Pr[psi+phi](sf) |,

    inf if there is none.  phi = pi/2 + n pi is rejected: the inner primitivoid
    collapses to the origin and the outer one is meaningless there.
    """
    if abs(math.cos(phi)) < DEGENERATE_ANGLE_EPS:
        raise HypothesisViolated(
            "inner angle phi = pi/2 + n pi collapses the first primitivoid to the origin")
    lhs, rhs, ok = _composition_sides(sf, psi, phi)
    return _block_max(len(ok), lambda s: np.hypot(*(lhs(s) - rhs(s)).T), ok)
