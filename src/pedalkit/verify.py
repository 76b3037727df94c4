"""Named verification suites.

Each suite runs a battery of identities on a given curve and returns a
VerifyReport with one row per identity: the measured residual, the
tolerance it must meet, and pass/fail.  Closed-form transforms are
checked against independent constructions (envelopes, inversion
round-trips, finite differences of sampled output curves), so the
suites certify the formulas rather than re-deriving them.

A row's residual is the max over the samples it compares: a nan on a
compared sample fails the row, and no compared sample gives inf.  Every
array-valued row takes it with `curve._block_max`, which builds the
residuals and their operands JET_BLOCK rows at a time, bit for bit the
max over the grid.  Rows over a few roots are maxima of lists, and the
curve double inversion is a max over coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from . import frontal as fr
from . import singularity as sg
from . import transforms as tr
from .curve import (JET_BLOCK, CurveDef, _block_max, builtin_curve, frenet_grid, position_xy,
                    row_blocks, sample_grid)
from .envelope import circle_family_check, envelope, make_family
from .errors import HypothesisViolated, LiftFailure, RangeError
from .vec import dot_xy, finite_xy, invert_xy, median, perp_xy, rotate_xy

SUITES = ("inversion", "duality", "parallel", "slant", "inverse-pair",
          "oracle", "singularity", "frontal", "all")


@dataclass(frozen=True)
class IdentityResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class VerifyReport:
    suite: str
    curve_name: str
    results: list[IdentityResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def add(self, name: str, residual: float, tolerance: float) -> None:
        self.results.append(IdentityResult(name, float(residual), tolerance))

    def format(self) -> str:
        width = max(len(r.name) for r in self.results) if self.results else 10
        lines = [f"suite {self.suite!r} on curve {self.curve_name!r}"]
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"  {r.name:<{width}}  residual {r.residual:12.5e}"
                         f"  tol {r.tolerance:8.1e}  {status}")
        lines.append(f"=> {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _diff(a, b, mask: np.ndarray, relative: bool = False) -> float:
    """Max distance |a - b| over the rows of mask; a and b are (n, 2)
    arrays, or callables giving the rows of a block, so that an operand
    such as r * pr.points is built a block at a time.  relative divides
    by max(1, |b|): transforms with poles (primitive, antipedal) reach
    magnitudes ~ 1/q near q -> 0 where every evaluation scheme carries
    O(eps / q^2) absolute error."""
    def residual(block):
        pa, pb = (x(block) if callable(x) else x[block] for x in (a, b))
        dist = np.hypot(*(pa - pb).T)
        return dist / np.maximum(1.0, np.hypot(*pb.T)) if relative else dist
    return _block_max(len(mask), residual, mask)


def _root_gap(found, expected, period: float | None) -> float:
    """Largest distance between matched roots; inf if the counts differ.
    The sorted lists are matched in order, under the cyclic shift that
    gives the smallest gap, by distance on the circle of length period
    for a closed curve, whose roots near t_min may be found near t_max."""
    if len(found) != len(expected):
        return math.inf
    a, b = sorted(found), sorted(expected)
    period = period or math.inf
    def gap(x, y):
        d = abs(x - y) % period
        return min(d, period - d)
    return min((max(map(gap, a, b[k:] + b[:k])) for k in range(len(b))), default=0.0)


STABLE_FRAC = 0.05


def stable_mask(mc: tr.MappedCurve) -> np.ndarray:
    """Samples on the 'regular part' of a sampled curve: ok, away from
    speed collapses (cusps) and blow-ups (poles), with a two-sample
    buffer.  Outside STABLE_FRAC * median .. median / STABLE_FRAC the
    polyline no longer resolves the curve and difference frames are
    meaningless.  Its speeds are taken a block at a time, with one
    `transforms.halo` row on each side."""
    good, speed = mc.ok & finite_xy(mc.points), np.empty(len(mc.grid))
    for block in row_blocks(len(speed)):
        pts = tr.halo(mc.points, block.start - 1, block.stop + 1, mc.closed)
        with np.errstate(all="ignore"):
            central = pts[2:] - pts[:-2]
            speed[block] = np.hypot(central[:, 0], central[:, 1])
    ref = median(speed[good]) if good.any() else 0.0
    slow = (~good | ~np.isfinite(speed)
            | (speed < STABLE_FRAC * ref) | (speed * STABLE_FRAC > ref))
    return good & tr.stencil_ok(~slow, mc.closed)


# ---------------------------------------------------------------------------
# suites


PLANE_SEED = 20240811
PLANE_POINTS = 1_000_000
_LN_1E6 = math.log(1e6)  # 1e-3 * exp(_LN_1E6 * u) < 1e3 for every draw u < 1


def _uniform(start: int, stop: int) -> np.ndarray:
    """Draws start..stop-1 of the SplitMix64 stream seeded with PLANE_SEED
    (Steele, Lea & Flood, OOPSLA 2014), as floats in [0, 1) from their top
    53 bits.  Draw k mixes PLANE_SEED + (k + 1) * gamma, so any slice of
    the stream is computed directly, in uint64 arithmetic that wraps: the
    radii of `_plane_points` take draws 0..PLANE_POINTS-1, its angles one
    draw per group of 8 points from PLANE_POINTS on."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15 + PLANE_SEED
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9
    z = (z ^ z >> 27) * 0x94D049BB133111EB
    return ((z ^ z >> 31) >> 11) * 2.0**-53


def _plane_points(start: int, stop: int,
                  out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(radii, points) of the random plane points start..stop-1, the
    points written to out if given.  Point 8j + k is the k-th image of
    (cos theta_j, sin theta_j), theta_j = pi/4 * draw PLANE_POINTS + j of
    `_uniform`, under the symmetries of the square: sign flips and a swap,
    exact in floating point, which put its angle, uniform in [0, 2 pi), in
    octant k.  Its radius, log-uniform in [1e-3, 1e3], is 1e-3 *
    exp(ln(1e6) * draw 8j + k).  A slice that cuts a group of 8 is cut
    from the whole groups."""
    pts = np.empty((stop - start, 2)) if out is None else out
    lo, hi = start - start % 8, stop + -stop % 8
    if (lo, hi) != (start, stop):
        radii, whole = _plane_points(lo, hi)
        pts[:] = whole[start - lo:stop - lo]
        return radii[start - lo:stop - lo], pts
    radii = _uniform(start, stop)
    radii *= _LN_1E6
    np.exp(radii, out=radii)
    radii *= 1e-3
    theta = math.pi / 4 * _uniform(PLANE_POINTS + start // 8, PLANE_POINTS + stop // 8)
    cs = np.empty((4, len(theta)))  # cos, sin, -cos, -sin
    np.cos(theta, out=cs[0])
    np.sin(theta, out=cs[1])
    np.negative(cs[:2], out=cs[2:])
    # x and y of images 0..7: (c, s) (s, c) (-s, c) (-c, s) (-c, -s) (-s, -c) (s, -c) (c, -s)
    for col, images in enumerate(([0, 1, 3, 2, 2, 3, 1, 0], [1, 0, 0, 1, 3, 2, 2, 3])):
        np.multiply(cs[images].T, radii.reshape(-1, 8), out=pts[:, col].reshape(-1, 8))
    return radii, pts


def _conformal_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m pairs (x[i], y[i]) of plane points, m a multiple of 4: point i,
    image k of its angle, and point 2m - 1 - i, image 7 - k of its own,
    the mirror image in the x axis.  Pairs of one image would offset
    their angles by less than pi/4; these offsets cover the circle."""
    _, pts = _plane_points(0, 2 * m)
    return pts[:m], pts[:m - 1:-1]


@functools.lru_cache(maxsize=1)
def _plane_inversion_rows() -> tuple[tuple[str, float, float], ...]:
    """(name, residual, tolerance) of the inversion rows that do not
    depend on the curve; computed once per process, on PLANE_POINTS
    points drawn a row_blocks slice at a time into JET_BLOCK-row
    buffers allocated once: a block's points and their double inverses,
    whose distance is taken in place (the squares neither overflow nor
    underflow for radii in [1e-3, 1e3])."""
    bufs = np.empty((2, 2, JET_BLOCK))  # x and y columns of each, contiguous

    def involution(block):
        pts, back = (b.T[:block.stop - block.start] for b in bufs)
        radii, _ = _plane_points(block.start, block.stop, pts)
        back = invert_xy(invert_xy(pts, back), back)
        back -= pts
        back *= back
        dist = back[:, 0]
        dist += back[:, 1]
        np.sqrt(dist, out=dist)
        dist /= radii
        return dist

    m = 10_000
    xs, ys = _conformal_pairs(m)

    def conformal(block):
        x, y = xs[block], ys[block]
        lhs = np.hypot(*(invert_xy(x) - invert_xy(y)).T)
        rhs = np.hypot(*(x - y).T) / (np.hypot(*x.T) * np.hypot(*y.T))
        return np.abs(lhs - rhs) / np.maximum(rhs, 1e-300)

    v = np.array([0.6832, -1.977])
    w = rotate_xy(rotate_xy(v, 0.71), -1.93)
    a = np.array([3.25, -0.125])
    return (
        ("inversion is an involution (1e6 points)", _block_max(PLANE_POINTS, involution), 1e-12),
        ("inversion scales distances conformally", _block_max(m, conformal), 1e-9),
        ("perp twice negates", math.hypot(*(perp_xy(perp_xy(v)) + v)), 0.0),
        ("quarter turn equals perp",
         math.hypot(*(rotate_xy(v, math.pi / 2) - perp_xy(v))), 1e-15 * math.hypot(*v)),
        ("rotations add angles", math.hypot(*(w - rotate_xy(v, 0.71 - 1.93))), 1e-12),
        ("scalar inversion involution", math.hypot(*(invert_xy(invert_xy(a)) - a)), 1e-12),
    )


def _suite_inversion(curve: CurveDef, report: VerifyReport) -> None:
    for row in _plane_inversion_rows():
        report.add(*row)
    double = tr.invert_curve(tr.invert_curve(curve))
    ts = sample_grid(curve)
    report.add("curve double-inversion returns the curve",
               np.abs(position_xy(double, ts) - position_xy(curve, ts)).max(), 1e-9)


def _suite_duality(curve: CurveDef, report: VerifyReport) -> None:
    frame = tr.frenet_frame(curve)
    inv_frame = tr.frenet_frame(tr.invert_curve(curve))
    pr = tr.primitive_kernel(frame)
    ape_inv = tr.antipedal_kernel(inv_frame)
    report.add("primitive = antipedal of inverted curve",
               _diff(pr.points, ape_inv.points, pr.ok & ape_inv.ok, relative=True), 1e-9)

    inv_pe_inv = tr.invert_kernel(tr.pedal_kernel(inv_frame), "inverted")
    report.add("primitive = inversion of pedal of inverted curve",
               _diff(pr.points, inv_pe_inv.points, pr.ok & inv_pe_inv.ok, relative=True), 1e-9)

    pe = tr.pedal_kernel(frame)
    ape = tr.antipedal_kernel(frame)
    for name, a, b, relative in (("pedal = inversion of antipedal", pe, ape, False),
                                 ("antipedal = inversion of pedal", ape, pe, True)):
        inv = tr.invert_kernel(b, "inverted")
        report.add(name, _diff(a.points, inv.points, a.ok & inv.ok, relative), 1e-9)
        del inv  # not held while the next one is built

    lam = -2.5
    pe_scaled = tr.pedal(tr.transform_curve(curve, 0.0, lam))
    report.add("pedal commutes with scaling",
               _diff(pe_scaled.points, lambda s: lam * pe.points[s], pe.ok & pe_scaled.ok), 1e-9)


def _suite_parallel(curve: CurveDef, report: VerifyReport) -> None:
    frame = tr.frenet_frame(curve)
    pr = tr.primitive_kernel(frame)
    for r in (2.0, -1.0):
        par = tr.parallel_kernel(frame, r)
        report.add(f"parallel({r:g}) = {r:g} x primitive",
                   _diff(par.points, lambda s: r * pr.points[s], par.ok & pr.ok), 1e-12)
        pr_scaled = tr.primitive(tr.transform_curve(curve, 0.0, r))
        report.add(f"parallel({r:g}) = primitive of scaled curve",
                   _diff(par.points, pr_scaled.points, par.ok & pr_scaled.ok), 1e-9)
    one = tr.parallel_kernel(frame, 1.0)
    report.add("parallel(1) = primitive", _diff(one.points, pr.points, one.ok & pr.ok), 0.0)


def _suite_slant(curve: CurveDef, report: VerifyReport) -> None:
    frame = tr.frenet_frame(curve)
    pr = tr.primitive_kernel(frame)
    pr_perp = tr.perp_primitive_kernel(frame)
    report.add("perp-primitive = J primitive",
               _diff(pr_perp.points, lambda s: perp_xy(pr.points[s]), pr.ok & pr_perp.ok), 0.0)
    for phi in (0.0, math.pi / 10, math.pi / 4, math.pi / 3, 2.0):
        c, sn = math.cos(phi), math.sin(phi)
        sl = tr.slant_kernel(frame, phi)
        report.add(f"slant({phi:.4g}) = cos phi (cos phi Pr + sin phi Pr-perp)",
                   _diff(sl.points, lambda s: c * (c * pr.points[s] + sn * pr_perp.points[s]),
                         sl.ok & pr.ok & pr_perp.ok), 1e-9)
        par = tr.parallel_kernel(frame, c)
        report.add(f"slant({phi:.4g}) = rotated parallel(cos phi)",
                   _diff(sl.points, lambda s: rotate_xy(par.points[s], phi), sl.ok & pr.ok), 1e-12)
        ape_inv_rot = tr.antipedal(tr.invert_curve(tr.transform_curve(curve, phi, 1.0)))
        report.add(f"slant({phi:.4g}) = cos phi antipedal of inverted rotated curve",
                   _diff(sl.points, lambda s: c * ape_inv_rot.points[s], sl.ok & ape_inv_rot.ok,
                         relative=True), 1e-9)
    sl0 = tr.slant_kernel(frame, 0.0)
    report.add("slant(0) = primitive", _diff(sl0.points, pr.points, sl0.ok & pr.ok), 0.0)
    degenerate = tr.slant_kernel(frame, math.pi / 2)
    # a kernel that misses the degenerate angle compares no sample: inf
    report.add("slant(pi/2) collapses to the origin",
               _block_max(len(degenerate.grid), lambda s: np.hypot(*degenerate.points[s].T),
                          degenerate.ok & degenerate.kind.degenerate_angle), 1e-9)


def _suite_inverse_pair(curve: CurveDef, report: VerifyReport) -> None:
    # Difference frames on the mapped polyline converge at O(h^2); use a
    # dense grid so the bound holds even where the image bends sharply.
    ts = sample_grid(curve, max(4096, curve.samples))
    frame = tr.frenet_frame(curve, ts)
    src = frame.points
    pr = tr.primitive_kernel(frame)
    back = tr.mapped_pedal(pr)
    mask = stable_mask(pr) & back.ok
    report.add("pedal of primitive returns the curve", _diff(back.points, src, mask), 1e-6)

    pe = tr.pedal_kernel(frame)
    forth = tr.mapped_primitive(pe)
    mask = stable_mask(pe) & forth.ok
    report.add("primitive of pedal returns the curve", _diff(forth.points, src, mask), 1e-6)

    phi = math.pi / 10
    rotated = position_xy(tr.transform_curve(curve, phi, 1.0), ts)
    sl = tr.slant_kernel(frame, phi)
    pe_of_sl = tr.mapped_pedal(sl)
    mask = stable_mask(sl) & pe_of_sl.ok
    report.add("pedal of slant primitivoid = scaled rotated curve",
               _diff(pe_of_sl.points, lambda s: math.cos(phi) * rotated[s], mask), 1e-6)
    sl_of_pe = tr.mapped_slant(pe, phi)
    mask = stable_mask(pe) & sl_of_pe.ok
    report.add("slant primitivoid of pedal = scaled rotated curve",
               _diff(sl_of_pe.points, lambda s: math.cos(phi) * rotated[s], mask), 1e-6)


# (kind, angle or ratio)
_ORACLE_CASES = (
    ("primitive", None),
    ("parallel", 2.0),
    ("parallel", -1.0),
    ("slant", math.pi / 10),
    ("slant", math.pi / 4),
    ("slant", math.pi / 3),
    ("antipedal", None),
)


def _suite_oracle(curve: CurveDef, report: VerifyReport) -> None:
    frame = tr.frenet_frame(curve)
    flag_mismatch = 0
    for kind, value in _ORACLE_CASES:
        fam = make_family(kind, curve, r=value, phi=value)
        env = envelope(fam)
        closed = tr.transform_frame(frame, kind, value)
        report.add(f"envelope matches closed form {fam.kind.label()}",
                   _diff(env.points, closed.points, env.ok & closed.ok, relative=True), 1e-9)
        flag_mismatch += int((~env.ok & closed.ok).sum())
    report.add("envelope degeneracies are flagged by the closed form too", flag_mismatch, 0.0)
    report.add("pedal circles: incidence and inversion to lines",
               circle_family_check(curve), 1e-9)


def _suite_singularity(curve: CurveDef, report: VerifyReport) -> None:
    fg = frenet_grid(curve, sample_grid(curve, max(4096, curve.samples)))
    ts = fg.ts
    speeds = fg.speed[fg.regular]
    if (~fg.regular).any() or speeds.min() < 1e-3 * median(speeds):
        # Cusp criterion, vertex matching, and root refinement all
        # assume a regular source curve; run the frontal suite instead.
        raise HypothesisViolated(
            f"curve '{curve.name}' has singular or near-singular samples;"
            " the singularity suite needs a regular curve")
    kpsi = tr.inversion_curvature_rows(fg)
    roots = sg._scan(curve, ts, tr.inversion_curvature_rows, kpsi)
    # the Frenet frame of the grid: fg's positions and normals, no second walk
    frame = tr.MappedCurve(curve.name, tr.TransformKind("source"), ts, fg.p,
                           np.zeros(len(ts), np.uint8), curve.closed, fg.n_hat)
    classes = sg.classify_cusps(curve, [t0 for t0, _ in roots], frame.eps_d) if roots else []
    report.add("criterion roots refined to tolerance",
               max((resid for _, resid in roots), default=0.0), 1e-10)

    cusps = [(t0, c) for (t0, _), c in zip(roots, classes) if c.label == "ordinary-cusp"]
    cusp_ts = np.array([t0 for t0, _ in cusps])
    h = ts[1] - ts[0]
    witness = max((c.circle_witness for _, c in cusps), default=0.0)
    inflect = max((abs(c.criterion) for _, c in cusps), default=0.0)
    # inversion curvature one step to each side of the cusps, in one
    # call; an open curve leaves a cusp within h of an end out of the
    # sign check
    sides = curve.wrap(np.concatenate([cusp_ts - h, cusp_ts + h]))
    inside = curve.closed | ((cusp_ts - h >= curve.t_min) & (cusp_ts + h <= curve.t_max))
    k_left, k_right = np.split(tr.inversion_curvature_grid(curve, sides), 2)
    sign_ok = bool(((k_left < 0.0) != (k_right < 0.0))[inside].all())
    report.add("osculating circle passes through origin at cusps", witness, 1e-8)
    report.add("inverted curve has zero curvature at cusps", inflect, 1e-8)
    report.add("inverted-curve curvature changes sign at cusps",
               0.0 if sign_ok else math.inf, 0.0)

    w = tr.halo(kpsi, -1, len(ts) + 1, curve.closed)
    dk = (w[2:] - w[:-2]) / (2 * h)
    del w  # not held through the rest of the suite
    if np.abs(fg.kappa_prime_arc).max() < 1e-10 and np.abs(dk).max() < 1e-8:
        # Constant curvature: both sides vanish identically and sign scans
        # would chase rounding noise.
        report.add("vertices = extrema of inversion curvature", 0.0, 2 * h)
    else:
        vertex_roots = [t0 for t0, _ in sg._scan(curve, ts, attrgetter("kappa_prime_arc"),
                                                 fg.kappa_prime_arc)]
        delta = 1e-6 * (curve.t_max - curve.t_min)

        def dk_grid(t):
            lo = np.maximum(t - delta, curve.t_min)
            hi = np.minimum(t + delta, curve.t_max)
            k_hi, k_lo = np.split(tr.inversion_curvature_grid(curve, np.concatenate([hi, lo])), 2)
            return (k_hi - k_lo) / (hi - lo)

        ext_roots = [t for t, _ in sg.find_roots(dk_grid, ts, values=dk,
                                                 period=curve.period)]
        report.add("vertices = extrema of inversion curvature",
                   _root_gap(vertex_roots, ext_roots, curve.period), 2 * h)

    fd = _fd_curvature_of_inverted(fg.p, h, curve.closed)
    floor = 1e-3 * np.abs(kpsi).max() or 1.0  # kpsi = 0 throughout: compare absolutely
    report.add("inversion curvature matches finite differences",
               _block_max(len(ts), lambda s: np.abs(fd[s] - kpsi[s])
                          / np.maximum(np.abs(kpsi[s]), floor), np.isfinite(fd)), 1e-5)

    pr = tr.primitive_kernel(frame)
    report.add("numeric cusp detector agrees with the criterion",
               _root_gap(sg.detect_cusps_numeric(pr), cusp_ts, curve.period),
               h + 1e-12)


def _fd_curvature_of_inverted(p: np.ndarray, h: float, closed: bool) -> np.ndarray:
    """Finite-difference curvature of the pointwise inversions of the
    positions p, sampled at parameter step h."""
    w = tr.halo(invert_xy(p), -2, len(p) + 2, closed)
    with np.errstate(all="ignore"):
        d1 = tr.five_point_derivative(w, h)
        d2 = (-w[:-4] + 16 * w[1:-3] - 30 * w[2:-2] + 16 * w[3:-1] - w[4:]) / (12 * h * h)
        speed = np.hypot(d1[:, 0], d1[:, 1])
        kappa = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
    kappa[~tr.stencil_ok(np.ones(len(p), dtype=bool), closed)] = np.nan
    return kappa


def _output_normal_residual(lc: fr.LegendrianCurve, mask: np.ndarray) -> float:
    """Max |<Pr', nu_out>| / max(1, |Pr'|) with Pr' differentiated
    analytically through the lift (nu' = ell mu), so cusps of the output
    cost nothing, over the samples of mask where it is finite.  A rotation
    R(phi) cancels from both factors, so it covers every slant angle."""
    def residual(s):
        gamma, dgamma, nu, ell = lc.points[s], lc.frenet.d1[s], lc.nu[s], lc.ell_grid[s]
        mu = perp_xy(nu)
        n2 = dot_xy(gamma, gamma)
        q = dot_xy(gamma, nu)
        n2p = 2.0 * dot_xy(gamma, dgamma)
        qp = dot_xy(dgamma, nu) + ell * dot_xy(gamma, mu)
        coef = (n2p * q - n2 * qp) / (q * q)
        dpr = 2.0 * dgamma - coef[:, None] * nu - (n2 / q * ell)[:, None] * mu
        num = np.abs(dot_xy(dpr, gamma)) / np.sqrt(n2)
        resid = num / np.maximum(1.0, np.hypot(dpr[:, 0], dpr[:, 1]))
        return np.where(np.isfinite(resid), resid, -np.inf)
    return _block_max(len(mask), residual, mask)


@functools.lru_cache(maxsize=1)
def _circle_composition_rows() -> tuple[tuple[str, float, float], ...]:
    """(name, residual, tolerance) of the frontal rows on the built-in
    circle at 1024 samples, which do not depend on the curve; computed
    once per process."""
    lift = fr.lift_front(builtin_curve("circle", samples=1024))
    return tuple((f"circle slant composition adds angles ({label})",
                  fr.composition_check(lift, psi, phi), 1e-9)
                 for label, psi, phi in (("pi/10, pi/5", math.pi / 10, math.pi / 5),
                                         ("pi/6, pi/6", math.pi / 6, math.pi / 6)))


def _suite_frontal(curve: CurveDef, report: VerifyReport) -> None:
    lc = fr.lift_front(curve, sample_grid(curve, max(4096, curve.samples)))
    n = len(lc.grid)
    report.add("legendrian residual of the lift", fr.legendrian_residual(lc), 1e-8)

    # frame closure, with the normal derivative from finite differences
    nu, ell = lc.nu, lc.ell_grid
    nudot = tr.five_point_derivative(tr.halo(nu, -2, n + 2, curve.closed, lc.twist),
                                     lc.grid[1] - lc.grid[0])
    inner = tr.stencil_ok(np.ones(n, dtype=bool), curve.closed)
    report.add("frame closure nu' = ell mu",
               _diff(nudot, lambda s: ell[s, None] * perp_xy(nu[s]), inner), 1e-6)
    report.add("frame closure mu' = -ell nu",
               _diff(lambda s: perp_xy(nudot[s]), lambda s: -ell[s, None] * nu[s], inner), 1e-6)

    fg = lc.frenet
    report.add("ell = speed x curvature on regular arcs",
               _block_max(n, lambda s: np.abs(ell[s] - fg.speed[s] * fg.kappa[s]), fg.regular),
               1e-9)

    ops = (fr.frontal_pedal, fr.frontal_antipedal, fr.frontal_primitive,
           lambda f: fr.frontal_slant_primitivoid(f, math.pi / 10))

    def gap(a, b):
        return np.where(a.ok & b.ok, np.hypot(*(a.points - b.points).T), -np.inf)

    def flip_gap(s):  # the ops on a block with nu and with -nu, one op at a time
        rows = lc.rows(s)
        flipped = replace(rows, nu=-rows.nu)
        return np.maximum.reduce([gap(op(rows), op(flipped)) for op in ops])
    report.add("transforms invariant under nu -> -nu", _block_max(n, flip_gap), 1e-15)

    pr_f = fr.frontal_primitive(lc)
    report.add("primitivoid outputs are frontals (exact derivative)",
               _output_normal_residual(lc, pr_f.ok), 1e-10)

    # composition of slants: the general law lands on the primitivoid of
    # the primitive, the literal angle-addition form holds for
    # origin-centered circles (see the circle rows below)
    two_step, one_step, both = fr._composition_sides(lc, math.pi / 10, math.pi / 5, pr_f)
    report.add("slant(psi) of slant(phi) = slant(psi+phi) of primitive",
               _diff(two_step, one_step, both, relative=True), 1e-9)

    for row in _circle_composition_rows():
        report.add(*row)

    lhs, rhs, both = fr._composition_sides(lc, math.pi / 4, math.pi / 4)
    report.add("degenerate composition: both sides vanish",
               _block_max(n, lambda s: np.maximum(np.hypot(*lhs(s).T), np.hypot(*rhs(s).T)),
                          both), 1e-9)

    inv_pe_inv = tr.invert_kernel(fr.frontal_pedal(fr.invert_frontal(lc)), "inverted")
    report.add("primitive = inversion of pedal of inverted frontal",
               _diff(inv_pe_inv.points, pr_f.points, inv_pe_inv.ok & pr_f.ok, relative=True),
               1e-9)


_SUITE_FNS = {
    "inversion": _suite_inversion,
    "duality": _suite_duality,
    "parallel": _suite_parallel,
    "slant": _suite_slant,
    "inverse-pair": _suite_inverse_pair,
    "oracle": _suite_oracle,
    "singularity": _suite_singularity,
    "frontal": _suite_frontal,
}


def run_suite(suite: str, curve: CurveDef) -> VerifyReport:
    if suite not in SUITES:
        raise RangeError(f"unknown suite {suite!r}; choices: {', '.join(SUITES)}")
    report = VerifyReport(suite, curve.name)
    if suite == "all":
        for name in SUITES[:-1]:
            try:
                _SUITE_FNS[name](curve, report)
            except (HypothesisViolated, LiftFailure):
                # A suite whose identities do not apply to this curve, or
                # whose lift fails on it, is not a failure; requesting it
                # alone still raises.
                report.add(f"{name} suite skipped: hypotheses not met", 0.0, 0.0)
    else:
        _SUITE_FNS[suite](curve, report)
    return report
