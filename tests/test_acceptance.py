"""End-to-end acceptance battery.

Each test checks one contract item at its stated tolerance and prints a
single pass/fail line so the battery reads as a report under
`pytest tests/test_acceptance.py -q`.
"""

import math
import re
import time

import numpy as np

from _exprgen import expression_corpus

import pedalkit.expr as ex
from pedalkit import figures as fig
from pedalkit import frontal as fl
from pedalkit import singularity as sg
from pedalkit import transforms as tr
from pedalkit.curve import (BUILTIN_NAMES, builtin_curve, parse_curve,
                            position_xy, sample_grid)
from pedalkit.envelope import envelope, make_family
from pedalkit.render import render_svg, render_to_file
from pedalkit.vec import invert_xy, rotate_xy
from pedalkit.verify import _fd_curvature_of_inverted, stable_mask

SLANTS = (math.pi / 10, math.pi / 4, math.pi / 3)


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"acceptance {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _absmax(a, b, mask):
    d = a[mask] - b[mask]
    return float(np.hypot(d[:, 0], d[:, 1]).max())


def _relmax(a, b, mask):
    d = a[mask] - b[mask]
    scale = np.maximum(1.0, np.hypot(b[mask][:, 0], b[mask][:, 1]))
    return float((np.hypot(d[:, 0], d[:, 1]) / scale).max())


def _printed_slant_closed_form(phi, ts):
    # independent parametrization of the ellipse's slant primitivoid,
    # written out long-hand; x^2 + 3 y^2 = 1 with y scaled by 1/sqrt(3)
    cp, sp = math.cos(phi), math.sin(phi)
    s3 = math.sqrt(3.0)
    x = cp / 6.0 * (-2.0 * np.cos(ts) * (-4.0 + np.cos(2 * ts)) * cp
                    + s3 * (-np.sin(ts) + np.sin(3 * ts)) * sp)
    y = cp / 3.0 * (4.0 * np.cos(ts) * sp
                    - np.cos(2 * ts) * (s3 * cp * np.sin(ts) + np.cos(ts) * sp))
    return np.column_stack([x, y])


def test_criterion_01_slant_closed_form(capsys):
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 2048)
    start = time.perf_counter()
    worst = 0.0
    for phi in (0.0,) + SLANTS:
        sl = tr.slant_primitivoid(ell, phi, ts)
        ref = _printed_slant_closed_form(phi, ts)
        worst = max(worst, _absmax(sl.points, ref, sl.ok))
    elapsed = time.perf_counter() - start
    spot0 = tuple(tr.primitive(ell, np.array([0.0])).points[0])
    spot45 = tr.slant_primitivoid(ell, math.pi / 4, np.array([0.0])).points[0]
    ok = (worst <= 1e-9 and elapsed < 1.0
          and spot0 == (1.0, 0.0)
          and abs(spot45[0] - 0.5) < 1e-12 and abs(spot45[1] - 0.5) < 1e-12)
    _report(capsys, 1, ok,
            f"slant primitivoid matches printed closed form "
            f"(max err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_envelope_oracle(capsys):
    cases = [("primitive", {}, lambda c, ts: tr.primitive(c, ts))]
    for r in (2.0, -1.0):
        cases.append(("parallel", {"r": r},
                      lambda c, ts, r=r: tr.parallel_primitivoid(c, r, ts)))
    for phi in SLANTS:
        cases.append(("slant", {"phi": phi},
                      lambda c, ts, p=phi: tr.slant_primitivoid(c, p, ts)))
    cases.append(("antipedal", {}, lambda c, ts: tr.antipedal(c, ts)))
    start = time.perf_counter()
    worst = 0.0
    for name in BUILTIN_NAMES:
        c = builtin_curve(name)
        ts = sample_grid(c)
        for kind, kwargs, direct in cases:
            env = envelope(make_family(kind, c, **kwargs), ts)
            ref = direct(c, ts)
            worst = max(worst, _relmax(env.points, ref.points, env.ok & ref.ok))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(capsys, 2, ok,
            f"envelope oracle equals closed-form transforms "
            f"(max err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_duality_battery(capsys):
    worst = 0.0
    for name in ("ellipse", "offset_circle"):
        c = builtin_curve(name)
        ts = sample_grid(c)
        g = position_xy(c, ts)
        pr = tr.primitive(c, ts)
        inv = tr.invert_curve(c)

        ape_inv = tr.antipedal(inv, ts)
        worst = max(worst, _absmax(pr.points, ape_inv.points, pr.ok & ape_inv.ok))

        pe_inv = tr.pedal(inv, ts)
        lifted = invert_xy(pe_inv.points.copy())
        mask = pr.ok & pe_inv.ok & np.isfinite(lifted).all(axis=1)
        worst = max(worst, _absmax(pr.points, lifted, mask))

        ape = tr.antipedal(c, ts)
        pe = tr.pedal(c, ts)
        lifted = invert_xy(ape.points.copy())
        mask = ape.ok & pe.ok & np.isfinite(lifted).all(axis=1)
        worst = max(worst, _absmax(lifted, pe.points, mask))

        dbl = invert_xy(invert_xy(g.copy()).copy())
        worst = max(worst, _absmax(dbl, g, np.isfinite(dbl).all(axis=1)))
    ok = worst <= 1e-9
    _report(capsys, 3, ok, f"pedal/antipedal/inversion duality (max err {worst:.2e})")


def test_criterion_04_inversion_curvature(capsys):
    worst = 0.0
    for name in ("circle", "ellipse", "offset_circle"):
        c = builtin_curve(name)
        ts = sample_grid(c, 1024)
        fd = _fd_curvature_of_inverted(position_xy(c, ts), ts[1] - ts[0], c.closed)
        closed = tr.inversion_curvature_grid(c, ts)
        scale = np.abs(closed).max()
        m = np.isfinite(fd)
        rel = np.abs(fd[m] - closed[m]) / np.maximum(np.abs(closed[m]), 1e-3 * scale)
        worst = max(worst, float(rel.max()))
    radius2 = parse_curve(
        "x = 2*cos(t)\ny = 2*sin(t)\nt_min = 0\nt_max = 2*pi\nsamples = 64")
    exact = float(tr.inversion_curvature_grid(radius2, [0.0])[0])
    ok = worst <= 1e-5 and exact == 2.0
    _report(capsys, 4, ok,
            f"inversion curvature: closed form vs finite differences "
            f"(max rel {worst:.2e}; radius-2 value {exact})")


def test_criterion_05_ellipse_cusp_census(capsys):
    ell = builtin_curve("ellipse")
    reports = sg.primitive_singularities(ell, sample_grid(ell, 4096))
    ok = len(reports) == 4
    worst_tan = worst_resid = worst_gap = 0.0
    for rep in reports:
        ok = ok and rep.classification == "ordinary-cusp"
        worst_tan = max(worst_tan, abs(math.tan(rep.t) ** 2 - 0.2))
        worst_resid = max(worst_resid, rep.residual)
        gap = sg.classify_cusp(ell, rep.t).circle_witness
        worst_gap = max(worst_gap, gap)
    ok = ok and worst_tan <= 1e-9 and worst_resid <= 1e-10 and worst_gap <= 1e-8
    _report(capsys, 5, ok,
            f"ellipse primitive has 4 ordinary cusps at tan^2 t = 1/5 "
            f"(|tan^2 t - 1/5| {worst_tan:.2e}, residual {worst_resid:.2e}, "
            f"circle gap {worst_gap:.2e})")


def test_criterion_06_inverse_pair(capsys):
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 4096)
    g = position_xy(ell, ts)
    pr = tr.primitive(ell, ts)
    back1 = tr.mapped_pedal(pr)
    e1 = _absmax(back1.points, g, stable_mask(pr) & back1.ok)
    pe = tr.pedal(ell, ts)
    back2 = tr.mapped_primitive(pe)
    e2 = _absmax(back2.points, g, stable_mask(pe) & back2.ok)
    ok = e1 <= 1e-6 and e2 <= 1e-6
    _report(capsys, 6, ok,
            f"pedal and primitive invert each other "
            f"(pedal.primitive {e1:.2e}, primitive.pedal {e2:.2e})")


def test_criterion_07_pedal_of_slant(capsys):
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 4096)
    phi = math.pi / 10
    sl = tr.slant_primitivoid(ell, phi, ts)
    pe_sl = tr.mapped_pedal(sl)
    target = math.cos(phi) * rotate_xy(position_xy(ell, ts), phi)
    err = _absmax(pe_sl.points, target, stable_mask(sl) & pe_sl.ok)
    ok = err <= 1e-6
    _report(capsys, 7, ok,
            f"pedal of slant primitivoid is the rotated scaled curve "
            f"(max err {err:.2e})")


def test_criterion_08_frontal_suite(capsys):
    front = builtin_curve("front")
    lc = fl.lift_front(front, sample_grid(front, 4096))
    resid = fl.legendrian_residual(lc)
    gamma0 = tuple(position_xy(front, np.array([0.0]))[0])
    pr0 = tuple(fl.frontal_primitive(lc).points[0])

    sf = fl.lift_front(builtin_curve("circle", samples=4096))
    comp = fl.composition_check(sf, math.pi / 10, math.pi / 5)
    psi = phi = math.pi / 4
    outer = fl.frontal_slant_primitivoid(fl.frontal_slant_primitivoid(sf, phi), psi)
    rhs_f = fl.frontal_slant_primitivoid(sf, psi + phi)
    both = outer.ok & rhs_f.ok
    lhs_n = float(np.hypot(*(math.cos(psi + phi) * outer.points[both]).T).max())
    rhs_n = float(np.hypot(*(math.cos(psi) * math.cos(phi) * rhs_f.points[both]).T).max())

    ok = (resid <= 1e-8 and gamma0 == (0.5, 0.0) and pr0 == (0.5, 0.0)
          and comp <= 1e-6 and max(lhs_n, rhs_n) <= 1e-9)
    _report(capsys, 8, ok,
            f"front lift and slant composition "
            f"(residual {resid:.2e}, composition {comp:.2e}, "
            f"degenerate {max(lhs_n, rhs_n):.2e})")


def test_criterion_09_figure_gallery(capsys, tmp_path):
    for number in fig.FIGURE_NUMBERS:
        render_to_file(fig.figure_spec(number), str(tmp_path / f"fig{number:02d}.svg"))
    exist = fig.FIGURE_NUMBERS == tuple(range(1, 11)) and all(
        (tmp_path / f"fig{n:02d}.svg").exists() for n in range(1, 11))
    svg2 = render_svg(fig.figure_spec(2))
    deterministic = svg2 == (tmp_path / "fig02.svg").read_text()

    # corner census of the primitive figure
    poly = re.findall(r'<polyline points="([^"]+)"/>', svg2)
    pts = np.array([[float(v) for v in p.split(",")] for p in poly[0].split()])
    pts[:, 1] = -pts[:, 1]
    v = np.diff(pts, axis=0)
    flips = np.flatnonzero((v[:-1] * v[1:]).sum(axis=1) < 0.0)
    corner_xy = pts[flips + 1]
    t0 = math.atan(1 / math.sqrt(5))
    cusp_ts = np.array([t0, math.pi - t0, math.pi + t0, 2 * math.pi - t0])
    cusp_xy = tr.primitive(builtin_curve("ellipse"), cusp_ts).points
    matched = (len(flips) == 4 and
               np.hypot(*(corner_xy[:, None, :] - cusp_xy[None, :, :]).T)
               .min(axis=0).max() < 1e-3)

    sheaf = render_svg(fig.figure_spec(6))
    nested = sheaf.count("<g data-label") == 5

    ok = exist and deterministic and matched and nested
    _report(capsys, 9, ok,
            f"figure gallery: 10 deterministic SVGs, 4 primitive corners, "
            f"5 overlays in the sheaf figure")


def test_criterion_10_parser_round_trip(capsys):
    ts = np.linspace(0.15, 2.9, 64)
    h = 1e-5
    worst_rt = worst_fd = 0.0
    for text in expression_corpus(seed=1202, count=100):
        parsed = ex.parse_expr(text)
        again = ex.parse_expr(ex.to_text(parsed))
        a = ex.evaluate_array(parsed, ts)
        b = ex.evaluate_array(again, ts)
        assert np.isfinite(a).all()
        worst_rt = max(worst_rt, float(np.abs(a - b).max()))
        deriv = ex.differentiate(parsed)
        sym = ex.evaluate_array(deriv, ts)
        assert np.isfinite(sym).all()
        fd = (ex.evaluate_array(parsed, ts + h)
              - ex.evaluate_array(parsed, ts - h)) / (2 * h)
        scale = np.maximum(1.0, np.abs(sym))
        worst_fd = max(worst_fd, float((np.abs(sym - fd) / scale).max()))
    ok = worst_rt <= 1e-12 and worst_fd < 1e-7
    _report(capsys, 10, ok,
            f"100 expressions round-trip (err {worst_rt:.2e}) and "
            f"differentiate (fd err {worst_fd:.2e})")
