"""Known answers from the classical curve literature.

Each image of a transform is checked against an implicit equation
F = 0 of the textbook curve it lies on (Lockwood, *A Book of Curves*,
Cambridge 1961), which no code path of pedalkit shares.  The curves are
built from curve-file text, so the parser is on the path too.  For a
conic the residual is the first-order distance to the curve, |F| / |grad
F|, relative to max(1, |P|), over the ok samples.  Every tolerance is
fixed across the sample counts and at least 100 times the residual
measured at both counts; each image scaled by (1 + 1e-11) fails.
"""

import math

import numpy as np
import pytest

from pedalkit import transforms as tr
from pedalkit.curve import parse_curve, position_xy, sample_grid
from pedalkit.frontal import frontal_pedal, lift_front
from pedalkit.verify import stable_mask

SAMPLES = (1024, 65536)

# measured residuals: at most 7.7e-16 on the conics, 2.3e-14 on the
# limacon, 1.4e-15 on the auxiliary circle, 2.1e-17 on the quadrifolium
CONIC_TOL = 1e-13
LIMACON_TOL = 5e-12
CIRCLE_TOL = 2e-13
QUADRIFOLIUM_TOL = 5e-15
# polyline frames: 6.0e-14 at 1024 samples and 1.6e-15 at 65536 for the
# primitive of the pedal, on its circle
POLYLINE_CIRCLE_TOL = 1e-11

OFFSET_CIRCLE = 'name = "offset circle"\nx = 2 + cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*pi\n'
LINE = 'name = "line"\nx = 1\ny = t\nt_min = -2\nt_max = 2\nclosed = false\n'
FOCAL_ELLIPSE = ('name = "focal ellipse"\nx = -1 + 2*cos(t)\ny = sqrt(3)*sin(t)\n'
                 't_min = 0\nt_max = 2*pi\n')
ASTROID = 'name = "astroid"\nx = cos(t)^3\ny = sin(t)^3\nt_min = 0\nt_max = 2*pi\n'


def _curve(text, samples):
    return parse_curve(text + f"samples = {samples}\n")


def _hyperbola(p):
    """(x - 2)^2 - y^2/3 - 1 and its gradient."""
    x, y = p.T
    return (x - 2.0) ** 2 - y * y / 3.0 - 1.0, np.column_stack([2.0 * (x - 2.0), -2.0 * y / 3.0])


def _parabola(p):
    """y^2 + 4 (x - 1) and its gradient."""
    x, y = p.T
    return y * y + 4.0 * (x - 1.0), np.column_stack([np.full_like(x, 4.0), 2.0 * y])


def _polar_hyperbola(p):
    """3x^2 - 4x + 1 - y^2 and its gradient."""
    x, y = p.T
    return 3.0 * x * x - 4.0 * x + 1.0 - y * y, np.column_stack([6.0 * x - 4.0, -2.0 * y])


def _limacon(p):
    """|G| for G = (x^2 + y^2 - 2x)^2 - (x^2 + y^2)."""
    x, y = p.T
    r2 = x * x + y * y
    return float(np.abs((r2 - 2.0 * x) ** 2 - r2).max())


def _conic_residual(points, ok, conic):
    p = points[ok]
    f, grad = conic(p)
    return float((np.abs(f) / np.hypot(*grad.T) / np.maximum(1.0, np.hypot(*p.T))).max())


@pytest.mark.parametrize("samples", SAMPLES)
def test_primitive_of_an_offset_circle_is_a_hyperbola(samples):
    """The pedal of a conic about a focus is its auxiliary circle, so the
    primitive of the circle of centre (2, 0) and radius 1 is the conic of
    focus 0, centre (2, 0) and semi-axis 1: a hyperbola, b^2 = 2^2 - 1."""
    pr = tr.primitive(_curve(OFFSET_CIRCLE, samples))
    assert pr.ok.sum() > 0.99 * samples
    assert _conic_residual(pr.points, pr.ok, _hyperbola) <= CONIC_TOL


@pytest.mark.parametrize("samples", SAMPLES)
def test_a_scaled_primitive_is_off_the_hyperbola(samples):
    # the mutation the primitive's tolerance must catch
    pr = tr.primitive(_curve(OFFSET_CIRCLE, samples))
    assert _conic_residual(pr.points * (1.0 + 1e-11), pr.ok, _hyperbola) > 10 * CONIC_TOL


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("phi", (math.pi / 10, math.pi / 4, 2.0))
def test_slant_primitivoid_is_the_hyperbola_rotated_and_scaled(samples, phi):
    """The slant primitivoid is S = cos(phi) R(phi) Pr, so Q = R(-phi) S /
    cos(phi) is the primitive, on the hyperbola above."""
    sl = tr.slant_primitivoid(_curve(OFFSET_CIRCLE, samples), phi)
    c, s = math.cos(phi), math.sin(phi)
    x, y = sl.points.T
    q = np.column_stack([c * x + s * y, c * y - s * x]) / c
    assert _conic_residual(q, sl.ok, _hyperbola) <= CONIC_TOL


@pytest.mark.parametrize("samples", SAMPLES)
def test_primitive_of_a_line_is_a_parabola(samples):
    """On g = (1, t) the normal is (1, 0) and <g, nu> = 1, so the primitive
    2 g - |g|^2 nu / <g, nu> is (1 - t^2, 2 t): y^2 = 4 t^2 = -4 (x - 1)."""
    pr = tr.primitive(_curve(LINE, samples))
    assert pr.ok.all()
    assert _conic_residual(pr.points, pr.ok, _parabola) <= CONIC_TOL
    assert _conic_residual(pr.points * (1.0 + 1e-11), pr.ok, _parabola) > 10 * CONIC_TOL


@pytest.mark.parametrize("samples", SAMPLES)
def test_pedal_of_an_offset_circle_is_a_limacon(samples):
    """The pedal <g, n> n of the circle at the normal n = (cos th, sin th)
    lies at r = <(2, 0), n> + 1 = 1 + 2 cos th, so r^2 - 2x = r and
    G = (x^2 + y^2 - 2x)^2 - (x^2 + y^2) = 0.  It passes through the
    origin, where grad G = 0, so the residual is |G| itself."""
    pe = tr.pedal(_curve(OFFSET_CIRCLE, samples))
    assert pe.ok.all()
    assert _limacon(pe.points) <= LIMACON_TOL
    assert _limacon(pe.points * (1.0 + 1e-11)) > 10 * LIMACON_TOL


@pytest.mark.parametrize("samples", SAMPLES)
def test_antipedal_of_an_offset_circle_is_its_polar_hyperbola(samples):
    """The antipedal nu / <g, nu> is the polar reciprocal: X's polar line
    <X, Y> = 1 touches |Y - (2, 0)| = 1, so (2x - 1)^2 = x^2 + y^2."""
    ap = tr.antipedal(_curve(OFFSET_CIRCLE, samples))
    assert ap.ok.sum() > 0.99 * samples
    assert _conic_residual(ap.points, ap.ok, _polar_hyperbola) <= CONIC_TOL
    assert _conic_residual(ap.points * (1.0 + 1e-11), ap.ok, _polar_hyperbola) > 10 * CONIC_TOL


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("r", (2.0, -1.0, 0.5))
def test_parallel_primitivoid_is_the_hyperbola_scaled(samples, r):
    """The parallel primitivoid is r times the primitive, so P / r lies on
    the hyperbola above: ((x/r) - 2)^2 - (y/r)^2/3 = 1."""
    def scaled(p):
        f, grad = _hyperbola(p / r)
        return f, grad / r

    pa = tr.parallel_primitivoid(_curve(OFFSET_CIRCLE, samples), r)
    assert pa.ok.sum() > 0.99 * samples
    assert _conic_residual(pa.points, pa.ok, scaled) <= CONIC_TOL
    assert _conic_residual(pa.points * (1.0 + 1e-11), pa.ok, scaled) > 10 * CONIC_TOL


@pytest.mark.parametrize("samples", SAMPLES)
def test_pedal_of_an_ellipse_about_a_focus_is_its_auxiliary_circle(samples):
    """The ellipse of centre (-1, 0), a = 2 and b = sqrt(3) has c = 1, a
    focus at the origin; its pedal there is the circle |P - (-1, 0)| = a."""
    def residual(p):
        return float(np.abs(np.hypot(p[:, 0] + 1.0, p[:, 1]) - 2.0).max())

    pe = tr.pedal(_curve(FOCAL_ELLIPSE, samples))
    assert pe.ok.all()
    assert residual(pe.points) <= CIRCLE_TOL
    assert residual(pe.points * (1.0 + 1e-11)) > 10 * CIRCLE_TOL


@pytest.mark.parametrize("samples", SAMPLES)
def test_pedal_of_the_astroid_is_a_quadrifolium(samples):
    """The astroid's tangent x sin t + y cos t = sin t cos t gives the pedal
    r = sin t cos t at theta = pi/2 - t: r^3 = xy, so (x^2 + y^2)^3 = x^2 y^2."""
    # through the origin grad G = 0, so the residual is |G|; the four cusp
    # samples have no Frenet normal, but a lifted one on the frontal path
    def residual(p):
        x, y = p.T
        return float(np.abs((x * x + y * y) ** 3 - x * x * y * y).max())

    curve = _curve(ASTROID, samples)
    pe = tr.pedal(curve)
    assert np.array_equal(np.flatnonzero(~pe.ok), np.arange(4) * samples // 4)
    fp = frontal_pedal(lift_front(curve))
    assert fp.ok.all()
    for points in (pe.points[pe.ok], fp.points):
        assert residual(points) <= QUADRIFOLIUM_TOL
        assert residual(points * (1.0 + 1e-11)) > 10 * QUADRIFOLIUM_TOL


@pytest.mark.parametrize("samples", SAMPLES)
def test_polyline_pedal_of_an_offset_circle_is_a_limacon(samples):
    """The pedal on the polyline frame of the sampled offset circle, a
    MappedCurve of its positions alone, lies on the same limacon."""
    curve = _curve(OFFSET_CIRCLE, samples)
    grid = sample_grid(curve)
    sampled = tr.MappedCurve(curve.name, tr.TransformKind("source"), grid,
                             position_xy(curve, grid), np.zeros(samples, np.uint8), True)
    pe = tr.mapped_pedal(sampled)
    assert pe.ok.all()
    assert _limacon(pe.points) <= LIMACON_TOL
    assert _limacon(pe.points * (1.0 + 1e-11)) > 10 * LIMACON_TOL


@pytest.mark.parametrize("samples", SAMPLES)
def test_polyline_primitive_of_the_limacon_is_the_offset_circle(samples):
    """The primitive undoes the pedal, so the primitive on the polyline
    frame of the limacon lies on |P - (2, 0)| = 1, compared where the
    limacon's polyline resolves it (stable_mask).  The image scaled by
    (1 + 1e-11) reads 3.0e-11, three times the tolerance, so this guard
    asks only that it exceed the tolerance, not ten times it."""
    def residual(p):
        return float(np.abs(np.hypot(p[:, 0] - 2.0, p[:, 1]) - 1.0).max())

    pe = tr.pedal(_curve(OFFSET_CIRCLE, samples))
    pr = tr.mapped_primitive(pe)
    compared = stable_mask(pe) & pr.ok
    assert compared.sum() > 0.99 * samples
    assert residual(pr.points[compared]) <= POLYLINE_CIRCLE_TOL
    assert residual(pr.points[compared] * (1.0 + 1e-11)) > POLYLINE_CIRCLE_TOL
