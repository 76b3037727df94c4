import math

import numpy as np
import pytest

from pedalkit import transforms as tr
from pedalkit.envelope import circle_family_check, envelope, make_family
from pedalkit.curve import builtin_curve, parse_curve, sample_grid
from pedalkit.errors import OriginSingularity, RangeError


def rel_err(a, b):
    scale = np.maximum(1.0, np.hypot(*b.T))
    return (np.hypot(*(a - b).T) / scale).max()


@pytest.mark.parametrize("kind,kwargs,direct", [
    ("primitive", {}, lambda c, ts: tr.primitive(c, ts)),
    ("parallel", {"r": 2.5}, lambda c, ts: tr.parallel_primitivoid(c, 2.5, ts)),
    ("slant", {"phi": math.pi / 5},
     lambda c, ts: tr.slant_primitivoid(c, math.pi / 5, ts)),
    ("antipedal", {}, lambda c, ts: tr.antipedal(c, ts)),
])
def test_envelope_matches_closed_form(kind, kwargs, direct):
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 512)
    env = envelope(make_family(kind, ell, **kwargs), ts)
    ref = direct(ell, ts)
    mask = env.ok & ref.ok
    assert mask.mean() > 0.95
    assert rel_err(env.points[mask], ref.points[mask]) < 1e-9


def test_envelope_flags_degenerate_members():
    # tangent line passes through the origin where x y' - y x' = 1 - t^2
    # vanishes, so the 2x2 system degenerates at both endpoints
    c = parse_curve(
        "x = 1 + t^2\ny = t\nt_min = -1\nt_max = 1\nclosed = false\nsamples = 33")
    env = envelope(make_family("primitive", c))
    assert not env.ok[0]
    assert not env.ok[-1]
    assert env.ok[1:-1].all()


def test_family_line_contains_transform_point():
    ell = builtin_curve("ellipse")
    ts = np.array([0.7, 2.0, 4.5])
    for fam, mc in ((make_family("primitive", ell), tr.primitive(ell, ts)),
                    (make_family("slant", ell, phi=0.4),
                     tr.slant_primitivoid(ell, 0.4, ts))):
        residual = (fam.a(ts) * mc.points).sum(axis=1) - fam.c(ts)
        assert np.abs(residual).max() < 1e-12


def test_make_family_rejects_bad_input():
    ell = builtin_curve("ellipse")
    with pytest.raises(RangeError):
        make_family("evolute", ell)
    with pytest.raises(RangeError):
        make_family("parallel", ell, r=0.0)
    with pytest.raises(RangeError):
        make_family("slant", ell)
    through_origin = parse_curve(
        "x = 1 + cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*pi\nsamples = 64")
    with pytest.raises(OriginSingularity):
        make_family("primitive", through_origin)


def test_circle_family_check_small_on_builtins():
    # the inverted ring points pass close to the origin, so the line
    # residual carries a 1/|x|^2 amplification; 1e-9 is the honest bound
    for name in ("circle", "ellipse", "offset_circle"):
        assert circle_family_check(builtin_curve(name)) < 1e-9
