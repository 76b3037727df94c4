"""Prebuilt gallery figures.

Each figure is a PlotSpec built from the bundled curves; figure numbers
are stable so outputs can be regenerated and diffed.
"""

from __future__ import annotations

import math
import os

from . import transforms as tr
from .curve import builtin_curve
from .envelope import make_family
from .errors import RangeError
from .frontal import frontal_primitive, lift_front
from .render import (PALETTE, PlotSpec, overlay_from_curve, overlay_from_mapped,
                     render_to_file)

FIGURE_SAMPLES = 2048

_SLANTS = (math.pi / 10, math.pi / 4, math.pi / 3)


def _ellipse():
    return builtin_curve("ellipse", samples=FIGURE_SAMPLES)


def _front():
    return builtin_curve("front", samples=FIGURE_SAMPLES)


def _fig_source() -> PlotSpec:
    return PlotSpec([overlay_from_curve(_ellipse(), color=PALETTE[0])])


def _fig_primitive() -> PlotSpec:
    curve = _ellipse()
    pr = tr.primitive(curve)
    return PlotSpec([overlay_from_mapped(pr, color=PALETTE[1])])


def _fig_slant(phi: float) -> PlotSpec:
    curve = _ellipse()
    sl = tr.slant_primitivoid(curve, phi)
    label = f"slant primitivoid (phi = {phi:.6g}) of {curve.name}"
    return PlotSpec([overlay_from_mapped(sl, label=label, color=PALETTE[1])])


def _fig_primitivoid_sheaf() -> PlotSpec:
    curve = _ellipse()
    overlays = [overlay_from_curve(curve, color=PALETTE[0])]
    overlays.append(overlay_from_mapped(tr.primitive(curve), color=PALETTE[1]))
    for i, phi in enumerate(_SLANTS):
        sl = tr.slant_primitivoid(curve, phi)
        label = f"slant primitivoid (phi = {phi:.6g}) of {curve.name}"
        overlays.append(overlay_from_mapped(sl, label=label, color=PALETTE[2 + i]))
    return PlotSpec(overlays)


def _fig_front() -> PlotSpec:
    return PlotSpec([overlay_from_curve(_front(), color=PALETTE[0])])


def _fig_front_primitive() -> PlotSpec:
    pr = frontal_primitive(lift_front(_front()))
    return PlotSpec([overlay_from_mapped(pr, color=PALETTE[1])])


def _fig_front_both() -> PlotSpec:
    curve = _front()
    pr = frontal_primitive(lift_front(curve))
    return PlotSpec([overlay_from_curve(curve, color=PALETTE[0]),
                     overlay_from_mapped(pr, color=PALETTE[1])])


def _fig_envelope() -> PlotSpec:
    curve = _front()
    pr = frontal_primitive(lift_front(curve))
    fam = make_family("primitive", curve)
    return PlotSpec([overlay_from_mapped(pr, color=PALETTE[1])],
                    family=fam, family_count=64)


_BUILDERS = {
    1: _fig_source,
    2: _fig_primitive,
    3: lambda: _fig_slant(_SLANTS[0]),
    4: lambda: _fig_slant(_SLANTS[1]),
    5: lambda: _fig_slant(_SLANTS[2]),
    6: _fig_primitivoid_sheaf,
    7: _fig_front,
    8: _fig_front_primitive,
    9: _fig_front_both,
    10: _fig_envelope,
}

FIGURE_NUMBERS = tuple(sorted(_BUILDERS))


def figure_spec(number: int) -> PlotSpec:
    try:
        builder = _BUILDERS[number]
    except KeyError:
        raise RangeError(f"no figure {number}; choices: 1..{max(_BUILDERS)}") from None
    return builder()


def render_all_figures(outdir: str) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for number in FIGURE_NUMBERS:
        path = os.path.join(outdir, f"fig{number:02d}.svg")
        render_to_file(figure_spec(number), path)
        paths.append(path)
    return paths
