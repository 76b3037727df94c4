"""Prebuilt gallery figures, and the builder `plot --curve` shares.

FIGURES maps each figure number to a built-in curve, its overlays and
its number of family lines; figure numbers are stable so outputs can be
regenerated and diffed.  plot_spec draws a figure and `plot --curve
--overlay` alike.
"""

from __future__ import annotations

import math

from . import transforms as tr
from .curve import CurveDef, builtin_curve
from .envelope import make_family
from .errors import RangeError
from .frontal import frontal_primitive, lift_front
from .render import PALETTE, PlotSpec, overlay_from_curve, overlay_from_mapped

FIGURE_SAMPLES = 2048

# an overlay: (palette index, kind, angle or ratio, label or None for
# the default); a kind is "source", a transform kind, or
# "frontal-primitive", the primitive on the curve's lifted frame
Overlays = tuple[tuple[int, str, float | None, str | None], ...]


def _slant(color: int, phi: float) -> tuple:
    return (color, "slant", phi, f"slant primitivoid (phi = {phi:.6g}) of ellipse")


_SOURCE, _PRIMITIVE, _LIFTED = ((0, "source", None, None), (1, "primitive", None, None),
                                 (1, "frontal-primitive", None, None))
_SLANTS = (math.pi / 10, math.pi / 4, math.pi / 3)

# figure -> (built-in curve, overlays, family lines)
FIGURES: dict[int, tuple[str, Overlays, int]] = {
    1: ("ellipse", (_SOURCE,), 0),
    2: ("ellipse", (_PRIMITIVE,), 0),
    3: ("ellipse", (_slant(1, _SLANTS[0]),), 0),
    4: ("ellipse", (_slant(1, _SLANTS[1]),), 0),
    5: ("ellipse", (_slant(1, _SLANTS[2]),), 0),
    6: ("ellipse", (_SOURCE, _PRIMITIVE)
        + tuple(_slant(2 + i, phi) for i, phi in enumerate(_SLANTS)), 0),
    7: ("front", (_SOURCE,), 0),
    8: ("front", (_LIFTED,), 0),
    9: ("front", (_SOURCE, _LIFTED), 0),
    10: ("front", (_LIFTED,), 64),
}

FIGURE_NUMBERS = tuple(sorted(FIGURES))


def plot_spec(curve: CurveDef, overlays: Overlays, family_lines: int = 0) -> PlotSpec:
    """The overlays of a curve, and family_lines lines of the family
    enveloping its primitive."""
    kinds = {kind for _, kind, _, _ in overlays}
    if kinds - {"source", "frontal-primitive"}:
        tr.frenet_frame(curve)  # kept on the curve: the source overlay reads its points
    lifted = lift_front(curve) if "frontal-primitive" in kinds else None
    out = []
    for index, kind, value, label in overlays:
        if kind == "source":
            out.append(overlay_from_curve(curve, label, PALETTE[index]))
            continue
        mc = (frontal_primitive(lifted) if kind == "frontal-primitive"
              else tr.transform_frame(tr.frenet_frame(curve), kind, value))
        out.append(overlay_from_mapped(mc, label, PALETTE[index]))
    family = make_family("primitive", curve) if family_lines else None
    return PlotSpec(out, family=family, family_count=family_lines)


def figure_spec(number: int) -> PlotSpec:
    try:
        name, overlays, family_lines = FIGURES[number]
    except KeyError:
        raise RangeError(f"no figure {number}; choices: 1..{max(FIGURES)}") from None
    return plot_spec(builtin_curve(name, samples=FIGURE_SAMPLES), overlays, family_lines)
