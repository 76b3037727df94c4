"""Pedals, primitives and primitivoids of plane curves.

Core objects:

- CurveDef: symbolic plane curve; its derivative jets come from one
  Taylor-mode walk of x(t) and y(t) (`expr.jets`).
- transforms: one kernel per formula (pedal, contrapedal, pedaloid,
  antipedal, primitive, parallel and slant primitivoids, inversion) over
  a frame of points and unit normals, with Frenet and sampled-polyline
  frame providers.
- envelope: independent envelope construction for line families.
- singularity: criteria, classification and witnesses for the cusps of
  primitives; inflections and vertices.
- frontal: Legendrian lifts of fronts, the third frame provider, and
  the transforms on lifted frames.
- verify: named identity suites with residual reports.

Points are float64 arrays: (n, 2) on a grid, and length 2 in what the
scalar functions return (`CurveJet`, `FrenetData`, osculating centres).
"""

from .curve import (BUILTIN_NAMES, CurveDef, CurveJet, FrenetData, FrenetGrid,
                    builtin_curve, format_curve, frenet, frenet_grid, jet,
                    jet_grid, load_curve, parse_curve, position_xy,
                    sample_grid, velocity_xy)
from .envelope import FAMILY_KINDS, LineFamily, envelope, make_family
from .errors import (EvalError, HypothesisViolated, InflectionPoint,
                     IrregularPoint, LiftFailure, OriginSingularity,
                     ParseError, PedalkitError, RangeError)
from .expr import Expr, differentiate, evaluate, jets, parse_expr, to_text
from .frontal import (LegendrianCurve, composition_check, frontal_antipedal,
                      frontal_parallel_primitivoid, frontal_pedal,
                      frontal_primitive, frontal_slant_primitivoid,
                      invert_frontal, legendrian_residual, lift_front)
from .render import (Overlay, PlotSpec, overlay_from_curve,
                     overlay_from_frontal, overlay_from_mapped, render_svg,
                     render_to_file, write_legendrian_csv, write_mapped_csv)
from .singularity import (CuspClassification, OsculatingCircle,
                          SingularityReport, classify_cusp, classify_cusps,
                          criterion, detect_cusps_numeric, find_roots,
                          inflections, osculating_circle,
                          primitive_singularities, vertices)
from .transforms import (TRANSFORM_KINDS, TRANSFORMS, MappedCurve,
                         TransformKind, antipedal, antipedal_kernel,
                         apply_transform, contrapedal, contrapedal_kernel,
                         frenet_frame, inversion_curvature_grid, invert_curve,
                         invert_kernel, mapped_pedal, mapped_primitive,
                         mapped_slant, parallel_kernel, parallel_primitivoid,
                         pedal, pedal_kernel, pedaloid, pedaloid_kernel,
                         perp_primitive_kernel, polyline_frames, primitive,
                         primitive_kernel, primitive_of_perp, slant_kernel,
                         slant_primitivoid, transform_curve, transform_frame)
from .verify import SUITES, IdentityResult, VerifyReport, run_suite, stable_mask

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
