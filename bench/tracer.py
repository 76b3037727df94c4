"""Span tracer for the traced benchmark pass.

`Tracer.install` replaces selected public functions of pedalkit with
wrappers that record one span (function, layer, start, end, parent
span) per call.  Each function is replaced in every pedalkit module namespace
that binds it, so calls between layers go through the wrapper too.
Spans are held in flat integer arrays and written out once, at the end
of the pass.

A call made while the innermost open span belongs to the same layer is
not recorded: its time stays in the enclosing span of that layer, so
recursive functions (`differentiate`) and helpers that call each other
inside one layer count as one call.  A layer's self time is the time of
its spans minus the time their child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

import numpy as np

# (module, attribute, layer).  Attributes with a dot name a method of a
# class in that module.  `expr.evaluate` is split by argument type at
# call time (see _EVALUATE_LAYERS).
WRAPPED = (
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_transform", "cli.transform"),
    ("cli", "cmd_detect", "cli.detect"),
    ("cli", "cmd_plot", "cli.plot"),
    ("verify", "run_suite", "verify"),
    ("verify", "stable_mask", "verify"),
    ("vec", "invert_xy", "vec.invert_xy"),
    ("expr", "parse_expr", "expr.parse"),
    ("expr", "differentiate", "expr.differentiate"),
    ("expr", "evaluate_array", "expr.evaluate_array"),
    ("expr", "evaluate", None),
    ("curve", "CurveDef.__post_init__", "curve.construct"),
    ("curve", "frenet_grid", "curve.frenet_grid"),
    ("curve", "jet", "curve.scalar"),
    ("curve", "frenet", "curve.scalar"),
    ("transforms", "apply_transform", "transforms.kernel"),
    ("transforms", "pedal", "transforms.kernel"),
    ("transforms", "contrapedal", "transforms.kernel"),
    ("transforms", "pedaloid", "transforms.kernel"),
    ("transforms", "antipedal", "transforms.kernel"),
    ("transforms", "primitive", "transforms.kernel"),
    ("transforms", "parallel_primitivoid", "transforms.kernel"),
    ("transforms", "slant_primitivoid", "transforms.kernel"),
    ("transforms", "primitive_of_perp", "transforms.kernel"),
    ("transforms", "mapped_pedal", "transforms.mapped"),
    ("transforms", "mapped_primitive", "transforms.mapped"),
    ("transforms", "mapped_slant", "transforms.mapped"),
    ("transforms", "polyline_frames", "transforms.mapped"),
    ("transforms", "invert_curve", "transforms.surgery"),
    ("transforms", "transform_curve", "transforms.surgery"),
    ("envelope", "envelope", "envelope.solve"),
    ("envelope", "circle_family_check", "envelope.circle_check"),
    ("singularity", "find_roots", "singularity.find_roots"),
    ("singularity", "criterion", "singularity.scalar"),
    ("singularity", "osculating_circle", "singularity.scalar"),
    ("singularity", "classify_cusp", "singularity.classify"),
    ("singularity", "detect_cusps_numeric", "singularity.detect_numeric"),
    ("frontal", "lift_front", "frontal.lift"),
    ("frontal", "frontal_pedal", "frontal.transforms"),
    ("frontal", "frontal_antipedal", "frontal.transforms"),
    ("frontal", "frontal_primitive", "frontal.transforms"),
    ("frontal", "frontal_parallel_primitivoid", "frontal.transforms"),
    ("frontal", "frontal_slant_primitivoid", "frontal.transforms"),
    ("frontal", "invert_frontal", "frontal.transforms"),
    ("frontal", "composition_check", "frontal.transforms"),
    ("render", "write_mapped_csv", "render.csv"),
    ("render", "write_legendrian_csv", "render.csv"),
    ("render", "render_svg", "render.svg"),
    ("render", "render_to_file", "render.svg"),
    ("render", "overlay_from_mapped", "render.overlay"),
    ("render", "overlay_from_frontal", "render.overlay"),
    ("render", "overlay_from_curve", "render.overlay"),
    ("figures", "figure_spec", "figures.spec"),
)

_EVALUATE_LAYERS = ("expr.evaluate", "expr.evaluate_array")

LAYERS = tuple(dict.fromkeys(
    [layer for _, _, layer in WRAPPED if layer] + list(_EVALUATE_LAYERS)))

# Per-layer metrics the benchmark reports, with their unit.  The kind
# says how each is read from the spans: self time, inclusive time, call
# count, or one of the _COUNTERS.
METRICS = (
    ("cli.verify_ms", "ms", "incl", "cli.verify"),
    ("cli.transform_ms", "ms", "incl", "cli.transform"),
    ("cli.detect_ms", "ms", "incl", "cli.detect"),
    ("cli.plot_ms", "ms", "incl", "cli.plot"),
    ("verify.run_suite_ms", "ms", "incl", "verify"),
    ("verify.self_ms", "ms", "self", "verify"),
    ("verify.rows", "count", "counter", "verify.rows"),
    ("vec.invert_xy_ms", "ms", "self", "vec.invert_xy"),
    ("vec.invert_xy_calls", "count", "calls", "vec.invert_xy"),
    ("expr.evaluate_array_ms", "ms", "self", "expr.evaluate_array"),
    ("expr.evaluate_array_calls", "count", "calls", "expr.evaluate_array"),
    ("expr.evaluate_ms", "ms", "self", "expr.evaluate"),
    ("expr.evaluate_calls", "count", "calls", "expr.evaluate"),
    ("expr.differentiate_ms", "ms", "self", "expr.differentiate"),
    ("expr.differentiate_calls", "count", "calls", "expr.differentiate"),
    ("expr.parse_ms", "ms", "self", "expr.parse"),
    ("curve.construct_ms", "ms", "self", "curve.construct"),
    ("curve.construct_calls", "count", "calls", "curve.construct"),
    ("curve.frenet_grid_ms", "ms", "self", "curve.frenet_grid"),
    ("curve.frenet_grid_calls", "count", "calls", "curve.frenet_grid"),
    ("curve.frenet_grid_samples", "count", "counter", "curve.frenet_grid_samples"),
    ("curve.scalar_ms", "ms", "self", "curve.scalar"),
    ("curve.scalar_calls", "count", "calls", "curve.scalar"),
    ("transforms.kernel_ms", "ms", "self", "transforms.kernel"),
    ("transforms.kernel_calls", "count", "calls", "transforms.kernel"),
    ("transforms.mapped_ms", "ms", "self", "transforms.mapped"),
    ("transforms.surgery_ms", "ms", "self", "transforms.surgery"),
    ("envelope.solve_ms", "ms", "self", "envelope.solve"),
    ("envelope.solve_calls", "count", "calls", "envelope.solve"),
    ("envelope.circle_check_ms", "ms", "self", "envelope.circle_check"),
    ("singularity.find_roots_ms", "ms", "self", "singularity.find_roots"),
    ("singularity.find_roots_calls", "count", "calls", "singularity.find_roots"),
    ("singularity.scalar_calls", "count", "calls", "singularity.scalar"),
    ("singularity.classify_ms", "ms", "self", "singularity.classify"),
    ("singularity.detect_numeric_ms", "ms", "self", "singularity.detect_numeric"),
    ("frontal.lift_ms", "ms", "self", "frontal.lift"),
    ("frontal.lift_calls", "count", "calls", "frontal.lift"),
    ("frontal.flips", "count", "counter", "frontal.flips"),
    ("frontal.transforms_ms", "ms", "self", "frontal.transforms"),
    ("render.csv_ms", "ms", "self", "render.csv"),
    ("render.csv_bytes", "bytes", "counter", "render.csv_bytes"),
    ("render.svg_ms", "ms", "self", "render.svg"),
    ("render.svg_bytes", "bytes", "counter", "render.svg_bytes"),
    ("render.overlay_ms", "ms", "self", "render.overlay"),
    ("figures.spec_ms", "ms", "self", "figures.spec"),
)


def _tell(args):
    try:
        return args[1].tell()
    except (OSError, ValueError):
        return None


def _bytes_written(args, result, before):
    after = _tell(args)
    return after - before if before is not None and after is not None else 0


# Counters that spans alone cannot give, kept around one function each:
# name -> (counter, pre(args) -> state, amount(args, result, state)).
_COUNTERS = {
    "frenet_grid": ("curve.frenet_grid_samples", None, lambda a, r, s: len(r.ts)),
    "lift_front": ("frontal.flips", None, lambda a, r, s: len(r.flips)),
    "run_suite": ("verify.rows", None, lambda a, r, s: len(r.results)),
    "render_svg": ("render.svg_bytes", None, lambda a, r, s: len(r.encode("utf-8"))),
    "write_mapped_csv": ("render.csv_bytes", _tell, _bytes_written),
    "write_legendrian_csv": ("render.csv_bytes", _tell, _bytes_written),
}


class Tracer:
    """Records spans around pedalkit's public functions in one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.name = array("i")  # index into WRAPPED
        self.layer = array("i")  # index into LAYERS
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counters = {counter: 0 for counter, _, _ in _COUNTERS.values()}
        self.recording = True
        self._open = []  # indices of the open spans, innermost last

    def _wrap(self, fn, layer_of, name, name_id):
        layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        counter, pre, amount = _COUNTERS.get(name, (None, None, None))
        spans_name, spans_layer, spans_start = self.name, self.layer, self.start
        spans_end, spans_parent, open_ = self.end, self.parent, self._open
        clock = time.perf_counter_ns
        counters = self.counters
        fixed = layer_ids[layer_of] if isinstance(layer_of, str) else None
        tracer = self

        def wrapper(*args, **kwargs):
            lid = fixed if fixed is not None else layer_ids[layer_of(args)]
            state = pre(args) if pre else None
            if not tracer.recording or (open_ and spans_layer[open_[-1]] == lid):
                result = fn(*args, **kwargs)
            else:
                idx = len(spans_layer)
                spans_name.append(name_id)
                spans_layer.append(lid)
                spans_parent.append(open_[-1] if open_ else -1)
                spans_end.append(0)
                open_.append(idx)
                spans_start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans_end[idx] = clock()
                    open_.pop()
            if counter and tracer.recording:
                counters[counter] += amount(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever pedalkit binds it."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "pedalkit" or n.startswith("pedalkit.")) and m is not None]
        for name_id, (mod_name, attr, layer) in enumerate(WRAPPED):
            mod = sys.modules[f"pedalkit.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), layer, meth, name_id))
                continue
            original = getattr(mod, attr)
            if layer is None:
                layer = _evaluate_layer
            wrapped = self._wrap(original, layer, attr, name_id)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def dump(self, path: str) -> None:
        """Write the spans of this pass as an .npz file: per span the
        function (index into `names`), layer (index into `layers`),
        start and end in ns, and parent span (-1 at top level)."""
        names = [f"{mod}.{attr}" for mod, attr, _ in WRAPPED]
        np.savez(path, pass_id=self.pass_id, names=json.dumps(names),
                 layers=json.dumps(LAYERS),
                 counters=json.dumps(self.counters), **self.arrays())

    def metrics(self) -> dict:
        return layer_metrics(self.arrays(), self.counters)


def _evaluate_layer(args) -> str:
    return _EVALUATE_LAYERS[isinstance(args[1], np.ndarray)]


def layer_metrics(spans: dict, counters: dict) -> dict:
    """Per-layer metrics ({name: {value, unit}}) from the spans of one pass."""
    layer, parent = spans["layer"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child
    n_layers = len(LAYERS)
    by_layer = {
        "self": np.bincount(layer, weights=self_time, minlength=n_layers) / 1e6,
        "incl": np.bincount(layer, weights=dur, minlength=n_layers) / 1e6,
        "calls": np.bincount(layer, minlength=n_layers),
    }
    out = {}
    for name, unit, kind, source in METRICS:
        if kind == "counter":
            value = counters[source]
        elif kind == "calls":
            value = int(by_layer["calls"][LAYERS.index(source)])
        else:
            value = float(by_layer[kind][LAYERS.index(source)])
        out[name] = {"value": value, "unit": unit}
    out["trace.spans"] = {"value": int(len(dur)), "unit": "count"}
    return out
