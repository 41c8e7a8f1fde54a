"""Span tracing of h1geo from outside the package.

`Tracer.install()` replaces every public function of every `h1geo.*` module
with a timing wrapper, in each module namespace (and module-level dict) that
bound it, and wraps `partials`, `point` and `normal_data` on each patch class
that defines them, plus `HorizontalCurve.position`.  Nothing under `src/`
changes.

A span is recorded per call that enters a layer boundary: name, start, end
and parent.  A call nested directly inside a span of the same name (a patch
wrapper delegating to its base patch) is not recorded again, so it counts
once.  Point counts come from result shapes only, never from broadcasting
the arguments, to keep each wrapper cheap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "verify", "measures", "surfaces", "curvature", "hcurves",
          "geodesics", "hgroup", "bench")
PATCH_METHODS = ("partials", "point", "normal_data")
EVAL_NAMES = tuple(f"surfaces.{m}" for m in PATCH_METHODS)
REQUEST_NAMES = (*EVAL_NAMES, "surfaces.mesh")


# ---------------------------------------------------------------------------
# point counts, from result shapes


def _size(x) -> int:
    return x.size if isinstance(x, np.ndarray) else 1


def npoints(obj) -> int:
    """Points carried by a result: a Point, FrameVector, tuple, array or scalar."""
    if isinstance(obj, np.ndarray):
        if obj.ndim and obj.shape[-1] == 3:
            return obj.size // 3
        return obj.size
    if isinstance(obj, tuple):
        return npoints(obj[0]) if obj else 0
    if isinstance(obj, (float, int)):
        return 1
    for attr in ("x", "a"):        # Point, FrameVector
        val = getattr(obj, attr, None)
        if val is not None:
            return _size(val)
    return 0


def _count_partials(out, args, kwargs):
    return out[0].size // 3


def _count_point(out, args, kwargs):
    return max(_size(out.x), _size(out.y), _size(out.t))


def _count_normal_data(out, args, kwargs):
    return out.nh_norm.size


def _count_mesh(out, args, kwargs):
    return out.points.size // 3


def _count_trace(out, args, kwargs):
    eps_path = out[0]
    return (eps_path.shape[0] - 1) * (eps_path[0].size if eps_path.ndim > 1 else 1)


def _count_export(out, args, kwargs):
    return args[0].points.size // 3


def _count_generic(out, args, kwargs):
    return npoints(out)


COUNTERS = {
    "surfaces.partials": _count_partials,
    "surfaces.point": _count_point,
    "surfaces.normal_data": _count_normal_data,
    "surfaces.mesh": _count_mesh,
    "surfaces.export_obj": _count_export,
    "surfaces.export_csv": _count_export,
    "curvature.trace_characteristic": _count_trace,
    "curvature.mean_curvature_char": _count_generic,
    "hcurves.position": _count_point,
}


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.count: list[int] = []
        self.error: list[bool] = []
        self.dup: list[bool] = []   # same (eps, s) objects as the previous evaluation
        self.export_bytes: list[int] = []
        self.stack: list[int] = []
        self._last_eval_args = (None, None)

    def _nid(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    # -- recording -----------------------------------------------------------
    def _open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(0)
        self.error.append(False)
        self.dup.append(False)
        self.stack.append(i)
        return i

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _SpanCtx(self, self._nid(name))

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        counter = COUNTERS.get(name)
        if counter is None and name.startswith("geodesics."):
            counter = _count_generic   # every geodesics function counts its points
        is_eval = name in EVAL_NAMES
        is_export = name.startswith("surfaces.export_")
        tracer = self
        span_name = self.span_name
        stack = self.stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and span_name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            if is_eval and len(args) >= 3:
                last = tracer._last_eval_args
                tracer.dup[i] = args[1] is last[0] and args[2] is last[1]
                tracer._last_eval_args = (args[1], args[2])
            tracer.start[i] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.end[i] = clock()
                tracer.error[i] = True
                stack.pop()
                raise
            tracer.end[i] = clock()
            stack.pop()
            if counter is not None:
                tracer.count[i] = counter(out, args, kwargs)
            if is_export:
                tracer.export_bytes.append(os.path.getsize(args[1]))
            return out

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- installation ----------------------------------------------------------
    def install(self) -> int:
        """Wrap the public API of every imported h1geo module; returns the
        number of bindings replaced."""
        mods = {n: m for n, m in sys.modules.items()
                if n.startswith("h1geo.") and m is not None}
        wrapped = {}
        for modname, mod in mods.items():
            layer = modname.split(".", 1)[1]
            if layer not in LAYERS:
                continue
            for key, val in list(vars(mod).items()):
                if (inspect.isfunction(val) and val.__module__ == modname
                        and not key.startswith("_")):
                    wrapped[val] = self.wrap(f"{layer}.{key}", val)
        replaced = 0
        for mod in [*mods.values(), sys.modules["h1geo"]]:
            for key, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, key, wrapped[val])
                    replaced += 1
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            val[k] = wrapped[v]
                            replaced += 1
        surfaces = mods["h1geo.surfaces"]
        for mod in mods.values():
            for val in list(vars(mod).values()):
                if inspect.isclass(val) and issubclass(val, surfaces.ImmersedPatch):
                    for meth in PATCH_METHODS:
                        fn = val.__dict__.get(meth)
                        if fn is not None and not getattr(fn, "__wrapped_by_tracer__", False):
                            setattr(val, meth, self.wrap(f"surfaces.{meth}", fn))
                            replaced += 1
        curve_cls = mods["h1geo.hcurves"].HorizontalCurve
        curve_cls.position = self.wrap("hcurves.position", curve_cls.position)
        return replaced + 1

    # -- output ----------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """One JSON object per span: id, name, start, end, parent (and
        count/error when set)."""
        names = self.names
        with open(path, "w") as fh:
            for i, nid in enumerate(self.span_name):
                rec = {"id": i, "name": names[nid], "start": self.start[i],
                       "end": self.end[i], "parent": self.parent[i]}
                if self.count[i]:
                    rec["count"] = self.count[i]
                if self.error[i]:
                    rec["error"] = True
                if self.dup[i]:
                    rec["dup"] = True
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


class _SpanCtx:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.i = self.tracer._open(self.nid)
        self.tracer.start[self.i] = self.tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        t.end[self.i] = t.clock()
        t.error[self.i] = exc_type is not None
        t.stack.pop()
        return False


# ---------------------------------------------------------------------------
# aggregation of a JSONL span file into per-layer metrics


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    selfs = [s["end"] - s["start"] for s in spans]
    for s in spans:
        p = s["parent"]
        if p >= 0:
            selfs[p] -= s["end"] - s["start"]
    return selfs


def layer_metrics(spans: list[dict], export_bytes: int = 0) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    n = len(spans)
    layer = [s["name"].split(".", 1)[0] for s in spans]
    bit = {name: 1 << k for k, name in enumerate(LAYERS)}
    # ancestors' layers as a bit mask, and whether an evaluation span is an
    # ancestor; spans are stored in start order, so parents come first
    anc = [0] * n
    in_eval = [False] * n
    for i, s in enumerate(spans):
        p = s["parent"]
        if p >= 0:
            anc[i] = anc[p] | bit[layer[p]]
            in_eval[i] = in_eval[p] or spans[p]["name"] in EVAL_NAMES
    selfs = self_times(spans)

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def outer(i):
        return not anc[i] & bit[layer[i]]

    def total(pred, value):
        return sum(value(i) for i in range(n) if pred(i))

    def named(name):
        return lambda i: spans[i]["name"] == name

    def count(i):
        return spans[i].get("count", 0)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def in_layer(name):
        return lambda i: layer[i] == name

    def outer_in(name):
        return lambda i: layer[i] == name and outer(i)

    m = {}
    for name in ("cli", "verify"):
        m[f"{name}.self_s"] = (total(in_layer(name), lambda i: selfs[i]), "s")

    meas_bit = bit["measures"]
    m["measures.calls"] = (total(outer_in("measures"), lambda i: 1), "count")
    meas_s = total(outer_in("measures"), dur)
    samples = total(lambda i: spans[i]["name"] == "surfaces.partials" and anc[i] & meas_bit,
                    count)
    m["measures.s"] = (meas_s, "s")
    m["measures.samples"] = (samples, "count")
    m["measures.ns_per_sample"] = (ratio(meas_s, samples, 1e9), "ns")
    m["measures.samples_per_result"] = (ratio(samples, m["measures.calls"][0]), "count")

    partials_pts = total(named("surfaces.partials"), count)
    # points asked of the surfaces layer from outside it: by evaluations and
    # meshes, counting an evaluation of the very same arrays as the one just
    # before it (partials then normal_data at one point set) once
    requested = total(lambda i: spans[i]["name"] in REQUEST_NAMES and outer(i)
                      and not spans[i].get("dup"), count)
    m["surfaces.partials_calls"] = (total(named("surfaces.partials"), lambda i: 1), "count")
    m["surfaces.partials_points"] = (partials_pts, "count")
    m["surfaces.normal_data_points"] = (total(named("surfaces.normal_data"), count), "count")
    m["surfaces.evals_per_point"] = (ratio(partials_pts, requested), "ratio")
    m["surfaces.eval_s"] = (total(lambda i: spans[i]["name"] in EVAL_NAMES and not in_eval[i],
                                  dur), "s")
    m["surfaces.mesh_s"] = (total(named("surfaces.mesh"), dur), "s")
    m["surfaces.mesh_vertices"] = (total(named("surfaces.mesh"), count), "count")
    is_export = lambda i: spans[i]["name"].startswith("surfaces.export_")  # noqa: E731
    export_s = total(is_export, dur)
    m["surfaces.export_s"] = (export_s, "s")
    m["surfaces.export_bytes"] = (export_bytes, "B")
    m["surfaces.export_ns_per_vertex"] = (ratio(export_s, total(is_export, count), 1e9), "ns")

    trace = named("curvature.trace_characteristic")
    steps = total(trace, count)
    m["curvature.s"] = (total(outer_in("curvature"), dur), "s")
    m["curvature.rk4_steps"] = (steps, "count")
    m["curvature.us_per_rk4_step"] = (ratio(total(trace, dur), steps, 1e6), "us")
    m["curvature.h_points"] = (total(named("curvature.mean_curvature_char"), count), "count")

    position = named("hcurves.position")
    pos_pts = total(position, count)
    pos_s = total(position, dur)
    m["hcurves.build_s"] = (total(lambda i: outer_in("hcurves")(i) and not position(i), dur),
                            "s")
    m["hcurves.position_points"] = (pos_pts, "count")
    m["hcurves.position_s"] = (pos_s, "s")
    m["hcurves.ns_per_point"] = (ratio(pos_s, pos_pts, 1e9), "ns")

    m["geodesics.points"] = (total(outer_in("geodesics"), count), "count")
    m["geodesics.s"] = (total(outer_in("geodesics"), dur), "s")
    m["hgroup.s"] = (total(outer_in("hgroup"), dur), "s")
    for name in LAYERS[:-1]:
        m[f"{name}.errors"] = (total(lambda i: layer[i] == name and outer(i)
                                     and spans[i].get("error", False), lambda i: 1), "count")
    return m
