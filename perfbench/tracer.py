"""Span tracer for the traced benchmark run.

The tracer measures fracsys from outside: it replaces the public functions
of every fracsys module, a few methods on their classes, and
``scipy.linalg.solve`` with wrappers that record one span per call.  fracsys
modules import names with ``from .x import y``, so each wrapper is installed
in every fracsys namespace that binds the original object; patching only the
defining module would miss internal calls such as ``solvers.assemble_dirichlet``.

A span is ``(id, parent, name, start, end, op, extra)``.  Spans are kept in
memory and written out by the caller when the run ends.  Private helpers are
not wrapped, so their time counts as self time of the public caller
(``fields._diameter`` inside ``fields.ball_image_stats``, for example).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
from collections import defaultdict
from time import perf_counter

# every fracsys module whose public functions form a layer
LAYERS = ("kernels", "quadrature", "operators", "solvers", "fields",
          "enclosing", "probe", "verify", "reports", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(args, kwargs, result):
    spec, y = args[0], _arg(args, kwargs, 1, "y")
    shape = getattr(y, "shape", None)
    if shape is None:
        return 1
    return math.prod(shape) if spec.dim == 1 else math.prod(shape[:-1])


def _dense_mb(args, kwargs, result):
    n = result.A.shape[0]
    return 8.0 * n * n / 2**20


def _steps(args, kwargs, result):
    return result[1].iterations


def _seb_points(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "points"))


def _file_bytes(index, name):
    def count(args, kwargs, result):
        return os.path.getsize(_arg(args, kwargs, index, name))
    return count


def _command(args, kwargs, result):
    return _arg(args, kwargs, 0, "argv")[0]


# extra counts recorded on spans, keyed by span name
EXTRAS = {
    "cli.main": _command,
    "kernels.KernelSpec.__call__": _points,
    "operators.assemble_dirichlet": _dense_mb,
    "solvers.gradient_flow_s_harmonic": _steps,
    "solvers.ginzburg_landau_solve": _steps,
    "enclosing.smallest_enclosing_ball": _seb_points,
    # write_field_csv and the CSV companion of emit_report go through
    # write_csv, so only these three count bytes
    "reports.write_csv": _file_bytes(0, "path"),
    "reports.write_field_fsf1": _file_bytes(0, "path"),
    "reports.emit_report": _file_bytes(1, "path"),
}

# methods wrapped on their class: (module, class, method, layer)
METHODS = (
    ("kernels", "KernelSpec", "__call__", "kernels"),
    ("operators", "AssembledOperator", "apply_neg_lk", "solvers"),
    ("operators", "AssembledOperator", "energy_quadratic", "solvers"),
    ("cli", "ExperimentConfig", "load", "cli"),
)


class Tracer:
    """Records spans while ``op`` is set; calls outside an operation (the
    benchmark's own checks) run unwrapped in effect."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._next = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, probe_cache=None):
        """fn, recording a span named `name` per call made during an
        operation; probe_cache is the cache_info of an lru_cache'd fn."""
        tracer = self
        extra_fn = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            misses = probe_cache().misses if probe_cache else 0
            done = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                if probe_cache:
                    extra = probe_cache().misses - misses  # 1 on a miss, 0 on a hit
                else:
                    extra = extra_fn(args, kwargs, result) if extra_fn and done else None
                tracer.spans.append((sid, parent, name, t0, t1, tracer.op, extra))
            return result

        if probe_cache:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public fracsys function, the listed methods and
        scipy.linalg.solve; ``uninstall`` restores the originals."""
        import scipy.linalg

        import fracsys

        modules = {layer: importlib.import_module(f"fracsys.{layer}")
                   for layer in LAYERS}
        namespaces = [vars(fracsys)] + [vars(m) for m in modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                cached = hasattr(obj, "cache_info")
                if not (inspect.isfunction(obj) or cached):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj,
                                     probe_cache=obj.cache_info if cached else None)
                for ns in namespaces:
                    for key, val in list(ns.items()):
                        if val is obj:
                            self._set(ns, key, wrapper)
        for mod_name, cls_name, meth, layer in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            raw = vars(cls)[meth]
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(f"{layer}.{cls_name}.{meth}", raw.__func__))
            else:
                new = self.wrap(f"{layer}.{cls_name}.{meth}", raw)
            self._undo.append((lambda c=cls, m=meth, r=raw: setattr(c, m, r)))
            setattr(cls, meth, new)
        # dense solves made directly by solvers and probe.supersolution_family
        raw_solve = scipy.linalg.solve
        self._undo.append(lambda: setattr(scipy.linalg, "solve", raw_solve))
        scipy.linalg.solve = self.wrap("solvers.scipy.linalg.solve", raw_solve)

    def _set(self, ns, key, value):
        old = ns[key]
        self._undo.append(lambda: ns.__setitem__(key, old))
        ns[key] = value

    def uninstall(self):
        while self._undo:
            self._undo.pop()()


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Self time per span: duration minus the durations of its children
    (children nest strictly inside their parent in a single thread)."""
    child = {}
    for sid, parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return {sid: (t1 - t0) - child.get(sid, 0.0) for sid, _, _, t0, t1, _, _ in spans}


FIELD_APPLY = ("operators.apply_LK_field", "operators.apply_fractional_laplacian_field")
# pointwise evaluations; today each builds the whole field through a child
# span, so operators.point_s is their wall time, and operators.apply_s leaves
# out field applies made on their behalf
POINTWISE = ("operators.apply_LK", "operators.bilinear_form",
             "operators.apply_fractional_laplacian")

CLI_COMMANDS = ("solve-linear", "probe-harnack", "solve-harmonic", "solve-gl", "verify")

# per-layer metrics made of self times, by the span names they add up
SELF_TIME_METRICS = {
    "operators.bilinear_s": ("operators.bilinear_form_field",),
    "operators.energy_s": ("operators.s_energy",),
    "operators.spectral_s": ("operators.spectral_apply",),
    "operators.assemble_s": ("operators.assemble_dirichlet",),
    "solvers.linear_s": ("solvers.solve_linear_dirichlet",),
    "solvers.dense_solve_s": ("solvers.scipy.linalg.solve",),
    "solvers.flow_s": ("solvers.gradient_flow_s_harmonic",),
    "solvers.gl_s": ("solvers.ginzburg_landau_solve",),
    "solvers.matvec_s": ("solvers.AssembledOperator.apply_neg_lk",
                         "solvers.AssembledOperator.energy_quadratic"),
    "fields.ball_stats_s": ("fields.ball_image_stats",),
    "enclosing.seb_s": ("enclosing.smallest_enclosing_ball",),
    "probe.harnack_s": ("probe.harnack_sweep", "probe.harnack_probe",
                        "probe.supersolution_family"),
    "probe.ledger_s": ("probe.dyadic_ledger",),
    "probe.contraction_s": ("probe.contraction_step",),
    "probe.barrier_s": ("probe.barrier_bound",),
    "verify.square_identity_s": ("verify.square_identity_check",),
    "verify.limit_s": ("verify.s_limit_isotropic", "verify.s_limit_anisotropic"),
    "cli.config_s": ("cli.ExperimentConfig.load",),
}


def pass_metrics(spans, pass_time):
    """Per-layer metrics of one pass from its spans."""
    own = self_times(spans)
    name_of = {sid: name for sid, _, name, *_ in spans}
    parent_of = {sid: parent for sid, parent, *_ in spans}

    def under_pointwise(sid):
        p = parent_of[sid]
        while p >= 0:
            if name_of[p] in POINTWISE:
                return True
            p = parent_of[p]
        return False

    self_by = defaultdict(float)
    calls = defaultdict(int)
    extra_by = defaultdict(float)
    layer_self = defaultdict(float)
    m = defaultdict(float)
    for sid, parent, name, t0, t1, _, extra in spans:
        t = own[sid]
        self_by[name] += t
        calls[name] += 1
        layer_self[layer_of(name)] += t
        if isinstance(extra, (int, float)):
            extra_by[name] += extra
        if name == "kernels.KernelSpec.__call__":
            m["kernels.eval_s"] += t1 - t0   # includes normalization_constant
        elif name == "quadrature.scheme_for":
            m["quadrature.misses" if extra else "quadrature.hits"] += 1
            if extra:
                m["quadrature.build_s"] += t
        elif name in FIELD_APPLY:
            if not under_pointwise(sid):
                m["operators.apply_s"] += t
        elif name in POINTWISE:
            m["operators.point_s"] += t1 - t0
        elif name == "cli.main":
            m[f"cli.command_s.{extra}"] += t
        elif name in ("solvers.gradient_flow_s_harmonic", "solvers.ginzburg_landau_solve"):
            m["solvers.flow_wall_s"] += t1 - t0
        elif name == "enclosing.smallest_enclosing_ball" and \
                name_of.get(parent) == "fields.ball_image_stats":
            m["fields.ball_nodes"] += extra
    for metric, names in SELF_TIME_METRICS.items():
        m[metric] = sum(self_by[n] for n in names)
    m["kernels.eval_points"] = extra_by["kernels.KernelSpec.__call__"]
    m["operators.calls"] = sum(c for n, c in calls.items() if layer_of(n) == "operators")
    m["operators.dense_mb"] = extra_by["operators.assemble_dirichlet"]
    m["solvers.flow_steps"] = extra_by["solvers.gradient_flow_s_harmonic"]
    m["solvers.gl_steps"] = extra_by["solvers.ginzburg_landau_solve"]
    steps = m["solvers.flow_steps"] + m["solvers.gl_steps"]
    m["solvers.step_ms"] = 1e3 * m.pop("solvers.flow_wall_s", 0.0) / steps if steps else 0.0
    m["solvers.matvecs"] = (calls["solvers.AssembledOperator.apply_neg_lk"]
                            + calls["solvers.AssembledOperator.energy_quadratic"])
    m["enclosing.points"] = extra_by["enclosing.smallest_enclosing_ball"]
    m["reports.write_s"] = layer_self["reports"]
    m["reports.bytes"] = sum(v for n, v in extra_by.items() if layer_of(n) == "reports")
    for command in CLI_COMMANDS:
        m[f"cli.command_s.{command}"] += 0.0
    for layer in LAYERS:
        m[f"{layer}.share"] = layer_self[layer] / pass_time
    m["trace.coverage"] = sum(layer_self.values()) / pass_time
    m["trace.pass_s"] = pass_time
    m["trace.spans"] = len(spans)
    return dict(m), {"self_s": dict(layer_self),
                     "calls": {layer: sum(c for n, c in calls.items() if layer_of(n) == layer)
                               for layer in LAYERS}}


def median_metrics(per_pass):
    keys = set().union(*per_pass)
    return {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in keys}
