"""Span tracing of the ensddm layers from outside the package.

`Tracer.install()` replaces the public functions and methods listed in
`HOOKS` with timing wrappers and `uninstall()` puts the originals back.  A
module-level function is replaced on every ensddm module that binds it,
because callers look up names they imported with ``from .x import f`` in
their own module.  A hooked name that no longer exists is recorded in
`Tracer.absent` and skipped, so the traced run survives a later refactor.

Each span records its name, start, end, parent span and an optional number
(solve columns, or the LU object whose fill is counted).  Spans stay in
memory until `write_spans` stores them with the workload and run id.

Opaque spans (the output checks) suppress every span below them, so check
work is never counted against a layer.
"""

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

# (target, span name, kind); kind is "span", "count" (call count only, no
# span: used for a tiny function called ~1e5 times), "opaque" or "lu".
HOOKS = (
    ("ensddm.mesh:build_rect_mesh", "mesh.build", "span"),
    ("ensddm.mesh:pair_interface", "mesh.build", "span"),
    ("ensddm.random_field:evaluate_k", "random_field.evaluate_k", "span"),
    ("ensddm.fields:MeanInverseField.inv_diag", "fields.mean_inverse", "span"),
    ("ensddm.fields:MeanInverseField.inv_tensor", "fields.mean_inverse", "span"),
    ("ensddm.ensemble_driver:make_sample", "ensemble_driver.make_sample", "span"),
    ("ensddm.ensemble_driver:make_context", "ensemble_driver.make_context", "span"),
    ("ensddm.ensemble_driver:run_ensemble_ddm", "ensemble_driver.run", "span"),
    ("ensddm.ensemble_driver:run_traditional_ddm", "ensemble_driver.run", "span"),
    ("ensddm.stokes_fem:build_stokes_space", "stokes_fem.space", "span"),
    ("ensddm.stokes_fem:assemble_stokes_operator", "stokes_fem.assemble", "span"),
    ("ensddm.stokes_fem:assemble_stokes_volume_rhs", "stokes_fem.volume_rhs", "span"),
    ("ensddm.stokes_fem:add_interface_rhs", "stokes_fem.interface_rhs", "span"),
    ("ensddm.stokes_fem:edge_mass", "stokes_fem.edge_mass", "count"),
    ("ensddm.darcy_fem:build_darcy_space", "darcy_fem.space", "span"),
    ("ensddm.darcy_fem:assemble_darcy_operator", "darcy_fem.assemble", "span"),
    ("ensddm.darcy_fem:assemble_darcy_volume_rhs", "darcy_fem.volume_rhs", "span"),
    ("ensddm.darcy_fem:add_darcy_natural_head_rhs", "darcy_fem.volume_rhs", "span"),
    ("ensddm.darcy_fem:add_darcy_interface_rhs", "darcy_fem.interface_rhs", "span"),
    ("ensddm.darcy_fem:add_darcy_lag_rhs", "darcy_fem.lag_rhs", "span"),
    ("ensddm.darcy_fem:DarcyInterfaceInfo.normal_trace", "darcy_fem.trace", "span"),
    ("ensddm.darcy_fem:DarcyInterfaceInfo.tangential_trace", "darcy_fem.trace", "span"),
    ("ensddm.sparsela:splu", "sparsela.factorize", "lu"),
    ("ensddm.interface_state:update_robin", "interface_state.update", "span"),
    ("ensddm.interface_state:stopping_norm", "interface_state.norm", "span"),
    ("ensddm.manufactured:ManufacturedSolution.f_S", "manufactured.eval", "span"),
    ("ensddm.manufactured:ManufacturedSolution.f_D", "manufactured.eval", "span"),
    ("ensddm.manufactured:ManufacturedSolution.u_S", "manufactured.eval", "span"),
    ("ensddm.manufactured:ManufacturedSolution.phi_D", "manufactured.eval", "span"),
    ("ensddm.norms:error_norms", "norms.error_norms", "opaque"),
    ("ensddm.ensemble_driver:check_converged_residual", "check.residual", "opaque"),
)

# Per-layer metrics computed from spans: (metric, how, span name, child
# spans whose time is subtracted).  "time" sums the outermost spans of the
# name, "self" sums every span minus all its children, "calls" counts the
# outermost spans and "sum" adds their values (solve columns, LU fill).
SPAN_METRICS = (
    ("mesh.build_s", "time", "mesh.build", ()),
    ("random_field.evaluate_k_calls", "calls", "random_field.evaluate_k", ()),
    ("random_field.evaluate_k_s", "time", "random_field.evaluate_k", ()),
    ("fields.mean_inverse_calls", "calls", "fields.mean_inverse", ()),
    ("fields.mean_inverse_s", "time", "fields.mean_inverse", ()),
    ("ensemble_driver.make_sample_s", "time", "ensemble_driver.make_sample", ()),
    ("ensemble_driver.make_context_s", "time", "ensemble_driver.make_context", ()),
    ("ensemble_driver.run_self_s", "self", "ensemble_driver.run", ()),
    ("stokes_fem.space_s", "time", "stokes_fem.space", ()),
    ("stokes_fem.assemble_s", "time", "stokes_fem.assemble", ("sparsela.factorize",)),
    ("stokes_fem.volume_rhs_s", "time", "stokes_fem.volume_rhs", ()),
    ("stokes_fem.interface_rhs_calls", "calls", "stokes_fem.interface_rhs", ()),
    ("stokes_fem.interface_rhs_s", "time", "stokes_fem.interface_rhs", ()),
    ("darcy_fem.space_s", "time", "darcy_fem.space", ()),
    ("darcy_fem.assemble_s", "time", "darcy_fem.assemble", ("sparsela.factorize",)),
    ("darcy_fem.volume_rhs_s", "time", "darcy_fem.volume_rhs", ()),
    ("darcy_fem.interface_rhs_s", "time", "darcy_fem.interface_rhs", ()),
    ("darcy_fem.lag_rhs_calls", "calls", "darcy_fem.lag_rhs", ()),
    ("darcy_fem.lag_rhs_s", "time", "darcy_fem.lag_rhs", ()),
    ("darcy_fem.trace_s", "time", "darcy_fem.trace", ()),
    ("sparsela.factorize_calls", "calls", "sparsela.factorize", ()),
    ("sparsela.factorize_s", "time", "sparsela.factorize", ()),
    ("sparsela.lu_nnz", "sum", "sparsela.factorize", ()),
    ("sparsela.solve_calls", "calls", "sparsela.solve", ()),
    ("sparsela.solve_columns", "sum", "sparsela.solve", ()),
    ("sparsela.solve_s", "time", "sparsela.solve", ()),
    ("interface_state.update_calls", "calls", "interface_state.update", ()),
    ("interface_state.update_s", "time", "interface_state.update", ()),
    ("interface_state.norm_calls", "calls", "interface_state.norm", ()),
    ("interface_state.norm_s", "time", "interface_state.norm", ()),
    ("manufactured.eval_calls", "calls", "manufactured.eval", ()),
    ("manufactured.eval_s", "time", "manufactured.eval", ()),
    ("norms.error_norms_s", "time", "norms.error_norms", ()),
)

# Call counts kept without spans: (metric, counter name).
COUNT_METRICS = (("stokes_fem.edge_mass_calls", "stokes_fem.edge_mass"),)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 at the top
    value: object = None  # solve columns, or the SuperLU object of a factorization


class _TracedLU:
    """SuperLU stand-in whose solve() is recorded as a span; the class of
    the scipy object cannot be patched, so the factorization hands this out."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        cols = 1 if np.ndim(rhs) == 1 else int(np.shape(rhs)[1])
        return self._tracer.call("sparsela.solve", self._lu.solve, (rhs,) + args, kwargs, cols)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _resolve(target):
    """(owner object, attribute, original value) or None when absent."""
    modname, _, path = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None or not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """In-memory span recorder plus the hook installer."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.absent = []
        self._stack = []
        self._opaque = 0
        self._patched = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, args, kwargs, value=None, opaque=False):
        """fn(*args, **kwargs), recorded as a span unless an opaque span is open."""
        if self._opaque:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, value)
        self.spans.append(span)
        self._stack.append(idx)
        if opaque:
            self._opaque += 1
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            if opaque:
                self._opaque -= 1
            self._stack.pop()

    def _wrap(self, name, kind, fn):
        tracer = self
        if kind == "count":
            def hooked(*args, **kwargs):
                if not tracer._opaque:
                    tracer.counts[name] = tracer.counts.get(name, 0) + 1
                return fn(*args, **kwargs)
        elif kind == "lu":
            def hooked(*args, **kwargs):
                span_idx = len(tracer.spans)
                lu = tracer.call(name, fn, args, kwargs)
                if tracer._opaque:
                    return lu
                tracer.spans[span_idx].value = lu
                return _TracedLU(lu, tracer)
        else:
            opaque = kind == "opaque"

            def hooked(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, opaque=opaque)
        return functools.wraps(fn)(hooked)

    # -- hooks ------------------------------------------------------------

    def install(self):
        self.absent = []
        for target, name, kind in HOOKS:
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, original = found
            hooked = self._wrap(name, kind, original)
            if isinstance(owner, type):
                self._patch(owner, attr, hooked)
                continue
            for modname, module in list(sys.modules.items()):
                if modname.split(".")[0] == "ensddm" and module is not None \
                        and getattr(module, attr, None) is original:
                    self._patch(module, attr, hooked)
        return self

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def reset(self):
        self.spans = []
        self.counts = {}

    # -- aggregation ------------------------------------------------------

    def metrics(self):
        """Per-layer values of every SPAN_METRICS and COUNT_METRICS entry."""
        spans = self.spans
        child_time = {}           # (parent index, child name) -> seconds
        all_child = [0.0] * len(spans)
        by_name = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s.name, []).append(i)
            if s.parent >= 0:
                d = s.end - s.start
                all_child[s.parent] += d
                key = (s.parent, s.name)
                child_time[key] = child_time.get(key, 0.0) + d
        out = {}
        for metric, how, name, minus in SPAN_METRICS:
            total = 0
            for i in by_name.get(name, ()):
                s = spans[i]
                if how == "self":
                    total += s.end - s.start - all_child[i]
                    continue
                if s.parent >= 0 and spans[s.parent].name == name:
                    continue      # nested call inside the same layer
                if how == "time":
                    total += s.end - s.start - sum(child_time.get((i, c), 0.0) for c in minus)
                elif how == "calls":
                    total += 1
                elif how == "sum":
                    total += s.value or 0
            out[metric] = total
        for metric, name in COUNT_METRICS:
            out[metric] = self.counts.get(name, 0)
        return out

    def settle_fill(self):
        """Replace each held SuperLU object by its fill nnz(L) + nnz(U), so
        the factors are freed and the fill is counted outside any span."""
        for s in self.spans:
            if hasattr(s.value, "L"):
                s.value = int(s.value.L.nnz + s.value.U.nnz)


def write_spans(path, span_lists, workload, run_id):
    """Write the spans of every traced repetition as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for rep, spans in enumerate(span_lists):
            for i, s in enumerate(spans):
                value = s.value if isinstance(s.value, (int, float)) else None
                fh.write(json.dumps({"rep": rep, "id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "value": value,
                                     "workload": workload, "run_id": run_id}) + "\n")
