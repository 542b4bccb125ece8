"""Outside tracer for the ``hhl`` layers.

Wraps public functions of the ``hhl`` modules from outside the package:
every module namespace that holds a traced function gets the wrapper in
its place, because ``from .quadrature import integrate`` copies the
binding into the importing module.  The quadrature entry points also
wrap their integrand argument, so time spent evaluating integrands and
time spent in the engine itself come out separately, and read their work
counters from the returned ``QuadResult`` (or the ``BudgetError`` /
``DivergenceError`` they raise).

Coarse layers keep one span per call (name, start, end, parent) in
memory; the hot inner layers (quadrature calls, integrands, point
evaluations) keep aggregate counters only.  ``Tracer.dump`` writes both
out once the traced run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, name of the argument whose size counts as points,
#  metric suffixes reported for it)
LAYERS = (
    ("hausdorff", "transform_values", "zs", ("calls", "points", "total_s")),
    ("realline", "eval_at", "x", ("calls", "points", "self_s")),
    ("realline", "lp_norm", None, ("total_s",)),
    ("hilbert", "hilbert_with_tails", None, ("calls", "total_s")),
    ("hilbert", "commutation_check", None, ("total_s",)),
    ("halfplane", "slice_norm", None, ("calls", "total_s")),
    ("halfplane", "hardy_norm", None, ("total_s",)),
    ("hardy_bmo", "poisson_maximal", None, ("total_s",)),
    ("hardy_bmo", "square_function", None, ("total_s",)),
    ("hardy_bmo", "smooth_maximal", None, ("total_s",)),
    ("hardy_bmo", "h1_proxy_norm", None, ("total_s",)),
    ("hardy_bmo", "bmo_bound_check", None, ("total_s",)),
    ("kernels", "eval_kernel", "t", ("calls", "points", "self_s")),
    ("kernels", "moment", None, ("total_s",)),
    ("adjoint", "duality_residual", None, ("total_s",)),
    ("report", "emit", None, ("total_s",)),
)

# layers called often enough that a span per call would crowd memory
_FINE = {"realline.eval_at", "kernels.eval_kernel"}

QUAD_ENTRIES = ("integrate", "integrate_halfline", "integrate_pv",
                "integrate_batched")
# entry points whose evaluations are their own abscissas; the other two
# only drive nested ``integrate`` calls, so counting them would double up
_ABSCISSA_OWNERS = ("integrate", "integrate_batched")

QUAD_COUNTERS = (
    ("quadrature.abscissas", "count"),
    ("quadrature.point_evals", "count"),
    ("quadrature.integrand_s", "s"),
    ("quadrature.engine_s", "s"),
    ("quadrature.tol_missed", "count"),
    ("quadrature.worst_err_ratio", "ratio"),
    ("quadrature.divergent", "count"),
    ("quadrature.budget_errors", "count"),
)

_UNITS = {"calls": "count", "points": "count", "total_s": "s", "self_s": "s"}


def layer_metric_units(suites) -> dict:
    """Every per-layer metric the tracer reports, mapped to its unit."""
    units = {f"cli.suite.{name}_s": "s" for name in suites}
    for entry in QUAD_ENTRIES:
        units[f"quadrature.{entry}.calls"] = "count"
    units.update(QUAD_COUNTERS)
    for module, func, _, suffixes in LAYERS:
        for suffix in suffixes:
            units[f"{module}.{func}.{suffix}"] = _UNITS[suffix]
    return units


class _Frame:
    __slots__ = ("child_s", "child_quad_s")

    def __init__(self):
        self.child_s = 0.0       # time in traced direct children
        self.child_quad_s = 0.0  # time covered by quadrature/integrand spans


class Tracer:
    """Collects spans and counters for one traced process."""

    def __init__(self):
        self.spans = []          # (id, parent id, name, start, end)
        self.calls = defaultdict(int)
        self.points = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.quad = {name: 0 for name, _ in QUAD_COUNTERS}
        self.quad["quadrature.worst_err_ratio"] = 0.0
        self._stack = []
        self._depth = defaultdict(int)  # active calls per name
        self._span_parents = [None]
        self._counted = set()           # ids of exceptions already counted
        self._installed = []            # (namespace, attribute, original)

    # -- span bookkeeping -------------------------------------------------

    def _enter(self):
        frame = _Frame()
        self._stack.append(frame)
        return frame

    def _leave(self, name, frame, start, end, kind):
        """Fold a finished call into its parent and the per-name totals."""
        self._stack.pop()
        dt = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += dt
        self.calls[name] += 1
        self.self_s[name] += dt - frame.child_s
        if self._depth[name] == 0:
            self.total_s[name] += dt
        if kind == "quad":
            self.quad["quadrature.engine_s"] += dt - frame.child_quad_s
        elif kind == "integrand":
            self.quad["quadrature.integrand_s"] += dt - frame.child_quad_s
        if parent is not None:
            # a layer call nested in an integrand passes on only the
            # quadrature time it covers; quadrature spans cover all of theirs
            parent.child_quad_s += frame.child_quad_s if kind == "layer" else dt

    def _wrap_layer(self, name, fn, points_arg):
        sig = inspect.signature(fn)
        index = list(sig.parameters).index(points_arg) if points_arg else None
        record_span = name not in _FINE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if index is not None:
                pts = args[index] if len(args) > index else kwargs[points_arg]
                self.points[name] += int(np.size(pts))
            if record_span:
                span_id = len(self.spans)
                self.spans.append(None)
                self._span_parents.append(span_id)
            frame = self._enter()
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._depth[name] -= 1
                self._leave(name, frame, start, end, "layer")
                if record_span:
                    self._span_parents.pop()
                    self.spans[span_id] = (span_id, self._span_parents[-1],
                                           name, start, end)
        return traced

    def traced(self, name, fn):
        """``fn`` wrapped to record a span under ``name`` for each call."""
        return self._wrap_layer(name, fn, None)

    def _wrap_integrand(self, g):
        def traced_integrand(*args, **kwargs):
            frame = self._enter()
            start = time.perf_counter()
            try:
                return g(*args, **kwargs)
            finally:
                self._leave("quadrature.integrand", frame, start,
                            time.perf_counter(), "integrand")
        return traced_integrand

    def _wrap_quad(self, entry, fn):
        name = f"quadrature.{entry}"
        sig = inspect.signature(fn)
        integrand_arg = next(iter(sig.parameters))
        owns_abscissas = entry in _ABSCISSA_OWNERS
        from hhl.quadrature import BudgetError, DivergenceError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            bound.arguments[integrand_arg] = self._wrap_integrand(
                bound.arguments[integrand_arg])
            tol = bound.arguments["tol"]
            frame = self._enter()
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                res = fn(*bound.args, **bound.kwargs)
            except BudgetError as exc:
                if owns_abscissas:
                    self._count_work(exc.partial)
                self._count_once(exc, "quadrature.budget_errors")
                raise
            except DivergenceError as exc:
                self._count_once(exc, "quadrature.divergent")
                raise
            finally:
                end = time.perf_counter()
                self._depth[name] -= 1
                self._leave(name, frame, start, end, "quad")
            if owns_abscissas:
                self._count_work(res)
            if res.diverges:
                self.quad["quadrature.divergent"] += 1
            else:
                ratio = res.error / tol
                if ratio > 1.0:
                    self.quad["quadrature.tol_missed"] += 1
                if ratio > self.quad["quadrature.worst_err_ratio"]:
                    self.quad["quadrature.worst_err_ratio"] = ratio
            return res
        return traced

    def _count_work(self, res):
        self.quad["quadrature.abscissas"] += res.evaluations
        self.quad["quadrature.point_evals"] += res.evaluations * int(np.size(res.value))

    def _count_once(self, exc, counter):
        # an error raised by a nested call propagates through its callers
        if id(exc) not in self._counted:
            self._counted.add(id(exc))
            self.quad[counter] += 1

    # -- installation -----------------------------------------------------

    def install(self):
        """Rebind every traced function in every loaded ``hhl`` namespace."""
        import hhl.cli  # noqa: F401  (loads every module the suites use)

        wrappers = {}  # id of original -> (original, wrapper)
        for entry in QUAD_ENTRIES:
            fn = getattr(sys.modules["hhl.quadrature"], entry)
            wrappers[id(fn)] = (fn, self._wrap_quad(entry, fn))
        for module, func, points_arg, _ in LAYERS:
            fn = getattr(sys.modules[f"hhl.{module}"], func)
            wrappers[id(fn)] = (fn, self._wrap_layer(f"{module}.{func}", fn,
                                                     points_arg))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hhl" or mod_name.startswith("hhl.")):
                continue
            for attr, value in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, value))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, suites) -> dict:
        """Per-layer metric values; suites and layers not run read 0."""
        out = {f"cli.suite.{name}_s": self.total_s.get(f"cli.suite.{name}", 0.0)
               for name in suites}
        for entry in QUAD_ENTRIES:
            out[f"quadrature.{entry}.calls"] = self.calls[f"quadrature.{entry}"]
        out.update(self.quad)
        tables = {"calls": self.calls, "points": self.points,
                  "total_s": self.total_s, "self_s": self.self_s}
        for module, func, _, suffixes in LAYERS:
            for suffix in suffixes:
                out[f"{module}.{func}.{suffix}"] = tables[suffix][f"{module}.{func}"]
        return out

    def dump(self, path, suites):
        """Write the spans and the metrics as one JSON file."""
        payload = {
            "metrics": self.metrics(suites),
            "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                       "start": s[3], "end": s[4]} for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
