"""Span recorders installed around the library's layers from outside.

Every public function and method of the nine layer modules is wrapped
where its callers look it up: the defining module's attribute, every other
``hhfrac`` module that imported it by name, and the class dictionary for
methods and properties.  A wrapper records a span (calls, inclusive time,
self time = inclusive minus the time of its child spans) under
``<layer>.<qualname>``.  Nothing under ``src/`` is edited;
:meth:`Tracer.remove` puts every original object back.

Spans are aggregated in memory per name and read out per pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = (
    "specfun", "grids", "hadamard", "problems", "solver",
    "certificates", "stability", "config", "cli",
)

# private functions that carry a layer's work and are called across modules
_EXTRA_FUNCTIONS = {
    "solver": ("_implicit_rhs_grid",),
    "cli": ("_solution_csv",),
}
# dunder methods that count object construction and grid-function algebra
_EXTRA_METHODS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__")
# trivial accessors called on every array access; wrapping them would only
# measure the wrapper
_SKIP = {
    "grids.LogGrid.h", "grids.LogGrid.n_nodes",
    "grids.GridFunction.weighted_limit",
}

SOLVE_FUNCTIONS = (
    "solver.picard_solve", "solver.solve_with_fixed_constant", "solver.solve_ivp",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Installs span wrappers and accumulates per-name statistics."""

    def __init__(self):
        self._stack = []          # child-time accumulators of the open spans
        self._restore = []        # (owner, attribute, original object)
        self.reset()

    def reset(self):
        self.stats = {}           # name -> [calls, inclusive_s, self_s]
        self.rhs_points = 0
        self.ml_terms = 0
        self.sweeps = 0
        self.inner_max = 0
        self.level_s = {}         # panels -> inclusive solve time
        self.unperturbed = 0
        self.unperturbed_keys = set()

    # -- span recording -----------------------------------------------------

    def _span(self, fn, name, post=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                entry = self.stats.get(name)
                if entry is None:
                    entry = self.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - child
            if post is not None:
                post(args, kwargs, result, dt)
            return result

        return wrapper

    # -- counters read off arguments and results ----------------------------

    def _post_for(self, name, site):
        if name == "problems.RhsSpec.evaluate":
            def post(args, kwargs, result, dt):
                self.rhs_points += int(getattr(_arg(args, kwargs, 1, "t"), "size", 1))
            return post
        if name == "specfun.mittag_leffler":
            def post(args, kwargs, result, dt):
                self.ml_terms += result.terms_used
            return post
        if name in SOLVE_FUNCTIONS:
            unperturbed = name == "solver.picard_solve" and site == "hhfrac.stability"

            def post(args, kwargs, result, dt):
                report = result[1]
                self.sweeps += report.iterations
                self.inner_max = max(self.inner_max, report.inner_iteration_max)
                grid = _arg(args, kwargs, 1 if name != "solver.solve_ivp" else 4, "grid")
                self.level_s[grid.n_panels] = self.level_s.get(grid.n_panels, 0.0) + dt
                if unperturbed:
                    problem = _arg(args, kwargs, 0, "problem")
                    self.unperturbed += 1
                    self.unperturbed_keys.add((repr(problem), grid.b, grid.n_panels))
            return post
        return None

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original) for every traced object."""
        for layer in LAYERS:
            mod = importlib.import_module(f"hhfrac.{layer}")
            extra = _EXTRA_FUNCTIONS.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_") or attr in extra:
                        yield f"{layer}.{attr}", mod, attr, obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, mobj in list(vars(obj).items()):
                        if mattr.startswith("_") and mattr not in _EXTRA_METHODS:
                            continue
                        name = f"{layer}.{obj.__name__}.{mattr}"
                        if name in _SKIP:
                            continue
                        if inspect.isfunction(mobj) or isinstance(mobj, property):
                            yield name, obj, mattr, mobj

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        functions = {}
        for name, owner, attr, obj in self._targets():
            if isinstance(obj, property):
                wrapped = property(self._span(obj.fget, name, self._post_for(name, None)))
                self._restore.append((owner, attr, obj))
                setattr(owner, attr, wrapped)
            elif inspect.isclass(owner):
                self._restore.append((owner, attr, obj))
                setattr(owner, attr, self._span(obj, name, self._post_for(name, None)))
            else:
                functions[id(obj)] = (name, obj)
        # rebind module-level functions at every site that imported them
        sites = [m for n, m in sys.modules.items() if n == "hhfrac" or n.startswith("hhfrac.")]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                hit = functions.get(id(obj))
                if hit is None or hit[1] is not obj:
                    continue
                name, fn = hit
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, self._span(fn, name, self._post_for(name, mod.__name__)))

    def remove(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- read-out -----------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self(self, layer):
        prefix = layer + "."
        return sum((v[2] for k, v in self.stats.items() if k.startswith(prefix)), 0.0)

    def snapshot(self, hits, misses):
        """Per-layer metrics {name: (value, unit)} of the spans since the last reset.

        ``hits`` and ``misses`` are the ``_panel_weights`` cache counts of
        the same interval, from its ``cache_info``.
        """
        solves = sum(self.calls(n) for n in SOLVE_FUNCTIONS)
        snap = {
            "hadamard.integral_calls": (self.calls("hadamard.hadamard_integral"), "count"),
            "hadamard.integral_s": (self.self_time("hadamard.hadamard_integral"), "s"),
            "hadamard.value_at_b_calls": (self.calls("hadamard.integral_value_at_b"), "count"),
            "hadamard.value_at_b_s": (self.inclusive("hadamard.integral_value_at_b"), "s"),
            "hadamard.hilfer_derivative_s": (
                self.inclusive("hadamard.hilfer_hadamard_derivative"), "s"),
            "hadamard.weights_cache_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "problems.rhs_eval_calls": (self.calls("problems.RhsSpec.evaluate"), "count"),
            "problems.rhs_eval_points": (self.rhs_points, "count"),
            "problems.rhs_eval_s": (self.inclusive("problems.RhsSpec.evaluate"), "s"),
            "solver.solves": (solves, "count"),
            "solver.picard_sweeps": (self.sweeps, "count"),
            "solver.inner_iter_max": (self.inner_max, "count"),
            "solver.residual_fide_s": (self.inclusive("solver.residual_fide"), "s"),
            "stability.experiments": (
                self.calls("stability.run_uh_experiment")
                + self.calls("stability.run_uhr_experiment"), "count"),
            "stability.unperturbed_solves": (self.unperturbed, "count"),
            "stability.solve_reuse_ratio": (
                len(self.unperturbed_keys) / self.unperturbed if self.unperturbed else 0.0,
                "ratio"),
            "certificates.build_s": (self.inclusive("certificates.build_certificate"), "s"),
            "certificates.rassias_s": (self.inclusive("certificates.rassias_constant"), "s"),
            "certificates.gronwall_s": (self.inclusive("certificates.gronwall_bound"), "s"),
            "specfun.ml_calls": (self.calls("specfun.mittag_leffler"), "count"),
            "specfun.ml_terms": (self.ml_terms, "count"),
            "specfun.ml_s": (self.inclusive("specfun.mittag_leffler"), "s"),
            "grids.gridfunction_new": (self.calls("grids.GridFunction.__init__"), "count"),
            "grids.log_nodes_builds": (self.calls("grids.LogGrid.log_nodes"), "count"),
            "config.load_s": (self.inclusive("config.load_config"), "s"),
        }
        for panels in (512, 2048, 8192, 32768):
            snap[f"solver.level_{panels}_s"] = (self.level_s.get(panels, 0.0), "s")
        for layer in LAYERS:
            snap[f"{layer}.self_s"] = (self.layer_self(layer), "s")
        return snap

    def table(self):
        """Per-span lines, largest self time first."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        return [
            f"{name:52s} calls={v[0]:8d} incl={v[1]:10.4f}s self={v[2]:10.4f}s"
            for name, v in rows
        ]
