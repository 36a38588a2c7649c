"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each public function and public method of the
layer modules with a timing wrapper, on the defining module and on every
confflat module or module-level dict that holds the same object under an
imported name; `Tracer.uninstall()` puts the originals back.  The program itself
carries no instrumentation.

A span's self time is its duration minus the durations of the layer spans
nested directly inside it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
import time

# layer name -> module whose public functions and methods form the layer
LAYERS = {
    "jets": "confflat.jets.maps",
    "extrinsic": "confflat.extrinsic",
    "principal": "confflat.principal",
    "conformal": "confflat.conformal",
    "lightcone": "confflat.lightcone",
    "ribaucour": "confflat.ribaucour",
    "reports": "confflat.reports",
}


def peak_rss_mb():
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


def _layer_callables(module):
    """(qualified name, owner, attribute, function) for each public function
    defined in `module` and each public method of its public classes."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((name, module, name, obj))
        elif inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    out.append((f"{name}.{attr}", obj, attr, fn))
    return out


class Tracer:
    """Call counts, inclusive and self times per wrapped callable, plus the
    few workload-specific counters the hooks below record."""

    def __init__(self):
        self.stats = {}
        self.extra = {}
        self.top_s = 0.0          # time inside outermost layer spans
        self._stack = []
        self._patches = []

    def reset(self):
        for st in self.stats.values():
            st.calls, st.total_s, st.self_s = 0, 0.0, 0.0
        self.extra = {}
        self.top_s = 0.0

    def stat(self, key):
        return self.stats.get(key) or Stat()

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(st.self_s for key, st in self.stats.items()
                   if key.startswith(prefix))

    def _add(self, key, value):
        self.extra[key] = self.extra.get(key, 0.0) + value

    def _wrap(self, key, fn):
        st = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter
        before, after = _HOOKS.get(key, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(tracer) if before else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_s += dt
            if after:
                after(tracer, args, kwargs, result, state)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for qual, owner, attr, fn in _layer_callables(module):
                wrapper = self._wrap(f"{layer}.{qual}", fn)
                wrappers[id(fn)] = (fn, wrapper)
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        # imported names and dispatch tables elsewhere in the package
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("confflat"):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                hit = wrappers.get(id(obj))
                if hit and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        hit = wrappers.get(id(v))
                        if hit and hit[0] is v:
                            self._patches.append((obj, k, v))
                            obj[k] = hit[1]

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._patches = []


# hooks: key -> (before(tracer) -> state, after(tracer, args, kwargs, result, state))

def _ff_calls(tracer):
    return tracer.stat("extrinsic.fundamental_forms").calls


def _after_grid(tracer, args, kwargs, grid, ff_before):
    tracer._add("ribaucour.build_lift_grid.points", grid.M)
    tracer._add("ribaucour.build_lift_grid.fundamental_forms_calls",
                _ff_calls(tracer) - ff_before)


def _after_nullspace(tracer, args, kwargs, ns, state):
    tracer.extra["ribaucour.solve_condition_nullspace.rss_mb"] = peak_rss_mb()
    tracer._add("ribaucour.solve_condition_nullspace.cols", ns.basis.shape[1])
    tracer._add("ribaucour.solve_condition_nullspace.dimension", ns.dimension)


def _after_write(tracer, args, kwargs, result, state):
    path = kwargs.get("path", args[0] if args else None)
    tracer._add("reports.write_grid_samples.bytes", os.path.getsize(path))


_HOOKS = {
    "ribaucour.build_lift_grid": (_ff_calls, _after_grid),
    "ribaucour.solve_condition_nullspace": (None, _after_nullspace),
    "reports.write_grid_samples": (None, _after_write),
}


def layer_metrics(tracer: Tracer):
    """The per-layer metrics of one traced round, by name."""
    ej = tracer.stat("jets.evaluate_jet")
    ff = tracer.stat("extrinsic.fundamental_forms")
    grid = tracer.stat("ribaucour.build_lift_grid")
    ns = tracer.stat("ribaucour.solve_condition_nullspace")
    extra = tracer.extra
    return {
        "jets.evaluate_jet.calls": ej.calls,
        "jets.evaluate_jet.self_s": ej.self_s,
        "extrinsic.fundamental_forms.calls": ff.calls,
        "extrinsic.fundamental_forms.self_s": ff.self_s,
        "extrinsic.fundamental_forms.ms_per_call":
            1e3 * ff.total_s / ff.calls if ff.calls else 0.0,
        "extrinsic.self_s": tracer.layer_self_s("extrinsic"),
        "principal.self_s": tracer.layer_self_s("principal"),
        "conformal.self_s": tracer.layer_self_s("conformal"),
        "lightcone.self_s": tracer.layer_self_s("lightcone"),
        "ribaucour.build_lift_grid.s": grid.total_s,
        "ribaucour.build_lift_grid.self_s": grid.self_s,
        "ribaucour.build_lift_grid.points":
            extra.get("ribaucour.build_lift_grid.points", 0),
        "ribaucour.build_lift_grid.fundamental_forms_calls":
            extra.get("ribaucour.build_lift_grid.fundamental_forms_calls", 0),
        "ribaucour.solve_condition_nullspace.s": ns.total_s,
        "ribaucour.solve_condition_nullspace.rss_mb":
            extra.get("ribaucour.solve_condition_nullspace.rss_mb", 0.0),
        "ribaucour.solve_condition_nullspace.cols":
            extra.get("ribaucour.solve_condition_nullspace.cols", 0),
        "ribaucour.solve_condition_nullspace.dimension":
            extra.get("ribaucour.solve_condition_nullspace.dimension", 0),
        "ribaucour.flatness_filter.s":
            tracer.stat("ribaucour.flatness_filter").total_s,
        "ribaucour.transform.calls": tracer.stat("ribaucour.transform").calls,
        "ribaucour.conformally_flat_family.self_s":
            tracer.stat("ribaucour.conformally_flat_family").self_s,
        "reports.write_grid_samples.s":
            tracer.stat("reports.write_grid_samples").total_s,
        "reports.write_grid_samples.bytes":
            extra.get("reports.write_grid_samples.bytes", 0),
        "reports.self_s": tracer.layer_self_s("reports"),
    }
