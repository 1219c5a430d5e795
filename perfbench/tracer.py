"""Span tracer that measures the library's layers from outside.

``Tracer.install`` wraps each entry point named in ``ENTRY_POINTS`` and
rebinds it wherever a ``hyperscatter`` module holds a reference: module
globals (so calls between modules and inside one module both pass through
the wrapper), module-level dicts such as ``verify.SUITES``, and class
attributes for methods.  ``uninstall`` puts every original object back.

Each wrapped call is a span whose parent is the innermost open span.  Spans
are folded into per-name totals as they close: calls, inclusive time and
self time (inclusive time minus the time of its direct child spans).  The
layer of a span is the first component of its name.  No library code is
changed; the tracer only exists in the process that installs it.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute or Class.method, span name).  The span name's first
# component is the layer that owns the time.
ENTRY_POINTS = (
    ("space", "space_from_name", "space"),
    ("space", "make_space", "space"),
    ("space", "RankOneSpace.density_J", "space"),
    ("space", "RankOneSpace.density_J_t", "space"),
    ("space", "RankOneSpace.log_density_dot", "space"),
    ("cfunction", "for_space", "cfunction"),
    ("cfunction", "CFunction.value", "cfunction"),
    ("cfunction", "CFunction.derivative", "cfunction"),
    ("cfunction", "CFunction.local_expansion", "cfunction"),
    ("cfunction", "CFunction.czz", "cfunction"),
    ("cfunction", "CFunction.czz_expansion", "cfunction"),
    ("cfunction", "CFunction.czz_derivative", "cfunction"),
    ("cfunction", "CFunction.plancherel_density", "cfunction"),
    ("cfunction", "CFunction.czz_zeros_upper", "cfunction"),
    ("radial", "solve_ivp", "radial.ode"),
    ("radial", "frobenius_Q", "radial.frobenius"),
    ("radial", "FrobeniusSeries.series_sums", "radial.series_sum"),
    ("radial", "_connection_solve", "radial.connection"),
    ("radial", "wronskian_limit", "radial.wronskian"),
    ("radial", "eval_phi", "radial.eval"),
    ("radial", "eval_Q", "radial.eval"),
    ("radial", "integrate_radial_ode", "radial"),
    ("radial", "phi_solution", "radial"),
    ("radial", "q_solution", "radial"),
    ("radial", "connection_coefficients", "radial"),
    ("radial", "RadialSolution.at", "radial"),
    ("radial", "RadialSolution.residual", "radial"),
    ("resolvent", "kernel", "resolvent.kernel"),
    ("resolvent", "apply_radial", "resolvent.apply"),
    ("resolvent", "ResolventApplication.on_grid", "resolvent.apply"),
    ("resolvent", "quad", "resolvent.quad"),
    ("resolvent", "kernel_at", "resolvent"),
    ("resolvent", "resolvent_difference", "resolvent"),
    ("resolvent", "spectral_density_kernel", "resolvent"),
    ("resolvent", "ResolventApplication.__call__", "resolvent"),
    ("resolvent", "ResolventApplication.residual", "resolvent"),
    ("resonances", "enumerate_resonances", "resonances.enumerate"),
    ("resonances", "_winding_check", "resonances.winding"),
    ("resonances", "residue_scalar", "resonances"),
    ("resonances", "residue_kernel", "resonances"),
    ("resonances", "residue_contour_probe", "resonances"),
    ("scattering", "scalar", "scattering.scalar"),
    ("scattering", "find_scalar_poles", "scattering.axis_scan"),
    ("scattering", "classify_poles", "scattering"),
    ("scattering", "ktype_eigenvalue", "scattering"),
    ("scattering", "residue_relation_check", "scattering"),
    ("boundary", "boundary_pair", "boundary"),
    ("boundary", "bv_limit", "boundary"),
    ("model_h2", "residue_rank", "model_h2.residue_rank"),
    ("model_h2", "poisson_transform", "model_h2"),
    ("model_h2", "poisson_radial_pair", "model_h2"),
    ("model_h2", "resolvent_difference_quadrature", "model_h2"),
    ("model_h2", "ktype_solution", "model_h2"),
    ("model_h2", "ktype_radial_profile", "model_h2"),
    ("model_h2", "oracle_h3", "model_h2"),
    ("model_h2", "distance", "model_h2"),
    ("model_h2", "hyperbolic_laplacian_stencil", "model_h2"),
    ("verify", "run_suite", "verify"),
    ("verify", "run_all", "verify"),
    ("cli", "main", "cli"),
)

# Leaf functions that only get a call counter: they run inside a cfunction
# span already, and a span per call would dominate their cost.
COUNTED = (
    ("cfunction", "log_gamma", "cfunction.gamma_evals"),
    ("cfunction", "digamma", "cfunction.gamma_evals"),
)

LAYERS = ("space", "cfunction", "radial", "resolvent", "resonances",
          "scattering", "boundary", "model_h2", "verify", "cli")
# Layers whose spans enclose whole queries: their self time is whatever
# the other layers' spans leave uncovered.
CATCH_ALL = ("verify", "cli")


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Collects span totals for one process; install it once, then read."""

    def __init__(self):
        self.stats = {}     # span name -> Stat
        self.entries = {}   # layer -> calls entering it from another layer
        self.counts = {}    # counter name -> number
        self._stack = []    # open spans: [name, layer, child_time]
        self._bindings = []  # (kind, owner, key, original) to restore

    # -- span bookkeeping ---------------------------------------------------

    def _count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name, fn, args, kwargs):
        layer = name.split(".", 1)[0]
        stack = self._stack
        outer = stack[-1] if stack else None
        frame = [name, layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = Stat()
            stat.calls += 1
            stat.total += duration
            stat.self_time += duration - frame[2]
            if outer is not None:
                outer[2] += duration
            if outer is None or outer[1] != layer:
                self.entries[layer] = self.entries.get(layer, 0) + 1

    def _make_wrapper(self, fn, name):
        tracer = self

        if name == "radial.ode":
            def traced(*args, **kwargs):
                sol = tracer.span(name, fn, args, kwargs)
                tracer._count("radial.ode.rhs_evals", int(sol.nfev))
                tracer._count("radial.ode.steps", len(sol.t) - 1)
                return sol
        elif name == "radial.frobenius":
            def traced(*args, **kwargs):
                ser = tracer.span(name, fn, args, kwargs)
                tracer._count("radial.frobenius.terms", ser.truncation)
                return ser
        elif name == "radial.eval":
            def traced(*args, **kwargs):
                before = tracer.stats.get("radial.ode")
                before = before.calls if before else 0
                value = tracer.span(name, fn, args, kwargs)
                after = tracer.stats.get("radial.ode")
                if (after.calls if after else 0) == before:
                    tracer._count("radial.eval.reused")
                return value
        else:
            def traced(*args, **kwargs):
                return tracer.span(name, fn, args, kwargs)
        return functools.wraps(fn)(traced)

    def _make_counter(self, fn, key):
        tracer = self

        def counted(*args, **kwargs):
            tracer._count(key)
            return fn(*args, **kwargs)
        return functools.wraps(fn)(counted)

    # -- installing and removing wrappers -----------------------------------

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = _library_modules()
        for spec, factory in ((ENTRY_POINTS, self._make_wrapper),
                              (COUNTED, self._make_counter)):
            for mod_name, attr, name in spec:
                owner = modules[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._bind("attr", cls, meth, original,
                               factory(original, name))
                else:
                    original = getattr(owner, attr)
                    self._rebind(modules, original, factory(original, name))
        for suite, original in list(modules["verify"].SUITES.items()):
            self._rebind(modules, original,
                         self._make_wrapper(original, f"verify.{suite}"))

    def _rebind(self, modules, original, wrapper):
        """Point every module global and module-level dict entry that holds
        ``original`` at ``wrapper``."""
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._bind("attr", mod, key, original, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._bind("item", value, k, original, wrapper)

    def _bind(self, kind, owner, key, original, wrapper):
        self._bindings.append((kind, owner, key, original))
        if kind == "attr":
            setattr(owner, key, wrapper)
        else:
            owner[key] = wrapper

    def uninstall(self):
        while self._bindings:
            kind, owner, key, original = self._bindings.pop()
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading the totals -------------------------------------------------

    def layer_self(self, layer):
        return sum(s.self_time for n, s in self.stats.items()
                   if n.split(".", 1)[0] == layer)

    def self_of(self, name):
        stat = self.stats.get(name)
        return stat.self_time if stat else 0.0

    def calls_of(self, name):
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def total_of(self, name):
        stat = self.stats.get(name)
        return stat.total if stat else 0.0


def _library_modules():
    mods = {}
    for full, mod in list(sys.modules.items()):
        if full == "hyperscatter" or full.startswith("hyperscatter."):
            mods[full.split(".")[-1]] = mod
    return mods


def snapshot_bindings():
    """Identity snapshot of every global and class attribute of the library,
    used to prove that ``uninstall`` restored all of them."""
    snap = {}
    for name, mod in _library_modules().items():
        for key, value in vars(mod).items():
            snap[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for k, v in vars(value).items():
                    snap[(name, key, k)] = id(v)
            if isinstance(value, dict):
                for k, v in value.items():
                    snap[(name, key, "item", k)] = id(v)
    return snap
