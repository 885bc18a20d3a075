"""Span tracer that wraps axiswirl's cross-module calls from the outside.

Nothing under ``src/`` is edited. :meth:`Tracer.install` replaces, on each
importing module, every function that module imported from another axiswirl
module (for example ``integrate`` inside ``axiswirl.norms``), plus the
methods and dispatch tables at the remaining layer boundaries
(``SwirlProfile.phi0*``, ``ForcingProfile.__call__``, ``SwirlStepper.step``,
``fields.eval_pressure``, ``cli.build_family`` and ``cli.COMMANDS``).
:meth:`Tracer.uninstall` puts the originals back, so untraced passes run the
program exactly as shipped.

Each wrapper records one span (name, start, end, parent, trace id) into flat
arrays kept in memory and written out by :meth:`Tracer.write`. Self time is
accumulated on the fly: a span's self time is its duration minus the
durations of its direct children, so the self times of all spans under one
root add up to that root's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Layer of each axiswirl module; _csvio is the CLI's output writer.
LAYERS = {
    "axiswirl.numerics": "numerics",
    "axiswirl.profiles": "profiles",
    "axiswirl.fields": "fields",
    "axiswirl.verify": "verify",
    "axiswirl.norms": "norms",
    "axiswirl.oracle": "oracle",
    "axiswirl.cli": "cli",
    "axiswirl._csvio": "cli",
}
LAYER_ORDER = tuple(dict.fromkeys(LAYERS.values()))

_PROFILE_METHODS = ("phi0", "phi0_over_r", "phi0_prime", "phi0_second",
                    "g", "g_prime", "g_second", "I")


class Stat:
    """Totals for one (span name, importing module) site."""

    __slots__ = ("name", "layer", "site", "calls", "incl", "self_s", "points",
                 "errors", "active")

    def __init__(self, name, layer, site):
        self.name = name
        self.layer = layer
        self.site = site
        self.calls = 0
        self.incl = 0.0      # outermost spans only, so recursion is not doubled
        self.self_s = 0.0
        self.points = 0
        self.errors = 0
        self.active = 0


def _points_of(fn):
    """Return a cheap function giving the number of points a call evaluates."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if "r" in params and "t" in params:
        ir, it = params.index("r"), params.index("t")

        def points(args, kwargs):
            r = args[ir] if ir < len(args) else kwargs["r"]
            t = args[it] if it < len(args) else kwargs["t"]
            return max(np.size(r), np.size(t))
        return points
    if "radii" in params and "times" in params:
        ir, it = params.index("radii"), params.index("times")
        return lambda args, kwargs: np.size(args[ir]) * np.size(args[it])
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_trace = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: dict[tuple[str, str], Stat] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.step_by_n_r: dict[int, list] = defaultdict(lambda: [0, 0.0])
        self.trace_id = -1
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stat(self, name, layer, site) -> Stat:
        key = (name, site)
        if key not in self.stats:
            self.stats[key] = Stat(name, layer, site)
        return self.stats[key]

    def span(self, fn, name, layer, site, *, points=None, before=None,
             after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``points(args, kwargs)`` counts the points a call evaluates;
        ``before(args)`` returns a token handed to
        ``after(result, args, token, duration)``.
        """
        nid = self._name_id(name)
        stat = self._stat(name, layer, site)
        stack = self._stack
        starts, ends = self.span_start, self.span_end
        names, parents, traces = self.span_name, self.span_parent, self.span_trace

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(starts)
            names.append(nid)
            parents.append(parent[0] if parent else -1)
            traces.append(self.trace_id)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            if points is not None:
                stat.points += points(args, kwargs)
            stat.active += 1
            token = before(args) if before else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                stat.calls += 1
                stat.active -= 1
                if stat.active == 0:
                    stat.incl += dur
                stat.self_s += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
            if after:
                after(result, args, token, dur)
            return result
        return wrapper

    def root(self, fn, trace_id: int):
        """Call ``fn()`` as the root span of one CLI invocation."""
        self.trace_id = trace_id
        return self.span(fn, "cli.main", "cli", "bench")()

    # -- installation --------------------------------------------------------
    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            original, owner[key] = owner[key], value
        else:
            original = getattr(owner, key)
            setattr(owner, key, value)
        self._patches.append((owner, key, original))

    def install(self):
        """Wrap every cross-module import of the axiswirl modules."""
        import axiswirl.cli as cli
        import axiswirl.fields as fields
        import axiswirl.oracle as oracle
        import axiswirl.profiles as profiles

        for name, site in LAYERS.items():
            mod = importlib.import_module(name)
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                if value.__module__ == name or value.__module__ not in LAYERS:
                    continue
                self._patch(mod, attr, self._wrap_function(value, site))

        # Layer boundaries that are not crossed through a module import.
        self._patch(fields, "eval_pressure",
                    self._wrap_function(fields.eval_pressure, "fields"))
        self._patch(cli, "build_family",
                    self.span(cli.build_family, "cli.build_family", "cli", "cli"))
        for command, fn in list(cli.COMMANDS.items()):
            self._patch(cli.COMMANDS, command,
                        self.span(fn, f"cli.{command}", "cli", "cli"))
        for meth in _PROFILE_METHODS:
            fn = getattr(profiles.SwirlProfile, meth)
            self._patch(profiles.SwirlProfile, meth, self.span(
                fn, "profiles.eval", "profiles", "any", points=_first_arg_size))
        self._patch(profiles.ForcingProfile, "__call__", self.span(
            profiles.ForcingProfile.__call__, "profiles.eval", "profiles", "any",
            points=_first_arg_size))
        self._patch(oracle.SwirlStepper, "step", self.span(
            oracle.SwirlStepper.step, "oracle.step", "oracle", "oracle",
            after=self._after_step))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _wrap_function(self, fn, site):
        layer = LAYERS[fn.__module__]
        prefix = "cli.io" if fn.__module__ == "axiswirl._csvio" else layer
        name = f"{prefix}.{fn.__name__}"
        if name == "numerics.integrate":
            return self._wrap_integrate(fn, site)
        before = after = None
        if name in ("norms.energy_series", "norms.l1_series"):
            before, after = self._panels_now, self._panel_delta(name)
        elif layer == "verify" and fn.__name__.startswith("check_"):
            after = self._after_check
        elif prefix == "cli.io":
            after = self._after_write
        points = _points_of(fn) if layer == "fields" else None
        return self.span(fn, name, layer, site, points=points, before=before,
                         after=after)

    def _wrap_integrate(self, fn, site):
        # Every panel of the adaptive rule evaluates the integrand once, so
        # panels are counted by wrapping the integrand passed in; the
        # integrand's own code belongs to the calling layer.
        counters = self.counters
        integrand_span = functools.partial(self.span, name=f"{site}.integrand",
                                           layer=site, site=site,
                                           points=lambda args, kwargs: np.size(args[0]))

        def call(f, a, b, *args, **kwargs):
            def counted(x):
                counters["numerics.integrate.panels"] += 1
                return f(x)
            return fn(integrand_span(counted), a, b, *args, **kwargs)
        return self.span(functools.wraps(fn)(call), "numerics.integrate",
                         "numerics", site)

    # -- count hooks ----------------------------------------------------------
    def _panels_now(self, args):
        return self.counters["numerics.integrate.panels"]

    def _panel_delta(self, name):
        key = f"{name}.panels"

        def after(result, args, before, dur):
            self.counters[key] += self.counters["numerics.integrate.panels"] - before
        return after

    def _after_check(self, result, args, token, dur):
        self.counters["verify.samples"] += len(result.samples)

    def _after_write(self, result, args, token, dur):
        self.counters["cli.io.bytes"] += os.path.getsize(args[0])

    def _after_step(self, result, args, token, dur):
        entry = self.step_by_n_r[args[0].n_r]
        entry[0] += 1
        entry[1] += dur

    # -- output ----------------------------------------------------------------
    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYER_ORDER, 0.0)
        for stat in self.stats.values():
            out[stat.layer] += stat.self_s
        return out


def write_spans(path: str, tracers: list[Tracer]) -> None:
    """Write the spans of several traced passes as one .npz file.

    ``parent`` indexes spans of the same pass; every tracer is installed the
    same way, so name ids agree across passes.
    """
    def column(attr, dtype):
        return np.concatenate([np.frombuffer(getattr(t, attr), dtype=dtype)
                               for t in tracers])
    np.savez(path,
             pass_index=np.concatenate([np.full(len(t.span_start), i, dtype=np.int32)
                                        for i, t in enumerate(tracers)]),
             name=column("span_name", np.int32),
             parent=column("span_parent", np.int32),
             trace=column("span_trace", np.int32),
             start=column("span_start", np.float64),
             end=column("span_end", np.float64),
             names=np.array(json.dumps(tracers[0].names)))


def _first_arg_size(args, kwargs):
    return np.size(args[1])
