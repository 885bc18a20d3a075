"""Per-layer metrics of one traced pass, computed from a Tracer's totals.

Which end-to-end metric each layer should move, and on which workload:

- numerics (integrate): wall_s/cpu_s on norms_ref, less on verify_mix, not
  on oracle_mix.
- profiles: build_profile moves setup_s everywhere and wall_s on verify_mix
  and oracle_mix (one build per invocation); eval moves wall_s on norms_ref
  and verify_mix.
- fields: wall_s on all three; points_per_call tells which batch size a
  kernel change serves (31-node batches on norms_ref, grid x ladder arrays
  on verify_mix, one radial line per step on oracle_mix).
- verify: wall_s on verify_mix only.
- norms: wall_s on norms_ref only; batching may raise peak_rss_mb there.
- oracle: wall_s on oracle_mix only.
- cli: a small share of wall_s everywhere.

Every layer also reports its self time. The self times plus
``trace.remainder_s`` (time inside a pass but outside every CLI invocation)
add up to ``trace.pass_s``.
"""

from __future__ import annotations

from tracer import LAYER_ORDER, Tracer

PER_LAYER_UNITS = {
    "numerics.integrate.calls": "count",
    "numerics.integrate.panels": "count",
    "numerics.integrate.self_s": "s",
    "numerics.integrate.us_per_panel": "us",
    "numerics.integrate.failed": "count",
    "numerics.self_s": "s",
    "profiles.build_profile.calls": "count",
    "profiles.build_profile.s": "s",
    "profiles.eval.points": "count",
    "profiles.eval.self_s": "s",
    "profiles.self_s": "s",
    "fields.calls": "count",
    "fields.points": "count",
    "fields.points_per_call": "points/call",
    "fields.self_s": "s",
    "fields.ns_per_point": "ns",
    "fields.eval_pressure.calls": "count",
    "fields.eval_pressure.s": "s",
    "verify.check_swirl_pde.s": "s",
    "verify.check_radial_momentum.s": "s",
    "verify.check_bound.s": "s",
    "verify.check_boundary.s": "s",
    "verify.samples": "count",
    "verify.self_s": "s",
    "norms.energy_series.s": "s",
    "norms.energy_series.panels": "count",
    "norms.l1_series.s": "s",
    "norms.l1_series.panels": "count",
    "norms.classify.s": "s",
    "norms.self_s": "s",
    "oracle.steps": "count",
    "oracle.step.us": "us",
    "oracle.rhs.us": "us",
    "oracle.self_s": "s",
    "cli.verify.s": "s",
    "cli.norms.s": "s",
    "cli.oracle.s": "s",
    "cli.build_family.s": "s",
    "cli.io.s": "s",
    "cli.io.bytes": "count",
    "cli.self_s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
    "trace.spans": "count",
}

# Counts that must repeat exactly from pass to pass.
COUNT_METRICS = tuple(name for name, unit in PER_LAYER_UNITS.items() if unit == "count")


def _total(tracer: Tracer, field: str, name=None, *, layer=None, site=None,
           prefix=None) -> float:
    total = 0
    for stat in tracer.stats.values():
        if ((name is None or stat.name == name)
                and (layer is None or stat.layer == layer)
                and (site is None or stat.site == site)
                and (prefix is None or stat.name.startswith(prefix))):
            total += getattr(stat, field)
    return total


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, pass_wall: float) -> dict:
    """Per-layer metrics of one traced pass that took ``pass_wall`` seconds."""
    t = tracer
    count = t.counters
    panels = int(count["numerics.integrate.panels"])
    fields_points = _total(t, "points", layer="fields")
    fields_calls = _total(t, "calls", layer="fields")
    fields_self = _total(t, "self_s", layer="fields")
    steps = _total(t, "calls", "oracle.step")
    rhs = (_total(t, "incl", "fields.eval_h", site="oracle")
           + _total(t, "incl", "fields._y_terms", site="oracle"))
    layer_self = t.layer_self()
    m = {
        "numerics.integrate.calls": _total(t, "calls", "numerics.integrate"),
        "numerics.integrate.panels": panels,
        "numerics.integrate.self_s": _total(t, "self_s", "numerics.integrate"),
        "numerics.integrate.us_per_panel": _ratio(
            _total(t, "incl", "numerics.integrate"), panels, 1e6),
        "numerics.integrate.failed": _total(t, "errors", "numerics.integrate"),
        "profiles.build_profile.calls": _total(t, "calls", "profiles.build_profile"),
        "profiles.build_profile.s": _total(t, "incl", "profiles.build_profile"),
        "profiles.eval.points": _total(t, "points", "profiles.eval"),
        "profiles.eval.self_s": _total(t, "self_s", "profiles.eval"),
        "fields.calls": fields_calls,
        "fields.points": fields_points,
        "fields.points_per_call": _ratio(fields_points, fields_calls),
        "fields.self_s": fields_self,
        "fields.ns_per_point": _ratio(fields_self, fields_points, 1e9),
        "fields.eval_pressure.calls": _total(t, "calls", "fields.eval_pressure"),
        "fields.eval_pressure.s": _total(t, "incl", "fields.eval_pressure"),
        "verify.samples": int(count["verify.samples"]),
        "norms.energy_series.s": _total(t, "incl", "norms.energy_series"),
        "norms.energy_series.panels": int(count["norms.energy_series.panels"]),
        "norms.l1_series.s": _total(t, "incl", "norms.l1_series"),
        "norms.l1_series.panels": int(count["norms.l1_series.panels"]),
        "norms.classify.s": _total(t, "incl", "norms.classify_LqtL1x"),
        "oracle.steps": steps,
        "oracle.step.us": _ratio(_total(t, "incl", "oracle.step"), steps, 1e6),
        "oracle.rhs.us": _ratio(rhs, steps, 1e6),
        "cli.build_family.s": _total(t, "incl", "cli.build_family"),
        "cli.io.s": _total(t, "incl", prefix="cli.io."),
        "cli.io.bytes": int(count["cli.io.bytes"]),
        "trace.pass_s": pass_wall,
        "trace.spans": len(t.span_start),
    }
    for check in ("check_swirl_pde", "check_radial_momentum", "check_bound",
                  "check_boundary"):
        m[f"verify.{check}.s"] = _total(t, "incl", f"verify.{check}")
    for command in ("verify", "norms", "oracle"):
        m[f"cli.{command}.s"] = _total(t, "incl", f"cli.{command}")
    for layer in LAYER_ORDER:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.remainder_s"] = pass_wall - sum(layer_self.values())
    # Time inside invocations that no layer claims; zero up to rounding.
    m["trace.unattributed_s"] = (_total(t, "incl", "cli.main")
                                 - sum(layer_self.values()))
    return {name: m[name] for name in PER_LAYER_UNITS if name in m} | {
        "trace.unattributed_s": m["trace.unattributed_s"]}
