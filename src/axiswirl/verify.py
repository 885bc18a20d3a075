"""Residual, boundary, and pointwise-bound verification harness.

The constructed fields are exact solutions; the checks see them through
finite-difference stencils, so pass/fail must be resolution-aware. Every
stencil is sized against the local solution scale

    ell(r, t) = sqrt(r^2 + 2 (T - t))        (radial step h_r = theta_r * ell,
                                              at most 0.45 min(r, 1 - r))
    h_t       = min(1e-5, theta_t ell^2 / 2) (theta_t = THETA_T_CAP)

and each sample's residual is normalized by the magnitude of the largest
term entering the equation at that sample. A report passes when every
normalized residual stays below kappa * (theta_r^2 + theta_t^2): the
truncation of an O(h^2) stencil applied to the true solution, with kappa
absorbing the profile's derivative-growth ratios. Halving the dimensionless
steps must shrink the measured residuals about fourfold, which the
acceptance suite checks explicitly. Where h_t >= T - t the time stencil is
one-sided into the past, (3 w(t) - 4 w(t - h_t) + w(t - 2 h_t)) / (2 h_t),
so h_t never collapses with T - t, at any ladder depth the CLI accepts;
the 1e-5 cap leaves every level with T - t >= 1e-3 on the central stencil.

Every stencil is taken in T - t coordinates: the samples form one
level-major (level, radius) lattice keyed on ``TimeLadder.T_minus``, and
each check evaluates its fields on it in one ``fields`` kernel call. The
momentum check's pressure rise across each stencil is one quadrature row
per sample, all samples in one ``integrate`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import SolutionFamily, _jet, _pressure_integral, _rhs, _w
from .numerics import (QuadratureSpec, RadialGrid, TimeLadder,
                       local_radial_scale, make_radial_grid, make_time_ladder)
from .profiles import EPS0

__all__ = [
    "ResidualReport",
    "BoundCheck",
    "KAPPA",
    "check_swirl_pde",
    "check_radial_momentum",
    "check_boundary",
    "check_bound",
    "residual_order",
    "report_to_dict",
]

KAPPA = 100.0
THETA_T_CAP = 1e-2  # h_t / (ell^2 / 2) never exceeds this
BOUNDARY_TOL = 1e-9

_EQUATION_OF_WHICH = {
    "u": "swirl_pde_part1",
    "v": "swirl_pde_part1",
    "eta": "eta_identity",
    "vbar": "swirl_pde_part2",
}


@dataclass
class ResidualReport:
    """Outcome of one residual check over a sample set.

    ``samples`` holds (r, t, normalized residual); ``max_abs_residual`` is
    the largest normalized residual and the report passes iff it stays at
    or below ``tolerance`` and at least 95% of requested samples were
    evaluable.
    """

    equation: str
    samples: list
    tolerance: float
    max_abs_residual: float
    passed: bool
    skipped: int = 0
    requested: int = 0
    max_raw_residual: float = 0.0
    worst: list = field(default_factory=list)
    raw_samples: list = field(default_factory=list)

    @property
    def sampling_valid(self) -> bool:
        if self.requested == 0:
            return True
        return (self.requested - self.skipped) >= 0.95 * self.requested


@dataclass
class BoundCheck:
    """A pointwise bound realized as a fitted constant plus stability test."""

    name: str
    normalizer: str
    samples: np.ndarray
    fitted_C: float
    refinement_drift: float
    passed: bool


def _report(equation: str, samples: list, tolerance: float, raw_max: float, *,
            skipped: int = 0, requested: Optional[int] = None,
            raw_samples=()) -> ResidualReport:
    """The report of normalized samples (r, t, residual) against tolerance."""
    max_norm = max((s[2] for s in samples), default=0.0)
    report = ResidualReport(
        equation=equation, samples=samples, tolerance=tolerance,
        max_abs_residual=max_norm, passed=False, skipped=skipped,
        requested=len(samples) if requested is None else requested,
        max_raw_residual=raw_max, worst=sorted(samples, key=lambda s: -s[2])[:5],
        raw_samples=list(raw_samples))
    report.passed = bool(max_norm <= tolerance and report.sampling_valid)
    return report


def _lattice(grid: RadialGrid, ladder: TimeLadder, exclude_nearest: int,
             theta: float, stride: int = 1):
    """Level-major (level, radius) samples r, t, tm = T - t with a usable
    radial step h = min(theta * ell, 0.45 min(r, 1 - r)) > 0, and the
    number of samples requested."""
    radii = grid.interior()
    radii = radii[radii >= EPS0][::stride]
    keep = len(ladder) - exclude_nearest
    times, tminus = ladder.levels[:keep], ladder.T_minus[:keep]
    r = np.tile(radii, times.size)
    t, tm = np.repeat(times, radii.size), np.repeat(tminus, radii.size)
    h = np.minimum(theta * local_radial_scale(r, tm), 0.45 * np.minimum(r, 1.0 - r))
    usable = h > 0.0
    return r[usable], t[usable], tm[usable], h[usable], r.size


def check_swirl_pde(fam: SolutionFamily, which: str, grid: RadialGrid,
                    ladder: TimeLadder, *, kappa: float = KAPPA,
                    step_scale: float = 1.0, exclude_nearest: int = 2,
                    theta_r: Optional[float] = None) -> ResidualReport:
    """Verify (d_rr + d_r/r - 1/r^2 - d_t) w = RHS through FD stencils.

    For the plain family (``which`` in {"u", "v"}) the right side is the
    scaled forcing; the linear correction alpha*r is annihilated by the
    operator, so both share it. For the log family, ``"eta"`` checks the
    transformed identity directly against the analytic Y sum and ``"vbar"``
    repeats it with the stationary wall term subtracted.
    """
    rhs = _rhs(fam, which)
    theta_r0 = (0.5 / (len(grid) - 1)) if theta_r is None else theta_r
    r, t, tm, h, requested = _lattice(grid, ladder, exclude_nearest,
                                      step_scale * theta_r0)
    ell = local_radial_scale(r, tm)
    h_t = step_scale * np.minimum(1e-5, THETA_T_CAP * ell * ell / 2.0)
    # Where the step reaches t = T, the stencil is one-sided into the past.
    one_sided = h_t >= tm
    tm_a = np.where(one_sided, tm + 2.0 * h_t, tm - h_t)

    # Centre, radial and time neighbours: one kernel call for all stencils.
    w0, wp, wm, wa, wb = _w(fam, which, np.stack((r, r + h, r - h, r, r)),
                            np.stack((tm, tm, tm, tm_a, tm + h_t)))
    d_rr = (wp - 2.0 * w0 + wm) / (h * h)
    d_r_over_r = (wp - wm) / (2.0 * h * r)
    zeroth = w0 / (r * r)
    d_t = np.where(one_sided, (3.0 * w0 - 4.0 * wb + wa) / (2.0 * h_t),
                   (wa - wb) / (2.0 * h_t))
    rhs_v = rhs(r, tm)

    raw = d_rr + d_r_over_r - zeroth - d_t - rhs_v
    mag = np.maximum.reduce([
        np.ones_like(raw), np.abs(w0), np.abs(d_rr), np.abs(d_r_over_r),
        np.abs(zeroth), np.abs(d_t), np.abs(rhs_v)])
    tolerance = kappa * ((step_scale * theta_r0) ** 2 + (step_scale * THETA_T_CAP) ** 2)
    return _report(_EQUATION_OF_WHICH[which],
                   list(zip(r.tolist(), t.tolist(), (np.abs(raw) / mag).tolist())),
                   tolerance, float(np.max(np.abs(raw), initial=0.0)),
                   skipped=requested - r.size, requested=requested,
                   raw_samples=zip(r.tolist(), t.tolist(), raw.tolist()))


def _pressure_rise(fam: SolutionFamily, which: str, r, h, tm,
                   spec: QuadratureSpec) -> np.ndarray:
    """P(r + h) - P(r - h) at each sample's T - t, for 0 < h < r.

    P is fixed up to a constant per time, so the rise is the integral of
    w^2/l over [r - h, r + h]: one row call over all samples, with no
    cancellation against the 1/(T - t) growth of P itself near t = T.
    """
    return _pressure_integral(fam, which, r - h, r + h, tm, spec)


def check_radial_momentum(fam: SolutionFamily, which: str, grid: RadialGrid,
                          ladder: TimeLadder, *, kappa: float = KAPPA,
                          step_scale: float = 1.0, exclude_nearest: int = 2,
                          stride: int = 3,
                          spec: Optional[QuadratureSpec] = None) -> ResidualReport:
    """Verify w^2/r = dP/dr, with dP/dr the pressure rise across
    [r - h, r + h] over 2h (``_pressure_rise``; P itself is never formed)."""
    if which not in ("v", "vbar"):
        raise ValueError("which must be 'v' or 'vbar'")
    if which == "vbar" and fam.part != 2:
        raise ValueError("'vbar' checks need a part-2 family")
    spec = spec or QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=800)
    theta_r0 = 0.5 / (len(grid) - 1)
    r, t, tm, h, requested = _lattice(grid, ladder, exclude_nearest,
                                      step_scale * theta_r0, stride)
    dp = _pressure_rise(fam, which, r, h, tm, spec) / (2.0 * h)
    wv = _w(fam, which, r, tm)
    lhs = wv * wv / r
    raw = lhs - dp
    mag = np.maximum.reduce([np.ones_like(raw), np.abs(lhs), np.abs(dp)])
    return _report("radial_momentum",
                   list(zip(r.tolist(), t.tolist(), (np.abs(raw) / mag).tolist())),
                   kappa * (step_scale * theta_r0) ** 2,
                   float(np.max(np.abs(raw), initial=0.0)),
                   skipped=requested - r.size, requested=requested)


def check_boundary(fam: SolutionFamily, ladder: TimeLadder,
                   tol: float = BOUNDARY_TOL) -> ResidualReport:
    """No-slip at the wall plus the structural horizontal slip conditions.

    The wall values vanish by construction (the linear correction cancels
    the constant wall trace exactly), so the observed residuals sit at
    rounding level. The horizontal conditions are structural: the fields
    carry no vertical dependence and no radial/vertical components, which
    the report records as exact.
    """
    which = ("v",) if fam.part == 1 else ("v", "vbar")
    samples = []
    for name in which:
        wall = np.abs(_w(fam, name, 1.0, ladder.T_minus))
        samples.extend(zip([1.0] * wall.size, ladder.levels.tolist(), wall.tolist()))
    report = _report("boundary", samples, tol, max(s[2] for s in samples))
    report.worst.append(("horizontal slip conditions", "structural", 0.0))
    return report


_BOUND_SHAPES = {
    "u_upper": "|u| (r^2 + T - t) / r",
    "grad_u_upper": "|grad u| (r^2 + T - t)",
    "phi_lower": "r / (u (r^2 + T - t))",
}


def _bound_samples(fam: SolutionFamily, bound: str, grid: RadialGrid,
                   ladder: TimeLadder) -> np.ndarray:
    """The normalised field on the (levels, 1) x (1, radii) lattice, level-major."""
    if bound not in _BOUND_SHAPES:
        raise ValueError(f"unknown bound {bound!r}")
    radii = grid.interior()
    radii = radii[radii >= EPS0]
    tm = ladder.T_minus[:, None]
    shape = radii * radii + tm
    if bound == "grad_u_upper":
        _, uor, du = _jet(fam, radii, tm)
        return (np.sqrt(du * du + uor * uor) * shape).ravel()
    u = _w(fam, "u", radii, tm)
    if bound == "u_upper":
        return (np.abs(u) * shape / radii).ravel()
    if np.any(u <= 0.0):
        raise ValueError("lower bound requires a strictly positive field")
    return (radii / (u * shape)).ravel()


def check_bound(fam: SolutionFamily, bound: str, grid: RadialGrid,
                ladder: TimeLadder, *, drift_tol: float = 0.05) -> BoundCheck:
    """Fit the bound constant as the sampled max and test refinement drift.

    The claimed bounds have unspecified constants depending only on the
    forcing profile; they are realized by fitting C on the sample set and
    requiring < 5% drift when the sample density is doubled.
    """
    if bound == "phi_lower" and fam.part != 2:
        raise ValueError("the lower bound applies to part-2 families")
    base = _bound_samples(fam, bound, grid, ladder)
    fitted = float(np.max(base))

    fine_grid = make_radial_grid(2 * len(grid) - 1, grid.grading)
    fine_ladder = make_time_ladder(ladder.T, ladder.J + 2)
    fine = float(np.max(_bound_samples(fam, bound, fine_grid, fine_ladder)))
    drift = abs(fine - fitted) / max(fitted, np.finfo(float).tiny)
    return BoundCheck(
        name=bound, normalizer=_BOUND_SHAPES[bound], samples=base,
        fitted_C=fitted, refinement_drift=drift,
        passed=bool(drift < drift_tol))


def residual_order(fam: SolutionFamily, which: str, grid: RadialGrid,
                   ladder: TimeLadder, *, checker=check_swirl_pde,
                   scales=(1.0, 0.5), **kwargs) -> tuple[float, list]:
    """Empirical convergence order of a residual check under step halving."""
    reports = [checker(fam, which, grid, ladder, step_scale=s, **kwargs)
               for s in scales]
    orders = []
    for a, b in zip(reports[:-1], reports[1:]):
        ratio = a.max_abs_residual / max(b.max_abs_residual, np.finfo(float).tiny)
        orders.append(float(np.log2(ratio)))
    return min(orders), reports


def report_to_dict(report) -> dict:
    """JSON-shaped view of a report, for the structured text document."""
    if isinstance(report, ResidualReport):
        return {
            "equation": report.equation,
            "tolerance": report.tolerance,
            "max_abs_residual": report.max_abs_residual,
            "max_raw_residual": report.max_raw_residual,
            "sample_count": len(report.samples),
            "skipped": report.skipped,
            "passed": report.passed,
            "worst": [list(w) for w in report.worst],
        }
    if isinstance(report, BoundCheck):
        return {
            "name": report.name,
            "normalizer": report.normalizer,
            "fitted_C": report.fitted_C,
            "refinement_drift": report.refinement_drift,
            "sample_count": int(report.samples.size),
            "passed": report.passed,
        }
    raise TypeError(f"unsupported report type {type(report)!r}")
