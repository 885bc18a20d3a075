"""Residual, boundary, and pointwise-bound verification harness.

The constructed fields are exact solutions; the checks see them through
finite-difference stencils, so pass/fail must be resolution-aware. Every
stencil is sized against the local solution scale

    ell(r, t) = sqrt(r^2 + 2 (T - t))        (radial step h_r = theta_r * ell,
                                              at most 0.45 min(r, 1 - r))
    h_t       = min(1e-5, theta_t ell^2 / 2) (theta_t = THETA_T_CAP)

with theta_r = 1 / (2 (grid_n - 1)) on the uniform grid, and each sample's
residual is normalized by the magnitude of the largest term entering the
equation at that sample. A report passes when every normalized residual
stays below KAPPA * (theta_r^2 + theta_t^2): the truncation of an O(h^2)
stencil applied to the true solution, with the constant KAPPA absorbing
the profile's derivative-growth ratios. Halving the dimensionless
steps must shrink the measured residuals about fourfold, which the
acceptance suite checks explicitly. Where h_t >= T - t the time stencil is
one-sided into the past, (3 w(t) - 4 w(t - h_t) + w(t - 2 h_t)) / (2 h_t),
so h_t never collapses with T - t, at any ladder depth the CLI accepts;
the 1e-5 cap leaves every level with T - t >= 1e-3 on the central stencil.

Every stencil is taken in T - t coordinates: the samples form one
level-major (level, radius) lattice keyed on ``TimeLadder.T_minus``, and
each check evaluates its fields on it in one ``fields`` kernel call.

No check reads the pressure: with no radial or vertical velocity and no z
dependence, the radial momentum balance dP/dr = w^2/r holds by P's
definition. ``tests/test_pressure_closed_form.py`` guards the written P.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import EPS0, SolutionFamily, _jet, _ladder_T_minus, _rhs, _w
from .numerics import TimeLadder
from .profiles import SwirlProfile

__all__ = [
    "ResidualReport",
    "BoundCheck",
    "KAPPA",
    "check_swirl_pde",
    "check_boundary",
    "check_bound",
    "bound_constant",
    "report_to_dict",
]

KAPPA = 100.0
THETA_T_CAP = 1e-2  # h_t / (ell^2 / 2) never exceeds this
BOUNDARY_TOL = 1e-9
# Rounding margin of a bound sample over C*, relative. The lattice and the
# profile path round differently: samples approaching phi_lower's unattained
# limit 1/g1 reach 4e-16 above it on the bump and 69 seeded tables, while
# F on a 2^20-point sigma grid never exceeds C* on the same profiles.
BOUND_SUP_RTOL = 1e-8
EXCLUDE_NEAREST = 2  # ladder levels nearest t = T left out of the residuals

_EQUATION_OF_WHICH = {
    "u": "swirl_pde_part1",
    "v": "swirl_pde_part1",
    "eta": "eta_identity",
    "vbar": "swirl_pde_part2",
}


@dataclass
class ResidualReport:
    """Outcome of one residual check: ``samples`` is an (n, 4) array of rows
    (r, t, normalized residual, raw residual). ``max_abs_residual``, the
    largest normalized residual (NaN if any is), passes at or below
    ``tolerance``; ``worst`` holds (r, t, normalized residual) of the five
    largest, in descending order and ties in sample order."""

    equation: str
    samples: np.ndarray
    tolerance: float
    max_abs_residual: float = field(init=False)
    max_raw_residual: float = field(init=False)
    passed: bool = field(init=False)
    worst: list = field(init=False)

    def __post_init__(self):
        normalized = self.samples[:, 2]
        self.max_abs_residual = float(np.max(normalized, initial=0.0))
        self.max_raw_residual = float(np.max(np.abs(self.samples[:, 3]), initial=0.0))
        self.passed = bool(self.max_abs_residual <= self.tolerance)
        self.worst = self.samples[np.argsort(-normalized, kind="stable")[:5], :3].tolist()


@dataclass
class BoundCheck:
    """A pointwise bound: the sampled constant against the profile's C*."""

    name: str
    normalizer: str
    samples: np.ndarray
    fitted_C: float
    C_star: float
    passed: bool


def _lattice(fam: SolutionFamily, grid_n: int, ladder: TimeLadder, exclude: int = 0):
    """The lattice's axes: the interior radii >= EPS0 of the uniform
    grid_n-node grid on [0, 1], and the levels and T - t of all but the
    ``exclude`` levels nearest t = T."""
    tminus = _ladder_T_minus(fam, ladder)
    radii = np.linspace(0.0, 1.0, grid_n)[1:-1]
    radii = radii[radii >= EPS0]
    keep = len(ladder) - exclude
    if radii.size == 0 or keep < 1:
        raise ValueError(f"no lattice sample remains with grid_n = {grid_n} "
                         f"and J = {ladder.J}")
    return radii, ladder.levels[:keep], tminus[:keep]


def check_swirl_pde(fam: SolutionFamily, which: str, grid_n: int,
                    ladder: TimeLadder, *, step_scale: float = 1.0) -> ResidualReport:
    """Verify (d_rr + d_r/r - 1/r^2 - d_t) w = RHS through FD stencils.

    For the plain family (``which`` in {"u", "v"}) the right side is the
    scaled forcing; the linear correction alpha*r is annihilated by the
    operator, so both share it. For the log family, ``"eta"`` checks the
    transformed identity directly against the analytic Y sum and ``"vbar"``
    repeats it with the stationary wall term subtracted.
    """
    rhs = _rhs(fam, which)
    theta_r0 = 0.5 / (grid_n - 1)
    # Level-major samples r, t, tm = T - t, and the radial step h, > 0 as
    # EPS0 <= r < 1.
    radii, times, tminus = _lattice(fam, grid_n, ladder, EXCLUDE_NEAREST)
    r = np.tile(radii, times.size)
    t, tm = np.repeat(times, radii.size), np.repeat(tminus, radii.size)
    ell = np.sqrt(np.square(r) + 2.0 * tm)
    h = np.minimum(step_scale * theta_r0 * ell, 0.45 * np.minimum(r, 1.0 - r))
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
    tolerance = KAPPA * ((step_scale * theta_r0) ** 2 + (step_scale * THETA_T_CAP) ** 2)
    return ResidualReport(_EQUATION_OF_WHICH[which],
                          np.column_stack((r, t, np.abs(raw) / mag, raw)), tolerance)


def check_boundary(fam: SolutionFamily, ladder: TimeLadder) -> ResidualReport:
    """No-slip at the wall plus the structural horizontal slip conditions.

    The wall values vanish by construction (the linear correction cancels
    the constant wall trace exactly), so the observed residuals sit at
    rounding level. The horizontal conditions are structural: the fields
    carry no vertical dependence and no radial/vertical components, which
    the report records as exact.
    """
    which = ("v",) if fam.part == 1 else ("v", "vbar")
    tm = _ladder_T_minus(fam, ladder)
    wall = np.concatenate([_w(fam, name, 1.0, tm) for name in which])
    t = np.tile(ladder.levels, len(which))
    report = ResidualReport("boundary", np.column_stack(
        (np.ones_like(wall), t, np.abs(wall), wall)), BOUNDARY_TOL)
    report.worst.append(("horizontal slip conditions", "structural", 0.0))
    return report


_BOUND_SHAPES = {
    "u_upper": "|u| (r^2 + T - t) / r",
    "grad_u_upper": "|grad u| (r^2 + T - t)",
    "phi_lower": "r / (u (r^2 + T - t))",
}

# Each shape as F(p/sigma, p', sigma^2 + 1/2) of sigma = r / sqrt(2 (T - t))
# alone, p = phi0, since r^2 + T - t = 2 (T - t) (sigma^2 + 1/2). At sigma = 0
# the h cache gives p/sigma = h(0) = c1 = -I0/2 and p' = -I0 - h(0) = c1:
# the limits |c1|/2, sqrt(2) |c1|/2 and 2/c1.
_BOUND_PROFILES = {
    "u_upper": lambda over, prime, s2: np.abs(over) * s2,
    "grad_u_upper": lambda over, prime, s2: np.hypot(prime, over) * s2,
    "phi_lower": lambda over, prime, s2: 1.0 / (over * s2),
}
_SUP_STEPS = 2048  # the coarse sigma grid i / 2048 and each peak's refinement


def bound_constant(profile: SwirlProfile, bound: str) -> float:
    """C* = sup over sigma > 0 of the bound's F, the exact constant.

    F is sampled on sigma = i/2048, i = 0..2048, and at 2049 points across
    [sigma_{i-1}, sigma_{i+1}] of every coarse local maximum. For sigma >= 1,
    p = g1/sigma: F decreases there for the upper bounds, and rises to the
    unattained limit 1/g1 for ``phi_lower``.
    """
    shape = _BOUND_PROFILES[bound]

    def F(sigma):
        _, over, prime = profile.jet(sigma)
        return shape(over, prime, sigma * sigma + 0.5)

    sigma = np.arange(_SUP_STEPS + 1) / _SUP_STEPS
    coarse = F(sigma)
    edged = np.concatenate(([-np.inf], coarse, [-np.inf]))
    peak = np.flatnonzero((coarse > edged[:-2]) & (coarse >= edged[2:]))
    lo = sigma[np.maximum(peak - 1, 0)]
    hi = sigma[np.minimum(peak + 1, _SUP_STEPS)]
    fine = F(lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, _SUP_STEPS + 1))
    exterior = 1.0 / profile.g1 if bound == "phi_lower" else -np.inf
    return float(np.max(np.concatenate((coarse, fine.ravel(), [exterior]))))


def _bound_samples(fam: SolutionFamily, bound: str, grid_n: int,
                   ladder: TimeLadder) -> np.ndarray:
    """The normalised field on the (levels, 1) x (1, radii) lattice, level-major."""
    if bound not in _BOUND_SHAPES:
        raise ValueError(f"unknown bound {bound!r}")
    radii, _, tm = _lattice(fam, grid_n, ladder)
    tm = tm[:, None]
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


def check_bound(fam: SolutionFamily, bound: str, grid_n: int,
                ladder: TimeLadder) -> BoundCheck:
    """Fit the bound constant as the sampled max and gate it against C*.

    The claimed bounds have constants depending only on the forcing
    profile; the exact one is ``bound_constant``. The check passes when C*
    is finite and every lattice sample, evaluated through the (r, T - t)
    field kernels, stays at or below C* (1 + BOUND_SUP_RTOL).
    """
    if bound == "phi_lower" and fam.part != 2:
        raise ValueError("the lower bound applies to part-2 families")
    samples = _bound_samples(fam, bound, grid_n, ladder)
    fitted = float(np.max(samples))
    c_star = bound_constant(fam.profile, bound)
    return BoundCheck(
        name=bound, normalizer=_BOUND_SHAPES[bound], samples=samples,
        fitted_C=fitted, C_star=c_star,
        passed=bool(np.isfinite(c_star)
                    and fitted <= c_star * (1.0 + BOUND_SUP_RTOL)))


def report_to_dict(report) -> dict:
    """JSON-shaped view of a report, for the structured text document."""
    if isinstance(report, ResidualReport):
        return {
            "equation": report.equation,
            "tolerance": report.tolerance,
            "max_abs_residual": report.max_abs_residual,
            "max_raw_residual": report.max_raw_residual,
            "sample_count": len(report.samples),
            "passed": report.passed,
            "worst": [list(w) for w in report.worst],
        }
    if isinstance(report, BoundCheck):
        return {
            "name": report.name,
            "normalizer": report.normalizer,
            "fitted_C": report.fitted_C,
            "C_star": report.C_star,
            "sample_count": int(report.samples.size),
            "passed": report.passed,
        }
    raise TypeError(f"unsupported report type {type(report)!r}")
