"""Space-time evaluation of the blow-up swirl family and its log transform.

All fields are axisymmetric and swirl-only: the radial and vertical velocity
components vanish and nothing depends on the vertical coordinate, so the
data model carries (r, t) only and volume integrals over the cylinder reduce
to 2*pi times radial integrals.

The primary family is

    u(r, t) = phi0(sigma) / sqrt(2 (T - t)),   sigma = r / sqrt(2 (T - t)),
    v       = u + alpha * r,

which is singular at t = T, and the log-transformed family

    eta  = log(1 + u),          vbar = eta - log(1 - alpha) * r,

defined when the forcing profile is nonpositive (u >= 0).

The one time coordinate is tm = T - t. The kernels (``_w``: u, v, eta,
vbar from phi0; ``_jet``: u, u/r, du/dr; ``_h``, ``_y``, ``_rhs``) take
unchecked radii and tm of broadcastable shapes; verify, norms and oracle
pass ``TimeLadder.T_minus`` (free of the cancellation in T - t_j) or tm
formed and checked once by ``_T_minus``. Only the public evaluators take t,
for tests and export: they validate (r, t), form T - t once, call a kernel.
The pressure of v in ``field_slice_rows`` and ``sample`` is the closed
form ``_pressure_v``: by self-similarity, the integral of v^2/l from the
axis is Q(sigma)/tau + 2 alpha G(sigma) + alpha^2 r^2 / 2, with Q and G
from ``SwirlProfile.pressure_integrals``. The one pressure integrand,
w^2/l keyed on each row's T - t, is the quadrature path ``eval_pressure``
(from the axis, cut by ``_axis_breakpoints`` like every radial integral
from the axis), which checks the closed form and is the only path for
vbar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupTimeError, DomainError, InvariantViolation
from .numerics import DEFAULT_SPEC, QuadratureSpec, integrate
from .profiles import SwirlProfile

__all__ = [
    "EPS0",
    "SolutionFamily",
    "FieldSample",
    "VectorFieldValue",
    "eval_u",
    "eval_v",
    "eval_eta",
    "eval_vbar",
    "eval_du_dr",
    "eval_pressure",
    "eval_h",
    "eval_Y",
    "sample",
    "velocity",
    "field_slice_rows",
    "FIELD_SLICE_HEADER",
]


# Pointwise floor of the Y components: Y1 and Y2 each grow like 1/r at the
# axis, so they are served for r >= EPS0. The profile itself needs no floor.
EPS0 = 1e-4


@dataclass(frozen=True)
class SolutionFamily:
    """A finite-cylinder solution family with final time T in (0, 1/2].

    ``part`` selects the plain swirl solution (1) or its log transform (2).
    Part 2 requires a nonpositive forcing profile so that u >= 0; a trivial
    (identically zero) profile is accepted and simply yields zero fields,
    although the blow-up statements are then empty.
    """

    profile: SwirlProfile
    T: float = 0.5
    part: int = 1

    def __post_init__(self):
        if not (0.0 < self.T <= 0.5):
            raise ValueError("final time T must lie in (0, 1/2]")
        if self.part not in (1, 2):
            raise ValueError("part must be 1 or 2")
        if self.part == 2 and not self.profile.k.nonpositive:
            raise ValueError("part 2 requires a nonpositive forcing profile")

    @property
    def alpha(self) -> float:
        return self.profile.alpha

    @property
    def log_wall(self) -> float:
        """log(1 - alpha), the wall value of eta."""
        return float(np.log1p(-self.profile.alpha))


@dataclass(frozen=True)
class FieldSample:
    """All fields of the family evaluated at one (r, t) point."""

    r: float
    t: float
    sigma: float
    values: dict


@dataclass(frozen=True)
class VectorFieldValue:
    """Cylindrical velocity components; swirl-only fields by construction."""

    v_theta: float
    v_r: float = 0.0
    v_3: float = 0.0


def _T_minus(fam: SolutionFamily, t, T_minus=None):
    """Validate t against [0, T) and return T - t, the one place it is
    formed from t. Ladder callers pass the cancellation-free
    ``TimeLadder.T_minus`` instead; t itself is validated either way."""
    t = np.asarray(t, dtype=float)
    if np.any(t >= fam.T):
        raise BlowupTimeError(f"time at or beyond the final time T = {fam.T}")
    if np.any(t < 0.0):
        raise DomainError("negative time")
    return fam.T - t if T_minus is None else np.asarray(T_minus, dtype=float)


def _ladder_T_minus(fam: SolutionFamily, ladder) -> np.ndarray:
    """The ladder's cancellation-free T - t, the one way a ladder consumer
    reads it: a ladder built for another final time is rejected."""
    if ladder.T != fam.T:
        raise ValueError(f"ladder built for T = {ladder.T!r}, not T = {fam.T!r}")
    return ladder.T_minus


def _validate(fam: SolutionFamily, r, t):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r > 1.0):
        raise DomainError("radius outside the cylinder [0, 1]")
    return r, _T_minus(fam, t)


def _shaped(value, r, t):
    if np.ndim(r) == 0 and np.ndim(t) == 0:
        return float(value)
    return value


# Kernels below take validated radii r and tm = T - t; tau = 2 tm.

def _w(fam: SolutionFamily, which: str, r, tm):
    """Value path: u, v, eta or vbar from phi0 alone (no I-spline, no jet)."""
    root = np.sqrt(2.0 * tm)
    u = fam.profile.phi0(r / root) / root
    if which == "u":
        return u
    if which == "v":
        return u + fam.alpha * r
    if fam.part != 2:
        raise ValueError(f"{which} is defined for part-2 families")
    eta = _log1p(u)
    return eta if which == "eta" else eta - fam.log_wall * r


def _jet(fam: SolutionFamily, r, tm):
    """Gradient path: (u, u/r, du/dr) from one profile jet."""
    tau = 2.0 * tm
    root = np.sqrt(tau)
    phi, phi_over_s, dphi = fam.profile.jet(r / root)
    return phi / root, phi_over_s / tau, dphi / tau


def _log1p(u):
    if np.any(u <= -1.0):
        raise InvariantViolation("1 + u must stay positive for admissible forcing")
    return np.log1p(u)


def _h(fam: SolutionFamily, r, tm):
    tau = 2.0 * tm
    sigma = r / np.sqrt(tau)
    # Every ForcingProfile is +0.0 for sigma >= 1, so k needs no mask here.
    k = np.asarray(fam.profile.k(sigma), dtype=float)
    scale = np.power(tau, 1.5)
    if scale.all():
        return k / scale
    # tau^1.5 underflows to 0 below tau = 1.8e-216; where k = 0 there, h is
    # +0.0, not 0/0.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((k == 0.0) & (scale == 0.0), 0.0, k / scale)


_Y_NAMES = ("Y1", "Y2", "Y3", "Y4", "Y")


def _y(fam: SolutionFamily, r, tm):
    u, _, du = _jet(fam, r, tm)
    eta = _log1p(u)
    one_plus = 1.0 + u
    r2 = r * r
    y1 = -eta / r2
    y2 = u / (r2 * one_plus)
    y3 = _h(fam, r, tm) / one_plus
    y4 = -np.square(du / one_plus)
    return y1, y2, y3, y4, y1 + y2 + y3 + y4


def _rhs(fam: SolutionFamily, which: str):
    """Kernel (r, tm) of the right side of the equation ``which`` solves:
    the forcing for u and v, the Y sum for eta and vbar."""
    if which in ("u", "v"):
        return lambda r, tm: _h(fam, r, tm)
    if which not in ("eta", "vbar"):
        raise ValueError(f"unknown field {which!r}")
    if fam.part != 2:
        raise ValueError(f"{which!r} checks need a part-2 family")
    return lambda r, tm: _y(fam, r, tm)[4]


def _field(fam: SolutionFamily, which: str, r, t):
    rr, tm = _validate(fam, r, t)
    return _shaped(_w(fam, which, rr, tm), r, t)


def _gradient(fam: SolutionFamily, r, t):
    """(u, u/r, du/dr) at the caller's points from one gradient-path call."""
    rr, tm = _validate(fam, r, t)
    return tuple(_shaped(v, r, t) for v in _jet(fam, rr, tm))


def eval_u(fam: SolutionFamily, r, t):
    """Swirl component of the self-similar solution."""
    return _field(fam, "u", r, t)


def eval_u_over_r(fam: SolutionFamily, r, t):
    """u/r with its finite axis limit; used by gradient-type integrands."""
    return _gradient(fam, r, t)[1]


def eval_du_dr(fam: SolutionFamily, r, t):
    """Radial derivative of u from the analytic profile chain."""
    return _gradient(fam, r, t)[2]


def eval_v(fam: SolutionFamily, r, t):
    """Swirl component with the wall-cancelling linear correction."""
    return _field(fam, "v", r, t)


def eval_eta(fam: SolutionFamily, r, t):
    """log(1 + u); requires the part-2 admissible family."""
    return _field(fam, "eta", r, t)


def eval_vbar(fam: SolutionFamily, r, t):
    """eta minus its wall value times r; vanishes at both r = 0 and r = 1."""
    return _field(fam, "vbar", r, t)


def eval_h(fam: SolutionFamily, r, t):
    """Forcing swirl component of the plain family.

    Supported where sigma < 1, i.e. r < sqrt(2 (T - t)); zero outside.
    """
    rr, tm = _validate(fam, r, t)
    return _shaped(_h(fam, rr, tm), r, t)


def _axis_breakpoints(tm):
    """Initial panel cuts for a radial integral from the axis, one row per
    entry of tm: sqrt(2 tm) * {1/4, ..., 4}, so no first panel misses the
    core, continued by factors of 4 out to the wall. Past the core every such
    integrand falls like a power of r, and one panel from 4 sqrt(2 tm) to 1
    misses that mass while both Gauss rules agree once T - t < ~1e-13."""
    scale = np.sqrt(2.0 * tm)
    reach = int(np.ceil(np.log(0.25 / np.min(scale, initial=0.25)) / np.log(4.0)))
    factors = np.concatenate(([0.25, 0.5, 1.0, 2.0, 4.0], 4.0 ** np.arange(2, reach + 2)))
    return np.multiply.outer(scale, factors)


def _pressure_integral(fam: SolutionFamily, which: str, a, b, tm,
                       spec: QuadratureSpec, breakpoints=None):
    """The integral of w^2/l over [a, b] at T - t = tm, one row per entry
    (a float for scalars); it extends by zero at the axis since w = O(l)."""
    tm_rows = np.asarray(tm)[..., None]

    def integrand(l):
        wl = _w(fam, which, l, tm_rows)
        return wl * wl / np.where(l > 0.0, l, 1.0)

    return integrate(integrand, a, b, spec, breakpoints=breakpoints)[0]


def eval_pressure(fam: SolutionFamily, which: str, r, t,
                  spec: QuadratureSpec = DEFAULT_SPEC):
    """Pressure normalized to P(0, t) = 0: the integral of w^2/l over (0, r].

    ``which`` selects the swirl field w (``"v"`` or ``"vbar"``). Arrays of
    radii and times broadcast to one row per point, all in one row-batched
    quadrature; a scalar r and t give a float.
    """
    if which not in ("v", "vbar"):
        raise ValueError("which must be 'v' or 'vbar'")
    r, tm = np.broadcast_arrays(*_validate(fam, r, t))
    return _pressure_integral(fam, which, np.zeros_like(r), r, tm, spec,
                              _axis_breakpoints(tm))


def _pressure_v(fam: SolutionFamily, r, tm):
    """The integral of v^2/l over (0, r] in closed form. With v = u + alpha l
    and u = sigma h(sigma)/sqrt(tau), the terms u^2/l, 2 alpha u and
    alpha^2 l integrate to Q(sigma)/tau, 2 alpha G(sigma) and alpha^2 r^2/2;
    ``SwirlProfile.pressure_integrals`` gives Q and G."""
    tau = 2.0 * tm
    q, g = fam.profile.pressure_integrals(r / np.sqrt(tau))
    alpha = fam.alpha
    return q / tau + 2.0 * alpha * g + 0.5 * alpha * alpha * r * r


def eval_Y(fam: SolutionFamily, r, t):
    """The four forcing components of the log-transformed equation.

    Returns (Y1, Y2, Y3, Y4, Y) with

        Y1 = -eta / r^2,            Y2 = u / (r^2 (1 + u)),
        Y3 = h / (1 + u),           Y4 = -(du/dr / (1 + u))^2,

    and Y their sum. The first two each grow like 1/r at the axis, so
    evaluation is restricted to r >= EPS0. The L^1 norms integrate the
    kernel from the axis, whose Gauss nodes never reach r = 0.
    """
    if fam.part != 2:
        raise ValueError("Y is defined for part-2 families")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < EPS0):
        raise DomainError(f"Y components are served for r >= {EPS0:g}")
    rr, tm = _validate(fam, r_arr, t)
    return tuple(_shaped(v, r, t) for v in _y(fam, rr, tm))


def _fields_at(fam: SolutionFamily, r, t):
    """(sigma, every field as an array) at the points (r, t) broadcast; the
    Y components grow like 1/r at the axis: NaN below r = EPS0."""
    r, tm = np.broadcast_arrays(*_validate(fam, r, t))
    values = {"u": _w(fam, "u", r, tm), "v": _w(fam, "v", r, tm),
              "h": _h(fam, r, tm), "P": _pressure_v(fam, r, tm)}
    if fam.part == 2:
        for which in ("eta", "vbar"):
            values[which] = _w(fam, which, r, tm)
        served = r >= EPS0
        for name, y in zip(_Y_NAMES, _y(fam, r[served], tm[served])):
            values[name] = np.full(r.shape, np.nan)
            values[name][served] = y
    return r / np.sqrt(2.0 * tm), values


def sample(fam: SolutionFamily, r: float, t: float) -> FieldSample:
    """Every field of the family at one point, for export and inspection."""
    r = float(r)
    t = float(t)
    sigma, values = _fields_at(fam, np.array([r]), t)
    return FieldSample(r=r, t=t, sigma=float(sigma[0]),
                       values={k: float(v[0]) for k, v in values.items()
                               if r >= EPS0 or k not in _Y_NAMES})


def velocity(fam: SolutionFamily, which: str, r: float, t: float) -> VectorFieldValue:
    """Full cylindrical velocity vector; radial and vertical parts are zero."""
    w = {"u": eval_u, "v": eval_v, "vbar": eval_vbar}[which]
    return VectorFieldValue(v_theta=float(w(fam, r, t)))


FIELD_SLICE_HEADER = ["r", "t", "sigma", "u", "v", "eta", "vbar", "P", "h",
                      "Y1", "Y2", "Y3", "Y4"]


def field_slice_rows(fam: SolutionFamily, radii, times) -> np.ndarray:
    """Time-major field slice in one pass over the (time, radius) lattice;
    part-1 families report NaN for log fields. ``sample`` is the one-point
    view."""
    radii, times = np.asarray(radii, dtype=float), np.asarray(times, dtype=float)
    r, t = np.tile(radii, times.size), np.repeat(times, radii.size)
    sigma, values = _fields_at(fam, r, t)
    nan = np.full(r.shape, np.nan)
    return np.column_stack([r, t, sigma] + [values.get(name, nan)
                                            for name in FIELD_SLICE_HEADER[3:]])
