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
formed and checked once by ``_T_minus``. Only ``evaluate``,
``eval_pressure`` and ``field_slice_rows`` take t: they validate (r, t),
form T - t once and call the kernels.
Each rule is checked where its value is formed: ``_w`` rejects an unknown
field name, and ``_log1p``, which forms every log(1 + u), a part-1 family.
The pressure of v (``evaluate``'s ``"P"`` and the ``P`` column of
``field_slice_rows``) is the closed form ``_pressure_v``: by
self-similarity, the integral of v^2/l from the axis is
Q(sigma)/tau + 2 alpha G(sigma) + alpha^2 r^2 / 2, with Q and G from
``SwirlProfile.pressure_integrals``. The quadrature path ``eval_pressure``
integrates w^2/l keyed on each row's T - t from the axis, cut by
``_axis_breakpoints`` like every radial integral; it checks
the closed form and is the only path for vbar.
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
    "evaluate",
    "eval_pressure",
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


def _T_minus(fam: SolutionFamily, t, T_minus=None):
    """Validate t against [0, T) and return T - t, the one place it is
    formed from t. Ladder callers pass the cancellation-free
    ``TimeLadder.T_minus`` instead; t itself is validated either way."""
    t = np.asarray(t, dtype=float)
    if np.any(t >= fam.T):
        raise BlowupTimeError(f"time at or beyond the final time T = {fam.T}")
    if not np.all(t >= 0.0):  # NaN fails this too
        raise DomainError("time not in [0, T)")
    return fam.T - t if T_minus is None else np.asarray(T_minus, dtype=float)


def _ladder_T_minus(fam: SolutionFamily, ladder) -> np.ndarray:
    """The ladder's cancellation-free T - t, the one way a ladder consumer
    reads it: a ladder built for another final time is rejected."""
    if ladder.T != fam.T:
        raise ValueError(f"ladder built for T = {ladder.T!r}, not T = {fam.T!r}")
    return ladder.T_minus


def _validate(fam: SolutionFamily, r, t):
    r = np.asarray(r, dtype=float)
    if not np.all((r >= 0.0) & (r <= 1.0)):  # NaN fails this too
        raise DomainError("radius outside the cylinder [0, 1]")
    return r, _T_minus(fam, t)


# Kernels below take validated radii r and tm = T - t; tau = 2 tm.

def _w(fam: SolutionFamily, which: str, r, tm):
    """Value path: u, v, eta or vbar from phi0 alone (no I-spline, no jet)."""
    if which not in ("u", "v", "eta", "vbar"):
        raise ValueError(f"unknown field {which!r}")
    root = np.sqrt(2.0 * tm)
    u = fam.profile.phi0(r / root) / root
    if which == "u":
        return u
    if which == "v":
        return u + fam.alpha * r
    eta = _log1p(fam, u)
    return eta if which == "eta" else eta - fam.log_wall * r


def _jet(fam: SolutionFamily, r, tm):
    """Gradient path: (u, u/r, du/dr) from one profile jet."""
    tau = 2.0 * tm
    root = np.sqrt(tau)
    phi, phi_over_s, dphi = fam.profile.jet(r / root)
    return phi / root, phi_over_s / tau, dphi / tau


def _log1p(fam: SolutionFamily, u):
    """log(1 + u) for eta, vbar, the Y terms and the vbar dissipation density."""
    if fam.part != 2:
        raise ValueError("eta, vbar and the Y terms are defined for part-2 families")
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
    eta = _log1p(fam, u)
    one_plus = 1.0 + u
    r2 = r * r
    y1 = -eta / r2
    y2 = u / (r2 * one_plus)
    y3 = _h(fam, r, tm) / one_plus
    y4 = -np.square(du / one_plus)
    return y1, y2, y3, y4, y1 + y2 + y3 + y4


def _rhs(fam: SolutionFamily, which: str):
    """Kernel (r, tm) of the right side of the equation ``which`` solves:
    the forcing for u and v, the Y sum for eta and vbar (``_w`` checks the name)."""
    if which in ("u", "v"):
        return lambda r, tm: _h(fam, r, tm)
    return lambda r, tm: _y(fam, r, tm)[4]


def _axis_breakpoints(fam: SolutionFamily, tm):
    """Initial panel cuts of every radial integral, one row per entry of
    tm: sqrt(2 tm) times one sigma-list. It holds the forcing's knots, where
    k''' jumps and a panel spanning many spline pieces can have both Gauss
    rules agree on a wrong value, and {1/4, ..., 4}, so no first panel
    misses the core, continued by factors of 4 out to the wall: past the
    core every integrand falls like a power of r, and one panel from
    4 sqrt(2 tm) to 1 misses that mass while both rules agree once
    T - t < ~1e-13. ``integrate`` drops the cuts outside a row's limits."""
    scale = np.sqrt(2.0 * tm)
    reach = int(np.ceil(np.log(0.25 / np.min(scale, initial=0.25)) / np.log(4.0)))
    sigmas = np.concatenate((fam.profile.k.knots, [0.25, 0.5, 1.0, 2.0, 4.0],
                             4.0 ** np.arange(2, reach + 2)))
    return np.multiply.outer(scale, sigmas)


def _pressure_integral(fam: SolutionFamily, which: str, r, tm,
                       spec: QuadratureSpec):
    """The integral of w^2/l over (0, r] at T - t = tm, one row per entry
    (a float for scalars); it extends by zero at the axis since w = O(l)."""
    tm_rows = np.asarray(tm)[..., None]

    def integrand(l):
        wl = _w(fam, which, l, tm_rows)
        return wl * wl / np.where(l > 0.0, l, 1.0)

    return integrate(integrand, np.zeros_like(r), r, spec,
                     breakpoints=_axis_breakpoints(fam, tm))[0]


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
    return _pressure_integral(fam, which, r, tm, spec)


def _pressure_v(fam: SolutionFamily, r, tm):
    """The integral of v^2/l over (0, r] in closed form. With v = u + alpha l
    and u = sigma h(sigma)/sqrt(tau), the terms u^2/l, 2 alpha u and
    alpha^2 l integrate to Q(sigma)/tau, 2 alpha G(sigma) and alpha^2 r^2/2;
    ``SwirlProfile.pressure_integrals`` gives Q and G."""
    tau = 2.0 * tm
    q, g = fam.profile.pressure_integrals(r / np.sqrt(tau))
    alpha = fam.alpha
    return q / tau + 2.0 * alpha * g + 0.5 * alpha * alpha * r * r


def evaluate(fam: SolutionFamily, which: str, r, t):
    """The field ``which`` of the family at the points (r, t) broadcast; a
    scalar r and t give a float.

    ``which`` is one of ``u``, ``v`` (u + alpha r), ``eta`` (log(1 + u)),
    ``vbar`` (eta - log(1 - alpha) r), ``h`` (the forcing, zero for
    sigma >= 1), ``P`` (the closed-form pressure of v, zero at the axis),
    ``u_over_r``, ``du_dr``, or a term of the log-transformed equation:

        Y1 = -eta / r^2,            Y2 = u / (r^2 (1 + u)),
        Y3 = h / (1 + u),           Y4 = -(du/dr / (1 + u))^2,

    and ``Y`` their sum. eta, vbar and the Y terms need a part-2 family.
    Y1 and Y2 each grow like 1/r at the axis, so the Y terms are served for
    r >= EPS0 only.
    """
    rr, tm = _validate(fam, r, t)
    if which in _Y_NAMES:
        if np.any(rr < EPS0):
            raise DomainError(f"Y components are served for r >= {EPS0:g}")
        value = _y(fam, rr, tm)[_Y_NAMES.index(which)]
    elif which in ("u", "v", "eta", "vbar"):
        value = _w(fam, which, rr, tm)
    elif which in ("u_over_r", "du_dr"):
        value = _jet(fam, rr, tm)[1 if which == "u_over_r" else 2]
    elif which == "h":
        value = _h(fam, rr, tm)
    elif which == "P":
        value = _pressure_v(fam, rr, tm)
    else:
        raise ValueError(f"unknown field {which!r}")
    return float(value) if np.ndim(r) == 0 and np.ndim(t) == 0 else value


FIELD_SLICE_HEADER = ["r", "t", "sigma", "u", "v", "eta", "vbar", "P", "h",
                      "Y1", "Y2", "Y3", "Y4"]


def field_slice_rows(fam: SolutionFamily, radii, times) -> np.ndarray:
    """Time-major field slice in one pass over the (time, radius) lattice;
    part-1 families report NaN for log fields. ``evaluate`` is the one-field
    view."""
    radii, times = np.asarray(radii, dtype=float), np.asarray(times, dtype=float)
    r, t = np.tile(radii, times.size), np.repeat(times, radii.size)
    r, tm = _validate(fam, r, t)
    values = {"u": _w(fam, "u", r, tm), "v": _w(fam, "v", r, tm),
              "h": _h(fam, r, tm), "P": _pressure_v(fam, r, tm)}
    if fam.part == 2:
        values.update(eta=_w(fam, "eta", r, tm), vbar=_w(fam, "vbar", r, tm))
        # The Y components grow like 1/r at the axis: NaN below r = EPS0.
        served = r >= EPS0
        for name, y in zip(_Y_NAMES, _y(fam, r[served], tm[served])):
            values[name] = np.full(r.shape, np.nan)
            values[name][served] = y
    nan = np.full(r.shape, np.nan)
    return np.column_stack([r, t, r / np.sqrt(2.0 * tm)]
                           + [values.get(name, nan) for name in FIELD_SLICE_HEADER[3:]])
