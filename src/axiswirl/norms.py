"""Energy and forcing-norm series along the blow-up ladder.

Volume integrals over the cylinder reduce to 2*pi times radial integrals
(unit height, no vertical dependence). The kinetic part of the energy is

    2 pi * int_0^1 w(r, t)^2 r dr

and the dissipation accumulates int_0^t of 2 pi * int_0^1 [(d_r w)^2 +
(w/r)^2] r dr, the vertical gradient vanishing identically.

For w = v the energy has a closed form. With tau = 2 (T - t), g1 = g(1) =
-alpha and the profile moments M0 = int_0^1 phi0^2 s ds, M1 = int_0^1
phi0 s^2 ds and A = int_0^1 (phi0'^2 + (phi0/s)^2) s ds,

    E_v(t) = 2 pi [M0 + g1^2/2 ln(1/tau) + 2 alpha tau M1
                   + alpha g1 (1 - tau) + alpha^2/4]
           + 2 pi [(A + g1^2)/2 ln(T/(T - t)) - 2 g1^2 t].

It holds when k is supported in [0, 1], so that phi0 = g1/s for s >= 1,
and when T <= 1/2, so that tau <= 1 and the core r < sqrt(tau) stays
inside the cylinder. v does not depend on the part, so neither does E_v,
and E_v grows exactly like pi (A + 2 g1^2) |ln(T - t)| up to terms affine
in T - t. ``energy_series(fam, "v", ...)`` is this closed form, the
production path. The nested numeric path (``_nested_energy``: every
ladder step's dissipation one row of a single quadrature in T - s, each
panel one radial row call at all its time nodes) is the production path
for vbar, which has no closed form, and the independent check of the
closed form.

The forcing norms are L^1 in space; the time integrability exponent is
classified by fitting the tail growth shape on the last ladder levels and
extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from typing import Optional

import numpy as np

from .fields import SolutionFamily, _axis_breakpoints, _T_minus, _jet, _w, _y_times_r
from .numerics import QuadratureSpec, TimeLadder, integrate
from .profiles import EPS0

__all__ = [
    "NormSeries",
    "Classification",
    "NORM_SPEC",
    "energy",
    "energy_series",
    "spatial_L1",
    "spatial_L1_parts",
    "l1_series",
    "classify_LqtL1x",
    "norm_series_rows",
    "NORM_SERIES_HEADER",
]

NORM_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-8, max_subdivisions=2000)
# The outer time integral of the dissipation rate.
_TIME_SPEC = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-6, max_subdivisions=64)

_L1_QUANTITIES = ("f", "Y1", "Y2", "Y3", "Y4", "Y")


@dataclass(frozen=True)
class NormSeries:
    """One scalar quantity sampled along a time ladder.

    ``normalizers`` hold the claimed growth shape at each level, so
    ``values / normalizers`` should stay bounded when the claim holds.
    """

    quantity: str
    ladder: TimeLadder
    values: np.ndarray
    normalizers: np.ndarray

    def __post_init__(self):
        if not (len(self.values) == len(self.normalizers) == len(self.ladder)):
            raise ValueError("series length must match the ladder")

    @property
    def ratios(self) -> np.ndarray:
        return np.asarray(self.values) / np.asarray(self.normalizers)


@dataclass(frozen=True)
class Classification:
    """Outcome of an L^q_t integrability scan.

    ``finite`` is None when the tail fit was inconclusive (non-monotone
    data); that outcome is deliberately distinct from finite/infinite.
    """

    finite: Optional[bool]
    estimate: float
    model: str
    tail_exponent: float = 0.0


def _gradient_density(fam: SolutionFamily, which: str):
    if which == "v":
        alpha = fam.alpha

        def density(r, tm):
            _, uor, du = _jet(fam, r, tm)
            return (np.square(du + alpha) + np.square(uor + alpha)) * r
    elif which == "vbar":
        lam = fam.log_wall

        def density(r, tm):
            u, uor, du = _jet(fam, r, tm)
            # log1p(u)/r with its axis limit u/r * (log1p(u)/u) -> u/r.
            small = np.abs(u) < 1e-8
            scale = np.where(small, 1.0 - 0.5 * u, np.log1p(u) / np.where(small, 1.0, u))
            eta_over_r = uor * scale
            return (np.square(du / (1.0 + u) - lam)
                    + np.square(eta_over_r - lam)) * r
    else:
        raise ValueError("which must be 'v' or 'vbar'")
    return density


def _kinetic(fam: SolutionFamily, which: str, t, spec: QuadratureSpec,
             T_minus=None):
    # An array of times is one row-batched radial quadrature.
    tm = _T_minus(fam, t, T_minus)

    def integrand(r):
        wv = _w(fam, which, r, tm[..., None])
        return wv * wv * r

    value, _ = integrate(integrand, np.zeros_like(tm), np.ones_like(tm), spec,
                         breakpoints=_axis_breakpoints(tm))
    return 2.0 * np.pi * value


def _dissipation_steps(fam: SolutionFamily, which: str, tm_edges,
                       spec: QuadratureSpec) -> np.ndarray:
    """Dissipation over each step between successive (decreasing) T - t
    values ``tm_edges``: one row call in u = T - s, which keeps full relative
    precision near the final time. Each row starts as one panel, refined
    by the adaptive engine alone; each panel takes the radial integrals at
    all its (rows, 31) time nodes in one row call, node i seeded at the
    width of its own u_i."""
    u_hi, u_lo = tm_edges[:-1], tm_edges[1:]
    density = _gradient_density(fam, which)

    def rates(u):
        flat = u.ravel()
        edges = np.zeros(flat.shape)
        value, _ = integrate(lambda r: density(r, flat[:, None]), edges,
                             edges + 1.0, spec, breakpoints=_axis_breakpoints(flat))
        return 2.0 * np.pi * value.reshape(u.shape)

    return integrate(rates, u_lo, u_hi, _TIME_SPEC)[0]


def _dissipation_integral(fam: SolutionFamily, which: str, t_lo: float,
                          t_hi: float, spec: QuadratureSpec, *, T_minus=None) -> float:
    """Dissipation accumulated over [t_lo, t_hi], the one-row view of
    ``_dissipation_steps``; ``T_minus`` is the pair (T - t_lo, T - t_hi)
    when the caller holds it free of cancellation."""
    tm_edges = _T_minus(fam, (t_lo, t_hi), T_minus)
    return float(_dissipation_steps(fam, which, tm_edges, spec)[0])


def energy(fam: SolutionFamily, which: str, t: float,
           spec: QuadratureSpec = NORM_SPEC) -> float:
    """Kinetic energy at time t plus dissipation accumulated over [0, t].

    The nested numeric path for one time: the time integral over [0, t] is
    one row that the adaptive engine refines toward ``t``, where the rate
    grows as the final time approaches.
    """
    if t >= fam.T:
        raise ValueError("energy is defined for t < T")
    return (_kinetic(fam, which, float(t), spec)
            + _dissipation_integral(fam, which, 0.0, float(t), spec))


_ENERGY_NORMALIZER = {
    "energy_v": lambda tm: np.abs(np.log(tm)),
    "energy_vbar": lambda tm: np.ones_like(tm),
}


def _energy_v(fam: SolutionFamily, ladder: TimeLadder) -> np.ndarray:
    """The closed-form energy of v at every ladder level (module docstring)."""
    prof = fam.profile
    alpha, g1 = fam.alpha, prof.g1
    tm = ladder.T_minus
    tau = 2.0 * tm
    kinetic = (prof.M0 - 0.5 * g1 * g1 * np.log(tau) + 2.0 * alpha * tau * prof.M1
               + alpha * g1 * (1.0 - tau) + 0.25 * alpha * alpha)
    dissipation = (0.5 * (prof.A + g1 * g1) * np.log(fam.T / tm)
                   - 2.0 * g1 * g1 * ladder.levels)
    return 2.0 * np.pi * (kinetic + dissipation)


def _nested_energy(fam: SolutionFamily, which: str, ladder: TimeLadder,
                   spec: QuadratureSpec) -> np.ndarray:
    """The nested numeric path at every ladder level: the kinetic term in
    one radial row call, and the dissipation of every step in one
    ``_dissipation_steps`` call between the ladder's exact ``T_minus``."""
    kinetic = _kinetic(fam, which, ladder.levels, spec, T_minus=ladder.T_minus)
    tm_edges = np.concatenate(([fam.T], ladder.T_minus))
    return kinetic + np.cumsum(_dissipation_steps(fam, which, tm_edges, spec))


def energy_series(fam: SolutionFamily, which: str, ladder: TimeLadder,
                  spec: QuadratureSpec = NORM_SPEC) -> NormSeries:
    """Energy at every ladder level.

    ``v`` takes the closed form; ``vbar`` the nested numeric path.
    """
    if which == "v":
        values = _energy_v(fam, ladder)
    else:
        values = _nested_energy(fam, which, ladder, spec)
    quantity = f"energy_{which}"
    return NormSeries(
        quantity=quantity, ladder=ladder, values=np.asarray(values),
        normalizers=_ENERGY_NORMALIZER[quantity](ladder.T_minus))


def spatial_L1_parts(fam: SolutionFamily, quantity: str, t,
                     spec: QuadratureSpec = NORM_SPEC, *, T_minus=None):
    """(main, axis) split of the spatial L^1 norm at time t.

    ``main`` integrates over [1e-4, 1]; ``axis`` covers the remaining
    sliver (0, 1e-4], where the integrand runs through the profile's series
    form, and is reported separately so it is never silently dropped.
    ``T_minus`` is T - t when the caller holds it free of cancellation
    (``TimeLadder.T_minus``); by default it is formed from t. An array of
    times gives arrays, each part one row-batched quadrature.
    """
    if quantity not in _L1_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if quantity != "f" and fam.part != 2:
        raise ValueError("Y quantities need a part-2 family")
    tm = _T_minus(fam, t, T_minus)

    def integrand(r):
        return _y_times_r(fam, quantity, r, tm[..., None])

    edge, seeds = np.full_like(tm, EPS0), _axis_breakpoints(tm)
    main, _ = integrate(integrand, edge, np.ones_like(tm), spec,
                        breakpoints=seeds)
    axis, _ = integrate(integrand, np.zeros_like(tm), edge, spec,
                        breakpoints=seeds)
    return 2.0 * np.pi * main, 2.0 * np.pi * axis


def spatial_L1(fam: SolutionFamily, quantity: str, t: float,
               spec: QuadratureSpec = NORM_SPEC) -> float:
    """Spatial L^1 norm including the axis contribution."""
    main, axis = spatial_L1_parts(fam, quantity, t, spec)
    return main + axis


def _log_recip(tm):
    return np.log(1.0 / tm)


_L1_NORMALIZER = {
    "f": lambda tm: 1.0 / np.sqrt(tm),
    "Y1": lambda tm: np.square(_log_recip(tm)),
    "Y2": _log_recip,
    "Y3": lambda tm: np.ones_like(tm),
    "Y4": _log_recip,
    "Y": lambda tm: np.square(_log_recip(tm)),
}


def l1_series(fam: SolutionFamily, quantity: str, ladder: TimeLadder,
              spec: QuadratureSpec = NORM_SPEC) -> NormSeries:
    main, axis = spatial_L1_parts(fam, quantity, ladder.levels, spec,
                                  T_minus=ladder.T_minus)
    values = main + axis
    return NormSeries(
        quantity=f"L1_{quantity}", ladder=ladder, values=values,
        normalizers=_L1_NORMALIZER[quantity](ladder.T_minus))


# --- L^q_t classification ----------------------------------------------------

_TAIL_SHAPES = {"const": np.ones_like, "log": _log_recip,
                "log2": lambda u: np.square(_log_recip(u))}
_TAIL_MODELS = (*_TAIL_SHAPES, "power")
TAIL_LEVELS = 8  # the ladder levels a tail shape is fitted on


def _tail_fit(u: np.ndarray, v: np.ndarray):
    """Fit v(u) on the last ladder levels; u = T - t decreasing."""
    best = None
    for model in _TAIL_MODELS:
        if model == "power":
            if np.any(v <= 0.0):
                continue
            coef = np.polyfit(np.log(u), np.log(v), 1)
            p = -float(coef[0])
            fitted = np.exp(np.polyval(coef, np.log(u)))
            params = (float(np.exp(coef[1])), p)
        else:
            design = np.column_stack([np.ones_like(u), _TAIL_SHAPES[model](u)])
            coef, *_ = np.linalg.lstsq(design, v, rcond=None)
            fitted = design @ coef
            params = (float(coef[0]), float(coef[1]))
        sse = float(np.sum(np.square(fitted - v)))
        if best is None or sse < best[0]:
            best = (sse, model, params)
    return best[1], best[2]


def _tail_integral(model: str, params, q: float, u_last: float) -> tuple[bool, float]:
    """Integral of |model(u)|^q du over (0, u_last]."""
    if model == "power":
        amp, p = params
        if p * q >= 1.0:
            return False, inf
        return True, (amp ** q) * u_last ** (1.0 - p * q) / (1.0 - p * q)
    a0, a1 = params

    def integrand(u):
        return np.abs(a0 + a1 * _TAIL_SHAPES[model](u)) ** q

    value, _ = integrate(integrand, 0.0, u_last,
                         QuadratureSpec(abs_tol=1e-12, rel_tol=1e-6,
                                        max_subdivisions=400))
    return True, value


def classify_LqtL1x(series: NormSeries, q: float) -> Classification:
    """Decide whether int_0^T ||.||^q dt converges.

    The measured part integrates the series by trapezoid; the unreachable
    tail beyond the last ladder level is extrapolated from the best-fitting
    growth shape among {const, log, log^2, power}, fitted on the last
    TAIL_LEVELS levels. A tail non-monotone there is reported as
    inconclusive rather than coerced.
    """
    if q <= 0.0:
        raise ValueError("q must be positive")
    v = np.asarray(series.values, dtype=float)
    t = np.asarray(series.ladder.levels, dtype=float)
    tm = np.asarray(series.ladder.T_minus, dtype=float)
    if np.all(np.abs(v) < 1e-300):
        return Classification(finite=True, estimate=0.0, model="zero")

    m = min(TAIL_LEVELS, v.size)
    v_tail = v[-m:]
    diffs = np.diff(v_tail)
    if not (np.all(diffs >= -1e-12 * np.abs(v_tail[:-1]))
            or np.all(diffs <= 1e-12 * np.abs(v_tail[:-1]))):
        return Classification(finite=None, estimate=float("nan"), model="inconclusive")

    main = float(np.trapezoid(np.abs(v) ** q, t)) + (abs(v[0]) ** q) * float(t[0])
    model, params = _tail_fit(tm[-m:], v_tail)
    tail_ok, tail = _tail_integral(model, params, q, float(tm[-1]))
    exponent = params[1] if model == "power" else 0.0
    if not tail_ok:
        return Classification(finite=False, estimate=inf, model=model,
                              tail_exponent=exponent)
    estimate = main + tail
    return Classification(finite=isfinite(estimate), estimate=estimate,
                          model=model, tail_exponent=exponent)


NORM_SERIES_HEADER = ["j", "t_j", "T_minus_t", "value", "normalizer", "ratio"]


def norm_series_rows(series: NormSeries) -> np.ndarray:
    j = np.arange(1, len(series.ladder) + 1, dtype=float)
    return np.column_stack([
        j, series.ladder.levels, series.ladder.T_minus,
        series.values, series.normalizers, series.ratios,
    ])
