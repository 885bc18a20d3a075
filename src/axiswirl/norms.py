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
production path. The nested numeric path (``_nested_energy``) is the
production path for vbar, which has no closed form, and the independent
check of the closed form. Each step's dissipation splits at the core edge
r = sqrt(2u), u = T - s: the core is one row of a single quadrature in u;
outside it sigma >= 1, phi0 = g1/sigma and the density D(r) is time-free,
so by Fubini the exterior of [u_lo, u_hi] is one radial row from
sqrt(2 u_lo) to 1 with the weight clip(r^2/2 - u_lo, 0, u_hi - u_lo).

The forcing norms are L^1 in space. h = k(sigma) / tau^{3/2} lives in
r < sqrt(tau) <= 1, so ||h||_{L^1} = 2 pi K1 / sqrt(tau), K1 = int_0^1 |k|
sigma d sigma (``l1_series``; ``spatial_L1`` checks it). The five Y
series have no closed form: ``y_series`` takes them in one stacked
quadrature from the axis to the wall, like every L^1 norm.

Each L^q_t verdict is its series' growth law in u = T - t. ||f||_{L^1} =
2 pi K1 (2u)^{-1/2} is applied, not fitted: f lies in L^q_t iff q < 2, and
int_0^T ||f||^q dt = (2 pi K1)^q (2T)^{-q/2} T / (1 - q/2). ||Y||_{L^1} ~
(pi/2) ln^2(1/u) is checked on the last ladder levels: its second
differences over pi ln^2 2 tend to 1 once Richardson steps remove the
deficit's sqrt(u) and u terms; Y lies in L^q_t for every q.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import inf
from typing import Optional

import numpy as np

from .fields import (_Y_NAMES, SolutionFamily, _axis_breakpoints, _h, _jet,
                     _ladder_T_minus, _log1p, _T_minus, _w, _y)
from .numerics import QuadratureSpec, TimeLadder, integrate

__all__ = [
    "NormSeries",
    "Classification",
    "NORM_SPEC",
    "energy_series",
    "spatial_L1",
    "l1_series",
    "y_series",
    "classify_LqtL1x",
    "norm_series_rows",
    "NORM_SERIES_HEADER",
]

NORM_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-8, max_subdivisions=2000)
# The outer time integral of the core dissipation rate.
_TIME_SPEC = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-6, max_subdivisions=64)


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

    ``model`` names the growth law that gave the verdict. ``finite`` is
    None, and ``model`` "inconclusive", when the series breaks its law on
    the checked window; that outcome is deliberately distinct from
    finite/infinite. ``law_headroom`` is |measured - law|/tolerance there,
    0.0 where the law is applied rather than checked.
    """

    finite: Optional[bool]
    estimate: float
    model: str
    law_headroom: float = 0.0


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
            scale = np.where(small, 1.0 - 0.5 * u, _log1p(fam, u) / np.where(small, 1.0, u))
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
                         breakpoints=_axis_breakpoints(fam, tm))
    return 2.0 * np.pi * value


def _dissipation_steps(fam: SolutionFamily, which: str, tm_edges,
                       spec: QuadratureSpec) -> np.ndarray:
    """Dissipation over each step between successive (decreasing) T - t
    values ``tm_edges``, split at the core edge (module docstring). The core
    is one row call in u = T - s, which keeps full relative precision near
    the final time, each row one panel refined by the adaptive engine alone;
    each panel takes the core integrals at all its (rows, 31) time nodes in
    one row call, node i from the axis to sqrt(2 u_i). The exterior is one
    radial row per step, its density taken at u_lo (sigma >= 1 on every
    node). Both take the cuts of ``_axis_breakpoints`` that fall inside
    them, and the exterior adds the kink of its Fubini weight at
    sqrt(2 u_hi)."""
    u_hi, u_lo = tm_edges[:-1], tm_edges[1:]
    density = _gradient_density(fam, which)

    def rates(u):
        flat = u.ravel()
        value, _ = integrate(lambda r: density(r, flat[:, None]), np.zeros(flat.shape),
                             np.sqrt(2.0 * flat), spec,
                             breakpoints=_axis_breakpoints(fam, flat))
        return 2.0 * np.pi * value.reshape(u.shape)

    lo, width = u_lo[:, None], (u_hi - u_lo)[:, None]
    exterior, _ = integrate(
        lambda r: density(r, lo) * np.clip(0.5 * r * r - lo, 0.0, width),
        np.sqrt(2.0 * u_lo), np.ones(u_lo.shape), spec,
        breakpoints=np.column_stack((np.sqrt(2.0 * u_hi), _axis_breakpoints(fam, u_lo))))
    return integrate(rates, u_lo, u_hi, _TIME_SPEC)[0] + 2.0 * np.pi * exterior


_ENERGY_NORMALIZER = {
    "energy_v": lambda tm: np.abs(np.log(tm)),
    "energy_vbar": lambda tm: np.ones_like(tm),
}


def _energy_v(fam: SolutionFamily, ladder: TimeLadder) -> np.ndarray:
    """The closed-form energy of v at every ladder level (module docstring)."""
    prof = fam.profile
    alpha, g1 = fam.alpha, prof.g1
    tm = _ladder_T_minus(fam, ladder)
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
    tm = _ladder_T_minus(fam, ladder)
    # Dissipation first: _gradient_density rejects a field before any quadrature.
    steps = _dissipation_steps(fam, which, np.concatenate(([fam.T], tm)), spec)
    kinetic = _kinetic(fam, which, ladder.levels, spec, T_minus=tm)
    return kinetic + np.cumsum(steps)


def energy_series(fam: SolutionFamily, which: str, ladder: TimeLadder) -> NormSeries:
    """Energy at every ladder level.

    ``v`` takes the closed form; ``vbar`` the nested numeric path.
    """
    if which == "v":
        values = _energy_v(fam, ladder)
    else:
        values = _nested_energy(fam, which, ladder, NORM_SPEC)
    quantity = f"energy_{which}"
    return NormSeries(
        quantity=quantity, ladder=ladder, values=np.asarray(values),
        normalizers=_ENERGY_NORMALIZER[quantity](ladder.T_minus))


def _l1(fam: SolutionFamily, quantities, tm, spec: QuadratureSpec):
    """L^1 norms of ``quantities`` at the 1-d ``tm``, (quantities, times):
    one call from the axis to the wall on rows stacked quantity-major,
    whose blocks share every node, so a panel evaluates one kernel once."""
    rows = tm.size

    def integrand(r):
        r, tm_rows = r[:rows], tm[:, None]
        ys = ({"f": _h(fam, r, tm_rows)} if quantities == ("f",)
              else dict(zip(_Y_NAMES, _y(fam, r, tm_rows))))
        return np.concatenate([np.abs(ys[q]) * r for q in quantities])

    tms = np.tile(tm, len(quantities))
    value, _ = integrate(integrand, np.zeros_like(tms), np.ones_like(tms), spec,
                         breakpoints=_axis_breakpoints(fam, tms))
    return 2.0 * np.pi * value.reshape(len(quantities), rows)


def spatial_L1(fam: SolutionFamily, quantity: str, t,
               spec: QuadratureSpec = NORM_SPEC, *, T_minus=None):
    """Spatial L^1 norm at time t, the one-quantity view of ``_l1``.

    ``T_minus`` is T - t free of cancellation (``TimeLadder.T_minus``); by
    default it is formed from t. An array of times gives an array.
    """
    if quantity not in ("f", *_Y_NAMES):
        raise ValueError(f"unknown quantity {quantity!r}")
    tm = _T_minus(fam, t, T_minus)
    return _l1(fam, (quantity,), tm.ravel(), spec).reshape(tm.shape)[()]


def _log_recip(tm):
    return -np.log(tm)


_L1_NORMALIZER = {
    "f": lambda tm: 1.0 / np.sqrt(tm),
    "Y1": lambda tm: np.square(_log_recip(tm)),
    "Y2": _log_recip,
    "Y3": lambda tm: np.ones_like(tm),
    "Y4": _log_recip,
    "Y": lambda tm: np.square(_log_recip(tm)),
}
# The leading coefficient of the part-2 right side's claimed growth law in
# u = T - t, (pi/2) ln^2(1/u).
_Y_LAW = np.pi / 2.0


def y_series(fam: SolutionFamily, ladder: TimeLadder) -> list:
    """The L^1 series of Y1..Y4 and Y from one stacked call."""
    values = _l1(fam, _Y_NAMES, _ladder_T_minus(fam, ladder), NORM_SPEC)
    return [NormSeries(quantity=f"L1_{q}", ladder=ladder, values=v,
                       normalizers=_L1_NORMALIZER[q](ladder.T_minus))
            for q, v in zip(_Y_NAMES, values)]


def l1_series(fam: SolutionFamily, ladder: TimeLadder) -> NormSeries:
    """The L^1 series of the forcing f, 2 pi K1 / sqrt(2 (T - t)) in closed form."""
    tm = _ladder_T_minus(fam, ladder)
    return NormSeries(quantity="L1_f", ladder=ladder,
                      values=2.0 * np.pi * fam.profile.K1 / np.sqrt(2.0 * tm),
                      normalizers=_L1_NORMALIZER["f"](tm))


# --- L^q_t classification ----------------------------------------------------

TAIL_LEVELS = 8  # the ladder levels the L1_Y growth law is checked on
_laggauss = functools.cache(np.polynomial.laguerre.laggauss)  # built on first use


def _law_headroom(v: np.ndarray) -> float:
    """|measured - law|/tolerance of the L1_Y law on the window (module
    docstring). The tolerance is the quadrature's own error, amplified by
    the second difference and the two Richardson steps, and nothing else:
    a term read off the data, such as the limit's last change, would let
    an alternating error widen its own tolerance."""
    scale = 2.0 * _Y_LAW * np.log(2.0) ** 2
    d = np.diff(v, 2) / scale
    tolerance = 4.0 * max(NORM_SPEC.abs_tol, NORM_SPEC.rel_tol * np.max(np.abs(v))) / scale
    for r in (np.sqrt(0.5), 0.5):  # the deficit 1 - d decays like sqrt(u), then u
        d = (d[1:] - r * d[:-1]) / (1.0 - r)
        tolerance *= (1.0 + r) / (1.0 - r)
    return float(abs(d[-1] - 1.0) / tolerance)


def _law_tail(tm: np.ndarray, v: np.ndarray, q: float) -> float:
    """Integral of |law|^q over (0, u_J], u_J = T - t_J, for the L1_Y law
    P(ln(1/u)), P(s) = a s^2 + c1 s + c0, a = pi/2 and c1, c0 fitted on the
    window. In s = ln(1/u) = s_J + x it is u_J int_0^inf e^-x |P(s_J + x)|^q
    dx, the weight of the 16-point Gauss-Laguerre rule. The rule is exact to
    degree 31 in x; on (s_J + x)^2q it misses by (16!)^2 |binom(2q, 32)|/s_J^32
    relative, at most 1.4e-21 for q = 1.5 ... 4 since s_J >= 19 at every
    classification depth."""
    logs = _log_recip(tm)
    coef = (_Y_LAW, *np.polyfit(logs, v - _Y_LAW * np.square(logs), 1))
    x, w = _laggauss(16)
    return float(tm[-1] * (w @ np.abs(np.polyval(coef, logs[-1] + x)) ** q))


def classify_LqtL1x(series: NormSeries, q: float) -> Classification:
    """Decide whether int_0^T ||.||^q dt converges.

    ``L1_f`` takes the verdict and the estimate from its closed form
    (module docstring), with 2 pi K1 = v_J sqrt(2 u_J) read from the last
    level. ``L1_Y``'s growth law is checked on the last TAIL_LEVELS levels.
    When it holds, the law gives the verdict, and the estimate is the
    ladder integral plus the law's Gauss-Laguerre tail beyond it: in
    x = ln(T/u), u = T - t, with levels at x_j = j ln 2, g = u |v|^q is
    log-linear on each step and on the first step continued to x = 0. A
    law that fails is inconclusive, not coerced.
    """
    if q <= 0.0:
        raise ValueError("q must be positive")
    v = np.asarray(series.values, dtype=float)
    tm = series.ladder.T_minus  # a float array (TimeLadder)
    if np.all(np.abs(v) < 1e-300):
        return Classification(finite=True, estimate=0.0, model="zero")
    if series.quantity == "L1_f":
        if q >= 2.0:
            return Classification(finite=False, estimate=inf, model="power")
        T = series.ladder.T
        scale = v[-1] * np.sqrt(2.0 * tm[-1])
        return Classification(finite=True, model="power",
                              estimate=float(scale ** q * (2.0 * T) ** (-q / 2) * T
                                             / (1.0 - q / 2)))

    headroom = _law_headroom(v[-TAIL_LEVELS:])
    if not headroom <= 1.0:
        return Classification(finite=None, estimate=float("nan"), model="inconclusive",
                              law_headroom=headroom)
    g = tm * np.abs(v) ** q
    g = np.concatenate(([g[0] * (g[0] / g[1])], g))  # g_0 = g_1^2/g_2 at x = 0
    step = np.diff(g)  # a step adds ln 2 times the log mean of its ends, or g_j
    estimate = _law_tail(tm[-TAIL_LEVELS:], v[-TAIL_LEVELS:], q) + np.log(2.0) * float(
        np.sum(np.divide(step, np.log1p(step / g[:-1]), out=g[:-1].copy(),
                         where=step != 0.0)))
    return Classification(finite=True, estimate=estimate, model="log2",
                          law_headroom=headroom)


NORM_SERIES_HEADER = ["j", "t_j", "T_minus_t", "value", "normalizer", "ratio"]


def norm_series_rows(series: NormSeries) -> np.ndarray:
    j = np.arange(1, len(series.ladder) + 1, dtype=float)
    return np.column_stack([
        j, series.ladder.levels, series.ladder.T_minus,
        series.values, series.normalizers, series.ratios,
    ])
