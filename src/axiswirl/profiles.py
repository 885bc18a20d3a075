"""Radial swirl profile built from a compactly supported forcing profile.

Given a smooth k supported in [0, 1], the stationary profile in the
self-similar variable solves

    p'' + p'/r - p/r^2 - p - r p' = k(r),    p(0) = 0,

which integrates in closed form through g = r p:

    g(r) = -int_0^r s e^{s^2/2} I(s) ds,    I(s) = int_s^1 e^{-l^2/2} k(l) dl.

Bulk evaluation runs off cached splines of I and g through two paths:
``phi0`` (value only, one g-spline call) and ``jet`` (phi0, phi0/r and
phi0' from one g-spline and one I-spline call). ``phi0_exact``, ``g_exact``
and ``inner_integral`` re-derive values by direct adaptive quadrature and
are the independent reference path.

The splines are numpy only: one private cubic Hermite interpolant serves
the two caches and, with slopes from one tridiagonal solve, the natural
spline of a sampled forcing table. Both are built and evaluated in the
order scipy's ``CubicHermiteSpline`` and ``CubicSpline`` use, so values
agree with scipy's bit for bit, and scipy stays off the import path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from math import fsum
from typing import Callable, Optional

import numpy as np

from .numerics import DEFAULT_SPEC, QuadratureSpec, gauss_panel_sums, integrate

__all__ = [
    "EPS0",
    "ForcingProfile",
    "SwirlProfile",
    "reference_k",
    "zero_forcing",
    "forcing_from_samples",
    "inner_integral",
    "build_profile",
    "ode_residual",
    "profile_table",
]

# Axis cutoff: below this value of the profile variable the closed form is
# 0/0 and evaluation switches to the convergent power series.
EPS0 = 1e-4

# Cache resolution for the I and g splines on [0, 1].
_CACHE_PANELS = 2048


@dataclass(frozen=True)
class ForcingProfile:
    """Smooth forcing profile k(r), identically zero outside [0, 1].

    ``nonpositive``/``nontrivial`` carry the admissibility facts needed by
    the log-transformed solution family (k <= 0 everywhere, k not
    identically zero). ``k_prime0`` is dk/dr at r = 0, used only by the
    axis series (third-order term); zero is a safe default.
    """

    k: Callable[[np.ndarray], np.ndarray]
    nonpositive: bool
    nontrivial: bool
    k_prime0: float = 0.0

    def __call__(self, r):
        return self.k(r)


def _bump(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    inside = (r > 0.0) & (r < 1.0)
    ri = r[inside]
    out[inside] = -np.exp(-1.0 / (ri * (1.0 - ri)))
    return out


def reference_k() -> ForcingProfile:
    """The standard boundary-flat bump k(r) = -exp(-1/(r(1-r))) on (0, 1).

    Smooth on all of R, supported in [0, 1], nonpositive and nontrivial, so
    it satisfies every hypothesis both solution families need.
    """
    return ForcingProfile(k=_bump, nonpositive=True, nontrivial=True)


def bump_forcing(amplitude: float = 1.0) -> ForcingProfile:
    """The reference bump scaled by ``amplitude`` (> 0).

    The construction is linear in the forcing, so scaling only changes the
    solution amplitude. Larger amplitudes pull the log-saturation scale of
    the transformed family into the observable ladder window, which the
    asymptotic norm checks rely on; the admissibility hypotheses are
    unaffected.
    """
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    if amplitude == 1.0:
        return reference_k()
    return ForcingProfile(k=lambda r: amplitude * _bump(r),
                          nonpositive=True, nontrivial=True)


def zero_forcing() -> ForcingProfile:
    """k identically zero; the degenerate profile used by trivial checks."""
    return ForcingProfile(k=lambda r: np.zeros(np.asarray(r, dtype=float).shape),
                          nonpositive=True, nontrivial=False)


def forcing_from_samples(r_samples, k_samples, *, endpoint_tol: float = 1e-12) -> ForcingProfile:
    """Cubic interpolant through sampled (r, k) pairs on [0, 1].

    Endpoint values are forced to zero (with a warning when they exceed
    ``endpoint_tol``) so the support constraint holds exactly.
    """
    r = np.asarray(r_samples, dtype=float)
    k = np.asarray(k_samples, dtype=float).copy()
    if r.ndim != 1 or r.size < 4 or r.shape != k.shape:
        raise ValueError("need at least four aligned (r, k) samples")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(k))):
        raise ValueError("forcing table radii and values must be finite")
    if not np.all(np.diff(r) > 0.0):
        raise ValueError("sample radii must be strictly increasing")
    if r[0] != 0.0 or r[-1] != 1.0:
        raise ValueError("samples must span [0, 1] exactly")
    for idx in (0, -1):
        if abs(k[idx]) > endpoint_tol:
            warnings.warn(
                f"forcing table endpoint k({r[idx]:g}) = {k[idx]:.3e} forced to zero",
                stacklevel=2)
        k[idx] = 0.0
    slopes = _natural_slopes(r, k)
    spline = _Hermite(r, k, slopes)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        inside = (x > 0.0) & (x < 1.0)
        out[inside] = spline(x[inside])
        return out

    probe = np.linspace(0.0, 1.0, 4097)
    vals = evaluate(probe)
    return ForcingProfile(
        k=evaluate,
        nonpositive=bool(np.all(vals <= endpoint_tol)),
        nontrivial=bool(np.any(np.abs(vals) > endpoint_tol)),
        k_prime0=float(slopes[0]),
    )


def inner_integral(k: ForcingProfile, s, spec: QuadratureSpec = DEFAULT_SPEC):
    """I(s) = integral of e^{-l^2/2} k(l) over [s, infinity).

    The support of k truncates the integral exactly at l = 1, so I(s) = 0
    for s >= 1 with no tail approximation. An array of s is one
    row-batched quadrature; a scalar s gives a float.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("inner integral requires s >= 0")
    lo = np.minimum(s, 1.0)
    value, _ = integrate(lambda l: np.exp(-0.5 * l * l) * k(l), lo,
                         np.ones_like(lo), spec)
    return value


@dataclass
class SwirlProfile:
    """Profile bundle: I, g = r*phi0, phi0 and two derivatives, alpha.

    Bulk evaluation runs off cubic Hermite caches whose nodal values come
    from panel-by-panel Gauss sweeps and whose nodal slopes are the exact
    closed forms; interpolation error sits near rounding, far below the
    requested quadrature tolerance. ``g_exact`` and ``phi0_exact`` re-derive
    values by direct adaptive quadrature, independently of the caches.
    ``M0``, ``M1`` and ``A`` are the moments of the closed-form energy (see
    ``norms``), each computed once from the cached profile on first use.
    """

    k: ForcingProfile
    spec: QuadratureSpec
    alpha: float
    I0: float
    g1: float
    _I_spline: _Hermite = field(repr=False)
    _g_spline: _Hermite = field(repr=False)
    _c1: float = field(repr=False)
    _c2: float = field(repr=False)
    _c3: float = field(repr=False)

    # -- inner integral ----------------------------------------------------
    def I(self, s):
        if np.any(np.asarray(s, dtype=float) < 0.0):
            raise ValueError("inner integral requires s >= 0")
        return _below_one(s, self._I_spline)

    # -- g and its closed-form derivatives ---------------------------------
    def g(self, r):
        r_arr, tail, series, mid = _regions(r)
        out = np.empty(r_arr.shape)
        out[tail] = self.g1
        rs = r_arr[series]
        out[series] = rs * rs * (self._c1 + rs * (self._c2 + rs * self._c3))
        out[mid] = self._g_spline(r_arr[mid])
        return out if r_arr.ndim else float(out)

    def g_exact(self, r: float, spec: Optional[QuadratureSpec] = None) -> float:
        """g by direct adaptive quadrature, inner integral re-derived per node."""
        spec = spec or self.spec
        r = float(min(r, 1.0))
        if r <= 0.0:
            return 0.0

        def integrand(s):
            return -s * np.exp(0.5 * s * s) * inner_integral(self.k, s, spec)

        value, _ = integrate(integrand, 0.0, r, spec)
        return value

    def g_prime(self, r):
        return _below_one(r, lambda s: -s * np.exp(0.5 * s * s) * self._I_spline(s))

    def g_second(self, r):
        return _below_one(r, lambda s: (
            -(1.0 + s * s) * np.exp(0.5 * s * s) * self._I_spline(s)
            + s * np.asarray(self.k(s), dtype=float)))

    # -- phi0 family --------------------------------------------------------
    def phi0(self, r):
        """phi0 alone: the value path, one g-spline call and nothing else."""
        r_arr, tail, series, mid = _regions(r)
        out = np.empty(r_arr.shape)
        out[tail] = self.g1 / r_arr[tail]
        rs = r_arr[series]
        out[series] = rs * (self._c1 + rs * (self._c2 + rs * self._c3))
        rm = r_arr[mid]
        out[mid] = self._g_spline(rm) / rm
        return out if r_arr.ndim else float(out)

    def jet(self, r):
        """(phi0, phi0/r, phi0'): the gradient path, one g-spline and one
        I-spline call. phi0/r has the finite axis limit -I(0)/2."""
        r_arr, tail, series, mid = _regions(r)
        phi, over, prime = (np.empty(r_arr.shape) for _ in range(3))
        rt = r_arr[tail]
        phi[tail] = self.g1 / rt
        over[tail] = self.g1 / (rt * rt)
        prime[tail] = -over[tail]
        rs = r_arr[series]
        over[series] = self._c1 + rs * (self._c2 + rs * self._c3)
        phi[series] = rs * over[series]
        prime[series] = self._c1 + rs * (2.0 * self._c2 + 3.0 * self._c3 * rs)
        rm = r_arr[mid]
        gm = self._g_spline(rm)
        phi[mid] = gm / rm
        over[mid] = gm / (rm * rm)
        gpm = -rm * np.exp(0.5 * rm * rm) * self._I_spline(rm)
        prime[mid] = gpm / rm - over[mid]
        if r_arr.ndim:
            return phi, over, prime
        return float(phi), float(over), float(prime)

    def phi0_over_r(self, r):
        """phi0(r)/r with its finite axis limit -I(0)/2."""
        return self.jet(r)[1]

    def phi0_prime(self, r):
        return self.jet(r)[2]

    def phi0_second(self, r):
        r_arr, tail, series, mid = _regions(r)
        out = np.empty(r_arr.shape)
        rt = r_arr[tail]
        out[tail] = 2.0 * self.g1 / (rt ** 3)
        rs = r_arr[series]
        out[series] = 2.0 * self._c2 + 6.0 * self._c3 * rs
        rm = r_arr[mid]
        out[mid] = (self.g_second(rm) / rm - 2.0 * self.g_prime(rm) / (rm * rm)
                    + 2.0 * self.g(rm) / (rm ** 3))
        return out if r_arr.ndim else float(out)

    def phi0_exact(self, r: float, spec: Optional[QuadratureSpec] = None) -> float:
        """phi0 by direct quadrature; the independent path of the two-path check."""
        r = float(r)
        if r <= 0.0:
            return 0.0
        return self.g_exact(r, spec) / r if r < 1.0 else self.g_exact(1.0, spec) / r

    # -- energy moments: the closed-form part-1 energy (see norms) ----------
    @cached_property
    def M0(self) -> float:
        """int_0^1 phi0^2 sigma d sigma."""
        return _unit_moment(lambda s: np.square(self.phi0(s)) * s)

    @cached_property
    def M1(self) -> float:
        """int_0^1 phi0 sigma^2 d sigma."""
        return _unit_moment(lambda s: self.phi0(s) * s * s)

    @cached_property
    def A(self) -> float:
        """int_0^1 (phi0'^2 + (phi0/sigma)^2) sigma d sigma."""
        def density(s):
            _, over, prime = self.jet(s)
            return (np.square(prime) + np.square(over)) * s
        return _unit_moment(density)


def _unit_moment(f) -> float:
    """int_0^1 f by a Gauss sweep over the cache panels.

    The sweep runs 256 panels at a time so its temporaries stay below those
    of ``build_profile``; the panel values do not depend on the split.
    """
    nodes = np.linspace(0.0, 1.0, _CACHE_PANELS + 1)
    return fsum(np.concatenate([gauss_panel_sums(f, nodes[i:i + 257])
                                for i in range(0, _CACHE_PANELS, 256)]))


def _below_one(r, f):
    """f on r < 1, zero on the rest: the support of I and g' and g''."""
    r_arr = np.asarray(r, dtype=float)
    out = np.zeros(r_arr.shape)
    inside = r_arr < 1.0
    out[inside] = f(r_arr[inside])
    return out if r_arr.ndim else float(out)


def _regions(r):
    """r as an array, and its tail (r >= 1), axis-series and spline masks."""
    r_arr = np.asarray(r, dtype=float)
    tail = r_arr >= 1.0
    series = r_arr < EPS0
    return r_arr, tail, series, ~(tail | series)


class _Hermite:
    """Piecewise cubic Hermite interpolant through (x, y) with slopes dydx.

    Coefficients, interval search (clipped to the end intervals, which
    extrapolate) and the ascending-power sum follow scipy's
    ``CubicHermiteSpline``, so values agree with it bit for bit. On nodes
    i/n with n a power of two the interval is floor(n r), exact in binary
    and far cheaper than a sorted search. Coefficients are gathered in one
    ``take`` and updated in place: fresh temporaries cost page faults on
    large blocks.
    """

    def __init__(self, x, y, dydx):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        # Ascending powers of s = r - x[i], one row per interval; scipy's
        # sum starts from 0.0, which turns a -0.0 value into 0.0.
        self._c = np.column_stack((y[:-1] + 0.0, dydx[:-1],
                                   (slope - dydx[:-1]) / dx - t, t / dx))
        self._x = x
        n = dx.size
        self._dyadic = (n & (n - 1) == 0
                        and np.array_equal(x, np.arange(n + 1) / n))

    def __call__(self, r):
        """Values at an array ``r`` of points (at least one dimension)."""
        r = np.asarray(r, dtype=float)
        if not r.size:  # a jet's points often all lie outside the spline
            return np.empty(r.shape)
        n = self._x.size - 1
        if self._dyadic:
            i = r * n
            np.fmin(np.fmax(i, 0.0, out=i), n - 1, out=i)  # NaN goes to 0
            i = i.astype(np.intp)  # the floor, on [0, n - 1]
        else:
            i = np.searchsorted(self._x, r, side="right") - 1
            np.clip(i, 0, n - 1, out=i)
        s = r - self._x.take(i)
        c = self._c.take(i, axis=0)
        c[..., 1] *= s
        out = c[..., 0] + c[..., 1]
        z = s * s
        c[..., 2] *= z
        out += c[..., 2]
        z *= s
        c[..., 3] *= z
        out += c[..., 3]
        return out


def _natural_slopes(x, y) -> np.ndarray:
    """Nodal slopes of the natural cubic spline through (x, y).

    The tridiagonal system is the one scipy's ``CubicSpline(bc_type=
    "natural")`` builds, and it is eliminated in LAPACK ``gtsv``'s order,
    row swaps included, then back-substituted. The loop runs over the
    table's rows in plain floats.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    n = x.size
    d = np.concatenate(([2 * dx[0]], 2 * (dx[:-1] + dx[1:]),
                        [2 * dx[-1]])).tolist()
    du = np.concatenate(([dx[0]], dx[:-1])).tolist()
    dl = np.append(dx[1:], dx[-1]).tolist()
    b = np.concatenate(([3 * (y[1] - y[0])],
                        3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
                        [3 * (y[-1] - y[-2])])).tolist()
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:  # swap rows i and i + 1; dl[i] becomes the fill-in above
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b)


def build_profile(k: ForcingProfile,
                  spec: QuadratureSpec = DEFAULT_SPEC) -> SwirlProfile:
    """Construct the swirl profile for ``k``.

    The caches accumulate panel-by-panel Gauss values (each panel is exact
    to rounding at this resolution); spline slopes are the exact closed
    forms, so cached evaluation is accurate to ~1e-14 absolute, well below
    ``spec`` tolerances.
    """
    nodes = np.linspace(0.0, 1.0, _CACHE_PANELS + 1)

    def i_kernel(l):
        return np.exp(-0.5 * l * l) * np.asarray(k(l), dtype=float)

    seg = gauss_panel_sums(i_kernel, nodes)
    i_nodes = np.concatenate((np.flip(np.cumsum(np.flip(seg))), [0.0]))
    i_slope = -i_kernel(nodes)
    i_spline = _Hermite(nodes, i_nodes, i_slope)

    def g_kernel(s):
        return -s * np.exp(0.5 * s * s) * i_spline(s)

    gseg = gauss_panel_sums(g_kernel, nodes)
    g_nodes = np.concatenate(([0.0], np.cumsum(gseg)))
    g_slope = -nodes * np.exp(0.5 * nodes * nodes) * i_nodes
    g_spline = _Hermite(nodes, g_nodes, g_slope)

    i0 = float(i_nodes[0])
    g1 = float(g_nodes[-1])
    k0 = float(np.asarray(k(np.array([0.0])), dtype=float)[0])
    return SwirlProfile(
        k=k, spec=spec,
        alpha=-g1, I0=i0, g1=g1,
        _I_spline=i_spline, _g_spline=g_spline,
        _c1=-0.5 * i0, _c2=k0 / 3.0, _c3=(k.k_prime0 - i0) / 8.0,
    )


def ode_residual(profile: SwirlProfile, r):
    """Defect of the profile in its defining equation at radius r > 0.

    Assembled from the closed-form derivative chain (never finite
    differences), so quadrature and interpolation are the only error
    sources.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise ValueError("ode_residual requires r > 0")
    p, _, pp = profile.jet(r_arr)
    ps = profile.phi0_second(r_arr)
    kv = np.where(r_arr < 1.0, np.asarray(profile.k(r_arr), dtype=float), 0.0)
    out = ps + pp / r_arr - p / (r_arr * r_arr) - p - r_arr * pp - kv
    return out if r_arr.ndim else float(out)


def profile_table(profile: SwirlProfile, radii) -> np.ndarray:
    """Columns r, phi0, phi0_prime, phi0_second, ode_residual."""
    r = np.asarray(radii, dtype=float)
    return np.column_stack([
        r,
        profile.phi0(r),
        profile.phi0_prime(r),
        profile.phi0_second(r),
        ode_residual(profile, r),
    ])
