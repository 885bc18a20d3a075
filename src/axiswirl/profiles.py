"""Radial swirl profile built from a compactly supported forcing profile.

Given a smooth k supported in [0, 1], the stationary profile in the
self-similar variable solves

    p'' + p'/r - p/r^2 - p - r p' = k(r),    p(0) = 0,

which integrates in closed form through g = r p:

    g(r) = -int_0^r s e^{s^2/2} I(s) ds,    I(s) = int_s^1 e^{-l^2/2} k(l) dl.

Bulk evaluation runs off cached splines of I and of h = g/r^2 = phi0/r,
one representation from the axis (where h = -I(0)/2) to r = 1, through two
paths: ``phi0`` (value only, one h-spline call) and ``jet`` (phi0, phi0/r
and phi0' from one h-spline and one I-spline call), neither dividing by r.
``g_exact`` and ``inner_integral`` re-derive values by direct adaptive
quadrature and are the independent reference path.

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
from typing import Callable

import numpy as np

from .numerics import (DEFAULT_SPEC, QuadratureSpec, _PANEL_W, _PANEL_X,
                       gauss_panel_sums, integrate)

__all__ = [
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

# Cache resolution for the I and h splines on [0, 1].
_CACHE_PANELS = 2048

# Panels per gauss_panel_sums call of a sweep: a stack of four densities
# on (512, 4) nodes is 64 KiB, under glibc's 128 KiB mmap threshold.
_SWEEP_CHUNK = 512

# A forcing table's endpoint values above this are reported before they
# are zeroed; a table is nonpositive and nontrivial up to it.
_ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class ForcingProfile:
    """Smooth forcing profile k(r), exactly +0.0 outside (0, 1).

    ``nonpositive``/``nontrivial`` carry the admissibility facts needed by
    the log-transformed solution family (k <= 0 everywhere, k not
    identically zero). The profile needs k alone: its axis value k(0) fixes
    the slope of the h cache there, h'(0) = k(0)/3. ``knots`` are the
    interior radii where the third derivative of k jumps, a table spline's
    breaks; every radial quadrature over k cuts at them. An analytic k has
    none.
    """

    k: Callable[[np.ndarray], np.ndarray]
    nonpositive: bool
    nontrivial: bool
    knots: tuple = ()

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


def forcing_from_samples(r_samples, k_samples) -> ForcingProfile:
    """Cubic interpolant through sampled (r, k) pairs on [0, 1].

    Endpoint values are forced to zero (with a warning when they exceed
    ``_ENDPOINT_TOL``) so the support constraint holds exactly.
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
        if abs(k[idx]) > _ENDPOINT_TOL:
            warnings.warn(
                f"forcing table endpoint k({r[idx]:g}) = {k[idx]:.3e} forced to zero",
                stacklevel=2)
        k[idx] = 0.0
    spline = _Hermite(r, k, _natural_slopes(r, k))

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
        nonpositive=bool(np.all(vals <= _ENDPOINT_TOL)),
        nontrivial=bool(np.any(np.abs(vals) > _ENDPOINT_TOL)),
        knots=tuple(r[1:-1].tolist()),
    )


def inner_integral(k: ForcingProfile, s, spec: QuadratureSpec = DEFAULT_SPEC):
    """I(s) = integral of e^{-l^2/2} k(l) over [s, infinity).

    The support of k truncates the integral exactly at l = 1, so I(s) = 0
    for s >= 1 with no tail approximation. Every row is cut at the knots
    of k, so no panel straddles a jump of its third derivative; a knot
    below s cuts nothing. An array of s is one row-batched quadrature; a
    scalar s gives a float.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("inner integral requires s >= 0")
    lo = np.minimum(s, 1.0)
    value, _ = integrate(lambda l: np.exp(-0.5 * l * l) * k(l), lo,
                         np.ones_like(lo), spec, breakpoints=k.knots)
    return value


@dataclass
class SwirlProfile:
    """Profile bundle: I, g = r*phi0, phi0 and two derivatives, alpha.

    Bulk evaluation runs off cubic Hermite caches of I and of the smooth
    h = g/sigma^2 = p/sigma (p = phi0) on [0, 1], with nodal values from
    panel-by-panel Gauss sweeps and exact closed-form nodal slopes. p/sigma
    is h itself, to rounding relative down to the axis, where h = -I0/2;
    p = sigma h, g = sigma^2 h and p' = -e^{sigma^2/2} I - h divide by
    nothing. For sigma >= 1, g = g1. ``g_exact`` re-derives g by direct
    adaptive quadrature, independently of the caches. ``M0``, ``M1``,
    ``A`` and ``K1``, the moments of the closed forms in ``norms``, are
    views of one moment sweep, ``_moments``: one ``_panel_sweep`` over
    their stacked densities, run once per profile.
    ``pressure_integrals``, the sigma-integrals of the closed-form pressure
    of v, reads one more such sweep, ``_pressure_nodes``, built on first use.
    Every sweep puts the 4-point Gauss rule of ``gauss_panel_sums`` on each
    1/2048 panel: exact for the degree <= 7 densities of the cubic h cache,
    and equal to 21 nodes to rounding on the analytic ones.
    """

    k: ForcingProfile
    alpha: float
    I0: float
    g1: float
    _I_spline: _Hermite = field(repr=False)
    _h_spline: _Hermite = field(repr=False)

    # -- inner integral ----------------------------------------------------
    def I(self, s):
        if np.any(np.asarray(s, dtype=float) < 0.0):
            raise ValueError("inner integral requires s >= 0")
        return _below_one(s, self._I_spline)

    # -- g and its closed-form derivatives ---------------------------------
    def g(self, r):
        r_arr, inside = _inside(r)
        out = np.full(r_arr.shape, self.g1)
        ri = r_arr[inside]
        out[inside] = ri * ri * self._h_spline(ri)
        return out if r_arr.ndim else float(out)

    def g_exact(self, r: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
        """g by direct adaptive quadrature, inner integral re-derived per node."""
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
        """phi0 alone: the value path, one h-spline call and nothing else."""
        r_arr, inside = _inside(r)
        out = np.empty(r_arr.shape)
        ri = r_arr[inside]
        out[inside] = ri * self._h_spline(ri)
        out[~inside] = self.g1 / r_arr[~inside]
        return out if r_arr.ndim else float(out)

    def jet(self, r):
        """(phi0, phi0/r, phi0'): the gradient path, one h-spline and one
        I-spline call. phi0/r is h, with the finite axis limit -I(0)/2."""
        r_arr, inside = _inside(r)
        if r_arr.ndim and inside.all():  # no masks, gathers or scatters
            h = self._h_spline(r_arr)
            return r_arr * h, h, -np.exp(0.5 * r_arr * r_arr) * self._I_spline(r_arr) - h
        phi, over, prime = (np.empty(r_arr.shape) for _ in range(3))
        ri = r_arr[inside]
        hi = self._h_spline(ri)
        phi[inside] = ri * hi
        over[inside] = hi
        prime[inside] = -np.exp(0.5 * ri * ri) * self._I_spline(ri) - hi
        rt = r_arr[~inside]
        phi[~inside] = self.g1 / rt
        with np.errstate(over="ignore"):  # sigma^2 = inf gives the exact limit 0
            over[~inside] = self.g1 / (rt * rt)
        prime[~inside] = -over[~inside]
        if r_arr.ndim:
            return phi, over, prime
        return float(phi), float(over), float(prime)

    def phi0_over_r(self, r):
        """phi0(r)/r with its finite axis limit -I(0)/2."""
        return self.jet(r)[1]

    def phi0_prime(self, r):
        return self.jet(r)[2]

    def phi0_second(self, r):
        """phi0'' = (g'' - 2 phi0')/r for r > 0; at the axis the form is 0/0."""
        r_arr = np.asarray(r, dtype=float)
        out = (self.g_second(r_arr) - 2.0 * self.jet(r_arr)[2]) / r_arr
        return out if r_arr.ndim else float(out)

    # -- moments: the closed forms of the v energy and the forcing norm ------
    @cached_property
    def _moments(self) -> tuple:
        """(M0, M1, A, K1), the fsums of one ``_panel_sweep`` over their
        four densities, stacked: one ``jet`` and one ``k`` call a chunk."""
        def densities(s):
            phi, over, prime = self.jet(s)
            return np.stack((np.square(phi) * s, phi * s * s,
                             (np.square(prime) + np.square(over)) * s,
                             np.abs(self.k(s)) * s))
        # fsum of lists of Python floats: the same sums, without a numpy
        # scalar per panel
        return tuple(fsum(row) for row in _panel_sweep(densities).tolist())

    M0 = property(lambda self: self._moments[0], doc="int_0^1 phi0^2 sigma d sigma.")
    M1 = property(lambda self: self._moments[1], doc="int_0^1 phi0 sigma^2 d sigma.")
    A = property(lambda self: self._moments[2],
                 doc="int_0^1 (phi0'^2 + (phi0/sigma)^2) sigma d sigma.")
    K1 = property(lambda self: self._moments[3], doc="int_0^1 |k(sigma)| sigma d sigma.")

    # -- pressure: the two sigma-integrals of P_v's closed form --------------
    def _pressure_densities(self, s):
        """(s h^2, s h), stacked on a new first axis, from the h cache alone."""
        h = self._h_spline(s)
        sh = s * h
        return np.stack((sh * h, sh))

    @cached_property
    def _pressure_nodes(self) -> np.ndarray:
        """(Q, G) at the cache nodes sigma_i = i/2048, a (2, 2049) array.

        On each cache piece h is one cubic, so s h^2 and s h are
        polynomials of degree 7 and 4 there, and the 4-point Gauss value of
        each panel of one ``_panel_sweep``, exact up to degree 7, is exact
        to rounding; the node values are their running sums from
        Q(0) = G(0) = 0.
        """
        sums = np.cumsum(_panel_sweep(self._pressure_densities), axis=1)
        return np.concatenate((np.zeros((2, 1)), sums), axis=1)

    def pressure_integrals(self, sigma):
        """(Q, G) = (int_0^sigma s h^2 ds, int_0^sigma s h ds), h = phi0/s.

        The self-similar parts of the pressure of v = u + alpha r,

            P_v(r, t) = Q(sigma)/tau + 2 alpha G(sigma) + alpha^2 r^2 / 2,

        tau = 2 (T - t), sigma = r / sqrt(tau). For sigma < 1 each value is
        its node value at i/2048 plus the sweep's 4-point Gauss rule over
        the partial piece [i/2048, sigma], exact on the degree <= 7
        densities of the cubic piece of h. For
        sigma >= 1, h = g1/s^2 gives the exterior in closed form:
        Q = Q(1) + (g1^2/2)(1 - sigma^-2) and G = G(1) + g1 ln sigma.
        Neither the I-spline nor any adaptive quadrature is used.
        """
        sigma = np.asarray(sigma, dtype=float)
        core = np.minimum(sigma, 1.0)
        i = (core * _CACHE_PANELS).astype(np.intp)  # 2048 at sigma >= 1
        x0 = i / _CACHE_PANELS
        half = 0.5 * (core - x0)
        nodes = (x0 + half)[..., None] + half[..., None] * _PANEL_X
        q, g = self._pressure_nodes[:, i] + half * np.vecdot(
            self._pressure_densities(nodes), _PANEL_W)
        outer = np.maximum(sigma, 1.0)
        inv = 1.0 / outer  # squared after dividing: sigma^2 may overflow
        return (q + 0.5 * self.g1 * self.g1 * (1.0 - inv * inv),
                g + self.g1 * np.log(outer))


def _panel_sweep(f) -> np.ndarray:
    """4-point Gauss value of ``f`` on each of the cache panels of [0, 1].

    ``f`` may be vector-valued, with the 4 nodes on its last axis; the
    panels then lie on the last axis of the result. ``gauss_panel_sums``
    runs ``_SWEEP_CHUNK`` = 512 panels a call, so every temporary stays
    under glibc's 128 KiB mmap threshold and in cache; the panel values do
    not depend on the split. ``gauss_panel_sums`` derives the rule.
    """
    nodes = np.linspace(0.0, 1.0, _CACHE_PANELS + 1)
    return np.concatenate([gauss_panel_sums(f, nodes[i:i + _SWEEP_CHUNK + 1])
                           for i in range(0, _CACHE_PANELS, _SWEEP_CHUNK)], axis=-1)


def _below_one(r, f):
    """f on r < 1, zero on the rest: the support of I and g' and g''."""
    r_arr, inside = _inside(r)
    out = np.zeros(r_arr.shape)
    out[inside] = f(r_arr[inside])
    return out if r_arr.ndim else float(out)


def _inside(r):
    """r as an array, and its mask r < 1, where the h cache serves."""
    r_arr = np.asarray(r, dtype=float)
    return r_arr, r_arr < 1.0


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


def build_profile(k: ForcingProfile) -> SwirlProfile:
    """Construct the swirl profile for ``k``.

    The caches accumulate panel-by-panel 4-point Gauss values. The I and g
    kernels are analytic on each 1/2048 panel of the bump and of tables
    whose knots lie on cache nodes (the 33-point bench tables), where 4
    nodes match 21 to rounding; a knot inside a panel, where the third
    derivative of k jumps, costs up to ~1e-14 relative (a 100-point
    table). The build takes 0.6-0.8 ms (2-core Xeon, numpy 2.4).
    Spline slopes are the exact closed forms. The h cache takes h_i = g_i/sigma_i^2 with slopes
    -(e^{sigma^2/2} I + 2h)/sigma, and on the axis node the limits
    h(0) = -I0/2 and h'(0) = k(0)/3, so p/sigma is accurate to ~1e-14
    relative from the axis on, well below the ``DEFAULT_SPEC`` tolerances
    of ``g_exact``.
    """
    nodes = np.linspace(0.0, 1.0, _CACHE_PANELS + 1)

    def i_kernel(l):
        return np.exp(-0.5 * l * l) * np.asarray(k(l), dtype=float)

    seg = _panel_sweep(i_kernel)
    i_nodes = np.concatenate((np.flip(np.cumsum(np.flip(seg))), [0.0]))
    i_slope = -i_kernel(nodes)
    i_spline = _Hermite(nodes, i_nodes, i_slope)

    def g_kernel(s):
        return -s * np.exp(0.5 * s * s) * i_spline(s)

    g_nodes = np.cumsum(_panel_sweep(g_kernel))
    s = nodes[1:]
    h_nodes = g_nodes / (s * s)
    h_slope = -(np.exp(0.5 * s * s) * i_nodes[1:] + 2.0 * h_nodes) / s

    i0 = float(i_nodes[0])
    g1 = float(g_nodes[-1])
    k0 = float(np.asarray(k(np.array([0.0])), dtype=float)[0])
    h_spline = _Hermite(nodes, np.concatenate(([-0.5 * i0], h_nodes)),
                        np.concatenate(([k0 / 3.0], h_slope)))
    return SwirlProfile(k=k, alpha=-g1, I0=i0, g1=g1,
                        _I_spline=i_spline, _h_spline=h_spline)


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
    kv = np.asarray(profile.k(r_arr), dtype=float)  # +0.0 for r >= 1
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
