"""Independent reference paths for the tests.

Composite Simpson with Richardson extrapolation over a dyadic refinement
ladder, deliberately separate from the package's Gauss-Legendre machinery
so it can serve as an oracle for it. The frozen constants in
``reference_values.py`` were produced with these routines; a test re-derives
them to guard against drift.

Beside them sit the check paths that no CLI command needs: central
differences (``differentiate``), phi0 by direct quadrature
(``phi0_exact``) and the observed order of the residual stencils
(``residual_order``).
"""

from __future__ import annotations

import numpy as np

from axiswirl.numerics import DEFAULT_SPEC, QuadratureSpec, empirical_order
from axiswirl.verify import check_swirl_pde


def differentiate(f, x: float, h: float, order: int = 1) -> float:
    """Central finite difference of ``f`` at ``x`` with step ``h``.

    Order 1 uses the two-point stencil, order 2 the three-point stencil;
    both have O(h^2) truncation error. Exceptions raised by ``f`` (for
    instance domain errors from field evaluators) propagate unchanged.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    raise ValueError("order must be 1 or 2")


def phi0_exact(profile, r: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """phi0 of ``profile`` by direct quadrature, g_exact(min(r, 1))/r: the
    independent path of the two-path check."""
    r = float(r)
    if r <= 0.0:
        return 0.0
    return profile.g_exact(min(r, 1.0), spec) / r


def residual_order(fam, which: str, grid, ladder) -> tuple[float, list]:
    """Empirical convergence order of ``check_swirl_pde`` under step halving."""
    coarse, fine = (check_swirl_pde(fam, which, grid, ladder, step_scale=s)
                    for s in (1.0, 0.5))
    order = empirical_order(coarse.max_abs_residual,
                            max(fine.max_abs_residual, np.finfo(float).tiny))
    return order, [coarse, fine]


def simpson(f, a: float, b: float, n: int) -> float:
    """Composite Simpson on n (even) panels."""
    if n % 2:
        raise ValueError("n must be even")
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def simpson_richardson(f, a: float, b: float, *, n0: int = 64,
                       levels: int = 6) -> float:
    """Richardson-extrapolated Simpson; error orders h^4, h^6, ... removed."""
    vals = [simpson(f, a, b, n0 * 2 ** m) for m in range(levels)]
    order = 4
    while len(vals) > 1:
        fac = 2.0 ** order
        vals = [(fac * vals[i + 1] - vals[i]) / (fac - 1.0)
                for i in range(len(vals) - 1)]
        order += 2
    return vals[0]


def bump(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    inside = (r > 0.0) & (r < 1.0)
    ri = r[inside]
    out[inside] = -np.exp(-1.0 / (ri * (1.0 - ri)))
    return out


def inner_integral_oracle(s: float) -> float:
    """I(s) for the reference bump, by Simpson-Richardson."""
    if s >= 1.0:
        return 0.0
    return simpson_richardson(lambda l: np.exp(-0.5 * l * l) * bump(l), s, 1.0)


def alpha_oracle() -> float:
    """Nested Simpson-Richardson value of the wall constant for the bump."""
    def outer(s):
        s = np.atleast_1d(s)
        inner = np.array([inner_integral_oracle(float(v)) for v in s])
        return s * np.exp(0.5 * s * s) * inner

    return simpson_richardson(outer, 0.0, 1.0, n0=32, levels=5)


def abs_k_moment_oracle() -> float:
    """Integral of |k*(s)| s ds over [0, 1], by Simpson-Richardson."""
    return simpson_richardson(lambda s: np.abs(bump(s)) * s, 0.0, 1.0)
