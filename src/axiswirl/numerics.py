"""Shared numerical primitives: adaptive quadrature and the time ladder.

Everything here is deterministic: identical inputs produce bit-identical
outputs. All routines are pure functions. Integrands passed to
:func:`integrate` must accept numpy arrays; they are evaluated on whole node
batches at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum

import numpy as np

from .errors import QuadratureConvergenceError

__all__ = [
    "QuadratureSpec",
    "TimeLadder",
    "DEFAULT_SPEC",
    "deepest_J",
    "integrate",
    "gauss_panel_sums",
]

# Embedded Gauss-Legendre pair: the 21-point rule supplies the panel value,
# |G21 - G10| a conservative panel error estimate. Nodes and weights come
# from numpy at machine precision, so nothing is hand-transcribed.
_X10, _W10 = np.polynomial.legendre.leggauss(10)
_X21, _W21 = np.polynomial.legendre.leggauss(21)
_X31 = np.concatenate((_X10, _X21))
# The fixed rule of the profile's cache sweeps; gauss_panel_sums says why
# four nodes suffice there.
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(4)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget contract for adaptive integration."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 400

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_SPEC = QuadratureSpec()


def gauss_panel_sums(f, nodes) -> np.ndarray:
    """4-point Gauss value of ``f`` on every panel [nodes[i], nodes[i+1]].

    ``f`` is called once on the (panels, 4) node matrix. ``vecdot`` sums
    each row as ``_PANEL_W @ row`` does; a matrix-vector product may
    reorder.

    The rule is fixed, not adaptive, so its error bound sets n. The n-point
    Gauss-Legendre rule on a panel of width w misses by

        w^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) f^(2n)(xi),

    so it is exact up to degree 2n - 1. The profile's panels have
    w = 1/2048, and with n = 4 the factor is 5.6e-10 w^9 = 8.9e-40:
    - n = 4 is exact up to degree 7, which covers the polynomial densities
      s h^2, s h and s^3 h of the cubic h cache;
    - n = 5 would also make M0's s^3 h^2 (degree 9) exact, but its 8th
      derivative, 9! c3^2 s plus lower terms, is below 3e8 for the cubic
      coefficients |c3| <= 25 of h on the bench inputs, so 4 nodes miss by
      under 3e-31 a panel, far below an ulp of M0;
    - the analytic densities of the I, g, A and K1 sweeps vary on scales
      far wider than w, so 4 and 21 nodes agree on them to rounding. At
      the bump's support edges, where e^{-1/x} varies on the scale x^2,
      the panels lie far below an ulp of I0: the I cache stays within
      rounding of I0 there, not of its own tail values near s = 1.
    """
    nodes = np.asarray(nodes, dtype=float)
    half = 0.5 * (nodes[1:] - nodes[:-1])
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    ys = np.asarray(f(mid[:, None] + half[:, None] * _PANEL_X), dtype=float)
    return half * np.vecdot(ys, _PANEL_W)


def integrate(f, a, b, spec: QuadratureSpec = DEFAULT_SPEC, *,
              breakpoints=None):
    """Adaptively integrate ``f`` over ``[a, b]``, one integral per row.

    Parameters
    ----------
    f : callable
        Vectorized integrand; called with a numpy array of nodes strictly
        inside the integration interval, and returns one value per node.
        With array endpoints the nodes form a (rows, nodes) array whose
        row i lies in ``[a[i], b[i]]``; with scalar endpoints they form a
        1-d array.
    a, b : float or 1-d array
        Interval endpoints, ``a <= b``. Scalars are the one-row case and
        give float results; arrays give one integral per row.
    spec : QuadratureSpec
        Stopping tolerances and subdivision budget.
    breakpoints : sequence of float, or (rows, k) array, optional
        Interior points at which the initial panel set is split (useful when
        the integrand has known structure). A sequence cuts every row; row
        i of an array cuts row i. Each row's points are clipped into
        ``[a[i], b[i]]``.

    Returns
    -------
    (value, err_estimate)
        The integral and the accumulated panel error estimate of each row
        (floats for scalar endpoints, arrays otherwise), with
        ``err_estimate <= max(abs_tol, rel_tol * |value|)`` row by row on
        success.

    Raises
    ------
    QuadratureConvergenceError
        If the subdivision budget is exhausted first; the error carries the
        best available value/estimate.

    The rule
    --------
    Row i is cut at ``a[i]``, its breakpoints and ``b[i]`` into the same
    number of segments; a clipped breakpoint leaves a zero-length segment,
    which contributes zero whatever ``f`` gives on its nodes, and segments
    empty in every row are dropped. Each segment is one panel, and a panel
    holds every row's own endpoints ``(x0, x1)``: its nodes are
    ``mid + half * x`` for the embedded 10/21-point Gauss-Legendre nodes
    ``x``, its value the 21-point sum and its error estimate |G21 - G10|.
    Refinement halves the panel with the largest error in the row furthest
    from its tolerance, at ``0.5 * (x0 + x1)`` in every row, so all rows
    share one panel list and ``f`` is called once per panel. The budget
    counts those halvings. Values and error estimates are the ``fsum`` of
    each row's panels; the loop's stopping test uses plain sums.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("integrate needs scalar or 1-d endpoint arrays of one shape")
    if np.any(b < a):
        raise ValueError("integrate requires a <= b")
    lo, hi = a[:, None], b[:, None]
    cuts = [lo]
    if breakpoints is not None:
        inner = np.asarray(breakpoints, dtype=float)
        inner = np.broadcast_to(inner, (a.size, inner.shape[-1]))
        cuts.append(np.clip(np.sort(inner, axis=1), lo, hi))
    pts = np.concatenate((*cuts, hi), axis=1)
    used = np.any(pts[:, 1:] > pts[:, :-1], axis=0)
    n = int(np.count_nonzero(used))
    x0 = np.empty((n + spec.max_subdivisions, a.size))
    x1, vals, errs = np.empty_like(x0), np.empty_like(x0), np.empty_like(x0)
    x0[:n], x1[:n] = pts[:, :-1][:, used].T, pts[:, 1:][:, used].T

    def panel(i):
        half = 0.5 * (x1[i] - x0[i])
        mid = 0.5 * (x0[i] + x1[i])
        xs = mid[:, None] + half[:, None] * _X31
        nodes = xs[0] if scalar else xs
        ys = np.asarray(f(nodes), dtype=float)
        if ys.shape != nodes.shape:
            raise TypeError("integrand must be vectorized (return one value per node)")
        ys = ys.reshape(xs.shape)
        # A zero-length segment of a row contributes zero, whatever f gives
        # on its (degenerate) nodes.
        live = half > 0.0
        v10 = np.where(live, half * (ys[:, :10] @ _W10), 0.0)
        v21 = np.where(live, half * (ys[:, 10:] @ _W21), 0.0)
        vals[i], errs[i] = v21, np.abs(v21 - v10)

    def totals(n):
        # fsum of a list of Python floats: the same sums, without a numpy
        # scalar per panel
        value = [fsum(col) for col in vals[:n].T.tolist()]
        err = [fsum(col) for col in errs[:n].T.tolist()]
        return value, err

    def shaped(v):
        return v[0] if scalar else np.array(v)

    for i in range(n):
        panel(i)
    splits = 0
    while True:
        err = errs[:n].sum(axis=0)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(vals[:n].sum(axis=0)))
        if np.all(err <= tol):
            value, err = totals(n)
            return shaped(value), shaped(err)
        row = int(np.argmax(err / tol))
        if splits >= spec.max_subdivisions:
            value, err = totals(n)
            raise QuadratureConvergenceError(
                f"quadrature did not converge within {spec.max_subdivisions} "
                f"subdivisions (row {row}: best estimate {value[row]!r}, "
                f"err {err[row]!r})", shaped(value), shaped(err))
        worst = int(np.argmax(errs[:n, row]))
        xm = 0.5 * (x0[worst] + x1[worst])
        x0[n], x1[n] = xm, x1[worst]
        x1[worst] = xm
        panel(worst)
        panel(n)
        n += 1
        splits += 1


# Past j = 53, T 2^-j is at most half the spacing of doubles below any T.
MAX_LADDER_J = np.finfo(float).nmant + 1


def deepest_J(T: float) -> int:
    """The largest J <= MAX_LADDER_J whose levels T (1 - 2^-j), formed as in
    ``TimeLadder``, increase strictly and stay below T."""
    levels = T - T * np.power(2.0, -np.arange(1, MAX_LADDER_J + 1, dtype=float))
    good = np.append(True, np.diff(levels) > 0.0) & (levels < T)
    return int(np.argmin(np.append(good, False)))  # the first level that is not


@dataclass(frozen=True)
class TimeLadder:
    """Geometric times t_j = T (1 - 2^-j), j = 1..J, resolving the approach to T.

    ``T_minus`` holds T 2^-j directly, so late levels never suffer the
    cancellation of T - t_j; ``levels`` is T - T_minus. Both derive from
    (T, J), J <= ``deepest_J(T)``, which alone build and compare a ladder.
    """

    T: float
    J: int
    levels: np.ndarray = field(init=False, repr=False, compare=False)
    T_minus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.J <= MAX_LADDER_J:  # before any array is built
            raise ValueError(f"J must lie in [1, {MAX_LADDER_J}], past which "
                             f"T (1 - 2^-J) rounds to T; not {self.J}")
        if not (0.0 < self.T <= 0.5):
            raise ValueError("final time T must lie in (0, 1/2]")
        if self.J > deepest_J(self.T):
            raise ValueError(f"ladder levels must increase strictly below T, as they do "
                             f"to J = {deepest_J(self.T)} at T = {self.T!r}; not {self.J}")
        tminus = self.T * np.power(2.0, -np.arange(1, self.J + 1, dtype=float))
        object.__setattr__(self, "levels", self.T - tminus)
        object.__setattr__(self, "T_minus", tminus)

    def __len__(self):
        return self.J


def empirical_order(coarse_err: float, fine_err: float) -> float:
    """Observed convergence order from one error pair under step halving."""
    if coarse_err <= 0.0 or fine_err <= 0.0:
        return float("nan")
    return float(np.log2(coarse_err / fine_err))
