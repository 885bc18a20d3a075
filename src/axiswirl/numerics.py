"""Shared numerical primitives: adaptive quadrature, difference stencils, grids.

Everything here is deterministic: identical inputs produce bit-identical
outputs. All routines are pure functions. Integrands passed to
:func:`integrate` must accept numpy arrays; they are evaluated on whole node
batches at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import QuadratureConvergenceError

__all__ = [
    "QuadratureSpec",
    "RadialGrid",
    "TimeLadder",
    "DEFAULT_SPEC",
    "integrate",
    "gauss_panel_sums",
    "differentiate",
    "make_radial_grid",
    "make_time_ladder",
]

# Embedded Gauss-Legendre pair: the 21-point rule supplies the panel value,
# |G21 - G10| a conservative panel error estimate. Nodes and weights come
# from numpy at machine precision, so nothing is hand-transcribed.
_X10, _W10 = np.polynomial.legendre.leggauss(10)
_X21, _W21 = np.polynomial.legendre.leggauss(21)
_X31 = np.concatenate((_X10, _X21))


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
    """21-point Gauss value of ``f`` on every panel [nodes[i], nodes[i+1]].

    ``f`` is called once on the (panels, 21) node matrix. Each row gets its
    own dot product: one matrix-vector product would reorder the sums.
    """
    nodes = np.asarray(nodes, dtype=float)
    half = 0.5 * (nodes[1:] - nodes[:-1])
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    ys = np.asarray(f(mid[:, None] + half[:, None] * _X21), dtype=float)
    return half * np.array([_W21 @ row for row in ys])


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
        the integrand has known structure). Row i is split at its own
        points, clipped into ``[a[i], b[i]]``.

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
    if breakpoints is not None and a.size:  # reshape cannot size k for no rows
        inner = np.asarray(breakpoints, dtype=float).reshape(a.size, -1)
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
        value = [fsum(col) for col in vals[:n].T]
        err = [fsum(col) for col in errs[:n].T]
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


@dataclass(frozen=True)
class RadialGrid:
    """Ordered radii in [0, 1]; the outer wall is always the last node."""

    nodes: np.ndarray
    grading: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if nodes[0] < 0.0 or nodes[-1] != 1.0:
            raise ValueError("grid must start at r >= 0 and end exactly at r = 1")
        if self.grading not in ("uniform", "geometric"):
            raise ValueError(f"unknown grading {self.grading!r}")

    def __len__(self):
        return self.nodes.size

    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]


def make_radial_grid(n: int, grading: str = "uniform", ratio: float = 0.85) -> RadialGrid:
    """Build an ``n``-node grid on [0, 1].

    ``geometric`` grading shrinks the spacing toward r = 0 by ``ratio`` per
    interval, clustering nodes where integrands carry 1/r^2 weights.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if grading == "uniform":
        nodes = np.linspace(0.0, 1.0, n)
    elif grading == "geometric":
        if not (0.0 < ratio < 1.0):
            raise ValueError("geometric ratio must lie in (0, 1)")
        # Interval j (counted from the axis) has width A * ratio**(n-2-j),
        # so each spacing is `ratio` times the next one going outward.
        widths = ratio ** np.arange(n - 2, -1, -1, dtype=float)
        nodes = np.concatenate(([0.0], np.cumsum(widths / fsum(widths))))
        nodes[-1] = 1.0
    else:
        raise ValueError(f"unknown grading {grading!r}")
    return RadialGrid(nodes=nodes, grading=grading)


@dataclass(frozen=True)
class TimeLadder:
    """Geometric times t_j = T (1 - 2^-j) resolving the approach to T.

    ``T_minus`` stores T * 2^-j directly so late levels never suffer the
    cancellation of computing T - t_j.
    """

    T: float
    levels: np.ndarray
    T_minus: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.T <= 0.5):
            raise ValueError("final time T must lie in (0, 1/2]")
        levels = np.asarray(self.levels, dtype=float)
        tminus = np.asarray(self.T_minus, dtype=float)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "T_minus", tminus)
        if levels.shape != tminus.shape:
            raise ValueError("levels and T_minus must align")
        if not np.all(np.diff(levels) > 0.0):
            raise ValueError("ladder levels must be strictly increasing")
        if levels.size and not (0.0 <= levels[0] and levels[-1] < self.T):
            raise ValueError("ladder levels must lie in [0, T)")

    def __len__(self):
        return self.levels.size

    @property
    def J(self) -> int:
        return self.levels.size


def make_time_ladder(T: float, J: int) -> TimeLadder:
    """Ladder levels j = 1..J with t_j = T (1 - 2^-j)."""
    if J < 1:
        raise ValueError("J must be at least 1")
    j = np.arange(1, J + 1, dtype=float)
    tminus = T * np.power(2.0, -j)
    return TimeLadder(T=T, levels=T - tminus, T_minus=tminus)


def local_radial_scale(r, T_minus_t) -> np.ndarray:
    """Length scale on which the constructed fields vary at (r, t).

    sqrt(r^2 + 2 (T - t)): the self-similar width near the axis, the radius
    itself further out. Finite-difference steps are sized against it.
    """
    return np.sqrt(np.square(r) + 2.0 * np.asarray(T_minus_t, dtype=float))


def empirical_order(coarse_err: float, fine_err: float) -> float:
    """Observed convergence order from one error pair under step halving."""
    if coarse_err <= 0.0 or fine_err <= 0.0:
        return float("nan")
    return float(np.log(coarse_err / fine_err) / np.log(2.0))
