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


def _panel(f, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid + half * _X31
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise TypeError("integrand must be vectorized (return one value per node)")
    v10 = half * float(_W10 @ ys[:10])
    v21 = half * float(_W21 @ ys[10:])
    return v21, abs(v21 - v10)


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
    """Adaptively integrate ``f`` over ``[a, b]``.

    Parameters
    ----------
    f : callable
        Vectorized integrand; called with a numpy array of nodes strictly
        inside the integration interval.
    a, b : float or 1-d array
        Interval endpoints, ``a <= b``. Arrays select row mode (below).
    spec : QuadratureSpec
        Stopping tolerances and subdivision budget.
    breakpoints : sequence of float, optional
        Interior points at which the initial panel set is split (useful when
        the integrand has known structure). In row mode, a (rows, k) array:
        row i is split at its own points, clipped into ``[a[i], b[i]]``.

    Returns
    -------
    (value, err_estimate)
        The integral and the accumulated panel error estimate, with
        ``err_estimate <= max(abs_tol, rel_tol * |value|)`` on success.

    Raises
    ------
    QuadratureConvergenceError
        If the subdivision budget is exhausted first; the error carries the
        best available value/estimate.

    Row mode
    --------
    With array endpoints there is one integral per row, and ``value`` and
    ``err_estimate`` are arrays. Row i is cut at ``a[i]``, its breakpoints
    and ``b[i]`` into the same number of segments (a clipped breakpoint
    leaves a zero-length segment, which contributes zero). Panels live in
    each segment's reference coordinate [0, 1] and are shared by all rows:
    ``f`` is called once per panel with a (rows, nodes) array and returns
    one value per node. Each row must meet its own
    ``max(abs_tol, rel_tol * |value[i]|)``; refinement splits the worst
    panel of the row furthest from its tolerance, and the budget counts
    those splits.
    """
    if np.ndim(a):
        return _integrate_rows(f, a, b, spec, breakpoints)
    if b < a:
        raise ValueError("integrate requires a <= b")
    if a == b:
        return 0.0, 0.0
    pts = [a]
    if breakpoints is not None:
        pts.extend(float(p) for p in sorted(breakpoints) if a < p < b)
    pts.append(b)
    panels = [(x0, x1, *_panel(f, x0, x1)) for x0, x1 in zip(pts[:-1], pts[1:])]

    splits = 0
    while True:
        value = fsum(p[2] for p in panels)
        err = fsum(p[3] for p in panels)
        if err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            return value, err
        if splits >= spec.max_subdivisions:
            raise QuadratureConvergenceError(
                f"quadrature did not converge within {spec.max_subdivisions} "
                f"subdivisions (best estimate {value!r}, err {err!r})",
                value, err)
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        x0, x1 = panels[worst][0], panels[worst][1]
        xm = 0.5 * (x0 + x1)
        panels[worst] = (x0, xm, *_panel(f, x0, xm))
        panels.append((xm, x1, *_panel(f, xm, x1)))
        splits += 1


def _integrate_rows(f, a, b, spec: QuadratureSpec, breakpoints):
    """Row mode of :func:`integrate`: one integral per row, shared panels."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("row mode needs 1-d endpoint arrays of one shape")
    if np.any(b < a):
        raise ValueError("integrate requires a <= b")
    lo, hi = a[:, None], b[:, None]
    cuts = [lo]
    if breakpoints is not None:
        inner = np.asarray(breakpoints, dtype=float).reshape(a.size, -1)
        cuts.append(np.clip(np.sort(inner, axis=1), lo, hi))
    pts = np.concatenate((*cuts, hi), axis=1)
    starts, widths = pts[:, :-1], np.diff(pts, axis=1)
    used = np.any(widths > 0.0, axis=0)  # segments empty in every row go
    starts, widths = starts[:, used], widths[:, used]

    def panel(seg, u0, u1):
        half = 0.5 * (u1 - u0)
        u = 0.5 * (u0 + u1) + half * _X31
        xs = starts[:, seg, None] + widths[:, seg, None] * u
        ys = np.asarray(f(xs), dtype=float)
        if ys.shape != xs.shape:
            raise TypeError("integrand must be vectorized (return one value per node)")
        scale = widths[:, seg] * half
        # A zero-length segment of a row contributes zero, whatever f gives
        # on its (degenerate) nodes.
        v10 = np.where(scale > 0.0, scale * (ys[:, :10] @ _W10), 0.0)
        v21 = np.where(scale > 0.0, scale * (ys[:, 10:] @ _W21), 0.0)
        return v21, np.abs(v21 - v10)

    n_seg = widths.shape[1]
    panels = [(seg, 0.0, 1.0) for seg in range(n_seg)]
    vals = np.empty((n_seg + spec.max_subdivisions, a.size))
    errs = np.empty_like(vals)
    for i, p in enumerate(panels):
        vals[i], errs[i] = panel(*p)

    splits = 0
    while True:
        n = len(panels)
        value = vals[:n].sum(axis=0)
        err = errs[:n].sum(axis=0)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))
        if np.all(err <= tol):
            return value, err
        row = int(np.argmax(err / tol))
        if splits >= spec.max_subdivisions:
            raise QuadratureConvergenceError(
                f"quadrature did not converge within {spec.max_subdivisions} "
                f"subdivisions (row {row}: best estimate {value[row]!r}, "
                f"err {err[row]!r})", value, err)
        worst = int(np.argmax(errs[:n, row]))
        seg, u0, u1 = panels[worst]
        um = 0.5 * (u0 + u1)
        panels[worst] = (seg, u0, um)
        panels.append((seg, um, u1))
        vals[worst], errs[worst] = panel(seg, u0, um)
        vals[n], errs[n] = panel(seg, um, u1)
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


def empirical_order(coarse_err: float, fine_err: float, refinement: float = 2.0) -> float:
    """Observed convergence order from one error pair under step refinement."""
    if coarse_err <= 0.0 or fine_err <= 0.0:
        return float("nan")
    return float(np.log(coarse_err / fine_err) / np.log(refinement))
