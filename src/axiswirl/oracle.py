"""Independent 1-D Crank-Nicolson solver cross-validating the closed forms.

The linear swirl equation

    d_t w = d_rr w + d_r w / r - w / r^2 - RHS(r, t)

is stepped on a uniform radial grid with Dirichlet data at both ends
(w(0) = 0 by axis regularity; the wall value is constant in time). Time
stepping is Crank-Nicolson (trapezoidal, second order in dt and dr), with
the forcing taken at each step's midpoint. On the interior nodes, with
A = I - dt L / 2 and R = diag(r), M = R A is symmetric positive definite
(r_i L[i, i+1] = r_{i+1} L[i+1, i] = r_{i+1/2} / dr^2), and M / 2 is
LDL^T-factored once per step size (LAPACK pttrf). As I + dt L / 2 = 2 I - A,

    w' = 2 A^-1 (w + c) - w = (M / 2)^-1 (R w + R c) - w,

with c = (dt / 2) (wall coupling - RHS_mid): per step one multiply, one
add, one pttrs solve and one subtract. numpy has no banded solver, so
this module is the one user of scipy. When a stepper is built it loads
only scipy's LAPACK extension ``scipy.linalg._flapack``, from its file
(``_lapack``), never the ``scipy.linalg`` package, whose import costs a
cold run time and memory. The other commands never load scipy.

The solution is self-similar in r / sqrt(tau), tau = 2 (T - t), so tau is
its one time scale. The march steps on the octaves of T - t, the dyadic
ladder t_j = T (1 - 2^-j) where tau halves, from T - t = T down to T / 8.
``OracleConfig`` is that schedule: n_r radial nodes and the same number of
equal steps on each of the OCTAVES octaves, so the step halves from one
octave to the next and dt / tau is the same on every octave. Each
midpoint's T - t is formed from its octave's own T 2^-j, so no T - t_n
cancellation arises. The forcing is evaluated, and scaled into R c in
place, for blocks of step midpoints at a time, each block bounded in grid
points so memory stays flat at any resolution. Nothing here shares a code
path with the closed-form construction beyond the problem data itself
(initial slice, wall constant, forcing), read from the T - t kernels.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AxiswirlError
from .fields import SolutionFamily, _rhs, _T_minus, _w
from .numerics import empirical_order

__all__ = [
    "OracleConfig",
    "OracleRun",
    "OracleSolution",
    "SwirlStepper",
    "solve",
    "convergence_study",
    "default_levels",
    "trajectory_rows",
    "TRAJECTORY_HEADER",
]


OCTAVES = 3  # octaves of T - t the march spans: from T down to T / 8


@dataclass(frozen=True)
class OracleConfig:
    """Radial nodes, and equal steps on each octave of T - t, of one run."""

    n_r: int
    steps: int

    def __post_init__(self):
        if self.n_r < 16:
            raise ValueError("n_r must be at least 16")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")

    def octaves(self, T: float) -> list[tuple[float, float, int]]:
        """(T - t at the start, T - t at the end, step count) of each octave
        of the march: octave j runs from T 2^-j to T 2^-(j+1)."""
        return [(T * 0.5**j, T * 0.5**(j + 1), self.steps) for j in range(OCTAVES)]


@dataclass
class OracleRun:
    """Summary of a refinement study; ``finest`` is the finest level's run."""

    config: OracleConfig
    final_error_Linf: float
    final_error_L2: float
    convergence_order: float
    errors_per_level: list = field(default_factory=list)
    orders_per_pair: list = field(default_factory=list)
    study_valid: bool = True
    finest: Optional[OracleSolution] = field(default=None, repr=False)


@dataclass
class OracleSolution:
    """Discrete trajectory plus final-time errors against the closed form."""

    r: np.ndarray
    times: np.ndarray
    values: np.ndarray  # shape (len(times), n_r)
    exact_final: np.ndarray
    error_Linf: float
    error_L2: float


@functools.cache
def _lapack():
    """LAPACK's (dpttrf, dpttrs), from scipy's f2py extension
    ``scipy.linalg._flapack``, loaded from its file without importing
    scipy or ``scipy.linalg``. It is the module ``scipy.linalg.lapack``
    re-exports, and CPython's extension cache makes the two one module."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise AxiswirlError("oracle needs scipy's LAPACK extension, but no "
                            "scipy package was found on sys.path")
    stem = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((stem + s for s in suffixes if os.path.isfile(stem + s)), None)
    if path is None:
        raise AxiswirlError(f"oracle needs scipy's LAPACK extension, but no file "
                            f"{stem}[{'|'.join(suffixes)}] exists")
    loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module.dpttrf, module.dpttrs


class SwirlStepper:
    """Crank-Nicolson stepper for the radial operator with Dirichlet ends.

    The operator matrix is time-independent, so M / 2, with M = R A,
    A = I - dt L / 2 and R = diag(r) on the interior nodes, is factored
    once per step size (``set_dt``). M is symmetric, as r_i L[i, i+1] =
    r_{i+1/2} / dr^2 = r_{i+1} L[i+1, i], and positive definite for dt > 0.
    Halving is exact, so (M / 2)^-1 R b = 2 A^-1 b: ``advance`` scales a
    block of forcing rows into R c in place, and per row forms R w + R c,
    makes one pttrs solve and subtracts w. The axis node carries Dirichlet
    zero (the swirl extends oddly through the axis); interior nodes use the
    standard central coefficients, well-defined because r > 0 there.
    """

    def __init__(self, n_r: int, dt: float, bc_wall: float):
        self.n_r = n_r
        self.bc_wall = bc_wall
        self.r = np.linspace(0.0, 1.0, n_r)
        dr = self.r[1] - self.r[0]
        ri = self._ri = self.r[1:-1]
        self._diag = -2.0 / dr**2 - 1.0 / ri**2
        self._upper = 1.0 / dr**2 + 1.0 / (2.0 * ri * dr)
        self._pttrf, self._pttrs = _lapack()
        self.dt = None
        self.set_dt(dt)

    def set_dt(self, dt: float) -> None:
        """Factor M / 2 for the step ``dt``; a no-op when it is the current one."""
        if dt == self.dt:
            return
        ri, diag, upper = self._ri, self._diag, self._upper
        # M from A's own coefficients: r_{i+1/2} / dr^2 formed directly drifted
        # up to 7x further from textbook Crank-Nicolson at n_r = 512.
        *ldl, info = self._pttrf(0.5 * ri * (1.0 - 0.5 * dt * diag),
                                 0.5 * ri[:-1] * (-0.5 * dt * upper[:-1]))
        if info != 0:
            raise np.linalg.LinAlgError(
                f"Crank-Nicolson matrix is not positive definite (pttrf info {info})")
        self.dt, self._ldl = dt, ldl
        # The constant wall value couples into the last interior row, once
        # from each side of the scheme: dt * upper[-1] * bc_wall, halved in c
        # and scaled by r in R c.
        self._wall = ri[-1] * (0.5 * dt * upper[-1] * self.bc_wall)

    def advance(self, w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Take one step per forcing row (RHS at the step midpoints) from the
        interior values ``w``. ``rows`` is scaled in place, and ``w`` may be
        reused as a buffer after the first step."""
        rows *= -0.5 * self.dt * self._ri
        rows[:, -1] += self._wall
        pttrs, (d, e), ri = self._pttrs, self._ldl, self._ri
        b = np.empty_like(w)
        for rc in rows:
            np.multiply(w, ri, out=b)
            b += rc
            # overwrite_b=True by position: f2py's keyword parsing costs 0.1 us
            y, _ = pttrs(d, e, b, True)
            y -= w
            w, b = y, w
        return w

    def full(self, interior: np.ndarray) -> np.ndarray:
        """The whole slice: axis zero, ``interior``, the wall value."""
        return np.concatenate(([0.0], interior, [self.bc_wall]))

    def step(self, w: np.ndarray, rhs_mid: np.ndarray) -> np.ndarray:
        """Advance one step; ``rhs_mid`` is RHS at the step's midpoint time."""
        return self.full(self.advance(w[1:-1], np.array(rhs_mid, float, ndmin=2)))


# Grid points of forcing evaluated per block of step midpoints: large
# enough to amortise the kernel call, small enough to keep memory flat.
_BLOCK_POINTS = 2**13


# The wall value of each field the oracle marches: the constant trace
# -alpha of u, and log(1 - alpha) of eta.
_WALL = {"u": lambda fam: -fam.alpha, "eta": lambda fam: fam.log_wall}


def solve(fam: SolutionFamily, cfg: OracleConfig, which: str) -> OracleSolution:
    """Step ``which``, the swirl u or its log eta (part 2 only), from t = 0
    to the last octave's end, T - t = T / 8, and compare with the closed
    form there, keeping the initial slice and the 8 step ends nearest to
    k (7 T / 8) / 8. Zero at the axis and the constant wall value are the
    Dirichlet data; the initial slice and the forcing come from the
    family's T - t kernels."""
    if which not in _WALL:
        raise ValueError(f"which must be 'u' or 'eta', not {which!r}")
    octaves, n = cfg.octaves(fam.T), cfg.steps
    sizes = [(a - b) / n for a, b, _ in octaves]
    # Per step: its size, and T - t at its midpoint and its end, each from
    # its octave's start; the last end of an octave is the octave's end.
    dts = np.repeat(sizes, n)
    mids = np.concatenate([a - (np.arange(n) + 0.5) * h
                           for (a, _, _), h in zip(octaves, sizes)])
    ends = np.concatenate([[fam.T]] + [np.append(a - np.arange(1, n) * h, b)
                                       for (a, b, _), h in zip(octaves, sizes)])
    r = np.linspace(0.0, 1.0, cfg.n_r)
    initial = _w(fam, which, r, fam.T)
    stepper = SwirlStepper(cfg.n_r, dts[0], _WALL[which](fam))
    ri = r[1:-1]
    rhs = _rhs(fam, which)

    # Forcing blocks, cut again at the octave ends and the kept steps.
    times = fam.T - ends
    targets = np.linspace(0.0, fam.T - octaves[-1][1], 9)
    keep = set(np.abs(times[:, None] - targets).argmin(axis=0).tolist())
    cuts = sorted(keep.union(range(n, dts.size, n),
                             range(0, dts.size, max(1, _BLOCK_POINTS // ri.size))))
    kept, slices = [0.0], [initial]
    w = initial[1:-1].copy()
    for n0, n1 in zip(cuts[:-1], cuts[1:]):
        stepper.set_dt(dts[n0])
        w = stepper.advance(w, rhs(ri, mids[n0:n1, None]))
        if n1 in keep:
            kept.append(times[n1])
            slices.append(stepper.full(w))
    w = slices[-1]
    if not np.all(np.isfinite(w)):
        raise ValueError(f"the {which!r} march produced non-finite values")

    exact = _w(fam, which, r, ends[-1])
    err = w - exact
    linf = float(np.max(np.abs(err)))
    l2 = float(np.sqrt(2.0 * np.pi * np.trapezoid(err * err * r, r)))
    return OracleSolution(r=r, times=np.asarray(kept), values=np.asarray(slices),
                          exact_final=exact, error_Linf=linf, error_L2=l2)


def default_levels(base_n: int = 128) -> list[OracleConfig]:
    """Nested refinement ladder: n_r and the steps per octave both double
    between levels, as the scheme is second order in each; the coarsest
    takes 3 base_n / 4 steps per octave, rounded down. On octave j,
    tau = 2 (T - t) lies in [T 2^-j, 2 T 2^-j] and the step is
    T 2^-j / (2 steps), so dt / tau <= 1 / (2 steps), about 2 / (3 n_r), on
    every octave and free of T, while dr / sqrt(tau) reaches
    2 / (n_r sqrt(T)) at tau = T / 4 and grows as T falls: the time error's
    share peaks at T = 1/2. Against 8x the steps it is 0.58-0.59x that of 4
    uniform steps per node there on the bump, and about 5% of each level's
    error; twice the steps move the bump's final error by 0.51%."""
    return [OracleConfig(base_n * 2**m, (3 * base_n // 4) * 2**m) for m in range(3)]


def convergence_study(fam: SolutionFamily, levels: list[OracleConfig],
                      which: str = "u") -> OracleRun:
    """Run nested refinements and fit the observed order from error pairs."""
    if len(levels) < 2:
        raise ValueError("a convergence study needs at least two levels")
    solutions = [solve(fam, cfg, which) for cfg in levels]
    errors = [s.error_Linf for s in solutions]
    orders = []
    valid = True
    for coarse, fine in zip(errors[:-1], errors[1:]):
        if fine <= 0.0 or coarse <= fine:
            valid = False
            orders.append(float("nan"))
        else:
            orders.append(empirical_order(coarse, fine))
    finite_orders = [o for o in orders if np.isfinite(o)]
    return OracleRun(
        config=levels[-1],
        final_error_Linf=errors[-1],
        final_error_L2=solutions[-1].error_L2,
        convergence_order=finite_orders[-1] if finite_orders else float("nan"),
        errors_per_level=errors,
        orders_per_pair=orders,
        study_valid=valid,
        finest=solutions[-1],
    )


TRAJECTORY_HEADER = ["t", "r", "phi_numeric", "phi_exact", "abs_error"]


def trajectory_rows(fam: SolutionFamily, sol: OracleSolution,
                    which: str = "u") -> np.ndarray:
    """Snapshot table comparing the discrete trajectory with the closed
    form at every eighth grid radius."""
    rs, num = sol.r[::8], sol.values[:, ::8]
    tm = _T_minus(fam, sol.times)
    exact = _w(fam, which, rs, tm[:, None])
    return np.column_stack([np.repeat(sol.times, rs.size), np.tile(rs, tm.size),
                            num.ravel(), exact.ravel(),
                            np.abs(num - exact).ravel()])
