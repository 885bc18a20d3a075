"""Independent 1-D Crank-Nicolson solver cross-validating the closed forms.

The linear swirl equation

    d_t w = d_rr w + d_r w / r - w / r^2 - RHS(r, t)

is stepped on a uniform radial grid with Dirichlet data at both ends
(w(0) = 0 by axis regularity; the wall value is constant in time). Time
stepping is Crank-Nicolson (trapezoidal, second order in dt and dr), with
the forcing taken at each step's midpoint. On the interior nodes, with
A = I - dt L / 2 and R = diag(r), M = R A is symmetric positive definite
(r_i L[i, i+1] = r_{i+1} L[i+1, i] = r_{i+1/2} / dr^2), and M / 2 is
LDL^T-factored once per stepper (LAPACK pttrf). As I + dt L / 2 = 2 I - A,

    w' = 2 A^-1 (w + c) - w = (M / 2)^-1 (R w + R c) - w,

with c = (dt / 2) (wall coupling - RHS_mid): per step one multiply, one
add, one pttrs solve and one subtract. numpy has no banded solver, so
this module is the one user of scipy: it imports ``scipy.linalg.lapack``
when a stepper is built, and the other commands never load scipy. The
forcing is evaluated, and scaled into R c in place, for blocks of step
midpoints at a time, each block bounded in grid points so memory stays
flat at any resolution. Nothing here shares a code path with the
closed-form construction beyond the problem data itself (initial slice,
wall constant, forcing), read from the T - t kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import SolutionFamily, _rhs, _T_minus, _w
from .numerics import empirical_order

__all__ = [
    "OracleConfig",
    "OracleRun",
    "OracleSolution",
    "SwirlStepper",
    "solve_swirl",
    "solve_eta",
    "convergence_study",
    "default_levels",
    "trajectory_rows",
    "TRAJECTORY_HEADER",
]


@dataclass(frozen=True)
class OracleConfig:
    """Grid, step and terminal cutoff (dt < delta / 10) for one solver run."""

    n_r: int
    dt: float
    delta: float

    def __post_init__(self):
        if self.n_r < 16:
            raise ValueError("n_r must be at least 16")
        if self.delta <= 0.0:
            raise ValueError("terminal cutoff delta must be positive")
        if not (self.dt > 0.0 and self.dt < self.delta / 10.0):
            raise ValueError("dt must satisfy 0 < dt < delta / 10")


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


class SwirlStepper:
    """Crank-Nicolson stepper for the radial operator with Dirichlet ends.

    The operator matrix is time-independent, so M / 2, with M = R A,
    A = I - dt L / 2 and R = diag(r) on the interior nodes, is factored
    once here. M is symmetric, as r_i L[i, i+1] = r_{i+1/2} / dr^2 =
    r_{i+1} L[i+1, i], and positive definite for dt > 0. Halving is exact,
    so (M / 2)^-1 R b = 2 A^-1 b: ``advance`` scales a block of forcing rows
    into R c in place, and per row forms R w + R c, makes one pttrs solve
    and subtracts w. The axis node carries Dirichlet zero (the swirl
    extends oddly through the axis); interior nodes use the standard
    central coefficients, well-defined because r > 0 there.
    """

    def __init__(self, n_r: int, dt: float, bc_wall: float):
        from scipy.linalg.lapack import dpttrf, dpttrs

        self.n_r = n_r
        self.dt = dt
        self.bc_wall = bc_wall
        self.r = np.linspace(0.0, 1.0, n_r)
        dr = self.r[1] - self.r[0]
        ri = self._ri = self.r[1:-1]
        diag = -2.0 / dr**2 - 1.0 / ri**2
        upper = 1.0 / dr**2 + 1.0 / (2.0 * ri * dr)
        # The constant wall value couples into the last interior row, once
        # from each side of the scheme: dt * upper[-1] * bc_wall, halved in c
        # and scaled by r in R c.
        self._wall = ri[-1] * (0.5 * dt * upper[-1] * bc_wall)
        # M from A's own coefficients: r_{i+1/2} / dr^2 formed directly drifted
        # up to 7x further from textbook Crank-Nicolson at n_r = 512.
        *ldl, info = dpttrf(0.5 * ri * (1.0 - 0.5 * dt * diag),
                            0.5 * ri[:-1] * (-0.5 * dt * upper[:-1]))
        if info != 0:
            raise np.linalg.LinAlgError(
                f"Crank-Nicolson matrix is not positive definite (pttrf info {info})")
        self._ldl = ldl
        self._pttrs = dpttrs

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


def _march(fam: SolutionFamily, cfg: OracleConfig, which: str,
           bc_wall: float) -> OracleSolution:
    """Step the field ``which`` from t = 0 to T - delta and compare there,
    keeping 9 evenly spaced snapshots from the initial slice to the last."""
    t_end = fam.T - cfg.delta
    n_steps = int(round(t_end / cfg.dt))
    if n_steps < 1:
        raise ValueError(f"T - delta = {fam.T!r} - {cfg.delta!r} is under half a "
                         f"step dt = {cfg.dt!r}: no step to take")
    dt = t_end / n_steps
    stepper = SwirlStepper(cfg.n_r, dt, bc_wall)
    r = stepper.r
    ri = r[1:-1]
    rhs = _rhs(fam, which)
    # T - t of every step's midpoint and of t_end, checked once.
    tm = _T_minus(fam, np.append(np.arange(n_steps) * dt + 0.5 * dt, t_end))
    initial = _w(fam, which, r, fam.T)

    # Forcing blocks, cut again at the kept steps.
    keep = set(np.linspace(0, n_steps, 9).astype(int).tolist())
    cuts = sorted(keep.union(range(0, n_steps, max(1, _BLOCK_POINTS // ri.size))))
    times, slices = [0.0], [initial]
    w = initial[1:-1].copy()
    for n0, n1 in zip(cuts[:-1], cuts[1:]):
        w = stepper.advance(w, rhs(ri, tm[n0:n1, None]))
        if n1 in keep:
            times.append(n1 * dt)
            slices.append(stepper.full(w))
    w = slices[-1]
    if not np.all(np.isfinite(w)):
        raise ValueError(f"the {which!r} march produced non-finite values")

    exact = _w(fam, which, r, tm[-1])
    err = w - exact
    linf = float(np.max(np.abs(err)))
    l2 = float(np.sqrt(2.0 * np.pi * np.trapezoid(err * err * r, r)))
    return OracleSolution(r=r, times=np.asarray(times), values=np.asarray(slices),
                          exact_final=exact, error_Linf=linf, error_L2=l2)


def solve_swirl(fam: SolutionFamily, cfg: OracleConfig) -> OracleSolution:
    """Time-step the plain swirl equation and compare with the closed form.

    Boundary data: zero at the axis, the constant wall trace (minus the
    wall constant alpha) at r = 1; initial slice and forcing come from the
    family's T - t kernels.
    """
    return _march(fam, cfg, "u", -fam.alpha)


def solve_eta(fam: SolutionFamily, cfg: OracleConfig) -> OracleSolution:
    """Same stepper applied to the log-transformed equation."""
    if fam.part != 2:
        raise ValueError("solve_eta needs a part-2 family")
    return _march(fam, cfg, "eta", fam.log_wall)


STEPS_PER_NODE = 4  # coarsest-level time steps per radial node


def default_levels(fam: SolutionFamily, *, base_n: int = 128,
                   base_steps: Optional[int] = None, n_levels: int = 3) -> list[OracleConfig]:
    """Nested refinement ladder: both steps halve between levels, as the
    scheme is second order in each. ``base_steps`` defaults to
    ``STEPS_PER_NODE * base_n``, at least 71 as dt < delta / 10 needs
    (7T / 8) / steps < T / 80. With tau = 2 (T - t) >= 2 delta = T / 4,
    dt / tau = 7 / (8 n_r) is free of T while dr / sqrt(tau) = 2 / (n_r sqrt(T))
    grows as T falls, so the time error's share peaks at T = 1/2: twice the
    steps move the bump's final error there by 0.75%."""
    delta = fam.T / 8.0
    t_end = fam.T - delta
    if base_steps is None:
        base_steps = max(STEPS_PER_NODE * base_n, 71)
    return [OracleConfig(n_r=base_n * 2**m, dt=t_end / (base_steps * 2**m),
                         delta=delta)
            for m in range(n_levels)]


def convergence_study(fam: SolutionFamily, levels: list[OracleConfig],
                      equation: str = "swirl") -> OracleRun:
    """Run nested refinements and fit the observed order from error pairs."""
    if len(levels) < 2:
        raise ValueError("a convergence study needs at least two levels")
    solvers = {"swirl": solve_swirl, "eta": solve_eta}
    if equation not in solvers:
        raise ValueError(f"equation must be 'swirl' or 'eta', not {equation!r}")
    solver = solvers[equation]
    solutions = [solver(fam, cfg) for cfg in levels]
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
