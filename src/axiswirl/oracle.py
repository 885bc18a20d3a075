"""Independent 1-D theta-scheme solver cross-validating the closed forms.

The linear swirl equation

    d_t w = d_rr w + d_r w / r - w / r^2 - RHS(r, t)

is stepped on a uniform radial grid with Dirichlet data at both ends
(w(0) = 0 by axis regularity; the wall value is constant in time). Time
stepping uses the one-parameter theta scheme: trapezoidal at theta = 1/2
(second order), backward Euler at theta = 1. The constant tridiagonal
matrix is factored once per stepper (LAPACK gttrf), and each step is one
gttrs solve against that factorisation. numpy has no banded solver, so
this module is the one user of scipy: it imports ``scipy.linalg.lapack``
when a stepper is built, and the other commands never load scipy. The
forcing is evaluated for blocks of step midpoints at a time, each block
bounded in grid points so memory stays flat at any resolution. Nothing
here shares a code path with the closed-form construction beyond the
problem data itself (initial slice, wall constant, forcing), read from
the T - t kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import SolutionFamily, _rhs, _T_minus, _w

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
    """Grid, step, terminal cutoff and scheme weight for one solver run."""

    n_r: int
    dt: float
    delta: float
    theta: float = 0.5

    def __post_init__(self):
        if self.n_r < 16:
            raise ValueError("n_r must be at least 16")
        if self.delta <= 0.0:
            raise ValueError("terminal cutoff delta must be positive")
        if not (self.dt > 0.0 and self.dt < self.delta / 10.0):
            raise ValueError("dt must satisfy 0 < dt < delta / 10")
        if not (0.5 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [1/2, 1]")


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
    """theta-scheme stepper for the radial operator with Dirichlet ends.

    The operator matrix is time-independent, so ``I - theta dt L`` on the
    interior nodes is LU-factored once here, and each ``step`` makes one
    triangular solve. The matrix is strictly diagonally dominant, so the
    factorisation makes no row swaps. The axis node carries Dirichlet zero
    (the swirl extends oddly through the axis); interior nodes use the
    standard central coefficients, well-defined because r > 0 there.
    """

    def __init__(self, n_r: int, dt: float, theta: float,
                 bc_axis: float, bc_wall: float):
        from scipy.linalg.lapack import dgttrf, dgttrs

        self.n_r = n_r
        self.dt = dt
        self.theta = theta
        self.bc_axis = bc_axis
        self.bc_wall = bc_wall
        self.r = np.linspace(0.0, 1.0, n_r)
        dr = self.r[1] - self.r[0]
        ri = self.r[1:-1]
        lower = 1.0 / dr**2 - 1.0 / (2.0 * ri * dr)
        diag = -2.0 / dr**2 - 1.0 / ri**2
        upper = 1.0 / dr**2 + 1.0 / (2.0 * ri * dr)
        self._L = (lower, diag, upper)

        # LU factors of (I - theta dt L) on interior nodes; boundary rows
        # are substituted directly into the right-hand side.
        *lu, info = dgttrf(-theta * dt * lower[1:], 1.0 - theta * dt * diag,
                           -theta * dt * upper[:-1])
        if info != 0:
            raise np.linalg.LinAlgError(
                f"theta-scheme matrix is singular (gttrf info {info})")
        self._lu = lu
        self._gttrs = dgttrs

    def apply_operator(self, w: np.ndarray) -> np.ndarray:
        """L w on interior nodes, using the current boundary entries of w."""
        lower, diag, upper = self._L
        return lower * w[:-2] + diag * w[1:-1] + upper * w[2:]

    def step(self, w: np.ndarray, rhs_mid: np.ndarray) -> np.ndarray:
        """Advance one step; ``rhs_mid`` is RHS at the theta-midpoint time."""
        dt = self.dt
        explicit = w[1:-1] + (1.0 - self.theta) * dt * self.apply_operator(w) \
            - dt * rhs_mid
        # Dirichlet values are constant in time: move their implicit
        # couplings to the right-hand side.
        lower, _, upper = self._L
        explicit[0] += self.theta * dt * lower[0] * self.bc_axis
        explicit[-1] += self.theta * dt * upper[-1] * self.bc_wall
        interior, _ = self._gttrs(*self._lu, explicit, overwrite_b=True)
        out = np.empty_like(w)
        out[0] = self.bc_axis
        out[-1] = self.bc_wall
        out[1:-1] = interior
        return out


# Grid points of forcing evaluated per block of step midpoints: large
# enough to amortise the kernel call, small enough to keep memory flat.
_BLOCK_POINTS = 2**13


def _march(fam: SolutionFamily, cfg: OracleConfig, which: str,
           bc_wall: float, snapshots: int = 9) -> OracleSolution:
    """Step the field ``which`` from t = 0 to T - delta and compare there."""
    t_end = fam.T - cfg.delta
    n_steps = int(round(t_end / cfg.dt))
    if n_steps < 1:
        raise ValueError(f"T - delta = {fam.T!r} - {cfg.delta!r} is under half a "
                         f"step dt = {cfg.dt!r}: no step to take")
    dt = t_end / n_steps
    stepper = SwirlStepper(cfg.n_r, dt, cfg.theta, 0.0, bc_wall)
    r = stepper.r
    ri = r[1:-1]
    rhs = _rhs(fam, which)
    # T - t of every step's theta-midpoint and of t_end, checked once.
    tm = _T_minus(fam, np.append(np.arange(n_steps) * dt + cfg.theta * dt, t_end))
    initial = _w(fam, which, r, fam.T)

    keep = set(np.linspace(0, n_steps, snapshots).astype(int).tolist())
    times = [0.0]
    slices = [initial]
    w = initial
    block = max(1, _BLOCK_POINTS // ri.size)
    for b0 in range(0, n_steps, block):
        rows = rhs(ri, tm[b0:min(b0 + block, n_steps), None])
        for n, row in enumerate(rows, start=b0 + 1):
            w = stepper.step(w, row)  # a fresh array: safe to keep as a slice
            if n in keep:
                times.append(n * dt)
                slices.append(w)
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


def default_levels(fam: SolutionFamily, *, theta: float = 0.5,
                   base_n: int = 128, base_steps: int = 1024,
                   n_levels: int = 3) -> list[OracleConfig]:
    """Nested refinement ladder.

    At theta = 1/2 both steps halve between levels (the scheme is second
    order in each). Away from 1/2 the scheme is first order in dt only, so
    the ladder holds a fine fixed grid and halves dt alone; otherwise the
    second-order spatial error would contaminate the measured order.
    """
    delta = fam.T / 8.0
    t_end = fam.T - delta
    if theta == 0.5:
        return [OracleConfig(n_r=base_n * 2**m, dt=t_end / (base_steps * 2**m),
                             delta=delta, theta=theta)
                for m in range(n_levels)]
    n_fixed = base_n * 2 ** (n_levels - 1)
    return [OracleConfig(n_r=n_fixed, dt=t_end / (base_steps // 2 * 2**m),
                         delta=delta, theta=theta)
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
            orders.append(float(np.log2(coarse / fine)))
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
                    which: str = "u", stride: int = 8) -> np.ndarray:
    """Snapshot table comparing the discrete trajectory with the closed form."""
    rs = sol.r[::stride]
    num = sol.values[:, ::stride]
    tm = _T_minus(fam, sol.times)
    exact = _w(fam, which, rs, tm[:, None])
    return np.column_stack([np.repeat(sol.times, rs.size), np.tile(rs, tm.size),
                            num.ravel(), exact.ravel(),
                            np.abs(num - exact).ravel()])
