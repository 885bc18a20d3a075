import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import axiswirl as ax
from axiswirl.fields import _rhs, _T_minus, _w
from axiswirl.oracle import (SwirlStepper, TRAJECTORY_HEADER, default_levels,
                             trajectory_rows)


def test_config_validation():
    with pytest.raises(ValueError):
        ax.OracleConfig(n_r=8, dt=1e-4, delta=0.05)
    with pytest.raises(ValueError):
        ax.OracleConfig(n_r=64, dt=1e-2, delta=0.05)  # dt >= delta/10
    with pytest.raises(ValueError):
        ax.OracleConfig(n_r=64, dt=1e-4, delta=0.0)
    with pytest.raises(ValueError):
        ax.OracleConfig(n_r=64, dt=1e-4, delta=0.05, theta=0.3)


def test_zero_forcing_zero_trajectory(fam1_zero):
    cfg = ax.OracleConfig(n_r=64, dt=1e-3, delta=0.0625)
    sol = ax.solve_swirl(fam1_zero, cfg)
    assert sol.error_Linf == 0.0
    assert np.all(sol.values == 0.0)


def test_stepper_annihilates_linear_profile():
    stepper = SwirlStepper(n_r=128, dt=1e-3, theta=0.5, bc_axis=0.0, bc_wall=0.7)
    w = 0.7 * stepper.r
    advanced = stepper.step(w.copy(), np.zeros(126))
    assert np.max(np.abs(advanced - w)) < 1e-12


def test_solve_swirl_error_within_scheme_budget(fam1):
    delta = fam1.T / 8.0
    cfg = ax.OracleConfig(n_r=256, dt=(fam1.T - delta) / 4096, delta=delta)
    sol = ax.solve_swirl(fam1, cfg)
    dr = 1.0 / (cfg.n_r - 1)
    assert sol.error_Linf < 50.0 * (dr**2 + cfg.dt**2)
    assert sol.error_L2 <= sol.error_Linf * np.sqrt(2.0 * np.pi)


def test_convergence_study_second_order(fam1):
    run = ax.convergence_study(fam1, default_levels(fam1))
    assert run.study_valid
    assert 1.7 <= run.convergence_order <= 2.3
    for coarse, fine in zip(run.errors_per_level[:-1], run.errors_per_level[1:]):
        assert 3.4 <= coarse / fine <= 4.6


def test_convergence_study_eta(fam2):
    run = ax.convergence_study(fam2, default_levels(fam2), equation="eta")
    assert run.study_valid
    assert 1.7 <= run.convergence_order <= 2.3


def test_backward_euler_first_order_in_dt(fam1):
    run = ax.convergence_study(fam1, default_levels(fam1, theta=1.0))
    assert run.study_valid
    assert 0.7 <= run.convergence_order <= 1.3


def test_degenerate_errors_flagged(fam1_zero):
    # Exact (zero) solutions leave nothing to converge: flagged, not faked.
    run = ax.convergence_study(fam1_zero, default_levels(fam1_zero))
    assert not run.study_valid
    assert np.isnan(run.convergence_order)


def test_study_needs_two_levels(fam1):
    with pytest.raises(ValueError):
        ax.convergence_study(fam1, default_levels(fam1)[:1])


def test_solve_eta_requires_part2(fam1):
    cfg = ax.OracleConfig(n_r=64, dt=1e-3, delta=0.0625)
    with pytest.raises(ValueError):
        ax.solve_eta(fam1, cfg)


def test_solver_stays_clear_of_blowup(fam1):
    cfg = ax.OracleConfig(n_r=64, dt=1e-3, delta=0.0625)
    sol = ax.solve_swirl(fam1, cfg)
    assert sol.times[-1] <= fam1.T - cfg.delta + 1e-12


def test_trajectory_rows_layout(fam1):
    cfg = ax.OracleConfig(n_r=64, dt=1e-3, delta=0.0625)
    sol = ax.solve_swirl(fam1, cfg)
    rows = trajectory_rows(fam1, sol)
    assert rows.shape[1] == len(TRAJECTORY_HEADER)
    assert np.all(rows[:, 4] >= 0.0)
    assert np.allclose(rows[:, 4], np.abs(rows[:, 2] - rows[:, 3]))


@pytest.mark.parametrize("which", ["u", "eta"])
def test_trajectory_rows_match_the_per_point_evaluators(fam2, which):
    # The row-by-row table from the public evaluators at the snapshot times;
    # at T = 1/2 both form the same T - t.
    cfg = ax.OracleConfig(n_r=64, dt=1e-3, delta=0.0625)
    sol = ax.solve_eta(fam2, cfg) if which == "eta" else ax.solve_swirl(fam2, cfg)
    ev = ax.eval_u if which == "u" else ax.eval_eta
    expected = []
    for t, slc in zip(sol.times, sol.values):
        rs = sol.r[::8]
        for r, wn, we in zip(rs, slc[::8], ev(fam2, rs, float(t))):
            expected.append([float(t), float(r), float(wn), float(we),
                             abs(float(wn) - float(we))])
    assert np.array_equal(trajectory_rows(fam2, sol, which), np.array(expected))


def test_convergence_study_rejects_unknown_equation(fam2):
    with pytest.raises(ValueError, match="'Swirl'"):
        ax.convergence_study(fam2, default_levels(fam2), equation="Swirl")


def test_cutoff_leaving_no_step_is_rejected(fam1):
    # T - delta = 1e-7 rounds to zero steps of 0.025.
    cfg = ax.OracleConfig(n_r=32, dt=0.025, delta=0.4999999)
    with pytest.raises(ValueError, match=r"T - delta.*dt"):
        ax.solve_swirl(fam1, cfg)


def _reference_march(fam, cfg, which, bc_wall):
    """One forcing evaluation and one step per time step, no blocks."""
    t_end = fam.T - cfg.delta
    n_steps = int(round(t_end / cfg.dt))
    dt = t_end / n_steps
    stepper = SwirlStepper(cfg.n_r, dt, cfg.theta, 0.0, bc_wall)
    ri = stepper.r[1:-1]
    rhs = _rhs(fam, which)
    tm = _T_minus(fam, np.arange(n_steps) * dt + cfg.theta * dt)
    w = _w(fam, which, stepper.r, fam.T)
    for n in range(n_steps):
        w = stepper.step(w, rhs(ri, tm[n]))
    return w


# At n_r = 64 a forcing block holds 528 steps: 300 steps fit in one block,
# 1100 end in a partial third block.
@pytest.mark.parametrize("steps", [300, 1100])
@pytest.mark.parametrize("which", ["u", "eta"])
def test_march_equals_the_per_step_loop(fam2, which, steps):
    delta = fam2.T / 8.0
    cfg = ax.OracleConfig(n_r=64, dt=(fam2.T - delta) / steps, delta=delta)
    if which == "eta":
        sol, bc_wall = ax.solve_eta(fam2, cfg), fam2.log_wall
    else:
        sol, bc_wall = ax.solve_swirl(fam2, cfg), -fam2.alpha
    expected = _reference_march(fam2, cfg, which, bc_wall)
    assert np.array_equal(sol.values[-1], expected)
    assert sol.error_Linf == float(np.max(np.abs(expected - sol.exact_final)))


@settings(max_examples=30, deadline=None)
@given(n_r=st.integers(min_value=16, max_value=300),
       theta=st.floats(min_value=0.5, max_value=1.0),
       log10_dt=st.floats(min_value=-6.0, max_value=-2.5),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_step_matches_a_dense_solve(n_r, theta, log10_dt, seed):
    rng = np.random.default_rng(seed)
    dt = 10.0**log10_dt
    bc_wall = rng.uniform(-2.0, 2.0)
    stepper = SwirlStepper(n_r, dt, theta, bc_axis=0.0, bc_wall=bc_wall)
    w = np.concatenate([[0.0], rng.standard_normal(n_r - 2), [bc_wall]])
    rhs_mid = rng.standard_normal(n_r - 2)

    # The full n_r x n_r theta system, Dirichlet rows included.
    r = np.linspace(0.0, 1.0, n_r)
    dr, ri = r[1], r[1:-1]
    rows = np.arange(1, n_r - 1)
    L = np.zeros((n_r, n_r))
    L[rows, rows - 1] = 1.0 / dr**2 - 1.0 / (2.0 * ri * dr)
    L[rows, rows] = -2.0 / dr**2 - 1.0 / ri**2
    L[rows, rows + 1] = 1.0 / dr**2 + 1.0 / (2.0 * ri * dr)
    A = np.eye(n_r) - theta * dt * L
    b = w + (1.0 - theta) * dt * (L @ w)
    b[1:-1] -= dt * rhs_mid
    exact = np.linalg.solve(A, b)

    got = stepper.step(w, rhs_mid)
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))
