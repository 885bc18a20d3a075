import numpy as np
import pytest

import axiswirl as ax
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
