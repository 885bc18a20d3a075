import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import axiswirl as ax
from axiswirl.fields import _rhs, _T_minus, _w
from axiswirl.oracle import (STEPS_PER_NODE, SwirlStepper, TRAJECTORY_HEADER,
                             default_levels, trajectory_rows)


def test_config_validation():
    with pytest.raises(ValueError):
        ax.OracleConfig(n_r=8, dt=1e-4, delta=0.05)
    with pytest.raises(ValueError):
        ax.OracleConfig(n_r=64, dt=1e-2, delta=0.05)  # dt >= delta/10
    with pytest.raises(ValueError):
        ax.OracleConfig(n_r=64, dt=1e-4, delta=0.0)


def test_zero_forcing_zero_trajectory(fam1_zero):
    cfg = ax.OracleConfig(n_r=64, dt=1e-3, delta=0.0625)
    sol = ax.solve_swirl(fam1_zero, cfg)
    assert sol.error_Linf == 0.0
    assert np.all(sol.values == 0.0)


def test_stepper_annihilates_linear_profile():
    stepper = SwirlStepper(n_r=128, dt=1e-3, bc_wall=0.7)
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
    stepper = SwirlStepper(cfg.n_r, dt, bc_wall)
    ri = stepper.r[1:-1]
    rhs = _rhs(fam, which)
    tm = _T_minus(fam, np.arange(n_steps) * dt + 0.5 * dt)
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
       log10_dt=st.floats(min_value=-6.0, max_value=-2.5),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_step_matches_a_dense_solve(n_r, log10_dt, seed):
    rng = np.random.default_rng(seed)
    dt = 10.0**log10_dt
    bc_wall = rng.uniform(-2.0, 2.0)
    stepper = SwirlStepper(n_r, dt, bc_wall=bc_wall)
    w = np.concatenate([[0.0], rng.standard_normal(n_r - 2), [bc_wall]])
    rhs_mid = rng.standard_normal(n_r - 2)

    # The full n_r x n_r Crank-Nicolson system, Dirichlet rows included.
    r = np.linspace(0.0, 1.0, n_r)
    dr, ri = r[1], r[1:-1]
    rows = np.arange(1, n_r - 1)
    L = np.zeros((n_r, n_r))
    L[rows, rows - 1] = 1.0 / dr**2 - 1.0 / (2.0 * ri * dr)
    L[rows, rows] = -2.0 / dr**2 - 1.0 / ri**2
    L[rows, rows + 1] = 1.0 / dr**2 + 1.0 / (2.0 * ri * dr)
    A = np.eye(n_r) - 0.5 * dt * L
    b = w + 0.5 * dt * (L @ w)
    b[1:-1] -= dt * rhs_mid
    exact = np.linalg.solve(A, b)

    got = stepper.step(w, rhs_mid)
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))


def _reference_snapshots(fam, cfg, which, bc_wall):
    """Times and slices of a per-step ``stepper.step`` loop at the nine kept
    steps, evenly spaced from the initial slice to the last."""
    t_end = fam.T - cfg.delta
    n_steps = int(round(t_end / cfg.dt))
    dt = t_end / n_steps
    stepper = SwirlStepper(cfg.n_r, dt, bc_wall)
    ri = stepper.r[1:-1]
    rhs = _rhs(fam, which)
    tm = _T_minus(fam, np.arange(n_steps) * dt + 0.5 * dt)
    keep = np.linspace(0, n_steps, 9).astype(int)
    w = _w(fam, which, stepper.r, fam.T)
    slices = [w]
    for n in range(n_steps):
        w = stepper.step(w, rhs(ri, tm[n]))
        if n + 1 in keep:
            slices.append(w)
    return keep * dt, np.array(slices)


@pytest.mark.parametrize("steps", [300, 1100])
@pytest.mark.parametrize("which", ["u", "eta"])
def test_march_snapshots_equal_the_per_step_loop(fam2, which, steps):
    # The snapshot steps cut the march inside and across forcing blocks.
    delta = fam2.T / 8.0
    cfg = ax.OracleConfig(n_r=64, dt=(fam2.T - delta) / steps, delta=delta)
    if which == "eta":
        sol, bc_wall = ax.solve_eta(fam2, cfg), fam2.log_wall
    else:
        sol, bc_wall = ax.solve_swirl(fam2, cfg), -fam2.alpha
    times, slices = _reference_snapshots(fam2, cfg, which, bc_wall)
    assert sol.times.shape == (9,) and sol.values.shape == (9, cfg.n_r)
    assert np.array_equal(sol.times, times)
    assert np.array_equal(sol.values, slices)


def _seeded_family(seed, part):
    """The benchmark's seeded nonpositive table at its seeded T."""
    make_inputs = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "inputs.py"))[
        "make_inputs"]
    inputs = make_inputs(seed)
    rows = np.loadtxt(inputs.table_text.splitlines()[1:], delimiter=",")
    profile = ax.build_profile(ax.forcing_from_samples(rows[:, 0], rows[:, 1]))
    return ax.SolutionFamily(profile=profile, T=inputs.T, part=part)


def _textbook_march(fam, cfg, which, bc_wall):
    """Crank-Nicolson as written: (I - dt L/2) w' = (I + dt L/2) w - dt f
    plus the wall coupling of both sides, one banded solve per step."""
    from scipy.linalg import solve_banded

    t_end = fam.T - cfg.delta
    n_steps = int(round(t_end / cfg.dt))
    dt = t_end / n_steps
    r = np.linspace(0.0, 1.0, cfg.n_r)
    dr, ri = r[1], r[1:-1]
    lower = 1.0 / dr**2 - 1.0 / (2.0 * ri * dr)
    diag = -2.0 / dr**2 - 1.0 / ri**2
    upper = 1.0 / dr**2 + 1.0 / (2.0 * ri * dr)
    ab = np.zeros((3, ri.size))
    ab[0, 1:] = -0.5 * dt * upper[:-1]
    ab[1] = 1.0 - 0.5 * dt * diag
    ab[2, :-1] = -0.5 * dt * lower[1:]
    rhs = _rhs(fam, which)
    tm = _T_minus(fam, np.arange(n_steps) * dt + 0.5 * dt)
    w = _w(fam, which, r, fam.T)
    for n in range(n_steps):
        b = w[1:-1] + 0.5 * dt * (lower * w[:-2] + diag * w[1:-1] + upper * w[2:])
        b -= dt * rhs(ri, tm[n])
        b[-1] += 0.5 * dt * upper[-1] * bc_wall
        w = np.concatenate([[0.0], solve_banded((1, 1), ab, b), [bc_wall]])
    return w


@pytest.mark.parametrize("seed, part, which", [(None, 1, "u"), (103, 2, "u"),
                                               (103, 2, "eta")],
                         ids=["bump-u", "seed103-u", "seed103-eta"])
def test_march_stays_within_rounding_of_textbook_crank_nicolson(request, seed, part, which):
    # The middle level of the default ladder: n_r = 256, 1,024 steps.
    fam = request.getfixturevalue("fam1") if seed is None else _seeded_family(seed, part)
    cfg = default_levels(fam)[1]
    assert (cfg.n_r, int(round((fam.T - cfg.delta) / cfg.dt))) == (256, 1024)
    if which == "eta":
        sol, bc_wall = ax.solve_eta(fam, cfg), fam.log_wall
    else:
        sol, bc_wall = ax.solve_swirl(fam, cfg), -fam.alpha
    expected = _textbook_march(fam, cfg, which, bc_wall)
    assert np.max(np.abs(sol.values[-1] - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_step_leaves_a_read_only_forcing_unchanged():
    stepper = SwirlStepper(n_r=64, dt=1e-3, bc_wall=0.7)
    w = 0.7 * stepper.r**2
    rhs_mid = np.linspace(-1.0, 1.0, 62)
    kept = rhs_mid.copy()
    rhs_mid.setflags(write=False)
    advanced = stepper.step(w, rhs_mid)
    assert np.array_equal(rhs_mid, kept)
    assert np.array_equal(advanced, stepper.step(w, kept))


@pytest.mark.parametrize("seed, part, which", [(None, 1, "u"), (103, 2, "eta")],
                         ids=["bump-u", "seed103-eta"])
def test_finest_level_march_stays_within_rounding_of_textbook_crank_nicolson(
        request, seed, part, which):
    # The finest level of the default ladder, n_r = 512 and 2,048 steps, where
    # the operator's conditioning magnifies coefficient rounding the most;
    # A = I - dt L / 2 is the worse conditioned the larger dt is.
    fam = request.getfixturevalue("fam1") if seed is None else _seeded_family(seed, part)
    cfg = default_levels(fam)[2]
    assert (cfg.n_r, int(round((fam.T - cfg.delta) / cfg.dt))) == (512, 2048)
    if which == "eta":
        sol, bc_wall = ax.solve_eta(fam, cfg), fam.log_wall
    else:
        sol, bc_wall = ax.solve_swirl(fam, cfg), -fam.alpha
    expected = _textbook_march(fam, cfg, which, bc_wall)
    assert np.max(np.abs(sol.values[-1] - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("seed, part, equation", [(None, 1, "swirl"), (103, 2, "swirl"),
                                                  (103, 2, "eta")],
                         ids=["bump-u", "seed103-u", "seed103-eta"])
def test_shipped_time_step_adds_little_to_the_error(request, seed, part, equation):
    # Twice the shipped steps per node leave the grids as they are, so the
    # final errors differ only by the time error: 0.75%, 0.5% and 0.1% here.
    # This keeps a coarser dt from hiding behind the spatial error.
    fam = request.getfixturevalue("fam1") if seed is None else _seeded_family(seed, part)
    shipped = ax.convergence_study(fam, default_levels(fam), equation)
    finer = ax.convergence_study(
        fam, default_levels(fam, base_steps=2 * STEPS_PER_NODE * 128), equation)
    assert abs(shipped.final_error_Linf - finer.final_error_Linf) < (
        0.1 * finer.final_error_Linf)


def test_stepper_rejects_a_backward_step():
    # dt < 0 makes I - dt L / 2 indefinite: the factorisation must say so.
    with pytest.raises(np.linalg.LinAlgError, match="pttrf"):
        SwirlStepper(64, -1e-3, 0.0)
