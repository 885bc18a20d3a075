import importlib.machinery
import importlib.util
import json
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import axiswirl as ax
from axiswirl.fields import _rhs, _w
from axiswirl.cli import main
from axiswirl.oracle import (SwirlStepper, TRAJECTORY_HEADER, _lapack,
                             default_levels, trajectory_rows)


def test_config_validation():
    with pytest.raises(ValueError, match="n_r"):
        ax.OracleConfig(n_r=8, steps=100)
    with pytest.raises(ValueError, match="steps"):
        ax.OracleConfig(n_r=64, steps=0)


@pytest.mark.parametrize("T", [0.5, 0.3617, 1e-300])
def test_octaves_are_the_dyadic_ladder_bit_for_bit(T):
    # solve's octave ends are the T - t of this ladder
    assert ax.TimeLadder(T, 3).T_minus.tolist() == [T / 2, T / 4, T / 8]


def test_zero_forcing_zero_trajectory(fam1_zero):
    cfg = ax.OracleConfig(n_r=64, steps=250)
    sol = ax.solve(fam1_zero, cfg, "u")
    assert sol.error_Linf == 0.0
    assert np.all(sol.values == 0.0)


def test_stepper_annihilates_linear_profile():
    stepper = SwirlStepper(n_r=128, dt=1e-3, bc_wall=0.7)
    w = 0.7 * stepper.r
    advanced = stepper.step(w.copy(), np.zeros(126))
    assert np.max(np.abs(advanced - w)) < 1e-12


def test_solve_swirl_error_within_scheme_budget(fam1):
    cfg = ax.OracleConfig(n_r=256, steps=2341)
    sol = ax.solve(fam1, cfg, "u")
    dr, dt = 1.0 / (cfg.n_r - 1), 0.5 * fam1.T / cfg.steps
    assert sol.error_Linf < 50.0 * (dr**2 + dt**2)
    assert sol.error_L2 <= sol.error_Linf * np.sqrt(2.0 * np.pi)


def test_convergence_study_second_order(fam1):
    run = ax.convergence_study(fam1, default_levels())
    assert run.study_valid
    assert 1.7 <= run.convergence_order <= 2.3
    for coarse, fine in zip(run.errors_per_level[:-1], run.errors_per_level[1:]):
        assert 3.4 <= coarse / fine <= 4.6


def test_convergence_study_eta(fam2):
    run = ax.convergence_study(fam2, default_levels(), which="eta")
    assert run.study_valid
    assert 1.7 <= run.convergence_order <= 2.3


def test_degenerate_errors_flagged(fam1_zero):
    # Exact (zero) solutions leave nothing to converge: flagged, not faked.
    run = ax.convergence_study(fam1_zero, default_levels())
    assert not run.study_valid
    assert np.isnan(run.convergence_order)


def test_study_needs_two_levels(fam1):
    with pytest.raises(ValueError):
        ax.convergence_study(fam1, default_levels()[:1])


def test_solve_eta_requires_part2(fam1):
    with pytest.raises(ValueError, match="part-2"):
        ax.solve(fam1, ax.OracleConfig(n_r=64, steps=250), "eta")


def test_solver_stays_clear_of_blowup(fam1):
    sol = ax.solve(fam1, ax.OracleConfig(n_r=64, steps=250), "u")
    assert sol.times[-1] <= fam1.T - fam1.T / 8.0 + 1e-12


def test_trajectory_rows_layout(fam1):
    sol = ax.solve(fam1, ax.OracleConfig(n_r=64, steps=250), "u")
    rows = trajectory_rows(fam1, sol)
    assert rows.shape[1] == len(TRAJECTORY_HEADER)
    assert np.all(rows[:, 4] >= 0.0)
    assert np.allclose(rows[:, 4], np.abs(rows[:, 2] - rows[:, 3]))


@pytest.mark.parametrize("which", ["u", "eta"])
def test_trajectory_rows_match_the_per_point_evaluators(fam2, which):
    # The row-by-row table from the public evaluators at the snapshot times.
    # The exact column is taken at the march's own T - t, which t = T - (T - t)
    # does not give back where a step end is not dyadic, so it and the error
    # column agree within a few ulps of the largest value.
    sol = ax.solve(fam2, ax.OracleConfig(n_r=64, steps=250), which)
    expected = []
    for t, slc in zip(sol.times, sol.values):
        rs = sol.r[::8]
        for r, wn, we in zip(rs, slc[::8], ax.evaluate(fam2, which, rs, float(t))):
            expected.append([float(t), float(r), float(wn), float(we),
                             abs(float(wn) - float(we))])
    rows, expected = trajectory_rows(fam2, sol), np.array(expected)
    assert np.array_equal(rows[:, :3], expected[:, :3])
    ulps = 4.0 * np.finfo(float).eps * np.max(np.abs(sol.values))
    assert np.max(np.abs(rows[:, 3:] - expected[:, 3:])) <= ulps


def test_trajectory_rows_read_the_marched_field_and_reject_an_unknown_one(fam2):
    # The exact column is the field the march recorded, not a name passed
    # beside it; a misspelt one raises instead of writing vbar.
    import dataclasses

    sol = ax.solve(fam2, ax.OracleConfig(n_r=16, steps=4), "eta")
    with pytest.raises(ValueError, match="unknown field 'Eta'"):
        trajectory_rows(fam2, dataclasses.replace(sol, which="Eta"))


def test_convergence_study_rejects_unknown_equation(fam2):
    with pytest.raises(ValueError, match="'Swirl'"):
        ax.convergence_study(fam2, default_levels(), which="Swirl")


def _octaves(fam, cfg):
    """The shipped schedule, apart from the library: three octaves of T - t,
    T 2^-j down to T 2^-(j+1), of ``cfg.steps`` steps each, as (T - t at
    the start, T - t at the end, step count)."""
    return [(fam.T * 0.5**j, fam.T * 0.5**(j + 1), cfg.steps) for j in range(3)]


def _reference_march(fam, n_r, octaves, which, bc_wall):
    """One forcing evaluation and one ``stepper.step`` per time step, no
    blocks, a stepper per octave; T - t at each step's midpoint and end from
    its octave's start. Returns the times and slices of the initial slice
    and of the step ends nearest to t = k t_end / 8, k = 1..8, t_end being
    the time the last octave ends at."""
    r = np.linspace(0.0, 1.0, n_r)
    rhs = _rhs(fam, which)
    w = _w(fam, which, r, fam.T)
    times, slices = [0.0], [w]
    for a, b, n in octaves:
        h = (a - b) / n
        stepper = SwirlStepper(n_r, h, bc_wall)
        for k in range(n):
            w = stepper.step(w, rhs(r[1:-1], a - (k + 0.5) * h))
            times.append(fam.T - (b if k == n - 1 else a - (k + 1) * h))
            slices.append(w)
    times = np.array(times)
    keep = [int(np.argmin(np.abs(times - target)))
            for target in np.linspace(0.0, fam.T - octaves[-1][1], 9)]
    return times[keep], np.array(slices)[keep]


def _solve(fam, cfg, which):
    return ax.solve(fam, cfg, which), (fam.log_wall if which == "eta" else -fam.alpha)


# Steps per octave. At n_r = 64 a forcing block holds 8192 // 62 = 132
# steps, so the octave ends, 300 and 600 or 1100 and 2200 steps in, cut the
# march inside blocks, and the snapshots at t = k (7 T / 8) / 8 fall
# between the octave ends, off them.
@pytest.mark.parametrize("steps", [300, 1100])
@pytest.mark.parametrize("which", ["u", "eta"])
def test_march_equals_the_per_step_loop(fam2, which, steps):
    cfg = ax.OracleConfig(n_r=64, steps=steps)
    sol, bc_wall = _solve(fam2, cfg, which)
    _, slices = _reference_march(fam2, cfg.n_r, _octaves(fam2, cfg), which, bc_wall)
    assert np.array_equal(sol.values[-1], slices[-1])
    assert sol.error_Linf == float(np.max(np.abs(slices[-1] - sol.exact_final)))


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


@pytest.mark.parametrize("steps", [300, 1100])
@pytest.mark.parametrize("which", ["u", "eta"])
def test_march_snapshots_equal_the_per_step_loop(fam2, which, steps):
    # The snapshot steps cut the march inside and across forcing blocks.
    cfg = ax.OracleConfig(n_r=64, steps=steps)
    sol, bc_wall = _solve(fam2, cfg, which)
    times, slices = _reference_march(fam2, cfg.n_r, _octaves(fam2, cfg), which, bc_wall)
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


def _textbook_march(fam, n_r, octaves, which, bc_wall):
    """Crank-Nicolson as written: (I - dt L/2) w' = (I + dt L/2) w - dt f
    plus the wall coupling of both sides, one banded solve per step, with
    the step of each octave in turn."""
    from scipy.linalg import solve_banded

    r = np.linspace(0.0, 1.0, n_r)
    dr, ri = r[1], r[1:-1]
    lower = 1.0 / dr**2 - 1.0 / (2.0 * ri * dr)
    diag = -2.0 / dr**2 - 1.0 / ri**2
    upper = 1.0 / dr**2 + 1.0 / (2.0 * ri * dr)
    rhs = _rhs(fam, which)
    w = _w(fam, which, r, fam.T)
    for start, end, n_steps in octaves:
        dt = (start - end) / n_steps
        ab = np.zeros((3, ri.size))
        ab[0, 1:] = -0.5 * dt * upper[:-1]
        ab[1] = 1.0 - 0.5 * dt * diag
        ab[2, :-1] = -0.5 * dt * lower[1:]
        for n in range(n_steps):
            b = w[1:-1] + 0.5 * dt * (lower * w[:-2] + diag * w[1:-1] + upper * w[2:])
            b -= dt * rhs(ri, start - (n + 0.5) * dt)
            b[-1] += 0.5 * dt * upper[-1] * bc_wall
            w = np.concatenate([[0.0], solve_banded((1, 1), ab, b), [bc_wall]])
    return w


@pytest.mark.parametrize("seed, part, which", [(None, 1, "u"), (103, 2, "u"),
                                               (103, 2, "eta")],
                         ids=["bump-u", "seed103-u", "seed103-eta"])
def test_march_stays_within_rounding_of_textbook_crank_nicolson(request, seed, part, which):
    # The middle level of the default ladder: n_r = 256, 3 octaves of 192 steps.
    fam = request.getfixturevalue("fam1") if seed is None else _seeded_family(seed, part)
    cfg = default_levels()[1]
    octaves = _octaves(fam, cfg)
    assert (cfg.n_r, sum(n for *_, n in octaves)) == (256, 576)
    sol, bc_wall = _solve(fam, cfg, which)
    expected = _textbook_march(fam, cfg.n_r, octaves, which, bc_wall)
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
    # The finest level of the default ladder, n_r = 512 and 3 octaves of 384
    # steps, where the operator's conditioning magnifies coefficient rounding
    # the most; A = I - dt L / 2 is the worse conditioned the larger dt is.
    fam = request.getfixturevalue("fam1") if seed is None else _seeded_family(seed, part)
    cfg = default_levels()[2]
    octaves = _octaves(fam, cfg)
    assert (cfg.n_r, sum(n for *_, n in octaves)) == (512, 1152)
    sol, bc_wall = _solve(fam, cfg, which)
    expected = _textbook_march(fam, cfg.n_r, octaves, which, bc_wall)
    assert np.max(np.abs(sol.values[-1] - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("seed, part, which", [(None, 1, "u"), (103, 2, "u"),
                                               (103, 2, "eta")],
                         ids=["bump-u", "seed103-u", "seed103-eta"])
def test_shipped_time_step_adds_little_to_the_error(request, seed, part, which):
    # Twice the shipped steps per octave (2 x 96 at n_r = 128) leave the grids
    # as they are, so the final errors differ only by the time error:
    # 0.51%, 0.22% and 1.04% here. This keeps a coarser dt from hiding behind
    # the spatial error.
    fam = request.getfixturevalue("fam1") if seed is None else _seeded_family(seed, part)
    shipped = ax.convergence_study(fam, default_levels(), which)
    finer = ax.convergence_study(
        fam, [ax.OracleConfig(cfg.n_r, 2 * cfg.steps) for cfg in default_levels()], which)
    assert abs(shipped.final_error_Linf - finer.final_error_Linf) < (
        0.1 * finer.final_error_Linf)


@pytest.mark.parametrize("seed, part, which", [(None, 1, "u"), (103, 2, "u"),
                                               (103, 2, "eta")],
                         ids=["bump-u", "seed103-u", "seed103-eta"])
def test_octave_steps_add_no_more_time_error_than_uniform_steps(request, seed, part, which):
    # On every default level, the time error (against 8x the octave steps on
    # the same grid) is no larger than that of 4 uniform steps per radial
    # node, which takes 78% more steps: 0.58-0.59x of it here.
    fam = request.getfixturevalue("fam1") if seed is None else _seeded_family(seed, part)
    for cfg in default_levels():
        sol, bc_wall = _solve(fam, cfg, which)
        fine, _ = _solve(fam, ax.OracleConfig(cfg.n_r, 8 * cfg.steps), which)
        _, uniform = _reference_march(fam, cfg.n_r, [(fam.T, fam.T / 8.0, 4 * cfg.n_r)],
                                      which, bc_wall)
        octave_error = np.max(np.abs(sol.values[-1] - fine.values[-1]))
        uniform_error = np.max(np.abs(uniform[-1] - fine.values[-1]))
        assert octave_error <= uniform_error


def test_stepper_rejects_a_backward_step():
    # dt < 0 makes I - dt L / 2 indefinite: the factorisation must say so.
    with pytest.raises(np.linalg.LinAlgError, match="pttrf"):
        SwirlStepper(64, -1e-3, 0.0)


def test_octave_ends_cut_the_march_like_the_per_step_loop(monkeypatch):
    # At the seeded T = 0.3617, T / 2 and 3T / 4 are not dyadic. With 99 steps
    # per octave at n_r = 64, the 132-step forcing blocks and the snapshots
    # fall on both sides of both octave ends, 99 and 198 steps in.
    from axiswirl import oracle

    fam = _seeded_family(103, 2)
    blocks = []
    real_rhs = oracle._rhs

    def recording_rhs(fam, which):
        kernel = real_rhs(fam, which)

        def recorded(r, tm):
            blocks.append(np.array(tm[:, 0]))
            return kernel(r, tm)
        return recorded

    monkeypatch.setattr(oracle, "_rhs", recording_rhs)
    cfg = ax.OracleConfig(n_r=64, steps=99)
    for which in ("u", "eta"):
        blocks.clear()
        sol, bc_wall = _solve(fam, cfg, which)
        octaves = _octaves(fam, cfg)
        times, slices = _reference_march(fam, cfg.n_r, octaves, which, bc_wall)
        assert np.array_equal(sol.times, times)
        assert np.array_equal(sol.values, slices)
        assert times[4] < fam.T / 2 < times[5] and times[6] < 0.75 * fam.T < times[7]

        ends = np.cumsum([len(b) for b in blocks]).tolist()
        assert {99, 198} <= set(ends) and 132 in ends and 264 in ends
        # Every midpoint's T - t is T 2^-j - (k + 1/2) h_j, not T - t_mid
        # with t_mid = T (1 - 2^-j) + (k + 1/2) h_j, which rounds apart here.
        own = np.concatenate([a - (np.arange(n) + 0.5) * ((a - b) / n)
                              for a, b, n in octaves])
        assert np.array_equal(np.concatenate(blocks), own)
        shifted = np.concatenate([fam.T - ((fam.T - a) + (np.arange(n) + 0.5) * ((a - b) / n))
                                  for a, b, n in octaves])
        assert not np.array_equal(own, shifted)


def test_lapack_is_scipy_linalg_lapacks_pttrf_and_pttrs():
    # The directly loaded extension is the one scipy's public API re-exports:
    # a scipy that moves _flapack fails here, not in a user's run.
    from scipy.linalg import lapack

    pttrf, pttrs = _lapack()
    assert pttrf is lapack.dpttrf and pttrs is lapack.dpttrs


@pytest.mark.parametrize("case", ["no-scipy", "no-flapack"])
def test_oracle_without_scipys_lapack_exits_1_with_a_summary(case, tmp_path, monkeypatch,
                                                             capsys):
    if case == "no-scipy":
        spec, looked_for = None, "no scipy package"
    else:
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path / "scipy")]
        looked_for = str(tmp_path / "scipy" / "linalg" / "_flapack")
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: (
        spec if name == "scipy" else find_spec(name, package)))
    _lapack.cache_clear()
    try:
        with pytest.raises(ax.AxiswirlError, match="scipy") as info:
            _lapack()
        assert looked_for in str(info.value)
        out = tmp_path / "out"
        assert main(["oracle", "--part", "1", "--out", str(out)]) == 1
    finally:
        _lapack.cache_clear()
    assert capsys.readouterr().err == f"axiswirl: {info.value}\n"
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["exit_status"] == 1 and summary["error"] == str(info.value)
