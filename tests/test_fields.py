import numpy as np
import pytest

import axiswirl as ax
from axiswirl.errors import BlowupTimeError, DomainError
from axiswirl.fields import (FIELD_SLICE_HEADER, eval_u_over_r,
                             field_slice_rows)
from axiswirl.norms import y_series


def test_family_validation(ref_profile):
    with pytest.raises(ValueError):
        ax.SolutionFamily(profile=ref_profile, T=0.6, part=1)
    with pytest.raises(ValueError):
        ax.SolutionFamily(profile=ref_profile, T=0.25, part=3)


def test_part_two_needs_nonpositive_forcing():
    r = np.linspace(0.0, 1.0, 11)
    k = np.sin(np.pi * r)  # positive: inadmissible for the log transform
    prof = ax.build_profile(ax.forcing_from_samples(r, k))
    with pytest.raises(ValueError):
        ax.SolutionFamily(profile=prof, T=0.25, part=2)
    ax.SolutionFamily(profile=prof, T=0.25, part=1)  # fine for part 1


def test_eval_u_zero_forcing(fam1_zero):
    r = np.linspace(0.0, 1.0, 11)
    assert np.all(ax.eval_u(fam1_zero, r, 0.1) == 0.0)


def test_eval_u_wall_trace_constant(fam1, ladder20):
    for t in ladder20.levels:
        assert ax.eval_u(fam1, 1.0, float(t)) == pytest.approx(-fam1.alpha, rel=1e-14)


def test_eval_u_axis_value(fam1):
    assert ax.eval_u(fam1, 0.0, 0.3) == 0.0


def test_eval_u_two_path_identity(fam1):
    r, t = 0.3, 0.25
    tau = 2.0 * (fam1.T - t)
    sigma = r / np.sqrt(tau)
    tight = ax.QuadratureSpec(1e-13, 1e-11, 1600)
    direct = fam1.profile.phi0_exact(sigma, tight) / np.sqrt(tau)
    assert ax.eval_u(fam1, r, t) == pytest.approx(direct, abs=1e-8)


def test_eval_u_two_path_identity_random(fam1, rng):
    prof = fam1.profile
    tight = ax.QuadratureSpec(1e-13, 1e-11, 1600)
    for _ in range(200):
        r = float(rng.uniform(1e-4, 1.0))
        t = float(rng.uniform(0.0, fam1.T * (1.0 - 2.0 ** -12)))
        tau = 2.0 * (fam1.T - t)
        sigma = r / np.sqrt(tau)
        direct = prof.phi0_exact(sigma, tight) / np.sqrt(tau)
        assert abs(ax.eval_u(fam1, r, t) - direct) < 1e-8


def test_eval_u_domain_errors(fam1):
    with pytest.raises(DomainError):
        ax.eval_u(fam1, 1.2, 0.1)
    with pytest.raises(DomainError):
        ax.eval_u(fam1, -0.1, 0.1)
    with pytest.raises(BlowupTimeError):
        ax.eval_u(fam1, 0.5, fam1.T)
    with pytest.raises(DomainError):
        ax.eval_u(fam1, 0.5, -0.01)


def test_eval_v_wall_vanishes_exactly(fam1, ladder20):
    for t in ladder20.levels:
        assert abs(ax.eval_v(fam1, 1.0, float(t))) < 1e-15


def test_eval_v_zero_forcing(fam1_zero):
    assert ax.eval_v(fam1_zero, 0.7, 0.2) == 0.0


def test_eval_v_near_blowup_consistent_with_lower_bound(fam2):
    # The sampled lower-bound constant certifies v at a late time.
    grid = ax.make_radial_grid(64)
    ladder = ax.make_time_ladder(fam2.T, 12)
    check = ax.check_bound(fam2, "phi_lower", grid, ladder)
    r, t = 0.5, fam2.T - 1e-4
    v = ax.eval_v(fam2, r, t)
    assert v > 0.0
    assert v + abs(fam2.alpha) * r >= r / (check.fitted_C * (r * r + fam2.T - t)) - 1e-12


def test_eval_eta_part_one_rejected(fam1):
    with pytest.raises(ValueError):
        ax.eval_eta(fam1, 0.5, 0.1)


def test_eval_eta_wall_trace(fam2, ladder20):
    expected = np.log1p(-fam2.alpha)
    for t in ladder20.levels:
        assert ax.eval_eta(fam2, 1.0, float(t)) == pytest.approx(expected, abs=1e-15)


def test_eval_eta_zero_forcing(fam2_zero):
    assert ax.eval_eta(fam2_zero, 0.5, 0.2) == 0.0


def test_eval_eta_compositional(fam2):
    r, t = 0.5, 0.25
    assert ax.eval_eta(fam2, r, t) == pytest.approx(
        np.log1p(ax.eval_u(fam2, r, t)), rel=1e-15)


def test_eval_vbar_boundary_values(fam2, ladder20):
    for t in ladder20.levels[::4]:
        assert abs(ax.eval_vbar(fam2, 1.0, float(t))) < 1e-15
        assert ax.eval_vbar(fam2, 0.0, float(t)) == 0.0


def test_eval_vbar_nondecreasing_along_ladder(fam2, ladder20):
    vals = np.array([ax.eval_vbar(fam2, 0.25, float(t))
                     for t in ladder20.levels[4:]])
    assert np.all(np.diff(vals) >= -1e-12 * np.abs(vals[:-1]))


def test_eval_h_support(fam1):
    t = 0.25
    edge = np.sqrt(2.0 * (fam1.T - t))
    assert ax.eval_h(fam1, min(1.0, edge * 1.01), t) == 0.0
    assert ax.eval_h(fam1, edge * 0.5, t) != 0.0


def test_eval_h_zero_forcing(fam1_zero):
    assert ax.eval_h(fam1_zero, 0.3, 0.2) == 0.0


def test_eval_pressure_at_axis(fam1):
    assert ax.eval_pressure(fam1, "v", 0.0, 0.2) == 0.0


def test_eval_pressure_of_no_points_is_empty(fam1):
    assert ax.eval_pressure(fam1, "v", np.array([]), 0.2).shape == (0,)


def test_eval_pressure_zero_forcing(fam1_zero):
    assert ax.eval_pressure(fam1_zero, "v", 0.8, 0.2) == 0.0


def test_eval_pressure_radial_momentum_identity(fam1):
    r, t = 0.5, 0.25
    h = 1e-4
    dp = ax.differentiate(lambda x: ax.eval_pressure(fam1, "v", x, t), r, h)
    v = ax.eval_v(fam1, r, t)
    assert dp == pytest.approx(v * v / r, abs=1e-8)


@pytest.mark.parametrize("which, t", [("v", 0.25), ("vbar", 0.5 - 2.0 ** -20),
                                      ("vbar", np.array([0.4]))])
def test_eval_pressure_rows_match_point_calls(fam2_big, which, t):
    spec = ax.QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=800)
    radii = np.array([0.0, 1e-4, 0.003, 0.2, 0.55, 1.0])
    rows = ax.eval_pressure(fam2_big, which, radii, t, spec)
    assert rows.shape == radii.shape
    for r, p in zip(radii, rows):
        point = ax.eval_pressure(fam2_big, which, float(r), t, spec)
        assert abs(p - point) <= max(spec.abs_tol, spec.rel_tol * abs(point))


def test_eval_pressure_rows_take_their_own_times(fam2_big):
    # One row per (r, t) point, each against its scalar call.
    spec = ax.QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=800)
    radii = np.array([0.0, 0.003, 0.2, 0.55, 1.0])
    times = np.array([0.1, 0.5 - 2.0 ** -20, 0.25, 0.4, 0.3])
    rows = ax.eval_pressure(fam2_big, "vbar", radii, times, spec)
    for r, t, p in zip(radii, times, rows):
        point = ax.eval_pressure(fam2_big, "vbar", float(r), float(t), spec)
        assert abs(p - point) <= max(spec.abs_tol, spec.rel_tol * abs(point))


def test_eval_pressure_invalid_field(fam1):
    with pytest.raises(ValueError):
        ax.eval_pressure(fam1, "w", 0.5, 0.2)


def test_differentiate_propagates_domain_errors(fam1):
    # Stencil arms poking out of the cylinder surface as the field's error.
    with pytest.raises(DomainError):
        ax.differentiate(lambda x: ax.eval_u(fam1, x, 0.2), 0.999, 0.01)


def test_eval_Y_zero_forcing(fam2_zero):
    y = ax.eval_Y(fam2_zero, 0.5, 0.2)
    assert y == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_eval_Y_sign_of_square_term(fam2, rng):
    for _ in range(50):
        r = float(rng.uniform(1e-4, 1.0))
        t = float(rng.uniform(0.0, fam2.T * (1.0 - 2.0 ** -16)))
        y1, y2, y3, y4, y = ax.eval_Y(fam2, r, t)
        assert y4 <= 0.0
        assert y == pytest.approx(y1 + y2 + y3 + y4, rel=1e-12, abs=1e-300)


def test_eval_Y_axis_cutoff(fam2):
    with pytest.raises(DomainError):
        ax.eval_Y(fam2, 1e-5, 0.2)
    with pytest.raises(ValueError):
        ax.eval_Y(ax.SolutionFamily(profile=fam2.profile, T=0.5, part=1), 0.5, 0.2)


def test_eta_identity_finite_difference_crosscheck(fam2):
    # (d_rr + d_r/r - 1/r^2 - d_t) eta at one point vs the analytic Y sum.
    r, t = 0.5, 0.25
    h_r, h_t = 5e-4, 1e-6
    eta = lambda x: ax.eval_eta(fam2, x, t)
    d_rr = ax.differentiate(eta, r, h_r, order=2)
    d_r = ax.differentiate(eta, r, h_r, order=1)
    d_t = ax.differentiate(lambda s: ax.eval_eta(fam2, r, s), t, h_t, order=1)
    lhs = d_rr + d_r / r - eta(r) / r**2 - d_t
    y = ax.eval_Y(fam2, r, t)[4]
    assert lhs == pytest.approx(y, abs=100.0 * (h_r**2 + h_t**2))


def test_sample_and_velocity_structural_zeros(fam2):
    s = ax.sample(fam2, 0.4, 0.2)
    assert s.sigma == pytest.approx(0.4 / np.sqrt(2.0 * (fam2.T - 0.2)), rel=1e-15)
    for name in ("u", "v", "eta", "vbar", "P", "h", "Y1"):
        assert name in s.values
    vec = ax.velocity(fam2, "vbar", 0.4, 0.2)
    assert vec.v_r == 0.0
    assert vec.v_3 == 0.0


def test_u_over_r_axis_limit(fam1):
    tau = 2.0 * (fam1.T - 0.2)
    expected = -fam1.profile.I0 / (2.0 * tau)
    assert eval_u_over_r(fam1, 1e-9, 0.2) == pytest.approx(expected, rel=1e-6)


def test_field_slice_rows_part1_nans(fam1):
    rows = field_slice_rows(fam1, [0.2, 0.8], [0.1, 0.3])
    assert rows.shape == (4, len(FIELD_SLICE_HEADER))
    assert np.all(np.isnan(rows[:, FIELD_SLICE_HEADER.index("eta")]))
    assert np.all(~np.isnan(rows[:, FIELD_SLICE_HEADER.index("u")]))


def test_field_slice_rows_is_one_row_call(fam2, monkeypatch):
    # The whole (time, radius) lattice in one pass; the pressure is the
    # closed form, with no quadrature.
    from axiswirl import fields

    real = fields.integrate
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(fields, "integrate", counting)
    times = [0.1, 0.3, 0.5 - 2.0 ** -16]
    rows = field_slice_rows(fam2, [5e-5, 0.2, 0.8, 1.0], times)
    assert rows.shape == (12, len(FIELD_SLICE_HEADER))
    assert calls == []
    np.testing.assert_array_equal(rows[:, 1], np.repeat(times, 4))


def test_field_slice_rows_match_samples(fam2):
    # The vectorised slice against the one-point view: every field equal,
    # the pressure (one row-batched quadrature) to the quadrature tolerance.
    radii, times = [5e-5, 0.2, 0.8, 1.0], [0.1, 0.5 - 2.0 ** -16]
    rows = field_slice_rows(fam2, radii, times)
    p_col = FIELD_SLICE_HEADER.index("P")
    for row in rows:
        s = ax.sample(fam2, row[0], row[1])
        expected = [s.r, s.t, s.sigma] + [s.values.get(name, np.nan)
                                          for name in FIELD_SLICE_HEADER[3:]]
        others = [i for i in range(len(row)) if i != p_col]
        np.testing.assert_array_equal(row[others], np.array(expected)[others])
        tol = max(ax.DEFAULT_SPEC.abs_tol, ax.DEFAULT_SPEC.rel_tol * abs(s.values["P"]))
        assert abs(row[p_col] - s.values["P"]) <= tol


def test_upper_bound_ratio_bounded_and_stable(fam1):
    grid = ax.make_radial_grid(96)
    ladder = ax.make_time_ladder(fam1.T, 14)
    check = ax.check_bound(fam1, "u_upper", grid, ladder)
    assert check.passed
    assert np.isfinite(check.fitted_C)


def test_blowup_sup_growth(fam2_big, fam1_big):
    grid = ax.make_radial_grid(128)
    ladder = ax.make_time_ladder(0.5, 20)
    r = grid.nodes[1:]
    vmax = np.array([np.max(np.abs(ax.eval_v(fam1_big, r, float(t))))
                     for t in ladder.levels])
    assert np.all(np.diff(vmax) >= -1e-12 * vmax[:-1])
    assert vmax[-1] > 10.0 * np.max(np.abs(ax.eval_v(fam1_big, r, 0.0)))


def test_tiny_negative_time_raises_although_T_minus_t_rounds_to_T(fam1, fam2):
    # T - (-1e-300) == T in floating point; validation must read t itself.
    t = -1e-300
    for evaluator in (ax.eval_u, ax.eval_v, ax.eval_du_dr, ax.eval_h):
        with pytest.raises(DomainError):
            evaluator(fam1, 0.5, t)
    with pytest.raises(DomainError):
        ax.eval_Y(fam2, 0.5, t)
    from axiswirl.norms import spatial_L1
    with pytest.raises(DomainError):
        spatial_L1(fam1, "f", t, T_minus=fam1.T)


def test_value_path_never_touches_the_I_spline(fam2):
    # u, v, eta, vbar, the pressure and the kinetic energy need phi0 alone;
    # only the gradient path (the profile jet) reads the I-spline.
    import dataclasses

    class Untouchable:
        def __call__(self, s):
            raise AssertionError("value path evaluated the I-spline")

    prof = dataclasses.replace(fam2.profile, _I_spline=Untouchable())
    fam = ax.SolutionFamily(profile=prof, T=fam2.T, part=2)
    r = np.linspace(0.0, 1.0, 33)
    for evaluator in (ax.eval_u, ax.eval_v, ax.eval_eta, ax.eval_vbar):
        assert np.array_equal(evaluator(fam, r, 0.3), evaluator(fam2, r, 0.3))
    assert ax.eval_pressure(fam, "vbar", 0.7, 0.3) == ax.eval_pressure(fam2, "vbar", 0.7, 0.3)
    from axiswirl.norms import NORM_SPEC, _kinetic
    assert _kinetic(fam, "vbar", 0.3, NORM_SPEC) == _kinetic(fam2, "vbar", 0.3, NORM_SPEC)
    with pytest.raises(AssertionError, match="I-spline"):
        ax.eval_du_dr(fam, r, 0.3)


_GRID16 = ax.make_radial_grid(16)
_LADDER_CONSUMERS = {
    "check_swirl_pde": lambda fam, ladder: ax.check_swirl_pde(fam, "v", _GRID16, ladder),
    "check_boundary": ax.check_boundary,
    "check_bound": lambda fam, ladder: ax.check_bound(fam, "u_upper", _GRID16, ladder),
    "energy_series_v": lambda fam, ladder: ax.energy_series(fam, "v", ladder),
    "energy_series_vbar": lambda fam, ladder: ax.energy_series(fam, "vbar", ladder),
    "l1_series": ax.l1_series,
    "y_series": y_series,
}


@pytest.mark.parametrize("consumer", list(_LADDER_CONSUMERS))
def test_a_ladder_built_for_another_T_is_rejected(ref_profile, consumer):
    # Its levels all lie in [0, 0.3), so only the ladder's own T can tell
    # that its T_minus is not T - t of this family.
    fam = ax.SolutionFamily(profile=ref_profile, T=0.3, part=2)
    with pytest.raises(ValueError, match="ladder built for T = 0.25"):
        _LADDER_CONSUMERS[consumer](fam, ax.make_time_ladder(0.25, 12))
