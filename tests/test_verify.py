import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import axiswirl as ax
from axiswirl import verify
from axiswirl.cli import RunConfig
from axiswirl.errors import ConfigError
from axiswirl.verify import report_to_dict, residual_order


@pytest.fixture(scope="module")
def grid64():
    return ax.make_radial_grid(64)


@pytest.fixture(scope="module")
def ladder10():
    return ax.make_time_ladder(0.5, 10)


def test_zero_forcing_pde_residuals_vanish(fam1_zero, grid64, ladder10):
    report = ax.check_swirl_pde(fam1_zero, "v", grid64, ladder10)
    assert report.passed
    assert report.max_abs_residual == 0.0
    assert report.max_raw_residual == 0.0


def test_zero_forcing_boundary(fam1_zero, ladder10):
    report = ax.check_boundary(fam1_zero, ladder10)
    assert report.passed
    assert report.max_abs_residual == 0.0


def test_part1_pde_check_passes(fam1, grid128, ladder12):
    report = ax.check_swirl_pde(fam1, "v", grid128, ladder12)
    assert report.equation == "swirl_pde_part1"
    assert report.passed
    assert report.max_abs_residual <= report.tolerance


def test_part1_pde_order(fam1, grid128, ladder12):
    order, reports = residual_order(fam1, "v", grid128, ladder12)
    assert all(r.passed for r in reports)
    assert order >= 1.8


def test_linear_correction_is_annihilated(fam1, grid64, ladder10):
    # u and v satisfy the same equation with the same right side.
    ru = ax.check_swirl_pde(fam1, "u", grid64, ladder10)
    rv = ax.check_swirl_pde(fam1, "v", grid64, ladder10)
    diffs = [abs(a[2] - b[2]) for a, b in zip(ru.raw_samples, rv.raw_samples)]
    assert max(diffs) < 1e-10


def test_part2_eta_identity_passes(fam2, grid128, ladder12):
    report = ax.check_swirl_pde(fam2, "eta", grid128, ladder12)
    assert report.equation == "eta_identity"
    assert report.passed


def test_part2_vbar_equation_passes(fam2, grid128, ladder12):
    report = ax.check_swirl_pde(fam2, "vbar", grid128, ladder12)
    assert report.equation == "swirl_pde_part2"
    assert report.passed


def test_part2_orders(fam2, grid128, ladder12):
    order_eta, _ = residual_order(fam2, "eta", grid128, ladder12)
    assert order_eta >= 1.8


def test_eta_check_requires_part2(fam1, grid64, ladder10):
    with pytest.raises(ValueError):
        ax.check_swirl_pde(fam1, "eta", grid64, ladder10)
    with pytest.raises(ValueError):
        ax.check_swirl_pde(fam1, "poloidal", grid64, ladder10)


def test_boundary_check_both_parts(fam1, fam2):
    ladder = ax.make_time_ladder(0.5, 20)
    for fam in (fam1, fam2):
        report = ax.check_boundary(fam, ladder)
        assert report.passed
        assert report.max_abs_residual < 1e-9
        assert any("structural" in str(w) for w in report.worst)


def test_bound_checks_reference(fam1, fam2):
    grid = ax.make_radial_grid(64)
    ladder = ax.make_time_ladder(0.5, 12)
    upper = ax.check_bound(fam1, "u_upper", grid, ladder)
    assert upper.passed and 0.99 < upper.fitted_C / upper.C_star <= 1.0
    grad = ax.check_bound(fam1, "grad_u_upper", grid, ladder)
    assert grad.passed
    lower = ax.check_bound(fam2, "phi_lower", grid, ladder)
    assert lower.passed
    assert lower.fitted_C > 0.0


def test_bound_check_fails_when_one_sample_exceeds_the_supremum_margin(
        fam1, grid64, ladder10, monkeypatch):
    # One sample lifted to twice the rounding margin above C* fails the gate.
    real = verify._bound_samples
    c_star = verify.bound_constant(fam1.profile, "u_upper")

    def doctored(fam, bound, grid, ladder):
        samples = real(fam, bound, grid, ladder).copy()
        samples[samples.size // 2] = c_star * (1.0 + 2.0 * verify.BOUND_SUP_RTOL)
        return samples

    monkeypatch.setattr(verify, "_bound_samples", doctored)
    check = ax.check_bound(fam1, "u_upper", grid64, ladder10)
    assert check.C_star == c_star
    assert check.passed is False


def test_phi_lower_supremum_on_the_bump_is_the_larger_limit(ref_profile):
    # The axis limit 2/c1 = -4/I0 against the unattained exterior limit 1/g1.
    expected = max(-4.0 / ref_profile.I0, 1.0 / ref_profile.g1)
    assert verify.bound_constant(ref_profile, "phi_lower") == expected


@pytest.mark.parametrize("part, bound", [(1, "u_upper"), (1, "grad_u_upper"),
                                         (2, "phi_lower")])
def test_bound_supremum_does_not_depend_on_T(ref_profile, grid64, part, bound):
    checks = [ax.check_bound(ax.SolutionFamily(profile=ref_profile, T=T, part=part),
                             bound, grid64, ax.make_time_ladder(T, 12))
              for T in (0.5, 0.3)]
    assert checks[0].C_star == checks[1].C_star
    assert all(c.passed for c in checks)


@settings(max_examples=40, deadline=None)
@given(T=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
       J=st.integers(min_value=4, max_value=60))
def test_bound_samples_stay_within_the_gate_at_every_accepted_T_and_J(ref_profile, T, J):
    try:
        RunConfig(T=T, ladder_J=J).validate()
    except ConfigError:
        assume(False)
    grid = ax.make_radial_grid(32)
    ladder = ax.make_time_ladder(T, J)
    for part, bound in ((1, "u_upper"), (1, "grad_u_upper"), (2, "phi_lower")):
        fam = ax.SolutionFamily(profile=ref_profile, T=T, part=part)
        check = ax.check_bound(fam, bound, grid, ladder)
        assert np.all(check.samples <= check.C_star * (1.0 + verify.BOUND_SUP_RTOL))
        assert check.passed


def test_gradient_bound_at_a_tiny_T_raises_no_overflow_warning(ref_profile):
    # sigma = r / sqrt(2 (T - t)) passes 1e154 here, so sigma^2 overflows in
    # the profile jet's exterior branch, whose quotient 0 is the exact limit.
    fam = ax.SolutionFamily(profile=ref_profile, T=1e-300, part=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = ax.check_bound(fam, "grad_u_upper", ax.make_radial_grid(32),
                               ax.make_time_ladder(1e-300, 40))
    assert check.passed


def test_bound_check_zero_forcing(fam1_zero):
    grid = ax.make_radial_grid(32)
    ladder = ax.make_time_ladder(0.5, 8)
    check = ax.check_bound(fam1_zero, "u_upper", grid, ladder)
    assert check.passed
    assert check.fitted_C == 0.0


def test_bound_check_validation(fam1):
    grid = ax.make_radial_grid(32)
    ladder = ax.make_time_ladder(0.5, 8)
    with pytest.raises(ValueError):
        ax.check_bound(fam1, "phi_lower", grid, ladder)
    with pytest.raises(ValueError):
        ax.check_bound(fam1, "nope", grid, ladder)


def test_report_serialization(fam1, grid64, ladder10):
    pde = report_to_dict(ax.check_swirl_pde(fam1, "v", grid64, ladder10))
    assert {"equation", "tolerance", "max_abs_residual", "passed"} <= set(pde)
    bound = report_to_dict(ax.check_bound(fam1, "u_upper", grid64, ladder10))
    assert {"name", "fitted_C", "C_star", "passed"} <= set(bound)
    with pytest.raises(TypeError):
        report_to_dict(object())


def test_reports_are_deterministic(fam1, grid64, ladder10):
    a = ax.check_swirl_pde(fam1, "v", grid64, ladder10)
    b = ax.check_swirl_pde(fam1, "v", grid64, ladder10)
    assert a.max_abs_residual == b.max_abs_residual
    assert a.samples == b.samples


def test_bound_samples_read_T_minus_from_the_ladder_at_non_dyadic_T(ref_profile):
    # Per level, the normalised |u| built from the kernel at the ladder's own
    # T - t_j; forming T - t_j from t_j would move it at rounding level.
    from axiswirl.fields import _w
    from axiswirl.verify import _bound_samples
    fam = ax.SolutionFamily(profile=ref_profile, T=0.3, part=1)
    grid = ax.make_radial_grid(64)
    ladder = ax.make_time_ladder(0.3, 40)
    radii = grid.interior()
    expected = np.concatenate([
        np.abs(_w(fam, "u", radii, tm)) * (radii * radii + tm) / radii
        for tm in ladder.T_minus])
    assert np.array_equal(_bound_samples(fam, "u_upper", grid, ladder), expected)


@pytest.mark.parametrize("which", ["v", "eta"])
def test_pde_samples_are_the_concatenated_one_level_reports(fam2, grid64, which):
    ladder = ax.make_time_ladder(0.5, 10)
    whole = ax.check_swirl_pde(fam2, which, grid64, ladder)
    keep = len(ladder) - 2
    parts = [ax.check_swirl_pde(
        fam2, which, grid64,
        ax.TimeLadder(T=0.5, levels=ladder.levels[j:j + 1],
                      T_minus=ladder.T_minus[j:j + 1]),
        exclude_nearest=0) for j in range(keep)]
    assert whole.samples == [s for p in parts for s in p.samples]
    assert whole.raw_samples == [s for p in parts for s in p.raw_samples]


@pytest.mark.parametrize("part, which, digest", [
    (1, "v", "25f06468de8423fabfd1c2e9b50e35d9e5bb9fb068bfa7847be8332b7e273ec3"),
    (2, "eta", "8e012f28897e011f49b16aa878c5a07852826b442c0031cc935e5e317477c324"),
    (2, "vbar", "a853c8a5b3d0ba264cacaa70b59c11d414ce83f8324a92b56aea2b6f8e50b0a1"),
], ids=["1-v", "2-eta", "2-vbar"])
def test_swirl_pde_samples_away_from_blow_up_are_pinned(ref_profile, grid64, part,
                                                        which, digest):
    # The time step is capped at 1e-5, which every level with T - t >= 1e-3
    # reaches: those samples (r, t, normalised and raw residual) are bitwise
    # the ones the step h_t = min(1e-5, (T - t) / 100) gave.
    fam = ax.SolutionFamily(profile=ref_profile, T=0.5, part=part)
    ladder = ax.make_time_ladder(0.5, 51)
    report = ax.check_swirl_pde(fam, which, grid64, ladder)
    far = set(ladder.levels[ladder.T_minus >= 1e-3].tolist())
    rows = [s + q[2:] for s, q in zip(report.samples, report.raw_samples) if s[1] in far]
    assert len(rows) == 496
    assert hashlib.sha256(np.array(rows).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("part, which", [(1, "v"), (2, "eta"), (2, "vbar")])
def test_swirl_pde_passes_at_the_deepest_ladder(ref_profile, grid128, part, which):
    # Where h_t >= T - t the time stencil is one-sided into the past, so no
    # step collapses to the rounding noise of T - t.
    fam = ax.SolutionFamily(profile=ref_profile, T=0.5, part=part)
    ladder = ax.make_time_ladder(0.5, 51)
    report = ax.check_swirl_pde(fam, which, grid128, ladder)
    assert report.passed
    assert report.max_abs_residual < 0.1 * report.tolerance
    order, _ = residual_order(fam, which, grid128, ladder)
    assert order >= 1.8


@pytest.mark.parametrize("grid_n, J", [(8, 4), (8, 53), (128, 4), (128, 53), (20001, 4)])
def test_every_lattice_sample_is_evaluated(fam1, grid_n, J):
    # Interior radii under EPS0 are left out (the first of grid 20001 is
    # 5e-5); every other radius at every level but the nearest two is a sample.
    grid, ladder = ax.make_radial_grid(grid_n), ax.make_time_ladder(0.5, J)
    radii = grid.interior()
    n_radii = np.count_nonzero(radii >= ax.EPS0)
    levels = J - verify.EXCLUDE_NEAREST
    pde = ax.check_swirl_pde(fam1, "v", grid, ladder)
    assert len(pde.samples) == n_radii * levels
