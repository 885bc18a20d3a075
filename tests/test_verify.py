import numpy as np
import pytest

import axiswirl as ax
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


def test_zero_forcing_momentum_vanishes(fam1_zero, grid64, ladder10):
    report = ax.check_radial_momentum(fam1_zero, "v", grid64, ladder10)
    assert report.passed
    assert report.max_abs_residual == 0.0


def test_zero_forcing_boundary(fam1_zero, ladder10):
    report = ax.check_boundary(fam1_zero, ladder10)
    assert report.passed
    assert report.max_abs_residual == 0.0


def test_part1_pde_check_passes(fam1, grid128, ladder12):
    report = ax.check_swirl_pde(fam1, "v", grid128, ladder12)
    assert report.equation == "swirl_pde_part1"
    assert report.passed
    assert report.sampling_valid
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


def test_radial_momentum_part1(fam1, grid64, ladder10):
    report = ax.check_radial_momentum(fam1, "v", grid64, ladder10)
    assert report.passed


def test_radial_momentum_part2_vbar(fam2, grid64, ladder10):
    report = ax.check_radial_momentum(fam2, "vbar", grid64, ladder10)
    assert report.passed


def test_radial_momentum_order(fam1, grid64, ladder10):
    order, reports = residual_order(fam1, "v", grid64, ladder10,
                                    checker=ax.check_radial_momentum)
    assert all(r.passed for r in reports)
    assert order >= 1.8


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
    assert upper.passed and upper.refinement_drift < 0.05
    grad = ax.check_bound(fam1, "grad_u_upper", grid, ladder)
    assert grad.passed
    lower = ax.check_bound(fam2, "phi_lower", grid, ladder)
    assert lower.passed
    assert lower.fitted_C > 0.0


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
    assert {"name", "fitted_C", "refinement_drift", "passed"} <= set(bound)
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
    assert whole.requested == sum(p.requested for p in parts)
