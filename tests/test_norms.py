import numpy as np
import pytest

import axiswirl as ax
from axiswirl.norms import (NORM_SERIES_HEADER, NormSeries, classify_LqtL1x,
                            energy, l1_series, norm_series_rows,
                            spatial_L1, spatial_L1_parts,
                            _dissipation_integral, NORM_SPEC)

from reference_values import ABS_K_MOMENT_STAR, Y_RATIO_CAPS


def test_energy_zero_forcing(fam1_zero):
    assert energy(fam1_zero, "v", 0.3) == 0.0


def test_energy_nondecreasing_in_time(fam1):
    e1 = energy(fam1, "v", 0.25)
    e2 = energy(fam1, "v", 0.4)
    assert e2 > e1 > 0.0


def test_kinetic_energy_against_dense_trapezoid(fam1):
    t = 0.25
    r = np.linspace(0.0, 1.0, 200001)
    v = np.asarray(ax.eval_v(fam1, r, t), dtype=float)
    reference = 2.0 * np.pi * np.trapezoid(v * v * r, r)
    from axiswirl.norms import _kinetic
    assert _kinetic(fam1, "v", t, NORM_SPEC) == pytest.approx(reference, rel=1e-6)


def test_dissipation_subladder_refinement_consistent(fam1):
    coarse = _dissipation_integral(fam1, "v", 0.25, 0.375, NORM_SPEC, sub_points=8)
    fine = _dissipation_integral(fam1, "v", 0.25, 0.375, NORM_SPEC, sub_points=16)
    assert coarse == pytest.approx(fine, rel=1e-5)


def test_spatial_l1_zero_forcing(fam1_zero):
    assert spatial_L1(fam1_zero, "f", 0.2) == 0.0


def test_forcing_norm_exact_scale(fam1, ladder20):
    series = l1_series(fam1, "f", ladder20)
    expected = 2.0 * np.pi * ABS_K_MOMENT_STAR / np.sqrt(2.0)
    products = series.values * np.sqrt(ladder20.T_minus)
    assert np.max(np.abs(products - expected)) < 1e-10 * expected


def test_spatial_l1_parts_accounts_for_axis(fam2):
    main, axis = spatial_L1_parts(fam2, "Y1", 0.5 - 2.0 ** -20)
    assert main > 0.0
    assert axis >= 0.0
    assert spatial_L1(fam2, "Y1", 0.5 - 2.0 ** -20) == main + axis


def test_spatial_l1_validation(fam1):
    with pytest.raises(ValueError):
        spatial_L1(fam1, "Y1", 0.2)  # Y needs part 2
    with pytest.raises(ValueError):
        spatial_L1(fam1, "g", 0.2)


def test_y3_bounded_along_ladder(fam2_big):
    deep = ax.make_time_ladder(0.5, 28)
    series = l1_series(fam2_big, "Y3", deep)
    assert np.max(series.ratios) <= Y_RATIO_CAPS["Y3"]


@pytest.mark.parametrize("quantity", ["Y1", "Y2", "Y4", "Y"])
def test_y_ratios_bounded_along_ladder(fam2_big, quantity):
    deep = ax.make_time_ladder(0.5, 28)
    series = l1_series(fam2_big, quantity, deep)
    assert np.all(np.isfinite(series.ratios))
    assert np.max(series.ratios) <= Y_RATIO_CAPS[quantity]


def test_classify_zero_series(fam1_zero, ladder20):
    series = l1_series(fam1_zero, "f", ladder20)
    result = classify_LqtL1x(series, 2.0)
    assert result.finite is True
    assert result.estimate == 0.0


def test_classify_forcing_flips_at_two(fam1, ladder20):
    series = l1_series(fam1, "f", ladder20)
    verdicts = {q: classify_LqtL1x(series, q) for q in (1.5, 1.9, 2.1, 3.0)}
    assert verdicts[1.5].finite is True
    assert verdicts[1.9].finite is True
    assert verdicts[2.1].finite is False
    assert verdicts[3.0].finite is False
    assert verdicts[3.0].tail_exponent == pytest.approx(0.5, abs=1e-3)


def test_classify_y_finite_for_all_scanned_q(fam2_big):
    deep = ax.make_time_ladder(0.5, 28)
    series = l1_series(fam2_big, "Y", deep)
    for q in (1.5, 2.0, 4.0):
        result = classify_LqtL1x(series, q)
        assert result.finite is True, f"q={q} gave {result}"


def test_classify_inconclusive_on_nonmonotone_tail(ladder20):
    values = np.ones(20)
    values[::2] += 0.5  # saw-tooth tail
    series = NormSeries(quantity="L1_f", ladder=ladder20, values=values,
                        normalizers=np.ones(20))
    result = classify_LqtL1x(series, 2.0)
    assert result.finite is None
    assert result.model == "inconclusive"


@pytest.mark.parametrize("spike, verdict", [(11, True), (12, None)],
                         ids=["step_before_last_8_levels", "step_in_last_8_levels"])
def test_classify_reads_monotonicity_on_the_last_8_levels_only(ladder20, spike, verdict):
    # A rising power-law series with one spike: the falling step from level
    # `spike` to `spike + 1` lies outside the tail window, 0-based levels 12..19,
    # when spike = 11, and inside it when spike = 12.
    values = 1.0 / np.sqrt(ladder20.T_minus)
    values[spike] *= 3.0
    series = NormSeries(quantity="L1_f", ladder=ladder20, values=values,
                        normalizers=np.ones(20))
    result = classify_LqtL1x(series, 1.5)
    assert result.finite is verdict
    assert result.model == ("power" if verdict else "inconclusive")


def test_classify_validation(fam1, ladder20):
    series = l1_series(fam1, "f", ladder20)
    with pytest.raises(ValueError):
        classify_LqtL1x(series, 0.0)


def test_norm_series_rows_layout(fam1, ladder20):
    series = l1_series(fam1, "f", ladder20)
    rows = norm_series_rows(series)
    assert rows.shape == (20, len(NORM_SERIES_HEADER))
    assert np.allclose(rows[:, 1], ladder20.levels)
    assert np.allclose(rows[:, 5], series.ratios)


def test_series_length_mismatch_rejected(ladder20):
    with pytest.raises(ValueError):
        NormSeries(quantity="L1_f", ladder=ladder20,
                   values=np.ones(3), normalizers=np.ones(3))


def test_l1_series_reads_T_minus_from_the_ladder_at_non_dyadic_T(ref_profile):
    # At T = 0.3 the difference T - t_j cancels catastrophically on deep
    # levels; the series must use the ladder's exact T * 2^-j instead.
    fam = ax.SolutionFamily(profile=ref_profile, T=0.3, part=1)
    ladder = ax.make_time_ladder(0.3, 40)
    series = l1_series(fam, "f", ladder)
    scaled = series.values * np.sqrt(ladder.T_minus)
    assert np.ptp(scaled) / np.mean(scaled) < 1e-10
    assert classify_LqtL1x(series, 1.5).tail_exponent == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("quantity", ["f", "Y1", "Y4"])
def test_l1_series_rows_match_per_level_parts(fam2_big, quantity):
    ladder = ax.make_time_ladder(0.3, 30)
    fam = ax.SolutionFamily(profile=fam2_big.profile, T=0.3, part=2)
    series = l1_series(fam, quantity, ladder)
    for value, t, tm in zip(series.values, ladder.levels, ladder.T_minus):
        main, axis = spatial_L1_parts(fam, quantity, float(t), T_minus=tm)
        point = main + axis
        assert abs(value - point) <= max(NORM_SPEC.abs_tol, NORM_SPEC.rel_tol * abs(point))


def test_nested_energy_is_one_time_row_call(fam2, monkeypatch):
    # Every ladder step's dissipation is one row of a single outer call.
    from axiswirl import norms

    real = norms.integrate
    time_calls = []

    def counting(f, a, b, spec=ax.DEFAULT_SPEC, **kwargs):
        if spec is norms._TIME_SPEC:
            time_calls.append(np.shape(a))
        return real(f, a, b, spec, **kwargs)

    monkeypatch.setattr(norms, "integrate", counting)
    ladder = ax.make_time_ladder(fam2.T, 12)
    norms._nested_energy(fam2, "vbar", ladder, NORM_SPEC)
    assert time_calls == [(12,)]
