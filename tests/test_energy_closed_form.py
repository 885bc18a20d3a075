"""The closed-form energy of v against the nested numeric path.

``energy_series(fam, "v", ...)`` evaluates the self-similar closed form;
``_kinetic`` plus the cumulative ``_dissipation_integral`` is the
independent nested quadrature it must reproduce.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import axiswirl as ax
from axiswirl.norms import (NORM_SPEC, _dissipation_integral, _kinetic,
                            _nested_energy, energy_series)


def nested_energy_v(fam, ladder):
    values, diss, prev = [], 0.0, 0.0
    for t, tm in zip(ladder.levels, ladder.T_minus):
        diss += _dissipation_integral(fam, "v", prev, float(t), NORM_SPEC)
        values.append(_kinetic(fam, "v", float(t), NORM_SPEC, T_minus=tm) + diss)
        prev = float(t)
    return np.asarray(values)


def assert_matches_nested(profile, T, J=8):
    fam = ax.SolutionFamily(profile=profile, T=T, part=1)
    ladder = ax.make_time_ladder(T, J)
    closed = energy_series(fam, "v", ladder).values
    nested = nested_energy_v(fam, ladder)
    assert np.max(np.abs(closed - nested) / np.abs(nested)) < 1e-9


@pytest.fixture(scope="module")
def table_profile():
    r = np.linspace(0.0, 1.0, 33)
    k = -6.0 * r * (1.0 - r) * np.exp(-np.square((r - 0.4) / 0.2))
    forcing = ax.forcing_from_samples(r, k)
    assert forcing.nonpositive and forcing.nontrivial
    return ax.build_profile(forcing)


# At T = 1e-12 the deep levels have T - t below 1e-13, where the radial
# quadrature needs its breakpoints continued out to the wall.
@pytest.mark.parametrize("T", [0.5, 0.3, 0.01, 1e-12])
def test_closed_form_matches_nested_path_bump(ref_profile, T):
    assert_matches_nested(ref_profile, T)


@pytest.mark.parametrize("T", [0.5, 0.3, 0.01])
def test_closed_form_matches_nested_path_big_bump(big_profile, T):
    assert_matches_nested(big_profile, T)


def test_closed_form_matches_nested_path_table(table_profile):
    assert_matches_nested(table_profile, 0.3617)


def test_closed_form_zero_forcing(fam1_zero, ladder20):
    assert np.all(energy_series(fam1_zero, "v", ladder20).values == 0.0)


@pytest.mark.parametrize("T", [0.5, 0.3])
def test_energy_log_slope_identity(big_profile, T):
    # E_v - pi (A + 2 g1^2) |ln(T - t)| is affine in T - t, so on deep
    # levels the slope against |ln(T - t)| is pi (A + 2 g1^2) to rounding.
    fam = ax.SolutionFamily(profile=big_profile, T=T, part=1)
    ladder = ax.make_time_ladder(T, 40)
    values = energy_series(fam, "v", ladder).values
    logs = np.abs(np.log(ladder.T_minus))
    slopes = np.diff(values[-6:]) / np.diff(logs[-6:])
    expected = np.pi * (big_profile.A + 2.0 * big_profile.g1 ** 2)
    assert expected > 0.0
    assert np.max(np.abs(slopes - expected)) < 1e-8 * expected


# Below T of about 1e-150 the nested path's squared gradients, of order
# 1/(T - t)^2, overflow a double; the closed form itself has no such limit.
@settings(max_examples=4, deadline=None)
@given(T=st.floats(min_value=1e-100, max_value=0.5))
def test_closed_form_matches_nested_path_any_T(ref_profile, T):
    assert_matches_nested(ref_profile, T, J=4)


# Deep levels put T - t near 1e-16 T: the nested path must integrate the
# dissipation in T - s from the ladder's exact T_minus, not in t.
@pytest.mark.parametrize("T", [0.5, 0.3])
def test_closed_form_matches_nested_path_deep_ladder(ref_profile, T):
    fam = ax.SolutionFamily(profile=ref_profile, T=T, part=1)
    ladder = ax.make_time_ladder(T, 50)
    closed = energy_series(fam, "v", ladder).values
    nested = _nested_energy(fam, "v", ladder, NORM_SPEC)
    assert np.max(np.abs(closed - nested) / np.abs(nested)) < 1e-9
