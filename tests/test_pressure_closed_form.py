"""The closed-form pressure of v against the quadrature path.

``fields._pressure_v`` serves the ``P`` column of the field slice from
``SwirlProfile.pressure_integrals``; ``_pressure_integral`` from the axis,
at a tight spec and on the same T - t rows, is the independent path it
must reproduce.
"""

import dataclasses
import runpy
from pathlib import Path

import numpy as np
import pytest

import axiswirl as ax
from axiswirl import fields, profiles
from axiswirl.fields import (FIELD_SLICE_HEADER, _pressure_integral, _pressure_v,
                             field_slice_rows)

TIGHT_SPEC = ax.QuadratureSpec(abs_tol=1e-16, rel_tol=1e-14, max_subdivisions=20000)
SEEDS = [None, *range(19), *range(100, 150)]  # the bump and the 69 bench tables


def _seeded_family(seed):
    """The part-1 family of the bench's seeded table ``seed`` at its seeded
    T; None is the bump at T = 1/2."""
    if seed is None:
        return ax.SolutionFamily(ax.build_profile(ax.reference_k()), 0.5, 1)
    make_inputs = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "inputs.py"))[
        "make_inputs"]
    inputs = make_inputs(seed)
    rows = np.loadtxt(inputs.table_text.splitlines()[1:], delimiter=",")
    profile = ax.build_profile(ax.forcing_from_samples(rows[:, 0], rows[:, 1]))
    return ax.SolutionFamily(profile, inputs.T, 1)


def _slice_lattice(fam, J):
    """The radii and T - t rows of the CLI's field slice on the default
    grid and a J-level ladder, keyed on the ladder's exact T_minus."""
    ladder = ax.TimeLadder(fam.T, J)
    radii = np.linspace(0.0, 1.0, 128)[1:-1:128 // 32]
    tm = ladder.T_minus[:: max(1, len(ladder) // 6)]
    return np.tile(radii, tm.size), np.repeat(tm, radii.size)


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: "bump" if s is None else f"seed{s}")
def test_closed_form_matches_tight_quadrature(seed):
    fam = _seeded_family(seed)
    r, tm = (np.concatenate(pair) for pair in zip(_slice_lattice(fam, 12),
                                                  _slice_lattice(fam, 45)))
    assert np.max(r / np.sqrt(2.0 * tm)) > 1.0 and np.min(r / np.sqrt(2.0 * tm)) < 1.0
    closed = _pressure_v(fam, r, tm)
    quad = _pressure_integral(fam, "v", r, tm, TIGHT_SPEC)
    assert np.all(quad > 0.0)
    assert np.max(np.abs(closed - quad) / quad) < 5e-14


def test_few_pressure_rows_meet_the_default_spec_on_the_seed_106_table():
    # Every 8th row of the default slice, 24 rows in one call, missed
    # DEFAULT_SPEC by 1.10e-10 (at sigma = 1.22) until each row cut at the
    # table's knots; all 192 rows in one call met it, on shared panels.
    fam = _seeded_family(106)
    ladder = ax.TimeLadder(fam.T, 12)
    radii, times = np.linspace(0.0, 1.0, 128)[1:-1:4], ladder.levels[::2]
    r, t = np.tile(radii, times.size)[::8], np.repeat(times, radii.size)[::8]
    assert r.size == 24
    value = ax.eval_pressure(fam, "v", r, t)
    reference = ax.eval_pressure(fam, "v", r, t, TIGHT_SPEC)
    assert np.all(np.abs(value - reference) <= ax.DEFAULT_SPEC.rel_tol * reference)


def test_pressure_on_the_axis_is_zero(fam1):
    tm = np.array([0.5, 0.25, 1e-6, 1e-200])
    assert np.all(_pressure_v(fam1, np.zeros_like(tm), tm) == 0.0)
    assert ax.evaluate(fam1, "P", 0.0, 0.2) == 0.0


def test_zero_forcing_gives_zero_pressure(fam1_zero):
    r = np.linspace(0.0, 1.0, 17)
    rows = field_slice_rows(fam1_zero, r, [0.0, 0.4, 0.5 - 2.0 ** -40])
    assert np.all(rows[:, FIELD_SLICE_HEADER.index("P")] == 0.0)


def test_exterior_is_the_closed_form_past_the_core(ref_profile):
    # Past sigma = 1, h = g1/s^2: Q = Q(1) + (g1^2/2)(1 - sigma^-2) and
    # G = G(1) + g1 ln sigma, out to radii no quadrature could reach.
    q1, g1_int = ref_profile.pressure_integrals(1.0)
    g1 = ref_profile.g1
    sigma = np.array([1.0, 1.0 + 2.0 ** -40, 1.5, 4.0, 1e3, 1e10, 1e200])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        q, g = ref_profile.pressure_integrals(sigma)
    np.testing.assert_allclose(q, q1 + 0.5 * g1 * g1 * (1.0 - sigma ** -2.0),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(g, g1_int + g1 * np.log(sigma), rtol=1e-15, atol=0.0)
    # Q(1) and G(1) are the last node values, and the core meets them.
    assert (q1, g1_int) == tuple(ref_profile._pressure_nodes[:, -1])
    below = ref_profile.pressure_integrals(np.nextafter(1.0, 0.0))
    np.testing.assert_allclose(below, (q1, g1_int), rtol=1e-14, atol=0.0)


def test_closed_form_reads_neither_the_I_spline_nor_integrate(ref_profile, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed-form pressure must not call this")

    fresh = dataclasses.replace(ref_profile, _I_spline=forbidden)  # no cached sweeps
    monkeypatch.setattr(fields, "integrate", forbidden)
    monkeypatch.setattr(profiles, "integrate", forbidden)
    fam = ax.SolutionFamily(fresh, 0.5, 1)
    r = np.linspace(0.0, 1.0, 9)
    rows = field_slice_rows(fam, r, [0.0, 0.3, 0.5 - 2.0 ** -30])
    p_col = rows[:, FIELD_SLICE_HEADER.index("P")]
    np.testing.assert_array_equal(p_col, _pressure_v(fam, rows[:, 0], 0.5 - rows[:, 1]))
    assert np.all(p_col[rows[:, 0] > 0.0] > 0.0)
