import dataclasses
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

import axiswirl as ax
from axiswirl.fields import _T_minus
from axiswirl.norms import (NORM_SERIES_HEADER, NormSeries, _dissipation_steps,
                            _kinetic, classify_LqtL1x, energy_series, l1_series,
                            norm_series_rows, spatial_L1,
                            y_series, NORM_SPEC)

from reference_values import ABS_K_MOMENT_STAR, Y_RATIO_CAPS


def energy(fam, which, t):
    """Kinetic energy at time t < T plus the dissipation over [0, t]: the
    nested numeric path for one time, its time integral one row that the
    adaptive engine refines toward t, where the rate grows."""
    return (_kinetic(fam, which, t, NORM_SPEC)
            + float(_dissipation_steps(fam, which, _T_minus(fam, (0.0, t)), NORM_SPEC)[0]))


def test_energy_zero_forcing(fam1_zero):
    assert energy(fam1_zero, "v", 0.3) == 0.0


def test_energy_nondecreasing_in_time(fam1):
    e1 = energy(fam1, "v", 0.25)
    e2 = energy(fam1, "v", 0.4)
    assert e2 > e1 > 0.0


def test_energy_at_the_final_time_is_rejected(fam1):
    with pytest.raises(ax.BlowupTimeError):
        energy(fam1, "v", fam1.T)


def test_energy_of_a_field_without_a_density_fails_before_any_quadrature(fam2, monkeypatch):
    from axiswirl import norms

    calls = []
    monkeypatch.setattr(norms, "integrate", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="'v' or 'vbar'"):
        energy_series(fam2, "u", ax.TimeLadder(fam2.T, 4))
    assert calls == []


def test_kinetic_energy_against_dense_trapezoid(fam1):
    t = 0.25
    r = np.linspace(0.0, 1.0, 200001)
    v = np.asarray(ax.evaluate(fam1, "v", r, t), dtype=float)
    reference = 2.0 * np.pi * np.trapezoid(v * v * r, r)
    assert _kinetic(fam1, "v", t, NORM_SPEC) == pytest.approx(reference, rel=1e-6)


@pytest.mark.parametrize("amplitude", [1.0, 100.0])
@pytest.mark.parametrize("J", [1, 10, 40, 50])
def test_one_row_energy_matches_closed_form(amplitude, J):
    # energy() integrates the rate over all of [0, t_J] as one row that
    # starts from a single panel; the adaptive engine alone must resolve
    # the rate's growth toward t_J, down to T - t_J = 2^-51.
    fam = ax.SolutionFamily(profile=ax.build_profile(ax.bump_forcing(amplitude)),
                            T=0.5, part=1)
    ladder = ax.TimeLadder(0.5, J)
    closed = energy_series(fam, "v", ladder).values[-1]
    assert energy(fam, "v", float(ladder.levels[-1])) == pytest.approx(
        closed, rel=1e-9)


def test_spatial_l1_zero_forcing(fam1_zero):
    assert spatial_L1(fam1_zero, "f", 0.2) == 0.0


def test_forcing_norm_exact_scale(fam1, ladder20):
    series = l1_series(fam1, ladder20)
    expected = 2.0 * np.pi * ABS_K_MOMENT_STAR / np.sqrt(2.0)
    products = series.values * np.sqrt(ladder20.T_minus)
    assert np.max(np.abs(products - expected)) < 1e-10 * expected


def test_spatial_l1_of_no_times_is_empty(fam2):
    assert spatial_L1(fam2, "Y4", np.array([])).shape == (0,)


def test_spatial_l1_validation(fam1):
    with pytest.raises(ValueError):
        spatial_L1(fam1, "Y1", 0.2)  # Y needs part 2
    with pytest.raises(ValueError):
        spatial_L1(fam1, "g", 0.2)


def test_y3_bounded_along_ladder(y_deep):
    series = y_deep["Y3"]
    assert np.max(series.ratios) <= Y_RATIO_CAPS["Y3"]


@pytest.mark.parametrize("quantity", ["Y1", "Y2", "Y4", "Y"])
def test_y_ratios_bounded_along_ladder(y_deep, quantity):
    series = y_deep[quantity]
    assert np.all(np.isfinite(series.ratios))
    assert np.max(series.ratios) <= Y_RATIO_CAPS[quantity]


def test_classify_zero_series(fam1_zero, ladder20):
    series = l1_series(fam1_zero, ladder20)
    result = classify_LqtL1x(series, 2.0)
    assert result.finite is True
    assert result.estimate == 0.0


def test_classify_forcing_flips_at_two(fam1, ladder20):
    series = l1_series(fam1, ladder20)
    verdicts = {q: classify_LqtL1x(series, q) for q in (1.5, 1.9, 2.1, 3.0)}
    assert verdicts[1.5].finite is True
    assert verdicts[1.9].finite is True
    assert verdicts[2.1].finite is False
    assert verdicts[3.0].finite is False


def test_classify_y_finite_for_all_scanned_q(y_deep):
    series = y_deep["Y"]
    for q in (1.5, 2.0, 4.0):
        result = classify_LqtL1x(series, q)
        assert result.finite is True, f"q={q} gave {result}"


def test_classify_y_finite_on_a_small_bump_at_its_derived_depth():
    # The bump x 0.01 saturates 33 levels down at T = 1/2, so its law is read
    # 14 levels past that, at 47.
    from axiswirl.cli import _classification_depth
    fam = ax.SolutionFamily(profile=ax.build_profile(ax.bump_forcing(0.01)), T=0.5, part=2)
    depth = _classification_depth(fam, 12)
    assert depth == 47
    series = y_series(fam, ax.TimeLadder(fam.T, depth))[-1]
    for q in (1.5, 1.9, 2.1, 3.0, 4.0):
        result = classify_LqtL1x(series, q)
        assert result.finite is True, f"q={q} gave {result}"


def test_classify_inconclusive_on_an_l1_y_saw_tooth(ladder20):
    law = 0.5 * np.pi * np.square(np.log(1.0 / ladder20.T_minus))
    for size in (0.05, 0.5, 5.0):
        values = law.copy()
        values[::2] += size  # saw-tooth tail
        series = NormSeries(quantity="L1_Y", ladder=ladder20, values=values,
                            normalizers=np.ones(20))
        result = classify_LqtL1x(series, 2.0)
        assert result.model == "inconclusive", (size, result)
        assert result.finite is None


def test_classify_validation(fam1, ladder20):
    series = l1_series(fam1, ladder20)
    with pytest.raises(ValueError):
        classify_LqtL1x(series, 0.0)


def test_norm_series_rows_layout(fam1, ladder20):
    series = l1_series(fam1, ladder20)
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
    ladder = ax.TimeLadder(0.3, 40)
    series = l1_series(fam, ladder)
    scaled = series.values * np.sqrt(ladder.T_minus)
    assert np.ptp(scaled) / np.mean(scaled) < 1e-10


@pytest.mark.parametrize("quantity", ["f", "Y1", "Y4"])
def test_l1_series_rows_match_per_level_parts(fam2_big, quantity):
    ladder = ax.TimeLadder(0.3, 30)
    fam = ax.SolutionFamily(profile=fam2_big.profile, T=0.3, part=2)
    series = (l1_series(fam, ladder) if quantity == "f" else
              {s.quantity: s for s in y_series(fam, ladder)}[f"L1_{quantity}"])
    for value, t, tm in zip(series.values, ladder.levels, ladder.T_minus):
        point = spatial_L1(fam, quantity, float(t), T_minus=tm)
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
    ladder = ax.TimeLadder(fam2.T, 12)
    norms._nested_energy(fam2, "vbar", ladder, NORM_SPEC)
    assert time_calls == [(12,)]


def _seeded_family(seed, part):
    """The benchmark's seeded nonpositive table at its seeded T."""
    make_inputs = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "inputs.py"))[
        "make_inputs"]
    inputs = make_inputs(seed)
    rows = np.loadtxt(inputs.table_text.splitlines()[1:], delimiter=",")
    profile = ax.build_profile(ax.forcing_from_samples(rows[:, 0], rows[:, 1]))
    return ax.SolutionFamily(profile=profile, T=inputs.T, part=part)


def test_every_radial_row_cuts_at_one_sigma_list(monkeypatch):
    # The bump has no knots: its cuts are sqrt(2 tm) {1/4, 1/2, 1, 2, 4, 4^2,
    # ...} out to the wall, the panels its pinned bits were taken on.
    from axiswirl import norms
    from axiswirl.fields import _axis_breakpoints

    bump = ax.SolutionFamily(profile=ax.build_profile(ax.reference_k()), T=0.5, part=2)
    assert bump.profile.k.knots == ()
    tm = np.array([0.5, 1e-6, 1e-20])
    cuts = _axis_breakpoints(bump, tm)
    sigmas = [0.25, 0.5, 1.0, 2.0, *4.0 ** np.arange(1, cuts.shape[1] - 3)]
    assert np.array_equal(cuts, np.multiply.outer(np.sqrt(2.0 * tm), sigmas))
    assert cuts[-1, -1] >= 1.0 > cuts[-1, -2]

    # A 33-point table's spline has its 31 interior knots at i/32, and each
    # core dissipation row, from the axis to sqrt(2u), cuts at every one.
    fam = _seeded_family(142, part=2)
    knots = np.asarray(fam.profile.k.knots)
    assert np.array_equal(knots, np.arange(1, 32) / 32)
    real = norms.integrate
    core_rows = []

    def recording(f, a, b, spec=ax.DEFAULT_SPEC, **kwargs):
        if spec is not norms._TIME_SPEC and np.ndim(a) and not np.any(a):
            core_rows.append((b, kwargs["breakpoints"]))
        return real(f, a, b, spec, **kwargs)

    monkeypatch.setattr(norms, "integrate", recording)
    norms._dissipation_steps(fam, "vbar", fam.T * np.array([1.0, 0.5, 0.25]), NORM_SPEC)
    assert core_rows
    for edge, cuts in core_rows:
        wanted = np.multiply.outer(edge, knots)
        assert np.all(np.any(wanted[:, :, None] == cuts[:, None, :], axis=-1))


def _unsplit_nested_vbar_energy(fam, ladder, spec, time_spec):
    """The nested vbar energy with every radial row running from the axis
    to the wall at every time node: the formulation before the core and
    exterior split of ``_dissipation_steps``."""
    from axiswirl import norms
    from axiswirl.fields import _axis_breakpoints

    tm = ladder.T_minus
    density = norms._gradient_density(fam, "vbar")

    def rates(u):
        flat = u.ravel()
        value, _ = ax.integrate(lambda r: density(r, flat[:, None]), np.zeros(flat.shape),
                                np.ones(flat.shape), spec,
                                breakpoints=_axis_breakpoints(fam, flat))
        return 2.0 * np.pi * value.reshape(u.shape)

    edges = np.concatenate(([fam.T], tm))
    steps = ax.integrate(rates, edges[1:], edges[:-1], time_spec)[0]
    return (norms._kinetic(fam, "vbar", ladder.levels, spec, T_minus=tm)
            + np.cumsum(steps))


@pytest.mark.parametrize("seed, T", [(None, 0.5), (None, 0.01), (103, 0.3617),
                                     (140, 0.3718), (142, 0.3419), (2, 0.4236)],
                         ids=["bump-T0.5", "bump-T0.01", "seed103", "seed140",
                              "seed142", "seed2"])
def test_split_vbar_energy_is_as_accurate_with_fewer_density_points(seed, T, monkeypatch):
    # The core rows take sigma < 1 at every time node; the time-free exterior
    # is one Fubini row per step, at sigma >= 1. Neither may lose accuracy,
    # and both meet NORM_SPEC: on seeds 142 and 2, core rows whose first
    # panels spanned many spline pieces missed it by 4.4e-8 and 1.7e-8.
    from axiswirl import norms
    from axiswirl.cli import RunConfig, _floor_ladder

    fam = (ax.SolutionFamily(profile=ax.build_profile(ax.reference_k()), T=T, part=2)
           if seed is None else _seeded_family(seed, part=2))
    assert fam.T == T
    ladder = _floor_ladder(RunConfig(T=T))
    tight = ax.QuadratureSpec(abs_tol=1e-16, rel_tol=1e-13, max_subdivisions=20000)
    tight_time = ax.QuadratureSpec(abs_tol=1e-14, rel_tol=1e-11, max_subdivisions=2000)
    reference = _unsplit_nested_vbar_energy(fam, ladder, tight, tight_time)

    real_integrate, real_density = norms.integrate, norms._gradient_density
    time_rows, points = [], {"core": 0, "exterior": 0}
    sigmas = {"core": [], "exterior": []}

    def integrate(f, a, b, spec=ax.DEFAULT_SPEC, **kwargs):
        time_rows.append(spec is norms._TIME_SPEC)
        try:
            return real_integrate(f, a, b, spec, **kwargs)
        finally:
            time_rows.pop()

    def gradient_density(fam, which):
        density = real_density(fam, which)

        def counted(r, tm):
            sigma = r / np.sqrt(2.0 * tm)
            part = "core" if any(time_rows) else "exterior"
            points[part] += r.size
            sigmas[part].append((np.min(sigma), np.max(sigma)))
            return density(r, tm)
        return counted

    monkeypatch.setattr(norms, "integrate", integrate)
    monkeypatch.setattr(norms, "_gradient_density", gradient_density)
    split = norms._nested_energy(fam, "vbar", ladder, NORM_SPEC)
    assert max(hi for _, hi in sigmas["core"]) < 1.0
    assert min(lo for lo, _ in sigmas["exterior"]) >= 1.0
    assert points["exterior"] > 0
    split_points = sum(points.values())
    # The unsplit rows call ax.integrate, so all their points count as exterior.
    unsplit = _unsplit_nested_vbar_energy(fam, ladder, NORM_SPEC, norms._TIME_SPEC)
    unsplit_points = sum(points.values()) - split_points

    unsplit_error = np.abs(unsplit - reference) / np.abs(reference)
    split_error = np.abs(split - reference) / np.abs(reference)
    assert np.all(split_error <= unsplit_error + 4.0 * np.finfo(float).eps)
    assert np.all(split_error <= NORM_SPEC.rel_tol), np.max(split_error)
    share = split_points / unsplit_points
    assert share <= (0.4 if (seed, T) == (None, 0.5) else 1.0), share


def test_y_series_meet_norm_spec_on_the_seed_6_table():
    # Y4 near the axis at T - t ~ 3e-9 is where separate per-quantity
    # panels stopped early; the shared panels refine to what all five need.
    fam = _seeded_family(6, part=2)
    assert fam.T == 0.3651
    ladder = ax.TimeLadder(fam.T, 28)
    tight = ax.QuadratureSpec(abs_tol=1e-16, rel_tol=1e-13, max_subdivisions=20000)
    for series, quantity in zip(y_series(fam, ladder), ("Y1", "Y2", "Y3", "Y4", "Y")):
        assert series.quantity == f"L1_{quantity}"
        reference = spatial_L1(fam, quantity, ladder.levels, tight,
                               T_minus=ladder.T_minus)
        assert np.all(np.abs(series.values - reference)
                      <= NORM_SPEC.rel_tol * np.abs(reference)), quantity


@pytest.mark.parametrize("seed", [6, 128, 142, 2])
def test_spatial_l1_meets_norm_spec_on_seeded_tables(seed):
    # The one-quantity check path alone, without the panels the other four
    # quantities share in production, down to T - t ~ 1e-9 near the axis.
    fam = _seeded_family(seed, part=2)
    ladder = ax.TimeLadder(fam.T, 28)
    tight = ax.QuadratureSpec(abs_tol=1e-16, rel_tol=1e-13, max_subdivisions=20000)
    for quantity in ("Y1", "Y2", "Y3", "Y4", "Y"):
        value, reference = (spatial_L1(fam, quantity, ladder.levels, spec,
                                       T_minus=ladder.T_minus)
                            for spec in (NORM_SPEC, tight))
        assert np.all(np.abs(value - reference)
                      <= NORM_SPEC.rel_tol * np.abs(reference)), quantity


def test_norms_part2_makes_one_stacked_l1_call(tmp_path, monkeypatch):
    # All five Y series from the axis to the wall, 5 J rows; the forcing
    # norm is a closed form and makes none.
    from axiswirl import norms
    from axiswirl.cli import main

    real = norms.integrate
    l1_calls = []

    def counting(f, a, b, spec=ax.DEFAULT_SPEC, **kwargs):
        if f.__qualname__.startswith("_l1."):
            l1_calls.append(np.shape(a))
        return real(f, a, b, spec, **kwargs)

    monkeypatch.setattr(norms, "integrate", counting)
    out = tmp_path / "out"
    assert main(["norms", "--part", "2", "--out", str(out)]) == 0
    J = len((out / "norms_L1_Y.csv").read_text().splitlines()) - 1
    assert l1_calls == [(5 * J,)]
    l1_calls.clear()
    fam = _seeded_family(103, part=1)
    l1_series(fam, ax.TimeLadder(fam.T, 40))
    assert l1_calls == []


@pytest.mark.parametrize("seed, T", [(None, 0.5), (None, 0.01), (103, None), (140, None)],
                         ids=["bump", "bump-T0.01", "seed103", "seed140"])
def test_law_tail_meets_a_tight_reference_without_quadrature(seed, T, monkeypatch):
    # In s = ln(1/u), smooth where u has a log singularity at u = 0, the
    # L1_Y tail is the weight of a Gauss-Laguerre rule: a fixed sum, with
    # no integrate call.
    from axiswirl import norms
    from axiswirl.cli import _classification_depth
    from axiswirl.numerics import integrate

    fam = (ax.SolutionFamily(profile=ax.build_profile(ax.reference_k()), T=T, part=2)
           if seed is None else _seeded_family(seed, part=2))
    ladder = ax.TimeLadder(fam.T, _classification_depth(fam, 28))
    window = slice(-norms.TAIL_LEVELS, None)
    tm, v = ladder.T_minus[window], y_series(fam, ladder)[-1].values[window]
    a = norms._Y_LAW
    logs = -np.log(tm)
    coef = (a, *np.polyfit(logs, v - a * np.square(logs), 1))
    tight = ax.QuadratureSpec(1e-18, 1e-14, 20000)
    calls = []
    monkeypatch.setattr(norms, "integrate", lambda *args, **kwargs: calls.append(args))
    for q in (1.5, 1.9, 2.1, 3.0, 4.0):
        # The reference integrates in u = u_J w, w in (0, 1], so that its
        # rel_tol governs rather than abs_tol against a tail of ~1e-7.
        reference = tm[-1] * integrate(
            lambda w: np.abs(np.polyval(coef, logs[-1] - np.log(w))) ** q,
            0.0, 1.0, tight)[0]
        tail = norms._law_tail(tm, v, q)
        assert abs(tail - reference) <= 1e-12 * reference, q
    assert calls == []


@pytest.mark.parametrize("seed, T", [(103, 0.3617), (1, 0.3606), (2, 0.4236)],
                         ids=["seed103", "seed1", "seed2"])
def test_closed_form_forcing_norm_matches_quadrature_on_a_table(seed, T):
    # Seed 1 missed by 1.87e-6 at every level while its error estimate
    # claimed 8.2e-9, until the rows cut at the table's knots.
    fam = _seeded_family(seed, part=1)
    assert fam.T == T
    ladder = ax.TimeLadder(fam.T, 40)
    series = l1_series(fam, ladder)
    numeric = spatial_L1(fam, "f", ladder.levels, T_minus=ladder.T_minus)
    assert np.all(np.abs(series.values - numeric)
                  <= np.maximum(NORM_SPEC.abs_tol, NORM_SPEC.rel_tol * numeric))


def _classified_family(seed, part):
    """The bump at T = 1/2 or a seeded table, and its classification ladder."""
    from axiswirl.cli import _classification_depth
    fam = (ax.SolutionFamily(profile=ax.build_profile(ax.reference_k()), T=0.5, part=part)
           if seed is None else _seeded_family(seed, part=part))
    return fam, ax.TimeLadder(fam.T, _classification_depth(fam, 28))


@pytest.mark.parametrize("seed", [None, 103], ids=["bump", "seed103"])
def test_forcing_lqt_estimate_is_the_closed_form(seed):
    # ||f||^q = (2 pi K1)^q (2 u)^(-q/2) integrates over (0, T] in closed form.
    fam, ladder = _classified_family(seed, part=1)
    series = l1_series(fam, ladder)
    for q in (1.5, 1.9):
        closed = ((2.0 * np.pi * fam.profile.K1) ** q * (2.0 * fam.T) ** (-q / 2)
                  * fam.T / (1.0 - q / 2))
        assert classify_LqtL1x(series, q).estimate == pytest.approx(closed, rel=1e-12), q


@pytest.mark.parametrize("seed", [None, 103], ids=["bump", "seed103"])
def test_y_lqt_estimate_matches_a_tight_ladder_quadrature(seed):
    # The reference integrates u ||Y||^q over x = ln(T/u) in [0, x_J] with
    # the one-quantity path, cut at every level, plus the same law tail.
    from axiswirl import norms
    fam, ladder = _classified_family(seed, part=2)
    series = y_series(fam, ladder)[-1]
    J, T = len(ladder), fam.T

    def tight(q):
        def integrand(x):
            u = T * np.exp(-x)
            return u * spatial_L1(fam, "Y", T - u, T_minus=u) ** q
        ladder_part, _ = ax.integrate(integrand, 0.0, J * np.log(2.0),
                                      ax.QuadratureSpec(1e-14, 1e-10, 4000),
                                      breakpoints=np.arange(1, J) * np.log(2.0))
        window = slice(-norms.TAIL_LEVELS, None)
        return ladder_part + norms._law_tail(ladder.T_minus[window], series.values[window], q)

    for q in (1.5, 4.0):
        assert classify_LqtL1x(series, q).estimate == pytest.approx(tight(q), rel=5e-3), q


def test_ladder_integral_of_a_constant_is_exact(ladder20, monkeypatch):
    # With the law and its tail set aside, u |v| = 3 on every level integrates
    # to 3 x_J = 3 J ln 2.
    from axiswirl import norms
    monkeypatch.setattr(norms, "_law_headroom", lambda *args: 0.0)
    monkeypatch.setattr(norms, "_law_tail", lambda *args: 0.0)
    series = NormSeries(quantity="L1_Y", ladder=ladder20, values=3.0 / ladder20.T_minus,
                        normalizers=np.ones(20))
    assert classify_LqtL1x(series, 1.0).estimate == 60.0 * np.log(2.0)


def _norms_rows(tmp_path, argv=()):
    """Exit status and classification rows of ``norms --part 2``."""
    from axiswirl.cli import main

    out = tmp_path / "out"
    rc = main(["norms", "--part", "2", *argv, "--out", str(out)])
    return rc, json.loads((out / "norms_summary.json").read_text())["classification"]


def _bent(real, bend):
    """``y_series`` with the values of its ``L1_Y`` series mapped by ``bend(v, u)``."""
    def bent(fam, ladder):
        return [s if s.quantity != "L1_Y" else dataclasses.replace(
            s, values=bend(s.values, s.ladder.T_minus)) for s in real(fam, ladder)]
    return bent


@pytest.mark.parametrize("bend", [
    lambda v, u: v + 1e-3 * np.log(1.0 / u) ** 3,
    lambda v, u: v + 0.5 * np.pi * np.log(1.0 / u) ** 2,
], ids=["Y_plus_eps_ln3", "Y_leading_pi"])
def test_norms_exits_1_when_a_series_breaks_its_growth_law(tmp_path, monkeypatch, bend):
    from axiswirl import cli

    monkeypatch.setattr(cli, "y_series", _bent(cli.y_series, bend))
    rc, rows = _norms_rows(tmp_path)
    assert rc == 1
    broken = [row for row in rows if row["series"] == "L1_Y"]
    assert {row["model"] for row in broken} == {"inconclusive"}
    assert all(row["finite"] is None and row["law_headroom"] > 1.0 for row in broken)
    assert all(row["model"] != "inconclusive" for row in rows if row["series"] != "L1_Y")


def test_norms_reads_the_growth_laws_on_the_bump_and_seed_103(tmp_path):
    rc, rows = _norms_rows(tmp_path)
    assert rc == 0
    assert {(row["series"], row["model"]) for row in rows} == {
        ("L1_f", "power"), ("L1_Y", "log2")}
    assert all(0.0 <= row["law_headroom"] <= 1.0 for row in rows)
    make_inputs = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "inputs.py"))[
        "make_inputs"]
    table = tmp_path / "seed103.csv"
    table.write_text(make_inputs(103).table_text)
    rc, rows = _norms_rows(tmp_path, ["--T", "0.3617", "--k", str(table)])
    assert rc == 0
    assert all(0.0 <= row["law_headroom"] <= 1.0 for row in rows)
