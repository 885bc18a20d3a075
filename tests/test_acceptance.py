"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

import axiswirl as ax
from axiswirl.norms import classify_LqtL1x, energy_series, l1_series

from oracles import phi0_exact, residual_order
from reference_values import ABS_K_MOMENT_STAR, Y_RATIO_CAPS


def _report(criterion, ok, elapsed, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}"
    print(line)
    assert ok, line


def test_criterion_1_ode_residual():
    start = time.monotonic()
    profile = ax.build_profile(ax.reference_k())
    radii = np.geomspace(1e-3, 1.0, 50)
    res_max = float(np.max(np.abs(ax.ode_residual(profile, radii))))

    # Quadrature sensitivity: the residual itself collapses algebraically
    # (the derivative chain solves the equation identically in the inner
    # integral), so the quadrature-error channel is exhibited on the
    # independent two-path evaluation, which must drop at least tenfold
    # when tolerances tighten a hundredfold.
    def gap(tol):
        spec = ax.QuadratureSpec(abs_tol=tol, rel_tol=tol, max_subdivisions=800)
        return max(abs(phi0_exact(profile, float(r), spec) - float(profile.phi0(float(r))))
                   for r in radii)

    loose, tight = gap(1e-8), gap(1e-10)
    ratio = loose / max(tight, 1e-300)
    elapsed = time.monotonic() - start
    ok = res_max < 1e-8 and ratio >= 10.0 and elapsed < 10.0
    _report(1, ok, elapsed,
            f"max |ode residual| = {res_max:.2e} (< 1e-8); two-path gap "
            f"{loose:.2e} -> {tight:.2e}, ratio {ratio:.0f} (>= 10)")


def test_criterion_2_pde_residual_part1(fam1, grid128, ladder12):
    start = time.monotonic()
    order, reports = residual_order(fam1, "v", grid128, ladder12)
    elapsed = time.monotonic() - start
    ok = all(r.passed for r in reports) and order >= 1.8 and elapsed < 60.0
    _report(2, ok, elapsed,
            f"max normalized residual {reports[0].max_abs_residual:.2e} "
            f"<= tol {reports[0].tolerance:.2e}; order {order:.2f} (>= 1.8)")


def test_criterion_3_eta_identity_part2(fam2, grid128, ladder12):
    start = time.monotonic()
    order, reports = residual_order(fam2, "eta", grid128, ladder12)
    elapsed = time.monotonic() - start
    ok = all(r.passed for r in reports) and order >= 1.8 and elapsed < 60.0
    _report(3, ok, elapsed,
            f"max normalized residual {reports[0].max_abs_residual:.2e} "
            f"<= tol {reports[0].tolerance:.2e}; order {order:.2f} (>= 1.8)")


def test_criterion_4_boundary(fam1, fam2):
    start = time.monotonic()
    ladder = ax.TimeLadder(0.5, 20)
    worst = 0.0
    for fam, which in ((fam1, "v"), (fam2, "vbar")):
        vals = [abs(ax.evaluate(fam, which, 1.0, float(t))) for t in ladder.levels]
        worst = max(worst, max(vals))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9
    _report(4, ok, elapsed,
            f"max wall value {worst:.1e} (< 1e-9); horizontal slip structural "
            f"(v_r = v_3 = 0 exactly, no vertical dependence)")


def test_criterion_5_energy_contrast(fam1_big, fam2_big):
    start = time.monotonic()
    ladder = ax.TimeLadder(0.5, 20)
    ev = energy_series(fam1_big, "v", ladder)
    x = np.abs(np.log(ladder.T_minus[7:]))
    y = ev.values[7:]
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    r2 = 1.0 - np.sum((y - fitted) ** 2) / np.sum((y - np.mean(y)) ** 2)

    eb = energy_series(fam2_big, "vbar", ladder)
    sup12 = float(np.max(eb.values[:12]))
    sup20 = float(np.max(eb.values))
    drift = abs(sup20 - sup12) / sup20
    slope_vbar = np.linalg.lstsq(design, eb.values[7:], rcond=None)[0][1]
    contrast = abs(slope_vbar / coef[1])
    elapsed = time.monotonic() - start
    ok = (coef[1] > 0.0 and r2 > 0.99 and np.isfinite(sup20)
          and drift < 0.05 and contrast < 0.1 and elapsed < 120.0)
    _report(5, ok, elapsed,
            f"energy_v ~ |ln(T-t)|: slope {coef[1]:.3e} > 0, R^2 {r2:.6f} "
            f"(> 0.99); sup energy_vbar {sup20:.4e} with J=12->20 drift "
            f"{100 * drift:.1f}% (< 5%); vbar/v slope ratio {contrast:.3f} (< 0.1)")


def test_criterion_6_forcing_classification(fam1, y_deep):
    start = time.monotonic()
    ladder = ax.TimeLadder(0.5, 20)
    deep = ax.TimeLadder(0.5, 28)

    f_series = l1_series(fam1, ladder)
    expected = 2.0 * np.pi * ABS_K_MOMENT_STAR / np.sqrt(2.0)
    f_products = f_series.values * np.sqrt(ladder.T_minus)
    f_bounded = bool(np.max(np.abs(f_products - expected)) < 1e-8 * expected)

    f_deep = l1_series(fam1, deep)
    f_scan = {q: classify_LqtL1x(f_deep, q).finite for q in (1.5, 1.9, 2.1, 3.0)}
    f_flips = (f_scan[1.5] is True and f_scan[1.9] is True
               and f_scan[2.1] is False and f_scan[3.0] is False)

    ratio_ok = True
    ratio_detail = []
    for quantity in ("Y1", "Y2", "Y3", "Y4"):
        series = y_deep[quantity]
        peak = float(np.max(series.ratios))
        ratio_ok = ratio_ok and peak <= Y_RATIO_CAPS[quantity]
        ratio_detail.append(f"{quantity}:{peak:.2f}")

    y_scan = {q: classify_LqtL1x(y_deep["Y"], q).finite for q in (1.5, 2.0, 4.0)}
    y_finite = all(v is True for v in y_scan.values())

    elapsed = time.monotonic() - start
    ok = f_bounded and f_flips and ratio_ok and y_finite
    _report(6, ok, elapsed,
            f"||f|| sqrt(T-t) constant to {np.max(np.abs(f_products - expected)) / expected:.1e}; "
            f"f-scan finite/infinite flips across q=2; normalized Y ratios "
            f"bounded ({', '.join(ratio_detail)}); Y-scan finite for q in {{1.5, 2, 4}}")


def test_criterion_7_oracle_crossvalidation(fam1):
    start = time.monotonic()
    run = ax.convergence_study(fam1, [ax.OracleConfig(128 * 2**m, 1024 * 2**m)
                                      for m in range(3)])
    elapsed = time.monotonic() - start
    ok = (run.study_valid and run.final_error_Linf < 1e-5
          and 1.7 <= run.convergence_order <= 2.3
          and run.config.n_r == 512 and elapsed < 120.0)
    _report(7, ok, elapsed,
            f"Linf error at t = T - T/8, n_r = 512: {run.final_error_Linf:.2e} "
            f"(< 1e-5); order {run.convergence_order:.2f} in [1.7, 2.3]")


def test_criterion_8_blowup(fam1_big, fam2_big):
    start = time.monotonic()
    ladder = ax.TimeLadder(0.5, 20)
    r = np.linspace(0.0, 1.0, 128)[1:]

    details = []
    growth_ok = True
    for fam, name in ((fam1_big, "v"), (fam2_big, "vbar")):
        sup0 = float(np.max(np.abs(ax.evaluate(fam, name, r, 0.0))))
        sups = np.array([np.max(np.abs(ax.evaluate(fam, name, r, float(t))))
                         for t in ladder.levels])
        nondecreasing = bool(np.all(np.diff(sups) >= -1e-12 * sups[:-1]))
        ratio = sups[-1] / sup0
        growth_ok = growth_ok and nondecreasing and ratio > 10.0
        details.append(f"sup|{name}| x{ratio:.0f}")

    lower = ax.check_bound(fam2_big, "phi_lower", 128, ax.TimeLadder(0.5, 12))
    elapsed = time.monotonic() - start
    ok = growth_ok and lower.passed
    _report(8, ok, elapsed,
            f"{', '.join(details)} by j=20 (> 10x), nondecreasing; lower-bound "
            f"check C = {lower.fitted_C:.3e}, C* = {lower.C_star:.3e}")
