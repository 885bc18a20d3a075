import numpy as np
import pytest

import axiswirl as ax
from axiswirl.errors import QuadratureConvergenceError
from axiswirl.numerics import (MAX_LADDER_J, _PANEL_W, _PANEL_X, deepest_J, empirical_order,
                               gauss_panel_sums)
from axiswirl.profiles import _CACHE_PANELS

from oracles import bump, differentiate, simpson_richardson
from reference_values import I0_STAR


def test_integrate_zero_integrand():
    value, err = ax.integrate(lambda x: np.zeros_like(x), 0.0, 1.0)
    assert value == 0.0
    assert err == 0.0


def test_integrate_empty_interval():
    assert ax.integrate(lambda x: x, 0.3, 0.3) == (0.0, 0.0)


def test_integrate_closed_form_exponential():
    value, err = ax.integrate(lambda s: s * np.exp(0.5 * s * s), 0.0, 1.0)
    exact = np.exp(0.5) - 1.0
    assert abs(value - exact) <= max(1e-10, err)


def test_integrate_reference_kernel_matches_oracle():
    value, _ = ax.integrate(lambda l: np.exp(-0.5 * l * l) * bump(l), 0.0, 1.0)
    assert value == pytest.approx(I0_STAR, abs=1e-12)


def test_integrate_requires_ordered_interval():
    with pytest.raises(ValueError):
        ax.integrate(lambda x: x, 1.0, 0.0)


def test_integrate_budget_exhaustion_carries_best_estimate():
    spec = ax.QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2)

    def needle(x):
        return 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0) + 1e-14)

    with pytest.raises(QuadratureConvergenceError) as info:
        ax.integrate(needle, 0.0, 1.0, spec)
    assert np.isfinite(info.value.value)
    assert info.value.err_estimate > 0.0


def test_integrate_polynomial_times_gaussian_randomized(rng):
    for _ in range(20):
        deg = int(rng.integers(0, 7))
        coeffs = rng.normal(size=deg + 1)
        a = float(rng.uniform(0.0, 1.5))
        b = a + float(rng.uniform(0.1, 1.5))

        def f(x):
            return np.polyval(coeffs, x) * np.exp(-0.5 * x * x)

        value, err = ax.integrate(f, a, b)
        reference = simpson_richardson(f, a, b)
        assert abs(value - reference) <= max(1e-10, 10.0 * err)


def test_integrate_deterministic():
    def f(x):
        return np.sin(3.0 * x) * np.exp(-x)

    first = ax.integrate(f, 0.0, 2.0)
    second = ax.integrate(f, 0.0, 2.0)
    assert first == second


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        ax.QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        ax.QuadratureSpec(rel_tol=-1.0)
    with pytest.raises(ValueError):
        ax.QuadratureSpec(max_subdivisions=0)


def test_differentiate_constant_is_zero():
    assert differentiate(lambda x: np.float64(3.7), 0.2, 0.125, order=1) == 0.0
    assert differentiate(lambda x: np.float64(3.7), 0.2, 0.125, order=2) == 0.0


def test_differentiate_exact_on_quadratics():
    # Dyadic step keeps the cancellation exact in floating point.
    assert differentiate(lambda x: x * x, 1.0, 0.5, order=2) == 2.0


def test_differentiate_matches_profile_derivative(ref_profile):
    prof = ref_profile
    x = 0.5
    errors = []
    for h in (2e-2, 1e-2):
        fd = differentiate(lambda r: prof.phi0(r), x, h, order=1)
        errors.append(abs(fd - prof.phi0_prime(x)))
    ratio = errors[0] / errors[1]
    assert 3.0 < ratio < 5.0  # halving h cuts the error about fourfold


def test_differentiate_empirical_order_on_smooth_function():
    x = 0.7
    errs = [abs(differentiate(np.sin, x, h, order=1) - np.cos(x))
            for h in (1e-2, 5e-3)]
    assert empirical_order(errs[0], errs[1]) >= 1.9


def test_differentiate_validation():
    with pytest.raises(ValueError):
        differentiate(np.sin, 0.0, -1e-3)
    with pytest.raises(ValueError):
        differentiate(np.sin, 0.0, 1e-3, order=3)


@pytest.mark.parametrize("matrix", ["bump", "random"])
def test_gauss_panel_sums_keep_the_per_row_dot_bits(matrix):
    # The (2048, 4) cache-node matrix of the bump's I kernel, and a random one.
    nodes = np.linspace(0.0, 1.0, _CACHE_PANELS + 1)
    if matrix == "bump":
        k = ax.reference_k()

        def f(x):
            return np.exp(-0.5 * x * x) * np.asarray(k(x), dtype=float)
    else:
        rng = np.random.default_rng(11)
        shape = (_CACHE_PANELS, _PANEL_X.size)
        values = rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))

        def f(x):
            return values
    half = 0.5 * (nodes[1:] - nodes[:-1])
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    ys = f(mid[:, None] + half[:, None] * _PANEL_X)
    expected = half * np.array([_PANEL_W @ row for row in ys])
    assert np.array_equal(gauss_panel_sums(f, nodes), expected)


def test_time_ladder_structure():
    ladder = ax.TimeLadder(0.5, 20)
    assert len(ladder) == 20
    assert np.all(np.diff(ladder.levels) > 0.0)
    assert ladder.levels[-1] < 0.5
    assert ladder.levels[0] == pytest.approx(0.25)
    # T = 1/2 makes T - t_j exactly representable
    assert np.array_equal(ladder.T_minus, 0.5 ** np.arange(2, 22))


def test_time_ladder_validation():
    with pytest.raises(ValueError, match=r"final time T must lie in \(0, 1/2\]"):
        ax.TimeLadder(0.6, 8)
    with pytest.raises(ValueError, match=r"J must lie in \[1, 53\].*; not 0"):
        ax.TimeLadder(0.5, 0)
    with pytest.raises(ValueError, match=r"J must lie in \[1, 53\].*; not 54"):
        ax.TimeLadder(0.5, 54)
    # T (1 - 2^-53) rounds to T at this T: the last level is not below it
    with pytest.raises(ValueError, match=r"ladder levels must"):
        ax.TimeLadder(0.3617, 53)


@pytest.mark.parametrize("T, deepest", [(0.5, 53), (0.25, 53), (1e-147, 53), (0.3617, 52),
                                        (0.3, 52), (0.01, 52), (1e-300, 52)])
def test_deepest_J_is_the_deepest_ladder_accepted(T, deepest):
    accepted = []
    for J in range(1, MAX_LADDER_J + 1):
        try:
            ax.TimeLadder(T, J)
        except ValueError:
            continue
        accepted.append(J)
    assert deepest_J(T) == max(accepted) == deepest
    assert accepted == list(range(1, deepest + 1))


def test_time_ladders_of_one_T_and_J_compare_equal_and_hash_alike():
    a, b = ax.TimeLadder(0.3617, 12), ax.TimeLadder(0.3617, 12)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != ax.TimeLadder(0.3617, 13) and a != ax.TimeLadder(0.5, 12)


# --- row mode: array endpoints, one integral per row -------------------------

_ROW_SPEC = ax.QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=400)


def _row_tol(value):
    return max(_ROW_SPEC.abs_tol, _ROW_SPEC.rel_tol * abs(value))


def test_integrate_rows_agree_with_scalar_calls():
    c = np.array([0.5, 1.0, 4.0, 20.0, 60.0])
    a = np.array([0.0, 0.1, 0.2, 0.0, 0.3])
    b = np.array([1.0, 2.0, 0.3, 3.0, 0.9])
    points = np.outer(c ** -0.5, [0.25, 1.0, 4.0])

    def row(i):
        return lambda x: np.exp(-c[i] * x) * np.cos(3.0 * x)

    values, errs = ax.integrate(lambda x: np.exp(-c[:, None] * x) * np.cos(3.0 * x),
                                a, b, _ROW_SPEC, breakpoints=points)
    assert values.shape == errs.shape == a.shape
    for i in range(a.size):
        scalar, _ = ax.integrate(row(i), a[i], b[i], _ROW_SPEC,
                                 breakpoints=points[i])
        assert errs[i] <= _row_tol(values[i])
        assert abs(values[i] - scalar) <= _row_tol(scalar)


def test_integrate_rows_zero_length_segments():
    # Row 1 clips both breakpoints to b = 0.2, row 2 both to a = 0.7, and
    # row 3 is empty; the integrand is NaN on every degenerate node.
    a = np.array([0.0, 0.0, 0.7, 0.4])
    b = np.array([1.0, 0.2, 1.0, 0.4])
    points = np.array([[0.3, 0.6]] * 4)

    def f(x):
        degenerate = (x == b[:, None]) | (x == a[:, None])
        return np.where(degenerate, np.nan, x * x)

    values, errs = ax.integrate(f, a, b, _ROW_SPEC, breakpoints=points)
    exact = (b ** 3 - a ** 3) / 3.0
    assert np.all(np.abs(values - exact) <= 1e-15)
    assert values[3] == 0.0 and errs[3] == 0.0


def test_integrate_rows_budget_exhaustion_carries_row_estimates():
    spec = ax.QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2)
    centers = np.array([1.0 / 3.0, 0.55])

    def needles(x):
        return 1.0 / np.sqrt(np.abs(x - centers[:, None]) + 1e-14)

    with pytest.raises(QuadratureConvergenceError) as info:
        ax.integrate(needles, np.zeros(2), np.ones(2), spec)
    assert info.value.value.shape == (2,)
    assert np.all(np.isfinite(info.value.value))
    assert np.all(info.value.err_estimate > 0.0)


def test_integrate_rows_validation():
    with pytest.raises(ValueError):
        ax.integrate(lambda x: x, np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        ax.integrate(lambda x: x, np.zeros(2), np.ones(3))


@pytest.mark.parametrize("rows", [2, 3])
def test_integrate_breakpoint_sequence_cuts_every_row(rows):
    # A 1-d list is the (rows, k) array with the list in every row, to the bit.
    a, b = np.zeros(rows), np.linspace(1.0, 1.5, rows)
    c = np.arange(1.0, rows + 1.0)[:, None]

    def f(x):
        return np.exp(-8.0 * c * np.abs(x - 0.25)) + np.sqrt(np.abs(x - 0.75))

    points = [0.25, 0.75]
    listed = ax.integrate(f, a, b, _ROW_SPEC, breakpoints=points)
    tiled = ax.integrate(f, a, b, _ROW_SPEC, breakpoints=np.tile(points, (rows, 1)))
    assert all(np.array_equal(x, y) for x, y in zip(listed, tiled))


@pytest.mark.parametrize("points", [None, [0.05, 0.2, 0.2, 1.7]])
def test_integrate_scalar_call_is_the_one_row_case(points):
    # Scalar endpoints run the row engine on one row: the same panels and
    # the same bits, whether or not breakpoints seed them.
    def f(x):
        return np.exp(-20.0 * x) * np.cos(9.0 * x) + np.sqrt(x)

    value, err = ax.integrate(f, 0.0, 1.3, _ROW_SPEC, breakpoints=points)
    rows = None if points is None else np.array([points])
    values, errs = ax.integrate(f, np.array([0.0]), np.array([1.3]), _ROW_SPEC,
                                breakpoints=rows)
    assert type(value) is float and values.shape == (1,)
    assert (value, err) == (values[0], errs[0])


@pytest.mark.parametrize("which, part, r, t, expected", [
    ("v", 1, 0.3, 0.2, 8.064609706358091e-07),
    ("v", 1, 0.9, 0.4, 9.245111995972792e-06),
    ("v", 1, 0.05, 0.5 - 2.0 ** -12, 0.00479888910363444),
    ("vbar", 2, 0.3, 0.2, 8.056262448797421e-07),
    ("vbar", 2, 0.9, 0.4, 9.222429244363587e-06),
    ("vbar", 2, 0.05, 0.5 - 2.0 ** -12, 0.004589376035983402),
], ids=["v-1-0.3-0.2", "v-1-0.9-0.4", "v-1-0.05-0.499755859375",
        "vbar-2-0.3-0.2", "vbar-2-0.9-0.4", "vbar-2-0.05-0.499755859375"])
def test_scalar_integrate_bits_pinned(ref_profile, which, part, r, t, expected):
    # A scalar call is the one-row case of the row engine: these pressures,
    # seeded at the self-similar points from the axis, are pinned bitwise.
    # Each lies within DEFAULT_SPEC of an unseeded reference taken at
    # QuadratureSpec(1e-16, 1e-14, 20000), to 1.7e-14 relative.
    fam = ax.SolutionFamily(profile=ref_profile, T=0.5, part=part)
    assert ax.eval_pressure(fam, which, r, t) == expected
