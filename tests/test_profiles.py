import runpy
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import axiswirl as ax
from axiswirl import numerics, profiles
from axiswirl.numerics import gauss_panel_sums
from axiswirl.profiles import _CACHE_PANELS, _SWEEP_CHUNK, _panel_sweep, profile_table

from oracles import inner_integral_oracle, phi0_exact
from reference_values import ALPHA_STAR, I0_STAR


def test_reference_values_regenerate():
    assert inner_integral_oracle(0.0) == pytest.approx(I0_STAR, abs=1e-14)
    from oracles import alpha_oracle
    assert alpha_oracle() == pytest.approx(ALPHA_STAR, abs=1e-13)


def test_reference_k_support_endpoints():
    k = ax.reference_k()
    assert k(np.array([0.0]))[0] == 0.0
    assert k(np.array([1.0]))[0] == 0.0
    assert k(np.array([-0.5]))[0] == 0.0
    assert k(np.array([1.5]))[0] == 0.0


def test_reference_k_midpoint_value():
    k = ax.reference_k()
    assert k(np.array([0.5]))[0] == pytest.approx(-np.exp(-4.0), rel=1e-15)


def test_reference_k_flat_at_boundary():
    k = ax.reference_k()
    assert abs(k(np.array([0.01]))[0]) < 0.01 ** 10


def test_bump_forcing_scaling():
    k100 = ax.bump_forcing(100.0)
    k1 = ax.reference_k()
    r = np.linspace(0.05, 0.95, 7)
    assert np.allclose(k100(r), 100.0 * k1(r), rtol=1e-15)
    with pytest.raises(ValueError):
        ax.bump_forcing(0.0)


def test_inner_integral_zero_forcing():
    assert ax.inner_integral(ax.zero_forcing(), 0.3) == 0.0


def test_inner_integral_support_cutoff(ref_profile):
    k = ax.reference_k()
    assert ax.inner_integral(k, 1.0) == 0.0
    assert ax.inner_integral(k, 2.5) == 0.0


def test_inner_integral_negative_argument():
    with pytest.raises(ValueError):
        ax.inner_integral(ax.reference_k(), -0.1)


def test_inner_integral_reference_at_zero():
    assert ax.inner_integral(ax.reference_k(), 0.0) == pytest.approx(I0_STAR, abs=1e-12)


def test_inner_integral_sign_and_limit(ref_profile):
    prof = ref_profile
    s = np.linspace(0.0, 0.95, 40)
    vals = prof.I(s)
    assert np.all(vals < 0.0)  # strict where the magnitude is resolvable
    near_edge = prof.I(np.linspace(0.95, 0.9999, 20))
    assert np.all(near_edge < 1e-12)  # nonpositive up to interpolation noise
    assert prof.I(0.0) == pytest.approx(prof.I0)
    assert prof.I(1e-9) == pytest.approx(prof.I0, rel=1e-9)


def test_zero_profile_is_identically_zero(zero_profile):
    prof = zero_profile
    assert prof.alpha == 0.0
    r = np.linspace(1e-5, 2.0, 50)
    assert np.all(prof.phi0(r) == 0.0)
    assert np.max(np.abs(ax.ode_residual(prof, r))) == 0.0


def test_build_profile_reference_constants(ref_profile):
    prof = ref_profile
    assert prof.alpha == pytest.approx(ALPHA_STAR, abs=1e-9)
    assert prof.alpha < 0.0
    assert prof.phi0(0.5) > 0.0


def test_alpha_equals_minus_wall_values(ref_profile):
    prof = ref_profile
    assert prof.alpha == -prof.g1
    assert prof.phi0(1.0) == pytest.approx(-prof.alpha, rel=1e-14)
    assert prof.g_prime(0.0) == 0.0
    assert prof.phi0(0.0) == 0.0


def test_positive_profile_for_admissible_forcing(ref_profile):
    prof = ref_profile
    r = np.geomspace(1e-6, 1.0, 200)
    assert np.min(prof.phi0(r)) > 0.0
    assert prof.alpha < 0.0
    assert 1.0 - prof.alpha > 1.0


def test_ode_residual_small_on_log_spaced_sample(ref_profile):
    r = np.geomspace(1e-3, 1.0, 50)
    res = ax.ode_residual(ref_profile, r)
    assert np.max(np.abs(res)) < 1e-8


def test_ode_residual_outside_support(ref_profile):
    assert abs(ax.ode_residual(ref_profile, 2.0)) < 1e-8
    assert abs(ax.ode_residual(ref_profile, 0.5)) < 1e-8


def test_ode_residual_requires_positive_radius(ref_profile):
    with pytest.raises(ValueError):
        ax.ode_residual(ref_profile, 0.0)


def test_two_path_agreement_default_spec(ref_profile):
    prof = ref_profile
    for r in (0.05, 0.3, 0.8):
        assert phi0_exact(prof, r) == pytest.approx(prof.phi0(r), abs=1e-9)


def test_upper_bound_shape_stable(ref_profile):
    prof = ref_profile
    r = np.geomspace(1e-3, 4.0, 120)
    ratios = np.abs(prof.phi0(r)) * (r * r + 1.0) / r
    fitted = np.max(ratios)
    tight = ax.QuadratureSpec(1e-12, 1e-12, 1600)
    probe = np.geomspace(1e-3, 4.0, 17)
    exact = np.array([abs(phi0_exact(prof, float(x), tight)) * (x * x + 1.0) / x
                      for x in probe])
    assert np.max(exact) <= fitted * 1.01
    assert np.isfinite(fitted)


def test_derivative_bound_shape_bounded(ref_profile):
    prof = ref_profile
    r = np.geomspace(1e-3, 4.0, 120)
    ratios = np.abs(prof.phi0_prime(r)) * (r * r + 1.0)
    assert np.all(np.isfinite(ratios))
    assert np.max(ratios) < 10.0 * abs(prof.I0)


def test_small_r_series_consistency(ref_profile):
    prof = ref_profile
    r = np.geomspace(1e-4, 0.05, 60)
    defect = np.abs(prof.phi0(r) + prof.I0 * r / 2.0)
    c_fit = np.max(defect / r ** 3)
    r_fine = np.geomspace(1e-4, 0.05, 240)
    defect_fine = np.abs(prof.phi0(r_fine) + prof.I0 * r_fine / 2.0)
    assert np.all(defect_fine <= 1.05 * c_fit * r_fine ** 3)


def _seeded_forcing(seed):
    """The forcing of the benchmark's seeded table ``seed``; None is the bump."""
    if seed is None:
        return ax.reference_k()
    make_inputs = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "inputs.py"))[
        "make_inputs"]
    rows = np.loadtxt(make_inputs(seed).table_text.splitlines()[1:], delimiter=",")
    return ax.forcing_from_samples(rows[:, 0], rows[:, 1])


def _seeded_profile(seed):
    """The profile of the benchmark's seeded table ``seed``; None is the bump."""
    return ax.build_profile(_seeded_forcing(seed))


@pytest.mark.parametrize("seed", [None, 103, 106], ids=["bump", "seed103", "seed106"])
def test_phi0_over_r_is_exact_to_rounding_near_the_axis(seed):
    # One h = g/r^2 cache from the axis on: no seam at r = 1e-4, where a g
    # cache divided by r^2 lost seven digits (2.75e-7 on seed 106).
    prof = _seeded_profile(seed)
    tight = ax.QuadratureSpec(1e-18, 1e-14, 20000)
    for r in (3e-5, np.nextafter(1e-4, 0.0), 1e-4, 1.2e-4, 1e-3):
        exact = prof.g_exact(r, tight) / (r * r)
        assert prof.jet(r)[1] == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_profile_table_columns(ref_profile):
    radii = np.geomspace(1e-2, 1.0, 7)
    table = profile_table(ref_profile, radii)
    assert table.shape == (7, 5)
    assert np.allclose(table[:, 0], radii)
    assert np.max(np.abs(table[:, 4])) < 1e-8


def test_forcing_from_samples_endpoint_forcing():
    r = np.linspace(0.0, 1.0, 11)
    k = -np.sin(np.pi * r)
    k[0] = 1e-6  # will be forced back to zero
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prof = ax.forcing_from_samples(r, k)
    assert any("forced to zero" in str(w.message) for w in caught)
    assert prof(np.array([0.0]))[0] == 0.0
    assert prof(np.array([1.0]))[0] == 0.0
    assert prof(np.array([1.7]))[0] == 0.0
    assert prof.nonpositive
    assert prof.nontrivial


def test_forcing_from_samples_validation():
    with pytest.raises(ValueError):
        ax.forcing_from_samples([0.0, 0.5, 1.0], [0.0, -1.0, 0.0])
    with pytest.raises(ValueError):
        ax.forcing_from_samples([0.0, 0.6, 0.4, 1.0], [0.0, -1.0, -1.0, 0.0])
    with pytest.raises(ValueError):
        ax.forcing_from_samples([0.1, 0.4, 0.7, 1.0], [0.0, -1.0, -1.0, 0.0])


def test_table_profile_builds_and_solves():
    r = np.linspace(0.0, 1.0, 21)
    k = -np.square(np.sin(np.pi * r))
    prof = ax.build_profile(ax.forcing_from_samples(r, k))
    sample = np.geomspace(1e-3, 1.0, 30)
    assert np.max(np.abs(ax.ode_residual(prof, sample))) < 1e-8
    assert prof.alpha < 0.0


@pytest.mark.parametrize("forcing", [ax.reference_k, lambda: ax.bump_forcing(3.0),
                                     ax.zero_forcing, lambda: _seeded_forcing(103)],
                         ids=["bump", "bump3", "zero", "seed103"])
def test_forcing_is_plus_zero_from_the_support_edge_on(forcing):
    # fields._h and ode_residual take k as it is for sigma >= 1, with no mask:
    # a -0.0 there would write -0.0000000000000000e+00 to field_slice.csv.
    sigma = np.array([0.0, 1.0, np.nextafter(1.0, 2.0), 2.0, 1e300])
    k = forcing()(sigma)
    assert np.all(k == 0.0)
    assert not np.any(np.signbit(k))


def _build_kernels(seed):
    """The I and g kernels ``build_profile`` sweeps, for seed's forcing."""
    k = _seeded_forcing(seed)
    prof = ax.build_profile(k)
    return (lambda l: np.exp(-0.5 * l * l) * k(l),
            lambda s: -s * np.exp(0.5 * s * s) * prof._I_spline(s))


@pytest.mark.parametrize("seed", [None, 103], ids=["bump", "seed103"])
def test_panel_sweep_equals_one_call_over_every_cache_panel(seed):
    nodes = np.linspace(0.0, 1.0, _CACHE_PANELS + 1)
    for kernel in _build_kernels(seed):
        whole = gauss_panel_sums(kernel, nodes)
        assert _panel_sweep(kernel).tobytes() == whole.tobytes()


@pytest.mark.parametrize("seed", [None, 103], ids=["bump", "seed103"])
def test_build_profile_traced_peak_stays_under_1_MB(seed):
    # One 2048-panel sweep peaked at 3.4 MB (bump) and 4.0 MB (seed 103).
    k = _seeded_forcing(seed)
    ax.build_profile(k)
    tracemalloc.start()
    try:
        ax.build_profile(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("seed", [None, 103], ids=["bump", "seed103"])
def test_moments_are_one_sweep_equal_to_four(seed, monkeypatch):
    # Each moment as it was swept alone, from its own density.
    from math import fsum

    prof = _seeded_profile(seed)
    singles = {
        "M0": lambda s: np.square(prof.phi0(s)) * s,
        "M1": lambda s: prof.phi0(s) * s * s,
        "A": lambda s: (np.square(prof.jet(s)[2]) + np.square(prof.jet(s)[1])) * s,
        "K1": lambda s: np.abs(prof.k(s)) * s,
    }
    expected = {name: fsum(_panel_sweep(f)) for name, f in singles.items()}
    calls = []

    def counting(f, nodes):
        calls.append(len(nodes))
        return gauss_panel_sums(f, nodes)

    monkeypatch.setattr(profiles, "gauss_panel_sums", counting)
    for _ in range(2):
        for name, value in expected.items():
            assert getattr(prof, name).hex() == value.hex(), name
    assert calls == [_SWEEP_CHUNK + 1] * (_CACHE_PANELS // _SWEEP_CHUNK)


@pytest.mark.parametrize("seed", [None, 103], ids=["bump", "seed103"])
def test_jet_all_inside_path_matches_the_masked_path_bytewise(seed):
    # An array wholly inside sigma < 1 skips the masks; its values must be
    # those of the same points taken from an array that mixes in sigma >= 1.
    prof = _seeded_profile(seed)
    inside = np.concatenate(([0.0, 1e-300, 1e-8, 0.5 ** 20], np.linspace(0.0, 1.0, 401)[1:-1],
                             [np.nextafter(1.0, 0.0)]))
    mixed = np.concatenate((inside, [1.0, 1.5, 1e8, np.inf]))
    masked = [part[:inside.size] for part in prof.jet(mixed)]
    for points in (inside, inside.reshape(-1, 4)):
        for fast, slow in zip(prof.jet(points), masked):
            assert fast.shape == points.shape
            assert fast.tobytes() == slow.reshape(points.shape).tobytes()
    for r in (0.0, 0.3, 1.0, 2.0):
        assert all(type(value) is float for value in prof.jet(r))


# Differences of a running sum that only rounding explains: its terms move
# by an ulp or so each, and the cache nodes and moments inherit the h
# cache's few ulps.
_SWEEP_ULPS = 16


def _within_ulps(value, reference, scale=None):
    """|value - reference| within _SWEEP_ULPS ulps of |scale|, by default
    of the reference itself."""
    scale = np.abs(reference if scale is None else scale)
    return np.all(np.abs(np.asarray(value) - reference)
                  <= _SWEEP_ULPS * np.finfo(float).eps * scale)


@pytest.mark.parametrize("seed", [None, 2, 103, 142],
                         ids=["bump", "seed2", "seed103", "seed142"])
def test_four_node_sweeps_agree_with_21_nodes_to_rounding(seed, monkeypatch):
    # The reference puts 21 Gauss nodes on every cache panel and on the
    # pressure's partial piece, as the sweeps did before the 4-node rule.
    k = _seeded_forcing(seed)
    sigma = np.concatenate((np.linspace(0.0, 1.0, 97)[1:], [1.5, 4.0, 1e8]))
    fast = ax.build_profile(k)
    with monkeypatch.context() as patch:
        x21, w21 = np.polynomial.legendre.leggauss(21)
        for module in (numerics, profiles):
            patch.setattr(module, "_PANEL_X", x21)
            patch.setattr(module, "_PANEL_W", w21)
        ref = ax.build_profile(k)
        ref_moments, ref_pressure = ref._moments, ref.pressure_integrals(sigma)
    i_fast, i_ref = fast._I_spline._c[:, 0], ref._I_spline._c[:, 0]
    # I runs from I(1) = 0 back to I0; near the support edge its nodes are
    # far below one ulp of I0, where no later use reads them relatively.
    assert _within_ulps(i_fast, i_ref, scale=ref.I0)
    assert _within_ulps(fast._h_spline._c[:, 0], ref._h_spline._c[:, 0])
    assert _within_ulps(fast.I0, ref.I0) and _within_ulps(fast.alpha, ref.alpha)
    assert _within_ulps(fast._moments, ref_moments)
    assert _within_ulps(fast._pressure_nodes, ref._pressure_nodes)
    assert _within_ulps(fast.pressure_integrals(sigma), ref_pressure)
