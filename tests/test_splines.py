"""The numpy splines of ``profiles`` against scipy's, kept here as the
independent reference; and scipy's absence from the start-up path."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

import axiswirl as ax
from axiswirl.profiles import _CACHE_PANELS, _Hermite, _natural_slopes


def _bitwise(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a), np.signbit(b))


def test_hermite_matches_scipy_bitwise_on_the_cache_grid():
    rng = np.random.default_rng(7)
    nodes = np.linspace(0.0, 1.0, _CACHE_PANELS + 1)
    y, dydx = rng.standard_normal((2, nodes.size))
    points = np.concatenate([
        rng.uniform(0.0, 1.0, 200_000),
        nodes,
        [0.0, -0.0, 1.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)],
        rng.uniform(-0.5, 0.0, 1000), rng.uniform(1.0, 1.5, 1000),
        [np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), -3.0, 4.0, np.nan],
    ])
    ours = _Hermite(nodes, y, dydx)
    assert ours._dyadic
    assert _bitwise(ours(points), CubicHermiteSpline(nodes, y, dydx)(points))
    assert ours(np.array([])).shape == (0,)
    grid = points[:40].reshape(4, 10)
    assert ours(grid).shape == (4, 10)
    assert _bitwise(ours(grid), CubicHermiteSpline(nodes, y, dydx)(grid))


def test_hermite_matches_scipy_bitwise_on_unequal_nodes():
    rng = np.random.default_rng(8)
    x = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 50)]))
    y, dydx = rng.standard_normal((2, x.size))
    points = np.concatenate([x, rng.uniform(-0.2, 1.2, 20_000)])
    ours = _Hermite(x, y, dydx)
    assert not ours._dyadic
    assert _bitwise(ours(points), CubicHermiteSpline(x, y, dydx)(points))


@pytest.mark.parametrize("n", [4, 9, 17, 21, 33, 50])
def test_natural_spline_matches_scipy_bitwise_on_equispaced_tables(n):
    rng = np.random.default_rng(n)
    x = np.linspace(0.0, 1.0, n)
    points = np.concatenate([x, rng.uniform(0.0, 1.0, 5000)])
    for _ in range(50):
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        slopes = _natural_slopes(x, y)
        reference = CubicSpline(x, y, bc_type="natural")
        assert _bitwise(_Hermite(x, y, slopes)(points), reference(points))
        assert slopes[0] == reference(0.0, 1)


def test_natural_spline_matches_scipy_on_unequal_tables():
    # Widely unequal steps make LAPACK swap rows in the slope solve.
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(4, 40))
        steps = 10.0 ** rng.uniform(-3, 1, n - 1)
        x = np.concatenate([[0.0], np.cumsum(steps)[:-1] / steps.sum(), [1.0]])
        if np.any(np.diff(x) <= 0.0):
            continue
        y = rng.standard_normal(n)
        points = rng.uniform(0.0, 1.0, 500)
        reference = CubicSpline(x, y, bc_type="natural")
        expected = reference(points)
        got = _Hermite(x, y, _natural_slopes(x, y))(points)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_forcing_table_matches_scipy_natural_spline():
    r = np.arange(33) / 32
    k = -np.square(np.sin(np.pi * r)) * (1.0 + r)
    prof = ax.forcing_from_samples(r, k)
    reference = CubicSpline(r, k, bc_type="natural")
    x = np.linspace(0.0, 1.0, 4097)[1:-1]
    assert _bitwise(prof(x), reference(x))
    assert prof.k_prime0 == reference(0.0, 1)


@pytest.mark.parametrize("where", [0, 4, -1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forcing_table_rejects_non_finite_samples(bad, where):
    # An endpoint too: forcing it to zero would hide a corrupt table.
    r = np.linspace(0.0, 1.0, 9)
    k = -np.sin(np.pi * r)
    k[where] = bad
    with pytest.raises(ValueError, match="finite"):
        ax.forcing_from_samples(r, k)
    k = -np.sin(np.pi * r)
    r[where] = bad
    with pytest.raises(ValueError, match="finite"):
        ax.forcing_from_samples(r, k)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(ax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, axiswirl.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
