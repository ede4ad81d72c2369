"""Analytic initial-data families."""

import math

import numpy as np
import pytest

from warpflow import recipes
from warpflow.grids import GridSpec

TAU = 2.0 * math.pi


def test_flat_metric_is_identity():
    grid = GridSpec((8, 8, 8), (TAU, TAU, TAU))
    g = recipes.flat_metric(grid)
    assert np.allclose(g.values, np.eye(3), atol=0.0)
    assert g.is_metric


def test_conformal_metric_structure():
    grid = GridSpec((16, 16), (TAU, TAU))
    u = recipes._conformal_exponent(grid, 0.3)
    g = recipes.conformal_metric(grid, 0.3)
    mat = g.values
    assert np.allclose(mat[..., 0, 0], np.exp(2.0 * u.values), rtol=1e-15)
    assert np.allclose(mat[..., 0, 0], mat[..., 1, 1], rtol=1e-15)
    assert np.all(mat[..., 0, 1] == 0.0)


def test_conformal_factor_single_axis_has_no_phase():
    grid = GridSpec((16, 16), (TAU, TAU))
    u = recipes._conformal_exponent(grid, 0.2, mode=1, axis=1)
    y = grid.coordinates(1)
    assert np.allclose(u.values, 0.2 * np.sin(y)[None, :], atol=1e-15)


def test_scalar_amplitudes_bounded():
    grid = GridSpec((16, 16), (TAU, TAU))
    f = recipes.sine_scalar(grid, 0.2)
    assert float(np.abs(f.values).max()) <= 0.4 + 1e-12
    mixed = recipes.mixed_sine_scalar(grid, 0.2, (1, 2))
    assert float(np.abs(mixed.values).max()) <= 0.2 * 2 * 1.5 + 1e-12


def test_mixed_sine_scalar_breaks_single_mode_symmetry():
    # one sinusoid per axis makes sum (D^2 f - (Df)^2) e^{-f} vanish
    # exactly on the nodes; the mixed profile must not share that
    # accidental exactness, or convergence studies have nothing to measure
    grid = GridSpec((32,), (TAU,))

    def defect(f):
        from warpflow.grids import diff_array
        d1 = diff_array(f.values, grid, 0)
        d2 = diff_array(d1, grid, 0)
        return abs(float(np.sum((d2 - d1 * d1) * np.exp(-f.values))))

    single = recipes.sine_scalar(grid, 0.3)
    mixed = recipes.mixed_sine_scalar(grid, 0.3, (1, 2))
    assert defect(single) < 1e-14
    assert defect(mixed) > 1e-6


def test_random_spd_metric_definite_and_seeded():
    grid = GridSpec((12, 12), (TAU, TAU))
    g1 = recipes.random_spd_metric(grid, np.random.default_rng(42), 0.4)
    g2 = recipes.random_spd_metric(grid, np.random.default_rng(42), 0.4)
    assert np.array_equal(g1.values, g2.values)
    eigs = np.linalg.eigvalsh(g1.values)
    assert float(eigs.min()) > 1.0 - 0.4 - 1e-12
    with pytest.raises(ValueError):
        recipes.random_spd_metric(grid, np.random.default_rng(0), 1.5)


def test_random_field_is_resolution_stable():
    # the same seed must describe the same continuum field at every
    # resolution, or convergence ladders would compare different setups
    coarse = GridSpec((16,), (TAU,))
    fine = GridSpec((32,), (TAU,))
    t1 = recipes.random_sym_tensor(coarse, np.random.default_rng(3), 1.0)
    t2 = recipes.random_sym_tensor(fine, np.random.default_rng(3), 1.0)
    assert np.allclose(t1.values, t2.values[::2], atol=1e-14)


def test_high_mode_scalar_spectrum():
    grid = GridSpec((32,), (TAU,))
    f = recipes.high_mode_scalar(grid, 0.5, (9, 13))
    spec = np.abs(np.fft.rfft(f.values))
    hot = set(np.nonzero(spec > 1e-9)[0])
    assert hot == {9, 13}
