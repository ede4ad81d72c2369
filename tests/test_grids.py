"""Grid, field and stencil primitives."""

import math

import numpy as np
import pytest

from warpflow import geometry, recipes
from warpflow.errors import GridMismatchError, MetricDegeneracyError
from warpflow.flow import FlowConfig, FlowState, step
from warpflow.functionals import StateTerms
from warpflow.grids import (Christoffel3Field, GridSpec, ScalarField,
                            SymTensorField, diff_array, filter_array,
                            integrate)
from warpflow.verify import FieldSpec, StudySpec, build_product_geometry
from warpflow.warped import (assemble_product_metric, ricci_closed_ansatz,
                             ricci_closed_general, solve_perelman_constants)

TAU = 2.0 * math.pi


def line(n=64, L=TAU):
    return GridSpec((n,), (L,))


# ----------------------------------------------------------------- GridSpec

def test_gridspec_properties():
    grid = GridSpec((16, 32), (2.0, 8.0))
    assert grid.dim == 2
    assert grid.shape == (16, 32)
    assert grid.spacing == (0.125, 0.25)
    assert grid.cell_volume == pytest.approx(0.125 * 0.25, rel=1e-15)
    x = grid.coordinates(0)
    assert x[0] == 0.0 and x[-1] == pytest.approx(2.0 - 0.125)
    mx, my = grid.meshes()
    assert mx.shape == (16, 1) and my.shape == (1, 32)


def test_gridspec_rejects_bad_input():
    with pytest.raises(ValueError):
        GridSpec((4,), (1.0,))            # too coarse for the stencils
    with pytest.raises(ValueError):
        GridSpec((16, 16), (1.0,))        # axis count mismatch
    with pytest.raises(ValueError):
        GridSpec((16,), (-1.0,))
    with pytest.raises(ValueError):
        GridSpec((), ())
    with pytest.raises(ValueError):
        GridSpec((16,), (math.inf,))


# ------------------------------------------------------------------- fields

def test_scalar_field_validation():
    grid = line(16)
    with pytest.raises(ValueError):
        ScalarField(grid, np.zeros(8))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid, bad)
    f = ScalarField.from_function(grid, np.sin)
    assert np.array_equal(f.values, np.sin(grid.coordinates(0)))


def test_sym_tensor_storage_is_full_symmetric_and_read_only():
    # a symmetric input is stored bit for bit, as a new array
    grid = GridSpec((8, 10), (TAU, 3.0))
    rng = np.random.default_rng(0)
    mat = rng.standard_normal(grid.shape + (2, 2))
    mat = mat + np.swapaxes(mat, -1, -2)
    for t in (SymTensorField(grid, mat),
              SymTensorField.from_matrix(grid, mat)):
        assert np.array_equal(t.values, mat) and t.values is not mat
    assert mat.flags.writeable

    # every producer stores the full (..., d, d) matrix, symmetric to the bit
    g = recipes.random_spd_metric(grid, rng, 0.3)
    f = recipes.mixed_sine_scalar(grid, 0.3)
    bundle = geometry.curvature_bundle(g)
    c = solve_perelman_constants(2, 1)
    pg = build_product_geometry(
        StudySpec((((8, 10), (8,)),), TAU, TAU, FieldSpec("random-spd", 0.2),
                  FieldSpec("conformal-bump", 0.1), 0.2, (1,), seed=1))
    rk4 = step(FlowState.initial(g, f),
               FlowConfig(dt=1e-4, t_end=1e-4, lam=0.5, integrator="rk4",
                          filter_cutoff=0.75))
    fields = [recipes.flat_metric(grid), recipes.conformal_metric(grid, 0.1),
              recipes.random_sym_tensor(grid, rng), g, bundle.ricci,
              geometry.hessian(geometry.gradient_components(f),
                               bundle.christoffel),
              StateTerms.at(g, f).gradient_tensor(0.5),
              assemble_product_metric(pg, c),
              ricci_closed_general(pg, c).ricci,
              ricci_closed_ansatz(pg, c).ricci, rk4.g]
    for t in fields:
        d = t.grid.dim
        assert t.values.shape == t.grid.shape + (d, d)
        assert np.array_equal(t.values, np.swapaxes(t.values, -1, -2))
        # the accessor hands out the stored array, which cannot be written
        assert t.matrix() is t.values
        with pytest.raises(ValueError):
            t.matrix()[(0,) * (d + 2)] = 1.0


def test_sym_tensor_rejects_asymmetric_unless_projected():
    grid = GridSpec((8, 8), (1.0, 1.0))
    mat = np.zeros(grid.shape + (2, 2))
    mat[..., 0, 1] = 1.0                  # not symmetric
    with pytest.raises(ValueError):
        SymTensorField(grid, mat)
    with pytest.raises(ValueError):
        SymTensorField.from_matrix(grid, mat)
    t = SymTensorField.from_matrix(grid, mat, symmetrize=True)
    assert np.all(t.values[..., 0, 1] == 0.5)
    assert np.all(t.values[..., 1, 0] == 0.5)
    # asymmetry at roundoff passes the check and is projected away
    mat[..., 1, 0] = 1.0 + 1e-12
    t = SymTensorField(grid, mat)
    assert np.all(t.values[..., 0, 1] == 0.5 * (1.0 + (1.0 + 1e-12)))
    assert np.array_equal(t.values[..., 0, 1], t.values[..., 1, 0])


def test_metric_flag_requires_spd():
    grid = line(16)
    vals = np.ones(grid.shape + (1, 1))
    vals[5, 0, 0] = -2.0
    with pytest.raises(MetricDegeneracyError) as err:
        SymTensorField(grid, vals, is_metric=True)
    assert err.value.node == (5,)
    assert err.value.eigenvalue == pytest.approx(-2.0)
    # the check runs in blocks of nodes: a bad node in the last, ragged
    # block of a larger grid is found too
    grid = GridSpec((96, 96), (1.0, 1.0))
    vals = np.broadcast_to(np.eye(2), grid.shape + (2, 2)).copy()
    vals[95, 90] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(MetricDegeneracyError) as err:
        SymTensorField(grid, vals, is_metric=True)
    assert err.value.node == (95, 90)
    assert err.value.eigenvalue == pytest.approx(-1.0)


def test_christoffel_field_checks_lower_symmetry():
    grid = line(16)
    vals = np.zeros(grid.shape + (1, 1, 1))
    Christoffel3Field(grid, vals)         # symmetric (trivially) is fine
    grid2 = GridSpec((8, 8), (1.0, 1.0))
    bad = np.zeros(grid2.shape + (2, 2, 2))
    bad[..., 0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        Christoffel3Field(grid2, bad)


# -------------------------------------------------------------- derivatives

def test_first_derivative_discrete_eigenvalue():
    # On mode k the order-2 stencil acts exactly as multiplication by
    # sin(kh)/h on the quadrature nodes: D sin(kx) = (sin(kh)/h) cos(kx).
    grid = line(32)
    x = grid.coordinates(0)
    h = grid.spacing[0]
    for k in (1, 3, 5):
        df = diff_array(np.sin(k * x), grid, 0)
        expected = (math.sin(k * h) / h) * np.cos(k * x)
        assert np.allclose(df, expected, atol=1e-13)


def test_derivative_convergence_orders():
    def err(n, order):
        grid = line(n)
        x = grid.coordinates(0)
        df = diff_array(np.exp(np.sin(x)), grid, 0, order)
        exact = np.cos(x) * np.exp(np.sin(x))
        return float(np.abs(df - exact).max())

    for order, expected in ((2, 2.0), (4, 4.0)):
        e1, e2 = err(32, order), err(64, order)
        measured = math.log2(e1 / e2)
        assert abs(measured - expected) < 0.15


def test_derivative_uses_each_axis_spacing():
    # unequal periods and point counts per axis: each axis's error must
    # shrink at the stencil's order, which it cannot if any axis divides
    # by another axis's spacing
    periods = (TAU, 3.0, 5.0)
    k = [TAU / L for L in periods]

    def errors(scale, order):
        grid = GridSpec(tuple(scale * n for n in (8, 10, 12)), periods)
        x, y, z = grid.meshes()
        f = np.exp(0.3 * (np.sin(k[0] * x) + np.cos(k[1] * y)
                          + np.sin(k[2] * z)))
        exact = (0.3 * k[0] * np.cos(k[0] * x) * f,
                 -0.3 * k[1] * np.sin(k[1] * y) * f,
                 0.3 * k[2] * np.cos(k[2] * z) * f)
        return [float(np.abs(diff_array(f, grid, a, order) - exact[a]).max())
                for a in range(3)]

    for order in (2, 4):
        coarse, fine = errors(2, order), errors(4, order)
        for axis in range(3):
            measured = math.log2(coarse[axis] / fine[axis])
            assert abs(measured - order) < 0.15, (order, axis, measured)


def test_second_derivative_is_composition_and_commutes():
    grid = GridSpec((16, 24), (TAU, TAU))
    rng = np.random.default_rng(3)
    v = rng.standard_normal(grid.shape)
    # a second derivative is the first stencil applied twice, which on one
    # axis is the wide stencil (v(x+2h) - 2 v(x) + v(x-2h)) / (2h)^2
    h = grid.spacing[0]
    twice = diff_array(diff_array(v, grid, 0), grid, 0)
    wide = (np.roll(v, -2, 0) - 2.0 * v + np.roll(v, 2, 0)) / (4.0 * h * h)
    assert np.allclose(twice, wide, atol=1e-12 * float(np.abs(wide).max()))
    # stencils along different axes commute as operators; the two orders
    # round differently, so they agree to roundoff, not to the bit
    ab = diff_array(diff_array(v, grid, 1), grid, 0)
    ba = diff_array(diff_array(v, grid, 0), grid, 1)
    assert np.allclose(ab, ba, atol=1e-12)


def test_diff_array_rejects_unknown_order():
    grid = line(16)
    with pytest.raises(ValueError):
        diff_array(np.zeros(16), grid, 0, order=3)
    with pytest.raises(ValueError):
        diff_array(np.zeros(16), grid, 1)


def test_summation_by_parts_to_roundoff():
    # sum u (Dv) = -sum (Du) v exactly: the periodic central stencil is
    # antisymmetric under the plain node sum.  This identity is why all
    # second derivatives are built by composing it.
    grid = GridSpec((16, 12), (TAU, 3.0))
    rng = np.random.default_rng(11)
    u = rng.standard_normal(grid.shape)
    v = rng.standard_normal(grid.shape)
    for order in (2, 4):
        for axis in (0, 1):
            left = np.sum(u * diff_array(v, grid, axis, order))
            right = -np.sum(diff_array(u, grid, axis, order) * v)
            assert left == pytest.approx(right, abs=1e-12)


# ---------------------------------------------------------------- integrate

def test_integrate_constant_and_trig():
    grid = GridSpec((16, 32), (2.0, 5.0))
    one = ScalarField.constant(grid, 1.0)
    assert integrate(one) == pytest.approx(10.0, rel=1e-14)
    # any resolved Fourier mode integrates to zero exactly on the nodes
    mx, _ = grid.meshes()
    f = ScalarField(grid, np.broadcast_to(
        np.sin(2 * TAU * mx / 2.0), grid.shape).copy())
    assert integrate(f) == pytest.approx(0.0, abs=1e-12)


def test_integrate_weight_grid_mismatch():
    f = ScalarField.constant(line(16), 1.0)
    w = ScalarField.constant(line(32), 1.0)
    with pytest.raises(GridMismatchError):
        integrate(f, w)


# ------------------------------------------------------------------- filter

def test_filter_identity_at_cutoff_one():
    grid = line(32)
    vals = np.random.default_rng(5).standard_normal(32)
    out = filter_array(vals, grid, 1.0)
    assert np.array_equal(out, vals)
    assert out is not vals


def test_filter_removes_high_band_keeps_low():
    grid = line(64)
    x = grid.coordinates(0)
    low = np.sin(3 * x)
    high = 0.7 * np.sin(25 * x)
    out = filter_array(low + high, grid, 0.5)   # keeps |k| <= 16
    assert np.allclose(out, low, atol=1e-12)


def test_filter_idempotent_and_validates_cutoff():
    grid = line(32)
    vals = np.random.default_rng(9).standard_normal(32)
    once = filter_array(vals, grid, 0.4)
    twice = filter_array(once, grid, 0.4)
    assert np.allclose(once, twice, atol=1e-13)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            filter_array(vals, grid, bad)
