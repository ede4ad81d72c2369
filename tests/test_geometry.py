"""Generic tensor-calculus pipeline: connection, curvature, operators."""

import math

import numpy as np
import pytest

from warpflow import geometry, grids, recipes
from warpflow.errors import MetricDegeneracyError
from warpflow.grids import (GridSpec, ScalarField, SymTensorField, diff_array,
                            integrate)

TAU = 2.0 * math.pi


def torus(n, dim=2, L=TAU):
    return GridSpec((n,) * dim, (L,) * dim)


def hessian(f, gamma):
    return geometry._hessian(geometry.gradient_components(f), gamma)


def laplacian(f, g):
    return geometry.laplace_beltrami(f, geometry.inverse_metric(g),
                                     geometry.volume_density(g))


# -------------------------------------------------------------- degenerate

def test_flat_metric_curvature_vanishes_exactly():
    g = recipes.flat_metric(torus(16))
    bundle = geometry.curvature_bundle(g)
    assert np.all(bundle.christoffel.values == 0.0)
    assert np.all(bundle.ricci.values == 0.0)
    assert np.all(bundle.scalar.values == 0.0)
    assert bundle.ricci_asymmetry == 0.0


def test_under_resolved_ricci_warns_at_the_caller():
    # a random metric on a tiny torus: features span about one cell; the
    # warning names the line that asked for the bundle
    grid = torus(8, L=0.1)
    g = recipes.random_spd_metric(grid, np.random.default_rng(0), 0.4)
    with pytest.warns(UserWarning, match="under-resolved") as record:
        bundle = geometry.curvature_bundle(g)
    assert record[0].filename == __file__
    assert bundle.ricci_asymmetry > 0.0


def test_bundle_carries_the_inverse_it_contracted_with():
    grid = torus(8, dim=3)
    g = recipes.random_spd_metric(grid, np.random.default_rng(3), 0.3)
    bundle = geometry.curvature_bundle(g)
    assert np.array_equal(bundle.inverse, geometry.inverse_metric(g))
    scal = np.einsum("...bd,...bd->...", bundle.inverse, bundle.ricci.values)
    assert np.array_equal(bundle.scalar.values, scal)


def test_inverse_metric_roundtrip_and_guard():
    grid = torus(8, dim=3)
    rng = np.random.default_rng(2)
    g = recipes.random_spd_metric(grid, rng, amplitude=0.4)
    inv = geometry.inverse_metric(g)
    eye = np.matmul(inv, g.values)
    assert np.allclose(eye, np.eye(3), atol=1e-12)

    # positive definite but conditioned past the limit: the guard names
    # the bad node instead of letting 1/eps noise flow downstream
    grid2 = torus(8)
    vals = np.zeros(grid2.shape + (2, 2))
    vals[..., 0, 0] = 1.0
    vals[..., 1, 1] = 1.0
    vals[3, 5, 1, 1] = 1e-13
    sick = SymTensorField(grid2, vals, is_metric=True)
    with pytest.raises(MetricDegeneracyError) as err:
        geometry.inverse_metric(sick)
    assert err.value.node == (3, 5)
    assert err.value.eigenvalue == pytest.approx(1e-13, rel=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_metric_determinant_is_taken_once(monkeypatch, d):
    # the positive-definiteness check's pivots give the determinant, at
    # every d, and the inverse and every density read that one
    # determinant.  From d = 4 on the inverse is L^-T D^-1 L^-1 of the
    # factors the check kept: the metric is factored once at every d.
    calls = []

    def counted(fn, name):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(grids, "_ldl", counted(grids._ldl, "pivots"))
    monkeypatch.setattr(np.linalg, "det", counted(np.linalg.det, "det"))
    g = recipes.random_spd_metric(torus(8, dim=d), np.random.default_rng(d),
                                  amplitude=0.3)
    # one factorization is one call per block of nodes
    blocks = len(grids.node_blocks(8 ** d, 8 * d * d))
    rho = [geometry.volume_density(g).values for _ in range(2)]
    assert calls == ["pivots"] * blocks
    inv = geometry.inverse_metric(g)
    assert calls == ["pivots"] * blocks
    assert np.array_equal(rho[0], rho[1])
    assert np.array_equal(rho[0], np.sqrt(g.det))
    assert not g.det.flags.writeable      # shared by every reader
    assert np.allclose(inv @ g.values, np.eye(d), atol=1e-12)


def test_operations_require_metric_flag():
    grid = torus(8)
    not_metric = SymTensorField(grid, np.ones(grid.shape + (2, 2)))
    with pytest.raises(ValueError):
        geometry.curvature_bundle(not_metric)
    with pytest.raises(ValueError):
        geometry.volume_density(not_metric)


# ------------------------------------------------- conformal 2-torus oracle

def conformal_setup(n, amplitude=0.25):
    grid = torus(n)
    u = recipes._conformal_exponent(grid, amplitude)
    g = recipes.conformal_metric(grid, amplitude)
    return grid, u, g


def test_conformal_scalar_curvature_against_analytic():
    # For g = e^{2u} delta on T^2 with u a sum of unit-frequency sines,
    # Delta_0 u = -u, so R = -2 e^{-2u} Delta_0 u = 2 u e^{-2u}.
    def err(n):
        grid, u, g = conformal_setup(n)
        scal = geometry.curvature_bundle(g).scalar
        exact = 2.0 * u.values * np.exp(-2.0 * u.values)
        return float(np.abs(scal.values - exact).max())

    e24, e48 = err(24), err(48)
    assert e48 < 1e-2
    assert math.log2(e24 / e48) == pytest.approx(2.0, abs=0.25)


def test_conformal_ricci_is_half_scalar_times_metric():
    # dimension 2 forces Ric = (R/2) g pointwise.  The discrete pipeline
    # reproduces it to roundoff, not just to stencil accuracy: for
    # g = e^{2u} delta the computed Christoffel array keeps the exact
    # delta/w structure of the continuum formula (with w the discrete
    # log-derivative), and that structure alone forces a pure-trace Ricci.
    for n in (12, 24):
        grid, u, g = conformal_setup(n)
        bundle = geometry.curvature_bundle(g)
        target = 0.5 * bundle.scalar.values[..., None, None] * g.values
        assert float(np.abs(bundle.ricci.values - target).max()) < 1e-13


def test_volume_density_conformal():
    grid, u, g = conformal_setup(24)
    rho = geometry.volume_density(g)
    assert np.allclose(rho.values, np.exp(2.0 * u.values), rtol=1e-13)


def test_curvature_scale_invariance():
    # Gamma(c g) = Gamma(g); Ric(c g) = Ric(g); R(c g) = R(g)/c
    grid, _, g = conformal_setup(16)
    c = 3.7
    scaled = SymTensorField(grid, c * g.values, is_metric=True)
    b1 = geometry.curvature_bundle(g)
    b2 = geometry.curvature_bundle(scaled)
    assert np.allclose(b1.christoffel.values, b2.christoffel.values,
                       atol=1e-12)
    assert np.allclose(b1.ricci.values, b2.ricci.values, atol=1e-12)
    assert np.allclose(b1.scalar.values, c * b2.scalar.values, atol=1e-11)


# -------------------------------------------------------- scalar operators

def test_hessian_flat_equals_plain_second_derivatives():
    grid = torus(16)
    rng = np.random.default_rng(4)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    g = recipes.flat_metric(grid)
    gamma = geometry.curvature_bundle(g).christoffel
    hess = hessian(f, gamma)
    for i in range(2):
        for j in range(2):
            manual = diff_array(diff_array(f.values, grid, j), grid, i)
            manual = 0.5 * (manual
                            + diff_array(diff_array(f.values, grid, i), grid, j))
            assert np.allclose(hess[..., i, j], manual, atol=1e-13)


def test_hessian_trace_matches_laplacian_flat_then_converges():
    grid = torus(16)
    f = recipes.sine_scalar(grid, 0.5)
    flat = recipes.flat_metric(grid)
    gamma = geometry.curvature_bundle(flat).christoffel
    trace = np.einsum("...ii->...", hessian(f, gamma))
    lap = laplacian(f, flat)
    assert np.allclose(trace, lap.values, atol=1e-12)

    # 2d conformal metrics are a degenerate comparison: rho g^{ij} is the
    # identity and the contracted Christoffel vanishes identically, so
    # the two forms are the same array
    grid, _, g = conformal_setup(16)
    f = recipes.sine_scalar(grid, 0.5)
    bundle = geometry.curvature_bundle(g)
    tr = np.einsum("...ij,...ij->...", bundle.inverse,
                   hessian(f, bundle.christoffel))
    assert np.allclose(tr, laplacian(f, g).values,
                       atol=1e-13)

    # a generic metric separates them: different discretizations of the
    # same operator, agreeing at stencil order only
    def gap(n):
        grid = torus(n)
        rng = np.random.default_rng(7)
        g = recipes.random_spd_metric(grid, rng, amplitude=0.4)
        f = recipes.sine_scalar(grid, 0.5)
        bundle = geometry.curvature_bundle(g)
        tr = np.einsum("...ij,...ij->...", bundle.inverse,
                       hessian(f, bundle.christoffel))
        return float(np.abs(tr - laplacian(f, g).values).max())

    g32, g64 = gap(32), gap(64)
    assert math.log2(g32 / g64) == pytest.approx(2.0, abs=0.3)


def test_laplace_beltrami_integration_by_parts_exact():
    # the divergence form pays off: sum (Delta u) v rho = -sum <du, dv> rho
    # to roundoff, for any metric and any fields
    grid = torus(12)
    rng = np.random.default_rng(7)
    g = recipes.random_spd_metric(grid, rng, amplitude=0.5)
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    v = ScalarField(grid, rng.standard_normal(grid.shape))
    rho = geometry.volume_density(g)
    inv = geometry.inverse_metric(g)
    lap = geometry.laplace_beltrami(u, inv, rho)
    lhs = integrate(ScalarField(grid, lap.values * v.values), rho)
    du = geometry.gradient_components(u)
    dv = geometry.gradient_components(v)
    pairing = np.einsum("...ij,...i,...j->...", inv, du, dv)
    rhs = -integrate(ScalarField(grid, pairing), rho)
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_grid_mismatch_checks():
    f = ScalarField.constant(torus(8), 1.0)
    g = recipes.flat_metric(torus(16))
    with pytest.raises(ValueError):
        laplacian(f, g)
    with pytest.raises(ValueError):
        geometry.StateTerms.at(g, f)
