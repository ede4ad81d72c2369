"""Constants algebra and warped-product closed forms."""

import dataclasses
import math

import numpy as np
import pytest

from warpflow import geometry, recipes
from warpflow.errors import ConstantsError
from warpflow.grids import GridSpec, ScalarField, SymTensorField
from warpflow.warped import (ProductGeometry, WarpedConstants,
                             assemble_product_metric, c1_residual,
                             c2_residual, christoffel_closed_form,
                             closed_scalar_curvature, lambda_to_constants,
                             ricci_closed_ansatz, ricci_closed_general,
                             solve_perelman_constants, solve_theta, z_value)

TAU = 2.0 * math.pi
SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------- constants

def test_theta_roots_known_values():
    assert solve_theta(2, 1) == [0.5]
    assert solve_theta(2, 7) == [0.5]
    roots = solve_theta(3, 1)
    assert roots[0] == pytest.approx(SQ2 - 1.0, abs=1e-14)
    assert roots[1] == pytest.approx(-SQ2 - 1.0, abs=1e-14)


def test_theta_roots_opposite_signs_only_above_m2():
    # theta_+ theta_- = -n/(m-2): opposite signs for every m > 2,
    # but m = 1 flips the product positive
    for m, n in ((3, 1), (3, 2), (4, 1), (5, 3)):
        a, b = solve_theta(m, n)
        assert a > 0.0 > b
    a, b = solve_theta(1, 3)
    assert a > 0.0 and b > 0.0


def test_dimension_guardrails():
    with pytest.raises(ConstantsError):
        solve_theta(1, 1)
    with pytest.raises(ConstantsError):
        solve_perelman_constants(0, 4)
    with pytest.raises(ConstantsError):
        solve_perelman_constants(2.5, 1)  # type: ignore[arg-type]


def test_perelman_constants_satisfy_both_conditions():
    for m, n in ((2, 1), (2, 3), (3, 1), (3, 2), (4, 1)):
        for branch in ("plus", "minus"):
            c = solve_perelman_constants(m, n, branch)
            assert abs(c1_residual(m, n, c.A, c.B)) <= 1e-12
            assert abs(c2_residual(m, n, c.A, c.B)) <= 1e-12
            assert abs(c.lam) <= 1e-15  # Z recomputed in floating point
            assert c.on_special_locus


def test_perelman_constants_closed_values():
    c = solve_perelman_constants(3, 1, "plus")
    assert c.A == pytest.approx(2.0 - SQ2, abs=1e-14)
    assert c.B == pytest.approx(SQ2, abs=1e-14)
    assert c.theta == pytest.approx(SQ2 - 1.0, abs=1e-14)
    c = solve_perelman_constants(2, 3)
    assert (c.A, c.B) == (pytest.approx(1.0 / 3.0), pytest.approx(2.0 / 3.0))
    c = solve_perelman_constants(1, 3, "plus")
    s6 = math.sqrt(6.0)
    assert c.A == pytest.approx(s6 - 2.0, abs=1e-14)
    assert c.B == pytest.approx(2.0 / s6, abs=1e-14)
    with pytest.raises(ConstantsError):
        solve_perelman_constants(3, 1, "both")


def test_lambda_zero_recovers_both_branches():
    for m, n in ((3, 1), (4, 2)):
        by_lambda = {(round(c.A, 12), round(c.B, 12))
                     for c in lambda_to_constants(m, n, 0.0)}
        by_branch = {(round(solve_perelman_constants(m, n, b).A, 12),
                      round(solve_perelman_constants(m, n, b).B, 12))
                     for b in ("plus", "minus")}
        assert by_lambda == by_branch
    # m = 2 is linear in lambda: a single member, equal to the branch
    sols = lambda_to_constants(2, 3, 0.0)
    assert len(sols) == 1
    c = solve_perelman_constants(2, 3)
    assert sols[0].A == pytest.approx(c.A) and sols[0].B == pytest.approx(c.B)


def test_lambda_family_known_point():
    sols = lambda_to_constants(2, 4, 3.75)
    assert len(sols) == 1
    assert sols[0].A == pytest.approx(4.0, abs=1e-14)
    assert sols[0].B == pytest.approx(0.5, abs=1e-14)
    assert sols[0].lam == pytest.approx(3.75, abs=1e-14)


def test_lambda_ceiling_for_m_above_2():
    # Z as a function of A on the constraint line is a downward parabola
    # with vertex 1/(m-2): a double root with B = 0 at the top, two
    # solutions below (larger A first), nothing above
    for m, n in ((3, 1), (4, 2)):
        top = 1.0 / (m - 2)
        sols = lambda_to_constants(m, n, top)
        assert len(sols) == 1
        assert sols[0].A == pytest.approx(2.0 / (m - 2), abs=1e-14)
        assert sols[0].B == 0.0
        assert math.isnan(sols[0].theta)

        lo = lambda_to_constants(m, n, 0.5 * top)
        assert len(lo) == 2
        assert lo[0].A > lo[1].A
        for c in lo:
            assert c.lam == pytest.approx(0.5 * top, abs=1e-13)
            assert abs(c2_residual(m, n, c.A, c.B)) <= 1e-12
            assert not c.on_special_locus

        with pytest.raises(ConstantsError):
            lambda_to_constants(m, n, top + 1e-6)


def test_lambda_family_m1_floor():
    sols = lambda_to_constants(1, 3, -0.25)
    assert len(sols) == 2
    with pytest.raises(ConstantsError):
        lambda_to_constants(1, 3, -2.0)


def test_constants_validation():
    with pytest.raises(ConstantsError):
        WarpedConstants(m=3, n=1, A=1.0, B=0.5, theta=2.0, lam=0.0)  # off line
    c = lambda_to_constants(3, 1, 1.0)[0]
    with pytest.raises(ConstantsError):
        WarpedConstants(m=3, n=1, A=c.A, B=c.B, theta=1.0, lam=c.lam)
    with pytest.raises(ConstantsError):
        WarpedConstants(m=3, n=1, A=c.A, B=c.B, theta=math.nan, lam=0.0)
    # from_ab recomputes everything that can be recomputed
    again = WarpedConstants.from_ab(3, 1, c.A, c.B)
    assert again.lam == pytest.approx(1.0, abs=1e-14)
    assert z_value(3, 1, again.A, again.B) == again.lam


# ----------------------------------------------------------- product setup

def build(m_pts, n_pts, g_amp=0.15, h_amp=0.1, f_amp=0.2,
          flat_h=False, f=None):
    grid_m = GridSpec(m_pts, (TAU,) * len(m_pts))
    grid_n = GridSpec(n_pts, (TAU,) * len(n_pts))
    g = recipes.conformal_metric(grid_m, g_amp)
    h = recipes.flat_metric(grid_n) if flat_h \
        else recipes.conformal_metric(grid_n, h_amp)
    if f is None:
        f = recipes.sine_scalar(grid_m, f_amp)
    return ProductGeometry(grid_m, grid_n, g, h, f)


def test_product_geometry_validation():
    c = solve_perelman_constants(2, 1)
    grid_m = GridSpec((8, 8), (TAU, TAU))
    grid_n = GridSpec((8,), (TAU,))
    g = recipes.flat_metric(grid_m)
    h = recipes.flat_metric(grid_n)
    f = recipes.sine_scalar(grid_m, 0.1)
    swapped = ProductGeometry(grid_n, grid_m, h, g,
                              recipes.sine_scalar(grid_n, 0.1))
    for closed_form in (assemble_product_metric, christoffel_closed_form,
                        closed_scalar_curvature, ricci_closed_general,
                        ricci_closed_ansatz):
        with pytest.raises(ValueError):
            closed_form(swapped, c)   # dims swapped
    with pytest.raises(ValueError):
        ProductGeometry(grid_m, grid_n, g, h,
                        recipes.sine_scalar(grid_n, 0.1))  # f on N
    bare = SymTensorField(grid_m, g.values.copy())
    with pytest.raises(ValueError):
        ProductGeometry(grid_m, grid_n, bare, h, f)


def test_assembled_metric_blocks():
    c = solve_perelman_constants(2, 1)
    pg = build((8, 8), (8,))
    gt = assemble_product_metric(pg, c)
    mat = gt.values
    ea = np.exp(-c.A * pg.f.values)[..., None, None, None]
    eb = np.exp(-c.B * pg.f.values)[..., None]
    assert np.allclose(mat[..., :2, :2],
                       ea * pg.g.values[..., None, :, :], atol=1e-15)
    h_diag = pg.h.values[None, None, :, 0, 0]
    assert np.allclose(mat[..., 2, 2], eb * h_diag, atol=1e-15)
    assert np.all(mat[..., :2, 2] == 0.0)


def test_mixed_christoffel_and_ricci_vanish_in_oracle():
    # for block metrics with f constant on the N axes the mixed
    # Christoffel components of the oracle are identically zero on the
    # nodes; the mixed Ricci entries pick up only roundoff from products
    # of those zeros with finite terms
    c = solve_perelman_constants(2, 1)
    pg = build((8, 8), (8,))
    bundle = geometry.curvature_bundle(assemble_product_metric(pg, c))
    chr_v = bundle.christoffel.values
    m = 2
    assert np.abs(chr_v[..., m:, :m, :m]).max() == 0.0
    assert np.abs(chr_v[..., :m, :m, m:]).max() == 0.0
    ric = bundle.ricci.values
    assert np.abs(ric[..., :m, m:]).max() < 1e-15


def test_closed_forms_reduce_to_blocks_when_f_vanishes():
    c = solve_perelman_constants(2, 2)
    grid_m = GridSpec((8, 8), (TAU, TAU))
    f0 = ScalarField.constant(grid_m, 0.0)
    pg = build((8, 8), (8, 8), f=f0)
    m = 2

    chr_t = christoffel_closed_form(pg, c)
    oracle_g = geometry.curvature_bundle(pg.g)
    oracle_h = geometry.curvature_bundle(pg.h)
    assert np.allclose(chr_t.values[..., :m, :m, :m],
                       oracle_g.christoffel.values[..., None, None, :, :, :],
                       atol=1e-14)
    assert np.allclose(chr_t.values[..., m:, m:, m:],
                       oracle_h.christoffel.values[None, None, ...],
                       atol=1e-14)
    assert np.abs(chr_t.values[..., :m, m:, m:]).max() == 0.0

    bundle = ricci_closed_general(pg, c)
    ric_g = oracle_g.ricci.values
    ric_h = oracle_h.ricci.values
    full = bundle.ricci.values
    assert np.allclose(full[..., :m, :m],
                       ric_g[..., None, None, :, :], atol=1e-13)
    assert np.allclose(full[..., m:, m:], ric_h[None, None, ...], atol=1e-13)

    scal_sum = (oracle_g.scalar.values[..., None, None]
                + oracle_h.scalar.values[None, None, ...])
    assert np.allclose(bundle.scalar.values, scal_sum, atol=1e-13)


def test_closed_christoffel_tracks_oracle():
    # both are O(h^2) representations of the same object, so the gap is
    # small at a fixed grid and shrinks by ~4x per refinement
    def gap(n):
        c = solve_perelman_constants(2, 1)
        pg = build((n, n), (8,))
        closed = christoffel_closed_form(pg, c)
        oracle = geometry.curvature_bundle(assemble_product_metric(pg, c))
        return float(np.abs(closed.values - oracle.christoffel.values).max())

    g16, g32 = gap(16), gap(32)
    assert g16 < 2e-2
    assert g16 / g32 > 3.2


def test_general_closed_ricci_tracks_oracle_off_locus():
    # the general form carries no locus assumption; check convergence to
    # the oracle at constants with lambda = 0.5, where the reduced
    # formulas would not even apply
    def gaps(n):
        c = lambda_to_constants(2, 1, 0.5)[0]
        pg = build((n, n), (8,))
        bundle = ricci_closed_general(pg, c)
        assert bundle.source_tag == "closed_form_general"
        oracle = geometry.curvature_bundle(assemble_product_metric(pg, c))
        return (float(np.abs(bundle.ricci.values - oracle.ricci.values).max()),
                float(np.abs(bundle.scalar.values - oracle.scalar.values).max()))

    r12, s12 = gaps(12)
    r24, s24 = gaps(24)
    assert r24 < 0.05 and s24 < 0.05
    assert r12 / r24 > 2.8
    assert s12 / s24 > 2.8


def test_ansatz_equals_general_on_locus():
    c = solve_perelman_constants(3, 1, "plus")
    pg = build((8, 8, 8), (8,))
    gen = ricci_closed_general(pg, c)
    ans = ricci_closed_ansatz(pg, c)
    assert np.allclose(ans.ricci.values, gen.ricci.values, atol=1e-12)
    assert np.allclose(ans.scalar.values, gen.scalar.values, atol=1e-12)
    assert ans.source_tag == "closed_form_ansatz"


def test_ansatz_refuses_off_locus_constants():
    c = lambda_to_constants(3, 1, 0.5)[0]
    pg = build((8, 8, 8), (8,))
    with pytest.raises(ConstantsError):
        ricci_closed_ansatz(pg, c)
    with pytest.raises(ConstantsError):
        closed_scalar_curvature(pg, c, reduced=True)


def test_product_geometry_is_frozen_and_memo_is_transparent():
    c = solve_perelman_constants(2, 2)
    pg = build((8, 8), (8, 8))
    with pytest.raises(dataclasses.FrozenInstanceError):
        pg.f = recipes.sine_scalar(pg.grid_m, 0.3)
    # same fields, so the same numbers whether or not the memo was filled
    warm = ProductGeometry(pg.grid_m, pg.grid_n, pg.g, pg.h, pg.f)
    christoffel_closed_form(warm, c)
    fresh, reused = ricci_closed_general(pg, c), ricci_closed_general(warm, c)
    assert fresh.christoffel is None and reused.christoffel is None
    assert np.array_equal(fresh.ricci.values, reused.ricci.values)
    assert np.array_equal(fresh.scalar.values, reused.scalar.values)


def test_product_geometry_carries_its_stencil_order():
    # every piece is the oracle pass at the geometry's own order, bit for
    # bit, and a study's geometry takes its spec's order
    from warpflow.verify import FieldSpec, StudySpec, build_product_geometry
    base = build((8, 8), (8,))
    pg = dataclasses.replace(base, order=4)
    assert (base.order, pg.order) == (2, 4)
    for got, want in ((pg.m_pieces.bundle, geometry.curvature_bundle(pg.g, 4)),
                      (pg.n_bundle, geometry.curvature_bundle(pg.h, 4))):
        assert np.array_equal(got.christoffel.values, want.christoffel.values)
        assert np.array_equal(got.ricci.values, want.ricci.values)
        assert np.array_equal(got.scalar.values, want.scalar.values)
        assert np.array_equal(got.inverse, want.inverse)
    assert np.array_equal(pg.m_pieces.df,
                          geometry.gradient_components(pg.f, 4))
    assert not np.array_equal(pg.m_pieces.df, base.m_pieces.df)
    spec = StudySpec((((8, 8), (8,)),), g_spec=FieldSpec("flat"), order=4)
    assert build_product_geometry(spec).order == 4


def test_standalone_scalar_matches_bundle():
    c = solve_perelman_constants(2, 2)
    pg = build((8, 8), (8, 8))
    lone = closed_scalar_curvature(pg, c)
    bundle = ricci_closed_general(pg, c)
    assert np.array_equal(lone.values, bundle.scalar.values)
