"""Action functionals, the product identity and its first variation.

The quadrature constants in this file were computed once with adaptive
Gauss-Kronrod integration of the closed-form integrands and are frozen
here as independent oracles; the discrete functionals must approach them
at second order in the grid spacing.
"""

import math

import numpy as np
import pytest

from warpflow import geometry, recipes
from warpflow.functionals import (F_lambda, completed_covector,
                                  dissipation_integral, einstein_hilbert_S,
                                  first_variation_check, gradient_tensor,
                                  theorem_identity_residual)
from warpflow.geometry import StateTerms
from warpflow.grids import GridSpec, ScalarField, integrate
from warpflow.verify import (FieldSpec, StudySpec, build_product_geometry,
                             identity_study)
from warpflow.warped import (ProductGeometry, assemble_product_metric,
                             lambda_to_constants, solve_perelman_constants)

TAU = 2.0 * math.pi

# int_0^2pi 0.09 cos^2(x) e^{-0.3 sin x} dx
F_CIRCLE_03 = 0.28593615201006756
# 2 int_0^2pi 0.04 sin^2(x) e^{-0.2 sin x} dx
DISSIPATION_CIRCLE_02 = 0.25510780767216512
# (2 pi)^2 int_0^2pi e^{0.15 sin t} (0.6 sin t - 0.045 cos^2 t) dt
TOTAL_SCALAR_T3_015 = 5.5968414527929564


def circle(n):
    return GridSpec((n,), (TAU,))


def rel_gap(value, target):
    return abs(value - target) / abs(target)


# -------------------------------------------------------------- functionals

def test_perelman_F_against_quadrature():
    # flat circle, f = 0.3 sin x: R = 0 and F is the weighted gradient
    # integral; the discrete value differs from the quadrature constant
    # by the stencil symbol factor (sin(h)/h)^2 - 1 = O(h^2)
    errs = {}
    for n in (128, 256):
        grid = circle(n)
        f = ScalarField.from_function(grid, lambda x: 0.3 * np.sin(x))
        errs[n] = rel_gap(
            F_lambda(StateTerms.at(recipes.flat_metric(grid), f), 0.0),
            F_CIRCLE_03)
    assert 6e-4 < errs[128] < 1.1e-3
    assert errs[128] / errs[256] == pytest.approx(4.0, abs=0.3)


def test_dissipation_against_quadrature():
    # flat circle, f = 0.2 sin x, lam = 0: the only term is the Hessian,
    # so D = 2 int (f'')^2 e^{-f} dx
    errs = {}
    for n in (128, 256):
        grid = circle(n)
        f = ScalarField.from_function(grid, lambda x: 0.2 * np.sin(x))
        errs[n] = rel_gap(
            dissipation_integral(
                StateTerms.at(recipes.flat_metric(grid), f), 0.0),
            DISSIPATION_CIRCLE_02)
    assert 1.2e-3 < errs[128] < 2.1e-3
    assert errs[128] / errs[256] == pytest.approx(4.0, abs=0.3)


def test_total_scalar_curvature_against_quadrature():
    # conformal T^3 with a single-axis exponent: int R dsigma has a 1d
    # closed form; this drives the full generic pipeline in 3d
    errs = {}
    for n in (24, 48):
        grid = GridSpec((n, n, n), (TAU, TAU, TAU))
        h = recipes.conformal_metric(grid, 0.15, 1, axis=0)
        total = integrate(geometry.curvature_bundle(h).scalar,
                          geometry.volume_density(h))
        errs[n] = rel_gap(total, TOTAL_SCALAR_T3_015)
    assert 1.7e-2 < errs[24] < 2.8e-2
    assert errs[24] / errs[48] == pytest.approx(4.0, abs=0.35)


def test_F_lambda_reductions():
    grid = circle(64)
    f = recipes.sine_scalar(grid, 0.3)
    g = recipes.flat_metric(grid)
    terms = StateTerms.at(g, f)
    assert F_lambda(terms, 0.0) > 0.0
    # lam = -1 kills the gradient term; flat curvature is exactly zero
    assert F_lambda(terms, -1.0) == 0.0
    with pytest.raises(ValueError):
        StateTerms.at(g, recipes.sine_scalar(circle(32), 0.3))


def test_gradient_tensor_and_dissipation_at_fixed_point():
    grid = circle(32)
    f0 = ScalarField.constant(grid, 0.0)
    terms = StateTerms.at(recipes.flat_metric(grid), f0)
    assert np.all(gradient_tensor(terms, 0.7) == 0.0)
    assert dissipation_integral(terms, 0.7) == 0.0


def test_state_terms_grad_sq_flat_single_mode():
    grid = GridSpec((32,), (TAU,))
    x = grid.coordinates(0)
    h = grid.spacing[0]
    f = ScalarField(grid, np.sin(x))
    terms = StateTerms.at(recipes.flat_metric(grid), f)
    expected = (math.sin(h) / h) ** 2 * np.cos(x) ** 2
    assert np.allclose(terms.grad_sq, expected, atol=1e-14)
    with pytest.raises(ValueError):
        StateTerms.at(recipes.flat_metric(circle(16)), f)


def test_one_state_record_serves_every_formula(monkeypatch):
    # a product geometry's memoised M pieces are bit for bit the record
    # of a pass of its own, and its one pass (g; h is not touched) serves
    # F, F_lam, S_lam, D and the completed covector
    grid = GridSpec((12, 12), (TAU, TAU))
    grid_n = GridSpec((8,), (TAU,))
    g = recipes.random_spd_metric(grid, np.random.default_rng(5), 0.2)
    f = recipes.mixed_sine_scalar(grid, 0.3)
    own = StateTerms.at(g, f)
    expected = (F_lambda(own, 0.0), F_lambda(own, 0.5),
                gradient_tensor(own, 0.5),
                dissipation_integral(own, 0.5))
    passes = []
    bundle = geometry.curvature_bundle

    def counted(*args, **kwargs):
        passes.append(1)
        return bundle(*args, **kwargs)

    monkeypatch.setattr(geometry, "curvature_bundle", counted)
    pg = ProductGeometry(grid, grid_n, g, recipes.conformal_metric(grid_n, 0.1),
                         f)
    terms = pg.m_pieces
    got = (F_lambda(terms, 0.0), F_lambda(terms, 0.5),
           gradient_tensor(terms, 0.5), dissipation_integral(terms, 0.5))
    assert pg.m_pieces is terms and len(passes) == 1
    assert got[0] == expected[0] and got[1] == expected[1]
    assert np.array_equal(got[2], expected[2])
    assert got[3] == expected[3]
    assert np.array_equal(completed_covector(terms, 0.5),
                          completed_covector(own, 0.5))
    assert np.array_equal(completed_covector(terms, 0.0),
                          gradient_tensor(terms, 0.0))


def test_lazy_state_record_matches_the_eager_terms():
    # the contractions, rho and the weight are computed on first use,
    # whichever formula asks first, to the bit of computing them up front
    grid = GridSpec((12, 12), (TAU, TAU))
    g = recipes.random_spd_metric(grid, np.random.default_rng(7), 0.2)
    f = recipes.mixed_sine_scalar(grid, 0.3)
    lazy, eager = StateTerms.at(g, f), StateTerms.at(g, f)
    cached = {"grad_sq", "lap", "df_raised", "rho", "weight"}
    assert not cached & vars(lazy).keys()
    inv = eager.bundle.inverse
    assert np.array_equal(eager.grad_sq, np.einsum(
        "...ij,...i,...j->...", inv, eager.df, eager.df))
    assert np.array_equal(eager.lap,
                          np.einsum("...ij,...ij->...", inv, eager.hess))
    assert np.array_equal(eager.df_raised,
                          np.einsum("...kl,...l->...k", inv, eager.df))
    assert np.array_equal(eager.weight.values, np.exp(-f.values)
                          * geometry.volume_density(g).values)
    assert cached <= vars(eager).keys()
    for lam in (0.5, 0.0):
        assert np.array_equal(completed_covector(lazy, lam),
                              completed_covector(eager, lam))
        assert dissipation_integral(lazy, lam) \
            == dissipation_integral(eager, lam)
        assert F_lambda(lazy, lam) == F_lambda(eager, lam)


# ----------------------------------------------------------------- identity

def identity_pg(points_m, points_n, g_spec, h_spec, f_amp=0.25,
                f_modes=(1, 2)):
    return build_product_geometry(
        StudySpec(((points_m, points_n),), TAU, TAU, g_spec, h_spec, f_amp,
                  f_modes),
        normalize_n=True)


def test_identity_trivial_product_is_exact():
    c = solve_perelman_constants(2, 1)
    grid_m = GridSpec((8, 8), (TAU, TAU))
    grid_n = GridSpec((8,), (TAU,))
    pg = ProductGeometry(grid_m, grid_n,
                         recipes.flat_metric(grid_m),
                         recipes.flat_metric(grid_n),
                         ScalarField.constant(grid_m, 0.0))
    rep = theorem_identity_residual(pg, c)
    assert rep.S_tilde == 0.0
    assert rep.F == 0.0 and rep.F_lam == 0.0
    assert rep.total_scalar_N == 0.0
    assert rep.vol_N == pytest.approx(TAU, rel=1e-14)
    assert rep.warp_coupling == pytest.approx(TAU ** 2, rel=1e-14)
    assert rep.theorem_residual == 0.0


def test_identity_residual_flat_N():
    c = solve_perelman_constants(2, 1)
    [rows] = identity_study(
        [c], StudySpec((((16, 16), (8,)), ((32, 32), (8,))), TAU, TAU,
                     FieldSpec("conformal-bump", 0.2, 1), FieldSpec("flat"),
                     0.25, (1, 2)),
        normalize_n=True)
    assert rows[0].vol_N == pytest.approx(1.0, abs=1e-13)
    assert 1e-3 < abs(rows[0].residual) < 5e-3
    assert abs(rows[1].residual) < 4e-4
    assert rows[1].order > 3.0  # flat factors integrate superconvergently


def test_identity_residual_nonflat_N():
    # scalar-flat N is the easy case; a conformal T^3 second factor
    # exercises the R^N coupling term of the identity
    c = solve_perelman_constants(1, 3)
    [rows] = identity_study(
        [c], StudySpec((((32,), (8, 8, 8)), ((64,), (16, 16, 16))), TAU, TAU,
                     FieldSpec("flat"), FieldSpec("conformal-bump", 0.15, 1),
                     0.25, (1, 2)),
        normalize_n=True)
    assert abs(rows[0].residual) < 5e-5
    assert abs(rows[1].residual) < 5e-6
    assert rows[1].order > 3.0
    assert abs(rows[1].total_scalar_N) > 1e-3  # genuinely nonflat


def test_identity_residual_reads_the_closed_side_passes(monkeypatch):
    # one pass each over g and h serves every coupling: the closed side's
    # factor pieces, the state record for F and F_lam on M, and the
    # scalar of h for the R^N coupling
    couplings = [lambda_to_constants(2, 1, lam)[0] for lam in (0.5, -0.5)]
    pg = identity_pg((12, 12), (8,), FieldSpec("conformal-bump", 0.1, 1),
                     FieldSpec("conformal-bump", 0.1, 1))
    passes = []
    bundle = geometry.curvature_bundle

    def counted(*args, **kwargs):
        passes.append(1)
        return bundle(*args, **kwargs)

    monkeypatch.setattr(geometry, "curvature_bundle", counted)
    reps = [theorem_identity_residual(pg, c) for c in couplings]
    assert all(rep.F != rep.F_lam for rep in reps)
    assert reps[0].F == reps[1].F
    assert len(passes) == 2


def test_einstein_hilbert_routes_agree():
    c = solve_perelman_constants(2, 1)
    pg = identity_pg((16, 16), (8,), FieldSpec("conformal-bump", 0.15, 1),
                     FieldSpec("conformal-bump", 0.1, 1), f_modes=(1,))
    s_closed = einstein_hilbert_S(pg, c)
    gt = assemble_product_metric(pg, c)
    s_oracle = integrate(geometry.curvature_bundle(gt).scalar,
                         geometry.volume_density(gt))
    assert abs(s_oracle) > 0.05  # the agreement is not about zero
    assert abs(s_closed - s_oracle) / abs(s_oracle) < 5e-3


# ---------------------------------------------------------- first variation

def variation_setup():
    pg = build_product_geometry(
        StudySpec((((64, 64), (8,)),), TAU, TAU,
                  FieldSpec("conformal-bump", 0.15, 1), FieldSpec("flat"),
                  0.2, (1,), order=4),
        normalize_n=True)
    rng = np.random.default_rng(5)
    dg = recipes.random_sym_tensor(pg.grid_m, rng, 0.3)
    return pg, dg


def test_first_variation_matches_closed_form():
    pg, dg = variation_setup()
    couplings = [lambda_to_constants(2, 1, lam)[0] for lam in (0.0, 0.5)]
    results = first_variation_check(pg, couplings, dg)
    for res, tol in zip(results, (3e-4, 1e-4)):
        rel = abs(res.numeric_derivative - res.closed_form) \
            / abs(res.numeric_derivative)
        assert rel < tol
        assert abs(res.richardson_gap) < 1e-6 * abs(res.numeric_derivative)


@pytest.mark.parametrize("normalize_n", [True, False],
                         ids=["unit-volume", "volume-288"])
def test_first_variation_with_a_curved_n(normalize_n):
    # a conformal 3-torus N: T = int_N R^N dsigma is about 2.5 at unit
    # volume, and the root-1 constants have B != A at both couplings, so
    # the closed side needs its warp-coupling term 2 T delta W (without it
    # the mismatch is O(1)), and off unit volume its Vol(N) factor too
    pg = build_product_geometry(
        StudySpec((((32,), (8, 8, 8)),), TAU, TAU,
                  FieldSpec("conformal-bump", 0.15, 1),
                  FieldSpec("conformal-bump", 0.15, 1), 0.2, (1,), order=4),
        normalize_n=normalize_n)
    dg = recipes.random_sym_tensor(pg.grid_m, np.random.default_rng(5), 0.3)
    couplings = [lambda_to_constants(1, 3, lam)[1] for lam in (0.0, 0.5)]
    report = theorem_identity_residual(pg, couplings[0])
    assert report.total_scalar_N > 2.0
    for c, res in zip(couplings, first_variation_check(pg, couplings, dg)):
        assert c.B != c.A
        rel = abs(res.numeric_derivative - res.closed_form) \
            / abs(res.numeric_derivative)
        assert rel < 2e-3  # measured 4.5e-5 and 3.5e-4


def test_variation_covector_needs_trace_completion():
    # the covector of the constrained variation at lam != 0 is not just
    # Ric + hess f + lam df (x) df: the measure constraint feeds the
    # trace back with coefficient lam (Delta f - |grad f|^2) g.  Dropping
    # that term is not a small error; this pins the failure mode so it
    # cannot creep back in.
    lam = 0.5
    pg, dg = variation_setup()
    [res] = first_variation_check(pg, lambda_to_constants(2, 1, lam)[:1], dg)

    terms = StateTerms.at(pg.g, pg.f, pg.order)
    s_naive = gradient_tensor(terms, lam)
    inv = terms.bundle.inverse
    pairing = np.einsum("...ik,...jl,...ij,...kl->...",
                        inv, inv, s_naive, dg.values)
    naive = -2.0 * integrate(ScalarField(pg.grid_m, pairing), terms.weight)

    rel_full = abs(res.numeric_derivative - res.closed_form) \
        / abs(res.numeric_derivative)
    rel_naive = abs(res.numeric_derivative - naive) \
        / abs(res.numeric_derivative)
    assert rel_full < 1e-4
    assert rel_naive > 0.3  # order-one disagreement, not discretization


def test_variation_trace_term_inert_at_lambda_zero():
    pg, dg = variation_setup()
    [res] = first_variation_check(pg, lambda_to_constants(2, 1, 0.0)[:1], dg)

    terms = StateTerms.at(pg.g, pg.f, pg.order)
    s_naive = gradient_tensor(terms, 0.0)
    inv = terms.bundle.inverse
    pairing = np.einsum("...ik,...jl,...ij,...kl->...",
                        inv, inv, s_naive, dg.values)
    naive = -2.0 * integrate(ScalarField(pg.grid_m, pairing), terms.weight)
    assert naive == pytest.approx(res.closed_form, rel=1e-14)


def test_first_variation_couplings_share_perturbed_geometries(monkeypatch):
    # two couplings in one call: the base g, the four perturbed g_t and
    # h take one pass each (the perturbed geometries read h's pass off
    # the base one), and every number is bit for bit what each coupling
    # gets alone
    grid_m, grid_n = GridSpec((16, 16), (TAU, TAU)), GridSpec((8,), (TAU,))
    pg = ProductGeometry(grid_m, grid_n,
                         recipes.conformal_metric(grid_m, 0.15),
                         recipes.flat_metric(grid_n),
                         recipes.sine_scalar(grid_m, 0.2))
    dg = recipes.random_sym_tensor(grid_m, np.random.default_rng(3), 0.3)
    couplings = [lambda_to_constants(2, 1, lam)[0] for lam in (0.0, 0.5)]
    alone = [first_variation_check(pg, [c], dg) for c in couplings]
    passes = []
    bundle = geometry.curvature_bundle

    def counted(g, *args, **kwargs):
        passes.append(g.grid.dim)
        return bundle(g, *args, **kwargs)

    monkeypatch.setattr(geometry, "curvature_bundle", counted)
    fresh = ProductGeometry(pg.grid_m, pg.grid_n, pg.g, pg.h, pg.f)
    together = first_variation_check(fresh, couplings, dg)
    assert sorted(passes) == [1] + [2] * 5
    assert together == [a for [a] in alone]
