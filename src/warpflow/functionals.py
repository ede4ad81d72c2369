"""Action functionals and the identities tying them together.

Three integrals drive everything:

* F(g, f)          = int (R + |grad f|^2) e^{-f} dmu          on M,
* F_lam(g, f, lam) = int (R + (lam+1)|grad f|^2) e^{-f} dmu   on M,
* S(gt)            = int Rt dmut                     on the product,

with dmu = sqrt(det g) dx and dmut the volume density of the warped
metric gt, taken from its two diagonal blocks by
``warped.product_volume_density`` (see ``einstein_hilbert_S``).  For
warping constants on the constraint line with coupling lam, the product
action splits as

    S(gt) = Vol(N, h) * F_lam(g, f, lam)
            + (int_M e^{(B-A-1)f} dmu) * (int_N R^N dsigma),

which this module computes term by term and reports as a residual; the
flat unit-volume-N case collapses to S = F_lam.  The discrete residual
is generically O(h^2), not roundoff: the one inexact step is the chain
rule D(e^{-f}) = -e^{-f} Df behind the integration by parts of the
Laplacian term (summation by parts itself is exact, see the geometry
module).  One caveat for test design: when f is a single sinusoid per
axis and the M-metric is flat or 2-d conformal, that defect sums to
exactly zero over the period, so the residual sits at roundoff and no
convergence order is measurable; multi-mode profiles restore the
generic O(h^2) behaviour.

The first-variation check differentiates the discrete action along a
direction (delta g, delta f = tr_g delta g / 2) numerically and compares
against the closed covector -2 <Ric + hess f + lam df (x) df, delta g>,
times Vol(N), plus the variation of the warp coupling times the total
scalar curvature of N.

F_lam, S_lam, the dissipation and the completed covector are each
written once, as a function of a ``geometry.StateTerms`` record and lam:
one oracle pass per (g, f) state, shared by every quantity a caller
reads at that state.  A product geometry memoises the record of its
(g, f) as ``pg.m_pieces``, so the identity and the variation take their
M side, density included, from the same record as the closed forms, at
the stencil order of its grids.  The product-side functions take the
warping constants next to the geometry; the first variation takes a list
of them, so every coupling's action is evaluated on one set of perturbed
geometries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .grids import ScalarField, SymTensorField, integrate
from .warped import (ProductGeometry, WarpedConstants,
                     closed_scalar_curvature, product_volume_density)

__all__ = [
    "FunctionalReport",
    "VariationResult",
    "F_lambda",
    "gradient_tensor",
    "dissipation_integral",
    "completed_covector",
    "einstein_hilbert_S",
    "theorem_identity_residual",
    "first_variation_check",
]


@dataclass
class FunctionalReport:
    """All terms of the product-action identity for one configuration.

    theorem_residual = S_tilde - vol_N * F_lam - warp_coupling * total_scalar_N,
    recomputable from the stored parts.
    """

    F: float
    F_lam: float
    S_tilde: float
    vol_N: float
    total_scalar_N: float
    warp_coupling: float
    theorem_residual: float
    lam: float


@dataclass
class VariationResult:
    """Numeric directional derivative of the doubled action vs the closed
    covector; richardson_gap bounds the step-size error of the numeric
    side (difference between the eps and eps/2 estimates)."""

    numeric_derivative: float
    closed_form: float
    richardson_gap: float


def F_lambda(terms: geometry.StateTerms, lam: float) -> float:
    """F_lam = int (R + (lam+1)|grad f|^2) e^{-f} dmu."""
    integrand = terms.bundle.scalar.values + (lam + 1.0) * terms.grad_sq
    return integrate(ScalarField(terms.g.grid, integrand), terms.weight)


def gradient_tensor(terms: geometry.StateTerms,
                    lam: float) -> np.ndarray:
    """S_lam = Ric + hess f + lam df (x) df, which drives the flow, as a
    (..., d, d) array symmetric to the bit: each term is."""
    # lam df_i df_j rounds differently as (lam df_i) df_j and as
    # (lam df_j) df_i, so both triangles take the lower index first.
    axes = np.arange(terms.g.grid.dim)
    lo, hi = np.minimum.outer(axes, axes), np.maximum.outer(axes, axes)
    quad = (lam * terms.df)[..., lo] * terms.df[..., hi]
    return terms.bundle.ricci.values + terms.hess + quad


def dissipation_integral(terms: geometry.StateTerms, lam: float) -> float:
    """D = 2 int |S_lam|^2 e^{-f} dmu >= 0, the norm contracting both
    index pairs with g (the only choice consistent with the
    first-variation pairing)."""
    s_lam = gradient_tensor(terms, lam)
    inv = terms.bundle.inverse
    up = np.einsum("...ik,...jl,...kl->...ij", inv, inv, s_lam)
    norm_sq = np.einsum("...ij,...ij->...", up, s_lam)
    return 2.0 * integrate(ScalarField(terms.g.grid, norm_sq), terms.weight)


def completed_covector(terms: geometry.StateTerms,
                       lam: float) -> np.ndarray:
    """S_lam + lam (lap f - |grad f|^2) g, the covector of the
    constrained variation (see ``first_variation_check``)."""
    s_lam = gradient_tensor(terms, lam)
    if lam == 0.0:
        return s_lam
    return s_lam + (lam * (terms.lap - terms.grad_sq))[..., None, None] \
        * terms.g.values


def einstein_hilbert_S(pg: ProductGeometry, c: WarpedConstants) -> float:
    """Total scalar curvature int Rt dmut of the warped metric over the
    product grid, with Rt from the closed general formula (valid off the
    special locus too) and dmut from ``warped.product_volume_density``:
    the square root of the product metric's determinant, taken as the
    product of its LDL^T pivots from its two diagonal blocks, bitwise the
    density of the assembled metric.  The measure is still generic pivot
    arithmetic, not the closed form e^{-(Am+Bn)f/2} sqrt(det g det h), so
    the integral genuinely exercises the product measure factor."""
    # the density first, so that its checks report a warp out of range
    rho = product_volume_density(pg, c)
    return integrate(closed_scalar_curvature(pg, c), rho)


def _n_integrals(pg: ProductGeometry) -> tuple[float, float]:
    """Vol(N) and int_N R^N dsigma, from h's density and h's pass."""
    rho_n = geometry.volume_density(pg.h)
    return (integrate(ScalarField.constant(pg.grid_n, 1.0), rho_n),
            integrate(pg.n_bundle.scalar, rho_n))


def _warp_integral(pg: ProductGeometry, c: WarpedConstants,
                   factor: np.ndarray | float = 1.0) -> float:
    """int_M e^{(B-A-1)f} factor dmu: the warp coupling W at factor 1,
    and its variation over (B - A) at factor delta f."""
    integrand = np.exp((c.B - c.A - 1.0) * pg.f.values) * factor
    return integrate(ScalarField(pg.grid_m, integrand), pg.m_pieces.rho)


def theorem_identity_residual(pg: ProductGeometry,
                              c: WarpedConstants) -> FunctionalReport:
    """Evaluate every term of the product-action identity independently
    and report the residual

        S_tilde - Vol(N) * F_lam - (int_M e^{(B-A-1)f} dmu)(int_N R^N dsigma)

    with lam = Z(A, B) taken from the constants (lam = 0 on the special
    locus, where F_lam is plain F).  F, F_lam and int R^N read the factor
    passes the closed side made.  No tolerance is enforced here; the
    caller judges the residual against its grid.
    """
    s_tilde = einstein_hilbert_S(pg, c)
    terms = pg.m_pieces
    f_plain = F_lambda(terms, 0.0)
    f_lam = f_plain if c.lam == 0.0 else F_lambda(terms, c.lam)
    vol_n, total_scal_n = _n_integrals(pg)
    coupling = _warp_integral(pg, c)
    residual = s_tilde - vol_n * f_lam - coupling * total_scal_n
    return FunctionalReport(
        F=f_plain, F_lam=f_lam, S_tilde=s_tilde, vol_N=vol_n,
        total_scalar_N=total_scal_n, warp_coupling=coupling,
        theorem_residual=residual, lam=c.lam)


def first_variation_check(pg: ProductGeometry,
                          couplings: list[WarpedConstants], dg: SymTensorField,
                          eps: float = 1e-4) -> list[VariationResult]:
    """Directional derivative of eps -> 2 S(gt(g + eps dg, f + eps tr/2))
    against the closed form -2 int <S_lam, dg>_g e^{-f} dmu, for every
    coupling lam = constants.lam in ``couplings``.  Each perturbed
    geometry is built once, shares ``pg``'s pass over h and serves every
    coupling's action.

    The constrained direction moves f along with g: delta f = tr_g(dg)/2,
    which freezes the density e^{-f} sqrt(det g) to first order.  The
    product action is S = Vol(N) F_lam + W T (see the module docstring),
    with T = int_N R^N dsigma fixed and the warp coupling
    W = int_M e^{(B-A-1)f} dmu varying as

        delta W = (B - A) int_M e^{(B-A-1)f} delta f dmu,

    so the closed side is Vol(N) times the M-side covector below plus
    2 T delta W.  On a flat N of unit volume, Vol(N) = 1 and T = 0, and
    it is the M-side covector alone.

    For lam != 0 the covector is NOT plain S_lam: collecting the trace
    terms of the variation leaves a residue

        -(1/2) (ABn + 2A - B^2 n) (lap f - |grad f|^2) tr_g(dg),

    and on the constraint line A(m-2) + Bn = 2 the coefficient equals
    4 lam identically (divide ABn + 2A - B^2 n = 2ABn + (m-2)A^2 - B^2 n
    by A and compare).  So the closed form implemented here is

        -2 int < S_lam + lam (lap f - |grad f|^2) g , dg >_g e^{-f} dmu,

    which collapses to the familiar -2 int <Ric + hess f, dg> at lam = 0
    where the coefficient vanishes.  Dropping the trace term at
    lam != 0 produces an O(1) disagreement with the numeric derivative
    (see the regression test); it does not converge away with h.

    The numeric side uses central differences at eps and eps/2 combined
    by Richardson extrapolation; their gap is reported so the caller can
    see whether the step was in the safe regime (the default eps = 1e-4
    makes the O(eps^2) bias ~1e-9 while staying 12 digits above the
    roundoff floor of the action values).
    """
    if dg.grid != pg.grid_m:
        raise ValueError("variation direction must live on the M grid")

    terms = pg.m_pieces
    inv = terms.bundle.inverse
    trace_half = 0.5 * np.einsum("...ij,...ij->...", inv, dg.values)

    vol_n, total_scal_n = _n_integrals(pg)

    # doubled[k][i]: coupling k's doubled action at the i-th step of
    # (eps, -eps, eps/2, -eps/2), one perturbed geometry alive at a time
    doubled: list[list[float]] = [[] for _ in couplings]
    for t in (eps, -eps, eps / 2, -eps / 2):
        g_t = SymTensorField(pg.grid_m, pg.g.values + t * dg.values,
                             is_metric=True)
        f_t = ScalarField(pg.grid_m, pg.f.values + t * trace_half)
        pg_t = pg.with_m(g_t, f_t)
        for actions, c in zip(doubled, couplings):
            actions.append(2.0 * einstein_hilbert_S(pg_t, c))

    results = []
    for (plus, minus, half_plus, half_minus), c in zip(doubled, couplings):
        d_full = (plus - minus) / (2.0 * eps)
        d_half = (half_plus - half_minus) / eps
        pairing = np.einsum("...ik,...jl,...ij,...kl->...",
                            inv, inv, completed_covector(terms, c.lam),
                            dg.values)
        closed_m = -2.0 * integrate(ScalarField(pg.grid_m, pairing),
                                    terms.weight)
        d_coupling = (c.B - c.A) * _warp_integral(pg, c, trace_half)
        results.append(VariationResult(
            numeric_derivative=(4.0 * d_half - d_full) / 3.0,
            closed_form=vol_n * closed_m + 2.0 * total_scal_n * d_coupling,
            richardson_gap=abs(d_half - d_full)))
    return results
