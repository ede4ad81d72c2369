"""Action functionals and the identities tying them together.

Three integrals drive everything:

* F(g, f)          = int (R + |grad f|^2) e^{-f} dmu          on M,
* F_lam(g, f, lam) = int (R + (lam+1)|grad f|^2) e^{-f} dmu   on M,
* S(gt)            = int Rt dmut                     on the product,

with dmu = sqrt(det g) dx.  For warping constants on the constraint
line with coupling lam, the product action splits as

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
against the closed covector -2 <Ric + hess f + lam df (x) df, delta g>.

F_lam, S_lam, the dissipation and the completed covector are each
written once, against a ``StateTerms`` record: one oracle pass per (g, f)
state, shared by every quantity a caller reads at that state.  On a
product geometry the record is read off the geometry's memoised M-grid
pieces, so the identity and the variation take their M side from the
same pass as the closed forms, at the geometry's stencil order.  The
product-side functions take the warping constants next to the geometry;
the first variation takes a list of them, so every coupling's action is
evaluated on one set of perturbed geometries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .grids import ScalarField, SymTensorField, integrate
from .warped import (ProductGeometry, WarpedConstants,
                     assemble_product_metric, closed_scalar_curvature)

__all__ = [
    "FunctionalReport",
    "VariationResult",
    "StateTerms",
    "measure_density",
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


def measure_density(g: SymTensorField, f: ScalarField) -> ScalarField:
    """The fixed-measure density e^{-f} sqrt(det g)."""
    rho = geometry.volume_density(g)
    return ScalarField(g.grid, np.exp(-f.values) * rho.values)


@dataclass(frozen=True)
class StateTerms:
    """What every formula on M reads at one (g, f) state, computed once by
    ``StateTerms.at``: the oracle bundle of g (its inverse included), df
    and hess f.  |grad f|^2 = g^{ij} df_i df_j and the weight e^{-f} dmu
    are computed on first use, since a flow step's slopes never read
    them."""

    g: SymTensorField
    f: ScalarField
    bundle: geometry.CurvatureBundle
    df: np.ndarray
    hess: np.ndarray

    @classmethod
    def at(cls, g: SymTensorField, f: ScalarField,
           order: int = 2) -> "StateTerms":
        bundle = geometry.curvature_bundle(g, order)
        df = geometry.gradient_components(f, order)
        hess = geometry.hessian(df, bundle.christoffel, order).values
        return cls(g=g, f=f, bundle=bundle, df=df, hess=hess)

    @classmethod
    def on_m(cls, pg: ProductGeometry) -> "StateTerms":
        """The record of (pg.g, pg.f), read off the geometry's memoised
        M-grid pieces instead of a pass of its own."""
        p = pg.m_pieces
        terms = cls(g=pg.g, f=pg.f, bundle=p.bundle, df=p.df, hess=p.hess)
        terms.__dict__["grad_sq"] = p.grad_sq
        return terms

    @cached_property
    def grad_sq(self) -> np.ndarray:
        return np.einsum("...ij,...i,...j->...", self.bundle.inverse,
                         self.df, self.df)

    @cached_property
    def weight(self) -> ScalarField:
        return measure_density(self.g, self.f)

    def F_lambda(self, lam: float) -> float:
        """F_lam = int (R + (lam+1)|grad f|^2) e^{-f} dmu."""
        integrand = self.bundle.scalar.values + (lam + 1.0) * self.grad_sq
        return integrate(ScalarField(self.g.grid, integrand), self.weight)

    def gradient_tensor(self, lam: float) -> SymTensorField:
        """S_lam = Ric + hess f + lam df (x) df, which drives the flow."""
        # lam df_i df_j rounds differently as (lam df_i) df_j and as
        # (lam df_j) df_i, so both triangles take the lower index first.
        axes = np.arange(self.g.grid.dim)
        lo, hi = np.minimum.outer(axes, axes), np.maximum.outer(axes, axes)
        quad = (lam * self.df)[..., lo] * self.df[..., hi]
        return SymTensorField(self.g.grid,
                              self.bundle.ricci.values + self.hess + quad)

    def dissipation(self, lam: float) -> float:
        """D = 2 int |S_lam|^2 e^{-f} dmu >= 0, the norm contracting both
        index pairs with g (the only choice consistent with the
        first-variation pairing)."""
        s_lam = self.gradient_tensor(lam).values
        inv = self.bundle.inverse
        up = np.einsum("...ik,...jl,...kl->...ij", inv, inv, s_lam)
        norm_sq = np.einsum("...ij,...ij->...", up, s_lam)
        return 2.0 * integrate(ScalarField(self.g.grid, norm_sq), self.weight)

    def completed_covector(self, lam: float) -> np.ndarray:
        """S_lam + lam (lap f - |grad f|^2) g, the covector of the
        constrained variation (see ``first_variation_check``)."""
        s_lam = self.gradient_tensor(lam).values
        if lam == 0.0:
            return s_lam
        lap = np.einsum("...ij,...ij->...", self.bundle.inverse, self.hess)
        return s_lam + (lam * (lap - self.grad_sq))[..., None, None] \
            * self.g.values


def einstein_hilbert_S(pg: ProductGeometry, c: WarpedConstants) -> float:
    """Total scalar curvature int Rt dmut of the warped metric over the
    product grid, with Rt from the closed general formula (valid off the
    special locus too) and the measure from the volume density of the
    assembled metric, so the integral genuinely exercises the product
    measure factor."""
    gt = assemble_product_metric(pg, c)
    return integrate(closed_scalar_curvature(pg, c),
                     geometry.volume_density(gt))


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
    terms = StateTerms.on_m(pg)
    f_plain = terms.F_lambda(0.0)
    f_lam = f_plain if c.lam == 0.0 else terms.F_lambda(c.lam)
    rho_n = geometry.volume_density(pg.h)
    vol_n = integrate(ScalarField.constant(pg.grid_n, 1.0), rho_n)
    total_scal_n = integrate(pg.n_bundle.scalar, rho_n)
    coupling_field = ScalarField(
        pg.grid_m, np.exp((c.B - c.A - 1.0) * pg.f.values))
    coupling = integrate(coupling_field, geometry.volume_density(pg.g))
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
    closed side is an integral over M alone, so the two sides agree (up
    to discretization) exactly when Vol(N) = 1 and N is scalar-flat;
    otherwise the derivative of the product action carries a Vol(N)
    factor plus a term from the varying warp coupling, and the caller
    owns that bookkeeping.

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

    terms = StateTerms.on_m(pg)
    inv = terms.bundle.inverse
    trace_half = 0.5 * np.einsum("...ij,...ij->...", inv, dg.values)

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
                            inv, inv, terms.completed_covector(c.lam),
                            dg.values)
        closed = -2.0 * integrate(ScalarField(pg.grid_m, pairing),
                                  terms.weight)
        results.append(VariationResult(
            numeric_derivative=(4.0 * d_half - d_full) / 3.0,
            closed_form=closed, richardson_gap=abs(d_half - d_full)))
    return results
