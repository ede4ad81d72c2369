"""Warped product metrics on M x N and their closed-form curvature.

The object of study is the block metric

    gt = e^{-A f} g  (+)  e^{-B f} h

on a product of two tori, where the scalar f lives on the M factor only
(indices i, j, k, l for M; alpha, beta, gamma for N; m = dim M,
n = dim N).  For special constants (A, B) the curvature of gt collapses
to short expressions in the curvature of g, h and derivatives of f; this
module implements

* the constants algebra: the quadratic for theta = A/B, the constraint
  line A(m-2) + Bn = 2, the quartic-free quantity

      Z_{m,n}(A, B) = (2ABn + (m-2)A^2 - B^2 n) / 4

  whose zero set is the special locus, and the inverse map from a target
  value of Z back to (A, B) pairs on the constraint line;

* the assembly of gt as an honest metric field on the (m+n)-dimensional
  product grid, so the generic finite-difference pipeline can be run on
  it as an independent check;

* the closed-form Christoffel symbols, Ricci blocks and scalar curvature,
  both for arbitrary (A, B) and in the reduced form valid on the special
  locus.

Nothing here reuses the generic curvature contractions: the closed forms
are separate arithmetic by design, so a comparison between the two
pipelines is a real cross-check rather than a tautology.  The generic
pipeline runs on the factor grids only, once per geometry, at the
stencil order it carries, memoised on the frozen ``ProductGeometry``:
the ``geometry.StateTerms`` record of (g, f) as ``m_pieces`` and the
curvature of h as ``n_bundle``.  The geometry (g, h, f) does not depend
on the coupling: the closed forms take ``(pg, constants)``, and every
coupling of a command shares one geometry's factor passes.  Only
``christoffel_closed_form`` builds the product-grid Christoffel cube;
the closed Ricci routes return the pair (Ricci, scalar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import geometry
from .errors import ConstantsError
from .grids import Christoffel3Field, GridSpec, ScalarField, SymTensorField

__all__ = [
    "WarpedConstants",
    "ProductGeometry",
    "c1_residual",
    "c2_residual",
    "z_value",
    "solve_theta",
    "solve_perelman_constants",
    "lambda_to_constants",
    "assemble_product_metric",
    "christoffel_closed_form",
    "closed_scalar_curvature",
    "ricci_closed_general",
    "ricci_closed_ansatz",
]

RESIDUAL_TOL = 1e-12


def c1_residual(m: int, n: int, A: float, B: float) -> float:
    """Residual of the special-locus condition 2ABn + (m-2)A^2 - B^2 n = 0."""
    return 2.0 * A * B * n + (m - 2) * A * A - B * B * n


def c2_residual(m: int, n: int, A: float, B: float) -> float:
    """Residual of the normalization condition A(m-2) + Bn = 2."""
    return A * (m - 2) + B * n - 2.0


def z_value(m: int, n: int, A: float, B: float) -> float:
    """Z_{m,n}(A,B) = (2ABn + (m-2)A^2 - B^2 n)/4; zero exactly on the
    special locus, and the coupling lambda of the generalized action."""
    _check_dims(m, n)
    return c1_residual(m, n, A, B) / 4.0


def _check_dims(m: int, n: int):
    if not (isinstance(m, (int, np.integer)) and isinstance(n, (int, np.integer))):
        raise ConstantsError(f"dimensions must be integers, got ({m}, {n})")
    if m < 1 or n < 1:
        raise ConstantsError(f"dimensions must be >= 1, got ({m}, {n})")
    if m + n <= 2:
        raise ConstantsError(
            f"(m, n) = ({m}, {n}) excluded: need m + n > 2 for the "
            "constants algebra to have nontrivial solutions")


@dataclass(frozen=True)
class WarpedConstants:
    """Warping constants (A, B) on the constraint line, with the derived
    ratio theta = A/B and coupling lam = Z_{m,n}(A, B).

    Construction recomputes all residuals instead of trusting the caller:

    * A(m-2) + Bn = 2 within 1e-12,
    * lam matches Z_{m,n}(A, B) within 1e-12,
    * theta matches A/B within 1e-12 when B != 0, and is NaN when B = 0
      (the ratio degenerates at the top of the admissible lam range).
    """

    m: int
    n: int
    A: float
    B: float
    theta: float
    lam: float

    def __post_init__(self):
        _check_dims(self.m, self.n)
        if not all(map(math.isfinite, (self.A, self.B, self.lam))):
            raise ConstantsError(
                f"constants must be finite, got A = {self.A!r}, "
                f"B = {self.B!r}, lam = {self.lam!r}")
        r2 = abs(c2_residual(self.m, self.n, self.A, self.B))
        if r2 > RESIDUAL_TOL:
            raise ConstantsError(
                f"constants off the constraint line: |A(m-2)+Bn-2| = {r2:.3e}")
        z = z_value(self.m, self.n, self.A, self.B)
        if abs(self.lam - z) > RESIDUAL_TOL:
            raise ConstantsError(
                f"stored lam {self.lam!r} does not match Z = {z!r}")
        if self.B != 0.0:
            if abs(self.theta - self.A / self.B) > RESIDUAL_TOL * max(
                    1.0, abs(self.A / self.B)):
                raise ConstantsError("stored theta does not match A/B")
        elif not math.isnan(self.theta):
            raise ConstantsError("theta must be NaN when B = 0")

    @classmethod
    def from_ab(cls, m: int, n: int, A: float, B: float) -> "WarpedConstants":
        theta = A / B if B != 0.0 else math.nan
        return cls(m=int(m), n=int(n), A=float(A), B=float(B),
                   theta=theta, lam=z_value(m, n, A, B))

    @property
    def on_special_locus(self) -> bool:
        return abs(c1_residual(self.m, self.n, self.A, self.B)) <= RESIDUAL_TOL


def solve_theta(m: int, n: int) -> list[float]:
    """Real roots of (m-2) theta^2 + 2n theta - n = 0, largest first.

    For m = 2 the equation is linear with the single root 1/2.  For every
    other m the discriminant n(n+m-2) is positive once m+n > 2, giving
    the pair (-n +- sqrt(n(n+m-2)))/(m-2).  The roots have opposite signs
    when m > 2 (their product is -n/(m-2) < 0); for m = 1 both can be
    positive, so no sign claim is made there.
    """
    _check_dims(m, n)
    if m == 2:
        return [0.5]
    s = math.sqrt(n * (n + m - 2))
    roots = [(-n + s) / (m - 2), (-n - s) / (m - 2)]
    roots.sort(reverse=True)
    for theta in roots:
        res = (m - 2) * theta * theta + 2 * n * theta - n
        if abs(res) > RESIDUAL_TOL * max(1.0, abs(n)):
            raise ConstantsError(f"theta root failed its quadratic: {res:.3e}")
    return roots


def solve_perelman_constants(m: int, n: int,
                             branch: str = "plus") -> WarpedConstants:
    """The nonzero (A, B) satisfying both defining conditions.

    ``branch`` picks the sign in theta = (-n +- sqrt(n(n+m-2)))/(m-2);
    it is ignored for m = 2, where theta = 1/2 is the only option.  Then
    B = 2/(theta(m-2) + n) and A = theta B put the pair on the constraint
    line with Z = 0.
    """
    _check_dims(m, n)
    if branch not in ("plus", "minus"):
        raise ConstantsError(f"branch must be 'plus' or 'minus', got {branch!r}")
    if m == 2:
        theta = 0.5
    else:
        s = math.sqrt(n * (n + m - 2))
        theta = (-n + s) / (m - 2) if branch == "plus" else (-n - s) / (m - 2)
    denom = theta * (m - 2) + n
    # The defining quadratic makes denom = 0 impossible for m + n > 2.
    assert denom != 0.0
    B = 2.0 / denom
    A = theta * B
    constants = WarpedConstants.from_ab(m, n, A, B)
    if abs(c1_residual(m, n, A, B)) > RESIDUAL_TOL:
        raise ConstantsError("solved constants missed the special locus")
    if A == 0.0 or B == 0.0:
        raise ConstantsError("special-locus constants must be nonzero")
    return constants


def lambda_to_constants(m: int, n: int, lam: float) -> list[WarpedConstants]:
    """All (A, B) on the constraint line with Z_{m,n}(A, B) = lam.

    Eliminating B via the constraint line turns Z = lam into a quadratic
    in A with vertex value 1/(m-2) for m > 2:

        A = 2/(m-2) +- 2 sqrt( n (1 - lam(m-2)) / ((m-2)^2 (m+n-2)) )

    Two solutions below the vertex (returned larger A first), one double
    root at lam = 1/(m-2) (where B = 0 and theta degenerates to NaN), no
    real solution above it.  For m = 2 the constraint pins B = 2/n and
    Z = A - 1/n is linear, so every lam is reached exactly once.
    """
    _check_dims(m, n)
    lam = float(lam)
    if not math.isfinite(lam):
        raise ConstantsError(f"lam must be finite, got {lam}")
    if m == 2:
        return [WarpedConstants.from_ab(m, n, lam + 1.0 / n, 2.0 / n)]
    disc = n * (1.0 - lam * (m - 2)) / ((m - 2) ** 2 * (m + n - 2))
    if disc < -1e-14 * max(1.0, abs(lam)):
        if m > 2:
            raise ConstantsError(
                f"lam = {lam} exceeds the maximum 1/(m-2) = {1.0/(m-2)} "
                f"attainable on the constraint line for m = {m}")
        raise ConstantsError(
            f"no real constants reach lam = {lam} for (m, n) = ({m}, {n})")
    half_width = 2.0 * math.sqrt(max(disc, 0.0))
    center = 2.0 / (m - 2)
    out = []
    for a in ([center] if half_width == 0.0
              else [center + half_width, center - half_width]):
        b = (2.0 - a * (m - 2)) / n
        out.append(WarpedConstants.from_ab(m, n, a, b))
    return out


@dataclass(frozen=True)
class ProductGeometry:
    """All the data defining one warped product: the two factor grids,
    the factor metrics g (on M) and h (on N), the scalar f on M, and the
    stencil order of every oracle pass and derivative taken on it.  The
    warping constants are not part of it: they only pick the point (A, B)
    on the constraint line, so every coupling reads the same geometry and
    the closed forms take the constants as an argument.  Frozen, so the
    coupling-free factor pieces memoised on it cannot go stale."""

    grid_m: GridSpec
    grid_n: GridSpec
    g: SymTensorField
    h: SymTensorField
    f: ScalarField
    order: int = 2

    def __post_init__(self):
        if self.g.grid != self.grid_m or not self.g.is_metric:
            raise ValueError("g must be a metric field on the M grid")
        if self.h.grid != self.grid_n or not self.h.is_metric:
            raise ValueError("h must be a metric field on the N grid")
        if self.f.grid != self.grid_m:
            raise ValueError("f must live on the M grid (it depends only on "
                             "the first factor)")

    @property
    def product_grid(self) -> GridSpec:
        return GridSpec(self.grid_m.points + self.grid_n.points,
                        self.grid_m.periods + self.grid_n.periods)

    @cached_property
    def m_pieces(self) -> geometry.StateTerms:
        """The record of (g, f) at the geometry's order, made on first
        use and shared by every caller."""
        return geometry.StateTerms.at(self.g, self.f, self.order)

    @cached_property
    def n_bundle(self) -> geometry.CurvatureBundle:
        """The oracle curvature of h, computed on first use."""
        return geometry.curvature_bundle(self.h, self.order)

    def with_m(self, g: SymTensorField, f: ScalarField) -> "ProductGeometry":
        """This geometry with (g, f) on M, sharing its pass over h."""
        moved = replace(self, g=g, f=f)
        moved.__dict__["n_bundle"] = self.n_bundle
        return moved


def _dims(pg: ProductGeometry, c: WarpedConstants) -> tuple[int, int]:
    """(m, n) of the constants, checked against the factor grids."""
    if (pg.grid_m.dim, pg.grid_n.dim) != (c.m, c.n):
        raise ValueError(
            f"grids have dims ({pg.grid_m.dim}, {pg.grid_n.dim}) but "
            f"constants expect ({c.m}, {c.n})")
    return c.m, c.n


def _lift_m(pg: ProductGeometry, arr: np.ndarray) -> np.ndarray:
    """Broadcast an M-grid array (grid axes leading) along the N axes."""
    sm, sn = pg.grid_m.shape, pg.grid_n.shape
    comp = arr.shape[len(sm):]
    view = arr.reshape(sm + (1,) * len(sn) + comp)
    return np.broadcast_to(view, sm + sn + comp)


def _lift_n(pg: ProductGeometry, arr: np.ndarray) -> np.ndarray:
    """Broadcast an N-grid array along the M axes."""
    sm, sn = pg.grid_m.shape, pg.grid_n.shape
    comp = arr.shape[len(sn):]
    view = arr.reshape((1,) * len(sm) + sn + comp)
    return np.broadcast_to(view, sm + sn + comp)


def assemble_product_metric(pg: ProductGeometry,
                            c: WarpedConstants) -> SymTensorField:
    """The block metric e^{-Af} g (+) e^{-Bf} h as a field on the product
    grid, with f extended constantly along the N directions."""
    m, n = _dims(pg, c)
    d = m + n
    grid = pg.product_grid
    gm = np.exp(-c.A * pg.f.values)[..., None, None] * pg.g.values
    hn = np.exp(-c.B * pg.f.values)
    full = np.zeros(grid.shape + (d, d))
    full[..., :m, :m] = _lift_m(pg, gm)
    full[..., m:, m:] = _lift_m(pg, hn)[..., None, None] \
        * _lift_n(pg, pg.h.values)
    return SymTensorField.from_matrix(grid, full, is_metric=True)


def christoffel_closed_form(pg: ProductGeometry,
                            c: WarpedConstants) -> Christoffel3Field:
    """Connection of the warped metric from the five closed component
    families (everything from M-grid ingredients; no product-grid
    differentiation):

        Gt^k_{ij}         = G^k_{ij} - (A/2)(df_i d^k_j + df_j d^k_i
                                             - g^{kl} df_l g_{ij})
        Gt^alpha_{ij} = 0,  Gt^k_{i beta} = 0
        Gt^k_{alpha beta} = (B/2) e^{(A-B)f} g^{kl} df_l h_{alpha beta}
        Gt^gamma_{i beta} = -(B/2) df_i d^gamma_beta
        Gt^gamma_{alpha beta} = G^gamma_{alpha beta}
    """
    m, n = _dims(pg, c)
    d = m + n
    grid = pg.product_grid
    p = pg.m_pieces

    # M-family on the M grid first.
    gmat = pg.g.values
    mm = p.bundle.christoffel.values.copy()
    half_a = 0.5 * c.A
    for k in range(m):
        mm[..., k, :, k] -= half_a * p.df
        mm[..., k, k, :] -= half_a * p.df
        mm[..., k, :, :] += half_a * p.df_raised[..., k, None, None] * gmat

    out = np.zeros(grid.shape + (d, d, d))
    out[..., :m, :m, :m] = _lift_m(pg, mm)

    # Gt^k_{alpha beta}: M-vector times the N metric.
    warp = 0.5 * c.B * np.exp((c.A - c.B) * pg.f.values)
    vec = warp[..., None] * p.df_raised                       # (..., m)
    out[..., :m, m:, m:] = _lift_m(pg, vec)[..., :, None, None] \
        * _lift_n(pg, pg.h.values)[..., None, :, :]

    # Gt^gamma_{i beta} = -(B/2) df_i, diagonal in (gamma, beta); filled
    # in both lower-index orders since storage is the full cube.
    half_b_df = -0.5 * c.B * p.df                             # (..., m)
    for gam in range(n):
        out[..., m + gam, :m, m + gam] = _lift_m(pg, half_b_df)
        out[..., m + gam, m + gam, :m] = _lift_m(pg, half_b_df)

    out[..., m:, m:, m:] = _lift_n(pg, pg.n_bundle.christoffel.values)
    return Christoffel3Field(grid, out)


def _require_locus(c: WarpedConstants, what: str):
    """Refuse off-locus constants for a formula only valid on the locus."""
    r1 = abs(c1_residual(c.m, c.n, c.A, c.B))
    if r1 > RESIDUAL_TOL:
        raise ConstantsError(
            f"{what} needs special-locus constants; residual {r1:.3e}")


def _closed_ricci_blocks(pg: ProductGeometry, c: WarpedConstants,
                         hess_coeff: float, block_coeff: float,
                         df_quadratic: float) -> SymTensorField:
    """Assemble both diagonal Ricci blocks of the warped metric from the
    pattern shared by the general and reduced forms:

        M block:  Ric^M + hess_coeff * hess f
                  + (A/2) g [lap f - block_coeff |grad f|^2]
                  + df_quadratic * df (x) df
        N block:  Ric^N + (B/2) e^{(A-B)f} h [lap f - block_coeff |grad f|^2]

    with every scalar ingredient evaluated on the M grid.
    """
    m, n = _dims(pg, c)
    d = m + n
    grid = pg.product_grid
    p = pg.m_pieces

    bracket = p.lap - block_coeff * p.grad_sq
    mm = p.bundle.ricci.values + hess_coeff * p.hess
    mm += 0.5 * c.A * bracket[..., None, None] * pg.g.values
    # Z (df_i df_j), since (Z df_i) df_j and (Z df_j) df_i may round apart
    mm += df_quadratic * (p.df[..., :, None] * p.df[..., None, :])

    warp = 0.5 * c.B * np.exp((c.A - c.B) * pg.f.values) * bracket

    full = np.zeros(grid.shape + (d, d))
    full[..., :m, :m] = _lift_m(pg, mm)
    full[..., m:, m:] = _lift_n(pg, pg.n_bundle.ricci.values) \
        + _lift_m(pg, warp)[..., None, None] * _lift_n(pg, pg.h.values)
    return SymTensorField.from_matrix(grid, full)


def closed_scalar_curvature(pg: ProductGeometry, c: WarpedConstants,
                            reduced: bool = False) -> ScalarField:
    """Scalar curvature of the warped metric from the closed formula
    alone, without assembling the Christoffel cube on the product grid
    (the action integral needs only this field).

    General form (any constants):

        e^{Af} R^M + e^{Bf} R^N + e^{Af} (Am + Bn - A) lap f
        + (e^{Af}/4) (4ABn - 2ABmn + 3mA^2 - 2A^2 - m^2 A^2
                      - B^2 n - B^2 n^2) |grad f|^2

    Reduced form (special locus only):

        e^{Af} R^M + e^{Bf} R^N + e^{Af} ((A+2) lap f - (A+1) |grad f|^2)
    """
    if reduced:
        _require_locus(c, "the reduced scalar formula")
    m, n = _dims(pg, c)
    A, B = c.A, c.B
    p = pg.m_pieces
    ea, eb = np.exp(A * pg.f.values), np.exp(B * pg.f.values)
    if reduced:
        m_part = ea * (p.bundle.scalar.values + (A + 2.0) * p.lap
                       - (A + 1.0) * p.grad_sq)
    else:
        coeff = (4 * A * B * n - 2 * A * B * m * n + 3 * m * A * A
                 - 2 * A * A - m * m * A * A - B * B * n - B * B * n * n)
        m_part = ea * (p.bundle.scalar.values + (A * m + B * n - A) * p.lap
                       + 0.25 * coeff * p.grad_sq)
    scal = _lift_m(pg, m_part) \
        + _lift_m(pg, eb) * _lift_n(pg, pg.n_bundle.scalar.values)
    return ScalarField(pg.product_grid, scal)


def ricci_closed_general(pg: ProductGeometry, c: WarpedConstants
                         ) -> tuple[SymTensorField, ScalarField]:
    """Closed-form Ricci tensor and scalar curvature for arbitrary
    constants on the constraint line or off it: no condition on (A, B)
    is assumed.

    The Ricci blocks carry the pre-reduction coefficients

        c0 = (Am + Bn)/2 - A     on the Hessian and |grad f|^2 terms,
        (1/4)(2ABn + (m-2)A^2 - B^2 n)   on df (x) df,

    and the scalar curvature is the independent pre-reduction expression
    documented in ``closed_scalar_curvature``.
    """
    m, n = _dims(pg, c)
    c0 = 0.5 * (c.A * m + c.B * n) - c.A
    return (_closed_ricci_blocks(pg, c, hess_coeff=c0, block_coeff=c0,
                                 df_quadratic=z_value(m, n, c.A, c.B)),
            closed_scalar_curvature(pg, c))


def ricci_closed_ansatz(pg: ProductGeometry, c: WarpedConstants
                        ) -> tuple[SymTensorField, ScalarField]:
    """Reduced closed-form Ricci tensor and scalar curvature, valid only
    on the special locus (both defining conditions within 1e-12):

        Rt_{jl} = R_{jl} + hess_{jl} f + (A/2) g_{jl} (lap f - |grad f|^2)
        Rt_{bg} = R_{bg} + (B/2) e^{(A-B)f} h_{bg} (lap f - |grad f|^2)
        Rt      = e^{Af} R^M + e^{Bf} R^N
                  + e^{Af} ((A+2) lap f - (A+1) |grad f|^2)

    Refuses off-locus constants: the reductions are algebraically false
    there, so running them would be meaningless.
    """
    _require_locus(c, "the reduced Ricci formula")
    return (_closed_ricci_blocks(pg, c, hess_coeff=1.0, block_coeff=1.0,
                                 df_quadratic=0.0),
            closed_scalar_curvature(pg, c, reduced=True))
