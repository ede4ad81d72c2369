"""Generic curvature of an arbitrary metric field, by finite differences.

This module knows nothing about warped products.  It takes any positive
definite ``SymTensorField`` and grinds out Christoffel symbols, Ricci and
scalar curvature straight from the coordinate definitions, plus the scalar
helpers (Hessian, Laplace-Beltrami, volume density) and the record of a
(g, f) state that the action functionals and the flow read.  Serving as
an independent oracle for the closed warped-product formulas is its
whole purpose, so nothing here may share code with those formulas.

Index and sign conventions:

* Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij})
* Ric_{bd} = d_a Gamma^a_{bd} - d_b Gamma^a_{ad}
             + Gamma^p_{bd} Gamma^a_{ap} - Gamma^p_{ad} Gamma^a_{bp}
* R = g^{bd} Ric_{bd}

The sign convention is pinned by the round sphere: for the standard
metric on S^2 this Ricci is positive.  On the grid we pin it instead with
conformally flat 2d metrics g = e^{2u} delta, for which R = -2 e^{-2u}
(d_xx u + d_yy u); the tests hold the module to that identity.

Discrete quirks worth knowing:

* Second derivatives are compositions of first-difference stencils
  (package-wide choice, see the grids module), so the raw Ricci picks up
  an O(h^2) antisymmetric part from the d_b Gamma^a_{ad} term, whose
  arguments depend on position through the inverse metric.  The result is
  symmetrized and the discarded part is reported; a large value means the
  fields are under-resolved.  The Hessian is symmetrized too, since
  D_j D_l f and D_l D_j f agree to roundoff; ``StateTerms`` holds it as
  an array.
* ``curvature_bundle`` is the only curvature entry point: one pass that
  inverts the metric once, builds the connection, and makes the
  symmetrized Ricci, its residue and the scalar in one Ricci pass, and
  returns the whole stack, the inverse included.
* ``StateTerms.at(g, f)``, g and f on one grid (so at one order), is
  the only record of a (g, f) state: one bundle, df and hess f.  What
  only some readers need (|grad f|^2, lap f, df raised, sqrt(det g) and
  e^{-f} sqrt(det g)) is computed on first use, once per record.
* Every kernel that reads or writes the Christoffel cube sweeps the
  flattened nodes in the grids module's ``node_blocks`` of the cube, so
  each block is worked on while it sits in cache and every temporary of
  a sweep is block-sized.  The cube is built in its own storage: each
  D_a g is written into the cube's slot a, then one sweep turns every
  block into its Christoffel symbols in place, raising the connection
  of the first kind with one batched matrix product.  Its peak is the
  cube, the inverse, one D_a g and the order-4 stencil's one temporary,
  plus one block's worth.  The Ricci pass runs its stencils in slabs of
  whole planes cut by the same block size, so its peak is the cube, the
  inverse, the Ricci array and the trace Gamma^a_{ab}, plus one slab's
  and one block's worth: at 16^4, d = 4, the cube and 2.45 matrix fields
  above the metric.  That is what lets 4d product grids with a few
  million nodes fit in a small container.
* The raising g^{kl} S_{lij} is a batched matrix product over a block's
  nodes, (d, d) @ (d, d^2).  Of the three contractions that read the
  cube, Gamma^p_{ad} Gamma^a_{bp} is one too, (d, d^2) @ (d^2, d), and
  Gamma^p_{bd} Gamma^a_{ap} and the Hessian's Gamma^k_{jl} D_k f are
  one einsum over the block, sum_p v_p Gamma^p_{ij}.  Each node's sums
  run independently of the other nodes, so where a block ends changes no
  bit.  The matrix products are not bitwise equal to the einsum formulas
  they stand for: their sums run in another order, and differ from them
  by a few ulps of the summed magnitudes.
* A metric field holds its determinant, the product of the LDL^T pivots
  that the grids module's positive-definiteness check took, and the
  inverse and the volume density both read it.  At d <= 3, the flows'
  and the M-grid pieces' sizes, the inverse is the adjugate over it; from
  d = 4 on, the product metrics' sizes, it is L^-T D^-1 L^-1 of the same
  factorization, taken again block by block.  No LAPACK routine is on
  this path: numpy calls LAPACK once per node matrix, and for a small
  matrix the call costs more than its arithmetic.  These results are not
  bitwise equal to LAPACK's LU results: they differ from them by a few
  ulps times the condition estimate.  The grids module alone makes these
  choices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MetricDegeneracyError
from .grids import (Christoffel3Field, GridSpec, ScalarField, SymTensorField,
                    diff_array, metric_inverse, node_blocks, symmetric_part)

__all__ = [
    "CurvatureBundle",
    "StateTerms",
    "inverse_metric",
    "curvature_bundle",
    "laplace_beltrami",
    "volume_density",
    "measure_density",
]

CONDITION_LIMIT = 1e12
ASYMMETRY_WARN_FACTOR = 10.0


@dataclass(frozen=True)
class CurvatureBundle:
    """One oracle pass over a metric: its Christoffel symbols, Ricci
    tensor, scalar curvature and the inverse the pass made.
    ``ricci_asymmetry`` is the max-norm of the antisymmetric part
    discarded when symmetrizing Ricci."""

    christoffel: Christoffel3Field
    ricci: SymTensorField
    scalar: ScalarField
    inverse: np.ndarray
    ricci_asymmetry: float


def _require_metric(g: SymTensorField):
    if not g.is_metric:
        raise ValueError("this operation needs a field constructed with "
                         "is_metric=True")


def inverse_metric(g: SymTensorField) -> np.ndarray:
    """Nodewise inverse of a metric, with a conditioning guard.

    Returns a full (..., d, d) array, symmetric to the bit: at d <= 3 the
    adjugate over the determinant, from d = 4 on L^-T D^-1 L^-1 of the
    metric's LDL^T factorization.  If the Frobenius
    condition estimate ||g|| * ||g^-1|| exceeds CONDITION_LIMIT anywhere,
    or is not finite, the metric is declared numerically non-invertible
    and the report carries the worst node and its smallest eigenvalue.
    """
    _require_metric(g)
    mats = g.values
    # Out-of-range values become inf or NaN silently: the guard below
    # refuses a NaN estimate like one above the limit, so no
    # floating-point warning escapes and no NaN slips past it.
    with np.errstate(all="ignore"):
        inv, lost = metric_inverse(g)  # lost: infinitely ill-conditioned
        frob_g = np.sqrt(np.einsum("...ij,...ij->...", mats, mats))
        frob_i = np.sqrt(np.einsum("...ij,...ij->...", inv, inv))
        cond = np.where(lost, np.inf, frob_g * frob_i)
    worst = float(cond.max())
    if not worst <= CONDITION_LIMIT:
        flat = int(np.argmax(cond))
        node = tuple(int(c) for c in np.unravel_index(flat, g.grid.shape))
        eigs = np.linalg.eigvalsh(mats.reshape(-1, g.grid.dim, g.grid.dim)[flat])
        raise MetricDegeneracyError(
            f"metric numerically non-invertible at node {node}: condition "
            f"estimate {worst:.3e}, smallest eigenvalue {float(eigs[0]):.6e}",
            node=node, eigenvalue=float(eigs[0]))
    return inv


def _node_blocks(grid: GridSpec) -> list[slice]:
    """The node blocks of the Christoffel cube, the one sweep of every
    kernel that reads it."""
    return node_blocks(math.prod(grid.shape), 8 * grid.dim ** 3)


def _lower_contract(v: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """sum_p v_p Gamma^p_{ij} on a block of nodes: (n, d) and
    (n, d, d, d) -> (n, d, d)."""
    return np.einsum("np,npij->nij", v, gam)


def _christoffel(g: SymTensorField, inv: np.ndarray) -> Christoffel3Field:
    """Christoffel symbols from the metric and its inverse, with
    D_a = d/dx^a:

        Gamma^k_{ij} = (1/2) g^{kl} (D_i g_{jl} + D_j g_{il} - D_l g_{ij})

    Each D_a g_{ij} is written into slot a of the cube, as entry
    (a, i, j), and one sweep of the node blocks turns each block into its
    Christoffel symbols in place.  With Y_{lij} = D_i g_{jl}, the block
    with its entry (i, j, l) moved to (l, i, j),

        S_{lij} = Y_{lij} + Y_{lji} - D_l g_{ij}

    is twice the connection of the first kind, and R = g^{-1} S is one
    batched product over the block's nodes.  The block becomes
    (R + R^T) / 4, with R^T the (i, j) transpose: R is symmetric in
    (i, j) in exact arithmetic, and the sum makes it so to the bit,
    whatever order the product's sums ran in.
    """
    grid = g.grid
    d = grid.dim
    out = np.empty(grid.shape + (d, d, d))
    for a in range(d):
        out[..., a, :, :] = diff_array(g.values, grid, a)
    flat_out = out.reshape(-1, d, d, d)
    flat_inv = inv.reshape(-1, d, d)
    for blk in _node_blocks(grid):
        o = flat_out[blk]
        n = o.shape[0]
        y = np.ascontiguousarray(o.transpose(0, 3, 1, 2))  # D_i g_{jl}
        s = y + y.transpose(0, 1, 3, 2)
        s -= o
        r = np.matmul(flat_inv[blk], s.reshape(n, d, d * d)).reshape(o.shape)
        np.add(r, r.transpose(0, 1, 3, 2), out=o)
        o *= 0.25
    return Christoffel3Field(grid, out)


def _stencil_slabs(grid: GridSpec) -> list[list[tuple]]:
    """Per axis a, the grid cut into slabs of whole planes of another
    axis (axis 1 for a = 0, axis 0 for the rest), each about
    ``_BLOCK_BYTES`` of a matrix field, as index tuples over the grid
    axes: a stencil along a reads nothing outside its own slab.  A 1d
    grid is one slab."""
    if grid.dim == 1:
        return [[()]]
    nodes, d = math.prod(grid.shape), grid.dim
    across = {cut: [(slice(None),) * cut + (blk,) for blk in node_blocks(
        grid.shape[cut], nodes // grid.shape[cut] * 8 * d * d)]
        for cut in (0, 1)}
    return [across[1 if a == 0 else 0] for a in range(d)]


def _ricci_pass(gamma: Christoffel3Field, inv: np.ndarray
                ) -> tuple[SymTensorField, ScalarField, float]:
    """Ricci as a symmetric field, the scalar curvature g^{bd} Ric_{bd}
    and the max-norm of the antisymmetric residue discarded to get there,
    from the connection and the metric's inverse.

    The raw Ricci is built in one array: the stencils D_a Gamma^a_{bd}
    run in slabs (``_stencil_slabs``) and are added in the order
    a = 0 ... d-1, then the D_b Gamma^a_{ad} are subtracted, in slabs
    too.  One sweep of the node blocks adds the two Gamma Gamma terms
    and, per block, takes the max of |R - R^T|, writes (R + R^T) / 2 in
    place, keeps the max of |Ric| and contracts the scalar.  Each node's
    operations and their order do not depend on where a slab or a block
    ends, so neither changes a bit.

    Only the D_b Gamma^a_{ad} term of the coordinate formula breaks exact
    discrete symmetry (its integrand depends on position through g^-1), so
    the residue is O(h^2) for resolved fields.  If it exceeds

        ASYMMETRY_WARN_FACTOR * h_max^2 * max(1, |Ric|_max)

    a warning flags likely under-resolution.
    """
    grid = gamma.grid
    d = grid.dim
    gam = gamma.values
    trace = np.zeros(grid.shape + (d,))                # Gamma^a_{ab}
    for a in range(d):
        trace += gam[..., a, a, :]
    ric = np.zeros(grid.shape + (d, d))
    slabs = _stencil_slabs(grid)
    for a in range(d):
        gam_a = gam[..., a, :, :]
        for s in slabs[a]:
            o = ric[s]
            o += diff_array(gam_a[s], grid, a)
    for b in range(d):
        ric_b = ric[..., b, :]
        for s in slabs[b]:
            o = ric_b[s]
            o -= diff_array(trace[s], grid, b)
    scal = np.empty(grid.shape)
    flat_gam, flat_inv = gam.reshape(-1, d, d, d), inv.reshape(-1, d, d)
    flat_trace, flat_ric = trace.reshape(-1, d), ric.reshape(-1, d, d)
    flat_scal = scal.reshape(-1)
    asym, size = [], []
    for blk in _node_blocks(grid):
        gb, r = flat_gam[blk], flat_ric[blk]
        r += _lower_contract(flat_trace[blk], gb)      # Gamma^p_{bd} Gamma^a_{ap}
        # Gamma^p_{ad} Gamma^a_{bp}: rows (b) of Gamma^a_{bp} laid out as
        # [b, (p, a)] against the cube's own [(p, a), d]
        n = gb.shape[0]
        r -= np.matmul(gb.transpose(0, 2, 3, 1).reshape(n, d, d * d),
                       gb.reshape(n, d * d, d))
        rt = np.swapaxes(r, -1, -2)
        t = r - rt
        asym.append(np.abs(t, out=t).max())
        np.add(r, rt, out=t)
        t *= 0.5
        r[...] = t
        size.append(np.abs(t, out=t).max())
        flat_scal[blk] = np.einsum("nbd,nbd->n", flat_inv[blk], r)
    ric = SymTensorField(grid, ric)     # finite, so no max below is NaN
    asym = float(max(asym))
    h_max = max(grid.spacing)
    scale = max(1.0, float(max(size)))
    if asym > ASYMMETRY_WARN_FACTOR * h_max**2 * scale:
        warnings.warn(
            f"Ricci antisymmetric residue {asym:.3e} exceeds the O(h^2) "
            f"budget for spacing {h_max:.3e}; fields look under-resolved",
            stacklevel=3)
    return ric, ScalarField(grid, scal), asym


def curvature_bundle(g: SymTensorField) -> CurvatureBundle:
    """Full curvature stack of one metric via the generic pipeline.  The
    metric is inverted once, and one Ricci pass over the connection
    returns the symmetrized Ricci and the scalar."""
    inv = inverse_metric(g)
    gamma = _christoffel(g, inv)
    ric, scal, asym = _ricci_pass(gamma, inv)
    return CurvatureBundle(christoffel=gamma, ricci=ric, scalar=scal,
                           inverse=inv, ricci_asymmetry=asym)


def gradient_components(f: ScalarField) -> np.ndarray:
    """All first partials of a scalar, stacked as (..., d)."""
    grid = f.grid
    out = np.empty(grid.shape + (grid.dim,))
    for a in range(grid.dim):
        out[..., a] = diff_array(f.values, grid, a)
    return out


def _hessian(df: np.ndarray, gamma: Christoffel3Field) -> np.ndarray:
    """Covariant Hessian (nabla^2 f)_{jl} = D_j D_l f - Gamma^k_{jl} D_k f,
    symmetrized, as a (..., d, d) array.

    Takes the first partials df = ``gradient_components(f)`` and the
    connection, not f and the metric: the Hessian never needs g itself.
    df is a bare array, so nothing here sees its stencil order;
    ``StateTerms.at``, the one caller, takes both from one grid.
    """
    grid = gamma.grid
    d = grid.dim
    out = np.empty(grid.shape + (d, d))
    for j in range(d):
        out[..., j, :] = diff_array(df, grid, j)     # D_j D_l f, every l
    flat_out, flat_df = out.reshape(-1, d, d), df.reshape(-1, d)
    flat_gam = gamma.values.reshape(-1, d, d, d)
    for blk in _node_blocks(grid):
        flat_out[blk] -= _lower_contract(flat_df[blk], flat_gam[blk])
    return symmetric_part(out)


def volume_density(g: SymTensorField) -> ScalarField:
    """Riemannian volume density sqrt(det g), nodewise."""
    _require_metric(g)
    return ScalarField(g.grid, np.sqrt(g.det))


def measure_density(f: ScalarField, rho: ScalarField) -> ScalarField:
    """The fixed-measure density e^{-f} rho, with rho = volume_density(g)."""
    return ScalarField(f.grid, np.exp(-f.values) * rho.values)


@dataclass(frozen=True)
class StateTerms:
    """What every formula on M reads at one (g, f) state, from one
    oracle pass made by ``StateTerms.at``: the bundle of g (its inverse
    included), the first partials df and the covariant Hessian of f.
    The contractions |grad f|^2, lap f and df raised, the volume density
    rho and the weight e^{-f} rho are computed on first use, once per
    record, since a flow step's slopes read none of them.  Callers share
    a record, so its arrays must never be written."""

    g: SymTensorField
    f: ScalarField
    bundle: CurvatureBundle
    df: np.ndarray
    hess: np.ndarray

    @classmethod
    def at(cls, g: SymTensorField, f: ScalarField) -> "StateTerms":
        if f.grid != g.grid:
            raise ValueError("g and f live on different grids")
        bundle = curvature_bundle(g)
        df = gradient_components(f)
        hess = _hessian(df, bundle.christoffel)
        return cls(g=g, f=f, bundle=bundle, df=df, hess=hess)

    @cached_property
    def grad_sq(self) -> np.ndarray:
        """g^{ij} df_i df_j."""
        return np.einsum("...ij,...i,...j->...", self.bundle.inverse,
                         self.df, self.df)

    @cached_property
    def lap(self) -> np.ndarray:
        """g^{ij} hess_{ij}, the trace of the Hessian."""
        return np.einsum("...ij,...ij->...", self.bundle.inverse, self.hess)

    @cached_property
    def df_raised(self) -> np.ndarray:
        """g^{kl} df_l."""
        return np.einsum("...kl,...l->...k", self.bundle.inverse, self.df)

    @cached_property
    def rho(self) -> ScalarField:
        return volume_density(self.g)

    @cached_property
    def weight(self) -> ScalarField:
        return measure_density(self.f, self.rho)


def laplace_beltrami(f: ScalarField, inv: np.ndarray,
                     rho: ScalarField) -> ScalarField:
    """Laplace-Beltrami operator in divergence form,

        (Delta f) = rho^{-1} D_i ( rho g^{ij} D_j f ),   rho = sqrt(det g).

    Takes the metric as the two things the operator reads of it, which
    callers already hold: its inverse (``inverse_metric(g)`` or a bundle's
    ``inverse``) and its density (``volume_density(g)``).

    With composed central stencils the periodic node sum of
    (Delta u) v rho  equals  -(grad u, grad v) rho summed, exactly: each
    D_i is antisymmetric under the node-sum pairing, so discrete
    integration by parts holds to roundoff.  That identity is what the
    action functionals lean on.
    """
    grid = f.grid
    if rho.grid != grid or inv.shape != grid.shape + (grid.dim, grid.dim):
        raise ValueError("scalar and metric live on different grids")
    rho = rho.values
    df = gradient_components(f)
    flux = rho[..., None] * np.einsum("...ij,...j->...i", inv, df)
    div = np.zeros(grid.shape)
    for i in range(grid.dim):
        div += diff_array(flux[..., i], grid, i)
    return ScalarField(grid, div / rho)
