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
  fields are under-resolved.
* ``curvature_bundle`` is the only curvature entry point: one pass that
  inverts the metric once, contracts the scalar from the symmetrized
  Ricci matrix and returns the whole stack, the inverse included.
* ``StateTerms.at(g, f, order)`` is the only record of a (g, f) state:
  one bundle, df and hess f.  What only some readers need (|grad f|^2,
  lap f, df raised, sqrt(det g) and e^{-f} sqrt(det g)) is computed on
  first use, once per record.
* Every kernel that reads or writes the Christoffel cube sweeps the
  flattened nodes in blocks of ``_BLOCK_BYTES`` of the cube
  (``_node_blocks``), so each block is worked on while it sits in cache
  and every temporary of a sweep is block-sized.  The cube is assembled
  one derivative axis at a time, with one D_a g array alive: peak memory
  is the cube, D_a g and the order-4 stencil's one temporary, plus one
  block's worth, which is what lets 4d product grids with a few million
  nodes fit in a small container.
* The three contractions that read the cube are batched matrix products
  over a block's nodes: Gamma^p_{ad} Gamma^a_{bp} as
  (d, d^2) @ (d^2, d), and Gamma^p_{bd} Gamma^a_{ap} and Hessian's
  Gamma^k_{jl} D_k f as (1, d) @ (d, d^2).  Each node's products go
  through BLAS, independently of the other nodes, so where a block ends
  changes no bit.  They are not bitwise equal to the einsum formulas
  they stand for: the sums run in another order, and differ from them by
  a few ulps of the summed magnitudes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MetricDegeneracyError
from .grids import (Christoffel3Field, GridSpec, ScalarField, SymTensorField,
                    diff_array)

__all__ = [
    "CurvatureBundle",
    "StateTerms",
    "inverse_metric",
    "curvature_bundle",
    "hessian",
    "laplace_beltrami",
    "volume_density",
    "measure_density",
]

CONDITION_LIMIT = 1e12
ASYMMETRY_WARN_FACTOR = 10.0
# Bytes of the Christoffel cube per block of the kernels' node sweep: 512
# nodes at d = 4.  With its product temporary a block stays well inside a
# 2 MB L2.
_BLOCK_BYTES = 256 * 1024


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

    Returns a full (..., d, d) array.  If the Frobenius condition estimate
    ||g|| * ||g^-1|| exceeds CONDITION_LIMIT anywhere, the metric is
    declared numerically non-invertible and the report carries the worst
    node and its smallest eigenvalue.
    """
    _require_metric(g)
    mats = g.values
    inv = np.linalg.inv(mats)
    frob_g = np.sqrt(np.sum(mats * mats, axis=(-2, -1)))
    frob_i = np.sqrt(np.sum(inv * inv, axis=(-2, -1)))
    cond = frob_g * frob_i
    worst = float(cond.max())
    if worst > CONDITION_LIMIT:
        flat = int(np.argmax(cond))
        node = tuple(int(c) for c in np.unravel_index(flat, g.grid.shape))
        eigs = np.linalg.eigvalsh(mats.reshape(-1, g.grid.dim, g.grid.dim)[flat])
        raise MetricDegeneracyError(
            f"metric numerically non-invertible at node {node}: condition "
            f"estimate {worst:.3e}, smallest eigenvalue {float(eigs[0]):.6e}",
            node=node, eigenvalue=float(eigs[0]))
    return inv


def _node_blocks(grid: GridSpec) -> list[slice]:
    """The flattened nodes of ``grid`` in blocks of ``_BLOCK_BYTES`` of
    the Christoffel cube, the one sweep of every kernel that reads it."""
    nodes, d = math.prod(grid.shape), grid.dim
    block = max(1, _BLOCK_BYTES // (8 * d ** 3))
    return [slice(s, s + block) for s in range(0, nodes, block)]


def _lower_contract(v: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """sum_p v_p Gamma^p_{ij} on a block of nodes, one (1, d) @ (d, d^2)
    product per node: (n, d) and (n, d, d, d) -> (n, d, d)."""
    n, d = v.shape
    return np.matmul(v[:, None, :], gam.reshape(n, d, d * d)).reshape(n, d, d)


def _christoffel(g: SymTensorField, inv: np.ndarray,
                 order: int) -> Christoffel3Field:
    """Christoffel symbols from the metric and its inverse.

    Built one derivative axis at a time: with D_a = d/dx^a,

        Gamma^k_{ij} = (1/2) g^{kl} (D_i g_{jl} + D_j g_{il} - D_l g_{ij})

    The accumulation order is identical for the (i, j) and (j, i) entries,
    so the stored array is symmetric to the bit and the symmetry check can
    be skipped.
    """
    grid = g.grid
    d = grid.dim
    out = np.zeros(grid.shape + (d, d, d))
    flat_out = out.reshape(-1, d, d, d)
    flat_inv = inv.reshape(-1, d, d)
    for a in range(d):
        # D_a g_{ij}, the only derivative array alive
        da = diff_array(g.values, grid, a, order).reshape(-1, d, d)
        for blk in _node_blocks(grid):
            o, ib, dab = flat_out[blk], flat_inv[blk], da[blk]
            half_raised = 0.5 * np.matmul(ib, dab)  # (1/2) g^{kl} D_a g_{lj}
            o[:, :, a, :] += half_raised            # D_i term at i = a
            o[:, :, :, a] += half_raised            # D_j term at j = a
            # -(1/2) g^{ka} D_a g_{ij}, for every k at once
            o -= (0.5 * ib[:, :, a])[:, :, None, None] * dab[:, None]
        del da
    return Christoffel3Field(grid, out, check_symmetry=False)


def _ricci_matrix(gamma: Christoffel3Field, order: int) -> np.ndarray:
    """Raw (unsymmetrized) Ricci as a full matrix array."""
    grid = gamma.grid
    d = grid.dim
    gam = gamma.values
    trace = np.zeros(grid.shape + (d,))                # Gamma^a_{ab}
    for a in range(d):
        trace += gam[..., a, a, :]
    ric = np.zeros(grid.shape + (d, d))
    for a in range(d):
        ric += diff_array(gam[..., a, :, :], grid, a, order)
    for b in range(d):
        ric[..., b, :] -= diff_array(trace, grid, b, order)
    flat_gam = gam.reshape(-1, d, d, d)
    flat_trace, flat_ric = trace.reshape(-1, d), ric.reshape(-1, d, d)
    for blk in _node_blocks(grid):
        gb, r = flat_gam[blk], flat_ric[blk]
        r += _lower_contract(flat_trace[blk], gb)      # Gamma^p_{bd} Gamma^a_{ap}
        # Gamma^p_{ad} Gamma^a_{bp}: rows (b) of Gamma^a_{bp} laid out as
        # [b, (p, a)] against the cube's own [(p, a), d]
        n = gb.shape[0]
        r -= np.matmul(gb.transpose(0, 2, 3, 1).reshape(n, d, d * d),
                       gb.reshape(n, d * d, d))
    return ric


def _symmetrized_ricci(gamma: Christoffel3Field,
                       order: int) -> tuple[SymTensorField, float]:
    """Ricci as a symmetric field, plus the max-norm of the
    antisymmetric residue discarded to get there.

    Only the D_b Gamma^a_{ad} term of the coordinate formula breaks exact
    discrete symmetry (its integrand depends on position through g^-1), so
    the residue is O(h^2) for resolved fields.  If it exceeds

        ASYMMETRY_WARN_FACTOR * h_max^2 * max(1, |Ric|_max)

    a warning flags likely under-resolution.
    """
    grid = gamma.grid
    raw = _ricci_matrix(gamma, order)
    asym = float(np.abs(raw - np.swapaxes(raw, -1, -2)).max())
    ric = SymTensorField.from_matrix(grid, raw, symmetrize=True)
    del raw
    h_max = max(grid.spacing)
    scale = max(1.0, float(np.abs(ric.values).max()))
    if asym > ASYMMETRY_WARN_FACTOR * h_max**2 * scale:
        warnings.warn(
            f"Ricci antisymmetric residue {asym:.3e} exceeds the O(h^2) "
            f"budget for spacing {h_max:.3e}; fields look under-resolved",
            stacklevel=3)
    return ric, asym


def curvature_bundle(g: SymTensorField, order: int = 2) -> CurvatureBundle:
    """Full curvature stack of one metric via the generic pipeline.  The
    metric is inverted once, and the symmetrized Ricci matrix feeds both
    the scalar and the bundle."""
    inv = inverse_metric(g)
    gamma = _christoffel(g, inv, order)
    ric, asym = _symmetrized_ricci(gamma, order)
    scal = np.einsum("...bd,...bd->...", inv, ric.values)
    return CurvatureBundle(christoffel=gamma, ricci=ric,
                           scalar=ScalarField(g.grid, scal), inverse=inv,
                           ricci_asymmetry=asym)


def gradient_components(f: ScalarField, order: int = 2) -> np.ndarray:
    """All first partials of a scalar, stacked as (..., d)."""
    grid = f.grid
    out = np.empty(grid.shape + (grid.dim,))
    for a in range(grid.dim):
        out[..., a] = diff_array(f.values, grid, a, order)
    return out


def hessian(df: np.ndarray, gamma: Christoffel3Field,
            order: int = 2) -> SymTensorField:
    """Covariant Hessian (nabla^2 f)_{jl} = D_j D_l f - Gamma^k_{jl} D_k f.

    Takes the first partials df = ``gradient_components(f, order)`` and
    the connection, not f and the metric: the Hessian never needs g
    itself, and callers already hold both.
    """
    grid = gamma.grid
    d = grid.dim
    if df.shape != grid.shape + (d,):
        raise ValueError("scalar and connection live on different grids")
    out = np.empty(grid.shape + (d, d))
    for l in range(d):
        dl = df[..., l]
        for j in range(d):
            out[..., j, l] = diff_array(dl, grid, j, order)
    flat_out, flat_df = out.reshape(-1, d, d), df.reshape(-1, d)
    flat_gam = gamma.values.reshape(-1, d, d, d)
    for blk in _node_blocks(grid):
        flat_out[blk] -= _lower_contract(flat_df[blk], flat_gam[blk])
    return SymTensorField.from_matrix(grid, out, symmetrize=True)


def volume_density(g: SymTensorField) -> ScalarField:
    """Riemannian volume density sqrt(det g), nodewise."""
    _require_metric(g)
    return ScalarField(g.grid, np.sqrt(np.linalg.det(g.values)))


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
    def at(cls, g: SymTensorField, f: ScalarField,
           order: int = 2) -> "StateTerms":
        bundle = curvature_bundle(g, order)
        df = gradient_components(f, order)
        hess = hessian(df, bundle.christoffel, order).values
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


def laplace_beltrami(f: ScalarField, inv: np.ndarray, rho: ScalarField,
                     order: int = 2) -> ScalarField:
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
    df = gradient_components(f, order)
    flux = rho[..., None] * np.einsum("...ij,...j->...i", inv, df)
    div = np.zeros(grid.shape)
    for i in range(grid.dim):
        div += diff_array(flux[..., i], grid, i, order)
    return ScalarField(grid, div / rho)
