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
* The Christoffel cube stores Gamma^k_{ij} once per unordered pair
  (i, j), packed by the grids module's ``pair_table``: d * d(d+1)/2
  entries a node in place of d^3, symmetric in (i, j) by representation.
  It is laid out by upper index, (k, grid, p): slot k is Gamma^k over
  the grid as one C-contiguous field, so every stencil that writes or
  reads the cube, D_a g into slot a and D_a Gamma^a out of it, runs on
  whole contiguous planes.  The cube is built in its own storage: each
  D_a g, over the metric's distinct entries, is written into slot a,
  then one sweep of the grids module's ``node_blocks`` turns every block
  into its Christoffel symbols, raising the connection of the first kind
  with one batched matrix product, and writes it back.  Every sweep
  that multiplies the cube's entries (that raising, the Ricci pass's
  Gamma Gamma terms and the Hessian) reads a block as a new node-major
  (n, d, P) copy, so each block is worked on while it sits in cache and
  every temporary of a sweep, unpacked ones included, is block-sized.
  The stencils of both passes run in slabs of whole planes cut by the
  same block size, axis 0's first and then, slab by slab, every other
  axis's, so at either stencil order the cube's peak is the cube, the
  inverse and the packed metric, and the Ricci pass's the cube, the
  inverse, the Ricci array and the trace Gamma^a_{ab}, each plus one
  slab's and a few blocks' worth: at 16^4, d = 4, the cube (2.5 matrix
  fields) and 2.47 matrix fields above the metric.  The pass reads the metric only to
  invert and pack it, and drops its reference before the cube is
  allocated; a caller that hands over its only reference, as the
  curvature study does with the assembled product metric, frees it
  there, and the pass then peaks at the Ricci pass's floor (4.75 matrix
  fields at d = 4) and one slab's and block's worth, with no metric
  beside them.  That is what lets 4d product grids with a few million
  nodes fit in a small container.
* The raising g^{kl} S_{l,p} is a batched matrix product over a block's
  nodes, (d, d) @ (d, P), once per pair p.  Of the three contractions
  that read the cube, Gamma^p_{ad} Gamma^a_{bp} is one too,
  (d, d^2) @ (d^2, d), on the block unpacked; Gamma^p_{bd} Gamma^a_{ap}
  is one einsum over the unpacked block, and the Hessian's
  Gamma^k_{jl} D_k f one over the packed block, once per pair.  A
  product's sums run in an order that depends on its operands' layout,
  so every operand, the node-major block and each gather from it, is a
  new C-contiguous array.  Each node's sums run independently of the
  other nodes, so where a block ends changes no bit.  The matrix
  products are not bitwise equal to the einsum formulas they stand for:
  their sums run in another order, and differ from them by a few ulps
  of the summed magnitudes.
* A metric field holds its determinant, the product of the LDL^T pivots
  that the grids module's positive-definiteness check took, and the
  inverse and the volume density both read it.  At d <= 3, the flows'
  and the M-grid pieces' sizes, the inverse is the adjugate over it; from
  d = 4 on, the product metrics' sizes, it is L^-T D^-1 L^-1 of the same
  factorization, whose pivots and multipliers the metric keeps, so a
  metric is factored once at every d.  No LAPACK routine is on
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
from functools import cached_property, lru_cache

import numpy as np

from .errors import MetricDegeneracyError
from .grids import (Christoffel3Field, GridSpec, ScalarField, SymTensorField,
                    diff_array, metric_inverse, node_blocks, pack_pairs,
                    pair_table, stencil_slabs, symmetric_part)

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
    d = grid.dim
    return node_blocks(math.prod(grid.shape), 8 * d * d * (d + 1) // 2)


@lru_cache(maxsize=None)
def _cube_index(d: int) -> dict[str, np.ndarray]:
    """The entries of a packed node of the cube, (d, P) with P = d(d+1)/2,
    that the kernels gather, each as flat indices k * P + p, p the
    ``pair_table`` index of (i, j):

    * "unpack": [k, i, j] -> Gamma^k_{ij}, the unpacked node;
    * "rows": [b, (p, a)] -> Gamma^a_{bp};
    * "first_kind": for a node that holds D_a g_q at a * P + q, D_i g_{jl}
      at [l, p] and then D_j g_{il} at [l, p], p = (i, j).

    Memoised per d."""
    unpack = (np.arange(d)[:, None, None] * (d * (d + 1) // 2)
              + pair_table(d))
    rows, cols = np.triu_indices(d)
    return {"unpack": unpack,
            "rows": unpack.transpose(1, 2, 0).reshape(d, d * d),
            "first_kind": np.stack((unpack[rows, cols].T,
                                    unpack[cols, rows].T))}


def _node_major(flat: np.ndarray, blk: slice) -> np.ndarray:
    """The nodes ``blk`` of a cube's flattened planes (d, nodes, P) as
    one C-contiguous (n, d, P) array, the layout every block sweep's
    products read: a product's sums run in an order that depends on the
    layout of its operands."""
    return np.ascontiguousarray(flat[:, blk].transpose(1, 0, 2))


def _stencil_sweep(grid: GridSpec) -> list[tuple[int, tuple]]:
    """The (axis, slab) pairs of a pass of stencils along every grid
    axis, in the order they run: every slab of axis 0, then slab by slab
    every other axis, whose slabs are the same (``stencil_slabs``).  A
    node sees the axes in the order 0 ... d-1."""
    slabs = stencil_slabs(grid)
    return ([(0, s) for s in slabs[0]]
            + [(a, s) for s in slabs[-1] for a in range(1, grid.dim)])


def _gathered(gam: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The entries ``index`` (``_cube_index``) of every node of a packed
    array (..., d, P), as a new C-contiguous (...,) + index.shape array:
    a product's sums run in an order that depends on the layout of its
    operands."""
    lead = gam.shape[:-2]
    # every index is in range, and "wrap" skips the check that "raise"
    # makes entry by entry
    return gam.reshape(lead + (-1,)).take(
        index.reshape(-1), axis=-1, mode="wrap").reshape(lead + index.shape)


def _christoffel(packed: np.ndarray, grid: GridSpec,
                 inv: np.ndarray) -> Christoffel3Field:
    """Christoffel symbols from the metric, packed (``pack_pairs``), and
    its inverse on ``grid``, with D_a = d/dx^a:

        Gamma^k_{ij} = (1/2) g^{kl} (D_i g_{jl} + D_j g_{il} - D_l g_{ij})

    Each D_a g is taken over the metric's P = d(d+1)/2 distinct entries
    and written into slot a of the cube, as its plane a, slab by slab
    (``_stencil_sweep``); then one sweep of the node blocks turns each
    block into its Christoffel symbols.  Per block, copied node-major
    (``_node_major``),

        S_{l,p} = D_i g_{jl} + D_j g_{il} - D_l g_{ij},   p = (i, j),

    gathered from the block (``_cube_index``), is twice the
    connection of the first kind, and g^{-1} S / 2 is one batched product
    over the block's nodes, written into the copy and then back into the
    cube's planes.
    """
    d = grid.dim
    npair = packed.shape[-1]
    out = np.empty((d,) + grid.shape + (npair,))
    for a, slab in _stencil_sweep(grid):
        out[a][slab] = diff_array(packed[slab], grid, a)
    terms = _cube_index(d)["first_kind"]
    flat_out = out.reshape(d, -1, npair)
    flat_inv = inv.reshape(-1, d, d)
    for blk in _node_blocks(grid):
        o = _node_major(flat_out, blk)
        t = _gathered(o, terms)
        s = t[:, 0] + t[:, 1]
        s -= o
        np.matmul(flat_inv[blk], s, out=o)
        o *= 0.5
        flat_out[:, blk] = o.transpose(1, 0, 2)
    return Christoffel3Field(grid, out)


def _ricci_pass(gamma: Christoffel3Field, inv: np.ndarray
                ) -> tuple[SymTensorField, ScalarField, float]:
    """Ricci as a symmetric field, the scalar curvature g^{bd} Ric_{bd}
    and the max-norm of the antisymmetric residue discarded to get there,
    from the connection and the metric's inverse.

    The raw Ricci is built in one array: the stencils D_a Gamma^a_p run
    over the cube's planes a in slabs (``_stencil_sweep``) and are added
    in the order a = 0 ... d-1 at each node, their sum is unpacked to
    (b, d), then the D_b Gamma^a_{ad} are subtracted, in slabs too.  One
    sweep of the node blocks copies each block of the cube node-major
    (``_node_major``) and unpacks it, adds the two Gamma Gamma terms
    and takes the max of |R - R^T|, writes (R + R^T) / 2 in place, keeps
    the max of |Ric| and contracts the scalar.  Each node's operations
    and their order do not depend on where a slab or a block ends, so
    neither changes a bit.

    Only the D_b Gamma^a_{ad} term of the coordinate formula breaks exact
    discrete symmetry (its integrand depends on position through g^-1), so
    the residue is O(h^2) for resolved fields.  If it exceeds

        ASYMMETRY_WARN_FACTOR * h_max^2 * max(1, |Ric|_max)

    a warning flags likely under-resolution.
    """
    grid = gamma.grid
    d = grid.dim
    gam, table = gamma.values, pair_table(d)
    nodes, npair = math.prod(grid.shape), gam.shape[-1]
    trace = np.zeros(grid.shape + (d,))                # Gamma^a_{ab}
    for a in range(d):
        trace += gam[a].take(table[a], axis=-1, mode="wrap")
    # sum_a D_a Gamma^a_p is accumulated packed in the leading nodes * P
    # entries of the Ricci array's own storage, then unpacked in place
    # block by block, last block first: a block's nodes * d^2 entries
    # start at or after every earlier block's packed ones, and its own
    # are copied out before it is written.
    ric = np.zeros(grid.shape + (d, d))
    acc = ric.reshape(-1)[:nodes * npair].reshape(grid.shape + (npair,))
    sweep = _stencil_sweep(grid)
    for a, s in sweep:
        o = acc[s]
        o += diff_array(gam[a][s], grid, a)
    flat_acc, unpacked = acc.reshape(-1, npair), ric.reshape(-1, d * d)
    for blk in reversed(_node_blocks(grid)):
        unpacked[blk] = flat_acc[blk].take(table.reshape(-1), axis=1,
                                           mode="wrap")
    del acc, flat_acc
    for b, s in sweep:
        o = ric[..., b, :][s]
        o -= diff_array(trace[s], grid, b)
    scal = np.empty(grid.shape)
    flat_gam, flat_inv = gam.reshape(d, -1, npair), inv.reshape(-1, d, d)
    flat_trace, flat_ric = trace.reshape(-1, d), ric.reshape(-1, d, d)
    flat_scal = scal.reshape(-1)
    index = _cube_index(d)
    asym, size = [], []
    for blk in _node_blocks(grid):
        node = _node_major(flat_gam, blk)
        gb, r = _gathered(node, index["unpack"]), flat_ric[blk]
        # Gamma^p_{bd} Gamma^a_{ap}
        r += np.einsum("np,npij->nij", flat_trace[blk], gb)
        # Gamma^p_{ad} Gamma^a_{bp}: rows (b) of Gamma^a_{bp} laid out as
        # [b, (p, a)] against the unpacked cube's own [(p, a), d]
        r -= np.matmul(_gathered(node, index["rows"]),
                       gb.reshape(len(gb), d * d, d))
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
    metric is inverted once and packed, and then no longer read: the pass
    drops its reference before the connection's cube is allocated, so a
    caller that hands over its only reference, as the curvature study
    does, frees the metric there.  One Ricci pass over the connection
    returns the symmetrized Ricci and the scalar."""
    inv = inverse_metric(g)
    grid, packed = g.grid, pack_pairs(g.values)
    del g
    gamma = _christoffel(packed, grid, inv)
    del packed
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
    flat_out, flat_df = out.reshape(-1, d * d), df.reshape(-1, d)
    flat_gam = gamma.values.reshape(d, -1, d * (d + 1) // 2)
    unpack = pair_table(d).reshape(-1)
    for blk in _node_blocks(grid):
        # sum_k D_k f Gamma^k_p once per pair p, then unpacked
        flat_out[blk] -= np.einsum(
            "nk,nkp->np", flat_df[blk], _node_major(flat_gam, blk)).take(
                unpack, axis=1, mode="wrap")
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
