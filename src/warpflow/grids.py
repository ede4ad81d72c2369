"""Periodic structured grids and the fields that live on them.

Everything downstream (curvature, functionals, flows) is assembled from the
primitives in this module: uniform grids on flat tori, periodic central
difference stencils, trapezoid quadrature and a sharp Fourier mode filter.

Conventions, fixed once for the whole package:

* A grid covers the torus [0, L_1) x ... x [0, L_d) with N_i uniformly
  spaced nodes per axis; node coordinates are k * L_i / N_i.  On a periodic
  uniform grid the trapezoid rule is a plain node sum times the cell
  volume, and that is what ``integrate`` computes.
* Derivatives are periodic central differences of ``GridSpec.order``,
  2 or 4, read only by ``diff_array``, so fields made at different
  orders cannot be mixed.  Second derivatives are always compositions
  of two first-derivative applications, never a dedicated wide stencil.
  The composed operator is what makes the discrete integration-by-parts
  identity exact, see ``laplace_beltrami`` in the geometry module.
* Tensor fields store grid axes first and component axes last, so a metric
  on a d-dimensional grid with shape ``shape`` is the full symmetric
  matrix array ``shape + (d, d)``: the array the field was given,
  symmetric to the bit and frozen.  ``symmetric_part`` is the one projection.
  A connection stores each unordered pair of its lower indices once,
  packed by the one ``pair_table``, which both the oracle and the closed
  forms read, and puts its upper index first: ``(d,) + shape + (P,)``.
* All field values are float64 and finite (a constructor raises
  ``NonFiniteFieldError`` otherwise); metrics are checked for
  positive definiteness node by node when flagged with ``is_metric``,
  and a metric field holds its nodewise determinant (``det``).
* The nodewise algebra of a metric is one LDL^T factorization, taken in
  the ``node_blocks`` of the matrices on component-major planes: its
  pivots are the positive-definiteness check and their product is the
  determinant, at every d.  ``ldl_determinant`` is that check and
  product for any (..., k, k) stack, and continues a leading diagonal
  block's determinant, so a block-diagonal metric's determinant can be
  taken block by block, bitwise equal to the whole one's.  The inverse
  is the adjugate over the determinant up to ``_CLOSED_FORM_DIM`` = 3,
  and L^-T D^-1 L^-1 from d = 4 on, from the pivots and multipliers the
  check took, which the metric keeps.  No LAPACK routine is on this path.
  This module alone makes these choices: the geometry module's inverse
  reads ``metric_inverse`` and its volume density reads ``det``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (GridMismatchError, MetricDegeneracyError,
                     NonFiniteFieldError)

__all__ = [
    "GridSpec",
    "ScalarField",
    "SymTensorField",
    "Christoffel3Field",
    "pair_table",
    "pack_pairs",
    "metric_inverse",
    "ldl_determinant",
    "symmetric_part",
    "node_blocks",
    "stencil_sweep",
    "integrate",
    "diff_array",
    "filter_array",
]


@dataclass(frozen=True)
class GridSpec:
    """A uniform periodic grid on a flat torus.

    Parameters
    ----------
    points : tuple of int
        Nodes per axis, at least 8 each (wide-stencil compositions need
        five distinct neighbours and the mode filter needs headroom below
        the Nyquist frequency).
    periods : tuple of float
        Axis lengths L_i > 0.
    order : int
        Stencil order of every derivative taken on the grid, 2 or 4.
    """

    points: tuple[int, ...]
    periods: tuple[float, ...]
    order: int = 2

    def __post_init__(self):
        pts = tuple(int(p) for p in self.points)
        pers = tuple(float(L) for L in self.periods)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "periods", pers)
        if len(pts) == 0:
            raise ValueError("grid needs at least one axis")
        if len(pts) != len(pers):
            raise ValueError(
                f"got {len(pts)} point counts but {len(pers)} periods")
        if any(p < 8 for p in pts):
            raise ValueError(f"every axis needs at least 8 points, got {pts}")
        if any(not np.isfinite(L) or L <= 0 for L in pers):
            raise ValueError(f"periods must be positive and finite, got {pers}")
        if self.order not in (2, 4):
            raise ValueError(f"stencil order must be 2 or 4, got {self.order}")

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.periods, self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(np.asarray(self.spacing, dtype=float)))

    def coordinates(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis, shape (N_axis,)."""
        self._check_axis(axis)
        h = self.spacing[axis]
        return np.arange(self.points[axis], dtype=float) * h

    def meshes(self) -> list[np.ndarray]:
        """Sparse broadcastable coordinate arrays, one per axis."""
        coords = [self.coordinates(a) for a in range(self.dim)]
        return list(np.meshgrid(*coords, indexing="ij", sparse=True))

    def _check_axis(self, axis: int):
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for {self.dim}d grid")


def _validated_values(values, want: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != want:
        raise ValueError(f"{what} values must have shape {want}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteFieldError(f"{what} contains non-finite values")
    return arr


@dataclass(eq=False)
class ScalarField:
    """A scalar sampled at every grid node."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _validated_values(self.values, self.grid.shape,
                                        "scalar field")

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


@dataclass(eq=False)
class SymTensorField:
    """A symmetric rank-2 tensor field, stored as the full matrix array
    ``grid.shape + (d, d)``.

    The constructor rejects values unless they are symmetric to the bit,
    roundoff asymmetry included, and stores the array itself (converted
    only if not C-contiguous float64), frozen: ``values``, ``matrix()``
    and the caller's own reference are all read-only.  With
    ``is_metric=True`` the constructor additionally verifies positive
    definiteness at every node, by the signs of the LDL^T pivots, and
    reports the first offending node and its smallest eigenvalue on
    failure.  A metric holds its determinant ``det``, read-only: the
    product of the pivots the check took; from d = 4 on it also keeps the
    check's pivots and multipliers, for ``metric_inverse``.
    """

    grid: GridSpec
    values: np.ndarray
    is_metric: bool = False

    def __post_init__(self):
        d = self.grid.dim
        arr = np.ascontiguousarray(_validated_values(
            self.values, self.grid.shape + (d, d), "symmetric tensor"))
        if self.is_metric:
            # from d = 4 on metric_inverse reads the check's factors
            self._ldl = (np.empty((d * (d + 1) // 2, arr.size // (d * d)))
                         if d > _CLOSED_FORM_DIM else None)
            # checks the symmetry too
            self.det = ldl_determinant(arr, factors=self._ldl)
            self.det.flags.writeable = False
        else:
            _require_symmetric(arr)
        arr.flags.writeable = False
        self.values = arr

    @classmethod
    def from_matrix(cls, grid: GridSpec, mat,
                    is_metric: bool = False) -> "SymTensorField":
        """The field of a full (..., d, d) array."""
        return cls(grid, mat, is_metric)

    def matrix(self) -> np.ndarray:
        """The stored (..., d, d) array itself: read-only, not a copy."""
        return self.values


def symmetric_part(mat: np.ndarray) -> np.ndarray:
    """0.5 (A + A^T) of a (..., d, d) array as a new C-contiguous array:
    the one projection, for raw Ricci and the Hessian."""
    sym = np.add(mat, np.swapaxes(mat, -1, -2), order="C")
    sym *= 0.5
    return sym


# Largest matrix size whose nodewise inverse is the adjugate over the
# determinant; from d = 4 on L^-T D^-1 L^-1 costs less.
_CLOSED_FORM_DIM = 3

def _ldl(planes: np.ndarray, d: int) -> tuple[list, list]:
    """The LDL^T factorization of a block of symmetric d x d node
    matrices, given as component-major planes (``planes[i * d + k]`` holds
    the (i, k) entries): the pivots p_k = w[k][k] and the multipliers
    l[i][k] = w[i][k] / p_k, i > k, of the recurrence

        w[i][k] = a[i][k] - sum_{p<k} w[k][p] (w[i][p] / p_p),   i >= k.

    p_k is the k-th leading principal minor over the (k-1)-th, the square
    of the k-th diagonal entry of the Cholesky factor.  p_1 is a view of
    the planes.  A pivot that leaves the float range comes out inf or
    NaN, silently, for the caller's guard to see."""
    w = [[planes[i * d + k] for k in range(i + 1)] for i in range(d)]
    l = [[None] * d for _ in range(d)]
    with np.errstate(all="ignore"):
        for k in range(d):
            for i in range(k, d):
                for p in range(k):
                    w[i][k] = w[i][k] - w[k][p] * l[i][p]
            for i in range(k + 1, d):
                l[i][k] = w[i][k] / w[k][k]
    return [w[k][k] for k in range(d)], l


def _lower_pairs(d: int) -> list[tuple[int, int]]:
    """The multipliers' indices (i, j), j < i, of a d x d LDL^T
    factorization, row by row."""
    return [(i, j) for i in range(d) for j in range(i)]


def _ldl_inverse(factors: np.ndarray, d: int) -> np.ndarray:
    """L^-T D^-1 L^-1 from one block's rows (d(d+1)/2, n) of the factors
    that ``ldl_determinant`` kept, as (d * d, n) planes.  With m = L^-1
    (unit lower triangular),

        inv[i][j] = sum_{k>=j} (m[k][i] / p_k) m[k][j],   i <= j,

    and (i, j) and (j, i) are written from one value, so the inverse is
    symmetric to the bit."""
    l = dict(zip(_lower_pairs(d), factors[d:]))
    m = [[None] * d for _ in range(d)]
    for j in range(d):
        for i in range(j + 1, d):
            s = l[i, j]
            for k in range(j + 1, i):
                s = s + l[i, k] * m[k][j]
            m[i][j] = -s
    r = [1.0 / p for p in factors[:d]]
    x = [[m[k][i] * r[k] for i in range(k)] for k in range(d)]
    out = np.empty((d * d,) + factors.shape[1:])
    for j in range(d):
        for i in range(j + 1):
            s = r[j] if i == j else x[j][i]
            for k in range(j + 1, d):
                s = s + x[k][i] * m[k][j]
            out[i * d + j] = out[j * d + i] = s
    return out


def metric_inverse(g: SymTensorField) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of each node matrix of a metric, and where it is lost:
    where ``g.det`` under- or overflowed.  At d <= 3 it is the adjugate
    over ``g.det``, each cofactor divided by det as it is written; from
    d = 4 on it is L^-T D^-1 L^-1, block by block, from the factors that
    the metric's positive-definiteness check kept.  Either way (i, j) and
    (j, i) share one value, so the result is symmetric to the bit.
    Out-of-range values come out inf or NaN."""
    mats, d = g.values, g.grid.dim
    det = g.det
    lost = ~np.isfinite(det) | (det == 0.0)
    out = np.empty(mats.shape)
    if d > _CLOSED_FORM_DIM:
        flat = out.reshape(-1, d * d)
        with np.errstate(all="ignore"):
            for blk in node_blocks(len(flat), 8 * d * d):
                flat[blk] = _ldl_inverse(g._ldl[:, blk], d).T
        return out, lost

    def m(i, j):
        return mats[..., i, j]

    def cofactor(i, j):
        if d == 1:
            return 1.0
        if d == 2:
            return m(1 - i, 1 - j) if i == j else -m(i, j)
        i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        c = m(i1, j1) * m(i2, j2)
        c -= m(i1, j2) * m(i2, j1)
        return c

    with np.errstate(all="ignore"):
        for i in range(d):
            for j in range(i, d):
                np.divide(cofactor(i, j), det, out=out[..., i, j])
                out[..., j, i] = out[..., i, j]
    return out, lost


def _require_symmetric(mats: np.ndarray):
    """Raise ValueError unless a (..., k, k) array is symmetric to the
    bit, roundoff asymmetry included."""
    k = mats.shape[-1]
    # the two sides have one shape, and NaN compares unequal
    if any(not (mats[..., i, j] == mats[..., j, i]).all()
           for i in range(k) for j in range(i + 1, k)):
        raise ValueError("matrix is not symmetric to the bit; "
                         "symmetric_part(mat) projects")


def ldl_determinant(mats: np.ndarray, lead: np.ndarray | None = None,
                    factors: np.ndarray | None = None) -> np.ndarray:
    """The determinant of each node matrix of a finite (..., k, k) stack,
    the product of its LDL^T pivots p_1 ... p_k; with ``lead``, an array
    of the node shape, the product continued from it, lead p_1 ... p_k in
    that order.  With ``factors``, a (k(k+1)/2, nodes) array, each
    block's pivots p_1 ... p_k and then its multipliers l[i][j], j < i,
    in ``_lower_pairs`` order, are copied into its rows.  Raise
    ValueError unless the stack is symmetric to the bit, and
    MetricDegeneracyError unless every node matrix is positive definite.
    The test is that every pivot is positive and finite, which is that
    every leading principal minor is: the Cholesky factorization's own
    test.

    The pivots of a block-diagonal matrix are its blocks' pivots, bit for
    bit (every multiplier across two blocks is 0 / p = 0), so the call on
    the last diagonal block with ``lead`` the determinant of the blocks
    before it returns the whole matrix's determinant to the bit."""
    _require_symmetric(mats)
    shape, k = mats.shape[:-2], mats.shape[-1]
    nodes = mats.reshape(-1, k * k)
    det = np.empty(len(nodes))
    if lead is not None:
        lead = np.broadcast_to(lead, shape).reshape(-1)
    # a block's planes and factors go when the next block is taken; the
    # kept factors are copies, never views of a block's planes
    for blk in node_blocks(len(nodes), 8 * k * k):
        pivots, l = _ldl(np.ascontiguousarray(nodes[blk].T), k)
        if not all(((p > 0.0) & (p < np.inf)).all() for p in pivots):
            break
        with np.errstate(all="ignore"):
            det[blk] = math.prod(pivots,
                                 start=1 if lead is None else lead[blk])
        if factors is not None:
            kept = pivots + [l[i][j] for i, j in _lower_pairs(k)]
            for row, factor in zip(factors[:, blk], kept):
                row[...] = factor
    else:
        return det.reshape(shape)
    # Slow path only on failure: locate the first bad node for the report.
    eigs = np.linalg.eigvalsh(mats.reshape(-1, k, k))
    bad = np.nonzero(eigs[:, 0] <= 0.0)[0]
    flat = int(bad[0]) if bad.size else int(np.argmin(eigs[:, 0]))
    node = tuple(int(c) for c in np.unravel_index(flat, shape))
    lam = float(eigs[flat, 0])
    raise MetricDegeneracyError(
        f"metric is not positive definite at node {node} "
        f"(smallest eigenvalue {lam:.6e})",
        node=node, eigenvalue=lam)


@lru_cache(maxsize=None)
def pair_table(d: int) -> np.ndarray:
    """The packed index of each lower-index pair of a d-dimensional
    connection: a read-only (d, d) integer array, symmetric, whose (i, j)
    and (j, i) entries are the index p of the pair i <= j in row-major
    upper order, 0 ... d(d+1)/2 - 1.  ``values[..., pair_table(d)]``
    unpacks the lower indices of a ``Christoffel3Field``, and
    ``pack_pairs`` packs them.  Memoised per d."""
    table = np.empty((d, d), dtype=np.intp)
    rows, cols = np.triu_indices(d)
    table[rows, cols] = table[cols, rows] = np.arange(len(rows))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _upper_index(d: int) -> np.ndarray:
    """Entry (i, j), i <= j, of a flattened (d, d) matrix, as its index
    i * d + j, in ``pair_table`` order."""
    rows, cols = np.triu_indices(d)
    return rows * d + cols


def pack_pairs(mats: np.ndarray) -> np.ndarray:
    """The entries (i, j), i <= j, of each matrix of a (..., d, d) array,
    in ``pair_table`` order: a new C-contiguous (..., d(d+1)/2) array."""
    d = mats.shape[-1]
    # every index is in range, and "wrap" skips the check that "raise"
    # makes entry by entry
    return np.take(mats.reshape(mats.shape[:-2] + (d * d,)), _upper_index(d),
                   axis=-1, mode="wrap")


@dataclass(eq=False)
class Christoffel3Field:
    """Connection coefficients Gamma^k_{ij}, stored once per unordered
    lower-index pair as one C-contiguous ``(d,) + shape + (d(d+1)/2,)``
    array, axes ordered (k, grid, p), with p the ``pair_table`` index of
    (i, j): the lower indices are symmetric by representation, and
    ``values[k]`` is Gamma^k as one contiguous field of packed pairs, so
    a stencil reads or writes it in whole planes.  A node's entries
    (k, p) are ``np.moveaxis(values, 0, -2)``, a view."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        d = self.grid.dim
        self.values = np.ascontiguousarray(_validated_values(
            self.values, (d,) + self.grid.shape + (d * (d + 1) // 2,),
            "christoffel field"))


# Bytes of an operand per block of a node sweep: 512 nodes of a d = 4
# Christoffel cube.  A block, its product temporary and a second operand
# stay well inside a 2 MB L2.
_BLOCK_BYTES = 256 * 1024


def node_blocks(nodes: int, node_bytes: int) -> list[slice]:
    """The flattened nodes 0..nodes-1 in blocks of ``_BLOCK_BYTES`` of an
    operand with ``node_bytes`` bytes per node, one node at least: the
    sweep of every blocked kernel, so that each block is worked on while
    it sits in cache and every temporary of a sweep is block-sized.
    Every pass asks again.  The flows' grids fit one block and take the
    short path; the plan is not memoised, since a memo would hold the
    hundreds of slices of every large grid it has cut."""
    block = max(1, _BLOCK_BYTES // node_bytes)
    if nodes <= block:
        return [slice(0, block)]
    return [slice(s, s + block) for s in range(0, nodes, block)]


def stencil_sweep(grid: GridSpec) -> tuple[tuple[int, tuple], ...]:
    """The (axis, slab) pairs of a pass of stencils along every grid
    axis, in the order they run.  A slab is an index tuple over the grid
    axes that cuts the grid into whole planes of another axis (axis 1
    for axis 0, axis 0 for the rest), each about ``_BLOCK_BYTES`` of a
    matrix field, so a stencil along an axis reads nothing outside its
    slab; a 1d grid is one slab.  Every slab of axis 0 runs first, then
    slab by slab every other axis, whose slabs are the same, so a node
    sees the axes in the order 0 ... d-1.  Memoised per grid and block
    size, since every pass over a grid asks again."""
    return _sweep_plan(grid, _BLOCK_BYTES)


@lru_cache(maxsize=None)
def _sweep_plan(grid: GridSpec, block_bytes: int
                ) -> tuple[tuple[int, tuple], ...]:
    # block_bytes keys the memo; node_blocks reads the same value
    if grid.dim == 1:
        return ((0, ()),)
    nodes, d = math.prod(grid.shape), grid.dim
    across = {cut: tuple((slice(None),) * cut + (blk,) for blk in node_blocks(
        grid.shape[cut], nodes // grid.shape[cut] * 8 * d * d))
        for cut in (0, 1)}
    return tuple([(0, s) for s in across[1]]
                 + [(a, s) for s in across[0] for a in range(1, d)])


def _same_grid(a, b, what: str):
    if a.grid != b.grid:
        raise GridMismatchError(f"{what}: fields live on different grids")


# The textbook stencil of each order: its shifts s, so that v[i + s] is
# read, and the divisor of the spacing.
_STENCILS = {2: ((1, -1), 2.0), 4: ((2, 1, -1, -2), 12.0)}


@lru_cache(maxsize=None)
def _stencil_plan(grid: GridSpec, axis: int) -> tuple[tuple, float]:
    """The plan of every stencil along one axis of a grid: the nodes
    0..n-1 of the axis split into runs on which no i + s wraps around,
    for every shift s, as each run's index and, per shift, the index of
    the values at i + s over it, each behind the axis prefix; and the
    divisor of the grid order's formula.  Memoised per (grid, axis),
    since every stencil call along an axis asks again."""
    shifts, scale = _STENCILS[grid.order]
    n = grid.points[axis]
    lead = (slice(None),) * axis
    cuts = sorted({0, n} | {-s % n for s in shifts})
    runs = tuple((lead + (slice(lo, hi),),
                  tuple(lead + (slice((lo + s) % n, (lo + s) % n + hi - lo),)
                        for s in shifts))
                 for lo, hi in zip(cuts, cuts[1:]))
    return runs, scale * grid.spacing[axis]


def diff_array(values: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """Periodic central difference along one grid axis of an array whose
    leading axes are the grid axes.  Trailing component axes pass
    through, and so may a slab of the other grid axes: the stencil reads
    only along ``axis``, whose length must be the grid's.

    Every node sees the operations of the grid order's textbook formula,
    (v[i+1] - v[i-1]) / (2h) or
    (-v[i+2] + 8 v[i+1] - 8 v[i-1] + v[i-2]) / (12h), in that order; the
    shifted operands are read as periodic slices and the result is
    written into one output array.
    """
    grid._check_axis(axis)
    runs, divisor = _stencil_plan(grid, axis)
    values = np.asarray(values)
    if values.shape[axis] != grid.points[axis]:
        raise ValueError(f"axis {axis} has {values.shape[axis]} nodes, "
                         f"the grid {grid.points[axis]}")
    out = np.empty(values.shape, np.result_type(values, 1.0))
    if grid.order == 2:
        for run, (p1, m1) in runs:
            np.subtract(values[p1], values[m1], out=out[run])
        out /= divisor
        return out
    eight = 8.0 * values
    for run, (p2, p1, m1, m2) in runs:
        o = out[run]
        # -1 * v is -v, bit for bit; np.negative reads and writes wrong
        # nodes at a 64-byte stride on both sides (numpy 2.4.6)
        np.multiply(values[p2], -1.0, out=o)
        o += eight[p1]
        o -= eight[m1]
        o += values[m2]
    out /= divisor
    return out


def integrate(f: ScalarField, weight: ScalarField | None = None) -> float:
    """Trapezoid-rule integral of ``f`` (times ``weight`` if given).

    On a periodic uniform grid the trapezoid rule has no boundary terms:
    it is the node sum times the cell volume.  numpy's pairwise summation
    makes the result deterministic for a fixed shape.
    """
    if weight is None:
        total = np.sum(f.values)
    else:
        _same_grid(f, weight, "integrate")
        total = np.sum(f.values * weight.values)
    return float(total * f.grid.cell_volume)


def filter_array(values: np.ndarray, grid: GridSpec, cutoff: float) -> np.ndarray:
    """Sharp low-pass Fourier filter over the grid axes.

    Zeroes every mode whose integer wavenumber exceeds ``cutoff`` times
    the axis Nyquist index on any axis.  ``cutoff=1.0`` is the identity
    and returns a plain copy without touching the spectrum.
    """
    if not 0.0 < cutoff <= 1.0:
        raise ValueError(f"cutoff must lie in (0, 1], got {cutoff}")
    if cutoff == 1.0:
        return values.copy()
    dim = grid.dim
    spec = np.fft.fftn(values, axes=tuple(range(dim)))
    for keep in _filter_masks(grid.points, cutoff, spec.ndim):
        spec = spec * keep
    out = np.fft.ifftn(spec, axes=tuple(range(dim))).real
    return np.ascontiguousarray(out)


@lru_cache(maxsize=None)
def _filter_masks(points: tuple[int, ...], cutoff: float,
                  ndim: int) -> tuple[np.ndarray, ...]:
    """Per grid axis, the read-only mask of the wavenumbers that
    ``filter_array`` keeps, shaped to broadcast against an ``ndim``-axis
    spectrum.  Memoised per (points, cutoff, ndim)."""
    masks = []
    for ax, n in enumerate(points):
        k = np.abs(np.fft.fftfreq(n) * n)
        shape = [1] * ndim
        shape[ax] = n
        keep = (k <= cutoff * (n // 2)).reshape(shape)
        keep.flags.writeable = False
        masks.append(keep)
    return tuple(masks)
